"""Attention mechanisms: scaled-dot-product multi-head and additive.

Multi-head attention drives the Transformer (paper Table 1, "Attention,
FC layers"); additive (Bahdanau-style) attention drives the seq2seq
speech model [4].
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ... import hooks as _hooks
from .. import functional as F
from .. import sanitize as _sanitize
from .. import tensor as _tensor
from ..decoding import AttentionKVCache
from ..module import Module
from ..sanitize import check_op
from ..tensor import Tensor, is_grad_enabled, matmul_data
from .linear import Linear

__all__ = ["AdditiveAttention", "MultiHeadAttention"]


def _softmax(x: np.ndarray) -> np.ndarray:
    """``functional.softmax`` over the last axis, on an array."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class MultiHeadAttention(Module):
    """Standard multi-head attention (Vaswani et al. [28])."""

    def __init__(self, d_model: int, num_heads: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if d_model % num_heads:
            raise ValueError(f"d_model={d_model} not divisible by heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.w_q = Linear(d_model, d_model, rng=rng)
        self.w_k = Linear(d_model, d_model, rng=rng)
        self.w_v = Linear(d_model, d_model, rng=rng)
        self.w_o = Linear(d_model, d_model, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def forward(self, query: Tensor, key: Tensor, value: Tensor,
                mask: Optional[np.ndarray] = None,
                cache: Optional[AttentionKVCache] = None) -> Tensor:
        """``query``: (B, Tq, D); ``key``/``value``: (B, Tk, D).

        ``mask``: boolean array broadcastable to (B, heads, Tq, Tk);
        True marks *blocked* positions.

        ``cache`` enables incremental decoding (inference-only, must run
        under ``no_grad``): a ``"self"`` cache appends the new
        positions' K/V projections and attends over everything cached so
        far; a ``"cross"`` cache projects ``key``/``value`` (the encoder
        memory) on first use and reuses the stored projections — the
        ``key``/``value`` arguments are ignored afterwards.
        """
        if _tensor.array_kernels():
            return self._forward_arrays(query, key, value, mask, cache)
        if cache is not None and is_grad_enabled():
            raise RuntimeError(
                "KV-cached attention is inference-only; wrap decoding in "
                "no_grad() (cached K/V do not join the autodiff graph)")
        batch, tq, _ = query.shape
        q = self._split_heads(self.w_q(query))
        if cache is None:
            k = self._split_heads(self.w_k(key))
            v = self._split_heads(self.w_v(value))
        elif cache.kind == "cross":
            if cache.k is None:
                cache.set(self._split_heads(self.w_k(key)).data,
                          self._split_heads(self.w_v(value)).data)
            k, v = Tensor(cache.k), Tensor(cache.v)
        else:
            k_new = self._split_heads(self.w_k(key))
            v_new = self._split_heads(self.w_v(value))
            k_full, v_full = cache.append(k_new.data, v_new.data)
            k, v = Tensor(k_full), Tensor(v_full)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.d_head))
        if mask is not None:
            scores = F.masked_fill(scores, mask, -1e9)
        attn = F.softmax(scores, axis=-1)
        context = attn @ v  # (B, H, Tq, d_head)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, tq, self.d_model)
        return self.w_o(merged)

    def _heads(self, x: np.ndarray, state: Any) -> np.ndarray:
        """:meth:`_split_heads` on an array: reshape, then transpose."""
        batch, seq, _ = x.shape
        split = x.reshape(batch, seq, self.num_heads, self.d_head)
        if state is not None:
            check_op(state, "reshape", split, (x,))
        heads = split.transpose(0, 2, 1, 3)
        if state is not None:
            check_op(state, "transpose", heads, (split,))
        return heads

    def _forward_arrays(self, query: Tensor, key: Tensor, value: Tensor,
                        mask: Optional[np.ndarray],
                        cache: Optional[AttentionKVCache]) -> Tensor:
        """:meth:`forward` on ndarrays (see ``tensor.array_kernels``).

        The projections stay ``Linear`` module calls; everything between
        them is the Tensor path's op sequence on arrays, each op checked
        under a sanitizer.
        """
        state = _sanitize.current_state() if _hooks.LIVE else None
        batch, tq, _ = query.shape
        q = self._heads(self.w_q(query).data, state)
        if cache is None:
            k = self._heads(self.w_k(key).data, state)
            v = self._heads(self.w_v(value).data, state)
        elif cache.kind == "cross":
            if cache.k is None:
                cache.set(self._heads(self.w_k(key).data, state),
                          self._heads(self.w_v(value).data, state))
            k, v = cache.k, cache.v
        else:
            k_new = self._heads(self.w_k(key).data, state)
            v_new = self._heads(self.w_v(value).data, state)
            k, v = cache.append(k_new, v_new)
        kt = k.transpose(0, 1, 3, 2)
        if state is not None:
            check_op(state, "transpose", kt, (k,))
        logits = matmul_data(q, kt)
        if state is not None:
            check_op(state, "matmul", logits, (q, kt))
        scale = np.asarray(1.0 / np.sqrt(self.d_head), dtype=np.float32)
        scores = logits * scale
        if state is not None:
            check_op(state, "mul", scores, (logits, scale))
        del logits  # freed where the Tensor path frees it
        if mask is not None:
            unmasked = scores
            scores = np.where(np.asarray(mask, dtype=bool), np.float32(-1e9),
                              unmasked)
            if state is not None:
                check_op(state, "masked_fill", scores, (unmasked,))
            del unmasked
        attn = _softmax(scores)
        if state is not None:
            check_op(state, "softmax", attn, (scores,))
        context = matmul_data(attn, v)  # (B, H, Tq, d_head)
        if state is not None:
            check_op(state, "matmul", context, (attn, v))
        swapped = context.transpose(0, 2, 1, 3)
        if state is not None:
            check_op(state, "transpose", swapped, (context,))
        merged = swapped.reshape(batch, tq, self.d_model)
        if state is not None:
            check_op(state, "reshape", merged, (swapped,))
        return self.w_o(Tensor(merged))


class AdditiveAttention(Module):
    """Bahdanau attention: ``score = v^T tanh(W_q q + W_k k)``."""

    def __init__(self, query_size: int, key_size: int, attn_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.w_query = Linear(query_size, attn_size, bias=False, rng=rng)
        self.w_key = Linear(key_size, attn_size, bias=False, rng=rng)
        self.v = Linear(attn_size, 1, bias=False, rng=rng)

    def project_keys(self, keys: Tensor) -> Tensor:
        """One-shot ``W_k keys`` projection for incremental decoding.

        The keys (encoder memory) are fixed for a whole decode, so the
        projection can be computed once and passed back to every
        :meth:`forward` call as ``keys_proj`` instead of being recomputed
        each step.
        """
        return self.w_key(keys)

    def forward(self, query: Tensor, keys: Tensor,
                mask: Optional[np.ndarray] = None,
                keys_proj: Optional[Tensor] = None) -> Tensor:
        """``query``: (B, Q); ``keys``: (B, T, K) -> context (B, K).

        ``keys_proj`` optionally supplies a precomputed
        :meth:`project_keys` result (it must match ``keys``).
        """
        batch, steps, key_size = keys.shape
        q = self.w_query(query).reshape(batch, 1, -1)
        k = self.w_key(keys) if keys_proj is None else keys_proj
        scores = self.v((q + k).tanh()).reshape(batch, steps)
        if mask is not None:
            scores = F.masked_fill(scores, mask, -1e9)
        weights = F.softmax(scores, axis=-1).reshape(batch, 1, steps)
        context = weights @ keys  # (B, 1, K)
        return context.reshape(batch, key_size)
