"""Attention mechanisms: scaled-dot-product multi-head and additive.

Multi-head attention drives the Transformer (paper Table 1, "Attention,
FC layers"); additive (Bahdanau-style) attention drives the seq2seq
speech model [4].
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from ..decoding import AttentionKVCache
from ..module import Module
from ..tensor import Tensor, as_tensor, is_grad_enabled, layer_inputs
from .linear import Linear

__all__ = ["AdditiveAttention", "MultiHeadAttention"]


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
        #: the logits' 1/sqrt(d_head) scale, as float32
        self.scale = np.asarray(1.0 / np.sqrt(self.d_head), dtype=np.float32)
        self.w_q = Linear(d_model, d_model, rng=rng)
        self.w_k = Linear(d_model, d_model, rng=rng)
        self.w_v = Linear(d_model, d_model, rng=rng)
        self.w_o = Linear(d_model, d_model, rng=rng)

    def _heads_of(self, projection: Tensor, grad: bool):
        """A projection's (B, T, D) output as (B, H, T, d_head) heads,
        computed on its array when grad is off."""
        x = projection if grad else projection.data
        batch, seq, _ = x.shape
        return F.transpose(
            F.reshape(x, batch, seq, self.num_heads, self.d_head), 0, 2, 1, 3)

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
        grad = is_grad_enabled()
        if cache is not None and grad:
            raise RuntimeError(
                "KV-cached attention is inference-only; wrap decoding in "
                "no_grad() (cached K/V do not join the autodiff graph)")
        batch, tq, _ = query.shape
        q = self._heads_of(self.w_q(query), grad)
        if cache is None:
            k = self._heads_of(self.w_k(key), grad)
            v = self._heads_of(self.w_v(value), grad)
        elif cache.kind == "cross":
            if cache.k is None:
                cache.set(self._heads_of(self.w_k(key), grad),
                          self._heads_of(self.w_v(value), grad))
            k, v = cache.k, cache.v
        else:
            k, v = cache.append(self._heads_of(self.w_k(key), grad),
                                self._heads_of(self.w_v(value), grad))
        scores = F.mul(F.matmul(q, F.transpose(k, 0, 1, 3, 2)), self.scale)
        if mask is not None:
            scores = F.masked_fill(scores, mask, -1e9)
        context = F.matmul(F.softmax(scores, axis=-1), v)  # (B, H, Tq, d_head)
        merged = F.reshape(F.transpose(context, 0, 2, 1, 3),
                           batch, tq, self.d_model)
        return self.w_o(as_tensor(merged))


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
        grad = is_grad_enabled()
        batch, steps, key_size = keys.shape
        q, = layer_inputs(grad, self.w_query(query))
        q = F.reshape(q, batch, 1, -1)
        k, keys = layer_inputs(
            grad, self.w_key(keys) if keys_proj is None else keys_proj, keys)
        scores, = layer_inputs(grad, self.v(as_tensor(F.tanh(F.add(q, k)))))
        scores = F.reshape(scores, batch, steps)
        if mask is not None:
            scores = F.masked_fill(scores, mask, -1e9)
        weights = F.reshape(F.softmax(scores, axis=-1), batch, 1, steps)
        context = F.matmul(weights, keys)  # (B, 1, K)
        return as_tensor(F.reshape(context, batch, key_size))
