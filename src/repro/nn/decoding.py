"""Incremental-decoding support: KV caches and the shared beam search.

Autoregressive evaluation is the repo's dominant cost (every BLEU/WER
cell in Tables 1-3 is produced by greedy or beam decoding), and the
naive strategy re-runs the entire token prefix through every decoder
layer at each step.  This module holds the state that makes decoding
incremental:

* :class:`AttentionKVCache` — per-attention-module key/value store.  A
  ``"self"`` cache grows by one position per decode step (append-only);
  a ``"cross"`` cache projects the encoder memory exactly once and
  reuses it for every subsequent step.
* :class:`LayerKVCache` / :class:`DecoderKVCache` — one self+cross pair
  per decoder layer, with batched reordering so beam search can prune
  and reorder all live hypotheses in one gather (``reorder``).
* :func:`beam_search` — the one length-normalized beam search behind
  ``Transformer.beam_decode`` and ``Seq2Seq.beam_decode``; each model
  supplies only its step (a KV-cached or stacked-state ``advance`` plus
  its ``reorder``, or the naive per-candidate reference step).
* :func:`pad_hypotheses` — the padding logic shared by both
  ``beam_decode`` methods (with a floor width of 1 so an
  all-empty-hypothesis batch cannot produce a zero-width column).

Caches hold plain float32 arrays, not autodiff tensors: incremental
decoding is inference-only and must run under
:class:`~repro.nn.tensor.no_grad` (the attention layer enforces this).
The design and its bit-exactness contract are documented in
docs/inference.md.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AttentionKVCache", "DecoderKVCache", "LayerKVCache",
           "assemble_source_batch", "beam_search", "pad_hypotheses",
           "strip_hypotheses"]


class AttentionKVCache:
    """Cached key/value projections for one attention module.

    ``kind`` selects the update discipline:

    * ``"self"`` — :meth:`append` concatenates the new positions' K/V
      along the sequence axis and returns the full cached arrays;
    * ``"cross"`` — :meth:`set` stores the one-shot encoder-memory
      projections, reused verbatim on every later step.
    """

    def __init__(self, kind: str) -> None:
        if kind not in ("self", "cross"):
            raise ValueError(f"unknown cache kind {kind!r}")
        self.kind = kind
        self.k: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None

    @property
    def length(self) -> int:
        """Number of cached key positions (0 when empty)."""
        return 0 if self.k is None else self.k.shape[2]

    def set(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store one-shot projections (cross-attention memory K/V)."""
        self.k, self.v = k, v

    def append(self, k_new: np.ndarray,
               v_new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Append ``(B, H, T_new, d)`` K/V and return the full arrays."""
        if self.kind != "self":
            raise ValueError("append() is only valid on a 'self' cache")
        if self.k is None:
            self.k, self.v = k_new, v_new
        else:
            self.k = np.concatenate([self.k, k_new], axis=2)
            self.v = np.concatenate([self.v, v_new], axis=2)
        return self.k, self.v

    def reorder(self, indices: np.ndarray) -> None:
        """Gather cache rows along the batch axis (beam select/prune).

        ``indices`` may repeat rows (a parent hypothesis surviving as
        several children) or drop rows (pruned hypotheses).
        """
        if self.k is not None:
            self.k = self.k[indices]
            self.v = self.v[indices]


class LayerKVCache:
    """Self + cross attention caches for one decoder layer."""

    def __init__(self) -> None:
        self.self_attn = AttentionKVCache("self")
        self.cross_attn = AttentionKVCache("cross")

    def reorder(self, indices: np.ndarray) -> None:
        self.self_attn.reorder(indices)
        self.cross_attn.reorder(indices)


class DecoderKVCache:
    """Per-layer KV caches for a whole decoder stack."""

    def __init__(self, num_layers: int) -> None:
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.layers: List[LayerKVCache] = [LayerKVCache()
                                           for _ in range(num_layers)]

    @property
    def length(self) -> int:
        """Number of decoded positions the cache covers."""
        return self.layers[0].self_attn.length

    def reorder(self, indices: np.ndarray) -> None:
        """Reorder every layer's caches along the batch axis."""
        indices = np.asarray(indices, dtype=np.int64)
        for layer in self.layers:
            layer.reorder(indices)


def beam_search(advance: Callable[[List[List[int]]], np.ndarray],
                reorder: Callable[[List[int]], None], start: Sequence[int],
                steps: int, beam_size: int, alpha: float,
                eos_id: int) -> List[int]:
    """Length-normalized beam search for one source sequence.

    ``advance(prefixes)`` returns one row of next-token logits per live
    hypothesis (token lists in beam order, ``start`` included).  Each
    row is log-softmaxed and each live beam proposes its ``beam_size``
    best tokens; a finished beam is carried over unchanged.  A stable
    sort ranks candidates by the GNMT score ``logp / ((5 + len) / 6) **
    alpha`` (``len`` counts ``start``), so ties keep expansion order.
    Unless all survivors have finished, ``reorder(parents)`` then gets
    the ``advance`` row each surviving live beam extends, to realign the
    step's state (a KV cache, LSTM rows).  After ``steps`` expansions or
    once every beam has finished, returns the best hypothesis without
    ``start``, cut at its first EOS.
    """
    beams = [(list(start), 0.0, False, 0)]  # (tokens, logp, done, parent)
    for _ in range(steps):
        logits = advance([tokens for tokens, _, done, _ in beams if not done])
        candidates, row = [], 0
        for tokens, logp, done, _ in beams:
            if done:
                candidates.append((tokens, logp, True, -1))
                continue
            shifted = logits[row] - logits[row].max()
            logprobs = shifted - np.log(np.exp(shifted).sum())
            for token in np.argsort(-logprobs)[:beam_size]:
                candidates.append((tokens + [int(token)],
                                   logp + float(logprobs[token]),
                                   token == eos_id, row))
            row += 1
        candidates.sort(key=lambda c: c[1] / ((5.0 + len(c[0])) / 6.0)
                        ** alpha, reverse=True)
        beams = candidates[:beam_size]
        if all(done for _, _, done, _ in beams):
            break
        reorder([parent for _, _, done, parent in beams if not done])
    best = beams[0][0][len(start):]
    return best[:best.index(eos_id)] if eos_id in best else best


def pad_hypotheses(hypotheses: Sequence[Sequence[int]],
                   pad_id: int) -> np.ndarray:
    """Stack variable-length token-id lists into a padded ``(B, W)`` array.

    ``W`` is the longest hypothesis length with a floor of 1, so a batch
    whose hypotheses are all empty still yields one (all-padding) column
    — downstream metric code indexes column 0 unconditionally.
    """
    width = max([len(h) for h in hypotheses] + [1])
    out = np.full((len(hypotheses), width), pad_id, dtype=np.int64)
    for i, hyp in enumerate(hypotheses):
        out[i, :len(hyp)] = hyp
    return out


def assemble_source_batch(sources: Sequence[Sequence[int]], pad_id: int,
                          eos_id: int) -> np.ndarray:
    """Pack ragged source token lists into one EOS-terminated padded batch.

    Each row is ``tokens + [EOS]`` followed by padding up to the longest
    row — the convention the training data generators use
    (``TranslationTask.make_batch``) and the one micro-batch serving
    relies on.  Padding is *inert* for the Transformer: ``padding_mask``
    gives pad keys softmax weight exactly 0.0 (``exp(-1e9)`` underflows),
    so a request decodes to the same tokens whatever padded batch it
    rides in (verified bit-exactly under ``deterministic_matmul`` in
    tests/serve/test_equivalence.py).
    """
    if not len(sources):
        raise ValueError("cannot assemble an empty source batch")
    width = max(len(s) for s in sources) + 1
    out = np.full((len(sources), width), pad_id, dtype=np.int64)
    for i, tokens in enumerate(sources):
        out[i, :len(tokens)] = tokens
        out[i, len(tokens)] = eos_id
    return out


def strip_hypotheses(ids: np.ndarray, pad_id: int,
                     eos_id: int) -> List[List[int]]:
    """Split a decoded ``(B, W)`` id matrix into per-row token lists,
    truncating each row at its first EOS or PAD."""
    out: List[List[int]] = []
    for row in np.asarray(ids):
        tokens: List[int] = []
        for token in row:
            if token in (eos_id, pad_id):
                break
            tokens.append(int(token))
        out.append(tokens)
    return out
