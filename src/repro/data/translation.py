"""Synthetic machine-translation task for the Transformer (DESIGN.md §2).

Substitute for WMT'17 En-De: the "translation" of a source sentence is
its reversal with a per-sentence cyclic token shift keyed by the first
source token.  The mapping is deterministic (so a trained FP32 model
reaches a high, stable BLEU — the reference point quantization then
degrades) yet requires genuine sequence-to-sequence machinery: global
reordering (attention) and a content-dependent transformation.

Token conventions: 0 = PAD, 1 = BOS, 2 = EOS, content tokens start at 3.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..rng import fresh_rng
from .shared import shared_batch

__all__ = ["TranslationBatch", "TranslationTask", "PAD_ID", "BOS_ID", "EOS_ID"]

PAD_ID, BOS_ID, EOS_ID = 0, 1, 2
_CONTENT_START = 3


@dataclasses.dataclass
class TranslationBatch:
    """One teacher-forcing batch."""

    src: np.ndarray        # (B, T_src) int64, EOS-terminated, PAD-padded
    tgt_in: np.ndarray     # (B, T_tgt) decoder input (BOS-prefixed)
    tgt_out: np.ndarray    # (B, T_tgt) decoder target (EOS-terminated)


class TranslationTask:
    """Deterministic reverse-and-shift translation data generator."""

    def __init__(self, vocab: int = 64, min_len: int = 4, max_len: int = 12,
                 seed: int = 0, keyed_shift: bool = False) -> None:
        if vocab <= _CONTENT_START + 1:
            raise ValueError(f"vocab too small: {vocab}")
        self.vocab = vocab
        self.min_len = min_len
        self.max_len = max_len
        self.seed = seed
        self.keyed_shift = keyed_shift
        self._content = vocab - _CONTENT_START
        self._eval_sets: Dict = {}

    # ------------------------------------------------------------ sampling
    def translate(self, src_tokens: List[int]) -> List[int]:
        """Reference translation of one unpadded source token list.

        With ``keyed_shift`` the cyclic shift depends on the first source
        token (a harder, content-conditioned mapping); by default it is a
        fixed shift, which a small Transformer masters quickly while still
        requiring attention-driven global reordering.
        """
        if self.keyed_shift:
            shift = (src_tokens[0] - _CONTENT_START) % 5 + 1
        else:
            shift = 7
        out = [(t - _CONTENT_START + shift) % self._content + _CONTENT_START
               for t in reversed(src_tokens)]
        return out

    def sample_pairs(self, count: int,
                     rng: np.random.Generator) -> List[Tuple[List[int], List[int]]]:
        pairs = []
        for _ in range(count):
            length = int(rng.integers(self.min_len, self.max_len + 1))
            src = rng.integers(_CONTENT_START, self.vocab, size=length).tolist()
            pairs.append((src, self.translate(src)))
        return pairs

    # ------------------------------------------------------------- batching
    def make_batch(self, pairs: List[Tuple[List[int], List[int]]]) -> TranslationBatch:
        src_len = max(len(s) for s, _ in pairs) + 1
        tgt_len = max(len(t) for _, t in pairs) + 1
        batch = len(pairs)
        src = np.full((batch, src_len), PAD_ID, dtype=np.int64)
        tgt_in = np.full((batch, tgt_len), PAD_ID, dtype=np.int64)
        tgt_out = np.full((batch, tgt_len), PAD_ID, dtype=np.int64)
        for i, (s, t) in enumerate(pairs):
            src[i, :len(s)] = s
            src[i, len(s)] = EOS_ID
            tgt_in[i, 0] = BOS_ID
            tgt_in[i, 1:len(t) + 1] = t
            tgt_out[i, :len(t)] = t
            tgt_out[i, len(t)] = EOS_ID
        return TranslationBatch(src, tgt_in, tgt_out)

    def batches(self, batch_size: int, num_batches: int,
                seed_offset: int = 0) -> Iterator[TranslationBatch]:
        rng = fresh_rng(self.seed + seed_offset)
        for _ in range(num_batches):
            yield self.make_batch(self.sample_pairs(batch_size, rng))

    def eval_set(self, count: int = 128,
                 seed_offset: int = 10_000) -> TranslationBatch:
        """A fixed held-out batch, built once and shared read-only."""
        return shared_batch(
            self._eval_sets, (count, seed_offset, self.seed),
            lambda: self.make_batch(self.sample_pairs(
                count, fresh_rng(self.seed + seed_offset))))

    @staticmethod
    def strip(ids: np.ndarray) -> List[List[int]]:
        """Strip EOS/PAD from decoded or reference id matrices."""
        out = []
        for row in np.asarray(ids):
            tokens = []
            for t in row:
                if t in (EOS_ID, PAD_ID):
                    break
                tokens.append(int(t))
            out.append(tokens)
        return out
