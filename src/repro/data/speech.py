"""Synthetic speech-to-text task for the seq2seq model (DESIGN.md §2).

Substitute for LibriSpeech: each "word" token has a fixed prototype
acoustic vector (a frozen codebook); an utterance emits 2-3 noisy frames
per token (duration jitter + additive Gaussian noise), and the model
must transcribe the token sequence.  Noise keeps the FP32 word error
rate realistic and nonzero, so quantization-induced WER increases are
measurable in both directions.

Token conventions: 0 = PAD, 1 = BOS, 2 = EOS, content tokens start at 3.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..rng import fresh_rng
from .shared import shared_batch

__all__ = ["SpeechBatch", "SpeechTask", "PAD_ID", "BOS_ID", "EOS_ID"]

PAD_ID, BOS_ID, EOS_ID = 0, 1, 2
_CONTENT_START = 3


@dataclasses.dataclass
class SpeechBatch:
    """One teacher-forcing batch."""

    frames: np.ndarray     # (B, T_frames, feat) float32
    tgt_in: np.ndarray     # (B, T_tgt) decoder input (BOS-prefixed)
    tgt_out: np.ndarray    # (B, T_tgt) decoder target (EOS-terminated)
    refs: Sequence[Sequence[int]]  # unpadded reference transcripts


class SpeechTask:
    """Prototype-frame synthetic ASR data generator."""

    def __init__(self, vocab: int = 32, feat_dim: int = 16, min_words: int = 3,
                 max_words: int = 8, noise: float = 0.25, seed: int = 0) -> None:
        self.vocab = vocab
        self.feat_dim = feat_dim
        self.min_words = min_words
        self.max_words = max_words
        self.noise = noise
        self.seed = seed
        codebook_rng = fresh_rng(seed + 777)
        # Unit-norm prototypes keep per-frame SNR uniform across tokens.
        protos = codebook_rng.normal(size=(vocab, feat_dim))
        self._protos = (protos / np.linalg.norm(protos, axis=1, keepdims=True)
                        ).astype(np.float32)
        self._eval_sets: Dict = {}

    # ------------------------------------------------------------ sampling
    def sample_utterances(self, count: int, rng: np.random.Generator
                          ) -> List[Tuple[np.ndarray, List[int]]]:
        utterances = []
        for _ in range(count):
            words = int(rng.integers(self.min_words, self.max_words + 1))
            tokens = rng.integers(_CONTENT_START, self.vocab, size=words).tolist()
            frames = []
            for token in tokens:
                duration = int(rng.integers(2, 4))
                proto = self._protos[token]
                frames.extend(
                    proto + rng.normal(scale=self.noise, size=self.feat_dim)
                    for _ in range(duration))
            utterances.append((np.asarray(frames, dtype=np.float32), tokens))
        return utterances

    # ------------------------------------------------------------- batching
    def make_batch(self, utterances) -> SpeechBatch:
        frame_len = max(len(f) for f, _ in utterances)
        tgt_len = max(len(t) for _, t in utterances) + 1
        batch = len(utterances)
        frames = np.zeros((batch, frame_len, self.feat_dim), dtype=np.float32)
        tgt_in = np.full((batch, tgt_len), PAD_ID, dtype=np.int64)
        tgt_out = np.full((batch, tgt_len), PAD_ID, dtype=np.int64)
        refs = []
        for i, (f, tokens) in enumerate(utterances):
            frames[i, :len(f)] = f
            tgt_in[i, 0] = BOS_ID
            tgt_in[i, 1:len(tokens) + 1] = tokens
            tgt_out[i, :len(tokens)] = tokens
            tgt_out[i, len(tokens)] = EOS_ID
            refs.append(list(tokens))
        return SpeechBatch(frames, tgt_in, tgt_out, refs)

    def batches(self, batch_size: int, num_batches: int,
                seed_offset: int = 0) -> Iterator[SpeechBatch]:
        rng = fresh_rng(self.seed + seed_offset)
        for _ in range(num_batches):
            yield self.make_batch(self.sample_utterances(batch_size, rng))

    def eval_set(self, count: int = 128, seed_offset: int = 10_000) -> SpeechBatch:
        """A fixed held-out batch, built once and shared read-only (its
        ``refs`` are tuples)."""
        return shared_batch(
            self._eval_sets, (count, seed_offset, self.seed),
            lambda: self.make_batch(self.sample_utterances(
                count, fresh_rng(self.seed + seed_offset))))

    @staticmethod
    def strip(ids: np.ndarray) -> List[List[int]]:
        """Strip EOS/PAD from decoded id matrices."""
        out = []
        for row in np.asarray(ids):
            tokens = []
            for t in row:
                if t in (EOS_ID, PAD_ID):
                    break
                tokens.append(int(t))
            out.append(tokens)
        return out
