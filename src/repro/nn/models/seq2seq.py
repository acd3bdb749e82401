"""Attention-based LSTM sequence-to-sequence model (Chorowski et al. [4]).

Stands in for the paper's LibriSpeech speech-to-text network (Table 1:
"Attention, LSTM, FC layers", 4-layer LSTM encoder + 1-layer LSTM
decoder).  The encoder consumes continuous acoustic-like feature frames;
the decoder is an LSTM cell with additive attention over encoder states
and an output generator.  Evaluated with word error rate (WER).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .. import functional as F
from ..decoding import beam_search, pad_hypotheses
from ..layers import (AdditiveAttention, Dropout, Embedding, LSTM, LSTMCell,
                      Linear)
from ..module import Module
from ..tensor import Tensor, no_grad

__all__ = ["Seq2Seq", "Seq2SeqConfig"]


@dataclasses.dataclass
class Seq2SeqConfig:
    """Hyper-parameters for the scaled-down attention seq2seq model."""

    input_dim: int = 16          # acoustic feature dimension per frame
    vocab: int = 32
    hidden: int = 64
    encoder_layers: int = 2
    attn_size: int = 64
    dropout: float = 0.1
    max_len: int = 24
    pad_id: int = 0
    bos_id: int = 1
    eos_id: int = 2
    #: Moderate heavy-tailed init gains: the paper's seq2seq weight range
    #: ([-2.21, 2.39]) sits between the CNN and Transformer regimes.
    #: ``weight_gain_spread`` leptokurtifies every projection mildly.
    embedding_gain_spread: float = 6.0
    weight_gain_spread: float = 3.0


class Seq2Seq(Module):
    """LSTM encoder / attention LSTM decoder with greedy decoding."""

    def __init__(self, config: Optional[Seq2SeqConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = cfg = config or Seq2SeqConfig()
        self.input_proj = Linear(cfg.input_dim, cfg.hidden, rng=rng)
        self.encoder = LSTM(cfg.hidden, cfg.hidden, cfg.encoder_layers, rng=rng)
        self.embed = Embedding(cfg.vocab, cfg.hidden, rng=rng)
        self.decoder_cell = LSTMCell(2 * cfg.hidden, cfg.hidden, rng=rng)
        self.attention = AdditiveAttention(cfg.hidden, cfg.hidden,
                                           cfg.attn_size, rng=rng)
        self.generator = Linear(2 * cfg.hidden, cfg.vocab, rng=rng)
        self.dropout = Dropout(cfg.dropout, rng=rng)
        from .. import init as _init
        # init-time rescale, before any autodiff graph exists
        for param in (self.embed.weight, self.generator.weight):
            param.data = _init.apply_row_gains(  # reprocheck: disable=AG001
                param.data, cfg.embedding_gain_spread, rng)
        for name, module in self.named_modules():
            if isinstance(module, (Linear, LSTMCell)) \
                    and module is not self.generator:
                for pname, param in module._parameters.items():
                    if pname.startswith("weight"):
                        param.data = _init.apply_row_gains(  # reprocheck: disable=AG001
                            param.data, cfg.weight_gain_spread, rng)

    # ------------------------------------------------------------- encoder
    def encode(self, frames: np.ndarray) -> Tensor:
        """``frames``: (B, T, input_dim) float array -> (B, T, hidden)."""
        x = F.tanh(self.input_proj(Tensor(frames)))
        out, _ = self.encoder(self.dropout(x))
        return out

    # ------------------------------------------------------------- decoder
    def _decode_step(self, token_emb: Tensor, state, memory: Tensor,
                     keys_proj: Optional[Tensor] = None):
        h_prev, _ = state
        context = self.attention(h_prev, memory, keys_proj=keys_proj)
        cell_in = F.cat([token_emb, context], axis=-1)
        h, c = self.decoder_cell(cell_in, state)
        logits = self.generator(F.cat([h, context], axis=-1))
        return logits, (h, c)

    def forward(self, frames: np.ndarray, tgt_ids: np.ndarray) -> Tensor:
        """Teacher-forced logits: (B, T_tgt, vocab).

        ``tgt_ids`` is the *shifted-in* target (BOS-prefixed).
        """
        memory = self.encode(frames)
        batch, tgt_len = tgt_ids.shape
        state = self.decoder_cell.initial_state(batch)
        emb = self.embed(tgt_ids)
        steps = []
        for t in range(tgt_len):
            logits, state = self._decode_step(emb[:, t, :], state, memory)
            steps.append(logits.reshape(batch, 1, self.config.vocab))
        return F.cat(steps, axis=1)

    def beam_decode(self, frames: np.ndarray, beam_size: int = 4,
                    max_len: Optional[int] = None,
                    length_penalty: float = 0.6,
                    use_cache: bool = True) -> np.ndarray:
        """Length-normalized beam search over the decoder LSTM.

        ``use_cache=True`` (the default) advances all live hypotheses in
        one stacked recurrent step with a one-shot attention-key
        projection; ``use_cache=False`` is the naive one-candidate-at-a-
        time reference.  Both run :func:`~repro.nn.decoding.beam_search`.
        """
        if beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {beam_size}")
        cfg = self.config
        max_len = max_len or cfg.max_len
        results = []
        with no_grad():
            for i in range(frames.shape[0]):
                advance, reorder = self._beam_step(frames[i:i + 1], use_cache)
                results.append(beam_search(advance, reorder, [], max_len,
                                           beam_size, length_penalty,
                                           cfg.eos_id))
        return pad_hypotheses(results, cfg.pad_id)

    def _beam_step(self, frames: np.ndarray, use_cache: bool):
        """One source's :func:`beam_search` step: ``(advance, reorder)``."""
        memory = self.encode(frames)                       # (1, T, hidden)
        state = self.decoder_cell.initial_state(1)

        def last_tokens(prefixes):
            return np.asarray([p[-1] if p else self.config.bos_id
                               for p in prefixes], dtype=np.int64)
        if not use_cache:   # each live beam steps alone, on its own state
            states = [state]

            def advance(prefixes):
                nonlocal states
                steps = [self._decode_step(self.embed(last_tokens([p])), s,
                                           memory)
                         for p, s in zip(prefixes, states)]
                states = [s for _, s in steps]
                return np.stack([logits.data[0] for logits, _ in steps])

            def reorder(parents):
                nonlocal states
                states = [states[p] for p in parents]
            return advance, reorder
        # the live beams' h/c rows step as one (k, hidden) stack
        keys_proj = self.attention.project_keys(memory)    # (1, T, attn)

        def advance(prefixes):
            nonlocal state
            k = len(prefixes)
            logits, state = self._decode_step(
                self.embed(last_tokens(prefixes)), state,
                Tensor(np.repeat(memory.data, k, axis=0)),
                keys_proj=Tensor(np.repeat(keys_proj.data, k, axis=0)))
            return logits.data

        def reorder(parents):
            nonlocal state
            state = tuple(Tensor(x.data[parents]) for x in state)
        return advance, reorder

    def greedy_decode(self, frames: np.ndarray,
                      max_len: Optional[int] = None,
                      use_cache: bool = True) -> np.ndarray:
        """Greedy transcription; (B, <=max_len) ids, padded after EOS.

        ``use_cache=True`` (the default) projects the attention keys
        once per batch instead of once per step; the recurrent state is
        carried either way.
        """
        cfg = self.config
        max_len = max_len or cfg.max_len
        batch = frames.shape[0]
        with no_grad():
            memory = self.encode(frames)
            keys_proj = self.attention.project_keys(memory) \
                if use_cache else None
            state = self.decoder_cell.initial_state(batch)
            token = np.full(batch, cfg.bos_id, dtype=np.int64)
            finished = np.zeros(batch, dtype=bool)
            outputs = []
            for _ in range(max_len):
                emb = self.embed(token)
                logits, state = self._decode_step(emb, state, memory,
                                                  keys_proj=keys_proj)
                token = logits.data.argmax(axis=-1)
                token = np.where(finished, cfg.pad_id, token)
                outputs.append(token)
                finished |= token == cfg.eos_id
                if finished.all():
                    break
        return np.stack(outputs, axis=1)
