"""Encoder-decoder Transformer (Vaswani et al. [28], scaled down).

The paper evaluates a WMT'17 En-De Transformer (93M parameters).  Our
substitute keeps the architecture — token embeddings, sinusoidal
positions, multi-head self/cross attention, LayerNorm (the source of the
wide weight distributions in paper Fig. 1), position-wise FFN and a
linear generator — at a width trainable on CPU for a synthetic
translation task (DESIGN.md §2).  The generator is its own ``Linear``,
not tied to the target embedding, so it is a separate parameter and a
separate fault-injection target.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .. import functional as F
from ..decoding import (DecoderKVCache, LayerKVCache, beam_search,
                        pad_hypotheses)
from ..layers import Dropout, Embedding, LayerNorm, Linear, MultiHeadAttention
from ..module import Module, ModuleList
from ..tensor import Tensor, no_grad

__all__ = ["Transformer", "TransformerConfig", "causal_mask", "padding_mask"]


def causal_mask(size: int) -> np.ndarray:
    """(1, 1, T, T) boolean mask blocking attention to future positions."""
    return np.triu(np.ones((size, size), dtype=bool), k=1)[None, None]


def padding_mask(ids: np.ndarray, pad_id: int) -> np.ndarray:
    """(B, 1, 1, T) boolean mask blocking attention to padding tokens."""
    return (np.asarray(ids) == pad_id)[:, None, None, :]


@dataclasses.dataclass
class TransformerConfig:
    """Hyper-parameters for the scaled-down Transformer."""

    src_vocab: int = 64
    tgt_vocab: int = 64
    d_model: int = 64
    num_heads: int = 4
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    d_ff: int = 128
    dropout: float = 0.1
    max_len: int = 64
    pad_id: int = 0
    bos_id: int = 1
    eos_id: int = 2
    #: Heavy-tailed per-row init gains emulating the wide weight
    #: distributions of large pretrained NLP models (DESIGN.md §2);
    #: set to 1.0 to disable.  ``weight_gain_spread`` applies mildly to
    #: every projection (converged networks are leptokurtic in every
    #: layer); the embedding/generator spreads model the extreme tails.
    embedding_gain_spread: float = 8.0
    generator_gain_spread: float = 4.0
    weight_gain_spread: float = 3.0


class _PositionalEncoding(Module):
    """Fixed sinusoidal positional encoding."""

    def __init__(self, d_model: int, max_len: int) -> None:
        super().__init__()
        position = np.arange(max_len, dtype=np.float64)[:, None]
        div = np.exp(np.arange(0, d_model, 2, dtype=np.float64)
                     * (-np.log(10000.0) / d_model))
        table = np.zeros((max_len, d_model), dtype=np.float32)
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div)
        self.table = table

    def forward(self, x: Tensor) -> Tensor:
        seq = x.shape[1]
        return x + Tensor(self.table[None, :seq])


class _FeedForward(Module):
    def __init__(self, d_model: int, d_ff: int, dropout: float,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.fc1 = Linear(d_model, d_ff, rng=rng)
        self.fc2 = Linear(d_ff, d_model, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.dropout(F.relu(self.fc1(x))))


class _EncoderLayer(Module):
    def __init__(self, cfg: TransformerConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.self_attn = MultiHeadAttention(cfg.d_model, cfg.num_heads, rng=rng)
        self.ffn = _FeedForward(cfg.d_model, cfg.d_ff, cfg.dropout, rng=rng)
        self.norm1 = LayerNorm(cfg.d_model)
        self.norm2 = LayerNorm(cfg.d_model)
        self.dropout = Dropout(cfg.dropout, rng=rng)

    def forward(self, x: Tensor, src_mask: Optional[np.ndarray]) -> Tensor:
        x = self.norm1(x + self.dropout(self.self_attn(x, x, x, mask=src_mask)))
        return self.norm2(x + self.dropout(self.ffn(x)))


class _DecoderLayer(Module):
    def __init__(self, cfg: TransformerConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.self_attn = MultiHeadAttention(cfg.d_model, cfg.num_heads, rng=rng)
        self.cross_attn = MultiHeadAttention(cfg.d_model, cfg.num_heads, rng=rng)
        self.ffn = _FeedForward(cfg.d_model, cfg.d_ff, cfg.dropout, rng=rng)
        self.norm1 = LayerNorm(cfg.d_model)
        self.norm2 = LayerNorm(cfg.d_model)
        self.norm3 = LayerNorm(cfg.d_model)
        self.dropout = Dropout(cfg.dropout, rng=rng)

    def forward(self, x: Tensor, memory: Tensor,
                tgt_mask: Optional[np.ndarray],
                memory_mask: Optional[np.ndarray],
                cache: Optional[LayerKVCache] = None) -> Tensor:
        self_cache = cache.self_attn if cache is not None else None
        cross_cache = cache.cross_attn if cache is not None else None
        x = self.norm1(x + self.dropout(
            self.self_attn(x, x, x, mask=tgt_mask, cache=self_cache)))
        x = self.norm2(x + self.dropout(
            self.cross_attn(x, memory, memory, mask=memory_mask,
                            cache=cross_cache)))
        return self.norm3(x + self.dropout(self.ffn(x)))


class Transformer(Module):
    """Sequence-to-sequence Transformer with greedy decoding."""

    def __init__(self, config: Optional[TransformerConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = cfg = config or TransformerConfig()
        self.src_embed = Embedding(cfg.src_vocab, cfg.d_model, rng=rng)
        self.tgt_embed = Embedding(cfg.tgt_vocab, cfg.d_model, rng=rng)
        self.pos = _PositionalEncoding(cfg.d_model, cfg.max_len)
        self.encoder = ModuleList(
            [_EncoderLayer(cfg, rng) for _ in range(cfg.num_encoder_layers)])
        self.decoder = ModuleList(
            [_DecoderLayer(cfg, rng) for _ in range(cfg.num_decoder_layers)])
        self.generator = Linear(cfg.d_model, cfg.tgt_vocab, rng=rng)
        self.embed_scale = float(np.sqrt(cfg.d_model))
        from .. import init as _init
        for param, spread in ((self.src_embed.weight, cfg.embedding_gain_spread),
                              (self.tgt_embed.weight, cfg.embedding_gain_spread),
                              (self.generator.weight, cfg.generator_gain_spread)):
            # init-time rescale, before any autodiff graph exists
            param.data = _init.apply_row_gains(param.data, spread, rng)  # reprocheck: disable=AG001
        for name, module in self.named_modules():
            if isinstance(module, Linear) and module is not self.generator:
                module.weight.data = _init.apply_row_gains(  # reprocheck: disable=AG001
                    module.weight.data, cfg.weight_gain_spread, rng)

    # ------------------------------------------------------------- encoding
    def encode(self, src_ids: np.ndarray) -> Tensor:
        src_mask = padding_mask(src_ids, self.config.pad_id)
        x = self.pos(self.src_embed(src_ids) * self.embed_scale)
        for layer in self.encoder:
            x = layer(x, src_mask)
        return x

    def decode(self, memory: Tensor, src_ids: np.ndarray,
               tgt_ids: np.ndarray) -> Tensor:
        cfg = self.config
        tgt_len = tgt_ids.shape[1]
        tgt_mask = causal_mask(tgt_len) | padding_mask(tgt_ids, cfg.pad_id)
        memory_mask = padding_mask(src_ids, cfg.pad_id)
        x = self.pos(self.tgt_embed(tgt_ids) * self.embed_scale)
        for layer in self.decoder:
            x = layer(x, memory, tgt_mask, memory_mask)
        return x

    def forward(self, src_ids: np.ndarray, tgt_ids: np.ndarray) -> Tensor:
        """Teacher-forced logits: (B, T_tgt, tgt_vocab)."""
        memory = self.encode(src_ids)
        return self.generator(self.decode(memory, src_ids, tgt_ids))

    # ------------------------------------------------------------- decoding
    def decode_step(self, memory: Tensor, src_ids: np.ndarray,
                    tokens: np.ndarray, cache: DecoderKVCache) -> Tensor:
        """One incremental decoder step over the *latest* token column.

        ``tokens`` is the full ``(B, T)`` prefix decoded so far (its last
        column is the new input); ``cache`` must already hold K/V for the
        first ``T - 1`` positions and is updated in place.  Returns the
        ``(B, 1, d_model)`` decoder output for the new position —
        bit-for-bit the last position of :meth:`decode` on the same
        prefix under a shape-stable matmul kernel (docs/inference.md).
        """
        cfg = self.config
        pos = tokens.shape[1] - 1
        if cache.length != pos:
            raise ValueError(f"cache covers {cache.length} positions, "
                             f"expected {pos} for a length-{pos + 1} prefix")
        # The last causal-mask row blocks nothing at or before the query,
        # so the per-step self-attention mask reduces to key padding.
        self_mask = padding_mask(tokens, cfg.pad_id)
        memory_mask = padding_mask(src_ids, cfg.pad_id)
        x = self.tgt_embed(tokens[:, -1:]) * self.embed_scale \
            + Tensor(self.pos.table[None, pos:pos + 1])
        for layer, layer_cache in zip(self.decoder, cache.layers):
            x = layer(x, memory, self_mask, memory_mask, cache=layer_cache)
        return x

    def beam_decode(self, src_ids: np.ndarray, beam_size: int = 4,
                    max_len: Optional[int] = None,
                    length_penalty: float = 0.6,
                    use_cache: bool = True) -> np.ndarray:
        """Length-normalized beam search (one sequence at a time).

        Scores follow GNMT: ``logp / ((5 + len) / 6) ** alpha``.  Returns
        (B, <=max_len) ids padded after EOS, like :meth:`greedy_decode`.

        ``use_cache=True`` (the default) advances all live hypotheses in
        one KV-cached stacked forward per step; ``use_cache=False`` is
        the naive reference that re-decodes every candidate's full
        prefix each step.  Both run :func:`~repro.nn.decoding.beam_search`.
        """
        if beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {beam_size}")
        cfg = self.config
        max_len = max_len or cfg.max_len
        results = []
        with no_grad():
            for row in np.asarray(src_ids):
                advance, reorder = self._beam_step(row[None, :], use_cache)
                results.append(beam_search(
                    advance, reorder, [cfg.bos_id], max_len - 1, beam_size,
                    length_penalty, cfg.eos_id))
        return pad_hypotheses(results, cfg.pad_id)

    def _beam_step(self, src: np.ndarray, use_cache: bool):
        """One source's :func:`beam_search` step: ``(advance, reorder)``."""
        memory = self.encode(src)
        if not use_cache:
            def advance(prefixes):
                rows = []
                for prefix in prefixes:
                    tgt = np.asarray([prefix], dtype=np.int64)
                    out = self.decode(memory, src, tgt)
                    rows.append(self.generator(out[:, -1, :]).data[0])
                return np.stack(rows)
            return advance, lambda parents: None
        cache = DecoderKVCache(len(self.decoder))

        def advance(prefixes):
            out = self.decode_step(memory, src,
                                   np.asarray(prefixes, dtype=np.int64), cache)
            return self.generator(out[:, -1, :]).data
        return advance, cache.reorder

    def greedy_decode(self, src_ids: np.ndarray,
                      max_len: Optional[int] = None,
                      use_cache: bool = True) -> np.ndarray:
        """Batched greedy decoding; returns (B, <=max_len) token ids
        (without BOS, truncated at EOS per sequence).

        ``use_cache=True`` (the default) runs the KV-cached incremental
        path (:meth:`decode_step`); ``use_cache=False`` re-decodes the
        full prefix each step (the naive reference).
        """
        cfg = self.config
        max_len = max_len or cfg.max_len
        batch = src_ids.shape[0]
        with no_grad():
            memory = self.encode(src_ids)
            tokens = np.full((batch, 1), cfg.bos_id, dtype=np.int64)
            finished = np.zeros(batch, dtype=bool)
            cache = DecoderKVCache(len(self.decoder)) if use_cache else None
            for _ in range(max_len - 1):
                if use_cache:
                    out = self.decode_step(memory, src_ids, tokens, cache)
                else:
                    out = self.decode(memory, src_ids, tokens)
                logits = self.generator(out[:, -1, :]).data
                next_ids = logits.argmax(axis=-1)
                next_ids = np.where(finished, cfg.pad_id, next_ids)
                tokens = np.concatenate([tokens, next_ids[:, None]], axis=1)
                finished |= next_ids == cfg.eos_id
                if finished.all():
                    break
        return tokens[:, 1:]
