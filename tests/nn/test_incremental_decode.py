"""Equivalence tests for the incremental decoding engine.

The KV-cached paths must emit token ids *bit-identical* to the naive
re-decode-the-prefix implementations.  Floating-point addition is not
associative, so plain BLAS matmuls can differ in the last ulp between a
(1, D) and a (k, D) batch; the tests therefore run both paths under
``deterministic_matmul`` (a shape-stable einsum kernel), which makes
equality exact rather than overwhelmingly likely.  One fixed-seed test
also runs the production BLAS kernel as a smoke check.  See
docs/inference.md.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.nn.decoding import AttentionKVCache, DecoderKVCache, pad_hypotheses
from repro.nn.models.seq2seq import Seq2Seq, Seq2SeqConfig
from repro.nn.models import transformer as transformer_module
from repro.nn.models.transformer import Transformer, TransformerConfig
from repro.nn.optim import SGD
from repro.nn.quantize import (QuantSpec, attach_act_quantizers,
                               attach_weight_quantizers, calibrate)
from repro.nn.tensor import Tensor, deterministic_matmul, no_grad


def _transformer(seed, num_heads=4, num_layers=2, max_len=16, d_model=32):
    rng = np.random.default_rng(seed)
    cfg = TransformerConfig(src_vocab=24, tgt_vocab=24, d_model=d_model,
                            num_heads=num_heads, num_encoder_layers=1,
                            num_decoder_layers=num_layers, d_ff=48,
                            max_len=max_len)
    model = Transformer(cfg, rng=rng)
    model.eval()
    src_len = min(7, max_len)  # positions are table-bounded by max_len
    src = rng.integers(3, cfg.src_vocab, size=(3, src_len))
    src[0, src_len - 2:] = cfg.pad_id
    return model, src


def _seq2seq(seed, max_len=12):
    rng = np.random.default_rng(seed)
    cfg = Seq2SeqConfig(input_dim=8, vocab=20, hidden=24, encoder_layers=1,
                        attn_size=24, max_len=max_len)
    model = Seq2Seq(cfg, rng=rng)
    model.eval()
    frames = rng.standard_normal((3, 6, cfg.input_dim)).astype(np.float32)
    return model, frames


# ------------------------------------------------------------ transformer
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([1, 2, 4]),
       st.sampled_from([1, 2, 3]),
       st.sampled_from([6, 10, 16]))
def test_transformer_greedy_bit_identical(seed, heads, layers, max_len):
    model, src = _transformer(seed, num_heads=heads, num_layers=layers,
                              max_len=max_len)
    with deterministic_matmul():
        naive = model.greedy_decode(src, use_cache=False)
        cached = model.greedy_decode(src, use_cache=True)
    np.testing.assert_array_equal(naive, cached)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([1, 2, 4]),
       st.sampled_from([1, 2]),
       st.sampled_from([1, 2, 4, 5]))
def test_transformer_beam_bit_identical(seed, heads, layers, beam_size):
    model, src = _transformer(seed, num_heads=heads, num_layers=layers)
    with deterministic_matmul():
        naive = model.beam_decode(src, beam_size=beam_size, use_cache=False)
        cached = model.beam_decode(src, beam_size=beam_size, use_cache=True)
    np.testing.assert_array_equal(naive, cached)


@pytest.mark.parametrize("wfmt,afmt", [("adaptivfloat", "adaptivfloat"),
                                       ("uniform", "uniform"),
                                       ("adaptivfloat", None)])
def test_transformer_quantized_bit_identical(wfmt, afmt):
    model, src = _transformer(7, max_len=12)
    attach_weight_quantizers(model, QuantSpec(wfmt, 8))
    if afmt is not None:
        attach_act_quantizers(model, QuantSpec(afmt, 8))
        with calibrate(model):
            model.greedy_decode(src, max_len=6)
    with deterministic_matmul():
        naive_g = model.greedy_decode(src, use_cache=False)
        cached_g = model.greedy_decode(src, use_cache=True)
        naive_b = model.beam_decode(src, beam_size=3, use_cache=False)
        cached_b = model.beam_decode(src, beam_size=3, use_cache=True)
    np.testing.assert_array_equal(naive_g, cached_g)
    np.testing.assert_array_equal(naive_b, cached_b)


def test_transformer_blas_smoke():
    """Production (BLAS) kernel: same tokens on a fixed seed."""
    model, src = _transformer(42)
    np.testing.assert_array_equal(
        model.greedy_decode(src, use_cache=False),
        model.greedy_decode(src, use_cache=True))
    np.testing.assert_array_equal(
        model.beam_decode(src, beam_size=4, use_cache=False),
        model.beam_decode(src, beam_size=4, use_cache=True))


def test_decode_step_matches_full_decode():
    """decode_step output equals the last position of a full decode."""
    model, src = _transformer(3)
    cfg = model.config
    rng = np.random.default_rng(5)
    tokens = np.concatenate(
        [np.full((src.shape[0], 1), cfg.bos_id, dtype=np.int64),
         rng.integers(3, cfg.tgt_vocab, size=(src.shape[0], 5))], axis=1)
    with deterministic_matmul(), no_grad():
        memory = model.encode(src)
        cache = DecoderKVCache(len(model.decoder))
        for t in range(tokens.shape[1]):
            step_out = model.decode_step(memory, src, tokens[:, :t + 1],
                                         cache)
        full_out = model.decode(memory, src, tokens)
    np.testing.assert_array_equal(step_out.data, full_out.data[:, -1:, :])


# ---------------------------------------------------------------- seq2seq
@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 5]),
       st.sampled_from([6, 12]))
def test_seq2seq_beam_bit_identical(seed, beam_size, max_len):
    model, frames = _seq2seq(seed, max_len=max_len)
    with deterministic_matmul():
        naive = model.beam_decode(frames, beam_size=beam_size,
                                  use_cache=False)
        cached = model.beam_decode(frames, beam_size=beam_size,
                                   use_cache=True)
    np.testing.assert_array_equal(naive, cached)


def test_seq2seq_greedy_bit_identical():
    model, frames = _seq2seq(11)
    with deterministic_matmul():
        np.testing.assert_array_equal(
            model.greedy_decode(frames, use_cache=False),
            model.greedy_decode(frames, use_cache=True))


def test_seq2seq_quantized_bit_identical():
    model, frames = _seq2seq(13)
    attach_weight_quantizers(model, QuantSpec("adaptivfloat", 8))
    with deterministic_matmul():
        np.testing.assert_array_equal(
            model.beam_decode(frames, beam_size=4, use_cache=False),
            model.beam_decode(frames, beam_size=4, use_cache=True))


# ------------------------------------------------------------- primitives
def test_cache_reorder_gathers_rows():
    cache = DecoderKVCache(2)
    rng = np.random.default_rng(0)
    k = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
    v = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
    for layer in cache.layers:
        layer.self_attn.append(k.copy(), v.copy())
        layer.cross_attn.set(k.copy(), v.copy())
    cache.reorder([2, 2, 0])
    assert cache.length == 4
    for layer in cache.layers:
        np.testing.assert_array_equal(layer.self_attn.k, k[[2, 2, 0]])
        np.testing.assert_array_equal(layer.cross_attn.v, v[[2, 2, 0]])


def test_cache_validation():
    with pytest.raises(ValueError):
        AttentionKVCache("bogus")
    with pytest.raises(ValueError):
        AttentionKVCache("cross").append(np.zeros((1, 1, 1, 1)),
                                         np.zeros((1, 1, 1, 1)))
    with pytest.raises(ValueError):
        DecoderKVCache(0)
    model, src = _transformer(0)
    with no_grad():
        memory = model.encode(src)
        stale = DecoderKVCache(len(model.decoder))
        tokens = np.full((src.shape[0], 3), 1, dtype=np.int64)
        with pytest.raises(ValueError):
            model.decode_step(memory, src, tokens, stale)


def test_cached_attention_rejects_grad_mode():
    model, src = _transformer(0)
    cache = DecoderKVCache(len(model.decoder))
    with no_grad():
        memory = model.encode(src)
    tokens = np.full((src.shape[0], 1), model.config.bos_id, dtype=np.int64)
    with pytest.raises(RuntimeError):
        model.decode_step(memory, src, tokens, cache)


def test_pad_hypotheses_floor_width():
    out = pad_hypotheses([[], []], pad_id=0)
    assert out.shape == (2, 1)
    assert (out == 0).all()
    out = pad_hypotheses([[3, 4], [5]], pad_id=0)
    np.testing.assert_array_equal(out, [[3, 4], [5, 0]])


def test_beam_decode_all_empty_hypotheses_width(monkeypatch):
    """A batch whose best hypotheses are all empty still yields one
    (all-padding) column — the width bug the shared helper fixes."""
    model, src = _transformer(0)

    def empty(*args, **kwargs):
        return []

    monkeypatch.setattr(transformer_module, "beam_search", empty)
    for use_cache in (False, True):
        out = model.beam_decode(src, beam_size=2, use_cache=use_cache)
        assert out.shape == (src.shape[0], 1)
        assert (out == model.config.pad_id).all()


# ----------------------------------------------------- weight-quant cache
def _memo():
    """``repro_weight_quant_cache_total`` so far, by outcome."""
    family = obs.REGISTRY.get("repro_weight_quant_cache_total")
    return {o: family.labels(outcome=o).value for o in ("hit", "miss")}


def test_ptq_eval_quantizes_each_tensor_exactly_once():
    model, src = _transformer(5, max_len=10)
    attach_weight_quantizers(model, QuantSpec("adaptivfloat", 8))
    before = _memo()
    model.greedy_decode(src)
    model.greedy_decode(src)
    model.beam_decode(src, beam_size=2)
    after = _memo()
    n_weights = sum(1 for m in model.modules()
                    if m.weight_fake_quant is not None)
    assert after["miss"] - before["miss"] == n_weights
    assert after["hit"] > before["hit"]


def test_weight_quant_cache_invalidates_on_optimizer_step():
    """QAR contract: quantized weights change when the underlying weight
    changes (optimizer step bumps the version) and don't when it doesn't."""
    rng = np.random.default_rng(0)
    from repro.nn.layers import Linear
    layer = Linear(8, 8, rng=rng)
    attach_weight_quantizers(layer, QuantSpec("adaptivfloat", 8))
    wq = layer.weight_fake_quant
    x = Tensor(rng.standard_normal((4, 8)).astype(np.float32))

    before = _memo()
    q1 = wq(layer.weight).data
    q2 = wq(layer.weight).data
    np.testing.assert_array_equal(q1, q2)
    assert _memo() == {"hit": before["hit"] + 1, "miss": before["miss"] + 1}

    out = layer(x)
    out.sum().backward()
    opt = SGD(layer.parameters(), lr=0.5)
    version_before = layer.weight.version
    opt.step()
    assert layer.weight.version == version_before + 1

    q3 = wq(layer.weight).data
    # cache invalidated, re-quantized
    assert _memo()["miss"] == before["miss"] + 2
    assert not np.array_equal(q1, q3)
    q4 = wq(layer.weight).data
    np.testing.assert_array_equal(q3, q4)  # stable again until next step

