"""Decode-throughput gate: KV-cached vs naive autoregressive paths.

:func:`decode_cases` is the one definition of the timed calls:
``tools/bench_report.py --suite decode`` times them in paired
cached/naive rounds (``benchmarks/ab.py``) into ``BENCH_decode.json``,
whose case keys are its names.  The speed-gate test at the bottom runs
in CI as a regression tripwire: greedy decode must stay at least 2x
faster than the naive path.
"""

import numpy as np
import pytest

from benchmarks import ab
from repro.nn.models.seq2seq import Seq2Seq, Seq2SeqConfig
from repro.nn.models.transformer import Transformer, TransformerConfig

MAX_LEN = 64
BEAM_SIZE = 4


def transformer_model():
    # seed 0 decodes to full max_len (no early EOS) — the regime the
    # paper's Table 1-3 evaluation loops actually spend their time in
    rng = np.random.default_rng(0)
    model = Transformer(TransformerConfig(max_len=MAX_LEN), rng=rng)
    model.eval()
    src = rng.integers(3, 64, size=(8, 24))
    return model, src


def seq2seq_model():
    rng = np.random.default_rng(0)
    cfg = Seq2SeqConfig(max_len=32)
    model = Seq2Seq(cfg, rng=rng)
    model.eval()
    frames = rng.standard_normal((4, 16, cfg.input_dim)).astype(np.float32)
    return model, frames


def decode_cases(transformer_setup, seq2seq_setup):
    """Case name -> ``(call(use_cache), output batch size)``."""
    model, src = transformer_setup
    s2s, frames = seq2seq_setup
    return {
        "test_transformer_greedy": (
            lambda use_cache: model.greedy_decode(src, use_cache=use_cache),
            src.shape[0]),
        "test_transformer_beam": (
            lambda use_cache: model.beam_decode(
                src[:1], beam_size=BEAM_SIZE, use_cache=use_cache), 1),
        "test_seq2seq_beam": (
            lambda use_cache: s2s.beam_decode(
                frames[:2], beam_size=BEAM_SIZE, use_cache=use_cache), 2),
    }


@pytest.fixture(scope="module")
def transformer_setup():
    return transformer_model()


def test_greedy_speedup_gate(transformer_setup):
    """CI tripwire (runs under --benchmark-disable): the cached greedy
    path must be >=2x the naive path and emit the same token ids."""
    model, src = transformer_setup
    ids = {}

    def greedy(use_cache):
        def run():
            ids[use_cache] = model.greedy_decode(src, use_cache=use_cache)
        return ab.timed(run)

    speedup = ab.compare(greedy(True), greedy(False), at_least=2.0)
    np.testing.assert_array_equal(ids[False], ids[True])
    assert speedup.passed, f"greedy KV-cache speedup {speedup}"
