"""Warm-model pool: lazy build, sharing, quantizer attachment, warmup."""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.nn import no_grad
from repro.nn.quantize import QuantSpec
from repro.rng import fresh_rng
from repro.serve import ModelPool, Request, run_microbatch


@pytest.fixture(scope="module")
def pool():
    return ModelPool()


def _memo():
    """``repro_weight_quant_cache_total`` so far, by outcome."""
    family = obs.REGISTRY.get("repro_weight_quant_cache_total")
    return {o: family.labels(outcome=o).value for o in ("hit", "miss")}


def _images(entry, seed=7):
    cfg = entry.model.config
    return fresh_rng(seed).standard_normal(
        (1, cfg.in_channels, cfg.image_size, cfg.image_size)
    ).astype(np.float32)


def test_get_builds_once_and_shares(pool):
    first = pool.get("transformer")
    second = pool.get("transformer")
    assert first is second
    assert first.model is second.model
    assert first.name == "transformer"
    assert first.profile is None
    assert first.fp32_score is None  # untrained seeded weights


def test_warm_models_lists_resolved_families(pool):
    pool.get("transformer")
    assert "transformer" in pool.warm_models()


def test_unknown_model_raises(pool):
    with pytest.raises(ValueError, match="unknown model"):
        pool.get("not-a-model")


def test_model_is_in_eval_mode(pool):
    assert pool.get("transformer").model.training is False


def test_quant_tuple_becomes_spec():
    quant_pool = ModelPool(quant=("adaptivfloat", 8), warmup=False)
    assert quant_pool.quant == QuantSpec("adaptivfloat", 8)


def test_no_memo_traffic_without_quant(pool):
    entry = pool.get("transformer")
    before = _memo()
    run_microbatch(entry, [Request("translate", [3, 4, 5], max_len=4)])
    assert _memo() == before


def test_warmup_primes_weight_quant_memo():
    quant_pool = ModelPool(quant=("adaptivfloat", 8))
    before = _memo()
    entry = quant_pool.get("resnet")  # resnet has the cheapest warmup forward
    warm = _memo()
    n_weights = sum(1 for m in entry.model.modules()
                    if m.weight_fake_quant is not None)
    assert warm["miss"] - before["miss"] == n_weights  # each quantized once
    # a second forward is all hits: frozen weights never re-quantize
    with no_grad():
        entry.model(_images(entry))
    after = _memo()
    assert after["miss"] == warm["miss"]
    assert after["hit"] > warm["hit"]


def test_shared_memo_counts_every_read_across_threads():
    """Four threads run one pool-shared AdaptivFloat-8 model with the
    interpreter switching threads every 10 us: the memo counter moves
    by exactly one hit per weight read and loses none."""
    entry = ModelPool(quant=("adaptivfloat", 8)).get("resnet")
    reads = sum(1 for m in entry.model.modules()
                if m.weight_fake_quant is not None)    # per forward
    images = _images(entry)
    threads, forwards = 4, 20
    barrier = threading.Barrier(threads)

    def run():
        barrier.wait(timeout=60)
        with no_grad():
            for _ in range(forwards):
                entry.model(images)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        before = _memo()
        workers = [threading.Thread(target=run) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        after = _memo()
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert after == {"hit": before["hit"] + threads * forwards * reads,
                     "miss": before["miss"]}


def test_build_failure_caches_nothing_and_retry_succeeds(monkeypatch):
    # Regression guard: a quantizer dying mid-attach must leave the
    # pool empty (no poisoned half-built entry), propagate the error to
    # the caller, and let a later get() rebuild cleanly.
    import repro.serve.pool as pool_mod

    real_attach = pool_mod.attach_weight_quantizers
    calls = {"n": 0}

    def flaky_attach(model, spec):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("quantizer died mid-attach")
        return real_attach(model, spec)

    monkeypatch.setattr(pool_mod, "attach_weight_quantizers", flaky_attach)
    pool = ModelPool(quant=("adaptivfloat", 8), warmup=False)
    with pytest.raises(RuntimeError, match="died mid-attach"):
        pool.get("transformer")
    assert pool.warm_models() == ()          # nothing half-built cached
    entry = pool.get("transformer")          # retry rebuilds from scratch
    assert entry.name == "transformer"
    assert pool.warm_models() == ("transformer",)
    assert calls["n"] == 2


def test_enable_scrubbing_snapshots_built_models():
    pool = ModelPool(warmup=False)
    pool.get("transformer")
    assert pool.get("transformer").scrubber is None
    pool.enable_scrubbing()
    scrubber = pool.get("transformer").scrubber
    assert scrubber is not None
    assert scrubber.verify() == []           # snapshot taken, weights clean
    pool.enable_scrubbing()                  # idempotent
    assert pool.get("transformer").scrubber is scrubber
    assert "transformer" in pool.scrub_counters()


def test_concurrent_first_gets_build_one_instance():
    pool = ModelPool(warmup=False)
    results = []
    barrier = threading.Barrier(4)

    def grab():
        barrier.wait()
        results.append(pool.get("transformer"))

    threads = [threading.Thread(target=grab) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == 4
    assert all(entry is results[0] for entry in results)
