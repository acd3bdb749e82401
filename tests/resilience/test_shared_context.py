"""One clean campaign context per (model, format) and thread.

The engine loop builds a :class:`repro.resilience.campaign._CellContext`
once per (profile, model, format, bits) in a thread-local slot and runs
every field/BER chunk of that model and format on it.  Sharing must be
invisible in every payload, must never outlive a ``run`` call, must not
survive a raising trial, and must never serve a context built for
another checkpoint.  Two campaigns on two threads must not see each
other's contexts.
"""

import gc
import json
import shutil
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.experiments.common import (MODEL_NAMES, checkpoint_path,
                                      trained_model)
from repro.resilience import campaign
from repro.resilience.engine import TrialEngine

FORMATS = ("adaptivfloat", "float")

#: Trials per cell: a few faults per field in every family, kept cheap.
TRIALS = {"transformer": 4, "seq2seq": 3, "resnet": 2}


@pytest.fixture(autouse=True)
def tiny_cache(tmp_path_factory, monkeypatch):
    """The checkpoints the other resilience tests share; no cell cache,
    so every ``run`` computes its chunks."""
    cache = tmp_path_factory.getbasetemp() / "resilience_cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.setenv("REPRO_CELL_CACHE", "0")
    yield
    campaign._drop_context()


@pytest.fixture
def builds(monkeypatch):
    """Weak references to every context built while the test runs."""
    made = []
    init = campaign._CellContext.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(campaign._CellContext, "__init__", counting)
    return made


def _strip_timing(payload):
    return {k: v for k, v in payload.items() if k != "timing"}


def _run(family="transformer", seed=0, **kwargs):
    return campaign.run(profile="tiny", models=(family,), formats=FORMATS,
                        bits=8, trials=kwargs.pop("trials", TRIALS[family]),
                        seed=seed, **kwargs)


def _cells(result, family):
    """Every cell payload of a result, minus ``timing``, by fmt/field."""
    return {f"{fmt}/{field}": _strip_timing(payload)
            for fmt, fields in result["models"][family]["formats"].items()
            for field, payload in fields.items() if payload is not None}


def _descriptor(family, fmt, field, seed=0):
    return {"table": "resilience", "profile": "tiny", "model": family,
            "format": fmt, "bits": 8, "field": field, "ber": None,
            "n_flips": 1, "trials": TRIALS[family], "seed": seed}


def _on_fresh_thread(fn, *args):
    """``fn(*args)`` on a new thread, whose context slot starts empty."""
    out = {}

    def body():
        out["value"] = fn(*args)

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive()
    return out["value"]


@pytest.mark.parametrize("family", MODEL_NAMES)
def test_shared_context_changes_no_payload(family):
    shared = _cells(_run(family), family)
    fresh = {}
    for fmt in FORMATS:
        for field in campaign.cell_fields(fmt, 8):
            payload = _on_fresh_thread(campaign.run_cell,
                                       _descriptor(family, fmt, field))
            fresh[f"{fmt}/{field}"] = _strip_timing(payload)
    # scores, drifts and detected_kinds (in key order) included
    assert json.dumps(shared) == json.dumps(fresh)


@pytest.mark.parametrize("shards", [1, 3])
def test_one_build_per_model_and_format(builds, shards):
    _run(shards=shards, trials=3)
    # 9 cells x `shards` chunks, on 2 (model, format) contexts
    assert len(builds) == len(FORMATS)


def test_naive_loop_builds_one_context_per_chunk(builds):
    _run(engine=False, shards=2, trials=2)
    cells = sum(len(campaign.cell_fields(fmt, 8)) for fmt in FORMATS)
    assert len(builds) == 2 * cells


def test_no_context_outlives_run(builds):
    first = _run()
    gc.collect()
    assert builds and all(ref() is None for ref in builds)
    assert campaign._SLOT.ctx is None
    again = _run()
    assert _cells(again, "transformer") == _cells(first, "transformer")


def test_raising_trial_drops_the_context(builds, monkeypatch):
    expected = _cells(_run(), "transformer")
    calls = []
    fail_at = [7]                        # a trial of the second cell
    faulty_tensor = TrialEngine.faulty_tensor

    def failing(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at[0]:
            raise RuntimeError("injected trial failure")
        return faulty_tensor(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(TrialEngine, "faulty_tensor", failing)
        with pytest.raises(RuntimeError, match="injected"):
            _run()
        assert campaign._SLOT.ctx is None
        # a chunk raising outside `run` empties the slot it filled
        calls.clear()
        fail_at[0] = 2
        with pytest.raises(RuntimeError, match="injected"):
            campaign.run_chunk(_descriptor("transformer", "float", "sign"))
        assert campaign._SLOT.ctx is None
    gc.collect()
    assert all(ref() is None for ref in builds)
    assert _cells(_run(), "transformer") == expected


def test_slot_is_keyed_on_the_checkpoint(builds, tmp_path, monkeypatch):
    cell = _descriptor("transformer", "float", "exponent")
    trained_model("transformer", "tiny")
    source = checkpoint_path("transformer", "tiny")
    first = campaign.run_chunk(cell)
    assert len(builds) == 1

    # the same checkpoint name under another cache root, with halved
    # weights: the slot must rebuild, and serve what a fresh thread does
    other = tmp_path / "other_cache"
    other.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(other))
    blob = np.load(source)
    np.savez(checkpoint_path("transformer", "tiny"),
             **{k: blob[k] * 0.5 if k != "__score__"
                and blob[k].dtype.kind == "f" else blob[k]
                for k in blob.files})
    got = campaign.run_chunk(cell)
    assert len(builds) == 2
    want = _on_fresh_thread(campaign.run_chunk, cell)
    assert _strip_timing(got) == _strip_timing(want)
    assert _strip_timing(got) != _strip_timing(first)

    # rewriting the checkpoint in place is a different checkpoint too
    shutil.copyfile(source, checkpoint_path("transformer", "tiny"))
    campaign.run_chunk(cell)
    assert len(builds) == 4          # the fresh thread built one too


def test_concurrent_campaigns_match_their_serial_runs():
    trained_model("transformer", "tiny")
    serial = {seed: _cells(_run(seed=seed), "transformer")
              for seed in (0, 1)}
    results, errors = {}, []
    barrier = threading.Barrier(2)

    def body(seed):
        try:
            barrier.wait()
            results[seed] = _cells(_run(seed=seed), "transformer")
        except BaseException as error:   # surfaced by the assert below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=body, args=(seed,))
                   for seed in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert results == serial
