"""The engine loop's clean-prefix replay is invisible in campaign results.

Each cell records its clean probe and clean evaluation once
(:class:`repro.nn.CallTrace`) and every engine trial replays both up to
the first module call that reads the faulted tensor.  Replay must change
no payload field but ``timing``, and the campaign must still reproduce
the counters the end-to-end benchmark checks against.
"""

import contextlib
import importlib
import json
import pathlib
import sys

import pytest

from repro import nn
from repro.experiments.common import MODEL_NAMES
from repro.nn import trace as trace_module
from repro.resilience import campaign

PERFBENCH = pathlib.Path(__file__).resolve().parents[2] / "perfbench"

#: Trials per cell: enough for faults up- and downstream in every family.
TRIALS = {"transformer": 8, "seq2seq": 4, "resnet": 2}


@pytest.fixture(autouse=True)
def tiny_cache(tmp_path_factory, monkeypatch):
    """The artifact cache ``test_campaign`` uses (shared checkpoints)."""
    cache = tmp_path_factory.getbasetemp() / "resilience_cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))


@pytest.fixture(scope="module")
def workloads():
    """perfbench's workload module (its trial mix and cell counters)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def _payloads(family, seed=3):
    """Every adaptivfloat/float cell of one family, minus ``timing``."""
    out = {}
    for fmt in ("adaptivfloat", "float"):
        for field in campaign.cell_fields(fmt, 8):
            payload = campaign.run_chunk({
                "table": "resilience", "profile": "tiny", "model": family,
                "format": fmt, "bits": 8, "field": field, "ber": None,
                "n_flips": 1, "trials": TRIALS[family], "seed": seed})
            payload.pop("timing")
            out[f"{fmt}/{field}"] = payload
    return out


@pytest.mark.parametrize("family", MODEL_NAMES)
def test_replay_changes_no_payload(family, monkeypatch):
    served = []
    serve = trace_module._serve

    def counting(*args):
        served.append(serve(*args))
        return served[-1]

    with monkeypatch.context() as patch:
        patch.setattr(trace_module, "_serve", counting)
        replayed = _payloads(family)
    assert any(served) and not all(served)   # hits and misses both ran
    monkeypatch.setattr(nn.CallTrace, "replay",
                        lambda self: contextlib.nullcontext())
    plain = _payloads(family)
    # scores, drifts and detected_kinds (in key order) included
    assert json.dumps(replayed) == json.dumps(plain)


@pytest.mark.parametrize("family", MODEL_NAMES)
def test_counters_match_the_perfbench_reference(family, workloads):
    mix = workloads.Campaign(seed=1, seconds=8)
    with open(workloads.REFERENCE_FILE, encoding="utf-8") as handle:
        reference = json.load(handle)["seeds"][str(mix.campaign_seed)]
    result = mix.run_family(family)
    cells = result["models"][family]["formats"]
    got = {f"{fmt}/{field}": workloads.cell_counters(cells[fmt][field])
           for fmt in mix.formats for field in campaign.cell_fields(fmt, 8)}
    assert got == reference[family]
