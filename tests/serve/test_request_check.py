"""A request the served model cannot take fails only its own future.

:class:`~repro.serve.Request` checks only what needs no model, so before
the workers checked each request against the served model's config
(``check_request``), out-of-range input reached the model inside a
micro-batch: a token ``-1`` was served as token 63 (NumPy wraps negative
ids into the embedding), a token past the vocabulary, frames of another
width (transcribe buckets key on the frame count alone), or a source or
decode cap past the Transformer's positional table failed every request
of its batch.
"""

import numpy as np
import pytest

from repro.serve import (InferenceServer, ModelPool, Request,
                         ResilienceConfig, serial_reference)
from repro.serve.batching import check_request
from repro.serve.bench import build_requests


@pytest.fixture(scope="module")
def pool():
    return ModelPool(quant=("adaptivfloat", 8))


def _bad_translate():
    return [("translate", [5, -1, 7], {}), ("translate", [5, 99, 7], {}),
            ("translate", [5] * 70, {}), ("translate", [5, 6, 7], {"max_len": 80})]


@pytest.mark.parametrize("kind,payload,options", _bad_translate() + [
    ("transcribe", np.zeros((6, 15), dtype=np.float32), {}),
    ("classify", np.zeros((1, 16, 16), dtype=np.float32), {})])
def test_check_rejects_what_the_model_cannot_take(pool, kind, payload,
                                                   options):
    request = Request(kind, payload, **options)
    with pytest.raises(ValueError):
        check_request(pool.get(request.model_name).model, request)


@pytest.mark.parametrize("resilient", [False, True],
                         ids=["plain", "resilient"])
@pytest.mark.parametrize("family,bad", [
    ("transformer", ("translate", [5, -1, 7], {})),
    ("transformer", ("translate", [5, 99, 7], {})),
    ("seq2seq", ("transcribe", np.zeros((6, 15), dtype=np.float32), {}))],
    ids=["token-minus-1", "token-99", "wide-frames"])
def test_one_bad_request_fails_alone(pool, family, bad, resilient):
    good = build_requests(family, 5, seed=3, min_len=6, max_src_len=6)
    expected = serial_reference(pool.get(family), good)
    config = ResilienceConfig(scrub_interval_s=None) if resilient else None
    kind, payload, options = bad
    with InferenceServer(pool, max_batch=8, max_wait_ms=200.0,
                         resilience=config) as server:
        futures = [server.submit(r.kind, r.payload, max_len=r.max_len)
                   for r in good[:2]]
        # same bucket key as the good requests: max_len and, for a
        # transcribe request, the frame count match
        bad_future = server.submit(kind, payload,
                                   max_len=options.get("max_len",
                                                       good[0].max_len))
        futures += [server.submit(r.kind, r.payload, max_len=r.max_len)
                    for r in good[2:]]
        with pytest.raises(ValueError):
            bad_future.result(timeout=120)
        assert [f.result(timeout=120) for f in futures] == expected
    snap = server.stats.snapshot()
    assert snap["requests"]["failed"] == 1
    assert snap["requests"]["completed"] == len(good)


def test_decode_cap_past_the_table_fails_alone(pool):
    good = build_requests("transformer", 3, seed=4, max_len=64)
    expected = serial_reference(pool.get("transformer"), good)
    with InferenceServer(pool, max_batch=8, max_wait_ms=200.0) as server:
        futures = [server.submit(r.kind, r.payload, max_len=r.max_len)
                   for r in good]
        bad = server.submit("translate", [5, 6, 7], max_len=80)
        with pytest.raises(ValueError, match="max_len 80"):
            bad.result(timeout=120)
        assert [f.result(timeout=120) for f in futures] == expected
