"""A decode cap or beam width below 1 is rejected at submit, like a
malformed payload.

The decoders read ``max_len or cfg.max_len``, so before this check a cap
of 0 decoded to the model's full cap and a negative one to no tokens.
A beam width below 1 was accepted and failed later inside a worker's
``beam_decode``, after taking an in-flight slot: the engine counted it
as a swallowed exception, and a self-healing server also ran a scrub
pass for it.  ``None`` keeps the model's default cap and greedy decoding.
"""

import numpy as np
import pytest

from repro.serve import InferenceServer, ModelPool, Request, ResilienceConfig
from repro.serve import engine as engine_mod

FRAMES = np.zeros((3, 16), dtype=np.float32)
PAYLOADS = [("translate", [5, 6, 7]), ("transcribe", FRAMES)]


@pytest.fixture(scope="module")
def pool():
    return ModelPool()


@pytest.mark.parametrize("max_len", [0, -3])
@pytest.mark.parametrize("kind,payload", PAYLOADS)
def test_request_rejects_cap_below_one(kind, payload, max_len):
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        Request(kind, payload, max_len=max_len)


@pytest.mark.parametrize("beam_size", [0, -2])
@pytest.mark.parametrize("kind,payload", PAYLOADS)
def test_request_rejects_beam_below_one(kind, payload, beam_size):
    with pytest.raises(ValueError, match="beam_size must be >= 1"):
        Request(kind, payload, beam_size=beam_size)


def test_none_and_positive_caps_are_kept():
    assert Request("translate", [5, 6, 7]).max_len is None
    assert Request("translate", [5, 6, 7], max_len=1).max_len == 1


def test_none_and_positive_beams_are_kept():
    assert Request("translate", [5, 6, 7]).beam_size is None
    assert Request("translate", [5, 6, 7], beam_size=1).beam_size == 1


def _swallowed():
    return sum(child.value for _, child in engine_mod._SWALLOWED.children())


def _submit_rejects(pool, resilient, option, value):
    """``submit`` raises at once; the request takes no slot, no handler
    swallows an exception and no scrub pass runs for it."""
    # No per-batch verify and no scrub daemon: a self-healing server
    # scrubs only after a batch that raised.
    config = ResilienceConfig(scrub_interval_s=None, verify_batches=False,
                              probe=True) if resilient else None
    swallowed = _swallowed()
    with InferenceServer(pool, resilience=config) as server:
        with pytest.raises(ValueError, match=f"{option} must be >= 1"):
            server.submit("translate", [5, 6, 7], **{option: value})
        assert server.submit("translate", [5, 6, 7],
                             max_len=2).result(timeout=60) is not None
    snap = server.stats.snapshot()
    assert snap["requests"]["submitted"] == 1
    assert snap["requests"]["completed"] == 1
    assert snap["resilience"]["scrubs"] == 0
    assert _swallowed() == swallowed


@pytest.mark.parametrize("max_len", [0, -3])
def test_submit_rejects_cap_below_one(pool, max_len):
    for resilient in (False, True):
        _submit_rejects(pool, resilient, "max_len", max_len)


@pytest.mark.parametrize("resilient", [False, True],
                         ids=["plain", "resilient"])
@pytest.mark.parametrize("beam_size", [0, -2])
def test_submit_rejects_beam_below_one(pool, beam_size, resilient):
    _submit_rejects(pool, resilient, "beam_size", beam_size)
