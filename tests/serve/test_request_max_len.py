"""A decode cap below 1 is rejected at submit, like a malformed payload.

The decoders read ``max_len or cfg.max_len``, so before this check a cap
of 0 decoded to the model's full cap and a negative one to no tokens.
"""

import numpy as np
import pytest

from repro.serve import InferenceServer, ModelPool, Request

FRAMES = np.zeros((3, 16), dtype=np.float32)


@pytest.fixture(scope="module")
def pool():
    return ModelPool()


@pytest.mark.parametrize("max_len", [0, -3])
@pytest.mark.parametrize("kind,payload", [("translate", [5, 6, 7]),
                                          ("transcribe", FRAMES)])
def test_request_rejects_cap_below_one(kind, payload, max_len):
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        Request(kind, payload, max_len=max_len)


def test_none_and_positive_caps_are_kept():
    assert Request("translate", [5, 6, 7]).max_len is None
    assert Request("translate", [5, 6, 7], max_len=1).max_len == 1


@pytest.mark.parametrize("max_len", [0, -3])
def test_submit_rejects_cap_below_one(pool, max_len):
    with InferenceServer(pool) as server:
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            server.submit("translate", [5, 6, 7], max_len=max_len)
        assert server.submit("translate", [5, 6, 7],
                             max_len=2).result(timeout=60) is not None
    snap = server.stats.snapshot()["requests"]
    assert snap["submitted"] == 1 and snap["completed"] == 1
