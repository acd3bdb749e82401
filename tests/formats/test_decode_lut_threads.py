"""The decode-LUT cache is shared by every thread that decodes words.

Two campaigns on two threads both reach :func:`repro.formats.codec.
decode_lut`; its LRU must stay consistent when one thread evicts a key
another thread is touching, and every table must still be the format's
own decode.
"""

import sys
import threading

import numpy as np

from repro.formats import make_quantizer
from repro.formats import codec


def test_concurrent_lookups_over_more_params_than_the_bound(monkeypatch):
    # A two-entry bound over three scale registers: nearly every miss
    # evicts a key another thread may be between `get` and `move_to_end`
    # on (an unlocked LRU raises KeyError here within a few runs).
    monkeypatch.setattr(codec, "_LUT_CACHE_SIZE", 2)
    quantizer = make_quantizer("uniform", 8)
    params = [{"scale": 0.01 * (1.0 + i / 512.0), "zero_point": 0}
              for i in range(3)]
    words = np.arange(256, dtype=np.uint32)
    expected = [np.asarray(codec.decode_tensor(quantizer, words, p),
                           dtype=np.float64) for p in params]
    lookups = 12_000
    errors, mismatches = [], []
    barrier = threading.Barrier(4)

    def body(seed):
        order = np.random.default_rng(seed).integers(len(params),
                                                     size=lookups)
        try:
            barrier.wait()
            for i in order:
                table = codec.decode_lut(quantizer, params[i])
                if not np.array_equal(table, expected[i]):
                    mismatches.append(int(i))
        except BaseException as error:   # surfaced by the asserts below
            errors.append(error)

    codec.clear_decode_lut_cache()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=body, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
        stats = codec.decode_lut_cache_stats()
        codec.clear_decode_lut_cache()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:1]
    assert not mismatches
    # no lost counter update either
    assert stats["hits"] + stats["misses"] == 4 * lookups
    assert stats["size"] <= 2
