"""Tests for tiled (longer-than-H) reductions in the INT datapath."""

import numpy as np

from repro.hardware import IntVectorMac, RequantParams


class TestTiledAccumulation:
    def test_tiled_matches_untiled_for_short_reduction(self):
        rng = np.random.default_rng(0)
        mac = IntVectorMac(bits=8, accum_length=256)
        w = rng.integers(-100, 100, size=(4, 100)).astype(np.int64)
        a = rng.integers(-100, 100, size=100).astype(np.int64)
        np.testing.assert_array_equal(mac.accumulate_tiled(w, a),
                                      mac.accumulate(w, a))

    def test_long_reduction_exact(self):
        """A 512-wide reduction (the paper's LSTM gate width) through
        H=256 tiles must equal the exact integer dot product."""
        rng = np.random.default_rng(1)
        mac = IntVectorMac(bits=8, accum_length=256)
        w = rng.integers(-127, 128, size=(8, 512)).astype(np.int64)
        a = rng.integers(-127, 128, size=512).astype(np.int64)
        np.testing.assert_array_equal(mac.accumulate_tiled(w, a), w @ a)

    def test_matvec_auto_tiles(self):
        rng = np.random.default_rng(2)
        mac = IntVectorMac(bits=8, accum_length=64)
        w = rng.integers(-50, 50, size=(4, 200)).astype(np.int64)
        a = rng.integers(-50, 50, size=200).astype(np.int64)
        exact = w @ a
        s_out = max(np.abs(exact).max() / 127.0, 1e-9)
        rq = RequantParams.from_scale(1.0 / s_out, 16)
        out = mac.matvec(w, a, rq)
        np.testing.assert_allclose(out * s_out, exact, atol=s_out)

    def test_extended_register_guards_overflow(self):
        # Worst-case 1024-long reduction: 4 tiles of the 2^23-1 maximum
        # partial sum must not wrap in the extended register.
        mac = IntVectorMac(bits=8, accum_length=256)
        w = np.full((1, 1024), 127, dtype=np.int64)
        a = np.full(1024, 127, dtype=np.int64)
        out = mac.accumulate_tiled(w, a)
        assert out[0] == 1024 * 127 * 127
