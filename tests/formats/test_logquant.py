"""Tests for the logarithmic (power-of-two) extension format."""

import numpy as np

from repro.formats import AdaptivFloat, LogQuant, make_quantizer


class TestLogQuant:
    def test_codepoints_are_powers_of_two(self):
        q = LogQuant(4)
        points = q.codepoints(exp_max=0)
        positive = points[points > 0]
        np.testing.assert_allclose(np.log2(positive),
                                   np.rint(np.log2(positive)))
        assert len(positive) == 2 ** 3 - 1

    def test_zero_representable(self):
        q = LogQuant(4)
        assert 0.0 in q.codepoints(exp_max=0)
        assert q.quantize(np.array([0.0]))[0] == 0.0

    def test_log_domain_rounding(self):
        q = LogQuant(6)
        params = {"exp_max": 2}
        # Geometric midpoint between 1 and 2 is sqrt(2).
        below = q.quantize_with_params(np.array([1.40]), params)[0]
        above = q.quantize_with_params(np.array([1.42]), params)[0]
        assert below == 1.0 and above == 2.0

    def test_adaptive_window_follows_max(self):
        q = LogQuant(4)
        assert q.fit(np.array([100.0]))["exp_max"] == int(np.rint(np.log2(100)))
        assert q.fit(np.array([0.01]))["exp_max"] < 0

    def test_tiny_values_round_to_zero(self):
        q = LogQuant(4)
        params = q.fit(np.array([1.0]))
        out = q.quantize_with_params(np.array([1e-9]), params)
        assert out[0] == 0.0

    def test_registry_integration(self):
        q = make_quantizer("logquant", 5)
        assert isinstance(q, LogQuant)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=128)
        q = LogQuant(6)
        once = q.quantize(x)
        np.testing.assert_array_equal(q.quantize(once), once)

    def test_adaptivfloat_beats_logquant_at_same_bits(self):
        """The mantissa bits AdaptivFloat keeps buy real accuracy: at the
        same word size its RMS error is below pure log quantization."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=8192) * 0.1
        log_err = LogQuant(6).quantization_error(x)
        af_err = AdaptivFloat(6, 3).quantization_error(x)
        assert af_err < log_err

    def test_all_zero_tensor(self):
        q = LogQuant(4)
        np.testing.assert_array_equal(q.quantize(np.zeros(3)), np.zeros(3))
