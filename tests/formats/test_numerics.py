"""Tests for the numerical-analysis helpers, including first-principles
verification of the paper's accumulator-width formulas."""

import math

import pytest

from repro.formats import AdaptivFloat, FloatIEEE, Posit, Uniform
from repro.formats.numerics import (adaptivfloat_product_bits,
                                    decades_covered, dynamic_range_db,
                                    format_summary,
                                    hfint_accumulator_bits,
                                    int_accumulator_bits,
                                    worst_case_relative_error)


class TestRangeMetrics:
    def test_adaptivfloat_dynamic_range(self):
        # <8,3>: value_max/value_min = (2-2^-4)*2^7 / (1+2^-4) ~ 233.4
        q = AdaptivFloat(8, 3)
        db = dynamic_range_db(q, exp_bias=0)
        assert db == pytest.approx(20 * math.log10(
            (2 - 2 ** -4) * 2 ** 7 / (1 + 2 ** -4)))

    def test_bias_invariance(self):
        # Dynamic range is a property of the geometry, not the bias.
        q = AdaptivFloat(8, 3)
        assert dynamic_range_db(q, exp_bias=0) \
            == pytest.approx(dynamic_range_db(q, exp_bias=-9))

    def test_posit_range_wider_than_float(self):
        # posit<8,1> spans useed^±6 = 2^±12; float<8,4> spans ~2^±10.
        assert dynamic_range_db(Posit(8, 1)) \
            > dynamic_range_db(FloatIEEE(8, 4))

    def test_uniform_has_narrow_relative_range(self):
        # levels 1..127: only ~2 decades.
        assert decades_covered(Uniform(8), scale=1.0) \
            == pytest.approx(math.log10(127), rel=1e-6)

    def test_worst_relative_error_tracks_mantissa(self):
        # Halving the mantissa grid roughly halves the worst error.
        err4 = worst_case_relative_error(AdaptivFloat(8, 3), exp_bias=0)
        err3 = worst_case_relative_error(AdaptivFloat(7, 3), exp_bias=0)
        assert err3 == pytest.approx(2 * err4, rel=0.35)

    def test_summary_keys(self):
        summary = format_summary(AdaptivFloat(6, 3), exp_bias=-2)
        assert set(summary) == {"codepoints", "dynamic_range_db", "decades",
                                "worst_rel_error"}


class TestWidthFormulas:
    def test_int_width_matches_paper_formula(self):
        """The paper's 2n + log2(H) formula equals (within its 1-bit
        slack for the symmetric-operand case) the exact requirement."""
        for bits, h in ((8, 256), (4, 256), (8, 1024)):
            paper = 2 * bits + int(math.log2(h))
            exact = int_accumulator_bits(bits, h)
            assert exact <= paper <= exact + 1, (bits, h, exact, paper)

    def test_hfint_width_paper_formula_is_tight_but_optimistic(self):
        """The paper's 2(2^e−1) + 2m + log2 H width is 2-3 bits short of
        the absolute worst case (max mantissas at max exponents on every
        lane) — which is why the simulated accumulator saturates on
        adversarial inputs but is exact on calibrated data
        (tests/hardware/test_datapath.py)."""
        for bits, e, h in ((8, 3, 256), (4, 3, 256)):
            m = bits - e - 1
            paper = 2 * (2 ** e - 1) + 2 * m + int(math.log2(h))
            exact = hfint_accumulator_bits(bits, e, h)
            assert 0 < exact - paper <= 3, (bits, e, exact, paper)

    def test_product_bits(self):
        # <8,3>: mantissa products need 10 bits, shifts add 14 -> 24.
        assert adaptivfloat_product_bits(3, 4) == 24
        # HFINT4 (m=0): 2 bits + 14 shifts = 16.
        assert adaptivfloat_product_bits(3, 0) == 16

    def test_exact_widths_verified_by_simulation(self):
        """Brute-force check of int_accumulator_bits on a tiny case."""
        bits, h = 3, 4
        level = 2 ** (bits - 1) - 1
        worst = h * level * level  # 4 * 9 = 36 -> 6 magnitude bits + sign
        width = int_accumulator_bits(bits, h)
        assert 2 ** (width - 1) - 1 >= worst
        assert 2 ** (width - 2) - 1 < worst  # minimal
