"""Tests of the analytical PE PPA models (paper Fig. 5/7 contracts)."""

import pytest

from repro.hardware import PEConfig, make_pe


class TestWidths:
    """Accumulator-width formulas from paper Section 5 (DESIGN.md §6)."""

    def test_int_pe_names_match_paper(self):
        assert make_pe("int", 8, 16).name == "INT8/24/40"
        assert make_pe("int", 4, 4).name == "INT4/16/24"

    def test_hfint_pe_names_match_paper(self):
        assert make_pe("hfint", 8, 16).name == "HFINT8/30"
        assert make_pe("hfint", 4, 4).name == "HFINT4/22"

    def test_int_accumulator_formula(self):
        # 2n + log2(H)
        pe = make_pe("int", 8, 16, accum_length=256)
        assert pe.accumulator_width == 24
        pe = make_pe("int", 8, 16, accum_length=1024)
        assert pe.accumulator_width == 26

    def test_hfint_accumulator_formula(self):
        # 2(2^e - 1) + 2m + log2(H), e=3
        pe = make_pe("hfint", 8, 16)
        assert pe.mant_bits == 4
        assert pe.accumulator_width == 2 * 7 + 2 * 4 + 8 == 30

    def test_throughput_formula(self):
        # Paper Section 6.2: single PE throughput = K^2 * 2 * 1e9 OPS.
        pe = make_pe("int", 8, 16)
        assert pe.throughput_ops() == pytest.approx(16 * 16 * 2e9)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            PEConfig(bits=1)
        with pytest.raises(ValueError):
            PEConfig(accum_length=100)  # not a power of two
        with pytest.raises(ValueError):
            make_pe("bogus", 8, 16)


# Paper Fig. 7 reference points.
PAPER_ENERGY = {
    ("int", 4): {4: 127.00, 8: 59.75, 16: 30.36},
    ("hfint", 4): {4: 123.12, 8: 56.39, 16: 27.77},
    ("int", 8): {4: 227.61, 8: 105.80, 16: 52.21},
    ("hfint", 8): {4: 205.27, 8: 98.38, 16: 46.88},
}
PAPER_PERF_AREA = {
    ("int", 4): {4: 1.31, 8: 2.28, 16: 3.90},
    ("hfint", 4): {4: 1.26, 8: 2.10, 16: 3.42},
    ("int", 8): {4: 1.11, 8: 1.59, 16: 2.25},
    ("hfint", 8): {4: 1.02, 8: 1.39, 16: 1.86},
}


class TestFig7Calibration:
    @pytest.mark.parametrize("kind,bits", list(PAPER_ENERGY))
    def test_energy_within_calibration_band(self, kind, bits):
        for k, paper in PAPER_ENERGY[(kind, bits)].items():
            model = make_pe(kind, bits, k).energy_per_op()
            assert model == pytest.approx(paper, rel=0.15), (kind, bits, k)

    @pytest.mark.parametrize("kind,bits", list(PAPER_PERF_AREA))
    def test_perf_area_within_calibration_band(self, kind, bits):
        for k, paper in PAPER_PERF_AREA[(kind, bits)].items():
            model = make_pe(kind, bits, k).perf_per_area()
            assert model == pytest.approx(paper, rel=0.25), (kind, bits, k)

    def test_hfint_energy_ratio_shrinks(self):
        """Paper Section 6.2: HFINT per-op energy goes from 0.97x of INT
        (4-bit, K=4) to 0.90x (8-bit, K=16)."""
        ratio_small = (make_pe("hfint", 4, 4).energy_per_op()
                       / make_pe("int", 4, 4).energy_per_op())
        ratio_large = (make_pe("hfint", 8, 16).energy_per_op()
                       / make_pe("int", 8, 16).energy_per_op())
        assert ratio_large < ratio_small < 1.0
        assert ratio_small == pytest.approx(0.97, abs=0.03)
        assert ratio_large == pytest.approx(0.90, abs=0.04)

    def test_int_always_wins_perf_per_area(self):
        """Paper: INT PEs exhibit 1.04x-1.21x higher TOPS/mm^2."""
        for bits in (4, 8):
            for k in (4, 8, 16):
                ratio = (make_pe("int", bits, k).perf_per_area()
                         / make_pe("hfint", bits, k).perf_per_area())
                assert 1.0 < ratio < 1.35, (bits, k, ratio)

    def test_energy_improves_with_vector_size(self):
        """Paper: larger vector sizes amortize overheads (both PEs)."""
        for kind in ("int", "hfint"):
            energies = [make_pe(kind, 8, k).energy_per_op()
                        for k in (4, 8, 16)]
            assert energies[0] > energies[1] > energies[2]


class TestModelStructure:
    def test_breakdown_sums_to_total(self):
        pe = make_pe("hfint", 8, 16)
        assert sum(pe.breakdown().values()) == pytest.approx(pe.energy_per_op())

    def test_hfint_mac_cheaper_at_8bit(self):
        """The HFINT vector MAC has smaller mantissa multipliers (paper
        Section 6.2) — its per-MAC energy must be below INT's at 8-bit."""
        assert (make_pe("hfint", 8, 16).breakdown()["mac"]
                < make_pe("int", 8, 16).breakdown()["mac"])

    def test_hfint_area_larger(self):
        for bits in (4, 8):
            for k in (4, 8, 16):
                assert (make_pe("hfint", bits, k).area()
                        > make_pe("int", bits, k).area())

    def test_longer_accumulation_widens_registers(self):
        narrow = make_pe("int", 8, 16, accum_length=64)
        wide = make_pe("int", 8, 16, accum_length=4096)
        assert wide.accumulator_width > narrow.accumulator_width
        # Wider accumulators cost more per-lane energy (the post-proc
        # amortization moves the per-op total the other way).
        assert wide._lane_energy() > narrow._lane_energy()

    def test_exp_bits_affect_hfint_width(self):
        pe2 = make_pe("hfint", 8, 16, exp_bits=2)
        pe4 = make_pe("hfint", 8, 16, exp_bits=4)
        assert pe2.accumulator_width < pe4.accumulator_width
