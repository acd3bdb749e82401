"""Cross-format property tests: invariants every quantizer must satisfy."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import FORMAT_NAMES, make_quantizer

ALL_FORMATS = FORMAT_NAMES + ("fixedpoint", "logquant")


def _build(fmt, bits):
    return make_quantizer(fmt, bits)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL_FORMATS),
    st.sampled_from([4, 6, 8]),
    st.lists(st.floats(min_value=-50, max_value=50,
                       allow_nan=False, allow_infinity=False),
             min_size=2, max_size=24),
)
def test_weak_monotonicity(fmt, bits, values):
    """x <= y implies q(x) <= q(y): rounding never reorders values."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    if np.abs(x).max() == 0.0:
        return
    q = _build(fmt, bits).quantize(x)
    assert np.all(np.diff(q) >= -1e-12), (fmt, bits, x, q)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL_FORMATS),
    st.sampled_from([4, 6, 8]),
    st.lists(st.floats(min_value=-50, max_value=50,
                       allow_nan=False, allow_infinity=False),
             min_size=1, max_size=24),
)
def test_odd_symmetry(fmt, bits, values):
    """q(-x) == -q(x) up to the two's-complement asymmetry of fixedpoint."""
    if fmt == "fixedpoint":
        return  # -2^(n-1) has no positive counterpart
    x = np.asarray(values, dtype=np.float64)
    if np.abs(x).max() == 0.0:
        return
    quantizer = _build(fmt, bits)
    if hasattr(quantizer, "fit"):
        params = quantizer.fit(x)  # shared grid for both signs
        pos = quantizer.quantize_with_params(x, params)
        neg = quantizer.quantize_with_params(-x, params)
    else:
        pos = quantizer.quantize(x)
        neg = quantizer.quantize(-x)
    np.testing.assert_allclose(neg, -pos, rtol=0, atol=0)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ALL_FORMATS),
    st.sampled_from([4, 6, 8]),
)
def test_codepoint_budget(fmt, bits):
    """No format may represent more than 2**bits distinct values."""
    quantizer = _build(fmt, bits)
    try:
        points = quantizer.codepoints()
    except TypeError:
        points = quantizer.codepoints(0)
    assert len(np.unique(points)) <= 2 ** bits


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ALL_FORMATS),
    st.lists(st.floats(min_value=-20, max_value=20,
                       allow_nan=False, allow_infinity=False),
             min_size=1, max_size=16),
)
def test_more_bits_do_not_hurt_beyond_a_fine_step(fmt, values):
    """Widening the word cannot increase RMS error by more than one
    fine-grid step (grids are not always nested — e.g. uniform's scale
    moves with the level count — so exact monotonicity does not hold)."""
    x = np.asarray(values, dtype=np.float64)
    max_abs = float(np.abs(x).max())
    if max_abs == 0.0:
        return
    errs = [_build(fmt, bits).quantization_error(x) for bits in (4, 8)]
    fine_step = max_abs / (2 ** 7 - 1)
    assert errs[1] <= errs[0] + fine_step + 1e-12, (fmt, errs)
