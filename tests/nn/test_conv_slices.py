"""``conv2d`` builds its im2col columns and runs its GEMM a slice of
images at a time; every output and gradient bit must match the
single-GEMM form over the whole batch."""

import numpy as np
import pytest

from repro.hardware.profiler import count_macs
from repro.nn import Tensor, functional as F


def _single_gemm(x, w, stride, padding):
    """The whole-batch im2col + one stacked GEMM ``conv2d`` replaced.

    Returns the output and the full column matrix."""
    batch, in_ch = x.shape[:2]
    out_ch, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    sb, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(batch, in_ch, kh, kw, oh, ow),
        strides=(sb, sc, sh, sw, sh * stride, sw * stride), writeable=False)
    cols = windows.reshape(batch, in_ch * kh * kw, oh * ow)
    out = w.reshape(out_ch, -1)[None] @ cols
    return out.reshape(batch, out_ch, oh, ow), cols


def _data(batch, kernel, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, 3, 9, 9)).astype(np.float32)
    w = rng.normal(size=(5, 3, kernel, kernel)).astype(np.float32)
    return x, w


@pytest.mark.parametrize("batch", (1, 31, 32, 33, 64, 257))
@pytest.mark.parametrize("stride", (1, 2))
@pytest.mark.parametrize("padding", (0, 1))
@pytest.mark.parametrize("kernel", (1, 3))
def test_forward_is_bit_identical(batch, stride, padding, kernel):
    x, w = _data(batch, kernel)
    expected, _ = _single_gemm(x, w, stride, padding)
    got = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
    assert got.data.dtype == expected.dtype
    np.testing.assert_array_equal(got.data, expected)


@pytest.mark.parametrize("batch", (32, 33, 70))
def test_gradients_are_bit_identical(batch):
    x, w = _data(batch, 3, seed=1)
    grad = np.random.default_rng(2).normal(
        size=(batch, 5, 5, 5)).astype(np.float32)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    F.conv2d(xt, wt, stride=2, padding=1).backward(grad)
    _, cols = _single_gemm(x, w, 2, 1)
    gw = np.einsum("bfo,bco->fc", grad.reshape(batch, 5, -1), cols,
                   optimize=True).reshape(w.shape)
    np.testing.assert_array_equal(wt.grad, gw)
    # the input gradient does not read the columns: batch-sliced it must
    # equal the per-slice gradients, stacked
    parts = []
    for lo in range(0, batch, 16):
        part = Tensor(x[lo:lo + 16], requires_grad=True)
        F.conv2d(part, Tensor(w), stride=2, padding=1).backward(
            grad[lo:lo + 16])
        parts.append(part.grad)
    np.testing.assert_array_equal(xt.grad, np.concatenate(parts))


def test_macs_are_counted_once_for_the_whole_batch():
    x, w = _data(257, 3)
    with count_macs() as macs:
        F.conv2d(Tensor(x), Tensor(w), padding=1)
    assert macs.conv_macs == 257 * 5 * 3 * 3 * 3 * 9 * 9
