"""Functional neural-network operations.

Each op here is a primitive, like the ``Tensor`` ops of
:mod:`repro.nn.tensor` it re-exports: given only arrays it runs its NumPy
forward, reports to the live hooks and returns an array; given a Tensor
it returns a Tensor, recording its node and backward while grad is on.
Custom-gradient ops live here (softmax, conv2d, pooling, fake
quantization with a straight-through estimator).  The layers in
:mod:`repro.nn.layers` write their forwards once over these ops.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .. import hooks as _hooks
from ..hardware.profiler import record_conv2d as _record_conv2d
from ..rng import default_rng
from . import sanitize as _sanitize
from .tensor import (Tensor, _checked, _record, add, as_tensor, getitem,
                     matmul, mean, mul, neg, pow_, relu, reshape, sigmoid,
                     sub, swapaxes, tanh, transpose)

__all__ = [
    "add", "avg_pool2d", "cat", "conv2d", "cross_entropy", "dropout",
    "embedding", "fake_quantize", "gelu", "getitem", "global_avg_pool2d",
    "log_softmax", "masked_fill", "matmul", "max_pool2d", "mean", "mul",
    "neg", "pow_", "relu", "reshape", "sigmoid", "softmax", "sub",
    "swapaxes", "tanh", "transpose",
]


def _op(data: np.ndarray, parents: Sequence[Tensor],
        backward: Callable[[np.ndarray], None]) -> Tensor:
    """A Tensor op written outside the primitives (the sanitizer tests'
    oracles build theirs this way): the recorded Tensor plus the
    op-output check, named after ``backward``'s enclosing function."""
    out = _record(data, tuple(parents), backward)
    if _hooks.LIVE:
        _sanitize.on_op(out, data, parents, backward)
    return out


# --------------------------------------------------------------- activations
def gelu(x):
    """GELU with the tanh approximation (exact gradient of the approximation)."""
    c = np.float32(np.sqrt(2.0 / np.pi))
    a = np.float32(0.044715)
    if isinstance(x, Tensor):
        def backward(grad: np.ndarray) -> None:
            t = np.tanh(c * (x.data + a * x.data ** 3))
            dinner = c * (1.0 + 3.0 * a * x.data ** 2)
            dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * dinner
            x._accumulate(grad * dx)

        return _record(gelu(x.data), (x,), backward)
    out = 0.5 * x * (1.0 + np.tanh(c * (x + a * x ** 3)))
    return _checked("gelu", out, x) if _hooks.LIVE else out


# ------------------------------------------------------------------- softmax
def softmax(x, axis: int = -1):
    if isinstance(x, Tensor):
        y = softmax(x.data, axis)

        def backward(grad: np.ndarray) -> None:
            dot = (grad * y).sum(axis=axis, keepdims=True)
            x._accumulate(y * (grad - dot))

        return _record(y, (x,), backward)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    return _checked("softmax", y, x) if _hooks.LIVE else y


def log_softmax(x, axis: int = -1):
    if isinstance(x, Tensor):
        y = log_softmax(x.data, axis)
        return _record(y, (x,), lambda grad: x._accumulate(
            grad - np.exp(y) * grad.sum(axis=axis, keepdims=True)))
    shifted = x - x.max(axis=axis, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return _checked("log_softmax", y, x) if _hooks.LIVE else y


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None,
                  label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy over the last axis of ``logits``.

    ``logits``: ``(..., vocab)``; ``targets``: integer array shaped like
    ``logits`` minus the last axis.  Positions equal to ``ignore_index``
    contribute nothing (padding). ``label_smoothing`` spreads that much
    probability mass uniformly over the vocabulary.
    """
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    flat_logits = logits.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_targets != ignore_index
    else:
        keep = np.ones_like(flat_targets, dtype=bool)
    count = max(int(keep.sum()), 1)

    logp = log_softmax(flat_logits, axis=-1)
    rows = np.nonzero(keep)[0]
    picked = logp[rows, flat_targets[keep]]
    nll = -picked.sum() / count
    if label_smoothing > 0.0:
        smooth = -logp[rows].mean(axis=-1).sum() / count
        nll = (1.0 - label_smoothing) * nll + label_smoothing * smooth
    return nll


# ----------------------------------------------------------------- embedding
def embedding(weight, ids: np.ndarray):
    """Row lookup ``weight[ids]`` with scatter-add gradient."""
    return getitem(weight, np.asarray(ids))


# ------------------------------------------------------------------- masking
def masked_fill(x, mask: np.ndarray, value: float):
    mask = np.asarray(mask, dtype=bool)
    if isinstance(x, Tensor):
        return _record(masked_fill(x.data, mask, value), (x,), lambda grad:
                       x._accumulate(np.where(mask, 0.0, grad)))
    out = np.where(mask, np.float32(value), x)
    return _checked("masked_fill", out, x) if _hooks.LIVE else out


def dropout(x, p: float, training: bool,
            rng: Optional[np.random.Generator] = None):
    if not training or p <= 0.0:
        return x
    rng = default_rng(rng)
    data = x.data if isinstance(x, Tensor) else x
    keep = (rng.random(data.shape) >= p).astype(np.float32) / np.float32(1.0 - p)
    out = data * keep
    if _hooks.LIVE:
        _checked("dropout", out, data)
    if not isinstance(x, Tensor):
        return out
    return _record(out, (x,), lambda grad: x._accumulate(grad * keep))


# ------------------------------------------------------------- concatenation
def cat(tensors: Sequence, axis: int = 0):
    if any(isinstance(t, Tensor) for t in tensors):
        tensors = [as_tensor(t) for t in tensors]

        def backward(grad: np.ndarray) -> None:
            offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(index)])

        return _record(cat([t.data for t in tensors], axis), tuple(tensors),
                       backward)
    out = np.concatenate(tensors, axis=axis)
    return _checked("cat", out, *tensors) if _hooks.LIVE else out


# ------------------------------------------------------------- convolutions
def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


#: Images per im2col slice: ``conv2d`` builds the column matrix and runs
#: the GEMM this many images at a time, so a 256-image evaluation never
#: holds its whole column matrix.  Stacked matmul runs one GEMM per image,
#: so slicing leaves every output bit unchanged.
_IM2COL_SLICE = 32


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0):
    """2-D convolution, NCHW layout, square stride/padding.

    ``x``: (B, C, H, W); ``weight``: (F, C, KH, KW); output (B, F, OH, OW).
    Implemented with an im2col strided view and one GEMM per slice of at
    most ``_IM2COL_SLICE`` images.
    """
    traced = isinstance(x, Tensor) or isinstance(weight, Tensor) \
        or isinstance(bias, Tensor)
    if traced:
        x, weight = as_tensor(x), as_tensor(weight)
        bias = None if bias is None else as_tensor(bias)
        inputs = [t.data for t in (x, weight, bias) if t is not None]
    else:
        inputs = [a for a in (x, weight, bias) if a is not None]
    xd, wd = inputs[0], inputs[1]
    batch, in_ch, _, _ = xd.shape
    out_ch, w_in_ch, kh, kw = wd.shape
    if w_in_ch != in_ch:
        raise ValueError(f"channel mismatch: input {in_ch}, weight {w_in_ch}")
    xp = _pad_input(xd, padding)
    ph, pw = xp.shape[2], xp.shape[3]
    oh = (ph - kh) // stride + 1
    ow = (pw - kw) // stride + 1

    if _hooks.LIVE and _hooks.STATE.counters:
        _record_conv2d(batch, out_ch, in_ch, kh, kw, oh, ow)

    sb, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(batch, in_ch, kh, kw, oh, ow),
        strides=(sb, sc, sh, sw, sh * stride, sw * stride), writeable=False)
    ckk = in_ch * kh * kw
    wmat = wd.reshape(out_ch, ckk)
    out = np.empty((batch, out_ch, oh * ow), dtype=np.result_type(wmat, xp))
    for lo in range(0, batch or 1, _IM2COL_SLICE):   # an empty batch: one
        hi = min(lo + _IM2COL_SLICE, batch)          # empty slice
        cols = windows[lo:hi].reshape(hi - lo, ckk, oh * ow)
        np.matmul(wmat[None], cols, out=out[lo:hi])
    out = out.reshape(batch, out_ch, oh, ow)
    if bias is not None:
        out = out + inputs[2].reshape(1, out_ch, 1, 1)
    if _hooks.LIVE:
        _checked("conv2d", out, *inputs)
    if not traced:
        return out

    def backward(grad: np.ndarray) -> None:
        gout = grad.reshape(batch, out_ch, oh * ow)
        # one slice already holds the whole batch's columns
        full = cols if batch <= _IM2COL_SLICE \
            else windows.reshape(batch, ckk, oh * ow)
        gw = np.einsum("bfo,bco->fc", gout, full,
                       optimize=True).reshape(weight.shape)
        weight._accumulate(gw)
        if bias is not None:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        gcols = (wmat.T[None] @ gout).reshape(batch, in_ch, kh, kw, oh, ow)
        gx_pad = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gx_pad[:, :, i:i + stride * oh:stride,
                       j:j + stride * ow:stride] += gcols[:, :, i, j]
        if padding:
            gx_pad = gx_pad[:, :, padding:ph - padding, padding:pw - padding]
        x._accumulate(gx_pad)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _record(out, parents, backward)


# ----------------------------------------------------------------- pooling
def max_pool2d(x, kernel: int):
    """Max pooling with stride == kernel (the only case the models need)."""
    data = x.data if isinstance(x, Tensor) else x
    batch, ch, h, w = data.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {(h, w)} not divisible by kernel {kernel}")
    oh, ow = h // kernel, w // kernel
    view = data.reshape(batch, ch, oh, kernel, ow, kernel)
    flat = view.transpose(0, 1, 2, 4, 3, 5).reshape(batch, ch, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    if _hooks.LIVE:
        _checked("max_pool2d", out, data)
    if not isinstance(x, Tensor):
        return out

    def backward(grad: np.ndarray) -> None:
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, arg[..., None], grad[..., None], axis=-1)
        gx = gflat.reshape(batch, ch, oh, ow, kernel, kernel) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(batch, ch, h, w)
        x._accumulate(gx)

    return _record(out, (x,), backward)


def avg_pool2d(x, kernel: int):
    """Average pooling with stride == kernel."""
    if isinstance(x, Tensor):
        def backward(grad: np.ndarray) -> None:
            gx = np.repeat(np.repeat(grad, kernel, axis=2), kernel, axis=3)
            x._accumulate(gx / (kernel * kernel))

        return _record(avg_pool2d(x.data, kernel), (x,), backward)
    batch, ch, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {(h, w)} not divisible by kernel {kernel}")
    out = x.reshape(batch, ch, h // kernel, kernel, w // kernel, kernel) \
        .mean(axis=(3, 5))
    return _checked("avg_pool2d", out, x) if _hooks.LIVE else out


def global_avg_pool2d(x):
    """Mean over the spatial dimensions: (B, C, H, W) -> (B, C)."""
    return mean(x, axis=(2, 3))


# ----------------------------------------------------- fake quantization/STE
def fake_quantize(x, quantize_fn: Callable[[np.ndarray], np.ndarray],
                  ste_mask: Optional[np.ndarray] = None,
                  stats: Optional[_sanitize.QuantizeStats] = None):
    """Quantize in the forward pass; straight-through in the backward pass.

    This is the standard quantization-aware-training construction: the
    non-differentiable rounding is treated as identity for gradients
    (optionally masked by ``ste_mask``, e.g. to zero gradients of clamped
    values), so the optimizer keeps updating the latent FP32 weights while
    the loss sees quantized values — the paper's QAR procedure.

    ``stats`` are the sanitizer's :func:`~repro.nn.sanitize.quantize_stats`
    of this exact ``(x, quantize_fn(x))`` pair, for a caller that already
    holds them (the weight-quant memo); without them an active sanitizer
    measures the pair itself.
    """
    data = x.data if isinstance(x, Tensor) else x
    out = np.asarray(quantize_fn(data), dtype=np.float32)
    if _hooks.LIVE:
        _sanitize.on_quantize(data, out, stats)
    if not isinstance(x, Tensor):
        return out
    return _record(out, (x,), lambda grad: x._accumulate(
        grad if ste_mask is None else grad * ste_mask))
