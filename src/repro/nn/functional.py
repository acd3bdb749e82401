"""Functional neural-network operations over :class:`~repro.nn.tensor.Tensor`.

Custom-gradient ops live here (softmax, conv2d, pooling, fake
quantization with a straight-through estimator); layers in
:mod:`repro.nn.layers` are thin stateful wrappers around these.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .. import hooks as _hooks
from ..hardware.profiler import record_conv2d as _record_conv2d
from ..rng import default_rng
from . import sanitize as _sanitize
from .tensor import Tensor, _node, _op

__all__ = [
    "avg_pool2d", "cat", "conv2d", "cross_entropy", "dropout", "embedding",
    "fake_quantize", "gelu", "global_avg_pool2d", "log_softmax",
    "masked_fill", "max_pool2d", "relu", "sigmoid", "softmax", "tanh",
]


# --------------------------------------------------------------- activations
def relu(x: Tensor) -> Tensor:
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (exact gradient of the approximation)."""
    c = np.float32(np.sqrt(2.0 / np.pi))
    a = np.float32(0.044715)
    inner = c * (x.data + a * x.data ** 3)
    t = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        dinner = c * (1.0 + 3.0 * a * x.data ** 2)
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * dinner
        x._accumulate(grad * dx)

    return _op(out, (x,), backward)


# ------------------------------------------------------------------- softmax
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * y).sum(axis=axis, keepdims=True)
        x._accumulate(y * (grad - dot))

    return _op(y, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - logsum

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - np.exp(y) * grad.sum(axis=axis, keepdims=True))

    return _op(y, (x,), backward)


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
def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add gradient."""
    return weight[np.asarray(ids)]


# ------------------------------------------------------------------- masking
def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, np.float32(value), x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(np.where(mask, 0.0, grad))

    return _op(out, (x,), backward)


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    if not training or p <= 0.0:
        return x
    rng = default_rng(rng)
    keep = (rng.random(x.shape) >= p).astype(np.float32) / np.float32(1.0 - p)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * keep)

    return _op(x.data * keep, (x,), backward)


# ------------------------------------------------------------- concatenation
def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(lo, hi)
            t._accumulate(grad[tuple(index)])

    return _op(out, tuple(tensors), backward)


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


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution, NCHW layout, square stride/padding.

    ``x``: (B, C, H, W); ``weight``: (F, C, KH, KW); output (B, F, OH, OW).
    Implemented with an im2col strided view and one GEMM per slice of at
    most ``_IM2COL_SLICE`` images.
    """
    batch, in_ch, _, _ = x.shape
    out_ch, w_in_ch, kh, kw = weight.shape
    if w_in_ch != in_ch:
        raise ValueError(f"channel mismatch: input {in_ch}, weight {w_in_ch}")
    xp = _pad_input(x.data, padding)
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
    wmat = weight.data.reshape(out_ch, ckk)
    out = np.empty((batch, out_ch, oh * ow), dtype=np.result_type(wmat, xp))
    for lo in range(0, batch or 1, _IM2COL_SLICE):   # an empty batch: one
        hi = min(lo + _IM2COL_SLICE, batch)          # empty slice
        cols = windows[lo:hi].reshape(hi - lo, ckk, oh * ow)
        np.matmul(wmat[None], cols, out=out[lo:hi])
    out = out.reshape(batch, out_ch, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, out_ch, 1, 1)

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
    return _op(out, parents, backward)


# ----------------------------------------------------------------- pooling
def max_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Max pooling with stride == kernel (the only case the models need)."""
    batch, ch, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {(h, w)} not divisible by kernel {kernel}")
    oh, ow = h // kernel, w // kernel
    view = x.data.reshape(batch, ch, oh, kernel, ow, kernel)
    flat = view.transpose(0, 1, 2, 4, 3, 5).reshape(batch, ch, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, arg[..., None], grad[..., None], axis=-1)
        gx = gflat.reshape(batch, ch, oh, ow, kernel, kernel) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(batch, ch, h, w)
        x._accumulate(gx)

    return _op(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Average pooling with stride == kernel."""
    batch, ch, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {(h, w)} not divisible by kernel {kernel}")
    oh, ow = h // kernel, w // kernel
    view = x.data.reshape(batch, ch, oh, kernel, ow, kernel)
    out = view.mean(axis=(3, 5))

    def backward(grad: np.ndarray) -> None:
        gx = np.repeat(np.repeat(grad, kernel, axis=2), kernel, axis=3)
        x._accumulate(gx / (kernel * kernel))

    return _op(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dimensions: (B, C, H, W) -> (B, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------- fake quantization/STE
def fake_quantize(x: Tensor, quantize_fn: Callable[[np.ndarray], np.ndarray],
                  ste_mask: Optional[np.ndarray] = None,
                  stats: Optional[_sanitize.QuantizeStats] = None) -> Tensor:
    """Quantize in the forward pass; straight-through in the backward pass.

    This is the standard quantization-aware-training construction: the
    non-differentiable rounding is treated as identity for gradients
    (optionally masked by ``ste_mask``, e.g. to zero gradients of clamped
    values), so the optimizer keeps updating the latent FP32 weights while
    the loss sees quantized values — the paper's QAR procedure.

    ``stats`` are the sanitizer's :func:`~repro.nn.sanitize.quantize_stats`
    of this exact ``(x.data, quantize_fn(x.data))`` pair, for a caller
    that already holds them (the weight-quant memo); without them an
    active sanitizer measures the pair itself.
    """
    out = np.asarray(quantize_fn(x.data), dtype=np.float32)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad if ste_mask is None else grad * ste_mask)

    node = _node(out, (x,), backward)
    if _hooks.LIVE:
        _sanitize.on_quantize(x, node, stats)
    return node
