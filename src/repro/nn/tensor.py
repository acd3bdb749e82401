"""A vectorized reverse-mode autodiff tensor over NumPy.

This is the training substrate standing in for PyTorch (DESIGN.md §2):
enough autograd to train and quantization-aware-retrain the paper's three
model families (Transformer, attention seq2seq LSTM, residual CNN) on a
CPU.  The design is the classic tape-free dynamic graph: each ``Tensor``
holds its data, an optional gradient, its parent tensors, and a closure
that routes its output gradient to the parents; ``backward()`` runs a
topological sort and accumulates.

Every op is one *primitive* whose NumPy forward is written once
(docs/inference.md, "One forward").  Given only arrays it runs that
forward, reports to the live hooks and returns an array; given a Tensor
it returns a Tensor and, while grad is on, records the node and its
backward (state only the backward reads is computed there).  Only
operations the models need are implemented, each with full broadcasting
support.  Everything is float32 by default (float64 is reserved for the
number-format code, which is exactness-sensitive).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "Tensor", "abs_", "add", "as_tensor", "clip_values",
    "deterministic_matmul", "exp", "getitem", "is_deterministic_matmul",
    "is_grad_enabled", "layer_inputs", "log", "matmul", "max_", "mean",
    "mul", "neg", "no_grad", "pow_", "relu", "reshape", "sigmoid", "sqrt",
    "sub", "sum_", "swapaxes", "tanh", "transpose", "truediv",
]

from .. import hooks as _hooks
from ..hardware.profiler import record_matmul as _record_matmul
from . import sanitize as _sanitize

#: Grad mode and the matmul kernel are per-thread flags on the shared hook
#: state (:mod:`repro.hooks`), so concurrent inference workers (the
#: ``repro.serve`` engine runs decodes on worker threads) cannot race on
#: each other's ``no_grad`` / ``deterministic_matmul`` scopes.  Every
#: thread starts grad-enabled with the BLAS matmul kernel.
_STATE = _hooks.STATE


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _STATE.grad_enabled = self._prev


def is_grad_enabled() -> bool:
    return _STATE.grad_enabled


class deterministic_matmul:
    """Context manager routing forward matmuls through a shape-stable kernel.

    BLAS gemm does not guarantee that row ``i`` of ``(M, K) @ (K, N)`` is
    bit-identical across different ``M`` (the micro-kernel and the gemv
    special case accumulate in different orders).  That makes "recompute
    the whole prefix" and "incremental with a KV cache" decoding agree
    only approximately.  Inside this context, :func:`matmul` uses an
    einsum kernel whose per-row reduction order depends only on the
    contracted axis, so the two decode strategies become bit-identical
    re-associations of the same float ops (docs/inference.md).  Slower
    than BLAS — meant for equivalence tests, not production decoding.
    """

    def __enter__(self) -> "deterministic_matmul":
        self._prev = _STATE.det_matmul
        _STATE.det_matmul = True
        return self

    def __exit__(self, *exc) -> None:
        _STATE.det_matmul = self._prev


def is_deterministic_matmul() -> bool:
    return _STATE.det_matmul


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


TensorLike = Union["Tensor", np.ndarray, float, int]
_FLOAT32 = np.dtype(np.float32)


class Tensor:
    """An autodiff-capable ndarray wrapper.

    Its operator and view methods are the Tensor halves of the
    primitives below: Python dispatches ``a + b`` or ``x.reshape(...)``
    on a Tensor operand here, and each runs the primitive on the arrays
    and records the result.
    """

    # _san_layer is only assigned while the numeric sanitizer is active
    # (repro.nn.sanitize); it records the module that created this tensor
    # so backward-pass findings can name the offending layer.
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_san_layer")
    __array_priority__ = 100  # make ndarray defer to our __radd__ etc.

    def __init__(self, data, requires_grad: bool = False,
                 parents: Tuple["Tensor", ...] = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None) -> None:
        if type(data) is not np.ndarray or data.dtype is not _FLOAT32:
            if isinstance(data, Tensor):
                data = data.data
            data = np.asarray(data, dtype=np.float32)
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    # ------------------------------------------------------------ plumbing
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, do not mutate during training)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # ------------------------------------------------------------ autograd
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float32)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                if _hooks.LIVE:
                    _sanitize.on_grad(node)
                node._backward(node.grad)
        if _hooks.LIVE:
            for node in topo:  # leaves: parameters and inputs
                if node._backward is None and node.grad is not None:
                    _sanitize.on_grad(node)

    # ---------------------------------------------------------- arithmetic
    def __add__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return _record(add(self.data, other.data), (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _record(neg(self.data), (self,),
                       lambda grad: self._accumulate(-grad))

    def __sub__(self, other: TensorLike) -> "Tensor":
        return sub(self, as_tensor(other))

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return sub(as_tensor(other), self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return _record(mul(self.data, other.data), (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(_unbroadcast(
                -grad * self.data / (other.data * other.data), other.shape))

        return _record(truediv(self.data, other.data), (self, other),
                       backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return _record(pow_(self.data, exponent), (self,), lambda grad:
                       self._accumulate(
                           grad * exponent * self.data ** (exponent - 1)))

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1:  # 1-D dot product
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(_unbroadcast(ga, a.shape))
            other._accumulate(_unbroadcast(gb, b.shape))

        return _record(matmul(self.data, other.data), (self, other), backward)

    def __rmatmul__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other) @ self

    # ------------------------------------------------------------ reshapes
    def reshape(self, *shape: int) -> "Tensor":
        return _record(reshape(self.data, *shape), (self,), lambda grad:
                       self._accumulate(grad.reshape(self.shape)))

    def transpose(self, *axes: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            order = axes[0] if len(axes) == 1 and isinstance(
                axes[0], (tuple, list)) else axes
            order = order or tuple(reversed(range(self.ndim)))
            self._accumulate(grad.transpose(tuple(np.argsort(order))))

        return _record(transpose(self.data, *axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return _record(swapaxes(self.data, a, b), (self,), lambda grad:
                       self._accumulate(grad.swapaxes(a, b)))

    def __getitem__(self, index) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            full = np.zeros(self.shape, dtype=np.float32)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return _record(getitem(self.data, index), (self,), backward)

    # ----------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _record(sum_(self.data, axis, keepdims), (self,), lambda grad:
                       self._accumulate(np.broadcast_to(
                           _expand(grad, axis, keepdims), self.shape)))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            count = self.size if axis is None else np.prod(
                [self.shape[a] for a in (axis if isinstance(axis, tuple)
                                         else (axis,))])
            self._accumulate(np.broadcast_to(
                _expand(grad, axis, keepdims), self.shape) / count)

        return _record(mean(self.data, axis, keepdims), (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = max_(self.data, axis, keepdims)

        def backward(grad: np.ndarray) -> None:
            mask = self.data == _expand(out, axis, keepdims)
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * (_expand(grad, axis, keepdims) / counts))

        return _record(out, (self,), backward)


# ------------------------------------------------------------- layer calls
def layer_inputs(grad: bool, *values) -> list:
    """What one layer call computes on, given the grad mode it read once.

    With grad on, Tensors (an array becomes one), so the primitives
    record the tape.  With grad off, arrays, so the primitives build no
    Tensor.  ``None`` (an absent bias) passes through.
    """
    out = []
    for v in values:
        if grad:
            out.append(None if v is None else as_tensor(v))
        else:
            out.append(v.data if isinstance(v, Tensor) else v)
    return out


def as_tensor(value: TensorLike) -> Tensor:
    """``value`` as a Tensor: a layer's result at its module boundary, an
    operand of a Tensor op."""
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------- plumbing
def _checked(op: str, out, *inputs):
    """``out``, reported to this thread's sanitizer if one is active
    (callers test ``hooks.LIVE`` first).  A Tensor ``out`` came from the
    op's Tensor half, which checked the arrays already."""
    state = _STATE.sanitizer
    if state is not None and not isinstance(out, Tensor):
        _sanitize.check_op(state, op, out, inputs)
    return out


def _record(data: np.ndarray, parents: Tuple[Tensor, ...],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """The Tensor a primitive returns for Tensor inputs.

    It joins the tape only when grad is on and some parent needs a
    gradient.  Under a sanitizer it names its layer, for backward
    findings.  The op's forward check already ran on the arrays.
    """
    if _STATE.grad_enabled and any(
            p.requires_grad or p._parents for p in parents):
        out = Tensor(data, parents=parents, backward=backward)
    else:
        out = Tensor(data)
    if _hooks.LIVE and _STATE.sanitizer is not None:
        out._san_layer = _STATE.sanitizer.current_layer()
    return out


def _expand(grad: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """A reduction's output gradient with its reduced axes restored."""
    if axis is not None and not keepdims:
        return np.expand_dims(grad, axis)
    return grad


# ----------------------------------------------------- operator primitives
# A Tensor operand dispatches to its Tensor half, so these test no types.
def add(a: TensorLike, b: TensorLike):
    out = a + b
    return _checked("add", out, a, b) if _hooks.LIVE else out


def neg(x: TensorLike):
    out = -x
    return _checked("neg", out, x) if _hooks.LIVE else out


def sub(a: TensorLike, b: TensorLike):
    """``a - b``, composed as ``a + (-b)``: two ops."""
    return add(a, neg(b))


def mul(a: TensorLike, b: TensorLike):
    out = a * b
    return _checked("mul", out, a, b) if _hooks.LIVE else out


def truediv(a: TensorLike, b: TensorLike):
    out = a / b
    return _checked("truediv", out, a, b) if _hooks.LIVE else out


def pow_(x: TensorLike, exponent: float):
    """``x ** exponent`` for a scalar exponent."""
    out = x ** exponent
    return _checked("pow", out, x) if _hooks.LIVE else out


def reshape(x: TensorLike, *shape: int):
    out = x.reshape(*shape)
    return _checked("reshape", out, x) if _hooks.LIVE else out


def transpose(x: TensorLike, *axes: int):
    out = x.transpose(*axes)
    return _checked("transpose", out, x) if _hooks.LIVE else out


def swapaxes(x: TensorLike, a: int, b: int):
    out = x.swapaxes(a, b)
    return _checked("swapaxes", out, x) if _hooks.LIVE else out


def getitem(x: TensorLike, index):
    out = x[index]
    return _checked("getitem", out, x) if _hooks.LIVE else out


def sum_(x: TensorLike, axis=None, keepdims: bool = False):
    out = x.sum(axis=axis, keepdims=keepdims)
    return _checked("sum", out, x) if _hooks.LIVE else out


def max_(x: TensorLike, axis=None, keepdims: bool = False):
    out = x.max(axis=axis, keepdims=keepdims)
    return _checked("max", out, x) if _hooks.LIVE else out


def matmul(a: TensorLike, b: TensorLike):
    """``a @ b``.  On arrays it counts its MACs for an open ``count_macs``
    scope and runs BLAS or, inside :class:`deterministic_matmul`, the
    shape-stable kernel."""
    if (a.ndim == 1) != (b.ndim == 1):
        raise NotImplementedError(
            "matmul operands must both be >=2-D (or both 1-D dot)")
    if not _STATE.det_matmul or isinstance(a, Tensor) \
            or isinstance(b, Tensor):
        out = a @ b
    elif a.ndim == 1:
        out = np.einsum("i,i->", a, b)
    else:  # per-row accumulation order fixed by the contracted axis alone
        out = np.einsum("...ij,...jk->...ik", a, b)
    if _hooks.LIVE and not isinstance(out, Tensor):
        if _STATE.counters:
            _record_matmul(a.shape, b.shape)
        _checked("matmul", out, a, b)
    return out


# ------------------------------------------------------- typed primitives
# Each of these tests its input type once.
def mean(x: TensorLike, axis=None, keepdims: bool = False):
    """``x.mean(axis, keepdims)``.  On a float32 array it computes what
    ``ndarray.mean`` does (the sum, divided by an ``intp`` count in
    float64 and cast back) without that method's Python bookkeeping,
    which costs LayerNorm more than its arithmetic."""
    if isinstance(x, Tensor) or x.dtype is not _FLOAT32:
        out = x.mean(axis=axis, keepdims=keepdims)
    else:
        total = np.add.reduce(x, axis=axis, keepdims=keepdims)
        count = np.intp(x.size // total.size if total.size else 0)
        out = np.true_divide(total, count, out=total, casting="unsafe") \
            if isinstance(total, np.ndarray) else np.float32(total / count)
    return _checked("mean", out, x) if _hooks.LIVE else out


def exp(x: TensorLike):
    if isinstance(x, Tensor):
        out = exp(x.data)
        return _record(out, (x,), lambda grad: x._accumulate(grad * out))
    out = np.exp(x)
    return _checked("exp", out, x) if _hooks.LIVE else out


def log(x: TensorLike):
    if isinstance(x, Tensor):
        return _record(log(x.data), (x,),
                       lambda grad: x._accumulate(grad / x.data))
    out = np.log(x)
    return _checked("log", out, x) if _hooks.LIVE else out


def sqrt(x: TensorLike):
    if isinstance(x, Tensor):
        out = sqrt(x.data)
        return _record(out, (x,),
                       lambda grad: x._accumulate(grad * 0.5 / out))
    out = np.sqrt(x)
    return _checked("sqrt", out, x) if _hooks.LIVE else out


def tanh(x: TensorLike):
    if isinstance(x, Tensor):
        out = tanh(x.data)
        return _record(out, (x,), lambda grad: x._accumulate(
            grad * (1.0 - out * out)))
    out = np.tanh(x)
    return _checked("tanh", out, x) if _hooks.LIVE else out


def sigmoid(x: TensorLike):
    if isinstance(x, Tensor):
        out = sigmoid(x.data)
        return _record(out, (x,), lambda grad: x._accumulate(
            grad * out * (1.0 - out)))
    out = 1.0 / (1.0 + np.exp(-x))
    return _checked("sigmoid", out, x) if _hooks.LIVE else out


def relu(x: TensorLike):
    if isinstance(x, Tensor):
        return _record(relu(x.data), (x,),
                       lambda grad: x._accumulate(grad * (x.data > 0)))
    out = x * (x > 0)
    return _checked("relu", out, x) if _hooks.LIVE else out


def abs_(x: TensorLike):
    if isinstance(x, Tensor):
        return _record(abs_(x.data), (x,),
                       lambda grad: x._accumulate(grad * np.sign(x.data)))
    out = np.abs(x)
    return _checked("abs", out, x) if _hooks.LIVE else out


def clip_values(x: TensorLike, lo: float, hi: float):
    """Clamp; on a Tensor, the gradient passes only inside the range."""
    if isinstance(x, Tensor):
        return _record(clip_values(x.data, lo, hi), (x,), lambda grad:
                       x._accumulate(grad * ((x.data >= lo) & (x.data <= hi))))
    out = np.clip(x, lo, hi)
    return _checked("clip_values", out, x) if _hooks.LIVE else out


Tensor.exp, Tensor.log, Tensor.sqrt = exp, log, sqrt
Tensor.tanh, Tensor.sigmoid, Tensor.relu = tanh, sigmoid, relu
Tensor.abs, Tensor.clip_values = abs_, clip_values
