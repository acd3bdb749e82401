"""Normalisation layers.

The paper's Figure 1 observation hinges on the difference between these
two: BatchNorm reparameterizes weights (keeping CNN weight ranges
narrow) while LayerNorm does not (letting Transformer weights grow an
order of magnitude larger).  Both are implemented as autodiff composites
so quantization-aware retraining differentiates through them; with grad
off, LayerNorm runs the same ops as an array kernel (docs/inference.md).
"""

from __future__ import annotations

import numpy as np

from ... import hooks as _hooks
from .. import init
from .. import sanitize as _sanitize
from .. import tensor as _tensor
from ..module import Module, Parameter
from ..sanitize import check_op
from ..tensor import Tensor

__all__ = ["BatchNorm2d", "LayerNorm"]


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        if _tensor.array_kernels():
            return self._forward_arrays(x)
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv_std = (var + self.eps) ** -0.5
        return centered * inv_std * self.weight + self.bias

    def _forward_arrays(self, x: Tensor) -> Tensor:
        """:meth:`forward` on ndarrays (see ``tensor.array_kernels``):
        the same ten ops, each checked under a sanitizer."""
        state = _sanitize.current_state() if _hooks.LIVE else None
        xd = x.data
        mu = xd.mean(axis=-1, keepdims=True)
        if state is not None:
            check_op(state, "mean", mu, (xd,))
        neg_mu = -mu
        if state is not None:
            check_op(state, "neg", neg_mu, (mu,))
        centered = xd + neg_mu
        if state is not None:
            check_op(state, "add", centered, (xd, neg_mu))
        square = centered * centered
        if state is not None:
            check_op(state, "mul", square, (centered, centered))
        var = square.mean(axis=-1, keepdims=True)
        if state is not None:
            check_op(state, "mean", var, (square,))
        eps = np.asarray(self.eps, dtype=np.float32)
        shifted = var + eps
        if state is not None:
            check_op(state, "add", shifted, (var, eps))
        inv_std = shifted ** -0.5
        if state is not None:
            check_op(state, "pow", inv_std, (shifted,))
        normed = centered * inv_std
        if state is not None:
            check_op(state, "mul", normed, (centered, inv_std))
        weight, bias = self.weight.data, self.bias.data
        scaled = normed * weight
        if state is not None:
            check_op(state, "mul", scaled, (normed, weight))
        out = scaled + bias
        if state is not None:
            check_op(state, "add", out, (scaled, bias))
        return Tensor(out)


class BatchNorm2d(Module):
    """Batch normalisation for NCHW feature maps with running statistics."""

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1) -> None:
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        # Running statistics are buffers: saved/restored with state_dict
        # but not trained.
        self.register_buffer("running_mean", np.zeros(num_features, np.float32))
        self.register_buffer("running_var", np.ones(num_features, np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mu = x.mean(axis=(0, 2, 3), keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mu.data.reshape(-1))
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var.data.reshape(-1))
        else:
            mu = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            centered = x - mu
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        inv_std = (var + self.eps) ** -0.5
        scale = self.weight.reshape(1, -1, 1, 1)
        shift = self.bias.reshape(1, -1, 1, 1)
        return centered * inv_std * scale + shift
