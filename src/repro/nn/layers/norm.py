"""Normalisation layers.

The paper's Figure 1 observation hinges on the difference between these
two: BatchNorm reparameterizes weights (keeping CNN weight ranges
narrow) while LayerNorm does not (letting Transformer weights grow an
order of magnitude larger).  Both are written once over the primitives
of :mod:`repro.nn.functional`, so quantization-aware retraining
differentiates through them and, with grad off, the same ops run on
arrays (docs/inference.md, "One forward").
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor, as_tensor, is_grad_enabled, layer_inputs

__all__ = ["BatchNorm2d", "LayerNorm"]


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        #: the variance floor, as a float32 0-d array: NumPy adds it
        #: faster than a Python float, with the same float32 result
        self.eps = np.asarray(eps, dtype=np.float32)
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        x, weight, bias = layer_inputs(is_grad_enabled(), x, self.weight,
                                       self.bias)
        mu = F.mean(x, axis=-1, keepdims=True)
        centered = F.sub(x, mu)
        var = F.mean(F.mul(centered, centered), axis=-1, keepdims=True)
        inv_std = F.pow_(F.add(var, self.eps), -0.5)
        return as_tensor(F.add(F.mul(F.mul(centered, inv_std), weight), bias))


class BatchNorm2d(Module):
    """Batch normalisation for NCHW feature maps with running statistics."""

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1) -> None:
        super().__init__()
        #: the variance floor, as in :class:`LayerNorm`
        self.eps = np.asarray(eps, dtype=np.float32)
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        # Running statistics are buffers: saved/restored with state_dict
        # but not trained.
        self.register_buffer("running_mean", np.zeros(num_features, np.float32))
        self.register_buffer("running_var", np.ones(num_features, np.float32))

    def forward(self, x: Tensor) -> Tensor:
        grad = is_grad_enabled()
        x, weight, bias, running_mean, running_var = layer_inputs(
            grad, x, self.weight, self.bias,
            self.running_mean.reshape(1, -1, 1, 1),
            self.running_var.reshape(1, -1, 1, 1))
        if self.training:
            mu = F.mean(x, axis=(0, 2, 3), keepdims=True)
            centered = F.sub(x, mu)
            var = F.mean(F.mul(centered, centered), axis=(0, 2, 3),
                         keepdims=True)
            mu_data, var_data = (mu.data, var.data) if grad else (mu, var)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mu_data.reshape(-1))
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var_data.reshape(-1))
        else:
            centered = F.sub(x, running_mean)
            var = running_var
        inv_std = F.pow_(F.add(var, self.eps), -0.5)
        scale = F.reshape(weight, 1, -1, 1, 1)
        shift = F.reshape(bias, 1, -1, 1, 1)
        return as_tensor(F.add(F.mul(F.mul(centered, inv_std), scale), shift))
