"""Fully-connected layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor, as_tensor, is_grad_enabled, layer_inputs

__all__ = ["Linear"]


class Linear(Module):
    """``y = x W^T + b`` over the last axis of ``x``.

    The weight is routed through :meth:`Module.quant_weight` and the
    output through :meth:`Module.quant_act`, so attaching fake-quantizers
    turns this into the paper's quantized FC layer with no code changes.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_normal(
            (out_features, in_features), in_features, out_features, rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x, weight, bias = layer_inputs(
            is_grad_enabled(), x, self.quant_weight(self.weight), self.bias)
        out = F.matmul(x, F.swapaxes(weight, 0, 1))
        if bias is not None:
            out = F.add(out, bias)
        return self.quant_act(as_tensor(out))
