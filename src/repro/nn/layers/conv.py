"""2-D convolution layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor, as_tensor, is_grad_enabled, layer_inputs

__all__ = ["Conv2d"]


class Conv2d(Module):
    """NCHW 2-D convolution with square kernel/stride/padding."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(init.kaiming_normal(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x, weight, bias = layer_inputs(
            is_grad_enabled(), x, self.quant_weight(self.weight), self.bias)
        out = F.conv2d(x, weight, bias,
                       stride=self.stride, padding=self.padding)
        return self.quant_act(as_tensor(out))
