"""Fully-connected layer."""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ... import hooks as _hooks
from .. import init
from .. import sanitize as _sanitize
from .. import tensor as _tensor
from ..module import Module, Parameter
from ..sanitize import check_op
from ..tensor import Tensor, matmul_data

__all__ = ["Linear"]


def _weight_array(module: Module, weight: Parameter,
                  state: Any) -> np.ndarray:
    """The array ``module.quant_weight(weight)`` carries, for a kernel.

    With no sanitizer live on the thread (``state`` None) the weight
    quantizer's memo hands its array over directly, which still counts
    one memo read; under a sanitizer the weight goes through
    ``quant_weight``, so its quantize boundary is judged as on the
    Tensor path.
    """
    quantizer = module.weight_fake_quant
    if quantizer is None:
        return weight.data
    if state is None:
        return quantizer.array(weight)
    return module.quant_weight(weight).data


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
        if _tensor.array_kernels():
            return self._forward_arrays(x)
        weight = self.quant_weight(self.weight)
        out = x @ weight.swapaxes(0, 1)
        if self.bias is not None:
            out = out + self.bias
        return self.quant_act(out)

    def _forward_arrays(self, x: Tensor) -> Tensor:
        """:meth:`forward` on ndarrays (see ``tensor.array_kernels``)."""
        state = _sanitize.current_state() if _hooks.LIVE else None
        w = _weight_array(self, self.weight, state)
        wt = w.swapaxes(0, 1)
        if state is not None:
            check_op(state, "swapaxes", wt, (w,))
        out = matmul_data(x.data, wt)
        if state is not None:
            check_op(state, "matmul", out, (x.data, wt))
        if self.bias is not None:
            product, bias = out, self.bias.data
            out = product + bias
            if state is not None:
                check_op(state, "add", out, (product, bias))
        return self.quant_act(Tensor(out))
