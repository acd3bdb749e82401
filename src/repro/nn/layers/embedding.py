"""Token embedding layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ... import hooks as _hooks
from .. import functional as F
from .. import init
from .. import sanitize as _sanitize
from .. import tensor as _tensor
from ..module import Module, Parameter
from ..sanitize import check_op
from ..tensor import Tensor
from .linear import _weight_array

__all__ = ["Embedding"]


class Embedding(Module):
    """Integer-id to vector lookup table."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal(
            (num_embeddings, embedding_dim), std=0.05, rng=rng))

    def forward(self, ids: np.ndarray) -> Tensor:
        if _tensor.array_kernels():
            return self._forward_arrays(ids)
        weight = self.quant_weight(self.weight)
        return self.quant_act(F.embedding(weight, ids))

    def _forward_arrays(self, ids: np.ndarray) -> Tensor:
        """:meth:`forward` on ndarrays (see ``tensor.array_kernels``)."""
        state = _sanitize.current_state() if _hooks.LIVE else None
        w = _weight_array(self, self.weight, state)
        out = w[np.asarray(ids)]
        if state is not None:
            check_op(state, "getitem", out, (w,))
        return self.quant_act(Tensor(out))
