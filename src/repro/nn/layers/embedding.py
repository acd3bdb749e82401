"""Token embedding layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor, as_tensor, is_grad_enabled, layer_inputs

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
        weight, = layer_inputs(is_grad_enabled(),
                               self.quant_weight(self.weight))
        return self.quant_act(as_tensor(F.embedding(weight, ids)))
