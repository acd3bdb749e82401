"""LSTM layers (cell and multi-layer sequence module).

The seq2seq speech model (paper Table 1) and the accelerator workload
(paper Section 6: "100 LSTM time steps with 256 hidden units") both rest
on this module.  Gates follow the standard order i, f, g, o; the forget
gate carries a +1 bias at init for stable early training.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, ModuleList, Parameter
from ..tensor import Tensor, as_tensor, is_grad_enabled, layer_inputs

__all__ = ["LSTM", "LSTMCell"]


class LSTMCell(Module):
    """One LSTM step: ``(x_t, (h, c)) -> (h', c')``."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = init.default_rng(rng)
        self.weight_ih = Parameter(init.xavier_normal(
            (4 * hidden_size, input_size), input_size, hidden_size, rng))
        self.weight_hh = Parameter(init.xavier_normal(
            (4 * hidden_size, hidden_size), hidden_size, hidden_size, rng))
        bias = init.zeros((4 * hidden_size,))
        bias[hidden_size:2 * hidden_size] = 1.0  # forget-gate bias
        self.bias = Parameter(bias)

    def forward(self, x: Tensor,
                state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        x, h_prev, c_prev, w_ih, w_hh, bias = layer_inputs(
            is_grad_enabled(), x, *state, self.quant_weight(self.weight_ih),
            self.quant_weight(self.weight_hh), self.bias)
        gates = F.add(F.add(F.matmul(x, F.swapaxes(w_ih, 0, 1)),
                            F.matmul(h_prev, F.swapaxes(w_hh, 0, 1))), bias)
        hs = self.hidden_size
        i = F.sigmoid(F.getitem(gates, np.s_[:, 0 * hs:1 * hs]))
        f = F.sigmoid(F.getitem(gates, np.s_[:, 1 * hs:2 * hs]))
        g = F.tanh(F.getitem(gates, np.s_[:, 2 * hs:3 * hs]))
        o = F.sigmoid(F.getitem(gates, np.s_[:, 3 * hs:4 * hs]))
        c = F.add(F.mul(f, c_prev), F.mul(i, g))
        h = F.mul(o, F.tanh(c))
        return self.quant_act(as_tensor(h)), as_tensor(c)

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_size), dtype=np.float32)
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Stacked unidirectional LSTM over ``(batch, time, features)`` input."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        cells = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            cells.append(LSTMCell(in_size, hidden_size, rng))
        self.cells = ModuleList(cells)

    def forward(self, x: Tensor,
                state: Optional[List[Tuple[Tensor, Tensor]]] = None
                ) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        batch, steps, _ = x.shape
        if state is None:
            state = [cell.initial_state(batch) for cell in self.cells]
        outputs = []
        for t in range(steps):
            inp = x[:, t, :]
            new_state = []
            for layer, cell in enumerate(self.cells):
                h, c = cell(inp, state[layer])
                new_state.append((h, c))
                inp = h
            state = new_state
            outputs.append(inp.reshape(batch, 1, self.hidden_size))
        return F.cat(outputs, axis=1), state
