"""Compile quantized feed-forward networks into HFINT PE programs.

This module closes the co-design loop end to end: a trained
:class:`~repro.nn.models.mlp.MLP` (or any stack of Linear layers) is
compiled into a :class:`HardwareProgram` — per-layer packed AdaptivFloat
weight bitstreams, the 4-bit ``exp_bias`` register values, the
post-accumulation shift amounts and the activation selects — and then
*executed* on the bit-accurate :class:`~repro.hardware.datapath.HFIntVectorMac`,
i.e. the arithmetic the PE would really perform, bias add included (the
bias rides the wide accumulator in integer form, like the PE's bias
buffer).

``HardwareProgram.run`` therefore gives true quantized-hardware
inference; tests check it against the software fake-quantized model.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..formats import AdaptivFloat
from ..formats.bitpack import pack_words, packed_nbytes, unpack_words
from .datapath import HFIntVectorMac

__all__ = ["HardwareProgram", "LayerProgram", "compile_linear_stack"]

_ACTIVATIONS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


@dataclasses.dataclass
class LayerProgram:
    """One Linear layer lowered to PE state."""

    out_features: int
    in_features: int
    weight_stream: bytes          # packed AdaptivFloat words
    weight_bias: int              # exp_bias register for the weights
    act_bias_in: int              # exp_bias register for input activations
    act_bias_out: int             # exp_bias register for the outputs
    shift: int                    # post-accumulation shift amount
    bias_ints: np.ndarray         # bias in accumulator units (pre-shift)
    activation: str

    def weight_words(self, bits: int) -> np.ndarray:
        count = self.out_features * self.in_features
        return unpack_words(self.weight_stream, bits, count).reshape(
            self.out_features, self.in_features)


@dataclasses.dataclass
class HardwareProgram:
    """A compiled network plus the datapath configuration to run it."""

    bits: int
    exp_bits: int
    accum_length: int
    input_bias: int
    layers: List[LayerProgram]

    # ------------------------------------------------------------ running
    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute one input vector (or a batch) on the bit-accurate PE
        pipeline.  Returns the dequantized output activations."""
        mac = HFIntVectorMac(self.bits, self.exp_bits, self.accum_length)
        fmt = AdaptivFloat(self.bits, self.exp_bits)
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        batch = x[None, :] if single else x
        outputs = []
        for row in batch:
            act = fmt.quantize_with_params(row, {"exp_bias": self.input_bias})
            act_words = fmt.encode(act, self.input_bias)
            act_bias = self.input_bias
            values: Optional[np.ndarray] = None
            for layer in self.layers:
                w_words = layer.weight_words(self.bits)
                acc = self._accumulate_tiled(mac, w_words, act_words)
                acc = acc + layer.bias_ints  # bias joins the wide accumulator
                half = 1 << (layer.shift - 1) if layer.shift > 0 else 0
                ints = np.clip((acc + half) >> layer.shift,
                               -(1 << (self.bits - 1)),
                               (1 << (self.bits - 1)) - 1)
                step = 2.0 ** (layer.weight_bias + act_bias
                               - 2 * mac.mant_bits + layer.shift)
                pre = ints.astype(np.float64) * step
                values = _ACTIVATIONS[layer.activation](pre)
                quant = fmt.quantize_with_params(
                    values, {"exp_bias": layer.act_bias_out})
                act_words = fmt.encode(quant, layer.act_bias_out)
                act_bias = layer.act_bias_out
                values = quant
            outputs.append(values)
        out = np.stack(outputs)
        return out[0] if single else out

    def _accumulate_tiled(self, mac: HFIntVectorMac, w_words: np.ndarray,
                          a_words: np.ndarray) -> np.ndarray:
        length = w_words.shape[1]
        if length <= self.accum_length:
            return mac.accumulate(w_words, a_words)
        total = np.zeros(w_words.shape[0], dtype=np.int64)
        for start in range(0, length, self.accum_length):
            stop = min(start + self.accum_length, length)
            total += mac.accumulate(w_words[:, start:stop],
                                    a_words[start:stop])
        return total

    # ------------------------------------------------------ serialization
    def to_manifest(self) -> Tuple[Dict, bytes]:
        """(JSON-able manifest, concatenated weight blob)."""
        blob = bytearray()
        layers = []
        for layer in self.layers:
            layers.append({
                "out": layer.out_features, "in": layer.in_features,
                "offset": len(blob),
                "weight_bias": layer.weight_bias,
                "act_bias_in": layer.act_bias_in,
                "act_bias_out": layer.act_bias_out,
                "shift": layer.shift,
                "bias_ints": layer.bias_ints.tolist(),
                "activation": layer.activation,
            })
            blob.extend(layer.weight_stream)
        manifest = {"bits": self.bits, "exp_bits": self.exp_bits,
                    "accum_length": self.accum_length,
                    "input_bias": self.input_bias, "layers": layers}
        return manifest, bytes(blob)

    @classmethod
    def from_manifest(cls, manifest: Dict, blob: bytes) -> "HardwareProgram":
        bits = int(manifest["bits"])
        layers = []
        for meta in manifest["layers"]:
            count = meta["out"] * meta["in"]
            nbytes = packed_nbytes(count, bits)
            stream = blob[meta["offset"]:meta["offset"] + nbytes]
            layers.append(LayerProgram(
                out_features=meta["out"], in_features=meta["in"],
                weight_stream=stream, weight_bias=meta["weight_bias"],
                act_bias_in=meta["act_bias_in"],
                act_bias_out=meta["act_bias_out"], shift=meta["shift"],
                bias_ints=np.asarray(meta["bias_ints"], dtype=np.int64),
                activation=meta["activation"]))
        return cls(bits=bits, exp_bits=int(manifest["exp_bits"]),
                   accum_length=int(manifest["accum_length"]),
                   input_bias=int(manifest["input_bias"]), layers=layers)


def compile_linear_stack(weights: Sequence[np.ndarray],
                         biases: Sequence[Optional[np.ndarray]],
                         activations: Sequence[str],
                         calibration_inputs: np.ndarray,
                         bits: int = 8, exp_bits: int = 3,
                         accum_length: int = 256) -> HardwareProgram:
    """Lower a stack of Linear layers to a :class:`HardwareProgram`.

    ``weights[i]`` is (out, in); ``biases[i]`` is (out,) or None;
    ``activations[i]`` names the pointwise function after layer ``i``.
    ``calibration_inputs`` (batch, in) drive the offline activation-range
    calibration that programs the exp_bias registers and shift amounts
    (paper Section 5.2).
    """
    if not (len(weights) == len(biases) == len(activations)):
        raise ValueError("weights/biases/activations length mismatch")
    for name in activations:
        if name not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}; "
                             f"known: {sorted(_ACTIVATIONS)}")
    fmt = AdaptivFloat(bits, exp_bits)
    mant_bits = bits - exp_bits - 1
    x = np.asarray(calibration_inputs, dtype=np.float64)
    input_bias = int(fmt.fit(x)["exp_bias"])

    layers: List[LayerProgram] = []
    act = fmt.quantize_with_params(x, {"exp_bias": input_bias})
    act_bias = input_bias
    for w, b, act_name in zip(weights, biases, activations):
        w = np.asarray(w, dtype=np.float64)
        weight_bias = int(fmt.fit(w)["exp_bias"])
        w_q = fmt.quantize_with_params(w, {"exp_bias": weight_bias})
        pre = act @ w_q.T
        if b is not None:
            pre = pre + np.asarray(b, dtype=np.float64)
        post = _ACTIVATIONS[act_name](pre)
        out_bias = int(fmt.fit(post)["exp_bias"])
        # shift: align the accumulator to an n-bit integer covering the
        # calibrated pre-activation range.
        unit = 2.0 ** (weight_bias + act_bias - 2 * mant_bits)
        acc_units = np.abs(pre).max() / unit if np.abs(pre).max() > 0 else 0.0
        level_max = 2 ** (bits - 1) - 1
        shift = max(0, math.ceil(math.log2(acc_units / level_max))
                    if acc_units > level_max else 0)
        bias_ints = np.zeros(w.shape[0], dtype=np.int64) if b is None else \
            np.rint(np.asarray(b, dtype=np.float64) / unit).astype(np.int64)
        words = fmt.encode(w_q, weight_bias).ravel()
        layers.append(LayerProgram(
            out_features=w.shape[0], in_features=w.shape[1],
            weight_stream=pack_words(words, bits),
            weight_bias=weight_bias, act_bias_in=act_bias,
            act_bias_out=out_bias, shift=shift,
            bias_ints=bias_ints, activation=act_name))
        act = fmt.quantize_with_params(post, {"exp_bias": out_bias})
        act_bias = out_bias
    return HardwareProgram(bits=bits, exp_bits=exp_bits,
                           accum_length=accum_length,
                           input_bias=input_bias, layers=layers)
