"""Logarithmic (power-of-two) quantization (LogNet [19] / [12]).

The paper's introduction cites logarithmic number systems as one of the
float-inspired families motivating AdaptivFloat.  This extension format
represents values as ``sign * 2**e`` with an integer exponent in an
adaptive window anchored at the tensor maximum — i.e. AdaptivFloat with
zero mantissa bits but a *larger* exponent field.  Hardware-wise a
log-quantized multiply is a shift, which is why it remains attractive;
accuracy-wise its ~2x relative error gap to the next codepoint is the
cost AdaptivFloat's mantissa bits pay down.

``LogQuant<n>`` uses 1 sign bit and ``n-1`` exponent bits; one exponent
code is reserved for zero, mirroring AdaptivFloat's zero trick.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from .base import AdaptiveQuantizer

__all__ = ["LogQuant"]


class LogQuant(AdaptiveQuantizer):
    """Adaptive power-of-two quantizer."""

    name = "logquant"

    def __init__(self, bits: int) -> None:
        super().__init__(bits)
        self.exp_bits = bits - 1
        # codes 1..2^(n-1)-1 are exponents; code 0 is zero.
        self.exp_levels = 2 ** self.exp_bits - 1

    # ------------------------------------------------------------- fitting
    def fit(self, x: np.ndarray) -> Dict[str, Any]:
        a = np.abs(np.asarray(x, dtype=np.float64))
        max_abs = a.max() if a.size else 0.0
        if max_abs == 0.0:
            return {"exp_max": -self.exp_levels}
        # Round max to the *nearest* power of two (log-domain rounding).
        exp_max = int(np.rint(np.log2(max_abs)))
        return {"exp_max": exp_max}

    # ---------------------------------------------------------- quantizing
    def _quantize_with_params_analytic(self, x: np.ndarray,
                                       params: Dict[str, Any]) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        exp_max = int(params["exp_max"])
        exp_min = exp_max - (self.exp_levels - 1)
        sign = np.sign(x)
        a = np.abs(x)
        safe = np.where(a > 0.0, a, 1.0)
        exp = np.rint(np.log2(safe))
        exp = np.clip(exp, exp_min, exp_max)
        mag = np.exp2(exp)
        # below half the smallest representable magnitude -> zero
        # (the same halfway rule AdaptivFloat uses for its value_min)
        zero_threshold = 2.0 ** exp_min * 0.5
        out = np.where(a < zero_threshold, 0.0, mag)
        return sign * np.where(a > 0.0, out, 0.0)

    # -------------------------------------------------------- enumeration
    def codepoints(self, exp_max: int = 0) -> np.ndarray:
        exps = np.arange(exp_max - (self.exp_levels - 1), exp_max + 1,
                         dtype=np.float64)
        mags = np.exp2(exps)
        return np.sort(np.concatenate([-mags, [0.0], mags]))

    def spec(self) -> Dict[str, Any]:
        spec = super().spec()
        spec.update(exp_bits=self.exp_bits)
        return spec
