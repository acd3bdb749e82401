"""Fake-quantization of weights and activations (PTQ and QAR).

This module wires the number formats of :mod:`repro.formats` into the NN
framework, following the paper's procedures:

* **Weights** (Tables 2): every weight matrix is routed through a
  :class:`WeightFakeQuant` that re-derives the adaptive parameter
  (``exp_bias`` / scale / shared exponent) from the *current* FP32 weight
  each forward — Algorithm 1's per-layer self-adaptation.  Gradients use
  the straight-through estimator, so quantization-aware retraining (QAR)
  keeps updating latent FP32 weights.
* **Activations** (Table 3): each layer output passes through an
  :class:`ActFakeQuant` whose adaptive parameter is frozen from max-|x|
  statistics gathered during offline calibration batches — exactly how
  the paper's HFINT PE gets its activation ``exp_bias`` ("informed from
  statistics during offline batch inference", Section 5.2).

Use :func:`attach_weight_quantizers` / :func:`attach_act_quantizers` to
instrument a model, :func:`calibrate` to fit activation observers, and
:func:`quantize_weights_inplace` for one-shot PTQ of a frozen model.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

import numpy as np

from .. import hooks as _hooks
from .. import obs
from ..formats import AdaptiveQuantizer, Quantizer, make_quantizer
from ..rng import fresh_rng
from . import functional as F
from . import sanitize as _sanitize
from .layers import Conv2d, Embedding, Linear, LSTMCell
from .module import Module
from .tensor import Tensor

__all__ = [
    "QuantSpec", "WeightFakeQuant", "ActFakeQuant",
    "attach_weight_quantizers", "attach_act_quantizers",
    "detach_quantizers", "calibrate", "quantize_weights_inplace",
    "DEFAULT_QUANTIZED_LAYERS",
]

#: Layer types whose weights/outputs the paper's experiments quantize.
#: Norm scale/shift vectors and biases stay in high precision, matching
#: common accelerator practice (they ride the high-precision accumulator).
DEFAULT_QUANTIZED_LAYERS: Tuple[Type[Module], ...] = (
    Linear, Conv2d, Embedding, LSTMCell)

# The memo's only count: outcomes summed over every WeightFakeQuant
# instance in the process.  Tests and benchmarks read its deltas.
_WQ_CACHE = obs.counter(
    "repro_weight_quant_cache_total", "Weight-quantization memo "
    "outcomes, summed over all WeightFakeQuant instances.", ("outcome",))
_WQ_HIT = _WQ_CACHE.labels(outcome="hit")
_WQ_MISS = _WQ_CACHE.labels(outcome="miss")


@dataclasses.dataclass(frozen=True)
class QuantSpec:
    """A (format, bits, overrides) triple; builds fresh quantizers."""

    fmt: str
    bits: int
    overrides: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def build(self) -> Quantizer:
        return make_quantizer(self.fmt, self.bits, **dict(self.overrides))

    @property
    def label(self) -> str:
        return f"{self.fmt}{self.bits}"


class WeightFakeQuant:
    """Per-forward weight fake-quantizer with STE gradients.

    The quantized array is memoized per weight tensor, keyed on the
    :class:`~repro.nn.module.Parameter` content-version counter plus the
    identity of the backing array, so a frozen model (PTQ evaluation)
    quantizes each weight exactly once per sweep cell while QAR — whose
    optimizer bumps the version on every step — re-quantizes after every
    update.  The contract: any code replacing ``param.data`` must call
    ``param.bump_version()`` (all in-repo sites do); mutating the array
    *in place* without a bump is outside the contract.

    The memo entry also keeps the sanitizer's
    :func:`~repro.nn.sanitize.quantize_stats` for the pair, measured the
    first time a :class:`~repro.nn.sanitize.Sanitizer` is active on the
    entry; every later probed forward only re-judges them.  They share
    the memo's contract: an in-place mutation without a version bump is
    served stale stats along with the stale quantized array.

    Every read counts one hit or miss in
    ``repro_weight_quant_cache_total`` (the registry's child locks keep
    the count exact when worker threads share one model).  With grad off
    and no observer scope open, :func:`~repro.nn.functional.fake_quantize`
    would only wrap the memoized array, so a read returns the memo's
    Tensor of it instead.
    """

    def __init__(self, quantizer: Quantizer) -> None:
        self.quantizer = quantizer
        # id(weight Tensor) -> [version, backing array, quantized Tensor,
        #                       sanitizer stats or None until first needed]
        self._cache: Dict[int, List[Any]] = {}

    def _entry(self, weight: Tensor) -> List[Any]:
        """The memo entry for ``weight``, quantizing it on a miss (an
        unversioned tensor gets a fresh entry that is not kept)."""
        version = getattr(weight, "version", None)
        entry = self._cache.get(id(weight)) if version is not None else None
        if entry is not None and entry[0] == version \
                and entry[1] is weight.data:
            _WQ_HIT.inc()
            return entry
        _WQ_MISS.inc()
        quantized = Tensor(self.quantizer.quantize(weight.data))
        entry = [version, weight.data, quantized, None]
        if version is not None:
            self._cache[id(weight)] = entry
        return entry

    def __call__(self, weight: Tensor) -> Tensor:
        entry = self._entry(weight)
        if not _hooks.LIVE:
            if not _hooks.STATE.grad_enabled:
                return entry[2]
        elif entry[3] is None and _sanitize.is_active():
            # Concurrent fills of one shared entry measure the same arrays
            # and store equal stats, so the race is benign.
            entry[3] = _sanitize.quantize_stats(entry[1], entry[2].data)
        return F.fake_quantize(weight, lambda _data, _q=entry[2].data: _q,
                               stats=entry[3])

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeightFakeQuant({self.quantizer!r})"


class ActFakeQuant:
    """Stateful activation fake-quantizer with offline calibration.

    Modes:

    * ``"bypass"``  — identity (fresh instances start here),
    * ``"observe"`` — record range statistics and pass through,
    * ``"apply"``   — quantize on the grid frozen by :meth:`freeze`.

    ``calibration`` selects how the adaptive range anchor is derived:
    ``"max"`` (the paper's rule, Section 5.2) anchors at the observed
    maximum; ``"percentile"`` anchors at the given percentile of |x|,
    clipping activation outliers in exchange for finer resolution of the
    bulk (an extension ablation; cf. TensorRT-style calibration).
    """

    _SAMPLE_CAP = 65_536

    def __init__(self, quantizer: Quantizer, calibration: str = "max",
                 percentile: float = 99.9,
                 sample_seed: int = 0x5EED) -> None:
        if calibration not in ("max", "percentile"):
            raise ValueError(f"unknown calibration {calibration!r}")
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        self.quantizer = quantizer
        self.calibration = calibration
        self.percentile = percentile
        self.mode = "bypass"
        self.max_abs = 0.0
        self._sample_rng = fresh_rng(sample_seed)
        self._sample_keys: Optional[np.ndarray] = None
        self._sample_vals: Optional[np.ndarray] = None
        self._sample_count = 0
        self.params: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------ control
    def observe(self) -> None:
        self.mode = "observe"

    def _record(self, data: np.ndarray) -> None:
        flat = np.abs(data).ravel()
        if not flat.size:
            return
        self.max_abs = max(self.max_abs, float(flat.max()))
        if self.calibration != "percentile":
            return
        # Bottom-k random-key reservoir: tag every observed element with a
        # uniform key and keep the _SAMPLE_CAP smallest keys seen so far.
        # This is a uniform sample *without replacement over the whole
        # stream*, unlike a strided prefix take, which over-weights early
        # batches (and, once full, ignores later ones entirely).
        keys = self._sample_rng.random(flat.size)
        vals = np.asarray(flat, dtype=np.float32)
        if self._sample_keys is not None:
            keys = np.concatenate([self._sample_keys, keys])
            vals = np.concatenate([self._sample_vals, vals])
        if keys.size > self._SAMPLE_CAP:
            keep = np.argpartition(keys, self._SAMPLE_CAP)[: self._SAMPLE_CAP]
            keys, vals = keys[keep], vals[keep]
        self._sample_keys, self._sample_vals = keys, vals
        self._sample_count += flat.size

    def _range_anchor(self) -> float:
        if self.calibration == "max":
            return self.max_abs
        if self._sample_vals is None:
            return self.max_abs
        return float(np.percentile(self._sample_vals, self.percentile))

    def freeze(self) -> None:
        """Fit the adaptive parameter from observed statistics and apply."""
        if isinstance(self.quantizer, AdaptiveQuantizer):
            anchor = self._range_anchor()
            if anchor <= 0.0:
                raise RuntimeError(
                    "activation quantizer frozen without calibration data")
            self.params = self.quantizer.fit(np.asarray([anchor]))
        self.mode = "apply"

    def bypass(self) -> None:
        self.mode = "bypass"

    # ------------------------------------------------------------ forward
    def _quantize_array(self, data: np.ndarray) -> np.ndarray:
        if isinstance(self.quantizer, AdaptiveQuantizer):
            return self.quantizer.quantize_with_params(
                np.asarray(data, dtype=np.float64), self.params)
        return self.quantizer.quantize(data)

    def __call__(self, x: Tensor) -> Tensor:
        if self.mode == "bypass":
            return x
        if self.mode == "observe":
            self._record(x.data)
            return x
        return F.fake_quantize(x, self._quantize_array)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ActFakeQuant({self.quantizer!r}, mode={self.mode!r})"


# ---------------------------------------------------------------- attaching
def _target_modules(model: Module,
                    layer_types: Tuple[Type[Module], ...]
                    ) -> Iterator[Tuple[str, Module]]:
    for name, module in model.named_modules():
        if isinstance(module, layer_types):
            yield name, module


def attach_weight_quantizers(
        model: Module, spec: QuantSpec,
        layer_types: Tuple[Type[Module], ...] = DEFAULT_QUANTIZED_LAYERS
) -> List[str]:
    """Attach a fresh weight fake-quantizer to every matching layer.

    Returns the names of instrumented modules.
    """
    touched = []
    for name, module in _target_modules(model, layer_types):
        module.weight_fake_quant = WeightFakeQuant(spec.build())
        touched.append(name)
    if not touched:
        raise ValueError("no quantizable layers found in model")
    return touched


def attach_act_quantizers(
        model: Module, spec: QuantSpec,
        layer_types: Tuple[Type[Module], ...] = DEFAULT_QUANTIZED_LAYERS,
        calibration: str = "max", percentile: float = 99.9
) -> Dict[str, ActFakeQuant]:
    """Attach activation fake-quantizers; returns them keyed by module name."""
    observers: Dict[str, ActFakeQuant] = {}
    for name, module in _target_modules(model, layer_types):
        observer = ActFakeQuant(spec.build(), calibration=calibration,
                                percentile=percentile)
        module.act_fake_quant = observer
        observers[name] = observer
    if not observers:
        raise ValueError("no quantizable layers found in model")
    return observers


def detach_quantizers(model: Module) -> None:
    """Remove every weight/activation fake-quantizer from the model."""
    for module in model.modules():
        module.weight_fake_quant = None
        module.act_fake_quant = None


@contextlib.contextmanager
def calibrate(model: Module):
    """Context manager: observe activation ranges, then freeze them.

    Run representative batches inside the ``with`` block; on exit every
    attached :class:`ActFakeQuant` freezes its grid and starts applying.
    """
    observers = [m.act_fake_quant for m in model.modules()
                 if m.act_fake_quant is not None]
    if not observers:
        raise ValueError("model has no activation quantizers attached")
    for obs in observers:
        obs.observe()
    yield model
    for obs in observers:
        obs.freeze()


# --------------------------------------------------------------------- PTQ
def quantize_weights_inplace(
        model: Module, spec: QuantSpec,
        layer_types: Tuple[Type[Module], ...] = DEFAULT_QUANTIZED_LAYERS
) -> Dict[str, Dict[str, Any]]:
    """Post-training quantization: overwrite weights with their quantized
    values (per weight tensor, self-adaptive).  Returns the adaptive
    parameters per quantized parameter for reporting/bit-packing.
    """
    report: Dict[str, Dict[str, Any]] = {}
    for name, module in _target_modules(model, layer_types):
        for pname, param in module._parameters.items():
            if pname.startswith("bias") or pname == "bias":
                continue
            quantizer = spec.build()
            if isinstance(quantizer, AdaptiveQuantizer):
                params = quantizer.fit(param.data)
                quantized = quantizer.quantize_with_params(
                    param.data.astype(np.float64), params)
            else:
                params = {}
                quantized = quantizer.quantize(param.data)
            param.data = quantized.astype(np.float32)
            param.bump_version()
            report[f"{name}.{pname}"] = params
    if not report:
        raise ValueError("no weights quantized")
    return report
