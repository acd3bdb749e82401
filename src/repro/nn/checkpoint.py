"""Quantized model checkpoints: packed bitstreams + JSON manifest.

``save_quantized`` writes a directory holding, for every quantizable
weight, its real ``n``-bit bitstream (MSB-first packed words) plus the
adaptive parameters needed to decode it (``exp_bias`` / scale / shared
exponent), with all remaining parameters (biases, norm vectors) stored
in FP32.  ``load_quantized`` reconstructs the model exactly — the
dequantized weights are bit-identical to what ``quantize_weights_inplace``
produced, demonstrating that the claimed ``n``-bit storage really holds
the model.

Only formats with a bit-exact integer codec are supported for packing:
AdaptivFloat (sign/exp/mantissa words), uniform (integer levels) and BFP
(integer mantissas).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Tuple, Type

import numpy as np

from ..formats import AdaptivFloat, BlockFloat, Uniform
from ..formats.bitpack import pack_words, packed_nbytes, unpack_words
from .module import Module
from .quantize import DEFAULT_QUANTIZED_LAYERS, QuantSpec, quantize_weights_inplace

__all__ = ["save_quantized", "load_quantized", "quantized_size_bytes"]

_PACKABLE = ("adaptivfloat", "uniform", "bfp")


def _encode_words(spec: QuantSpec, values: np.ndarray,
                  params: Dict[str, Any]) -> np.ndarray:
    quantizer = spec.build()
    if isinstance(quantizer, AdaptivFloat):
        return quantizer.encode(values.astype(np.float64),
                                int(params["exp_bias"]))
    if isinstance(quantizer, Uniform):
        levels = np.rint(values.astype(np.float64)
                         / float(params["scale"])).astype(np.int64)
        return (levels & (2 ** spec.bits - 1)).astype(np.uint32)
    if isinstance(quantizer, BlockFloat):
        quantum = 2.0 ** (int(params["shared_exp"]) - (spec.bits - 2))
        levels = np.rint(values.astype(np.float64) / quantum).astype(np.int64)
        return (levels & (2 ** spec.bits - 1)).astype(np.uint32)
    raise ValueError(f"format {spec.fmt!r} has no bit-exact packer")


def _decode_words(spec: QuantSpec, words: np.ndarray,
                  params: Dict[str, Any]) -> np.ndarray:
    quantizer = spec.build()
    if isinstance(quantizer, AdaptivFloat):
        return quantizer.decode(words, int(params["exp_bias"]))
    # sign-extend two's-complement levels
    levels = words.astype(np.int64)
    sign_bit = 1 << (spec.bits - 1)
    levels = (levels ^ sign_bit) - sign_bit
    if isinstance(quantizer, Uniform):
        return levels * float(params["scale"])
    quantum = 2.0 ** (int(params["shared_exp"]) - (spec.bits - 2))
    return levels * quantum


def save_quantized(model: Module, spec: QuantSpec,
                   directory, layer_types: Tuple[Type[Module], ...]
                   = DEFAULT_QUANTIZED_LAYERS) -> pathlib.Path:
    """PTQ-quantize ``model`` in place and persist it bit-packed.

    Returns the checkpoint directory (manifest.json + weights.bin +
    fp32.npz).
    """
    if spec.fmt not in _PACKABLE:
        raise ValueError(f"format {spec.fmt!r} not packable; "
                         f"choose one of {_PACKABLE}")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    report = quantize_weights_inplace(model, spec, layer_types)
    params_by_name = dict(model.named_parameters())

    manifest: Dict[str, Any] = {
        "format": spec.fmt, "bits": spec.bits,
        "overrides": dict(spec.overrides), "tensors": {},
    }
    blob = bytearray()
    fp32: Dict[str, np.ndarray] = {}
    for name, param in params_by_name.items():
        if name in report:
            words = _encode_words(spec, param.data, report[name])
            stream = pack_words(words, spec.bits)
            manifest["tensors"][name] = {
                "offset": len(blob), "count": int(param.data.size),
                "shape": list(param.data.shape),
                "params": {k: int(v) if isinstance(v, (int, np.integer))
                           else float(v) for k, v in report[name].items()},
            }
            blob.extend(stream)
        else:
            fp32[name] = param.data
    for name, value in model.named_buffers():
        fp32[f"{name}@buffer"] = np.asarray(value)

    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (directory / "weights.bin").write_bytes(bytes(blob))
    np.savez(directory / "fp32.npz", **fp32)
    return directory


def load_quantized(model: Module, directory) -> Module:
    """Load a checkpoint written by :func:`save_quantized` into ``model``."""
    directory = pathlib.Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    blob = (directory / "weights.bin").read_bytes()
    spec = QuantSpec(manifest["format"], int(manifest["bits"]),
                     dict(manifest["overrides"]))
    own = dict(model.named_parameters())
    for name, meta in manifest["tensors"].items():
        if name not in own:
            raise KeyError(f"checkpoint tensor {name!r} not in model")
        count = int(meta["count"])
        offset = int(meta["offset"])
        nbytes = packed_nbytes(count, spec.bits)
        words = unpack_words(blob[offset:offset + nbytes], spec.bits, count)
        values = _decode_words(spec, words, meta["params"])
        own[name].data = values.reshape(meta["shape"]).astype(np.float32)
        own[name].bump_version()

    fp32 = np.load(directory / "fp32.npz")
    buffer_owners = {}
    for prefix, module in model.named_modules():
        for bname in module._buffers:
            key = f"{prefix}.{bname}" if prefix else bname
            buffer_owners[f"{key}@buffer"] = (module, bname)
    for key in fp32.files:
        if key.endswith("@buffer"):
            module, bname = buffer_owners[key]
            setattr(module, bname, fp32[key].copy())
        else:
            own[key].data = fp32[key].copy()
            own[key].bump_version()
    return model


def quantized_size_bytes(directory) -> Dict[str, int]:
    """On-disk footprint of a quantized checkpoint, by component."""
    directory = pathlib.Path(directory)
    return {
        "packed_weights": (directory / "weights.bin").stat().st_size,
        "fp32_residual": (directory / "fp32.npz").stat().st_size,
        "manifest": (directory / "manifest.json").stat().st_size,
    }
