"""Module/Parameter system: stateful layers over the autodiff tensors.

Mirrors the familiar torch.nn design at the scale this project needs:
attribute assignment registers parameters and submodules, modules expose
``named_parameters`` / ``state_dict`` / ``train`` / ``eval``, and every
module carries two optional fake-quantization hooks used by
:mod:`repro.nn.quantize`:

* ``weight_fake_quant`` — applied to weight parameters inside layer
  forwards (the paper's weight quantization path),
* ``act_fake_quant``    — applied to layer outputs (the paper's
  activation quantization path, Table 3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .. import hooks as _hooks
from . import sanitize as _sanitize
from .tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList", "Sequential"]


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``).

    ``version`` counts content updates: every code path that replaces
    ``.data`` (optimizer steps, ``load_state_dict``, checkpoint restore,
    pruning, in-place PTQ) calls :meth:`bump_version` afterwards.
    Content-keyed caches — :class:`repro.nn.quantize.WeightFakeQuant`'s
    memoized quantized weights — use it to detect staleness without
    hashing array contents.
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        self.version = 0

    def bump_version(self) -> None:
        """Mark the parameter's contents as changed (invalidates caches)."""
        self.version += 1


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "weight_fake_quant", None)
        object.__setattr__(self, "act_fake_quant", None)

    # --------------------------------------------------------- registration
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif name in getattr(self, "_buffers", {}):
            self._buffers[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track non-trainable state (e.g. BatchNorm running statistics)
        so it travels with ``state_dict`` like torch buffers do."""
        self._buffers[name] = np.asarray(value, dtype=np.float32)
        object.__setattr__(self, name, self._buffers[name])

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, value in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), value
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_buffers(child_prefix)

    # ----------------------------------------------------------- iteration
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------ training
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ---------------------------------------------------------- state dict
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy()
                 for name, param in self.named_parameters()}
        for name, value in self.named_buffers():
            state[f"{name}@buffer"] = np.asarray(value).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        buffer_owners = {}
        for prefix, module in self.named_modules():
            for bname in module._buffers:
                key = f"{prefix}.{bname}" if prefix else bname
                buffer_owners[f"{key}@buffer"] = (module, bname)
        missing = (set(own) | set(buffer_owners)) - set(state)
        unexpected = set(state) - set(own) - set(buffer_owners)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{value.shape} vs {param.data.shape}")
            param.data = value.copy()
            param.bump_version()
        for key, (module, bname) in buffer_owners.items():
            value = np.asarray(state[key], dtype=np.float32)
            setattr(module, bname, value.copy())

    # ------------------------------------------------- single-tensor access
    def get_parameter(self, name: str) -> Parameter:
        """Resolve a dotted parameter name to its :class:`Parameter`."""
        module = self
        parts = name.split(".")
        for part in parts[:-1]:
            child = module._modules.get(part)
            if child is None:
                raise KeyError(f"no submodule {part!r} resolving {name!r}")
            module = child
        param = module._parameters.get(parts[-1])
        if param is None:
            raise KeyError(f"no parameter {name!r}")
        return param

    def swap_parameter(self, name: str, value: np.ndarray) -> np.ndarray:
        """Replace one parameter's backing array; return the previous one.

        The single-tensor alternative to round-tripping the full state
        dict: ``value`` is adopted (as float32, without copying an
        already-float32 array — the caller must not mutate it afterwards)
        and the parameter's content version is bumped, so version-keyed
        caches (:class:`repro.nn.quantize.WeightFakeQuant`) invalidate
        exactly as they would under ``load_state_dict``.  Swapping the
        returned array back restores the original contents; the restore
        bumps the version again, which is correct — the contents did
        change twice.
        """
        param = self.get_parameter(name)
        value = np.asarray(value, dtype=np.float32)
        if value.shape != param.data.shape:
            raise ValueError(f"shape mismatch for {name}: "
                             f"{value.shape} vs {param.data.shape}")
        previous = param.data
        param.data = value
        param.bump_version()
        return previous

    # -------------------------------------------------- quantization hooks
    def quant_weight(self, weight: Tensor) -> Tensor:
        """Route a weight parameter through the attached fake-quantizer."""
        if self.weight_fake_quant is None:
            return weight
        return self.weight_fake_quant(weight)

    def quant_act(self, x: Tensor) -> Tensor:
        """Route a layer output through the attached fake-quantizer."""
        if self.act_fake_quant is None:
            return x
        return self.act_fake_quant(x)

    # ------------------------------------------------------------- calling
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        if not _hooks.LIVE:
            return self.forward(*args, **kwargs)
        scope = _hooks.STATE.trace
        if scope is not None:
            return scope.call(self, args, kwargs)
        return self._run_hooked(args, kwargs)

    def _run_hooked(self, args: tuple, kwargs: dict):
        """Run ``forward`` under the calling thread's sanitizer, if any
        (its findings name this module's layer)."""
        state = _sanitize.current_state()
        if state is None:
            return self.forward(*args, **kwargs)
        state.push_module(self)
        try:
            return self.forward(*args, **kwargs)
        finally:
            state.pop_module()


class ModuleList(Module):
    """A list of submodules, registered under their indices."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._list: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._list))] = module
        self._list.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._list)

    def __len__(self) -> int:
        return len(self._list)

    def __getitem__(self, idx: int) -> Module:
        return self._list[idx]


class Sequential(Module):
    """Apply submodules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._list: List[Module] = []
        for module in modules:
            self._modules[str(len(self._list))] = module
            self._list.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._list)

    def forward(self, x):
        for module in self._list:
            x = module(x)
        return x
