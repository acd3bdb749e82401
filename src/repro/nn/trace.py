"""Module-call trace: record a clean forward once, replay it until it diverges.

A fault-injection trial corrupts one weight tensor, so every module call
that runs before that tensor is read sees clean weights and clean inputs
and recomputes the clean output bit for bit.  A :class:`CallTrace`
records one program's module calls once and lets later runs of the same
program take the recorded outputs instead of recomputing them::

    trace = nn.CallTrace(model)
    with trace.record():
        clean = evaluate(model)
    previous = model.swap_parameter(name, faulty)
    with trace.replay():
        score = evaluate(model)   # the clean prefix comes from the record

No model code learns about traces: :meth:`repro.nn.Module.__call__`
consults the calling thread's scope (``repro.hooks.STATE.trace``), and
only while some observer scope is open (``repro.hooks.LIVE``).

What is recorded
----------------
:meth:`CallTrace.record` stores each *outermost eligible* module call
below the root model (the root itself always reads the corrupted weight,
so it is never recorded; its children are).  Children of a recorded call
are not recorded.  An entry keeps the module, its subtree's parameter and
buffer arrays (by identity), its input values, its outputs (made
read-only), and — under a :class:`~repro.nn.sanitize.Sanitizer` — the
findings the call emitted and its ``ops_checked`` delta.

How it replays
--------------
:meth:`CallTrace.replay` walks the same program with a cursor over the
entries.  A call *hits* when it is the entry's module, its subtree holds
the very same arrays (``is``), its inputs are equal (same type, dtype,
shape and bits) and the ``deterministic_matmul`` flag is the one it was
recorded under.  A hit returns the recorded outputs, re-emits the
recorded findings through the active sanitizer (so ``raise`` mode and
``max_findings`` behave as before) and adds the recorded
``ops_checked``; under a sanitizer it also needs an entry recorded under
one with the same thresholds and layer names.  Any other eligible call
runs normally and moves the cursor past its entry.  An eligible call to
a different module ends replay for the scope: the program diverged.

Eligible calls
--------------
A call is eligible only when grad is off, every module in its subtree
is in eval mode and carries no fake-quant hook, no ``count_macs`` scope
is open on the thread (MAC totals never change), and every argument is
a Tensor, an array, a scalar, ``None``, or a tuple or list of these.  A
call carrying anything else — a KV cache, say — runs as it would
without a trace, and its children are still candidates.

Identity contract
-----------------
A hit returns exactly what running the call would return.  That rests
on three rules:

* parameters and buffers change by *array replacement* —
  :meth:`~repro.nn.Module.swap_parameter`, ``load_state_dict`` and the
  optimizers all do — the contract the weight-quant memo already relies
  on.  Writing into a parameter array in place is outside it, as is
  changing module state that is neither a parameter nor a buffer;
* recorded inputs are copies, unless the array is read-only and owns
  its data (an eval set, or an earlier recorded output);
* recorded outputs are made read-only, so code that writes into one
  raises instead of being served a stale value.

Scopes are thread-local: a scope open on one thread leaves every other
thread's forwards plain.  Record a trace on one thread at a time.  While
recording a call, the sanitizer appends each finding it emits, with its
``ops_checked`` offset, to ``repro.hooks.STATE.findings_log``.
"""

from __future__ import annotations

import contextlib
import operator
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .. import hooks as _hooks
from . import sanitize as _sanitize
from .tensor import Tensor, is_deterministic_matmul

__all__ = ["CallTrace"]

#: Snapshot tags; a snapshot is ``None`` or a tuple led by one of them.
_TENSOR, _ARRAY, _SCALAR, _SEQ = range(4)
_SCALARS = (bool, int, float, np.generic)
#: Unsigned views for a bitwise array comparison, by item size.
_BITS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
#: Returned by the snapshot helpers for a value the trace cannot hold.
_UNSUPPORTED = object()


# ----------------------------------------------------------------- snapshots
def _keep(array: np.ndarray, frozen: Dict[int, np.ndarray]) -> np.ndarray:
    """The array to record as an input: itself if nothing can write it."""
    if id(array) in frozen or (not array.flags.writeable
                               and array.base is None):
        return array
    return array.copy()


def _snapshot(value: Any, frozen: Dict[int, np.ndarray]) -> Any:
    """A comparable record of one :func:`_supported` call argument."""
    if isinstance(value, Tensor):
        return (_TENSOR, _keep(value.data, frozen))
    if isinstance(value, np.ndarray):
        return (_ARRAY, _keep(value, frozen))
    if value is None:
        return None
    if isinstance(value, _SCALARS):
        return (_SCALAR, type(value), repr(value))
    return (_SEQ, type(value), tuple(_snapshot(v, frozen) for v in value))


def _supported(value: Any) -> bool:
    """Whether the trace can record ``value`` as a call argument."""
    if value is None or isinstance(value, (Tensor,) + _SCALARS):
        return True
    if isinstance(value, np.ndarray):
        return not value.dtype.hasobject
    if type(value) in (tuple, list):
        return all(_supported(v) for v in value)
    return False


def _same_array(recorded: np.ndarray, value: np.ndarray) -> bool:
    """Same dtype, shape and bits (so -0.0 differs from 0.0, and a NaN
    matches itself)."""
    if value is recorded:
        return True
    if value.dtype != recorded.dtype or value.shape != recorded.shape:
        return False
    bits = _BITS.get(value.dtype.itemsize)
    return bits is not None and bool(
        (value.view(bits) == recorded.view(bits)).all())


def _same(recorded: Any, value: Any) -> bool:
    """Whether ``value`` equals the argument ``recorded`` snapshots."""
    if recorded is None:
        return value is None
    kind = recorded[0]
    if kind == _TENSOR:
        return isinstance(value, Tensor) \
            and _same_array(recorded[1], value.data)
    if kind == _ARRAY:
        return isinstance(value, np.ndarray) \
            and _same_array(recorded[1], value)
    if kind == _SCALAR:   # repr tells -0.0 from 0.0
        return type(value) is recorded[1] and repr(value) == recorded[2]
    items = recorded[2]
    return type(value) is recorded[1] and len(value) == len(items) \
        and all(_same(r, v) for r, v in zip(items, value))


def _freeze(value: Any, frozen: Dict[int, np.ndarray]) -> Any:
    """Record a call's output, making its arrays read-only."""
    if type(value) is Tensor or isinstance(value, np.ndarray):
        array = value.data if type(value) is Tensor else value
        if array.dtype.hasobject:
            return _UNSUPPORTED
        array.flags.writeable = False
        frozen[id(array)] = array
        return (_TENSOR if type(value) is Tensor else _ARRAY, array)
    if value is None:
        return None
    if isinstance(value, _SCALARS):
        return (_SCALAR, type(value), value)
    if type(value) in (tuple, list):
        items = tuple(_freeze(v, frozen) for v in value)
        if any(item is _UNSUPPORTED for item in items):
            return _UNSUPPORTED
        return (_SEQ, type(value), items)
    return _UNSUPPORTED


def _thaw(recorded: Any) -> Any:
    """A fresh output built around the recorded (read-only) arrays."""
    if recorded is None:
        return None
    kind = recorded[0]
    if kind == _TENSOR:
        return Tensor(recorded[1])
    if kind == _ARRAY:
        return recorded[1]
    if kind == _SCALAR:
        return recorded[2]
    items = [_thaw(r) for r in recorded[2]]
    return items if recorded[1] is list else tuple(items)


def _subtree_arrays(module: Any) -> Optional[List[np.ndarray]]:
    """The parameter and buffer arrays under ``module``, or None when a
    module in the subtree trains or carries a fake-quant hook."""
    arrays: List[np.ndarray] = []
    stack = [module]
    while stack:
        m = stack.pop()
        if m.training or m.weight_fake_quant is not None \
                or m.act_fake_quant is not None:
            return None
        arrays.extend(p.data for p in m._parameters.values())
        arrays.extend(m._buffers.values())
        stack.extend(m._modules.values())
    return arrays


def _arguments(args: Tuple, kwargs: Dict) -> Tuple[Tuple[str, ...], Tuple]:
    """A call's keyword names and its argument values, in a fixed order."""
    names = tuple(sorted(kwargs))
    return names, (args, tuple(kwargs[name] for name in names))


def _plain_thread() -> bool:
    """Grad off and no MAC-count scope open on the calling thread."""
    state = _hooks.STATE
    return not state.grad_enabled and not state.counters


def _sanitizer_key(state: Any) -> Tuple:
    """What a sanitizer's findings on one call depend on."""
    return (state.clamp_storm, state.underflow_flood, state.ignore_ops,
            state.names)


# ------------------------------------------------------------------- entries
class _Probed:
    """What one recorded call did under a sanitizer."""

    __slots__ = ("key", "findings", "ops")

    def __init__(self, key: Tuple, findings: List, ops: int) -> None:
        self.key = key
        #: ``(ops_checked offset at emission, finding)``, in order.
        self.findings = findings
        self.ops = ops


class _Entry:
    """One recorded module call."""

    __slots__ = ("module", "arrays", "inputs", "det", "outputs", "probed")

    def __init__(self, module: Any, arrays: List[np.ndarray], inputs: Any,
                 det: bool) -> None:
        self.module = module
        self.arrays = arrays
        #: (keyword names, snapshot of the argument values)
        self.inputs = inputs
        self.det = det
        #: the frozen outputs, or _UNSUPPORTED (the call always reruns)
        self.outputs: Any = _UNSUPPORTED
        #: the sanitizer record, or None when recorded without one
        self.probed: Optional[_Probed] = None


class CallTrace:
    """A recorded run of one program over ``model`` (see module docs)."""

    def __init__(self, model: Any) -> None:
        self.model = model
        self.entries: List[_Entry] = []
        #: id -> every array a recorded output froze (held, so no id is
        #: reused by a writable array while the recording lives)
        self._frozen: Dict[int, np.ndarray] = {}

    @contextlib.contextmanager
    def record(self) -> Iterator["CallTrace"]:
        """Record the calls made in the block, replacing any earlier
        recording."""
        self.entries = []
        self._frozen = {}
        with _hooks.scope("trace", _Recorder(self)):
            yield self

    @contextlib.contextmanager
    def replay(self) -> Iterator["CallTrace"]:
        """Serve matching calls in the block from the recording."""
        with _hooks.scope("trace", _Replayer(self)):
            yield self


# -------------------------------------------------------------------- scopes
class _Recorder:
    """Record scope: stores the outermost eligible calls."""

    def __init__(self, trace: CallTrace) -> None:
        self.trace = trace
        self.depth = 0      # > 0 inside a recorded call

    def call(self, module: Any, args: Tuple, kwargs: Dict) -> Any:
        if self.depth or module is self.trace.model or not _plain_thread():
            return module._run_hooked(args, kwargs)
        names, values = _arguments(args, kwargs)
        arrays = _subtree_arrays(module) if _supported(values) else None
        if arrays is None:
            return module._run_hooked(args, kwargs)
        frozen = self.trace._frozen
        entry = _Entry(module, arrays, (names, _snapshot(values, frozen)),
                       is_deterministic_matmul())
        state = _sanitize.current_state()
        base = state.report.ops_checked if state is not None else 0
        log: List = []
        _hooks.STATE.findings_log = log
        self.depth += 1
        try:
            out = module._run_hooked(args, kwargs)
        finally:
            self.depth -= 1
            _hooks.STATE.findings_log = None
        entry.outputs = _freeze(out, frozen)
        if state is not None and _sanitize.current_state() is state:
            entry.probed = _Probed(
                _sanitizer_key(state),
                [(ops - base, finding) for ops, finding in log],
                state.report.ops_checked - base)
        self.trace.entries.append(entry)
        return out


class _Replayer:
    """Replay scope: a cursor over the recorded entries."""

    def __init__(self, trace: CallTrace) -> None:
        self.model = trace.model
        self.entries = trace.entries
        self.cursor = 0
        self.depth = 0      # > 0 inside a call that missed

    def call(self, module: Any, args: Tuple, kwargs: Dict) -> Any:
        if self.depth or module is self.model \
                or self.cursor >= len(self.entries) or not _plain_thread():
            return module._run_hooked(args, kwargs)
        names, values = _arguments(args, kwargs)
        arrays = _subtree_arrays(module) if _supported(values) else None
        if arrays is None:
            return module._run_hooked(args, kwargs)
        entry = self.entries[self.cursor]
        if entry.module is not module:
            self.cursor = len(self.entries)   # the program diverged
            return module._run_hooked(args, kwargs)
        self.cursor += 1
        if _serve(entry, arrays, names, values):
            return _thaw(entry.outputs)
        self.depth += 1
        try:
            return module._run_hooked(args, kwargs)
        finally:
            self.depth -= 1


def _serve(entry: _Entry, arrays: List[np.ndarray],
           names: Tuple[str, ...], values: Tuple) -> bool:
    """Replay ``entry``'s sanitizer record if the call matches it; True
    when the recorded outputs may be returned."""
    if entry.outputs is _UNSUPPORTED \
            or entry.det != is_deterministic_matmul() \
            or len(arrays) != len(entry.arrays) \
            or not all(map(operator.is_, arrays, entry.arrays)) \
            or names != entry.inputs[0] \
            or not _same(entry.inputs[1], values):
        return False
    state = _sanitize.current_state()
    if state is None:
        return True
    probed = entry.probed
    if probed is None or probed.key != _sanitizer_key(state):
        return False
    report = state.report
    base = report.ops_checked
    for offset, finding in probed.findings:
        report.ops_checked = base + offset
        state.emit(finding.kind, finding.op, finding.layer,
                   finding.message, dict(finding.stats))
    report.ops_checked = base + probed.ops
    return True
