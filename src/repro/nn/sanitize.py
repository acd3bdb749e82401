"""Runtime numeric sanitizer: NaN/Inf/clamp/underflow traps with provenance.

Numeric faults in a quantized network usually surface far from their
origin — a NaN born in one layer's backward pass trips an assertion three
modules later, and an overflowing activation quantizer silently clamps a
quarter of a tensor to ``value_max`` and just degrades BLEU.  This module
instruments the autodiff core (op outputs, accumulated gradients) and the
quantize/dequantize boundary (``repro.nn.functional.fake_quantize``) so
the *first* bad value is reported with op-level provenance: the layer
name, the op that produced it, and input statistics.

Checks
------
* ``forward-nan`` / ``forward-overflow`` — an op output contains NaN (or
  a fresh Inf) its inputs did not;
* ``backward-nan`` / ``backward-overflow`` — an accumulated gradient went
  non-finite (checked just before it propagates further, and on leaf
  gradients after ``backward()`` finishes);
* ``quantize-nan`` — a quantizer manufactured NaN from finite input;
* ``clamp-storm`` — more than ``clamp_storm`` of a tensor's elements were
  clamped to the format's extreme codepoint (saturated ``value_max``);
* ``underflow-flood`` — more than ``underflow_flood`` of the *nonzero*
  input elements quantized to exactly zero;
* ``param-nan`` / ``param-overflow`` / ``param-range`` — a *stored
  parameter* is NaN / Inf / outside its expected magnitude envelope
  (:func:`scan_parameters`).  The forward hooks deliberately stay quiet
  when an op's inputs are already bad (only the originating op reports),
  so faults injected directly into weights — the bit-flip model of
  :mod:`repro.resilience` — need this explicit scan.

Usage
-----
Opt in with the context manager (findings are collected on the report
object by default)::

    from repro import nn
    with nn.Sanitizer(model) as report:
        loss = step(model)
        loss.backward()
    for f in report.findings:
        print(f.render())

or process-wide via the environment: ``REPRO_SANITIZE=1`` activates the
sanitizer at import time with ``action="raise"`` (the first fault raises
:class:`NumericFault`); set ``REPRO_SANITIZE_ACTION=collect`` to log into
:func:`global_report` instead.  Activation is thread-local: a
sanitizer's state sits on the calling thread's
:data:`repro.hooks.STATE`, and every live one (the env knob's too) counts
in :data:`repro.hooks.LIVE`.  While no observer scope is open on any
thread, each op hook site and ``Module.__call__`` costs one test of that
count — effectively free.

Cost under a sanitizer
----------------------
Each op output gets one ``np.isfinite(...).all()`` screen, except the
view and selection ops (:func:`check_op` counts those unscreened: they
hold only their input's values).  Every op is one primitive
(:mod:`repro.nn.tensor`) that calls :func:`check_op` itself, whether it
ran on arrays or on Tensors, so a layer reports the same findings in
either grad mode.  A quantize boundary splits into an O(n)
:func:`quantize_stats` pass and an O(1) judgment against the active
thresholds.  The weight-quant memo
(:class:`~repro.nn.quantize.WeightFakeQuant`) keeps a weight's stats in
its memo entry, so a memoized weight is measured once per
``Parameter.version`` and every later probed forward replays only the
judgment — the same findings in the same order.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import hooks

__all__ = [
    "NumericFinding", "NumericFault", "SanitizeReport", "Sanitizer",
    "QuantizeStats", "is_active", "global_report", "current_state",
    "check_op", "on_op", "on_grad", "on_quantize", "quantize_stats",
    "scan_parameters",
]


@dataclasses.dataclass(frozen=True)
class NumericFinding:
    """One detected numeric fault, with provenance."""

    kind: str                  # forward-nan, backward-nan, clamp-storm, ...
    op: str                    # producing op, e.g. "matmul", "fake_quantize"
    layer: str                 # innermost module, e.g. "encoder.0.linear1"
    message: str
    stats: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        return f"[{self.kind}] layer={self.layer} op={self.op}: {self.message}"


class NumericFault(FloatingPointError):
    """Raised in ``action="raise"`` mode on the first detected fault."""

    def __init__(self, finding: NumericFinding) -> None:
        super().__init__(finding.render())
        self.finding = finding


@dataclasses.dataclass
class SanitizeReport:
    """Findings collected while a :class:`Sanitizer` was active."""

    findings: List[NumericFinding] = dataclasses.field(default_factory=list)
    ops_checked: int = 0
    params_scanned: int = 0
    truncated: bool = False

    def by_kind(self, kind: str) -> List[NumericFinding]:
        return [f for f in self.findings if f.kind == kind]

    def render(self) -> str:
        if not self.findings:
            return f"sanitizer: clean ({self.ops_checked} ops checked)"
        lines = [f.render() for f in self.findings]
        if self.truncated:
            lines.append("... (further findings dropped)")
        lines.append(f"sanitizer: {len(self.findings)} finding(s) in "
                     f"{self.ops_checked} ops")
        return "\n".join(lines)


class _State:
    """Live sanitizer configuration + collection state."""

    def __init__(self, action: str, clamp_storm: float,
                 underflow_flood: float, ignore_ops: Tuple[str, ...],
                 max_findings: int) -> None:
        self.action = action
        self.clamp_storm = clamp_storm
        self.underflow_flood = underflow_flood
        self.ignore_ops = frozenset(ignore_ops)
        self.max_findings = max_findings
        self.report = SanitizeReport()
        self.names: Dict[int, str] = {}
        self.module_stack: List[str] = []

    # ----------------------------------------------------------- provenance
    def register_model(self, model: Any) -> None:
        for name, module in model.named_modules():
            self.names[id(module)] = name or type(module).__name__

    def push_module(self, module: Any) -> None:
        self.module_stack.append(
            self.names.get(id(module)) or type(module).__name__)

    def pop_module(self) -> None:
        self.module_stack.pop()

    def current_layer(self) -> str:
        return self.module_stack[-1] if self.module_stack else "<no module>"

    # ------------------------------------------------------------ reporting
    def emit(self, kind: str, op: str, layer: str, message: str,
             stats: Dict[str, Any]) -> None:
        finding = NumericFinding(kind=kind, op=op, layer=layer,
                                 message=message, stats=stats)
        log = hooks.STATE.findings_log
        if log is not None:
            log.append((self.report.ops_checked, finding))
        if self.action == "raise":
            raise NumericFault(finding)
        if len(self.report.findings) < self.max_findings:
            self.report.findings.append(finding)
        else:
            self.report.truncated = True


def current_state() -> Optional[_State]:
    """This thread's active sanitizer state (env fallback), or None."""
    return hooks.STATE.sanitizer


def is_active() -> bool:
    """Whether a sanitizer (context manager or env knob) is live *for
    the calling thread*."""
    return current_state() is not None


def global_report() -> Optional[SanitizeReport]:
    """The calling thread's active report (e.g. under ``REPRO_SANITIZE=1``)."""
    state = current_state()
    return state.report if state is not None else None


class Sanitizer:
    """Context manager activating the numeric sanitizer.

    Parameters
    ----------
    model:
        Optional root :class:`~repro.nn.module.Module`; when given,
        findings carry qualified layer names (``encoder.0.linear1``)
        instead of bare class names.
    action:
        ``"collect"`` (default) appends findings to the yielded report;
        ``"raise"`` raises :class:`NumericFault` on the first fault.
    clamp_storm:
        Fraction of a quantized tensor's elements clamped to the extreme
        codepoint above which a ``clamp-storm`` finding fires.
    underflow_flood:
        Fraction of *nonzero* inputs quantizing to exactly zero above
        which an ``underflow-flood`` finding fires.
    ignore_ops:
        Op names exempt from the fresh-Inf forward check.  The default
        exempts ``masked_fill``, which introduces -inf by design
        (attention masking) — softmax consumes it finitely.
    """

    def __init__(self, model: Any = None, action: str = "collect",
                 clamp_storm: float = 0.25, underflow_flood: float = 0.5,
                 ignore_ops: Tuple[str, ...] = ("masked_fill",),
                 max_findings: int = 100) -> None:
        if action not in ("collect", "raise"):
            raise ValueError(f"unknown action {action!r}")
        if not 0.0 < clamp_storm <= 1.0 or not 0.0 < underflow_flood <= 1.0:
            raise ValueError("clamp_storm/underflow_flood must be in (0, 1]")
        self._state = _State(action, clamp_storm, underflow_flood,
                             tuple(ignore_ops), max_findings)
        if model is not None:
            self._state.register_model(model)
        self._previous: Optional[_State] = None

    @property
    def report(self) -> SanitizeReport:
        return self._state.report

    def register_model(self, model: Any) -> None:
        """Add layer names for provenance after construction."""
        self._state.register_model(model)

    def __enter__(self) -> SanitizeReport:
        self._previous = hooks.STATE.sanitizer
        hooks.STATE.sanitizer = self._state
        hooks.push()
        return self._state.report

    def __exit__(self, *exc: Any) -> None:
        hooks.STATE.sanitizer = self._previous
        hooks.pop()


# --------------------------------------------------------------- inspection
def _extremes_finite(a: np.ndarray) -> bool:
    """One-pass finiteness screen (True for an empty array)."""
    return bool(np.isfinite(a).all())


def _stats(a: np.ndarray) -> Dict[str, Any]:
    finite = a[np.isfinite(a)]
    return {
        "shape": tuple(a.shape),
        "nan": int(np.isnan(a).sum()),
        "inf": int(np.isinf(a).sum()),
        "finite_min": float(finite.min()) if finite.size else None,
        "finite_max": float(finite.max()) if finite.size else None,
    }


def _op_name(backward: Any) -> str:
    """Derive the op name from its backward closure's qualname.

    Every primitive builds its ``backward`` closure inside the op
    function, so the enclosing function name *is* the op name
    (``mul`` -> ``mul``, ``pow_`` -> ``pow``, ``conv2d`` -> ``conv2d``).
    """
    qualname = getattr(backward, "__qualname__", "") or "<op>"
    enclosing = qualname.split(".<locals>", 1)[0].rsplit(".", 1)[-1]
    return enclosing.strip("_") or "<op>"


# --------------------------------------------------------------------- hooks
# Called from the primitives of repro.nn.tensor / repro.nn.functional.
# Each caller guards on the `hooks.LIVE` count, so the common (inactive)
# cost is one global load + truthiness test per op; the hooks then
# resolve the *calling thread's* state (None when the open scopes are
# MAC counters, call traces, or a sanitizer on some other thread) and
# bail if there is none.

def _forward_finding(state: _State, op: str, stats: Dict[str, Any]) -> None:
    """Report an op output that went non-finite from finite inputs."""
    if stats["nan"]:
        state.emit("forward-nan", op, state.current_layer(),
                   f"op produced {stats['nan']} NaN value(s) from finite "
                   "inputs", stats)
    elif op not in state.ignore_ops:
        state.emit("forward-overflow", op, state.current_layer(),
                   f"op produced {stats['inf']} Inf value(s) from finite "
                   "inputs (overflow)", stats)


#: Ops whose output holds only elements of their one input: they cannot
#: produce a value the input lacks, so their verdict is never a finding
#: and :func:`check_op` counts them without screening.
_VIEW_OPS = frozenset({"reshape", "transpose", "swapaxes", "getitem"})


def check_op(state: _State, op: Any, data: np.ndarray,
             inputs: Iterable[Any]) -> None:
    """The forward verdict on one op output: count it, and report NaN/Inf
    that its inputs lacked.

    Every primitive calls it once per op.  ``op`` is the op name, or the
    backward closure it is derived from; ``inputs`` are the op's input
    arrays (or scalars), read only when ``data`` is not finite.
    """
    state.report.ops_checked += 1
    if op in _VIEW_OPS or _extremes_finite(data):
        return
    if any(not _extremes_finite(a) for a in inputs):
        return  # propagation: the originating op already reported
    _forward_finding(state, op if isinstance(op, str) else _op_name(op),
                     _stats(data))


def on_op(out: Any, data: np.ndarray, parents: Tuple[Any, ...],
          backward: Any) -> None:
    """Forward check of a Tensor op built outside the primitives: did it
    manufacture NaN/Inf its inputs lacked?"""
    state = hooks.STATE.sanitizer
    if state is None:
        return
    out._san_layer = state.current_layer()
    check_op(state, backward, data, (p.data for p in parents))


def on_grad(node: Any) -> None:
    """Backward check: is this node's accumulated gradient still finite?

    Runs right before the node's backward closure propagates the gradient
    to its parents, i.e. at the earliest point the fault is observable.
    """
    state = current_state()
    if state is None:
        return
    grad = node.grad
    state.report.ops_checked += 1
    if _extremes_finite(grad):
        return
    op = _op_name(node._backward) if node._backward is not None else "leaf"
    layer = getattr(node, "_san_layer", None) or "<no module>"
    stats = _stats(grad)
    kind = "backward-nan" if stats["nan"] else "backward-overflow"
    noun = "NaN" if stats["nan"] else "Inf"
    state.emit(kind, op, layer,
               f"gradient flowing into op output carries "
               f"{stats['nan'] or stats['inf']} {noun} value(s)", stats)


class QuantizeStats(NamedTuple):
    """Everything the quantize-boundary check measures on one
    ``(input, quantized output)`` pair.

    Computing it is O(n) (:func:`quantize_stats`); judging it against a
    sanitizer's thresholds is O(1), so a caller that quantizes the same
    pair repeatedly — the weight-quant memo — keeps the stats beside the
    quantized array and passes them back on every later call.
    """

    in_finite: bool
    out_finite: bool
    #: ``_stats(out)`` when the output went non-finite from finite input.
    out_stats: Optional[Dict[str, Any]] = None
    #: max |out|: the extreme codepoint the tensor reached.
    top: Optional[float] = None
    #: share of elements clamped to ``top`` (only when ``top > 0``).
    clamped: Optional[float] = None
    #: max |in| (NaN when the input carries NaN).
    input_max: Optional[float] = None
    nonzero: int = 0
    #: share of nonzero inputs quantized to exactly zero.
    flooded: Optional[float] = None


def quantize_stats(inp: np.ndarray, out: np.ndarray) -> QuantizeStats:
    """Measure one quantize boundary for :func:`on_quantize` to judge.

    Only what a finding can need is computed: a non-finite output ends
    the measurement, and an empty tensor has nothing to clamp or flood.
    """
    in_finite = _extremes_finite(inp)
    if not _extremes_finite(out):
        return QuantizeStats(in_finite, False,
                             _stats(out) if in_finite else None)
    if inp.size == 0:
        return QuantizeStats(in_finite, True)
    with np.errstate(invalid="ignore"):
        abs_in = np.abs(inp)
        abs_out = np.abs(out)
        top = abs_out.max()
        clamped = (float(((abs_out >= top) & (abs_in > top)).mean())
                   if top > 0.0 else None)
        input_max = float(abs_in.max())
        live = inp != 0.0
        nonzero = int(live.sum())
        flooded = (float((live & (out == 0.0)).sum() / nonzero)
                   if nonzero else None)
    return QuantizeStats(in_finite, True, None, float(top), clamped,
                         input_max, nonzero, flooded)


def on_quantize(x: np.ndarray, out: np.ndarray,
                stats: Optional[QuantizeStats] = None) -> None:
    """Quantize-boundary check for the arrays ``out = fake_quantize(x, ...)``.

    Judges NaN manufacture, clamp storms and underflow floods, then gives
    ``out`` the op-output verdict :func:`check_op` gives every other op.
    ``stats`` are :func:`quantize_stats` of ``(x, out)`` when the caller
    already holds them; otherwise they are measured here.
    Either way the findings, their order and ``ops_checked`` are the
    same.
    """
    state = current_state()
    if state is None:
        return
    if stats is None:
        stats = quantize_stats(x, out)
    layer = state.current_layer()
    state.report.ops_checked += 1
    if not stats.out_finite:
        if stats.in_finite:
            state.emit("quantize-nan", "fake_quantize", layer,
                       "quantizer produced non-finite output from finite "
                       "input", dict(stats.out_stats))
    else:
        if stats.clamped is not None and stats.clamped > state.clamp_storm:
            state.emit(
                "clamp-storm", "fake_quantize", layer,
                f"{stats.clamped:.1%} of elements clamped to the extreme "
                f"codepoint {stats.top:g} (input max "
                f"{stats.input_max:g}); the format's value_max is too "
                "small for this tensor", {
                    "clamped_fraction": stats.clamped,
                    "codepoint_max": stats.top,
                    "input_max": stats.input_max,
                })
        if stats.flooded is not None \
                and stats.flooded > state.underflow_flood:
            state.emit(
                "underflow-flood", "fake_quantize", layer,
                f"{stats.flooded:.1%} of nonzero inputs quantized to zero; "
                "the format's value_min is too large for this tensor", {
                    "flooded_fraction": stats.flooded,
                    "nonzero_inputs": stats.nonzero,
                })
    state.report.ops_checked += 1
    if not stats.out_finite and stats.in_finite:
        _forward_finding(state, "fake_quantize", dict(stats.out_stats))


# ------------------------------------------------------------- parameter scan
def scan_parameters(model: Any, bounds: Optional[Dict[str, float]] = None,
                    range_slack: float = 2.0) -> List[NumericFinding]:
    """Sweep a model's stored parameters for corrupted values.

    The forward hooks only report the op that *manufactures* a bad value
    — ops whose inputs are already non-finite are treated as propagation
    and stay silent.  A fault injected straight into a weight tensor (the
    :mod:`repro.resilience` bit-flip model) therefore never trips them;
    this scan is the complementary detector a hardware range/finiteness
    checker on the weight SRAM would implement.

    Checks per parameter tensor:

    * ``param-nan`` — any NaN element;
    * ``param-overflow`` — any Inf element;
    * ``param-range`` — all elements finite but the max magnitude
      exceeds ``range_slack`` times the expected bound from ``bounds``
      (a dict ``{parameter name -> expected max |value|}``, typically
      recorded from the clean quantized weights).

    Findings are returned; when a :class:`Sanitizer` is active they are
    also recorded on its report (or raised, in ``action="raise"`` mode),
    and ``params_scanned`` is incremented per tensor.
    """
    state = current_state()
    findings: List[NumericFinding] = []
    for name, param in model.named_parameters():
        data = np.asarray(param.data)
        if state is not None:
            state.report.params_scanned += 1
        kind = message = None
        stats: Dict[str, Any] = {}
        if not _extremes_finite(data):
            stats = _stats(data)
            if stats["nan"]:
                kind = "param-nan"
                message = f"parameter carries {stats['nan']} NaN value(s)"
            else:
                kind = "param-overflow"
                message = f"parameter carries {stats['inf']} Inf value(s)"
        elif bounds is not None and name in bounds and data.size:
            limit = float(bounds[name]) * float(range_slack)
            top = float(np.abs(data).max())
            if limit > 0.0 and top > limit:
                kind = "param-range"
                message = (f"parameter magnitude {top:g} exceeds "
                           f"{range_slack:g}x the expected bound "
                           f"{float(bounds[name]):g}")
                stats = {"max_abs": top, "bound": float(bounds[name]),
                         "range_slack": float(range_slack)}
        if kind is None:
            continue
        findings.append(NumericFinding(kind=kind, op="scan_parameters",
                                       layer=name, message=message,
                                       stats=stats))
        if state is not None:
            state.emit(kind, "scan_parameters", name, message, stats)
    return findings


# ------------------------------------------------------------------ env knob
def _activate_from_env() -> None:
    """Honour ``REPRO_SANITIZE=1`` at import time (process-wide opt-in).

    The env-installed state is *global* (visible from every thread) —
    a process-wide tripwire, unlike the thread-scoped context manager.
    It is the class-level default of the per-thread sanitizer slot, so
    a :class:`Sanitizer` entered on a thread shadows it there.
    """
    if os.environ.get("REPRO_SANITIZE", "") not in ("1", "true", "yes"):
        return
    action = os.environ.get("REPRO_SANITIZE_ACTION", "raise")
    if action not in ("collect", "raise"):
        action = "raise"
    type(hooks.STATE).sanitizer = _State(
        action=action, clamp_storm=0.25, underflow_flood=0.5,
        ignore_ops=("masked_fill",), max_findings=100)
    hooks.push()


_activate_from_env()
