"""Fault-injection campaigns: per-(model, format, field) resilience cells.

A campaign fans a grid of injection cells over the parallel cell runner
(:mod:`repro.experiments.runner`), one cell per (model, format, bits,
field | BER, seed) combination.  Each cell:

1. loads the cached FP32 checkpoint and post-training-quantizes every
   target weight tensor (float64 grid values + fitted adaptive params,
   so the bit codec round-trips exactly);
2. records the clean quantized probe logits and task score;
3. runs ``trials`` seeded injection events — each picks a weight tensor
   (probability proportional to its stored bit count, i.e. flips land
   uniformly over the weight memory), produces the corrupted tensor, and
   installs it in the model;
4. scores each trial: **detection** (a :func:`repro.nn.scan_parameters`
   sweep plus a :class:`repro.nn.Sanitizer`-instrumented probe forward),
   **corruption** (any probe argmax changed, or non-finite logits),
   **SDC** = corrupted and *not* detected (the silent data corruptions
   of the fault-tolerance literature), logit RMS drift, and the task
   metric.

One trial loop runs on two clean contexts whose fault-install steps
(``_CellContext.install``) differ; they produce the fault/detection/drift
counters **bit-identically** (both consume the per-trial RNG stream
through the same draws):

* the **naive** context (``engine=False``) re-encodes the target, flips,
  re-decodes the whole tensor, and round-trips the full state dict per
  trial — the reference semantics;
* the **engine** context (default) uses :class:`repro.resilience.engine.
  TrialEngine` (encode once per cell, sparse patch-decode of only the
  flipped words), installs the fault via
  :meth:`repro.nn.Module.swap_parameter`, rescans only the corrupted
  tensor (clean findings for the untouched ones are cached), replays the
  cell's recorded clean probe and evaluation up to the first module call
  that reads the faulted tensor (:class:`repro.nn.CallTrace`), and —
  when the faulty probe logits are bit-identical to the clean ones —
  reuses the clean task score instead of re-running the evaluation
  (*masked faults score as clean*; see ``docs/resilience.md``).  Only
  score aggregates can differ from the naive loop, and only on masked
  trials.

A cell's trials are additionally **sharded**: ``run`` splits them into
contiguous seeded chunks dispatched through
:func:`repro.experiments.runner.run_cells`, so ``jobs`` parallelism
applies *within* a cell.  Each trial's generator is
``default_rng([seed, cell-hash, trial])`` with the cell hash taken over
the logical cell keys only, so any sharding layout merges back to the
serial result exactly (chunk-order concatenation reproduces serial
insertion order, including ``detected_kinds``).

Steps 1-2 and the engine's encode, scan and traces depend only on
(profile, model, format, bits), never on a cell's fault keys, so the
engine loop keeps the last such *clean context* in a thread-local slot
and runs every field/BER chunk of that model and format on it.  ``run``
empties the slot when it returns or raises, and so does a chunk that
raises; worker processes keep theirs until the pool closes.

Every metric in the cell payload is a finite float, an int, or ``None``
— never NaN/Inf — so results are strict-JSON cacheable and the committed
``BENCH_resilience.json`` is byte-stable across warm re-runs (per-cell
wall times live inside the cached chunk payloads, so even the ``timing``
blocks reload stably).
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn, obs
from ..obs import clock
from ..analysis import format_table, save_result
from ..cache import content_key
from ..formats import FORMAT_NAMES, make_quantizer
from ..formats.base import AdaptiveQuantizer
from ..nn.quantize import DEFAULT_QUANTIZED_LAYERS, _target_modules
from ..rng import fresh_rng
from ..experiments.common import (MODEL_NAMES, PROFILES, checkpoint_path,
                                  get_bundle, trained_model)
from ..experiments.runner import run_cells, shard_ranges
from .engine import TrialEngine
from .inject import FIELDS, REGISTER_FIELD, inject_tensor, register_spec

__all__ = ["DEFAULT_FIELDS", "run", "run_cell", "run_chunk", "render",
           "cell_fields", "measure_injection_throughput"]

#: Fields a full campaign sweeps (word-level classes + the register).
DEFAULT_FIELDS = ("any", "sign", "exponent", "mantissa", REGISTER_FIELD)

#: Bump when the cell computation changes, to invalidate cached cells.
_CACHE_SALT = "resilience-v2"

#: How many eval-set samples the logit probe uses (kept small: the probe
#: runs once per trial on top of the task-metric evaluation).
_PROBE_SIZE = 16

#: Campaign-level metrics, emitted by :func:`run` in the parent process
#: after the (possibly multi-process, possibly cache-served) chunk
#: results merge: per-cell wall time lands in a wide-bucket histogram so
#: one scrape shows how cell cost is distributed across the grid.
_CELLS = obs.counter(
    "repro_campaign_cells_total", "Injection cells merged by campaign "
    "runs.")
_TRIALS = obs.counter(
    "repro_campaign_trials_total", "Injection trials covered by merged "
    "cells.")
_CELL_SECONDS = obs.histogram(
    "repro_campaign_cell_seconds", "Per-cell wall time (summed over the "
    "cell's shards).", buckets=obs.WIDE_SECONDS_BUCKETS)

#: Descriptor keys that define a cell's *faults* — the per-trial RNG
#: stream hashes exactly these, so execution-layout keys (``engine``,
#: ``trial_start``, ``trial_count``) never perturb which bits flip.
#: The set matches the complete descriptors of earlier releases, so the
#: streams (and cached fault sequences) are unchanged.
_LOGICAL_KEYS = ("table", "profile", "model", "format", "bits", "field",
                 "ber", "n_flips", "trials", "seed")


def cell_fields(format_name: str, bits: int) -> Tuple[str, ...]:
    """The injectable fields for one format (skips undefined cells).

    Uniform/BFP words carry no exponent bits, and float/posit carry no
    adaptive register, so those (format, field) cells do not exist.
    """
    quantizer = make_quantizer(format_name, bits)
    classes = set(quantizer.bit_fields())
    fields: List[str] = []
    for field in DEFAULT_FIELDS:
        if field == "any":
            fields.append(field)
        elif field == REGISTER_FIELD:
            if register_spec(format_name) is not None:
                fields.append(field)
        elif field in classes:
            fields.append(field)
    return tuple(fields)


# ------------------------------------------------------------- cell plumbing
def _quantize_targets(model: nn.Module, format_name: str,
                      bits: int) -> Dict[str, Tuple[np.ndarray, Dict]]:
    """PTQ every target weight: name -> (float64 grid values, params).

    Mirrors :func:`repro.nn.quantize_weights_inplace`'s target selection
    but keeps the float64 grid values (the in-place variant casts to
    float32, off the exact grid the bit codec validates against).
    """
    quantized: Dict[str, Tuple[np.ndarray, Dict]] = {}
    for mname, module in _target_modules(model, DEFAULT_QUANTIZED_LAYERS):
        for pname, param in module._parameters.items():
            if pname.startswith("bias") or pname == "bias":
                continue
            quantizer = make_quantizer(format_name, bits)
            data = np.asarray(param.data, dtype=np.float64)
            if isinstance(quantizer, AdaptiveQuantizer):
                params = quantizer.fit(data)
                values = quantizer.quantize_with_params(data, params)
            else:
                params = {}
                values = quantizer.quantize(data)
            quantized[f"{mname}.{pname}"] = (values, params)
    if not quantized:
        raise ValueError("no quantizable weights found in model")
    return quantized


def _probe_logits(model_name: str, model: nn.Module, batch: Any) -> np.ndarray:
    """Raw output logits on the fixed probe batch (no sampling/decoding)."""
    model.eval()
    with nn.no_grad():
        if model_name == "transformer":
            out = model(batch.src, batch.tgt_in)
        elif model_name == "seq2seq":
            out = model(batch.frames, batch.tgt_in)
        else:
            out = model(batch.images)
    return np.asarray(out.data, dtype=np.float64)


def _finite(value: float) -> Optional[float]:
    """JSON-safe scalar: finite floats pass, NaN/Inf become ``None``."""
    value = float(value)
    return value if np.isfinite(value) else None


def _cell_hash(cell: Dict) -> int:
    """Hash of the logical cell keys — the trial RNG stream selector."""
    return int(content_key({k: cell[k] for k in _LOGICAL_KEYS})[:12], 16)


def _traced(trace: Optional[nn.CallTrace], record: bool = False):
    """Record into or replay from ``trace``; nothing without one."""
    if trace is None:
        return contextlib.nullcontext()
    return trace.record() if record else trace.replay()


class _SingleParameter:
    """Minimal ``named_parameters()`` shim: rescan one tensor by name."""

    __slots__ = ("_items",)

    def __init__(self, name: str, param: nn.Parameter) -> None:
        self._items = ((name, param),)

    def named_parameters(self):
        return iter(self._items)


class _CellContext:
    """The clean state a trial loop starts from, for one (profile, model,
    format, bits); it reads no other key of the cell it is built from.

    The naive variant keeps the PTQ grid values and the clean state dict
    its trials re-inject from.  The engine variant carries instead the
    :class:`TrialEngine` (packed words + clean decoded basis per target),
    the clean :func:`repro.nn.scan_parameters` findings per parameter,
    and single-parameter scan views — so a trial rescans only the corrupted
    tensor yet reproduces the full-scan findings list exactly (findings
    concatenate in ``named_parameters`` order either way) — plus the
    call traces of the clean probe (recorded under a sanitizer, as every
    trial probes) and of the clean evaluation, which its trials replay.

    Every engine trial ends by swapping the clean tensor back (the
    ``restore`` of :meth:`install`; a trial that raises drops the
    context instead), and :meth:`repro.nn.Module.swap_parameter` returns
    the original array object, so after a trial the model holds the very
    arrays the traces were recorded on: the context is clean again, and
    one context serves every cell of its model and format
    (:func:`_context`).  Naive trials load whole faulty state dicts and
    leave the model faulted, so the naive loop builds a fresh context
    per chunk.
    """

    def __init__(self, cell: Dict, engine: bool, scoring: bool = True) -> None:
        self.prof = PROFILES[cell["profile"]]
        self.bundle = get_bundle(cell["model"])
        base_model, self.task, self.fp32_score = trained_model(
            cell["model"], cell["profile"])
        base_state = base_model.state_dict()

        quantized = _quantize_targets(base_model, cell["format"],
                                      int(cell["bits"]))
        clean_state = dict(base_state)
        for name, (values, _params) in quantized.items():
            clean_state[name] = np.asarray(values, dtype=np.float32)
        self.bounds = {
            name: float(np.abs(values).max()) if values.size else 0.0
            for name, (values, _params) in quantized.items()}

        self.model, _ = self.bundle.build()
        self.model.load_state_dict(clean_state)
        if not engine:
            self.quantized, self.clean_state = quantized, clean_state
        self.probe_trace = self.score_trace = None
        if scoring:
            if engine:
                self.probe_trace = nn.CallTrace(self.model)
                self.score_trace = nn.CallTrace(self.model)
            self.probe_batch = self.task.eval_set(_PROBE_SIZE)
            with _traced(self.probe_trace, record=True), \
                    nn.Sanitizer(self.model):
                self.clean_logits = _probe_logits(cell["model"], self.model,
                                                  self.probe_batch)
            self.clean_argmax = np.argmax(self.clean_logits, axis=-1)
            with _traced(self.score_trace, record=True):
                self.clean_score = self.bundle.evaluate(
                    self.model, self.task, self.prof.eval_size)
        else:
            self.probe_batch = None
            self.clean_logits = self.clean_argmax = None
            self.clean_score = None

        self.names = list(quantized)
        # Flips land uniformly over the stored weight memory: weight each
        # tensor by its element count (all words in a cell are `bits` wide).
        sizes = np.array([quantized[n][0].size for n in self.names],
                         dtype=np.float64)
        self.word_weights = sizes / sizes.sum()
        self.register_weights = np.full(len(self.names),
                                        1.0 / len(self.names))

        self.quantizer = make_quantizer(cell["format"], int(cell["bits"]))

        self.engine: Optional[TrialEngine] = None
        if engine:
            self.engine = TrialEngine(self.quantizer, quantized)
            self.param_order = [n for n, _ in self.model.named_parameters()]
            self.clean_findings: Dict[str, List] = {
                n: [] for n in self.param_order}
            for finding in nn.scan_parameters(self.model, bounds=self.bounds,
                                              range_slack=2.0):
                self.clean_findings[finding.layer].append(finding)
            self.scan_views = {
                name: _SingleParameter(name, self.model.get_parameter(name))
                for name in self.names}

    def pick_target(self, rng: np.random.Generator, field: str) -> str:
        weights = (self.register_weights if field == REGISTER_FIELD
                   else self.word_weights)
        return self.names[int(rng.choice(len(self.names), p=weights))]

    def install(self, target: str, rng: np.random.Generator, field: str,
                n_flips: int, ber: Optional[float]
                ) -> Tuple[int, List, Callable[[], Any]]:
        """Install one seeded fault in ``target``; returns ``(bits
        flipped, full-model scan findings, restore)``.

        Engine: :meth:`TrialEngine.faulty_tensor`, ``swap_parameter``
        and a rescan of ``target`` alone; ``restore`` swaps the clean
        array back.  Naive: :func:`inject_tensor`, a full faulty
        ``load_state_dict`` and a full scan; ``restore`` does nothing
        (the next trial loads a whole state dict again).
        """
        if self.engine is None:
            values, params = self.quantized[target]
            result = inject_tensor(self.quantizer, values, params, rng,
                                   field=field, n_flips=n_flips, ber=ber)
            state = dict(self.clean_state)
            state[target] = np.asarray(result.values, dtype=np.float32)
            self.model.load_state_dict(state)
            return result.n_flips, nn.scan_parameters(
                self.model, bounds=self.bounds, range_slack=2.0), \
                lambda: None
        faulty, flips = self.engine.faulty_tensor(target, rng, field,
                                                  n_flips=n_flips, ber=ber)
        clean = self.model.swap_parameter(target, faulty)
        return flips, self.scan_with_fault(target), \
            lambda: self.model.swap_parameter(target, clean)

    def score(self, masked: bool) -> float:
        """The installed fault's task score; the engine scores a masked
        fault (clean probe logits) as clean instead of re-evaluating."""
        if masked and self.engine is not None:
            return float(self.clean_score)
        with np.errstate(all="ignore"), _traced(self.score_trace):
            return float(self.bundle.evaluate(self.model, self.task,
                                              self.prof.eval_size))

    def scan_with_fault(self, target: str) -> List:
        """Full-model scan findings with only ``target`` corrupted.

        Rescans just the corrupted tensor and splices the cached clean
        findings for every other parameter, preserving the exact order a
        full :func:`repro.nn.scan_parameters` sweep would emit.
        """
        findings: List = []
        for pname in self.param_order:
            if pname == target:
                findings.extend(nn.scan_parameters(
                    self.scan_views[pname], bounds=self.bounds,
                    range_slack=2.0))
            else:
                findings.extend(self.clean_findings[pname])
        return findings


class _ContextSlot(threading.local):
    """This thread's last engine context and the key it was built for."""

    def __init__(self) -> None:
        self.key: Optional[Tuple] = None
        self.ctx: Optional[_CellContext] = None


_SLOT = _ContextSlot()


def _context_key(cell: Dict) -> Tuple:
    """Everything a context build reads: the clean-model keys, plus the
    path and modification time of the checkpoint it loads."""
    path = checkpoint_path(cell["model"], cell["profile"]).resolve()
    try:
        stamp = path.stat().st_mtime_ns
    except FileNotFoundError:
        stamp = None
    return (cell["profile"], cell["model"], cell["format"],
            int(cell["bits"]), str(path), stamp)


def _context(cell: Dict) -> _CellContext:
    """The clean context a chunk of ``cell`` runs on: a fresh naive one,
    or this thread's engine context, built on a key miss.

    The old context is dropped before the new one is built, so a thread
    never holds two (a ResNet score trace alone pins ~20 MB).
    """
    if not cell.get("engine", True):
        return _CellContext(cell, engine=False)
    if _SLOT.key != _context_key(cell):
        _drop_context()
        ctx = _CellContext(cell, engine=True)
        # keyed after the build: it may have trained the checkpoint
        _SLOT.ctx, _SLOT.key = ctx, _context_key(cell)
    return _SLOT.ctx


def _drop_context() -> None:
    """Empty this thread's context slot."""
    _SLOT.key = _SLOT.ctx = None


# ---------------------------------------------------------------- trial loops
def run_chunk(cell: Dict) -> Dict:
    """Compute one shard of a cell's trials (the ``run_cells`` worker).

    ``cell`` is a logical descriptor plus optional execution keys:
    ``trial_start``/``trial_count`` select the shard (default: all
    trials) and ``engine`` picks the install step (default: the engine).
    Deterministic function of the *logical* keys: every injection event
    uses ``default_rng([seed, cell-hash, trial])`` over global trial
    indices, the probe batch and eval set are seeded, and the FP32
    checkpoint comes from the on-disk cache (warmed by :func:`run`
    before dispatch).  The engine loop runs on this thread's clean
    context for the cell's (model, format, bits) and leaves it in the
    slot for the next chunk; the naive loop builds a fresh one.
    """
    trials = int(cell["trials"])
    start = int(cell.get("trial_start", 0))
    count = int(cell.get("trial_count", trials - start))
    ctx = _context(cell)
    field = cell["field"]
    ber = cell.get("ber")
    n_flips = int(cell.get("n_flips", 1))
    seed = int(cell["seed"])
    cell_hash = _cell_hash(cell)

    detected = corrupted = sdc = nonfinite = masked = 0
    detected_kinds: Dict[str, int] = {}
    drifts: List[float] = []
    scores: List[float] = []
    score_failures = 0
    flips_total = 0
    t0 = clock.now()
    for trial in range(start, start + count):
        try:
            rng = fresh_rng([seed, cell_hash, trial])
            target = ctx.pick_target(rng, field)
            # An injected fault is *supposed* to be able to overflow
            # float32 and poison the forward pass — suppress numpy's FP
            # warnings here and let the sanitizer report the damage
            # semantically instead.
            with np.errstate(all="ignore"):
                flips, findings, restore = ctx.install(target, rng, field,
                                                       n_flips, ber)
                with _traced(ctx.probe_trace), \
                        nn.Sanitizer(ctx.model) as report:
                    logits = _probe_logits(cell["model"], ctx.model,
                                           ctx.probe_batch)
            flips_total += flips
            findings = findings + list(report.findings)
            trial_detected = bool(findings)
            for finding in findings:
                detected_kinds[finding.kind] = detected_kinds.get(
                    finding.kind, 0) + 1

            logits_finite = bool(np.isfinite(logits).all())
            mismatch = float(np.mean(np.argmax(logits, axis=-1)
                                     != ctx.clean_argmax))
            trial_corrupted = (not logits_finite) or mismatch > 0.0
            if logits_finite:
                drift = float(np.sqrt(np.mean((logits
                                               - ctx.clean_logits) ** 2)))
                drifts.append(drift)
            else:
                nonfinite += 1
            trial_masked = bool(np.array_equal(logits, ctx.clean_logits))
            masked += trial_masked
            score = ctx.score(trial_masked)
            if np.isfinite(score):
                scores.append(score)
            else:
                score_failures += 1

            detected += trial_detected
            corrupted += trial_corrupted
            sdc += trial_corrupted and not trial_detected
            restore()
        except BaseException:
            # never serve a context again after a trial raised on it
            _drop_context()
            raise
    wall = clock.now() - t0

    return {
        "trial_start": start,
        "trial_count": count,
        "flips_total": flips_total,
        "detected": detected,
        "corrupted": corrupted,
        "sdc": sdc,
        "nonfinite": nonfinite,
        "masked": masked,
        "score_failures": score_failures,
        "detected_kinds": detected_kinds,
        "drifts": drifts,
        "scores": scores,
        "fp32_score": _finite(ctx.fp32_score),
        "clean_score": _finite(ctx.clean_score),
        "timing": {"wall_time_s": wall,
                   "trials_per_sec": count / wall if wall > 0 else None},
    }


def _merge_chunks(cell: Dict, chunks: Sequence[Dict]) -> Dict:
    """Fold a cell's chunk payloads (in shard order) into the cell payload.

    Counter sums, list concatenation, and ``detected_kinds`` key
    first-occurrence all run in chunk order, so any shard layout
    reproduces the serial single-chunk payload except for ``timing``.
    """
    trials = int(cell["trials"])
    flips_total = sum(c["flips_total"] for c in chunks)
    detected = sum(c["detected"] for c in chunks)
    corrupted = sum(c["corrupted"] for c in chunks)
    sdc = sum(c["sdc"] for c in chunks)
    nonfinite = sum(c["nonfinite"] for c in chunks)
    masked = sum(c["masked"] for c in chunks)
    score_failures = sum(c["score_failures"] for c in chunks)
    detected_kinds: Dict[str, int] = {}
    for chunk in chunks:
        for kind, n in chunk["detected_kinds"].items():
            detected_kinds[kind] = detected_kinds.get(kind, 0) + int(n)
    drifts = [d for chunk in chunks for d in chunk["drifts"]]
    scores = [s for chunk in chunks for s in chunk["scores"]]
    clean_score = chunks[0]["clean_score"]
    wall = sum(c["timing"]["wall_time_s"] for c in chunks)

    bundle = get_bundle(cell["model"])
    higher = bundle.higher_is_better
    mean_score = float(np.mean(scores)) if scores else None
    if mean_score is None or clean_score is None:
        degradation = None
    else:
        degradation = (clean_score - mean_score if higher
                       else mean_score - clean_score)
    return {
        "fp32_score": chunks[0]["fp32_score"],
        "clean_score": clean_score,
        "trials": trials,
        "flips_total": flips_total,
        "sdc_rate": sdc / trials,
        "detection_rate": detected / trials,
        "corrupt_rate": corrupted / trials,
        "nonfinite_logit_rate": nonfinite / trials,
        "masked_probe_rate": masked / trials,
        "mean_logit_rms_drift": _finite(np.mean(drifts)) if drifts else None,
        "max_logit_rms_drift": _finite(np.max(drifts)) if drifts else None,
        "mean_score": _finite(mean_score) if mean_score is not None else None,
        "worst_score": _finite(min(scores) if higher else max(scores))
        if scores else None,
        "score_failures": score_failures,
        "mean_degradation": _finite(degradation)
        if degradation is not None else None,
        "detected_kinds": detected_kinds,
        "timing": {"wall_time_s": wall,
                   "trials_per_sec": trials / wall if wall > 0 else None},
    }


def run_cell(cell: Dict) -> Dict:
    """Compute one full injection cell in-process (all trials, one chunk).

    Honors the descriptor's ``engine`` key (default: engine on); the
    fault/detection/drift counters are identical either way.
    """
    whole = dict(cell)
    whole.pop("trial_start", None)
    whole.pop("trial_count", None)
    return _merge_chunks(whole, [run_chunk(whole)])


# ------------------------------------------------------------------ campaign
def run(profile: str = "fast", models: Sequence[str] = ("transformer",),
        formats: Sequence[str] = FORMAT_NAMES, bits: int = 8,
        fields: Sequence[str] = DEFAULT_FIELDS,
        ber: Sequence[float] = (), n_flips: int = 1, trials: int = 8,
        seed: int = 0, jobs: int = 1, engine: bool = True,
        shards: Optional[int] = None) -> Dict:
    """Run a full injection campaign; returns (and persists) the grid.

    ``fields`` cells that do not exist for a format (no exponent bits,
    no adaptive register) are recorded as ``None`` in the grid rather
    than silently dropped, so reports show the structural gap.  Each
    ``ber`` value adds one whole-word multi-flip cell per (model,
    format) on top of the single-flip field cells.

    ``engine=False`` selects the naive reference trial loop (per-trial
    re-encode + full state-dict round trip).  ``shards`` splits every
    cell's trials into that many seeded chunks dispatched through the
    cell runner, so ``jobs`` parallelism applies within a cell; it
    defaults to ``jobs``, and any layout merges to the same counters.
    """
    PROFILES[profile]  # validate before any work
    for name in models:
        if name not in MODEL_NAMES:
            raise ValueError(f"unknown model {name!r}; known: {MODEL_NAMES}")
    for field in fields:
        if field not in FIELDS + (REGISTER_FIELD,):
            raise ValueError(f"unknown field {field!r}; known: "
                             f"{FIELDS + (REGISTER_FIELD,)}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    n_shards = int(shards) if shards else max(1, int(jobs))
    # Warm the FP32 checkpoints serially so workers only ever load them.
    baselines = {name: trained_model(name, profile)[2] for name in models}

    def _cell(model: str, fmt: str, field: str,
              cell_ber: Optional[float]) -> Dict:
        return {"table": "resilience", "profile": profile, "model": model,
                "format": fmt, "bits": int(bits), "field": field,
                "ber": cell_ber, "n_flips": int(n_flips),
                "trials": int(trials), "seed": int(seed)}

    cells: List[Dict] = []
    slots: List[Tuple[str, str, str]] = []  # (model, format, field-or-ber key)
    for model in models:
        for fmt in formats:
            supported = cell_fields(fmt, bits)
            for field in fields:
                if field not in supported:
                    continue
                cells.append(_cell(model, fmt, field, None))
                slots.append((model, fmt, field))
            for rate in ber:
                cells.append(_cell(model, fmt, "any", float(rate)))
                slots.append((model, fmt, f"ber:{float(rate):g}"))

    ranges = shard_ranges(int(trials), n_shards)
    chunk_cells = [dict(cell, engine=bool(engine), trial_start=s,
                        trial_count=c)
                   for cell in cells for (s, c) in ranges]
    # Contexts are shared within this call only: none survives it here
    # (worker processes keep theirs until the pool closes).
    _drop_context()
    try:
        chunk_results = run_cells(run_chunk, chunk_cells, jobs=jobs,
                                  cache_namespace=f"resilience_{profile}",
                                  cache_salt=_CACHE_SALT)
    finally:
        _drop_context()
    per_cell = len(ranges)
    results = [_merge_chunks(cell, chunk_results[i * per_cell:
                                                 (i + 1) * per_cell])
               for i, cell in enumerate(cells)]
    for payload in results:
        _CELLS.inc()
        _TRIALS.inc(int(payload["trials"]))
        _CELL_SECONDS.observe(payload["timing"]["wall_time_s"])

    grid: Dict = {}
    for (model, fmt, key), payload in zip(slots, results):
        grid.setdefault(model, {}).setdefault(fmt, {})[key] = payload
    out: Dict = {"profile": profile, "bits": int(bits), "seed": int(seed),
                 "trials": int(trials), "n_flips": int(n_flips),
                 "fields": list(fields), "ber": [float(b) for b in ber],
                 "engine": bool(engine), "models": {}}
    for model in models:
        bundle = get_bundle(model)
        per_fmt: Dict = {}
        for fmt in formats:
            cells_by_key = grid.get(model, {}).get(fmt, {})
            per_fmt[fmt] = {field: cells_by_key.get(field)
                            for field in fields}
            for rate in ber:
                key = f"ber:{float(rate):g}"
                per_fmt[fmt][key] = cells_by_key.get(key)
        out["models"][model] = {
            "fp32_score": float(baselines[model]), "metric": bundle.metric,
            "higher_is_better": bundle.higher_is_better, "formats": per_fmt,
        }
    total_wall = sum(p["timing"]["wall_time_s"] for p in results)
    out["timing"] = {
        "wall_time_s": total_wall,
        "trials_per_sec": (len(results) * int(trials) / total_wall
                           if total_wall > 0 else None),
        "cells": len(results),
    }
    save_result(f"resilience_{profile}", out)
    return out


# ---------------------------------------------------------------- throughput
def measure_injection_throughput(profile: str = "tiny",
                                 model: str = "transformer",
                                 format_name: str = "adaptivfloat",
                                 bits: int = 8, field: str = "any",
                                 n_flips: int = 1,
                                 ber: Optional[float] = None,
                                 trials: int = 200, seed: int = 0,
                                 engine: bool = True,
                                 checksums: bool = False) -> Dict:
    """Time the fault-generation + state-application + detection loop.

    Isolates the machinery the engine accelerates — target draw and the
    context's install step (fault synthesis, installing the corrupted
    tensor, and the parameter scan), the very step :func:`run_chunk`
    runs — from the scoring work (probe forward + task evaluation) that
    is byte-identical in both paths.  The reported trials/sec therefore
    measures the trial loop itself, which is what the committed
    benchmark's >= 3x gate checks.

    With ``checksums=True`` each trial's installed parameter bytes are
    hashed; engine and naive runs at equal arguments must produce equal
    digest lists (the equivalence half of the benchmark).
    """
    cell = {"table": "resilience", "profile": profile, "model": model,
            "format": format_name, "bits": int(bits), "field": field,
            "ber": ber, "n_flips": int(n_flips), "trials": int(trials),
            "seed": int(seed)}
    ctx = _CellContext(cell, engine=bool(engine), scoring=False)
    cell_hash = _cell_hash(cell)

    flips_total = 0
    findings_total = 0
    digests: List[str] = []
    t0 = clock.now()
    for trial in range(int(trials)):
        rng = fresh_rng([int(seed), cell_hash, trial])
        target = ctx.pick_target(rng, field)
        with np.errstate(all="ignore"):
            flips, findings, restore = ctx.install(target, rng, field,
                                                   int(n_flips), ber)
        if checksums:
            data = ctx.model.get_parameter(target).data
            digests.append(target + ":" + hashlib.sha1(
                data.tobytes()).hexdigest()[:16])
        restore()
        flips_total += flips
        findings_total += len(findings)
    wall = clock.now() - t0

    return {
        "engine": bool(engine),
        "profile": profile, "model": model, "format": format_name,
        "bits": int(bits), "field": field, "n_flips": int(n_flips),
        "ber": ber, "seed": int(seed),
        "trials": int(trials),
        "wall_time_s": wall,
        "trials_per_sec": trials / wall if wall > 0 else None,
        "flips_total": flips_total,
        "findings_total": findings_total,
        "checksums": digests if checksums else None,
    }


def render(result: Dict) -> str:
    """Text tables: per model, formats x fields, ``SDC | detect | drift``."""
    keys = list(result["fields"]) + [f"ber:{b:g}" for b in result["ber"]]
    blocks = []
    for model, payload in result["models"].items():
        rows = []
        for fmt, per_field in payload["formats"].items():
            row = [fmt]
            for key in keys:
                cell = per_field.get(key)
                if cell is None:
                    row.append("-")
                    continue
                drift = cell["mean_logit_rms_drift"]
                row.append(f"{cell['sdc_rate']:.2f}|{cell['detection_rate']:.2f}"
                           f"|{drift:.2g}" if drift is not None
                           else f"{cell['sdc_rate']:.2f}"
                                f"|{cell['detection_rate']:.2f}|nf")
            rows.append(row)
        blocks.append(format_table(
            ["format"] + keys, rows,
            title=(f"Resilience - {model} at {result['bits']} bits "
                   f"(SDC rate | sanitizer detection | logit RMS drift; "
                   f"{result['trials']} trials/cell)")))
    return "\n\n".join(blocks)
