"""The three workloads, driven through the public APIs of ``repro``.

Each workload has a set-up, a sequence of measurement windows and a
finishing check.  Between windows the program is idle, which is when
``run.py`` times the host probe.  Why each workload exists is written in
``README.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Any, Dict, List, Optional

import numpy as np

from repro import nn
from repro.experiments.common import MODEL_NAMES, get_bundle, trained_model
from repro.nn.models import Seq2Seq, Transformer
from repro.resilience import campaign
from repro.resilience.engine import TrialEngine
from repro.resilience.inject import flip_float_register
from repro.resilience.scrub import WeightScrubber
from repro.serve import (KINDS, InferenceServer, ModelPool, Request,
                         ResilienceConfig, ServeError, serial_reference)
from repro.serve import engine as serve_engine
from repro.formats import FORMAT_NAMES, make_quantizer

import loadgen
import measure
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "campaign_reference.json")

#: AdaptivFloat-8 weights on every served model (the paper's format).
QUANT = ("adaptivfloat", 8)

#: Seed of the untrained served models.  It is fixed, not ``--seed``:
#: with these weights no translate decode emits EOS early, so every one
#: runs to its cap, and the seed varies only the inputs.
MODEL_SEED = 1

#: Decode caps.  Untrained models never emit EOS, so every decode runs
#: to the cap and a request's cost depends only on its kind and length.
MAX_LEN = {"translate": 16, "transcribe": 24, "classify": None}

#: Share of serve outputs allowed to differ from the serial reference.
#: Batched BLAS calls sum in another order than batch-1 calls, which can
#: flip a near-tie argmax; a real batching bug breaks far more outputs.
MATCH_MARGIN = 0.02


@dataclasses.dataclass
class Window:
    """Raw measurements of one window (wall-clock units)."""

    attempted: int = 0
    completed: int = 0           # ops counted towards ops_per_s
    failed: int = 0
    elapsed_s: float = 0.0       # time base for ops_per_s
    #: open loop only: the time base already in reference seconds (the
    #: schedule was stretched by the pre-window factor, not the mean)
    ref_elapsed_s: Optional[float] = None
    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    late_ms: List[float] = dataclasses.field(default_factory=list)
    #: per attempted op: its latency in ms, or None if it failed
    op_ms: List[Optional[float]] = dataclasses.field(default_factory=list)
    scale: float = 1.0           # host factor, filled in by run.py
    traced: bool = False
    group: str = ""              # windows comparable for trace overhead


class Workload:
    """Common shape: ``setup``, ``window`` x N, ``check``, ``close``."""

    name = ""
    #: percentile reported as ``tail_ms``; leaves >= 10 samples beyond
    #: it at the default run length (checked by the self-tests).
    tail_pct = 90.0
    #: latency limit (reference ms) for ``ok_share``.
    limit_ms = 1000.0
    #: reference seconds per window.
    window_s = 4.0
    #: Windows long enough to span several host speed flips, which the
    #: two probes around a window can miss (see ``README.md``).
    long_windows = False

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds

    def n_windows(self) -> int:
        return max(2, int(round(self.seconds / self.window_s)))

    def traced(self, index: int) -> bool:
        """Whether window ``index`` of a traced run records spans.

        Untraced and traced windows alternate; the pattern shifts every
        fourth window so that events with that period (the open loop's
        weight fault) fall on both sides.
        """
        return (index + index // 4) % 2 == 1

    def expected_samples(self) -> int:
        """Latency samples per run on a reference-speed host."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def window(self, index: int, scale: float) -> Window:
        raise NotImplementedError

    def check(self) -> Dict[str, Any]:
        """Oracle verdict: ``match_share``, ``checked`` and ``reasons``
        (empty when the outputs are correct)."""
        raise NotImplementedError

    def trace_targets(self, tracer: Tracer) -> None:
        """Register the layer entry points this workload exercises."""

    def layer_counts(self, before: Dict, after: Dict) -> Dict[str, float]:
        """Per-layer counts from two ``repro.obs`` snapshots."""
        return {}

    def close(self) -> None:
        pass


# =================================================================== serve
class _ServeWorkload(Workload):
    families = MODEL_NAMES
    resilient = False

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.pools = loadgen.payload_pools(seed)
        self.server: Optional[InferenceServer] = None
        self.results: List[tuple] = []     # (kind, payload index, output)

    def setup(self) -> None:
        pool = ModelPool(quant=QUANT, seed=MODEL_SEED)
        config = ResilienceConfig() if self.resilient else None
        self.server = InferenceServer(pool, resilience=config)
        for family in self.families:
            pool.get(family)          # build, warm, golden snapshot
        self.server.start()

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown(drain=True, timeout=60.0)
            self.server = None

    def _submit(self, kind: str, index: int):
        return self.server.submit(kind, self.pools[kind][index],
                                  max_len=MAX_LEN[kind], block=False)

    @staticmethod
    def _settle(pending: List[tuple], done_at: Dict[int, float]) -> None:
        """Wait until every op's completion callback has stamped it.

        The engine frees a request's slot (which ends ``drain``) just
        before it resolves the future, and callbacks run just after.
        """
        limit = time.perf_counter() + 60.0
        while any(p[0] not in done_at for p in pending) \
                and time.perf_counter() < limit:
            time.sleep(0.001)

    def _harvest(self, pending: List[tuple], win: Window,
                 done_at: Dict[int, float], timed: bool = True) -> None:
        """Collect outcomes once the window has drained.

        ``pending`` holds ``(id, kind, index, future, start)``; latency
        runs from ``start`` (due or submit time) to the completion stamp.
        ``timed=False`` keeps the ops out of the latency percentiles.
        """
        for op_id, kind, index, future, start in pending:
            try:
                output = future.result(timeout=60.0)
            except (ServeError, TimeoutError) as error:
                win.failed += 1
                win.op_ms.append(None)
                self.results.append((kind, index, error))
                continue
            latency = (done_at[op_id] - start) * 1e3
            if timed:
                win.latencies_ms.append(latency)
            win.op_ms.append(latency)
            self.results.append((kind, index, output))

    def check(self) -> Dict[str, Any]:
        """Compare every served output with the serial reference.

        The reference runs on a freshly built pool with the same weights
        (clean), once per distinct payload, after the windows.
        """
        pool = ModelPool(quant=QUANT, seed=MODEL_SEED, warmup=False)
        reference: Dict[tuple, Any] = {}
        checked = matched = 0
        for kind, index, output in self.results:
            if isinstance(output, BaseException):
                continue
            key = (kind, index)
            if key not in reference:
                entry = pool.get(KINDS[kind])
                request = Request(kind, self.pools[kind][index],
                                  max_len=MAX_LEN[kind])
                reference[key] = serial_reference(entry, [request])[0]
            checked += 1
            matched += output == reference[key]
        share = matched / checked if checked else 0.0
        reasons = []
        if share < 1.0 - MATCH_MARGIN:
            reasons.append(f"match_share {share:.4f} below "
                           f"{1.0 - MATCH_MARGIN:.2f}")
        return {"match_share": share, "checked": checked,
                "reasons": reasons}

    # --------------------------------------------------------- tracing
    def trace_targets(self, tracer: Tracer) -> None:
        def batch_counts(args, result):
            requests = args[1]
            kind = requests[0].kind
            if kind == "classify":
                return
            lengths = [len(r.payload) for r in requests]
            longest = max(lengths)
            tracer.pad[0] += sum(longest - n for n in lengths)
            tracer.pad[1] += longest * len(lengths)

        def decode_counts(args, result):
            tracer.decode_steps += int(np.asarray(result).shape[1])

        tracer.target(serve_engine, "run_microbatch", "batching.microbatch",
                      batch_counts)
        for cls in (Transformer, Seq2Seq):
            tracer.target(cls, "greedy_decode", "nn.greedy_decode",
                          decode_counts)
        _trace_common(tracer)

    def layer_counts(self, before: Dict, after: Dict) -> Dict[str, float]:
        return _serve_counts(before, after)


class ServeOnline(_ServeWorkload):
    """Open loop on the self-healing server, with weight faults."""

    name = "serve_online"
    resilient = True
    #: p90 spread past the 0.25 bound in three of ten sets of ten runs
    #: on this host; p85 (about 21 samples beyond) spread a fifth less.
    tail_pct = 85.0
    limit_ms = 1000.0
    #: Short windows put a host probe every second, close to the
    #: requests it scales.
    window_s = 1.0
    #: One weight fault every this many windows.
    fault_every = 4
    #: Offered load, requests per reference second: about a third of the
    #: resilient server's batch-1 capacity on this mix.
    rate = 6.0

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.injected = 0
        self._fault_families = loadgen.fault_families(seed, self.families)
        self._weights: Dict[str, List[tuple]] = {}

    def expected_samples(self) -> int:
        return self.n_windows() * int(round(self.rate * self.window_s))

    def setup(self) -> None:
        super().setup()
        for family in self.families:
            model = self.server.pool.get(family).model
            self._weights[family] = [
                (name, int(param.data.size))
                for name, param in model.named_parameters()
                if name.endswith("weight")]

    def _inject(self, index: int) -> None:
        family = self._fault_families[self.injected % len(self.families)]
        site = loadgen.fault_site(index, family, self._weights[family])
        model = self.server.pool.get(site.family).model
        faulty = model.get_parameter(site.parameter).data.copy()
        faulty.flat[site.element] = flip_float_register(
            float(faulty.flat[site.element]), site.bit)
        model.swap_parameter(site.parameter, faulty)
        self.injected += 1

    def _restores(self) -> int:
        return sum(s.counters()["restores"]
                   for s in self.server.pool.scrubbers().values())

    def window(self, index: int, scale: float) -> Window:
        events = loadgen.open_schedule(self.seed, index, self.window_s,
                                       self.rate)
        if index % self.fault_every == 0:
            events = loadgen.with_fault(events, loadgen.fault_event(
                self.seed, index, self.window_s))
        win = Window()
        done_at: Dict[int, float] = {}
        pending = []
        start = time.perf_counter()
        for op_id, event in enumerate(events):
            due = start + event.at / scale
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            win.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            if event.kind == "fault":
                self._inject(event.index)
                continue
            win.attempted += 1
            try:
                future = self._submit(event.kind, event.index)
            except ServeError as error:
                win.failed += 1
                win.op_ms.append(None)
                self.results.append((event.kind, event.index, error))
                continue
            future.add_done_callback(
                lambda _f, i=op_id: done_at.__setitem__(
                    i, time.perf_counter()))
            pending.append((op_id, event.kind, event.index, future, due))
        self.server.drain(timeout=60.0)
        self._settle(pending, done_at)
        scheduled_end = start + self.window_s / scale
        overrun = max([0.0] + [t - scheduled_end for t in done_at.values()])
        win.elapsed_s = scheduled_end + overrun - start
        win.ref_elapsed_s = self.window_s + overrun * scale
        self._harvest(pending, win, done_at)
        win.completed = len(win.latencies_ms)
        # The daemon repairs a fault in a family no request touched; wait
        # for it (idle time, outside the window) before the next fault.
        limit = time.perf_counter() + 10.0
        while self._restores() < self.injected \
                and time.perf_counter() < limit:
            time.sleep(0.05)
        return win

    def check(self) -> Dict[str, Any]:
        verdict = super().check()
        counters = self.server.pool.scrub_counters()
        restores = sum(c["restores"] for c in counters.values())
        uncorrectable = sum(c["uncorrectable"] for c in counters.values())
        if restores != self.injected:
            verdict["reasons"].append(
                f"scrub restored {restores} tensors for {self.injected} "
                "injected faults")
        if uncorrectable:
            verdict["reasons"].append(
                f"{uncorrectable} uncorrectable faults")
        verdict.update(injected=self.injected, restores=restores,
                       uncorrectable=uncorrectable)
        return verdict


class ServeClosed(_ServeWorkload):
    """Closed loop: 32 translate requests kept in flight, plain server."""

    name = "serve_closed"
    families = ("transformer",)
    tail_pct = 95.0
    limit_ms = 5000.0
    window_s = 4.0
    inflight = 32
    #: Below the fewest requests per reference second the closed loop
    #: has sustained in steadiness runs (30.5); used only to size the
    #: tail (self-test).  Every run also flags a tail with too few
    #: samples.
    reference_rate = 30.0

    def expected_samples(self) -> int:
        return int(self.n_windows() * self.window_s * self.reference_rate)

    def window(self, index: int, scale: float) -> Window:
        order = loadgen.closed_sequence(self.seed * 1000 + index, 4096)
        win = Window()
        done_at: Dict[int, float] = {}
        futures: Dict[Any, tuple] = {}
        finished: List[tuple] = []
        start = time.perf_counter()
        stop = start + self.window_s / scale
        next_op = 0

        def submit_one() -> None:
            nonlocal next_op
            op_id = next_op
            next_op += 1
            index_ = order[op_id % len(order)]
            win.attempted += 1
            submitted = time.perf_counter()
            try:
                future = self._submit("translate", index_)
            except ServeError as error:
                win.failed += 1
                win.op_ms.append(None)
                self.results.append(("translate", index_, error))
                return
            future.add_done_callback(
                lambda _f, i=op_id: done_at.__setitem__(
                    i, time.perf_counter()))
            futures[future] = (op_id, "translate", index_, future,
                               submitted)

        for _ in range(self.inflight):
            submit_one()
        while time.perf_counter() < stop:
            done, _ = wait(list(futures), timeout=stop - time.perf_counter(),
                           return_when=FIRST_COMPLETED)
            for future in done:
                finished.append(futures.pop(future))
                if time.perf_counter() < stop:
                    submit_one()
        self.server.drain(timeout=60.0)
        finished += list(futures.values())
        self._settle(finished, done_at)
        # Ops completed inside the window are timed; the ones still in
        # flight at its end are drained and checked but not timed.
        in_window = [p for p in finished if done_at[p[0]] <= stop]
        late = [p for p in finished if done_at[p[0]] > stop]
        self._harvest(in_window, win, done_at)
        win.completed = len(win.latencies_ms)
        self._harvest(late, win, done_at, timed=False)
        win.elapsed_s = stop - start
        return win


# ================================================================ campaign
class Campaign(Workload):
    """``repro.resilience.campaign.run``, one call per model family."""

    name = "campaign"
    tail_pct = 85.0
    limit_ms = 60000.0
    formats = ("adaptivfloat", "float")
    #: Trials per cell, set so a cell of every family costs about the
    #: same (a ResNet trial re-scores 256 images; a Transformer trial is
    #: mostly one probe forward): no family dominates wall time, and the
    #: latency percentiles draw on every window.
    trials = {"transformer": 18, "seq2seq": 8, "resnet": 2}
    #: A call lasts 2-4 s.
    long_windows = True
    #: Campaign seeds the reference file covers; ``--seed`` picks one.
    reference_seeds = 8

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.campaign_seed = seed % self.reference_seeds
        self.cells: List[tuple] = []      # (family, fmt, field, payload)
        self.train_ms: List[float] = []

    def n_windows(self) -> int:
        rounds = max(2, int(round(self.seconds / 8.0)))
        return rounds * len(MODEL_NAMES)

    def expected_samples(self) -> int:
        return sum(len(campaign.cell_fields(fmt, 8)) for fmt in self.formats) \
            * self.n_windows()

    def traced(self, index: int) -> bool:
        """Alternate whole rounds, so each family runs on both sides."""
        return (index // len(MODEL_NAMES)) % 2 == 1

    def setup(self) -> None:
        for family in MODEL_NAMES:
            start = time.perf_counter()
            trained_model(family, "tiny")
            self.train_ms.append((time.perf_counter() - start) * 1e3)

    def run_family(self, family: str) -> Dict:
        return campaign.run(profile="tiny", models=(family,),
                            formats=self.formats, bits=8,
                            trials=self.trials[family],
                            seed=self.campaign_seed, jobs=1)

    def window(self, index: int, scale: float) -> Window:
        family = MODEL_NAMES[index % len(MODEL_NAMES)]
        cells = [(fmt, field) for fmt in self.formats
                 for field in campaign.cell_fields(fmt, 8)]
        trials = self.trials[family] * len(cells)
        win = Window(attempted=trials, group=family)
        start = time.perf_counter()
        try:
            result = self.run_family(family)
        except (ValueError, FloatingPointError, RuntimeError) as error:
            win.failed = trials
            win.op_ms = [None] * trials
            win.elapsed_s = time.perf_counter() - start
            self.cells.append((family, None, None, error))
            return win
        win.elapsed_s = time.perf_counter() - start
        win.completed = trials
        win.op_ms = [win.elapsed_s * 1e3] * trials
        for fmt, field in cells:
            payload = result["models"][family]["formats"][fmt][field]
            self.cells.append((family, fmt, field, payload))
            win.latencies_ms.append(payload["timing"]["wall_time_s"] * 1e3)
        return win

    def check(self) -> Dict[str, Any]:
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            reference = json.load(handle)["seeds"][str(self.campaign_seed)]
        checked = matched = 0
        mismatches = []
        for family, fmt, field, payload in self.cells:
            if isinstance(payload, BaseException):
                continue
            checked += 1
            expected = reference[family][f"{fmt}/{field}"]
            got = cell_counters(payload)
            if got == expected:
                matched += 1
            else:
                mismatches.append(f"{family} {fmt}/{field}: {got} != "
                                  f"{expected}")
        share = matched / checked if checked else 0.0
        reasons = [f"campaign counters differ from the reference: "
                   f"{m}" for m in mismatches[:3]]
        if not checked:
            reasons.append("no campaign cell completed")
        return {"match_share": share, "checked": checked,
                "reasons": reasons}

    def masked_share(self) -> float:
        masked = trials = 0
        for family, _fmt, _field, payload in self.cells:
            if isinstance(payload, BaseException):
                continue
            masked += int(round(payload["masked_probe_rate"]
                                * payload["trials"]))
            trials += payload["trials"]
        return masked / trials if trials else 0.0

    # --------------------------------------------------------- tracing
    def trace_targets(self, tracer: Tracer) -> None:
        tracer.target(TrialEngine, "faulty_tensor", "trial.fault")
        tracer.target(nn, "scan_parameters", "trial.scan")
        for family in MODEL_NAMES:
            tracer.target(get_bundle(family), "evaluate", "trial.score")
        tracer.target(campaign, "run", "campaign.run")
        _trace_common(tracer)

    def layer_counts(self, before: Dict, after: Dict) -> Dict[str, float]:
        cell = measure.hist_delta(
            measure.hist(after, "repro_campaign_cell_seconds"),
            measure.hist(before, "repro_campaign_cell_seconds"))
        p50 = measure.hist_quantile(cell, 0.5)
        return {"campaign.cell_ms_p50": (p50 or 0.0) * 1e3}


#: The six counters a campaign cell is checked on, in reference order.
COUNTERS = ("flips", "detected", "corrupted", "sdc", "masked", "nonfinite")


def cell_counters(payload: Dict) -> List[int]:
    """A merged cell payload's counters as whole numbers."""
    trials = payload["trials"]
    return [int(payload["flips_total"])] + [
        int(round(payload[key] * trials))
        for key in ("detection_rate", "corrupt_rate", "sdc_rate",
                    "masked_probe_rate", "nonfinite_logit_rate")]


# ================================================================ shared
def _trace_common(tracer: Tracer) -> None:
    """Layers every workload can reach: quantizers, sanitizer, scrubber."""
    classes = {type(make_quantizer(name, 8)) for name in FORMAT_NAMES}
    owners = set()
    for cls in classes:
        for klass in cls.__mro__:
            for attr in ("quantize", "quantize_with_params"):
                if attr in klass.__dict__ and (klass, attr) not in owners:
                    owners.add((klass, attr))
    for klass, attr in sorted(owners, key=lambda o: (o[0].__name__, o[1])):
        tracer.target(klass, attr, "formats.quantize")
    tracer.target(WeightScrubber, "scrub", "scrub.pass")

    def enter(original):
        def traced_enter(self):
            self._bench_span = tracer.open()
            return original(self)
        return traced_enter

    def leave(original):
        def traced_exit(self, *exc):
            try:
                return original(self, *exc)
            finally:
                handle = getattr(self, "_bench_span", None)
                if handle is not None:
                    tracer.close("sanitize.scope", handle)
                    self._bench_span = None
        return traced_exit

    tracer.replace(nn.Sanitizer, "__enter__", enter)
    tracer.replace(nn.Sanitizer, "__exit__", leave)


def _delta(after: Dict, before: Dict, family: str, **labels: str) -> float:
    return measure.value(after, family, **labels) \
        - measure.value(before, family, **labels)


def _serve_counts(before: Dict, after: Dict) -> Dict[str, float]:
    size = measure.hist_delta(measure.hist(after, "repro_serve_batch_size"),
                              measure.hist(before, "repro_serve_batch_size"))
    wait_ = measure.hist_delta(
        measure.hist(after, "repro_serve_queue_wait_seconds"),
        measure.hist(before, "repro_serve_queue_wait_seconds"))
    return {
        "engine.batches": float(size["count"]),
        "engine.batch_size_mean": size["sum"] / size["count"]
        if size["count"] else 0.0,
        "engine.queue_wait_mean_ms": wait_["sum"] / wait_["count"] * 1e3
        if wait_["count"] else 0.0,
    }


def batch_seconds(before: Dict, after: Dict) -> float:
    """Worker time in ``serve.batch`` spans (the engine's own tracer)."""
    return measure.hist_delta(
        measure.hist(after, "repro_span_seconds", name="serve.batch"),
        measure.hist(before, "repro_span_seconds", name="serve.batch"))["sum"]


def common_counts(before: Dict, after: Dict) -> Dict[str, float]:
    """Counts every workload reports, from two obs snapshots."""
    def share(family: str, hit_label: Dict, miss_label: Dict) -> float:
        hits = _delta(after, before, family, **hit_label)
        misses = _delta(after, before, family, **miss_label)
        return hits / (hits + misses) if hits + misses > 0 else 0.0

    out = {
        "nn.wq_memo_hit_share": share("repro_weight_quant_cache_total",
                                      {"outcome": "hit"},
                                      {"outcome": "miss"}),
        "formats.codebook_hit_share": share("repro_codebook_cache",
                                            {"stat": "hits"},
                                            {"stat": "misses"}),
        "formats.decode_lut_hit_share": share("repro_decode_lut_cache",
                                              {"stat": "hits"},
                                              {"stat": "misses"}),
        "scrub.passes": _delta(after, before, "repro_scrub_passes_total"),
        "scrub.restores": _delta(after, before, "repro_scrub_restores_total"),
        "scrub.uncorrectable": _delta(after, before,
                                      "repro_scrub_uncorrectable_total"),
        "resilient.retries": _delta(after, before,
                                    "repro_serve_retries_total"),
    }
    for kind in ("crc", "probe", "exception"):
        out[f"resilient.faults.{kind}"] = _delta(
            after, before, "repro_serve_faults_total", kind=kind)
    build = measure.hist_delta(measure.hist(after, "repro_pool_build_seconds"),
                               measure.hist(before,
                                            "repro_pool_build_seconds"))
    out["pool.build_ms"] = build["sum"] / build["count"] * 1e3 \
        if build["count"] else 0.0
    return out


WORKLOADS = {cls.name: cls for cls in (ServeOnline, ServeClosed, Campaign)}
