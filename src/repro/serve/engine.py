"""The inference server: bucketed submit, pull-style micro-batching.

Request lifecycle::

    submit() ──> bucket_key ──> bucket ──> an idle worker takes up to
    (backpressure)              (coalesce)  max_batch from a due bucket
                                                        │
                                                        v
    future.result() <──────── worker demux <──── run_microbatch

* **Backpressure** — at most ``max_queue`` requests may be in flight
  (submitted, not yet resolved).  ``submit(block=True)`` waits for a
  slot; ``block=False`` raises :class:`ServerSaturated` immediately.
* **Coalescing** — ``submit`` appends each request to the bucket of
  compatible requests (same :func:`~repro.serve.batching.bucket_key`).
  A bucket is *due* when it holds ``max_batch`` requests, when its
  oldest request has waited ``max_wait_ms``, or once shutdown has
  begun — the classic throughput/latency dial.  Batch formation needs
  no thread of its own: a worker that becomes free takes up to
  ``max_batch`` requests from the due bucket with the oldest head, so
  requests that arrive while every worker is busy join the next batch
  instead of being cut into small ones.
* **Workers** — ``workers`` threads run batches through the warm models
  from the shared :class:`~repro.serve.pool.ModelPool` and resolve the
  per-request futures.  Autodiff mode flags are thread-local, so
  concurrent workers cannot race on each other's ``no_grad`` scopes.
* **Drain/shutdown** — :meth:`InferenceServer.drain` blocks until every
  accepted request has resolved; :meth:`InferenceServer.shutdown`
  (also the context-manager exit) optionally drains, then stops the
  threads.  Requests submitted after shutdown raise
  :class:`ServerClosed`.
"""

from __future__ import annotations

import collections
import threading
import time
from concurrent.futures import Future
from typing import Any, Deque, Dict, Hashable, List, Optional, Tuple

from .. import obs
from ..nn import Sanitizer, deterministic_matmul
from ..obs import clock
from .batching import Request, bucket_key, run_microbatch
from .pool import ModelPool
from .resilient import PROBE_KINDS, CircuitBreaker, ResilienceConfig
from .stats import ServerStats

__all__ = ["InferenceServer", "ServeError", "ServerClosed",
           "ServerSaturated", "ServerDegraded", "DeadlineExceeded"]


class ServeError(RuntimeError):
    """Base class for serving-engine errors."""


class ServerClosed(ServeError):
    """Submit after shutdown (or before start)."""


class ServerSaturated(ServeError):
    """Bounded queue full and the caller declined to wait."""


class ServerDegraded(ServeError):
    """An uncorrectable fault: the scrubber could not repair the model
    (or retries were exhausted), or the circuit breaker is shedding
    load after repeated uncorrectable faults."""


class DeadlineExceeded(ServeError):
    """The request's deadline expired before a worker could serve it."""


#: Exceptions caught by the engine's broad submit/worker handlers.
#: Most are *routed* into the request's future rather than dropped, but
#: every one disappears from its own thread — this counter is the audit
#: trail.  ``site`` names the handler, ``exc`` the exception type.
_SWALLOWED = obs.counter(
    "repro_serve_swallowed_exceptions_total",
    "Exceptions caught by broad serve/resilience handlers, by handler "
    "site and exception type.", ("site", "exc"))


def _count_swallowed(site: str, error: BaseException) -> None:
    _SWALLOWED.labels(site=site, exc=type(error).__name__).inc()


class _Pending:
    """A request riding through the engine with its timing and future.

    All timestamps (``t_submit``, ``t_dispatch``, ``deadline``) are
    readings of the single :mod:`repro.obs.clock` — the workers'
    ``max_wait_ms`` arithmetic and ``drain()``'s timeout compare against
    the same clock, so absolute times never cross clock domains.  (An earlier
    version stamped submit times with ``time.perf_counter()`` while
    ``drain()`` and the circuit breaker read ``time.monotonic()``;
    the two have unrelated epochs, which made any future mixing of
    those absolutes silently wrong.)
    """

    __slots__ = ("request", "future", "t_submit", "t_dispatch", "deadline",
                 "trace_id")

    def __init__(self, request: Request,
                 deadline_s: Optional[float] = None) -> None:
        self.request = request
        self.future: "Future[Any]" = Future()
        self.t_submit = clock.now()
        self.t_dispatch = 0.0
        self.trace_id = obs.new_trace_id()
        #: absolute obs-clock time after which the request fails with
        #: DeadlineExceeded instead of riding further retries.
        self.deadline = (None if deadline_s is None
                         else self.t_submit + deadline_s)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class InferenceServer:
    """Dynamic micro-batching server over the quantized model zoo.

    Parameters
    ----------
    pool:
        The shared :class:`ModelPool` (models resolve lazily on first
        request for each family).
    max_batch:
        Largest micro-batch a worker will take.
    max_wait_ms:
        Longest a request may sit in a partial bucket before a free
        worker takes it anyway (the latency bound at low load).
    max_queue:
        In-flight request bound enforced at ``submit`` (backpressure).
    workers:
        Worker threads running batches.  More did not help on a 2-vCPU
        x86 host: :func:`~repro.serve.bench.run_serve_benchmark`
        (transformer, 128 requests, concurrency 32, best of 3, 3
        alternating rounds) served 627-721 batched req/s with 1 worker,
        475-667 with 2 and 363-649 with 4, whose batches also shrank
        (mean 14.2 requests at 1 and 2 workers, 11.6-12.8 at 4).
    length_bucket:
        Source-length granule for translate batching
        (:func:`~repro.serve.batching.bucket_key`).
    deterministic:
        Run worker decodes under ``deterministic_matmul`` (the mode
        flags are thread-local, so an equivalence test's context on the
        client thread would not reach the workers otherwise).  Slower;
        meant for the token-identity checks, not production serving.
    resilience:
        A :class:`~repro.serve.resilient.ResilienceConfig` enables the
        self-healing path: golden-copy scrubbing of the pooled models
        (periodic daemon + per-batch CRC verify), a Sanitizer probe
        quarantining numerically-faulty batches, bounded-backoff batch
        retry after repair, per-request deadlines, and a circuit
        breaker shedding load with :class:`ServerDegraded` after
        repeated uncorrectable faults.  ``None`` (default) serves
        exactly as before.
    metrics_port:
        When not ``None``, start a :class:`~repro.obs.MetricsServer`
        exposing the process metrics registry over HTTP (``/metrics``
        Prometheus text, ``/metrics.json``) for the server's lifetime;
        ``0`` binds an ephemeral port (read it back from
        ``server.metrics.url``).  The endpoint closes on shutdown.
    """

    def __init__(self, pool: Optional[ModelPool] = None, *,
                 max_batch: int = 16, max_wait_ms: float = 2.0,
                 max_queue: int = 256, workers: int = 1,
                 length_bucket: int = 8, deterministic: bool = False,
                 resilience: Optional[ResilienceConfig] = None,
                 metrics_port: Optional[int] = None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if length_bucket < 1:
            # bucket_key rejects this per request; validating here keeps
            # a bad dial from failing every submit at runtime.
            raise ValueError(
                f"length_bucket must be >= 1, got {length_bucket}")
        self.pool = pool or ModelPool()
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_queue = max_queue
        self.length_bucket = length_bucket
        self.deterministic = deterministic
        self.resilience = resilience
        self._breaker: Optional[CircuitBreaker] = None
        self._scrub_thread: Optional[threading.Thread] = None
        self._scrub_stop = threading.Event()
        if resilience is not None:
            self._breaker = CircuitBreaker(resilience.breaker_threshold,
                                           resilience.breaker_reset_s)
            self.pool.enable_scrubbing()
        self.stats = ServerStats()
        self.metrics: Optional[obs.MetricsServer] = None
        if metrics_port is not None:
            self.metrics = obs.MetricsServer(obs.REGISTRY,
                                             port=metrics_port)
        self._slots = threading.BoundedSemaphore(max_queue)
        self._buckets: Dict[Hashable, Deque[_Pending]] = {}
        self._inflight = 0
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        #: Notified when a bucket may have become due (a submit, a
        #: worker leaving requests behind, shutdown).
        self._ready = threading.Condition(self._state_lock)
        self._closed = False
        self._started = False
        self._workers: List[threading.Thread] = [
            threading.Thread(target=self._worker_loop,
                             name=f"serve-worker-{i}", daemon=True)
            for i in range(workers)]

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "InferenceServer":
        if self._started:
            return self
        self._started = True
        for worker in self._workers:
            worker.start()
        if self.resilience is not None \
                and self.resilience.scrub_interval_s is not None:
            self._scrub_thread = threading.Thread(
                target=self._scrub_loop, name="serve-scrubber", daemon=True)
            self._scrub_thread.start()
        return self

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, *exc) -> None:
        self.shutdown(drain=exc_type is None)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted request has resolved.

        Returns False if ``timeout`` elapsed with work still in flight.
        """
        deadline = None if timeout is None else clock.now() + timeout
        with self._idle:
            while self._inflight:
                remaining = None if deadline is None \
                    else deadline - clock.now()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop accepting requests, optionally drain, stop the threads.

        With ``drain=False`` requests no worker has taken yet are failed
        with :class:`ServerClosed` rather than silently dropped.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            abandoned: List[_Pending] = []
            if not drain:
                for pends in self._buckets.values():
                    abandoned.extend(pends)
                self._buckets.clear()
            self._ready.notify_all()       # every bucket is due now
        error = ServerClosed("server shut down before this request ran")
        for pending in abandoned:
            self._resolve(pending, error=error)
        if not self._started:
            if self.metrics is not None:
                self.metrics.close()
            return
        if drain:
            self.drain(timeout)
        if self.metrics is not None:
            self.metrics.close()
        self._scrub_stop.set()
        for worker in self._workers:
            worker.join(timeout=30.0)
        if self._scrub_thread is not None:
            self._scrub_thread.join(timeout=30.0)

    # --------------------------------------------------------------- submit
    def submit(self, kind: str, payload: Any, *,
               max_len: Optional[int] = None,
               beam_size: Optional[int] = None, block: bool = True,
               timeout: Optional[float] = None,
               deadline_s: Optional[float] = None) -> "Future[Any]":
        """Enqueue one request; returns a ``concurrent.futures.Future``.

        The future resolves to a token list (translate/transcribe) or an
        ``int`` label (classify).  Raises :class:`ServerClosed` after
        shutdown, :class:`ServerSaturated` when the in-flight bound is
        hit and ``block`` is False (or ``timeout`` elapses), and
        :class:`ServerDegraded` while the resilience circuit breaker is
        shedding load.  ``deadline_s`` bounds this request's total
        residence time (default: the resilience config's
        ``request_deadline_s``; expired requests resolve with
        :class:`DeadlineExceeded`).
        """
        if not self._started:
            raise ServerClosed("server not started; use start() or a "
                               "'with' block")
        if deadline_s is None and self.resilience is not None:
            deadline_s = self.resilience.request_deadline_s
        request = Request(kind, payload, max_len=max_len,
                          beam_size=beam_size)
        try:
            key = bucket_key(request, self.length_bucket)
            key_error: Optional[Exception] = None
        except Exception as error:
            # A malformed request fails *its own* future below, after it
            # is accounted, like any other request that cannot be served.
            key, key_error = None, error
        if self._closed:
            raise ServerClosed("server is shut down")
        if self._breaker is not None and not self._breaker.allow():
            # Shed before taking a slot: a degraded server must not let
            # doomed requests consume backpressure capacity.
            self.stats.record_degraded_rejection()
            raise ServerDegraded(
                "circuit breaker open after repeated uncorrectable "
                "faults; retry after the breaker's reset window")
        if not self._slots.acquire(blocking=block, timeout=timeout):
            self.stats.record_reject()
            raise ServerSaturated(
                f"{self.max_queue} requests already in flight")
        pending = _Pending(request, deadline_s=deadline_s)
        with self._state_lock:
            if self._closed:
                self._slots.release()
                raise ServerClosed("server is shut down")
            self._inflight += 1
            # Counted before a worker can see the request, so queue
            # depth never reads below zero.
            self.stats.record_submit()
            if key_error is None:
                self._buckets.setdefault(
                    key, collections.deque()).append(pending)
                self._ready.notify()
        if key_error is not None:
            _count_swallowed("submit.bucket_key", key_error)
            self._resolve(pending, error=key_error)
        return pending.future

    # -------------------------------------------------------------- workers
    def _take_batch(self) -> Optional[List[_Pending]]:
        """Wait for a due bucket; take up to ``max_batch`` requests.

        A bucket is due when it holds ``max_batch`` requests, its oldest
        request has waited ``max_wait_ms``, or shutdown has begun; of
        the due buckets, the one with the oldest head goes first.
        Returns None once the server is closed and no bucket is left.
        """
        max_wait_s = self.max_wait_ms / 1e3
        with self._ready:
            while True:
                now = clock.now()
                due_key, due_head, wake_at = None, None, None
                for key, pends in self._buckets.items():
                    head = pends[0].t_submit
                    if (self._closed or len(pends) >= self.max_batch
                            or now - head >= max_wait_s):
                        if due_head is None or head < due_head:
                            due_key, due_head = key, head
                    elif wake_at is None or head + max_wait_s < wake_at:
                        wake_at = head + max_wait_s
                if due_head is not None:
                    break
                if self._closed:
                    return None
                self._ready.wait(None if wake_at is None else wake_at - now)
            pends = self._buckets[due_key]
            batch = [pends.popleft()
                     for _ in range(min(self.max_batch, len(pends)))]
            if not pends:
                del self._buckets[due_key]
            if self._buckets:
                self._ready.notify()       # another worker may take the rest
        now = clock.now()
        for pending in batch:
            pending.t_dispatch = now
            obs.TRACER.record("serve.queue", pending.t_submit, now,
                              trace_id=pending.trace_id,
                              kind=pending.request.kind)
        self.stats.record_batch(len(batch))
        return batch

    def _worker_loop(self) -> None:
        while True:
            pends = self._take_batch()
            if pends is None:
                return
            pends = self._drop_expired(pends)
            if not pends:
                continue
            if self.resilience is not None:
                self._process_resilient(pends)
                continue
            t_batch = clock.now()
            try:
                entry = self.pool.get(pends[0].request.model_name)
                results = self._run_batch(entry, [p.request for p in pends])
            except BaseException as error:  # resolve, don't kill the worker
                _count_swallowed("worker.batch", error)
                for pending in pends:
                    self._resolve(pending, error=error)
                continue
            obs.TRACER.record("serve.batch", t_batch, clock.now(),
                              trace_id=pends[0].trace_id, size=len(pends))
            for pending, result in zip(pends, results):
                self._resolve(pending, result=result)

    def _run_batch(self, entry: Any, requests: List[Request]) -> List[Any]:
        if self.deterministic:
            with deterministic_matmul():
                return run_microbatch(entry, requests)
        return run_microbatch(entry, requests)

    def _drop_expired(self, pends: List[_Pending]) -> List[_Pending]:
        """Fail deadline-expired requests; return the still-live rest."""
        now = clock.now()
        live = []
        for pending in pends:
            if pending.expired(now):
                self.stats.record_deadline()
                self._resolve(pending, error=DeadlineExceeded(
                    "request deadline expired before the batch ran"))
            else:
                live.append(pending)
        return live

    # ------------------------------------------------- self-healing path
    def _probe_batch(self, entry: Any,
                     requests: List[Request]) -> Tuple[List[Any],
                                                       Optional[str]]:
        """Run the batch under a collecting Sanitizer.

        Returns ``(results, finding kind)`` where the kind is the first
        quarantine-worthy numeric finding (:data:`PROBE_KINDS`) the
        forward produced, or None for a numerically clean batch.
        """
        cfg = self.resilience
        with Sanitizer(entry.model, action="collect",
                       clamp_storm=cfg.clamp_storm) as report:
            results = self._run_batch(entry, requests)
        for finding in report.findings:
            if finding.kind in PROBE_KINDS:
                return results, finding.kind
        return results, None

    def _process_resilient(self, pends: List[_Pending]) -> None:
        """Run one micro-batch with detect / repair / retry / degrade.

        Per attempt: run the batch (optionally under the Sanitizer
        probe), then CRC-verify the served model against its golden
        streams.  A detected weight fault is restored by the scrubber
        and the batch retries with exponential backoff (the restore
        bumped ``Parameter.version``, so the weight-quant memo refreshes
        itself).  The scrubber's ``generation`` counter guards the
        daemon race: if a periodic scrub repaired the weights *during*
        our forward, the post-batch CRC looks clean even though the
        forward read corrupted values — a generation change across the
        attempt forces a retry.  Uncorrectable faults (corrupted golden
        copy, retries exhausted) fail the batch with
        :class:`ServerDegraded` and feed the circuit breaker.
        """
        cfg = self.resilience
        try:
            entry = self.pool.get(pends[0].request.model_name)
        except BaseException as error:
            _count_swallowed("resilient.pool_get", error)
            for pending in pends:
                self._resolve(pending, error=error)
            return
        scrubber = entry.scrubber
        attempt = 0
        live = pends
        while True:
            live = self._drop_expired(live)
            if not live:
                return
            requests = [p.request for p in live]
            gen_before = scrubber.generation if scrubber is not None else 0
            fault: Optional[str] = None
            results: Optional[List[Any]] = None
            error: Optional[BaseException] = None
            t_batch = clock.now()
            try:
                if cfg.probe:
                    results, probe_kind = self._probe_batch(entry, requests)
                    if probe_kind is not None:
                        fault = "probe"
                else:
                    results = self._run_batch(entry, requests)
            except BaseException as err:
                _count_swallowed("resilient.attempt", err)
                error = err
            obs.TRACER.record("serve.batch", t_batch, clock.now(),
                              trace_id=live[0].trace_id, size=len(live),
                              attempt=attempt)
            report = None
            if scrubber is not None and (
                    fault is not None or error is not None
                    or cfg.verify_batches):
                report = scrubber.scrub(
                    reason="probe" if fault else
                    ("exception" if error is not None else "verify"))
                self.stats.record_scrub(
                    report.checked, len(report.restored),
                    len(report.uncorrectable), report.duration_s)
                if report.corrupted and fault is None:
                    fault = "exception" if error is not None else "crc"
            if report is not None and report.uncorrectable:
                self._fail_degraded(live, ServerDegraded(
                    "weight fault is uncorrectable (golden copy for "
                    f"{report.uncorrectable} failed its self-checksum)"))
                return
            if error is not None and fault is None:
                # A plain software error with verified-clean weights is
                # not a hardware fault; propagate it as before.
                for pending in live:
                    self._resolve(pending, error=error)
                return
            gen_now = scrubber.generation if scrubber is not None else 0
            if fault is None and gen_now == gen_before:
                if attempt:
                    self.stats.record_recovered()
                if self._breaker is not None:
                    self._breaker.record_success()
                    self._sync_degradation()
                for pending, result in zip(live, results):
                    self._resolve(pending, result=result)
                return
            # fault detected (or the daemon repaired under us): retry
            if fault is not None:
                self.stats.record_fault(fault)
            attempt += 1
            if attempt > cfg.max_retries:
                self.stats.record_uncorrectable()
                self._fail_degraded(live, ServerDegraded(
                    f"fault persisted through {cfg.max_retries} "
                    "retries"))
                return
            self.stats.record_retry()
            backoff = cfg.backoff(attempt - 1)
            if backoff > 0:
                time.sleep(backoff)

    def _fail_degraded(self, pends: List[_Pending],
                       error: ServerDegraded) -> None:
        if self._breaker is not None:
            self._breaker.record_uncorrectable()
            self._sync_degradation()
        for pending in pends:
            self._resolve(pending, error=error)

    def _sync_degradation(self) -> None:
        state = self._breaker.state
        self.stats.set_degradation("ok" if state == "closed" else state)

    def _scrub_loop(self) -> None:
        """Periodic golden-copy sweep over every pooled model."""
        interval = self.resilience.scrub_interval_s
        while not self._scrub_stop.wait(interval):
            for scrubber in self.pool.scrubbers().values():
                report = scrubber.scrub(reason="periodic")
                self.stats.record_scrub(
                    report.checked, len(report.restored),
                    len(report.uncorrectable), report.duration_s)
                if report.corrupted:
                    self.stats.record_fault("crc")
                if report.uncorrectable and self._breaker is not None:
                    self._breaker.record_uncorrectable()
                    self._sync_degradation()

    def _resolve(self, pending: _Pending, result: Any = None,
                 error: Optional[BaseException] = None) -> None:
        now = clock.now()
        obs.TRACER.record("serve.request", pending.t_submit, now,
                          trace_id=pending.trace_id,
                          kind=pending.request.kind,
                          outcome="error" if error is not None else "ok")
        with self._idle:
            # The queue depth changes only under this lock (record_submit
            # runs under it too), so its high-water mark is exact; the
            # slot frees after the depth drops, so depth <= max_queue.
            self.stats.record_done(
                now - pending.t_submit,
                (pending.t_dispatch or now) - pending.t_submit,
                failed=error is not None)
            self._inflight -= 1
            self._slots.release()
            if not self._inflight:
                self._idle.notify_all()
        # A client may have cancelled the future; InvalidStateError here
        # must not kill the worker mid-demux (that would leak the queue
        # depth of every later pending in the same batch).
        try:
            if error is not None:
                pending.future.set_exception(error)
            else:
                pending.future.set_result(result)
        except Exception as swallowed:
            _count_swallowed("resolve.set_future", swallowed)
