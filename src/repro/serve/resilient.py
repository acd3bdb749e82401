"""Self-healing serving policy: scrub cadence, quarantine, degradation.

This module holds the *policy* objects the engine consults when built
with a :class:`ResilienceConfig`; the mechanism lives in
:class:`repro.resilience.scrub.WeightScrubber` (golden streams + CRC
verify + in-place restore) and the quarantine/retry loop in
:mod:`repro.serve.engine`.

The fault model is the one the campaign engine measures (a bit upset in
a stored weight, :mod:`repro.resilience.inject`), and the response is
layered the way a deployment would layer it:

1. **Detect** — per-batch CRC verification of the served model against
   its golden streams (deterministic: catches *every* weight corruption,
   including finite SDC the numeric sanitizer cannot see), plus an
   optional :class:`~repro.nn.sanitize.Sanitizer` probe over the batch
   forward (NaN / Inf / clamp-storm findings quarantine the batch even
   when the corruption lives outside the scrubbed parameters).
2. **Correct** — scrub-on-fault restores the corrupted tensors and the
   micro-batch retries with bounded exponential backoff; per-request
   deadlines bound how long a client can be held through retries.
3. **Degrade** — repeated *uncorrectable* faults (a corrupted golden
   copy, or retries exhausted) trip a circuit breaker; while it is open
   the server sheds load with the typed
   :class:`~repro.serve.engine.ServerDegraded` error instead of
   computing garbage.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Optional

from .. import obs
from ..obs import clock

__all__ = ["ResilienceConfig", "CircuitBreaker", "PROBE_KINDS"]

#: Breaker state changes (to="open" | "half-open" | "closed").  A
#: transition is counted once, when it actually happens — half-open is
#: detected lazily inside the next state query after the dwell.
_TRANSITIONS = obs.counter(
    "repro_serve_breaker_transitions_total",
    "Circuit breaker state transitions by destination state.", ("to",))

#: Sanitizer finding kinds that quarantine a micro-batch.  These are the
#: "batch output went numerically wrong" signals; underflow-flood is
#: excluded (a range-fit artifact, not a fault signature).
PROBE_KINDS = frozenset(
    ["forward-nan", "forward-overflow", "quantize-nan", "clamp-storm"])


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the self-healing serving path.

    Attributes
    ----------
    scrub_interval_s:
        Cadence of the background scrub daemon sweeping every pooled
        model.  ``None`` disables the daemon (faults are then caught by
        the per-batch verify / probe only).
    verify_batches:
        CRC-verify the served model's weights after every micro-batch.
        This is the deterministic detector: a corrupted weight can
        produce perfectly finite-but-wrong tokens that no numeric probe
        flags; the checksum always notices.
    probe:
        Run each micro-batch under a collecting
        :class:`~repro.nn.sanitize.Sanitizer` and quarantine on
        :data:`PROBE_KINDS` findings.  Catches in-flight numeric faults
        beyond the scrubbed weights, at the price of the screens of
        :mod:`repro.nn.sanitize` ("Cost under a sanitizer"; measured in
        docs/serving.md, "What the probe costs").
    max_retries:
        Retries per micro-batch after a detected-and-repaired fault
        before the batch is declared uncorrectable.
    retry_backoff_s / retry_backoff_max_s:
        Exponential backoff between retries: attempt ``k`` sleeps
        ``min(retry_backoff_s * 2**k, retry_backoff_max_s)``.
    request_deadline_s:
        Default per-request deadline measured from submit; ``None``
        means no deadline.  Expired requests fail with
        :class:`~repro.serve.engine.DeadlineExceeded` instead of riding
        further retries.
    breaker_threshold:
        Consecutive uncorrectable faults that open the circuit breaker.
    breaker_reset_s:
        Open-state dwell time before the breaker half-opens and lets a
        trial batch through.
    clamp_storm:
        Clamped-fraction threshold forwarded to the probe Sanitizer.
    """

    scrub_interval_s: Optional[float] = 1.0
    verify_batches: bool = True
    probe: bool = True
    max_retries: int = 2
    retry_backoff_s: float = 0.005
    retry_backoff_max_s: float = 0.25
    request_deadline_s: Optional[float] = None
    breaker_threshold: int = 3
    breaker_reset_s: float = 5.0
    clamp_storm: float = 0.25

    def __post_init__(self) -> None:
        if self.scrub_interval_s is not None and self.scrub_interval_s <= 0:
            raise ValueError("scrub_interval_s must be positive or None")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_s < 0 or self.retry_backoff_max_s < 0:
            raise ValueError("retry backoff must be >= 0")
        if self.request_deadline_s is not None \
                and self.request_deadline_s <= 0:
            raise ValueError("request_deadline_s must be positive or None")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_reset_s < 0:
            raise ValueError("breaker_reset_s must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (0-based)."""
        return min(self.retry_backoff_s * (2.0 ** attempt),
                   self.retry_backoff_max_s)


class CircuitBreaker:
    """Classic three-state breaker over uncorrectable serving faults.

    * **closed** — normal operation; uncorrectable faults increment a
      consecutive-failure counter, any success resets it.
    * **open** — the counter hit ``threshold``; :meth:`allow` answers
      False (the server sheds load) until ``reset_s`` has elapsed.
    * **half-open** — after the dwell, one trial is allowed through; a
      success closes the breaker, another uncorrectable fault reopens
      it (restarting the dwell).

    Thread-safe; called from worker threads, the scrub daemon, and
    ``submit`` on client threads.  All dwell timing reads the shared
    :mod:`repro.obs.clock` (the same domain as the engine's deadline
    stamps); state transitions increment
    ``repro_serve_breaker_transitions_total{to=...}``.
    """

    def __init__(self, threshold: int, reset_s: float) -> None:
        self.threshold = threshold
        self.reset_s = reset_s
        self._lock = threading.Lock()
        self._consecutive = 0
        self._state = "closed"
        self._opened_at = 0.0

    # ------------------------------------------------------------- queries
    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == "open" \
                and clock.now() - self._opened_at >= self.reset_s:
            self._state = "half-open"
            _TRANSITIONS.labels(to="half-open").inc()
        return self._state

    def allow(self) -> bool:
        """May a request/batch proceed right now?"""
        with self._lock:
            return self._state_locked() != "open"

    # ------------------------------------------------------------ outcomes
    def record_success(self) -> None:
        with self._lock:
            self._consecutive = 0
            if self._state != "closed":
                _TRANSITIONS.labels(to="closed").inc()
            self._state = "closed"

    def record_uncorrectable(self) -> None:
        with self._lock:
            self._consecutive += 1
            state = self._state_locked()
            if state == "half-open" or (state == "closed" and
                                        self._consecutive >= self.threshold):
                self._state = "open"
                self._opened_at = clock.now()
                _TRANSITIONS.labels(to="open").inc()
