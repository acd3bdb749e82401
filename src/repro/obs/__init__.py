"""Unified observability spine (docs/observability.md).

Every measured claim this repo makes — serving latency under faults,
scrub overhead, cache hit rates, campaign wall time — lands on the same
instruments:

* :mod:`~repro.obs.registry` — thread-safe labeled ``Counter`` /
  ``Gauge`` / ``Histogram`` families in a lock-striped
  :class:`Registry`; near-zero cost when disabled.
* :mod:`~repro.obs.clock` — the single injectable monotonic clock all
  serving/resilience timing reads (no more mixed
  ``perf_counter``/``monotonic`` domains).
* :mod:`~repro.obs.trace` — lightweight spans with per-request trace
  ids riding through the serving engine.
* :mod:`~repro.obs.export` — Prometheus text-format and JSON
  exposition plus a validating parser.
* :mod:`~repro.obs.http` — an optional stdlib HTTP endpoint
  (``/metrics``) for scrapers.

This module hosts the process-default :data:`REGISTRY` and
:data:`TRACER`; the module-level helpers (:func:`counter`,
:func:`snapshot`, :func:`render_prometheus`, ...) all act on them.
Instrumented subsystems (``repro.serve``, ``repro.resilience``,
``repro.formats``, ``repro.nn.quantize``) create their families against
the default registry at import time, so ``repro.obs.snapshot()``
reaches every counter surface in the process with one call.  The
default registry always records: ``repro.serve.ServerStats`` and the
weight-quant memo keep their counts nowhere else.  :func:`disabled`
switches it off for a micro-benchmark's scope only.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Sequence

from . import clock
from .clock import ManualClock
from .export import parse_prometheus, to_json, to_prometheus
from .http import PROMETHEUS_CONTENT_TYPE, MetricsServer
from .registry import (LATENCY_BUCKETS, SIZE_BUCKETS, WIDE_SECONDS_BUCKETS,
                       Counter, Gauge, Histogram, MetricError, Registry)
from .trace import Span, Tracer, new_trace_id

__all__ = [
    "Counter", "Gauge", "Histogram", "LATENCY_BUCKETS", "ManualClock",
    "MetricError", "MetricsServer", "PROMETHEUS_CONTENT_TYPE", "REGISTRY",
    "Registry", "SIZE_BUCKETS",
    "Span", "TRACER", "Tracer", "WIDE_SECONDS_BUCKETS", "clock", "counter",
    "disabled", "gauge", "histogram", "new_trace_id", "parse_prometheus",
    "register_collector", "render_json", "render_prometheus", "snapshot",
    "to_json", "to_prometheus",
]

#: The process-default registry every in-repo instrument records into.
REGISTRY = Registry()

#: The process-default tracer (spans feed ``repro_span_seconds``).
TRACER = Tracer(REGISTRY)


def counter(name: str, help: str,
            labelnames: Sequence[str] = ()) -> Counter:
    """A counter family on the default registry (idempotent)."""
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
    """A gauge family on the default registry (idempotent)."""
    return REGISTRY.gauge(name, help, labelnames)


def histogram(name: str, help: str, labelnames: Sequence[str] = (),
              buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
    """A histogram family on the default registry (idempotent)."""
    return REGISTRY.histogram(name, help, labelnames, buckets)


def register_collector(collector) -> None:
    """Hook a pull collector into the default registry."""
    REGISTRY.register_collector(collector)


def snapshot() -> Dict[str, Any]:
    """JSON-safe dump of every metric family in the default registry."""
    return REGISTRY.snapshot()


def render_prometheus() -> str:
    """The default registry in Prometheus text exposition format."""
    return to_prometheus(REGISTRY)


def render_json() -> str:
    """The default registry as a JSON document."""
    return to_json(REGISTRY)


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Temporarily disable the default registry (overhead benchmarks).

    Every server snapshot and memo count taken over the scope misses
    its events, so only micro-benchmarks that read neither use it.
    """
    previous = REGISTRY.enabled
    REGISTRY.disable()
    try:
        yield
    finally:
        if previous:
            REGISTRY.enable()
