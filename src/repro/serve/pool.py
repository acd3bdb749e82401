"""Shared warm-model pool: build once, quantize once, serve many.

A serving process must not pay model construction, checkpoint loading,
or weight quantization per request.  :class:`ModelPool` resolves each
model family once (optionally from the trained on-disk checkpoint cache,
optionally with fake-quantizers attached) and hands every worker the
same instance:

* **Weight quantization is memoized across requests** — the attached
  :class:`~repro.nn.quantize.WeightFakeQuant` caches the quantized
  array per weight tensor keyed on ``Parameter.version``, so a frozen
  served model quantizes each weight exactly once for its whole
  lifetime; ``repro_weight_quant_cache_total`` counts the memo's hits
  and misses.
* **Warmup** primes that memo (and any lazy kernel tables) with one
  tiny inference at build time, keeping the first real request off the
  cold path.

Sharing one model across worker threads is safe for inference: eval
mode is stateless (dropout is identity, BatchNorm uses running stats),
decodes run under the thread-local ``no_grad``, and the weight-quant
memo only ever re-derives identical entries.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Optional, Tuple

from .. import obs
from ..experiments.common import get_bundle, trained_model
from ..nn import no_grad
from ..nn.quantize import QuantSpec, attach_weight_quantizers
from ..obs import clock
from ..rng import fresh_rng

__all__ = ["ModelPool", "PooledModel"]

_HITS = obs.counter(
    "repro_pool_hits_total", "Pool lookups served from an already-warm "
    "model.", ("model",))
_BUILDS = obs.counter(
    "repro_pool_builds_total", "Cold model builds (construct + quantize "
    "+ warm).", ("model",))
_BUILD_SECONDS = obs.histogram(
    "repro_pool_build_seconds", "Wall time of cold model builds.",
    ("model",), buckets=obs.WIDE_SECONDS_BUCKETS)


@dataclasses.dataclass
class PooledModel:
    """One resolved (model, task) pair plus its provenance."""

    name: str
    model: object
    task: object
    profile: Optional[str]
    quant: Optional[QuantSpec]
    fp32_score: Optional[float]
    #: golden-copy integrity scrubber (populated when the pool scrubs;
    #: see :meth:`ModelPool.enable_scrubbing`).
    scrubber: Optional[object] = None


class ModelPool:
    """Lazy, thread-safe registry of warm inference models.

    ``profile=None`` (the default) builds untrained seeded models —
    instant, deterministic, and exactly what throughput benchmarks
    need (decode cost does not depend on the weight values).  A named
    profile (``"tiny"``/``"fast"``/``"full"``) routes through
    :func:`repro.experiments.common.trained_model`, which trains on
    first use and caches the checkpoint on disk.

    ``quant=("adaptivfloat", 8)`` (or a :class:`QuantSpec`) attaches
    weight fake-quantizers so the pool serves the quantized model zoo.
    """

    def __init__(self, profile: Optional[str] = None,
                 quant: Optional[object] = None, seed: int = 1,
                 warmup: bool = True, scrub: bool = False) -> None:
        if isinstance(quant, tuple):
            quant = QuantSpec(quant[0], int(quant[1]))
        self.profile = profile
        self.quant: Optional[QuantSpec] = quant
        self.seed = seed
        self.warmup = warmup
        self.scrub = scrub
        self._lock = threading.Lock()
        self._models: Dict[str, PooledModel] = {}
        self._building: Dict[str, threading.Lock] = {}

    # ------------------------------------------------------------ resolving
    def get(self, name: str) -> PooledModel:
        """The warm model for ``name``, building it on first use.

        Concurrent first requests for the same name serialize on a
        per-name build lock; requests for other names are not blocked.
        """
        with self._lock:
            entry = self._models.get(name)
            if entry is not None:
                _HITS.labels(model=name).inc()
                return entry
            build_lock = self._building.setdefault(name, threading.Lock())
        with build_lock:
            with self._lock:
                entry = self._models.get(name)
                if entry is not None:
                    _HITS.labels(model=name).inc()
                    return entry
            # A build failure (e.g. the quantizer raising mid-attach, a
            # checkpoint load dying) must leave *no trace*: the entry is
            # only published after `_build` returned a fully-warmed
            # model, so the exception propagates to this caller, every
            # concurrently-waiting `get` retries the build cleanly, and
            # nothing half-constructed is ever served.
            t0 = clock.now()
            entry = self._build(name)
            _BUILDS.labels(model=name).inc()
            _BUILD_SECONDS.labels(model=name).observe(clock.now() - t0)
            with self._lock:
                self._models[name] = entry
            return entry

    def _build(self, name: str) -> PooledModel:
        bundle = get_bundle(name)
        if self.profile is None:
            model, task = bundle.build(self.seed)
            score: Optional[float] = None
        else:
            model, task, score = trained_model(name, self.profile)
        if self.quant is not None:
            attach_weight_quantizers(model, self.quant)
        model.eval()
        entry = PooledModel(name=name, model=model, task=task,
                            profile=self.profile, quant=self.quant,
                            fp32_score=score)
        if self.warmup:
            self._warm(entry)
        if self.scrub:
            entry.scrubber = self._make_scrubber(entry)
        return entry

    def _make_scrubber(self, entry: PooledModel):
        # Snapshot *after* warmup: the weights are final (warm forwards
        # never mutate parameters) and known-good, which is the golden
        # copy's correctness precondition.
        from ..resilience.scrub import WeightScrubber
        return WeightScrubber(entry.model, quant=self.quant)

    def _warm(self, entry: PooledModel) -> None:
        """One tiny inference to prime weight-quant memo and lazy tables."""
        rng = fresh_rng(self.seed)
        model = entry.model
        with no_grad():
            if entry.name == "transformer":
                cfg = model.config
                src = rng.integers(3, cfg.src_vocab,
                                   size=(1, 2)).astype("int64")
                model.greedy_decode(src, max_len=2)
            elif entry.name == "seq2seq":
                cfg = model.config
                frames = rng.standard_normal(
                    (1, 2, cfg.input_dim)).astype("float32")
                model.greedy_decode(frames, max_len=2)
            else:
                cfg = model.config
                images = rng.standard_normal(
                    (1, cfg.in_channels, cfg.image_size, cfg.image_size)
                ).astype("float32")
                model(images)

    # ---------------------------------------------------------- scrubbing
    def enable_scrubbing(self) -> None:
        """Turn on golden-copy scrubbing for current and future models.

        Models built from now on snapshot at build time; already-built
        models snapshot immediately (their weights are presumed good at
        the moment scrubbing is enabled).  Idempotent.
        """
        self.scrub = True
        with self._lock:
            entries = list(self._models.values())
        for entry in entries:
            if entry.scrubber is None:
                entry.scrubber = self._make_scrubber(entry)

    def scrubbers(self) -> Dict[str, object]:
        """Name -> :class:`~repro.resilience.scrub.WeightScrubber` for
        every built model that has one."""
        with self._lock:
            return {name: entry.scrubber
                    for name, entry in self._models.items()
                    if entry.scrubber is not None}

    def scrub_counters(self) -> Dict[str, Dict]:
        """Per-model scrubber lifetime counters (JSON-safe)."""
        return {name: scrubber.counters()
                for name, scrubber in sorted(self.scrubbers().items())}

    # ------------------------------------------------------------- metrics
    def warm_models(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._models))
