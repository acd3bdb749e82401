"""Host-speed reference probe and the arithmetic that scales timings by it.

The benchmark runs on a small shared host whose speed drifts by up to 2x
with what its neighbours do, in regimes lasting from about a second to
about a minute.  A fixed probe, timed whenever the program under test is
idle, measures that drift; every timing of a measurement window is then
rescaled to the speed the host had when the reference probe time was
recorded (``--ref-probe-ms`` in ``BENCHMARK.json``).

The probe imports nothing from ``repro``: its cost must not change when
the program does, so that its time tracks the host alone.  It mixes the
two kinds of work the program does, small dense NumPy ops and
interpreter-bound Python, in roughly the program's proportions.

Reading a scaled value: ``scaled = raw * ref_probe_ms / probe_ms`` for a
duration, ``raw / (ref_probe_ms / probe_ms)`` for a rate.  On a host
running at reference speed the two agree; on a host twice as slow the
raw duration doubles and the scaled one does not.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

#: Repetitions per probe measurement; the probe time is their minimum,
#: which stays close to neutral when the host flips speed every second
#: or so (a median would mix regimes inside one measurement).
PROBE_REPS = 60


class Probe:
    """The fixed reference workload (about 0.4 ms per repetition)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20200717)
        self._x = rng.standard_normal((16, 64)).astype(np.float32)
        self._w1 = (rng.standard_normal((64, 256)) / 8).astype(np.float32)
        self._w2 = (rng.standard_normal((256, 64)) / 16).astype(np.float32)

    def _kernel(self) -> int:
        x = self._x
        total = 0
        for _ in range(8):
            h = np.maximum(x @ self._w1, 0.0)
            x = x + h @ self._w2
            x = (x - x.mean(axis=-1, keepdims=True)) \
                / (x.std(axis=-1, keepdims=True) + 1e-5)
            total += sum(int(v) for v in np.argmax(x, axis=-1)) % 7
        return total

    def measure(self, reps: int = PROBE_REPS) -> float:
        """Probe time in milliseconds: the fastest of ``reps`` runs."""
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best * 1e3


def factor(ref_probe_ms: float, probe_ms: Sequence[float]) -> float:
    """Scale factor from the mean of ``probe_ms``.

    ``probe_ms`` holds the probes taken just before and just after a
    window, or, for a window long enough to span several host speed
    flips, the one probe time ``run.py`` settles on for it.  A host
    slower than the reference (probe above ``ref_probe_ms``) gives a
    factor below 1, which shrinks durations and grows rates.
    """
    mean = sum(probe_ms) / len(probe_ms)
    if ref_probe_ms <= 0 or mean <= 0:
        raise ValueError(f"probe times must be positive, got reference "
                         f"{ref_probe_ms} and {mean}")
    return ref_probe_ms / mean

