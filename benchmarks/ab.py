"""One paired A/B comparison behind every timed gate and timing record.

:func:`compare` calls two samplers (zero-argument callables returning one
measurement; :func:`timed` makes one from a call) in paired rounds after
a warm-up, A first in even rounds and B first in odd ones, so drift and
host load land on both alike.  Each round gives one statistic (B over A
unless ``statistic`` says otherwise); the estimate is their median and
its interval the order statistics that hold the true median with a known
chance, whatever the distribution (:func:`median_interval`).

Against a one-sided bound the verdict is ``pass`` when the interval lies
inside it and ``fail`` when it lies beyond.  Otherwise rounds are added:
the verdict is looked at after ``rounds``, three times as many, and so
on up to :data:`MAX_ROUNDS`, and an interval still straddling the bound
at the last look is ``unresolved``: it fails.  The looks share the 2.5%
chance per side that an interval misses, so a gate whose true value sits
on its bound passes at most 2.5% of the time.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

#: The most rounds a bounded comparison runs before it is unresolved.
MAX_ROUNDS = 60

#: The chance, per side, that an interval misses the true median; a
#: bounded comparison splits it evenly between its looks.
TAIL = 0.025


def timed(fn: Callable[[], object],
          clock: Callable[[], float] = time.perf_counter
          ) -> Callable[[], float]:
    """A sampler returning how long one call of ``fn`` takes on ``clock``."""
    def sample() -> float:
        start = clock()
        fn()
        return clock() - start
    return sample


def median_interval(stats: List[float], tail: float = TAIL
                    ) -> Tuple[float, float, float]:
    """The order statistics ``x(k)`` and ``x(n+1-k)`` of ``stats``, with
    the largest ``k`` whose chance ``P(Bin(n, 1/2) < k)`` of missing the
    true median on either side is at most ``tail``, and their coverage
    ``1 - 2 P(Bin(n, 1/2) < k)``.  Too few values for ``tail`` give the
    whole range, at its lower coverage."""
    values = sorted(stats)
    n = len(values)
    k, miss = 0, 0.0
    while k < (n + 1) // 2 and miss + math.comb(n, k) / 2 ** n <= tail:
        miss += math.comb(n, k) / 2 ** n
        k += 1
    if k == 0:
        k, miss = 1, 0.5 ** n
    return values[k - 1], values[n - k], 1.0 - 2.0 * miss


@dataclass
class Comparison:
    """Per-round samples (warm-up left out), statistics and verdict."""

    a: List[float]
    b: List[float]
    stats: List[float]
    interval: Tuple[float, float]
    level: float                # the interval's coverage
    verdict: Optional[str]      # pass / fail / unresolved; None unbounded
    bound: Optional[str]        # e.g. "<= 2.5"

    @property
    def estimate(self) -> float:
        return statistics.median(self.stats)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def record(self, digits: int = 4) -> dict:
        """The JSON block a gate or timing record stores."""
        return {"estimate": round(self.estimate, digits),
                "interval": [round(end, digits) for end in self.interval],
                "level": round(self.level, 4), "rounds": len(self.stats),
                "verdict": self.verdict, "bound": self.bound}

    def __str__(self) -> str:
        low, high = self.interval
        text = (f"{self.estimate:.4g} ({self.level:.1%} interval "
                f"[{low:.4g}, {high:.4g}] over {len(self.stats)} rounds)")
        return f"{text}: {self.verdict} against {self.bound}" if self.bound \
            else text


def compare(a: Callable[[], float], b: Callable[[], float], *,
            at_most: Optional[float] = None,
            at_least: Optional[float] = None,
            statistic: Callable[[float, float], float] = lambda a, b: b / a,
            warmup: int = 1, rounds: int = 7) -> Comparison:
    """Compare samplers ``a`` and ``b`` (see the module docstring); with
    no bound, exactly ``rounds`` rounds run, the interval keeps the whole
    :data:`TAIL` per side and the verdict is None."""
    if at_most is not None and at_least is not None:
        raise ValueError("give at most one of at_most and at_least")
    bound = at_most if at_least is None else at_least
    looks = [rounds]
    while bound is not None and looks[-1] < MAX_ROUNDS:
        looks.append(min(3 * looks[-1], MAX_ROUNDS))
    result = Comparison([], [], [], (math.nan, math.nan), math.nan, None,
                        None if bound is None else
                        f"{'<=' if at_least is None else '>='} {bound}")
    for _ in range(warmup):
        a(), b()
    for look in looks:
        while len(result.stats) < look:
            if len(result.stats) % 2 == 0:
                x, y = a(), b()
            else:
                y, x = b(), a()
            result.a.append(x)
            result.b.append(y)
            result.stats.append(statistic(x, y))
        low, high, result.level = median_interval(result.stats,
                                                  TAIL / len(looks))
        result.interval = (low, high)
        if bound is None:
            break
        inside, beyond = ((high <= bound, low > bound) if at_least is None
                          else (low >= bound, high < bound))
        result.verdict = ("pass" if inside else "fail" if beyond
                          else "unresolved")
        if result.verdict != "unresolved":
            break
    return result
