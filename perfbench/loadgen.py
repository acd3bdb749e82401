"""Seeded inputs: payload pools, arrival schedules and fault events.

Everything here is a pure function of the seed, so the same seed gives
the same inputs.  The benchmark builds its own payloads rather than
borrowing a generator from the program under test; the program receives
only the generated inputs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Distinct payloads per request kind.  Requests draw from these pools,
#: so the serial reference is computed once per payload.
POOL_SIZES = {"translate": 16, "transcribe": 8, "classify": 8}

#: Open-loop mix per group of six arrivals: two-thirds translate keeps
#: the median inside one latency mode.
OPEN_MIX = {"translate": 4, "transcribe": 1, "classify": 1}

#: Source lengths (tokens or frames) are drawn from this closed range.
MIN_LEN, MAX_LEN = 4, 12

#: Shapes the models accept (TransformerConfig, Seq2SeqConfig,
#: ResNetConfig defaults).
VOCAB = 64
FRAME_DIM = 16
IMAGE_SHAPE = (3, 16, 16)


def pool_lengths(count: int) -> List[int]:
    """Source lengths of a pool: evenly spread over the closed range.

    Every seed gets the same lengths, so the seed changes what a request
    holds but not how much work it is.
    """
    return [int(v) for v in np.round(np.linspace(MIN_LEN, MAX_LEN, count))]


def payload_pools(seed: int) -> Dict[str, List]:
    """Seeded distinct payloads for each request kind."""
    rng = np.random.default_rng([seed, 0x9A11])
    pools: Dict[str, List] = {"translate": [], "transcribe": [],
                              "classify": []}
    for length in pool_lengths(POOL_SIZES["translate"]):
        pools["translate"].append(
            [int(t) for t in rng.integers(3, VOCAB, size=length)])
    for length in pool_lengths(POOL_SIZES["transcribe"]):
        pools["transcribe"].append(
            rng.standard_normal((length, FRAME_DIM)).astype(np.float32))
    for _ in range(POOL_SIZES["classify"]):
        pools["classify"].append(
            rng.standard_normal(IMAGE_SHAPE).astype(np.float32))
    return pools


@dataclasses.dataclass(frozen=True)
class Event:
    """One scheduled action, ``at`` reference-seconds into its window.

    ``kind`` is a request kind, or ``"fault"`` for a weight bit flip.
    """

    at: float
    kind: str
    index: int


def open_schedule(seed: int, window: int, duration_s: float,
                  rate: float) -> List[Event]:
    """Poisson arrivals for one open-loop window, in due-time order.

    The window holds exactly ``round(rate * duration_s)`` arrivals (a
    Poisson process conditioned on its count: sorted uniform times), in
    the fixed :data:`OPEN_MIX` proportions, so every seed offers the same
    load and the same kind mix; the seed picks times, order and payloads.
    Payloads are dealt from seeded permutations of each pool, so every
    payload is used equally often.
    """
    rng = np.random.default_rng([seed, window, 0x0BE7])
    count = int(round(rate * duration_s))
    group = sum(OPEN_MIX.values())
    kinds: List[str] = []
    for kind, share in OPEN_MIX.items():
        kinds += [kind] * int(round(count * share / group))
    kinds = kinds[:count]
    while len(kinds) < count:
        kinds.append("translate")
    order = rng.permutation(len(kinds))
    times = np.sort(rng.uniform(0.0, duration_s, size=len(kinds)))
    dealt = {kind: iter(_deal(rng, POOL_SIZES[kind], kinds.count(kind)))
             for kind in OPEN_MIX}
    return [Event(float(t), kinds[i], next(dealt[kinds[i]]))
            for t, i in zip(times, order)]


def _deal(rng: np.random.Generator, size: int, count: int) -> List[int]:
    """``count`` pool indices from back-to-back seeded permutations."""
    out: List[int] = []
    while len(out) < count:
        out += [int(i) for i in rng.permutation(size)]
    return out[:count]


def fault_event(seed: int, window: int, duration_s: float) -> Event:
    """The window's weight fault, in its first half (index picks what).

    Landing in the first half leaves the scrub daemon time to repair it
    before the window ends.
    """
    rng = np.random.default_rng([seed, window, 0xFA17])
    return Event(float(rng.uniform(0.1, 0.5) * duration_s), "fault",
                 int(rng.integers(2 ** 31)))


def with_fault(events: List[Event], fault: Event) -> List[Event]:
    """``events`` with ``fault`` merged in due-time order."""
    return sorted(events + [fault], key=lambda e: e.at)


@dataclasses.dataclass(frozen=True)
class FaultSite:
    """Where a fault lands: model family, parameter, element, bit."""

    family: str
    parameter: str
    element: int
    bit: int


def fault_families(seed: int, families: Sequence[str]) -> List[str]:
    """Seeded order in which faults visit the model families.

    Faults cycle through it, so every seed spreads them evenly and the
    number landing on the translate model does not vary with the seed.
    """
    rng = np.random.default_rng([seed, 0xFA77])
    return [families[int(i)] for i in rng.permutation(len(families))]


def fault_site(index: int, family: str,
               parameters: List[Tuple[str, int]]) -> FaultSite:
    """Resolve a fault event's index to a concrete site in ``family``.

    ``parameters`` lists the family's ``(name, size)`` weight tensors.
    The bit is one of the eight float32 exponent bits (register bit 1 is
    the exponent MSB).
    """
    rng = np.random.default_rng([index, 0x5173])
    name, size = parameters[int(rng.integers(len(parameters)))]
    return FaultSite(family, name, int(rng.integers(size)),
                     int(rng.integers(1, 9)))


def closed_sequence(seed: int, count: int) -> List[int]:
    """Translate-pool indices for the closed loop, in submit order."""
    rng = np.random.default_rng([seed, 0xC105])
    return _deal(rng, POOL_SIZES["translate"], count)
