"""MAC counting and model-on-accelerator cost estimation.

``count_macs()`` is a context manager: any matmul or convolution
executed inside it (by the ``matmul`` and ``conv2d`` primitives of ``nn``)
on the same thread is tallied, so the MAC count of one model inference
is measured, not hand-derived — even while other threads (say, serving
workers) run their own forwards.
``estimate_inference_cost`` then maps that count onto a PE
configuration: cycles at the array's MAC throughput, energy at the
calibrated per-op cost — answering the co-design question "what does
running this network cost on the INT vs the HFINT accelerator?".

Open counters live on the calling thread's :data:`repro.hooks.STATE`,
and a scope counts in :data:`repro.hooks.LIVE`: the op sites call the
record functions only while that count is nonzero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Dict, Iterator, Tuple

from .. import hooks
from .constants import CLOCK_HZ
from .pe import make_pe

__all__ = ["MacCounter", "count_macs", "record_matmul", "record_conv2d",
           "estimate_inference_cost", "InferenceCost"]


class MacCounter:
    """Accumulates multiply-accumulate counts by operation kind."""

    def __init__(self) -> None:
        self.matmul_macs = 0
        self.conv_macs = 0

    @property
    def total(self) -> int:
        return self.matmul_macs + self.conv_macs

    def as_dict(self) -> Dict[str, int]:
        return {"matmul": self.matmul_macs, "conv": self.conv_macs,
                "total": self.total}


@contextlib.contextmanager
def count_macs() -> Iterator[MacCounter]:
    """Record every matmul/conv MAC the calling thread executes in the
    block."""
    counter = MacCounter()
    with hooks.scope("counters", hooks.STATE.counters + (counter,)):
        yield counter


def record_matmul(shape_a: Tuple[int, ...], shape_b: Tuple[int, ...]) -> None:
    """Called by the ``matmul`` primitive; no-op when no counter is open."""
    counters = hooks.STATE.counters
    if not counters:
        return
    if len(shape_a) == 1:  # 1-D dot
        macs = shape_a[0]
    else:
        m, k = shape_a[-2], shape_a[-1]
        n = shape_b[-1]
        batch = 1
        for dim in shape_a[:-2]:
            batch *= dim
        for extra in shape_b[:-2][len(shape_a[:-2]):]:
            batch *= extra
        macs = batch * m * k * n
    for counter in counters:
        counter.matmul_macs += macs


def record_conv2d(batch: int, out_ch: int, in_ch: int, kh: int, kw: int,
                  oh: int, ow: int) -> None:
    """Called by ``functional.conv2d``; no-op when no counter is open."""
    counters = hooks.STATE.counters
    if not counters:
        return
    macs = batch * out_ch * in_ch * kh * kw * oh * ow
    for counter in counters:
        counter.conv_macs += macs


@dataclasses.dataclass(frozen=True)
class InferenceCost:
    """Cost of one inference on a PE array."""

    pe_name: str
    macs: int
    cycles: int
    latency_us: float
    energy_uj: float

    def as_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


def estimate_inference_cost(macs: int, kind: str = "hfint", bits: int = 8,
                            vector_size: int = 16, num_pes: int = 4,
                            utilization: float = 0.85) -> InferenceCost:
    """Map a measured MAC count onto an accelerator configuration.

    ``utilization`` discounts the ideal array throughput for tiling edge
    effects and pipeline ramp (the Table 4 schedule shows ~0.63 on the
    paper's LSTM; GEMM-heavy inference sustains more).
    """
    if macs < 0:
        raise ValueError("negative MAC count")
    if not 0.0 < utilization <= 1.0:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    pe = make_pe(kind, bits, vector_size)
    throughput = num_pes * vector_size * vector_size * utilization
    cycles = math.ceil(macs / throughput) if macs else 0
    latency_us = cycles / CLOCK_HZ * 1e6
    energy_uj = 2 * macs * pe.energy_per_op() * 1e-9
    return InferenceCost(pe_name=pe.name, macs=macs, cycles=cycles,
                         latency_us=latency_us, energy_uj=energy_uj)
