"""Weight-integrity scrubbing: golden streams, CRC verification, repair.

A warm served model keeps its weights in DRAM/SRAM for the process
lifetime — exactly the residency window in which the bit-upset model of
:mod:`repro.resilience.inject` applies.  Memory scrubbing is the classic
hardware answer (periodically sweep the array against an ECC/golden
copy); this module implements its software analogue over the repo's own
encoding stack:

* :meth:`WeightScrubber.snapshot` records, per parameter tensor, a
  **golden encoded stream** (``formats.bitpack.pack_words``) plus two
  CRC32 checksums: ``value_crc`` over the canonical big-endian float32
  byte stream of the live weight (what :meth:`verify` recomputes), and
  ``stream_crc`` over the packed golden bytes themselves (so a corrupted
  *golden copy* is reported uncorrectable instead of being "restored"
  wrongly).  When the scrubber has a :class:`~repro.nn.quantize.QuantSpec`
  and the weight already sits on the format's grid (a PTQ'd model), the
  golden stream is the true ``n``-bit encoding — the same ``bits``-per-
  element cost the accelerator's weight buffer pays; otherwise it falls
  back to raw 32-bit words.  Either way the golden decodes bit-identically
  to the snapshot, which snapshot() asserts.
* :meth:`WeightScrubber.verify` CRCs the live tensors against the golden
  checksums — two orders of magnitude cheaper than a forward pass, cheap
  enough to run between micro-batches.
* :meth:`WeightScrubber.restore` decodes the golden stream and installs
  it via :meth:`~repro.nn.module.Module.swap_parameter`, bumping
  ``Parameter.version`` so the weight-quant memo invalidates, and
  bumping the scrubber's ``generation`` so in-flight work that read the
  corrupted weights knows to retry.
* :meth:`WeightScrubber.scrub` = verify + restore with a
  :class:`ScrubReport` of what happened, feeding the serving layer's
  fault counters.

All public methods are safe to call concurrently (one reentrant lock);
the serving engine calls them from worker threads and from the periodic
scrub daemon.
"""

from __future__ import annotations

import dataclasses
import threading
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..formats import AdaptiveQuantizer
from ..formats.bitpack import pack_words, unpack_words
from ..formats.codec import decode_tensor, encode_tensor
from ..obs import clock

__all__ = ["TensorGolden", "ScrubReport", "WeightScrubber",
           "float_stream_crc"]

# Process-wide scrub metrics, summed over every WeightScrubber (the
# per-instance lifetime counters below remain the per-model view).
_PASSES = obs.counter(
    "repro_scrub_passes_total", "Scrub passes by trigger reason.",
    ("reason",))
_TENSORS = obs.counter(
    "repro_scrub_tensors_checked_total", "Parameter tensors CRC-verified "
    "against their golden checksums.")
_FAULTS = obs.counter(
    "repro_scrub_faults_total", "Corrupted tensors detected by verify.")
_RESTORES = obs.counter(
    "repro_scrub_restores_total", "Tensors repaired from golden streams.")
_UNCORRECTABLE = obs.counter(
    "repro_scrub_uncorrectable_total", "Faults whose golden copy failed "
    "its self-checksum (restore impossible).")
_DURATION = obs.histogram(
    "repro_scrub_duration_seconds", "Wall time of scrub passes.")

#: Golden-stream encoding for weights not on a quantizer grid: the raw
#: IEEE-754 bit pattern as 32-bit words.
_RAW_FMT = "float32"


def _float_words(data: np.ndarray) -> np.ndarray:
    """The IEEE-754 bit patterns of a float32 array, as uint32 words."""
    return np.ascontiguousarray(data, dtype=np.float32).view(np.uint32)


def float_stream_crc(data: np.ndarray) -> int:
    """CRC32 of a tensor's canonical (big-endian float32) byte stream.

    The same value as ``crc32_stream(_float_words(data), 32)``, from one
    big-endian copy (a byte swap, so NaN payloads are kept) instead of
    packing widened words.
    """
    return zlib.crc32(np.ascontiguousarray(data, dtype=">f4"))


@dataclasses.dataclass(frozen=True)
class TensorGolden:
    """One parameter's golden copy: packed stream + integrity checksums."""

    name: str
    shape: Tuple[int, ...]
    fmt: str                        # quant label ("adaptivfloat8") or raw
    bits: int
    count: int                      # number of words in the stream
    stream: bytes                   # packed golden words (MSB-first)
    params: Optional[Dict[str, Any]]  # fitted adaptive params (n-bit path)
    value_crc: int                  # CRC of the weight's float32 stream
    stream_crc: int                 # CRC of the packed golden bytes

    @property
    def nbytes(self) -> int:
        return len(self.stream)


@dataclasses.dataclass
class ScrubReport:
    """Outcome of one :meth:`WeightScrubber.scrub` pass."""

    checked: int = 0
    corrupted: List[str] = dataclasses.field(default_factory=list)
    restored: List[str] = dataclasses.field(default_factory=list)
    uncorrectable: List[str] = dataclasses.field(default_factory=list)
    duration_s: float = 0.0
    generation: int = 0
    reason: str = "on-demand"

    @property
    def clean(self) -> bool:
        return not self.corrupted


class WeightScrubber:
    """Golden-copy integrity scrubber for one model's parameters.

    Parameters
    ----------
    model:
        The :class:`~repro.nn.module.Module` to protect.  The scrubber
        holds it by reference and repairs tensors in place.
    quant:
        Optional :class:`~repro.nn.quantize.QuantSpec`.  When given,
        snapshot() *tries* the true ``n``-bit golden encoding per tensor
        and keeps it only if it decodes bit-identically (weights already
        on the grid, i.e. after PTQ); tensors off the grid fall back to
        raw 32-bit streams.
    snapshot:
        Take the initial snapshot in the constructor (default).  Pass
        ``False`` to defer — e.g. until after a warmup forward.
    """

    def __init__(self, model: Any, quant: Optional[Any] = None,
                 snapshot: bool = True) -> None:
        self.model = model
        self.quant = quant
        self._lock = threading.RLock()
        self._golden: Dict[str, TensorGolden] = {}
        #: bumped on every restore; a worker that saw the generation
        #: change across a batch knows its forward may have read
        #: corrupted (since-repaired) weights and must retry.
        self.generation = 0
        # lifetime counters (read by ServerStats integration)
        self.scrubs = 0
        self.tensors_checked = 0
        self.faults_found = 0
        self.restores = 0
        self.uncorrectable_faults = 0
        self.scrub_time_s = 0.0
        if snapshot:
            self.snapshot()

    # ------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, TensorGolden]:
        """(Re)record every parameter's golden stream from its live value.

        Call only when the weights are known-good (right after build or
        after an intentional update) — the golden *defines* correctness
        for every later verify.
        """
        with self._lock:
            self._golden = {
                name: self._encode_golden(name, param.data)
                for name, param in self.model.named_parameters()
            }
            return dict(self._golden)

    def _encode_golden(self, name: str, data: np.ndarray) -> TensorGolden:
        data = np.ascontiguousarray(data, dtype=np.float32)
        value_crc = float_stream_crc(data)
        if self.quant is not None and data.size:
            golden = self._try_grid_golden(name, data, value_crc)
            if golden is not None:
                return golden
        words = _float_words(data)
        stream = pack_words(words, 32)
        return TensorGolden(
            name=name, shape=tuple(data.shape), fmt=_RAW_FMT, bits=32,
            count=int(words.size), stream=stream, params=None,
            value_crc=value_crc,
            stream_crc=zlib.crc32(stream) & 0xFFFFFFFF)

    def _try_grid_golden(self, name: str, data: np.ndarray,
                         value_crc: int) -> Optional[TensorGolden]:
        """The n-bit golden, or None when the weight is off the grid."""
        quantizer = self.quant.build()
        try:
            params: Optional[Dict[str, Any]]
            if isinstance(quantizer, AdaptiveQuantizer):
                params = quantizer.fit(data)
            else:
                params = {}
            words = np.asarray(encode_tensor(quantizer, data, params),
                               dtype=np.uint32)
            decoded = np.asarray(decode_tensor(quantizer, words, params),
                                 dtype=np.float32).reshape(data.shape)
        except (ValueError, FloatingPointError):
            return None  # e.g. non-finite weights reject encoding
        if not np.array_equal(_float_words(decoded), _float_words(data)):
            return None
        stream = pack_words(words, quantizer.bits)
        return TensorGolden(
            name=name, shape=tuple(data.shape), fmt=self.quant.label,
            bits=int(quantizer.bits), count=int(words.size), stream=stream,
            params=params, value_crc=value_crc,
            stream_crc=zlib.crc32(stream) & 0xFFFFFFFF)

    # --------------------------------------------------------------- verify
    def verify(self, names: Optional[List[str]] = None) -> List[str]:
        """Names of parameters whose live CRC differs from the golden."""
        with self._lock:
            if not self._golden:
                raise RuntimeError("no golden snapshot; call snapshot()")
            targets = names if names is not None else list(self._golden)
            corrupted = []
            for name in targets:
                golden = self._golden[name]
                live = self.model.get_parameter(name).data
                self.tensors_checked += 1
                if float_stream_crc(live) != golden.value_crc:
                    corrupted.append(name)
            _TENSORS.inc(len(targets))
            return corrupted

    # -------------------------------------------------------------- restore
    def _decode_golden(self, golden: TensorGolden) -> Optional[np.ndarray]:
        """Decode a golden stream back to float32, or None if the golden
        itself fails its self-checksum (uncorrectable)."""
        if zlib.crc32(golden.stream) & 0xFFFFFFFF != golden.stream_crc:
            return None
        words = unpack_words(golden.stream, golden.bits, golden.count)
        if golden.fmt == _RAW_FMT:
            restored = words.astype(np.uint32).view(np.float32)
        else:
            quantizer = self.quant.build()
            restored = np.asarray(
                decode_tensor(quantizer, words, golden.params),
                dtype=np.float32)
        restored = restored.reshape(golden.shape)
        if float_stream_crc(restored) != golden.value_crc:
            return None  # decode disagrees with the recorded value
        return restored

    def restore(self, name: str) -> bool:
        """Repair one tensor from its golden stream.

        Returns True on success; False marks the fault uncorrectable
        (the golden copy itself is corrupted).  A successful restore
        bumps :attr:`generation` and the parameter's version (via
        ``swap_parameter``), invalidating the weight-quant memo.
        """
        with self._lock:
            golden = self._golden[name]
            restored = self._decode_golden(golden)
            if restored is None:
                self.uncorrectable_faults += 1
                _UNCORRECTABLE.inc()
                return False
            self.model.swap_parameter(name, restored)
            self.generation += 1
            self.restores += 1
            _RESTORES.inc()
            return True

    # ---------------------------------------------------------------- scrub
    def scrub(self, names: Optional[List[str]] = None,
              reason: str = "on-demand") -> ScrubReport:
        """Verify (all or ``names``) and restore whatever is corrupted."""
        t0 = clock.now()
        with self._lock:
            corrupted = self.verify(names)
            report = ScrubReport(
                checked=len(names if names is not None else self._golden),
                corrupted=corrupted, reason=reason)
            for name in corrupted:
                self.faults_found += 1
                if self.restore(name):
                    report.restored.append(name)
                else:
                    report.uncorrectable.append(name)
            self.scrubs += 1
            report.duration_s = clock.now() - t0
            self.scrub_time_s += report.duration_s
            report.generation = self.generation
        _PASSES.labels(reason=reason).inc()
        if corrupted:
            _FAULTS.inc(len(corrupted))
        _DURATION.observe(report.duration_s)
        return report

    # -------------------------------------------------------------- metrics
    def golden_nbytes(self) -> int:
        """Total bytes held in golden streams (the scrubber's memory cost)."""
        with self._lock:
            return sum(g.nbytes for g in self._golden.values())

    def golden_formats(self) -> Dict[str, int]:
        """Tensor count per golden encoding (n-bit grid vs raw float32)."""
        with self._lock:
            out: Dict[str, int] = {}
            for golden in self._golden.values():
                out[golden.fmt] = out.get(golden.fmt, 0) + 1
            return out

    def counters(self) -> Dict[str, Any]:
        """JSON-safe lifetime counters for stats/bench integration."""
        with self._lock:
            return {
                "scrubs": self.scrubs,
                "tensors_checked": self.tensors_checked,
                "faults_found": self.faults_found,
                "restores": self.restores,
                "uncorrectable": self.uncorrectable_faults,
                "scrub_time_s": round(self.scrub_time_s, 6),
                "generation": self.generation,
                "golden_nbytes": sum(g.nbytes
                                     for g in self._golden.values()),
            }
