"""Micro-batch assembly: bucket keys, padded batch building, demux.

The engine's workers coalesce waiting requests into *micro-batches*
that run through the existing KV-cached batched decode paths.  Two
rules decide which requests may share a batch (the bucket key):

* **translate** (Transformer) — requests are padded to the longest
  source in the batch, so any lengths could share a batch; a
  ``length_bucket`` granule groups similar lengths to bound padding
  waste.  Padding is inert (pad keys get softmax weight exactly 0.0),
  so batch composition cannot change a request's tokens.
* **transcribe** (seq2seq LSTM) — frames bucket by *exact* frame count:
  the encoder LSTM runs over every frame and the additive attention is
  unmasked, so zero-padding frames would *not* be inert.  Exact-length
  bucketing keeps batched decode token-identical to serial decode.
* **classify** (ResNet) — images share a batch when their shapes match.

Decode options (``max_len``, ``beam_size``) join the key: requests with
different decode settings never share a batch.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import no_grad
from ..nn.decoding import assemble_source_batch, strip_hypotheses
from .pool import PooledModel

__all__ = ["KINDS", "Request", "bucket_key", "check_request",
           "run_microbatch", "serial_reference"]

#: The request kinds the engine serves, mapped to model families.
KINDS = {"translate": "transformer", "transcribe": "seq2seq",
         "classify": "resnet"}


@dataclasses.dataclass
class Request:
    """One queued inference request (engine-internal record)."""

    kind: str
    payload: Any                     # token list / frame array / image array
    max_len: Optional[int] = None    # None: the model's default cap
    beam_size: Optional[int] = None  # None: greedy decoding

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}; "
                             f"known: {tuple(KINDS)}")
        if self.max_len is not None and self.max_len < 1:
            # the decoders read ``max_len or cfg.max_len``: 0 would fall
            # through to the model's full cap, a negative cap to nothing
            raise ValueError(f"max_len must be >= 1 (None for the model "
                             f"default), got {self.max_len}")
        if self.beam_size is not None and self.beam_size < 1:
            # caught here, not by beam_decode inside a worker after the
            # request has taken an in-flight slot
            raise ValueError(f"beam_size must be >= 1 (None for greedy "
                             f"decoding), got {self.beam_size}")
        if self.kind == "translate":
            self.payload = [int(t) for t in self.payload]
            if not self.payload:
                raise ValueError("translate request needs >= 1 source token")
        elif self.kind == "transcribe":
            self.payload = np.asarray(self.payload, dtype=np.float32)
            if self.payload.ndim != 2 or not self.payload.shape[0]:
                raise ValueError("transcribe request needs (T, feat) frames "
                                 f"with T >= 1, got shape "
                                 f"{self.payload.shape}")
        else:
            self.payload = np.asarray(self.payload, dtype=np.float32)
            if self.payload.ndim != 3:
                raise ValueError("classify request needs one (C, H, W) "
                                 f"image, got shape {self.payload.shape}")

    @property
    def model_name(self) -> str:
        return KINDS[self.kind]


def bucket_key(request: Request, length_bucket: int) -> Hashable:
    """Batch-compatibility key: requests sharing a key may share a batch."""
    options = (request.max_len, request.beam_size)
    if request.kind == "translate":
        if length_bucket < 1:
            raise ValueError(f"length_bucket must be >= 1, got "
                             f"{length_bucket}")
        granule = math.ceil((len(request.payload) + 1) / length_bucket)
        return ("translate", granule, options)
    if request.kind == "transcribe":
        return ("transcribe", request.payload.shape[0], options)
    return ("classify", request.payload.shape, options)


def check_request(model: Any, request: Request) -> None:
    """Raise ``ValueError`` if the served ``model`` cannot take ``request``
    (:class:`Request` checks only what needs no model): a token outside
    the vocabulary (NumPy would wrap a negative one), a source or decode
    cap past the Transformer's positional table, frames of another width
    or an image with other channels.  The engine fails such a request
    alone, before it could fail its whole micro-batch."""
    cfg = model.config
    if request.kind == "translate":
        ids = request.payload
        if min(ids) < 0 or max(ids) >= cfg.src_vocab:
            raise ValueError(f"tokens must lie in [0, {cfg.src_vocab})")
        if len(ids) + 1 > cfg.max_len:   # the source ends with EOS
            raise ValueError(f"source exceeds {cfg.max_len - 1} tokens")
        if request.max_len is not None and request.max_len > cfg.max_len:
            raise ValueError(f"max_len {request.max_len} exceeds "
                             f"{cfg.max_len}")
    elif request.kind == "transcribe":
        if request.payload.shape[1] != cfg.input_dim:
            raise ValueError(f"frames must be {cfg.input_dim} wide")
    elif request.payload.shape[0] != cfg.in_channels:
        raise ValueError(f"image must have {cfg.in_channels} channels")


def _decode(model, inputs: np.ndarray, max_len: Optional[int],
            beam_size: Optional[int]) -> np.ndarray:
    if beam_size is not None:
        return model.beam_decode(inputs, beam_size=beam_size,
                                 max_len=max_len)
    return model.greedy_decode(inputs, max_len=max_len)


def run_microbatch(entry: PooledModel,
                   requests: Sequence[Request]) -> List[Any]:
    """Run one coalesced batch and demultiplex per-request results.

    All requests must share a bucket key (the engine guarantees it).
    Returns one result per request, in order: token lists for
    translate/transcribe, ``int`` class labels for classify.
    """
    if not requests:
        raise ValueError("empty micro-batch")
    first = requests[0]
    max_len, beam = first.max_len, first.beam_size
    if first.kind == "translate":
        cfg = entry.model.config
        src = assemble_source_batch([r.payload for r in requests],
                                    cfg.pad_id, cfg.eos_id)
        out = _decode(entry.model, src, max_len, beam)
        return strip_hypotheses(out, cfg.pad_id, cfg.eos_id)
    if first.kind == "transcribe":
        cfg = entry.model.config
        frames = np.stack([r.payload for r in requests])
        out = _decode(entry.model, frames, max_len, beam)
        return strip_hypotheses(out, cfg.pad_id, cfg.eos_id)
    images = np.stack([r.payload for r in requests])
    with no_grad():
        logits = entry.model(images).data
    return [int(label) for label in logits.argmax(axis=-1)]


def serial_reference(entry: PooledModel,
                     requests: Sequence[Request]) -> List[Any]:
    """One-request-at-a-time reference path (no coalescing).

    The correctness bar for the engine: :func:`run_microbatch` over any
    compatible request set must return exactly what this returns for
    each request (token-identical under ``deterministic_matmul``).
    """
    results: List[Any] = []
    for request in requests:
        results.extend(run_microbatch(entry, [request]))
    return results
