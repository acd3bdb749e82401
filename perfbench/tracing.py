"""The traced run's span recorder: wrappers around public functions.

Spans are recorded from the benchmark's own files only: each layer's
public entry points are wrapped for the duration of a traced window and
restored afterwards, so an untraced window runs the program untouched.
Spans stay in memory and are written out when the run ends.

A span is ``(id, name, start, end, parent, op, thread)``.  The parent is
the innermost span open on the same thread; ``op`` is the index of the
measurement window (a second of open-loop requests, a closed-loop
window, one campaign call) the span belongs to, -1 for set-up.  A
layer's self time is its spans' durations minus the part their child
spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], int, int]


class Tracer:
    """In-memory span store plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self.pad = [0, 0]            # padded, total source positions
        self.decode_steps = 0
        self._ids = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._targets: List[Tuple[Any, str, Callable]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self) -> Tuple[int, Optional[int], float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name: str,
              handle: Tuple[int, Optional[int], float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = handle
        self._stack().pop()
        with self._lock:
            self.spans.append((span_id, name, start, end, parent, self.op,
                               threading.get_ident()))

    # ------------------------------------------------------------- patching
    def target(self, owner: Any, attr: str, name: str,
               observe: Optional[Callable] = None) -> None:
        """Register ``owner.attr`` to be wrapped as span ``name``.

        ``observe(args, result)`` runs after each call to take counts at
        the same boundary.
        """
        self._targets.append(
            (owner, attr, lambda fn: self._wrap(fn, name, observe)))

    def replace(self, owner: Any, attr: str,
                factory: Callable[[Callable], Callable]) -> None:
        """Register ``owner.attr`` to be replaced by ``factory(original)``
        (for scopes that open and close in different calls)."""
        self._targets.append((owner, attr, factory))

    def _wrap(self, fn: Callable, name: str,
              observe: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            handle = tracer.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(name, handle)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            return
        for owner, attr, factory in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, factory(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------- analysis
    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s[1] == name]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] = child_time.get(span[4], 0.0) \
                    + span[3] - span[2]
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span[1], {"count": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            duration = span[3] - span[2]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span[0], 0.0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    {"id": span[0], "name": span[1], "start": span[2],
                     "end": span[3], "parent": span[4], "op": span[5],
                     "thread": span[6]}) + "\n")
