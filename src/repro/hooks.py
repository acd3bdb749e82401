"""The per-thread hook state every inference op consults.

Grad mode and the matmul kernel (:mod:`repro.nn.tensor`), the numeric
sanitizer (:mod:`repro.nn.sanitize`), MAC counting
(:mod:`repro.hardware.profiler`) and call traces (:mod:`repro.nn.trace`)
keep their per-thread state on one :data:`STATE`.  The three observers
count their open scopes in one :data:`LIVE`, so with none open on any
thread a hot path pays one test of a module global::

    if hooks.LIVE:          # some scope is open on some thread
        ...                 # resolve this thread's STATE

This module imports nothing from ``repro``: ``repro.nn`` and
``repro.hardware`` both read it, and ``hardware`` still never imports
``nn``.  Read the count as ``hooks.LIVE``; a ``from`` import would copy
one value of it.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterator

__all__ = ["LIVE", "STATE", "pop", "push", "scope"]


class _ThreadHooks(threading.local):
    """One thread's modes and open scopes.  Plain attributes with
    per-thread defaults, so a read never fails a lookup."""

    #: This thread's sanitizer state.  The class attribute is every
    #: thread's default: the ``REPRO_SANITIZE`` knob sets it process-wide.
    sanitizer: Any = None

    def __init__(self) -> None:
        self.grad_enabled = True     # autodiff builds graphs
        self.det_matmul = False      # shape-stable matmul kernel
        self.findings_log: Any = None  # list a call trace records into
        self.counters: tuple = ()    # open MacCounters, outermost first
        self.trace: Any = None       # open CallTrace record/replay scope


STATE = _ThreadHooks()

#: Observer scopes open across all threads: sanitizers (and the
#: ``REPRO_SANITIZE`` knob), MAC counters and call traces.  While it is
#: 0 no op, module call or kernel reads :data:`STATE` beyond the grad
#: and matmul modes.
LIVE = 0
_LOCK = threading.Lock()


def push() -> None:
    """Count one more open observer scope."""
    global LIVE
    with _LOCK:
        LIVE += 1


def pop() -> None:
    """Count one observer scope closed."""
    global LIVE
    with _LOCK:
        LIVE -= 1


@contextlib.contextmanager
def scope(name: str, value: Any) -> Iterator[None]:
    """Set this thread's ``STATE.<name>`` to ``value`` for the block,
    counted as one open scope."""
    previous = getattr(STATE, name)
    setattr(STATE, name, value)
    push()
    try:
        yield
    finally:
        pop()
        setattr(STATE, name, previous)
