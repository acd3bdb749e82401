"""One per-thread hook state and one live count serve grad mode, the
sanitizer, MAC counting and call traces (:mod:`repro.hooks`).

Every observer scope (a :class:`~repro.nn.Sanitizer`, ``count_macs``, a
``CallTrace`` record or replay) sets its thread's slot on
``hooks.STATE`` and counts once in ``hooks.LIVE``.  A scope open on one
thread must leave every other thread's forwards plain, and every scope
must unwind, also when a raise-mode sanitizer aborts the forward.
"""

import sys
import threading

import numpy as np
import pytest

from repro import hooks, nn
from repro.hardware import count_macs
from repro.rng import fresh_rng

ROUNDS = 40


def _model():
    rng = fresh_rng(7)
    model = nn.Sequential(nn.Linear(8, 16, rng=rng), nn.ReLU(),
                          nn.LayerNorm(16), nn.Linear(16, 4, rng=rng))
    return model.eval()


def _unwound():
    """This thread's hook state with no scope open."""
    state = hooks.STATE
    return (state.grad_enabled, state.sanitizer, state.findings_log,
            state.counters, state.trace)


def _probe(model, trace, x):
    """Raise-mode sanitizer inside a replay inside a MAC count: returns
    the counted MACs, the finding that aborted the forward and the ops
    checked up to it."""
    with count_macs() as counter:
        with trace.replay():
            with pytest.raises(nn.NumericFault) as fault:
                with nn.no_grad(), np.errstate(over="ignore"), \
                        nn.Sanitizer(model, action="raise") as report:
                    model(x)
    return counter.total, fault.value.finding.render(), report.ops_checked


def test_scopes_on_one_thread_leave_a_plain_thread_alone():
    model = _model()
    clean = nn.Tensor(fresh_rng(1).normal(size=(3, 8)))
    poisoned = nn.Tensor(np.full((3, 8), 3e38, dtype=np.float32))
    trace = nn.CallTrace(model)
    with nn.no_grad(), trace.record():
        model(clean)
    assert trace.entries
    live = hooks.LIVE
    idle = _unwound()
    with nn.no_grad():
        expected = model(clean).data.copy()
    serial = _probe(model, trace, poisoned)
    assert serial[0] > 0 and serial[1].startswith("[forward-overflow]")
    assert hooks.LIVE == live and _unwound() == idle

    probes, plain, leaks, errors = [], [], [], []

    def prober():
        try:
            for _ in range(ROUNDS):
                probes.append(_probe(model, trace, poisoned))
                leaks.append(_unwound())
        except Exception as error:   # reported below, not swallowed
            errors.append(error)

    def plain_forwards():
        try:
            for _ in range(ROUNDS):
                with nn.no_grad():
                    plain.append(model(clean).data.copy())
                leaks.append(_unwound())
        except Exception as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=prober),
                   threading.Thread(target=plain_forwards)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert probes == [serial] * ROUNDS       # only the prober's own MACs
    assert len(plain) == ROUNDS
    for out in plain:
        np.testing.assert_array_equal(out, expected)
    assert leaks == [idle] * (2 * ROUNDS)
    assert hooks.LIVE == live and _unwound() == idle
