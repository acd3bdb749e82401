"""Self-healing serving: closed-loop fault recovery, quarantine policy,
deadlines, and the degradation circuit breaker.

The headline scenario from the issue: flip one stored exponent bit in a
pooled model's weight *while the server is live* and require the server
to detect it, restore from the golden copy, retry the quarantined
micro-batch, and return token-identical results with zero failed
requests.
"""

import time

import numpy as np
import pytest

from repro.nn import deterministic_matmul
from repro.resilience.inject import flip_float_register
from repro.serve import (CircuitBreaker, DeadlineExceeded, InferenceServer,
                         ModelPool, ResilienceConfig, ServerDegraded)
from repro.serve.batching import serial_reference
from repro.serve.bench import build_requests

TARGET = "encoder.0.ffn.fc1.weight"


@pytest.fixture(scope="module")
def pool():
    pool = ModelPool()
    pool.get("transformer")
    return pool


def flip_weight(model, name, element=7, bit_index=1):
    """Flip one stored float32 register bit of a live parameter
    (bit 1 = the exponent MSB, the catastrophic SDC bit)."""
    param = model.get_parameter(name)
    data = param.data.copy()
    data.flat[element] = flip_float_register(data.flat[element], bit_index)
    model.swap_parameter(name, data)


def quiet_config(**overrides):
    """Resilience without the periodic daemon: deterministic tests rely
    on the per-batch verify/probe alone."""
    defaults = dict(scrub_interval_s=None, verify_batches=True, probe=True)
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


class TestClosedLoop:
    def test_mid_serve_exponent_flip_recovers_token_identical(self, pool):
        entry = pool.get("transformer")
        requests = build_requests("transformer", 8, seed=3, max_len=8)
        with deterministic_matmul():
            expected = serial_reference(entry, requests)

        server = InferenceServer(pool, max_batch=4, max_wait_ms=5.0,
                                 deterministic=True,
                                 resilience=quiet_config())
        with server:
            first = [server.submit(r.kind, r.payload, max_len=r.max_len)
                     for r in requests[:4]]
            assert server.drain(timeout=60.0)
            flip_weight(entry.model, TARGET)       # the upset, mid-serve
            second = [server.submit(r.kind, r.payload, max_len=r.max_len)
                      for r in requests[4:]]
            assert server.drain(timeout=60.0)

        results = [f.result(timeout=0) for f in first + second]
        assert results == expected                 # bit-identical recovery
        snap = server.stats.snapshot()
        res = snap["resilience"]
        assert snap["requests"]["failed"] == 0
        assert snap["requests"]["completed"] == len(requests)
        assert snap["queue"]["depth"] == 0
        assert res["faults_detected"] >= 1
        assert res["restores"] >= 1
        assert res["retries"] >= 1
        assert res["recovered_batches"] >= 1
        assert res["uncorrectable"] == 0
        assert res["degradation"] == "ok"

    def test_probe_alone_quarantines_exponent_flip(self, pool):
        # No CRC verify and no daemon: the Sanitizer probe is the only
        # detector.  The flip overflows encoder.0.norm2's LayerNorm (a
        # `mul`, not a GEMM), so only the float-flag gate can catch it.
        entry = pool.get("transformer")
        requests = build_requests("transformer", 8, seed=3, max_len=8)
        with deterministic_matmul():
            expected = serial_reference(entry, requests)
        clean = entry.model.get_parameter(TARGET).data.copy()

        server = InferenceServer(
            pool, max_batch=4, max_wait_ms=5.0, deterministic=True,
            resilience=quiet_config(verify_batches=False))
        with server:
            first = [server.submit(r.kind, r.payload, max_len=r.max_len)
                     for r in requests[:4]]
            assert server.drain(timeout=60.0)
            flip_weight(entry.model, TARGET)       # the upset, mid-serve
            second = [server.submit(r.kind, r.payload, max_len=r.max_len)
                      for r in requests[4:]]
            assert server.drain(timeout=60.0)

        assert [f.result(timeout=0) for f in first + second] == expected
        assert np.array_equal(entry.model.get_parameter(TARGET).data, clean)
        snap = server.stats.snapshot()
        res = snap["resilience"]
        assert snap["requests"]["failed"] == 0
        assert set(res["fault_kinds"]) == {"probe"}
        assert res["fault_kinds"]["probe"] >= 1
        assert res["restores"] >= 1
        assert res["retries"] >= 1
        assert res["uncorrectable"] == 0

    def test_silent_finite_corruption_caught_by_crc(self, pool):
        # A sign flip produces finite-but-wrong outputs no numeric probe
        # flags; the per-batch CRC verify is the detector of record.
        entry = pool.get("transformer")
        requests = build_requests("transformer", 3, seed=5, max_len=6)
        with deterministic_matmul():
            expected = serial_reference(entry, requests)

        server = InferenceServer(pool, max_batch=4, max_wait_ms=2.0,
                                 deterministic=True,
                                 resilience=quiet_config(probe=False))
        with server:
            flip_weight(entry.model, TARGET, element=2, bit_index=0)
            futures = [server.submit(r.kind, r.payload, max_len=r.max_len)
                       for r in requests]
            assert server.drain(timeout=60.0)

        assert [f.result(timeout=0) for f in futures] == expected
        res = server.stats.snapshot()["resilience"]
        assert res["fault_kinds"].get("crc", 0) >= 1
        assert res["restores"] >= 1

    def test_periodic_daemon_scrubs_without_traffic(self, pool):
        server = InferenceServer(
            pool, resilience=quiet_config(scrub_interval_s=0.02))
        with server:
            time.sleep(0.15)
        res = server.stats.snapshot()["resilience"]
        assert res["scrubs"] >= 2                  # the daemon swept
        assert res["faults_detected"] == 0         # and found nothing


class TestDeadlines:
    def test_expired_request_fails_typed_and_leaks_nothing(self, pool):
        # deadline far shorter than the scheduler's flush wait: the
        # batch reaches a worker only after the deadline passed
        server = InferenceServer(pool, max_wait_ms=100.0,
                                 resilience=quiet_config())
        with server:
            future = server.submit("translate", [3, 4, 5], max_len=4,
                                   deadline_s=0.01)
            assert server.drain(timeout=30.0)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=0)
        snap = server.stats.snapshot()
        assert snap["resilience"]["deadline_expired"] == 1
        assert snap["requests"]["failed"] == 1
        assert snap["queue"]["depth"] == 0

    def test_config_default_deadline_applies(self, pool):
        cfg = quiet_config(request_deadline_s=0.01)
        server = InferenceServer(pool, max_wait_ms=100.0, resilience=cfg)
        with server:
            future = server.submit("translate", [3, 4, 5], max_len=4)
            assert server.drain(timeout=30.0)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=0)


class TestDegradation:
    def _poison_golden(self, scrubber, name):
        """Corrupt the golden stream (double fault: restore must refuse)."""
        golden = scrubber._golden[name]
        bad = bytearray(golden.stream)
        bad[0] ^= 0x80
        object.__setattr__(golden, "stream", bytes(bad))
        return golden

    def test_uncorrectable_fault_degrades_and_sheds(self):
        pool = ModelPool()
        cfg = quiet_config(probe=False, breaker_threshold=1,
                           breaker_reset_s=30.0)
        server = InferenceServer(pool, max_wait_ms=1.0, resilience=cfg)
        with server:
            entry = pool.get("transformer")
            self._poison_golden(entry.scrubber, TARGET)
            flip_weight(entry.model, TARGET, element=0, bit_index=0)
            doomed = server.submit("translate", [3, 4, 5], max_len=4)
            assert server.drain(timeout=30.0)
            with pytest.raises(ServerDegraded, match="uncorrectable"):
                doomed.result(timeout=0)
            # breaker open: later submits are shed before taking a slot
            with pytest.raises(ServerDegraded, match="circuit breaker"):
                server.submit("translate", [3, 4, 5], max_len=4)
        snap = server.stats.snapshot()
        res = snap["resilience"]
        assert res["uncorrectable"] >= 1
        assert res["degradation"] == "open"
        assert res["degraded_rejections"] == 1
        assert snap["queue"]["depth"] == 0

    def test_retries_exhausted_is_uncorrectable(self):
        # A fault the scrubber cannot clear (the golden itself poisoned,
        # restore refused) persists across retries -> typed degradation.
        pool = ModelPool()
        cfg = quiet_config(probe=False, max_retries=1,
                           retry_backoff_s=0.0)
        server = InferenceServer(pool, max_wait_ms=1.0, resilience=cfg)
        with server:
            entry = pool.get("transformer")
            self._poison_golden(entry.scrubber, TARGET)
            flip_weight(entry.model, TARGET, element=0, bit_index=0)
            future = server.submit("translate", [3, 4, 5], max_len=4)
            assert server.drain(timeout=30.0)
        with pytest.raises(ServerDegraded):
            future.result(timeout=0)
        assert server.stats.snapshot()["queue"]["depth"] == 0


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive(self):
        breaker = CircuitBreaker(threshold=3, reset_s=60.0)
        breaker.record_uncorrectable()
        breaker.record_uncorrectable()
        assert breaker.allow()                     # below threshold
        breaker.record_uncorrectable()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, reset_s=60.0)
        breaker.record_uncorrectable()
        breaker.record_success()
        breaker.record_uncorrectable()
        assert breaker.state == "closed"           # streak was broken

    def test_half_open_trial_then_close_or_reopen(self):
        breaker = CircuitBreaker(threshold=1, reset_s=0.02)
        breaker.record_uncorrectable()
        assert breaker.state == "open"
        time.sleep(0.03)
        assert breaker.state == "half-open"
        assert breaker.allow()                     # one trial allowed
        breaker.record_uncorrectable()             # trial failed
        assert breaker.state == "open"
        time.sleep(0.03)
        assert breaker.allow()
        breaker.record_success()                   # trial succeeded
        assert breaker.state == "closed"


class TestConfig:
    def test_validation(self):
        for kwargs in ({"scrub_interval_s": 0.0}, {"max_retries": -1},
                       {"retry_backoff_s": -1.0},
                       {"request_deadline_s": 0.0},
                       {"breaker_threshold": 0}, {"breaker_reset_s": -1.0}):
            with pytest.raises(ValueError):
                ResilienceConfig(**kwargs)

    def test_backoff_is_capped_exponential(self):
        cfg = ResilienceConfig(retry_backoff_s=0.01,
                               retry_backoff_max_s=0.05)
        assert cfg.backoff(0) == pytest.approx(0.01)
        assert cfg.backoff(1) == pytest.approx(0.02)
        assert cfg.backoff(10) == pytest.approx(0.05)  # capped

    def test_resilient_server_exposes_scrubbers(self, pool):
        server = InferenceServer(pool, resilience=quiet_config())
        entry = pool.get("transformer")
        assert entry.scrubber is not None          # pool scrubbing enabled
        assert "transformer" in server.pool.scrubbers()


class TestFaultRecoveryBench:
    def test_bench_record_shape_and_verdicts(self):
        from repro.serve.bench import run_fault_recovery

        record = run_fault_recovery(num_requests=6, max_batch=3, seed=0,
                                    max_len=6)
        assert record["token_identical"] is True
        assert record["failed_requests"] == 0
        assert record["detected"] and record["restored"]
        assert record["retried"]
        assert record["injected"]["bit_index"] == 1
        assert record["resilience"]["degradation"] == "ok"
