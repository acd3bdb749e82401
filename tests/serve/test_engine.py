"""InferenceServer: lifecycle, coalescing, backpressure, error paths."""

import sys
import threading

import pytest

from repro.nn import deterministic_matmul
from repro.serve import (InferenceServer, ModelPool, ResilienceConfig,
                         ServerClosed, ServerSaturated, serial_reference)
from repro.serve.bench import build_requests

SRC = [3, 4, 5, 6]


@pytest.fixture(scope="module")
def pool():
    pool = ModelPool()
    pool.get("transformer")  # warm once for the whole module
    return pool


class _GatedPool(ModelPool):
    """A pool whose ``get`` blocks until the gate opens — lets tests
    hold worker threads mid-batch to observe backpressure and drain."""

    def __init__(self, inner, gate):
        super().__init__(warmup=False)
        self._inner = inner
        self._gate = gate

    def get(self, name):
        self._gate.wait()
        return self._inner.get(name)


class TestLifecycle:
    def test_submit_before_start_raises(self, pool):
        server = InferenceServer(pool)
        with pytest.raises(ServerClosed, match="not started"):
            server.submit("translate", SRC, max_len=4)

    def test_submit_after_shutdown_raises(self, pool):
        with InferenceServer(pool) as server:
            pass
        with pytest.raises(ServerClosed, match="shut down"):
            server.submit("translate", SRC, max_len=4)

    def test_shutdown_is_idempotent(self, pool):
        server = InferenceServer(pool).start()
        server.shutdown()
        server.shutdown()  # must not raise or hang

    def test_context_manager_drains(self, pool):
        with InferenceServer(pool, max_wait_ms=1.0) as server:
            future = server.submit("translate", SRC, max_len=4)
        # __exit__ drained: the future is already resolved
        assert future.done()
        assert isinstance(future.result(timeout=0), list)

    def test_invalid_knobs_raise(self, pool):
        for kwargs in ({"max_batch": 0}, {"max_wait_ms": -1.0},
                       {"max_queue": 0}, {"workers": 0},
                       {"length_bucket": 0}):
            with pytest.raises(ValueError):
                InferenceServer(pool, **kwargs)


class TestCoalescing:
    def test_full_bucket_dispatches_one_batch(self, pool):
        # 4 identical requests, max_batch=4, generous max_wait: the
        # scheduler must coalesce them into a single micro-batch.
        server = InferenceServer(pool, max_batch=4, max_wait_ms=1000.0)
        with server:
            futures = [server.submit("translate", SRC, max_len=4)
                       for _ in range(4)]
            server.drain()
        results = [f.result(timeout=0) for f in futures]
        assert all(r == results[0] for r in results)
        snap = server.stats.snapshot()
        assert snap["batches"]["count"] == 1
        assert snap["batches"]["histogram"] == {"4": 1}
        assert snap["requests"]["completed"] == 4

    def test_partial_bucket_flushes_on_max_wait(self, pool):
        server = InferenceServer(pool, max_batch=16, max_wait_ms=5.0)
        with server:
            future = server.submit("translate", SRC, max_len=4)
            assert server.drain(timeout=30.0)
        assert future.done()
        assert server.stats.snapshot()["batches"]["count"] == 1

    def test_incompatible_requests_get_separate_batches(self, pool):
        import numpy as np

        pool.get("seq2seq")
        server = InferenceServer(pool, max_batch=8, max_wait_ms=2.0)
        frames = np.zeros((3, 16), dtype=np.float32)
        with server:
            t = server.submit("translate", SRC, max_len=4)
            s = server.submit("transcribe", frames, max_len=4)
            server.drain()
        assert t.result(timeout=0) is not None
        assert s.result(timeout=0) is not None
        assert server.stats.snapshot()["batches"]["count"] == 2


class TestBackpressure:
    def test_nonblocking_submit_raises_when_saturated(self, pool):
        gate = threading.Event()
        gated = _GatedPool(pool, gate)
        server = InferenceServer(gated, max_queue=2, max_batch=1,
                                 max_wait_ms=0.0)
        with server:
            first = server.submit("translate", SRC, max_len=4)
            second = server.submit("translate", SRC, max_len=4)
            with pytest.raises(ServerSaturated):
                server.submit("translate", SRC, max_len=4, block=False)
            with pytest.raises(ServerSaturated):
                server.submit("translate", SRC, max_len=4, block=True,
                              timeout=0.01)
            assert server.stats.rejected == 2
            gate.set()                       # release the workers
            server.drain()
            # slots freed: a new submit succeeds again
            third = server.submit("translate", SRC, max_len=4)
            server.drain()
        assert first.result(timeout=0) == second.result(timeout=0)
        assert third.result(timeout=0) == first.result(timeout=0)

    def test_drain_timeout_reports_inflight_work(self, pool):
        gate = threading.Event()
        gated = _GatedPool(pool, gate)
        server = InferenceServer(gated, max_wait_ms=0.0)
        with server:
            server.submit("translate", SRC, max_len=4)
            assert server.drain(timeout=0.05) is False
            gate.set()
            assert server.drain(timeout=30.0) is True


class TestErrorPaths:
    def test_worker_error_resolves_future_with_exception(self, pool):
        class _BrokenPool(ModelPool):
            def get(self, name):
                raise RuntimeError("model store offline")

        server = InferenceServer(_BrokenPool(warmup=False),
                                 max_wait_ms=0.0)
        with server:
            future = server.submit("translate", SRC, max_len=4)
            server.drain()
            # the worker survives a failed batch and serves the next one
            second = server.submit("translate", SRC, max_len=4)
            server.drain()
        with pytest.raises(RuntimeError, match="model store offline"):
            future.result(timeout=0)
        with pytest.raises(RuntimeError, match="model store offline"):
            second.result(timeout=0)
        snap = server.stats.snapshot()
        assert snap["requests"]["failed"] == 2
        assert snap["requests"]["completed"] == 0

    def test_invalid_request_rejected_at_submit(self, pool):
        with InferenceServer(pool) as server:
            with pytest.raises(ValueError, match="unknown request kind"):
                server.submit("summarize", SRC)
            with pytest.raises(ValueError, match=">= 1 source token"):
                server.submit("translate", [])
        # nothing was accepted, so nothing is in flight
        assert server.stats.snapshot()["requests"]["submitted"] == 0

    def test_scheduler_survives_bucket_key_error(self, pool, monkeypatch):
        # A request that blows up inside bucket_key must fail its own
        # future without killing the scheduler thread or leaking its
        # queue-depth slot (either would hang every later drain()).
        import repro.serve.engine as engine_mod

        real_key = engine_mod.bucket_key
        poison = [99, 98, 97]

        def flaky_key(request, length_bucket):
            if request.payload == poison:
                raise RuntimeError("bucketing exploded")
            return real_key(request, length_bucket)

        monkeypatch.setattr(engine_mod, "bucket_key", flaky_key)
        server = InferenceServer(pool, max_wait_ms=1.0)
        with server:
            bad = server.submit("translate", poison, max_len=4)
            good = server.submit("translate", SRC, max_len=4)
            assert server.drain(timeout=30.0)      # would hang on a leak
        with pytest.raises(RuntimeError, match="bucketing exploded"):
            bad.result(timeout=0)
        assert isinstance(good.result(timeout=0), list)
        snap = server.stats.snapshot()
        assert snap["requests"] == {"submitted": 2, "completed": 1,
                                    "failed": 1, "rejected": 0}
        assert snap["queue"]["depth"] == 0


class TestQueueDepthAccounting:
    """Every request path must return queue depth to zero after drain:
    a leaked slot is a permanent backpressure loss and a hung drain."""

    def _depth(self, server):
        return server.stats.snapshot()["queue"]["depth"]

    def test_success_path_returns_to_zero(self, pool):
        server = InferenceServer(pool, max_batch=2, max_wait_ms=1.0)
        with server:
            futures = [server.submit("translate", SRC, max_len=4)
                       for _ in range(5)]
            assert server.drain(timeout=30.0)
            assert self._depth(server) == 0
        assert all(f.done() for f in futures)

    def test_error_path_returns_to_zero(self, pool):
        class _BrokenPool(ModelPool):
            def get(self, name):
                raise RuntimeError("model store offline")

        server = InferenceServer(_BrokenPool(warmup=False), max_wait_ms=0.0)
        with server:
            future = server.submit("translate", SRC, max_len=4)
            assert server.drain(timeout=30.0)
            assert self._depth(server) == 0
        assert future.exception(timeout=0) is not None

    def test_abandoned_requests_fail_but_do_not_leak(self, pool):
        # shutdown(drain=False) must resolve every accepted request
        # (result or ServerClosed) and release every depth slot
        gate = threading.Event()
        gated = _GatedPool(pool, gate)
        server = InferenceServer(gated, max_wait_ms=0.0).start()
        futures = [server.submit("translate", SRC, max_len=4)
                   for _ in range(3)]
        gate.set()
        server.shutdown(drain=False)
        for future in futures:
            assert future.done()
        assert self._depth(server) == 0

    def test_cancelled_future_does_not_leak_depth(self, pool):
        # a client cancelling its future must not break demux for the
        # rest of the batch or leak the cancelled request's slot
        gate = threading.Event()
        gated = _GatedPool(pool, gate)
        server = InferenceServer(gated, max_batch=4, max_wait_ms=0.0)
        with server:
            futures = [server.submit("translate", SRC, max_len=4)
                       for _ in range(3)]
            futures[0].cancel()
            gate.set()
            assert server.drain(timeout=30.0)
            assert self._depth(server) == 0
        assert futures[1].result(timeout=0) == futures[2].result(timeout=0)


class TestMultiWorker:
    def test_workers_share_buckets_token_identical(self, pool):
        # Four workers take batches from the shared buckets while six
        # client threads submit a ragged translate + classify mix; the
        # short switch interval makes the threads interleave finely.
        pool.get("resnet")
        requests = [request for pair in zip(
            build_requests("transformer", 18, seed=3, max_len=6),
            build_requests("resnet", 18, seed=3)) for request in pair]
        with deterministic_matmul():
            expected = [serial_reference(pool.get(r.model_name), [r])[0]
                        for r in requests]
        max_batch, clients = 3, 6
        server = InferenceServer(pool, max_batch=max_batch, max_wait_ms=2.0,
                                 workers=4, deterministic=True)
        futures = [None] * len(requests)

        def client(offset):
            for i in range(offset, len(requests), clients):
                request = requests[i]
                futures[i] = server.submit(request.kind, request.payload,
                                           max_len=request.max_len)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                threads = [threading.Thread(target=client, args=(offset,))
                           for offset in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert server.drain(timeout=120.0)
                snap = server.stats.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert [f.result(timeout=0) for f in futures] == expected
        assert snap["requests"]["submitted"] == len(requests)
        assert snap["requests"]["completed"] == len(requests)
        assert snap["queue"]["depth"] == 0
        assert max(int(size) for size in snap["batches"]["histogram"]) \
            <= max_batch

    def test_probed_workers_fill_shared_memo_token_identical(self):
        # The same mix on the self-healing path over an AdaptivFloat-8
        # pool: every batch runs under a Sanitizer probe, so the four
        # workers fill the quantize stats of the pool-shared weight-quant
        # memo concurrently, on first use.
        pool = ModelPool(quant=("adaptivfloat", 8))
        requests = [request for pair in zip(
            build_requests("transformer", 18, seed=3, max_len=6),
            build_requests("resnet", 18, seed=3)) for request in pair]
        with deterministic_matmul():
            expected = [serial_reference(pool.get(r.model_name), [r])[0]
                        for r in requests]
        server = InferenceServer(
            pool, max_batch=3, max_wait_ms=2.0, workers=4,
            deterministic=True,
            resilience=ResilienceConfig(scrub_interval_s=None))
        clients = 6
        futures = [None] * len(requests)

        def client(offset):
            for i in range(offset, len(requests), clients):
                request = requests[i]
                futures[i] = server.submit(request.kind, request.payload,
                                           max_len=request.max_len)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                threads = [threading.Thread(target=client, args=(offset,))
                           for offset in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert server.drain(timeout=120.0)
                snap = server.stats.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert [f.result(timeout=0) for f in futures] == expected
        assert snap["requests"]["completed"] == len(requests)
        assert snap["resilience"]["faults_detected"] == 0
        assert snap["resilience"]["retries"] == 0
        for name in ("transformer", "resnet"):
            for module in pool.get(name).model.modules():
                if module.weight_fake_quant is not None:
                    assert all(entry[3] is not None for entry in
                               module.weight_fake_quant._cache.values())
