"""Serving metrics: latency ring buffer and the aggregated counters."""

import pytest

from repro.serve import LatencyRecorder, ServerStats


class TestLatencyRecorder:
    def test_empty_summary_is_none(self):
        assert LatencyRecorder().summary() is None

    @pytest.mark.parametrize("cap", [0, -1, -100])
    def test_non_positive_cap_rejected(self, cap):
        # Regression: cap=0 used to build an empty ring and crash with
        # ZeroDivisionError on the first record()'s index modulo.
        with pytest.raises(ValueError, match="cap"):
            LatencyRecorder(cap=cap)

    def test_single_sample_summary_well_defined(self):
        rec = LatencyRecorder(cap=1)
        rec.record(0.040)
        summary = rec.summary()
        assert summary["window"] == 1
        # with one sample every order statistic IS that sample
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
            assert summary[key] == pytest.approx(40.0), key

    def test_summary_fields(self):
        rec = LatencyRecorder()
        for value in (0.010, 0.020, 0.030):
            rec.record(value)
        summary = rec.summary()
        assert summary["window"] == 3
        assert summary["count_lifetime"] == 3
        assert summary["mean_ms"] == 20.0
        assert summary["p50_ms"] == 20.0
        assert summary["max_ms"] == 30.0
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]

    def test_ring_buffer_overwrites_oldest(self):
        rec = LatencyRecorder(cap=4)
        for value in range(8):
            rec.record(float(value))
        # count/total track everything; the window holds the last 4
        assert rec.count == 8
        assert rec.total == float(sum(range(8)))
        assert sorted(rec._samples) == [4.0, 5.0, 6.0, 7.0]
        assert rec.summary()["max_ms"] == 7000.0

    def test_summary_is_windowed_after_wraparound(self):
        # Regression: the mean used to be lifetime (total/count) while
        # the percentiles were windowed, so after the ring wrapped a
        # latency regression moved p50 but a long calm history pinned
        # the mean.  Every statistic must describe the ring window.
        rec = LatencyRecorder(cap=4)
        for _ in range(100):
            rec.record(0.001)           # long calm history...
        for _ in range(4):
            rec.record(1.0)             # ...then a regression fills the ring
        summary = rec.summary()
        assert summary["window"] == 4
        assert summary["count_lifetime"] == 104
        # windowed mean agrees with the windowed percentiles
        assert summary["mean_ms"] == pytest.approx(1000.0)
        assert summary["p50_ms"] == pytest.approx(1000.0)
        # the old buggy lifetime mean would have been ~39ms
        assert summary["mean_ms"] > 900.0


class TestServerStats:
    def test_lifecycle_counters(self):
        stats = ServerStats()
        for _ in range(3):
            stats.record_submit()
        stats.record_reject()
        stats.record_batch(2)
        stats.record_batch(1)
        stats.record_done(0.05, 0.01)
        stats.record_done(0.07, 0.02)
        stats.record_done(0.09, 0.03, failed=True)

        snap = stats.snapshot()
        assert snap["requests"] == {"submitted": 3, "completed": 2,
                                    "failed": 1, "rejected": 1}
        assert snap["queue"] == {"depth": 0, "depth_peak": 3}
        assert snap["batches"]["count"] == 2
        assert snap["batches"]["mean_size"] == 1.5
        assert snap["batches"]["histogram"] == {"1": 1, "2": 1}
        # failed requests are not latency samples
        assert snap["latency"]["window"] == 2
        assert snap["latency"]["count_lifetime"] == 2
        assert snap["queue_wait"]["count"] == 2

    def test_resilience_counters(self):
        stats = ServerStats()
        snap = stats.snapshot()
        assert snap["resilience"]["degradation"] == "ok"
        assert snap["resilience"]["scrubs"] == 0

        stats.record_scrub(checked=88, restored=1, uncorrectable=0,
                           duration_s=0.002)
        stats.record_fault("probe")
        stats.record_fault("crc")
        stats.record_fault("probe")
        stats.record_retry()
        stats.record_recovered()
        stats.record_deadline()
        stats.record_degraded_rejection()
        stats.set_degradation("open")

        res = stats.snapshot()["resilience"]
        assert res["scrubs"] == 1
        assert res["scrub_tensors"] == 88
        assert res["restores"] == 1
        assert res["faults_detected"] == 3
        assert res["fault_kinds"] == {"crc": 1, "probe": 2}
        assert res["retries"] == 1
        assert res["recovered_batches"] == 1
        assert res["deadline_expired"] == 1
        assert res["degraded_rejections"] == 1
        assert res["degradation"] == "open"

    def test_snapshot_is_json_safe(self):
        import json

        stats = ServerStats()
        stats.record_submit()
        stats.record_batch(1)
        stats.record_done(0.01, 0.001)
        stats.record_scrub(1, 0, 0, 0.001)
        stats.record_fault("crc")
        json.dumps(stats.snapshot())  # must not raise


class TestServerLabel:
    def test_two_live_servers_count_apart(self):
        """Two servers alive at once each count only their own requests,
        and each snapshot equals the registry children labelled with its
        ``server``."""
        from repro import obs
        from repro.serve import InferenceServer, ModelPool
        from repro.serve.bench import build_requests

        requests = build_requests("resnet", 5, seed=0)
        pool = ModelPool()
        with InferenceServer(pool, max_batch=4, max_wait_ms=1.0) as a, \
                InferenceServer(pool, max_batch=2, max_wait_ms=1.0) as b:
            assert a.stats.server != b.stats.server
            futures = [a.submit(r.kind, r.payload) for r in requests[:3]]
            futures += [b.submit(r.kind, r.payload) for r in requests]
            for future in futures:
                future.result(timeout=60)
        registry = obs.snapshot()

        for stats, served in ((a.stats, 3), (b.stats, 5)):
            def mine(family):
                return [sample for sample in registry[family]["samples"]
                        if sample["labels"]["server"] == stats.server]

            snap = stats.snapshot()
            assert snap["requests"] == {"submitted": served,
                                        "completed": served,
                                        "failed": 0, "rejected": 0}
            events = {sample["labels"]["event"]: sample["value"]
                      for sample in mine("repro_serve_requests_total")}
            assert {event: events.get(event, 0)
                    for event in snap["requests"]} == snap["requests"]
            sizes = {sample["labels"]["size"]: sample["value"]
                     for sample in mine("repro_serve_batches_total")}
            assert sizes == snap["batches"]["histogram"]
            assert sum(int(size) * n for size, n in sizes.items()) == served
            (depth,) = mine("repro_serve_queue_depth")
            (peak,) = mine("repro_serve_queue_depth_peak")
            assert snap["queue"] == {"depth": depth["value"],
                                     "depth_peak": peak["value"]}
            assert depth["value"] == 0
            (size_hist,) = mine("repro_serve_batch_size")
            assert size_hist["count"] == snap["batches"]["count"]
            assert size_hist["sum"] == served
            (latency,) = mine("repro_serve_latency_seconds")
            assert latency["count"] == snap["latency"]["count_lifetime"]
            (wait,) = mine("repro_serve_queue_wait_seconds")
            assert wait["count"] == snap["queue_wait"]["count"] == served
