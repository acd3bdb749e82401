"""Tests for MAC counting and the inference cost estimator."""

import threading

import numpy as np
import pytest

from repro.hardware import count_macs, estimate_inference_cost
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.models import MLP, ResNet, ResNetConfig


class TestMacCounting:
    def test_linear_macs(self):
        model = MLP([16, 32, 8])
        with count_macs() as counter:
            model(np.zeros((4, 16), dtype=np.float32))
        assert counter.total == 4 * (16 * 32 + 32 * 8)

    def test_batched_matmul(self):
        a = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        b = Tensor(np.zeros((2, 4, 5), dtype=np.float32))
        with count_macs() as counter:
            a @ b
        assert counter.matmul_macs == 2 * 3 * 4 * 5

    def test_conv_macs(self):
        x = Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
        w = Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
        with count_macs() as counter:
            F.conv2d(x, w, None, stride=1, padding=1)
        assert counter.conv_macs == 1 * 4 * 3 * 3 * 3 * 8 * 8

    def test_counting_disabled_outside_context(self):
        with count_macs() as counter:
            pass
        a = Tensor(np.zeros((2, 2), dtype=np.float32))
        a @ a  # outside the context
        assert counter.total == 0

    def test_nested_counters(self):
        a = Tensor(np.zeros((2, 2), dtype=np.float32))
        with count_macs() as outer:
            a @ a
            with count_macs() as inner:
                a @ a
        assert inner.total == 8
        assert outer.total == 16

    def test_counters_are_thread_local(self):
        # A scope open on one thread must not count another thread's
        # ops, in either direction (the serving workers share a process).
        a = Tensor(np.zeros((2, 2), dtype=np.float32))
        opened, release = threading.Event(), threading.Event()
        totals = {}

        def other_thread():
            with count_macs() as counter:
                opened.set()
                release.wait(timeout=30.0)
                a @ a
            totals["other"] = counter.total

        thread = threading.Thread(target=other_thread)
        thread.start()
        try:
            assert opened.wait(timeout=30.0)
            a @ a                       # outside any scope on this thread
            with count_macs() as mine:
                a @ a
                a @ a
        finally:
            release.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert mine.total == 16
        assert totals["other"] == 8

    def test_resnet_inference_counts(self):
        model = ResNet(ResNetConfig(blocks_per_stage=1)).eval()
        with count_macs() as counter:
            model.predict(np.zeros((2, 3, 16, 16), dtype=np.float32))
        assert counter.conv_macs > counter.matmul_macs > 0


class TestCostEstimator:
    def test_scaling(self):
        small = estimate_inference_cost(1_000_000, "int")
        big = estimate_inference_cost(10_000_000, "int")
        assert big.energy_uj == pytest.approx(10 * small.energy_uj)
        assert big.cycles >= 10 * small.cycles - 10

    def test_hfint_cheaper_energy_at_8bit(self):
        macs = 50_000_000
        int_cost = estimate_inference_cost(macs, "int", bits=8)
        hf_cost = estimate_inference_cost(macs, "hfint", bits=8)
        assert hf_cost.energy_uj < int_cost.energy_uj
        assert hf_cost.cycles == int_cost.cycles  # same throughput

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_inference_cost(-1)
        with pytest.raises(ValueError):
            estimate_inference_cost(10, utilization=0.0)

    def test_zero_macs(self):
        cost = estimate_inference_cost(0)
        assert cost.cycles == 0 and cost.energy_uj == 0.0
