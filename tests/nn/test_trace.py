"""The module-call trace serves recorded calls only when running them
would return the same thing.

A replayed run must be indistinguishable from a plain one: the same
outputs, and under a sanitizer the same findings in the same order and
the same ``ops_checked``, in collect and raise mode.  Calls the trace
cannot vouch for — grad on, train mode, a fake-quant hook, an open MAC
count, a flipped ``deterministic_matmul``, a KV cache — run plain, a
mutated input or output is never served stale, and a scope on one
thread leaves every other thread alone.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest

from repro import hooks, nn
from repro.experiments.common import get_bundle
from repro.hardware.profiler import count_macs
from repro.nn.decoding import AttentionKVCache
from repro.nn.quantize import QuantSpec, attach_weight_quantizers

FAMILIES = ("transformer", "seq2seq", "resnet")


# ------------------------------------------------------------ counting model
class _Counted(nn.Linear):
    """A Linear that counts how often its forward really runs."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.runs = 0

    def forward(self, x):
        self.runs += 1
        return super().forward(x)


class _Block(nn.Module):
    def __init__(self, rng) -> None:
        super().__init__()
        self.fc1 = _Counted(8, 16, rng=rng)
        self.fc2 = _Counted(16, 8, rng=rng)

    def forward(self, x):
        return self.fc2(nn.functional.relu(self.fc1(x)))


class _Net(nn.Module):
    """Two blocks, then an attention call that carries a KV cache."""

    def __init__(self) -> None:
        super().__init__()
        rng = np.random.default_rng(0)
        self.first = _Block(rng)
        self.second = _Block(rng)
        self.attn = nn.MultiHeadAttention(8, 2, rng=rng)

    def forward(self, x, cache=None):
        x = self.second(self.first(x))
        if cache is None:
            return x
        return self.attn(x, x, x, cache=cache)


def _runs(net):
    return [m.runs for m in net.modules() if isinstance(m, _Counted)]


def _input(seed=1):
    return nn.Tensor(np.random.default_rng(seed).normal(size=(2, 3, 8)))


def _recorded(net, x, **kwargs):
    net.eval()
    trace = nn.CallTrace(net)
    with nn.no_grad(), trace.record():
        expected = net(x, **kwargs).data.copy()
    return trace, expected


class TestReplay:
    def test_clean_replay_serves_every_outermost_call(self):
        net = _Net()
        x = _input()
        trace, expected = _recorded(net, x)
        assert [e.module for e in trace.entries] == [net.first, net.second]
        before = _runs(net)
        with nn.no_grad(), trace.replay():
            got = net(x).data
        assert _runs(net) == before
        np.testing.assert_array_equal(got, expected)

    def test_calls_after_a_fault_rerun(self):
        net = _Net()
        x = _input()
        trace, _ = _recorded(net, x)
        previous = net.swap_parameter("second.fc1.weight",
                                      net.second.fc1.weight.data * 2)
        with nn.no_grad():
            plain = net(x).data.copy()
        before = _runs(net)
        with nn.no_grad(), trace.replay():
            got = net(x).data
        # the first block hits; the second reads the fault and reruns
        assert _runs(net) == [before[0], before[1], before[2] + 1,
                              before[3] + 1]
        np.testing.assert_array_equal(got, plain)
        net.swap_parameter("second.fc1.weight", previous)
        with nn.no_grad(), trace.replay():
            net(x)
        assert _runs(net) == [before[0], before[1], before[2] + 1,
                              before[3] + 1]

    def test_a_different_call_ends_replay(self):
        net = _Net()
        x = _input()
        trace, _ = _recorded(net, x)
        before = _runs(net)
        with nn.no_grad(), trace.replay():
            net.second(net.first(x))   # the recorded order: both hit
            net.first(x)               # past the end of the recording
        assert _runs(net) == [before[0] + 1, before[1] + 1, before[2],
                              before[3]]
        with nn.no_grad(), trace.replay():
            net.second(x)              # not the entry at the cursor
            net.first(x)               # would match, but replay ended
        assert _runs(net) == [before[0] + 2, before[1] + 2, before[2] + 1,
                              before[3] + 1]


class TestIneligibleCallsRunPlain:
    def test_grad_on(self):
        net = _Net()
        x = _input()
        trace, expected = _recorded(net, x)
        before = _runs(net)
        with trace.replay():
            out = net(x)
        assert all(a > b for a, b in zip(_runs(net), before))
        assert out._parents                   # a graph was built
        np.testing.assert_array_equal(out.data, expected)

    def test_train_mode(self):
        net = _Net()
        x = _input()
        trace, expected = _recorded(net, x)
        net.train()
        before = _runs(net)
        with nn.no_grad(), trace.replay():
            got = net(x).data
        assert all(a > b for a, b in zip(_runs(net), before))
        np.testing.assert_array_equal(got, expected)

    def test_fake_quant_hook_in_subtree(self):
        net = _Net()
        x = _input()
        trace, _ = _recorded(net, x)
        attach_weight_quantizers(net.second, QuantSpec("adaptivfloat", 8))
        with nn.no_grad():
            plain = net(x).data.copy()
        before = _runs(net)
        with nn.no_grad(), trace.replay():
            got = net(x).data
        runs = _runs(net)
        assert runs[:2] == before[:2]                  # first block hits
        assert runs[2] > before[2] and runs[3] > before[3]
        np.testing.assert_array_equal(got, plain)

    def test_open_count_macs(self):
        net = _Net()
        x = _input()
        trace, _ = _recorded(net, x)
        with nn.no_grad(), count_macs() as plain:
            net(x)
        before = _runs(net)
        with nn.no_grad(), count_macs() as replayed, trace.replay():
            net(x)
        assert all(a > b for a, b in zip(_runs(net), before))
        assert replayed.as_dict() == plain.as_dict()
        assert replayed.total > 0

    def test_deterministic_matmul_mismatch(self):
        net = _Net()
        x = _input()
        trace, _ = _recorded(net, x)
        with nn.no_grad(), nn.deterministic_matmul():
            plain = net(x).data.copy()
        before = _runs(net)
        with nn.no_grad(), nn.deterministic_matmul(), trace.replay():
            got = net(x).data
        assert all(a > b for a, b in zip(_runs(net), before))
        np.testing.assert_array_equal(got, plain)

    def test_kv_cache_call_runs_but_its_children_replay(self):
        net = _Net()
        x = _input()
        trace, expected = _recorded(net, x, cache=AttentionKVCache("self"))
        recorded = [e.module for e in trace.entries]
        assert net.attn not in recorded
        assert net.attn.w_q in recorded and net.attn.w_o in recorded
        calls = []
        forward = type(net.attn).forward

        def counting(self, *args, **kwargs):
            calls.append(self)
            return forward(self, *args, **kwargs)

        before = _runs(net)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(net.attn), "forward", counting)
            with nn.no_grad(), trace.replay():
                got = net(x, cache=AttentionKVCache("self")).data
        assert calls == [net.attn]
        assert _runs(net) == before
        np.testing.assert_array_equal(got, expected)


class TestNeverStale:
    def test_recorded_outputs_are_read_only(self):
        net = _Net()
        x = _input()
        net.eval()
        trace = nn.CallTrace(net)
        with nn.no_grad(), trace.record():
            out = net.first(x)
        with pytest.raises(ValueError):
            out.data[0, 0, 0] = 1.0
        with nn.no_grad(), trace.replay():
            again = net.first(x)
        with pytest.raises(ValueError):
            again.data[...] = 0.0

    def test_input_mutated_after_recording_misses(self):
        net = _Net()
        x = _input()
        trace, _ = _recorded(net, x)
        x.data[0, 0, 0] += 1.0            # the caller reuses its buffer
        with nn.no_grad():
            plain = net(x).data.copy()
        before = _runs(net)
        with nn.no_grad(), trace.replay():
            got = net(x).data
        assert _runs(net)[0] == before[0] + 1
        np.testing.assert_array_equal(got, plain)

    def test_read_only_view_of_a_writable_buffer_is_copied(self):
        net = _Net()
        buffer = _input().data
        view = buffer[:]
        view.flags.writeable = False       # read-only, but not its data
        view = nn.Tensor(view)
        trace, _ = _recorded(net, view)
        buffer[0, 0, 0] += 1.0
        with nn.no_grad():
            plain = net(view).data.copy()
        before = _runs(net)
        with nn.no_grad(), trace.replay():
            got = net(view).data
        assert _runs(net)[0] == before[0] + 1
        np.testing.assert_array_equal(got, plain)

    def test_replaced_weight_misses_and_restored_weight_hits(self):
        net = _Net()
        x = _input()
        trace, expected = _recorded(net, x)
        weight = net.first.fc2.weight.data
        net.swap_parameter("first.fc2.weight", weight.copy())  # same values
        before = _runs(net)
        with nn.no_grad(), trace.replay():
            net(x)
        assert _runs(net)[:2] == [before[0] + 1, before[1] + 1]
        net.swap_parameter("first.fc2.weight", weight)
        with nn.no_grad(), trace.replay():
            got = net(x).data
        assert _runs(net)[:2] == [before[0] + 1, before[1] + 1]
        np.testing.assert_array_equal(got, expected)


class TestThreads:
    def test_scope_on_one_thread_leaves_another_plain(self):
        net = _Net()
        x = _input()
        trace, expected = _recorded(net, x)
        opened, done = threading.Event(), threading.Event()
        results = {}

        def other():
            opened.wait(10)
            before = _runs(net)
            with nn.no_grad():
                results["out"] = net(x).data.copy()
            results["reran"] = all(a > b
                                   for a, b in zip(_runs(net), before))
            done.set()

        worker = threading.Thread(target=other)
        worker.start()
        with nn.no_grad(), trace.replay():
            opened.set()
            assert done.wait(10)
        worker.join(10)
        assert not worker.is_alive()
        assert results["reran"]
        np.testing.assert_array_equal(results["out"], expected)

    def test_concurrent_scopes_keep_the_hook_count(self):
        """Four threads (more than cores) open and close replay scopes
        while switching often; a lost count update would leave hooks
        live, and every thread must see the recorded outputs."""
        net = _Net()
        x = _input()
        trace, expected = _recorded(net, x)
        live = hooks.LIVE
        outputs, errors = [], []

        def worker():
            try:
                for _ in range(50):
                    with nn.no_grad(), trace.replay():
                        outputs.append(net(x).data)
            except Exception as error:   # reported below, not swallowed
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(outputs) == 200
        for out in outputs:
            np.testing.assert_array_equal(out, expected)
        assert hooks.LIVE == live


# ------------------------------------------------------- sanitizer identity
def _probe_args(family, task):
    batch = task.eval_set(4)
    if family == "transformer":
        return batch.src, batch.tgt_in
    if family == "seq2seq":
        return batch.frames, batch.tgt_in
    return (batch.images,)


def _saturated(data):
    """Every weight pushed to the float32 edge, keeping its sign."""
    return np.where(data >= 0, np.float32(3e38), np.float32(-3e38))


def _report(model, args, trace, named=True, **sanitizer):
    """(findings, ops_checked, truncated, raised finding) of one probe;
    ``named=False`` leaves the sanitizer without layer names."""
    raised = None
    scope = trace.replay() if trace is not None else contextlib.nullcontext()
    with np.errstate(all="ignore"), nn.no_grad(), scope, \
            nn.Sanitizer(model if named else None, **sanitizer) as report:
        try:
            model(*args)
        except nn.NumericFault as fault:
            raised = fault.finding
    return ([(f.kind, f.op, f.layer, f.message, repr(f.stats))
             for f in report.findings], report.ops_checked,
            report.truncated, raised and raised.render())


SANITIZERS = ({}, {"action": "raise"}, {"max_findings": 1})


@pytest.mark.parametrize("family", FAMILIES)
def test_replayed_probe_reports_are_identical(family):
    """Per trial, a replayed probe's report equals a plain probe's."""
    model, task = get_bundle(family).build()
    model.eval()
    args = _probe_args(family, task)
    names = [name for name, p in model.named_parameters()
             if name.endswith("weight") and p.data.ndim >= 2]
    faults = {"clean": {},
              "upstream-scaled": {names[0]: lambda w: w * np.float32(3)},
              "upstream-saturated": {names[0]: _saturated},
              "downstream-saturated": {names[-1]: _saturated},
              "middle-saturated": {names[len(names) // 2]: _saturated}}
    kinds = set()
    # Recorded clean, and recorded with the middle tensor already
    # saturated, so that hits must re-emit what the recording found.
    for recorded in ("clean", "middle-saturated"):
        previous = {name: model.swap_parameter(name, fault(
            model.get_parameter(name).data))
            for name, fault in faults[recorded].items()}
        trace = nn.CallTrace(model)
        with np.errstate(all="ignore"), nn.no_grad(), trace.record(), \
                nn.Sanitizer(model):
            model(*args)
        emitted = [e for e in trace.entries
                   if e.probed is not None and e.probed.findings]
        assert bool(emitted) == (recorded != "clean")
        for label in ("clean", "upstream-scaled", "upstream-saturated",
                      "downstream-saturated"):
            trial = {name: model.swap_parameter(name, fault(
                model.get_parameter(name).data))
                for name, fault in faults[label].items()}
            try:
                for sanitizer in SANITIZERS:
                    plain = _report(model, args, None, **sanitizer)
                    assert _report(model, args, trace, **sanitizer) \
                        == plain, (recorded, label, sanitizer)
                    kinds.update(f[0] for f in plain[0])
            finally:
                for name, array in trial.items():
                    model.swap_parameter(name, array)
        for name, array in previous.items():
            model.swap_parameter(name, array)
    assert "forward-overflow" in kinds


def test_hit_needs_a_recording_under_the_same_sanitizer():
    model, task = get_bundle("resnet").build()
    model.eval()
    args = _probe_args("resnet", task)
    trace = nn.CallTrace(model)
    with nn.no_grad(), trace.record():          # recorded without one
        model(*args)
    replayed = _report(model, args, trace)
    assert replayed == _report(model, args, None)
    assert replayed[1] > 0
    # Recorded with qualified layer names, replayed under a sanitizer
    # that knows none: the recorded findings would name the wrong layers.
    name = "blocks.0.conv1.weight"
    previous = model.swap_parameter(name, _saturated(
        model.get_parameter(name).data))
    with np.errstate(all="ignore"), nn.no_grad(), trace.record(), \
            nn.Sanitizer(model):
        model(*args)
    plain = _report(model, args, None, named=False)
    assert [f[2] for f in plain[0]] == ["Conv2d"]
    assert _report(model, args, trace, named=False) == plain
    model.swap_parameter(name, previous)
