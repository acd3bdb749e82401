"""Array kernels are indistinguishable from their Tensor composition.

With autodiff off, ``Linear``, ``Embedding``, ``LayerNorm`` and
``MultiHeadAttention`` compute on ndarrays (``tensor.array_kernels``).
These tests force the autodiff reference by patching that selector and
compare, for every model family, fault case, sanitizer mode, batch size
and forward kind:

* every module call's output, bit for bit;
* the final outputs (tokens or logits), bit for bit;
* the ``SanitizeReport``: findings (kind, op, layer, message, stats) in
  order, ``ops_checked`` and truncation, or the finding raised;
* the ``count_macs`` totals;
* the tokens under ``deterministic_matmul``.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.hardware.profiler import count_macs
from repro.nn import tensor as nn_tensor
from repro.nn.layers import Embedding, LayerNorm, Linear, MultiHeadAttention
from repro.nn.module import Module
from repro.resilience.inject import flip_float_register
from repro.rng import fresh_rng
from repro.serve import ModelPool
from repro.serve.batching import serial_reference
from repro.serve.bench import build_requests

CASES = ("clean", "exponent-flip", "nan-weight", "clamp-flood")
#: The weight each fault corrupts: one that feeds the kernels (for the
#: Transformer, its overflow reaches a LayerNorm whose ``c * c``
#: overflows while its output stays finite).
TARGETS = {
    "transformer": ("decoder.0.self_attn.w_v.weight",
                    "encoder.1.ffn.fc1.weight"),
    "seq2seq": ("attention.w_key.weight", "input_proj.weight"),
    "resnet": ("head.weight", "blocks.2.conv2.weight"),
}
FORWARDS = {"transformer": ("teacher", "greedy", "beam"),
            "seq2seq": ("teacher", "greedy", "beam"),
            "resnet": ("classify",)}
PARAMS = [(family, case, forward, batch)
          for family in ("transformer", "seq2seq", "resnet")
          for case in CASES
          for forward in FORWARDS[family]
          for batch in (1, 3)]
#: Sanitizer modes.  ``raise-ops`` disables the clamp and flood
#: thresholds, so a fault raises at an op check inside a kernel rather
#: than at the quantize boundary of the weight a kernel reads.
MODES = {"collect": ("collect", {}),
         "collect-capped": ("collect", {"max_findings": 3}),
         "raise": ("raise", {}),
         "raise-ops": ("raise", {"clamp_storm": 1.0,
                                 "underflow_flood": 1.0})}


@contextlib.contextmanager
def autodiff_reference():
    """Run every layer as its Tensor composition (grad stays off)."""
    saved = nn_tensor.array_kernels
    nn_tensor.array_kernels = lambda: False
    try:
        yield
    finally:
        nn_tensor.array_kernels = saved


@contextlib.contextmanager
def module_outputs(log):
    """Append (module type, output dtype, shape, bytes) of every module
    call to ``log``."""
    call = Module.__call__

    def recording(self, *args, **kwargs):
        out = call(self, *args, **kwargs)
        for value in (out if isinstance(out, tuple) else (out,)):
            if isinstance(value, nn.Tensor):
                log.append((type(self).__name__, value.data.dtype.str,
                            value.data.shape, value.data.tobytes()))
        return out

    Module.__call__ = recording
    try:
        yield
    finally:
        Module.__call__ = call


_POOLS = {}


def _model(family, case):
    quant = ("float", 8) if case == "clamp-flood" else ("adaptivfloat", 8)
    if quant not in _POOLS:
        _POOLS[quant] = ModelPool(quant=quant, warmup=False)
    return _POOLS[quant].get(family).model


@contextlib.contextmanager
def corrupted(model, family, case):
    """The case's weights swapped in for the duration of the block."""
    first, second = TARGETS[family]
    swaps = []
    data = model.get_parameter(first).data.copy()
    if case == "exponent-flip":
        data.flat[3] = flip_float_register(float(data.flat[3]), 1)
        swaps.append((first, data))
    elif case == "nan-weight":
        data.flat[3] = np.nan
        swaps.append((first, data))
    elif case == "clamp-flood":
        # fixed-range float8: a weight scaled past value_max clamps, one
        # scaled under value_min flushes to zero
        swaps.append((first, data * np.float32(1e4)))
        swaps.append((second, model.get_parameter(second).data
                      * np.float32(1e-9)))
    saved = [(name, model.swap_parameter(name, value))
             for name, value in swaps]
    try:
        yield
    finally:
        for name, value in reversed(saved):
            model.swap_parameter(name, value)


def _inputs(family, batch):
    requests = build_requests(family, batch, seed=batch)
    if family == "transformer":
        width = max(len(r.payload) for r in requests) + 1
        src = np.zeros((batch, width), dtype=np.int64)
        for i, r in enumerate(requests):
            src[i, :len(r.payload)] = r.payload
            src[i, len(r.payload)] = 2            # EOS, then padding
        return src
    if family == "seq2seq":
        # exact-length frames, as the serve buckets batch them
        return np.stack([requests[0].payload] * batch) \
            + np.arange(batch, dtype=np.float32)[:, None, None]
    return np.stack([r.payload for r in requests])


def _run(model, forward, inputs):
    with nn.no_grad():
        if forward == "classify":
            return model(inputs)
        if forward == "teacher":
            target = np.tile(np.array([[1, 3, 4, 5]]), (len(inputs), 1))
            return model(inputs, target)
        if forward == "greedy":
            return model.greedy_decode(inputs, max_len=5)
        return model.beam_decode(inputs, beam_size=3, max_len=4)


def _bits(out):
    data = out.data if isinstance(out, nn.Tensor) else np.asarray(out)
    return data.dtype.str, data.shape, data.tobytes()


def _key(finding):
    # repr keeps NaN stats comparable (nan != nan as a float)
    return (finding.kind, finding.op, finding.layer, finding.message,
            repr(finding.stats))


def _observe(model, forward, inputs, mode):
    """Everything one run shows: module outputs, output, report, MACs."""
    log = []
    sanitizer = None
    if mode is not None:
        action, thresholds = MODES[mode]
        sanitizer = nn.Sanitizer(model, action=action, **thresholds)
    out = raised = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(np.errstate(all="ignore"))
        counter = stack.enter_context(count_macs())
        stack.enter_context(module_outputs(log))
        if sanitizer is not None:
            stack.enter_context(sanitizer)
        try:
            out = _bits(_run(model, forward, inputs))
        except nn.NumericFault as fault:
            raised = _key(fault.finding)
    report = None
    if sanitizer is not None:
        r = sanitizer.report
        report = ([_key(f) for f in r.findings], r.ops_checked, r.truncated)
    return {"modules": log, "out": out, "raised": raised,
            "report": report, "macs": counter.as_dict()}


@pytest.mark.parametrize("family,case,forward,batch", PARAMS)
def test_kernels_match_the_autodiff_reference(family, case, forward, batch):
    model = _model(family, case)
    inputs = _inputs(family, batch)
    with corrupted(model, family, case):
        for mode in (None,) + tuple(MODES):
            with autodiff_reference():
                reference = _observe(model, forward, inputs, mode)
            got = _observe(model, forward, inputs, mode)
            for part in ("out", "raised", "report", "macs", "modules"):
                assert got[part] == reference[part], (mode, part)
            if mode is None:
                assert got["modules"] and got["out"] is not None
    if case == "clean":
        assert reference["report"][0] == [], reference["report"]


@pytest.mark.parametrize("family", ["transformer", "seq2seq"])
@pytest.mark.parametrize("forward", ["greedy", "beam"])
def test_tokens_match_under_deterministic_matmul(family, forward):
    model = _model(family, "clean")
    inputs = _inputs(family, 3)
    with nn.deterministic_matmul():
        with autodiff_reference():
            reference = _observe(model, forward, inputs, "collect")
        got = _observe(model, forward, inputs, "collect")
    assert got == reference


def test_view_ops_never_report():
    """``check_op`` counts reshape, transpose, swapaxes and getitem without
    screening them: an output made only of input elements holds no value
    the input lacks, so the screened Tensor path never reports them."""
    data = np.array([[1.0, np.nan], [np.inf, -np.inf]], dtype=np.float32)
    x = nn.Tensor(data)
    with nn.Sanitizer() as report:
        x.reshape(4)
        x.transpose()
        x.swapaxes(0, 1)
        x[np.array([1, 0])]
    assert report.findings == [] and report.ops_checked == 4


def test_transformer_faults_reach_kernel_checks():
    """The fault cases exercise the kernels' own op checks: a LayerNorm
    whose ``c * c`` overflows reports although its output is finite."""
    model = _model("transformer", "exponent-flip")
    with corrupted(model, "transformer", "exponent-flip"):
        got = _observe(model, "greedy", _inputs("transformer", 1),
                       "raise-ops")
    assert got["raised"][:3] == ("forward-overflow", "mul",
                                 "decoder.0.norm1"), got["raised"]


class TestSelector:
    def _spy(self, monkeypatch):
        calls = []
        for layer in (Linear, Embedding, LayerNorm, MultiHeadAttention):
            real = layer._forward_arrays

            def spy(self, *args, _real=real, **kwargs):
                calls.append(type(self).__name__)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(layer, "_forward_arrays", spy)
        return calls

    def test_kernels_run_exactly_when_grad_is_off(self, monkeypatch):
        calls = self._spy(monkeypatch)
        model = _model("transformer", "clean")
        inputs = _inputs("transformer", 1)
        target = np.array([[1, 3, 4]])
        model(inputs, target)                     # grad on: Tensor path
        assert calls == []
        with nn.no_grad():
            model(inputs, target)
        assert set(calls) == {"Linear", "Embedding", "LayerNorm",
                              "MultiHeadAttention"}
        calls.clear()
        with nn.no_grad(), autodiff_reference():
            model(inputs, target)
        assert calls == []

    # explicit generators: drawing from the process-wide init stream
    # would change the weights of every later test that uses it
    def test_grad_on_builds_the_graph(self):
        model = nn.Sequential(nn.Linear(4, 3, rng=fresh_rng(0)),
                              nn.LayerNorm(3))
        out = model(nn.Tensor(np.ones((2, 4), dtype=np.float32)))
        out.sum().backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_kernel_output_has_no_graph(self):
        layer = nn.Linear(4, 3, rng=fresh_rng(1))
        with nn.no_grad():
            out = layer(nn.Tensor(np.ones((2, 4), dtype=np.float32)))
        assert out._parents == () and out._backward is None
        assert out.data.dtype == np.float32


class TestThreads:
    """Kernels test the global live-sanitizer count but must judge by the
    calling thread's state: a plain decode next to a probed one neither
    reports into the probe's report nor gets checked itself."""

    ROUNDS = 3

    @staticmethod
    def _probed(entry, requests):
        with np.errstate(all="ignore"), nn.Sanitizer(entry.model) as report:
            tokens = serial_reference(entry, requests)
        return tokens, [_key(f) for f in report.findings], \
            report.ops_checked, report.truncated

    def test_probed_and_plain_threads_share_a_pool(self):
        entry = ModelPool(quant=("adaptivfloat", 8),
                          warmup=False).get("transformer")
        probed_requests = build_requests("transformer", 3, seed=11,
                                         max_len=6)
        plain_requests = build_requests("transformer", 3, seed=12,
                                        max_len=6)
        results = {"probed": [], "plain": []}
        errors = []

        def probed():
            try:
                for _ in range(self.ROUNDS):
                    results["probed"].append(
                        self._probed(entry, probed_requests))
            except BaseException as error:  # reported on the main thread
                errors.append(error)

        def plain():
            try:
                with np.errstate(all="ignore"):
                    for _ in range(self.ROUNDS):
                        assert not nn.sanitize.is_active()
                        results["plain"].append(
                            serial_reference(entry, plain_requests))
            except BaseException as error:
                errors.append(error)

        # An exponent flip makes both threads' LayerNorms overflow, so a
        # kernel judging by the wrong thread's state would add findings
        # (and op counts) to the probe's report.
        with corrupted(entry.model, "transformer", "exponent-flip"):
            with np.errstate(all="ignore"):
                expected_tokens = serial_reference(entry, plain_requests)
            expected_probe = self._probed(entry, probed_requests)
            assert expected_probe[1], "the fault must produce findings"
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=probed),
                           threading.Thread(target=plain)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(previous)
        assert not errors, errors
        assert results["plain"] == [expected_tokens] * self.ROUNDS
        assert results["probed"] == [expected_probe] * self.ROUNDS
        layers = {key[2] for key in expected_probe[1]}
        assert "decoder.0.norm1" in layers
