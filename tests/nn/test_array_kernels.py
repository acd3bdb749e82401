"""One forward per layer: grad on and grad off compute the same thing.

Every op is one primitive (``repro.nn.tensor``): given arrays it runs
its NumPy forward and reports to the live hooks; given Tensors it also
records the tape while grad is on.  Each layer writes its forward once
and, with grad off, unwraps its inputs and parameters to arrays once per
call (``layer_inputs``).  These tests compare, for every model family,
fault case, sanitizer mode and batch size:

* a teacher-forced or classify forward with grad off against the same
  forward with grad on (the autodiff reference);
* a greedy or beam decode (always grad off, KV-cached) against the same
  decode with every layer computing on Tensors (each primitive's Tensor
  half, ``tensor_halves``);

and check, each time:

* every module call's output, bit for bit, and that it is a Tensor;
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
from repro.nn import functional as F
from repro.nn import tensor as nn_tensor
from repro.nn.decoding import AttentionKVCache
from repro.nn.layers import (AdditiveAttention, BatchNorm2d, Conv2d,
                             Embedding, LayerNorm, Linear, LSTMCell,
                             MultiHeadAttention, attention, conv, embedding,
                             linear, norm, recurrent)
from repro.nn.module import Module
from repro.nn.quantize import QuantSpec, attach_weight_quantizers
from repro.resilience.inject import flip_float_register
from repro.rng import fresh_rng
from repro.serve import ModelPool
from repro.serve.batching import serial_reference
from repro.serve.bench import build_requests

CASES = ("clean", "exponent-flip", "nan-weight", "clamp-flood")
#: The weight each fault corrupts: one that feeds the layers (for the
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
#: thresholds, so a fault raises at an op check inside a layer rather
#: than at the quantize boundary of the weight the layer reads.
MODES = {"collect": ("collect", {}),
         "collect-capped": ("collect", {"max_findings": 3}),
         "raise": ("raise", {}),
         "raise-ops": ("raise", {"clamp_storm": 1.0,
                                 "underflow_flood": 1.0})}
#: The modules whose forwards read ``layer_inputs``.
LAYER_MODULES = (attention, conv, embedding, linear, norm, recurrent)


@contextlib.contextmanager
def tensor_halves():
    """Run every layer on Tensors with grad still off: each primitive
    takes its Tensor half, which builds a Tensor per op and no tape."""
    real = nn_tensor.layer_inputs
    heads_of = MultiHeadAttention._heads_of
    set_kv, append_kv = AttentionKVCache.set, AttentionKVCache.append
    saved = [(module, module.layer_inputs) for module in LAYER_MODULES]
    for module, _ in saved:
        module.layer_inputs = lambda grad, *values: real(True, *values)
    MultiHeadAttention._heads_of = \
        lambda self, projection, grad: heads_of(self, projection, True)
    # KV caches hold arrays
    AttentionKVCache.set = lambda self, k, v: set_kv(self, k.data, v.data)
    AttentionKVCache.append = \
        lambda self, k, v: append_kv(self, k.data, v.data)
    try:
        yield
    finally:
        AttentionKVCache.set, AttentionKVCache.append = set_kv, append_kv
        MultiHeadAttention._heads_of = heads_of
        for module, value in saved:
            module.layer_inputs = value


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@contextlib.contextmanager
def module_outputs(log):
    """Append (module type, output dtype, shape, bytes) of every module
    call to ``log``; every output must be a Tensor."""
    call = Module.__call__

    def recording(self, *args, **kwargs):
        out = call(self, *args, **kwargs)
        for value in _leaves(out):
            assert isinstance(value, nn.Tensor), (type(self), type(value))
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


def _run(model, forward, inputs, grad=False):
    with contextlib.ExitStack() as stack:
        if not grad:
            stack.enter_context(nn.no_grad())
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


def _observe(model, run, mode):
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
            out = _bits(run())
        except nn.NumericFault as fault:
            raised = _key(fault.finding)
    report = None
    if sanitizer is not None:
        r = sanitizer.report
        report = ([_key(f) for f in r.findings], r.ops_checked, r.truncated)
    return {"modules": log, "out": out, "raised": raised,
            "report": report, "macs": counter.as_dict()}


def _reference(model, forward, inputs, mode):
    """The autodiff reference: grad on for a forward, the Tensor halves
    for a decode (decodes run with grad off)."""
    if forward in ("teacher", "classify"):
        return _observe(model, lambda: _run(model, forward, inputs, True),
                        mode)
    with tensor_halves():
        return _observe(model, lambda: _run(model, forward, inputs), mode)


@pytest.mark.parametrize("family,case,forward,batch", PARAMS)
def test_kernels_match_the_autodiff_reference(family, case, forward, batch):
    model = _model(family, case)
    inputs = _inputs(family, batch)
    with corrupted(model, family, case):
        for mode in (None,) + tuple(MODES):
            reference = _reference(model, forward, inputs, mode)
            got = _observe(model, lambda: _run(model, forward, inputs), mode)
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
        reference = _reference(model, forward, inputs, "collect")
        got = _observe(model, lambda: _run(model, forward, inputs),
                       "collect")
    assert got == reference


def test_view_ops_never_report():
    """``check_op`` counts reshape, transpose, swapaxes and getitem without
    screening them: an output made only of input elements holds no value
    the input lacks."""
    data = np.array([[1.0, np.nan], [np.inf, -np.inf]], dtype=np.float32)
    for x in (nn.Tensor(data), data):
        with nn.Sanitizer() as report:
            F.reshape(x, 4)
            F.transpose(x)
            F.swapaxes(x, 0, 1)
            F.getitem(x, np.array([1, 0]))
        assert report.findings == [] and report.ops_checked == 4


@pytest.mark.parametrize("axis", [None, -1, 0, (0, 2), (0, 1, 2)])
@pytest.mark.parametrize("keepdims", [False, True])
def test_mean_primitive_is_ndarray_mean_bit_for_bit(axis, keepdims):
    """``mean`` skips ``ndarray.mean``'s Python bookkeeping but must
    divide exactly as it does (float64 division by an ``intp`` count)."""
    rng = _rng(27)
    for scale in (1e-30, 1.0, 3e5, 1e30):
        x = (rng.normal(size=(3, 5, 7)) * scale).astype(np.float32)
        x[0, 0, 0] = np.float32(scale) * 7.0
        with np.errstate(all="ignore"):
            expected = np.asarray(x.mean(axis=axis, keepdims=keepdims))
            got = np.asarray(F.mean(x, axis=axis, keepdims=keepdims))
        assert (got.dtype, got.shape, got.tobytes()) == \
            (expected.dtype, expected.shape, expected.tobytes())


def test_transformer_faults_reach_kernel_checks():
    """The fault cases exercise the layers' own op checks: a LayerNorm
    whose ``c * c`` overflows reports although its output is finite."""
    model = _model("transformer", "exponent-flip")
    inputs = _inputs("transformer", 1)
    with corrupted(model, "transformer", "exponent-flip"):
        got = _observe(model, lambda: _run(model, "greedy", inputs),
                       "raise-ops")
    assert got["raised"][:3] == ("forward-overflow", "mul",
                                 "decoder.0.norm1"), got["raised"]


# ----------------------------------------------------------- one layer each
def _rng(seed):
    # explicit generators: drawing from the process-wide init stream
    # would change the weights of every later test that uses it
    return fresh_rng(seed)


def _layer_cases():
    def data(*shape, seed=0):
        return nn.Tensor(_rng(seed).normal(size=shape).astype(np.float32))

    def quantized(layer):
        attach_weight_quantizers(layer, QuantSpec("adaptivfloat", 8),
                                 layer_types=(type(layer),))
        return layer

    bn = BatchNorm2d(4)
    bn.running_mean = _rng(5).normal(size=4).astype(np.float32)
    bn.running_var = (_rng(6).random(4) + 0.5).astype(np.float32)
    bn.weight.data = _rng(7).normal(size=4).astype(np.float32)
    bn.eval()
    mask = np.zeros((2, 1, 1, 5), dtype=bool)
    mask[1, ..., 3:] = True
    cell = quantized(LSTMCell(6, 5, rng=_rng(8)))
    return {
        "Linear": (quantized(Linear(6, 5, rng=_rng(1))),
                   (data(2, 3, 6),), {}),
        "Embedding": (quantized(Embedding(11, 4, rng=_rng(2))),
                      (np.array([[1, 4, 10], [0, 3, 3]]),), {}),
        "LayerNorm": (LayerNorm(6), (data(2, 3, 6, seed=3),), {}),
        "MultiHeadAttention": (
            MultiHeadAttention(8, 2, rng=_rng(4)),
            (data(2, 3, 8, seed=9), data(2, 5, 8, seed=10),
             data(2, 5, 8, seed=10)), {"mask": mask}),
        "LSTMCell": (cell, (data(2, 6, seed=11),
                            (data(2, 5, seed=12), data(2, 5, seed=13))), {}),
        "AdditiveAttention": (AdditiveAttention(5, 6, 7, rng=_rng(14)),
                              (data(2, 5, seed=15), data(2, 4, 6, seed=16)),
                              {"mask": np.array([[0, 0, 0, 1],
                                                 [0, 0, 0, 0]], bool)}),
        "Conv2d": (quantized(Conv2d(3, 4, 3, stride=2, padding=1,
                                    rng=_rng(17))),
                   (data(2, 3, 7, 7, seed=18),), {}),
        "BatchNorm2d": (bn, (data(2, 4, 3, 3, seed=19),), {}),
    }


LAYERS = _layer_cases()


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_each_layer_type_agrees_across_the_grad_switch(name):
    layer, args, kwargs = LAYERS[name]
    for mode in (None,) + tuple(MODES):
        on = _observe(layer, lambda: _first(layer(*args, **kwargs)), mode)
        with nn.no_grad():
            off = _observe(layer, lambda: _first(layer(*args, **kwargs)),
                           mode)
        assert off == on, (name, mode)
        assert off["modules"] and off["macs"] == on["macs"]


def _first(out):
    return out[0] if isinstance(out, tuple) else out


def test_layer_faults_report_alike_in_both_modes():
    """A NaN weight and an overflowing input give each layer the same
    findings with grad on and off."""
    layer, args, _ = LAYERS["LSTMCell"]
    big = nn.Tensor(np.full((2, 6), 3e38, dtype=np.float32))
    reports = []
    for grad in (True, False):
        with contextlib.ExitStack() as stack:
            if not grad:
                stack.enter_context(nn.no_grad())
            reports.append(_observe(layer, lambda: layer(big, args[1])[0],
                                    "collect"))
    assert reports[0] == reports[1]
    assert reports[0]["report"][0], "the overflow must be reported"


# --------------------------------------------------------- Tensors stay
def test_module_calls_return_tensors_in_both_grad_modes():
    for family, forward in (("transformer", "teacher"),
                            ("seq2seq", "teacher"), ("resnet", "classify")):
        model = _model(family, "clean")
        inputs = _inputs(family, 2)
        for grad in (True, False):
            log = []
            with module_outputs(log):   # asserts each output is a Tensor
                out = _run(model, forward, inputs, grad)
            assert isinstance(out, nn.Tensor) and log


def _tensor_ops(t, m, img, w):
    """Every Tensor method and functional op, applied to Tensors."""
    return {
        "add": t + 1.0, "radd": 1.0 + t, "sub": t - 1.0, "rsub": 1.0 - t,
        "mul": t * 2.0, "rmul": 2.0 * t, "truediv": t / 2.0,
        "rtruediv": 2.0 / (t + 5.0), "neg": -t, "pow": (t * t) ** 0.5,
        "matmul": t @ m, "rmatmul": t.data @ m, "getitem": t[0],
        "exp": t.exp(), "log": (t * t + 1.0).log(),
        "sqrt": (t * t).sqrt(), "tanh": t.tanh(), "sigmoid": t.sigmoid(),
        "relu": t.relu(), "abs": t.abs(), "reshape": t.reshape(6),
        "transpose": t.transpose(), "T": t.T, "swapaxes": t.swapaxes(0, 1),
        "sum": t.sum(axis=0), "mean": t.mean(), "max": t.max(axis=1),
        "clip_values": t.clip_values(-0.5, 0.5), "detach": t.detach(),
        "F.add": F.add(t, t), "F.sub": F.sub(t, t), "F.mul": F.mul(t, t),
        "F.neg": F.neg(t), "F.pow_": F.pow_(t * t, 0.5),
        "F.matmul": F.matmul(t, m), "F.getitem": F.getitem(t, 1),
        "F.reshape": F.reshape(t, 3, 2), "F.transpose": F.transpose(t),
        "F.swapaxes": F.swapaxes(t, 0, 1), "F.mean": F.mean(t, axis=1),
        "F.relu": F.relu(t), "F.tanh": F.tanh(t), "F.sigmoid": F.sigmoid(t),
        "F.gelu": F.gelu(t), "F.softmax": F.softmax(t),
        "F.log_softmax": F.log_softmax(t),
        "F.cross_entropy": F.cross_entropy(t, np.array([0, 2])),
        "F.embedding": F.embedding(m, np.array([1, 0])),
        "F.masked_fill": F.masked_fill(t, t.data > 0, 0.0),
        "F.dropout": F.dropout(t, 0.5, True, _rng(20)),
        "F.cat": F.cat([t, t], axis=1),
        "F.conv2d": F.conv2d(img, w, padding=1),
        "F.max_pool2d": F.max_pool2d(img, 2),
        "F.avg_pool2d": F.avg_pool2d(img, 2),
        "F.global_avg_pool2d": F.global_avg_pool2d(img),
        "F.fake_quantize": F.fake_quantize(t, np.round),
    }


def test_every_op_given_a_tensor_returns_a_tensor_under_no_grad():
    """An ndarray's ``.data`` is a memoryview, so an array handed back by
    mistake would pass unnoticed by a caller reading ``.data``."""
    t = nn.Tensor(_rng(21).normal(size=(2, 3)).astype(np.float32))
    m = nn.Tensor(_rng(22).normal(size=(3, 2)).astype(np.float32))
    img = nn.Tensor(_rng(23).normal(size=(1, 2, 4, 4)).astype(np.float32))
    w = nn.Tensor(_rng(24).normal(size=(3, 2, 3, 3)).astype(np.float32))
    with nn.no_grad():
        ops = _tensor_ops(t, m, img, w)
    wrong = {name: type(out).__name__ for name, out in ops.items()
             if not isinstance(out, nn.Tensor)}
    assert not wrong, wrong
    assert {name[2:] for name in ops if name.startswith("F.")} \
        == set(F.__all__)
    # and arrays in, arrays out
    with nn.no_grad():
        assert isinstance(F.matmul(t.data, m.data), np.ndarray)
        assert isinstance(F.softmax(t.data), np.ndarray)
        assert isinstance(F.add(t.data, 1.0), np.ndarray)


def test_kv_cached_attention_with_grad_on_raises():
    attn = MultiHeadAttention(8, 2, rng=_rng(25))
    x = nn.Tensor(_rng(26).normal(size=(1, 2, 8)).astype(np.float32))
    for kind in ("self", "cross"):
        with pytest.raises(RuntimeError, match="inference-only"):
            attn(x, x, x, cache=AttentionKVCache(kind))
        with nn.no_grad():
            assert isinstance(attn(x, x, x, cache=AttentionKVCache(kind)),
                              nn.Tensor)


class TestSelector:
    def _spy(self, monkeypatch):
        calls = []
        real = F.matmul

        def spy(a, b):
            calls.append((type(a).__name__, type(b).__name__))
            return real(a, b)

        monkeypatch.setattr(F, "matmul", spy)
        return calls

    def test_kernels_run_exactly_when_grad_is_off(self, monkeypatch):
        """The layers' ops take arrays exactly when grad is off."""
        calls = self._spy(monkeypatch)
        model = _model("transformer", "clean")
        inputs = _inputs("transformer", 1)
        target = np.array([[1, 3, 4]])
        model(inputs, target)                     # grad on: Tensors
        assert calls and set(calls) == {("Tensor", "Tensor")}
        calls.clear()
        with nn.no_grad():
            model(inputs, target)
        assert calls and set(calls) == {("ndarray", "ndarray")}
        calls.clear()
        with nn.no_grad(), tensor_halves():
            model(inputs, target)
        assert calls and set(calls) == {("Tensor", "Tensor")}

    def test_grad_on_builds_the_graph(self):
        model = nn.Sequential(nn.Linear(4, 3, rng=_rng(0)),
                              nn.LayerNorm(3))
        out = model(nn.Tensor(np.ones((2, 4), dtype=np.float32)))
        out.sum().backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_kernel_output_has_no_graph(self):
        layer = nn.Linear(4, 3, rng=_rng(1))
        with nn.no_grad():
            out = layer(nn.Tensor(np.ones((2, 4), dtype=np.float32)))
        assert out._parents == () and out._backward is None
        assert out.data.dtype == np.float32


class TestThreads:
    """Layers test the global live-sanitizer count but must judge by the
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
        # layer judging by the wrong thread's state would add findings
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
