"""The weight-quant memo keeps the sanitizer's quantize stats.

A memoized weight's :func:`repro.nn.sanitize.quantize_stats` are measured
once per ``Parameter.version``; every later probed forward only re-judges
them against the active sanitizer's thresholds.  That is safe only if no
report can tell the difference, so these tests pin it: the findings
(kind, op, layer, message, stats, in order) and ``ops_checked`` are the
same whether the memo is warm, cleared before the forward, or keeps
nothing at all (every call measured afresh, as activations are), in
collect and raise mode, with grad on and off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import hooks, nn
from repro.nn import functional as F
from repro.nn import sanitize
from repro.nn.quantize import WeightFakeQuant
from repro.resilience.inject import flip_float_register
from repro.serve import ModelPool
from repro.serve.batching import run_microbatch
from repro.serve.bench import build_requests

_FAKE_QUANTIZE = F.fake_quantize
FAMILIES = ("transformer", "seq2seq", "resnet")
CASES = ("clean", "exponent-flip", "nan-weight", "clamp-flood")


def _min_max_screen(a):
    """The previous two-reduction screen: NaN/Inf poison min + max."""
    if a.size == 0:
        return True
    with np.errstate(all="ignore"):
        s = float(a.min()) + float(a.max())
    return bool(np.isfinite(s))


def _reference_on_quantize(inp, out):
    """The quantize check before it was split: measure, judge, emit."""
    state = sanitize.current_state()
    if state is None:
        return
    state.report.ops_checked += 1
    layer = state.current_layer()
    if not _min_max_screen(out):
        if _min_max_screen(inp):
            state.emit("quantize-nan", "fake_quantize", layer,
                       "quantizer produced non-finite output from finite "
                       "input", sanitize._stats(out))
        return
    if inp.size == 0:
        return
    with np.errstate(invalid="ignore"):
        abs_in = np.abs(inp)
        abs_out = np.abs(out)
        top = abs_out.max()
        if top > 0.0:
            clamped = float(((abs_out >= top) & (abs_in > top)).mean())
            if clamped > state.clamp_storm:
                state.emit(
                    "clamp-storm", "fake_quantize", layer,
                    f"{clamped:.1%} of elements clamped to the extreme "
                    f"codepoint {float(top):g} (input max "
                    f"{float(abs_in.max()):g}); the format's value_max is "
                    "too small for this tensor", {
                        "clamped_fraction": clamped,
                        "codepoint_max": float(top),
                        "input_max": float(abs_in.max()),
                    })
        nonzero = int((inp != 0.0).sum())
        if nonzero:
            flooded = float(((inp != 0.0) & (out == 0.0)).sum() / nonzero)
            if flooded > state.underflow_flood:
                state.emit(
                    "underflow-flood", "fake_quantize", layer,
                    f"{flooded:.1%} of nonzero inputs quantized to zero; "
                    "the format's value_min is too large for this tensor", {
                        "flooded_fraction": flooded,
                        "nonzero_inputs": nonzero,
                    })


def fake_quantize(x, quantize_fn, ste_mask=None, stats=None):
    """fake_quantize before the split: every call measures the pair, then
    the generic op check re-screens the output.  (Findings name the op
    after this function, so it keeps the name.)"""
    out = np.asarray(quantize_fn(x.data), dtype=np.float32)
    if hooks.LIVE:
        _reference_on_quantize(x.data, out)

    def backward(grad):
        x._accumulate(grad if ste_mask is None else grad * ste_mask)

    return F._op(out, (x,), backward)


class _KeepsNothing(dict):
    """A memo dict that drops every store: each call is a cold miss."""

    def __setitem__(self, key, value):
        pass


def _key(finding):
    # repr keeps NaN stats comparable (nan != nan as a float)
    return (finding.kind, finding.op, finding.layer, finding.message,
            repr(finding.stats))


def _weight_quantizers(model):
    return [m.weight_fake_quant for m in model.modules()
            if isinstance(m.weight_fake_quant, WeightFakeQuant)]


def _build(family, case):
    """A quantized family plus a function applying the case's weights."""
    quant = ("float", 8) if case == "clamp-flood" else ("adaptivfloat", 8)
    entry = ModelPool(quant=quant, warmup=False).get(family)
    model = entry.model
    weights = [name for name, p in model.named_parameters()
               if name.endswith("weight") and p.data.ndim >= 2]

    def corrupt():
        data = model.get_parameter(weights[1]).data.copy()
        if case == "exponent-flip":
            data.flat[3] = flip_float_register(float(data.flat[3]), 1)
            model.swap_parameter(weights[1], data)
        elif case == "nan-weight":
            data.flat[3] = np.nan
            model.swap_parameter(weights[1], data)
        elif case == "clamp-flood":
            # fixed-range float8: a weight scaled past value_max clamps,
            # one scaled under value_min flushes to zero
            model.swap_parameter(weights[1], data * np.float32(1e4))
            small = model.get_parameter(weights[2]).data * np.float32(1e-9)
            model.swap_parameter(weights[2], small)

    return entry, build_requests(family, 1, seed=0, max_len=3)[0], corrupt


def _forward(entry, request, grad):
    """The serve path (no grad), or a teacher-forced forward with grad."""
    if not grad:
        return run_microbatch(entry, [request])
    model = entry.model
    if request.kind == "classify":
        return model(np.stack([request.payload]))
    target = np.array([[1, 3, 4, 5]])
    if request.kind == "translate":
        return model(np.array([request.payload]), target)
    return model(np.stack([request.payload]), target)


def _probe(model, forward, action, memo, **thresholds):
    """(findings, ops_checked, raised finding) of one probed forward."""
    quantizers = _weight_quantizers(model)
    saved = [wq._cache for wq in quantizers]
    if memo == "cleared":
        for wq in quantizers:
            wq._cache.clear()
    elif memo in ("keeps-nothing", "reference"):
        for wq in quantizers:
            wq._cache = _KeepsNothing()
    if memo == "reference":
        F.fake_quantize = fake_quantize
    sanitizer = nn.Sanitizer(model, action=action, **thresholds)
    raised = None
    try:
        with np.errstate(all="ignore"), sanitizer:
            forward()
    except nn.NumericFault as fault:
        raised = _key(fault.finding)
    finally:
        F.fake_quantize = _FAKE_QUANTIZE
        for wq, cache in zip(quantizers, saved):
            wq._cache = cache
    report = sanitizer.report
    return [_key(f) for f in report.findings], report.ops_checked, raised


class TestReportIdentity:
    @pytest.mark.parametrize("grad", [False, True], ids=["nograd", "grad"])
    @pytest.mark.parametrize("action", ["collect", "raise"])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_warm_memo_reports_like_cold(self, family, case, action, grad):
        entry, request, corrupt = _build(family, case)
        model = entry.model

        def forward():
            return _forward(entry, request, grad)

        _probe(model, forward, action, "warm")    # stats of clean weights
        corrupt()                                 # mid-serve, as a fault
        warm_after_corrupt = _probe(model, forward, action, "warm")
        reference = _probe(model, forward, action, "reference")
        assert warm_after_corrupt == reference
        assert _probe(model, forward, action, "keeps-nothing") == reference
        assert _probe(model, forward, action, "cleared") == reference
        # the cleared run left every entry holding its stats
        assert _probe(model, forward, action, "warm") == reference
        assert _probe(model, forward, action, "warm") == reference
        if case == "clean":
            assert reference[0] == [] and reference[2] is None
        elif case != "nan-weight":
            assert reference[0] or reference[2], reference

    @pytest.mark.parametrize("action", ["collect", "raise"])
    def test_manufactured_nan_replays_both_findings(self, action):
        class NaNQuantizer:
            def quantize(self, data):
                out = np.array(data, dtype=np.float32)
                out.flat[0] = np.nan
                return out

        model = nn.Sequential(nn.Linear(8, 8), nn.ReLU(), nn.Linear(8, 4))
        model._list[0].weight_fake_quant = WeightFakeQuant(NaNQuantizer())
        x = nn.Tensor(np.ones((2, 8)))

        def forward():
            return model(x)

        reference = _probe(model, forward, action, "reference")
        if action == "collect":
            kinds = [key[:3] for key in reference[0]]
            assert kinds == [("quantize-nan", "fake_quantize", "0"),
                             ("forward-nan", "fake_quantize", "0")]
        else:
            assert reference[2][0] == "quantize-nan"
        for memo in ("keeps-nothing", "cleared", "warm", "warm"):
            assert _probe(model, forward, action, memo) == reference


class _ClipFlush:
    """Clips to [-2, 2] and flushes |x| < 1e-3 to zero."""

    def quantize(self, data):
        out = np.clip(np.asarray(data, dtype=np.float32), -2.0, 2.0)
        out[np.abs(out) < 1e-3] = 0.0
        return out


def _clip_flood_model():
    # 30% clamps, 60% of the nonzero inputs flush to zero
    weight = np.full(100, 0.5, dtype=np.float32)
    weight[:30] = 1e4
    weight[30:90] = 1e-6
    model = nn.Sequential(nn.Linear(10, 10))
    model.swap_parameter("0.weight", weight.reshape(10, 10))
    model._list[0].weight_fake_quant = WeightFakeQuant(_ClipFlush())
    return model


class TestThresholds:
    def test_each_sanitizer_judges_by_its_own_thresholds(self):
        model = _clip_flood_model()
        x = nn.Tensor(np.ones((2, 10)))

        def forward():
            with nn.no_grad():
                return model(x)

        loose = {"clamp_storm": 0.5, "underflow_flood": 0.9}
        cold_default = _probe(model, forward, "collect", "reference")
        cold_loose = _probe(model, forward, "collect", "reference", **loose)
        assert [key[0] for key in cold_default[0]] == \
            ["clamp-storm", "underflow-flood"]
        assert cold_loose[0] == []
        # one warm memo, judged in turn by sanitizers that disagree
        for thresholds, expected in ((loose, cold_loose), ({}, cold_default),
                                     (loose, cold_loose), ({}, cold_default)):
            assert _probe(model, forward, "collect", "warm",
                          **thresholds) == expected


class TestStatsPassCount:
    def test_stats_measured_once_per_weight_version(self, monkeypatch):
        entry = ModelPool(quant=("adaptivfloat", 8), warmup=False) \
            .get("resnet")
        model = entry.model
        request = build_requests("resnet", 1, seed=0)[0]
        measured = []
        real = sanitize.quantize_stats

        def counting(inp, out):
            measured.append(inp)
            return real(inp, out)

        monkeypatch.setattr(sanitize, "quantize_stats", counting)

        def times_measured(array):
            return sum(1 for inp in measured if inp is array)

        run_microbatch(entry, [request])       # unprobed: measures nothing
        assert measured == []
        for _ in range(3):
            with nn.Sanitizer(model):
                run_microbatch(entry, [request])
        weights = {name: p.data for name, p in model.named_parameters()
                   if name.endswith("weight") and p.data.ndim >= 2}
        assert weights and all(times_measured(a) == 1
                               for a in weights.values())
        target = next(iter(weights))
        faulty = weights[target].copy()
        faulty.flat[0] = flip_float_register(float(faulty.flat[0]), 1)
        model.swap_parameter(target, faulty)
        for _ in range(2):
            with np.errstate(all="ignore"), nn.Sanitizer(model):
                run_microbatch(entry, [request])
        assert times_measured(model.get_parameter(target).data) == 1
        assert all(times_measured(a) == 1 for a in weights.values())
        assert len(measured) == len(weights) + 1


_F32_MAX = float(np.finfo(np.float32).max)
_ELEMENTS = st.one_of(
    st.floats(width=32),
    st.sampled_from([np.nan, np.inf, -np.inf, _F32_MAX, -_F32_MAX, 0.0]))
_VIEWS = {
    "whole": lambda a: a,
    "strided": lambda a: a[::2],
    "reversed": lambda a: a[::-1],
    "transposed": lambda a: a.T,
}


class TestScreen:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float32,
                      hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                       max_side=5),
                      elements=_ELEMENTS),
           st.sampled_from(sorted(_VIEWS)))
    def test_one_pass_screen_matches_min_max(self, array, view):
        a = _VIEWS[view](array) if array.ndim else array
        assert sanitize._extremes_finite(a) == _min_max_screen(a)
