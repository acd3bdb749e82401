"""The Sanitizer's float-flag gate (:mod:`repro.nn.sanitize`, "Cost under a
sanitizer").

Inside a model call, a :class:`~repro.nn.Sanitizer` screens an op's
output only when the op raised an overflow, invalid or divide-by-zero
flag on its thread, when it is a GEMM or copies a constant, or when it
was built outside the primitives; with grad off, a memoized weight read
skips the ``fake_quantize`` round trip.  These tests pin what both must
keep: the report of screening every op through the old weight read, GEMM
overflows whose flag never reaches the calling thread, no finding from a
stale flag, findings under an errstate opened inside the scope, the
caller's own error mode, and every other thread's error state.
"""

import re
import threading
import warnings

import numpy as np
import pytest

from repro import hooks, nn
from repro.nn import functional as F
from repro.nn import sanitize
from repro.nn.quantize import WeightFakeQuant
from repro.resilience.inject import flip_float_register
from repro.serve import ModelPool
from repro.serve.batching import Request, run_microbatch
from repro.serve.bench import build_requests

FAMILIES = ("transformer", "seq2seq", "resnet")
CASES = ("clean", "exponent-flip", "huge-weight", "nan-input")
QUANTS = {"fp32": None, "adaptivfloat8": ("adaptivfloat", 8)}
#: The weight the exponent-flip and huge-weight cases corrupt.  In the
#: transformer and the ResNet the fault overflows a LayerNorm or
#: BatchNorm ``mul`` or a ``mean``: ops the gate screens only when they
#: raise a flag.  The seq2seq model's LSTM gates saturate, so its finding
#: is a GEMM's.
TARGETS = {
    "transformer": ("encoder.0.ffn.fc1.weight",
                    "decoder.0.cross_attn.w_v.weight"),
    "seq2seq": ("input_proj.weight", "input_proj.weight"),
    "resnet": ("blocks.0.conv2.weight", "blocks.0.bn1.weight"),
}
SETTINGS = {"collect": {"action": "collect"},
            "truncated": {"action": "collect", "max_findings": 1},
            "raise": {"action": "raise"}}
_GEMMS = ("matmul", "conv2d")


@pytest.fixture(scope="module")
def pools():
    return {name: ModelPool(quant=quant, warmup=False)
            for name, quant in QUANTS.items()}


def _key(finding):
    # repr keeps NaN stats comparable (nan != nan as a float)
    return (finding.kind, finding.op, finding.layer, finding.message,
            repr(finding.stats))


def _case(entry, family, case):
    """``(forward, restore)``: the case's probe forward, and the undo of
    the weight it corrupted."""
    model = entry.model
    request = build_requests(family, 1, seed=0, max_len=3)[0]
    restore = lambda: None  # noqa: E731
    if case in ("exponent-flip", "huge-weight"):
        name = TARGETS[family][case == "huge-weight"]
        clean = model.get_parameter(name).data
        data = clean.copy()
        middle = data.size // 2
        data.flat[middle] = (flip_float_register(float(data.flat[middle]), 1)
                             if case == "exponent-flip" else 3e38)
        model.swap_parameter(name, data)
        restore = lambda: model.swap_parameter(name, clean)  # noqa: E731
    elif case == "nan-input" and family == "transformer":
        # token ids cannot carry a NaN: feed the encoder stack an
        # embedded source that does
        x = np.random.default_rng(0).standard_normal(
            (1, 5, model.config.d_model)).astype(np.float32)
        x[0, 1, 2] = np.nan

        def forward():
            with nn.no_grad():
                h = nn.Tensor(x)
                for layer in model.encoder:
                    h = layer(h, None)
        return forward, restore
    elif case == "nan-input":
        payload = request.payload.copy()
        payload.flat[payload.size // 2] = np.nan
        request = Request(request.kind, payload, max_len=request.max_len)
    return lambda: run_microbatch(entry, [request]), restore


def _fake_quantize_read(self, weight):
    """``WeightFakeQuant.__call__`` without the grad-off shortcut: an
    observed read always goes through ``fake_quantize``."""
    entry = self._entry(weight)
    if not hooks.LIVE:
        if not hooks.STATE.grad_enabled:
            return entry[2]
    elif entry[3] is None and sanitize.is_active():
        entry[3] = sanitize.quantize_stats(entry[1], entry[2].data)
    return F.fake_quantize(weight, lambda _data, _q=entry[2].data: _q,
                           stats=entry[3])


def _screen_every_op(monkeypatch):
    """Make every model call find the scope's errstate not in force."""
    monkeypatch.setattr(sanitize._FlagHandler, "in_force",
                        lambda self: False)


def _report(model, forward, settings, inside=None):
    """(findings, ops_checked, truncated, raised finding) of one probe;
    ``inside`` are the modes of an errstate opened inside its scope."""
    sanitizer = nn.Sanitizer(model, **settings)
    raised = None
    try:
        with np.errstate(all="ignore"), sanitizer, \
                np.errstate(**(inside or {})):
            forward()
    except nn.NumericFault as fault:
        raised = _key(fault.finding)
    report = sanitizer.report
    return ([_key(f) for f in report.findings], report.ops_checked,
            report.truncated, raised)


class TestGatedEqualsUngated:
    @pytest.mark.parametrize("quant", QUANTS)
    @pytest.mark.parametrize("action", SETTINGS)
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_report_matches_screening_every_op(self, pools, monkeypatch,
                                               family, case, action, quant):
        entry = pools[quant].get(family)
        forward, restore = _case(entry, family, case)
        try:
            gated = _report(entry.model, forward, SETTINGS[action])
            _screen_every_op(monkeypatch)
            ungated = _report(entry.model, forward, SETTINGS[action])
            monkeypatch.setattr(WeightFakeQuant, "__call__",
                                _fake_quantize_read)
            reference = _report(entry.model, forward, SETTINGS[action])
        finally:
            restore()
        assert gated == ungated == reference
        findings, _, _, raised = gated
        ops = [key[1] for key in findings] + ([raised[1]] if raised else [])
        if case == "clean":
            assert ops == []
        elif quant == "fp32" and case != "nan-input":
            # the fault reached an op; in the transformer and the ResNet
            # one that is screened only on its flag
            assert ops
            if family != "seq2seq":
                assert set(ops) - set(_GEMMS), ops


class _Call(nn.Module):
    """A model call around ``fn``: the gate applies only inside one."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def forward(self):
        return self.fn()


class TestUnflaggedOps:
    """Ops that can write a non-finite value without a float flag on the
    calling thread are screened every time."""

    def test_overflow_flag_lost_in_blas_worker_is_reported(self):
        # A 2048x1024 @ 1024x1024 sgemm splits its rows over OpenBLAS
        # threads: an overflow in row 1024 raises no flag on this one.
        a = np.zeros((2048, 1024), dtype=np.float32)
        a[1024] = 1e36
        b = np.ones((1024, 1024), dtype=np.float32)
        with np.errstate(all="ignore"), nn.Sanitizer() as report:
            _Call(lambda: F.matmul(a, b))()
        assert [(f.kind, f.op) for f in report.findings] \
            == [("forward-overflow", "matmul")]

    def test_overflow_in_deterministic_einsum_is_reported(self):
        # np.einsum raises no float flag at all
        a = np.full((2, 8), 1e38, dtype=np.float32)
        b = np.full((8, 3), 10.0, dtype=np.float32)
        with np.errstate(all="ignore"), nn.deterministic_matmul(), \
                nn.Sanitizer() as report:
            _Call(lambda: F.matmul(a, b))()
        assert [(f.kind, f.op) for f in report.findings] \
            == [("forward-overflow", "matmul")]

    def test_copied_nonfinite_constants_are_reported(self):
        # np.where and np.clip copy a constant without raising a flag
        x = np.ones((2, 4), dtype=np.float32)
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 1] = True
        with nn.Sanitizer(ignore_ops=()) as report:
            _Call(lambda: (F.masked_fill(x, mask, float("-inf")),
                           nn.Tensor(x).clip_values(np.inf, np.inf)))()
        assert [(f.kind, f.op) for f in report.findings] \
            == [("forward-overflow", "masked_fill"),
                ("forward-overflow", "clip_values")]


class TestStaleFlag:
    def test_flag_raised_outside_a_primitive_adds_no_finding(self):
        x = np.ones(4, dtype=np.float32)
        inf = np.full(4, np.inf, dtype=np.float32)
        with np.errstate(all="ignore"), nn.Sanitizer() as report:
            np.float32(3e38) * np.float32(10)   # NumPy code, not an op
            assert hooks.STATE.fp_flagged
            F.add(x, x)                         # clean: screened, quiet
            assert not hooks.STATE.fp_flagged
            np.exp(np.float32(100))
            F.add(inf, x)                       # propagation, not a fault
        assert report.findings == []
        assert report.ops_checked == 2


class TestForeignErrstate:
    """An errstate opened inside the scope that takes the trapped flags
    away from the scope's callback turns the gate off."""

    @pytest.mark.parametrize("inner", ["ignore", "warn", "print",
                                       "other-callback"])
    def test_model_call_screens_every_op(self, pools, monkeypatch, inner,
                                         capfd):
        entry = pools["fp32"].get("transformer")
        forward, restore = _case(entry, "transformer", "exponent-flip")
        modes = ({"call": _Caller()} if inner == "other-callback"
                 else {"all": inner})
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inside = _report(entry.model, forward, {}, modes)
                _screen_every_op(monkeypatch)
                ungated = _report(entry.model, forward, {}, modes)
        finally:
            restore()
        assert inside == ungated
        assert {key[1] for key in inside[0]} - set(_GEMMS), inside

    def test_op_outside_a_module_is_screened(self):
        x = np.full(3, 3e38, dtype=np.float32)
        with nn.Sanitizer() as report:
            nn.ReLU()(x)             # a model call, gated, then over
            with np.errstate(all="ignore"):
                F.mul(x, x)
        assert [(f.kind, f.op) for f in report.findings] \
            == [("forward-overflow", "mul")]

    def test_in_force_reads_the_calling_threads_errstate(self):
        with nn.Sanitizer():
            handler = sanitize.current_state().handler
            assert handler.in_force()
            with np.errstate(under="ignore"):
                assert handler.in_force()
            for modes in ({"all": "ignore"}, {"divide": "warn"},
                          {"invalid": "raise"}, {"call": _Caller()}):
                with np.errstate(**modes):
                    assert not handler.in_force()
            with nn.Sanitizer():
                assert not handler.in_force()
            assert handler.in_force()


class _Caller:
    """The caller's ``errcall``: a callback for "call", a log for "log"."""

    def __init__(self):
        self.events = []

    def __call__(self, err, flag):
        self.events.append(err)

    def write(self, message):
        self.events.append(message)


#: A float32 operand that ``x * x`` overflows or underflows with: the
#: flag a sanitizer traps, and one it leaves in the caller's mode.
_SQUARED = {"over": 3e38, "under": 1e-30}


def _outcome(flag, mode, sanitized, capfd):
    """(warnings, raised error type, errcall events, stderr) of one op
    that raises ``flag`` under ``np.errstate(**{flag: mode})``.  NumPy
    names the ufunc ("... in multiply"); a sanitizer's callback cannot,
    so the name is cut."""
    caller = _Caller()
    raised = None
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with np.errstate(**{flag: mode}, call=caller):
                x = np.full(3, _SQUARED[flag], dtype=np.float32)
                if sanitized:
                    with nn.Sanitizer():
                        F.mul(x, x)
                else:
                    F.mul(x, x)
        except FloatingPointError as error:
            raised = type(error)
    unnamed = lambda text: re.sub(r" in \w+", "", text)  # noqa: E731
    return ([(w.category, unnamed(str(w.message))) for w in caught],
            raised, [unnamed(e) for e in caller.events],
            unnamed(capfd.readouterr().err))


class TestCallerErrorMode:
    @pytest.mark.parametrize(
        "mode", ["ignore", "warn", "raise", "call", "print", "log"])
    @pytest.mark.parametrize("flag", ["over", "under"])
    def test_flag_behaves_as_without_a_sanitizer(self, flag, mode, capfd):
        before = np.geterr()
        plain = _outcome(flag, mode, False, capfd)
        assert _outcome(flag, mode, True, capfd) == plain
        assert np.geterr() == before
        err = {"over": "overflow", "under": "underflow"}[flag]
        warned, raised, events, stderr = plain
        assert warned == ([(RuntimeWarning, f"{err} encountered")]
                          if mode == "warn" else [])
        assert (raised is FloatingPointError) == (mode == "raise")
        assert events == {"call": [err], "log": [
            f"Warning: {err} encountered\n"]}.get(mode, [])
        assert stderr == (f"Warning: {err} encountered\n"
                          if mode == "print" else "")

    def test_errstate_is_restored_on_exit(self):
        before = (np.geterr(), np.geterrcall())
        with nn.Sanitizer():
            inside = np.geterr()
        assert (np.geterr(), np.geterrcall()) == before
        assert (inside["over"], inside["invalid"], inside["divide"]) \
            == ("call", "call", "call")
        assert inside["under"] == before[0]["under"]


class TestOtherThreads:
    def test_sanitizer_leaves_other_threads_errstate_unchanged(self):
        seen = {}
        before = threading.Event()
        entered = threading.Event()
        during = threading.Event()

        def other():
            seen["before"] = (np.geterr(), np.geterrcall())
            before.set()
            entered.wait(10.0)
            seen["during"] = (np.geterr(), np.geterrcall())
            during.set()

        worker = threading.Thread(target=other)
        worker.start()
        assert before.wait(10.0)
        with nn.Sanitizer():
            entered.set()
            assert during.wait(10.0)
        worker.join(10.0)
        assert not worker.is_alive()
        assert seen["during"] == seen["before"]
        modes, call = seen["during"]
        assert "call" not in (modes["over"], modes["invalid"],
                              modes["divide"])
        assert not isinstance(call, sanitize._FlagHandler)
