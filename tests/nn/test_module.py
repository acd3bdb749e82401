"""Unit tests for Module parameter access and the in-place swap."""

import numpy as np
import pytest

from repro import nn, obs
from repro.nn.quantize import QuantSpec, attach_weight_quantizers


def _memo():
    """``repro_weight_quant_cache_total`` so far, by outcome."""
    family = obs.REGISTRY.get("repro_weight_quant_cache_total")
    return {o: family.labels(outcome=o).value for o in ("hit", "miss")}


def _model():
    return nn.Sequential(nn.Linear(4, 8, rng=np.random.default_rng(0)),
                         nn.Linear(8, 2, rng=np.random.default_rng(1)))


class TestGetParameter:
    def test_resolves_nested_names(self):
        model = _model()
        for name, param in model.named_parameters():
            assert model.get_parameter(name) is param

    def test_missing_submodule(self):
        with pytest.raises(KeyError, match="no submodule"):
            _model().get_parameter("9.weight")

    def test_missing_parameter(self):
        with pytest.raises(KeyError, match="no parameter"):
            _model().get_parameter("0.nonexistent")


class TestSwapParameter:
    def test_swap_and_restore_round_trip(self):
        model = _model()
        name = "0.weight"
        param = model.get_parameter(name)
        original = param.data
        replacement = np.full_like(original, 7.0)

        returned = model.swap_parameter(name, replacement)
        assert returned is original
        assert param.data is replacement

        back = model.swap_parameter(name, returned)
        assert back is replacement
        assert param.data is original

    def test_swap_bumps_version_both_ways(self):
        model = _model()
        param = model.get_parameter("0.weight")
        v0 = param.version
        old = model.swap_parameter("0.weight", np.zeros_like(param.data))
        assert param.version == v0 + 1
        model.swap_parameter("0.weight", old)
        assert param.version == v0 + 2

    def test_swap_casts_to_float32(self):
        model = _model()
        param = model.get_parameter("0.weight")
        model.swap_parameter("0.weight",
                             np.zeros(param.data.shape, dtype=np.float64))
        assert param.data.dtype == np.float32

    def test_shape_mismatch_rejected(self):
        model = _model()
        with pytest.raises(ValueError, match="shape mismatch"):
            model.swap_parameter("0.weight", np.zeros((1, 1),
                                                      dtype=np.float32))

    def test_swap_matches_load_state_dict_result(self):
        model_a, model_b = _model(), _model()
        state = model_a.state_dict()
        x = np.random.default_rng(3).normal(size=(5, 4)).astype(np.float32)

        faulty = state["0.weight"] * 2.0
        full = dict(state)
        full["0.weight"] = faulty
        model_a.load_state_dict(full)
        model_b.load_state_dict(state)
        model_b.swap_parameter("0.weight", faulty.astype(np.float32))

        out_a = model_a(nn.Tensor(x)).data
        out_b = model_b(nn.Tensor(x)).data
        np.testing.assert_array_equal(out_a, out_b)

    def test_swap_invalidates_weight_quant_cache(self):
        model = _model()
        attach_weight_quantizers(model, QuantSpec("adaptivfloat", 8))
        x = nn.Tensor(np.ones((2, 4), dtype=np.float32))
        model(x)
        before = _memo()
        model(x)
        # second forward served from the memo: one hit per weight
        assert _memo() == {"hit": before["hit"] + 2, "miss": before["miss"]}

        old = model.swap_parameter("0.weight",
                                   model.get_parameter("0.weight").data * 4.0)
        before = _memo()
        model(x)
        # version bump forced a requant of the swapped weight alone
        assert _memo() == {"hit": before["hit"] + 1,
                           "miss": before["miss"] + 1}

        model.swap_parameter("0.weight", old)
        before = _memo()
        model(x)
        assert _memo()["miss"] == before["miss"] + 1  # restore invalidates
