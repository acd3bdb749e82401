"""Tests for magnitude pruning and its composition with quantization."""

import numpy as np
import pytest

from repro.formats import AdaptivFloat
from repro.nn import QuantSpec, quantize_weights_inplace
from repro.nn.models import MLP
from repro.nn.prune import magnitude_prune, sparsity_report


def model_with_weights(seed=0):
    return MLP([16, 32, 8], rng=np.random.default_rng(seed))


class TestMagnitudePrune:
    def test_global_sparsity_hits_target(self):
        model = model_with_weights()
        magnitude_prune(model, 0.5, scope="global")
        report = sparsity_report(model)
        assert report["__overall__"] == pytest.approx(0.5, abs=0.02)

    def test_layer_scope_prunes_each_layer(self):
        model = model_with_weights()
        magnitude_prune(model, 0.5, scope="layer")
        report = sparsity_report(model)
        for name, rate in report.items():
            if name != "__overall__":
                assert rate == pytest.approx(0.5, abs=0.02), name

    def test_keeps_largest_weights(self):
        model = model_with_weights()
        big = float(np.abs(model.layers[0].weight.data).max())
        magnitude_prune(model, 0.9)
        assert np.abs(model.layers[0].weight.data).max() == pytest.approx(big)

    def test_masks_returned(self):
        model = model_with_weights()
        masks = magnitude_prune(model, 0.3)
        for name, mask in masks.items():
            assert mask.dtype == bool

    def test_zero_sparsity_is_noop(self):
        model = model_with_weights()
        before = model.layers[0].weight.data.copy()
        magnitude_prune(model, 0.0)
        np.testing.assert_array_equal(model.layers[0].weight.data, before)

    def test_invalid_args(self):
        model = model_with_weights()
        with pytest.raises(ValueError):
            magnitude_prune(model, 1.0)
        with pytest.raises(ValueError):
            magnitude_prune(model, 0.5, scope="banana")


class TestComposesWithQuantization:
    def test_adaptivfloat_preserves_pruned_zeros(self):
        """The paper's Section 2 composition claim: AdaptivFloat encodes
        zero exactly, so sparsity survives quantization bit-for-bit."""
        model = model_with_weights()
        magnitude_prune(model, 0.6)
        before = sparsity_report(model)["__overall__"]
        quantize_weights_inplace(model, QuantSpec("adaptivfloat", 6))
        after = sparsity_report(model)["__overall__"]
        assert after >= before  # tiny nonzeros may round to 0, never 0->nonzero

    def test_zero_is_exact_codepoint(self):
        fmt = AdaptivFloat(8, 3)
        out = fmt.quantize_with_params(np.zeros(4), {"exp_bias": -4})
        assert (out == 0.0).all()

    def test_pruned_plus_quantized_model_close_to_quantized(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 16)).astype(np.float32)
        model = model_with_weights()
        dense = model(x).data.copy()
        magnitude_prune(model, 0.3)
        quantize_weights_inplace(model, QuantSpec("adaptivfloat", 8))
        sparse_q = model(x).data
        # 30% of the smallest weights + 8-bit quantization: outputs move,
        # but remain correlated with the dense model.
        corr = np.corrcoef(dense.ravel(), sparse_q.ravel())[0, 1]
        assert corr > 0.9
