"""Tests for stateful layers: shapes, semantics, gradients, registration."""

import numpy as np
import pytest

from repro.nn import (LSTM, AdditiveAttention, BatchNorm2d, Conv2d, Dropout,
                      Embedding, LSTMCell, LayerNorm, Linear,
                      MultiHeadAttention, Sequential, ReLU, Tensor, no_grad)

from .gradcheck import check_gradients


def data(*shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape).astype(np.float32) * scale)


class TestLinear:
    def test_shapes(self):
        layer = Linear(8, 3)
        assert layer(data(5, 8)).shape == (5, 3)
        assert layer(data(2, 7, 8)).shape == (2, 7, 3)

    def test_trains_to_fit_line(self):
        from repro.nn import SGD
        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 2)).astype(np.float32)
        true_w = np.array([[2.0, -3.0]], dtype=np.float32)
        y = x @ true_w.T + 0.5
        layer = Linear(2, 1)
        opt = SGD(layer.parameters(), lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            pred = layer(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=1e-2)
        np.testing.assert_allclose(layer.bias.data, [0.5], atol=1e-2)

    def test_parameter_gradients(self):
        layer = Linear(4, 3)
        x = data(2, 4)
        check_gradients(lambda w, b: x @ w.swapaxes(0, 1) + b,
                        [layer.weight, layer.bias])


class TestNorms:
    def test_layernorm_output_stats(self):
        layer = LayerNorm(32)
        out = layer(data(4, 32, scale=7.0) + 3.0)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_gradients(self):
        layer = LayerNorm(6)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 6)).astype(np.float32),
                   requires_grad=True)
        check_gradients(lambda t: layer(t), [x])

    def test_batchnorm_train_stats(self):
        layer = BatchNorm2d(3)
        out = layer(data(8, 3, 4, 4, scale=5.0) + 2.0)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_batchnorm_running_stats_used_in_eval(self):
        layer = BatchNorm2d(2)
        x = data(16, 2, 4, 4, scale=3.0) + 1.0
        for _ in range(100):
            layer(x)
        layer.eval()
        out_eval = layer(x)
        # With converged running stats, eval output ~ train output.
        layer.train()
        out_train = layer(x)
        np.testing.assert_allclose(out_eval.data, out_train.data, atol=0.05)

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("make, shape", [
        (lambda: LayerNorm(6), (3, 6)), (lambda: BatchNorm2d(3), (4, 3, 4, 4)),
        (lambda: BatchNorm2d(3).eval(), (4, 3, 4, 4))])
    def test_float32_eps_matches_python_float(self, make, shape, grad):
        x = data(*shape, scale=1e-3)    # variance near eps, so eps counts
        runs = []
        for layer in (make(), make()):
            if runs:
                layer.eps = 1e-5        # the Python float it replaced
            t = Tensor(x.data, requires_grad=True)
            if grad:
                out = layer(t)
                out.sum().backward()
                runs.append([out.data, t.grad, layer.weight.grad,
                             layer.bias.grad])
            else:
                with no_grad():
                    runs.append([layer(t).data])
        for new, old in zip(*runs):
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes()

    def test_batchnorm_eval_no_stat_update(self):
        layer = BatchNorm2d(2).eval()
        before = layer.running_mean.copy()
        layer(data(4, 2, 4, 4))
        np.testing.assert_array_equal(layer.running_mean, before)


class TestConvLayer:
    def test_shape_and_padding(self):
        layer = Conv2d(3, 8, kernel_size=3, stride=1, padding=1)
        assert layer(data(2, 3, 8, 8)).shape == (2, 8, 8, 8)

    def test_downsample(self):
        layer = Conv2d(3, 8, kernel_size=3, stride=2, padding=1)
        assert layer(data(2, 3, 8, 8)).shape == (2, 8, 4, 4)


class TestEmbedding:
    def test_lookup(self):
        layer = Embedding(10, 4)
        ids = np.array([[1, 2], [3, 3]])
        out = layer(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[1, 0], layer.weight.data[3])


class TestLSTM:
    def test_cell_shapes(self):
        cell = LSTMCell(6, 8)
        h, c = cell.initial_state(4)
        h2, c2 = cell(data(4, 6), (h, c))
        assert h2.shape == (4, 8) and c2.shape == (4, 8)

    def test_sequence_shapes(self):
        lstm = LSTM(6, 8, num_layers=2)
        out, state = lstm(data(4, 5, 6))
        assert out.shape == (4, 5, 8)
        assert len(state) == 2
        np.testing.assert_allclose(out.data[:, -1, :], state[-1][0].data)

    def test_gradients_flow_through_time(self):
        lstm = LSTM(3, 4)
        x = data(2, 6, 3)
        out, _ = lstm(x)
        out.sum().backward()
        for _, p in lstm.named_parameters():
            assert p.grad is not None
            assert np.abs(p.grad).sum() > 0

    def test_learns_to_remember_first_token(self):
        """An LSTM must be able to latch a bit across 8 steps."""
        from repro.nn import Adam, functional as F
        rng = np.random.default_rng(0)
        lstm = LSTM(2, 16, rng=rng)
        head = Linear(16, 2, rng=rng)
        params = lstm.parameters() + head.parameters()
        opt = Adam(params, lr=1e-2)
        for _ in range(150):
            bits = rng.integers(0, 2, size=16)
            x = np.zeros((16, 8, 2), dtype=np.float32)
            x[np.arange(16), 0, bits] = 1.0
            out, _ = lstm(Tensor(x))
            logits = head(out[:, -1, :])
            loss = F.cross_entropy(logits, bits)
            opt.zero_grad()
            loss.backward()
            opt.step()
        bits = rng.integers(0, 2, size=32)
        x = np.zeros((32, 8, 2), dtype=np.float32)
        x[np.arange(32), 0, bits] = 1.0
        out, _ = lstm(Tensor(x))
        pred = head(out[:, -1, :]).data.argmax(axis=-1)
        assert (pred == bits).mean() > 0.9


class TestAttention:
    def test_mha_shape(self):
        mha = MultiHeadAttention(16, 4)
        q, k, v = data(2, 5, 16), data(2, 7, 16, seed=1), data(2, 7, 16, seed=2)
        assert mha(q, k, v).shape == (2, 5, 16)

    def test_mha_mask_blocks_positions(self):
        mha = MultiHeadAttention(8, 2)
        x = data(1, 4, 8)
        # Causal mask: position 0 may only attend to itself; changing
        # position 3 must not change output at position 0.
        causal = np.triu(np.ones((4, 4), dtype=bool), k=1)[None, None]
        out1 = mha(x, x, x, mask=causal).data.copy()
        x2 = Tensor(x.data.copy())
        x2.data[0, 3] += 10.0
        out2 = mha(x2, x2, x2, mask=causal).data
        np.testing.assert_allclose(out1[0, 0], out2[0, 0], atol=1e-5)
        assert not np.allclose(out1[0, 3], out2[0, 3], atol=1e-3)

    def test_mha_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_additive_attention_weights(self):
        attn = AdditiveAttention(4, 6, 8)
        ctx = attn(data(3, 4), data(3, 5, 6, seed=1))
        assert ctx.shape == (3, 6)

    def test_additive_attention_mask(self):
        attn = AdditiveAttention(4, 6, 8)
        keys = data(2, 5, 6, seed=1)
        mask = np.zeros((2, 5), dtype=bool)
        mask[:, 3:] = True  # block the padded tail
        ctx1 = attn(data(2, 4), keys, mask=mask).data.copy()
        keys.data[:, 3:] += 100.0  # perturb only blocked positions
        ctx2 = attn(data(2, 4), keys, mask=mask).data
        np.testing.assert_allclose(ctx1, ctx2, atol=1e-5)


class TestModuleSystem:
    def test_named_parameters_paths(self):
        model = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        names = dict(model.named_parameters())
        assert "0.weight" in names and "2.bias" in names

    def test_state_dict_roundtrip(self):
        model = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        state = model.state_dict()
        model2 = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        model2.load_state_dict(state)
        x = data(3, 4)
        np.testing.assert_allclose(model(x).data, model2(x).data)

    def test_state_dict_mismatch_raises(self):
        model = Sequential(Linear(4, 8))
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.zeros(3)})

    def test_dropout_mode_follows_module(self):
        layer = Dropout(0.5)
        x = data(100, 100)
        layer.eval()
        assert layer(x) is x
        layer.train()
        assert (layer(x).data == 0).mean() > 0.3

    def test_num_parameters(self):
        assert Linear(4, 8).num_parameters() == 4 * 8 + 8
