import json
from dataclasses import replace

import numpy as np
import pytest

from bayeslora.adapter import forward_flipout, forward_mean, forward_naive_shared
from bayeslora.network import (
    NonFiniteLossError,
    cross_entropy,
    kl_term,
    load_net,
    net_forward,
    save_net,
    softmax_columns,
)
from bayeslora.parammaps import ParamMap
from bayeslora.training import TrainConfig, build_small_net, elbo_minibatch


def _randomized_net(config, hidden=(4,), input_dim=6, n_classes=3, rank=2, seed=11):
    """Built net with parameters moved off their init values."""
    rng = np.random.default_rng(seed)
    net = build_small_net(input_dim, hidden, n_classes, rank, replace(config, seed=seed))
    for layer in net.layers:
        layer.adapter.b[...] = rng.normal(0, 0.5, layer.adapter.b.shape)
        layer.adapter.mean_a[...] = rng.normal(0, 0.5, layer.adapter.mean_a.shape)
        layer.adapter.g[...] = rng.uniform(0.2, 0.8, layer.adapter.g.shape)
        if layer.g_b is not None:
            layer.g_b[...] = rng.uniform(0.2, 0.8, layer.g_b.shape)
    return net


def _finite_difference_check(config, hidden=(4,), kl_weight=0.3, seed=11, h=1e-5, tol=1e-5):
    net = _randomized_net(config, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(8, net.input_dim))
    y = rng.integers(0, net.n_classes, size=8)
    res = elbo_minibatch(net, x, y, config, kl_weight, seed=99)
    analytic = net.views(res.likelihood_grad + kl_weight * res.kl_grad)
    worst = 0.0
    for key, param in net.trainable_params().items():
        grad = analytic[key]
        flat = param.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = elbo_minibatch(net, x, y, config, kl_weight, seed=99).loss
            flat[idx] = orig - h
            dn = elbo_minibatch(net, x, y, config, kl_weight, seed=99).loss
            flat[idx] = orig
            fd = (up - dn) / (2.0 * h)
            an = grad.reshape(-1)[idx]
            err = abs(an - fd)
            if err > 1e-8:
                worst = max(worst, err / max(abs(an), abs(fd)))
    assert worst <= tol, f"worst relative gradient error {worst:.3e}"


class TestSoftmaxCrossEntropy:
    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax_columns(rng.normal(size=(4, 9)) * 10)
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)

    def test_cross_entropy_perfect(self):
        probs = np.eye(3)
        assert cross_entropy(probs, np.array([0, 1, 2])) == 0.0

    def test_softmax_large_logits_stable(self):
        p = softmax_columns(np.array([[1000.0], [0.0]]))
        assert np.isfinite(p).all() and p[0, 0] == pytest.approx(1.0)


class TestForwardConsistency:
    """The net runs the adapter-module op: each layer reproduces it exactly."""

    def test_mean_forward_matches_manual_stack(self):
        config = TrainConfig(seed=5)
        net = _randomized_net(config, hidden=(5, 4), seed=5)
        rng = np.random.default_rng(6)
        h0 = rng.normal(size=(net.input_dim, 7))
        fwd = net_forward(net, h0, mode="mean")
        h = h0
        for layer in net.layers:
            ad = layer.adapter
            manual = ad.w0 @ h + ad.b @ (ad.mean_a @ h)
            np.testing.assert_array_equal(forward_mean(ad, h), manual)
            h = np.tanh(manual + layer.bias[:, None])
        logits = net.head_w @ h + net.head_b[:, None]
        np.testing.assert_array_equal(fwd.logits, logits)

    def test_flipout_layer_matches_adapter_op(self):
        config = TrainConfig(seed=7)
        net = _randomized_net(config, hidden=(4,), seed=7)
        rng = np.random.default_rng(8)
        h0 = rng.normal(size=(net.input_dim, 6))
        fwd = net_forward(net, h0, mode="flipout", rng=np.random.default_rng(123))
        cache = fwd.layer_caches[0]
        z_adapter = forward_flipout(net.layers[0].adapter, h0, cache.draws)
        np.testing.assert_array_equal(
            cache.h_out, np.tanh(z_adapter + net.layers[0].bias[:, None])
        )

    def test_shared_layer_matches_adapter_op(self):
        config = TrainConfig(seed=9, sampling="shared")
        net = _randomized_net(config, hidden=(4,), seed=9)
        rng = np.random.default_rng(10)
        h0 = rng.normal(size=(net.input_dim, 6))
        fwd = net_forward(net, h0, mode="shared", rng=np.random.default_rng(321))
        cache = fwd.layer_caches[0]
        (noise,) = cache.draws
        z_adapter = forward_naive_shared(net.layers[0].adapter, h0, noise)
        np.testing.assert_array_equal(
            cache.h_out, np.tanh(z_adapter + net.layers[0].bias[:, None])
        )

    def test_stochastic_mode_requires_rng(self):
        config = TrainConfig(seed=1)
        net = _randomized_net(config, seed=1)
        with pytest.raises(ValueError):
            net_forward(net, np.zeros((net.input_dim, 2)), mode="flipout", rng=None)


class TestGradients:
    """Analytic reverse-mode gradients vs central finite differences."""

    def test_flipout_square(self):
        _finite_difference_check(TrainConfig(seed=3, k_train_samples=2))

    def test_shared_square(self):
        _finite_difference_check(TrainConfig(seed=3, sampling="shared"))

    def test_deterministic(self):
        _finite_difference_check(TrainConfig(seed=3, sampling="none"))

    def test_softplus_shared(self):
        _finite_difference_check(
            TrainConfig(seed=3, sampling="shared", param_map=ParamMap.SOFTPLUS, kl_mode="uniform")
        )

    def test_with_dropout(self):
        _finite_difference_check(TrainConfig(seed=3, dropout_p=0.25), tol=5e-5)

    def test_with_bayesianized_b(self):
        _finite_difference_check(TrainConfig(seed=3, bayesianize_b=True))

    def test_two_hidden_layers(self):
        _finite_difference_check(TrainConfig(seed=3, k_train_samples=2), hidden=(5, 4))

    def test_kl_gradient_of_g_entry(self):
        # d/dg [(m^2 + g^4)/(2 sp^2) - 2 log g] = 2 g^3 / sp^2 - 2 / g
        config = TrainConfig(seed=4, sigma_p=0.3)
        net = _randomized_net(config, hidden=(4,), seed=4)
        _, grad = kl_term(net, config.sigma_p)
        g = net.layers[0].adapter.g
        expected = 2.0 * g**3 / config.sigma_p**2 - 2.0 / g
        np.testing.assert_allclose(net.views(grad)["layers.0.g"], expected, rtol=1e-12)


class TestKlTerm:
    def test_zero_g_raises_named_error(self):
        config = TrainConfig(seed=5)
        net = _randomized_net(config, seed=5)
        net.layers[0].adapter.g[0, 0] = 0.0
        with pytest.raises(NonFiniteLossError) as err:
            kl_term(net, config.sigma_p)
        assert err.value.component == "kl"

    def test_gradient_is_a_flat_layout_vector(self):
        """Head and non-Bayesianized b have no KL: their slices are zero."""
        config = TrainConfig(seed=6)
        net = _randomized_net(config, seed=6)
        value, grad = kl_term(net, config.sigma_p)
        assert isinstance(value, float)
        assert grad.shape == (sum(p.size for p in net.trainable_params().values()),)
        views = net.views(grad)
        for key in ("head.w", "head.b", "layers.0.b"):
            np.testing.assert_array_equal(views[key], 0.0)
        assert np.all(views["layers.0.g"] != 0.0)

    def test_matches_closed_form_sum(self):
        from bayeslora.kl import PriorSpec, kl_closed_form

        config = TrainConfig(seed=6, sigma_p=0.4)
        net = _randomized_net(config, hidden=(5, 4), seed=6)
        value, _ = kl_term(net, config.sigma_p)
        expected = sum(
            kl_closed_form(l.adapter.mean_a, l.adapter.g, PriorSpec(config.sigma_p))
            for l in net.layers
        )
        assert value == pytest.approx(expected, rel=1e-12)


class TestModelSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        config = TrainConfig(seed=12, dropout_p=0.1, bayesianize_b=True)
        net = _randomized_net(config, hidden=(5, 4), seed=12)
        path = tmp_path / "model.txt"
        save_net(net, str(path))
        back = load_net(str(path))
        assert back.param_map is net.param_map
        assert back.dropout_p == net.dropout_p
        assert back.b_std_scale == net.b_std_scale
        for a, b in zip(net.layers, back.layers):
            np.testing.assert_array_equal(a.adapter.w0, b.adapter.w0)
            np.testing.assert_array_equal(a.adapter.b, b.adapter.b)
            np.testing.assert_array_equal(a.adapter.mean_a, b.adapter.mean_a)
            np.testing.assert_array_equal(a.adapter.g, b.adapter.g)
            np.testing.assert_array_equal(a.bias, b.bias)
            np.testing.assert_array_equal(a.g_b, b.g_b)
        np.testing.assert_array_equal(net.head_w, back.head_w)
        np.testing.assert_array_equal(net.head_b, back.head_b)

    def test_prediction_identical_after_reload(self, tmp_path):
        from bayeslora.training import predict

        config = TrainConfig(seed=13)
        net = _randomized_net(config, seed=13)
        path = tmp_path / "model.txt"
        save_net(net, str(path))
        back = load_net(str(path))
        x = np.random.default_rng(14).normal(size=(10, net.input_dim))
        np.testing.assert_array_equal(predict(net, x, 5, seed=2), predict(back, x, 5, seed=2))

    @pytest.mark.parametrize(
        "mutate, field",
        [
            pytest.param(lambda ls: ["bayeslora-adapter 1"] + ls[1:], "^not a bayeslora-model v1 file",
                         id="bad-magic"),
            pytest.param(lambda ls: ls[:-1], "^hb:", id="truncated-last-line"),
            pytest.param(lambda ls: ls[:5], "^mean_a:", id="truncated-in-layer"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "n_layers")] + ls[2:], "^meta:",
                         id="missing-meta-key"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "n_layers", 0)] + ls[2:], "^meta:",
                         id="zero-layers"),
            pytest.param(lambda ls: _set_last_token(ls, "layer ", "2"), "^layer:", id="g_b-flag-2"),
            pytest.param(lambda ls: _set_last_token(ls, "head ", "9"), "^head:",
                         id="head-width-mismatch"),
            pytest.param(lambda ls: [("x" + l[1:] if l.startswith("w ") else l) for l in ls], "^w:",
                         id="wrong-head-row-tag"),
            pytest.param(lambda ls: _set_first_entry(ls, "hb ", "nan"), "^hb:", id="nan-in-hb"),
            pytest.param(lambda ls: _set_first_entry(ls, "bias ", "inf"), "^bias:",
                         id="inf-in-bias"),
            pytest.param(lambda ls: _set_first_entry(ls, "g ", "0xzz"), "^g:", id="bad-hex-in-g"),
            pytest.param(lambda ls: ls + ["junk"], "^hb: trailing", id="trailing-junk"),
        ],
    )
    def test_malformed_file_rejected_with_field_named(self, tmp_path, mutate, field):
        net = _randomized_net(TrainConfig(seed=15, bayesianize_b=True), hidden=(5, 4), seed=15)
        path = tmp_path / "model.txt"
        save_net(net, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutate(lines)) + "\n")
        with pytest.raises(ValueError, match=field):
            load_net(str(path))


def _edit_meta(line: str, key: str, value=None) -> str:
    """Set ``key`` of the meta line to ``value``, or drop it when None."""
    meta = json.loads(line[len("meta "):])
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    return "meta " + json.dumps(meta, sort_keys=True)


def _set_last_token(lines: list[str], prefix: str, token: str) -> list[str]:
    """Replace the last token of the first line that starts with ``prefix``."""
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = " ".join(lines[i].split()[:-1] + [token])
    return lines


def _set_first_entry(lines: list[str], prefix: str, token: str) -> list[str]:
    """Replace the first entry of the first line that starts with ``prefix``."""
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    tag, _, payload = lines[i].partition(" ")
    lines[i] = " ".join([tag, token] + payload.split()[1:])
    return lines
