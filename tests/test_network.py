import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bayeslora.adapter import VariationalAdapter, branch_draws, forward_flipout, forward_mean, forward_naive_shared
from bayeslora import kl, network
from bayeslora.network import (
    NonFiniteLossError,
    cross_entropy,
    kl_term,
    load_net,
    net_forward,
    save_net,
    softmax_columns,
    stack_nets,
)
from bayeslora.parammaps import ParamMap, apply_map
from bayeslora.training import TrainConfig, build_small_net, elbo_minibatch


def _randomized_net(config, hidden=(4,), input_dim=6, n_classes=3, rank=2, seed=11):
    """Built net with parameters moved off their init values."""
    rng = np.random.default_rng(seed)
    net = build_small_net(input_dim, hidden, n_classes, rank, replace(config, seed=seed))
    for layer in net.layers:
        layer.b[...] = rng.normal(0, 0.5, layer.b.shape)
        layer.mean_a[...] = rng.normal(0, 0.5, layer.mean_a.shape)
        layer.g[...] = rng.uniform(0.2, 0.8, layer.g.shape)
    return net


def _finite_difference_check(config, hidden=(4,), kl_weight=0.3, seed=11, h=1e-5, tol=1e-5):
    net = _randomized_net(config, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(8, net.input_dim))
    y = rng.integers(0, net.n_classes, size=8)
    res = elbo_minibatch(net, x, y, config, kl_weight, seed=99)
    analytic = net.views(res.likelihood_grad + kl_weight * np.pad(res.kl_grad, (net.kl_span.start, 0)))
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
        assert cross_entropy(probs, np.array([0, 1, 2])).hex() == (0.0).hex()  # +0.0, never -0.0

    def test_cross_entropy_exact_zero_is_inf_without_warning(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cross_entropy(probs, np.array([1, 1])) == np.inf

    def test_cross_entropy_nan_stays_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(cross_entropy(np.array([[np.nan, 0.5], [0.2, 0.5]]), np.array([0, 1])))
            assert np.isnan(cross_entropy(np.array([[np.nan, 0.0]]), np.array([0, 0])))

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
        for ad in net.layers:
            manual = ad.w0 @ h + ad.b @ (ad.mean_a @ h)
            np.testing.assert_array_equal(forward_mean(ad, h), manual)
            h = np.tanh(manual + ad.bias[:, None])
        logits = net.head_w @ h + net.head_b[:, None]
        np.testing.assert_array_equal(fwd.logits, logits)

    def test_flipout_layer_matches_adapter_op(self):
        config = TrainConfig(seed=7)
        net = _randomized_net(config, hidden=(4,), seed=7)
        rng = np.random.default_rng(8)
        h0 = rng.normal(size=(net.input_dim, 6))
        fwd = net_forward(net, h0, mode="flipout", rng=np.random.default_rng(123))
        cache = fwd.layer_caches[0]
        z_adapter = forward_flipout(net.layers[0], cache.omega, h0, cache.draws)
        np.testing.assert_array_equal(
            cache.h_out, np.tanh(z_adapter + net.layers[0].bias[:, None])
        )

    @pytest.mark.parametrize("pmap", list(ParamMap))
    def test_shared_layer_matches_adapter_op(self, pmap):
        """Under either map (softplus with shared noise is bbb's layer), the
        checked op at the std the net used gives the layer's bytes."""
        config = TrainConfig(seed=9, sampling="shared", param_map=pmap)
        net = _randomized_net(config, hidden=(4,), seed=9)
        rng = np.random.default_rng(10)
        h0 = rng.normal(size=(net.input_dim, 6))
        fwd = net_forward(net, h0, mode="shared", rng=np.random.default_rng(321))
        cache = fwd.layer_caches[0]
        (noise,) = cache.draws
        z_adapter = forward_naive_shared(net.layers[0], cache.omega, h0, noise)
        np.testing.assert_array_equal(
            cache.h_out, np.tanh(z_adapter + net.layers[0].bias[:, None])
        )

    @pytest.mark.parametrize("mode", ["mean", "flipout", "shared"])
    def test_dropout_masks_exactly_when_the_pass_holds_an_rng(self, mode):
        """A dropout net's mean pass without an rng is its pass at
        dropout_p = 0; given an rng, each layer draws its mask, then its
        branch draws, and nothing more."""
        net = _randomized_net(TrainConfig(seed=17, dropout_p=0.3), hidden=(5, 4), seed=17)
        h0 = np.random.default_rng(18).normal(size=(net.input_dim, 6))
        plain = net_forward(net, h0, mode="mean")
        assert [cache.drop_mask for cache in plain.layer_caches] == [None, None]
        np.testing.assert_array_equal(plain.logits, net_forward(replace(net, dropout_p=0.0), h0, mode="mean").logits)
        rng, twin = np.random.default_rng(19), np.random.default_rng(19)
        fwd = net_forward(net, h0, mode=mode, rng=rng)
        keep = 1.0 - net.dropout_p
        for ad, cache in zip(net.layers, fwd.layer_caches):
            np.testing.assert_array_equal(cache.drop_mask, (twin.random(size=(ad.n, 6)) < keep) / keep)
            draws = branch_draws(mode, twin, ad.n, 6, ad.rank)
            assert len(cache.draws) == len(draws)
            for got, want in zip(cache.draws, draws):
                np.testing.assert_array_equal(got, want)
        assert rng.random() == twin.random()

    def test_stochastic_mode_requires_rng(self):
        config = TrainConfig(seed=1)
        net = _randomized_net(config, seed=1)
        with pytest.raises(ValueError):
            net_forward(net, np.zeros((net.input_dim, 2)), mode="flipout", rng=None)


class TestGradients:
    """Analytic reverse-mode gradients vs central finite differences."""

    def test_flipout_square(self):
        _finite_difference_check(TrainConfig(seed=3))

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

    def test_two_hidden_layers(self):
        _finite_difference_check(TrainConfig(seed=3), hidden=(5, 4))

    def test_kl_gradient_of_g_entry(self):
        # d/dg [(m^2 + g^4)/(2 sp^2) - 2 log g] = 2 g^3 / sp^2 - 2 / g
        config = TrainConfig(seed=4, sigma_p=0.3)
        net = _randomized_net(config, hidden=(4,), seed=4)
        _, grad = kl_term(net, config.sigma_p)
        g = net.layers[0].g
        expected = 2.0 * g**3 / config.sigma_p**2 - 2.0 / g
        np.testing.assert_allclose(
            net.views(np.pad(grad, (net.kl_span.start, 0)))["layers.0.g"], expected, rtol=1e-12
        )


class TestKlTerm:
    def test_zero_g_raises_named_error(self):
        config = TrainConfig(seed=5)
        net = _randomized_net(config, hidden=(5, 4), seed=5)
        net.layers[1].g[1, 2] = 0.0
        with pytest.raises(NonFiniteLossError) as err:
            kl_term(net, config.sigma_p)
        assert err.value.component == "kl"
        assert str(err.value.__cause__).startswith("layer 1: some omega entry is <= 0")

    def test_calls_the_one_closed_form_once_with_a_factor_per_layer(self, monkeypatch):
        """kl_term computes no KL of its own: each call makes exactly one
        ``kl.gaussian_kl`` call, over the span's means and omega = map(g),
        with one factor per layer's mean_a columns, and returns its value."""
        assert network.gaussian_kl is kl.gaussian_kl
        calls = []

        def spy(*args):
            calls.append(args)
            return kl.gaussian_kl(*args)

        monkeypatch.setattr(network, "gaussian_kl", spy)
        config = TrainConfig(seed=6, sigma_p=0.4)
        nets = [_randomized_net(config, hidden=(5, 4), seed=seed) for seed in (6, 7)]
        net = nets[0]
        means = np.concatenate([l.mean_a.ravel() for l in net.layers])
        omega = np.concatenate([apply_map(net.param_map, l.g).ravel() for l in net.layers])
        for repeat in (1, 2):
            value, _ = kl_term(net, config.sigma_p)
            assert len(calls) == repeat
        for args in calls:
            assert args[2:] == (config.sigma_p, [slice(0, 12), slice(12, 22)])
            np.testing.assert_array_equal(args[0], means)
            np.testing.assert_array_equal(args[1], omega)
        assert value == kl.gaussian_kl(means, omega, config.sigma_p, [slice(0, 12), slice(12, 22)])[0]

        stacked, _ = stack_nets(nets)
        values, _ = kl_term(stacked, config.sigma_p)
        assert len(calls) == 3
        assert calls[-1][0].shape == calls[-1][1].shape == (2, 22)
        assert values.shape == (2,)

    def test_gradient_covers_the_kl_span(self):
        """The gradient covers the layout's tail from the first mean_a; the
        head and every b lie before it."""
        config = TrainConfig(seed=6)
        net = _randomized_net(config, seed=6)
        value, grad = kl_term(net, config.sigma_p)
        assert isinstance(value, float)
        offsets = net.views(np.arange(sum(p.size for p in net.trainable_params().values())))
        assert net.kl_span.start == offsets["layers.0.mean_a"].flat[0]
        assert grad.shape == (offsets["layers.0.g"].size * 2,)
        assert np.all(net.views(np.pad(grad, (net.kl_span.start, 0)))["layers.0.g"] != 0.0)

    def test_layout_key_order(self):
        """Head, every b, every mean_a, every g: the KL span starts at the
        first mean_a and ends the layout."""
        net = build_small_net(2, (5, 4), 2, 2, TrainConfig(seed=7))
        assert list(net.trainable_params()) == ["head.w", "head.b", "layers.0.b", "layers.1.b", "layers.0.mean_a",
                                                "layers.1.mean_a", "layers.0.g", "layers.1.g"]
        offsets = net.views(np.arange(sum(p.size for p in net.trainable_params().values())))
        assert net.kl_span.start == offsets["layers.0.mean_a"].flat[0]

    @pytest.mark.parametrize("pmap", list(ParamMap))
    def test_matches_closed_form_sum(self, pmap):
        from bayeslora.kl import PriorSpec, kl_closed_form

        config = TrainConfig(seed=6, sigma_p=0.4, param_map=pmap)
        net = _randomized_net(config, hidden=(5, 4), seed=6)
        value, _ = kl_term(net, config.sigma_p)
        expected = sum(
            kl_closed_form(l.mean_a, apply_map(pmap, l.g), PriorSpec(config.sigma_p))
            for l in net.layers
        )
        assert value == pytest.approx(expected, rel=1e-12)


class TestStackNets:
    def test_layers_carry_every_members_stacked_field(self):
        """Each stacked layer is one adapter whose every field, the frozen
        bias included, is the stack of the members' fields."""
        nets = [_randomized_net(TrainConfig(seed=seed), hidden=(5, 4), seed=seed) for seed in (20, 21, 22)]
        stacked, _ = stack_nets(nets)
        assert all(isinstance(layer, VariationalAdapter) for layer in stacked.layers)
        for i, layer in enumerate(stacked.layers):
            for name in ("w0", "b", "mean_a", "g", "bias"):
                want = np.stack([getattr(net.layers[i], name) for net in nets])
                assert getattr(layer, name).tobytes() == want.tobytes(), (i, name)
            assert layer.bias.shape == (3, layer.m)


class TestModelSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        config = TrainConfig(seed=12, dropout_p=0.1)
        net = _randomized_net(config, hidden=(5, 4), seed=12)
        path = tmp_path / "model.txt"
        save_net(net, str(path))
        back = load_net(str(path))
        assert back.param_map is net.param_map
        assert back.dropout_p == net.dropout_p
        for a, b in zip(net.layers, back.layers):
            np.testing.assert_array_equal(a.w0, b.w0)
            np.testing.assert_array_equal(a.b, b.b)
            np.testing.assert_array_equal(a.mean_a, b.mean_a)
            np.testing.assert_array_equal(a.g, b.g)
            np.testing.assert_array_equal(a.bias, b.bias)
        np.testing.assert_array_equal(net.head_w, back.head_w)
        np.testing.assert_array_equal(net.head_b, back.head_b)

    def test_written_format(self, tmp_path):
        """A v2 header, a meta of exactly the std map, the dropout rate and
        the layer count, and ``layer m n r`` lines."""
        net = build_small_net(3, (5, 4), 2, 2, TrainConfig(seed=11, dropout_p=0.25))
        path = tmp_path / "model.txt"
        save_net(net, str(path))
        lines = path.read_text().splitlines()
        assert lines[:2] == ["bayeslora-model 2",
                             'meta {"dropout_p": "0x1.0000000000000p-2", "n_layers": 2, "param_map": "square"}']
        assert [line for line in lines if line.startswith("layer ")] == ["layer 5 3 2", "layer 4 5 2"]

    def test_prediction_identical_after_reload(self, tmp_path):
        from bayeslora.training import predict

        config = TrainConfig(seed=13)
        net = _randomized_net(config, seed=13)
        path = tmp_path / "model.txt"
        save_net(net, str(path))
        back = load_net(str(path))
        x = np.random.default_rng(14).normal(size=(10, net.input_dim))
        np.testing.assert_array_equal(predict(net, x, [5], seed=2), predict(back, x, [5], seed=2))

    @pytest.mark.parametrize(
        "mutate, field",
        [
            pytest.param(lambda ls: ["bayeslora-adapter 2"] + ls[1:], "^not a bayeslora-model v2 file",
                         id="bad-magic"),
            pytest.param(lambda ls: ["bayeslora-model 1"] + ls[1:], "^not a bayeslora-model v2 file",
                         id="v1-header"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "head_trainable", 1)] + ls[2:],
                         "^meta: keys must be", id="v1-meta-key"),
            pytest.param(lambda ls: [l + " 0" if l.startswith("layer ") else l for l in ls],
                         "^layer: expected 3", id="v1-layer-flag"),
            pytest.param(lambda ls: ls[:-1], "^hb:", id="truncated-last-line"),
            pytest.param(lambda ls: ls[:5], "^mean_a:", id="truncated-in-layer"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "n_layers")] + ls[2:], "^meta:",
                         id="missing-meta-key"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "n_layers", 0)] + ls[2:], "^meta:",
                         id="zero-layers"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "n_layers", 2.7)] + ls[2:],
                         "^meta: n_layers", id="fractional-layers"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "dropout_p", (1.5).hex())] + ls[2:],
                         "^meta: dropout_p", id="dropout-above-1"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "dropout_p", (-1.0).hex())] + ls[2:],
                         "^meta: dropout_p", id="negative-dropout"),
            pytest.param(lambda ls: _set_last_token(ls, "head ", "9"), "^head:",
                         id="head-width-mismatch"),
            pytest.param(lambda ls: [("x" + l[1:] if l.startswith("w ") else l) for l in ls], "^w:",
                         id="wrong-head-row-tag"),
            pytest.param(lambda ls: _set_first_entry(ls, "hb ", "nan"), "^hb:", id="nan-in-hb"),
            pytest.param(lambda ls: _set_first_entry(ls, "bias ", "inf"), "^bias:",
                         id="inf-in-bias"),
            pytest.param(lambda ls: _set_first_entry(ls, "g ", "0xzz"), "^g:", id="bad-hex-in-g"),
            # float.fromhex reads these without the 0x prefix, as 16.0, -1.0 and 123904.0.
            pytest.param(lambda ls: _set_first_entry(ls, "w0 ", "10"), "^w0:", id="unprefixed-10-in-w0"),
            pytest.param(lambda ls: _set_first_entry(ls, "g ", "-1"), "^g:", id="unprefixed-minus-1-in-g"),
            pytest.param(lambda ls: _set_first_entry(ls, "hb ", "1e400"), "^hb:", id="unprefixed-1e400-in-hb"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "dropout_p", "0.5")] + ls[2:],
                         "^meta: dropout_p", id="unprefixed-dropout"),
            pytest.param(lambda ls: ls + ["junk"], "^hb: trailing", id="trailing-junk"),
            # float.fromhex raises OverflowError, not ValueError, past the float range.
            pytest.param(lambda ls: _set_first_entry(ls, "w0 ", "0x1p+2000"), "^w0:", id="overflow-in-w0"),
            pytest.param(lambda ls: ls[:1] + [_edit_meta(ls[1], "dropout_p", "0x1p+2000")] + ls[2:],
                         "^meta: dropout_p", id="overflow-dropout"),
            pytest.param(lambda ls: _zero_class_head(ls), "^head: need at least one class", id="zero-class-head"),
            # The payloads fit the edited rank, so only the rank itself is wrong.
            pytest.param(lambda ls: _set_first_rank(ls, 0), "^layer: rank must satisfy", id="layer-rank-0"),
            pytest.param(lambda ls: _set_first_rank(ls, 5), "^layer: rank must satisfy",
                         id="layer-rank-too-large"),
        ],
    )
    def test_malformed_file_rejected_with_field_named(self, tmp_path, mutate, field):
        net = _randomized_net(TrainConfig(seed=15), hidden=(5, 4), seed=15)
        path = tmp_path / "model.txt"
        save_net(net, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutate(lines)) + "\n")
        with pytest.raises(ValueError, match=field):
            load_net(str(path))

    def test_every_single_line_mutation_names_its_field(self, tmp_path):
        """Deleting, duplicating, retagging, halving or blanking any one line
        of a model file, or swapping it with the next, raises a ValueError
        naming the field the reader expected there: that line's tag, or for
        a duplicate the next line's."""
        net = build_small_net(input_dim=3, hidden=(4, 4), n_classes=2, rank=2, config=TrainConfig(seed=16))
        path = tmp_path / "model.txt"
        save_net(net, str(path))
        lines = path.read_text().splitlines()
        tags = [line.partition(" ")[0] for line in lines]
        for i, line in enumerate(lines):
            last = i + 1 == len(lines)
            mutations = {
                "delete": (lines[:i] + lines[i + 1:], i),
                "duplicate": (lines[:i + 1] + lines[i:], i if last else i + 1),
                "retag": (lines[:i] + ["zz " + line.partition(" ")[2]] + lines[i + 1:], i),
                "halve": (lines[:i] + [line[: len(line) // 2]] + lines[i + 1:], i),
                "blank": (lines[:i] + [""] + lines[i + 1:], i),
            }
            if not last:
                mutations["swap"] = (lines[:i] + [lines[i + 1], line] + lines[i + 2:], i)
            for kind, (mutated, at) in mutations.items():
                path.write_text("\n".join(mutated) + "\n")
                field = "not a bayeslora-model" if at == 0 else f"{tags[at]}:"
                with pytest.raises(ValueError) as exc:
                    load_net(str(path))
                assert str(exc.value).startswith(field), (i, kind, str(exc.value))


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


def _set_first_rank(lines: list[str], r: int) -> list[str]:
    """Give the first layer rank r, with b, mean_a and g payloads of the sizes r asks for."""
    i = next(i for i, line in enumerate(lines) if line.startswith("layer "))
    m, n, _ = map(int, lines[i].split()[1:])
    lines[i] = f"layer {m} {n} {r}"
    for j, (tag, size) in enumerate((("b", m * r), ("mean_a", r * n), ("g", r * n)), start=i + 2):
        lines[j] = " ".join([tag] + ["0x1.0p+0"] * size)
    return lines


def _zero_class_head(lines: list[str]) -> list[str]:
    """The head set to 0 classes, with the empty w and hb payloads that fit it."""
    out = []
    for line in lines:
        tag, _, payload = line.partition(" ")
        if tag == "head":
            line = f"head 0 {payload.split()[1]}"
        elif tag in ("w", "hb"):
            line = tag
        out.append(line)
    return out


def _set_first_entry(lines: list[str], prefix: str, token: str) -> list[str]:
    """Replace the first entry of the first line that starts with ``prefix``."""
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    tag, _, payload = lines[i].partition(" ")
    lines[i] = " ".join([tag, token] + payload.split()[1:])
    return lines
