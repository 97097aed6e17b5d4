import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from bayeslora.network import net_forward, softmax_columns, stack_nets
from bayeslora.parammaps import ParamMap
from bayeslora.tasks import TaskSpec, generate_task
from bayeslora.training import (
    AdamW,
    Sgd,
    TrainConfig,
    TrainingDivergedError,
    build_small_net,
    elbo_minibatch,
    init_adapter,
    kl_weights,
    kl_window,
    lr_factor,
    predict,
    train,
    write_trajectory_csv,
)


def _small_task(seed=100, n_train=200, noise=0.5):
    spec = TaskSpec("gauss_blobs", n_train, 300, 2, 2, noise, "none")
    train_ds, test_ds = generate_task(spec, seed=seed)
    return (train_ds.x, train_ds.y), (test_ds.x, test_ds.y)


class TestKlWindow:
    def test_reference_value(self):
        # ceil(100 * 640**(pi/8) / 16), L* evaluated independently with the math module.
        l_star = 100.0 * math.exp((math.pi / 8.0) * math.log(640.0))
        assert int(l_star) == 1264
        assert kl_window(TrainConfig(batch_size=16), 640) == math.ceil(l_star / 16) == 80

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            kl_window(TrainConfig(), 0)


class TestKlWeights:
    # On one example L* = 100 exactly, so batch size 1 sets the window M to 100.
    def test_one_weight_per_step(self):
        for mode in ("uniform", "blob_ascending", "off"):
            assert len(kl_weights(TrainConfig(kl_mode=mode, steps=37), 500)) == 37

    def test_uniform_constant(self):
        weights = kl_weights(TrainConfig(kl_mode="uniform", batch_size=1, steps=5000), 1)
        assert weights == [pytest.approx(0.01, rel=1e-12)] * 5000

    def test_both_modes_sum_to_one_over_window(self):
        for mode in ("uniform", "blob_ascending"):
            for n, batch in itertools.product((1, 7, 500, 5000), (1, 8, 32)):
                config = TrainConfig(kl_mode=mode, batch_size=batch)
                m = kl_window(config, n)
                total = math.fsum(kl_weights(replace(config, steps=m), n))
                assert total == pytest.approx(1.0, abs=1e-12), (mode, n, batch)

    def test_ascending_normalization_reference(self):
        # M = ceil(100 / 34) = 3.  The literal 2^i / (2^M - 1) sums to about 2;
        # dividing by 2^(M+1) - 2 instead makes the window's total exactly one.
        weights = kl_weights(TrainConfig(batch_size=34, steps=3), 1)
        np.testing.assert_allclose(weights, [2.0 / 14.0, 4.0 / 14.0, 8.0 / 14.0], rtol=1e-12)

    def test_ascending_strictly_increasing_then_saturates(self):
        weights = kl_weights(TrainConfig(batch_size=1, steps=10_000), 1)
        assert all(b > a for a, b in zip(weights[:100], weights[1:100]))
        assert set(weights[100:]) == {weights[99]}

    def test_off_mode_is_zeros_without_computing_the_window(self):
        # gamma = 0.01 overflows L*, which "off" must never compute.
        assert kl_weights(TrainConfig(kl_mode="off", steps=5, gamma=0.01), 500) == [0.0] * 5

    def test_large_m_no_overflow(self):
        config = TrainConfig(batch_size=1, gamma=4.0)
        m = kl_window(config, 200)
        assert m >= 5000
        weights = kl_weights(replace(config, steps=m + 10), 200)
        assert all(0.0 <= w <= 1.0 for w in weights)
        assert weights[m - 1] == pytest.approx(0.5, rel=1e-6)
        assert weights[-1] == weights[m - 1]

    def test_fewer_steps_than_the_window(self):
        """Training can stop inside the window: the first steps' weights,
        summing to less than one."""
        for mode in ("uniform", "blob_ascending"):
            full = kl_weights(TrainConfig(kl_mode=mode, batch_size=1, steps=100), 1)
            assert kl_weights(TrainConfig(kl_mode=mode, batch_size=1, steps=10), 1) == full[:10]
            assert 0.0 < math.fsum(full[:10]) < 1.0


class TestInitAdapter:
    def test_g_range_matches_epsilon(self):
        config = TrainConfig(epsilon=0.05)
        ad = init_adapter(8, 6, 2, config, np.random.default_rng(0))
        assert ad.g.min() >= 0.05 / math.sqrt(2.0) - 1e-12
        assert ad.g.max() <= 0.05
        # Concrete bound from epsilon = 0.05: every entry in [0.035355, 0.05].
        assert ad.g.min() >= 0.035355

    def test_mean_range_for_n_six(self):
        config = TrainConfig()
        ad = init_adapter(8, 6, 2, config, np.random.default_rng(1))
        assert np.all(np.abs(ad.mean_a) <= 1.0)

    def test_b_starts_at_zero(self):
        ad = init_adapter(8, 6, 2, TrainConfig(), np.random.default_rng(2))
        np.testing.assert_array_equal(ad.b, np.zeros((8, 2)))

    def test_same_seed_identical(self):
        config = TrainConfig()
        a = init_adapter(7, 5, 2, config, np.random.default_rng(3))
        b = init_adapter(7, 5, 2, config, np.random.default_rng(3))
        np.testing.assert_array_equal(a.g, b.g)
        np.testing.assert_array_equal(a.mean_a, b.mean_a)

    def test_softplus_init_matches_square_omega(self):
        square = init_adapter(8, 6, 2, TrainConfig(seed=4), np.random.default_rng(4))
        soft_config = TrainConfig(seed=4, param_map=ParamMap.SOFTPLUS)
        soft = init_adapter(8, 6, 2, soft_config, np.random.default_rng(4))
        from bayeslora.parammaps import apply_map

        np.testing.assert_allclose(
            apply_map(ParamMap.SOFTPLUS, soft.g), square.g**2, rtol=1e-10
        )

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            init_adapter(4, 4, 4, TrainConfig(), np.random.default_rng(5))


class TestLrFactor:
    def test_warmup_then_decay(self):
        total, ratio = 100, 0.06
        warm = 6
        assert lr_factor(1, total, ratio) == pytest.approx(1.0 / warm)
        assert lr_factor(warm, total, ratio) == pytest.approx(1.0)
        assert lr_factor(total, total, ratio) == pytest.approx(1.0 / (total - warm))
        factors = [lr_factor(t, total, ratio) for t in range(1, total + 1)]
        assert max(factors) == pytest.approx(1.0)
        assert all(f > 0 for f in factors)


class TestElbo:
    def test_decomposition_exact(self):
        config = TrainConfig(seed=0)
        net = build_small_net(2, (6,), 2, 1, config)
        (x, y), _ = _small_task()
        res = elbo_minibatch(net, x[:16], y[:16], config, kl_weight=0.25, seed=5)
        assert res.loss == res.likelihood + res.kl_weight * res.kl_value

    def test_kl_weight_zero_skips_kl(self):
        config = TrainConfig(seed=0, sampling="none")
        net = build_small_net(2, (6,), 2, 1, config, zero_g=True)
        (x, y), _ = _small_task()
        res = elbo_minibatch(net, x[:16], y[:16], config, kl_weight=0.0, seed=5)
        assert res.kl_value == 0.0 and res.kl_grad is None

    @pytest.mark.parametrize("weight", [-0.1, 1.5, math.inf, math.nan])
    def test_kl_weight_outside_unit_interval_rejected(self, weight):
        config = TrainConfig(seed=0)
        net = build_small_net(2, (6,), 2, 1, config)
        (x, y), _ = _small_task()
        with pytest.raises(ValueError, match=r"^kl_weight must be in \[0, 1\]"):
            elbo_minibatch(net, x[:16], y[:16], config, kl_weight=weight, seed=5)

    def test_deterministic_loss_is_plain_cross_entropy(self):
        from bayeslora.network import cross_entropy, net_forward, softmax_columns

        config = TrainConfig(seed=0, sampling="none")
        net = build_small_net(2, (6,), 2, 1, config, zero_g=True)
        (x, y), _ = _small_task()
        res = elbo_minibatch(net, x[:16], y[:16], config, kl_weight=0.0, seed=5)
        fwd = net_forward(net, x[:16].T, mode="mean")
        assert res.loss == cross_entropy(softmax_columns(fwd.logits), y[:16])

    def test_zero_omega_flipout_equals_deterministic(self):
        # g = 0 annihilates the perturbation, so flipout reduces to the mean pass.
        config_f = TrainConfig(seed=0, sampling="flipout")
        config_d = TrainConfig(seed=0, sampling="none")
        net = build_small_net(2, (6,), 2, 1, config_f, zero_g=True)
        (x, y), _ = _small_task()
        a = elbo_minibatch(net, x[:16], y[:16], config_f, kl_weight=0.0, seed=5)
        b = elbo_minibatch(net, x[:16], y[:16], config_d, kl_weight=0.0, seed=5)
        assert a.likelihood == b.likelihood

    def test_empty_batch_rejected(self):
        config = TrainConfig(seed=0)
        net = build_small_net(2, (6,), 2, 1, config)
        with pytest.raises(ValueError):
            elbo_minibatch(net, np.zeros((0, 2)), np.zeros(0, dtype=int), config, 0.5, seed=1)


class TestTrain:
    def test_zero_steps_leaves_net_unchanged(self):
        config = TrainConfig(seed=0, steps=0)
        net = build_small_net(2, (6,), 2, 1, config)
        before = {k: v.copy() for k, v in net.trainable_params().items()}
        (ds, _) = _small_task()
        [log] = train([(net, config)], ds)
        assert log == []
        for key, value in net.trainable_params().items():
            np.testing.assert_array_equal(value, before[key])

    @pytest.mark.parametrize("size", [0, 1, 40, 200, 6000])
    def test_step_seeds_in_one_draw_equal_the_scalar_draws(self, size):
        # train draws every step seed in one call; the trajectories recorded
        # with one scalar call per step must not move.
        for seed in range(50):
            noise_ss = np.random.SeedSequence(seed).spawn(2)[1]  # as train spawns it
            scalar = np.random.default_rng(noise_ss)
            expected = [int(scalar.integers(0, 2**63)) for _ in range(size)]
            assert np.random.default_rng(noise_ss).integers(0, 2**63, size=size).tolist() == expected

    def test_backbone_frozen(self):
        config = TrainConfig(seed=1, steps=60)
        net = build_small_net(2, (8, 8), 2, 2, config)
        frozen = [(l.adapter.w0.copy(), l.bias.copy()) for l in net.layers]
        (ds, _) = _small_task()
        train([(net, config)], ds)
        for layer, (w0, bias) in zip(net.layers, frozen):
            np.testing.assert_array_equal(layer.adapter.w0, w0)
            np.testing.assert_array_equal(layer.bias, bias)

    def test_same_seed_bit_identical_trajectory(self):
        (ds, _) = _small_task()
        logs = []
        nets = []
        for _ in range(2):
            config = TrainConfig(seed=7, steps=50)
            net = build_small_net(2, (8,), 2, 1, config)
            [log] = train([(net, config)], ds)
            logs.append(log)
            nets.append(net)
        assert logs[0] == logs[1]
        for k, v in nets[0].trainable_params().items():
            np.testing.assert_array_equal(v, nets[1].trainable_params()[k])

    def test_separable_blobs_reach_high_accuracy(self):
        """Sanity run: 200 separable points, 2000 default steps, train
        accuracy >= 0.95."""
        spec = TaskSpec("gauss_blobs", 200, 400, 2, 2, 0.25, "none")
        tr, te = generate_task(spec, seed=42)
        config = TrainConfig(seed=0, steps=2000, batch_size=32)
        net = build_small_net(2, (16, 16), 2, 2, config)
        [log] = train([(net, config)], (tr.x, tr.y))
        train_probs = predict(net, tr.x, [0])[0]
        assert float(np.mean(np.argmax(train_probs, axis=1) == tr.y)) >= 0.95
        test_probs = predict(net, te.x, [0])[0]
        assert float(np.mean(np.argmax(test_probs, axis=1) == te.y)) >= 0.95

    def test_trains_under_every_schedule_mode(self):
        (ds, _) = _small_task()
        for mode in ("uniform", "blob_ascending", "off"):
            config = TrainConfig(seed=5, steps=150, kl_mode=mode)
            net = build_small_net(2, (8,), 2, 1, config)
            [log] = train([(net, config)], ds)
            assert all(np.isfinite(r.likelihood_loss) for r in log), mode
            assert [r.kl_weight for r in log] == kl_weights(config, len(ds[1])), mode

    def test_divergence_reports_step(self):
        (ds, _) = _small_task()
        config = TrainConfig(seed=2, steps=50, lr_likelihood=1e9, lr_kl=1e9)
        net = build_small_net(2, (8,), 2, 1, config)
        with pytest.raises(TrainingDivergedError) as err:
            train([(net, config)], ds)
        assert err.value.step >= 1

    def test_trajectory_csv_round_trip(self, tmp_path):
        (ds, _) = _small_task()
        config = TrainConfig(seed=3, steps=10)
        net = build_small_net(2, (8,), 2, 1, config)
        [log] = train([(net, config)], ds)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(log, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "step,likelihood_loss,kl_value,kl_weight,train_acc"
        assert len(lines) == 11
        # loss decomposition survives the serialization round trip
        rec = log[4]
        cols = lines[5].split(",")
        assert float(cols[1]) == rec.likelihood_loss
        assert float(cols[2]) == rec.kl_value


def _reference_adamw(params, grads, state, factor, lr, weight_decay):
    """Per-key AdamW loop, kept here as the oracle for the flat optimizer."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    lr_t = lr * factor
    for key, p in params.items():
        g = grads[key]
        m = state["m"].setdefault(key, np.zeros_like(p))
        v = state["v"].setdefault(key, np.zeros_like(p))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay:
            update = update + weight_decay * p
        p -= lr_t * update


class TestFlatOptimizers:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_bit_identical_to_per_key_loop(self, weight_decay):
        rng = np.random.default_rng(31)
        shapes = [tuple(rng.integers(1, 6, size=rng.integers(1, 3))) for _ in range(7)]
        keys = [f"p{i}" for i in range(len(shapes))]
        ref = {k: rng.normal(size=shape) for k, shape in zip(keys, shapes)}
        flat = np.concatenate([p.ravel() for p in ref.values()])
        adam, sgd = AdamW(lr=2e-2, weight_decay=weight_decay), Sgd(lr=1e-2)
        state = {"t": 0, "m": {}, "v": {}}
        for step in range(50):
            factor = (step + 1) / 50
            lik = {k: rng.normal(size=p.shape) for k, p in ref.items()}
            kl = {k: rng.normal(size=p.shape) for k, p in ref.items()}
            weight = rng.uniform(0.0, 1.0)
            _reference_adamw(ref, lik, state, factor, 2e-2, weight_decay)
            adam.step(flat, np.concatenate([g.ravel() for g in lik.values()]), factor)
            for key, p in ref.items():
                p -= (1e-2 * factor) * (weight * kl[key])
            sgd.step(flat, weight * np.concatenate([g.ravel() for g in kl.values()]), factor)
            np.testing.assert_array_equal(flat, np.concatenate([p.ravel() for p in ref.values()]))

    def test_trainable_arrays_are_views_of_one_buffer(self):
        config = TrainConfig(seed=3, steps=5)
        net = build_small_net(2, (6, 5), 2, 2, config)
        before = {k: v.copy() for k, v in net.trainable_params().items()}
        flat = net.pack()
        params = net.trainable_params()
        for key, value in params.items():
            assert np.shares_memory(value, flat)
            np.testing.assert_array_equal(value, before[key])
            np.testing.assert_array_equal(net.views(flat)[key], value)
        flat += 1.0
        np.testing.assert_array_equal(net.head_b, before["head.b"] + 1.0)


def _layout_bytes(net):
    return b"".join(value.tobytes() for value in net.trainable_params().values())


_POPULATION_VARIANTS = {
    "ens": dict(sampling="none", kl_mode="off"),
    "kl_and_weight_decay": dict(sampling="none", kl_mode="blob_ascending", weight_decay=1e-3),
    "batch_above_n_train": dict(sampling="none", kl_mode="off", batch_size=64),
}


class TestPopulation:
    @pytest.mark.parametrize("variant", sorted(_POPULATION_VARIANTS))
    @pytest.mark.parametrize("hidden", [(4,), (32, 32)])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_equals_member_by_member(self, size, hidden, variant):
        """Members trained together as one stacked program end with the
        bytes of each member trained alone, and log the same steps."""
        (ds, _) = _small_task(n_train=40)
        options = {"steps": 30, "batch_size": 8, **_POPULATION_VARIANTS[variant]}
        configs = [TrainConfig(seed=seed, **options) for seed in (3, 17, 2**40 + 1, 5)[:size]]
        zero_g = variant != "kl_and_weight_decay"

        def members():
            return [(build_small_net(2, hidden, 2, 2, c, zero_g=zero_g), c) for c in configs]

        alone = members()
        alone_logs = [train([member], ds)[0] for member in alone]
        together = members()
        together_logs = train(together, ds)
        assert [list(map(repr, log)) for log in together_logs] == [list(map(repr, log)) for log in alone_logs]
        assert [_layout_bytes(net) for net, _ in together] == [_layout_bytes(net) for net, _ in alone]

    @pytest.mark.parametrize("options", [
        dict(sampling="flipout"), dict(sampling="shared"), dict(sampling="none", dropout_p=0.1),
    ])
    def test_population_that_draws_noise_rejected(self, options):
        (ds, _) = _small_task(n_train=40)
        configs = [TrainConfig(seed=seed, steps=3, kl_mode="off", **options) for seed in (0, 1)]
        members = [(build_small_net(2, (4,), 2, 1, c), c) for c in configs]
        with pytest.raises(ValueError, match="draw no noise"):
            train(members, ds)

    def test_members_differing_beyond_seed_rejected(self):
        (ds, _) = _small_task(n_train=40)
        configs = [TrainConfig(seed=0, steps=3, sampling="none"),
                   TrainConfig(seed=1, steps=3, sampling="none", lr_likelihood=0.5)]
        members = [(build_small_net(2, (4,), 2, 1, c), c) for c in configs]
        with pytest.raises(ValueError, match="differ only in seed"):
            train(members, ds)

    def test_members_of_different_shapes_rejected(self):
        (ds, _) = _small_task(n_train=40)
        configs = [TrainConfig(seed=seed, steps=3, sampling="none") for seed in (0, 1)]
        members = [(build_small_net(2, hidden, 2, 1, c), c) for hidden, c in zip(((4,), (5,)), configs)]
        with pytest.raises(ValueError, match="one flat layout"):
            train(members, ds)


class TestPredict:
    @pytest.mark.parametrize("dropout_p", [0.0, 0.2])
    def test_counts_are_snapshots_of_one_stream(self, dropout_p):
        """Every count of one call, in any order, has the bytes of its own call."""
        config = TrainConfig(seed=4, dropout_p=dropout_p)
        net = build_small_net(2, (8, 8), 2, 2, config)
        for layer in net.layers:
            layer.adapter.b = np.random.default_rng(5).normal(size=layer.adapter.b.shape)
        x = np.random.default_rng(6).normal(size=(30, 2))
        counts = [10, 0, 5, 1]
        together = predict(net, x, counts, seed=7)
        alone = [predict(net, x, [n], seed=7)[0] for n in counts]
        assert [p.tobytes() for p in together] == [p.tobytes() for p in alone]
        assert not np.array_equal(together[1], together[2])  # the sampled passes differ from the mean

    def test_rows_sum_to_one(self):
        config = TrainConfig(seed=0)
        net = build_small_net(2, (8,), 3, 1, config)
        x = np.random.default_rng(0).normal(size=(20, 2))
        for n in (0, 7):
            probs = predict(net, x, [n], seed=3)[0]
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_seed_reproducible(self):
        config = TrainConfig(seed=0)
        net = build_small_net(2, (8,), 2, 1, config)
        x = np.random.default_rng(1).normal(size=(10, 2))
        np.testing.assert_array_equal(
            predict(net, x, [10], seed=5), predict(net, x, [10], seed=5)
        )

    def test_degenerate_posterior_matches_mean(self):
        # g == 0: every sampled pass equals the mean pass, any N agrees with N=0.
        config = TrainConfig(seed=0)
        net = build_small_net(2, (8,), 2, 1, config, zero_g=True)
        x = np.random.default_rng(2).normal(size=(10, 2))
        np.testing.assert_allclose(
            predict(net, x, [25], seed=6)[0], predict(net, x, [0])[0], rtol=1e-12
        )


    def test_stacked_net_averages_its_members_logits_at_zero(self):
        """A stacked net's N = 0 is one softmax of the mean of its members'
        own mean-mode logits, bit for bit; at any N >= 1 it raises."""
        nets = [build_small_net(2, (8, 8), 3, 2, TrainConfig(seed=seed)) for seed in (0, 1, 2)]
        x = np.random.default_rng(3).normal(size=(40, 2))
        h0 = np.ascontiguousarray(x.T)
        logits = np.mean([net_forward(net, h0, mode="mean").logits for net in nets], axis=0)
        stacked, _ = stack_nets(nets)
        assert predict(stacked, x, [0])[0].tobytes() == softmax_columns(logits).T.tobytes()
        for counts in ([5], [0, 1]):
            with pytest.raises(ValueError, match=r"^a stacked net predicts only at N = 0, got N = \d+$"):
                predict(stacked, x, counts)


class TestMleReduction:
    def test_blob_with_pinned_g_matches_deterministic_trainer(self):
        """KL off + g pinned at zero + K=1: the flipout trainer produces the
        same updates to mean_a and b as the deterministic path within 1e-10.

        g = 0 pins itself: omega = g^2 annihilates the perturbation and the
        chain factor 2g zeroes the gradient, so the adaptive optimizer never
        moves it.
        """
        (ds, _) = _small_task()
        steps = 120

        config_det = TrainConfig(seed=11, steps=steps, sampling="none", kl_mode="off")
        net_det = build_small_net(2, (8,), 2, 1, config_det, zero_g=True)
        train([(net_det, config_det)], ds)

        config_blob = TrainConfig(seed=11, steps=steps, sampling="flipout", kl_mode="off")
        net_blob = build_small_net(2, (8,), 2, 1, config_blob, zero_g=True)
        train([(net_blob, config_blob)], ds)

        np.testing.assert_array_equal(net_blob.layers[0].adapter.g, 0.0)
        for key in ("layers.0.mean_a", "layers.0.b", "head.w"):
            np.testing.assert_allclose(
                net_det.trainable_params()[key],
                net_blob.trainable_params()[key],
                atol=1e-10,
            )
