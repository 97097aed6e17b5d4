import dataclasses

import numpy as np
import pytest

from bayeslora.baselines import (
    METHODS,
    BaselineSpec,
    derive_config,
    predict_baseline,
    train_baseline,
)
from bayeslora.network import net_forward, softmax_columns
from bayeslora.parammaps import ParamMap
from bayeslora.tasks import TaskSpec, generate_task
from bayeslora.training import TrainConfig, build_small_net, train

SHAPE = (2, (8, 8), 2, 2)


def _task(seed=200):
    spec = TaskSpec("gauss_blobs", 200, 300, 2, 2, 0.6, "none")
    tr, te = generate_task(spec, seed=seed)
    return (tr.x, tr.y), te


class TestSpecValidation:
    def test_defaults(self):
        spec = BaselineSpec("map")
        assert spec.weight_decay == 1e-5
        assert spec.dropout_p == 0.1
        assert spec.n_members == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BaselineSpec("laplace")

    @pytest.mark.parametrize("n_members", [2.5, 3.0, True, 0, -1])
    def test_member_count_is_an_integer_of_at_least_one(self, n_members):
        with pytest.raises(ValueError, match=r"^n_members must be an integer >= 1, got "):
            BaselineSpec("ens", n_members=n_members)


class TestConfigDerivation:
    def test_bbb_differs_in_exactly_three_fields(self):
        """The bbb variant changes the std map, the KL weighting, and the
        sampling scheme; nothing else."""
        base = TrainConfig(seed=0)
        bbb = derive_config(BaselineSpec("bbb"), base)
        diffs = {
            f.name
            for f in dataclasses.fields(TrainConfig)
            if getattr(base, f.name) != getattr(bbb, f.name)
        }
        assert diffs == {"param_map", "kl_mode", "sampling"}
        assert bbb.param_map is ParamMap.SOFTPLUS
        assert bbb.kl_mode == "uniform"
        assert bbb.sampling == "shared"

    def test_deterministic_kinds_disable_stochasticity(self):
        base = TrainConfig(seed=0, dropout_p=0.3, weight_decay=0.7)
        for kind in ("mle", "map", "mcd", "ens"):
            cfg = derive_config(BaselineSpec(kind), base)
            assert cfg.sampling == "none" and cfg.kl_mode == "off"
        assert derive_config(BaselineSpec("mle"), base).weight_decay == 0.0
        assert derive_config(BaselineSpec("map"), base).weight_decay == 1e-5
        assert derive_config(BaselineSpec("mcd"), base).dropout_p == 0.1


class TestReductions:
    def test_mle_equals_trainer_with_sampling_off(self):
        ds, _ = _task()
        config = TrainConfig(seed=5, steps=80)
        model = train_baseline(BaselineSpec("mle"), SHAPE, ds, config)

        det_config = derive_config(BaselineSpec("mle"), config)
        net = build_small_net(*SHAPE, det_config, zero_g=True)
        train([(net, det_config)], ds)

        for key, value in net.trainable_params().items():
            np.testing.assert_array_equal(value, model.models[0].trainable_params()[key])

    def test_map_with_zero_decay_is_mle(self):
        ds, _ = _task()
        config = TrainConfig(seed=6, steps=80)
        mle = train_baseline(BaselineSpec("mle"), SHAPE, ds, config)
        map0 = train_baseline(BaselineSpec("map", weight_decay=0.0), SHAPE, ds, config)
        for key, value in mle.models[0].trainable_params().items():
            np.testing.assert_array_equal(value, map0.models[0].trainable_params()[key])

    def test_map_with_decay_differs(self):
        ds, _ = _task()
        config = TrainConfig(seed=6, steps=80)
        mle = train_baseline(BaselineSpec("mle"), SHAPE, ds, config)
        mapd = train_baseline(BaselineSpec("map", weight_decay=1e-2), SHAPE, ds, config)
        assert not np.array_equal(
            mle.models[0].trainable_params()["head.w"],
            mapd.models[0].trainable_params()["head.w"],
        )

    def test_ensemble_of_one_is_mle(self):
        ds, te = _task()
        config = TrainConfig(seed=7, steps=80)
        mle = train_baseline(BaselineSpec("mle"), SHAPE, ds, config)
        ens1 = train_baseline(BaselineSpec("ens", n_members=1), SHAPE, ds, config)
        assert len(ens1.models) == 1
        for key, value in mle.models[0].trainable_params().items():
            np.testing.assert_array_equal(value, ens1.models[0].trainable_params()[key])
        np.testing.assert_allclose(
            predict_baseline(ens1, te.x, [0])[0], predict_baseline(mle, te.x, [0])[0], rtol=1e-12, atol=1e-14
        )

    def test_dropout_zero_mcd_equals_mle_prediction(self):
        ds, te = _task()
        config = TrainConfig(seed=8, steps=80)
        mle = train_baseline(BaselineSpec("mle"), SHAPE, ds, config)
        mcd0 = train_baseline(BaselineSpec("mcd", dropout_p=0.0), SHAPE, ds, config)
        p_mle = predict_baseline(mle, te.x, [0])[0]
        p_mcd = predict_baseline(mcd0, te.x, [10], seed=1)[0]
        np.testing.assert_allclose(p_mcd, p_mle, rtol=1e-12, atol=1e-14)


class TestEnsemble:
    def test_members_differ(self):
        ds, _ = _task()
        config = TrainConfig(seed=9, steps=60)
        ens = train_baseline(BaselineSpec("ens", n_members=3), SHAPE, ds, config)
        assert len(ens.models) == 3
        w0 = ens.models[0].trainable_params()["head.w"]
        w1 = ens.models[1].trainable_params()["head.w"]
        assert not np.array_equal(w0, w1)

    def test_identical_members_collapse_to_single_model(self):
        ds, te = _task()
        config = TrainConfig(seed=10, steps=60)
        single = train_baseline(BaselineSpec("mle"), SHAPE, ds, config)
        from bayeslora.baselines import BaselineModel

        cloned = BaselineModel(
            spec=BaselineSpec("ens", n_members=3),
            models=[single.models[0]] * 3,
            logs=[[]] * 3,
        )
        np.testing.assert_allclose(
            predict_baseline(cloned, te.x, [0])[0], predict_baseline(single, te.x, [0])[0], rtol=1e-12
        )

    def test_prediction_is_the_softmax_of_the_mean_member_logits(self):
        """Every N of a 3-member ens reads the softmax of the mean of its
        members' single-net mean-mode logits, bit for bit."""
        ds, te = _task()
        ens = train_baseline(BaselineSpec("ens", n_members=3), SHAPE, ds, TrainConfig(seed=15, steps=60))
        h0 = np.ascontiguousarray(te.x.T)
        member_logits = np.stack([net_forward(net, h0, mode="mean").logits.T for net in ens.models])
        expected = softmax_columns(member_logits.mean(axis=0).T).T
        probs = predict_baseline(ens, te.x, [0, 5], seed=1)
        assert [p.tobytes() for p in probs] == [expected.tobytes()] * 2

    def test_zero_variance_across_equal_seeds(self):
        ds, te = _task()
        config = TrainConfig(seed=11, steps=60)
        a = train_baseline(BaselineSpec("ens", n_members=2), SHAPE, ds, config)
        b = train_baseline(BaselineSpec("ens", n_members=2), SHAPE, ds, config)
        np.testing.assert_array_equal(predict_baseline(a, te.x, [0])[0], predict_baseline(b, te.x, [0])[0])


class TestPredictions:
    def test_all_rows_are_distributions(self):
        ds, te = _task()
        config = TrainConfig(seed=12, steps=60)
        for kind in METHODS:
            model = train_baseline(BaselineSpec(kind, n_members=2), SHAPE, ds, config)
            probs = predict_baseline(model, te.x, [4], seed=0)[0]
            assert probs.shape == (len(te.y), 2)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert probs.min() >= 0.0

    @pytest.mark.parametrize("kind", METHODS)
    def test_negative_sample_count_rejected_for_every_method(self, kind):
        ds, te = _task()
        model = train_baseline(BaselineSpec(kind, n_members=2), SHAPE, ds, TrainConfig(seed=12, steps=5))
        with pytest.raises(ValueError, match="^n_samples must be >= 0$"):
            predict_baseline(model, te.x, [5, -1], seed=0)

    def test_mcd_eval_is_stochastic_but_seeded(self):
        ds, te = _task()
        config = TrainConfig(seed=13, steps=60)
        mcd = train_baseline(BaselineSpec("mcd"), SHAPE, ds, config)
        a = predict_baseline(mcd, te.x, [10], seed=3)[0]
        b = predict_baseline(mcd, te.x, [10], seed=3)[0]
        c = predict_baseline(mcd, te.x, [10], seed=4)[0]
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bbb_uses_softplus_and_trains(self):
        ds, te = _task()
        config = TrainConfig(seed=14, steps=200)
        bbb = train_baseline(BaselineSpec("bbb"), SHAPE, ds, config)
        net = bbb.models[0]
        assert net.param_map is ParamMap.SOFTPLUS
        probs = predict_baseline(bbb, te.x, [5], seed=0)[0]
        acc = float(np.mean(np.argmax(probs, axis=1) == te.y))
        assert acc > 0.7
