import numpy as np
import pytest

from bayeslora.baselines import BaselineSpec, predict_baseline, train_baseline
from bayeslora.metrics import ece
from bayeslora.tasks import (
    TaskSpec,
    class_separation,
    generate_task,
    write_dataset_csv,
)
from bayeslora.training import TrainConfig


class TestSpecValidation:
    def test_generator_names(self):
        with pytest.raises(ValueError):
            TaskSpec(generator="spirals")

    def test_two_class_generators(self):
        with pytest.raises(ValueError):
            TaskSpec(generator="two_moons_like", n_classes=3)

    def test_shift_names(self):
        with pytest.raises(ValueError):
            TaskSpec(shift="huge")


class TestDeterminism:
    def test_same_seed_identical(self):
        spec = TaskSpec()
        a_train, a_test = generate_task(spec, seed=3)
        b_train, b_test = generate_task(spec, seed=3)
        np.testing.assert_array_equal(a_train.x, b_train.x)
        np.testing.assert_array_equal(a_train.y, b_train.y)
        np.testing.assert_array_equal(a_test.x, b_test.x)

    def test_different_seed_differs(self):
        spec = TaskSpec()
        a_train, _ = generate_task(spec, seed=3)
        b_train, _ = generate_task(spec, seed=4)
        assert not np.array_equal(a_train.x, b_train.x)

    def test_train_test_disjoint_streams(self):
        spec = TaskSpec(n_train=100, n_test=100)
        train, test = generate_task(spec, seed=5)
        assert not np.array_equal(train.x, test.x)

    def test_csv_bytes_deterministic(self, tmp_path):
        spec = TaskSpec(n_train=50, n_test=10)
        train, _ = generate_task(spec, seed=6)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(train, str(p1))
        write_dataset_csv(train, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestGenerators:
    @pytest.mark.parametrize("generator", ["gauss_blobs", "two_moons_like", "ring_vs_disk"])
    def test_shapes_and_labels(self, generator):
        spec = TaskSpec(generator=generator, n_train=120, n_test=80, input_dim=3)
        train, test = generate_task(spec, seed=7)
        assert train.x.shape == (120, 3) and test.x.shape == (80, 3)
        assert set(np.unique(train.y)) <= {0, 1}

    def test_blobs_multiclass(self):
        spec = TaskSpec(generator="gauss_blobs", n_classes=4, n_train=400, noise_scale=0.2)
        train, _ = generate_task(spec, seed=8)
        assert set(np.unique(train.y)) == {0, 1, 2, 3}

    def test_unshifted_test_matches_train_distribution(self):
        """Two-sample mean test per dimension at alpha = 0.01 (Bonferroni)."""
        spec = TaskSpec(n_train=4000, n_test=4000, noise_scale=0.8)
        train, test = generate_task(spec, seed=9)
        alpha = 0.01
        d = spec.input_dim
        from scipy import stats

        for j in range(d):
            _, p = stats.ttest_ind(train.x[:, j], test.x[:, j], equal_var=False)
            assert p > alpha / d, f"dimension {j} shifted without shift requested"

    def test_large_shift_moves_means(self):
        spec = TaskSpec(shift="large", n_test=2000)
        _, shifted = generate_task(spec, seed=10)
        spec_none = TaskSpec(shift="none", n_test=2000)
        _, plain = generate_task(spec_none, seed=10)
        delta = np.linalg.norm(shifted.x.mean(axis=0) - plain.x.mean(axis=0))
        assert delta > 0.5 * class_separation(spec) * 0.5

    def test_shift_preserves_labels(self):
        spec = TaskSpec(shift="large")
        _, shifted = generate_task(spec, seed=11)
        spec_none = TaskSpec(shift="none")
        _, plain = generate_task(spec_none, seed=11)
        np.testing.assert_array_equal(shifted.y, plain.y)

    def test_well_separated_blobs_learnable_to_99(self):
        """Sanity oracle: a deterministic adapter net reaches >= 0.99 test
        accuracy on well-separated 2-class blobs."""
        spec = TaskSpec(noise_scale=0.15, n_train=300, n_test=1000)
        train, test = generate_task(spec, seed=12)
        config = TrainConfig(seed=0, steps=1200, batch_size=32)
        model = train_baseline(
            BaselineSpec("mle"), (2, (16, 16), 2, 2), (train.x, train.y), config
        )
        probs = predict_baseline(model, test.x)
        assert ece(probs, test.y).acc >= 0.99


class TestSeparationUnits:
    def test_blob_separation(self):
        assert class_separation(TaskSpec(n_classes=2)) == pytest.approx(2.0)
        assert class_separation(TaskSpec(n_classes=4)) == pytest.approx(2.0 * np.sin(np.pi / 4))

    def test_fixed_units_for_other_generators(self):
        assert class_separation(TaskSpec(generator="two_moons_like")) == 1.0
        assert class_separation(TaskSpec(generator="ring_vs_disk")) == 1.15
