import json
import math

import numpy as np
import pytest

from bayeslora.metrics import ece, report_to_json, write_bins_csv


class TestAccuracy:
    def test_all_correct(self):
        probs = np.eye(3)
        assert ece(probs, np.array([0, 1, 2])).acc == 1.0

    def test_all_wrong(self):
        probs = np.eye(3)
        assert ece(probs, np.array([1, 2, 0])).acc == 0.0

    def test_mixed(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]])
        assert ece(probs, np.array([0, 1, 0, 0])).acc == 0.75

    def test_tie_broken_to_lowest_class(self):
        probs = np.array([[0.5, 0.5]])
        assert ece(probs, np.array([0])).acc == 1.0
        assert ece(probs, np.array([1])).acc == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ece(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestNll:
    def test_perfect_predictions(self):
        assert ece(np.eye(3), np.array([0, 1, 2])).nll == 0.0

    def test_uniform_is_log_c(self):
        for c in (2, 4, 7):
            probs = np.full((10, c), 1.0 / c)
            assert ece(probs, np.zeros(10, dtype=int)).nll == pytest.approx(math.log(c), abs=1e-12)

    def test_two_example_value(self):
        # (log 2 + log 4) / 2 = 1.5 log 2
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert ece(probs, np.array([0, 0])).nll == pytest.approx(1.5 * math.log(2.0), rel=1e-12)

    def test_zero_probability_clamped_and_flagged(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        report = ece(probs, np.array([1, 0]))
        assert report.n_clamped == 1
        assert report.nll == pytest.approx((-math.log(1e-12) - math.log(0.5)) / 2.0)

    def test_monotone_in_true_label_mass(self):
        labels = np.array([0, 0, 0])
        worse = np.full((3, 2), 0.5)
        better = np.array([[0.8, 0.2]] * 3)
        assert ece(better, labels).nll < ece(worse, labels).nll


class TestEce:
    def test_confident_and_correct_is_zero(self):
        probs = np.array([[1.0, 0.0]] * 6)
        report = ece(probs, np.zeros(6, dtype=int))
        assert report.ece == 0.0

    def test_hand_binned_four_example_case(self):
        """Confidences {.6,.6,.9,.9}, correctness {1,0,1,1}: two occupied
        bins each contribute 0.05, so ECE = 0.10 (one float64 ulp of slack
        for the 0.6/0.9 representations)."""
        probs = np.array([[0.6, 0.4], [0.6, 0.4], [0.9, 0.1], [0.9, 0.1]])
        labels = np.array([0, 1, 0, 0])
        report = ece(probs, labels, n_bins=15)
        assert report.ece == pytest.approx(0.10, abs=1e-15)
        occupied = [b for b in report.bins if b.count]
        assert len(occupied) == 2
        assert occupied[0].lower == pytest.approx(8.0 / 15.0)
        assert occupied[0].upper == pytest.approx(9.0 / 15.0)
        assert occupied[0].count == 2 and occupied[0].mean_acc == 0.5
        assert occupied[1].lower == pytest.approx(13.0 / 15.0)
        assert occupied[1].upper == pytest.approx(14.0 / 15.0)
        assert occupied[1].count == 2 and occupied[1].mean_acc == 1.0

    def test_uniform_predictions_near_zero_in_expectation(self):
        """Uniform confidence 1/C with uniform labels is perfectly calibrated;
        the empirical ECE is the |binomial mean - 1/C| deviation."""
        rng = np.random.default_rng(0)
        c, n = 4, 100_000
        probs = np.full((n, c), 1.0 / c)
        labels = rng.integers(0, c, size=n)
        report = ece(probs, labels)
        mc_error = 3.0 * math.sqrt((1.0 / c) * (1.0 - 1.0 / c) / n)
        assert report.ece <= mc_error

    def test_perfectly_calibrated_stream(self):
        """Labels drawn with probability equal to the stated confidence:
        ECE -> 0; checked <= 0.02 at n = 1e5."""
        rng = np.random.default_rng(1)
        n = 100_000
        conf = rng.uniform(0.5, 1.0, size=n)
        correct = rng.uniform(size=n) < conf
        probs = np.where(correct[:, None], np.stack([conf, 1 - conf], 1), np.stack([1 - conf, conf], 1))
        labels = np.zeros(n, dtype=int)
        report = ece(probs, labels)
        assert report.ece <= 0.02

    def test_bin_counts_sum_to_n(self):
        rng = np.random.default_rng(2)
        raw = rng.uniform(size=(257, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=257)
        report = ece(probs, labels)
        assert sum(b.count for b in report.bins) == report.n == 257

    def test_scalar_reconstructs_from_bins_exactly(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(size=(400, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=400)
        report = ece(probs, labels)
        total = 0.0
        for b in report.bins:
            if b.count:
                total += (b.count / report.n) * abs(b.mean_acc - b.mean_conf)
        assert total == report.ece

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        raw = rng.uniform(size=(100, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=100)
        perm = rng.permutation(100)
        a = ece(probs, labels)
        b = ece(probs[perm], labels[perm])
        assert a.ece == pytest.approx(b.ece, abs=1e-15)
        assert a.acc == b.acc
        assert a.nll == pytest.approx(b.nll, rel=1e-13)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            raw = rng.uniform(size=(50, 3))
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = rng.integers(0, 3, size=50)
            report = ece(probs, labels)
            assert 0.0 <= report.ece <= 1.0
            assert report.nll >= 0.0

    def test_right_inclusive_edges(self):
        # Confidence exactly at an interior edge belongs to the lower bin.
        probs = np.array([[0.6, 0.4]])
        report = ece(probs, np.array([0]))
        occupied = [b for b in report.bins if b.count]
        assert occupied[0].upper == pytest.approx(9.0 / 15.0)

    def test_row_sums_validated(self):
        with pytest.raises(ValueError):
            ece(np.array([[0.7, 0.2]]), np.array([0]))

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            ece(np.array([[0.7, 0.3]]), np.array([2]))


class TestSerialization:
    def test_json_round_trip(self):
        probs = np.array([[0.6, 0.4], [0.2, 0.8]])
        report = ece(probs, np.array([0, 1]))
        payload = json.loads(report_to_json(report))
        assert payload["acc"] == report.acc
        assert payload["ece"] == report.ece
        assert payload["nll"] == report.nll
        assert len(payload["bins"]) == 15

    def test_bins_csv(self, tmp_path):
        probs = np.array([[0.6, 0.4], [0.2, 0.8]])
        report = ece(probs, np.array([0, 1]))
        path = tmp_path / "bins.csv"
        write_bins_csv(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lower,bin_upper,count,mean_conf,mean_acc"
        assert len(lines) == 16
