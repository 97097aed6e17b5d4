import math

import numpy as np
import pytest

from bayeslora.adapter import ShapeError, VariationalAdapter
from bayeslora.kl import (
    FullWeightGaussian,
    PriorSpec,
    build_full_posterior,
    build_full_prior,
    kl_closed_form,
    kl_full_weight_regularized,
)
from bayeslora.parammaps import ParamMap, apply_map

from kl_estimators import kl_monte_carlo


def _random_adapter(m, n, r, rng, g_low=0.3, g_high=0.9):
    return VariationalAdapter(
        w0=rng.normal(size=(m, n)),
        b=rng.normal(size=(m, r)),
        mean_a=rng.normal(0.0, 0.5, size=(r, n)),
        g=rng.uniform(g_low, g_high, size=(r, n)),
    )


def _omega(ad):
    """The std of an adapter's a-factor under the square map."""
    return apply_map(ParamMap.SQUARE, ad.g)


class TestClosedForm:
    def test_zero_when_posterior_equals_prior(self):
        sigma_p = 0.4
        omega = np.full((2, 3), sigma_p)
        assert kl_closed_form(np.zeros((2, 3)), omega, PriorSpec(sigma_p)) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_gaussian_value(self):
        # One entry, mean 0, omega = sigma_p / 2: KL = log 2 + 1/8 - 1/2.
        sigma_p = 0.7
        omega = np.array([[sigma_p / 2.0]])
        expected = math.log(2.0) + 0.125 - 0.5
        assert kl_closed_form(np.zeros((1, 1)), omega, PriorSpec(sigma_p)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.318147, abs=1e-6)

    def test_raw_differs_by_constant(self):
        """The KL carries the zero-gradient constant r*n*(log sigma_p - 1/2)."""
        rng = np.random.default_rng(0)
        ad = _random_adapter(4, 3, 2, rng)
        prior = PriorSpec(0.2)
        const = ad.mean_a.size * (math.log(prior.sigma_p) - 0.5)
        omega = _omega(ad)
        full = kl_closed_form(ad.mean_a, omega, prior)
        raw = float(
            (np.sum(ad.mean_a**2) + np.sum(omega**2)) / (2.0 * prior.sigma_p**2)
            - np.sum(np.log(omega))
        )
        assert full == pytest.approx(raw + const, rel=1e-12)

    def test_nonnegative_and_zero_only_at_prior(self):
        rng = np.random.default_rng(1)
        prior = PriorSpec(0.5)
        for _ in range(50):
            m = rng.normal(0, 1.0, size=(2, 3))
            omega = rng.uniform(0.01, 1.44, size=(2, 3))
            assert kl_closed_form(m, omega, prior) >= -1e-12
        # Strictly positive as soon as q deviates from p in mean or scale.
        omega_prior = np.full((2, 3), prior.sigma_p)
        off_mean = np.zeros((2, 3)); off_mean[0, 0] = 0.1
        assert kl_closed_form(off_mean, omega_prior, prior) > 1e-4
        off_scale = omega_prior.copy(); off_scale[1, 2] *= 1.44
        assert kl_closed_form(np.zeros((2, 3)), off_scale, prior) > 1e-4

    @pytest.mark.parametrize("bad", [0.0, -0.25])
    def test_nonpositive_omega_entry_rejected(self, bad):
        omega = np.array([[0.5, bad]])
        with pytest.raises(ValueError, match="omega entry is <= 0"):
            kl_closed_form(np.zeros((1, 2)), omega, PriorSpec(1.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="must match"):
            kl_closed_form(np.zeros((2, 3)), np.ones((3, 2)), PriorSpec(1.0))

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(2, 4))
        omega = rng.uniform(0.04, 0.64, size=(2, 4))
        prior = PriorSpec(0.3)
        perm = rng.permutation(4)
        assert kl_closed_form(m, omega, prior) == pytest.approx(
            kl_closed_form(m[:, perm], omega[:, perm], prior), rel=1e-12
        )


class TestMonteCarlo:
    def test_zero_for_matching_distributions(self):
        # When q == p the per-sample log-ratio cancels exactly, so the
        # estimator collapses to floating-point noise around zero.
        sigma_p = 0.4
        omega = np.full((2, 2), sigma_p)
        est, se = kl_monte_carlo(np.zeros((2, 2)), omega, PriorSpec(sigma_p), 50_000, seed=0)
        assert abs(est) <= max(3.0 * se, 1e-12)

    def test_scalar_case_within_three_se(self):
        sigma_p = 0.7
        omega = np.array([[sigma_p / 2.0]])
        est, se = kl_monte_carlo(np.zeros((1, 1)), omega, PriorSpec(sigma_p), 200_000, seed=1)
        assert abs(est - 0.3181471805599453) <= 3.0 * se

    def test_seed_determinism(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(2, 3))
        omega = rng.uniform(0.09, 0.64, size=(2, 3))
        a = kl_monte_carlo(m, omega, PriorSpec(0.2), 10_000, seed=9)
        b = kl_monte_carlo(m, omega, PriorSpec(0.2), 10_000, seed=9)
        assert a == b

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            kl_monte_carlo(np.zeros((1, 1)), np.ones((1, 1)), PriorSpec(1.0), 10, seed=0)

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(4)
        for trial in range(3):
            m_a = rng.normal(0, 0.5, size=(2, 3))
            omega = apply_map(ParamMap.SQUARE, rng.uniform(0.3, 0.9, size=(2, 3)))
            prior = PriorSpec(0.2)
            closed = kl_closed_form(m_a, omega, prior)
            est, se = kl_monte_carlo(m_a, omega, prior, 400_000, seed=trial)
            assert abs(est - closed) <= 3.0 * se


class TestFullPosterior:
    def test_zero_b(self):
        rng = np.random.default_rng(5)
        ad = _random_adapter(3, 2, 1, rng)
        ad.b[...] = 0.0
        q = build_full_posterior(ad, _omega(ad))
        np.testing.assert_array_equal(q.blocks, np.zeros((2, 3, 3)))
        np.testing.assert_array_equal(q.cov, np.zeros((6, 6)))
        np.testing.assert_array_equal(q.mean, ad.w0)

    def test_rank_one_hand_expansion(self):
        # b = e1, omega = w everywhere: each diagonal block is w^2 * e1 e1^T
        # (the entry variance is omega^2).
        m, n, r = 3, 2, 1
        w = 0.7
        ad = VariationalAdapter(
            w0=np.zeros((m, n)),
            b=np.array([[1.0], [0.0], [0.0]]),
            mean_a=np.zeros((r, n)),
            g=np.full((r, n), w),
        )
        q = build_full_posterior(ad, np.full((r, n), w))
        block = np.zeros((m, m))
        block[0, 0] = w**2
        for i in range(n):
            np.testing.assert_allclose(q.blocks[i], block)
            np.testing.assert_allclose(q.cov[i * m:(i + 1) * m, i * m:(i + 1) * m], block)

    def test_covariance_matches_kron_formula(self):
        rng = np.random.default_rng(6)
        ad = _random_adapter(4, 3, 2, rng)
        omega = _omega(ad)
        q = build_full_posterior(ad, omega)
        tilde_b = np.kron(np.eye(ad.n), ad.b)
        diag = np.diag((omega**2).T.ravel())  # vec(omega)^2, column-stacked
        expected = tilde_b @ diag @ tilde_b.T
        np.testing.assert_allclose(q.cov, expected, atol=1e-12)

    def test_rank_bound(self):
        rng = np.random.default_rng(8)
        ad = _random_adapter(5, 4, 2, rng)
        q = build_full_posterior(ad, _omega(ad))
        assert np.linalg.matrix_rank(q.cov) <= ad.n * ad.rank < ad.m * ad.n

    def test_size_guard(self):
        rng = np.random.default_rng(9)
        ad = _random_adapter(80, 80, 2, rng)
        with pytest.raises(ValueError):
            build_full_posterior(ad, _omega(ad))

    def test_omega_shape_checked(self):
        ad = _random_adapter(4, 3, 2, np.random.default_rng(9))
        with pytest.raises(ShapeError, match=r"^omega must be \(2, 3\)"):
            build_full_posterior(ad, _omega(ad).T)

    def test_blocks_follow_the_given_map(self):
        """A softplus omega gives blocks b diag(softplus(g)^2) b^T, not the
        square map's b diag(g^4) b^T: the builder reads no map of its own."""
        ad = _random_adapter(4, 3, 2, np.random.default_rng(7))
        softplus = apply_map(ParamMap.SOFTPLUS, ad.g)
        q = build_full_posterior(ad, softplus)
        square = build_full_posterior(ad, _omega(ad))
        for i in range(ad.n):
            expected = ad.b @ np.diag(np.log1p(np.exp(ad.g[:, i])) ** 2) @ ad.b.T
            np.testing.assert_allclose(q.blocks[i], expected, rtol=1e-13, atol=1e-15)
            assert np.abs(q.blocks[i] - square.blocks[i]).max() > 0.1 * np.abs(expected).max()


class TestFullPrior:
    def test_identity_b_gives_isotropic(self):
        # b square orthonormal: prior covariance is sigma_p^2 I.
        m = 3
        w0 = np.zeros((m, 2))
        p = build_full_prior(w0, np.eye(m), PriorSpec(0.5))
        np.testing.assert_allclose(p.cov, 0.25 * np.eye(6), atol=1e-13)

    def test_zero_b(self):
        p = build_full_prior(np.zeros((3, 2)), np.zeros((3, 1)), PriorSpec(1.0))
        np.testing.assert_array_equal(p.cov, np.zeros((6, 6)))

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(10)
        w0 = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 2))
        prior = PriorSpec(0.3)
        p = build_full_prior(w0, b, prior)
        expected = np.kron(np.eye(3), prior.sigma_p**2 * (b @ b.T))
        np.testing.assert_allclose(p.cov, expected, atol=1e-12)
        np.testing.assert_array_equal(p.mean, w0)

    def test_builders_place_blocks_as_scipy_block_diag(self):
        # Block i is the covariance of column i; the dense cov only places the blocks.
        from scipy.linalg import block_diag

        rng = np.random.default_rng(12)
        ad = _random_adapter(4, 3, 2, rng)
        omega = _omega(ad)
        q = build_full_posterior(ad, omega)
        for i in range(ad.n):
            np.testing.assert_allclose(q.blocks[i], ad.b @ np.diag(omega[:, i] ** 2) @ ad.b.T, rtol=1e-14)
        np.testing.assert_array_equal(q.cov, block_diag(*q.blocks))
        p = build_full_prior(ad.w0, ad.b, PriorSpec(0.3))
        np.testing.assert_array_equal(p.blocks, [0.3**2 * (ad.b @ ad.b.T)] * ad.n)
        np.testing.assert_array_equal(p.cov, block_diag(*p.blocks))


def _dense_kl_reference(q, p, lam):
    """The ridged Gaussian KL on the dense (mn x mn) covariances, by SciPy."""
    from scipy.linalg import cho_factor, cho_solve

    d = q.cov.shape[0]
    cov_q, cov_p = q.cov + lam * np.eye(d), p.cov + lam * np.eye(d)
    factor_q, factor_p = cho_factor(cov_q), cho_factor(cov_p)
    logdet_q = 2.0 * np.sum(np.log(np.diag(factor_q[0])))
    logdet_p = 2.0 * np.sum(np.log(np.diag(factor_p[0])))
    delta = (q.mean - p.mean).reshape(-1, order="F")
    trace_term = np.trace(cho_solve(factor_p, cov_q))
    quad = delta @ cho_solve(factor_p, delta)
    return 0.5 * (logdet_p - logdet_q - d + trace_term + quad)


class TestRegularizedKl:
    def test_identical_distributions(self):
        rng = np.random.default_rng(11)
        ad = _random_adapter(4, 3, 2, rng)
        q = build_full_posterior(ad, _omega(ad))
        for lam in (1e-4, 1e-8):
            assert kl_full_weight_regularized(q, q, lam) == pytest.approx(0.0, abs=1e-8)

    def test_zero_covariances_quadratic_term(self):
        # Sigma_q = Sigma_p = 0: KL reduces to ||mu_q - mu_p||^2 / (2 lambda).
        m, n = 5, 3
        rng = np.random.default_rng(12)
        mean_q = rng.normal(size=(m, n))
        mean_p = rng.normal(size=(m, n))
        q = FullWeightGaussian(mean=mean_q, blocks=np.zeros((n, m, m)))
        p = FullWeightGaussian(mean=mean_p, blocks=np.zeros((n, m, m)))
        lam = 1e-3
        expected = float(np.sum((mean_q - mean_p) ** 2)) / (2.0 * lam)
        assert kl_full_weight_regularized(q, p, lam) == pytest.approx(expected, rel=1e-9)

    def test_lambda_must_be_positive(self):
        q = FullWeightGaussian(mean=np.zeros((2, 1)), blocks=np.eye(2)[None])
        with pytest.raises(ValueError):
            kl_full_weight_regularized(q, q, 0.0)

    def test_shape_mismatch_rejected(self):
        q = FullWeightGaussian(mean=np.zeros((2, 3)), blocks=np.zeros((3, 2, 2)))
        p = FullWeightGaussian(mean=np.zeros((3, 2)), blocks=np.zeros((2, 3, 3)))
        with pytest.raises(ShapeError, match="shape mismatch"):
            kl_full_weight_regularized(q, p, 1e-4)

    @pytest.mark.parametrize("m, n, r", [(4, 3, 2), (6, 5, 3), (32, 32, 2)])
    @pytest.mark.parametrize("lam", [1e-4, 1e-6])
    def test_block_kl_matches_the_dense_reference(self, m, n, r, lam):
        """The sum of the n column KLs is the KL of the dense (mn)-dimensional
        Gaussians, up to rounding."""
        rng = np.random.default_rng(15)
        ad = _random_adapter(m, n, r, rng)
        q = build_full_posterior(ad, _omega(ad))
        p = build_full_prior(ad.w0, ad.b, PriorSpec(0.2))
        reference = _dense_kl_reference(q, p, lam)
        assert kl_full_weight_regularized(q, p, lam) == pytest.approx(reference, rel=1e-9)

    def test_converges_to_closed_form(self):
        """The ridged full-weight KL approaches the low-rank closed form as
        lambda -> 0+, monotonically over the checked sequence."""
        rng = np.random.default_rng(13)
        prior = PriorSpec(0.2)
        for trial in range(5):
            m = int(rng.integers(3, 7))
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, min(m, n)))
            ad = _random_adapter(m, n, r, rng)
            assert np.linalg.matrix_rank(ad.b) == r
            omega = _omega(ad)
            q = build_full_posterior(ad, omega)
            p = build_full_prior(ad.w0, ad.b, prior)
            closed = kl_closed_form(ad.mean_a, omega, prior)
            gaps = [
                abs(kl_full_weight_regularized(q, p, lam) - closed) / abs(closed)
                for lam in (1e-4, 1e-6, 1e-8)
            ]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] <= 1e-4

    def test_r_factor_choice_irrelevant(self):
        """Any R with R R^T = b b^T induces the same prior, hence the same KL."""
        rng = np.random.default_rng(14)
        ad = _random_adapter(4, 3, 2, rng)
        prior = PriorSpec(0.2)
        q = build_full_posterior(ad, _omega(ad))
        p_canonical = build_full_prior(ad.w0, ad.b, prior)
        orth, _ = np.linalg.qr(rng.normal(size=(ad.rank, ad.rank)))
        p_rotated = build_full_prior(ad.w0, ad.b, prior, r_factor=ad.b @ orth)
        a = kl_full_weight_regularized(q, p_canonical, 1e-8)
        b = kl_full_weight_regularized(q, p_rotated, 1e-8)
        assert a == pytest.approx(b, rel=1e-9)


class TestFullWeightGaussianType:
    def test_rejects_asymmetric(self):
        blocks = np.stack([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="not symmetric"):
            FullWeightGaussian(mean=np.zeros((2, 2)), blocks=blocks)

    def test_rejects_indefinite(self):
        blocks = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(ValueError, match="not PSD"):
            FullWeightGaussian(mean=np.zeros((2, 2)), blocks=blocks)

    def test_accepts_singular(self):
        blocks = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        FullWeightGaussian(mean=np.zeros((2, 2)), blocks=blocks)

    @pytest.mark.parametrize("mean_shape, blocks_shape", [
        ((2, 3), (2, 2, 2)),   # one block per column: 3 needed
        ((2, 3), (3, 3, 3)),   # blocks of the wrong size
        ((6,), (1, 6, 6)),     # a flat mean
    ])
    def test_rejects_shape_mismatch(self, mean_shape, blocks_shape):
        with pytest.raises(ShapeError):
            FullWeightGaussian(mean=np.zeros(mean_shape), blocks=np.zeros(blocks_shape))
