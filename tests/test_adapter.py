import numpy as np
import pytest

from bayeslora.adapter import (
    ShapeError,
    VariationalAdapter,
    branch_draws,
    branch_forward,
    forward_flipout,
    forward_mean,
    forward_naive_shared,
)


def _masks(ad, batch, rng):
    return branch_draws("flipout", rng, ad.n, batch, ad.rank)


def _random_adapter(m=5, n=4, r=2, seed=0, g_scale=(0.2, 0.8)):
    rng = np.random.default_rng(seed)
    return VariationalAdapter(
        w0=rng.normal(size=(m, n)),
        b=rng.normal(size=(m, r)),
        mean_a=rng.normal(size=(r, n)),
        g=rng.uniform(*g_scale, size=(r, n)),
    )


class TestInvariants:
    def test_rank_must_be_low(self):
        with pytest.raises(ValueError):
            VariationalAdapter(
                w0=np.zeros((3, 3)), b=np.zeros((3, 3)),
                mean_a=np.zeros((3, 3)), g=np.zeros((3, 3)),
            )

    def test_shapes_validated(self):
        with pytest.raises(ShapeError):
            VariationalAdapter(
                w0=np.zeros((4, 3)), b=np.zeros((4, 2)),
                mean_a=np.zeros((2, 4)), g=np.zeros((2, 3)),
            )

    def test_omega_nonnegative(self):
        ad = _random_adapter(seed=1)
        ad.g[0, 0] = -0.5
        assert np.all(ad.omega() >= 0.0)

    def test_masks_must_be_signs(self):
        ad = _random_adapter(m=4, n=3, r=2, seed=1)
        h = np.ones((3, 2))
        good = (np.ones((3, 2)), np.ones((2, 2)), np.zeros((2, 3)))
        forward_flipout(ad, h, good)
        for bad in ((np.zeros((3, 2)),) + good[1:], good[:1] + (np.full((2, 2), 0.5),) + good[2:]):
            with pytest.raises(ValueError, match="exactly"):
                forward_flipout(ad, h, bad)
        for bad in ((np.ones((2, 2)),) + good[1:], good[:1] + (np.ones((2, 3)),) + good[2:],
                    good[:2] + (np.zeros((3, 2)),)):
            with pytest.raises(ShapeError):
                forward_flipout(ad, h, bad)


class TestForwardMean:
    def test_zero_b_preserves_base(self):
        ad = _random_adapter(seed=2)
        ad.b[...] = 0.0
        h = np.random.default_rng(3).normal(size=(ad.n, 6))
        np.testing.assert_array_equal(forward_mean(ad, h), ad.w0 @ h)

    def test_identity_pieces(self):
        # w0 = 0, b and mean_a embed identities: output is b @ mean_a.
        m, n, r = 4, 3, 2
        b = np.zeros((m, r)); b[:r, :r] = np.eye(r)
        mean_a = np.zeros((r, n)); mean_a[:r, :r] = np.eye(r)
        ad = VariationalAdapter(w0=np.zeros((m, n)), b=b, mean_a=mean_a, g=np.full((r, n), 0.1))
        np.testing.assert_allclose(forward_mean(ad, np.eye(n)), b @ mean_a)

    def test_matches_two_term_product(self):
        ad = _random_adapter(m=4, n=3, seed=4)
        h = np.random.default_rng(5).normal(size=(3, 7))
        np.testing.assert_allclose(
            forward_mean(ad, h), ad.w0 @ h + ad.b @ ad.mean_a @ h, rtol=1e-13
        )

    def test_dimension_mismatch(self):
        ad = _random_adapter(seed=6)
        with pytest.raises(ShapeError):
            forward_mean(ad, np.zeros((ad.n + 1, 2)))


class TestSampleA:
    def test_monte_carlo_moments(self):
        """Mean -> mean_a, std -> g^2 over 1e5 draws (reparameterization check)."""
        ad = _random_adapter(m=5, n=3, r=2, seed=10, g_scale=(0.3, 0.9))
        rng = np.random.default_rng(11)
        draws = 100_000
        noise = rng.standard_normal(size=(draws, ad.rank, ad.n))
        samples = ad.mean_a[None] + ad.omega()[None] * noise
        emp_mean = samples.mean(axis=0)
        emp_std = samples.std(axis=0, ddof=1)
        omega = ad.omega()
        np.testing.assert_array_less(
            np.abs(emp_mean - ad.mean_a), 4.0 * omega / np.sqrt(draws) + 1e-12
        )
        np.testing.assert_allclose(emp_std, omega, rtol=0.02)


class TestFlipout:
    def test_zero_base_noise_equals_mean(self):
        ad = _random_adapter(seed=12)
        h = np.random.default_rng(13).normal(size=(ad.n, 6))
        s, t, _ = _masks(ad, 6, np.random.default_rng(14))
        masks = (s, t, np.zeros((ad.rank, ad.n)))
        np.testing.assert_allclose(forward_flipout(ad, h, masks), forward_mean(ad, h), rtol=1e-13)

    def test_batch_one_unit_masks_is_naive(self):
        ad = _random_adapter(seed=15)
        h = np.random.default_rng(16).normal(size=(ad.n, 1))
        e = np.random.default_rng(17).standard_normal((ad.rank, ad.n))
        masks = (np.ones((ad.n, 1)), np.ones((1, ad.rank)), e)
        np.testing.assert_allclose(
            forward_flipout(ad, h, masks), forward_naive_shared(ad, h, e), rtol=1e-13
        )

    def test_per_example_sign_mask_identity(self):
        """Column i equals a naive pass with perturbation (e*omega) * outer(t_i, s_i)."""
        ad = _random_adapter(seed=18)
        batch = 5
        h = np.random.default_rng(19).normal(size=(ad.n, batch))
        s, t, e = _masks(ad, batch, np.random.default_rng(20))
        out = forward_flipout(ad, h, (s, t, e))
        omega = ad.omega()
        for i in range(batch):
            delta_a = (e * omega) * np.outer(t[i], s[:, i])
            expect = ad.w0 @ h[:, i] + ad.b @ ((ad.mean_a + delta_a) @ h[:, i])
            np.testing.assert_allclose(out[:, i], expect, rtol=1e-12, atol=1e-12)

    def test_expectation_matches_mean_forward(self):
        """E[flipout output] == mean forward within 3 standard errors."""
        ad = _random_adapter(m=4, n=4, r=2, seed=21, g_scale=(0.3, 0.7))
        batch = 8
        rng = np.random.default_rng(22)
        h = rng.normal(size=(ad.n, batch))
        base = forward_mean(ad, h)
        draws = 100_000
        acc = np.zeros_like(base)
        acc2 = np.zeros_like(base)
        smp = np.random.default_rng(23)
        for _ in range(draws):
            masks = _masks(ad, batch, smp)
            z = forward_flipout(ad, h, masks)
            acc += z
            acc2 += z * z
        emp_mean = acc / draws
        emp_se = np.sqrt(np.maximum(acc2 / draws - emp_mean**2, 0.0) / draws)
        diff = np.abs(emp_mean - base)
        np.testing.assert_array_less(diff, 3.0 * emp_se + 1e-9)

    def test_zero_b_kills_perturbation(self):
        ad = _random_adapter(seed=24)
        ad.b[...] = 0.0
        h = np.random.default_rng(25).normal(size=(ad.n, 4))
        masks = _masks(ad, 4, np.random.default_rng(26))
        np.testing.assert_array_equal(forward_flipout(ad, h, masks), ad.w0 @ h)

    def test_empty_batch_rejected(self):
        ad = _random_adapter(seed=27)
        with pytest.raises(ShapeError):
            forward_flipout(ad, np.zeros((ad.n, 0)), _masks(ad, 0, np.random.default_rng(28)))
        with pytest.raises(ShapeError):
            forward_mean(ad, np.zeros((ad.n, 0)))

    def test_draw_order_and_signs(self):
        """Flipout draws s, then t, then e from one stream, the signs exactly
        +/-1; shared draws e alone; mean draws nothing and leaves the rng be."""
        for n, batch, r in ((50, 40, 3), (3, 7, 1), (2, 33, 2)):
            s, t, e = branch_draws("flipout", np.random.default_rng(29), n, batch, r)
            assert set(np.unique(s)) == {-1.0, 1.0} and set(np.unique(t)) == {-1.0, 1.0}
            rng = np.random.default_rng(29)
            np.testing.assert_array_equal(s, 2.0 * rng.integers(0, 2, (n, batch)) - 1.0)
            np.testing.assert_array_equal(t, 2.0 * rng.integers(0, 2, (batch, r)) - 1.0)
            np.testing.assert_array_equal(e, rng.standard_normal((r, n)))
        (e,) = branch_draws("shared", np.random.default_rng(29), 50, 40, 3)
        np.testing.assert_array_equal(e, np.random.default_rng(29).standard_normal((3, 50)))
        rng = np.random.default_rng(29)
        assert branch_draws("mean", rng, 50, 40, 3) == ()
        assert rng.random() == np.random.default_rng(29).random()
        assert branch_draws("mean", None, 50, 40, 3) == ()


class TestStackedBranch:
    @pytest.mark.parametrize("mode", ["flipout", "shared"])
    def test_stacked_draws_give_the_per_draw_branches_bit_for_bit(self, mode):
        """Draws stacked along a leading axis give, slice by slice, exactly
        the branch of each draw alone (the stacked flipout oracle relies on it)."""
        ad = _random_adapter(m=8, n=8, r=2, seed=34)
        batch = 64
        h = np.random.default_rng(35).normal(size=(ad.n, batch))
        rng = np.random.default_rng(36)
        draws = [branch_draws(mode, rng, ad.n, batch, ad.rank) for _ in range(5)]
        stacked = tuple(np.stack(part) for part in zip(*draws))
        out = branch_forward(mode, ad.mean_a, ad.omega(), h, stacked)
        for d, one in enumerate(draws):
            np.testing.assert_array_equal(out[d], branch_forward(mode, ad.mean_a, ad.omega(), h, one))


class TestNaiveShared:
    def test_zero_noise_is_mean(self):
        ad = _random_adapter(seed=29)
        h = np.random.default_rng(30).normal(size=(ad.n, 5))
        np.testing.assert_allclose(
            forward_naive_shared(ad, h, np.zeros((ad.rank, ad.n))), forward_mean(ad, h)
        )

    def test_decorrelation_at_full_draw_count(self):
        """At 1e5 draws with identical inputs, cross-example perturbation
        correlation is <= 0.05 under flipout and >= 0.5 under shared noise."""
        rng = np.random.default_rng(50)
        m = n = 8
        r, batch = 2, 16
        ad = VariationalAdapter(
            w0=rng.normal(size=(m, n)),
            b=rng.normal(size=(m, r)),
            mean_a=rng.normal(0, 0.5, size=(r, n)),
            g=rng.uniform(0.3, 0.8, size=(r, n)),
        )
        h = np.tile(rng.normal(size=(n, 1)), (1, batch))
        omega = ad.omega()
        draws, chunk = 100_000, 5_000

        def corr_stats(mode):
            total = np.zeros((m, batch))
            cross = np.zeros((m, batch, batch))
            done = 0
            while done < draws:
                take = min(chunk, draws - done)
                e = rng.standard_normal((take, r, n))
                if mode == "flipout":
                    s = 2.0 * rng.integers(0, 2, (take, n, batch)) - 1.0
                    t = 2.0 * rng.integers(0, 2, (take, batch, r)) - 1.0
                    qr = np.einsum("drn,dnb->drb", e * omega, h[None] * s)
                    inner = qr * t.transpose(0, 2, 1)
                else:
                    inner = np.einsum("drn,nb->drb", omega * e, h)
                delta = np.einsum("mr,drb->dmb", ad.b, inner)
                total += delta.sum(axis=0)
                cross += np.einsum("dki,dkj->kij", delta, delta)
                done += take
            mean = total / draws
            cov = cross / draws - np.einsum("ki,kj->kij", mean, mean)
            sd = np.sqrt(np.einsum("kii->ki", cov))
            corr = cov / (sd[:, :, None] * sd[:, None, :] + 1e-300)
            iu = np.triu_indices(batch, 1)
            return float(np.abs(corr[:, iu[0], iu[1]]).mean())

        assert corr_stats("flipout") <= 0.05
        assert corr_stats("shared") >= 0.5

    def test_shared_noise_correlates_examples_more_than_flipout(self):
        """Mean |cross-example covariance| is strictly larger under shared noise."""
        ad = _random_adapter(m=6, n=5, r=2, seed=31, g_scale=(0.3, 0.8))
        batch = 6
        rng = np.random.default_rng(32)
        h = rng.normal(size=(ad.n, batch))
        base = forward_mean(ad, h)
        draws = 10_000
        smp = np.random.default_rng(33)

        def mean_abs_cross_cov(mode):
            deltas = np.empty((draws, ad.m, batch))
            for d in range(draws):
                if mode == "flipout":
                    deltas[d] = forward_flipout(ad, h, _masks(ad, batch, smp)) - base
                else:
                    noise = smp.standard_normal((ad.rank, ad.n))
                    deltas[d] = forward_naive_shared(ad, h, noise) - base
            centred = deltas - deltas.mean(axis=0, keepdims=True)
            cov = np.einsum("dki,dkj->kij", centred, centred) / (draws - 1)
            iu = np.triu_indices(batch, 1)
            return float(np.abs(cov[:, iu[0], iu[1]]).mean())

        assert mean_abs_cross_cov("shared") > mean_abs_cross_cov("flipout")
