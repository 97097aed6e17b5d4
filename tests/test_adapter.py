import sys

import numpy as np
import pytest

from bayeslora.adapter import (
    ShapeError,
    VariationalAdapter,
    _raw_signs_exact,
    _signs_then_normals,
    branch_backward,
    branch_draws,
    branch_forward,
    forward_flipout,
    forward_mean,
    forward_naive_shared,
)
from bayeslora.parammaps import ParamMap, apply_map


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


def _omega(ad):
    """The std of an adapter's a-factor under the square map."""
    return apply_map(ParamMap.SQUARE, ad.g)


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
        assert np.all(_omega(ad) >= 0.0)

    def test_masks_must_be_signs(self):
        ad = _random_adapter(m=4, n=3, r=2, seed=1)
        h = np.ones((3, 2))
        good = (np.ones((3, 2)), np.ones((2, 2)), np.zeros((2, 3)))
        omega = _omega(ad)
        forward_flipout(ad, omega, h, good)
        for bad in ((np.zeros((3, 2)),) + good[1:], good[:1] + (np.full((2, 2), 0.5),) + good[2:]):
            with pytest.raises(ValueError, match="exactly"):
                forward_flipout(ad, omega, h, bad)
        for bad in ((np.ones((2, 2)),) + good[1:], good[:1] + (np.ones((2, 3)),) + good[2:],
                    good[:2] + (np.zeros((3, 2)),)):
            with pytest.raises(ShapeError):
                forward_flipout(ad, omega, h, bad)

    def test_omega_shape_checked(self):
        ad = _random_adapter(m=4, n=3, r=2, seed=1)
        h = np.ones((3, 2))
        draws = (np.ones((3, 2)), np.ones((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"^omega must be \(2, 3\)"):
            forward_flipout(ad, _omega(ad).T, h, draws)
        with pytest.raises(ShapeError, match=r"^omega must be \(2, 3\)"):
            forward_naive_shared(ad, np.ones(3), h, draws[2])


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
        """Mean -> mean_a, std -> omega over 1e5 draws (reparameterization check)."""
        ad = _random_adapter(m=5, n=3, r=2, seed=10, g_scale=(0.3, 0.9))
        rng = np.random.default_rng(11)
        draws = 100_000
        noise = rng.standard_normal(size=(draws, ad.rank, ad.n))
        omega = _omega(ad)
        samples = ad.mean_a[None] + omega[None] * noise
        emp_mean = samples.mean(axis=0)
        emp_std = samples.std(axis=0, ddof=1)
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
        np.testing.assert_allclose(forward_flipout(ad, _omega(ad), h, masks), forward_mean(ad, h), rtol=1e-13)

    def test_batch_one_unit_masks_is_naive(self):
        ad = _random_adapter(seed=15)
        h = np.random.default_rng(16).normal(size=(ad.n, 1))
        e = np.random.default_rng(17).standard_normal((ad.rank, ad.n))
        masks = (np.ones((ad.n, 1)), np.ones((1, ad.rank)), e)
        np.testing.assert_allclose(
            forward_flipout(ad, _omega(ad), h, masks), forward_naive_shared(ad, _omega(ad), h, e), rtol=1e-13
        )

    def test_per_example_sign_mask_identity(self):
        """Column i equals a naive pass with perturbation (e*omega) * outer(t_i, s_i)."""
        ad = _random_adapter(seed=18)
        batch = 5
        h = np.random.default_rng(19).normal(size=(ad.n, batch))
        s, t, e = _masks(ad, batch, np.random.default_rng(20))
        omega = _omega(ad)
        out = forward_flipout(ad, omega, h, (s, t, e))
        for i in range(batch):
            delta_a = (e * omega) * np.outer(t[i], s[:, i])
            expect = ad.w0 @ h[:, i] + ad.b @ ((ad.mean_a + delta_a) @ h[:, i])
            np.testing.assert_allclose(out[:, i], expect, rtol=1e-12, atol=1e-12)

    def test_expectation_matches_mean_forward(self):
        """The flipout perturbation is odd in e, so for every draw (s, t, e)
        the branches at e and at -e average to the mean branch, exactly up
        to rounding: within 1e-15 of the larger of |mean branch| and the
        mean |flipout branch|.  The expectation over e is then the mean
        branch itself, and the layer output is linear in the branch."""
        ad = _random_adapter(m=4, n=4, r=2, seed=21, g_scale=(0.3, 0.7))
        batch = 8
        h = np.random.default_rng(22).normal(size=(ad.n, batch))
        omega = _omega(ad)
        c_mean = branch_forward("mean", ad.mean_a, omega, h, ())
        smp = np.random.default_rng(23)
        for _ in range(2000):
            s, t, e = branch_draws("flipout", smp, ad.n, batch, ad.rank)
            c_pos = branch_forward("flipout", ad.mean_a, omega, h, (s, t, e))
            c_neg = branch_forward("flipout", ad.mean_a, omega, h, (s, t, -e))
            scale = np.maximum(np.abs(c_mean), 0.5 * (np.abs(c_pos) + np.abs(c_neg)))
            assert np.all(np.abs(0.5 * (c_pos + c_neg) - c_mean) <= 1e-15 * scale)

    def test_zero_b_kills_perturbation(self):
        ad = _random_adapter(seed=24)
        ad.b[...] = 0.0
        h = np.random.default_rng(25).normal(size=(ad.n, 4))
        masks = _masks(ad, 4, np.random.default_rng(26))
        np.testing.assert_array_equal(forward_flipout(ad, _omega(ad), h, masks), ad.w0 @ h)

    def test_empty_batch_rejected(self):
        ad = _random_adapter(seed=27)
        with pytest.raises(ShapeError):
            forward_flipout(ad, _omega(ad), np.zeros((ad.n, 0)), _masks(ad, 0, np.random.default_rng(28)))
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
        out = branch_forward(mode, ad.mean_a, _omega(ad), h, stacked)
        for d, one in enumerate(draws):
            np.testing.assert_array_equal(out[d], branch_forward(mode, ad.mean_a, _omega(ad), h, one))

    @pytest.mark.parametrize("mode", ["flipout", "shared"])
    def test_stacked_backward_gives_the_per_draw_gradients_bit_for_bit(self, mode):
        """branch_backward on stacked draws and a stacked dc gives, slice by
        slice, the bytes of each draw's own call, for all three gradients."""
        ad = _random_adapter(m=8, n=8, r=2, seed=37)
        batch = 16
        h = np.random.default_rng(38).normal(size=(ad.n, batch))
        rng = np.random.default_rng(39)
        draws = [branch_draws(mode, rng, ad.n, batch, ad.rank) for _ in range(5)]
        dc = rng.normal(size=(5, ad.rank, batch))
        stacked = tuple(np.stack(part) for part in zip(*draws))
        out = branch_backward(mode, ad.mean_a, _omega(ad), h, stacked, dc)
        for d, one in enumerate(draws):
            alone = branch_backward(mode, ad.mean_a, _omega(ad), h, one, dc[d])
            assert [grad[d].tobytes() for grad in out] == [grad.tobytes() for grad in alone]


class TestDrawStream:
    @pytest.mark.parametrize("k", [1, 2, 3, 128, 640, 1088, 1089, 4160])
    @pytest.mark.parametrize("after_odd", [False, True])
    def test_signs_equal_integers_and_leave_the_stream_in_place(self, k, after_odd):
        """The signs are those of rng.integers(0, 2, size=k), from raw words
        or not, and the next 32-bit and 64-bit draws match too: a NumPy
        release that changes integers fails here, not in a golden."""
        for seed in range(200):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            if after_odd:  # leaves a half word buffered
                rng.integers(0, 2, size=3), ref.integers(0, 2, size=3)
            assert _raw_signs_exact(rng, k) == (not after_odd and k % 2 == 0 and sys.byteorder == "little")
            signs, e = _signs_then_normals(rng, k, (5,), None)
            np.testing.assert_array_equal(signs, 2.0 * ref.integers(0, 2, size=k) - 1.0)
            np.testing.assert_array_equal(e, ref.standard_normal(5))
            np.testing.assert_array_equal(rng.integers(0, 2, 7), ref.integers(0, 2, 7))
            np.testing.assert_array_equal(rng.standard_normal(5), ref.standard_normal(5))

    def test_other_bit_generators_draw_through_integers(self):
        rng = np.random.Generator(np.random.MT19937(5))
        assert not _raw_signs_exact(rng, 128)
        signs, _ = _signs_then_normals(rng, 128, (2,), None)
        np.testing.assert_array_equal(signs, 2.0 * np.random.Generator(np.random.MT19937(5)).integers(0, 2, 128) - 1.0)

    @pytest.mark.parametrize("mode", ["flipout", "shared", "mean"])
    @pytest.mark.parametrize("count", [1, 7, 1000])
    @pytest.mark.parametrize("n, batch, r", [(8, 64, 2), (3, 3, 2)])  # 640 and 15 signs
    @pytest.mark.parametrize("after_odd", [False, True])
    def test_count_stacks_consecutive_single_calls(self, mode, count, n, batch, r, after_odd):
        """branch_draws(..., count=c) is c single calls stacked, bit for bit,
        and leaves the generator where they leave it."""
        rng, ref = np.random.default_rng(61), np.random.default_rng(61)
        if after_odd:
            rng.integers(0, 2, size=3), ref.integers(0, 2, size=3)
        stacked = branch_draws(mode, rng, n, batch, r, count)
        singles = [branch_draws(mode, ref, n, batch, r) for _ in range(count)]
        assert len(stacked) == len(singles[0])
        for got, parts in zip(stacked, zip(*singles)):
            np.testing.assert_array_equal(got, np.stack(parts))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="^count must be >= 1"):
            branch_draws("flipout", np.random.default_rng(0), 8, 64, 2, count)


class TestNaiveShared:
    def test_zero_noise_is_mean(self):
        ad = _random_adapter(seed=29)
        h = np.random.default_rng(30).normal(size=(ad.n, 5))
        np.testing.assert_allclose(
            forward_naive_shared(ad, _omega(ad), h, np.zeros((ad.rank, ad.n))), forward_mean(ad, h)
        )

    @pytest.mark.parametrize("m, n, r", [(4, 3, 2), (12, 10, 7)])
    def test_stacked_noise_gives_the_per_draw_passes_bit_for_bit(self, m, n, r):
        """A (d, r, n) noise stack gives, slice by slice, the bytes of each
        noise's own pass (the posterior-moment oracle draws through it)."""
        ad = _random_adapter(m=m, n=n, r=r, seed=m + n + r)
        for h in (np.random.default_rng(31).normal(size=(n, 5)), np.eye(n)):
            noise = np.random.default_rng(32).standard_normal(size=(6, r, n))
            out = forward_naive_shared(ad, _omega(ad), h, noise)
            assert out.shape == (6, m, h.shape[1])
            for d in range(6):
                assert out[d].tobytes() == forward_naive_shared(ad, _omega(ad), h, noise[d]).tobytes()

    @pytest.mark.parametrize("shape", [(4, 2), (6, 4, 2), (6, 2, 5), (4,), (2, 4, 1)])
    def test_wrong_trailing_noise_shape_rejected(self, shape):
        ad = _random_adapter()  # noise must end in (2, 4)
        with pytest.raises(ShapeError, match=r"^noise must be \(2, 4\)"):
            forward_naive_shared(ad, _omega(ad), np.ones((ad.n, 3)), np.zeros(shape))

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
        omega = _omega(ad)
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
        omega = _omega(ad)
        draws = 10_000
        smp = np.random.default_rng(33)

        def mean_abs_cross_cov(mode):
            deltas = np.empty((draws, ad.m, batch))
            for d in range(draws):
                if mode == "flipout":
                    deltas[d] = forward_flipout(ad, omega, h, _masks(ad, batch, smp)) - base
                else:
                    noise = smp.standard_normal((ad.rank, ad.n))
                    deltas[d] = forward_naive_shared(ad, omega, h, noise) - base
            centred = deltas - deltas.mean(axis=0, keepdims=True)
            cov = np.einsum("dki,dkj->kij", centred, centred) / (draws - 1)
            iu = np.triu_indices(batch, 1)
            return float(np.abs(cov[:, iu[0], iu[1]]).mean())

        assert mean_abs_cross_cov("shared") > mean_abs_cross_cov("flipout")
