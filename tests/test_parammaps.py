import math

import numpy as np
import pytest

from bayeslora.parammaps import (
    ParamMap,
    apply_map,
    convergence_race,
    inverse_map,
    kl_grad_rho,
    race_curve,
    scalar_kl,
)


class TestApply:
    def test_square(self):
        assert apply_map(ParamMap.SQUARE, 0.1) == pytest.approx(0.01, rel=1e-15)

    def test_softplus_zero(self):
        assert apply_map(ParamMap.SOFTPLUS, 0.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_softplus_asymptote(self):
        # For large rho, softplus(rho) -> rho; checked against the exact tail bound.
        assert abs(apply_map(ParamMap.SOFTPLUS, 30.0) - 30.0) < 1e-9

    def test_softplus_no_overflow(self):
        assert np.isfinite(apply_map(ParamMap.SOFTPLUS, 5000.0))

    def test_inverse_round_trip(self):
        for pmap in ParamMap:
            for sigma in (0.01, 0.2, 1.0, 4.0):
                rho = inverse_map(pmap, sigma)
                assert apply_map(pmap, rho) == pytest.approx(sigma, rel=1e-10)

    def test_inverse_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inverse_map(ParamMap.SQUARE, 0.0)


class TestKlGrad:
    def test_square_hand_value(self):
        # -2/0.1 + 2 * 0.1**3 / 1 = -19.998
        assert kl_grad_rho(ParamMap.SQUARE, 0.1, 1.0) == pytest.approx(-19.998, rel=1e-12)

    def test_square_fixed_point(self):
        # sigma(rho) = sigma_p is the KL minimum: gradient vanishes.
        sigma_p = 0.7
        assert kl_grad_rho(ParamMap.SQUARE, math.sqrt(sigma_p), sigma_p) == pytest.approx(0.0, abs=1e-12)

    def test_square_rho_zero_rejected(self):
        with pytest.raises(ValueError):
            kl_grad_rho(ParamMap.SQUARE, 0.0, 1.0)

    def test_softplus_plateau_near_minus_one(self):
        # With sigma_q = 0.01 and sigma_p = 1 the softplus gradient sits near -1.
        rho = inverse_map(ParamMap.SOFTPLUS, 0.01)
        assert kl_grad_rho(ParamMap.SOFTPLUS, rho, 1.0) == pytest.approx(-1.0, abs=0.01)

    def test_matches_finite_differences(self):
        h = 1e-6
        points = {
            ParamMap.SQUARE: (0.05, 0.1, 0.4, 0.9, -0.3),
            ParamMap.SOFTPLUS: (-4.0, -1.0, 0.0, 0.5, 2.0),
        }
        for pmap, rhos in points.items():
            for rho in rhos:
                for sigma_p in (0.2, 1.0):
                    fd = (scalar_kl(pmap, rho + h, sigma_p) - scalar_kl(pmap, rho - h, sigma_p)) / (2 * h)
                    an = kl_grad_rho(pmap, rho, sigma_p)
                    assert an == pytest.approx(fd, rel=1e-6), (pmap, rho, sigma_p)

    def test_square_gradient_blows_up_near_zero(self):
        for rho in (0.001, 0.01, 0.05, 0.1):
            assert abs(kl_grad_rho(ParamMap.SQUARE, rho, 1.0)) >= 1.0 / abs(rho)

    def test_softplus_gradient_bounded_near_zero(self):
        for sigma_q in (0.001, 0.01, 0.03, 0.05):
            rho = inverse_map(ParamMap.SOFTPLUS, sigma_q)
            assert abs(kl_grad_rho(ParamMap.SOFTPLUS, rho, 1.0)) <= 1.1


class TestRace:
    def test_already_at_target(self):
        assert convergence_race(ParamMap.SQUARE, 1.0, 1.0, 1e-4, 0.9, 1000) == 0

    def test_square_wins_reference_setting(self):
        steps = convergence_race(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 0.9, 10_000)
        assert 0 < steps < 10_000

    def test_softplus_stalls_reference_setting(self):
        assert convergence_race(ParamMap.SOFTPLUS, 1.0, 0.01, 1e-4, 0.9, 50_000) == 50_000

    def test_softplus_eventually_converges_around_1e5(self):
        # The softplus map does reach the target, an order of magnitude
        # later than the square map (roughly 1e5 plain-descent steps).
        steps = convergence_race(ParamMap.SOFTPLUS, 1.0, 0.01, 1e-4, 0.9, 200_000)
        assert 50_000 < steps < 200_000

    def test_square_faster_on_grid(self):
        for sigma_p in (0.1, 0.5, 1.0):
            for sigma_q0 in (0.01, 0.05):
                if sigma_q0 >= 0.9 * sigma_p:
                    continue
                cap = 200_000
                sq = convergence_race(ParamMap.SQUARE, sigma_p, sigma_q0, 1e-4, 0.9 * sigma_p, cap)
                sp = convergence_race(ParamMap.SOFTPLUS, sigma_p, sigma_q0, 1e-4, 0.9 * sigma_p, cap)
                assert sq < sp, (sigma_p, sigma_q0, sq, sp)

    def test_target_above_prior_rejected(self):
        with pytest.raises(ValueError):
            convergence_race(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 1.5, 100)

    def test_curve_rejects_record_every_below_one(self):
        with pytest.raises(ValueError, match="record_every"):
            race_curve(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 10, record_every=0)

    def test_race_stops_where_the_curve_first_reaches_the_target(self):
        curve = race_curve(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 10_000)
        first = next(step for step, sigma in curve if sigma >= 0.9)
        assert convergence_race(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 0.9, 10_000) == first

    def test_curve_monotone_and_consistent(self):
        curve = race_curve(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 2000, record_every=100)
        sigmas = [s for _, s in curve]
        assert sigmas[0] == 0.01
        assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))
