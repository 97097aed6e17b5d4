import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeslora import parammaps
from bayeslora.kl import gaussian_kl
from bayeslora.parammaps import (
    ParamMap,
    _apply_scalar,
    apply_map,
    convergence_race,
    inverse_map,
    kl_grad_rho,
    map_derivative,
    race_curve,
)


def _assert_same_bits(got, want):
    """Equal float64 bit patterns, signed zeros included; a NaN matches any NaN."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


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

    def test_softplus_derivative_is_scipy_expit_bit_for_bit(self):
        # training bytes rest on expit; NumPy's 1/(1+exp(-x)) rounds differently on ~2 % of inputs
        from scipy.special import expit

        edge = parammaps._EXP_MAX
        x = np.concatenate([
            np.linspace(-40.0, 40.0, 10_001),
            [-700.0, 700.0, edge, 1e308, np.inf, -np.inf, 0.0, -0.0, np.nan],
            np.random.default_rng(0).normal(0.0, 3.0, 100_000),
        ])
        # -rho past _EXP_MAX: math.exp overflows, and expit's libm exp gives inf
        overflow = np.concatenate([x[:5], [-edge, np.nextafter(-edge, -np.inf), -745.0, -1e308]])
        for rho in (x, overflow, x[-64:].reshape(2, 32), np.array(-1.25), 0.75, -edge, -745.0, np.nan):
            got, want = map_derivative(ParamMap.SOFTPLUS, rho), expit(rho)
            assert type(got) is type(want)
            _assert_same_bits(got, want)

    def test_exp_max_is_where_math_exp_overflows(self):
        assert math.exp(parammaps._EXP_MAX) < math.inf
        with pytest.raises(OverflowError):
            math.exp(np.nextafter(parammaps._EXP_MAX, np.inf))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_softplus_derivative_matches_expit_on_any_finite_float(self, rho):
        from scipy.special import expit

        got = map_derivative(ParamMap.SOFTPLUS, rho)
        assert type(got) is np.float64
        _assert_same_bits(got, expit(rho))

    def test_inverse_round_trip(self):
        for pmap in ParamMap:
            for sigma in (0.01, 0.2, 1.0, 4.0):
                rho = inverse_map(pmap, sigma)
                assert apply_map(pmap, rho) == pytest.approx(sigma, rel=1e-10)

    def test_inverse_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inverse_map(ParamMap.SQUARE, 0.0)


def _coordinate_kl(pmap, rho, sigma_p):
    """The training KL, ``gaussian_kl``, of one zero-mean coordinate at sigma(rho)."""
    return gaussian_kl(np.zeros(1), np.array([apply_map(pmap, rho)]), sigma_p)[0]


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
                    fd = (_coordinate_kl(pmap, rho + h, sigma_p) - _coordinate_kl(pmap, rho - h, sigma_p)) / (2 * h)
                    an = kl_grad_rho(pmap, rho, sigma_p)
                    assert an == pytest.approx(fd, rel=1e-6), (pmap, rho, sigma_p)

    @pytest.mark.parametrize("pmap", list(ParamMap))
    def test_is_the_training_gradient(self, pmap):
        """The race descends what training applies to g: gaussian_kl's
        d/d omega times map_derivative, to rounding of the closed form's size."""
        rng = np.random.default_rng(17)
        low, high = (-2.0, 2.0) if pmap is ParamMap.SQUARE else (-8.0, 4.0)
        for rho, sigma_p in zip(rng.uniform(low, high, 20_000), rng.uniform(0.05, 2.0, 20_000)):
            omega = apply_map(pmap, rho)
            _, _, d_omega = gaussian_kl(np.zeros(1), np.array([omega]), sigma_p)
            training = d_omega[0] * map_derivative(pmap, rho)
            scale = abs(map_derivative(pmap, rho)) * (omega / sigma_p**2 + 1.0 / omega)
            assert abs(kl_grad_rho(pmap, float(rho), float(sigma_p)) - training) <= 4e-15 * scale

    def test_scalar_softplus_matches_apply_map(self):
        """The race's Python-float softplus stays within 2 ulp of the array
        map training uses, both sides of its rho > 30 branch included."""
        for rho in np.linspace(-740.0, 740.0, 42_001):
            sigma = apply_map(ParamMap.SOFTPLUS, rho)
            assert abs(_apply_scalar(ParamMap.SOFTPLUS, float(rho)) - sigma) <= 2 * np.spacing(sigma), rho

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

    @pytest.mark.parametrize("pmap", [ParamMap.SQUARE, ParamMap.SOFTPLUS])
    @pytest.mark.parametrize(
        "sigma_p, lr, n_steps, message",
        [
            (0.0, 1e-4, 10, "^sigma_p must be positive, got 0.0"),
            (-1.0, 1e-4, 10, "^sigma_p must be positive, got -1.0"),
            (1.0, 0.0, 10, "^lr must be positive, got 0.0"),
            (1.0, -1.0, 3, "^lr must be positive, got -1.0"),
            (1.0, 1e-4, -5, "^the step count must be >= 0, got -5"),
        ],
    )
    def test_bad_descent_arguments_are_named(self, pmap, sigma_p, lr, n_steps, message):
        """The race and the curve reject a prior scale, learning rate or step
        count that gives no descent to compare, before the first step."""
        with pytest.raises(ValueError, match=message):
            race_curve(pmap, sigma_p, 0.01, lr, n_steps)
        with pytest.raises(ValueError, match=message):
            convergence_race(pmap, sigma_p, 0.01, lr, 0.005, n_steps)

    @pytest.mark.parametrize(
        "pmap, lr, message",
        [
            # rho**3 overflows at step 6; sigma was 404, 2.6e8, ... 1.5e235 before it.
            (ParamMap.SQUARE, 1.0, r"^lr = 1.0 makes the descent diverge: sigma = inf at step 6$"),
            # One step overshoots rho to about -1e6, where softplus is exactly 0.
            (ParamMap.SOFTPLUS, 1e6, r"^lr = 1000000.0 makes the descent diverge: sigma = 0.0 at step 2$"),
        ],
    )
    def test_diverging_descent_names_lr(self, pmap, lr, message):
        """A step size that sends sigma past the float range, or to 0, raises
        at that step instead of writing the runaway values or a traceback."""
        with pytest.raises(ValueError, match=message):
            race_curve(pmap, 1.0, 0.01, lr, 10)

    def test_race_stops_where_the_curve_first_reaches_the_target(self):
        curve = race_curve(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 10_000)
        first = next(step for step, sigma in curve if sigma >= 0.9)
        assert convergence_race(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 0.9, 10_000) == first

    def test_curve_monotone_and_consistent(self):
        curve = race_curve(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 2000, record_every=100)
        sigmas = [s for _, s in curve]
        assert sigmas[0] == 0.01
        assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))


def _reference_curve(pmap, sigma_p, sigma_q0, lr, n_steps):
    """The descent as two separate calls per step, kl_grad_rho then
    _apply_scalar: (the curve, the step that diverged or None)."""
    curve = [(0, sigma_q0)]
    rho = float(inverse_map(pmap, sigma_q0))
    for step in range(1, n_steps + 1):
        try:
            rho -= lr * kl_grad_rho(pmap, rho, sigma_p)
        except OverflowError:
            rho = math.inf
        sigma = _apply_scalar(pmap, rho)
        if not 0.0 < sigma < math.inf:
            return curve, step
        curve.append((step, sigma))
    return curve, None


class TestDescent:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        pmap=st.sampled_from(list(ParamMap)),
        sigma_p=st.floats(0.05, 3.0),
        sigma_q0=st.floats(1e-3, 3.0),
        lr=st.floats(-6.0, 0.5).map(lambda x: 10.0**x),
        n_steps=st.integers(0, 2000),
    )
    def test_curve_is_the_two_call_loop_bit_for_bit(self, pmap, sigma_p, sigma_q0, lr, n_steps):
        """Feeding each step the sigma the step before yielded changes no bit
        of the curve, and a diverging descent stops at the same step."""
        reference, diverged = _reference_curve(pmap, sigma_p, sigma_q0, lr, n_steps)
        if diverged is not None:
            with pytest.raises(ValueError, match=f"at step {diverged}$"):
                race_curve(pmap, sigma_p, sigma_q0, lr, n_steps)
            return
        curve = race_curve(pmap, sigma_p, sigma_q0, lr, n_steps)
        assert [(step, sigma.hex()) for step, sigma in curve] == [
            (step, sigma.hex()) for step, sigma in reference]

    @pytest.mark.parametrize("pmap", list(ParamMap))
    def test_descent_evaluates_the_map_once_per_step(self, monkeypatch, pmap):
        sigma_of, grad = parammaps._SCALAR[pmap]
        rhos = []

        def counted(rho):
            rhos.append(rho)
            return sigma_of(rho)

        monkeypatch.setitem(parammaps._SCALAR, pmap, (counted, grad))
        race_curve(pmap, 1.0, 0.01, 1e-4, 500)
        assert len(rhos) == 501

    def test_softplus_descent_takes_one_log1p_per_step(self, monkeypatch):
        """Counted at the math call, so a second softplus evaluation hidden in
        the gradient shows too."""
        calls = []

        def log1p(x):
            calls.append(x)
            return math.log1p(x)

        monkeypatch.setattr(parammaps, "math", SimpleNamespace(exp=math.exp, inf=math.inf, log1p=log1p))
        race_curve(ParamMap.SOFTPLUS, 1.0, 0.01, 1e-4, 500)
        assert len(calls) == 501
