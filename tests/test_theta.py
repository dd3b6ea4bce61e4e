"""Tests for the time scaling paths: correction ODE and coefficient system."""

import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from vel import theta
from vel.params import GasParams, derive_constants

GAMMAS = (4.0 / 3.0, 5.0 / 3.0, 2.0, 3.0)


class TestNu:
    def test_unit_at_zero(self):
        assert theta.nu(2.0, 0.0) == 1.0

    def test_doubling_time(self):
        # (1+31)^{1/5} = 2
        assert_allclose(theta.nu(2.0, 31.0), 2.0, rtol=1e-14)

    def test_first_derivative_at_zero(self):
        assert_allclose(theta.nu(2.0, 0.0, 1), 0.2, rtol=1e-14)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivative_matches_difference_quotient(self, gamma, order):
        t = 0.7
        d = 1e-6
        fd = (theta.nu(gamma, t + d, order - 1) - theta.nu(gamma, t - d, order - 1)) / (
            2.0 * d
        )
        assert_allclose(theta.nu(gamma, t, order), fd, rtol=1e-8)

    def test_vectorized(self):
        ts = np.array([0.0, 1.0, 31.0])
        out = theta.nu(2.0, ts)
        assert out.shape == ts.shape
        assert_allclose(out, (1.0 + ts) ** 0.2, rtol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            theta.nu(2.0, -0.5)


class TestIntegrateH:
    def test_initial_acceleration(self):
        # h = h_t = 0 at t = 0, so h_tt(0) is the forcing p(1-p) with p = 0.2
        path = theta.integrate_h(2.0, 10.0, num_samples=201)
        h_tt = path.theta_tt - theta.nu(2.0, path.times, 2)
        assert_allclose(h_tt[0], 0.16, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.0, 1e2, 1e4, 1e5])
    def test_default_forcing_is_minus_nu_tt(self, gamma, t):
        # nu_t = c nu^{2-3g} holds exactly, so only -nu_tt is left
        p = 1.0 / (3.0 * gamma - 1.0)
        expected = p * (1.0 - p) * (1.0 + t) ** (p - 2.0)
        assert_allclose(-theta._scalar_nu(gamma, 2)(t), expected, rtol=1e-14)

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 2.0])
    def test_default_forcing_path_matches_nu_calls(self, gamma):
        # the scalar nu of the right-hand side is nu bit for bit: the law
        # written with nu itself gives the same path
        c, q = 1.0 / (3.0 * gamma - 1.0), 2.0 - 3.0 * gamma

        def rhs(t, y):
            base = theta.nu(gamma, t)
            return (y[1], -y[1] + c * ((base + y[0]) ** q - base**q)
                    - theta.nu(gamma, t, 2))

        fast = theta.integrate_h(gamma, 1e3)
        slow, _ = theta._dopri5(rhs, (0.0, 0.0), 1e3, 1e-10, 1e-10, fast.times)
        assert np.array_equal(fast.h, slow[:, 0])
        assert np.array_equal(fast.h_t, slow[:, 1])

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 5.0 / 3.0, 2.0, 3.0])
    def test_scalar_nu_is_nu(self, gamma):
        times = np.linspace(0.0, 1e4, 301)
        for order in (0, 2):
            fast = theta._scalar_nu(gamma, order)
            assert all(fast(float(t)) == theta.nu(gamma, float(t), order)
                       for t in times)

    def test_initial_values(self):
        path = theta.integrate_h(2.0, 10.0, num_samples=201)
        assert path.h[0] == 0.0 and path.h_t[0] == 0.0
        assert_allclose(path.theta[0], 1.0, rtol=1e-14)
        assert_allclose(path.theta_t[0], 0.2, rtol=1e-14)
        # -theta_t(0) + c theta(0)^{2-3g} = -0.2 + 0.2 at gamma = 2
        assert_allclose(path.theta_tt[0], 0.0, atol=1e-12)

    def test_long_time_ratio_regression(self):
        path = theta.integrate_h(2.0, 1e4)
        ratio = path.theta[-1] / (1.0 + 1e4) ** 0.2
        assert_allclose(ratio, 1.0001640238040403, atol=1e-8)

    def test_zero_forcing_keeps_h_zero(self):
        # the correction law without its forcing keeps h == 0 (integrator
        # sanity)
        c, q = 1.0 / 5.0, -4.0

        def rhs(t, y):
            base = theta.nu(2.0, t)
            return (y[1], -y[1] + c * ((base + y[0]) ** q - base**q))

        times = np.linspace(0.0, 100.0, 301)
        samples, _ = theta._dopri5(rhs, (0.0, 0.0), 100.0, 1e-10, 1e-10, times)
        assert np.max(np.abs(samples)) <= 1e-12

    def test_tolerance_halving_within_error_estimate(self):
        coarse = theta.integrate_h(2.0, 1e4)
        fine = theta.integrate_h(2.0, 1e4, rtol=5e-11, atol=5e-11)
        assert abs(coarse.theta[-1] - fine.theta[-1]) < coarse.err_est

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            theta.integrate_h(2.0, 0.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_nonfinite_horizon_rejected(self, t_end):
        with pytest.raises(ValueError, match="positive and finite"):
            theta.integrate_h(2.0, t_end)
        with pytest.raises(ValueError, match="positive and finite"):
            theta.liu_integrate(2.0, theta.LiuState(a=0.05, b=0.2, e=0.8),
                                t_end)

    def test_unintegrable_forcing_aborts(self):
        # theta = 0 itself is shielded by the repulsive theta^{2-3g} term for
        # gamma > 1, so exercise the failure diagnostic with a broken forcing
        def rhs(t, y):
            return (y[1], -y[1] + float("nan"))

        with pytest.raises(RuntimeError, match="integration failed"):
            theta._dopri5(rhs, (0.0, 0.0), 5.0, 1e-10, 1e-10,
                          np.linspace(0.0, 5.0, 11))


def _scipy_rk45(rhs, y0, t_end, rtol, atol, times):
    """scipy's RK45 with the signature and return of theta._dopri5."""
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="RK45", rtol=rtol,
                    atol=atol, dense_output=True)
    assert sol.status == 0
    return sol.sol(times).T, sol.t.size - 1


@pytest.fixture(scope="module")
def acceptance_runs():
    """The acceptance-02/03 problems through theta._dopri5 and through
    scipy's RK45: (decay report, Liu report, accepted steps) per side."""
    real = theta._dopri5
    out = {}
    for name, solver in (("dopri5", real), ("scipy", _scipy_rk45)):
        steps = []

        def counted(*args, solver=solver, steps=steps):
            samples, n = solver(*args)
            steps.append(n)
            return samples, n

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theta, "_dopri5", counted)
            decay = theta.verify_decay(theta.integrate_h(4.0 / 3.0, 1e4))
            liu = theta.liu_vs_barenblatt(2.0, 1.0, 1e5)
        out[name] = (decay, liu, steps)
    return out


class TestDopri5:
    @pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])
    def test_decay_matches_closed_form(self, rtol):
        times = np.linspace(0.0, 5.0, 51)
        samples, _ = theta._dopri5(lambda t, y: (-y[0],), (1.0,), 5.0, rtol,
                                   1e-14, times)
        assert samples.shape == (51, 1)
        assert np.max(np.abs(samples[:, 0] - np.exp(-times))) <= 10.0 * rtol

    @pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])
    def test_rotation_matches_closed_form(self, rtol):
        # y'' = -y from (1, 0): (cos t, -sin t) over three turns
        times = np.linspace(0.0, 20.0, 201)
        samples, _ = theta._dopri5(lambda t, y: (y[1], -y[0]), (1.0, 0.0),
                                   20.0, rtol, 1e-14, times)
        exact = np.stack([np.cos(times), -np.sin(times)], axis=1)
        assert np.max(np.abs(samples - exact)) <= 10.0 * rtol

    def test_first_sample_is_the_initial_value(self):
        times = theta._log_grid(10.0, 11)
        samples, _ = theta._dopri5(lambda t, y: (y[1], -y[0]), (0.3, 0.7),
                                   10.0, 1e-8, 1e-10, times)
        assert samples[0].tolist() == [0.3, 0.7]

    def test_log_grid_ends_exact(self):
        times = theta._log_grid(1e5, 1001)
        assert times[0] == 0.0 and times[-1] == 1e5
        assert np.all(np.diff(times) > 0.0)

    def test_step_count_matches_scipy(self, acceptance_runs):
        ours, ref = acceptance_runs["dopri5"][2], acceptance_runs["scipy"][2]
        assert len(ours) == len(ref) == 2
        for n, m in zip(ours, ref):
            assert abs(n - m) <= 0.005 * m

    def test_decay_fits_match_scipy(self, acceptance_runs):
        ours, ref = acceptance_runs["dopri5"][0], acceptance_runs["scipy"][0]
        assert ours.K_fit == pytest.approx(ref.K_fit, rel=1e-8)
        assert ours.Cn_fit[2] == pytest.approx(ref.Cn_fit[2], rel=1e-8)

    def test_liu_report_matches_scipy(self, acceptance_runs):
        ours, ref = acceptance_runs["dopri5"][1], acceptance_runs["scipy"][1]
        assert ours.slope == pytest.approx(ref.slope, rel=1e-7)
        assert ours.mass_drift == pytest.approx(ref.mass_drift, rel=1e-3)

    def test_nan_rhs_fails(self):
        with pytest.raises(RuntimeError, match="integration failed"):
            theta._dopri5(lambda t, y: (math.nan,), (1.0,), 1.0, 1e-8, 1e-10,
                          np.array([0.0, 1.0]))

    @pytest.mark.parametrize("name", ["rtol", "atol"])
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_tolerances_checked_for_both_callers(self, name, tol):
        # atol = 0 makes the error scale zero at the start h = h_t = 0
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            theta.integrate_h(2.0, 10.0, **{name: tol})
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            theta.liu_integrate(2.0, theta.LiuState(a=0.05, b=0.2, e=0.8),
                                10.0, **{name: tol})

    def test_no_scipy_integrator(self):
        assert not hasattr(theta, "solve_ivp")


class TestVerifyDecay:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_constant_one_bounds(self, gamma):
        path = theta.integrate_h(gamma, 1e4)
        report = theta.verify_decay(path, n=2)
        assert report.max_violation["lower"] <= 1e-10
        assert report.max_violation["monotone"] <= 1e-10
        assert report.passed

    def test_upper_constant_below_two(self):
        path = theta.integrate_h(2.0, 1e4)
        report = theta.verify_decay(path)
        assert 1.0 <= report.K_fit < 2.0

    def test_fitted_constants_finite_to_order_three(self):
        path = theta.integrate_h(5.0 / 3.0, 1e3)
        report = theta.verify_decay(path, n=3)
        assert np.isfinite(report.K_fit)
        assert set(report.Cn_fit) == {1, 2, 3}
        assert all(np.isfinite(v) and v > 0 for v in report.Cn_fit.values())

    def test_fit_stable_under_tolerance_halving(self):
        a = theta.verify_decay(theta.integrate_h(2.0, 1e4), n=2)
        b = theta.verify_decay(
            theta.integrate_h(2.0, 1e4, rtol=5e-11, atol=5e-11), n=2
        )
        assert abs(a.K_fit - b.K_fit) / a.K_fit < 0.01
        assert abs(a.Cn_fit[2] - b.Cn_fit[2]) / a.Cn_fit[2] < 0.01

    def test_order_cap(self):
        path = theta.integrate_h(2.0, 10.0, num_samples=101)
        with pytest.raises(ValueError):
            theta.verify_decay(path, n=4)


class TestThetaDerivative:
    def test_second_order_matches_path_field(self):
        path = theta.integrate_h(2.0, 100.0, num_samples=401)
        assert_allclose(theta.theta_derivative(path, 2), path.theta_tt, rtol=1e-12)

    def test_third_order_matches_difference_quotient(self):
        # uniform-in-log grid is locally smooth enough for a centered check
        path = theta.integrate_h(2.0, 3.0, num_samples=4001)
        d3 = theta.theta_derivative(path, 3)
        t = path.times
        d2 = theta.theta_derivative(path, 2)
        mid = slice(1, -1)
        fd = (d2[2:] - d2[:-2]) / (t[2:] - t[:-2])
        assert_allclose(d3[mid], fd, atol=5e-5)


class TestLiuRhs:
    """The right-hand side of the coefficient system, theta._liu_law."""

    def test_zero_velocity_coefficient(self):
        a_t, b_t, e_t = theta._liu_law(2.0, 0.0, 0.3, 1.0)
        assert_allclose(a_t, 2.0 * 0.3 / (2.0 - 1.0), rtol=1e-14)
        assert b_t == 0.0 and e_t == 0.0

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 2.0, 3.0])
    def test_self_similar_path_residuals(self, gamma):
        # b and e equations hold exactly; the a equation carries the
        # undamped defect (2-3g)/((3g-1)^2 (1+t)^2)
        constants = derive_constants(GasParams(gamma=gamma, mass=1.0))
        for t in (0.0, 1.0, 10.0):
            a, b, e = theta.barenblatt_path(gamma, constants, t)
            a_t, b_t, e_t = theta._liu_law(gamma, a, b, e)
            s = 3.0 * gamma - 1.0
            assert_allclose(b_t, -gamma * constants.b_bar / (1.0 + t) ** 2, rtol=1e-12)
            assert_allclose(
                e_t,
                -3.0
                * (gamma - 1.0)
                / s
                * gamma
                * constants.a_bar
                * (1.0 + t) ** (-3.0 * (gamma - 1.0) / s - 1.0),
                rtol=1e-12,
            )
            defect = a_t - (-1.0 / (s * (1.0 + t) ** 2))
            assert_allclose(defect, -(2.0 - 3.0 * gamma) / (s**2 * (1.0 + t) ** 2),
                            rtol=1e-10, atol=1e-16)

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 2.0])
    def test_flow_equation_oracle(self, gamma):
        # Independent check of the derived system: the quadratic ansatz with
        # coefficients from the integrated ODEs must satisfy the damped flow
        # equations pointwise, with time derivatives taken by differencing.
        iota = 1.0 / (gamma - 1.0)

        def rhs(t, y):
            a, b, e = y
            return theta._liu_law(gamma, a, b, e)

        y0 = (0.07, 0.21, 0.9)
        sol = solve_ivp(rhs, (0.0, 2.0), y0, method="RK45", rtol=1e-12,
                        atol=1e-14, dense_output=True)
        assert sol.status == 0
        t0, d = 1.0, 1e-3
        (am, bm, em), (a0, b0, e0), (ap, bp, ep) = (
            sol.sol(t0 - d), sol.sol(t0), sol.sol(t0 + d)
        )

        r = np.linspace(0.0, 0.9 * np.sqrt(e0 / b0), 25)

        def density(a_, b_, e_):
            return ((e_ - b_ * r**2) / gamma) ** iota

        rho = density(a0, b0, e0)
        rho_t = (density(ap, bp, ep) - density(am, bm, em)) / (2.0 * d)
        rho_r = iota * ((e0 - b0 * r**2) / gamma) ** (iota - 1.0) * (-2.0 * b0 * r / gamma)
        continuity = rho_t + a0 * r * rho_r + 3.0 * a0 * rho
        assert np.max(np.abs(continuity)) < 1e-5

        a_t = (ap - am) / (2.0 * d)
        momentum = a_t * r + a0**2 * r + a0 * r - 2.0 * b0 * r / (gamma - 1.0)
        assert np.max(np.abs(momentum)) < 1e-5

    def test_inadmissible_state_rejected(self):
        with pytest.raises(ValueError):
            theta.LiuState(a=0.1, b=-0.2, e=1.0)
        with pytest.raises(ValueError):
            theta.LiuState(a=0.1, b=0.2, e=0.0)


class TestLiuMass:
    def test_round_trip_with_derived_constants(self):
        # on the self-similar path at t = 0 the mass functional returns the
        # mass the constants were derived from
        for gamma, mass in ((4.0 / 3.0, 1.0), (2.0, 3.0), (3.0, 2.0)):
            constants = derive_constants(GasParams(gamma=gamma, mass=mass))
            _, b0, e0 = theta.barenblatt_path(gamma, constants, 0.0)
            assert_allclose(theta.liu_mass(gamma, b0, e0), mass, rtol=1e-10)

    def test_conserved_along_trajectory(self):
        times, a, b, e = theta.liu_integrate(
            2.0, theta.LiuState(a=0.05, b=0.2, e=0.8), 1e4
        )
        masses = theta.liu_mass(2.0, b, e)
        drift = np.max(np.abs(masses - masses[0])) / masses[0]
        assert drift < 1e-6


class TestLiuVsBarenblatt:
    def test_self_similar_start_stays_bounded(self):
        report = theta.liu_vs_barenblatt(2.0, 1.0, 1e4)
        assert report.passed
        assert report.slope <= 0.05
        assert np.all(np.isfinite(report.deviation))

    def test_perturbed_start_bounded_with_larger_constant(self):
        base = theta.liu_vs_barenblatt(2.0, 1.0, 1e4)
        a0, b0, e0 = theta.barenblatt_path(
            2.0, derive_constants(GasParams(gamma=2.0, mass=1.0)), 0.0
        )
        bumped = theta.liu_vs_barenblatt(
            2.0, 1.0, 1e4,
            initial=theta.LiuState(a=float(a0) + 0.01, b=float(b0), e=float(e0)),
        )
        assert bumped.passed
        assert bumped.bound_fit > base.bound_fit

    def test_mass_drift_reported_small(self):
        report = theta.liu_vs_barenblatt(2.0, 1.0, 1e4)
        assert report.mass_drift < 1e-6


class TestCsv:
    def test_header_and_shape(self):
        path = theta.integrate_h(2.0, 10.0, num_samples=51)
        buf = io.StringIO()
        theta.write_csv(path, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,h,h_t,theta,theta_t,theta_tt"
        assert len(lines) == 52

    def test_round_trip_exact(self):
        path = theta.integrate_h(2.0, 10.0, num_samples=51)
        buf = io.StringIO()
        theta.write_csv(path, buf)
        buf.seek(0)
        data = np.loadtxt(buf, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], path.times)
        assert np.array_equal(data[:, 3], path.theta)

    def test_deterministic(self):
        texts = []
        for _ in range(2):
            buf = io.StringIO()
            theta.write_csv(theta.integrate_h(2.0, 10.0, num_samples=51), buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
