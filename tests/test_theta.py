"""Tests for the time scaling paths: correction ODE and coefficient system."""

import dataclasses
import decimal
import functools
import math
import operator

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from vel import cli, theta
from vel.params import GasParams, derive_constants

GAMMAS = (4.0 / 3.0, 5.0 / 3.0, 2.0, 3.0)


def law_rhs(law, *parameters):
    """The callable rhs(t, y) that theta compiles from the law's text."""
    return theta._dopri5_loop(law)(*parameters)[0]


# the theta law's own statements, returning (nu, nu_tt) in place of the
# derivatives
NU_PROBE = dataclasses.replace(theta._THETA_LAW,
                               derivatives=("nu", "nu_tt_coef * scaled"))
# the times at which the law's nu is checked against nu and exact powers
NU_TIMES = np.concatenate([np.linspace(0.0, 1e4, 301),
                           theta._log_grid(1e5, 2001)])


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

    @pytest.mark.parametrize("t", [math.nan, [1.0, math.nan]])
    def test_nan_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be non-negative"):
            theta.nu(2.0, t)

    @pytest.mark.parametrize("order", [-1, 1.5, 2.0, True])
    def test_invalid_order_rejected(self, order):
        with pytest.raises(ValueError,
                           match=r"order must be (an integer|at least 0), got"):
            theta.nu(2.0, 1.0, order)

    def test_numpy_integer_order_accepted(self):
        assert theta.nu(2.0, 31.0, np.int64(1)) == theta.nu(2.0, 31.0, 1)


class TestIntegrateH:
    def test_initial_acceleration(self):
        # h = h_t = 0 at t = 0, so h_tt(0) is the forcing p(1-p) with p = 0.2
        path = theta.integrate_h(2.0, 10.0)
        h_tt = path.theta_tt - theta.nu(2.0, path.times, 2)
        assert_allclose(h_tt[0], 0.16, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.0, 1e2, 1e4, 1e5])
    def test_default_forcing_is_minus_nu_tt(self, gamma, t):
        # nu_t = c nu^{2-3g} holds exactly, so only -nu_tt is left: the
        # law's h_tt at rest, and its nu_tt itself
        p = 1.0 / (3.0 * gamma - 1.0)
        expected = p * (1.0 - p) * (1.0 + t) ** (p - 2.0)
        assert_allclose(law_rhs(theta._THETA_LAW, gamma)(t, (0.0, 0.0))[1],
                        expected, rtol=1e-14)
        assert_allclose(-law_rhs(NU_PROBE, gamma)(t, (0.0, 0.0))[1],
                        expected, rtol=1e-14)

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 2.0])
    def test_default_forcing_path_matches_nu_calls(self, gamma):
        # the law's scalar nu is within 1 ulp of nu, so the law written
        # with nu itself gives the same path to 1e-14, far below the
        # solve's accuracy scale of about 1e-9 here
        c, q = 1.0 / (3.0 * gamma - 1.0), 2.0 - 3.0 * gamma
        law = theta._Law(
            parameters=("nu", "gamma", "c", "q"),
            body=("base = nu(gamma, t)",),
            derivatives=("y_1", "-y_1 + c * ((base + y_0) ** q - base ** q)"
                                " - nu(gamma, t, 2)"))

        fast = theta.integrate_h(gamma, 1e3)
        slow, _ = theta._dopri5(law, (theta.nu, gamma, c, q), (0.0, 0.0), 1e3,
                                1e-10, 1e-10, fast.times)
        assert_allclose(fast.h, slow[:, 0], rtol=0.0, atol=1e-14)
        assert_allclose(fast.h_t, slow[:, 1], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_scalar_nu_is_nu(self, gamma):
        # the law's nu and nu_tt are the scalar ** of 1 + t bit for bit,
        # within 1 and 2 ulp of nu's np.power
        c = 1.0 / (3.0 * gamma - 1.0)
        pair = law_rhs(NU_PROBE, gamma)
        for t in NU_TIMES.tolist():
            nu_0, nu_tt = pair(t, (0.0, 0.0))
            assert (nu_0, nu_tt) == ((1.0 + t) ** c,
                                     c * (c - 1.0) * (1.0 + t) ** (c - 2.0))
            ref_0, ref_tt = theta.nu(gamma, t), theta.nu(gamma, t, 2)
            assert abs(nu_0 - ref_0) <= math.ulp(ref_0)
            assert abs(nu_tt - ref_tt) <= 2.0 * math.ulp(ref_tt)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_scalar_nu_within_one_ulp_of_exact(self, gamma):
        """The law's nu against (1 + t)^c in 40-digit decimal.

        ** is libm pow, which rounds (1 + t)^c correctly to within about
        0.5 ulp here.  np.power, which nu uses, is less accurate: at
        gamma = 2 over 20,000 uniform t in [0, 1e5] (default_rng(0)), it
        misrounded 998 of (1 + t)^0.2 and 1072 of (1 + t)^-1.8 against a
        60-digit reference, and ** misrounded 18 and 13 (x86-64 glibc).
        Only the 1-ulp bound, not those counts, holds on every libm.
        """
        c = 1.0 / (3.0 * gamma - 1.0)
        pair = law_rhs(NU_PROBE, gamma)
        with decimal.localcontext(prec=40):
            power = decimal.Decimal(c)
            for t in NU_TIMES.tolist():
                nu_0 = pair(t, (0.0, 0.0))[0]
                exact = decimal.Decimal(1.0 + t) ** power
                assert (abs(decimal.Decimal(nu_0) - exact)
                        <= decimal.Decimal(math.ulp(nu_0)))

    def test_initial_values(self):
        path = theta.integrate_h(2.0, 10.0)
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
        unforced = dataclasses.replace(
            theta._THETA_LAW,
            derivatives=("y_1", "-y_1 + c * (theta ** q - nu ** q)"))
        times = np.linspace(0.0, 100.0, 301)
        samples, _ = theta._dopri5(unforced, (2.0,), (0.0, 0.0), 100.0, 1e-10,
                                   1e-10, times)
        assert np.max(np.abs(samples)) <= 1e-12

    def test_tolerance_halving_within_error_estimate(self):
        coarse = theta.integrate_h(2.0, 1e4)
        fine = theta.integrate_h(2.0, 1e4, rtol=5e-11, atol=5e-11)
        # the coarse solve's accuracy scale at the final time, rtol |theta|
        # + atol at its default tolerances
        err_est = 1e-10 * np.max(np.abs(coarse.theta)) + 1e-10
        assert abs(coarse.theta[-1] - fine.theta[-1]) < err_est

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
        law = theta._Law(derivatives=("y_1", "-y_1 + math.nan"))
        with pytest.raises(RuntimeError, match="integration failed"):
            theta._dopri5(law, (), (0.0, 0.0), 5.0, 1e-10, 1e-10,
                          np.linspace(0.0, 5.0, 11))


def _scipy_rk45(law, parameters, y0, t_end, rtol, atol, times):
    """scipy's RK45 with the signature of theta._dopri5, all explicit; it
    returns the end times of its accepted steps after the two results."""
    sol = solve_ivp(law_rhs(law, *parameters), (0.0, t_end), y0,
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    assert sol.status == 0
    return sol.sol(times).T, theta.StepCounts(sol.t.size - 1), sol.t[1:]


# Shampine's quartic dense output, as columns: the weights of the seven
# stages in the coefficients of x, x^2, x^3, x^4.
_REF_P_COLS = tuple(zip(
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
))


def left_sum(terms):
    """The floats' sum from 0.0, left to right: sum's order up to CPython
    3.11 (3.12 compensates) and the generated loop's on every version."""
    return functools.reduce(operator.add, terms, 0.0)


def reference_dopri5(rhs, y0, t_end, rtol, atol, times, switches):
    """The explicit phase of theta._dopri5 as a loop over lists of
    components, with Hairer's stiffness test when the law switches: the
    reference the generated loop must match bit for bit.  Returns the
    samples, the accepted steps, and the time, state and step size at
    which it stopped."""
    root_n = len(y0) ** 0.5
    t, y = 0.0, list(y0)
    f = rhs(t, y)

    scale = [atol + abs(v) * rtol for v in y]
    d0 = math.sqrt(sum([(v / s) ** 2 for v, s in zip(y, scale)])) / root_n
    d1 = math.sqrt(sum([(v / s) ** 2 for v, s in zip(f, scale)])) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(t + h0, [v + h0 * a for v, a in zip(y, f)])
    d2 = math.sqrt(sum([((a - b) / s) ** 2 for a, b, s in zip(f1, f, scale)]))
    d2 /= root_n * h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, t_end)

    ts = times.tolist()
    samples = []
    i = steps = stiff = calm = 0
    h_lambda = 0.0
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise RuntimeError(
                    "integration failed: required step size is less than "
                    f"the spacing of floats at t = {t:.6g}")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            k1 = f
            k2 = rhs(t + 1 / 5 * h, [v + (1 / 5 * a) * h
                                     for v, a in zip(y, k1)])
            k3 = rhs(t + 3 / 10 * h, [v + (3 / 40 * a + 9 / 40 * b) * h
                                      for v, a, b in zip(y, k1, k2)])
            k4 = rhs(t + 4 / 5 * h, [
                v + (44 / 45 * a - 56 / 15 * b + 32 / 9 * c) * h
                for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = rhs(t + 8 / 9 * h, [
                v + (19372 / 6561 * a - 25360 / 2187 * b + 64448 / 6561 * c
                     - 212 / 729 * d) * h
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            y6 = [v + (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c
                       + 49 / 176 * d - 5103 / 18656 * e) * h
                  for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]
            k6 = rhs(t + h, y6)
            y_new = [
                v + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                         - 2187 / 6784 * e + 11 / 84 * g)
                for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            f_new = rhs(t + h, y_new)
            err = math.sqrt(left_sum([
                ((-71 / 57600 * a + 71 / 16695 * c - 71 / 1920 * d
                  + 17253 / 339200 * e - 22 / 525 * g + 1 / 40 * k) * h
                 / (atol + max(abs(v), abs(w)) * rtol)) ** 2
                for v, w, a, c, d, e, g, k
                in zip(y, y_new, k1, k3, k4, k5, k6, f_new)])) / root_n
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True

        if i < len(ts) and ts[i] <= t_new:
            q = [[left_sum([k * p for k, p in zip(kc, col)])
                  for col in _REF_P_COLS]
                 for kc in zip(k1, k2, k3, k4, k5, k6, f_new)]
            while i < len(ts) and ts[i] <= t_new:
                x = (ts[i] - t) / h
                x2 = x * x
                x3 = x2 * x
                samples.append([h * (c1 * x + c2 * x2 + c3 * x3 + c4 * (x3 * x)) + v
                                for v, (c1, c2, c3, c4) in zip(y, q)])
                i += 1
        t, y, f = t_new, y_new, f_new
        steps += 1
        if switches:
            den = left_sum([(a - b) ** 2 for a, b in zip(y_new, y6)])
            if den > 0.0:
                h_lambda = h * math.sqrt(left_sum(
                    [(a - b) ** 2 for a, b in zip(f_new, k6)]) / den)
            if h_lambda > 3.25:
                calm, stiff = 0, stiff + 1
                if stiff == 15:
                    break
            else:
                calm += 1
                if calm == 6:
                    stiff = 0
    return samples, steps, t, y, h_abs


def reference_solve(law, parameters, y0, t_end, rtol, atol, times):
    """theta._dopri5 with reference_dopri5 as its explicit phase, stepping
    the callable compiled from the same law text; the stiff phase is
    theta's own loop."""
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0.0 < tol < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {tol}")
    rtol = max(rtol, 100.0 * np.finfo(float).eps)
    samples, steps, t, y, h_abs = reference_dopri5(
        law_rhs(law, *parameters), y0, t_end, rtol, atol, times,
        bool((law.stiff or law).jacobian))
    if not t < t_end:
        return np.array(samples), theta.StepCounts(steps)
    rest, stiff_steps = theta._rosenbrock_loop(law)(*parameters)(
        t, y, h_abs, rtol, atol, times[len(samples):].tolist())
    return np.array(samples + rest), theta.StepCounts(steps, stiff_steps, t)


def solves_of(call, solver):
    """(samples, steps) of every _dopri5 solve that call() makes, with
    theta._dopri5 replaced by solver; call()'s own result is dropped."""
    solves = []

    def recorded(*args):
        solves.append(solver(*args))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theta, "_dopri5", recorded)
        call()
    return solves


DECAY = theta._Law(derivatives=("-y_0",))
ROTATION = theta._Law(derivatives=("y_1", "-y_0"))
# two coupled damped oscillators, a four-component system
DAMPED_PAIR = theta._Law(derivatives=(
    "y_1", "-y_0 - 0.1 * y_1 + 0.3 * y_2",
    "y_3", "-2.0 * y_2 - 0.05 * y_3 + 0.3 * y_0"))
# Prothero-Robinson: y' = -lambda (y - cos t) - sin t, y = cos t from y = 1,
# at lambda = 1e4, with and without its Jacobian and f_t
STIFF_PR = theta._Law(
    derivatives=("-1e4 * (y_0 - math.cos(t)) - math.sin(t)",),
    jacobian=("-1e4",), time_derivative=("-1e4 * math.sin(t) - math.cos(t)",))
EXPLICIT_PR = dataclasses.replace(STIFF_PR, jacobian=(), time_derivative=())
# y' = t y^2, y = 1 / (1 - t^2 / 2) from y = 1: nonlinear, and without
# its f_t the stages would be first order
QUADRATIC = theta._Law(derivatives=("t * y_0 * y_0",),
                       jacobian=("2.0 * t * y_0",),
                       time_derivative=("y_0 * y_0",))

NO_JACOBIAN = ("decay-1d", "rotation-2d", "oscillators-4d")
LOOP_CASES = {
    "decay-1d": lambda: theta._dopri5(
        DECAY, (), (1.0,), 5.0, 1e-8, 1e-14, np.linspace(0.0, 5.0, 51)),
    "rotation-2d": lambda: theta._dopri5(
        ROTATION, (), (1.0, 0.0), 20.0, 1e-8, 1e-14,
        np.linspace(0.0, 20.0, 201)),
    "oscillators-4d": lambda: theta._dopri5(
        DAMPED_PAIR, (), (1.0, 0.0, -0.5, 0.2), 30.0, 1e-9, 1e-12,
        theta._log_grid(30.0, 101)),
    **{f"integrate_h-{g:.4g}-{scale}": (
        lambda g=g, scale=scale: theta.integrate_h(
            g, 1e4, rtol=1e-10 * scale, atol=1e-10 * scale))
       for g in (4.0 / 3.0, 3.0) for scale in (1.0, 0.5)},
    **{f"liu-{g:.4g}": (lambda g=g: theta.liu_vs_barenblatt(g, 1.0, 1e5))
       for g in (5.0 / 3.0, 2.0)},
}


class TestGeneratedLoop:
    """theta._dopri5's loop, generated per law, against the loop over lists
    that calls the law's rhs.  The dilation laws switch to the stiff loop,
    in both, at the state where the explicit phases stop."""

    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_matches_list_loop_bit_for_bit(self, case):
        ours = solves_of(LOOP_CASES[case], theta._dopri5)
        ref = solves_of(LOOP_CASES[case], reference_solve)
        assert len(ours) == len(ref) == 1
        (samples, steps), (ref_samples, ref_steps) = ours[0], ref[0]
        assert steps == ref_steps and steps.explicit > 0
        assert (steps.stiff_onset is None) == (case in NO_JACOBIAN)
        assert samples.shape == ref_samples.shape
        assert np.array_equal(samples, ref_samples)

    @pytest.mark.parametrize("law", ["_THETA_LAW", "_LIU_LAW"])
    def test_loop_calls_no_max_min_sum_len(self, law):
        # the step control is written as comparisons and additions
        law = getattr(theta, law)
        loops = (theta._dopri5_loop(law)(2.0)[1],
                 theta._rosenbrock_loop(law)(2.0))
        for loop in loops:
            assert not ({"max", "min", "sum", "len"}
                        & set(loop.__code__.co_names))

    def test_one_loop_per_law(self):
        for compiled in (theta._dopri5_loop, theta._rosenbrock_loop):
            assert compiled(STIFF_PR) is compiled(
                dataclasses.replace(STIFF_PR))
            assert compiled(STIFF_PR) is not compiled(
                dataclasses.replace(STIFF_PR, jacobian=("-1e3",)))
        assert theta._dopri5_loop(ROTATION) is not theta._dopri5_loop(
            theta._Law(derivatives=("y_1", "y_0")))

    def test_parameters_share_the_compiled_loop(self):
        # the constants are bound per solve, so no parameter adds a loop
        theta._dopri5_loop.cache_clear()
        theta._rosenbrock_loop.cache_clear()
        for gamma in (4.0 / 3.0, 2.0, 3.0):
            for scale in (1.0, 0.5):
                theta.integrate_h(gamma, 1e4, rtol=1e-10 * scale,
                                  atol=1e-10 * scale)
        for gamma in (5.0 / 3.0, 2.0):
            theta.liu_vs_barenblatt(gamma, 1.0, 1e4)
        assert theta._dopri5_loop.cache_info().currsize == 2
        assert theta._rosenbrock_loop.cache_info().currsize == 2

    def test_stiff_loop_compiled_on_first_switch(self):
        theta._rosenbrock_loop.cache_clear()
        assert theta.integrate_h(2.0, 1e2).steps.stiff_onset is None
        assert theta._rosenbrock_loop.cache_info().currsize == 0

    def test_nan_rhs_raises_the_reference_error(self):
        args = (theta._Law(derivatives=("y_1", "math.nan")), (), (1.0, 0.0),
                1.0, 1e-8, 1e-10, np.array([0.0, 1.0]))
        with pytest.raises(RuntimeError) as ours:
            theta._dopri5(*args)
        with pytest.raises(RuntimeError) as ref:
            reference_solve(*args)
        assert str(ours.value) == str(ref.value)
        assert "integration failed" in str(ours.value)


@pytest.fixture(scope="module")
def acceptance_runs():
    """The acceptance-02/03 problems through theta._dopri5 and through
    scipy's RK45: (decay report, Liu report, per solve the results after
    the samples) per side."""
    real = theta._dopri5
    out = {}
    for name, solver in (("dopri5", real), ("scipy", _scipy_rk45)):
        steps = []

        def counted(*args, solver=solver, steps=steps):
            samples, *rest = solver(*args)
            steps.append(rest)
            return samples, rest[0]

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
        samples, _ = theta._dopri5(DECAY, (), (1.0,), 5.0, rtol, 1e-14,
                                   times)
        assert samples.shape == (51, 1)
        assert np.max(np.abs(samples[:, 0] - np.exp(-times))) <= 10.0 * rtol

    @pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])
    def test_rotation_matches_closed_form(self, rtol):
        # y'' = -y from (1, 0): (cos t, -sin t) over three turns
        times = np.linspace(0.0, 20.0, 201)
        samples, _ = theta._dopri5(ROTATION, (), (1.0, 0.0), 20.0, rtol,
                                   1e-14, times)
        exact = np.stack([np.cos(times), -np.sin(times)], axis=1)
        assert np.max(np.abs(samples - exact)) <= 10.0 * rtol

    def test_first_sample_is_the_initial_value(self):
        times = theta._log_grid(10.0, 11)
        samples, _ = theta._dopri5(ROTATION, (), (0.3, 0.7), 10.0, 1e-8,
                                   1e-10, times)
        assert samples[0].tolist() == [0.3, 0.7]

    def test_log_grid_ends_exact(self):
        times = theta._log_grid(1e5, 1001)
        assert times[0] == 0.0 and times[-1] == 1e5
        assert np.all(np.diff(times) > 0.0)

    def test_step_count_matches_scipy(self, acceptance_runs):
        # up to the switch, the explicit phase takes RK45's steps
        ours, ref = acceptance_runs["dopri5"][2], acceptance_runs["scipy"][2]
        assert len(ours) == len(ref) == 2
        for (steps,), (_, ends) in zip(ours, ref):
            m = np.count_nonzero(ends <= steps.stiff_onset)
            assert abs(steps.explicit - m) <= 0.005 * m

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
            theta._dopri5(theta._Law(derivatives=("math.nan",)), (), (1.0,),
                          1.0, 1e-8, 1e-10, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("name", ["rtol", "atol"])
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_tolerances_checked_for_both_callers(self, name, tol):
        # atol = 0 makes the error scale zero at the start h = h_t = 0
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            theta.integrate_h(2.0, 10.0, **{name: tol})
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            theta.liu_integrate(2.0, theta.LiuState(a=0.05, b=0.2, e=0.8),
                                10.0, **{name: tol})

    @pytest.mark.parametrize("gamma", [1.0, 1.0 / 3.0, 0.9, math.nan,
                                       math.inf])
    def test_gamma_checked_before_stepping(self, gamma, monkeypatch):
        def unreachable(*args):
            raise AssertionError("_dopri5 called with an invalid gamma")

        monkeypatch.setattr(theta, "_dopri5", unreachable)
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            theta.integrate_h(gamma, 10.0)
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            theta.liu_integrate(gamma, theta.LiuState(a=0.05, b=0.2, e=0.8),
                                10.0)

    def test_no_scipy_integrator(self):
        assert not hasattr(theta, "solve_ivp")


class TestStiffPhase:
    """The Rosenbrock loop that takes over once DOPRI5's stiffness test
    fires."""

    def test_prothero_robinson(self):
        times = np.linspace(0.0, 10.0, 11)
        rtol = 1e-6
        samples, steps = theta._dopri5(STIFF_PR, (), (1.0,), 10.0, rtol,
                                       1e-10, times)
        _, explicit = theta._dopri5(EXPLICIT_PR, (), (1.0,), 10.0, rtol,
                                    1e-10, times)
        assert np.max(np.abs(samples[:, 0] - np.cos(times))) <= 10.0 * rtol
        assert steps.stiff_onset is not None and explicit.stiff_onset is None
        assert steps.explicit + steps.stiff < 0.01 * explicit.explicit

    def test_observed_order(self):
        # fixed steps: at tolerances this loose each step ends at the
        # next sample time
        loop = theta._rosenbrock_loop(QUADRATIC)()
        errors = []
        for n in (256, 512):
            ts = np.linspace(0.0, 1.0, n + 1)[1:]
            samples, steps = loop(0.0, (1.0,), 1.0 / n, 1e10, 1e10,
                                  ts.tolist())
            assert steps == n
            errors.append(np.max(np.abs(np.array(samples)[:, 0]
                                        - 1.0 / (1.0 - ts * ts / 2.0))))
        assert math.log2(errors[0] / errors[1]) == pytest.approx(4.0, abs=0.2)

    def test_l_stable(self):
        # y' = -lambda y: one step at h lambda = 1e8 leaves R(-1e8) y, a
        # few times 1e-8, where an A-stable method that is not L-stable
        # leaves about y
        law = theta._Law(derivatives=("-1e8 * y_0",), jacobian=("-1e8",))
        samples, _ = theta._rosenbrock_loop(law)()(0.0, (1.0,), 1.0, 1e10,
                                                   1e10, [1.0])
        assert abs(samples[0][0]) < 1e-6

    @pytest.mark.parametrize("name", ["theta", "liu"])
    def test_jacobian_matches_central_differences(self, name):
        law, points = {
            "theta": (theta._THETA_LAW,
                      [(0.0, (0.0, 0.0)), (10.0, (0.01, -0.002)),
                       (2e3, (1e-3, 1e-6))]),
            # the stiff form over the law's constants
            "liu": (dataclasses.replace(
                theta._LIU_LAW.stiff, parameters=("gamma",),
                constants=theta._LIU_LAW.constants),
                    [(0.0, (0.05, math.log(0.2), -0.3)),
                     (3e3, (1e-4, math.log(3e-5), 2.0))]),
        }[name]
        n = len(law.derivatives)
        rhs = law_rhs(law, 2.0)
        rows = [law_rhs(dataclasses.replace(
            law, derivatives=law.jacobian[i * n:(i + 1) * n]), 2.0)
            for i in range(n)]
        f_t = (law_rhs(dataclasses.replace(
            law, derivatives=law.time_derivative), 2.0)
            if law.time_derivative else None)
        d = 1e-6
        for t, y in points:
            for j in range(n):
                up, down = list(y), list(y)
                up[j] += d
                down[j] -= d
                column = (np.array(rhs(t, up)) - np.array(rhs(t, down))) / (2 * d)
                exact = [row(t, y)[j] for row in rows]
                assert_allclose(exact, column, rtol=1e-7, atol=1e-7)
            if f_t is not None:
                dt = d * (1.0 + t)
                column = (np.array(rhs(t + dt, y))
                          - np.array(rhs(t - dt, y))) / (2 * dt)
                assert_allclose(f_t(t, y), column, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 2.0])
    def test_liu_mass_kept_after_the_switch(self, gamma, monkeypatch):
        handed = []
        compiled = theta._rosenbrock_loop

        def spy(law):
            def bind(*parameters):
                loop = compiled(law)(*parameters)

                def recorded(now, state, *rest):
                    handed.append(state)
                    return loop(now, state, *rest)
                return recorded
            return bind

        monkeypatch.setattr(theta, "_rosenbrock_loop", spy)
        times, _, b, e, steps = theta.liu_integrate(
            gamma, theta.LiuState(a=0.05, b=0.2, e=0.8), 1e5)
        (state,) = handed
        at_switch = theta.liu_mass(gamma, state[1], state[2])
        after = times > steps.stiff_onset
        assert np.count_nonzero(after) > 100
        masses = theta.liu_mass(gamma, b[after], e[after])
        assert np.max(np.abs(masses / at_switch - 1.0)) <= 1e-14

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 3.0])
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_integrate_h_step_count(self, gamma, scale):
        # DOPRI5 alone takes 3,278-3,454 steps, most at its stability bound
        steps = theta.integrate_h(gamma, 1e4, rtol=1e-10 * scale,
                                  atol=1e-10 * scale).steps
        assert steps.stiff_onset is not None
        assert steps.explicit + steps.stiff <= 2000

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 2.0])
    def test_liu_step_count(self, gamma):
        # DOPRI5 alone takes about 30,680 steps
        steps = theta.liu_vs_barenblatt(gamma, 1.0, 1e5).steps
        assert steps.stiff_onset is not None
        assert steps.explicit + steps.stiff <= 3000


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

    def test_order_three_rejected(self):
        # a third derivative's fit is integration round-off, not the path's
        path = theta.integrate_h(5.0 / 3.0, 1e3)
        with pytest.raises(ValueError, match="between 0 and 2"):
            theta.verify_decay(path, n=3)
        assert set(theta.verify_decay(path, n=2).Cn_fit) == {1, 2}

    def test_fit_stable_under_tolerance_halving(self):
        a = theta.verify_decay(theta.integrate_h(2.0, 1e4), n=2)
        b = theta.verify_decay(
            theta.integrate_h(2.0, 1e4, rtol=5e-11, atol=5e-11), n=2
        )
        assert abs(a.K_fit - b.K_fit) / a.K_fit < 0.01
        assert abs(a.Cn_fit[2] - b.Cn_fit[2]) / a.Cn_fit[2] < 0.01

    def test_order_cap(self):
        path = theta.integrate_h(2.0, 10.0)
        with pytest.raises(ValueError):
            theta.verify_decay(path, n=4)

    @pytest.mark.parametrize("n,match", [
        (3, "n must be between 0 and 2"),
        (-1, "n must be at least 0, got -1"),
        (1.5, "n must be an integer, got 1.5"),
        (True, "n must be an integer, got True"),
        (2.0, "n must be an integer, got 2.0"),
    ])
    def test_invalid_n_rejected(self, n, match):
        path = theta.integrate_h(2.0, 10.0)
        with pytest.raises(ValueError, match=match):
            theta.verify_decay(path, n=n)


class TestLiuRhs:
    """The right-hand side of the coefficient system, theta._LIU_LAW."""

    def test_zero_velocity_coefficient(self):
        a_t, b_t, e_t = law_rhs(theta._LIU_LAW, 2.0)(0.0, (0.0, 0.3, 1.0))
        assert_allclose(a_t, 2.0 * 0.3 / (2.0 - 1.0), rtol=1e-14)
        assert b_t == 0.0 and e_t == 0.0

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 2.0, 3.0])
    def test_self_similar_path_residuals(self, gamma):
        # b and e equations hold exactly; the a equation carries the
        # undamped defect (2-3g)/((3g-1)^2 (1+t)^2)
        constants = derive_constants(GasParams(gamma=gamma, mass=1.0))
        rhs = law_rhs(theta._LIU_LAW, gamma)
        for t in (0.0, 1.0, 10.0):
            a_t, b_t, e_t = rhs(t, theta.barenblatt_path(gamma, constants, t))
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
        y0 = (0.07, 0.21, 0.9)
        sol = solve_ivp(law_rhs(theta._LIU_LAW, gamma), (0.0, 2.0), y0,
                        method="RK45", rtol=1e-12, atol=1e-14,
                        dense_output=True)
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
        times, a, b, e, _ = theta.liu_integrate(
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


def cli_theta_csv(out_dir):
    """The path file `vel theta` writes at gamma 2 up to t = 10."""
    assert cli.main(["theta", "--gamma", "2", "--t-end", "10",
                     "--out", str(out_dir)]) == 0
    return (out_dir / "theta_path.csv").read_text(encoding="utf-8")


def cli_theta_path():
    """The path `vel theta` integrates at gamma 2 up to t = 10."""
    config = cli.Config()
    return theta.integrate_h(2.0, 10.0, rtol=config.rtol, atol=config.atol)


class TestCsv:
    def test_header_and_shape(self, tmp_path):
        lines = cli_theta_csv(tmp_path).strip().split("\n")
        assert lines[0] == "t,h,h_t,theta,theta_t,theta_tt"
        assert len(lines) == cli_theta_path().times.size + 1

    def test_round_trip_exact(self, tmp_path):
        cli_theta_csv(tmp_path)
        path = cli_theta_path()
        data = np.loadtxt(tmp_path / "theta_path.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(data[:, 0], path.times)
        assert np.array_equal(data[:, 3], path.theta)

    def test_deterministic(self, tmp_path):
        texts = [cli_theta_csv(tmp_path / d) for d in ("first", "second")]
        assert texts[0] == texts[1]
