"""Time scaling paths for the expanding-gas background.

Two related objects live here. First, the inflation factor theta(t) = nu + h,
where nu(t) = (1 + t)^{1/(3*gamma - 1)} is the self-similar power and h solves
a damped second-order correction law with h(0) = h_t(0) = 0; `integrate_h`
produces the path and `verify_decay` checks the two-sided power-law bounds on
theta and its derivatives. Second, the exact-solution coefficient system for
(a, b, e)(t), quadratic velocity/sound-speed profiles whose evolution reduces
to three coupled ODEs; `_liu_law` states the derived system, and
`liu_vs_barenblatt` measures its approach to the self-similar coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._io import open_dest
from .params import BarenblattConstants, GasParams, derive_constants, moment_integral

__all__ = [
    "ThetaPath",
    "DecayReport",
    "LiuState",
    "LiuReport",
    "nu",
    "theta_acceleration",
    "integrate_h",
    "verify_decay",
    "theta_derivative",
    "liu_mass",
    "barenblatt_path",
    "liu_integrate",
    "liu_vs_barenblatt",
    "write_csv",
]

# Margin below which a constant-1 bound still counts as holding (rounding slack).
BOUND_SLACK = 1e-10
# Highest last-decade log-log slope of the Liu deviation series that passes.
SLOPE_CEILING = 0.05


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ThetaPath:
    """Sampled correction path on a monotone time grid.

    theta = nu + h pointwise; theta_tt is evaluated from the evolution law,
    not by differencing the samples. err_est is the integrator's accuracy
    scale at the final time (rtol * |theta| + atol).
    """

    gamma: float
    times: np.ndarray
    h: np.ndarray
    h_t: np.ndarray
    theta: np.ndarray
    theta_t: np.ndarray
    theta_tt: np.ndarray
    err_est: float

    def __post_init__(self) -> None:
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        series = ("times", "h", "h_t", "theta", "theta_t", "theta_tt")
        n = None
        for name in series:
            arr = _as_readonly(getattr(self, name))
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or (n is not None and arr.size != n):
                raise ValueError("path series must be 1-d and equal length")
            n = arr.size
        if n < 2:
            raise ValueError("path needs at least two samples")
        if not np.all(np.diff(self.times) > 0.0) or self.times[0] != 0.0:
            raise ValueError("times must increase strictly from 0")
        if abs(self.h[0]) > 1e-12 or abs(self.h_t[0]) > 1e-12:
            raise ValueError("h and h_t must vanish at t = 0")


@dataclass(frozen=True)
class DecayReport:
    """Fitted decay constants and signed violations of the constant-1 bounds.

    max_violation maps bound name to its worst violation (positive = broken):
    'lower' is max(nu - theta), 'monotone' is max(-theta_t). K_fit is the
    smallest admissible upper-bound constant, Cn_fit[k] the smallest C with
    |d^k theta/dt^k| <= C (1+t)^{1/(3*gamma-1) - k}.
    """

    gamma: float
    K_fit: float
    Cn_fit: dict[int, float]
    max_violation: dict[str, float]
    passed: bool


@dataclass(frozen=True)
class LiuState:
    """Coefficients of the quadratic exact-solution ansatz.

    Velocity a(t)*y and squared sound speed e(t) - b(t)*|y|^2; b and e stay
    positive along admissible trajectories.
    """

    a: float
    b: float
    e: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "e"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.b > 0.0 and self.e > 0.0):
            raise ValueError("b and e must be positive")


@dataclass(frozen=True)
class LiuReport:
    """Deviation of the coefficient system from the self-similar path.

    deviation is max over the three components of |delta| (1+t)/log(2+t);
    slope is the log-log growth rate of that series over the last decade of
    time (non-positive up to slack means bounded), bound_fit its maximum over
    the same window, mass_drift the relative drift of the conserved mass.
    """

    gamma: float
    times: np.ndarray
    deviation: np.ndarray
    slope: float
    bound_fit: float
    mass_drift: float
    passed: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _as_readonly(self.times))
        object.__setattr__(self, "deviation", _as_readonly(self.deviation))


def nu(gamma: float, t, order: int = 0):
    """Background power (1+t)^p with p = 1/(3*gamma - 1), or its derivative."""
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    if order < 0:
        raise ValueError("order must be non-negative")
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0.0):
        raise ValueError("t must be non-negative")
    coef, power = _nu_law(gamma, order)
    out = coef * np.power(1.0 + ts, power)
    return float(out) if ts.ndim == 0 else out


def _nu_law(gamma: float, order: int) -> tuple[float, float]:
    """(coef, power) with d^order nu / dt^order = coef (1+t)^power."""
    p = 1.0 / (3.0 * gamma - 1.0)
    return float(np.prod(p - np.arange(order))), p - order


def _scalar_nu(gamma: float, order: int) -> Callable[[float], float]:
    """nu(gamma, t, order) for scalar t >= 0, bit for bit, without the
    argument checks: for right-hand sides called many thousand times."""
    coef, power = _nu_law(gamma, order)
    return lambda t: float(coef * np.power(1.0 + t, power))


def theta_acceleration(gamma: float, theta, theta_t):
    """theta_tt from the dilation law theta_tt = -theta_t + theta^{2-3g}/(3g-1).

    Accepts floats or arrays of theta and theta_t.
    """
    return -theta_t + theta ** (2.0 - 3.0 * gamma) / (3.0 * gamma - 1.0)


def _log_grid(t_end: float, num_samples: int) -> np.ndarray:
    """Sample times from 0 to t_end, geometric in 1 + t, with exact ends."""
    times = np.geomspace(1.0, 1.0 + t_end, num_samples) - 1.0
    times[0] = 0.0
    times[-1] = t_end
    return times


# Shampine's quartic dense output for the Dormand-Prince pair: row j holds
# the weights of stage j in the coefficients of x, x^2, x^3, x^4.
_DOPRI_P = (
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
)
_DOPRI_P_COLS = tuple(zip(*_DOPRI_P))


def _dopri5(
    rhs: Callable[[float, Sequence[float]], Sequence[float]],
    y0: Sequence[float],
    t_end: float,
    rtol: float,
    atol: float,
    times: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Dormand-Prince 5(4) from t = 0 to t_end on Python floats.

    rhs(t, y) takes and returns a short sequence of floats.  The step
    control is scipy's RK45 term for term: the Hairer-Norsett-Wanner
    initial step at error order 4, the RMS error over atol + max(|y|,
    |y_new|) rtol, the factor 0.9 err^(-1/5) kept within [0.2, 10] and
    below 1 right after a rejection, a minimum step of 10 ulp(t), and the
    last step clipped to t_end.  Each sample time is read from the quartic
    interpolant of the accepted step (t_old, t_new] that holds it (the
    first step also holds t = 0).  Returns the samples, shape
    (len(times), len(y0)), and the number of accepted steps.  Raises
    RuntimeError when the step falls below its minimum or is NaN; a NaN
    from rhs fails the error test, so it shrinks the step until then.
    Raises ValueError unless rtol and atol are positive and finite.
    """
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0.0 < tol < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {tol}")
    rtol = max(rtol, 100.0 * np.finfo(float).eps)  # scipy's floor
    root_n = len(y0) ** 0.5
    t, y = 0.0, list(y0)
    f = rhs(t, y)

    # initial step (Hairer, Norsett, Wanner, Sec. II.4)
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
    samples: list[list[float]] = []
    i = steps = 0
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a NaN step
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
            k6 = rhs(t + h, [
                v + (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c
                     + 49 / 176 * d - 5103 / 18656 * e) * h
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [
                v + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                         - 2187 / 6784 * e + 11 / 84 * g)
                for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            f_new = rhs(t + h, y_new)
            err = math.sqrt(sum([
                ((-71 / 57600 * a + 71 / 16695 * c - 71 / 1920 * d
                  + 17253 / 339200 * e - 22 / 525 * g + 1 / 40 * k) * h
                 / (atol + max(abs(v), abs(w)) * rtol)) ** 2
                for v, w, a, c, d, e, g, k
                in zip(y, y_new, k1, k3, k4, k5, k6, f_new)])) / root_n
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # a NaN err gives max(0.2, nan) = 0.2, the largest cut
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True

        if i < len(ts) and ts[i] <= t_new:
            q = [[sum([k * p for k, p in zip(kc, col)]) for col in _DOPRI_P_COLS]
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
    return np.array(samples), steps


def integrate_h(
    gamma: float,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    num_samples: int = 2001,
) -> ThetaPath:
    """Integrate the correction law from rest and sample on a log grid.

    The law is written in the split form
        h_tt = -h_t + c [(nu+h)^{2-3g} - nu^{2-3g}] + F(t),
    with c = 1/(3g-1), which reassembles theta_tt + theta_t = c theta^{2-3g}
    for theta = nu + h when F = c nu^{2-3g} - nu_tt - nu_t.  nu solves
    nu_t = c nu^{2-3g} exactly, so F = -nu_tt.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if num_samples < 2:
        raise ValueError("need at least two samples")
    c = 1.0 / (3.0 * gamma - 1.0)
    q = 2.0 - 3.0 * gamma
    base_at = _scalar_nu(gamma, 0)
    nu_tt_at = _scalar_nu(gamma, 2)

    def rhs(t: float, y: Sequence[float]) -> tuple[float, float]:
        h, h_t = y
        base = base_at(t)
        lifted = base + h
        # theta <= 0 turns into NaN, which fails the step's error test
        lifted = lifted if lifted > 0.0 else math.nan
        h_tt = -h_t + c * (lifted**q - base**q) - nu_tt_at(t)
        return (h_t, h_tt)

    times = _log_grid(float(t_end), num_samples)
    samples, _ = _dopri5(rhs, (0.0, 0.0), float(t_end), rtol, atol, times)
    h, h_t = samples.T
    base = nu(gamma, times)
    theta = base + h
    if np.any(~np.isfinite(theta)) or np.any(theta <= 0.0):
        raise RuntimeError("theta left the positive cone on the sample grid")
    theta_t = nu(gamma, times, 1) + h_t
    nu_tt = nu(gamma, times, 2)
    h_tt = -h_t + c * (theta**q - base**q) - nu_tt
    theta_tt = nu_tt + h_tt
    err_est = rtol * float(np.max(np.abs(theta))) + atol
    return ThetaPath(
        gamma=gamma,
        times=times,
        h=h,
        h_t=h_t,
        theta=theta,
        theta_t=theta_t,
        theta_tt=theta_tt,
        err_est=err_est,
    )


def theta_derivative(path: ThetaPath, order: int) -> np.ndarray:
    """d^k theta / dt^k on the path grid, by substituting the evolution law.

    Orders 0..3 are supported; substitution avoids differencing noise. Order 3
    differentiates theta_tt = -theta_t + c theta^{2-3g} once more.
    """
    g = path.gamma
    if order == 0:
        return np.asarray(path.theta)
    if order == 1:
        return np.asarray(path.theta_t)
    theta_tt = theta_acceleration(g, path.theta, path.theta_t)
    if order == 2:
        return theta_tt
    if order == 3:
        c, q = 1.0 / (3.0 * g - 1.0), 2.0 - 3.0 * g
        return -theta_tt + c * q * path.theta ** (q - 1.0) * path.theta_t
    raise ValueError("derivative order above 3 is not supported")


def verify_decay(path: ThetaPath, n: int = 2) -> DecayReport:
    """Fit the decay constants and check the constant-1 bounds on a path."""
    if n < 0 or n > 3:
        raise ValueError("n must be between 0 and 3")
    g = path.gamma
    p = 1.0 / (3.0 * g - 1.0)
    base = nu(g, path.times)
    lower_violation = float(np.max(base - path.theta))
    monotone_violation = float(np.max(-path.theta_t))
    K_fit = float(np.max(path.theta / base))
    Cn_fit: dict[int, float] = {}
    for k in range(1, n + 1):
        dk = theta_derivative(path, k)
        Cn_fit[k] = float(np.max(np.abs(dk) * np.power(1.0 + path.times, k - p)))
    violations = {"lower": lower_violation, "monotone": monotone_violation}
    fits_finite = np.isfinite(K_fit) and all(np.isfinite(v) for v in Cn_fit.values())
    passed = (
        lower_violation <= BOUND_SLACK
        and monotone_violation <= BOUND_SLACK
        and bool(fits_finite)
    )
    return DecayReport(
        gamma=g,
        K_fit=K_fit,
        Cn_fit=Cn_fit,
        max_violation=violations,
        passed=passed,
    )


def _liu_law(gamma: float, a: float, b: float, e: float) -> tuple[float, float, float]:
    """Time derivatives (a_t, b_t, e_t) of the coefficient system.

    Derived by substituting velocity a*y and squared sound speed e - b*|y|^2
    into the damped isentropic flow equations and matching powers of |y|:
        a_t = -a - a^2 + 2 b/(gamma-1),
        b_t = -(3*gamma - 1) a b,
        e_t = -3 (gamma-1) a e.
    """
    return (
        -a - a * a + 2.0 * b / (gamma - 1.0),
        -(3.0 * gamma - 1.0) * a * b,
        -3.0 * (gamma - 1.0) * a * e,
    )


def liu_mass(gamma: float, b, e) -> np.ndarray | float:
    """Conserved total mass of the quadratic ansatz with coefficients (b, e)."""
    iota = 1.0 / (gamma - 1.0)
    mom = moment_integral(iota)
    b = np.asarray(b, dtype=float)
    e = np.asarray(e, dtype=float)
    out = 4.0 * np.pi * gamma ** (-iota) * e ** (iota + 1.5) * b**-1.5 * mom
    return float(out) if out.ndim == 0 else out


def barenblatt_path(
    gamma: float, constants: BarenblattConstants, t
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Self-similar coefficient path (a, b, e)(t) for the given constants."""
    ts = np.asarray(t, dtype=float)
    a = 1.0 / ((3.0 * gamma - 1.0) * (1.0 + ts))
    b = gamma * constants.b_bar / (1.0 + ts)
    e = gamma * constants.a_bar * np.power(
        1.0 + ts, -3.0 * (gamma - 1.0) / (3.0 * gamma - 1.0)
    )
    return a, b, e


def liu_integrate(
    gamma: float,
    initial: LiuState,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the coefficient system; returns (times, a, b, e) samples."""
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")

    def rhs(t: float, y: Sequence[float]) -> tuple[float, float, float]:
        a, b, e = y
        return _liu_law(gamma, a, b, e)

    times = _log_grid(float(t_end), 1001)
    samples, _ = _dopri5(rhs, (initial.a, initial.b, initial.e), float(t_end),
                         rtol, atol, times)
    a, b, e = samples.T
    if np.any(b <= 0.0) or np.any(e <= 0.0):
        raise RuntimeError("trajectory left the admissible cone b, e > 0")
    return times, a, b, e


def liu_vs_barenblatt(
    gamma: float,
    mass: float,
    t_end: float,
    initial: LiuState | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> LiuReport:
    """Compare an integrated coefficient trajectory to the self-similar path.

    The deviation series max_i |delta_i(t)| (1+t)/log(2+t) must show no growth
    trend over the last decade of time; its log-log slope there at or below
    SLOPE_CEILING passes. Default initial data sits on the self-similar path at
    t = 0 for the requested mass.
    """
    constants = derive_constants(GasParams(gamma=gamma, mass=mass))
    if initial is None:
        a0, b0, e0 = barenblatt_path(gamma, constants, 0.0)
        initial = LiuState(a=float(a0), b=float(b0), e=float(e0))
    times, a, b, e = liu_integrate(gamma, initial, t_end, rtol=rtol, atol=atol)
    ab, bb, eb = barenblatt_path(gamma, constants, times)
    delta = np.max(
        np.abs(np.stack([a - ab, b - bb, e - eb], axis=0)), axis=0
    )
    deviation = delta * (1.0 + times) / np.log(2.0 + times)

    window = times >= times[-1] / 10.0
    dev_win = deviation[window]
    t_win = times[window]
    positive = dev_win > 0.0
    if np.count_nonzero(positive) >= 2:
        slope = float(
            np.polyfit(np.log(1.0 + t_win[positive]), np.log(dev_win[positive]), 1)[0]
        )
    else:
        slope = 0.0
    bound_fit = float(np.max(dev_win))

    masses = liu_mass(gamma, b, e)
    mass_drift = float(np.max(np.abs(masses - masses[0])) / abs(masses[0]))
    passed = bool(np.all(np.isfinite(deviation))) and slope <= SLOPE_CEILING
    return LiuReport(
        gamma=gamma,
        times=times,
        deviation=deviation,
        slope=slope,
        bound_fit=bound_fit,
        mass_drift=mass_drift,
        passed=passed,
    )


def write_csv(path: ThetaPath, dest) -> None:
    """Write the path as CSV with columns t, h, h_t, theta, theta_t, theta_tt."""
    with open_dest(dest) as fh:
        fh.write("t,h,h_t,theta,theta_t,theta_tt\n")
        cols = (path.times, path.h, path.h_t, path.theta, path.theta_t, path.theta_tt)
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
