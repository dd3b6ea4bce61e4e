"""Time scaling paths for the expanding-gas background.

Two related objects live here. First, the inflation factor theta(t) = nu + h,
where nu(t) = (1 + t)^{1/(3*gamma - 1)} is the self-similar power and h solves
a damped second-order correction law with h(0) = h_t(0) = 0; `integrate_h`
produces the path and `verify_decay` checks the two-sided power-law bounds on
theta and its derivatives. Second, the exact-solution coefficient system for
(a, b, e)(t), quadratic velocity/sound-speed profiles whose evolution reduces
to three coupled ODEs; `_LIU_LAW` states the derived system, and
`liu_vs_barenblatt` measures its approach to the self-similar coefficients.
Each law is source text that `_dopri5` writes into its step loops: DOPRI5
until the damping makes the problem stiff, then the L-stable RODAS.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .params import (BarenblattConstants, GasParams, check_finite,
                     check_gamma, check_integer, check_nonnegative,
                     check_positive, derive_constants, moment_integral)

# Margin below which a constant-1 bound still counts as holding (rounding slack).
BOUND_SLACK = 1e-10
# Highest last-decade log-log slope of the Liu deviation series that passes.
SLOPE_CEILING = 0.05


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StepCounts:
    """Accepted steps of a solve: `explicit` DOPRI5 steps, then `stiff`
    Rosenbrock steps from `stiff_onset`, the time at which DOPRI5's
    stiffness test handed over (None: the solve never switched)."""

    explicit: int
    stiff: int = 0
    stiff_onset: float | None = None


@dataclass(frozen=True)
class ThetaPath:
    """Sampled correction path on a monotone time grid.

    theta = nu + h pointwise; theta_tt is evaluated from the evolution law,
    not by differencing the samples.  steps are the solve's.
    """

    gamma: float
    times: np.ndarray
    h: np.ndarray
    h_t: np.ndarray
    theta: np.ndarray
    theta_t: np.ndarray
    theta_tt: np.ndarray
    steps: StepCounts

    def __post_init__(self) -> None:
        check_gamma(self.gamma)
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
            check_finite(name, getattr(self, name))
        check_positive("b", self.b)
        check_positive("e", self.e)


@dataclass(frozen=True)
class LiuReport:
    """Deviation of the coefficient system from the self-similar path.

    deviation is max over the three components of |delta| (1+t)/log(2+t);
    slope is the log-log growth rate of that series over the last decade of
    time (non-positive up to slack means bounded), bound_fit its maximum over
    the same window, mass_drift the relative drift of the conserved mass,
    steps the solve's.
    """

    gamma: float
    times: np.ndarray
    deviation: np.ndarray
    slope: float
    bound_fit: float
    mass_drift: float
    passed: bool
    steps: StepCounts

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _as_readonly(self.times))
        object.__setattr__(self, "deviation", _as_readonly(self.deviation))


def nu(gamma: float, t, order: int = 0):
    """Background power (1+t)^p with p = 1/(3*gamma - 1), or its derivative."""
    check_gamma(gamma)
    check_integer("order", order, 0)
    ts = np.asarray(t, dtype=float)
    check_nonnegative("t", ts)
    coef, power = _nu_law(gamma, order)
    out = coef * np.power(1.0 + ts, power)
    return float(out) if ts.ndim == 0 else out


def _nu_law(gamma: float, order: int) -> tuple[float, float]:
    """(coef, power) with d^order nu / dt^order = coef (1+t)^power."""
    p = 1.0 / (3.0 * gamma - 1.0)
    return float(np.prod(p - np.arange(order))), p - order


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


# The Dormand-Prince 5(4) pair.  Stage s = 2..6 is taken at t + c h from
# y + h sum_r a_r k_r over the stages before it; y_new = y + h sum_r b_r k_r,
# stage 7 is f(t + h, y_new), and the error weights are b - b_hat over all
# seven stages.
_DOPRI_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DOPRI_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DOPRI_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DOPRI_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
            -22 / 525, 1 / 40)
# Shampine's quartic dense output for the pair: row j holds the weights of
# stage j in the coefficients of x, x^2, x^3, x^4.
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


@dataclass(frozen=True)
class _Law:
    """A first-order system y' = f(t, y), stated once as source text.

    `derivatives` holds one expression per component over t, y_0 ... y_{n-1}
    and the names that the one-line statements of `body` assign first.
    `constants` are statements over the `parameters` that a solve binds once;
    only `math` is in scope.  `_dopri5_loop` compiles the text as a
    callable rhs(t, y) and writes it inline into the step loop, so the text
    must not assign t or y_j, nor name the loops' own locals (now, u_j, k2_j,
    q0_j, w_j, v_j, z_j, f_j, jac_i_j, m_i_j, h, diag, err, factor, abs_u,
    abs_y, next_t, x, ...).

    `jacobian` holds df_i/dy_j row by row, and `time_derivative` df_i/dt
    (empty: f does not depend on t).  Once DOPRI5's stiffness test fires,
    a law with a Jacobian goes on in `_rosenbrock_loop`.  `stiff` may
    restate the law for that phase in other variables, over the law's
    constants: its body, derivatives and Jacobian, its variables `enter`
    over the law's y_j, and the law's `leave` over its own.
    """

    derivatives: tuple[str, ...]
    body: tuple[str, ...] = ()
    parameters: tuple[str, ...] = ()
    constants: tuple[str, ...] = ()
    jacobian: tuple[str, ...] = ()
    time_derivative: tuple[str, ...] = ()
    stiff: _Law | None = None
    enter: tuple[str, ...] = ()
    leave: tuple[str, ...] = ()


# The correction law of `integrate_h` in its split h-form, (y_0, y_1) =
# (h, h_t).  nu and the power of nu_tt are the scalar ** (libm pow), within
# 1 and 2 ulp of nu(gamma, t) and nu(gamma, t, 2), which use np.power;
# theta <= 0 turns into NaN, which fails the step's error test.
_THETA_LAW = _Law(
    parameters=("gamma",),
    constants=(
        "c = 1.0 / (3.0 * gamma - 1.0)",  # also the power of nu
        "q = 2.0 - 3.0 * gamma",
        "nu_tt_coef = c * (c - 1.0)",
        "nu_tt_power = c - 2.0",
    ),
    body=(
        "base = 1.0 + t",
        "nu = base ** c",
        "scaled = base ** nu_tt_power",
        "theta = nu + y_0",
        "theta = theta if theta > 0.0 else math.nan",
    ),
    derivatives=("y_1",
                 "-y_1 + c * (theta ** q - nu ** q) - nu_tt_coef * scaled"),
    jacobian=("0.0", "1.0",
              "c * q * theta ** (q - 1.0)", "-1.0"),
    # nu_t = c nu / base and d(scaled)/dt = nu_tt_power scaled / base
    time_derivative=("0.0",
                     "(c * q * (theta ** (q - 1.0) - nu ** (q - 1.0)) * c * nu"
                     " - nu_tt_coef * nu_tt_power * scaled) / base"),
)

# The coefficient system of `liu_integrate`, (y_0, y_1, y_2) = (a, b, e).
# Substituting velocity a*y and squared sound speed e - b*|y|^2 into the
# damped isentropic flow equations and matching powers of |y| gives
#     a_t = -a - a^2 + 2 b/(gamma-1),
#     b_t = -(3*gamma - 1) a b,
#     e_t = -3 (gamma-1) a e.
# Its stiff phase runs in (a, log b, log m), log m = (iota + 3/2) log e
# - (3/2) log b with iota = 1/(gamma-1): the log of the conserved mass
# e^(iota+3/2) b^(-3/2), up to its constant factor.  A Rosenbrock step
# keeps this linear form to round-off, which over a thousand steps drifts
# a few 1e-14; as a variable with derivative 0.0 it stays bit for bit.
_LIU_LAW = _Law(
    parameters=("gamma",),
    constants=(
        "gm1 = gamma - 1.0",
        "rate_b = -(3.0 * gamma - 1.0)",
        "rate_e = -3.0 * (gamma - 1.0)",
        "power_e = 1.0 / gm1 + 1.5",
    ),
    derivatives=("-y_0 - y_0 * y_0 + 2.0 * y_1 / gm1", "rate_b * y_0 * y_1",
                 "rate_e * y_0 * y_2"),
    stiff=_Law(
        body=("b = math.exp(y_1)",),
        derivatives=("-y_0 - y_0 * y_0 + 2.0 * b / gm1", "rate_b * y_0",
                     "0.0"),
        jacobian=("-1.0 - 2.0 * y_0", "2.0 * b / gm1", "0.0",
                  "rate_b", "0.0", "0.0",
                  "0.0", "0.0", "0.0"),
        enter=("y_0", "math.log(y_1)",
               "power_e * math.log(y_2) - 1.5 * math.log(y_1)"),
        leave=("y_0", "math.exp(y_1)",
               "math.exp((y_2 + 1.5 * y_1) / power_e)")),
)

# One step of either loop from (now, u_j): attempts from h_abs down, each
# clipped to {limit}, until the error test passes.  The control is scipy
# RK45's: the factor 0.9 err^{exponent} kept within [0.2, {most}] and
# below 1 right after a rejection, and a minimum step of 10 ulp(now).
_STEP = """\
min_step = 10.0 * (math.nextafter(now, math.inf) - now)
if min_step > h_abs:
    h_abs = min_step
rejected = False
while True:
    if not h_abs >= min_step:  # also a NaN step
        raise RuntimeError(
            "integration failed: required step size is less than "
            f"the spacing of floats at t = {{now:.6g}}")
    t_new = now + h_abs
    if {limit} < t_new:
        t_new = {limit}
    h = h_abs = t_new - now
{stages}
    err = math.sqrt({err}) / {root_n!r}
    factor = {most} if err == 0.0 else 0.9 * err ** {exponent}
    if err < 1.0:
        if factor > {most}:
            factor = {most}
        if rejected and factor > 1.0:
            factor = 1.0
        h_abs *= factor
        break
    # a NaN err gives a NaN factor, so the largest cut 0.2
    h_abs *= factor if factor > 0.2 else 0.2
    rejected = True"""

# A law bound to its parameters, as the callable rhs of the initial step
# and the step loop of _dopri5 with the law written into each stage, the
# samples read from the quartic interpolant.  The loop calls no builtin
# but abs: each max and min of the list loop is written as the comparison
# it makes, and each sum as 0.0 + a + b ..., left to right (sum's order
# for floats up to CPython 3.11).
_DOPRI_LOOP = """
def bind({parameters}):
{constants}
    def rhs(t, y):
        {y} = y
{rhs_body}
        return ({derivatives})

    def loop(now, state, f, h_abs, t_end, rtol, atol, ts):
        {u} = state
        {k1} = f
        samples = []
        ts = [*ts, math.inf]
        i = steps = stiff = calm = 0
        h_lambda = 0.0
        next_t = ts[0]
        while now < t_end:
{step}

            if next_t <= t_new:
{dense}
                while next_t <= t_new:
                    x = (next_t - now) / h
                    x2 = x * x
                    x3 = x2 * x
                    samples.append(({sample}))
                    i += 1
                    next_t = ts[i]
            now, {u}{k1} = t_new, {y}{k7}
            steps += 1
{stiffness}
        return samples, steps, now, ({u}), h_abs

    return rhs, loop
"""

# Hairer's stiffness test (Hairer-Wanner II, Sec. IV.2; dopri5.f), after
# each accepted step of a law that can switch: h |k7 - k6| / |y_new - w|,
# w the argument of stage 6 (taken at t_new, as stage 7), estimates h
# times the dominant eigenvalue.  The 15th step above 3.25 ends the loop;
# six below it in a row reset the count.
_STIFFNESS_TEST = """\
den = {den}
if den > 0.0:
    h_lambda = h * math.sqrt(({num}) / den)
if h_lambda > 3.25:
    calm = 0
    stiff += 1
    if stiff == 15:
        break
else:
    calm += 1
    if calm == 6:
        stiff = 0"""

# RODAS (Hairer-Wanner II, Sec. IV.7; rodas.f), an L-stable, stiffly
# accurate Rosenbrock pair of orders 4(3).  With M = I / (gamma h) - J,
# stage s solves M k_s = f(t + c_s h, u + sum_r a_sr k_r) + d_s h f_t
# + sum_r g_sr k_r / h over r < s; u_new is the argument of stage 6 plus
# k_6, and k_6 is the error estimate.
_ROS_GAMMA = 0.25
_ROS_C = (0.386, 0.21, 0.63, 1.0, 1.0)
_ROS_D = (0.25, -0.1043, 0.1035, -0.03620000000000023, 0.0, 0.0)
_ROS_A5 = (1.221224509226641, 6.019134481288629, 12.53708332932087,
           -0.687886036105895)
_ROS_A = ((1.544,), (0.9466785280815826, 0.2557011698983284),
          (3.314825187068521, 2.896124015972201, 0.9986419139977817),
          _ROS_A5, (*_ROS_A5, 1.0))
_ROS_G = (
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905,
     11.70890893206160),
    (8.083246795921522, -7.981132988064893, -31.52159432874371,
     16.31930543123136, -6.058818238834054),
)

# The stiff phase of a law bound to its parameters: the state enters the
# stiff form's variables, the steps end at each sample time in turn, and
# each sample leaves them.  J and f_t are taken at each step's start.
_ROSENBROCK_LOOP = """
def bind({parameters}):
{constants}
    def loop(now, state, h_abs, rtol, atol, ts):
        {y} = state
        {u} = {enter}
        samples = []
        steps = 0
        for next_t in ts:
            while now < next_t:
                t = now
                {y} = {u}
{jacobian}
{step}
                now, {u} = t_new, {v}
                steps += 1
            {y} = {u}
            samples.append(({leave}))
        return samples, steps

    return loop
"""


def _weighted(weights: Sequence[float], names: Sequence[str]) -> str:
    """Source of the sum of weights[i] * names[i], left to right, without
    the zero weights: '0.075 * a + 0.225 * b' for (3/40, 9/40), (a, b).
    (x + -c * b is x - c * b to the bit.)"""
    return " + ".join(f"{w!r} * {name}"
                      for w, name in zip(weights, names) if w != 0.0)


def _tuple(items) -> str:
    """Source of the items as a tuple display or target, without brackets."""
    return "".join(f"{item}, " for item in items)


def _indent(lines: Sequence[str], depth: int) -> str:
    return "\n".join(" " * depth + line for line in lines)


def _scaled_sq(num: str, new: str, old: str) -> str:
    """Source of (num / (atol + max(|new|, |old|) rtol)) ** 2."""
    return (f"({num} / (atol + (abs_y if (abs_y := abs({new})) >"
            f" (abs_u := abs({old})) else abs_u) * rtol)) ** 2")


def _compile(template: str, law: _Law, name: str, step: dict, depth: int,
             **fields) -> Callable:
    """The bind function of the template, filled in with the law's
    parameters and constants, _STEP filled in with step at the given
    depth, and fields."""
    step = _STEP.format(**step)
    src = template.format(parameters=", ".join(law.parameters),
                          constants=_indent(law.constants, 4),
                          step=_indent(step.splitlines(), depth), **fields)
    namespace = {"math": math}
    exec(compile(src, name, "exec"), namespace)
    return namespace["bind"]


@functools.lru_cache(maxsize=8)
def _dopri5_loop(law: _Law) -> Callable:
    """bind(*parameters) -> (rhs, loop) for the law, compiled on first use.

    bind runs the law's constants once per solve.  In the loop the state
    is unpacked into floats u_j and the stages into k2_j ... k7_j; each
    stage sets t and y_j to its time and argument and evaluates the law's
    body and derivatives in place, and each update is the tableau's
    expression in the tableau's order, so the loop does the float
    operations of a loop over lists that calls rhs, without the calls or
    the lists.  loop returns the samples, the accepted steps, and the
    time, state and next h_abs where it stopped: t_end, or the stiffness
    test's hand-over.
    """
    n = len(law.derivatives)
    comps = range(n)
    u = [f"u_{j}" for j in comps]
    y = [f"y_{j}" for j in comps]
    k = [[f"k{s}_{j}" for s in range(1, 8)] for j in comps]
    switches = bool((law.stiff or law).jacobian)

    def stage(time: str, args: Sequence[str], s: int) -> list[str]:
        keep = switches and s == 6  # w_j, for the stiffness test
        return [f"t = {time}",
                *(f"{y[j]} = w_{j} = {args[j]}" if keep
                  else f"{y[j]} = {args[j]}" for j in comps),
                *law.body,
                *(f"{k[j][s - 1]} = {d}"
                  for j, d in enumerate(law.derivatives))]

    stages = []
    for s, (c, a) in enumerate(zip(_DOPRI_C, _DOPRI_A), start=2):
        stages += stage(f"now + {c!r} * h", [
            f"{u[j]} + ({_weighted(a, k[j])}) * h" for j in comps], s)
    # stage 7 is taken at y_new, so y_j holds y_new from here on
    stages += stage("now + h", [
        f"{u[j]} + h * ({_weighted(_DOPRI_B, k[j])})" for j in comps], 7)
    err = "0.0" + "".join(
        " + " + _scaled_sq(f"(({_weighted(_DOPRI_E, k[j])}) * h)", y[j], u[j])
        for j in comps)
    dense = []  # q{col}_j: the coefficient of x^(col + 1) in component j
    for j in comps:
        for col in range(4):
            terms = "".join(f" + {k[j][s]} * {p[col]!r}"
                            for s, p in enumerate(_DOPRI_P) if p[col] != 0.0)
            dense.append(f"q{col}_{j} = 0.0{terms}")
    sample = _tuple(f"h * (q0_{j} * x + q1_{j} * x2 + q2_{j} * x3"
                    f" + q3_{j} * (x3 * x)) + {u[j]}" for j in comps)
    stiffness = _indent(_STIFFNESS_TEST.format(
        den=" + ".join(f"({y[j]} - w_{j}) ** 2" for j in comps),
        num=" + ".join(f"({k[j][6]} - {k[j][5]}) ** 2" for j in comps),
    ).splitlines(), 12) if switches else ""
    step = dict(limit="t_end", stages=_indent(stages, 4), err=err,
                root_n=n ** 0.5, most=10.0, exponent=-0.2)
    return _compile(
        _DOPRI_LOOP, law, f"<dopri5 loop, {n} components>", step, 12,
        y=_tuple(y),
        rhs_body=_indent(law.body, 8), derivatives=_tuple(law.derivatives),
        u=_tuple(u), k1=_tuple(k[j][0] for j in comps),
        k7=_tuple(k[j][6] for j in comps), dense=_indent(dense, 16),
        sample=sample, stiffness=stiffness)


@functools.lru_cache(maxsize=8)
def _rosenbrock_loop(law: _Law) -> Callable:
    """bind(*parameters) -> loop for the law's stiff phase, compiled on
    first use: the RODAS tableau with the stiff form's text written into
    each stage over floats u_j, as `_dopri5_loop` writes DOPRI5's, and
    each stage's solve unrolled.  M is factored per attempt without
    pivoting: M tends to I / (gamma h) as h shrinks, so a failed pivot
    fails the error test and a smaller step recovers.  loop(now, state,
    h_abs, rtol, atol, ts) steps to each sample time of ts in turn and
    returns the samples, in the law's variables, and the accepted steps.
    """
    form = law.stiff or law
    n = len(form.derivatives)
    comps = range(n)
    u = [f"u_{j}" for j in comps]
    y = [f"y_{j}" for j in comps]
    k = [[f"k{s}_{j}" for j in comps] for s in range(1, 7)]
    jacobian = [*form.body,
                *(f"f_{j} = {d}" for j, d in enumerate(form.derivatives)),
                *(f"jac_{i}_{j} = {form.jacobian[i * n + j]}"
                  for i in comps for j in comps),
                *(f"ft_{j} = {d}" for j, d in enumerate(form.time_derivative))]
    # M, then its LU factors in place: l_i_p below the diagonal, m_i_j on
    # and above it, r_p = 1 / m_p_p
    stages = [f"diag = 1.0 / ({_ROS_GAMMA!r} * h)",
              *(f"m_{i}_{j} = {'diag - ' if i == j else '-'}jac_{i}_{j}"
                for i in comps for j in comps)]
    for p in comps:
        stages.append(f"r_{p} = 1.0 / m_{p}_{p}")
        for i in range(p + 1, n):
            stages.append(f"l_{i}_{p} = m_{i}_{p} * r_{p}")
            stages += [f"m_{i}_{j} = m_{i}_{j} - l_{i}_{p} * m_{p}_{j}"
                       for j in range(p + 1, n)]
    for s in range(1, 7):
        derivatives = [f"f_{j}" for j in comps]  # stage 1 is at (now, u)
        if s > 1:
            stages += [f"t = now + {_ROS_C[s - 2]!r} * h",
                       *(f"{y[j]} = {u[j]} + " + _weighted(
                           _ROS_A[s - 2], [k[r][j] for r in range(s - 1)])
                         for j in comps),
                       *form.body]
            derivatives = form.derivatives
        for i, d in enumerate(derivatives):
            terms = f"({d})"
            if form.time_derivative and _ROS_D[s - 1] != 0.0:
                terms += f" + {_ROS_D[s - 1]!r} * h * ft_{i}"
            if s > 1:
                earlier = [k[r][i] for r in range(s - 1)]
                terms += f" + ({_weighted(_ROS_G[s - 2], earlier)}) / h"
            stages.append(f"z_{i} = {terms}" + "".join(
                f" - l_{i}_{p} * z_{p}" for p in range(i)))
        stages += [f"{k[s - 1][i]} = (z_{i}" + "".join(
            f" - m_{i}_{j} * {k[s - 1][j]}" for j in range(i + 1, n))
            + f") * r_{i}" for i in reversed(comps)]
    # y_j holds the argument of stage 6, so v_j = y_j + k6_j is u_new
    stages += [f"v_{j} = {y[j]} + {k[5][j]}" for j in comps]
    step = dict(limit="next_t", stages=_indent(stages, 4), err=" + ".join(
        _scaled_sq(k[5][j], f"v_{j}", u[j]) for j in comps),
        root_n=n ** 0.5, most=6.0, exponent=-0.25)
    return _compile(
        _ROSENBROCK_LOOP, law, f"<rosenbrock loop, {n} components>", step,
        16, y=_tuple(y), u=_tuple(u),
        enter=_tuple(form.enter or y), jacobian=_indent(jacobian, 16),
        v=_tuple(f"v_{j}" for j in comps), leave=_tuple(form.leave or y))


def _dopri5(
    law: _Law,
    parameters: Sequence,
    y0: Sequence[float],
    t_end: float,
    rtol: float,
    atol: float,
    times: np.ndarray,
) -> tuple[np.ndarray, StepCounts]:
    """Dormand-Prince 5(4) for the law from t = 0 to t_end on Python
    floats, and RODAS once the problem turns stiff.

    The law is bound to its parameters for this solve.  The step control
    is scipy's RK45 term for term: the Hairer-Norsett-Wanner initial step
    at error order 4, the RMS error over atol + max(|y|, |y_new|) rtol,
    the factor 0.9 err^(-1/5) kept within [0.2, 10] and below 1 right
    after a rejection, a minimum step of 10 ulp(t), and the last step
    clipped to t_end.  Each sample time is read from the quartic
    interpolant of the accepted step (t_old, t_new] that holds it (the
    first step also holds t = 0).  The step loop is generated once per
    law, with the law's text in each stage (`_dopri5_loop`); its floats
    are those of the loop over lists that calls the law's rhs, kept in
    the tests as its reference, bit for bit.  So it takes RK45's steps
    up to the switch: for a law with a Jacobian, once Hairer's stiffness
    test finds the step held at DOPRI5's stability bound, the L-stable
    RODAS loop (`_rosenbrock_loop`) takes the state and steps to each
    remaining sample time at the same tolerances.  Returns the samples,
    shape (len(times), len(y0)), and the accepted steps of each phase.
    Raises RuntimeError when the step falls below its minimum or is NaN;
    a NaN derivative fails the error test, so it shrinks the step until
    then.  Raises ValueError unless rtol and atol are positive and finite.
    """
    for name, tol in (("rtol", rtol), ("atol", atol)):
        check_positive(name, tol)
    rtol = max(rtol, 100.0 * np.finfo(float).eps)  # scipy's floor
    rhs, loop = _dopri5_loop(law)(*parameters)
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
    samples, steps, now, state, h_abs = loop(t, y, f, h_abs, t_end, rtol,
                                             atol, ts)
    if not now < t_end:
        return np.array(samples), StepCounts(steps)
    rest, stiff = _rosenbrock_loop(law)(*parameters)(
        now, state, h_abs, rtol, atol, ts[len(samples):])
    return np.array(samples + rest), StepCounts(steps, stiff, now)


def integrate_h(
    gamma: float,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> ThetaPath:
    """Integrate the correction law from rest and sample on a log grid.

    The law (`_THETA_LAW`) is written in the split form
        h_tt = -h_t + c [(nu+h)^{2-3g} - nu^{2-3g}] + F(t),
    with c = 1/(3g-1), which reassembles theta_tt + theta_t = c theta^{2-3g}
    for theta = nu + h when F = c nu^{2-3g} - nu_tt - nu_t.  nu solves
    nu_t = c nu^{2-3g} exactly, so F = -nu_tt.
    """
    check_gamma(gamma)
    check_positive("t_end", t_end)
    c = 1.0 / (3.0 * gamma - 1.0)
    q = 2.0 - 3.0 * gamma
    times = _log_grid(float(t_end), 2001)
    samples, steps = _dopri5(_THETA_LAW, (gamma,), (0.0, 0.0), float(t_end),
                             rtol, atol, times)
    h, h_t = samples.T
    base = nu(gamma, times)
    theta = base + h
    if np.any(~np.isfinite(theta)) or np.any(theta <= 0.0):
        raise RuntimeError("theta left the positive cone on the sample grid")
    theta_t = nu(gamma, times, 1) + h_t
    nu_tt = nu(gamma, times, 2)
    h_tt = -h_t + c * (theta**q - base**q) - nu_tt
    theta_tt = nu_tt + h_tt
    return ThetaPath(gamma=gamma, times=times, h=h, h_t=h_t, theta=theta,
                     theta_t=theta_t, theta_tt=theta_tt, steps=steps)


def verify_decay(path: ThetaPath, n: int = 2) -> DecayReport:
    """Fit the decay constants, Cn_fit[k] for k = 1..n <= 2 from the path's
    own theta_t and theta_tt, and check the constant-1 bounds on a path."""
    check_integer("n", n, 0)
    if n > 2:
        raise ValueError("n must be between 0 and 2")
    g = path.gamma
    p = 1.0 / (3.0 * g - 1.0)
    base = nu(g, path.times)
    lower_violation = float(np.max(base - path.theta))
    monotone_violation = float(np.max(-path.theta_t))
    K_fit = float(np.max(path.theta / base))
    Cn_fit: dict[int, float] = {}
    for k, dk in enumerate((path.theta_t, path.theta_tt)[:n], 1):
        Cn_fit[k] = float(np.max(np.abs(dk) * np.power(1.0 + path.times, k - p)))
    violations = {"lower": lower_violation, "monotone": monotone_violation}
    fits_finite = np.isfinite(K_fit) and all(np.isfinite(v) for v in Cn_fit.values())
    passed = (
        lower_violation <= BOUND_SLACK
        and monotone_violation <= BOUND_SLACK
        and bool(fits_finite)
    )
    return DecayReport(gamma=g, K_fit=K_fit, Cn_fit=Cn_fit,
                       max_violation=violations, passed=passed)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, StepCounts]:
    """Integrate the coefficient system; returns the (times, a, b, e)
    samples and the solve's steps."""
    check_gamma(gamma)
    check_positive("t_end", t_end)
    times = _log_grid(float(t_end), 1001)
    samples, steps = _dopri5(_LIU_LAW, (gamma,),
                             (initial.a, initial.b, initial.e), float(t_end),
                             rtol, atol, times)
    a, b, e = samples.T
    if np.any(b <= 0.0) or np.any(e <= 0.0):
        raise RuntimeError("trajectory left the admissible cone b, e > 0")
    return times, a, b, e, steps


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
    times, a, b, e, steps = liu_integrate(gamma, initial, t_end, rtol=rtol,
                                          atol=atol)
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
    return LiuReport(gamma=gamma, times=times, deviation=deviation,
                     slope=slope, bound_fit=bound_fit, mass_drift=mass_drift,
                     passed=passed, steps=steps)
