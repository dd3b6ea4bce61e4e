"""Weighted quadrature, inequality checks, and energy functionals.

Evaluates weighted Sobolev seminorms of displacement fields on the ball
grid, checks the Hardy and weighted-embedding inequalities, and computes
the energy, dissipation, and vorticity functionals that monitor a
trajectory.  All functionals are quadratic in the field; quadrature
reductions use numpy's deterministic pairwise summation, so repeated
evaluation is bit-reproducible.

Trajectories are duck-typed: any object with a .grid attribute, a
.max_time_order attribute, and a .time_derivative(t, order) method
returning a VectorField works.  CallableTrajectory wraps analytic
families; the radial solver provides its own adapter.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from ._io import open_dest
from .geometry import (
    _EPS,
    _angular,
    REGIME_THRESHOLD,
    BallGrid,
    DeformationState,
    ScalarField,
    VectorField,
    deformation,
    flow_ops,
    flow_ops_from_partials,
)

DECOMPOSITION_TOL = 1e-12
MARGIN_SLACK = 1e-13


# ---------------------------------------------------------------------------
# weighted quadrature


def weighted_l2(f, k: float) -> float:
    """Integral of sigma^k |f|^2 over the ball.

    k must exceed -1: at the boundary sigma vanishes linearly, so lower
    exponents can make the integral diverge.
    """
    if not k > -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {k}")
    grid = f.grid
    if isinstance(f, VectorField):
        density = np.einsum("i...,i...->...", f.values, f.values)
    else:
        density = f.values**2
    return grid.integrate(grid.sigma**k * density)


# ---------------------------------------------------------------------------
# Hardy inequality


@dataclass(frozen=True)
class HardyReport:
    """One interval Hardy check: lhs <= ratio * rhs with rhs weighted r^(k+2)."""

    k: float
    delta: float
    lhs: float
    rhs: float
    ratio: float
    constant: float | None
    passed: bool


def _fd_derivative(f, r, lo, hi, h):
    # 4th order stencils; one-sided near the interval ends
    if r - 2.0 * h < lo:
        vals = [f(r + j * h) for j in range(5)]
        return (-25 * vals[0] + 48 * vals[1] - 36 * vals[2]
                + 16 * vals[3] - 3 * vals[4]) / (12.0 * h)
    if r + 2.0 * h > hi:
        vals = [f(r - j * h) for j in range(5)]
        return -(-25 * vals[0] + 48 * vals[1] - 36 * vals[2]
                 + 16 * vals[3] - 3 * vals[4]) / (12.0 * h)
    return (f(r - 2 * h) - 8 * f(r - h) + 8 * f(r + h)
            - f(r + 2 * h)) / (12.0 * h)


def hardy_check(f, k: float, delta: float, fprime=None,
                constant: float | None = None) -> HardyReport:
    """Compare the r^k mass of f^2 on (0, delta) against the r^(k+2)
    integral of f^2 + f'^2.

    f (and fprime when given) are callables of the radius.  Without
    fprime the derivative is formed by 4th order finite differences.
    With constant=None the check passes whenever the ratio is finite;
    otherwise it passes iff ratio <= constant.
    """
    if not k > -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {k}")
    if not delta > 0.0:
        raise ValueError(f"interval length must be positive, got {delta}")
    if fprime is None:
        h = 1e-4 * delta
        fprime = lambda r: _fd_derivative(f, r, 0.0, delta, h)
    lhs = quad(lambda r: r**k * f(r) ** 2, 0.0, delta, limit=200)[0]
    rhs = quad(lambda r: r ** (k + 2) * (f(r) ** 2 + fprime(r) ** 2),
               0.0, delta, limit=200)[0]
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    ok = math.isfinite(ratio) and (constant is None or ratio <= constant)
    return HardyReport(k=k, delta=delta, lhs=lhs, rhs=rhs, ratio=ratio,
                       constant=constant, passed=bool(ok))


# ---------------------------------------------------------------------------
# weighted Sobolev embedding


@dataclass(frozen=True)
class EmbeddingReport:
    """Ratio of the fractional Sobolev norm to the boundary-weighted norm."""

    a: float
    b: int
    s: float
    fractional_norm: float
    weighted_norm: float
    ratio: float


def _derivative_stack(grid: BallGrid, vals: np.ndarray, order: int):
    """Pointwise sum of squares of all derivative strings, per order."""
    cur = vals[None]
    densities = [np.einsum("a...,a...->...", cur, cur)]
    for _ in range(order):
        cur = np.concatenate([grid.partials(c) for c in cur])
        densities.append(np.einsum("a...,a...->...", cur, cur))
    return densities


def embedding_check(f: ScalarField, a: float, b: int) -> EmbeddingReport:
    """Check that the boundary-weighted norm of order b with weight
    d(y)^a controls the flat Sobolev norm of order b - a/2.

    The fractional norm is interpolated between the neighbouring integer
    orders: ||f||_s ~ ||f||_floor^(1-th) ||f||_ceil^th with th = s - floor(s).
    """
    if a < 0.0:
        raise ValueError(f"weight power must be nonnegative, got {a}")
    if b != int(b) or b < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {b}")
    b = int(b)
    if b > 4:
        raise ValueError("derivative order is capped at 4")
    s = b - 0.5 * a
    if s < 0.0:
        raise ValueError(f"target order b - a/2 = {s} is negative")
    grid = f.grid
    dist = np.broadcast_to((grid.r0 - grid.s)[:, None, None], grid.shape)
    densities = _derivative_stack(grid, f.values, b)
    weighted_sq = sum(grid.integrate(dist**a * d) for d in densities)
    lo, hi = math.floor(s), math.ceil(s)
    flat_sq = [sum(grid.integrate(d) for d in densities[: q + 1])
               for q in (lo, hi)]
    th = s - lo
    frac = math.sqrt(flat_sq[0]) ** (1.0 - th) * math.sqrt(flat_sq[1]) ** th
    weighted = math.sqrt(weighted_sq)
    if weighted > 0.0:
        ratio = frac / weighted
    else:
        ratio = 0.0 if frac == 0.0 else math.inf
    return EmbeddingReport(a=a, b=b, s=s, fractional_norm=frac,
                           weighted_norm=weighted, ratio=ratio)


# ---------------------------------------------------------------------------
# trajectories and derivative strings


@dataclass(frozen=True)
class CallableTrajectory:
    """Analytic displacement trajectory.

    funcs[q](t, y) returns the q-th time derivative of the displacement
    on grid coordinates y of shape (3, n_r, n_mu, n_psi).
    """

    grid: BallGrid
    funcs: tuple

    def __post_init__(self):
        if len(self.funcs) == 0:
            raise ValueError("trajectory needs at least the displacement itself")

    @property
    def max_time_order(self) -> int:
        return len(self.funcs) - 1

    def time_derivative(self, t: float, order: int) -> VectorField:
        if order < 0 or order > self.max_time_order:
            raise ValueError(
                f"time derivative order {order} not available "
                f"(trajectory supplies orders 0..{self.max_time_order})"
            )
        vals = np.asarray(self.funcs[order](t, self.grid.y), dtype=float)
        return VectorField(self.grid, vals)


def _sq(vec: np.ndarray) -> np.ndarray:
    return np.einsum("i...,i...->...", vec, vec)


def _walk_strings(grid: BallGrid, vec: np.ndarray, depth: int, shift: int = 0,
                  state: DeformationState | None = None, flow_depth: int = -1):
    """Weighted integrals over the derivative strings of vec, each string
    differentiated once.

    Level (n, l) holds the 3^(n+l) strings that apply l angular
    derivatives first, then n flat partials, over all index choices.  The
    partials of a string give its flat children, its angular children
    when n = 0, its flow-map terms and its flat curl; a level lives only
    until its children are walked.  Returns (dens, flow, head):
    dens[(n, l)] integrates the level's squared strings against
    sigma^(iota + n + shift) for n + l <= depth; flow[(n, l)], for n + l <=
    flow_depth < depth, integrates the sums of |grad_eta|^2, div_eta^2,
    |curl_eta|^2 and |flat curl|^2 against sigma^(iota + n + 1); head is
    the flow and flat curl of vec.  Sums run in string order, so they
    match a string-by-string evaluation bit for bit.
    """
    iota = grid.constants.iota
    y = grid.y

    def weighted(n, vals, extra):
        return grid.integrate(grid.sigma ** (iota + n + extra) * vals)

    dens = {(0, 0): weighted(0, _sq(vec), shift)}
    flow = {}
    head = None
    stack = [(0, 0, [vec])] if depth > 0 else []
    while stack:
        n, l, pieces = stack.pop()
        # children are kept only when they have children of their own
        keep = n + l + 1 < depth
        sums = np.zeros((4, *grid.shape)) if n + l <= flow_depth else None
        flat_sq, ang_sq = np.zeros(grid.shape), np.zeros(grid.shape)
        flat, angular = [], []
        for piece in pieces:
            dp = grid.partials(piece)  # dp[i, k] = d_k piece^i
            if sums is not None:
                G, div_eta, curl_eta = flow_ops_from_partials(state, dp)
                curl = np.einsum("ijk,kj...->i...", _EPS, dp)
                sums += np.stack([np.einsum("ir...,ir...->...", G, G),
                                  div_eta**2, _sq(curl_eta), _sq(curl)])
                if n + l == 0:
                    head = (curl_eta, curl)
            kids = [dp[:, k] for k in range(3)]
            for kid in kids:
                flat_sq += _sq(kid)
            if keep:
                flat.extend(kids)
            if n == 0:
                kids = [_angular(y, dp, d) for d in range(3)]
                for kid in kids:
                    ang_sq += _sq(kid)
                if keep:
                    angular.extend(kids)
        dens[(n + 1, l)] = weighted(n + 1, flat_sq, shift)
        if n == 0:
            dens[(0, l + 1)] = weighted(0, ang_sq, shift)
        if sums is not None:
            flow[(n, l)] = tuple(weighted(n, a, 1) for a in sums)
        # depth first, flat subtree before angular, so few levels coexist
        if keep:
            if n == 0:
                stack.append((0, l + 1, angular))
            stack.append((n + 1, l, flat))
    return dens, flow, head


# ---------------------------------------------------------------------------
# energy functionals


@dataclass(frozen=True)
class Truncation:
    """Retained derivative orders: time derivatives m <= m_max and mixed
    spatial orders n + l <= nl_max.  The extra flat derivative in some
    terms keeps the total spatial order at nl_max + 1, which must stay
    within the differentiation capability of 4."""

    m_max: int = 2
    nl_max: int = 2

    def __post_init__(self):
        if self.m_max < 0 or self.nl_max < 0:
            raise ValueError("truncation orders must be nonnegative")
        if self.nl_max + 1 > 4:
            raise ValueError("spatial order nl_max + 1 exceeds the "
                             "differentiation capability of 4")


@dataclass(frozen=True)
class EnergyReport:
    """Energy, dissipation, and vorticity functionals at one time sample.

    E_j collects the weighted-norm energies per total order j; frakE,
    frakD, frakV hold the flow-map energy, dissipation, and vorticity
    contributions keyed by (m, n, l); V_add applies derivative strings
    after the flow curl; scriptV takes, per string family, the smaller of
    the two flat-curl orderings.  M0_integral is the sigma^(iota+1)
    weighted integral of the nonlinear bulk term and may carry either
    sign; every other entry is nonnegative.  truncated lists the (m, n,
    l) triples dropped by the truncation caps.
    """

    t: float
    gamma: float
    J_max: int
    truncation: Truncation
    E_j: tuple
    E_total: float
    frakE: dict
    frakD: dict
    frakV: dict
    V_add: float
    scriptV: tuple
    M0_integral: float
    curl_l2: float
    truncated: tuple


def _triples(j: int):
    return [(m, n, j - m - n) for m in range(j + 1) for n in range(j - m + 1)]


def _energy_summand(opt: float, m: int, n: int, l: int, dens_w: dict,
                    dens_wt: dict):
    """The two displayed pieces of the order-(m, n, l) energy summand,
    from the string integrals of the m-th and (m+1)-th time derivatives."""
    term_i = opt ** (2 * m + 1) * dens_wt[(n, l)]
    term_ii = opt ** (2 * m) * (dens_w[(n, l)] + dens_w[(n + 1, l)])
    return term_i, term_ii


def energy_Ej(traj, j: int, t: float, truncation: Truncation | None = None) -> float:
    """Order-j weighted Sobolev energy of the trajectory at time t.

    Raises if the truncation caps or the trajectory's available time
    derivatives would silently drop a summand.
    """
    if j < 0:
        raise ValueError(f"energy order must be nonnegative, got {j}")
    tr = truncation or Truncation()
    for m, n, l in _triples(j):
        if m > tr.m_max or n + l > tr.nl_max:
            raise ValueError(
                f"summand (m, n, l) = ({m}, {n}, {l}) exceeds the truncation "
                f"caps (m_max={tr.m_max}, nl_max={tr.nl_max})"
            )
        if m + 1 > traj.max_time_order:
            raise ValueError(
                f"summand (m, n, l) = ({m}, {n}, {l}) needs time derivative "
                f"order {m + 1}, trajectory supplies {traj.max_time_order}"
            )
    grid = traj.grid
    # time order q enters with n + l = j - q strings and one more flat partial
    dens = [_walk_strings(grid, traj.time_derivative(t, q).values, j + 1 - q)[0]
            for q in range(j + 2)]
    return sum(sum(_energy_summand(1.0 + t, m, n, l, dens[m], dens[m + 1]))
               for m, n, l in _triples(j))


def _m0_pointwise(gamma: float, state: DeformationState):
    """Per-node bulk term M0, its cubic remainder e0, and the quadratic
    part, all formed cancellation-free from the gradient invariants."""
    X = state.grad_omega
    div = X[0, 0] + X[1, 1] + X[2, 2]
    curl = np.einsum("ijk,kj...->i...", _EPS, X)
    fro2 = np.einsum("ij...,ij...->...", X, X)
    curl2 = np.einsum("i...,i...->...", curl, curl)
    det_x = np.einsum("k...,k...->...", state.adjugate[0], X[:, 0])
    e2 = 0.5 * (div**2 - fro2 + curl2)
    jm1 = div + e2 + det_x
    g = gamma
    pow_term = np.expm1((1.0 - g) * np.log1p(jm1))
    m0 = pow_term / (g - 1.0) + div
    remainder = pow_term + (g - 1.0) * jm1 - 0.5 * g * (g - 1.0) * jm1**2
    e0 = remainder / (g - 1.0) + 0.5 * g * (jm1**2 - div**2) - det_x
    quadratic = 0.5 * (fro2 + (g - 1.0) * div**2 - curl2)
    return m0, e0, quadratic, fro2, div, curl2


@dataclass(frozen=True)
class M0Report:
    """Pointwise bulk term, cubic remainder, and the two-sided quadratic
    comparison margins over the small-deformation nodes."""

    gamma: float
    M0: np.ndarray
    e0: np.ndarray
    decomposition_defect: float
    lower_margin: float
    upper_margin: float
    regime_fraction: float
    in_regime: bool
    passed: bool


def M0_e0(state: DeformationState, gamma: float) -> M0Report:
    """Evaluate the nonlinear bulk term M0 and its cubic remainder e0.

    Verifies the quadratic decomposition pointwise and, on nodes where
    the deformation gradient is small, the two-sided comparison of
    M0 + curl^2/2 with the gradient quadratic form.  A state outside the
    smallness regime is flagged, not failed: the margins are then
    reported as nan and only the decomposition is checked.
    """
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    m0, e0, quadratic, fro2, div, curl2 = _m0_pointwise(gamma, state)
    defect = float(np.abs(m0 - quadratic - e0).max())
    lower = (m0 + 0.5 * curl2) - (0.25 * fro2 + 0.5 * (gamma - 1.0) * div**2)
    upper = (fro2 + 0.5 * (gamma - 1.0) * div**2) - (m0 + 0.5 * curl2)
    regime = np.sqrt(fro2) <= REGIME_THRESHOLD
    frac = float(np.mean(regime))
    if regime.any():
        lo = float(lower[regime].min())
        hi = float(upper[regime].min())
        margins_ok = lo >= -MARGIN_SLACK and hi >= -MARGIN_SLACK
    else:
        lo = hi = float("nan")
        margins_ok = True
    passed = defect <= DECOMPOSITION_TOL and margins_ok
    return M0Report(
        gamma=gamma, M0=m0, e0=e0, decomposition_defect=defect,
        lower_margin=lo, upper_margin=hi, regime_fraction=frac,
        in_regime=bool(state.regime_ok), passed=bool(passed),
    )


def energy_functionals(traj, t: float, gamma: float, J_max: int = 2,
                       truncation: Truncation | None = None) -> EnergyReport:
    """Evaluate all monitored functionals of the trajectory at time t.

    Summands whose orders exceed the truncation caps or the trajectory's
    available time derivatives are dropped and recorded in the report's
    truncated list, never silently.
    """
    if J_max < 0:
        raise ValueError(f"J_max must be nonnegative, got {J_max}")
    tr = truncation or Truncation()
    grid = traj.grid
    iota = grid.constants.iota
    sig = grid.sigma
    opt = 1.0 + t

    omega = traj.time_derivative(t, 0)
    state = deformation(omega)

    # the kept summands of time order m apply strings of n + l <= top[m]
    top = {m: min(J_max - m, tr.nl_max)
           for m in range(min(J_max, tr.m_max, traj.max_time_order - 1) + 1)}
    vadd_orders = range(min(1, tr.m_max, traj.max_time_order) + 1)
    # one walk per time derivative: full terms on its own summands, one
    # more flat partial for term_ii, and the strings of the w_t of order q - 1
    walks = {}
    for q in range(len(top) + 1):
        flow_depth = top.get(q, 0 if q in vadd_orders else -1)
        depth = max(flow_depth + 1, top.get(q - 1, -1))
        walks[q] = _walk_strings(grid, traj.time_derivative(t, q).values,
                                 depth, 0, state, flow_depth)
    curl_first = {m: _walk_strings(grid, walks[m][2][1], top[m], 1)[0]
                  for m in top}

    E_j = []
    scriptV = []
    frakE = {}
    frakD = {}
    frakV = {}
    dropped = []
    for j in range(J_max + 1):
        ej = 0.0
        vk = 0.0
        for m, n, l in _triples(j):
            if m not in top or n + l > top[m]:
                dropped.append((m, n, l))
                continue
            dens, flow, _ = walks[m]
            term_i, term_ii = _energy_summand(opt, m, n, l, dens,
                                              walks[m + 1][0])
            ej += term_i + term_ii
            grad_sq, div_sq, curl_sq, curl_then_sq = flow[(n, l)]
            e_one = opt ** (2 * m) * (dens[(n, l)] + grad_sq + div_sq / iota)
            frakE[(m, n, l)] = term_i + e_one
            frakD[(m, n, l)] = term_i + e_one / opt
            frakV[(m, n, l)] = opt ** (2 * m) * curl_sq
            # flat-curl pair: curl applied after the strings, or strings
            # applied to the curl; keep the smaller norm
            v_after = opt ** (2 * m) * curl_then_sq
            v_before = opt ** (2 * m) * curl_first[m][(n, l)]
            vk += min(v_after, v_before)
        E_j.append(ej)
        scriptV.append(vk)

    v_add = 0.0
    for m in vadd_orders:
        dens = _walk_strings(grid, walks[m][2][0], tr.nl_max, 1)[0]
        for total in range(tr.nl_max + 1):
            for n in range(total + 1):
                v_add += opt ** (2 * m) * dens[(n, total - n)]

    m0 = _m0_pointwise(gamma, state)[0]
    m0_integral = grid.integrate(sig ** (iota + 1.0) * m0)
    _, _, curl_omega = flow_ops(state, omega)
    curl_l2 = grid.integrate(
        sig ** (iota + 1.0) * np.einsum("i...,i...->...", curl_omega, curl_omega)
    )

    return EnergyReport(
        t=t, gamma=gamma, J_max=J_max, truncation=tr,
        E_j=tuple(E_j), E_total=float(sum(E_j)),
        frakE=frakE, frakD=frakD, frakV=frakV,
        V_add=float(v_add), scriptV=tuple(scriptV),
        M0_integral=float(m0_integral), curl_l2=float(curl_l2),
        truncated=tuple(dict.fromkeys(dropped)),
    )


# ---------------------------------------------------------------------------
# zeroth-order energy balance


@dataclass(frozen=True)
class BalanceReport:
    """Discrete defect of the zeroth-order energy balance on the
    interior samples of a uniformly spaced trajectory."""

    gamma: float
    times: np.ndarray
    defect: np.ndarray
    max_defect: float


def zeroth_energy_balance(gamma: float, times, kinetic, potential,
                          theta, theta_t) -> BalanceReport:
    """Defect of the damped energy balance along a sampled trajectory.

    kinetic is the sigma^iota weighted squared velocity integral,
    potential the bracketed displacement-plus-bulk integral, both per
    sample.  The bracket 0.5 (kinetic + theta^(1-3 gamma) potential) is
    differenced with the 4th order central stencil; the balance adds the
    damped kinetic term and subtracts the theta-weight rate times the
    potential, so the defect vanishes at the integrator's order for a
    solution of the damped wave system.
    """
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    times = np.asarray(times, dtype=float)
    kin = np.asarray(kinetic, dtype=float)
    pot = np.asarray(potential, dtype=float)
    th = np.asarray(theta, dtype=float)
    th_t = np.asarray(theta_t, dtype=float)
    n = times.size
    if n < 5:
        raise ValueError("need at least 5 samples for the interior stencil")
    if not (kin.shape == pot.shape == th.shape == th_t.shape == times.shape):
        raise ValueError("sample arrays must share the time grid's shape")
    if np.any(th <= 0.0):
        raise ValueError("theta must stay positive")
    steps = np.diff(times)
    h = steps[0]
    if not np.all(np.abs(steps - h) <= 1e-9 * max(abs(h), 1.0)):
        raise ValueError("time samples must be uniformly spaced")

    power = 1.0 - 3.0 * gamma
    bracket = 0.5 * (kin + th**power * pot)
    inner = slice(2, n - 2)
    dbdt = (bracket[:-4] - 8.0 * bracket[1:-3] + 8.0 * bracket[3:-1]
            - bracket[4:]) / (12.0 * h)
    weight_rate = power * th[inner] ** (power - 1.0) * th_t[inner]
    defect = (dbdt + (1.0 + 2.0 * th_t[inner] / th[inner]) * kin[inner]
              - 0.5 * weight_rate * pot[inner])
    return BalanceReport(
        gamma=gamma, times=times[inner].copy(), defect=defect,
        max_defect=float(np.abs(defect).max()) if defect.size else 0.0,
    )


# ---------------------------------------------------------------------------
# report serialization


def energy_reports_to_csv(reports, dest) -> None:
    """One CSV row per time sample, columns per scalar functional."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to serialize")
    j_max = reports[0].J_max
    if any(r.J_max != j_max for r in reports):
        raise ValueError("reports disagree on J_max")
    cols = (["t"] + [f"E_{j}" for j in range(j_max + 1)] + ["E_total", "V_add"]
            + [f"scriptV_{k}" for k in range(j_max + 1)]
            + ["M0_integral", "curl_l2"])
    with open_dest(dest) as fh:
        fh.write(",".join(cols) + "\n")
        for r in reports:
            row = ([r.t] + list(r.E_j) + [r.E_total, r.V_add]
                   + list(r.scriptV) + [r.M0_integral, r.curl_l2])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def energy_reports_to_json(reports, dest) -> None:
    """JSON list, one object per sample, decompositions keyed "m,n,l"."""

    def key(tpl):
        return ",".join(str(v) for v in tpl)

    payload = []
    for r in reports:
        payload.append({
            "t": r.t,
            "gamma": r.gamma,
            "J_max": r.J_max,
            "truncation": {"m_max": r.truncation.m_max,
                           "nl_max": r.truncation.nl_max},
            "E_j": list(r.E_j),
            "E_total": r.E_total,
            "frakE": {key(k): v for k, v in r.frakE.items()},
            "frakD": {key(k): v for k, v in r.frakD.items()},
            "frakV": {key(k): v for k, v in r.frakV.items()},
            "V_add": r.V_add,
            "scriptV": list(r.scriptV),
            "M0_integral": r.M0_integral,
            "curl_l2": r.curl_l2,
            "truncated": [key(k) for k in r.truncated],
        })
    with open_dest(dest) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
