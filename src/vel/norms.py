"""Weighted quadrature, inequality checks, and energy functionals.

Evaluates weighted Sobolev seminorms of displacement fields on the ball
grid, checks the Hardy and weighted-embedding inequalities, and computes
the energy, dissipation, and vorticity functionals that monitor a
trajectory.  All functionals are quadratic in the field; quadrature
reductions use numpy's deterministic pairwise summation, so repeated
evaluation is bit-reproducible.

Trajectories are duck-typed: any object with a .grid attribute, a
.max_time_order attribute, and a .time_derivative(t, order) method
returning a VectorField works.  CallableTrajectory, the one such type,
wraps analytic families and the radial run's oracle records alike.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    _adjugate_rows,
    _angular,
    _curl,
    REGIME_THRESHOLD,
    BallGrid,
    DeformationState,
    ScalarField,
    VectorField,
    check_jacobian,
    deformation,
    flow_ops,  # noqa: F401 (perfbench's tracer patches norms.flow_ops)
    flow_ops_from_partials,
)
from .params import (check_gamma, check_integer, check_nonnegative,
                     check_positive)

DECOMPOSITION_TOL = 1e-12
MARGIN_SLACK = 1e-13
# Most entries of one QR: OpenBLAS threads larger ones, and on a 2-core
# host a threaded skinny QR has been seen to stall for about 90 ms
_QR_SIZE = 8192


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


def hardy_check(f, k: float, delta: float,
                constant: float | None = None) -> HardyReport:
    """Compare the r^k mass of f^2 on (0, delta) against the r^(k+2)
    integral of f^2 + f'^2.

    f is a callable of the radius; f' is formed by 4th order finite
    differences.
    With constant=None the check passes whenever the ratio is finite;
    otherwise it passes iff ratio <= constant.
    """
    if not -1.0 < k < math.inf:
        raise ValueError(f"weight exponent must exceed -1 and be finite, got {k}")
    check_positive("interval length", delta)
    from scipy.integrate import quad  # here only: 0.25 s and 20 MB to import

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
    check_nonnegative("weight power", a)
    check_integer("derivative order", b, 0)
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


class _GridFields:
    """Fields as arrays of node values on the grid, one record.  A level of
    the string walk is a list of strings, each differentiated on its own."""

    def __init__(self, grid: BallGrid):
        self.grid = grid

    def sq(self, vec):
        return _sq(vec)

    def integrate(self, power, dens) -> list:
        sigma = self.grid.sigma_r[:, None, None]
        return [self.grid.integrate(sigma ** power * dens)]

    def partials(self, piece):
        return self.grid.partials(piece)  # [i, k] = d_k piece^i

    def flat(self, dp):
        return [dp[:, k] for k in range(3)]

    def angular(self, dp):
        return [_angular(self.grid.y, dp, d) for d in range(3)]

    def flow(self, state, dp):
        G, div_eta, curl_eta = flow_ops_from_partials(state, dp)
        curl = _curl(dp)
        return (np.stack([np.einsum("ir...,ir...->...", G, G), div_eta**2,
                          _sq(curl_eta), _sq(curl)]), curl_eta, curl)


def _tall_qr_r(a: np.ndarray) -> np.ndarray:
    """R of a = Q R up to row signs, from the R's of row blocks of at most
    _QR_SIZE entries, stacked and factored again until one QR is small."""
    k = a.shape[1]
    rows = _QR_SIZE // k
    while a.shape[0] > rows > 2 * k:
        a = np.vstack([np.linalg.qr(a[i:i + rows], mode="r")
                       for i in range(0, a.shape[0], rows)])
    return np.linalg.qr(a, mode="r")


class _Terms(NamedTuple):
    """Separated fields of R records: record r's field is the sum over a
    of radial[a, r](s) angular[a](yhat).

    radial has shape (K, R, n_r).  angular has shape (K, S, *components, 1,
    n_mu, n_psi): the angular factors of S strings on the grid's angular
    nodes, with a unit radial axis so that the grid's angular operators
    apply unchanged.  Every angular factor is parity times itself at the
    antipodal node.  key names how the angular factors were built.
    """

    radial: np.ndarray
    angular: np.ndarray
    parity: int
    key: int


class _RadialDeformation(NamedTuple):
    """Deformation of omega = F(s) yhat in separated form, per record.

    With alpha = D_s F and beta = F / s, grad_omega is alpha P + beta Q for
    P = yhat yhat^T and Q = Id - P; it is held as diag(alpha, beta, beta)
    in the frame of yhat and two tangents, which carries every invariant
    the bulk term needs.  a_inv = P / (1 + alpha) + Q / (1 + beta).
    """

    grad_omega: np.ndarray
    adjugate: np.ndarray
    a_inv: _Terms


class SeparatedFields:
    """Fields sum_a g_a(s) T_a(yhat) on the grid's radial and angular nodes.

    A flat partial maps g T to (D_s g) yhat_k T + (g / s) grad_S,k T, with
    D_s the grid's radial derivative, its center ghosts set by T's parity,
    and grad_S the tangential gradient on the unit sphere; an angular
    derivative acts on T alone.  These are the grid's own operators
    regrouped, so every integral equals the node-array walk's up to
    rounding at any angular resolution.  A level of the string walk is one
    batch of strings that share their radial factors, and the records are
    one more axis of those factors, so one walk reports them all.

    The angular factors, and the R of their QR factorization, depend only
    on how they were built, never on the data, so each is built once, on
    first use, and shared by every later report made with this object.
    """

    def __init__(self, grid: BallGrid):
        self.grid = grid
        self.s = grid.s
        self.yhat = grid._yhat[:, None]
        self.w_sphere = (grid.w_mu[:, None] * grid.w_psi
                         * np.ones(grid.shape[2]))[None]
        self.w_radial = grid.w_s * grid.s**2
        self._built = {}

    def _once(self, recipe, build):
        """(key, angular factors) of the recipe, built on first use."""
        hit = self._built.get(recipe)
        if hit is None:
            hit = self._built[recipe] = (len(self._built), build())
        return hit

    def sq(self, x: _Terms):
        # with the sphere-weighted angular factors as the columns of Q R,
        # the squared norm at each radial node is |R g|^2.  Deep strings
        # hold terms of size h^-depth near the center that cancel; summing
        # them through R before squaring keeps the rounding at the node
        # arrays' level, where the Gram form g^T R^T R g would square it
        def build():
            k = x.angular.shape[0]
            return _tall_qr_r((x.angular * np.sqrt(self.w_sphere))
                              .reshape(k, -1).T)

        tri = self._once(("R", x.key), build)[1]
        coef = tri @ x.radial.reshape(x.radial.shape[0], -1)
        return (coef * coef).sum(axis=0).reshape(x.radial.shape[1:])

    def density(self, vals):
        # a radial function's integrand is its integral over the sphere
        return vals * self.w_sphere.sum()

    def integrate(self, power, dens) -> list:
        return np.sum(self.w_radial * self.grid.sigma_r ** power * dens,
                      axis=-1).tolist()

    def field(self, F) -> _Terms:
        """The vector fields F[r](s) yhat of the records r."""
        key, yhat = self._once(("yhat",), lambda: self.yhat[None, None])
        return _Terms(np.asarray(F, dtype=float)[None], yhat, -1, key)

    def deformation(self, omega: _Terms) -> _RadialDeformation:
        """Deformation state of the field omega = F(s) yhat."""
        F = omega.radial[0]
        alpha = self.grid._ds(F[..., None, None], omega.parity)[..., 0, 0]
        beta = F / self.s
        jac = (1.0 + alpha) * (1.0 + beta) ** 2
        check_jacobian(jac)
        X = np.zeros((3, 3, *F.shape))
        X[0, 0] = alpha
        X[1, 1] = X[2, 2] = beta

        def projections():
            P = self.yhat[:, None] * self.yhat[None, :]
            return np.stack([P, np.eye(3)[:, :, None, None, None] - P])

        key, PQ = self._once(("P, Q",), projections)
        a_inv = _Terms(np.stack([1.0 / (1.0 + alpha), 1.0 / (1.0 + beta)]),
                       PQ, 1, key)
        return _RadialDeformation(X, _adjugate_rows(X), a_inv)

    def partials(self, piece: _Terms) -> _Terms:
        grid = self.grid

        key, angular = self._once(("partials", piece.key), lambda: (
            np.concatenate([self.yhat * piece.angular[..., None, :, :, :],
                            grid._tangential(piece.angular)])))
        ds = grid._ds(piece.radial[..., None, None], piece.parity)[..., 0, 0]
        return _Terms(np.concatenate([ds, piece.radial / self.s]), angular,
                      -piece.parity, key)

    def flat(self, dp: _Terms):
        # strings times derivative index become the children's strings
        key, kids = self._once(("flat", dp.key), lambda: np.swapaxes(
            dp.angular, 2, 3).reshape(dp.angular.shape[0], -1,
                                      *dp.angular.shape[-4:]))
        return [_Terms(dp.radial, kids, dp.parity, key)]

    def angular(self, dp: _Terms):
        # y = s yhat cancels the radial terms and the tangential terms' 1/s
        half = dp.radial.shape[0] // 2
        key, kids = self._once(("angular", dp.key), lambda: np.concatenate(
            [_angular(self.yhat, dp.angular[half:], d) for d in range(3)],
            axis=1))
        return [_Terms(dp.radial[half:] * self.s, kids, -dp.parity, key)]

    def flow(self, state: _RadialDeformation, dp: _Terms):
        a_inv, parity = state.a_inv, dp.parity
        # every (P, Q) term of a_inv times every term of dp
        radial = (a_inv.radial[:, None] * dp.radial[None]).reshape(
            -1, *dp.radial.shape[1:])
        G_key, G = self._once(("G", a_inv.key, dp.key), lambda: np.einsum(
            "ekr...,csik...->ecsir...", a_inv.angular, dp.angular).reshape(
                -1, *dp.angular.shape[1:]))
        div_key, div = self._once(("div", G_key), lambda: (
            G[:, :, 0, 0] + G[:, :, 1, 1] + G[:, :, 2, 2]))
        curl_eta_key, curl_eta = self._once(("curl", G_key),
                                            lambda: _curl_terms(G))
        curl_key, curl = self._once(("curl", dp.key),
                                    lambda: _curl_terms(dp.angular))
        curl_eta = _Terms(radial, curl_eta, parity, curl_eta_key)
        curl = _Terms(dp.radial, curl, parity, curl_key)
        return (np.stack([self.sq(_Terms(radial, G, parity, G_key)),
                          self.sq(_Terms(radial, div, parity, div_key)),
                          self.sq(curl_eta), self.sq(curl)]), curl_eta, curl)


def _curl_terms(T: np.ndarray) -> np.ndarray:
    """eps_ijk T[..., k, j] over the component axes of separated terms."""
    return np.moveaxis(_curl(np.moveaxis(T, (2, 3), (0, 1))), 0, 2)


def _walk_strings(rep, vec, depth: int, shift: int = 0, state=None,
                  flow_depth: int = -1, root_partials=None):
    """Weighted integrals over the derivative strings of vec, each string
    differentiated once.

    rep is the field representation, _GridFields or SeparatedFields, and
    vec a field in it.  Level (n, l) holds the 3^(n+l) strings that apply
    l angular derivatives first, then n flat partials, over all index
    choices.  The partials of a string give its flat children, its angular
    children when n = 0, its flow-map terms and its flat curl; a level
    lives only until its children are walked.  Returns (dens, flow, head):
    dens[(n, l)] integrates the level's squared strings against
    sigma^(iota + n + shift) for n + l <= depth; flow[(n, l)], for n + l <=
    flow_depth < depth, integrates the sums of |grad_eta|^2, div_eta^2,
    |curl_eta|^2 and |flat curl|^2 against sigma^(iota + n + 1); head is
    the flow and flat curl of vec.  root_partials, when given, are vec's
    partials, already formed.  Each integral is a list with one float per
    record.  On node arrays the sums run in string order, so they match
    a string-by-string evaluation bit for bit.
    """
    iota = rep.grid.constants.iota

    def weighted(n, vals, extra):
        return rep.integrate(iota + n + extra, vals)

    dens = {(0, 0): weighted(0, rep.sq(vec), shift)}
    flow = {}
    head = None
    stack = [(0, 0, [vec])] if depth > 0 else []
    while stack:
        n, l, pieces = stack.pop()
        # children are kept only when they have children of their own
        keep = n + l + 1 < depth
        # 0.0 + x is x, so the sums start from the first term exactly
        sums = 0.0 if n + l <= flow_depth else None
        flat_sq = ang_sq = 0.0
        flat, angular = [], []
        for piece in pieces:
            dp = (root_partials if n + l == 0 and root_partials is not None
                  else rep.partials(piece))
            if sums is not None:
                terms, curl_eta, curl = rep.flow(state, dp)
                sums += terms
                if n + l == 0:
                    head = (curl_eta, curl)
            kids = rep.flat(dp)
            for kid in kids:
                flat_sq += rep.sq(kid)
            if keep:
                flat.extend(kids)
            if n == 0:
                kids = rep.angular(dp)
                for kid in kids:
                    ang_sq += rep.sq(kid)
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


def check_J_max(J_max) -> None:
    """The rule of the top energy order: J_max is an integer >= 0."""
    check_integer("J_max", J_max, 0)


@dataclass(frozen=True)
class Truncation:
    """Retained derivative orders: time derivatives m <= m_max and mixed
    spatial orders n + l <= nl_max.  The extra flat derivative in some
    terms keeps the total spatial order at nl_max + 1, which must stay
    within the differentiation capability of 4."""

    m_max: int = 2
    nl_max: int = 2

    def __post_init__(self):
        for name in ("m_max", "nl_max"):
            check_integer(name, getattr(self, name), 0)
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
                    dens_wt: dict, r: int = 0):
    """The two displayed pieces of record r's order-(m, n, l) energy
    summand, from the string integrals of the m-th and (m+1)-th time
    derivatives."""
    term_i = opt ** (2 * m + 1) * dens_wt[(n, l)][r]
    term_ii = opt ** (2 * m) * (dens_w[(n, l)][r] + dens_w[(n + 1, l)][r])
    return term_i, term_ii


def energy_Ej(traj, j: int, t: float, truncation: Truncation | None = None) -> float:
    """Order-j weighted Sobolev energy of the trajectory at time t.

    Raises if the truncation caps or the trajectory's available time
    derivatives would silently drop a summand.
    """
    check_integer("energy order", j, 0)
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
    rep = _GridFields(traj.grid)
    # time order q enters with n + l = j - q strings and one more flat partial
    dens = [_walk_strings(rep, traj.time_derivative(t, q).values, j + 1 - q)[0]
            for q in range(j + 2)]
    return sum(sum(_energy_summand(1.0 + t, m, n, l, dens[m], dens[m + 1]))
               for m, n, l in _triples(j))


def _m0_pointwise(gamma: float, state: DeformationState):
    """Per-node bulk term M0, its cubic remainder e0, and the quadratic
    part, all formed cancellation-free from the gradient invariants."""
    X = state.grad_omega
    div = X[0, 0] + X[1, 1] + X[2, 2]
    curl = _curl(X)
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
    check_gamma(gamma)
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
    check_gamma(gamma)
    check_J_max(J_max)
    state = deformation(traj.time_derivative(t, 0))
    return _report(_GridFields(traj.grid),
                   lambda q: traj.time_derivative(t, q).values,
                   traj.max_time_order, state, _m0_pointwise(gamma, state)[0],
                   [t], gamma, J_max, truncation or Truncation(),
                   root_partials=state.grad_omega)[0]


def radial_energy_functionals(fields: SeparatedFields, times, gamma: float,
                              profiles, J_max: int = 2,
                              truncation: Truncation | None = None) -> list:
    """energy_functionals of R records of radial trajectories, one report
    per record: record r is at time times[r], and its q-th time derivative
    is profiles[r][q](s) y, with profiles[r][q] sampled on the radial nodes
    of the grid of fields.

    Every derivative string of such a field is a short sum of radial
    functions times angular tensors, so the reports are evaluated in that
    separated form: the same discrete operators and quadrature as
    energy_functionals on the grid's nodes, regrouped, at the cost of a
    few radial vectors per string and record instead of a full grid.  The
    records share the angular factors, so one walk of the strings reports
    them all, and reports made with the same fields share the angular
    factors it has built.
    """
    check_gamma(gamma)
    check_J_max(J_max)
    profiles = np.asarray(profiles, dtype=float)  # [r, q, node]
    s = fields.grid.s
    omegas = [fields.field(s * profiles[:, q])
              for q in range(profiles.shape[1])]
    state = fields.deformation(omegas[0])
    return _report(fields, omegas.__getitem__, len(omegas) - 1, state,
                   fields.density(_m0_pointwise(gamma, state)[0]), times,
                   gamma, J_max, truncation or Truncation())


def _report(rep, field, max_time_order: int, state, m0, times, gamma: float,
            J_max: int, tr: Truncation, root_partials=None) -> list:
    """Walk the strings of each time derivative field(q) in representation
    rep once for all its records and assemble one report per record, at
    times[r]; m0 is the bulk term's integrand, and root_partials, when
    given, the partials of field(0)."""
    iota = rep.grid.constants.iota

    # the kept summands of time order m apply strings of n + l <= top[m]
    top = {m: min(J_max - m, tr.nl_max)
           for m in range(min(J_max, tr.m_max, max_time_order - 1) + 1)}
    vadd_orders = range(min(1, tr.m_max, max_time_order) + 1)
    # one walk per time derivative: full terms on its own summands, one
    # more flat partial for term_ii, and the strings of the w_t of order q - 1
    walks = {}
    for q in range(len(top) + 1):
        flow_depth = top.get(q, 0 if q in vadd_orders else -1)
        depth = max(flow_depth + 1, top.get(q - 1, -1))
        walks[q] = _walk_strings(rep, field(q), depth, 0, state, flow_depth,
                                 root_partials if q == 0 else None)
    curl_first = {m: _walk_strings(rep, walks[m][2][1], top[m], 1)[0]
                  for m in top}
    after_curl = [_walk_strings(rep, walks[m][2][0], tr.nl_max, 1)[0]
                  for m in vadd_orders]
    # the flow curl of omega is the head of its own walk
    curl_l2 = rep.integrate(iota + 1.0, rep.sq(walks[0][2][0]))
    m0_integral = rep.integrate(iota + 1.0, m0)

    reports = []
    for r, t in enumerate(times):
        opt = 1.0 + t
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
                                                  walks[m + 1][0], r)
                ej += term_i + term_ii
                grad_sq, div_sq, curl_sq, curl_then_sq = (
                    a[r] for a in flow[(n, l)])
                e_one = opt ** (2 * m) * (dens[(n, l)][r] + grad_sq
                                          + div_sq / iota)
                frakE[(m, n, l)] = term_i + e_one
                frakD[(m, n, l)] = term_i + e_one / opt
                frakV[(m, n, l)] = opt ** (2 * m) * curl_sq
                # flat-curl pair: curl applied after the strings, or strings
                # applied to the curl; keep the smaller norm
                v_after = opt ** (2 * m) * curl_then_sq
                v_before = opt ** (2 * m) * curl_first[m][(n, l)][r]
                vk += min(v_after, v_before)
            E_j.append(ej)
            scriptV.append(vk)

        v_add = 0.0
        for m, dens in zip(vadd_orders, after_curl):
            for total in range(tr.nl_max + 1):
                for n in range(total + 1):
                    v_add += opt ** (2 * m) * dens[(n, total - n)][r]

        reports.append(EnergyReport(
            t=t, gamma=gamma, J_max=J_max, truncation=tr,
            E_j=tuple(E_j), E_total=float(sum(E_j)),
            frakE=frakE, frakD=frakD, frakV=frakV,
            V_add=float(v_add), scriptV=tuple(scriptV),
            M0_integral=m0_integral[r], curl_l2=curl_l2[r],
            truncated=tuple(dict.fromkeys(dropped)),
        ))
    return reports


def _entries(report: EnergyReport, name: str) -> list:
    val = getattr(report, name)
    if isinstance(val, dict):
        return list(val.values())
    return list(val) if isinstance(val, tuple) else [val]


def report_defect(report: EnergyReport, reference: EnergyReport) -> float:
    """Largest disagreement between two reports of the same field.

    Energy-type entries (E_j, E_total, frakE, frakD) count relative to
    the reference entry.  The others count relative to the reference's
    E_total: the curl-type entries (frakV, scriptV, V_add, curl_l2)
    vanish for curl-free fields, and M0_integral is an O(|grad omega|^2)
    remainder formed with cancellation, so neither is its own scale.
    Reports that disagree on their keys or truncation are infinitely far
    apart.
    """
    if (report.J_max != reference.J_max
            or report.truncated != reference.truncated
            or list(report.frakE) != list(reference.frakE)):
        return math.inf
    worst = 0.0
    for names, scale in (
            (("E_j", "E_total", "frakE", "frakD"), None),
            (("M0_integral", "frakV", "scriptV", "V_add", "curl_l2"),
             abs(reference.E_total))):
        for name in names:
            for a, b in zip(_entries(report, name), _entries(reference, name)):
                diff = abs(a - b)
                if diff > 0.0:
                    ref = abs(b) if scale is None else scale
                    worst = max(worst, diff / ref if ref > 0.0 else math.inf)
    return worst


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
    check_gamma(gamma)
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
    check_positive("theta", th)
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
