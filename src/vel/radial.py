"""Spherically symmetric free-boundary solver in comoving coordinates.

The displacement ansatz omega(t, y) = f(t, s) y reduces the damped wave
system to a scalar second-order law for the profile f.  The scheme steps
f itself on the n cell midpoints of [0, r0], with no node at s = 0; the
derivative of s f, built on the grid extended oddly through the center, is
folded once onto these nodes with diag(s) in its columns, so even symmetry
of f holds by construction.  The pressure force is the exact gradient of
the discrete internal energy built on a summation-by-parts derivative
pair; together with the vanishing sigma-weights at the outer rim this
supplies the natural vacuum boundary behavior without an imposed boundary
condition, and the semi-discrete energy balance holds to integrator
order.  The folded operators are stored in band form and applied as CSR
row sums.  Time stepping is explicit RK4: one march per solver picks dt
under a CFL cap and a damping cap, steps [f | f_t] in numpy and co-steps
the scaling factor theta and theta_t on floats by the same RK4 formulas.
"""

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# y += A x for CSR arrays; about half the fixed cost of a dgbmv call
from scipy.sparse._sparsetools import csr_matvec

from .geometry import (BallGrid, DegenerateDeformationError, VectorField,
                       check_grid_shape, deformation)
from .norms import (CallableTrajectory, SeparatedFields, Truncation,
                    check_J_max, energy_functionals, radial_energy_functionals,
                    report_defect)
from .params import (GasParams, check_finite, check_gamma, check_integer,
                     check_nonnegative, check_positive, derive_constants)
from .theta import nu, theta_acceleration

STOP_COMPLETED = "completed"
STOP_MONITOR_E = "monitor_E"
STOP_MONITOR_LOG = "monitor_logE"
STOP_DEGENERATE = "degenerate"
STOP_NONFINITE = "nonfinite"

# Largest dt (1 + 2 theta_t/theta) a step may take.  RK4 is stable on the
# negative real axis up to 2.785.  On the 2x2 model x'' + d x' + w^2 x = 0,
# dt d <= 2.5 stays stable for every w dt up to 2.63.  The default cfl keeps
# w dt inside that range at gamma = 5/3 and 2 on 32-256 cells (the stiffest
# mode has w h/cs <= 6.09), not at gamma = 4/3 (14.05/10.81/7.96 on 32/64/128).
DAMPING_BOUND = 2.5

# Records per separated report walk after the initial record.  A walk's
# cost is mostly per call: 13 records of 64 nodes cost about two
# single-record walks, and a walk of 16 peaks near 1 MB.  An energy trip
# inside a chunk marches to its end but keeps nothing past the trip; the
# log-weighted monitor closes a chunk early where it must trip.
REPORT_CHUNK = 16


class DegenerateProfileError(RuntimeError):
    """Raised when 1 + f or the radial Jacobian stops being positive."""


# ---------------------------------------------------------------------------
# summation-by-parts operator pair


# Boundary weights H/h and the upper triangle of the antisymmetric corner
# S[:6, :6] of H D - E/2 at the left end, in units free of h.  The corner is
# the 96-node numerical solution of the SBP constraints (boundary rows
# exact to degree 2, weights to degree 3), projected in exact arithmetic so
# that its rows are exact to degree 2 with these weights.
_W_CORNER = np.array([1633 / 1536, 3677 / 3840, 3677 / 3840, 1841 / 1920,
                      8489 / 7680, 3677 / 3840])
_S_UPPER = np.array([
    2.447829805750416, -1.6142335645195314, 0.5985929528060978,
    -0.4413773517219325, 0.23965690768494993, -0.04756503773388904,
    0.9668265040391605, 0.4672015505420928, -0.5792582110969482,
    -0.5491451424319805, 0.0004039779974150415, 0.36350506218114514,
    0.3867936862245231, -0.07364437181124525, 0.6330739463754318])
# exact five-point extrapolation from the first midpoints to s = 0
_V_END = np.array([315.0, -420.0, 378.0, -180.0, 35.0]) / 128.0
# half-bandwidth of D and of its fold Dh, set by the 6x6 corner
_BAND = _W_CORNER.size - 1


def _band_rows(n: int) -> np.ndarray:
    """Row index i of each slot of band storage ab[_BAND + i - j, j]."""
    return np.arange(n) + np.arange(-_BAND, _BAND + 1)[:, None]


def _band_T(ab: np.ndarray) -> np.ndarray:
    """The transpose in band storage, abT[_BAND + d, j] = ab[_BAND - d, j + d];
    the slots outside the matrix hold zeros, so the wrapped reads are 0."""
    return np.take_along_axis(ab[::-1], _band_rows(ab.shape[1]) % ab.shape[1], 1)


def _csr(vals: np.ndarray, cols: np.ndarray, n_col: int) -> tuple:
    """(n_row, n_col, indptr, indices, data), the operands csr_matvec takes,
    of the nonzero entries of a matrix given row by row: row i holds vals[i]
    at the columns cols[i], which increase.  The arrays are read-only."""
    keep = vals != 0.0
    indptr = np.zeros(len(vals) + 1, dtype=np.intc)
    np.cumsum(keep.sum(1), out=indptr[1:])
    arrays = (indptr, cols[keep].astype(np.intc), vals[keep])
    for arr in arrays:
        arr.setflags(write=False)
    return (len(vals), n_col, *arrays)


def _band_csr(ab: np.ndarray) -> tuple:
    """_csr of the square matrix held in band storage: row j of the
    transposed band holds the entries (j, j + d) for d = -_BAND.._BAND."""
    n = ab.shape[1]
    return _csr(_band_T(ab).T, _band_rows(n).T, n)


def _apply(op: tuple, x: np.ndarray) -> np.ndarray:
    """The product of a _csr operator with x, in a fresh array."""
    y = np.zeros(op[0])
    csr_matvec(*op, x, y)
    return y


def _from_band(ab: np.ndarray) -> np.ndarray:
    """The dense square matrix held in band storage."""
    n = ab.shape[1]
    return sum(np.diag(ab[_BAND - k, max(k, 0):n + min(k, 0)], k)
               for k in range(-_BAND, _BAND + 1))


@lru_cache(maxsize=32)
def _build_sbp(n: int, h: float):
    """Reflection-symmetric derivative/weight pair on the midpoint grid.

    Returns (D, H), D in LAPACK band storage ab[_BAND + i - j, j] (O(n)
    memory), with H D = E/2 + S, E = -v0 v0^T + vL vL^T for the end
    extrapolations v0 = (_V_END, 0, ...), vL = v0 reversed, and S
    antisymmetric, so the summation-by-parts identity H D + D^T H = E holds
    by construction.  S is the fourth-order central stencil (2/3, -1/12)
    with a tabulated 6x6 corner at each end, the right one the reflection
    of the left.  H is h in the interior and h times six positive rationals
    at each end.  Boundary derivative rows are exact to degree 2 and the
    weights match moments to degree 3.
    """
    if n < 24:
        raise ValueError(f"need at least 24 cells, got {n}")
    nb, m = _W_CORNER.size, _V_END.size
    S = np.zeros((2 * _BAND + 1, n))
    for k, c in ((1, 2.0 / 3.0), (2, -1.0 / 12.0)):
        S[_BAND - k, k:] = c
        S[_BAND + k, :-k] = -c
    corner = np.zeros((nb, nb))
    corner[np.triu_indices(nb, 1)] = _S_UPPER
    corner -= corner.T
    i, j = np.indices((nb, nb))
    S[_BAND + i - j, j] = corner
    S[_BAND + i - j, n - nb + j] = -corner[::-1, ::-1]
    E = np.zeros_like(S)
    i, j = np.indices((m, m))
    E[_BAND + i - j, j] = -np.outer(_V_END, _V_END)
    E[_BAND + i - j, n - m + j] = np.outer(_V_END[::-1], _V_END[::-1])
    H = np.full(n, h)
    H[:nb] = _W_CORNER * h
    H[-nb:] = H[nb - 1::-1]
    Hi = H[_band_rows(n).clip(0, n - 1)]
    D = (0.5 * E + S) / Hi
    HD = Hi * D
    if np.abs(HD + _band_T(HD) - E).max() > 1e-10:
        raise RuntimeError("summation-by-parts identity violated")
    for arr in (D, H):
        arr.setflags(write=False)
    return D, H


# ---------------------------------------------------------------------------
# state and configuration


@dataclass(frozen=True)
class RadialState:
    """Profile snapshot: omega = f(t, s) y with velocity and theta context.

    The midpoint grid carries no node at s = 0 and the solver's derivative
    has the even extension of f folded in, so even-extendability holds by
    construction.  Positivity of the radial Jacobian is checked by every
    solver operation that differentiates the profile.
    """

    time: float
    f: np.ndarray
    f_t: np.ndarray
    theta: float
    theta_t: float

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        f_t = np.asarray(self.f_t, dtype=float)
        if f.ndim != 1 or f.shape != f_t.shape:
            raise ValueError("profile arrays must be matching 1-d arrays")
        check_finite("profile arrays", f)
        check_finite("profile arrays", f_t)
        check_finite("time", self.time)
        check_positive("theta", self.theta)
        check_finite("theta_t", self.theta_t)
        if np.any(1.0 + f <= 0.0):
            idx = int(np.argmin(1.0 + f))
            raise DegenerateProfileError(
                f"1 + f nonpositive at node {idx} (value {f[idx]:.6g})")
        f = f.copy()
        f_t = f_t.copy()
        f.setflags(write=False)
        f_t.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "f_t", f_t)


FAMILIES = ("poly", "bump")


def check_resolution(resolution) -> None:
    """The rule of the radial cell count: an integer of at least 16."""
    check_integer("resolution", resolution, 16)


@dataclass(frozen=True)
class RunConfig:
    """Run parameters for the radial evolution.

    family 'poly' starts from psi(s) = (1 - (s/r0)^2)^q with
    q = family_exponent >= 2; 'bump' from a smooth centered bump.  The
    initial data is f = amplitude psi, f_t = velocity_amplitude psi.
    Records are log-spaced from t = 0.01 (or t_end / records, if earlier)
    to t_end.  eps0 is the a-priori monitor threshold: the run halts once
    the truncated total energy exceeds eps0^2, or once
    (ln(1+t))^2 sup E exceeds eps0^2.
    """

    gamma: float
    mass: float = 1.0
    resolution: int = 64
    cfl: float = 0.3
    t_end: float = 1e3
    family: str = "poly"
    family_exponent: int = 2
    amplitude: float = 1e-3
    velocity_amplitude: float = 0.0
    records: int = 120
    eps0: float = 0.1
    J_max: int = 2
    truncation: Truncation = Truncation()
    report_angles: tuple = (8, 8)

    def __post_init__(self):
        GasParams(self.gamma, self.mass)
        try:
            n_mu, n_psi = self.report_angles
        except (TypeError, ValueError):
            raise ValueError("report_angles must be two integers, got "
                             f"{self.report_angles!r}") from None
        check_resolution(self.resolution)
        # the grid's own check sets the least angle counts
        for name, value, least in (("records", self.records, 2),
                                   ("family_exponent", self.family_exponent, 2),
                                   ("report_angles", n_mu, 0),
                                   ("report_angles", n_psi, 0)):
            check_integer(name, value, least)
        check_grid_shape(self.resolution, n_mu, n_psi, "midpoint")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        check_positive("t_end", self.t_end)
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        check_nonnegative("amplitude", self.amplitude)
        check_finite("velocity_amplitude", self.velocity_amplitude)
        check_positive("eps0", self.eps0)
        check_J_max(self.J_max)


def profile_family(config: RunConfig, s: np.ndarray, r0: float) -> np.ndarray:
    """Initial profile shape psi(s) of the configured family."""
    x = s / r0
    if config.family == "poly":
        return (1.0 - x * x) ** config.family_exponent
    return np.exp(-(((x - 0.4) / 0.15) ** 2))


# ---------------------------------------------------------------------------
# the solver


class RadialSolver:
    """Discrete radial operators for one (gamma, mass, resolution)."""

    def __init__(self, gamma: float, mass: float = 1.0, resolution: int = 64,
                 constants=None):
        check_resolution(resolution)
        self.gamma = float(gamma)
        gas = GasParams(gamma=self.gamma, mass=mass)
        self.constants = constants or derive_constants(gas)
        c = self.constants
        if not math.isclose(c.iota, 1.0 / (self.gamma - 1.0), rel_tol=1e-12):
            raise ValueError(
                f"constants have iota = {c.iota:g}, not 1/(gamma - 1) = "
                f"{1.0 / (self.gamma - 1.0):g} at gamma = {self.gamma:g}")
        self.n = int(resolution)
        self.h = c.r0 / self.n
        self.s = (np.arange(self.n) + 0.5) * self.h
        # D acts on the grid extended oddly through the center; Dh folds it
        # onto the physical nodes, Dh[i, j] = D[n + i, n + j] - D[n + i,
        # n - 1 - j], whose ghost column is in the band only for i + j < _BAND
        n = self.n
        D, H = _build_sbp(2 * n, self.h)
        rows = _band_rows(n)
        Dh = np.where(rows >= 0, D[:, n:], 0.0)
        for j in range(_BAND):
            Dh[_BAND - j:2 * (_BAND - j), j] -= D[_BAND + j + 1:, n - 1 - j]
        self.H = H[n:]
        self.sigma = c.a_bar - c.b_bar * self.s**2
        self.w_u = self.H * 4.0 * np.pi * self.s**2 * self.sigma ** (c.iota + 1.0)
        self.w_kin = self.H * 4.0 * np.pi * self.s**2 * self.sigma**c.iota
        if not np.all(self.w_kin > 0.0):
            raise ValueError(
                f"kinetic weight sigma^iota underflows at gamma = {self.gamma:g} "
                f"with {self.n} cells")
        # f's kinetic weight is w_f = s^2 w_kin, and its force per kinetic
        # weight is A2 m + G q for pointwise factors m, q (see _bind):
        # diag(s) is folded into the columns of Dh, so Dh f = (s f)', and the
        # weights into A2 and the weighted transpose G = diag(1/w_f) Dh^T
        # diag(w_u); Dh and G are kept in band storage and applied as CSR
        self.w_f = self.w_kin * self.s**2
        Dh *= self.s
        self._A2 = 2.0 * self.w_u / self.w_f
        self._Dh = Dh
        self._G = _band_T(Dh) * self.w_u / self.w_f[rows.clip(0, n - 1)]
        for arr in (self.s, self.sigma, self.w_u, self.w_kin, self.w_f,
                    self._A2, self._Dh, self._G):
            arr.setflags(write=False)
        self._Dh_csr, self._G_csr = _band_csr(self._Dh), _band_csr(self._G)
        # P maps a stage row [A2 m | f | f_t | f_tt | 1] to [1 + f | 1 + Dh f]:
        # its rows are those of the identity and of Dh on the f slots, each
        # ending in the ones column, so the 1 is added after the row sum
        vals = np.vstack([np.zeros((n, 2 * _BAND + 1)), _band_T(self._Dh).T])
        vals[:n, _BAND] = 1.0
        cols = np.vstack([rows.T, rows.T]) + n
        self._P = _csr(np.column_stack([vals, np.ones(2 * n)]),
                       np.column_stack([cols, np.full(2 * n, 4 * n)]),
                       4 * n + 1)
        self._bind()

    def _bind(self):
        """Bind the stage and the RK4 march once, as closures over the
        operands.  A ufunc takes 0-d array operands (same floats) and a
        positional out faster than Python floats and the out keyword, and a
        closure reads the names bound here faster than np.add and such.

        A stage is one call on its row [A2 m | f | f_t | f_tt | 1]: one CSR
        row sum by P forms [1 + f | 1 + Dh f], a second adds G q to A2 m in
        place, making the force, and the law f_tt = -theta^(1-3 gamma)
        (f/(3 gamma - 1) + force) - (1 + 2 theta_t/theta) f_t is one dot of
        the stage's coefficient triple with its block [force | f | f_t].  A
        step makes 5 Python-level calls (the march and its four stages) and
        64 numpy calls, 13 per stage and 12 outside (BENCH_csr_stage.json)."""
        n, g, s, A2 = self.n, self.gamma, self.s, self._A2
        (p_rows, p_cols, p_ptr, p_idx, p_val), (_, _, g_ptr, g_idx, g_val) = (
            self._P, self._G_csr)
        one, one_minus_gamma, weights = (
            np.array(v) for v in (1.0, 1.0 - g, [1.0, 2.0, 2.0, 1.0]))
        for arr in (one, one_minus_gamma, weights):
            arr.setflags(write=False)
        dts, coef = np.empty(()), np.empty(3)
        add, multiply, divide, subtract, power = (
            np.add, np.multiply, np.divide, np.subtract, np.power)
        # the power of theta in the law for f_tt, and theta_tt = -theta_t +
        # theta^tq / tc of theta.theta_acceleration
        fp, tq, tc = 1.0 - 3.0 * g, 2.0 - 3.0 * g, 3.0 * g - 1.0
        # the CFL step cfl cell / c_s(theta), c_s = cs theta^cs_power the
        # center's sound speed
        cell, cs, cs_power = self.h, math.sqrt(g * self.constants.a_bar), fp / 2.0
        # W holds [gp | gq | J] (see stage); stage i's row [A2 m | f | f_t |
        # f_tt | 1] holds its law's block in [:3n], its state in [n:3n] and
        # its derivative k_i in [2n:4n].  Scratch that no returned array
        # aliases
        W = np.empty(3 * n)
        gp, gq, jac = W.reshape(3, n)
        m_q = W[:2 * n]
        rows = np.empty((4, 4 * n + 1))
        rows[:, -1] = 1.0
        r1, r2, r3, r4 = rows
        K = rows[:, 2 * n:4 * n]
        z1, z2, z3, z4 = rows[:, n:3 * n]
        quads = rows[:, :4 * n].reshape(4, 4, n, copy=False)
        b1, b2, b3, b4 = quads[:, :3]
        (m1, f1, v1, a1), (m2, _, _, a2), (m3, _, _, a3), (m4, _, _, a4) = quads
        k1, k2, k3, _ = K
        # the array methods, unlike np.dot, call no Python dispatcher
        argmin, wdot, cdot, zero = W.argmin, weights.dot, coef.dot, m_q.fill
        csr = csr_matvec

        def stage(row, am=None, block=None, ftt=None, th=None, tht=None):
            # gp = 1 + f, gq = 1 + (s f)' and J = gp^2 gq in W, from the f
            # of the stage row; without am, returns these views of W, valid
            # until the next call
            zero(0.0)
            csr(p_rows, p_cols, p_ptr, p_idx, p_val, row, m_q)
            multiply(gp, gp, jac)
            multiply(jac, gq, jac)
            # where gp > 0, gp^2 > 0 and so gq <= 0 exactly when J <= 0: one
            # scan of W flags what J and gp flag.  argmin picks the first
            # NaN, which compares false here, so non-finite states pass on
            # to the finiteness check of the step
            if W[argmin()] <= 0.0:
                idx = int(np.where((jac <= 0.0) | (gp <= 0.0))[0][0])
                raise DegenerateProfileError(
                    f"jacobian nonpositive at s = {s[idx]:.6g} "
                    f"(node {idx}, J = {jac[idx]:.3e})")
            if am is None:
                return gp, gq, jac
            # the force per kinetic weight A2 m + G q with u = J^(1-gamma),
            # m = 1 - u/gp and q = 1 - u/gq, formed in W as [m | q]; both
            # vanish exactly at f = 0, which a precomputed A2 + G 1 minus
            # the rest would not.  A2 m, then G q added, go to am
            power(jac, one_minus_gamma, jac)
            divide(jac, gp, gp)
            divide(jac, gq, gq)
            subtract(one, m_q, m_q)
            multiply(gp, A2, am)
            csr(n, n, g_ptr, g_idx, g_val, gq, am)
            # the law into ftt, the row block being [force | f | f_t]; th
            # and tht are floats
            thp = -th ** fp
            coef[:] = thp, thp / tc, -1.0 - 2.0 * tht / th
            cdot(block, ftt)

        def pq(f):
            # gp, gq and J of the profile f, through the first stage's row
            f1[:] = f
            return stage(r1)

        def accel(f, ft, th, tht):
            # the law's f_tt at (f, f_t, theta, theta_t) and the force of
            # the same stage, in fresh arrays
            f1[:] = f
            v1[:] = ft
            stage(r1, m1, b1, a1, th, tht)
            return a1.copy(), m1.copy()

        def march(z, th, tht, rest, cfl):
            # one RK4 step of z = [f | f_t] and of the floats theta, theta_t
            # (see step) by dt, the least of the CFL step, the damping bound
            # dt (1 + 2 theta_t/theta) <= DAMPING_BOUND (none where that
            # coefficient is not positive) and rest; returns the new state
            # and dt.  theta > 0 on entry, and a stage's theta <= 0 leaves
            # the law's domain: NaN carries it to the finiteness check
            damping = 1.0 + 2.0 * tht / th
            dt = min(cfl * cell / (cs * th ** cs_power),
                     DAMPING_BOUND / damping if damping > 0.0 else math.inf,
                     rest)
            z1[:] = z
            stage(r1, m1, b1, a1, th, tht)
            tt1 = -tht + th ** tq / tc
            h = 0.5 * dt
            dts[()] = h
            multiply(k1, dts, z2)
            add(z2, z, z2)
            th2, tht2 = th + tht * h, tht + tt1 * h
            th2 = th2 if th2 > 0.0 else math.nan
            stage(r2, m2, b2, a2, th2, tht2)
            tt2 = -tht2 + th2 ** tq / tc
            multiply(k2, dts, z3)
            add(z3, z, z3)
            th3, tht3 = th + tht2 * h, tht + tt2 * h
            th3 = th3 if th3 > 0.0 else math.nan
            stage(r3, m3, b3, a3, th3, tht3)
            tt3 = -tht3 + th3 ** tq / tc
            dts[()] = dt
            multiply(k3, dts, z4)
            add(z4, z, z4)
            th4, tht4 = th + tht3 * dt, tht + tt3 * dt
            th4 = th4 if th4 > 0.0 else math.nan
            stage(r4, m4, b4, a4, th4, tht4)
            tt4 = -tht4 + th4 ** tq / tc
            # z + (dt/6) (k1 + 2 k2 + 2 k3 + k4); 2 k is exact, and the dot
            # sums left to right, ((k1 + 2 k2) + 2 k3) + k4, into one fresh
            # buffer, as the float sums do
            h = dt / 6.0
            z_new = wdot(K)
            dts[()] = h
            z_new *= dts
            z_new += z
            th_new = th + (tht + 2.0 * tht2 + 2.0 * tht3 + tht4) * h
            tht_new = tht + (tt1 + 2.0 * tt2 + 2.0 * tt3 + tt4) * h
            if not (th_new > 0.0 and math.isfinite(z_new.dot(z_new))
                    and math.isfinite(th_new * th_new + tht_new * tht_new)):
                raise FloatingPointError("non-finite state after step")
            # the check RadialState makes; 1 + x rounds monotonically, so
            # testing the smallest f tests every node
            idx = int(z_new[:n].argmin())
            if 1.0 + z_new[idx] <= 0.0:
                raise DegenerateProfileError(
                    f"1 + f nonpositive at node {idx} (value {z_new[idx]:.6g})")
            return z_new, th_new, tht_new, dt

        self._pq, self._accel, self._march = pq, accel, march

    @cached_property
    def D(self) -> np.ndarray:
        """The dense 2n x 2n D of _build_sbp, made on demand.  No solver path
        reads it, only the benchmark's SBP matvec probe; ROADMAP item 1
        deletes it when that probe is retargeted."""
        return _from_band(_build_sbp(2 * self.n, self.h)[0])

    def boundary_value(self, f: np.ndarray) -> float:
        """Profile value extrapolated to the rim s = r0."""
        return float(np.dot(_V_END[::-1], np.asarray(f)[-_V_END.size:]))

    # -- discrete energy and its gradient

    def _apply_Dh(self, x: np.ndarray) -> np.ndarray:
        return _apply(self._Dh_csr, x)

    def _apply_G(self, x: np.ndarray) -> np.ndarray:
        return _apply(self._G_csr, x)

    def internal_energy(self, f: np.ndarray) -> float:
        """sigma^(iota+1)-weighted integral of the bulk term (physical)."""
        gp, gq, jac = self._pq(f)
        m0 = (np.expm1((1.0 - self.gamma) * np.log(jac)) / (self.gamma - 1.0)
              + 2.0 * (gp - 1.0) + (gq - 1.0))
        return float(np.dot(self.w_u, m0))

    def _hess_apply(self, f: np.ndarray, pv: np.ndarray) -> np.ndarray:
        # directional derivative of the force A2 m + G q along pv
        gp, gq, jac = self._pq(f)
        jg = jac ** (-self.gamma)
        jg1 = jac ** (-self.gamma - 1.0)
        qv = self._apply_Dh(pv)
        m0_pp = self.gamma * jg1 * (2.0 * gp * gq) ** 2 - 2.0 * jg * gq
        m0_pq = self.gamma * jg1 * (2.0 * gp * gq) * gp * gp - 2.0 * jg * gp
        m0_qq = self.gamma * jg1 * gp**4
        dmp = m0_pp * pv + m0_pq * qv
        dmq = m0_pq * pv + m0_qq * qv
        return 0.5 * self._A2 * dmp + self._apply_G(dmq)

    # -- public operations

    def make_state(self, time: float, f, f_t, theta: float | None = None,
                   theta_t: float | None = None) -> RadialState:
        """Validated state; theta and theta_t default to the self-similar
        start at t=0.  A theta_t without theta, or a theta whose power
        theta^(-3 gamma) overflows, is a ValueError."""
        f = np.asarray(f, dtype=float)
        f_t = np.asarray(f_t, dtype=float)
        if f.shape != (self.n,):
            raise ValueError(f"profile must have shape ({self.n},), got {f.shape}")
        if theta is None:
            if time != 0.0:
                raise ValueError("theta context required away from t = 0")
            if theta_t is not None:
                raise ValueError("theta must accompany theta_t")
            theta = 1.0
            theta_t = nu(self.gamma, 0.0, 1)
        if theta_t is None:
            raise ValueError("theta_t must accompany theta")
        state = RadialState(
            time=float(time), f=f, f_t=f_t, theta=float(theta),
            theta_t=float(theta_t))
        self._check_theta(state.theta)
        self._pq(state.f)
        return state

    def _check_theta(self, theta: float):
        """Raise ValueError when theta^(-3 gamma), the largest power of
        theta the law takes, overflows; a RadialState cannot check this,
        since it does not know gamma."""
        try:
            theta ** (-3.0 * self.gamma)
        except OverflowError:
            raise ValueError(
                f"theta = {theta:.3g} is too small: theta^(-3 gamma) "
                f"overflows at gamma = {self.gamma:g}") from None

    def zeroth_energy(self, state: RadialState):
        """(kinetic, potential) entries of the zeroth-order balance.

        kinetic is the sigma^iota weighted squared velocity integral,
        potential the displacement term plus twice the internal energy;
        the total energy is 0.5 (kinetic + theta^(1-3 gamma) potential).
        """
        g = self.gamma
        f, ft = state.f, state.f_t
        kinetic = float(np.dot(self.w_f, ft * ft))
        i2 = float(np.dot(self.w_f, f * f))
        potential = i2 / (3.0 * g - 1.0) + 2.0 * self.internal_energy(state.f)
        return kinetic, potential

    def mass(self, state: RadialState, jac=None) -> float:
        """Quadrature of sigma^iota / (theta^3 J) times theta^3 J: the factors
        cancel, so it is the initial mass quadrature whatever the state and
        cannot see a mass defect.  jac, when given, is the state's radial
        Jacobian, already formed."""
        c = self.constants
        if jac is None:
            _, _, jac = self._pq(state.f)
        scale = state.theta**3
        density = self.sigma**c.iota / (scale * jac)
        return float(np.dot(self.H * 4.0 * np.pi * self.s**2,
                            density * scale * jac))

    def time_derivatives(self, state: RadialState):
        """(f, f_t, f_tt, f_ttt) with the accelerations from the law."""
        g = self.gamma
        f, ft = state.f, state.f_t
        th, tht = state.theta, state.theta_t
        thtt = theta_acceleration(g, th, tht)
        ftt, grad = self._accel(f, ft, th, tht)
        dgrad = self._hess_apply(f, ft)
        thp = th ** (1.0 - 3.0 * g)
        thp_t = (1.0 - 3.0 * g) * th ** (-3.0 * g) * tht
        damp_t = 2.0 * (thtt * th - tht * tht) / (th * th)
        fttt = (-(1.0 + 2.0 * tht / th) * ftt - damp_t * ft
                - thp_t * (f / (3.0 * g - 1.0) + grad)
                - thp * (ft / (3.0 * g - 1.0) + dgrad))
        return f, ft, ftt, fttt

    def step(self, state: RadialState, dt: float) -> RadialState:
        """One RK4 step of (f, f_t, theta, theta_t) by the march run takes,
        at cfl 1: z = [f | f_t] in the solver's scratch (one solver steps one
        state at a time), theta and theta_t co-stepped on floats.  Raises
        ValueError for a dt not positive and finite, for a theta too small
        for the law (as make_state does), or for a dt above the CFL or
        damping bound once the march has taken the bound instead (the
        result is dropped), DegenerateProfileError from any stage or when
        1 + f of the result is nonpositive, and FloatingPointError when the
        result is non-finite or theta nonpositive, or an entry above about
        1e154 overflows the sum of squares that tests this (numpy warns)."""
        check_positive("dt", dt)
        self._check_theta(state.theta)
        z, th, tht, taken = self._march(np.concatenate([state.f, state.f_t]),
                                        state.theta, state.theta_t, dt, 1.0)
        if taken < dt:
            raise ValueError(f"dt = {dt:.3e} violates the CFL or damping "
                             f"bound: the largest step is {taken:.3e}")
        return RadialState(time=state.time + dt, f=z[:self.n], f_t=z[self.n:],
                           theta=th, theta_t=tht)

    def balance_series(self, state: RadialState, t_end: float, dt: float):
        """Uniform-dt sampling of the zeroth-balance ingredients.

        Returns (times, kinetic, potential, theta, theta_t) ready for the
        norms-module balance checker; kinetic here is the unhalved
        sigma^iota velocity integral the balance display uses.
        """
        steps = int(round((t_end - state.time) / dt))
        if steps < 4:
            raise ValueError("need at least 4 steps for the balance window")
        rows = []
        cur = state
        for _ in range(steps + 1):
            kin, pot = self.zeroth_energy(cur)
            rows.append((cur.time, kin, pot, cur.theta, cur.theta_t))
            cur = self.step(cur, dt)
        arr = np.array(rows)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4]


def reduce_equation(solver: RadialSolver, state: RadialState) -> np.ndarray:
    """Acceleration profile demanded by the scalar evolution law.

    The residual of a candidate acceleration a is a minus this array.
    Assumes the state's theta context follows the self-similar balance,
    which the solver co-integrates.  Raises DegenerateProfileError with
    the node location if the radial Jacobian is nonpositive.
    """
    return solver._accel(state.f, state.f_t, state.theta, state.theta_t)[0]


# ---------------------------------------------------------------------------
# 3D oracle for the radial reduction


@dataclass(frozen=True)
class OracleReport:
    """Agreement of the embedded 3D force with the scalar reduction."""

    max_difference: float
    force_scale: float


def embedded_flux_divergence(gamma: float, grid: BallGrid, f, fp) -> OracleReport:
    """Embed the radial profile f into a 3D displacement and compare the
    flux-divergence force computed with the full deformation algebra
    against the scalar radial reduction, both differentiated on the same
    grid.  f and fp are callables of the radius.
    """
    check_gamma(gamma)
    c = grid.constants
    iota = c.iota
    prof = np.asarray(f(grid.s), dtype=float)
    dprof = np.asarray(fp(grid.s), dtype=float)
    omega = VectorField(grid, prof[:, None, None] * grid.y)
    st = deformation(omega)
    jpow = st.jacobian ** (1.0 - gamma)
    sig_w = grid.sigma ** (iota + 1.0)
    eye = np.eye(3)
    div_flux = np.zeros((3, *grid.shape))
    for k in range(3):
        flux_row = sig_w * (st.a_inv[k] * jpow - eye[k][:, None, None, None])
        div_flux += grid.partials(flux_row)[:, k]
    three_d = (grid.sigma**iota * omega.values / (3.0 * gamma - 1.0) + div_flux)

    # scalar reduction with the same radial differentiation
    gp_r = 1.0 + prof
    jac_r = gp_r**2 * (gp_r + grid.s * dprof)
    if np.any(jac_r <= 0.0):
        raise DegenerateProfileError("embedded profile is degenerate")
    j1 = jac_r ** (1.0 - gamma) / gp_r - 1.0
    j2 = -gp_r * dprof * jac_r ** (-gamma) / grid.s
    sig_r = grid.sigma_r ** (iota + 1.0)
    s_full = grid.s[:, None, None] * np.ones(grid.shape)

    def radial_ds(profile_r):
        full = profile_r[:, None, None] * np.ones(grid.shape)
        parts = grid.partials(full)
        return np.einsum("i...,i...->...", grid.y, parts) / s_full

    w1 = sig_r * j1
    w2 = sig_r * j2
    g_scalar = (radial_ds(w1) / s_full + s_full * radial_ds(w2)
                + 4.0 * (w2[:, None, None] * np.ones(grid.shape)))
    reduced = grid.y * (
        grid.sigma**iota * prof[:, None, None] / (3.0 * gamma - 1.0) + g_scalar
    )
    diff = float(np.abs(three_d - reduced).max())
    scale = float(np.abs(three_d).max())
    return OracleReport(max_difference=diff, force_scale=scale)


# ---------------------------------------------------------------------------
# trajectory adapter and run driver


@dataclass(frozen=True)
class RunResult:
    """Trajectory record of one radial run."""

    config: RunConfig
    times: np.ndarray
    radii: np.ndarray
    reports: tuple
    mass_error: np.ndarray
    sup_energy: float
    stop_reason: str
    final_state: RadialState
    boundary_monotone: bool
    steps: int
    oracle_defect: float
    # smallest and largest accepted step; None when no step was taken
    dt_min: float | None
    dt_max: float | None
    # the number of reported records, and the least radial Jacobian J over
    # their states
    records: int
    min_jacobian: float
    # wall-clock seconds of the three phases of run, which together make up
    # its wall time; unlike every field above they differ between reruns
    setup_s: float
    stepping_s: float
    reporting_s: float

    def energy_total(self) -> np.ndarray:
        return np.array([r.E_total for r in self.reports])

    def v_add(self) -> np.ndarray:
        return np.array([r.V_add for r in self.reports])


def run(config: RunConfig) -> RunResult:
    """Evolve the configured initial data, recording energy reports and
    the boundary radius at geometric cadence, and enforcing the a-priori
    energy monitors.  Returns a result with a labeled stop reason.

    The run marches z = [f | f_t] and the floats theta, theta_t up to
    each record time in turn, t = 0 first, the last step cut to end on it,
    and builds a validated RadialState only for a record and for the final
    state, which after a degenerate or non-finite step, or a record whose
    force finds J <= 0, is the last accepted one.

    A record's time derivatives are taken when the march reaches it, and
    its energy report waits for its chunk of REPORT_CHUNK records, which
    one separated walk reports together.  The first chunk is the initial
    record alone, and a chunk closes early at a record where the
    log-weighted monitor trips on the sup already reported.  The monitors
    then scan the chunk in record order, keeping each record with its
    radius, mass error and report up to the first that trips one, whose
    state and step counts end the run.  After the loop the first and last
    records are also reported by the 3D energy_functionals on the same
    grid, which keeps their curl terms measured independently of the
    radial ansatz; those records keep the 3D report, and the largest
    disagreement between the two is the result's oracle_defect.
    """
    start = time.perf_counter()
    solver = RadialSolver(config.gamma, config.mass, config.resolution)
    grid = BallGrid(solver.constants, n_r=config.resolution,
                    n_mu=config.report_angles[0], n_psi=config.report_angles[1],
                    radial_scheme="midpoint")
    psi = profile_family(config, solver.s, solver.constants.r0)
    state = solver.make_state(0.0, config.amplitude * psi,
                              config.velocity_amplitude * psi)
    rec_times = np.geomspace(min(1e-2, config.t_end / config.records),
                             config.t_end, config.records)
    times, radii, reports, mass_err = [], [], [], []
    # per record not yet reported: its state, its time derivatives, and the
    # steps and dt range up to it; ends holds the first and the latest kept
    pending, ends = [], []
    sup_energy = reporting_s = 0.0
    min_jacobian = math.inf
    separated = SeparatedFields(grid)
    n, march, cfl = solver.n, solver._march, config.cfl
    t, z, th, tht = (state.time, np.concatenate([state.f, state.f_t]),
                     state.theta, state.theta_t)
    steps, dt_min, dt_max = 0, math.inf, 0.0
    eps0_sq = config.eps0**2
    setup_s = time.perf_counter() - start

    def log_monitor_trips(when):  # on the sup reported so far
        return math.log1p(when) ** 2 * sup_energy > eps0_sq

    def reports_of(records):
        return radial_energy_functionals(
            separated, [rec[0].time for rec in records], config.gamma,
            [rec[1] for rec in records], J_max=config.J_max,
            truncation=config.truncation)

    def walk():
        # the pending records' reports from one walk; if a record's
        # separated deformation is degenerate, from one walk per record,
        # taken as the scan asks, so that a trip before it ends the scan
        # first, as in a run that reports each record when it is reached
        try:
            return reports_of(pending)
        except DegenerateDeformationError:
            return (reports_of([rec])[0] for rec in pending)

    def report_pending():
        # keep the pending records in order up to the first that trips a
        # monitor, and return its stop reason
        nonlocal sup_energy, reporting_s, min_jacobian
        rec_start = time.perf_counter()
        reason = None
        for rec, rep in zip(pending, walk()):
            st = rec[0]
            _, _, jac = solver._pq(st.f)
            min_jacobian = min(min_jacobian, float(jac.min()))
            times.append(st.time)
            radii.append(st.theta * (1.0 + solver.boundary_value(st.f))
                         * solver.constants.r0)
            mass_err.append(abs(solver.mass(st, jac) - config.mass) / config.mass)
            reports.append(rep)
            ends[1:] = [rec]
            sup_energy = max(sup_energy, rep.E_total)
            if rep.E_total > eps0_sq:
                reason = STOP_MONITOR_E
            elif log_monitor_trips(st.time):
                reason = STOP_MONITOR_LOG
            if reason is not None:
                break
        pending.clear()
        reporting_s += time.perf_counter() - rec_start
        return reason

    stop_reason = None
    for target in (0.0, *rec_times):
        while stop_reason is None and t < target:
            rest = target - t
            try:
                z, th, tht, dt = march(z, th, tht, rest, cfl)
            except DegenerateProfileError:
                stop_reason = STOP_DEGENERATE
            except FloatingPointError:
                stop_reason = STOP_NONFINITE
            else:
                # t + (target - t) can round off the target
                t = target if dt == rest else t + dt
                steps += 1
                dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        if stop_reason is not None:
            break
        state = RadialState(time=t, f=z[:n], f_t=z[n:], theta=th, theta_t=tht)
        rec_start = time.perf_counter()
        try:
            derivs = solver.time_derivatives(state)
        except DegenerateProfileError:
            # an accepted step may end with J <= 0, which only a force sees
            stop_reason = STOP_DEGENERATE
            break
        pending.append((state, derivs, steps, dt_min, dt_max))
        reporting_s += time.perf_counter() - rec_start
        # the initial record reports alone, so a run whose data trips a
        # monitor takes no step; the log-weighted monitor trips here on the
        # sup already reported, unless a pending record trips first
        if (len(pending) == REPORT_CHUNK or not reports
                or log_monitor_trips(t)):
            stop_reason = report_pending()
            if stop_reason is not None:
                break
    if pending:
        # a monitor trip comes first: the run would have stopped there
        stop_reason = report_pending() or stop_reason
    final = RadialState(time=t, f=z[:n], f_t=z[n:], theta=th, theta_t=tht)
    if stop_reason in (STOP_MONITOR_E, STOP_MONITOR_LOG):
        final, _, steps, dt_min, dt_max = ends[-1]

    rec_start = time.perf_counter()
    separated = None  # free the angular factors before the 3D reports
    oracle_defect = 0.0
    # one pass when the run stopped at its first record
    for i, (_, derivs, *_) in zip((0, len(reports) - 1), ends):
        traj = CallableTrajectory(grid, tuple(
            (lambda _, pos, p=p: p[:, None, None] * pos) for p in derivs))
        full = energy_functionals(traj, times[i], config.gamma,
                                  J_max=config.J_max,
                                  truncation=config.truncation)
        oracle_defect = max(oracle_defect, report_defect(reports[i], full))
        reports[i] = full
    sup_energy = max(rep.E_total for rep in reports)
    reporting_s += time.perf_counter() - rec_start
    r_arr = np.array(radii)
    monotone = bool(np.all(np.diff(r_arr) >= -1e-12 * max(r_arr.max(), 1.0)))
    return RunResult(
        config=config, times=np.array(times), radii=r_arr,
        reports=tuple(reports), mass_error=np.array(mass_err),
        sup_energy=float(sup_energy),
        stop_reason=stop_reason or STOP_COMPLETED,
        final_state=final, boundary_monotone=monotone,
        steps=steps, oracle_defect=float(oracle_defect),
        dt_min=float(dt_min) if steps else None,
        dt_max=float(dt_max) if steps else None,
        records=len(reports), min_jacobian=min_jacobian,
        setup_s=setup_s,
        stepping_s=time.perf_counter() - start - setup_s - reporting_s,
        reporting_s=reporting_s,
    )


# ---------------------------------------------------------------------------
# growth-rate fit


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares boundary growth exponent over the final decade."""

    exponent: float
    stderr: float
    window: tuple
    n_points: int


def fit_growth(times, radii) -> GrowthFit:
    """Slope of log R against log(1+t) over the trailing decade.

    The series must span at least one decade in 1+t; the window keeps
    the samples with 1+t within one decade of the end.
    """
    t = np.asarray(times, dtype=float)
    r = np.asarray(radii, dtype=float)
    if t.size != r.size or t.size < 3:
        raise ValueError("need matching series with at least 3 samples")
    check_finite("times", t)
    check_finite("radii", r)
    check_positive("radii", r)
    span = (1.0 + t.max()) / (1.0 + t.min())
    if span < 10.0:
        raise ValueError(
            f"series spans {span:.2f}x in 1+t, need at least a decade")
    cut = (1.0 + t.max()) / 10.0
    mask = 1.0 + t >= cut
    if mask.sum() < 3:
        raise ValueError("fewer than 3 samples in the fit window")
    x = np.log(1.0 + t[mask])
    y = np.log(r[mask])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, residual, *_ = np.linalg.lstsq(A, y, rcond=None)
    m = int(mask.sum())
    if m > 2 and residual.size:
        var = residual[0] / (m - 2)
        cov00 = var * np.linalg.inv(A.T @ A)[0, 0]
        stderr = float(np.sqrt(cov00))
    else:
        stderr = 0.0
    return GrowthFit(exponent=float(coef[0]), stderr=stderr,
                     window=(float(cut - 1.0), float(t.max())), n_points=m)
