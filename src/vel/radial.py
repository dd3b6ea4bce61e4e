"""Spherically symmetric free-boundary solver in comoving coordinates.

The displacement ansatz omega(t, y) = f(t, s) y reduces the damped wave
system to a scalar second-order law for the profile f.  The scheme works
in the variable F = s f on the n cell midpoints of [0, r0], with no node at
s = 0; its derivative, built on the grid extended oddly through the center,
is folded once onto these nodes, so even symmetry of f holds by
construction.  The pressure force is the exact gradient of the discrete
internal energy built on a summation-by-parts derivative pair; together
with the vanishing sigma-weights at the outer rim this supplies the
natural vacuum boundary behavior without an imposed boundary condition,
and the semi-discrete energy balance holds to integrator order.  Time
stepping is explicit RK4 under a CFL cap and a damping cap, with the
scaling factor theta co-integrated by the same integrator.
"""

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.blas import dgbmv

from .geometry import BallGrid, VectorField, check_grid_shape, deformation
from .norms import (CallableTrajectory, SeparatedFields, Truncation,
                    energy_functionals, radial_energy_functionals,
                    report_defect)
from .params import GasParams, derive_constants
from .theta import nu, theta_acceleration

STOP_COMPLETED = "completed"
STOP_MONITOR_E = "monitor_E"
STOP_MONITOR_LOG = "monitor_logE"
STOP_DEGENERATE = "degenerate"
STOP_NONFINITE = "nonfinite"

# Largest dt (1 + 2 theta_t/theta) a step may take.  RK4 is stable on the
# negative real axis up to 2.785.  On the 2x2 model x'' + d x' + w^2 x = 0,
# dt d <= 2.5 stays stable for every w dt up to 2.63.  The stiffest mode
# of the linearized law has w = 4.53 cs/h at 64 and 256 cells (6.1 cs/h
# at 32), so the CFL step keeps w dt inside that range at the default cfl.
DAMPING_BOUND = 2.5


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
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(f_t))):
            raise ValueError("profile arrays must be finite")
        if not math.isfinite(self.time):
            raise ValueError("time must be finite")
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise ValueError("theta must be positive and finite")
        if not math.isfinite(self.theta_t):
            raise ValueError("theta_t must be finite")
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
    t_end: float = 100.0
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
        for name, value in (("resolution", self.resolution), ("records", self.records),
                            ("J_max", self.J_max),
                            *(("report_angles", a) for a in self.report_angles)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.resolution < 16:
            raise ValueError(f"resolution must be at least 16, got {self.resolution}")
        check_grid_shape(self.resolution, *self.report_angles, "midpoint")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.family_exponent < 2:
            raise ValueError("family_exponent must be at least 2")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError("amplitude must be nonnegative and finite")
        if not math.isfinite(self.velocity_amplitude):
            raise ValueError("velocity_amplitude must be finite")
        if self.records < 2:
            raise ValueError("need at least 2 records")
        if not self.eps0 > 0.0:
            raise ValueError("eps0 must be positive")
        if self.J_max < 0:
            raise ValueError("J_max must be nonnegative")


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
        if resolution < 16:
            raise ValueError(f"resolution must be at least 16, got {resolution}")
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
        # the force per kinetic weight is A2 m + G q for pointwise factors
        # m, q (see _grad): the weights are folded into A2 and into the
        # weighted transpose G = diag(1/w_kin) Dh^T diag(w_u); Dh and G
        # are kept only in band storage
        self._inv_s = 1.0 / self.s
        self._A2 = 2.0 * self.w_u / (self.s * self.w_kin)
        self._Dh = np.asfortranarray(Dh)
        self._G = np.asfortranarray(
            _band_T(Dh) * self.w_u / self.w_kin[rows.clip(0, n - 1)])
        # a ufunc takes an array operand faster than a Python float, with
        # the same floats: the law's constants are read-only 0-d arrays, and
        # the step's scalars are written into 0-d scratch
        self._one = np.array(1.0)
        self._one_minus_gamma = np.array(1.0 - self.gamma)
        self._stiff = np.array(3.0 * self.gamma - 1.0)
        self._rk4_weights = np.array([1.0, 2.0, 2.0, 1.0])
        for arr in (self.s, self.sigma, self.w_u, self.w_kin, self._inv_s,
                    self._A2, self._Dh, self._G, self._one,
                    self._one_minus_gamma, self._stiff, self._rk4_weights):
            arr.setflags(write=False)
        self._thp, self._damp, self._dt = (np.empty(()) for _ in range(3))
        # stage i's row [q, q', q''], q = (F, theta), holds its state in
        # [:2n + 2] and its derivative k_i in [n + 1:]; each stage keeps its
        # state, k_i, and the F, F_t, F_tt and (theta, theta_t, theta_tt)
        # views of its row.  Scratch that no returned array aliases
        scratch = np.empty((4, 3, n + 1))
        flat = scratch.reshape(4, -1)
        self._K = flat[:, n + 1:]
        self._stages = tuple((z[:2 * n + 2], k, (*r[:, :n], r[:, n]))
                             for z, k, r in zip(flat, self._K, scratch))
        self._zeros = np.zeros(2 * n + 2)
        self._zeros.setflags(write=False)

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
        return dgbmv(self.n, self.n, _BAND, _BAND, 1.0, self._Dh, x)

    def _apply_G(self, x: np.ndarray) -> np.ndarray:
        return dgbmv(self.n, self.n, _BAND, _BAND, 1.0, self._G, x)

    def _pq(self, F: np.ndarray):
        gp = F * self._inv_s
        gp += self._one
        gq = self._apply_Dh(F)
        gq += self._one
        jac = gp * gp
        jac *= gq
        # argmin picks the first NaN, which compares false here, so
        # non-finite states pass on to the finiteness check of step
        low = np.minimum(jac, gp)
        if low[low.argmin()] <= 0.0:
            bad = np.where((jac <= 0.0) | (gp <= 0.0))[0]
            idx = int(bad[0])
            raise DegenerateProfileError(
                f"jacobian nonpositive at s = {self.s[idx]:.6g} "
                f"(node {idx}, J = {jac[idx]:.3e})")
        return gp, gq, jac

    def internal_energy(self, f: np.ndarray) -> float:
        """sigma^(iota+1)-weighted integral of the bulk term (physical)."""
        gp, gq, jac = self._pq(self.s * np.asarray(f))
        m0 = (np.expm1((1.0 - self.gamma) * np.log(jac)) / (self.gamma - 1.0)
              + 2.0 * (gp - 1.0) + (gq - 1.0))
        return float(np.dot(self.w_u, m0))

    def _force_gradient(self, F: np.ndarray) -> np.ndarray:
        # exact gradient of the internal energy with respect to F
        return self.w_kin * self._grad(F)

    def _hess_apply(self, F: np.ndarray, V: np.ndarray) -> np.ndarray:
        # directional derivative of _force_gradient along V
        gp, gq, jac = self._pq(F)
        jg = jac ** (-self.gamma)
        jg1 = jac ** (-self.gamma - 1.0)
        pv = V / self.s
        qv = self._apply_Dh(V)
        m0_pp = self.gamma * jg1 * (2.0 * gp * gq) ** 2 - 2.0 * jg * gq
        m0_pq = self.gamma * jg1 * (2.0 * gp * gq) * gp * gp - 2.0 * jg * gp
        m0_qq = self.gamma * jg1 * gp**4
        dmp = m0_pp * pv + m0_pq * qv
        dmq = m0_pq * pv + m0_qq * qv
        return self.w_u * dmp / self.s + self.w_kin * self._apply_G(dmq)

    def _grad(self, F: np.ndarray) -> np.ndarray:
        # force gradient per kinetic weight, A2 m + G q with u = jac^(1-gamma),
        # m = 1 - u/gp and q = 1 - u/gq; both vanish exactly at F = 0,
        # which a precomputed A2 + G 1 minus the rest would not
        gp, gq, jac = self._pq(F)
        u = np.power(jac, self._one_minus_gamma, out=jac)
        q = np.divide(u, gq, out=gq)
        np.subtract(self._one, q, out=q)
        m = np.divide(u, gp, out=gp)
        np.subtract(self._one, m, out=m)
        m *= self._A2
        out = self._apply_G(q)
        out += m
        return out

    def _accel_F(self, F: np.ndarray, Ft: np.ndarray, th: float, tht: float,
                 grad: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # the radial law for F_tt given the force gradient, written to out
        # when given; th and tht are floats
        self._thp[()] = -th ** (1.0 - 3.0 * self.gamma)
        self._damp[()] = 1.0 + 2.0 * tht / th
        acc = np.divide(F, self._stiff, out=out)
        acc += grad
        acc *= self._thp
        acc -= Ft * self._damp
        return acc

    # -- public operations

    def sound_speed(self, theta: float) -> float:
        """Sound speed sqrt(gamma a_bar) theta^((1-3 gamma)/2) at the center."""
        return (math.sqrt(self.gamma * self.constants.a_bar)
                * theta ** ((1.0 - 3.0 * self.gamma) / 2.0))

    def damping_step(self, theta: float, theta_t: float) -> float:
        """Largest dt with dt (1 + 2 theta_t/theta) <= DAMPING_BOUND; no
        bound (inf) where that damping coefficient is not positive."""
        damping = 1.0 + 2.0 * theta_t / theta
        return DAMPING_BOUND / damping if damping > 0.0 else math.inf

    def make_state(self, time: float, f, f_t, theta: float | None = None,
                   theta_t: float | None = None) -> RadialState:
        """Validated state; theta defaults to the self-similar start at t=0."""
        f = np.asarray(f, dtype=float)
        f_t = np.asarray(f_t, dtype=float)
        if f.shape != (self.n,):
            raise ValueError(f"profile must have shape ({self.n},), got {f.shape}")
        if theta is None:
            if time != 0.0:
                raise ValueError("theta context required away from t = 0")
            theta = 1.0
            theta_t = nu(self.gamma, 0.0, 1)
        if theta_t is None:
            raise ValueError("theta_t must accompany theta")
        state = RadialState(
            time=float(time), f=f, f_t=f_t, theta=float(theta),
            theta_t=float(theta_t))
        self._pq(self.s * state.f)
        return state

    def zeroth_energy(self, state: RadialState):
        """(kinetic, potential) entries of the zeroth-order balance.

        kinetic is the sigma^iota weighted squared velocity integral,
        potential the displacement term plus twice the internal energy;
        the total energy is 0.5 (kinetic + theta^(1-3 gamma) potential).
        """
        g = self.gamma
        F, Ft = self.s * state.f, self.s * state.f_t
        kinetic = float(np.dot(self.w_kin, Ft * Ft))
        i2 = float(np.dot(self.w_kin, F * F))
        potential = i2 / (3.0 * g - 1.0) + 2.0 * self.internal_energy(state.f)
        return kinetic, potential

    def mass(self, state: RadialState) -> float:
        """Physical mass recomputed through the deformed configuration."""
        c = self.constants
        _, _, jac = self._pq(self.s * state.f)
        scale = state.theta**3
        density = self.sigma**c.iota / (scale * jac)
        return float(np.dot(self.H * 4.0 * np.pi * self.s**2,
                            density * scale * jac))

    def time_derivatives(self, state: RadialState):
        """(f, f_t, f_tt, f_ttt) with the accelerations from the law."""
        g = self.gamma
        F, Ft = self.s * state.f, self.s * state.f_t
        th, tht = state.theta, state.theta_t
        thtt = theta_acceleration(g, th, tht)
        grad = self._grad(F)
        dgrad = self._hess_apply(F, Ft) / self.w_kin
        Ftt = self._accel_F(F, Ft, th, tht, grad)
        thp = th ** (1.0 - 3.0 * g)
        thp_t = (1.0 - 3.0 * g) * th ** (-3.0 * g) * tht
        damp_t = 2.0 * (thtt * th - tht * tht) / (th * th)
        Fttt = (-(1.0 + 2.0 * tht / th) * Ftt - damp_t * Ft
                - thp_t * (F / (3.0 * g - 1.0) + grad)
                - thp * (Ft / (3.0 * g - 1.0) + dgrad))
        return state.f, state.f_t, Ftt / self.s, Fttt / self.s

    # -- RK4 on the packed buffer y = [F, theta, F_t, theta_t], F = s f: a
    # position block q = (F, theta), then its velocity block q'

    def _pack(self, state: RadialState) -> np.ndarray:
        return np.concatenate([self.s * state.f, [state.theta],
                               self.s * state.f_t, [state.theta_t]])

    def _unpack(self, t: float, y: np.ndarray) -> RadialState:
        n = self.n
        return RadialState(time=t, f=y[:n] / self.s, f_t=y[n + 1:-1] / self.s,
                           theta=float(y[n]), theta_t=float(y[-1]))

    def _stage(self, F, Ft, Ftt, theta) -> None:
        # the stage's accelerations, written to the views of its row: F_tt,
        # and theta_tt into theta = (theta, theta_t, theta_tt)
        th, tht, _ = theta.tolist()
        # theta <= 0 leaves the law's domain; NaN carries it to the
        # finiteness check of the step
        if not th > 0.0:
            th = math.nan
        self._accel_F(F, Ft, th, tht, self._grad(F), out=Ftt)
        theta[2] = theta_acceleration(self.gamma, th, tht)

    def _advance(self, y: np.ndarray, dt: float) -> np.ndarray:
        """One RK4 step of the packed buffer; returns a new buffer and
        never writes to y.  The stages live in the solver's scratch, so
        one solver steps one buffer at a time.

        Raises ValueError for a nonpositive dt or one above the CFL or
        damping bound, DegenerateProfileError from any stage or when 1 + f
        of the result is nonpositive, and FloatingPointError when the
        result is non-finite or theta nonpositive.
        """
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        n = self.n
        th, tht = y[n::n + 1].tolist()
        cs = self.sound_speed(th)
        if dt > self.h / cs * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {dt:.3e} violates the CFL bound {self.h / cs:.3e}")
        cap = self.damping_step(th, tht)
        if dt > cap * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {dt:.3e} violates the damping bound {cap:.3e}")
        (s1, k1, v1), (s2, k2, v2), (s3, k3, v3), (s4, _, v4) = self._stages
        s1[:] = y
        self._stage(*v1)
        self._dt[()] = 0.5 * dt
        np.multiply(k1, self._dt, out=s2)
        s2 += y
        self._stage(*v2)
        np.multiply(k2, self._dt, out=s3)
        s3 += y
        self._stage(*v3)
        self._dt[()] = dt
        np.multiply(k3, self._dt, out=s4)
        s4 += y
        self._stage(*v4)
        # y + (dt/6) (k1 + 2 k2 + 2 k3 + k4); 2 k is exact, and the dot sums
        # left to right, ((k1 + 2 k2) + 2 k3) + k4, into one fresh buffer
        y_new = self._rk4_weights.dot(self._K)
        self._dt[()] = dt / 6.0
        y_new *= self._dt
        y_new += y
        # 0 x is 0 for finite x and NaN for inf or NaN, so the dot with
        # zeros is 0 exactly when every entry is finite
        if not (float(y_new.dot(self._zeros)) == 0.0 and y_new[n] > 0.0):
            raise FloatingPointError("non-finite state after step")
        # the check RadialState makes, on the f it would hold; 1 + x rounds
        # monotonically, so testing the smallest f tests every node
        f = y_new[:n] / self.s
        idx = int(f.argmin())
        if 1.0 + f[idx] <= 0.0:
            raise DegenerateProfileError(
                f"1 + f nonpositive at node {idx} (value {f[idx]:.6g})")
        return y_new

    def step(self, state: RadialState, dt: float) -> RadialState:
        """One RK4 step of (f, f_t, theta, theta_t)."""
        return self._unpack(state.time + dt,
                            self._advance(self._pack(state), dt))

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
    F = solver.s * state.f
    Ft = solver.s * state.f_t
    return solver._accel_F(F, Ft, state.theta, state.theta_t,
                           solver._grad(F)) / solver.s


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
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
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

    The run steps the solver's packed buffer [F, theta, F_t, theta_t] up
    to each record time in turn, the last step cut to end on it, and
    builds a validated RadialState only for a record and for the final
    state, which after a degenerate or non-finite step is the last
    accepted one.

    Every record is reported in separated form.  After the loop the
    first and last records are also reported by the 3D energy_functionals
    on the same grid, which keeps their curl terms measured independently
    of the radial ansatz; those records keep the 3D report, and the
    largest disagreement between the two is the result's oracle_defect.
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
    profiles = []  # time derivatives at the first and the latest record
    sup_energy = reporting_s = 0.0
    separated = SeparatedFields(grid)
    setup_s = time.perf_counter() - start

    def record(st: RadialState):
        nonlocal sup_energy, reporting_s
        rec_start = time.perf_counter()
        profiles[1:] = [solver.time_derivatives(st)]
        rep = radial_energy_functionals(separated, st.time, config.gamma,
                                        profiles[-1], J_max=config.J_max,
                                        truncation=config.truncation)
        times.append(st.time)
        radii.append(st.theta * (1.0 + solver.boundary_value(st.f))
                     * solver.constants.r0)
        reports.append(rep)
        mass_err.append(abs(solver.mass(st) - config.mass) / config.mass)
        sup_energy = max(sup_energy, rep.E_total)
        reporting_s += time.perf_counter() - rec_start
        if rep.E_total > config.eps0**2:
            return STOP_MONITOR_E
        if math.log1p(st.time) ** 2 * sup_energy > config.eps0**2:
            return STOP_MONITOR_LOG
        return None

    stop_reason = record(state)
    t, y = state.time, solver._pack(state)
    steps, dt_min, dt_max = 0, math.inf, 0.0
    for target in rec_times:
        while stop_reason is None and t < target:
            th, tht = y[solver.n::solver.n + 1].tolist()
            rest = target - t
            dt = min(config.cfl * solver.h / solver.sound_speed(th),
                     solver.damping_step(th, tht), rest)
            try:
                y = solver._advance(y, dt)
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
        state = solver._unpack(t, y)
        stop_reason = record(state)

    rec_start = time.perf_counter()
    separated = None  # free the angular factors before the 3D reports
    oracle_defect = 0.0
    # one pass when the run stopped at its first record
    for i, derivs in zip((0, len(reports) - 1), profiles):
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
        final_state=state if state.time == t else solver._unpack(t, y),
        boundary_monotone=monotone,
        steps=steps, oracle_defect=float(oracle_defect),
        dt_min=float(dt_min) if steps else None,
        dt_max=float(dt_max) if steps else None, setup_s=setup_s,
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
    if np.any(r <= 0.0):
        raise ValueError("radii must be positive")
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
