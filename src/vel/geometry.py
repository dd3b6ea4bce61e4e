"""Discrete Lagrangian field calculus on the reference ball.

The grid is tensor-product: radial nodes strictly inside (0, r0) (Gauss nodes
by default, midpoint cells with 4th-order differences as an option), Gauss
nodes in mu = cos(phi), uniform nodes in the azimuth psi. Scalar and vector
fields live on the nodes; the module provides Cartesian gradients, angular
derivatives, the deformation quantities of a displacement field (gradient,
adjugate, Jacobian, inverse transpose contractions), flow-map differential
operators, and numerical verification of the algebraic identities that the
energy estimates lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import BarenblattConstants

__all__ = [
    "REGIME_THRESHOLD",
    "DegenerateDeformationError",
    "BallGrid",
    "check_grid_shape",
    "ScalarField",
    "VectorField",
    "DeformationState",
    "CommutatorReport",
    "gradient",
    "spatial_derivative",
    "angular_derivative",
    "deformation",
    "flow_ops",
    "flow_ops_from_partials",
    "piola_residual",
    "identity_nabt_nab",
    "commutator_defect",
]

# Frobenius size of the displacement gradient below which the small-strain
# bounds (Jacobian pinned in [1/2, 2], gradient equivalences) are claimed.
REGIME_THRESHOLD = 0.1


def _curl(X: np.ndarray) -> np.ndarray:
    """Flat curl eps_ijk X[k, j] of a 3x3 (component, derivative) stack."""
    return np.stack([X[2, 1] - X[1, 2], X[0, 2] - X[2, 0], X[1, 0] - X[0, 1]])


class DegenerateDeformationError(RuntimeError):
    """Raised when a displacement field folds the ball (J <= 0 somewhere)."""


# Boundary closure of the midpoint scheme, times 12h: the 5-node
# interpolatory derivative rows at the last two nodes from the last five.
_RIM_ROWS = np.array([[-1.0, 6.0, -18.0, 10.0, 3.0],
                      [3.0, -16.0, 36.0, -48.0, 25.0]])


def _legendre_diffmat(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Collocation first-derivative matrix on the Gauss-Legendre nodes x
    (quadrature weights w) of [-1, 1].

    The barycentric weights have the closed form (-1)^j sqrt((1-x_j^2) w_j),
    accurate to round-off; products of node gaps lose digits with the order.
    """
    bary = (-1.0) ** np.arange(len(x)) * np.sqrt((1.0 - x * x) * w)
    span = x[:, None] - x[None, :]
    np.fill_diagonal(span, 1.0)
    D = (bary[None, :] / bary[:, None]) / span
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _fourier_diffmat(n: int) -> np.ndarray:
    """Spectral derivative on n (even) uniform nodes of the circle, D[j, k] =
    (-1)^(j-k) cot((j-k) pi/n) / 2 (Trefethen, Spectral Methods in MATLAB,
    SIAM 2000, ch. 3); the lag-n/2 entries, cot(pi/2), are exactly 0."""
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    D = np.zeros((n, n))
    live = lag % (n // 2) != 0
    D[live] = 0.5 * (-1.0) ** lag[live] / np.tan(lag[live] * np.pi / n)
    return D


def _gregory_midpoint_weights(n: int, h: float) -> np.ndarray:
    """Midpoint-rule weights with end corrections matching moments 0..4."""
    w = np.full(n, h)
    m = 5
    s = (np.arange(n) + 0.5) * h
    length = n * h
    A = np.zeros((5, 2 * m))
    rhs = np.zeros(5)
    for k in range(5):
        rhs[k] = length ** (k + 1) / (k + 1) - np.dot(w, s**k)
        A[k, :m] = s[:m] ** k
        A[k, m:] = s[-m:] ** k
    delta = np.linalg.lstsq(A, rhs, rcond=None)[0]
    w[:m] += delta[:m]
    w[-m:] += delta[m:]
    return w


def check_grid_shape(n_r: int, n_mu: int, n_psi: int,
                     radial_scheme: str = "gauss") -> None:
    """Reject node counts the BallGrid differentiation stencils cannot use."""
    if radial_scheme not in ("gauss", "midpoint"):
        raise ValueError("radial_scheme must be 'gauss' or 'midpoint'")
    min_r = 4 if radial_scheme == "gauss" else 8
    if n_r < min_r or n_mu < 4 or n_psi < 4 or n_psi % 2:
        raise ValueError(
            "grid too coarse for the differentiation stencils: need "
            f"n_r >= {min_r}, n_mu >= 4, n_psi >= 4 and even"
        )


class BallGrid:
    """Tensor-product node set on the ball of radius r0 with quadrature.

    radial_scheme 'gauss' places Gauss-Legendre nodes in radius and
    differentiates by global collocation; 'midpoint' places cell midpoints
    and differentiates with 4th-order finite differences, closing the center
    end with antipodal ghost values and the outer end with one-sided rows.
    Angular derivatives are two small real matrices either way: Fourier
    collocation in psi, and in mu the collocation derivative applied to the
    psi-modes even and odd under the half-period roll; partials applies
    them, with the frame, as one matrix over the angular nodes.
    All nodes stay strictly inside (0, r0), so sigma > 0 and s > 0 everywhere.
    """

    def __init__(
        self,
        constants: BarenblattConstants,
        n_r: int = 16,
        n_mu: int = 12,
        n_psi: int = 16,
        radial_scheme: str = "gauss",
    ) -> None:
        check_grid_shape(n_r, n_mu, n_psi, radial_scheme)
        self.constants = constants
        self.scheme = radial_scheme
        self.r0 = constants.r0
        if radial_scheme == "gauss":
            xr, wr = np.polynomial.legendre.leggauss(n_r)
            self.s = 0.5 * self.r0 * (xr + 1.0)
            self.w_s = 0.5 * self.r0 * wr
            self._Ds = _legendre_diffmat(xr, wr) * (2.0 / self.r0)
            self._h = None
            self._side_rows = None
        else:
            h = self.r0 / n_r
            self.s = (np.arange(n_r) + 0.5) * h
            self.w_s = _gregory_midpoint_weights(n_r, h)
            self._Ds = None
            self._h = h
            self._side_rows = _RIM_ROWS / (12.0 * h)

        xm, wm = np.polynomial.legendre.leggauss(n_mu)
        self.mu, self.w_mu = xm, wm
        self.psi = 2.0 * np.pi * np.arange(n_psi) / n_psi
        self.w_psi = 2.0 * np.pi / n_psi
        self.shape = (n_r, n_mu, n_psi)

        sphi = np.sqrt(1.0 - self.mu**2)
        self._sphi = sphi
        # per psi-mode, even modes are polynomials in mu and odd modes carry
        # one factor of sin(phi); the halves act on f + Rf and f - Rf
        Dmu = _legendre_diffmat(xm, wm)
        even = -sphi[:, None] * Dmu
        odd = np.diag(xm / sphi) - (1.0 - xm**2)[:, None] * Dmu / sphi
        self._Dphi = 0.5 * np.hstack([even, odd])
        self._DpsiT = _fourier_diffmat(n_psi).T
        cpsi, spsi = np.cos(self.psi), np.sin(self.psi)
        ones_psi = np.ones(n_psi)
        self._yhat = np.array(
            [np.outer(sphi, cpsi), np.outer(sphi, spsi), np.outer(self.mu, ones_psi)]
        )
        self._that_phi = np.array(
            [np.outer(self.mu, cpsi), np.outer(self.mu, spsi), np.outer(-sphi, ones_psi)]
        )
        self._that_psi = np.array(
            [np.outer(np.ones(n_mu), -spsi), np.outer(np.ones(n_mu), cpsi),
             np.zeros((n_mu, n_psi))]
        )
        self._angular_op = None
        self.y = self.s[:, None, None] * self._yhat[:, None, :, :]

        sigma_r = constants.a_bar - constants.b_bar * self.s**2
        self.sigma_r = sigma_r
        self.sigma = np.broadcast_to(
            sigma_r[:, None, None], self.shape
        ).copy()
        if np.any(sigma_r <= 0.0) or np.any(self.s <= 0.0):
            raise RuntimeError("grid nodes touched s = 0 or sigma = 0")

        self.weights = (
            (self.w_s * self.s**2)[:, None, None]
            * self.w_mu[None, :, None]
            * self.w_psi
        ) * np.ones((1, 1, n_psi))
        if np.any(self.weights <= 0.0):
            raise RuntimeError("quadrature weights must be positive")
        volume = 4.0 / 3.0 * np.pi * self.r0**3
        if abs(self.weights.sum() - volume) > 1e-10 * volume:
            raise RuntimeError("quadrature weights do not sum to the ball volume")

        for name in ("s", "w_s", "mu", "w_mu", "psi", "y", "sigma_r", "sigma",
                     "weights"):
            getattr(self, name).setflags(write=False)

    def integrate(self, values: np.ndarray) -> float:
        """Volume integral of per-node values."""
        if values.shape != self.shape:
            raise ValueError("values do not conform to the grid")
        return float(np.sum(self.weights * values))

    def _antipode(self, vals: np.ndarray) -> np.ndarray:
        # value at the antipodal node: mu -> -mu (Gauss nodes are symmetric),
        # psi -> psi + pi (half-period roll along the uniform circle)
        return np.roll(vals[..., ::-1, :], -(self.shape[2] // 2), axis=-1)

    def _ds(self, vals: np.ndarray, parity: int | None = None) -> np.ndarray:
        # with parity given, vals are radial factors of shape (..., n_r, 1, 1)
        # whose angular factors map to parity times themselves under the
        # antipode, which then fixes the center ghosts
        n_r = self.shape[0]
        if self.scheme == "gauss":
            return (self._Ds @ vals.reshape(*vals.shape[:-2], -1)).reshape(vals.shape)
        h = self._h
        near = vals[..., 1::-1, :, :]
        ghosts = self._antipode(near) if parity is None else parity * near
        ext = np.concatenate([ghosts, vals], axis=-3)
        out = np.empty_like(vals)
        out[..., : n_r - 2, :, :] = (
            ext[..., 0:n_r - 2, :, :] - 8.0 * ext[..., 1:n_r - 1, :, :]
            + 8.0 * ext[..., 3:n_r + 1, :, :] - ext[..., 4:n_r + 2, :, :]
        ) / (12.0 * h)
        out[..., n_r - 2:, :, :] = np.einsum(
            "qk,...kmp->...qmp", self._side_rows, vals[..., n_r - 5:, :, :])
        return out

    def _dpsi(self, vals: np.ndarray) -> np.ndarray:
        # (v0, v1, v0, v1, ...) lies in D's kernel, the constants and the
        # Nyquist mode; subtracting it maps both to exactly 0
        n_psi = self.shape[2]
        diffs = vals - np.tile(vals[..., :2], n_psi // 2)
        return (diffs.reshape(-1, n_psi) @ self._DpsiT).reshape(vals.shape)

    def _dphi(self, vals: np.ndarray) -> np.ndarray:
        # f + Rf and f - Rf, R the half-period roll psi -> psi + pi, hold the
        # even and the odd psi-modes; _Dphi differentiates each shape exactly
        rolled = np.roll(vals, self.shape[2] // 2, axis=-1)
        return self._Dphi @ np.concatenate([vals + rolled, vals - rolled], axis=-2)

    def _tangential(self, vals: np.ndarray) -> np.ndarray:
        # Cartesian components of the unit-sphere gradient, on a new axis
        # before the last three: (..., n, n_mu, n_psi) -> (..., 3, n, ...)
        fphi = self._dphi(vals)
        fpsi = self._dpsi(vals) / self._sphi[:, None]
        return (self._that_phi[:, None] * fphi[..., None, :, :, :]
                + self._that_psi[:, None] * fpsi[..., None, :, :, :])

    def partials(self, vals: np.ndarray) -> np.ndarray:
        """Cartesian partial derivatives of node values with any leading
        batch axes: shape (*batch, *grid) in, (*batch, 3, *grid) out.

        The angular part is one (3, M, M) matrix over the M angular nodes,
        built on the first call.  It costs O(M) per node against O(n_mu +
        n_psi) for _dphi and _dpsi, and breaks even near 10x12 angles.
        """
        if vals.shape[-3:] != self.shape:
            raise ValueError("values do not conform to the grid")
        n_r, n_mu, n_psi = self.shape
        M = n_mu * n_psi
        if self._angular_op is None:
            # row j of matrix k: component k of the j-th unit field's gradient
            units = np.eye(M).reshape(M, n_mu, n_psi)
            self._angular_op = self._tangential(units).reshape(3, M, M)
        flat = (vals / self.s[:, None, None]).reshape(*vals.shape[:-3], 1,
                                                      n_r, M)
        out = (flat @ self._angular_op).reshape(*vals.shape[:-3], 3,
                                                *self.shape)
        out += self._yhat[:, None] * self._ds(vals)[..., None, :, :, :]
        return out


def _conforming(values: np.ndarray, grid: BallGrid, ncomp: int | None) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    want = grid.shape if ncomp is None else (ncomp,) + grid.shape
    if arr.shape != want:
        raise ValueError(f"field values must have shape {want}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    grid: BallGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _conforming(self.values, self.grid, None))


@dataclass(frozen=True)
class VectorField:
    grid: BallGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _conforming(self.values, self.grid, 3))


@dataclass(frozen=True)
class DeformationState:
    """Deformation quantities of a displacement field omega.

    grad_omega[i, j] = d_j omega^i; adjugate is the adjugate of grad_omega
    (rows are pairwise cross products of the d_j omega columns); jacobian is
    det(Id + grad_omega); a_inv[k, i] is the inverse matrix (Id + grad_omega)
    ^{-1} entering flow-map derivatives as sum_k a_inv[k, i] d_k. in_regime
    flags nodes whose |grad_omega| stays at or below REGIME_THRESHOLD. The
    three defects record the construction self-checks: the determinant
    against its adjugate-based reconstruction, the quartic determinant
    expansion, and max |(Id + grad_omega) a_inv - Id| over nodes with J >=
    1/2.
    """

    omega: VectorField
    grad_omega: np.ndarray
    adjugate: np.ndarray
    jacobian: np.ndarray
    a_inv: np.ndarray
    in_regime: np.ndarray
    det_defect: float
    expansion_defect: float
    inverse_defect: float

    @property
    def grid(self) -> BallGrid:
        return self.omega.grid

    @property
    def regime_ok(self) -> bool:
        return bool(np.all(self.in_regime))


@dataclass(frozen=True)
class CommutatorReport:
    """Pointwise bound check for the mixed-derivative commutator.

    C_fit is the smallest constant with |[dbar^beta, d^alpha] f| <= C *
    (sum of |d^{|alpha|} dbar^j f| over j < |beta|) at every node where the
    majorant is nonzero.
    """

    alpha: tuple[int, int, int]
    beta: tuple[int, int, int]
    max_commutator: float
    C_fit: float


def gradient(field) -> np.ndarray:
    """Per-node derivative tensor: (3, *grid) for scalars with entry k equal
    to d_k f, or (3, 3, *grid) for vectors with entry [i, j] = d_j F^i."""
    return field.grid.partials(field.values)


def spatial_derivative(field, axis: int):
    """Single Cartesian partial d_axis applied to a field, same field type."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1, or 2")
    return type(field)(field.grid, gradient(field)[..., axis, :, :, :])


def _angular(y: np.ndarray, parts: np.ndarray, direction: int) -> np.ndarray:
    """dbar_direction from Cartesian partials parts[..., k, *grid]."""
    j, k = (direction + 1) % 3, (direction + 2) % 3
    return y[j] * parts[..., k, :, :, :] - y[k] * parts[..., j, :, :, :]


def angular_derivative(field, direction: int):
    """Angular derivative dbar_i f = eps^{ijk} y_j d_k f, same field type."""
    if direction not in (0, 1, 2):
        raise ValueError("direction must be 0, 1, or 2")
    return type(field)(field.grid,
                       _angular(field.grid.y, gradient(field), direction))


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ]
    )


def _adjugate_rows(X: np.ndarray) -> np.ndarray:
    # rows are cross products of the column vectors d_j omega, arranged so
    # that adj(X) X = det(X) Id
    c0, c1, c2 = X[:, 0], X[:, 1], X[:, 2]
    return np.stack([_cross(c1, c2), _cross(c2, c0), _cross(c0, c1)])


def _identity_like(X: np.ndarray) -> np.ndarray:
    eye = np.zeros_like(X)
    for i in range(3):
        eye[i, i] = 1.0
    return eye


def deformation(omega: VectorField) -> DeformationState:
    """Deformation state of a displacement field, with self-verification.

    Computes the displacement gradient, its adjugate, the adjugate of the
    full map gradient Id + d omega via (1 + div) Id - (d omega)^T + adj, the
    Jacobian determinant, and the inverse matrix. Verifies the determinant
    expansion J = 1 + div + (div^2 + |curl|^2 - |d omega|^2)/2 + det(d omega)
    and the adjugate reconstruction of J to rounding. Raises
    DegenerateDeformationError if J <= 0 anywhere.
    """
    X = gradient(omega)
    div = X[0, 0] + X[1, 1] + X[2, 2]
    curl = _curl(X)
    adjX = _adjugate_rows(X)
    detX = np.einsum("i...,i...->...", X[:, 0], adjX[0])

    eye = _identity_like(X)
    M = eye + X
    # Cayley-Hamilton: adj(Id + X) = (1 + tr X) Id - X + adj X
    adjM = (1.0 + div) * eye - X + adjX
    J = np.linalg.det(np.moveaxis(M, (0, 1), (-2, -1)))
    if np.any(~np.isfinite(J)) or np.any(J <= 0.0):
        raise DegenerateDeformationError(
            "deformation is degenerate: Jacobian not positive everywhere"
        )
    J_rec = np.einsum("k...,k...->...", adjM[0], M[:, 0])
    det_defect = float(np.max(np.abs(J - J_rec)))

    norm2 = np.einsum("ij...,ij...->...", X, X)
    curl2 = np.einsum("i...,i...->...", curl, curl)
    expansion = 1.0 + div + 0.5 * (div**2 + curl2 - norm2) + detX
    expansion_defect = float(np.max(np.abs(J - expansion)))

    A = adjM / J
    prod = np.einsum("ik...,kj...->ij...", M, A)
    gap = np.abs(prod - eye).max(axis=(0, 1))
    half = J >= 0.5
    inverse_defect = float(gap[half].max()) if np.any(half) else 0.0

    frob = np.sqrt(norm2)
    in_regime = frob <= REGIME_THRESHOLD
    return DeformationState(
        omega=omega,
        grad_omega=X,
        adjugate=adjX,
        jacobian=J,
        a_inv=A,
        in_regime=in_regime,
        det_defect=det_defect,
        expansion_defect=expansion_defect,
        inverse_defect=inverse_defect,
    )


def flow_ops(
    state: DeformationState, F: VectorField
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flow-map gradient, divergence, and curl of a vector field.

    grad[i, r] = sum_k a_inv[k, r] d_k F^i, div = trace, curl_i = eps_{ijk}
    grad[k, j].
    """
    return flow_ops_from_partials(state, gradient(F))


def flow_ops_from_partials(
    state: DeformationState, dF: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """flow_ops on precomputed flat partials dF[i, k] = d_k F^i."""
    G = np.einsum("kr...,ik...->ir...", state.a_inv, dF)
    div = G[0, 0] + G[1, 1] + G[2, 2]
    curl = _curl(G)
    return G, div, curl


def piola_residual(state: DeformationState) -> ScalarField:
    """Row divergence of J A, max over rows per node; an exact identity, so
    the values measure only differentiation error."""
    grid = state.grid
    X = state.grad_omega
    div = X[0, 0] + X[1, 1] + X[2, 2]
    JA = (1.0 + div) * _identity_like(X) - X + state.adjugate
    parts = grid.partials(JA)  # parts[k, i, c] = d_c JA[k, i]
    rows = np.zeros((3, *grid.shape))
    for k in range(3):
        rows += parts[k, :, k]
    return ScalarField(grid, np.abs(rows).max(axis=0))


def identity_nabt_nab(
    grid: BallGrid,
    omega,
    omega_t,
    F,
    F_t,
    t: float,
    dt: float | None = None,
) -> tuple[float, float]:
    """Max-norm defects of the two contraction identities for flow gradients.

    omega, omega_t, F, F_t are callables (t, y) -> (3, *grid) giving a
    displacement family, a test family, and their exact time derivatives.
    The first identity equates the contraction of the flow gradient of F
    with the flow gradient of F_t against the time derivative of
    (|grad_eta F|^2 - |curl_eta F|^2)/2 plus a cubic transport term; the
    second is its time-independent analogue. With dt given, the composite
    time derivative is taken by centered differencing of states at t +- dt
    instead of the exact product rule.
    """
    y = grid.y

    def make_state(tau: float) -> DeformationState:
        return deformation(VectorField(grid, np.asarray(omega(tau, y), dtype=float)))

    state = make_state(t)
    Fv = VectorField(grid, np.asarray(F(t, y), dtype=float))
    Ftv = VectorField(grid, np.asarray(F_t(t, y), dtype=float))
    wt = VectorField(grid, np.asarray(omega_t(t, y), dtype=float))

    A = state.a_inv
    dF = gradient(Fv)
    Xdot = gradient(wt)
    G, _, curlF = flow_ops_from_partials(state, dF)
    # raw advected gradient of the time derivative (no d_t A part)
    dFt = gradient(Ftv)
    Gt_raw = np.einsum("kr...,ik...->ir...", A, dFt)
    lhs = np.einsum("ri...,ir...->...", G, Gt_raw)

    W = np.einsum("kr...,sk...->sr...", A, Xdot)
    transport = np.einsum("ri...,sr...,is...->...", G, W, G)

    if dt is None:
        # d_t A = -A (d omega_t) A, then the product rule on G and curl
        A_t = -np.einsum("ka...,ab...,bi...->ki...", A, Xdot, A)
        G_t = Gt_raw + np.einsum("kr...,ik...->ir...", A_t, dF)
        curlF_t = _curl(G_t)
        dcomposite = 2.0 * (np.einsum("ir...,ir...->...", G, G_t)
                            - np.einsum("i...,i...->...", curlF, curlF_t))
    else:
        vals = []
        for tau in (t - dt, t + dt):
            st = make_state(tau)
            Gq, _, curlq = flow_ops(
                st, VectorField(grid, np.asarray(F(tau, y), dtype=float))
            )
            vals.append(np.einsum("ir...,ir...->...", Gq, Gq)
                        - np.einsum("i...,i...->...", curlq, curlq))
        dcomposite = (vals[1] - vals[0]) / (2.0 * dt)

    nabt_defect = float(np.max(np.abs(lhs - 0.5 * dcomposite - transport)))

    lhs2 = np.einsum("ri...,ir...->...", G, G)
    rhs2 = (np.einsum("ir...,ir...->...", G, G)
            - np.einsum("i...,i...->...", curlF, curlF))
    nab_defect = float(np.max(np.abs(lhs2 - rhs2)))
    return nabt_defect, nab_defect


def _multi_indices(order: int):
    for i in range(order + 1):
        for j in range(order + 1 - i):
            yield (i, j, order - i - j)


def _apply_multi(field, index: tuple[int, int, int], op):
    out = field
    for axis in range(3):
        for _ in range(index[axis]):
            out = op(out, axis)
    return out


def commutator_defect(
    f: ScalarField,
    alpha: tuple[int, int, int],
    beta: tuple[int, int, int],
) -> CommutatorReport:
    """Evaluate [dbar^beta, d^alpha] f and fit the majorant constant.

    The commutator is formed by composing the discrete operators in the two
    orders; the majorant sums |d^{alpha'} dbar^{beta'} f| over all canonical
    multi-indices with |alpha'| = |alpha| and |beta'| < |beta|. Total order
    is capped at 4 (differentiation is reliable only to that depth on desk
    grids).
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    if len(alpha) != 3 or len(beta) != 3 or min(alpha) < 0 or min(beta) < 0:
        raise ValueError("alpha and beta must be length-3 non-negative tuples")
    na, nb = sum(alpha), sum(beta)
    if na + nb > 4:
        raise ValueError("total derivative order is capped at 4")

    d_first = _apply_multi(f, alpha, spatial_derivative)
    left = _apply_multi(d_first, beta, angular_derivative)
    bar_first = _apply_multi(f, beta, angular_derivative)
    right = _apply_multi(bar_first, alpha, spatial_derivative)
    comm = left.values - right.values
    max_comm = float(np.max(np.abs(comm)))

    majorant = np.zeros(f.grid.shape)
    for j in range(nb):
        for bidx in _multi_indices(j):
            base = _apply_multi(f, bidx, angular_derivative)
            for aidx in _multi_indices(na):
                term = _apply_multi(base, aidx, spatial_derivative)
                majorant += np.abs(term.values)

    floor = 1e-13 * float(np.max(majorant)) if np.max(majorant) > 0 else 0.0
    live = majorant > floor
    if np.any(live):
        C_fit = float(np.max(np.abs(comm)[live] / majorant[live]))
        if np.any(~live) and float(np.max(np.abs(comm)[~live])) > 1e-10 * max(
            max_comm, 1.0
        ):
            C_fit = float("inf")
    else:
        C_fit = 0.0 if max_comm == 0.0 else float("inf")
    return CommutatorReport(
        alpha=alpha, beta=beta, max_commutator=max_comm, C_fit=C_fit)
