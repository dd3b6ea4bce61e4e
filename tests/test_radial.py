"""Radial solver: operator identities, stepping, runs, and growth fits."""

import dataclasses
import functools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vel import cli, norms
from vel import radial as radial_module
from vel.geometry import BallGrid, DegenerateDeformationError
from vel.norms import Truncation, zeroth_energy_balance
from vel.params import GasParams, derive_constants
from vel.radial import (DegenerateProfileError, GrowthFit, OracleReport,
                        RadialSolver, RadialState, RunConfig, RunResult,
                        _build_sbp, embedded_flux_divergence, fit_growth,
                        profile_family, reduce_equation, run)
from vel.theta import nu, theta_acceleration

GAMMA = 2.0
CONSTANTS = derive_constants(GasParams(gamma=GAMMA, mass=1.0))


def poly_profile(solver, amplitude=1e-3, exponent=2):
    x = solver.s / solver.constants.r0
    return amplitude * (1.0 - x * x) ** exponent


# ---------------------------------------------------------------------------
# derivative/weight pair


# 2n nodes at h = r0/n, as the radial solver builds them for n cells; the
# steps differ by powers of 2, so scaling by h is exact and the scaled
# closures can be compared bit for bit
SBP_SIZES = [(2 * n, CONSTANTS.r0 / n) for n in (16, 64, 256, 1024)]
# boundary weights H/h of the closure, the same at every size
SBP_WEIGHTS = [1633 / 1536, 3677 / 3840, 3677 / 3840, 1841 / 1920, 8489 / 7680,
               3677 / 3840]


def dense_sbp(n, h):
    """(D, H, v0, vL): the band D densified, with the end extrapolations."""
    band, H = _build_sbp(n, h)
    v0 = np.zeros(n)
    v0[:5] = radial_module._V_END
    return radial_module._from_band(band), H, v0, v0[::-1].copy()


class TestSbpOperator:
    def test_identity_exact(self):
        for n, h in [(64, 0.02)] + SBP_SIZES:
            D, H, v0, vL = dense_sbp(n, h)
            E = -np.outer(v0, v0) + np.outer(vL, vL)
            HD = H[:, None] * D
            defect = np.abs(HD + HD.T - E).max()
            assert defect <= 1e-15, n

    def test_weights_positive_uniform_interior(self):
        n, h = 96, 0.01
        _, H, _, _ = dense_sbp(n, h)
        assert H.min() > 0.0
        assert_allclose(H[6:-6], h, rtol=0, atol=1e-15)
        assert abs(H.min() / h - 0.957552) < 1e-4
        # the weights integrate polynomials of degree 3 exactly
        s = (np.arange(n) + 0.5) * h
        for k in range(4):
            assert_allclose(H @ s**k, (n * h) ** (k + 1) / (k + 1), rtol=1e-14)

    def test_closure_bit_stable(self):
        blocks, weights = [], []
        for n, h in SBP_SIZES:
            D, H, _, _ = dense_sbp(n, h)
            blocks.append(h * D[:6, :12])
            weights.append(H[:6] / h)
        for block, w in zip(blocks[1:], weights[1:]):
            assert np.array_equal(block, blocks[0])
            assert np.array_equal(w, weights[0])
        assert_allclose(weights[0], SBP_WEIGHTS, rtol=2.3e-16, atol=0)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_low_degree_exact(self, k):
        for n, h in [(48, 0.03)] + SBP_SIZES:
            D, _, _, _ = dense_sbp(n, h)
            s = (np.arange(n) + 0.5) * h
            expect = k * s ** (k - 1) if k else np.zeros(n)
            scale = max(np.abs(expect).max(), 1.0)
            assert np.abs(D @ s**k - expect).max() <= 1e-10 * scale, n

    def test_interior_fourth_order(self):
        errs = []
        for n in (64, 128):
            h = 1.0 / n
            D, _, _, _ = dense_sbp(n, h)
            s = (np.arange(n) + 0.5) * h
            err = np.abs(D @ np.sin(3.0 * s) - 3.0 * np.cos(3.0 * s))
            errs.append(err[6:-6].max())
        assert errs[0] / errs[1] > 13.0

    def test_reflection_antisymmetry(self):
        D, H, _, _ = dense_sbp(32, 0.05)
        assert_allclose(D, -D[::-1, ::-1], rtol=0, atol=1e-13)
        assert_allclose(H, H[::-1], rtol=0, atol=0)

    def test_endpoint_extrapolation(self):
        n, h = 40, 0.025
        _, _, v0, vL = dense_sbp(n, h)
        s = (np.arange(n) + 0.5) * h
        for coef in ((1.0, 0.0, 0.0), (0.3, -1.2, 2.0)):
            vals = coef[0] + coef[1] * s + coef[2] * s * s
            left = coef[0]
            right = coef[0] + coef[1] * (n * h) + coef[2] * (n * h) ** 2
            assert abs(np.dot(v0, vals) - left) <= 1e-10
            assert abs(np.dot(vL, vals) - right) <= 1e-10

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            _build_sbp(20, 0.1)


# ---------------------------------------------------------------------------
# solver setup and state validation


class TestSolverSetup:
    def test_grid_matches_reporting_grid(self):
        solver = RadialSolver(GAMMA, resolution=24)
        grid = BallGrid(CONSTANTS, n_r=24, n_mu=4, n_psi=4,
                        radial_scheme="midpoint")
        assert_array_equal(solver.s, grid.s)

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            RadialSolver(GAMMA, resolution=8)

    def test_underflowing_weight_rejected(self):
        # sigma^iota with iota = 1000 is 0.0 at the rim nodes
        with pytest.raises(ValueError, match="gamma = 1.001 with 64 cells"):
            RadialSolver(1.001, 1.0, 64)

    def test_weight_structure(self):
        solver = RadialSolver(GAMMA, resolution=32)
        assert solver.w_kin.min() > 0.0
        assert_allclose(solver.w_u, solver.w_kin * solver.sigma,
                        rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [16, 24, 48, 256, 512])
    def test_band_operators(self, n):
        # the bands equal the diagonals of the dense fold of the full-grid
        # D and of its weighted transpose, float for float; the band
        # products match Dh F = (D @ odd F)[n:] and G v = Dh^T (w_u v) / w_kin
        solver = RadialSolver(GAMMA, resolution=n)
        D = solver.D
        Dh = D[n:, n:] - D[n:, n - 1::-1]

        def diagonals(A):
            ab = np.zeros((11, n))
            for k in range(-5, 6):
                ab[5 - k, max(k, 0):n + min(k, 0)] = np.diagonal(A, k)
            return ab

        assert_array_equal(solver._Dh, diagonals(Dh))
        assert_array_equal(
            solver._G, diagonals(Dh.T * solver.w_u / solver.w_kin[:, None]))
        rng = np.random.default_rng(n)
        F, v = rng.standard_normal((2, n))

        def close(got, want):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

        close(solver._apply_Dh(F), (D @ np.concatenate([-F[::-1], F]))[n:])
        close(solver._apply_G(v), (Dh.T @ (solver.w_u * v)) / solver.w_kin)

    @pytest.mark.parametrize("n", [16, 256])
    def test_memory_linear_in_cells(self, n):
        # no array grows faster than the band; the dense D is only made
        # on demand
        solver = RadialSolver(GAMMA, resolution=n)

        def arrays(val):
            if isinstance(val, tuple):
                return [arr for v in val for arr in arrays(v)]
            return [val] if isinstance(val, np.ndarray) else []

        sizes = {name: [arr.size for arr in arrays(val)]
                 for name, val in vars(solver).items()}
        # the four stage rows of 3(n + 1) are held only as views: the
        # (4, 2(n + 1)) derivative block, and per stage its state, k_i and
        # the F, F_t, F_tt and (theta, theta_t, theta_tt) views
        assert sizes["_G"] and sizes["_K"] == [8 * n + 8]
        assert len(sizes["_stages"]) == 4 * 6
        assert "D" not in vars(solver)
        assert max(max(v, default=0) for v in sizes.values()) <= 11 * n, sizes

    def test_cold_build_memory(self):
        # a dense 2n x 2n build would peak near 192 MB at 1024 cells
        _build_sbp.cache_clear()
        tracemalloc.start()
        try:
            RadialSolver(GAMMA, resolution=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6, peak

    def test_constants_of_another_gamma_rejected(self):
        # the gamma = 3 constants carry iota = 0.5, not 1/(2 - 1)
        with pytest.raises(ValueError,
                           match=r"iota = 0.5, not 1/\(gamma - 1\) = 1 "):
            RadialSolver(2.0, 1.0, 64,
                         constants=derive_constants(GasParams(3.0, 1.0)))

    def test_matching_constants_kept(self):
        solver = RadialSolver(GAMMA, 1.0, 32, constants=CONSTANTS)
        assert solver.constants is CONSTANTS

    def test_gamma_checked_with_given_constants(self):
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            RadialSolver(1.0, 1.0, 32, constants=CONSTANTS)

    def test_default_theta_context(self):
        solver = RadialSolver(GAMMA, resolution=16)
        state = solver.make_state(0.0, np.zeros(16), np.zeros(16))
        assert state.theta == 1.0
        assert state.theta_t == pytest.approx(1.0 / (3.0 * GAMMA - 1.0))
        assert theta_acceleration(GAMMA, state.theta, state.theta_t) == \
            pytest.approx(0.0, abs=1e-15)


class TestStateValidation:
    def setup_method(self):
        self.solver = RadialSolver(GAMMA, resolution=16)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            self.solver.make_state(0.0, np.zeros(8), np.zeros(8))

    def test_mismatched_velocity(self):
        with pytest.raises(ValueError, match="matching"):
            RadialState(0.0, np.zeros(4), np.zeros(5), 1.0, 0.2)

    def test_theta_required_away_from_start(self):
        with pytest.raises(ValueError, match="theta"):
            self.solver.make_state(1.0, np.zeros(16), np.zeros(16))

    def test_nonpositive_theta(self):
        with pytest.raises(ValueError, match="positive"):
            RadialState(0.0, np.zeros(4), np.zeros(4), -1.0, 0.2)

    def test_nonfinite_theta_t(self):
        with pytest.raises(ValueError, match="theta_t must be finite"):
            RadialState(0.0, np.zeros(4), np.zeros(4), 1.0, np.nan)

    def test_nonfinite_profile(self):
        bad = np.zeros(16)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            self.solver.make_state(0.0, bad, np.zeros(16))

    def test_vacuum_crossing_profile(self):
        bad = np.zeros(16)
        bad[5] = -1.5
        with pytest.raises(DegenerateProfileError, match="node"):
            self.solver.make_state(0.0, bad, np.zeros(16))

    def test_jacobian_degeneracy_located(self):
        # steep but pointwise-admissible profile: 1 + f > 0 everywhere
        # while 1 + f + s f' drops below zero mid-interval
        s = self.solver.s
        r0 = self.solver.constants.r0
        f = -0.8 * np.sin(np.pi * s / r0) ** 2
        with pytest.raises(DegenerateProfileError, match="s ="):
            self.solver.make_state(0.0, f, np.zeros(16))

    def test_arrays_read_only(self):
        state = self.solver.make_state(0.0, np.zeros(16), np.zeros(16))
        with pytest.raises(ValueError):
            state.f[0] = 1.0


# ---------------------------------------------------------------------------
# force consistency


class TestForce:
    def test_equilibrium_exact(self):
        solver = RadialSolver(GAMMA, resolution=48)
        state = solver.make_state(0.0, np.zeros(48), np.zeros(48))
        assert np.abs(reduce_equation(solver, state)).max() == 0.0

    def test_gradient_matches_potential_energy(self):
        # at theta = 1, theta_t = 0 the acceleration is minus the
        # w_kin-weighted gradient of the potential
        #   V(f) = 0.5 I2 / (3 gamma - 1) + internal_energy(f)
        solver = RadialSolver(GAMMA, resolution=48)
        g3 = 3.0 * GAMMA - 1.0

        def potential(f):
            F = solver.s * f
            i2 = np.dot(solver.w_kin, F * F)
            return 0.5 * i2 / g3 + solver.internal_energy(f)

        rng = np.random.default_rng(11)
        f = poly_profile(solver, amplitude=2e-2)
        state = solver.make_state(0.0, f, np.zeros(48), theta=1.0, theta_t=0.0)
        accel = reduce_equation(solver, state)
        for _ in range(3):
            v = rng.standard_normal(48)
            v /= np.linalg.norm(v)
            eps = 1e-6
            fd = (potential(f + eps * v) - potential(f - eps * v)) / (2.0 * eps)
            pairing = -np.dot(solver.w_kin * solver.s**2 * accel, v)
            assert fd == pytest.approx(pairing, rel=1e-5)

    def test_strong_form_agrees_interior(self):
        # expanded flux form of the same operator; the transposed
        # derivative is only a weak statement at the rim, so compare
        # away from the last boundary block; the even fluxes are mirrored
        # through the center and differentiated by the full-grid D
        rels = []
        for n in (48, 192):
            solver = RadialSolver(GAMMA, resolution=n)
            c = solver.constants
            f = poly_profile(solver, amplitude=1e-2)
            F = solver.s * f
            var = solver._force_gradient(F) / solver.w_kin
            s = solver.s
            gp, gq, jac = solver._pq(F)
            j1 = jac ** (1.0 - GAMMA) / gp - 1.0
            j2 = -gp * (gq - gp) / s**2 * jac ** (-GAMMA)
            sig = solver.sigma
            w1 = sig ** (c.iota + 1.0) * j1
            w2 = sig ** (c.iota + 1.0) * j2

            def ds(w):
                return (solver.D @ np.concatenate([w[::-1], w]))[n:]

            flux = ds(w1) / s + s * ds(w2) + 4.0 * w2
            strong = s * flux / sig**c.iota
            rel = np.abs(var - strong)[:-12].max() / np.abs(strong).max()
            rels.append(rel)
        assert rels[0] <= 2e-3
        assert rels[1] <= 1e-4
        assert rels[1] < rels[0]

    def test_law_shared_by_reduction_and_time_derivatives(self):
        solver = RadialSolver(GAMMA, resolution=32)
        psi = poly_profile(solver)
        state = solver.make_state(3.0, psi, 0.5 * psi, theta=1.4, theta_t=0.1)
        _, _, f_tt, _ = solver.time_derivatives(state)
        assert_array_equal(f_tt, reduce_equation(solver, state))

    def test_jerk_matches_differenced_acceleration(self):
        solver = RadialSolver(GAMMA, resolution=48)
        state = solver.make_state(0.0, poly_profile(solver), np.zeros(48))
        _, _, f_tt, f_ttt = solver.time_derivatives(state)
        assert_allclose(f_tt, reduce_equation(solver, state), rtol=1e-13)
        dt = 1e-4
        s1 = solver.step(state, dt)
        s2 = solver.step(s1, dt)
        a0 = reduce_equation(solver, state)
        a1 = reduce_equation(solver, s1)
        a2 = reduce_equation(solver, s2)
        fd = (-3.0 * a0 + 4.0 * a1 - a2) / (2.0 * dt)
        assert np.abs(fd - f_ttt).max() <= 1e-4 * np.abs(f_ttt).max()


# ---------------------------------------------------------------------------
# folded operator against the full-grid reference


class _FullGridReference:
    """The solver's operations on the odd extension of F through the
    center, applied with the full 2n-node D and weights; sums over the
    mirrored ball are halved."""

    def __init__(self, solver):
        c = solver.constants
        self.gamma = solver.gamma
        self.D, H, _, _ = dense_sbp(2 * solver.n, solver.h)
        self.s = np.concatenate([-solver.s[::-1], solver.s])
        sig = c.a_bar - c.b_bar * self.s**2
        self.w_u = H * 4.0 * np.pi * self.s**2 * sig ** (c.iota + 1.0)
        self.w_kin = H * 4.0 * np.pi * self.s**2 * sig**c.iota
        self.solver_s = solver.s

    @staticmethod
    def odd(F):
        return np.concatenate([-F[::-1], F])

    def pq(self, F):
        Fe = self.odd(F)
        gp = 1.0 + Fe / self.s
        gq = 1.0 + self.D @ Fe
        return gp, gq, gp * gp * gq

    def force_gradient(self, F):
        gp, gq, jac = self.pq(F)
        jg = jac ** (-self.gamma)
        m0_p = -jg * 2.0 * gp * gq + 2.0
        m0_q = -jg * gp * gp + 1.0
        return self.w_u * m0_p / self.s + self.D.T @ (self.w_u * m0_q)

    def hess_apply(self, F, V):
        g = self.gamma
        gp, gq, jac = self.pq(F)
        jg, jg1 = jac ** (-g), jac ** (-g - 1.0)
        Ve = self.odd(V)
        pv, qv = Ve / self.s, self.D @ Ve
        m0_pp = g * jg1 * (2.0 * gp * gq) ** 2 - 2.0 * jg * gq
        m0_pq = g * jg1 * (2.0 * gp * gq) * gp * gp - 2.0 * jg * gp
        m0_qq = g * jg1 * gp**4
        dmp = m0_pp * pv + m0_pq * qv
        dmq = m0_pq * pv + m0_qq * qv
        return self.w_u * dmp / self.s + self.D.T @ (self.w_u * dmq)

    def internal_energy(self, f):
        g = self.gamma
        gp, gq, jac = self.pq(self.solver_s * f)
        m0 = (np.expm1((1.0 - g) * np.log(jac)) / (g - 1.0)
              + 2.0 * (gp - 1.0) + (gq - 1.0))
        return 0.5 * np.dot(self.w_u, m0)

    def zeroth_energy(self, state):
        Fte = self.odd(self.solver_s * state.f_t)
        Fe = self.odd(self.solver_s * state.f)
        kinetic = 0.5 * np.dot(self.w_kin, Fte * Fte)
        i2 = 0.5 * np.dot(self.w_kin, Fe * Fe)
        potential = (i2 / (3.0 * self.gamma - 1.0)
                     + 2.0 * self.internal_energy(state.f))
        return kinetic, potential


class TestFoldedOperator:
    @pytest.mark.parametrize("n", [48, 256])
    def test_matches_full_grid_reference(self, n):
        solver = RadialSolver(GAMMA, resolution=n)
        ref = _FullGridReference(solver)
        rng = np.random.default_rng(n)
        f = poly_profile(solver, amplitude=2e-2) + 1e-4 * rng.standard_normal(n)
        f_t = 1e-3 * rng.standard_normal(n)
        state = solver.make_state(2.0, f, f_t, theta=1.3, theta_t=0.2)
        F, Ft = solver.s * state.f, solver.s * state.f_t

        def close(got, want):
            got, want = np.asarray(got), np.asarray(want)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        for got, want in zip(solver._pq(F), ref.pq(F)):
            close(got, want[n:])
        close(solver._force_gradient(F), ref.force_gradient(F)[n:])
        # the folded force per kinetic weight, as every RK4 stage uses it
        close(solver._grad(F), ref.force_gradient(F)[n:] / ref.w_kin[n:])
        close(solver._hess_apply(F, Ft), ref.hess_apply(F, Ft)[n:])
        close(solver.internal_energy(state.f), ref.internal_energy(state.f))
        for got, want in zip(solver.zeroth_energy(state),
                             ref.zeroth_energy(state)):
            close(got, want)


def jac_power_grad(solver, F):
    """_grad in its jac^-gamma form: A2 m + G q with jg = jac^-gamma,
    m = 1 - jg gp gq and q = 1 - jg gp^2."""
    gp, gq, jac = solver._pq(F)
    jg = jac ** -solver.gamma * gp
    return solver._A2 * (1.0 - jg * gq) + solver._apply_G(1.0 - jg * gp)


class TestForceForm:
    """_grad takes m = 1 - u/gp and q = 1 - u/gq from u = jac^(1-gamma)."""

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 5.0 / 3.0, 2.0, 3.0])
    def test_matches_jac_power_form(self, gamma):
        solver = RadialSolver(gamma, resolution=64)
        zero = np.zeros(64)
        assert_array_equal(solver._grad(zero), zero)
        assert_array_equal(jac_power_grad(solver, zero), zero)
        rng = np.random.default_rng(7)
        f = poly_profile(solver, amplitude=2e-2) + 1e-4 * rng.standard_normal(64)
        F = solver.s * f
        want = jac_power_grad(solver, F)
        assert np.abs(solver._grad(F) - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# embedding oracle


class TestOracle:
    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 2.0])
    def test_reduction_matches_embedding(self, gamma):
        consts = derive_constants(GasParams(gamma=gamma, mass=1.0))
        grid = BallGrid(consts, n_r=64, n_mu=8, n_psi=8,
                        radial_scheme="midpoint")
        r0 = consts.r0
        rep = embedded_flux_divergence(
            gamma, grid,
            lambda s: 1e-3 * (1.0 - (s / r0) ** 2) ** 2,
            lambda s: -4e-3 * (1.0 - (s / r0) ** 2) * s / r0**2,
        )
        assert isinstance(rep, OracleReport)
        assert rep.max_difference <= 1e-8
        assert rep.force_scale > 0.0

    def test_refines_with_resolution(self):
        diffs = []
        for n_r in (64, 128):
            grid = BallGrid(CONSTANTS, n_r=n_r, n_mu=8, n_psi=8,
                            radial_scheme="midpoint")
            r0 = CONSTANTS.r0
            rep = embedded_flux_divergence(
                GAMMA, grid,
                lambda s: 1e-3 * (1.0 - (s / r0) ** 2) ** 2,
                lambda s: -4e-3 * (1.0 - (s / r0) ** 2) * s / r0**2,
            )
            diffs.append(rep.max_difference)
        assert diffs[1] <= 1e-9
        assert diffs[1] < diffs[0] / 8.0

    def test_gamma_validated(self):
        grid = BallGrid(CONSTANTS, n_r=16, n_mu=4, n_psi=4,
                        radial_scheme="midpoint")
        with pytest.raises(ValueError, match="gamma"):
            embedded_flux_divergence(0.5, grid, lambda s: 0 * s, lambda s: 0 * s)

    def test_degenerate_embedding_rejected(self):
        grid = BallGrid(CONSTANTS, n_r=16, n_mu=4, n_psi=4,
                        radial_scheme="midpoint")
        with pytest.raises(DegenerateDeformationError):
            embedded_flux_divergence(GAMMA, grid,
                                     lambda s: -2.0 + 0 * s, lambda s: 0 * s)


# ---------------------------------------------------------------------------
# time stepping


def reference_grad(solver, F):
    """_pq and _grad with Python-float operands and a min() scan."""
    gp = F * solver._inv_s
    gp += 1.0
    gq = solver._apply_Dh(F)
    gq += 1.0
    jac = gp * gp
    jac *= gq
    if np.minimum(jac, gp).min() <= 0.0:
        raise DegenerateProfileError("jacobian nonpositive")
    u = np.power(jac, 1.0 - solver.gamma, out=jac)
    q = 1.0 - u / gq
    m = 1.0 - u / gp
    m *= solver._A2
    out = solver._apply_G(q)
    out += m
    return out


def reference_rhs(solver, y, out):
    """The packed derivative of y = [F, F_t, theta, theta_t] with
    Python-float operands, through _accel_F's float operations."""
    n, g = solver.n, solver.gamma
    F, Ft = y[:n], y[n:2 * n]
    th, tht = y[-2:].tolist()
    if not th > 0.0:
        th = math.nan
    out[:n] = Ft
    acc = np.divide(F, 3.0 * g - 1.0, out=out[n:2 * n])
    acc += reference_grad(solver, F)
    acc *= -th ** (1.0 - 3.0 * g)
    acc -= Ft * (1.0 + 2.0 * tht / th)
    out[-2] = tht
    out[-1] = theta_acceleration(g, th, tht)


def reference_advance(solver, y, dt):
    """RadialSolver._advance on the layout [F, F_t, theta, theta_t], with
    fresh stage buffers, Python-float operands, 2.0 * k, the stage
    derivatives summed left to right and min()/all() reductions: the
    reference the step must match bit for bit.  It skips the dt bounds,
    which run never violates."""
    k1, k2, k3, k4, stage = np.empty((5, y.size))
    reference_rhs(solver, y, k1)
    np.multiply(k1, 0.5 * dt, out=stage)
    stage += y
    reference_rhs(solver, stage, k2)
    np.multiply(k2, 0.5 * dt, out=stage)
    stage += y
    reference_rhs(solver, stage, k3)
    np.multiply(k3, dt, out=stage)
    stage += y
    reference_rhs(solver, stage, k4)
    y_new = reference_combination(k1, k2, k3, k4)
    y_new *= dt / 6.0
    y_new += y
    if not (np.isfinite(y_new).all() and y_new[-2] > 0.0):
        raise FloatingPointError("non-finite state after step")
    f = y_new[:solver.n] / solver.s
    if 1.0 + f.min() <= 0.0:
        idx = int(np.argmin(f))
        raise DegenerateProfileError(f"1 + f nonpositive at node {idx}")
    return y_new


def reference_combination(k1, k2, k3, k4):
    """((k1 + 2 k2) + 2 k3) + k4 into a fresh buffer."""
    y_new = 2.0 * k2
    y_new += k1
    y_new += 2.0 * k3
    y_new += k4
    return y_new


def reference_layout(y):
    """The solver's [F, theta, F_t, theta_t] as [F, F_t, theta, theta_t]."""
    n = (y.size - 2) // 2
    return np.concatenate([y[:n], y[n + 1:-1], y[n::n + 1]])


def solver_layout(y):
    """reference_layout undone."""
    n = (y.size - 2) // 2
    return np.concatenate([y[:n], y[-2:-1], y[n:2 * n], y[-1:]])


def write_derivative(dy, F, Ft, Ftt, theta):
    """A _stage hook's body that makes the stage derivative
    k = [F_t, theta_t, F_tt, theta_tt] equal dy, through the views of the
    stage's row."""
    n = F.size
    Ft[:], theta[1], Ftt[:], theta[2] = dy[:n], dy[n], dy[n + 1:-1], dy[-1]


class TestReferenceStep:
    """_advance against reference_advance, float for float."""

    @pytest.mark.parametrize("late", [False, True], ids=["t0", "late"])
    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_steps_match_reference(self, n, late):
        solver = RadialSolver(GAMMA, resolution=n)
        psi = poly_profile(solver, amplitude=1.0)
        if late:
            # a state near the self-similar path at t = 1e3, where the
            # damping bound and the CFL step are of one size
            t = 1e3
            state = solver.make_state(t, 2e-4 * psi, -3e-7 * psi,
                                      theta=nu(GAMMA, t),
                                      theta_t=nu(GAMMA, t, 1))
        else:
            state = solver.make_state(0.0, 1e-3 * psi, 5e-4 * psi)
        y = solver._pack(state)
        assert_array_equal(
            reference_layout(y),
            np.concatenate([solver.s * state.f, solver.s * state.f_t,
                            [state.theta, state.theta_t]]))
        steps = []
        for _ in range(5):
            th, tht = y[n::n + 1].tolist()
            dt = min(0.3 * solver.h / solver.sound_speed(th),
                     solver.damping_step(th, tht))
            want = reference_advance(solver, reference_layout(y), dt)
            y = solver._advance(y, dt)
            assert_array_equal(reference_layout(y), want)
            steps.append((y, y.copy()))
        # the returned buffers share nothing with the solver's scratch
        for got, copy in steps:
            assert_array_equal(got, copy)

    @pytest.mark.parametrize("n", [32, 64, 256, 1024])
    def test_stage_combination_sums_left_to_right(self, n):
        # the one dot over the solver's derivative block rounds as the
        # left-to-right sum, at every scale of the stage derivatives
        solver = RadialSolver(GAMMA, resolution=n)
        rng = np.random.default_rng(n)
        for _ in range(20):
            solver._K[:] = (rng.standard_normal(solver._K.shape)
                            * 10.0 ** rng.uniform(-8.0, 8.0, (4, 1)))
            assert np.array_equal(solver._rk4_weights.dot(solver._K),
                                  reference_combination(*solver._K))

    # the finiteness check's 0 * inf warns as it turns to NaN
    @pytest.mark.filterwarnings("ignore:invalid value encountered in dot")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stage", range(4))
    def test_nonfinite_derivative_ends_nonfinite(self, monkeypatch, stage,
                                                 value):
        # stages with zero acceleration that never look at the profile;
        # one entry of one stage's derivative is not finite
        solver = RadialSolver(GAMMA, resolution=32)
        state = solver.make_state(0.0, poly_profile(solver), np.zeros(32))
        calls = []

        def stage_hook(self, F, Ft, Ftt, theta):
            Ftt[:] = 0.0
            theta[2] = 0.0
            if len(calls) == stage:
                Ftt[5] = value
            calls.append(1)

        monkeypatch.setattr(RadialSolver, "_stage", stage_hook)
        with pytest.raises(FloatingPointError, match="non-finite"):
            solver._advance(solver._pack(state), 1e-3)
        assert len(calls) == 4

    def test_run_matches_reference_stepping(self, monkeypatch):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0,
                        amplitude=1e-3, velocity_amplitude=5e-4, records=6,
                        J_max=1, report_angles=(4, 4))
        got = run(cfg)
        monkeypatch.setattr(
            RadialSolver, "_advance", lambda self, y, dt: solver_layout(
                reference_advance(self, reference_layout(y), dt)))
        want = run(cfg)
        assert got.steps == want.steps > 0
        for field in dataclasses.fields(RunResult):
            name = field.name
            if name in ("setup_s", "stepping_s", "reporting_s"):
                continue
            a, b = getattr(got, name), getattr(want, name)
            if name == "final_state":
                assert (a.time, a.theta, a.theta_t) == (b.time, b.theta,
                                                        b.theta_t)
                assert_array_equal(a.f, b.f)
                assert_array_equal(a.f_t, b.f_t)
            elif isinstance(a, np.ndarray):
                assert_array_equal(a, b)
            else:
                assert a == b, name


class TestStageChecks:
    """What the stage and result checks let through and whom they name."""

    def setup_method(self):
        self.solver = RadialSolver(GAMMA, resolution=32)
        self.state = self.solver.make_state(
            0.0, poly_profile(self.solver), np.zeros(32))

    @pytest.mark.parametrize("nan_node", [3, 25])
    def test_nan_passes_degeneracy_scan(self, nan_node):
        # gp = -1 at node 12; a NaN anywhere hides it, as min() did
        F = np.zeros(32)
        F[12] = -2.0 * self.solver.s[12]
        F[nan_node] = np.nan
        gp, gq, jac = self.solver._pq(F)
        assert gp[12] == -1.0
        assert np.isnan(jac[nan_node])

    def test_nan_stage_ends_nonfinite(self, monkeypatch):
        # k1 puts a NaN and a degenerate node into the second stage, which
        # the degeneracy scan lets through to the finiteness check
        n, dt = self.solver.n, 1e-3
        dy = np.zeros(2 * n + 2)
        dy[3] = np.nan
        dy[20] = -4.0 * self.solver.s[20] / dt
        original = RadialSolver._stage
        calls = []

        def stage(self, *views):
            calls.append(1)
            if len(calls) == 1:
                write_derivative(dy, *views)
            else:
                original(self, *views)

        monkeypatch.setattr(RadialSolver, "_stage", stage)
        with pytest.raises(FloatingPointError, match="non-finite"):
            self.solver._advance(self.solver._pack(self.state), dt)
        assert len(calls) == 4

    def test_degenerate_stage_names_first_bad_node(self):
        # f = -2 x^2 with x = s / r0: q = 1 - 6 x^2 turns negative between
        # nodes 25 and 26 of 64, J is smallest at the rim
        solver = RadialSolver(GAMMA, resolution=64)
        x = solver.s / solver.constants.r0
        with pytest.raises(DegenerateProfileError, match=r"\(node 26,"):
            solver._grad(solver.s * (-2.0 * x * x))

    def test_result_names_smallest_f(self, monkeypatch):
        # 1 + f falls to -1 at node 10 and to -2 at node 20
        n, dt = self.solver.n, 1e-3
        f0 = self.state.f
        dy = np.zeros(2 * n + 2)
        for node, drop in ((10, 2.0), (20, 3.0)):
            dy[node] = -(drop + f0[node]) * self.solver.s[node] / dt

        def stage(self, *views):
            write_derivative(dy, *views)

        monkeypatch.setattr(RadialSolver, "_stage", stage)
        with pytest.raises(DegenerateProfileError,
                           match="1 \\+ f nonpositive at node 20"):
            self.solver._advance(self.solver._pack(self.state), dt)


class TestStepping:
    def setup_method(self):
        self.solver = RadialSolver(GAMMA, resolution=32)
        self.state = self.solver.make_state(
            0.0, poly_profile(self.solver), np.zeros(32))

    def test_local_accuracy_order(self):
        def local_error(dt):
            coarse = self.solver.step(self.state, dt)
            fine = self.solver.step(self.solver.step(self.state, dt / 2),
                                    dt / 2)
            return np.abs(coarse.f - fine.f).max()

        ratio = local_error(1e-3) / local_error(5e-4)
        assert 22.0 <= ratio <= 44.0

    def test_cfl_guard(self):
        cs = np.sqrt(GAMMA * self.solver.constants.a_bar)
        with pytest.raises(ValueError, match="CFL"):
            self.solver.step(self.state, 2.0 * self.solver.h / cs)

    def test_cfl_guard_follows_theta(self):
        # the sound speed falls as theta grows, so the admissible dt rises
        late = self.solver.make_state(5.0, self.state.f, self.state.f_t,
                                      theta=2.0, theta_t=0.1)
        cs = np.sqrt(GAMMA * CONSTANTS.a_bar) * 2.0 ** ((1.0 - 3.0 * GAMMA) / 2.0)
        assert_allclose(self.solver.sound_speed(late.theta), cs, rtol=1e-15)
        dt = self.solver.h / self.solver.sound_speed(late.theta)
        assert dt > self.solver.h / self.solver.sound_speed(1.0)
        self.solver.step(late, dt)
        with pytest.raises(ValueError, match="CFL"):
            self.solver.step(late, 1.01 * dt)

    def test_damping_guard(self):
        # late enough that the CFL step exceeds the damping bound
        late = self.solver.make_state(1e5, self.state.f, self.state.f_t,
                                      theta=10.0, theta_t=0.0)
        cap = self.solver.damping_step(late.theta, late.theta_t)
        assert cap == radial_module.DAMPING_BOUND
        assert self.solver.h / self.solver.sound_speed(late.theta) > 2.0 * cap
        self.solver.step(late, cap)
        with pytest.raises(ValueError, match="damping"):
            self.solver.step(late, 1.01 * cap)

    def test_positive_dt_required(self):
        with pytest.raises(ValueError, match="positive"):
            self.solver.step(self.state, 0.0)

    def test_theta_co_integration_matches_reference(self):
        from vel.theta import integrate_h
        state = self.state
        t_end, steps = 5.0, 500
        dt = t_end / steps
        for _ in range(steps):
            state = self.solver.step(state, dt)
        path = integrate_h(GAMMA, t_end)
        assert state.theta == pytest.approx(path.theta[-1], rel=1e-8)
        assert state.theta_t == pytest.approx(path.theta_t[-1], rel=1e-6)

    def test_time_advances(self):
        out = self.solver.step(self.state, 1e-3)
        assert out.time == pytest.approx(1e-3)

    def test_vacuum_crossing_result_degenerate(self, monkeypatch):
        # stages that never look at the profile, and a result with 1 + f < 0
        # at one node: the packed step refuses it as RadialState would
        n, dt = self.solver.n, 1e-3
        dy = np.zeros(2 * n + 2)
        dy[n // 2] = -2.0 * self.solver.s[n // 2] / dt

        def stage(self, *views):
            write_derivative(dy, *views)

        monkeypatch.setattr(RadialSolver, "_stage", stage)
        with pytest.raises(DegenerateProfileError,
                           match=f"1 \\+ f nonpositive at node {n // 2}"):
            self.solver._advance(self.solver._pack(self.state), dt)

    def advance_keeps_input(self, dt, raises=None, match=None):
        # run keeps y as the last accepted state, so no stage may write it
        y = self.solver._pack(self.state)
        before = y.copy()
        if raises is None:
            assert not np.array_equal(self.solver._advance(y, dt), y)
        else:
            with pytest.raises(raises, match=match):
                self.solver._advance(y, dt)
        assert_array_equal(y, before)

    def test_advance_keeps_input_on_success(self):
        self.advance_keeps_input(1e-3)

    def test_advance_keeps_input_on_cfl_error(self):
        dt = 2.0 * self.solver.h / self.solver.sound_speed(self.state.theta)
        self.advance_keeps_input(dt, ValueError, "CFL")

    def test_advance_keeps_input_on_stage_degeneracy(self, monkeypatch):
        # the first stage sees f = 0; the second, at f = -2 psi, is degenerate
        dt = 1e-3
        psi = poly_profile(self.solver, amplitude=1.0)
        self.state = self.solver.make_state(0.0, np.zeros(32), -4.0 / dt * psi)
        calls = []
        original = RadialSolver._stage

        def counted(self, *views):
            calls.append(1)
            original(self, *views)

        monkeypatch.setattr(RadialSolver, "_stage", counted)
        self.advance_keeps_input(dt, DegenerateProfileError,
                                 "jacobian nonpositive")
        assert len(calls) == 2

    def test_advance_keeps_input_on_nonfinite_result(self, monkeypatch):
        def stage(self, F, Ft, Ftt, theta):
            Ftt[:] = np.nan
            theta[2] = 0.0

        monkeypatch.setattr(RadialSolver, "_stage", stage)
        self.advance_keeps_input(1e-3, FloatingPointError, "non-finite")

    @pytest.mark.parametrize("gamma", [1.5, 2.0])
    def test_stage_theta_crossing_zero_is_nonfinite(self, gamma):
        # the second stage has theta = 1 - 0.5 dt 1e4 < 0, outside the
        # law's domain whether or not theta^(1 - 3 gamma) has a real value
        solver = RadialSolver(gamma, resolution=32)
        state = solver.make_state(0.0, poly_profile(solver), np.zeros(32),
                                  theta=1.0, theta_t=-1e4)
        with pytest.raises(FloatingPointError, match="non-finite"):
            solver.step(state, 1e-3)


class TestDampingBound:
    """dt (1 + 2 theta_t/theta) <= DAMPING_BOUND on the 2x2 model
    x'' + d x' + w^2 x = 0 and in a run past the CFL step's onset."""

    # largest w dt for which the bound is claimed stable
    W_STABLE = 2.63

    @staticmethod
    def rk4_amplification(z, w):
        # one RK4 step of the model with dt = 1, z = dt d, w = dt omega,
        # applied to the identity: stacked 2x2 amplification matrices
        m = np.zeros(np.shape(z) + (2, 2))
        m[..., 0, 1] = 1.0
        m[..., 1, 0] = -np.square(w)
        m[..., 1, 1] = -np.asarray(z)
        eye = np.broadcast_to(np.eye(2), m.shape)
        k1 = m @ eye
        k2 = m @ (eye + 0.5 * k1)
        k3 = m @ (eye + 0.5 * k2)
        k4 = m @ (eye + k3)
        return eye + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    def norms_after(self, z, w, steps):
        amp = np.linalg.matrix_power(self.rk4_amplification(z, w), steps)
        return np.linalg.norm(amp, axis=(-2, -1))

    def test_no_growth_at_the_bound(self):
        # d >= 1 in a run, so z = dt d > 0 (z = w = 0 is the free particle)
        z, w = np.meshgrid(np.linspace(0.05, radial_module.DAMPING_BOUND, 50),
                           np.linspace(0.0, self.W_STABLE, 51))
        early, late = self.norms_after(z, w, 1000), self.norms_after(z, w, 2000)
        assert np.all(np.isfinite(late))
        assert np.all(late <= early * (1.0 + 1e-9))

    def test_growth_past_the_real_axis_limit(self):
        # the check can fail: dt d = 2.9 lies outside RK4's interval
        z, w = np.array(2.9), np.array(0.0)
        assert self.norms_after(z, w, 2000) > 1e10 * self.norms_after(z, w, 1000)

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 2.0])
    @pytest.mark.parametrize("resolution", [32, 64, 256])
    def test_stiffest_mode_inside_the_stable_range(self, gamma, resolution):
        # F_tt = -theta^{1-3g} K F at F = 0; w = sqrt(max eig K) scales
        # with the sound speed, so w h/cs is the same at every theta
        solver = RadialSolver(gamma, resolution=resolution)
        zero = np.zeros(resolution)
        stiffness = np.column_stack(
            [solver._hess_apply(zero, e) / solver.w_kin
             for e in np.eye(resolution)])
        stiffness += np.eye(resolution) / (3.0 * gamma - 1.0)
        omega = math.sqrt(np.linalg.eigvals(stiffness).real.max())
        ratio = omega * solver.h / solver.sound_speed(1.0)
        assert RunConfig.cfl * ratio <= self.W_STABLE

    def test_run_past_the_onset_completes(self):
        # at 32 cells the CFL step alone leaves RK4's interval near
        # t = 8.8e3 (the bound binds from t = 7.1e3), and without the
        # bound this run stops degenerate at t = 1.93e4
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=2e4, records=4,
                        J_max=0, truncation=Truncation(0, 0),
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "completed"
        assert res.dt_max == pytest.approx(radial_module.DAMPING_BOUND,
                                           rel=1e-3)


@functools.cache
def early_energy(cfl):
    """E_total at t = 1 of a gamma = 2, 64-cell run at this cfl."""
    cfg = RunConfig(gamma=GAMMA, resolution=64, t_end=1.0, records=6, cfl=cfl)
    return run(cfg).energy_total()[-1]


class TestEarlyEnergyTimeConvergence:
    """The early-record energies against a cfl 0.075 reference (7.1416e-6).
    The J_max = 2 energies at t = 1 are dominated by grid-scale modes with
    w dt up to 4.53 cfl, which RK4 damps by |R(i w dt)| per step (0.966
    at cfl 0.3); the fitted growth exponent moves only near 1e-12."""

    def test_half_default_cfl_converged(self):
        # 7.2189e-6, +1.1%
        assert early_energy(0.15) == pytest.approx(early_energy(0.075),
                                                   rel=0.05)

    @pytest.mark.xfail(strict=True, reason=(
        "E_total at t = 1 reads 5.0238e-6 at the default cfl 0.3, -29.7% "
        "from cfl 0.075: RK4's amplitude factor |R(i w dt)| = 0.966 at "
        "w dt = 4.53 x 0.3 damps the grid-scale modes that dominate the "
        "J_max = 2 energies"))
    def test_default_cfl_converged(self):
        assert early_energy(RunConfig.cfl) == pytest.approx(
            early_energy(0.075), rel=0.05)


@functools.cache
def scaled_energies(eps):
    """E_total at t = 0 and sup_energy of a J_max = 0 run at amplitude eps,
    both divided by eps^2."""
    res = run(RunConfig(gamma=GAMMA, t_end=100.0, records=12, J_max=0,
                        truncation=Truncation(0, 0), amplitude=eps))
    assert res.stop_reason == "completed"
    return res.reports[0].E_total / eps**2, res.sup_energy / eps**2


class TestQuadraticEnergy:
    """The energies are quadratic in the amplitude to leading order. A
    report that mixes orders or scales a term wrongly breaks the limit or
    the linear correction."""

    AMPLITUDES = (1e-4, 1e-3, 1e-2)

    def test_initial_energy_over_eps_squared_is_fixed(self):
        # 0.183877898323541 at every amplitude
        first = [scaled_energies(eps)[0] for eps in self.AMPLITUDES]
        for value in first[1:]:
            assert value == pytest.approx(first[0], rel=1e-12)

    def test_sup_energy_moves_linearly(self):
        # 0.184757, 0.184749 and 0.184674: -4.3e-5 and -4.5e-4 relative
        sup = [scaled_energies(eps)[1] for eps in self.AMPLITUDES]
        dev = [abs(value / sup[0] - 1.0) for value in sup[1:]]
        assert max(dev) < 1e-3
        assert 5.0 <= dev[1] / dev[0] <= 20.0


# ---------------------------------------------------------------------------
# zeroth-order balance


class TestBalance:
    def test_fourth_order_defect(self):
        solver = RadialSolver(GAMMA, resolution=48)
        state = solver.make_state(0.0, poly_profile(solver), np.zeros(48))
        dt0 = 0.3 * solver.h / np.sqrt(GAMMA * solver.constants.a_bar)
        t_end = 40.0 * dt0
        defects = []
        for level in range(3):
            times, kin, pot, th, tht = solver.balance_series(
                state, t_end, dt0 / 2**level)
            rep = zeroth_energy_balance(GAMMA, times, kin, pot, th, tht)
            defects.append(rep.max_defect)
        assert defects[0] / defects[1] > 10.0
        assert defects[1] / defects[2] > 10.0
        assert defects[2] <= 1e-13

    def test_series_contract(self):
        solver = RadialSolver(GAMMA, resolution=16)
        state = solver.make_state(0.0, np.zeros(16), np.zeros(16))
        times, kin, pot, th, tht = solver.balance_series(state, 0.1, 0.01)
        assert times.size == 11
        assert_allclose(np.diff(times), 0.01, rtol=1e-12)
        assert np.all(kin == 0.0)
        assert np.all(pot == 0.0)
        assert np.all(th >= 1.0)

    def test_window_validated(self):
        solver = RadialSolver(GAMMA, resolution=16)
        state = solver.make_state(0.0, np.zeros(16), np.zeros(16))
        with pytest.raises(ValueError, match="at least 4"):
            solver.balance_series(state, 0.02, 0.01)


# ---------------------------------------------------------------------------
# run driver


def record_grid(cfg):
    """The geometric record times a run documents, after t = 0."""
    return np.geomspace(min(1e-2, cfg.t_end / cfg.records), cfg.t_end,
                        cfg.records)


class TestRunDriver:
    def test_zero_amplitude_invariant(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=100.0,
                        amplitude=0.0, records=10, J_max=1,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "completed"
        assert np.abs(res.final_state.f).max() <= 1e-10
        assert res.sup_energy <= 1e-25
        nu_vals = (1.0 + res.times) ** (1.0 / (3.0 * GAMMA - 1.0))
        ratio = res.radii / (nu_vals * CONSTANTS.r0)
        assert ratio.min() >= 1.0 - 1e-12
        assert ratio.max() <= 1.1

    def test_mass_conserved_and_boundary(self):
        cfg = RunConfig(gamma=GAMMA, resolution=64, t_end=10.0,
                        amplitude=1e-3, records=12, J_max=1,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "completed"
        assert res.mass_error.max() <= 1e-7
        solver = RadialSolver(GAMMA, resolution=64)
        psi = profile_family(cfg, solver.s, solver.constants.r0)
        f_b = solver.boundary_value(cfg.amplitude * psi)
        assert res.radii[0] == pytest.approx(
            (1.0 + f_b) * solver.constants.r0, rel=1e-12)
        assert res.boundary_monotone

    def test_records_cadence(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0,
                        amplitude=1e-4, records=8, J_max=0,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(5.0)
        assert np.all(np.diff(res.times) > 0.0)
        assert res.times.size == cfg.records + 1
        assert_array_equal(res.times[1:], record_grid(cfg))
        assert len(res.reports) == res.times.size
        assert res.steps > 0

    def test_records_land_on_the_grid_at_256_cells(self):
        cfg = RunConfig(gamma=GAMMA, resolution=256, t_end=5.0,
                        amplitude=1e-4, records=8, J_max=0,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "completed"
        assert res.times.size == cfg.records + 1
        assert_array_equal(res.times[1:], record_grid(cfg))

    def test_monitor_energy_stop(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=50.0,
                        amplitude=1e-3, records=10, J_max=1, eps0=1e-5,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "monitor_E"
        assert res.final_state.time == 0.0

    def test_monitor_log_weighted_stop(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=200.0,
                        amplitude=1e-3, records=40, J_max=1, eps0=5e-3,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "monitor_logE"
        assert 0.0 < res.final_state.time < 200.0
        bound = np.log1p(res.final_state.time) ** 2 * res.sup_energy
        assert bound > cfg.eps0**2

    def test_degenerate_stop(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=50.0,
                        amplitude=0.9, records=10, J_max=0, eps0=10.0,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "degenerate"
        assert res.final_state.time < 1.0
        assert np.all(np.isfinite(res.final_state.f))
        # records before the stop sit on the geometric grid, not an ulp off
        assert res.times.size > 2
        assert_array_equal(res.times[1:],
                           record_grid(cfg)[:res.times.size - 1])

    def test_nan_force_stops_nonfinite(self, monkeypatch):
        # the degeneracy scan lets NaN through, so a poisoned force ends
        # the run at the step's finiteness check, not as degenerate
        original = RadialSolver._grad
        calls = []

        def poisoned(self, F):
            calls.append(1)
            out = original(self, F)
            return out * np.nan if len(calls) > 6 else out

        monkeypatch.setattr(RadialSolver, "_grad", poisoned)
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0,
                        amplitude=1e-3, records=4, J_max=0,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "nonfinite"
        solver = RadialSolver(GAMMA, resolution=32)
        gp, gq, jac = solver._pq(np.full(32, np.nan))
        assert np.isnan(jac).all()

    def test_vorticity_free_throughout(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=20.0,
                        amplitude=1e-3, records=12, J_max=1,
                        report_angles=(6, 6))
        res = run(cfg)
        assert res.v_add().max() <= 1e-20
        assert all(v <= 1e-20 for rep in res.reports for v in rep.scriptV)
        assert res.energy_total().max() > 0.0

    def test_bump_family_runs(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=2.0,
                        amplitude=1e-3, family="bump", records=4, J_max=0,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "completed"
        assert np.abs(res.final_state.f).max() > 0.0

    @pytest.mark.parametrize("field,value,match", [
        ("gamma", 1.0, "gamma"),
        ("mass", 0.0, "mass"),
        ("resolution", 8, "resolution"),
        ("cfl", 0.0, "cfl"),
        ("cfl", 1.5, "cfl"),
        ("t_end", 0.0, "t_end"),
        ("t_end", math.inf, "t_end must be positive and finite"),
        ("t_end", math.nan, "t_end must be positive and finite"),
        ("family", "star", "family"),
        ("family_exponent", 1, "family_exponent"),
        ("amplitude", -1.0, "amplitude"),
        ("amplitude", math.inf, "amplitude must be nonnegative and finite"),
        ("mass", math.inf, "mass must be positive and finite"),
        ("records", 1, "records"),
        ("eps0", 0.0, "eps0"),
        ("J_max", -1, "J_max"),
        ("resolution", 64.5, "resolution must be an integer, got 64.5"),
        ("resolution", True, "resolution must be an integer, got True"),
        ("records", 12.5, "records must be an integer, got 12.5"),
        ("records", True, "records must be an integer"),
        ("J_max", 1.5, "J_max must be an integer, got 1.5"),
        ("J_max", False, "J_max must be an integer, got False"),
        ("report_angles", (8, 8.0), "report_angles must be an integer, got 8.0"),
        ("report_angles", (True, 8), "report_angles must be an integer"),
        ("velocity_amplitude", math.nan, "velocity_amplitude must be finite"),
        ("velocity_amplitude", -math.inf, "velocity_amplitude must be finite"),
    ])
    def test_config_validated(self, field, value, match):
        base = dict(gamma=GAMMA)
        base[field] = value
        with pytest.raises(ValueError, match=match):
            RunConfig(**base)

    def test_config_takes_numpy_integers(self):
        cfg = RunConfig(gamma=GAMMA, resolution=np.int64(32),
                        records=np.int32(4), J_max=np.int64(0),
                        report_angles=(np.int64(4), 4))
        assert cfg.resolution == 32


def replay_with_step(cfg):
    """run's stepping rule through the public step, without the reports.

    Records evaluate the time derivatives, as run's do, so a patched force
    sees the same sequence of calls.  Returns (steps, record states, stop
    reason, last accepted state); energy monitors are not replayed.
    """
    solver = RadialSolver(cfg.gamma, cfg.mass, cfg.resolution)
    psi = profile_family(cfg, solver.s, solver.constants.r0)
    state = solver.make_state(0.0, cfg.amplitude * psi,
                              cfg.velocity_amplitude * psi)
    rec_times = np.geomspace(min(1e-2, cfg.t_end / cfg.records), cfg.t_end,
                             cfg.records)
    records = [state]
    solver.time_derivatives(state)
    next_rec, steps, reason = 0, 0, "completed"
    while state.time < cfg.t_end - 1e-12 * cfg.t_end:
        while next_rec < rec_times.size and rec_times[next_rec] <= state.time + 1e-15:
            next_rec += 1
        target = min(rec_times[next_rec] if next_rec < rec_times.size
                     else cfg.t_end, cfg.t_end)
        rest = target - state.time
        dt = min(cfg.cfl * solver.h / solver.sound_speed(state.theta),
                 solver.damping_step(state.theta, state.theta_t), rest)
        try:
            new_state = solver.step(state, dt)
            if dt == rest:  # a step cut to end on the target lands on it
                new_state = dataclasses.replace(new_state, time=target)
        except DegenerateProfileError:
            reason = "degenerate"
            break
        except FloatingPointError:
            reason = "nonfinite"
            break
        state = new_state
        steps += 1
        if state.time >= target - 1e-15 or state.time >= cfg.t_end - 1e-12 * cfg.t_end:
            records.append(state)
            solver.time_derivatives(state)
    return steps, records, reason, state


def assert_states_match(got, want, velocity_scale=None):
    # the packed run keeps F = s f between records, the step replay rounds
    # it through f = F / s on every step: the two may differ at round-off,
    # f_t on the scale of the run's velocities (f_t itself may have decayed)
    assert got.time == want.time
    assert got.theta == want.theta
    assert got.theta_t == want.theta_t
    assert np.abs(got.f - want.f).max() <= 1e-10 * np.abs(want.f).max()
    if velocity_scale is None:
        velocity_scale = np.abs(want.f_t).max()
    assert np.abs(got.f_t - want.f_t).max() <= 1e-10 * velocity_scale


def recorded_states(monkeypatch):
    """States run passes to its records, captured at time_derivatives."""
    states = []
    original = RadialSolver.time_derivatives

    def capture(self, state):
        states.append(state)
        return original(self, state)

    monkeypatch.setattr(RadialSolver, "time_derivatives", capture)
    return states


class TestPackedRun:
    """run advances a packed buffer; the public step is its oracle."""

    @pytest.mark.parametrize("resolution,t_end", [(32, 5.0), (64, 100.0)])
    def test_matches_step_replay(self, monkeypatch, resolution, t_end):
        cfg = RunConfig(gamma=GAMMA, resolution=resolution, t_end=t_end,
                        amplitude=1e-3, velocity_amplitude=5e-4, records=12,
                        J_max=0, report_angles=(4, 4))
        seen = recorded_states(monkeypatch)
        res = run(cfg)
        monkeypatch.undo()
        steps, records, reason, last = replay_with_step(cfg)
        assert res.stop_reason == reason == "completed"
        assert res.steps == steps
        assert_array_equal(res.times, [st.time for st in records])
        assert [st.theta for st in seen] == [st.theta for st in records]
        assert res.final_state.time == last.time
        velocity_scale = max(np.abs(st.f_t).max() for st in records)
        assert_states_match(res.final_state, last, velocity_scale)
        for got, want in zip(seen, records, strict=True):
            assert_states_match(got, want, velocity_scale)

    def test_degenerate_stop_keeps_last_accepted_state(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=50.0,
                        amplitude=0.9, records=10, J_max=0, eps0=10.0,
                        report_angles=(4, 4))
        res = run(cfg)
        steps, _, reason, last = replay_with_step(cfg)
        assert res.stop_reason == reason == "degenerate"
        assert res.final_state.time == last.time
        assert res.steps == steps > 0
        assert_states_match(res.final_state, last)

    def test_nonfinite_stop_keeps_last_accepted_state(self, monkeypatch):
        # the poisoned force of test_nan_force_stops_nonfinite
        original = RadialSolver._grad
        calls = []

        def poisoned(self, F):
            calls.append(1)
            out = original(self, F)
            return out * np.nan if len(calls) > 6 else out

        monkeypatch.setattr(RadialSolver, "_grad", poisoned)
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0,
                        amplitude=1e-3, records=4, J_max=0,
                        report_angles=(4, 4))
        res = run(cfg)
        calls.clear()
        steps, _, reason, last = replay_with_step(cfg)
        assert res.stop_reason == reason == "nonfinite"
        assert res.final_state.time == last.time
        assert res.steps == steps > 0
        assert_states_match(res.final_state, last)

    def test_telemetry(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0,
                        amplitude=1e-3, records=8, J_max=1,
                        report_angles=(4, 4))
        start = time.perf_counter()
        res = run(cfg)
        wall = time.perf_counter() - start
        phases = (res.setup_s, res.stepping_s, res.reporting_s)
        assert all(p > 0.0 for p in phases)
        assert abs(sum(phases) - wall) <= 0.05 * wall
        solver = RadialSolver(GAMMA, resolution=32)
        assert 0.0 < res.dt_min <= res.dt_max
        # the CFL step grows with theta, so the final theta bounds every dt
        assert res.dt_max <= cfg.cfl * solver.h / solver.sound_speed(
            res.final_state.theta)

    def test_no_step_no_dt_range(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=50.0,
                        amplitude=1e-3, records=10, J_max=1, eps0=1e-5,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "monitor_E"
        assert res.steps == 0
        assert res.dt_min is None and res.dt_max is None


class TestReportOracle:
    CONFIG = dict(gamma=GAMMA, resolution=32, t_end=10.0, amplitude=1e-3,
                  velocity_amplitude=5e-4, J_max=2,
                  truncation=Truncation(2, 2), report_angles=(6, 6))

    def test_defect_measured_and_small(self):
        res = run(RunConfig(records=6, **self.CONFIG))
        assert res.stop_reason == "completed"
        assert res.oracle_defect <= 1e-12
        # the first and last records keep the 3D report: curl terms are
        # measured there, not zero by construction
        assert res.reports[0].curl_l2 > 0.0
        assert res.reports[-1].curl_l2 > 0.0

    def test_swirl_on_oracle_records_is_measured(self, monkeypatch):
        # the 3D reports of the oracle records see what the radial ansatz
        # cannot: a rotational perturbation trips the curl terms there
        original = norms.CallableTrajectory.time_derivative

        def swirled(self, t, order):
            field = original(self, t, order)
            y = self.grid.y
            swirl = 1e-4 * np.stack([-y[1], y[0], np.zeros_like(y[2])])
            return type(field)(self.grid, field.values + swirl)

        monkeypatch.setattr(norms.CallableTrajectory, "time_derivative",
                            swirled)
        res = run(RunConfig(records=6, **self.CONFIG))
        assert res.v_add()[0] > 1e-16 and res.v_add()[-1] > 1e-16
        assert res.oracle_defect > 1e-12

    @pytest.mark.parametrize("records", [4, 12])
    def test_two_3d_reports_per_run(self, monkeypatch, records):
        cfg = RunConfig(records=records, **self.CONFIG)
        calls = {"full": 0, "partials": 0}
        energy = radial_module.energy_functionals
        partials = BallGrid.partials

        def counted_energy(*args, **kwargs):
            calls["full"] += 1
            return energy(*args, **kwargs)

        def counted_partials(self, vals):
            calls["partials"] += 1
            return partials(self, vals)

        monkeypatch.setattr(BallGrid, "partials", counted_partials)
        grid = BallGrid(CONSTANTS, n_r=32, n_mu=6, n_psi=6,
                        radial_scheme="midpoint")
        solver = RadialSolver(GAMMA, resolution=32)
        state = solver.make_state(0.0, poly_profile(solver),
                                  0.5 * poly_profile(solver))
        traj = norms.CallableTrajectory(grid, tuple(
            (lambda _, y, p=p: p[:, None, None] * y)
            for p in solver.time_derivatives(state)))
        energy(traj, 0.0, GAMMA, J_max=2, truncation=Truncation(2, 2))
        per_report = calls["partials"]
        assert per_report > 0

        calls["partials"] = 0
        monkeypatch.setattr(radial_module, "energy_functionals",
                            counted_energy)
        res = run(cfg)
        assert len(res.reports) >= records
        assert calls["full"] == 2
        assert calls["partials"] <= 2 * per_report

    def test_stop_at_the_first_record_makes_one_3d_report(self, monkeypatch):
        cfg = RunConfig(records=6, eps0=1e-5, **self.CONFIG)
        full = []
        energy = radial_module.energy_functionals

        def kept(*args, **kwargs):
            full.append(energy(*args, **kwargs))
            return full[-1]

        monkeypatch.setattr(radial_module, "energy_functionals", kept)
        res = run(cfg)
        assert res.stop_reason == "monitor_E" and res.steps == 0
        assert len(full) == 1 and len(res.reports) == 1
        assert res.reports[0] is full[0]
        assert res.sup_energy == full[0].E_total
        assert res.oracle_defect <= 1e-12


# ---------------------------------------------------------------------------
# growth fit and serialization


class TestGrowthFit:
    def test_exact_power_law_recovered(self):
        t = np.geomspace(0.01, 1e3, 120)
        r = 2.7 * (1.0 + t) ** 0.2
        fit = fit_growth(t, r)
        assert isinstance(fit, GrowthFit)
        assert fit.exponent == pytest.approx(0.2, abs=1e-10)
        assert fit.stderr <= 1e-12
        assert fit.n_points >= 3

    def test_window_restricts_to_last_decade(self):
        t = np.geomspace(0.01, 1e3, 200)
        # different slopes before and after 1 + t = 100
        r = np.where(1.0 + t < 100.0, (1.0 + t) ** 0.5,
                     100.0**0.3 * (1.0 + t) ** 0.2)
        fit = fit_growth(t, r)
        assert fit.exponent == pytest.approx(0.2, abs=1e-6)
        assert fit.window[0] >= 99.0 - 1.0

    @pytest.mark.parametrize("times,radii,match", [
        (np.linspace(0, 5, 50), np.ones(50), "decade"),
        (np.linspace(0, 100, 2), np.ones(2), "3 samples"),
        (np.linspace(0, 100, 50), -np.ones(50), "positive"),
        (np.linspace(0, 100, 50), np.ones(49), "matching"),
    ])
    def test_validation(self, times, radii, match):
        with pytest.raises(ValueError, match=match):
            fit_growth(times, radii)

    def test_measured_exponent_moderate_resolution(self):
        cfg = RunConfig(gamma=GAMMA, resolution=64, t_end=1e3,
                        amplitude=1e-3, records=60, J_max=1,
                        report_angles=(6, 6))
        res = run(cfg)
        assert res.stop_reason == "completed"
        fit = fit_growth(res.times, res.radii)
        target = 1.0 / (3.0 * GAMMA - 1.0)
        assert abs(fit.exponent - target) / target <= 0.03


class TestSerialization:
    def test_csv_layout(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "gas": {"gamma": GAMMA},
            "grid": {"resolution": 32, "n_mu": 4, "n_psi": 4},
            "ode": {"t_end": 1.0},
            "solver": {"eps": 1e-4},
            "norms": {"J_max": 1},
            "output": {"records": 3, "directory": str(tmp_path)},
        }), encoding="utf-8")
        cli.main(["radial", "--config", str(config)])
        res = run(cli._run_config(cli.parse_config(str(config))))
        text = (tmp_path / "radial_trajectory.csv").read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "t,R,E_0,E_1,V_add,stop_reason"
        assert len(lines) == res.times.size + 1
        first = lines[1].split(",")
        assert float(first[0]) == res.times[0]
        assert float(first[1]) == res.radii[0]
        assert float(first[2]) == res.reports[0].E_j[0]
        assert first[-1] == "completed"
