"""Radial solver: operator identities, stepping, runs, and growth fits."""

import dataclasses
import functools
import json
import math
import sys
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg.blas import dgbmv

from vel import cli, norms
from vel import radial as radial_module
from vel.geometry import BallGrid, DegenerateDeformationError
from vel.norms import Truncation, zeroth_energy_balance
from vel.params import GasParams, derive_constants
from vel.radial import (DegenerateProfileError, GrowthFit, OracleReport,
                        RadialSolver, RadialState, RunConfig, _build_sbp,
                        embedded_flux_divergence, fit_growth, profile_family,
                        reduce_equation, run)
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

    @pytest.mark.parametrize("resolution", [64.7, 64.0, True])
    def test_resolution_must_be_an_integer(self, resolution):
        # RunConfig's rule: 64.7 built 64 cells
        with pytest.raises(ValueError, match=f"resolution must be an integer, "
                           f"got {resolution}"):
            RadialSolver(GAMMA, resolution=resolution)

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
        # D, scaled by s in its columns, and of its weighted transpose,
        # float for float; the band products match Dh f = (D @ odd(s f))[n:]
        # and G v = Dh^T (w_u v) / w_f
        solver = RadialSolver(GAMMA, resolution=n)
        D, s = solver.D, solver.s
        Dh = (D[n:, n:] - D[n:, n - 1::-1]) * s

        def diagonals(A):
            ab = np.zeros((11, n))
            for k in range(-5, 6):
                ab[5 - k, max(k, 0):n + min(k, 0)] = np.diagonal(A, k)
            return ab

        assert_array_equal(solver._Dh, diagonals(Dh))
        assert_array_equal(
            solver._G, diagonals(Dh.T * solver.w_u / solver.w_f[:, None]))
        rng = np.random.default_rng(n)
        f, v = rng.standard_normal((2, n))

        def close(got, want):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

        F = s * f
        close(solver._apply_Dh(f), (D @ np.concatenate([-F[::-1], F]))[n:])
        close(solver._apply_G(v), (Dh.T @ (solver.w_u * v)) / solver.w_f)

    @pytest.mark.parametrize("n", [16, 256])
    def test_memory_linear_in_cells(self, n):
        # no array grows faster than the band; the dense D is only made
        # on demand
        solver = RadialSolver(GAMMA, resolution=n)

        sizes = {}

        def walk(names):
            # the arrays the solver holds, and those its closures bind
            for name, val in names.items():
                if isinstance(val, types.FunctionType) and name not in sizes:
                    sizes[name] = []
                    walk(closure_values(val))
                elif isinstance(val, np.ndarray):
                    sizes[name] = [val.size]

        walk(vars(solver))
        # the four stage rows [A2 m | f | f_t | f_tt] of 4n are held only as
        # views: the (4, 2n) derivative block K, and per stage its law's
        # block [A2 m | f | f_t], its state and its A2 m, f, f_t and f_tt
        # views (f_t only in the first stage's, where _accel writes it);
        # the force's scratch W = [gp | gq | J] is one array of 3n, with
        # its [m | q] view
        assert sizes["_G"] == sizes["G"] and sizes["K"] == [8 * n]
        assert [sizes[f"{v}{i}"] for i in range(1, 5) for v in "bzmfa"] == \
            [[3 * n], [2 * n], [n], [n], [n]] * 4 and sizes["v1"] == [n]
        assert sizes["W"] == [3 * n] and sizes["m_q"] == [2 * n]
        assert [sizes[v] for v in ("gp", "gq", "jac")] == [[n]] * 3
        assert {"_pq", "_grad", "_accel", "_march"} <= sizes.keys()
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

    def test_theta_t_needs_theta(self):
        # a theta_t given alone would be replaced by nu'(0)
        with pytest.raises(ValueError, match="theta must accompany theta_t"):
            self.solver.make_state(0.0, np.zeros(16), np.zeros(16), theta_t=5.0)

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

    @pytest.mark.parametrize("theta", [1e-70, 1e-55])
    def test_theta_too_small_rejected(self, theta):
        # at gamma = 2, theta^(1 - 3 gamma) = 1e275 is finite at 1e-55, but
        # time_derivatives also takes theta^(-3 gamma) = 1e330
        with pytest.raises(ValueError, match="theta = 1e-.. is too small"):
            self.solver.make_state(1.0, np.zeros(16), np.zeros(16),
                                   theta=theta, theta_t=0.0)

    @pytest.mark.parametrize("dt", [1e-3, 1e-200])
    def test_step_rejects_theta_too_small(self, monkeypatch, dt):
        # a state built directly, not through make_state, gets make_state's
        # labelled error from step, before any march
        solver = RadialSolver(GAMMA, resolution=32)
        state = RadialState(1.0, np.zeros(32), np.zeros(32), 1e-70, 0.0)

        def refuse(*args):
            raise AssertionError("step marched a state it should refuse")

        monkeypatch.setattr(solver, "_march", refuse)
        with pytest.raises(ValueError, match="theta = 1e-70 is too small"):
            solver.step(state, dt)

    def test_small_theta_accepted(self):
        profile = poly_profile(self.solver)
        state = self.solver.make_state(1.0, profile, 1e-3 * profile,
                                       theta=1e-40, theta_t=0.0)
        derivs = self.solver.time_derivatives(state)
        assert all(np.isfinite(d).all() for d in derivs)


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
            s = solver.s
            # the force per kinetic weight in F = s f
            var = s * solver._grad(f)
            gp, gq, jac = solver._pq(f)
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
    """The solver's operations on the even extension of f through the
    center, applied with the full 2n-node D and weights to the odd
    extension of s f; sums over the mirrored ball are halved."""

    def __init__(self, solver):
        c = solver.constants
        self.gamma = solver.gamma
        self.D, H, _, _ = dense_sbp(2 * solver.n, solver.h)
        self.s = np.concatenate([-solver.s[::-1], solver.s])
        sig = c.a_bar - c.b_bar * self.s**2
        self.w_u = H * 4.0 * np.pi * self.s**2 * sig ** (c.iota + 1.0)
        self.w_f = H * 4.0 * np.pi * self.s**4 * sig**c.iota

    @staticmethod
    def even(f):
        return np.concatenate([f[::-1], f])

    def pq(self, f):
        fe = self.even(f)
        gp = 1.0 + fe
        gq = 1.0 + self.D @ (self.s * fe)
        return gp, gq, gp * gp * gq

    def force_gradient(self, f):
        # the gradient with respect to f, whose node i enters the even
        # extension twice
        gp, gq, jac = self.pq(f)
        jg = jac ** (-self.gamma)
        m0_p = -jg * 2.0 * gp * gq + 2.0
        m0_q = -jg * gp * gp + 1.0
        return self.w_u * m0_p + self.s * (self.D.T @ (self.w_u * m0_q))

    def hess_apply(self, f, v):
        g = self.gamma
        gp, gq, jac = self.pq(f)
        jg, jg1 = jac ** (-g), jac ** (-g - 1.0)
        pv = self.even(v)
        qv = self.D @ (self.s * pv)
        m0_pp = g * jg1 * (2.0 * gp * gq) ** 2 - 2.0 * jg * gq
        m0_pq = g * jg1 * (2.0 * gp * gq) * gp * gp - 2.0 * jg * gp
        m0_qq = g * jg1 * gp**4
        dmp = m0_pp * pv + m0_pq * qv
        dmq = m0_pq * pv + m0_qq * qv
        return self.w_u * dmp + self.s * (self.D.T @ (self.w_u * dmq))

    def internal_energy(self, f):
        g = self.gamma
        gp, gq, jac = self.pq(f)
        m0 = (np.expm1((1.0 - g) * np.log(jac)) / (g - 1.0)
              + 2.0 * (gp - 1.0) + (gq - 1.0))
        return 0.5 * np.dot(self.w_u, m0)

    def zeroth_energy(self, state):
        fte = self.even(state.f_t)
        fe = self.even(state.f)
        kinetic = 0.5 * np.dot(self.w_f, fte * fte)
        i2 = 0.5 * np.dot(self.w_f, fe * fe)
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
        f, f_t = state.f, state.f_t

        def close(got, want):
            got, want = np.asarray(got), np.asarray(want)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        for got, want in zip(solver._pq(f), ref.pq(f)):
            close(got, want[n:])
        close(solver.w_f * solver._grad(f), ref.force_gradient(f)[n:])
        # the folded force per kinetic weight, as every RK4 stage uses it,
        # and its directional derivative
        close(solver._grad(f), ref.force_gradient(f)[n:] / ref.w_f[n:])
        close(solver._hess_apply(f, f_t), ref.hess_apply(f, f_t)[n:] / ref.w_f[n:])
        close(solver.internal_energy(f), ref.internal_energy(f))
        for got, want in zip(solver.zeroth_energy(state),
                             ref.zeroth_energy(state)):
            close(got, want)


def jac_power_grad(solver, f):
    """_grad in its jac^-gamma form: A2 m + G q with jg = jac^-gamma,
    m = 1 - jg gp gq and q = 1 - jg gp^2."""
    gp, gq, jac = solver._pq(f)
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
        # compared as the force on F = s f: at node 0 the force is a
        # cancellation of O(1/h) band terms, and the 1/s of the f-state
        # makes that node the largest
        want = solver.s * jac_power_grad(solver, f)
        got = solver.s * solver._grad(f)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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


def reference_force(solver, f):
    """The stage's pq and force with Python-float operands and a min()
    scan: (A2 m, q) in fresh arrays."""
    gp = f + 1.0
    gq = solver._apply_Dh(f)
    gq += 1.0
    jac = gp * gp
    jac *= gq
    if np.minimum(jac, gp).min() <= 0.0:
        raise DegenerateProfileError("jacobian nonpositive")
    u = np.power(jac, 1.0 - solver.gamma, out=jac)
    q = 1.0 - u / gq
    m = 1.0 - u / gp
    m *= solver._A2
    return m, q


def reference_rhs(solver, y, out):
    """The packed derivative of y = [f, f_t, theta, theta_t] with
    Python-float operands, through the stage's primitives: the dot of the
    law's coefficient triple with a fresh [A2 m | f | f_t], then G q added
    by dgbmv with alpha -theta^(1-3 gamma)."""
    n, g = solver.n, solver.gamma
    f, ft = y[:n], y[n:2 * n]
    th, tht = y[-2:].tolist()
    if not th > 0.0:
        th = math.nan
    out[:n] = ft
    am, q = reference_force(solver, f)
    thp = -th ** (1.0 - 3.0 * g)
    acc = np.dot(np.array([thp, thp / (3.0 * g - 1.0), -1.0 - 2.0 * tht / th]),
                 np.array([am, f, ft]))
    band = radial_module._BAND
    out[n:2 * n] = dgbmv(n, n, band, band, thp, solver._G, q, beta=1.0, y=acc)
    out[-2] = tht
    out[-1] = theta_acceleration(g, th, tht)


def reference_advance(solver, y, dt):
    """The solver's march with theta kept in the packed buffer
    [f, f_t, theta, theta_t], with fresh stage buffers, Python-float
    operands, 2.0 * k, the stage derivatives summed left to right and
    min()/all() reductions: the reference the step must match bit for bit.
    Like the march it leaves the dt bounds to step."""
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
    f = y_new[:solver.n]
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


def reference_run_loop(cfg):
    """run's stepping loop as it read with theta in the packed buffer
    [f, f_t, theta, theta_t]: reference_advance up to each record time in
    turn, dt the least of the CFL step, the damping bound and the rest (the
    bounds by the test-local sound_speed and damping_step), the last step
    landing on the record time.  Assumes no stop.  Returns (record states,
    steps, dt_min, dt_max)."""
    solver = RadialSolver(cfg.gamma, cfg.mass, cfg.resolution)
    psi = profile_family(cfg, solver.s, solver.constants.r0)
    state = solver.make_state(0.0, cfg.amplitude * psi,
                              cfg.velocity_amplitude * psi)
    n, t, y = solver.n, 0.0, np.concatenate(
        [state.f, state.f_t, [state.theta, state.theta_t]])
    states, steps, dt_min, dt_max = [state], 0, math.inf, 0.0
    for target in record_grid(cfg):
        while t < target:
            th, tht = y[-2:].tolist()
            rest = target - t
            dt = min(cfg.cfl * solver.h / sound_speed(solver, th),
                     damping_step(th, tht), rest)
            y = reference_advance(solver, y, dt)
            t = target if dt == rest else t + dt
            steps += 1
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        states.append(RadialState(time=t, f=y[:n], f_t=y[n:2 * n],
                                  theta=float(y[-2]), theta_t=float(y[-1])))
    return states, steps, dt_min, dt_max


def closure_values(fn):
    """{name: value} of the variables fn's closure binds."""
    return {name: cell.cell_contents
            for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ())}


def hook_stages(monkeypatch, solver, stage):
    """Route every stage of the solver's march through
    stage(law, f, f_t, f_tt), by the cell of the march's closure that holds
    its stage: f, f_t and f_tt are the views of the stage's row, and law()
    runs the stage's own force and law; a stage that does not call it never
    looks at the profile.  Theta is stepped by its law either way."""
    cells = dict(zip(solver._march.__code__.co_freevars,
                     solver._march.__closure__))
    own = cells["stage"].cell_contents

    def hooked(f, am, block, ftt, th, tht):
        stage(lambda: own(f, am, block, ftt, th, tht), f, block[2], ftt)

    monkeypatch.setattr(cells["stage"], "cell_contents", hooked)


def packed(state):
    """The march's operands (z = [f | f_t], theta, theta_t) of a state."""
    return np.concatenate([state.f, state.f_t]), state.theta, state.theta_t


def sound_speed(solver, theta):
    """The center's sound speed sqrt(gamma a_bar) theta^((1 - 3 gamma)/2),
    as the solver's sound_speed method computed it before the march chose
    its own dt: an independent reference for the CFL step."""
    return (math.sqrt(solver.gamma * solver.constants.a_bar)
            * theta ** ((1.0 - 3.0 * solver.gamma) / 2.0))


def damping_step(theta, theta_t):
    """Largest dt with dt (1 + 2 theta_t/theta) <= DAMPING_BOUND, inf where
    that coefficient is not positive, as the solver's damping_step method
    computed it."""
    damping = 1.0 + 2.0 * theta_t / theta
    return radial_module.DAMPING_BOUND / damping if damping > 0.0 else math.inf


def march(solver, z, th, tht, dt):
    """solver._march by exactly dt: at cfl 1 with dt inside both bounds,
    the march takes dt itself.  Returns (z, theta, theta_t)."""
    z, th, tht, taken = solver._march(z, th, tht, dt, 1.0)
    assert taken == dt
    return z, th, tht


def write_derivative(dy, f, ft, ftt):
    """A stage hook's body that makes the f block k = [f_t | f_tt] of the
    stage derivative equal dy, through the views of the stage's row."""
    ft[:], ftt[:] = dy[:f.size], dy[f.size:]


def scaled_profile_advance(solver, y, dt):
    """One RK4 step of the F = s f scheme the solver stepped before it
    stepped f, on the layout [F, F_t, theta, theta_t]: the same law with
    the dense fold Dh of the full-grid D, G = diag(1/w_kin) Dh^T diag(w_u)
    and A2 = 2 w_u / (s w_kin)."""
    n, g, s = solver.n, solver.gamma, solver.s
    Dh = solver.D[n:, n:] - solver.D[n:, n - 1::-1]
    G = Dh.T * solver.w_u / solver.w_kin[:, None]
    A2 = 2.0 * solver.w_u / (s * solver.w_kin)

    def rhs(z):
        F, Ft = z[:n], z[n:2 * n]
        th, tht = z[-2:]
        gp, gq = 1.0 + F / s, 1.0 + Dh @ F
        jac = gp * gp * gq
        if np.minimum(jac, gp).min() <= 0.0:
            raise DegenerateProfileError("jacobian nonpositive")
        u = jac ** (1.0 - g)
        grad = A2 * (1.0 - u / gp) + G @ (1.0 - u / gq)
        Ftt = -th ** (1.0 - 3.0 * g) * (F / (3.0 * g - 1.0) + grad)
        Ftt -= Ft * (1.0 + 2.0 * tht / th)
        return np.concatenate([Ft, Ftt, [tht, theta_acceleration(g, th, tht)]])

    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestReferenceStep:
    """The march against reference_advance, float for float."""

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
        z, th, tht = packed(state)
        steps = []
        for _ in range(5):
            dt = min(0.3 * solver.h / sound_speed(solver, th),
                     damping_step(th, tht))
            want = reference_advance(solver, np.concatenate([z, [th, tht]]), dt)
            z, th, tht = march(solver, z, th, tht, dt)
            assert type(th) is float and type(tht) is float
            assert_array_equal(np.concatenate([z, [th, tht]]), want)
            steps.append((z, z.copy()))
        # the returned buffers share nothing with the solver's scratch
        for got, copy in steps:
            assert_array_equal(got, copy)

    @pytest.mark.parametrize("n", [32, 64, 256, 1024])
    def test_stage_combination_sums_left_to_right(self, n):
        # the one dot over the solver's derivative block rounds as the
        # left-to-right sum, at every scale of the stage derivatives
        bound = closure_values(RadialSolver(GAMMA, resolution=n)._march)
        K, wdot = bound["K"], bound["wdot"]
        rng = np.random.default_rng(n)
        for _ in range(20):
            K[:] = rng.standard_normal(K.shape) * 10.0 ** rng.uniform(-8.0, 8.0, (4, 1))
            assert np.array_equal(wdot(K), reference_combination(*K))

    @staticmethod
    def advance_with_entry(monkeypatch, stage, value):
        # stages with zero acceleration that never look at the profile;
        # f_tt[5] of one stage is value
        solver = RadialSolver(GAMMA, resolution=32)
        state = solver.make_state(0.0, poly_profile(solver), np.zeros(32))
        calls = []

        def stage_hook(law, f, ft, ftt):
            ftt[:] = 0.0
            if len(calls) == stage:
                ftt[5] = value
            calls.append(1)

        hook_stages(monkeypatch, solver, stage_hook)
        try:
            return march(solver, *packed(state), 1e-3)[0]
        finally:
            assert len(calls) == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stage", range(4))
    def test_nonfinite_derivative_ends_nonfinite(self, monkeypatch, stage,
                                                 value):
        # the sum of squares turns inf and NaN into inf or NaN without a
        # floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match="non-finite"):
                self.advance_with_entry(monkeypatch, stage, value)

    def test_entry_past_the_square_range_ends_nonfinite(self, monkeypatch):
        # f_t[5] = (dt / 6) 1e200 squares past the largest float, which
        # numpy reports; f_t[5] = (dt / 6) 1e150 squares to 2.8e292
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                self.advance_with_entry(monkeypatch, 3, 1e200)
        z = self.advance_with_entry(monkeypatch, 3, 1e150)
        assert z[32 + 5] == pytest.approx(1e-3 / 6.0 * 1e150, rel=1e-15)

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 5.0 / 3.0, 2.0, 3.0])
    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_matches_scaled_profile_scheme(self, n, gamma):
        # 200 CFL steps from the run's initial data: stepping f and
        # stepping F = s f differ by round-off.  Measured in the w_f norm,
        # the kinetic norm of f, with the velocity on the scale of the
        # run's largest velocity: pointwise, both schemes are off an
        # extended-precision reference by up to 5e-10 of f_t at node 0,
        # whose force is a cancellation of O(1/h) band terms.  At
        # gamma = 4/3 both stop degenerate at the same step at 32 and 64
        # cells.
        solver = RadialSolver(gamma, resolution=n)
        psi = poly_profile(solver, amplitude=1.0)
        state = solver.make_state(0.0, 1e-3 * psi, 5e-4 * psi)
        z, th, tht = packed(state)
        old = np.concatenate([solver.s * state.f, solver.s * state.f_t,
                              [state.theta, state.theta_t]])

        def norm(v):
            return math.sqrt(np.dot(solver.w_f, v * v))

        velocity_scale = norm(state.f_t)
        for step in range(200):
            dt = min(0.3 * solver.h / sound_speed(solver, th),
                     damping_step(th, tht))
            try:
                nxt = march(solver, z, th, tht, dt)
            except DegenerateProfileError:
                # so does the F = s f scheme, at the same step
                with pytest.raises(DegenerateProfileError):
                    scaled_profile_advance(solver, old, dt)
                break
            (z, th, tht), old = nxt, scaled_profile_advance(solver, old, dt)
            velocity_scale = max(velocity_scale, norm(z[n:]))
        assert (gamma == 4.0 / 3.0 and n < 256) == (step < 199)
        got = np.concatenate([z, [th, tht]])
        old[:2 * n] /= np.tile(solver.s, 2)
        assert norm(got[:n] - old[:n]) <= 1e-12 * norm(old[:n])
        assert norm(got[n:2 * n] - old[n:2 * n]) <= 1e-12 * velocity_scale
        assert_array_equal(got[2 * n:], old[2 * n:])

    def test_run_matches_reference_stepping(self, monkeypatch):
        # the default vel radial settings but t_end and J_max
        cfg = RunConfig(gamma=GAMMA, resolution=64, t_end=50.0, records=12,
                        J_max=0, report_angles=(4, 4))
        seen = recorded_states(monkeypatch)
        res = run(cfg)
        states, steps, dt_min, dt_max = reference_run_loop(cfg)
        assert res.stop_reason == "completed"
        assert (res.steps, res.dt_min, res.dt_max) == (steps, dt_min, dt_max)
        assert_array_equal(res.times, [st.time for st in states])
        solver = RadialSolver(GAMMA, resolution=64)
        assert_array_equal(res.radii, [
            st.theta * (1.0 + solver.boundary_value(st.f)) * solver.constants.r0
            for st in states])
        for got, want in zip(seen, states, strict=True):
            assert_states_match(got, want)
        assert_states_match(res.final_state, states[-1])


def unfused_law(solver, f, ft, th, tht):
    """The radial law as a chain of ufuncs: the force A2 m + G q, then
    -theta^(1-3 gamma) (f/(3 gamma - 1) + force) - (1 + 2 theta_t/theta) f_t."""
    am, q = reference_force(solver, f)
    force = solver._apply_G(q)
    force += am
    acc = f / (3.0 * solver.gamma - 1.0)
    acc += force
    acc *= -th ** (1.0 - 3.0 * solver.gamma)
    acc -= ft * (1.0 + 2.0 * tht / th)
    return acc


def assert_law_close(solver, got, f, ft, th, tht):
    """got agrees with unfused_law to 1e-14 of the size of the law's terms
    at each node, |theta^(1-3 gamma)| (|f|/(3 gamma - 1) + |A2 m| + |G| |q|)
    + |1 + 2 theta_t/theta| |f_t|.  Near the center the terms are O(1/h)
    band sums that cancel to f_tt, up to 1.4e5 times max |f_tt| at 256
    cells, so two orders of the same sum differ by far more than 1e-14 of
    max |f_tt| but by well under an ulp of the terms."""
    am, q = reference_force(solver, f)
    g = solver.gamma
    band = radial_module._BAND
    Gq = dgbmv(solver.n, solver.n, band, band, 1.0, np.abs(solver._G), np.abs(q))
    terms = (th ** (1.0 - 3.0 * g) * (np.abs(f) / (3.0 * g - 1.0) + np.abs(am) + Gq)
             + abs(1.0 + 2.0 * tht / th) * np.abs(ft))
    want = unfused_law(solver, f, ft, th, tht)
    assert np.all(np.abs(got - want) <= 1e-14 * terms)


class TestStageLaw:
    """The stage's law, one dot of the coefficient triple with [A2 m | f |
    f_t] and G q added by dgbmv, against the ufunc chain."""

    @staticmethod
    def state(solver, late):
        psi = poly_profile(solver, amplitude=1.0)
        if late:
            t = 1e3
            return solver.make_state(t, 2e-4 * psi, -3e-7 * psi,
                                     theta=nu(GAMMA, t), theta_t=nu(GAMMA, t, 1))
        return solver.make_state(0.0, 1e-3 * psi, 5e-4 * psi)

    @pytest.mark.parametrize("late", [False, True], ids=["t0", "late"])
    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_matches_unfused_law(self, n, late):
        solver = RadialSolver(GAMMA, resolution=n)
        st = self.state(solver, late)
        assert_law_close(solver, reduce_equation(solver, st),
                         st.f, st.f_t, st.theta, st.theta_t)

    def test_zero_profile_zero_law(self):
        # m and q vanish exactly at f = 0 (TestForceForm), so f_tt does at rest
        solver = RadialSolver(GAMMA, resolution=64)
        zero = np.zeros(64)
        for th, tht in ((1.0, 0.5), (nu(GAMMA, 1e3), nu(GAMMA, 1e3, 1))):
            assert_array_equal(solver._accel(zero, zero, th, tht), zero)

    def test_python_calls_per_step(self):
        # the march and its four stages: pq, the force and the law run
        # inline in each stage
        solver = RadialSolver(GAMMA, resolution=64)
        z, th, tht = packed(self.state(solver, False))
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            solver._march(z, th, tht, math.inf, 0.3)
        finally:
            sys.setprofile(None)
        assert calls == ["march"] + ["stage"] * 4


class TestStageChecks:
    """What the stage and result checks let through and whom they name."""

    def setup_method(self):
        self.solver = RadialSolver(GAMMA, resolution=32)
        self.state = self.solver.make_state(
            0.0, poly_profile(self.solver), np.zeros(32))

    @pytest.mark.parametrize("nan_node", [3, 25])
    def test_nan_passes_degeneracy_scan(self, nan_node):
        # gp = -1 at node 12; a NaN anywhere hides it, as min() did
        f = np.zeros(32)
        f[12] = -2.0
        f[nan_node] = np.nan
        gp, gq, jac = self.solver._pq(f)
        assert gp[12] == -1.0
        assert np.isnan(jac[nan_node])

    def test_nan_stage_ends_nonfinite(self, monkeypatch):
        # k1 puts a NaN and a degenerate node into the second stage, which
        # the degeneracy scan lets through to the finiteness check
        n, dt = self.solver.n, 1e-3
        dy = np.zeros(2 * n)
        dy[3] = np.nan
        dy[20] = -4.0 / dt
        calls = []

        def stage(law, *views):
            calls.append(1)
            if len(calls) == 1:
                write_derivative(dy, *views)
            else:
                law()

        hook_stages(monkeypatch, self.solver, stage)
        with pytest.raises(FloatingPointError, match="non-finite"):
            march(self.solver, *packed(self.state), dt)
        assert len(calls) == 4

    def test_degenerate_stage_names_first_bad_node(self):
        # f = -2 x^2 with x = s / r0: q = 1 - 6 x^2 turns negative between
        # nodes 25 and 26 of 64, J is smallest at the rim
        solver = RadialSolver(GAMMA, resolution=64)
        x = solver.s / solver.constants.r0
        with pytest.raises(DegenerateProfileError, match=r"\(node 26,"):
            solver._grad(-2.0 * x * x)

    def test_gp_alone_degenerate(self):
        # s f = 2h (-1)^j, tapered to 0 from node 4 to node 20: the interior
        # stencil annihilates the checkerboard, so gq = 1 + (s f)' >= 0.69
        # while gp = 1 + f = -1/3 at node 1, where J = gp^2 gq = 1/9
        j = np.arange(32)
        taper = np.clip((20 - j) / 16, 0.0, 1.0)
        f = 2.0 * self.solver.h * (-1.0) ** j * taper**2 * (3.0 - 2.0 * taper)
        f /= self.solver.s
        assert np.flatnonzero(1.0 + f <= 0.0).tolist() == [1]
        assert (1.0 + self.solver._apply_Dh(f)).min() > 0.0
        with pytest.raises(DegenerateProfileError, match=r"\(node 1, J = 1.111e-01\)"):
            self.solver._pq(f)

    def test_gq_alone_degenerate(self):
        # f = -0.9 x^2: gp = 1 + f >= 0.1 while gq = 1 + (s f)' = 1 - 2.7 x^2
        # turns negative between nodes 38 and 39 of 64
        solver = RadialSolver(GAMMA, resolution=64)
        x = solver.s / solver.constants.r0
        f = -0.9 * x * x
        assert (1.0 + f).min() > 0.0
        assert np.flatnonzero(1.0 + solver._apply_Dh(f) <= 0.0)[0] == 39
        with pytest.raises(DegenerateProfileError, match=r"\(node 39,"):
            solver._pq(f)

    def test_result_names_smallest_f(self, monkeypatch):
        # 1 + f falls to -1 at node 10 and to -2 at node 20
        n, dt = self.solver.n, 1e-3
        f0 = self.state.f
        dy = np.zeros(2 * n)
        for node, drop in ((10, 2.0), (20, 3.0)):
            dy[node] = -(drop + f0[node]) / dt
        hook_stages(monkeypatch, self.solver,
                    lambda law, *views: write_derivative(dy, *views))
        with pytest.raises(DegenerateProfileError,
                           match="1 \\+ f nonpositive at node 20"):
            march(self.solver, *packed(self.state), dt)


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
        # the sound speed falls as theta grows, so the admissible dt rises;
        # a dt equal to the CFL step is taken
        late = self.solver.make_state(5.0, self.state.f, self.state.f_t,
                                      theta=2.0, theta_t=0.1)
        cs = np.sqrt(GAMMA * CONSTANTS.a_bar) * 2.0 ** ((1.0 - 3.0 * GAMMA) / 2.0)
        assert_allclose(sound_speed(self.solver, late.theta), cs, rtol=1e-15)
        dt = self.solver.h / sound_speed(self.solver, late.theta)
        assert dt > self.solver.h / sound_speed(self.solver, 1.0)
        assert dt < damping_step(late.theta, late.theta_t)
        assert self.solver.step(late, dt).time == late.time + dt
        with pytest.raises(ValueError, match="CFL"):
            self.solver.step(late, 1.01 * dt)

    def test_damping_guard(self):
        # late enough that the CFL step exceeds the damping bound
        late = self.solver.make_state(1e5, self.state.f, self.state.f_t,
                                      theta=10.0, theta_t=0.0)
        cap = damping_step(late.theta, late.theta_t)
        assert cap == radial_module.DAMPING_BOUND
        assert self.solver.h / sound_speed(self.solver, late.theta) > 2.0 * cap
        assert self.solver.step(late, cap).time == late.time + cap
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
        dy = np.zeros(2 * n)
        dy[n // 2] = -2.0 / dt
        hook_stages(monkeypatch, self.solver,
                    lambda law, *views: write_derivative(dy, *views))
        with pytest.raises(DegenerateProfileError,
                           match=f"1 \\+ f nonpositive at node {n // 2}"):
            march(self.solver, *packed(self.state), dt)

    def advance_keeps_input(self, dt, raises=None, match=None):
        # run keeps z as the last accepted state, so no stage may write it,
        # nor the state's own arrays
        z, th, tht = packed(self.state)
        before = z.copy()
        if raises is None:
            assert not np.array_equal(march(self.solver, z, th, tht, dt)[0], z)
            self.solver.step(self.state, dt)
        else:
            with pytest.raises(raises, match=match):
                march(self.solver, z, th, tht, dt)
            with pytest.raises(raises, match=match):
                self.solver.step(self.state, dt)
        assert_array_equal(z, before)
        assert_array_equal(np.concatenate([self.state.f, self.state.f_t]), before)
        assert (self.state.theta, self.state.theta_t) == (th, tht)

    def test_advance_keeps_input_on_success(self):
        self.advance_keeps_input(1e-3)

    @pytest.mark.parametrize("bound", ["positive", "CFL", "damping"])
    def test_step_checks_dt_before_advancing(self, monkeypatch, bound):
        # step rejects a nonpositive dt before it marches, and a dt above a
        # bound once the march has taken the bound instead; either way the
        # state is left as it was
        late = self.solver.make_state(1e5, self.state.f, self.state.f_t,
                                      theta=10.0, theta_t=0.0)
        state, dt = {
            "positive": (self.state, 0.0),
            "CFL": (self.state, 2.0 * self.solver.h / sound_speed(self.solver, 1.0)),
            "damping": (late, 1.01 * radial_module.DAMPING_BOUND)}[bound]
        z, th, tht = packed(state)
        calls, original = [], self.solver._march

        def counted(*args):
            calls.append(args[3:])
            return original(*args)

        monkeypatch.setattr(self.solver, "_march", counted)
        with pytest.raises(ValueError, match=bound):
            self.solver.step(state, dt)
        assert calls == ([] if bound == "positive" else [(dt, 1.0)])
        assert_array_equal(np.concatenate([state.f, state.f_t]), z)
        assert (state.theta, state.theta_t) == (th, tht)

    @pytest.mark.parametrize("theta,theta_t,binding", [
        (1.0, 0.2, "CFL"), (10.0, 0.0, "damping")], ids=["t0", "late"])
    def test_march_returns_the_dt_it_took(self, theta, theta_t, binding):
        # dt is rest where rest is smallest, else the binding bound, bit for
        # bit the test-local formulas
        state = self.solver.make_state(1.0, self.state.f, self.state.f_t,
                                       theta=theta, theta_t=theta_t)
        bounds = {"CFL": 0.3 * self.solver.h / sound_speed(self.solver, theta),
                  "damping": damping_step(theta, theta_t)}
        bound = bounds[binding]
        assert bound == min(bounds.values()) < max(bounds.values())
        for rest in (0.5 * bound, bound, np.nextafter(bound, 0.0),
                     np.nextafter(bound, math.inf), 2.0 * bound, math.inf):
            dt = self.solver._march(*packed(state), float(rest), 0.3)[3]
            assert dt == (rest if rest <= bound else bound)

    def test_advance_keeps_input_on_stage_degeneracy(self, monkeypatch):
        # the first stage sees f = 0; the second, at f = -2 psi, is degenerate
        dt = 1e-3
        psi = poly_profile(self.solver, amplitude=1.0)
        self.state = self.solver.make_state(0.0, np.zeros(32), -4.0 / dt * psi)
        calls = []

        def counted(law, *views):
            calls.append(1)
            law()

        hook_stages(monkeypatch, self.solver, counted)
        self.advance_keeps_input(dt, DegenerateProfileError,
                                 "jacobian nonpositive")
        # the march's second stage fails, and so does step's
        assert len(calls) == 4

    def test_advance_keeps_input_on_nonfinite_result(self, monkeypatch):
        def stage(law, f, ft, ftt):
            ftt[:] = np.nan

        hook_stages(monkeypatch, self.solver, stage)
        self.advance_keeps_input(1e-3, FloatingPointError, "non-finite")

    def test_between_step_calls_leave_trajectory_unchanged(self):
        # internal_energy, mass and time_derivatives run the force in the
        # scratch W the stages use; nothing in W outlives a call
        def trajectory(between):
            state = self.solver.make_state(0.0, self.state.f, 0.5 * self.state.f)
            states = []
            for _ in range(20):
                state = self.solver.step(state, 1e-2)
                if between:
                    self.solver.internal_energy(state.f)
                    self.solver.mass(state)
                    self.solver.time_derivatives(state)
                states.append(np.concatenate([state.f, state.f_t,
                                              [state.theta, state.theta_t]]))
            return np.array(states)

        assert_array_equal(trajectory(True), trajectory(False))

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

    @pytest.mark.parametrize("resolution,gamma", [
        *((n, g) for n in (32, 64, 256) for g in (5.0 / 3.0, 2.0)),
        *(pytest.param(n, 4.0 / 3.0, marks=pytest.mark.xfail(strict=True, reason=(
            "the default cfl 0.3 is past RK4's stable range at gamma = 4/3 on "
            "coarse grids: w h/cs reads 14.05 at 32 cells and 10.81 at 64, "
            "so cfl w h/cs exceeds W_STABLE, and a gamma = 4/3 run (t_end 10, "
            "12 records, J_max 0) stops degenerate after 10 and 16 steps; "
            "128 cells completes")))
          for n in (32, 64)),
        (128, 4.0 / 3.0), (256, 4.0 / 3.0)])
    def test_stiffest_mode_inside_the_stable_range(self, gamma, resolution):
        # f_tt = -theta^{1-3g} K f at f = 0; w = sqrt(max eig K) scales
        # with the sound speed, so w h/cs is the same at every theta
        solver = RadialSolver(gamma, resolution=resolution)
        zero = np.zeros(resolution)
        stiffness = np.column_stack(
            [solver._hess_apply(zero, e) for e in np.eye(resolution)])
        stiffness += np.eye(resolution) / (3.0 * gamma - 1.0)
        omega = math.sqrt(np.linalg.eigvals(stiffness).real.max())
        ratio = omega * solver.h / sound_speed(solver, 1.0)
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
        poison_force_after_first_record(monkeypatch)
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0,
                        amplitude=1e-3, records=4, J_max=0,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "nonfinite"
        assert res.steps > 0 and res.final_state.time == res.times[-1] > 0.0
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
        ("report_angles", (8,), r"report_angles must be two integers, got \(8,\)"),
        ("report_angles", (8, 8, 8),
         r"report_angles must be two integers, got \(8, 8, 8\)"),
        ("report_angles", 8, "report_angles must be two integers, got 8"),
        ("velocity_amplitude", math.nan, "velocity_amplitude must be finite"),
        ("velocity_amplitude", -math.inf, "velocity_amplitude must be finite"),
        # neither monitor could trip
        ("eps0", math.inf, "eps0 must be positive and finite, got inf"),
        # a nan exponent failed later as "profile arrays must be finite"
        ("family_exponent", math.nan, "family_exponent must be an integer, got nan"),
        ("family_exponent", 2.5, "family_exponent must be an integer, got 2.5"),
        ("family_exponent", True, "family_exponent must be an integer, got True"),
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
        dt = min(cfg.cfl * solver.h / sound_speed(solver, state.theta),
                 damping_step(state.theta, state.theta_t), rest)
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


def assert_states_match(got, want):
    # the packed run and the step replay both step f itself, so they agree
    # float for float
    assert (got.time, got.theta, got.theta_t) == (want.time, want.theta,
                                                  want.theta_t)
    assert_array_equal(got.f, want.f)
    assert_array_equal(got.f_t, want.f_t)


def poison_force_after_first_record(monkeypatch):
    """Each solver's force reads NaN once its second time_derivatives call,
    the record after t = 0, returns: A2, which the force reads and no
    profile check does, is overwritten with NaN in place."""
    original = RadialSolver.time_derivatives
    calls = {}

    def poisoning(self, state):
        out = original(self, state)
        calls[self] = calls.get(self, 0) + 1
        if calls[self] == 2:
            self._A2.setflags(write=True)
            self._A2[:] = np.nan
        return out

    monkeypatch.setattr(RadialSolver, "time_derivatives", poisoning)


def counted_walks(monkeypatch):
    """The record counts of run's separated report walks, in order."""
    walks = []
    original = radial_module.radial_energy_functionals

    def counted(fields, times, *args, **kwargs):
        walks.append(len(times))
        return original(fields, times, *args, **kwargs)

    monkeypatch.setattr(radial_module, "radial_energy_functionals", counted)
    return walks


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
        assert_states_match(res.final_state, last)
        for got, want in zip(seen, records, strict=True):
            assert_states_match(got, want)

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
        poison_force_after_first_record(monkeypatch)
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0,
                        amplitude=1e-3, records=4, J_max=0,
                        report_angles=(4, 4))
        res = run(cfg)
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
        assert res.dt_max <= cfg.cfl * solver.h / sound_speed(
            solver, res.final_state.theta)

    def test_degenerate_record_stops_degenerate(self):
        # a step cut to land on the second record keeps 1 + f > 0 but ends
        # with J <= 0, which the record's force is the first to see
        cfg = RunConfig(gamma=2.0, family="bump", amplitude=0.0,
                        velocity_amplitude=-20.0, resolution=32, t_end=0.05,
                        records=3, J_max=0, truncation=Truncation(0, 0),
                        report_angles=(4, 4), eps0=1e9)
        res = run(cfg)
        assert res.stop_reason == "degenerate"
        # the last accepted state is the run's final state, and it is not
        # reported
        last = res.final_state
        assert res.steps > 0 and res.times.size == len(res.reports) == 2
        assert last.time == record_grid(cfg)[1] > res.times[-1]
        assert (1.0 + last.f).min() > 0.0
        solver = RadialSolver(cfg.gamma, resolution=cfg.resolution)
        with pytest.raises(DegenerateProfileError, match="jacobian nonpositive"):
            solver.make_state(last.time, last.f, last.f_t, last.theta, last.theta_t)

    def test_no_step_no_dt_range(self):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=50.0,
                        amplitude=1e-3, records=10, J_max=1, eps0=1e-5,
                        report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "monitor_E"
        assert res.steps == 0
        assert res.dt_min is None and res.dt_max is None


def per_record_run(cfg):
    """run with one separated report per record, each record's monitors
    checked before the march goes on, then the 3D reports of the first and
    last records: the reference for the chunked reports.  Returns (times,
    radii, reports, mass errors, steps, dt_min, dt_max, stop reason, final
    state)."""
    solver = RadialSolver(cfg.gamma, cfg.mass, cfg.resolution)
    grid = BallGrid(solver.constants, n_r=cfg.resolution,
                    n_mu=cfg.report_angles[0], n_psi=cfg.report_angles[1],
                    radial_scheme="midpoint")
    fields = norms.SeparatedFields(grid)
    psi = profile_family(cfg, solver.s, solver.constants.r0)
    state = solver.make_state(0.0, cfg.amplitude * psi,
                              cfg.velocity_amplitude * psi)
    times, radii, reports, mass_err, derivs = [], [], [], [], []
    sup = 0.0

    def record(st):
        nonlocal sup
        derivs.append(solver.time_derivatives(st))
        rep, = norms.radial_energy_functionals(
            fields, [st.time], cfg.gamma, derivs[-1:], J_max=cfg.J_max,
            truncation=cfg.truncation)
        times.append(st.time)
        radii.append(st.theta * (1.0 + solver.boundary_value(st.f))
                     * solver.constants.r0)
        reports.append(rep)
        mass_err.append(abs(solver.mass(st) - cfg.mass) / cfg.mass)
        sup = max(sup, rep.E_total)
        if rep.E_total > cfg.eps0**2:
            return "monitor_E"
        if math.log1p(st.time) ** 2 * sup > cfg.eps0**2:
            return "monitor_logE"
        return None

    reason = record(state)
    n, (z, th, tht), t = solver.n, packed(state), state.time
    steps, dts = 0, []
    for target in record_grid(cfg):
        while reason is None and t < target:
            rest = target - t
            try:
                z, th, tht, dt = solver._march(z, th, tht, rest, cfg.cfl)
            except DegenerateProfileError:
                reason = "degenerate"
            except FloatingPointError:
                reason = "nonfinite"
            else:
                t = target if dt == rest else t + dt
                steps += 1
                dts.append(dt)
        if reason is not None:
            break
        state = RadialState(t, z[:n], z[n:], th, tht)
        try:
            reason = record(state)
        except DegenerateProfileError:
            reason = "degenerate"
    for i in sorted({0, len(reports) - 1}):
        traj = norms.CallableTrajectory(grid, tuple(
            (lambda _, pos, p=p: p[:, None, None] * pos) for p in derivs[i]))
        reports[i] = norms.energy_functionals(
            traj, times[i], cfg.gamma, J_max=cfg.J_max,
            truncation=cfg.truncation)
    final = state if state.time == t else RadialState(t, z[:n], z[n:], th, tht)
    return (times, radii, reports, mass_err, steps, min(dts, default=None),
            max(dts, default=None), reason or "completed", final)


# E trips at record 4, inside the first chunk after record 0
E_TRIP = RunConfig(gamma=GAMMA, resolution=32, t_end=50.0, amplitude=1e-3,
                   records=30, J_max=2, eps0=0.016, report_angles=(4, 4))


class TestChunkedReports:
    """run reports record 0 alone and the later records in chunks of
    REPORT_CHUNK, one separated walk each, and scans the monitors
    afterwards."""

    @pytest.mark.parametrize("cfg,reason,past", [
        (E_TRIP, "monitor_E", True),
        # the log-weighted sup trips at record 37, inside the third chunk;
        # the sup reported before it already trips it there, so the chunk
        # closes at the trip and no record past it is marched
        (RunConfig(gamma=GAMMA, resolution=32, t_end=200.0, amplitude=1e-3,
                   records=40, J_max=1, eps0=5e-3, report_angles=(4, 4)),
         "monitor_logE", False),
    ], ids=["monitor_E", "monitor_logE"])
    def test_mid_chunk_trip_matches_per_record_run(self, monkeypatch, cfg,
                                                   reason, past):
        seen = recorded_states(monkeypatch)
        res = run(cfg)
        monkeypatch.undo()
        (times, radii, reports, mass_err, steps, dt_min, dt_max, want_reason,
         final) = per_record_run(cfg)
        assert res.stop_reason == want_reason == reason
        # the trip is not a full chunk's last record
        assert (res.records - 1) % radial_module.REPORT_CHUNK != 0
        assert (len(seen) > res.records) == past
        assert res.records == len(reports) > 1
        assert_array_equal(res.times, times)
        assert_array_equal(res.radii, radii)
        assert res.reports == tuple(reports)
        assert_array_equal(res.mass_error, mass_err)
        assert res.sup_energy == max(rep.E_total for rep in reports)
        assert (res.steps, res.dt_min, res.dt_max) == (steps, dt_min, dt_max)
        assert_states_match(res.final_state, final)
        # min_jacobian reads the reported records' states only
        solver = RadialSolver(cfg.gamma, resolution=cfg.resolution)
        assert res.min_jacobian == min(
            solver._pq(st.f)[2].min() for st in seen[:res.records])

    def test_trip_before_a_nonfinite_stop_wins(self, monkeypatch):
        # E trips at record 1, t = 0.01; the run marches on to the poisoned
        # force's non-finite step before it reports, but stops as monitor_E
        # at record 1
        poison_force_after_first_record(monkeypatch)
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0, amplitude=1e-3,
                        records=4, J_max=2, eps0=5e-3, report_angles=(4, 4))
        seen = recorded_states(monkeypatch)
        res = run(cfg)
        assert len(seen) == 2
        times, _, reports, _, steps, _, _, reason, final = per_record_run(cfg)
        assert res.stop_reason == reason == "monitor_E"
        assert res.steps == steps > 0
        assert res.reports == tuple(reports) and res.records == 2
        assert_states_match(res.final_state, final)

    @pytest.mark.parametrize("records", [15, 16, 17, 40])
    def test_one_walk_per_chunk(self, monkeypatch, records):
        walks = counted_walks(monkeypatch)
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0, amplitude=1e-3,
                        records=records, J_max=0, report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "completed"
        assert res.records == len(res.reports) == records + 1
        chunk = radial_module.REPORT_CHUNK
        assert len(walks) == 1 + -(-records // chunk)
        assert walks[:-1] == [1] + [chunk] * (len(walks) - 2)
        assert sum(walks) == records + 1

    def test_trip_at_the_initial_data_takes_no_step(self, monkeypatch):
        seen = recorded_states(monkeypatch)
        walks = counted_walks(monkeypatch)
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0, amplitude=1e-3,
                        records=20, J_max=0, eps0=1e-5, report_angles=(4, 4))
        res = run(cfg)
        assert res.stop_reason == "monitor_E"
        assert len(seen) == res.records == 1 and walks == [1]
        assert res.steps == 0 and res.dt_min is None

    @pytest.mark.parametrize("bad,reason", [(6, "monitor_E"), (2, None)],
                             ids=["after_trip", "before_trip"])
    def test_degenerate_walk_after_a_trip(self, monkeypatch, bad, reason):
        # the separated deformation of record bad and later is degenerate:
        # a trip at an earlier record still ends the run as in the
        # per-record reference, and a degenerate record before any trip
        # raises there, as a run reporting each record would
        seen = recorded_states(monkeypatch)
        original = radial_module.radial_energy_functionals
        t_bad = record_grid(E_TRIP)[bad - 1]

        def degenerate_late(fields, times, *args, **kwargs):
            if max(times) >= t_bad:
                raise DegenerateDeformationError("planted")
            return original(fields, times, *args, **kwargs)

        monkeypatch.setattr(radial_module, "radial_energy_functionals",
                            degenerate_late)
        walks = counted_walks(monkeypatch)
        if reason is None:
            with pytest.raises(DegenerateDeformationError, match="planted"):
                run(E_TRIP)
            assert walks[-1] == 1 and len(walks) == 2 + bad
            return
        res = run(E_TRIP)
        monkeypatch.undo()
        (times, radii, reports, mass_err, steps, dt_min, dt_max, want_reason,
         final) = per_record_run(E_TRIP)
        assert res.stop_reason == want_reason == reason
        assert len(seen) > bad >= res.records == len(reports)
        # record 0, the failed chunk, then one walk per record to the trip
        assert walks == [1, radial_module.REPORT_CHUNK] + [1] * (
            res.records - 1)
        assert_array_equal(res.times, times)
        assert_array_equal(res.radii, radii)
        assert res.reports == tuple(reports)
        assert_array_equal(res.mass_error, mass_err)
        assert (res.steps, res.dt_min, res.dt_max) == (steps, dt_min, dt_max)
        assert_states_match(res.final_state, final)

    def test_only_kept_records_are_measured(self, monkeypatch):
        # E_TRIP marches past its trip before the scan reaches it; only the
        # records the scan keeps get a mass
        seen = recorded_states(monkeypatch)
        masses = []
        original = RadialSolver.mass

        def counted(self, state, jac=None):
            masses.append(state.time)
            return original(self, state, jac)

        monkeypatch.setattr(RadialSolver, "mass", counted)
        res = run(E_TRIP)
        assert len(seen) > res.records
        assert masses == res.times.tolist()

    def test_telemetry_reads_the_records(self, monkeypatch):
        cfg = RunConfig(gamma=GAMMA, resolution=32, t_end=5.0, amplitude=0.3,
                        records=8, J_max=0, eps0=10.0, report_angles=(4, 4))
        seen = recorded_states(monkeypatch)
        res = run(cfg)
        solver = RadialSolver(GAMMA, resolution=32)
        jac = [solver._pq(st.f)[2].min() for st in seen]
        assert res.records == len(seen) == cfg.records + 1
        assert res.min_jacobian == min(jac) < 1.0
        assert type(res.min_jacobian) is float


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
        (np.linspace(0, 100, 50), np.append(np.ones(49), np.nan), "finite"),
        (np.append(np.linspace(0, 100, 49), np.inf), np.ones(50), "finite"),
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
