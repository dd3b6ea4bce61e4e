"""Tests for weighted norms, inequality checks, and energy functionals."""

import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vel import cli, norms, radial
from vel.geometry import (BallGrid, DegenerateDeformationError,
                          ScalarField, VectorField, deformation, flow_ops)
from vel.params import GasParams, derive_constants

CONSTANTS = derive_constants(GasParams(gamma=2.0, mass=1.0))
EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0
GRID = BallGrid(CONSTANTS, n_r=12, n_mu=10, n_psi=12)


def dilation_trajectory(grid, eps=0.01, orders=4):
    """omega = eps e^{-t} y with all time derivatives in closed form."""
    funcs = tuple(
        (lambda q: lambda t, y: (-1.0) ** q * eps * np.exp(-t) * y)(q)
        for q in range(orders)
    )
    return norms.CallableTrajectory(grid, funcs)


def radial_trajectory(grid):
    """Spherically symmetric non-dilation family f(t, s) y."""

    def base(t, y):
        s2 = np.sum(y * y, axis=0)
        return 0.02 * np.exp(-0.3 * t) * np.cos(s2) * y

    funcs = (base,
             lambda t, y: -0.3 * base(t, y),
             lambda t, y: 0.09 * base(t, y),
             lambda t, y: -0.027 * base(t, y))
    return norms.CallableTrajectory(grid, funcs)


def generic_trajectory(grid):
    def w0(t, y):
        return 0.02 * np.stack([np.sin(y[1]) + t * y[0], y[2] * y[0],
                                np.cos(y[0]) - y[1] * t])

    def w1(t, y):
        return 0.02 * np.stack([y[0], np.zeros_like(y[0]), -y[1]])

    def zero(t, y):
        return np.zeros_like(y)

    return norms.CallableTrajectory(grid, (w0, w1, zero, zero))


class TestWeightedL2:
    # integrals of sigma^k |f|^2 with the grid's own sigma and quadrature
    def test_volume(self):
        vol = 4.0 / 3.0 * np.pi * GRID.r0**3
        assert_allclose(GRID.integrate(np.ones(GRID.shape)), vol, rtol=1e-12)

    def test_linear_weight_closed_form(self):
        c = CONSTANTS
        exact = 4.0 * np.pi * (c.a_bar * c.r0**3 / 3.0 - c.b_bar * c.r0**5 / 5.0)
        assert_allclose(GRID.integrate(GRID.sigma), exact, rtol=1e-12)

    def test_zero_field(self):
        assert GRID.integrate(GRID.sigma * np.zeros(GRID.shape)) == 0.0

    def test_vector_moment(self):
        c = CONSTANTS
        density = np.sum(GRID.y**2, axis=0)
        exact = 4.0 * np.pi * (c.a_bar * c.r0**5 / 5.0 - c.b_bar * c.r0**7 / 7.0)
        assert_allclose(GRID.integrate(GRID.sigma * density), exact, rtol=1e-12)

    def test_quadratic_homogeneity(self):
        f = GRID.y[0] + 0.3 * GRID.sigma
        assert_allclose(GRID.integrate(GRID.sigma * (2.0 * f) ** 2),
                        4.0 * GRID.integrate(GRID.sigma * f**2), rtol=1e-12)


class TestHardy:
    def test_constant_profile(self):
        rep = norms.hardy_check(lambda r: 1.0, 0.0, 1.0)
        assert_allclose(rep.lhs, 1.0, rtol=1e-10)
        assert_allclose(rep.rhs, 1.0 / 3.0, rtol=1e-10)
        assert_allclose(rep.ratio, 3.0, rtol=1e-10)
        assert rep.passed

    def test_linear_profile(self):
        rep = norms.hardy_check(lambda r: 1.0 - r, 0.0, 1.0)
        assert_allclose(rep.lhs, 1.0 / 3.0, rtol=1e-10)
        assert_allclose(rep.rhs, 11.0 / 30.0, rtol=1e-10)
        assert_allclose(rep.ratio, 10.0 / 11.0, rtol=1e-10)

    def test_numeric_derivative_matches_exact(self):
        # f = e^r is not a polynomial, so the finite-difference f' is not
        # exact; in closed form lhs = rhs = (e^2 - 1)/2
        rep = norms.hardy_check(math.exp, 0.0, 1.0)
        assert_allclose([rep.lhs, rep.rhs], 0.5 * math.expm1(2.0), rtol=1e-10)
        assert_allclose(rep.ratio, 1.0, rtol=1e-10)

    def test_boundary_spike(self):
        rep = norms.hardy_check(
            lambda r: math.exp(-(((r - 0.9) / 0.02) ** 2)), 0.0, 1.0)
        assert math.isfinite(rep.ratio)
        assert rep.ratio < 1.0

    def test_configured_constant(self):
        assert norms.hardy_check(lambda r: 1.0, 0.0, 1.0, constant=3.001).passed
        assert not norms.hardy_check(lambda r: 1.0, 0.0, 1.0, constant=2.9).passed

    @pytest.mark.parametrize("k", [0.0, CONSTANTS.iota, CONSTANTS.iota + 1.0])
    def test_random_smooth_family(self, k):
        rng = np.random.default_rng(int(10 * k) + 7)
        worst = 0.0
        for _ in range(20):
            a, b, c, d = rng.normal(size=4)
            f = lambda r: a * math.cos(b * r) + c * r**2 + d
            rep = norms.hardy_check(f, k, GRID.r0)
            assert rep.passed
            worst = max(worst, rep.ratio)
        assert math.isfinite(worst)

    def test_validation(self):
        with pytest.raises(ValueError, match="exceed -1"):
            norms.hardy_check(lambda r: 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            norms.hardy_check(lambda r: 1.0, 0.0, 0.0)

    def test_nonfinite_inputs_rejected(self):
        # an infinite weight read ratio 0.0 and passed; an infinite interval
        # ran quad to infinity
        with pytest.raises(ValueError, match="weight exponent must exceed -1 "
                           "and be finite, got inf"):
            norms.hardy_check(lambda r: 1.0, math.inf, 1.0)
        with pytest.raises(ValueError, match="weight exponent"):
            norms.hardy_check(lambda r: 1.0, math.nan, 1.0)
        with pytest.raises(ValueError, match="interval length must be "
                           "positive and finite, got inf"):
            norms.hardy_check(lambda r: 1.0, 0.0, math.inf)
        with pytest.raises(ValueError, match="interval length"):
            norms.hardy_check(lambda r: 1.0, 0.0, math.nan)


class TestEmbedding:
    def test_constant(self):
        one = ScalarField(GRID, np.ones(GRID.shape))
        rep = norms.embedding_check(one, 2.0, 1)
        assert rep.s == 0.0
        assert math.isfinite(rep.ratio)
        assert rep.ratio > 0.0

    def test_profile_weight(self):
        sig = ScalarField(GRID, GRID.sigma)
        rep = norms.embedding_check(sig, 2.0, 1)
        assert math.isfinite(rep.ratio)

    def test_fractional_order(self):
        sig = ScalarField(GRID, GRID.sigma)
        rep = norms.embedding_check(sig, 1.0, 2)
        assert rep.s == 1.5
        assert math.isfinite(rep.ratio)

    def test_oscillatory_family_bounded(self):
        ratios = []
        for n in (1, 3, 5, 9):
            vals = np.cos(n * GRID.s)[:, None, None] * np.ones(GRID.shape)
            ratios.append(norms.embedding_check(ScalarField(GRID, vals),
                                                2.0, 2).ratio)
        assert max(ratios) < 2.0
        # higher frequency shifts mass to high orders: the weighted side wins
        assert ratios == sorted(ratios, reverse=True)

    def test_zero_field(self):
        zero = ScalarField(GRID, np.zeros(GRID.shape))
        assert norms.embedding_check(zero, 2.0, 1).ratio == 0.0

    def test_validation(self):
        one = ScalarField(GRID, np.ones(GRID.shape))
        with pytest.raises(ValueError, match="nonnegative"):
            norms.embedding_check(one, -1.0, 1)
        with pytest.raises(ValueError, match="capped"):
            norms.embedding_check(one, 0.0, 5)
        with pytest.raises(ValueError, match="negative"):
            norms.embedding_check(one, 6.0, 2)
        with pytest.raises(ValueError, match="integer"):
            norms.embedding_check(one, 0.0, 1.5)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_nonfinite_weight_rejected(self, a):
        one = ScalarField(GRID, np.ones(GRID.shape))
        with pytest.raises(ValueError, match="weight power must be "
                           f"nonnegative and finite, got {a}"):
            norms.embedding_check(one, a, 1)

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_nonfinite_order_rejected(self, b):
        one = ScalarField(GRID, np.ones(GRID.shape))
        with pytest.raises(ValueError, match="derivative order must be an "
                           f"integer, got {b}"):
            norms.embedding_check(one, 0.0, b)


class TestTrajectory:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            norms.CallableTrajectory(GRID, ())

    def test_order_range(self):
        traj = dilation_trajectory(GRID, orders=2)
        assert traj.max_time_order == 1
        traj.time_derivative(0.0, 1)
        with pytest.raises(ValueError, match="not available"):
            traj.time_derivative(0.0, 2)


class TestEnergyEj:
    def test_zero_trajectory(self):
        traj = norms.CallableTrajectory(
            GRID, tuple(lambda t, y: np.zeros_like(y) for _ in range(4)))
        for j in range(3):
            assert norms.energy_Ej(traj, j, 1.0) == 0.0

    def test_dilation_closed_form(self):
        eps, t = 0.01, 0.7
        traj = dilation_trajectory(GRID, eps=eps)
        c = CONSTANTS
        m1 = 4.0 * np.pi * (c.a_bar * c.r0**5 / 5.0 - c.b_bar * c.r0**7 / 7.0)
        m2 = 4.0 * np.pi * (c.a_bar**2 * c.r0**3 / 3.0
                            - 2.0 * c.a_bar * c.b_bar * c.r0**5 / 5.0
                            + c.b_bar**2 * c.r0**7 / 7.0)
        exact = eps**2 * np.exp(-2.0 * t) * ((1.0 + t) * m1 + m1 + 3.0 * m2)
        assert_allclose(norms.energy_Ej(traj, 0, t), exact, rtol=1e-10)

    def test_quadratic_scaling(self):
        t = 0.4
        small = dilation_trajectory(GRID, eps=0.01)
        double = dilation_trajectory(GRID, eps=0.02)
        for j in range(3):
            assert_allclose(norms.energy_Ej(double, j, t),
                            4.0 * norms.energy_Ej(small, j, t), rtol=1e-12)

    def test_insufficient_time_orders(self):
        traj = dilation_trajectory(GRID, orders=2)
        with pytest.raises(ValueError, match="time derivative"):
            norms.energy_Ej(traj, 1, 0.0)

    def test_truncation_cap(self):
        traj = dilation_trajectory(GRID)
        with pytest.raises(ValueError, match="truncation"):
            norms.energy_Ej(traj, 3, 0.0)
        with pytest.raises(ValueError,
                           match="energy order must be at least 0, got -1"):
            norms.energy_Ej(traj, -1, 0.0)

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            norms.Truncation(m_max=-1)
        with pytest.raises(ValueError, match="capability"):
            norms.Truncation(nl_max=4)
        assert norms.Truncation(nl_max=3).nl_max == 3

    @pytest.mark.parametrize("field, value", [
        ("m_max", 0.5), ("nl_max", 1.5), ("m_max", True), ("nl_max", -1)])
    def test_truncation_orders_are_integers(self, field, value):
        # a float order reached run as an unlabelled TypeError from range()
        with pytest.raises(ValueError, match=f"{field} must be"):
            norms.Truncation(**{field: value})


class TestEnergyFunctionals:
    def test_zero_trajectory(self):
        traj = norms.CallableTrajectory(
            GRID, tuple(lambda t, y: np.zeros_like(y) for _ in range(4)))
        rep = norms.energy_functionals(traj, 0.5, 2.0)
        assert rep.E_total == 0.0
        assert rep.V_add == 0.0
        assert all(v == 0.0 for v in rep.scriptV)
        assert rep.M0_integral == 0.0
        assert rep.curl_l2 == 0.0

    def test_matches_energy_Ej(self):
        traj = dilation_trajectory(GRID)
        rep = norms.energy_functionals(traj, 0.7, 2.0)
        for j in range(3):
            assert_allclose(rep.E_j[j], norms.energy_Ej(traj, j, 0.7),
                            rtol=1e-13)
        assert_allclose(rep.E_total, sum(rep.E_j), rtol=1e-13)
        assert all(rep.E_total >= e for e in rep.E_j)

    def test_omega_differentiated_once(self, monkeypatch):
        # the string walk's root reuses the deformation state's grad_omega
        traj = generic_trajectory(GRID)
        omega = traj.time_derivative(0.3, 0).values
        seen = []
        original = BallGrid.partials

        def spy(self, vals):
            seen.append(np.array_equal(vals, omega))
            return original(self, vals)

        monkeypatch.setattr(BallGrid, "partials", spy)
        norms.energy_functionals(traj, 0.3, 2.0)
        assert seen.count(True) == 1 and len(seen) > 1

    def test_entries_nonnegative(self):
        rep = norms.energy_functionals(generic_trajectory(GRID), 0.3, 2.0)
        assert all(v >= 0.0 for v in rep.E_j)
        assert all(v >= 0.0 for v in rep.frakE.values())
        assert all(v >= 0.0 for v in rep.frakD.values())
        assert all(v >= 0.0 for v in rep.frakV.values())
        assert all(v >= 0.0 for v in rep.scriptV)
        assert rep.V_add >= 0.0

    def test_dissipation_below_energy(self):
        rep = norms.energy_functionals(generic_trajectory(GRID), 0.3, 2.0)
        for key, e_val in rep.frakE.items():
            assert rep.frakD[key] <= e_val + 1e-18

    @pytest.mark.parametrize("factory", [dilation_trajectory,
                                         generic_trajectory])
    def test_flow_energy_equivalence(self, factory):
        # small-deformation regime: flow-map and flat energies agree
        # within a factor of 4 orderwise
        traj = factory(GRID)
        rep = norms.energy_functionals(traj, 0.3, 2.0)
        for j in range(3):
            frak_j = sum(v for k, v in rep.frakE.items() if sum(k) == j)
            ratio = frak_j / rep.E_j[j]
            assert 0.25 <= ratio <= 4.0

    @pytest.mark.parametrize("factory", [dilation_trajectory,
                                         radial_trajectory])
    def test_spherical_symmetry_kills_curl(self, factory):
        traj = factory(GRID)
        rep = norms.energy_functionals(traj, 0.4, 2.0)
        assert rep.E_total > 0.0
        assert rep.V_add <= 1e-20
        assert all(v <= 1e-20 for v in rep.scriptV)
        assert rep.curl_l2 <= 1e-20

    def test_generic_field_has_vorticity(self):
        rep = norms.energy_functionals(generic_trajectory(GRID), 0.3, 2.0)
        assert rep.V_add > 1e-8
        assert rep.scriptV[0] > 1e-10

    def test_truncation_stamped(self):
        short = norms.CallableTrajectory(
            GRID, (lambda t, y: 0.01 * y, lambda t, y: np.zeros_like(y)))
        rep = norms.energy_functionals(short, 0.0, 2.0)
        assert rep.truncation == norms.Truncation()
        assert (1, 0, 0) in rep.truncated
        assert (2, 0, 0) in rep.truncated
        # retained orders are still evaluated
        assert rep.E_j[0] > 0.0

    def test_tight_truncation(self):
        traj = dilation_trajectory(GRID)
        rep = norms.energy_functionals(
            traj, 0.2, 2.0, truncation=norms.Truncation(m_max=0, nl_max=1))
        assert (1, 0, 0) in rep.truncated
        assert (0, 2, 0) in rep.truncated
        assert (0, 0, 0) in rep.frakE
        assert (0, 1, 0) in rep.frakE


# ---------------------------------------------------------------------------
# naive oracle: every derivative string rebuilt from scratch, per summand


def _naive_strings(grid, vec, n, l):
    fields = [vec]
    for _ in range(l):
        nxt = []
        for f in fields:
            for d in range(3):
                j, k = (d + 1) % 3, (d + 2) % 3
                out = np.empty_like(f)
                for i in range(3):
                    p = grid.partials(f[i])
                    out[i] = grid.y[j] * p[k] - grid.y[k] * p[j]
                nxt.append(out)
        fields = nxt
    for _ in range(n):
        nxt = []
        for f in fields:
            p = np.stack([grid.partials(f[i]) for i in range(3)])
            nxt.extend(p[:, k] for k in range(3))
        fields = nxt
    return fields


def _naive_density(grid, vec, n, l):
    dens = np.zeros(grid.shape)
    for f in _naive_strings(grid, vec, n, l):
        dens += np.einsum("i...,i...->...", f, f)
    return dens


def _naive_curl(grid, vec):
    p = np.stack([grid.partials(vec[i]) for i in range(3)])
    return np.einsum("ijk,kj...->i...", EPS, p)


def naive_report(traj, t, gamma, J_max, tr):
    """energy_functionals evaluated string by string."""
    grid = traj.grid
    iota = grid.constants.iota
    sig = grid.sigma
    opt = 1.0 + t
    omega = traj.time_derivative(t, 0)
    state = deformation(omega)

    def w(q):
        return traj.time_derivative(t, q).values

    def integral(n, dens):
        return grid.integrate(sig ** (iota + n) * dens)

    E_j, scriptV, frakE, frakD, frakV, dropped = [], [], {}, {}, {}, []
    for j in range(J_max + 1):
        ej = vk = 0.0
        for m, n, l in norms._triples(j):
            if m > tr.m_max or n + l > tr.nl_max or m + 1 > traj.max_time_order:
                dropped.append((m, n, l))
                continue
            term_i = opt ** (2 * m + 1) * integral(
                n, _naive_density(grid, w(m + 1), n, l))
            term_ii = opt ** (2 * m) * (
                integral(n, _naive_density(grid, w(m), n, l))
                + integral(n + 1, _naive_density(grid, w(m), n + 1, l)))
            ej += term_i + term_ii
            sums = [np.zeros(grid.shape) for _ in range(5)]
            for piece in _naive_strings(grid, w(m), n, l):
                G, div_eta, curl_eta = flow_ops(state, VectorField(grid, piece))
                c = _naive_curl(grid, piece)
                for acc, term in zip(sums, (
                        np.einsum("i...,i...->...", piece, piece),
                        np.einsum("ir...,ir...->...", G, G), div_eta**2,
                        np.einsum("i...,i...->...", curl_eta, curl_eta),
                        np.einsum("i...,i...->...", c, c))):
                    acc += term
            base_sq, grad_sq, div_sq, curl_sq, then_sq = sums
            e_one = opt ** (2 * m) * (
                integral(n, base_sq) + integral(n + 1, grad_sq)
                + integral(n + 1, div_sq) / iota)
            frakE[(m, n, l)] = term_i + e_one
            frakD[(m, n, l)] = term_i + e_one / opt
            frakV[(m, n, l)] = opt ** (2 * m) * integral(n + 1, curl_sq)
            v_after = opt ** (2 * m) * integral(n + 1, then_sq)
            v_before = opt ** (2 * m) * integral(
                n + 1, _naive_density(grid, _naive_curl(grid, w(m)), n, l))
            vk += min(v_after, v_before)
        E_j.append(ej)
        scriptV.append(vk)

    v_add = 0.0
    for m in range(min(1, tr.m_max) + 1):
        if m > traj.max_time_order:
            continue
        _, _, curl_eta = flow_ops(state, VectorField(grid, w(m)))
        for total in range(tr.nl_max + 1):
            for n in range(total + 1):
                v_add += opt ** (2 * m) * integral(
                    n + 1, _naive_density(grid, curl_eta, n, total - n))

    m0 = norms._m0_pointwise(gamma, state)[0]
    _, _, curl_omega = flow_ops(state, omega)
    return norms.EnergyReport(
        t=t, gamma=gamma, J_max=J_max, truncation=tr,
        E_j=tuple(E_j), E_total=float(sum(E_j)),
        frakE=frakE, frakD=frakD, frakV=frakV,
        V_add=float(v_add), scriptV=tuple(scriptV),
        M0_integral=float(integral(1.0, m0)),
        curl_l2=float(integral(1.0, np.einsum("i...,i...->...",
                                               curl_omega, curl_omega))),
        truncated=tuple(dict.fromkeys(dropped)),
    )


def swirl_trajectory(grid, orders=4):
    """Non-radial family with generic values in every component and order,
    so that reordering any sum changes its rounding."""

    def field(y):
        return np.stack([np.sin(y[1] + 0.3 * y[2]) * np.cos(0.7 * y[0]),
                         y[0] * y[2] * np.cos(y[1]) + np.sin(y[2]),
                         np.cos(y[0] + y[1]) * np.exp(0.2 * y[2])])

    funcs = tuple(
        (lambda q: lambda t, y: 0.01 * (-0.5) ** q * np.exp(-0.5 * t) * field(y))(q)
        for q in range(orders)
    )
    return norms.CallableTrajectory(grid, funcs)


class TestStringWalk:
    # the 2-order trajectory walks its first time derivative for V_add only
    @pytest.mark.parametrize("J_max,truncation,orders", [
        (2, norms.Truncation(), 4),
        (3, norms.Truncation(2, 2), 4),
        (2, norms.Truncation(), 2),
    ])
    def test_report_matches_naive_oracle_exactly(self, J_max, truncation,
                                                 orders):
        traj = swirl_trajectory(GRID, orders)
        rep = norms.energy_functionals(traj, 0.3, 2.0, J_max=J_max,
                                       truncation=truncation)
        oracle = naive_report(traj, 0.3, 2.0, J_max, truncation)
        assert rep.curl_l2 > 0.0 and rep.V_add > 0.0
        assert bool(rep.truncated) == (J_max == 3 or orders < 4)
        for name in norms.EnergyReport.__dataclass_fields__:
            assert getattr(rep, name) == getattr(oracle, name), name
        assert list(rep.frakE) == list(oracle.frakE)

    def test_partials_calls_per_report(self, monkeypatch):
        grid = BallGrid(CONSTANTS, n_r=16, n_mu=6, n_psi=6,
                        radial_scheme="midpoint")
        traj = swirl_trajectory(grid)
        assert traj.max_time_order == 3
        calls = []
        original = BallGrid.partials

        def counted(self, vals):
            calls.append(1)
            return original(self, vals)

        monkeypatch.setattr(BallGrid, "partials", counted)
        norms.energy_functionals(traj, 0.3, 2.0, J_max=2)
        assert 0 < len(calls) <= 330


# ---------------------------------------------------------------------------
# separated reports of radial fields against the node-array walk


ENERGY_FIELDS = ("E_j", "E_total", "frakE", "frakD", "M0_integral")
CURL_FIELDS = ("frakV", "scriptV", "V_add", "curl_l2")


def _entries(rep, name):
    val = getattr(rep, name)
    if isinstance(val, dict):
        return list(val.items())
    if isinstance(val, tuple):
        return list(enumerate(val))
    return [(None, val)]


def radial_profiles(grid, amplitude=1e-3):
    """Four time derivatives of a smooth even profile, all different and
    nonzero (f_t != 0), sampled on the grid's radial nodes."""
    x2 = (grid.s / grid.constants.r0) ** 2
    shape = (1.0 - x2) ** 2 * (1.0 + 0.3 * np.cos(2.0 * x2))
    return tuple(amplitude * c * shape * (1.0 + 0.1 * q * x2)
                 for q, c in enumerate((1.0, -0.4, 0.25, -0.1)))


def separated(grid, t, gamma, profiles, **kwargs):
    """The one-record separated report."""
    return norms.radial_energy_functionals(norms.SeparatedFields(grid), [t],
                                           gamma, [profiles], **kwargs)[0]


def frozen(grid, profiles):
    return norms.CallableTrajectory(grid, tuple(
        (lambda t, y, p=p: p[:, None, None] * y) for p in profiles))


class TestSeparatedReport:
    # every J_max 0-3, truncation (1,1), (2,2), (2,3), angular grid 4x4,
    # 6x6, 8x8 and both cell counts appear; J_max 3 with nl_max 3 reaches
    # four radial differences, at 64 and 256 cells
    @pytest.mark.parametrize("n_r,angles,J_max,truncation", [
        (48, (4, 4), 0, norms.Truncation(1, 1)),
        (64, (6, 6), 1, norms.Truncation(1, 1)),
        (48, (8, 8), 2, norms.Truncation(2, 2)),
        (64, (8, 8), 2, norms.Truncation(2, 2)),
        (64, (4, 4), 3, norms.Truncation(2, 2)),
        (48, (6, 6), 2, norms.Truncation(2, 3)),
        (64, (6, 6), 1, norms.Truncation(2, 3)),
        (48, (8, 8), 3, norms.Truncation(1, 1)),
        (64, (6, 6), 3, norms.Truncation(2, 3)),
        (256, (4, 4), 3, norms.Truncation(2, 3)),
    ])
    def test_agrees_with_grid_report(self, n_r, angles, J_max, truncation):
        grid = BallGrid(CONSTANTS, n_r=n_r, n_mu=angles[0], n_psi=angles[1],
                        radial_scheme="midpoint")
        profiles = radial_profiles(grid)
        full = norms.energy_functionals(frozen(grid, profiles), 2.5, 2.0,
                                        J_max=J_max, truncation=truncation)
        sep = separated(grid, 2.5, 2.0, profiles, J_max=J_max,
                        truncation=truncation)
        assert full.E_total > 0.0 and full.M0_integral > 0.0
        assert sep.truncated == full.truncated
        assert list(sep.frakE) == list(full.frakE)
        for name in ENERGY_FIELDS:
            for (key, a), (_, b) in zip(_entries(sep, name),
                                        _entries(full, name)):
                assert abs(a - b) <= 1e-12 * abs(b), (name, key)
        for name in CURL_FIELDS:
            for (key, a), (_, b) in zip(_entries(sep, name),
                                        _entries(full, name)):
                assert abs(a - b) <= 1e-12 * full.E_total, (name, key)
        assert norms.report_defect(sep, full) <= 1e-12

    def test_deep_strings_keep_node_level_rounding(self):
        # four radial differences hold terms of size h^-4 near the center
        # that cancel: squared through the angular Gram matrix they drifted
        # 1e-10 per ulp of input at 64 cells, summed through R they drift
        # at round-off like the node arrays
        grid = BallGrid(CONSTANTS, n_r=64, n_mu=6, n_psi=6,
                        radial_scheme="midpoint")
        profiles = radial_profiles(grid)
        rng = np.random.default_rng(3)
        nudged = tuple(p * (1.0 + 2.2e-16 * rng.standard_normal(p.size))
                       for p in profiles)
        tr = norms.Truncation(2, 3)
        base = separated(grid, 2.5, 2.0, profiles, J_max=3, truncation=tr)
        moved = separated(grid, 2.5, 2.0, nudged, J_max=3, truncation=tr)
        assert norms.report_defect(moved, base) <= 1e-13

    def test_tall_qr_in_blocks(self, monkeypatch):
        # at the CLI defaults every factorization stays within _QR_SIZE
        # entries, and the report matches one made from one-shot R factors
        grid = BallGrid(CONSTANTS, n_r=64, n_mu=8, n_psi=8,
                        radial_scheme="midpoint")
        profiles = radial_profiles(grid)
        qr = np.linalg.qr
        sizes = []

        def record(a, mode="reduced"):
            sizes.append(a.shape[-2] * a.shape[-1])
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", record)
        blocked = separated(grid, 1.0, 2.0, profiles, J_max=2)
        assert max(sizes) <= norms._QR_SIZE
        sizes.clear()
        monkeypatch.setattr(norms, "_tall_qr_r",
                            lambda a: np.linalg.qr(a, mode="r"))
        one_shot = separated(grid, 1.0, 2.0, profiles, J_max=2)
        assert max(sizes) > 4 * norms._QR_SIZE
        for name in ENERGY_FIELDS:
            for (key, a), (_, b) in zip(_entries(blocked, name),
                                        _entries(one_shot, name)):
                assert abs(a - b) <= 1e-14 * abs(b), (name, key)

    def test_zero_profiles_give_zero_report(self):
        grid = BallGrid(CONSTANTS, n_r=48, n_mu=4, n_psi=4,
                        radial_scheme="midpoint")
        zero = tuple(np.zeros(48) for _ in range(4))
        sep = separated(grid, 0.0, 2.0, zero)
        full = norms.energy_functionals(frozen(grid, zero), 0.0, 2.0)
        assert sep.E_total == 0.0 and sep.M0_integral == 0.0
        assert norms.report_defect(sep, full) == 0.0

    def test_repeat_reports_identical(self):
        # the second report reuses the angular factors the first built
        grid = BallGrid(CONSTANTS, n_r=48, n_mu=6, n_psi=6,
                        radial_scheme="midpoint")
        profiles = radial_profiles(grid)
        fields = norms.SeparatedFields(grid)
        first, = norms.radial_energy_functionals(fields, [1.0], 2.0,
                                                 [profiles])
        second, = norms.radial_energy_functionals(fields, [1.0], 2.0,
                                                  [profiles])
        for name in norms.EnergyReport.__dataclass_fields__:
            assert getattr(first, name) == getattr(second, name), name

    def test_no_partials_calls(self, monkeypatch):
        grid = BallGrid(CONSTANTS, n_r=48, n_mu=6, n_psi=6,
                        radial_scheme="midpoint")

        def refuse(self, vals):
            raise AssertionError("separated report took 3D partials")

        monkeypatch.setattr(BallGrid, "partials", refuse)
        rep = separated(grid, 1.0, 2.0, radial_profiles(grid))
        assert rep.E_total > 0.0

    def test_degenerate_profile_rejected(self):
        grid = BallGrid(CONSTANTS, n_r=48, n_mu=4, n_psi=4,
                        radial_scheme="midpoint")
        folded = tuple(np.full(48, -1.5) for _ in range(4))
        with pytest.raises(DegenerateDeformationError):
            separated(grid, 0.0, 2.0, folded)

    @pytest.mark.parametrize("n_r,angles,J_max,truncation", [
        (32, (4, 4), 0, norms.Truncation(2, 2)),
        (64, (6, 6), 1, norms.Truncation(2, 2)),
        (32, (6, 6), 2, norms.Truncation(1, 1)),
        (64, (8, 8), 2, norms.Truncation(2, 2)),
    ])
    def test_batched_records_match_single_records(self, n_r, angles, J_max,
                                                  truncation):
        # one walk over R records reports each bit for bit as its own walk
        grid = BallGrid(CONSTANTS, n_r=n_r, n_mu=angles[0], n_psi=angles[1],
                        radial_scheme="midpoint")
        times = [0.0, 0.37, 2.5, 11.0, 140.0]
        profiles = [radial_profiles(grid, amplitude=a)
                    for a in (1e-3, -4e-4, 2e-3, 5e-5, 8e-4)]
        batched = norms.radial_energy_functionals(
            norms.SeparatedFields(grid), times, 2.0, profiles, J_max=J_max,
            truncation=truncation)
        fields = norms.SeparatedFields(grid)
        assert len(batched) == len(times)
        for t, prof, got in zip(times, profiles, batched):
            want, = norms.radial_energy_functionals(
                fields, [t], 2.0, [prof], J_max=J_max, truncation=truncation)
            assert got.t == t
            for name in norms.EnergyReport.__dataclass_fields__:
                a, b = getattr(got, name), getattr(want, name)
                if isinstance(a, dict):
                    assert list(a) == list(b), name
                    a, b = list(a.values()), list(b.values())
                assert np.array_equal(a, b), name
        # the drop-summands case is among them
        assert (truncation.nl_max < J_max) == bool(batched[0].truncated)

    def test_defect_sees_a_moved_entry(self):
        grid = BallGrid(CONSTANTS, n_r=48, n_mu=4, n_psi=4,
                        radial_scheme="midpoint")
        rep = separated(grid, 1.0, 2.0, radial_profiles(grid))
        assert norms.report_defect(rep, rep) == 0.0
        frakD = dict(rep.frakD)
        frakD[(0, 0, 1)] *= 1.0 + 1e-9
        moved = dataclasses.replace(rep, frakD=frakD)
        assert 5e-10 <= norms.report_defect(moved, rep) <= 2e-9
        curl = dataclasses.replace(rep, V_add=1e-9 * rep.E_total)
        assert norms.report_defect(curl, rep) >= 9e-10
        assert norms.report_defect(
            rep, dataclasses.replace(rep, J_max=1)) == math.inf

    def test_M0_integral_counts_against_E_total(self):
        # the remainder M0_integral is measured on the energy's scale: a
        # disagreement of 1e-10 E_total is 1e-10, above the 1e-12 budget
        grid = BallGrid(CONSTANTS, n_r=48, n_mu=4, n_psi=4,
                        radial_scheme="midpoint")
        rep = separated(grid, 1.0, 2.0, radial_profiles(grid))
        moved = dataclasses.replace(
            rep, M0_integral=rep.M0_integral + 1e-10 * rep.E_total)
        assert norms.report_defect(moved, rep) == pytest.approx(1e-10,
                                                                rel=1e-3)
        assert norms.report_defect(moved, rep) > 1e-12


class TestM0E0:
    def test_zero_state(self):
        st = deformation(VectorField(GRID, np.zeros((3, *GRID.shape))))
        rep = norms.M0_e0(st, 2.0)
        assert np.abs(rep.M0).max() == 0.0
        assert np.abs(rep.e0).max() == 0.0
        assert rep.passed

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 5.0 / 3.0, 2.0])
    def test_dilation_closed_form(self, gamma):
        delta = 0.03
        st = deformation(VectorField(GRID, delta * GRID.y))
        rep = norms.M0_e0(st, gamma)
        J = (1.0 + delta) ** 3
        m0 = (J ** (1.0 - gamma) - 1.0) / (gamma - 1.0) + 3.0 * delta
        assert_allclose(rep.M0, m0, rtol=1e-11)
        assert rep.decomposition_defect <= 1e-12
        # remainder is cubic in the dilation size
        assert np.abs(rep.e0).max() < 20.0 * delta**3

    def test_gamma_two_remainder_closed_form(self):
        delta = 0.05
        st = deformation(VectorField(GRID, delta * GRID.y))
        rep = norms.M0_e0(st, 2.0)
        J = (1.0 + delta) ** 3
        jm1 = J - 1.0
        e0 = -jm1**3 / J + (jm1**2 - 9.0 * delta**2) - delta**3
        assert_allclose(rep.e0, e0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_sandwich_margins(self, seed):
        rng = np.random.default_rng(seed)
        coef = rng.normal(size=(3, 7))
        y = GRID.y
        vals = np.stack([
            coef[i, 0] * y[0] + coef[i, 1] * y[1] + coef[i, 2] * y[2]
            + coef[i, 3] * y[0] * y[1] + coef[i, 4] * np.sin(y[2])
            + coef[i, 5] * y[1] ** 2 + coef[i, 6] * np.cos(y[0])
            for i in range(3)
        ])
        X = np.stack([GRID.partials(vals[i]) for i in range(3)])
        fro = np.sqrt(np.einsum("ik...,ik...->...", X, X)).max()
        st = deformation(VectorField(GRID, vals * (0.05 / fro)))
        rep = norms.M0_e0(st, 2.0)
        assert rep.passed
        assert rep.lower_margin >= -1e-13
        assert rep.upper_margin >= -1e-13
        assert rep.regime_fraction == 1.0

    def test_out_of_regime_flagged_not_failed(self):
        st = deformation(VectorField(GRID, 0.52 * GRID.y))
        rep = norms.M0_e0(st, 2.0)
        assert not rep.in_regime
        assert rep.regime_fraction == 0.0
        assert math.isnan(rep.lower_margin)
        assert rep.passed

    def test_gamma_validated(self):
        st = deformation(VectorField(GRID, np.zeros((3, *GRID.shape))))
        with pytest.raises(ValueError, match="gamma"):
            norms.M0_e0(st, 1.0)


class TestZerothBalance:
    def test_static_zero(self):
        ts = np.linspace(0.0, 2.0, 41)
        z = np.zeros(41)
        th = (1.0 + ts) ** 0.2
        tht = 0.2 * (1.0 + ts) ** -0.8
        rep = norms.zeroth_energy_balance(2.0, ts, z, z, th, tht)
        assert rep.max_defect == 0.0

    def test_exact_solution_refinement(self):
        # K = e^{-2t}, theta = (1+t)^{1/5}: the bracket balance holds with
        # P = 1 - 0.4 (1 - e^{-2t}), so the defect is pure stencil error
        g, p = 2.0, 0.2
        defects = []
        for n in (41, 81, 161, 321):
            ts = np.linspace(0.0, 2.0, n)
            kin = np.exp(-2.0 * ts)
            pot = 1.0 - 0.4 * (1.0 - np.exp(-2.0 * ts))
            th = (1.0 + ts) ** p
            tht = p * (1.0 + ts) ** (p - 1.0)
            rep = norms.zeroth_energy_balance(g, ts, kin, pot, th, tht)
            defects.append(rep.max_defect)
        assert defects[-1] < 2e-8
        slope = np.polyfit(np.log([40, 80, 160, 320]), np.log(defects), 1)[0]
        assert slope < -3.5

    def test_violation_detected(self):
        ts = np.linspace(0.0, 2.0, 81)
        kin = np.exp(-2.0 * ts)
        pot = np.ones_like(ts)
        th = (1.0 + ts) ** 0.2
        tht = 0.2 * (1.0 + ts) ** -0.8
        rep = norms.zeroth_energy_balance(2.0, ts, kin, pot, th, tht)
        assert rep.max_defect > 1e-2

    def test_validation(self):
        ts = np.linspace(0.0, 1.0, 21)
        z = np.zeros(21)
        th = np.ones(21)
        with pytest.raises(ValueError, match="uniform"):
            norms.zeroth_energy_balance(2.0, ts**2, z, z, th, z)
        with pytest.raises(ValueError, match="at least 5"):
            norms.zeroth_energy_balance(2.0, ts[:4], z[:4], z[:4], th[:4], z[:4])
        with pytest.raises(ValueError, match="positive"):
            norms.zeroth_energy_balance(2.0, ts, z, z, 0.0 * th, z)
        with pytest.raises(ValueError, match="shape"):
            norms.zeroth_energy_balance(2.0, ts, z[:-1], z, th, z)
        with pytest.raises(ValueError, match="gamma"):
            norms.zeroth_energy_balance(0.5, ts, z, z, th, z)


class TestReportSerialization:
    def test_json(self, tmp_path):
        # the reports `vel radial --format json` writes on a light grid: the
        # initial state and two records
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "grid": {"resolution": 32, "n_mu": 4, "n_psi": 4},
            "ode": {"t_end": 1.0},
            "output": {"records": 2, "directory": str(tmp_path),
                       "format": "json"},
        }), encoding="utf-8")
        cli.main(["radial", "--config", str(config)])
        reports = radial.run(
            cli._run_config(cli.parse_config(str(config)))).reports
        payload = json.loads(
            (tmp_path / "radial_reports.json").read_text(encoding="utf-8"))
        assert len(payload) == len(reports) == 3
        entry = payload[0]
        assert entry["truncation"] == {"m_max": 2, "nl_max": 2}
        assert "0,0,0" in entry["frakE"]
        assert "1,0,1" in entry["frakV"]
        assert entry["E_total"] == pytest.approx(reports[0].E_total)
