"""Tests for the ball-grid field calculus and deformation algebra."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vel import geometry as geo
from vel.params import GasParams, derive_constants

CONSTANTS = derive_constants(GasParams(gamma=2.0, mass=1.0))
SCHEMES = ("gauss", "midpoint")

EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


def make_grid(n_r=12, n_mu=10, n_psi=12, scheme="gauss"):
    return geo.BallGrid(CONSTANTS, n_r=n_r, n_mu=n_mu, n_psi=n_psi,
                        radial_scheme=scheme)


def smooth_displacement(grid, seed, target=0.09):
    """Random smooth displacement rescaled so max |grad omega| ~= target."""
    rng = np.random.default_rng(seed)
    y = grid.y
    coef = rng.normal(size=(3, 10))
    vals = np.stack([
        coef[i, 0] + coef[i, 1] * y[0] + coef[i, 2] * y[1] + coef[i, 3] * y[2]
        + coef[i, 4] * y[0] * y[1] + coef[i, 5] * y[1] * y[2]
        + coef[i, 6] * y[0] * y[2] + coef[i, 7] * np.sin(y[0])
        + coef[i, 8] * np.cos(y[1]) + coef[i, 9] * y[2] ** 2
        for i in range(3)
    ])
    w = geo.VectorField(grid, vals)
    X = geo.gradient(w)
    fro = np.sqrt(np.einsum("ij...,ij...->...", X, X)).max()
    return geo.VectorField(grid, vals * (target / fro))


class TestBallGrid:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_weights_positive_and_sum_to_volume(self, scheme):
        grid = make_grid(scheme=scheme)
        assert np.all(grid.weights > 0.0)
        volume = 4.0 / 3.0 * np.pi * grid.r0**3
        assert abs(grid.weights.sum() - volume) <= 1e-10 * volume

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_open_grid(self, scheme):
        grid = make_grid(scheme=scheme)
        assert np.all(grid.s > 0.0)
        assert np.all(grid.s < grid.r0)
        assert np.all(grid.sigma > 0.0)

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError, match="coarse"):
            make_grid(n_r=3, scheme="gauss")
        with pytest.raises(ValueError, match="coarse"):
            make_grid(n_r=6, scheme="midpoint")
        with pytest.raises(ValueError, match="coarse"):
            make_grid(n_psi=9)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            make_grid(scheme="spectral")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_quadrature_moments(self, scheme):
        grid = make_grid(scheme=scheme)
        r2 = np.sum(grid.y**2, axis=0)
        assert_allclose(grid.integrate(r2), 4.0 * np.pi * grid.r0**5 / 5.0,
                        rtol=1e-10)
        assert abs(grid.integrate(grid.y[0])) < 1e-12

    def test_integrate_shape_guard(self):
        grid = make_grid()
        with pytest.raises(ValueError):
            grid.integrate(np.zeros((2, 2)))


class TestFields:
    def test_shape_validation(self):
        grid = make_grid()
        with pytest.raises(ValueError):
            geo.ScalarField(grid, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            geo.VectorField(grid, np.zeros(grid.shape))

    def test_finiteness_validation(self):
        grid = make_grid()
        bad = np.zeros(grid.shape)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            geo.ScalarField(grid, bad)

    def test_values_immutable(self):
        grid = make_grid()
        f = geo.ScalarField(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0


class TestGradient:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_constant(self, scheme):
        grid = make_grid(scheme=scheme)
        g = geo.gradient(geo.ScalarField(grid, 2.5 * np.ones(grid.shape)))
        assert np.abs(g).max() < 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_coordinate(self, scheme):
        grid = make_grid(scheme=scheme)
        g = geo.gradient(geo.ScalarField(grid, grid.y[0]))
        assert np.abs(g[0] - 1.0).max() < 1e-12
        assert np.abs(g[1]).max() < 1e-12
        assert np.abs(g[2]).max() < 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_radius_squared(self, scheme):
        grid = make_grid(scheme=scheme)
        g = geo.gradient(geo.ScalarField(grid, np.sum(grid.y**2, axis=0)))
        assert np.abs(g - 2.0 * grid.y).max() < 1e-10

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_mixed_polynomial(self, scheme):
        grid = make_grid(scheme=scheme)
        y1, y2, y3 = grid.y
        f = geo.ScalarField(grid, y1**2 * y3 - 2 * y2 * y3**2 + y1 * y2 * y3)
        g = geo.gradient(f)
        gx = np.array([2 * y1 * y3 + y2 * y3, -2 * y3**2 + y1 * y3,
                       y1**2 - 4 * y2 * y3 + y1 * y2])
        assert np.abs(g - gx).max() < 1e-11

    def test_vector_gradient_layout(self):
        grid = make_grid()
        y1, y2, y3 = grid.y
        F = geo.VectorField(grid, np.stack([y2, y3, y1]))
        X = geo.gradient(F)
        # X[i, j] = d_j F^i
        assert_allclose(X[0, 1], np.ones(grid.shape), atol=1e-12)
        assert_allclose(X[1, 2], np.ones(grid.shape), atol=1e-12)
        assert_allclose(X[2, 0], np.ones(grid.shape), atol=1e-12)
        assert np.abs(X[0, 0]).max() < 1e-12

    def test_smooth_spectral_accuracy(self):
        grid = make_grid(n_r=16, n_mu=16, n_psi=32)
        y1, y2, y3 = grid.y
        f = geo.ScalarField(grid, np.sin(y1) * np.cos(y2) * np.exp(0.5 * y3))
        g = geo.gradient(f)
        gx = np.array([
            np.cos(y1) * np.cos(y2) * np.exp(0.5 * y3),
            -np.sin(y1) * np.sin(y2) * np.exp(0.5 * y3),
            0.5 * np.sin(y1) * np.cos(y2) * np.exp(0.5 * y3),
        ])
        assert np.abs(g - gx).max() < 1e-8

    def test_smooth_fourth_order_radial(self):
        errs = []
        for n in (16, 32, 64):
            grid = make_grid(n_r=n, n_mu=8, n_psi=8, scheme="midpoint")
            y1, y2, y3 = grid.y
            f = y1**2 * y3 + np.cos(y3) + np.exp(y2 / 3.0)
            gx = np.array([2 * y1 * y3, np.exp(y2 / 3.0) / 3.0,
                           y1**2 - np.sin(y3)])
            dfs_exact = np.einsum("i...,i...->...", grid._yhat[:, None], gx)
            errs.append(np.abs(grid._ds(f) - dfs_exact).max())
        assert errs[0] / errs[1] > 12.0
        assert errs[1] / errs[2] > 12.0

    @pytest.mark.parametrize("n_r", [8, 64, 256])
    def test_rim_rows_are_the_exact_rationals(self, n_r):
        grid = make_grid(n_r=n_r, n_mu=4, n_psi=4, scheme="midpoint")
        h = grid.r0 / n_r
        exact = np.array([[-1.0, 6.0, -18.0, 10.0, 3.0],
                          [3.0, -16.0, 36.0, -48.0, 25.0]]) / (12.0 * h)
        assert np.array_equal(grid._side_rows, exact)
        # the rows differentiate quartics exactly at the last two nodes
        s = grid.s[-5:]
        for k in range(5):
            want = k * s[-2:] ** (k - 1) if k else np.zeros(2)
            assert_allclose(grid._side_rows @ s**k, want,
                            rtol=1e-9, atol=1e-9 * n_r)


def reference_dpsi(grid, vals):
    """The psi derivative by FFT, mode m times i, the Nyquist mode to 0."""
    n_psi = grid.shape[2]
    modes = np.fft.rfftfreq(n_psi, d=1.0 / n_psi)
    F = np.fft.rfft(vals, axis=-1)
    return np.fft.irfft(1j * modes * F, n=n_psi, axis=-1)


def reference_dphi(grid, vals):
    """The phi derivative per FFT mode: even psi-modes are polynomials in mu,
    odd ones carry one factor of sin(phi)."""
    n_psi = grid.shape[2]
    Dmu = geo._legendre_diffmat(grid.mu, grid.w_mu)
    even = np.fft.rfftfreq(n_psi, d=1.0 / n_psi).astype(int) % 2 == 0
    F = np.fft.rfft(vals, axis=-1)
    out = np.empty_like(F)
    mu, sphi = grid.mu[:, None], grid._sphi[:, None]
    out[..., even] = -sphi * np.einsum("ij,...jm->...im", Dmu, F[..., even])
    P = F[..., ~even] / sphi
    out[..., ~even] = mu * P - (1.0 - mu**2) * np.einsum(
        "ij,...jm->...im", Dmu, P)
    return np.fft.irfft(out, n=n_psi, axis=-1)


ANGLES = [(4, 4), (8, 8), (10, 12), (12, 16), (24, 24)]


class TestAngularOperators:
    """The matrix operators _dpsi and _dphi against the FFT route."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("angles", ANGLES, ids=lambda a: "%dx%d" % a)
    @pytest.mark.parametrize("batch", ["3", "3x3", "separated"])
    def test_match_fft_reference(self, scheme, angles, batch):
        grid = make_grid(8, *angles, scheme=scheme)
        # SeparatedFields differentiates angular factors of shape
        # (K, S, 3, 1, n_mu, n_psi)
        shape = {"3": (3, *grid.shape), "3x3": (3, 3, *grid.shape),
                 "separated": (2, 5, 3, 1, *angles)}[batch]
        vals = np.random.default_rng(sum(angles)).normal(size=shape)
        for op, ref in ((grid._dpsi, reference_dpsi),
                        (grid._dphi, reference_dphi)):
            want = ref(grid, vals)
            assert np.abs(op(vals) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n_psi", [4, 8, 12, 16, 24])
    def test_dpsi_exact_on_fourier_modes(self, n_psi):
        grid = make_grid(8, 4, n_psi)
        psi = np.broadcast_to(grid.psi, grid.shape)
        for m in range(1, n_psi // 2):
            assert np.abs(grid._dpsi(np.cos(m * psi))
                          + m * np.sin(m * psi)).max() <= 1e-13
            assert np.abs(grid._dpsi(np.sin(m * psi))
                          - m * np.cos(m * psi)).max() <= 1e-13

    @pytest.mark.parametrize("n_psi", [4, 6, 8, 10, 12, 16, 24, 32])
    def test_dpsi_kernel_is_exactly_zero(self, n_psi):
        grid = make_grid(8, 6, n_psi)
        nyquist = np.cos(0.5 * n_psi * np.broadcast_to(grid.psi, grid.shape))
        flat = np.random.default_rng(n_psi).normal(size=(3, 8, 6, 1))
        assert np.all(grid._dpsi(nyquist) == 0.0)
        assert np.all(grid._dpsi(np.broadcast_to(flat, (3, *grid.shape)))
                      == 0.0)

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 24])
    def test_fourier_diffmat_entries(self, n):
        D = geo._fourier_diffmat(n)
        lag = np.subtract.outer(np.arange(n), np.arange(n)) % n
        assert np.all(D[lag == n // 2] == 0.0)
        assert np.all(np.diag(D) == 0.0)
        assert np.array_equal(D, -D.T)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_odd_half_vanishes_on_psi_independent_fields(self, scheme):
        # f - Rf is exactly 0, so any odd block gives the same bits
        grid = make_grid(scheme=scheme)
        other = make_grid(scheme=scheme)
        n_mu = grid.shape[1]
        rng = np.random.default_rng(7)
        other._Dphi = grid._Dphi.copy()
        other._Dphi[:, n_mu:] = rng.normal(size=(n_mu, n_mu))
        vals = np.broadcast_to(rng.normal(size=(3, *grid.shape[:2], 1)),
                               (3, *grid.shape))
        got = grid._dphi(vals)
        assert np.array_equal(got, other._dphi(vals))
        assert_allclose(got, reference_dphi(grid, vals), rtol=0,
                        atol=1e-14 * np.abs(got).max())


def reference_partials(grid, vals):
    """partials as three directional derivatives (radial, phi, psi) stacked
    and rotated into Cartesian components by one einsum over the frame."""
    s = grid.s[:, None, None]
    parts = np.stack([grid._ds(vals), grid._dphi(vals) / s,
                      grid._dpsi(vals) / (s * grid._sphi[None, :, None])],
                     axis=-4)
    frame = np.stack([grid._yhat, grid._that_phi, grid._that_psi], axis=1)
    return np.einsum("kcmp,...crmp->...krmp", frame, parts)


class TestPartialsOperator:
    """partials' one (3, M, M) angular matrix against the directional
    derivatives it regroups."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("angles", ANGLES, ids=lambda a: "%dx%d" % a)
    @pytest.mark.parametrize("batch", [(), (3, 3)], ids=["scalar", "3x3"])
    def test_matches_directional_reference(self, scheme, angles, batch):
        grid = make_grid(8, *angles, scheme=scheme)
        vals = np.random.default_rng(sum(angles)).normal(
            size=(*batch, *grid.shape))
        want = reference_partials(grid, vals)
        got = grid.partials(vals)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_operator_built_on_first_call(self):
        grid = make_grid()
        assert grid._angular_op is None
        grid.partials(np.zeros(grid.shape))
        n_mu, n_psi = grid.shape[1:]
        assert grid._angular_op.shape == (3, n_mu * n_psi, n_mu * n_psi)


def signed_zeros(rng, shape):
    """Normal draws with about a third +0 and a third -0."""
    x = rng.normal(size=shape)
    pick = rng.integers(0, 3, size=shape)
    x[pick == 1] = 0.0
    x[pick == 2] = -0.0
    return x


class TestCurl:
    # equal bit for bit but for the sign of a zero: a component whose two
    # entries are -0 and +0 is -0 as a difference and +0 as the einsum's
    # sum; every consumer squares the curl or takes its absolute value
    @pytest.mark.parametrize("batch", [(), (5,), (4, 6, 8)])
    def test_equals_levi_civita_einsum(self, batch):
        X = signed_zeros(np.random.default_rng(len(batch)), (3, 3, *batch))
        got = geo._curl(X)
        want = np.einsum("ijk,kj...->i...", EPS, X)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestAngularDerivative:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_annihilates_radial_functions(self, scheme):
        grid = make_grid(scheme=scheme)
        r2 = geo.ScalarField(grid, np.sum(grid.y**2, axis=0))
        sig = geo.ScalarField(grid, grid.sigma)
        for i in range(3):
            assert np.abs(geo.angular_derivative(r2, i).values).max() < 1e-11
            assert np.abs(geo.angular_derivative(sig, i).values).max() < 1e-11

    def test_coordinate_case(self):
        grid = make_grid()
        f = geo.ScalarField(grid, grid.y[0])
        out = geo.angular_derivative(f, 2)
        assert_allclose(out.values, -grid.y[1], atol=1e-12)

    def test_vector_componentwise(self):
        grid = make_grid()
        F = geo.VectorField(grid, np.stack([grid.y[0], grid.sigma, grid.y[2]]))
        out = geo.angular_derivative(F, 2)
        assert_allclose(out.values[0], -grid.y[1], atol=1e-11)
        assert np.abs(out.values[1]).max() < 1e-11

    def test_direction_validated(self):
        grid = make_grid()
        f = geo.ScalarField(grid, grid.y[0])
        with pytest.raises(ValueError):
            geo.angular_derivative(f, 3)


class TestDeformation:
    def test_zero_displacement(self):
        grid = make_grid()
        st = geo.deformation(geo.VectorField(grid, np.zeros((3, *grid.shape))))
        assert_allclose(st.jacobian, np.ones(grid.shape), atol=1e-13)
        assert np.abs(st.adjugate).max() < 1e-13
        eye = geo._EYE
        assert np.abs(st.a_inv - eye).max() < 1e-13

    def test_uniform_dilation(self):
        grid = make_grid()
        st = geo.deformation(geo.VectorField(grid, 0.1 * grid.y))
        assert_allclose(st.jacobian, 1.331, rtol=1e-11)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_construction_self_checks(self, seed):
        grid = make_grid()
        st = geo.deformation(smooth_displacement(grid, seed))
        assert st.det_defect <= 1e-12
        assert st.expansion_defect <= 1e-12
        assert st.inverse_defect <= 1e-10

    def test_adjugate_times_map_is_det(self):
        grid = make_grid()
        st = geo.deformation(smooth_displacement(grid, 5))
        X = st.grad_omega
        eye = geo._EYE
        M = eye + X
        div = X[0, 0] + X[1, 1] + X[2, 2]
        adjM = (1.0 + div) * eye - X + st.adjugate
        prod = np.einsum("ik...,kj...->ij...", adjM, M)
        target = st.jacobian * eye
        assert np.abs(prod - target).max() <= 1e-12

    def test_regime_flag(self):
        grid = make_grid()
        w = smooth_displacement(grid, 3, target=0.09)
        assert geo.deformation(w).regime_ok
        w_big = geo.VectorField(grid, w.values * 3.0)
        assert not geo.deformation(w_big).regime_ok

    def test_degenerate_rejected(self):
        grid = make_grid()
        with pytest.raises(geo.DegenerateDeformationError):
            geo.deformation(geo.VectorField(grid, -1.1 * grid.y))

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_response_constants(self, seed):
        # |J - 1| <= C |grad omega| and |A - Id| <= C |grad omega|, C <= 10
        grid = make_grid(n_r=10, n_mu=8, n_psi=10)
        st = geo.deformation(smooth_displacement(grid, seed))
        X = st.grad_omega
        fro = np.sqrt(np.einsum("ij...,ij...->...", X, X))
        live = fro > 1e-8
        dJ = np.abs(st.jacobian - 1.0)
        diffA = st.a_inv - geo._EYE
        dA = np.sqrt(np.einsum("ij...,ij...->...", diffA, diffA))
        assert (dJ[live] / fro[live]).max() <= 10.0
        assert (dA[live] / fro[live]).max() <= 10.0

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_equivalence_in_regime(self, seed):
        # 0.5 |df| <= |grad_eta f| <= 2 |df| pointwise in the regime
        grid = make_grid(n_r=10, n_mu=8, n_psi=10)
        st = geo.deformation(smooth_displacement(grid, seed))
        assert st.regime_ok
        y1, y2, y3 = grid.y
        f = geo.ScalarField(grid, np.sin(y1) + y2 * y3 - 0.4 * y3**2)
        df = geo.gradient(f)
        flow_grad = np.einsum("ki...,k...->i...", st.a_inv, df)
        flat = np.sqrt(np.einsum("i...,i...->...", df, df))
        flow = np.sqrt(np.einsum("i...,i...->...", flow_grad, flow_grad))
        live = flat > 1e-12
        ratio = flow[live] / flat[live]
        assert ratio.min() >= 0.5
        assert ratio.max() <= 2.0


class TestFlowOps:
    def test_flat_limit(self):
        grid = make_grid()
        st = geo.deformation(geo.VectorField(grid, np.zeros((3, *grid.shape))))
        y1, y2, y3 = grid.y
        F = geo.VectorField(grid, np.stack([y2 * y3, y1**2, y3]))
        G, div, curl = geo.flow_ops(st, F)
        X = geo.gradient(F)
        assert np.abs(G - X).max() < 1e-12
        assert_allclose(div, X[0, 0] + X[1, 1] + X[2, 2], atol=1e-12)
        flat_curl = np.einsum("ijk,kj...->i...", EPS, X)
        assert np.abs(curl - flat_curl).max() < 1e-12

    def test_curl_of_flow_map(self):
        grid = make_grid()
        w = smooth_displacement(grid, 11)
        st = geo.deformation(w)
        eta = geo.VectorField(grid, grid.y + w.values)
        G, _, curl = geo.flow_ops(st, eta)
        assert np.abs(curl).max() < 1e-12
        eye = geo._EYE
        assert np.abs(G - eye).max() < 1e-12

    def test_curl_of_flow_gradient(self):
        grid = make_grid(n_r=16, n_mu=16, n_psi=32)
        y1, y2, y3 = grid.y
        w = geo.VectorField(
            grid,
            0.02 * np.stack([y1 * y2 + np.sin(y3), y2**2 - y3,
                             np.cos(y1) * y2]),
        )
        st = geo.deformation(w)
        g = geo.ScalarField(grid, np.sin(y1) * y2 + 0.3 * y3**2)
        dg = geo.gradient(g)
        F = geo.VectorField(grid, np.einsum("ki...,k...->i...", st.a_inv, dg))
        _, _, curl = geo.flow_ops(st, F)
        assert np.abs(curl).max() < 1e-9


class TestPiola:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_displacement(self, scheme):
        grid = make_grid(scheme=scheme)
        st = geo.deformation(geo.VectorField(grid, np.zeros((3, *grid.shape))))
        assert np.abs(geo.piola_residual(st).values).max() < 1e-10

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_quadratic_displacement_exact(self, scheme):
        grid = make_grid(scheme=scheme)
        y1, y2, y3 = grid.y
        w = geo.VectorField(grid,
                            0.05 * np.stack([y1 * y2 + y3**2, y1**2, y2 * y3]))
        st = geo.deformation(w)
        assert np.abs(geo.piola_residual(st).values).max() < 1e-10

    @pytest.mark.parametrize("gamma", [1.05, 4.0 / 3.0, 2.0, 3.0])
    def test_quadratic_displacement_exact_at_64_gauss_nodes(self, gamma):
        # the residual is pure round-off, amplified most at the innermost
        # node; the diffmat's barycentric weights must not add to it
        c = derive_constants(GasParams(gamma=gamma, mass=1.0))
        grid = geo.BallGrid(c, n_r=64, n_mu=8, n_psi=8)
        y1, y2, y3 = grid.y
        w = geo.VectorField(grid, 0.05 * np.stack([
            0.3 * y1 + 0.2 * y2 * y3 - 0.1 * y1**2,
            0.25 * y2 - 0.15 * y1 * y3 + 0.05 * y3**2,
            0.2 * y3 + 0.1 * y1 * y2 - 0.2 * y2**2]))
        st = geo.deformation(w)
        assert np.abs(geo.piola_residual(st).values).max() < 1e-10

    def test_refinement_decay(self):
        errs = []
        for n_r in (16, 32, 64):
            grid = make_grid(n_r=n_r, n_mu=16, n_psi=32, scheme="midpoint")
            y1, y2, y3 = grid.y
            w = geo.VectorField(
                grid, 0.05 * np.stack([np.sin(y1), np.sin(y2) * y3,
                                       np.cos(y3)])
            )
            errs.append(np.abs(geo.piola_residual(geo.deformation(w)).values).max())
        assert errs[0] / errs[1] > 6.0
        assert errs[1] / errs[2] > 6.0


def poly_omega(t, y):
    return 0.05 * (1.0 + 0.5 * t) * np.stack(
        [y[0] * y[1], y[2]**2 - y[0], y[1] * y[2] + y[0]]
    )


def poly_omega_t(t, y):
    return 0.025 * np.stack([y[0] * y[1], y[2]**2 - y[0], y[1] * y[2] + y[0]])


def smooth_F(t, y):
    return np.stack([np.sin(y[0]) + t * y[1], y[1] * y[2],
                     np.cos(y[2]) * (1.0 + t)])


def smooth_F_t(t, y):
    return np.stack([y[1], np.zeros_like(y[0]), np.cos(y[2])])


class TestIdentities:
    def test_exact_path_rounding_level(self):
        grid = make_grid()
        d_nabt, d_nab = geo.identity_nabt_nab(
            grid, poly_omega, poly_omega_t, smooth_F, smooth_F_t, 0.3
        )
        assert d_nabt < 1e-12
        assert d_nab < 1e-12

    def test_flat_case(self):
        grid = make_grid()

        def zero_omega(t, y):
            return np.zeros_like(y)

        d_nabt, d_nab = geo.identity_nabt_nab(
            grid, zero_omega, zero_omega, smooth_F, smooth_F_t, 0.0
        )
        assert d_nabt < 1e-12
        assert d_nab < 1e-12

    def test_flow_map_contraction_is_three(self):
        grid = make_grid()
        w = smooth_displacement(grid, 2)
        st = geo.deformation(w)
        eta = geo.VectorField(grid, grid.y + w.values)
        G, _, curl = geo.flow_ops(st, eta)
        lhs = np.einsum("ri...,ir...->...", G, G)
        rhs = np.einsum("ir...,ir...->...", G, G) - np.einsum(
            "i...,i...->...", curl, curl
        )
        assert_allclose(lhs, 3.0 * np.ones(grid.shape), atol=1e-12)
        assert_allclose(rhs, 3.0 * np.ones(grid.shape), atol=1e-12)


class TestCommutator:
    def test_empty_angular_part(self):
        grid = make_grid()
        f = geo.ScalarField(grid, grid.y[0] * grid.y[1])
        rep = geo.commutator_defect(f, (2, 0, 0), (0, 0, 0))
        assert rep.max_commutator == 0.0
        assert rep.C_fit == 0.0

    def test_base_case_values(self):
        grid = make_grid()
        # f = y_m, alpha = e_l, beta = e_i: commutator is the constant
        # -eps_{ilm}
        for i in range(3):
            for l in range(3):
                for m in range(3):
                    f = geo.ScalarField(grid, grid.y[m])
                    alpha = tuple(1 if a == l else 0 for a in range(3))
                    beta = tuple(1 if a == i else 0 for a in range(3))
                    rep = geo.commutator_defect(f, alpha, beta)
                    assert_allclose(rep.max_commutator, abs(EPS[i, l, m]),
                                    atol=1e-11)
                    if EPS[i, l, m] != 0.0:
                        assert rep.C_fit <= 1.0 + 1e-9

    def test_base_case_identity_pointwise(self):
        grid = make_grid()
        y1, y2, y3 = grid.y
        f = geo.ScalarField(grid, y1 * y2 - 0.5 * y3**2 + y2 * y3)
        g = geo.gradient(f)
        worst = 0.0
        for i in range(3):
            for l in range(3):
                lhs = (
                    geo.angular_derivative(geo.spatial_derivative(f, l), i).values
                    - geo.spatial_derivative(geo.angular_derivative(f, i), l).values
                )
                rhs = -sum(EPS[i, l, k] * g[k] for k in range(3))
                worst = max(worst, np.abs(lhs - rhs).max())
        assert worst < 1e-10

    def test_radial_function_closed_form(self):
        # For radial f the angular part of the mixed derivative drops out and
        # the commutator reduces to -eps_{ilk} d_k f exactly.
        grid = make_grid()
        f = geo.ScalarField(grid, grid.sigma**2)
        rep = geo.commutator_defect(f, (1, 0, 0), (0, 1, 0))
        b = CONSTANTS.b_bar
        expected = np.abs(4.0 * b * grid.sigma * grid.y[2]).max()
        assert_allclose(rep.max_commutator, expected, rtol=1e-9)
        assert np.isfinite(rep.C_fit)

    def test_higher_order_bound(self):
        grid = make_grid()
        y1, y2, y3 = grid.y
        f = geo.ScalarField(grid, y1**2 * y2 - y2 * y3**2 + y1 * y3)
        rep = geo.commutator_defect(f, (1, 0, 0), (0, 1, 1))
        assert rep.C_fit <= 10.0

    def test_order_cap(self):
        grid = make_grid()
        f = geo.ScalarField(grid, grid.y[0])
        with pytest.raises(ValueError, match="capped"):
            geo.commutator_defect(f, (2, 1, 0), (0, 1, 1))
