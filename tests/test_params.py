import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vel import cli, norms, params, radial, theta
from vel.geometry import (BallGrid, DegenerateDeformationError, ScalarField,
                          VectorField, commutator_defect, deformation)


def consts(gamma, mass=1.0):
    return params.derive_constants(params.GasParams(gamma=gamma, mass=mass))


class TestGasParams:
    def test_rejects_gamma_at_most_one(self):
        with pytest.raises(ValueError, match="gamma"):
            params.GasParams(gamma=1.0, mass=1.0)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="mass"):
            params.GasParams(gamma=2.0, mass=0.0)

    @pytest.mark.parametrize("gamma, mass", [
        (math.inf, 1.0), (math.nan, 1.0), (2.0, math.inf), (2.0, math.nan)])
    def test_rejects_nonfinite(self, gamma, mass):
        with pytest.raises(ValueError, match="finite"):
            params.GasParams(gamma=gamma, mass=mass)


class TestMomentIntegral:
    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 5.0 / 3.0, 2.0, 3.0])
    def test_matches_beta_function(self, gamma):
        # closed form: (1/2) B(3/2, iota+1)
        iota = 1.0 / (gamma - 1.0)
        exact = 0.5 * math.exp(
            math.lgamma(1.5) + math.lgamma(iota + 1.0) - math.lgamma(iota + 2.5)
        )
        assert_allclose(params.moment_integral(iota), exact, rtol=1e-12)

    def test_gamma_two_is_exact_fraction(self):
        # integral of y^2 (1 - y^2) dy over (0,1) = 2/15
        assert_allclose(params.moment_integral(1.0), 2.0 / 15.0, rtol=1e-15)

    @pytest.mark.parametrize("iota, exact", [
        (3.0, 16.0 / 315.0), (1.5, math.pi / 32.0), (0.5, math.pi / 16.0)])
    def test_closed_form_values(self, iota, exact):
        assert_allclose(params.moment_integral(iota), exact, rtol=1e-15)


class TestDeriveConstants:
    def test_b_bar_closed_form_gamma_two(self):
        c = consts(2.0)
        assert c.b_bar == pytest.approx(0.05, abs=0)

    def test_iota_gamma_two(self):
        assert consts(2.0).iota == 1.0

    def test_a_bar_regression_gamma_two(self):
        c = consts(2.0)
        assert_allclose(c.a_bar, 0.13481014081935863, atol=1e-12)
        assert abs(c.a_bar - 0.13482) < 1e-4

    def test_r0_consistency(self):
        c = consts(2.0)
        assert_allclose(c.r0**2 * c.b_bar, c.a_bar, rtol=1e-12)
        assert_allclose(c.r0, 1.6420118198073888, atol=1e-12)

    @pytest.mark.parametrize("gamma,mass", [(4.0 / 3.0, 1.0), (2.0, 3.0), (3.0, 2.0)])
    def test_mass_relation_holds(self, gamma, mass):
        # substituting the root back must reproduce the mass
        c = params.derive_constants(params.GasParams(gamma, mass))
        iota = c.iota
        mom = params.moment_integral(iota)
        lhs = (gamma * c.a_bar) ** ((3 * gamma - 1) / (2 * (gamma - 1)))
        rhs = mass * gamma**iota * (gamma * c.b_bar) ** 1.5 / (4 * math.pi * mom)
        assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [1.01, 1.005, 1.002, 1.001])
    def test_mass_reproduced_near_gamma_one(self, gamma):
        c = consts(gamma)
        assert_allclose(params.mass_check(c, gamma, 0.0), 1.0, rtol=1e-10)


class TestBarenblattEval:
    def test_center_density_is_a_bar_power(self):
        c = consts(2.0)
        ev = params.barenblatt_eval(c, 2.0, 0.0, np.zeros(3))
        assert_allclose(ev.density, c.a_bar**c.iota, rtol=1e-14)

    def test_boundary_density_zero(self):
        c = consts(2.0)
        ev = params.barenblatt_eval(c, 2.0, 0.0, np.array([c.r0, 0.0, 0.0]))
        assert ev.density == 0.0
        assert not ev.inside

    def test_support_doubles_at_t31_gamma2(self):
        c = consts(2.0)
        assert_allclose(params.boundary_radius(c, 2.0, 31.0), 2.0 * c.r0, rtol=1e-14)

    def test_velocity_inside(self):
        c = consts(2.0)
        x = np.array([0.3, -0.2, 0.1])
        ev = params.barenblatt_eval(c, 2.0, 4.0, x)
        assert_allclose(ev.velocity, x / (5.0 * 5.0), rtol=1e-14)

    def test_density_positive_iff_inside(self):
        c = consts(5.0 / 3.0)
        rng = np.random.default_rng(7)
        for t in (0.0, 1.0, 10.0, 100.0):
            rad = params.boundary_radius(c, 5.0 / 3.0, t)
            for _ in range(20):
                x = rng.normal(size=3) * rad
                ev = params.barenblatt_eval(c, 5.0 / 3.0, t, x)
                inside = np.linalg.norm(x) < rad
                assert ev.inside == inside
                assert (ev.density > 0.0) == inside

    def test_negative_time_rejected(self):
        c = consts(2.0)
        with pytest.raises(ValueError, match="t"):
            params.barenblatt_eval(c, 2.0, -0.5, np.zeros(3))

    @pytest.mark.parametrize("gamma", [1.005, 1.01])
    @pytest.mark.parametrize("frac", [0.5, 0.9, 0.99, 0.999])
    def test_sound_speed_near_gamma_one(self, gamma, frac):
        # c^2 = g (1+t)^(-3(g-1)/(3g-1)) profile: through rho = profile^iota
        # it would underflow to 0 at iota = 1/(g-1)
        c = consts(gamma)
        t = 1.0
        x = np.array([frac * params.boundary_radius(c, gamma, t), 0.0, 0.0])
        profile = (c.a_bar - c.b_bar * (1.0 + t) ** (-2.0 / (3.0 * gamma - 1.0))
                   * (x @ x))
        exact = (gamma * (1.0 + t) ** (-3.0 * (gamma - 1.0) / (3.0 * gamma - 1.0))
                 * profile)
        ev = params.barenblatt_eval(c, gamma, t, x)
        assert ev.inside and exact > 0.0
        assert_allclose(ev.sound_speed_sq, exact, rtol=1e-14)

    def test_sound_speed_where_the_density_underflows(self):
        c = consts(1.005)
        x = np.array([0.99 * params.boundary_radius(c, 1.005, 1.0), 0.0, 0.0])
        # rho = profile^iota underflows to 0 here, iota = 200
        ev = params.barenblatt_eval(c, 1.005, 1.0, x)
        assert ev.inside
        assert_allclose(ev.sound_speed_sq, 0.019524, rtol=1e-4)

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 2.0])
    def test_sound_speed_is_gamma_rho_power(self, gamma):
        c = consts(gamma)
        for t in (0.0, 3.0):
            rad = params.boundary_radius(c, gamma, t)
            for frac in (0.0, 0.5, 0.9, 0.99):
                ev = params.barenblatt_eval(c, gamma, t, [0.0, frac * rad, 0.0])
                assert_allclose(ev.sound_speed_sq,
                                gamma * ev.density ** (gamma - 1.0), rtol=1e-13)


class TestPmeDarcy:
    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 2.0, 3.0])
    def test_residuals_small_at_center(self, gamma):
        c = consts(gamma)
        pme, darcy = params.pme_darcy_residual(c, gamma, 1.0, np.zeros(3), 1e-3)
        assert pme < 1e-5
        assert darcy < 1e-8  # symmetry: both terms vanish at the center

    @pytest.mark.parametrize("gamma", [4.0 / 3.0, 2.0, 3.0])
    def test_second_order_convergence(self, gamma):
        c = consts(gamma)
        x = np.array([0.5 * c.r0, 0.1, -0.2])
        r1 = params.pme_darcy_residual(c, gamma, 0.0, x, 2e-3)
        r2 = params.pme_darcy_residual(c, gamma, 0.0, x, 1e-3)
        for a, b in zip(r1, r2):
            if a > 1e-12:
                assert a / b == pytest.approx(4.0, rel=0.35)

    def test_boundary_proximity_rejected(self):
        c = consts(2.0)
        x = np.array([c.r0 - 1e-4, 0.0, 0.0])
        with pytest.raises(ValueError, match="boundary"):
            params.pme_darcy_residual(c, 2.0, 0.0, x, 1e-3)


class TestMass:
    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 100.0])
    def test_gamma2_mass_conserved(self, t):
        c = consts(2.0)
        assert_allclose(params.mass_check(c, 2.0, t), 1.0, rtol=1e-8)

    def test_gamma3_mass_two(self):
        c = params.derive_constants(params.GasParams(3.0, 2.0))
        assert_allclose(params.mass_check(c, 3.0, 0.0), 2.0, rtol=1e-7)


class TestVacuumSlope:
    # near gamma = 1 the density's profile^iota underflows at the secant's
    # points, so the slope must come from the profile itself
    @pytest.mark.parametrize("gamma", [1.005, 1.01, 4.0 / 3.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.0, 3.0])
    def test_slope_matches_closed_form(self, gamma, t):
        c = consts(gamma)
        rad = params.boundary_radius(c, gamma, t)
        exact = -2.0 * gamma * c.b_bar * rad / (1.0 + t)
        approx = params.sound_speed_slope(c, gamma, t)
        assert_allclose(approx, exact, rtol=1e-4)
        assert approx < 0.0

    @pytest.mark.parametrize("mass", [1e-9, 1e6])
    def test_step_scales_with_the_radius(self, mass):
        # the secant's bias is 1.5 steps relative whatever the support size,
        # so the CLI's 1e-5 gate holds for tiny and huge masses alike
        c = params.derive_constants(params.GasParams(3.0, mass))
        rad = params.boundary_radius(c, 3.0, 1.0)
        exact = -2.0 * 3.0 * c.b_bar * rad / 2.0
        defect = abs(params.sound_speed_slope(c, 3.0, 1.0) / exact - 1.0)
        assert defect == pytest.approx(1.5e-6, rel=1e-3)


# Every law holds for each finite gamma > 1, and one rule says so: each
# consumer of gamma calls params.check_gamma, so each rejects a bad gamma
# with the same message.
RULE_GRID = BallGrid(consts(2.0), n_r=16, n_mu=4, n_psi=4,
                     radial_scheme="midpoint")
ZERO = VectorField(RULE_GRID, np.zeros((3, *RULE_GRID.shape)))
SAMPLES = np.linspace(0.0, 1.0, 21)
GAMMA_CONSUMERS = {
    "GasParams": lambda g: params.GasParams(g, 1.0),
    "ThetaPath": lambda g: theta.ThetaPath(
        g, [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0],
        [0.0, 0.0], theta.StepCounts(1)),
    "nu": lambda g: theta.nu(g, 1.0),
    "integrate_h": lambda g: theta.integrate_h(g, 10.0),
    "liu_integrate": lambda g: theta.liu_integrate(
        g, theta.LiuState(a=0.05, b=0.2, e=0.8), 10.0),
    "M0_e0": lambda g: norms.M0_e0(deformation(ZERO), g),
    "zeroth_energy_balance": lambda g: norms.zeroth_energy_balance(
        g, SAMPLES, 0 * SAMPLES, 0 * SAMPLES, 1 + 0 * SAMPLES, 0 * SAMPLES),
    "energy_functionals": lambda g: norms.energy_functionals(
        norms.CallableTrajectory(RULE_GRID, (lambda t, y: 0 * y,) * 3),
        0.0, g, J_max=0),
    "radial_energy_functionals": lambda g: norms.radial_energy_functionals(
        norms.SeparatedFields(RULE_GRID), [0.0], g,
        np.zeros((1, 3, RULE_GRID.shape[0])), J_max=0),
    "embedded_flux_divergence": lambda g: radial.embedded_flux_divergence(
        g, RULE_GRID, lambda s: 0 * s, lambda s: 0 * s),
}


class TestGammaRule:
    @pytest.mark.parametrize("consumer", sorted(GAMMA_CONSUMERS))
    @pytest.mark.parametrize("gamma", [1.0, 0.5, math.nan, math.inf])
    def test_every_consumer_rejects_alike(self, consumer, gamma):
        with pytest.raises(ValueError) as info:
            GAMMA_CONSUMERS[consumer](gamma)
        assert str(info.value) == f"gamma must exceed 1 and be finite, got {gamma}"

    @pytest.mark.parametrize("consumer", sorted(GAMMA_CONSUMERS))
    def test_every_consumer_takes_a_valid_gamma(self, consumer):
        GAMMA_CONSUMERS[consumer](2.0)


# An order or a node count is an integer: params.check_integer rejects a float
# or a bool where each consumer takes one, rather than truncating it or
# failing later in numpy.  theta.nu's orders are in TestNu's own table.
ONE = ScalarField(RULE_GRID, RULE_GRID.y[0])
STILL = norms.CallableTrajectory(RULE_GRID, (lambda t, y: 0 * y,) * 4)
INTEGER_REJECTIONS = {
    "commutator alpha 1.5": (lambda: commutator_defect(ONE, (1.5, 0, 0), (0, 1, 0)),
                             "alpha must be an integer, got 1.5"),
    "commutator alpha 1.9": (lambda: commutator_defect(ONE, (1.9, 0, 0), (0, 1, 0)),
                             "alpha must be an integer, got 1.9"),
    "commutator beta True": (lambda: commutator_defect(ONE, (1, 0, 0), (0, True, 0)),
                             "beta must be an integer, got True"),
    "grid n_mu 8.0": (lambda: BallGrid(consts(2.0), n_mu=8.0),
                      "n_mu must be an integer, got 8.0"),
    "grid n_psi 8.0": (lambda: BallGrid(consts(2.0), n_psi=8.0),
                       "n_psi must be an integer, got 8.0"),
    "grid n_r 16.0": (lambda: BallGrid(consts(2.0), n_r=16.0),
                      "n_r must be an integer, got 16.0"),
    "grid midpoint n_r 16.7": (
        lambda: BallGrid(consts(2.0), n_r=16.7, radial_scheme="midpoint"),
        "n_r must be an integer, got 16.7"),
    "embedding b True": (lambda: norms.embedding_check(ONE, 0.0, True),
                         "derivative order must be an integer, got True"),
    "embedding b 1.0": (lambda: norms.embedding_check(ONE, 0.0, 1.0),
                        "derivative order must be an integer, got 1.0"),
    "energy_Ej j True": (lambda: norms.energy_Ej(STILL, True, 0.0),
                         "energy order must be an integer, got True"),
    "energy_Ej j 1.5": (lambda: norms.energy_Ej(STILL, 1.5, 0.0),
                        "energy order must be an integer, got 1.5"),
    "Config seed -1": (lambda: cli.Config(seed=-1),
                       "seed must be at least 0, got -1"),
    "Config seed 1.5": (lambda: cli.Config(seed=1.5),
                        "seed must be an integer, got 1.5"),
    "Config seed True": (lambda: cli.Config(seed=True),
                         "seed must be an integer, got True"),
}

# Each finiteness check is params.check_finite, worded "<name> must be finite".
FINITE_REJECTIONS = {
    "scalar": (lambda: params.check_finite("x", math.nan), "x must be finite"),
    "array entry": (lambda: params.check_finite("x", [0.0, math.inf]),
                    "x must be finite"),
    "field values": (lambda: ScalarField(RULE_GRID, np.full(RULE_GRID.shape,
                                                            math.nan)),
                     "field values must be finite"),
    "LiuState e": (lambda: theta.LiuState(a=0.0, b=1.0, e=math.inf),
                   "e must be finite"),
    "RadialState f_t": (lambda: radial.RadialState(
        0.0, np.zeros(16), np.full(16, math.nan), 1.0, 0.0),
        "profile arrays must be finite"),
    "RadialState time": (lambda: radial.RadialState(
        math.nan, np.zeros(16), np.zeros(16), 1.0, 0.0), "time must be finite"),
    "fit_growth times": (lambda: radial.fit_growth(
        [0.0, 10.0, math.nan], [1.0, 2.0, 3.0]), "times must be finite"),
    "fit_growth radii": (lambda: radial.fit_growth(
        [0.0, 10.0, 100.0], [1.0, math.inf, 3.0]), "radii must be finite"),
}

# Each nonnegativity check is params.check_nonnegative, worded "<name> must be
# nonnegative and finite": a NaN or an infinity fails it as a negative does.
NONNEGATIVE_REJECTIONS = {
    **{f"barenblatt_eval t {t}": (
        lambda t=t: params.barenblatt_eval(consts(2.0), 2.0, t, np.zeros(3)),
        "t must be nonnegative and finite") for t in (math.nan, math.inf, -1.0)},
    **{f"nu t {t}": (lambda t=t: theta.nu(2.0, t),
                     "t must be nonnegative and finite")
       for t in (math.inf, math.nan)},
    **{f"RunConfig amplitude {a}": (
        lambda a=a: radial.RunConfig(gamma=2.0, amplitude=a),
        "amplitude must be nonnegative and finite")
       for a in (-1e-3, math.inf, math.nan)},
    **{f"embedding a {a}": (lambda a=a: norms.embedding_check(ONE, a, 1),
                            "weight power must be nonnegative and finite")
       for a in (-1.0, math.inf)},
}

# Each positivity check is params.check_positive, worded "<name> must be
# positive and finite, got <value>": a NaN or an infinity fails it as a
# nonpositive value does, in a scalar or in any entry of an array.
STEP_SOLVER = radial.RadialSolver(2.0, resolution=16)
STEP_STATE = STEP_SOLVER.make_state(0.0, np.zeros(16), np.zeros(16))
POSITIVE_REJECTIONS = {
    "array entry": (lambda: params.check_positive("x", np.array([1.0, math.nan])),
                    "x must be positive and finite"),
    **{f"step dt {dt}": (lambda dt=dt: STEP_SOLVER.step(STEP_STATE, dt),
                         "dt must be positive and finite")
       for dt in (0.0, math.inf, math.nan)},
    "fit_growth radii": (lambda: radial.fit_growth(
        [0.0, 10.0, 100.0], [1.0, 0.0, 3.0]), "radii must be positive and finite"),
    **{f"balance theta {th}": (
        lambda th=th: norms.zeroth_energy_balance(
            2.0, np.linspace(0.0, 1.0, 5), np.zeros(5), np.zeros(5),
            np.array([1.0, 1.0, th, 1.0, 1.0]), np.zeros(5)),
        "theta must be positive and finite") for th in (0.0, math.nan)},
    "LiuState b": (lambda: theta.LiuState(a=0.1, b=-0.2, e=1.0),
                   "b must be positive and finite"),
    "LiuState e": (lambda: theta.LiuState(a=0.1, b=0.2, e=0.0),
                   "e must be positive and finite"),
}


class TestRuleTables:
    @pytest.mark.parametrize("case", sorted(INTEGER_REJECTIONS))
    def test_integer_rule(self, case):
        call, message = INTEGER_REJECTIONS[case]
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(FINITE_REJECTIONS))
    def test_finite_rule(self, case):
        call, message = FINITE_REJECTIONS[case]
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(NONNEGATIVE_REJECTIONS))
    def test_nonnegative_rule(self, case):
        call, message = NONNEGATIVE_REJECTIONS[case]
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(POSITIVE_REJECTIONS))
    def test_positive_rule(self, case):
        call, message = POSITIVE_REJECTIONS[case]
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(f"{message}, got ")

    def test_jacobian_rule(self):
        folded = VectorField(RULE_GRID, -2.0 * RULE_GRID.y)
        with pytest.raises(DegenerateDeformationError) as info:
            deformation(folded)
        assert str(info.value) == ("deformation is degenerate: "
                                   "Jacobian not positive everywhere")

    def test_commutator_takes_numpy_integers(self):
        rep = commutator_defect(ONE, (np.int64(1), 0, 0), (0, np.int32(1), 0))
        assert rep.alpha == (1, 0, 0) and rep.beta == (0, 1, 0)
        assert all(type(k) is int for k in rep.alpha + rep.beta)
