"""Per-layer probes: the median of repeated single calls on seeded inputs.

The seed drives only the random inputs built here. Sizes follow the
workloads: 256 radial cells for the solver, a 64x8x8 ball grid with
J_max 2 for the energy reports, gamma 2 throughout.
"""

import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from vel import geometry, norms, params, radial, theta

GAMMA = 2.0
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")


def median_seconds(fn, repeats, number=1):
    """Median over `repeats` samples of the mean time of `number` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def _profile(rng, s, r0, amplitude=1e-3):
    """Smooth even radial profile with seeded coefficients."""
    x2 = (s / r0) ** 2
    c = rng.uniform(-1.0, 1.0, size=4) * (amplitude / 4.0)
    return c[0] + c[1] * x2 + c[2] * x2**2 + c[3] * x2**3


def cold_solver_build_seconds():
    """One 256-cell RadialSolver build in a fresh process, as every CLI
    invocation pays it (the SBP pair is cached only within a process)."""
    done = subprocess.run([sys.executable, CHILD, "--solver"], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def run_probes(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    c = params.derive_constants(params.GasParams(gamma=GAMMA, mass=1.0))
    out = {"radial.solver_build_s": statistics.median(
        cold_solver_build_seconds() for _ in range(3))}

    solver = radial.RadialSolver(GAMMA, 1.0, 256, constants=c)
    state = solver.make_state(0.0, _profile(rng, solver.s, c.r0),
                              _profile(rng, solver.s, c.r0))
    dt = 0.3 * solver.h / math.sqrt(GAMMA * c.a_bar)
    v = rng.standard_normal(2 * solver.n)
    out["radial.step_us"] = 1e6 * median_seconds(
        lambda: solver.step(state, dt), 7, 20)
    out["radial.reduce_equation_us"] = 1e6 * median_seconds(
        lambda: radial.reduce_equation(solver, state), 7, 50)
    out["radial.sbp_matvec_us"] = 1e6 * median_seconds(
        lambda: solver.D @ v, 7, 200)

    grid = geometry.BallGrid(c, n_r=64, n_mu=8, n_psi=8,
                             radial_scheme="midpoint")
    gauss = geometry.BallGrid(c, n_r=64, n_mu=8, n_psi=8)
    vals = rng.standard_normal(grid.shape)
    out["geometry.partials_midpoint_us"] = 1e6 * median_seconds(
        lambda: grid.partials(vals), 7, 20)
    out["geometry.partials_gauss_us"] = 1e6 * median_seconds(
        lambda: gauss.partials(vals), 7, 20)
    # four time-derivative orders, as the radial run's frozen trajectory has
    profiles = [_profile(rng, grid.s, c.r0) for _ in range(4)]
    traj = norms.CallableTrajectory(grid, tuple(
        (lambda t, y, p=p: p[:, None, None] * y) for p in profiles))
    omega = traj.time_derivative(0.0, 0)
    state3 = geometry.deformation(omega)
    field = geometry.VectorField(grid, rng.standard_normal((3, *grid.shape)))
    out["geometry.deformation_us"] = 1e6 * median_seconds(
        lambda: geometry.deformation(omega), 7, 5)
    out["geometry.flow_ops_us"] = 1e6 * median_seconds(
        lambda: geometry.flow_ops(state3, field), 7, 5)

    t = float(rng.uniform(1.0, 100.0))
    trunc = norms.Truncation(2, 2)
    out["norms.energy_functionals_s"] = median_seconds(
        lambda: norms.energy_functionals(traj, t, GAMMA, J_max=2,
                                         truncation=trunc), 3)
    out["norms.energy_Ej_s"] = median_seconds(
        lambda: [norms.energy_Ej(traj, j, t, trunc) for j in range(3)], 3)
    out["theta.integrate_h_s"] = median_seconds(
        lambda: theta.integrate_h(GAMMA, 1e4), 3)
    return out
