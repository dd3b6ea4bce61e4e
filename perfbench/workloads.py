"""The benchmark's workloads: their set-up, their operations and the checks.

Each workload is a fixed, deterministic configuration; the benchmark seed
never reaches it. Every operation's answer is compared with the reference
answers recorded at the seed commit in ``reference.json``. An operation
fails when it raises or when its answer fails a check.

Workloads call into vel through module attributes (``cli.main``,
``radial.run``, ``theta.integrate_h``, ...) so that the tracer's patches
see every call.
"""

import contextlib
import io
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from speed import ARRAY, SCALAR, Calibration
from vel import cli, geometry, norms, params, radial, theta

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
CLI_OUT = os.path.join(OUT_DIR, "cli")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# `vel radial` at its defaults, except output.records = 12
RADIAL_REPORT_ARGS = ("radial", "--config", os.path.join(HERE, "radial_report.json"),
                      "--out", CLI_OUT)

# acceptance 02 and 03 bounds
DECAY_BOUND = 1e-10
FIT_CHANGE_BOUND = 0.01
SLOPE_CEILING = 0.05
DRIFT_BUDGET = 1e-6
# acceptance 08 gate on the growth exponent
GROWTH_REL_DEV = 0.05

# the acceptance-02 exponent list trimmed to its two ends, for run length
DECAY_GAMMAS = {"4/3": 4.0 / 3.0, "3": 3.0}
LIU_GAMMAS = {"5/3": 5.0 / 3.0, "2": 2.0}
DECAY_T_END = 1e4
LIU_T_END = 1e5
STEP_CONFIG = radial.RunConfig(
    gamma=2.0, resolution=256, t_end=1e3, records=30, J_max=0,
    truncation=norms.Truncation(0, 0), report_angles=(4, 4))


@dataclass
class Tally:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, label: str, compute: Callable[[], dict],
           check: Callable[[dict], list]) -> None:
        self.attempted += 1
        try:
            problems = check(compute())
        except Exception as exc:  # a raising operation counts as failed
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(name, got, want, rel):
    if math.isfinite(got) and abs(got - want) <= rel * abs(want):
        return []
    return [f"{name} {got!r} differs from reference {want!r} "
            f"by more than {rel:g} relative"]


def _at_most(name, got, bound):
    return [] if got <= bound else [f"{name} {got!r} exceeds {bound:g}"]


# ---------------------------------------------------------------------------
# radial-report: `vel radial` through the command-line entry point


def radial_report_setup():
    c = params.derive_constants(params.GasParams(gamma=2.0, mass=1.0))
    radial.RadialSolver(2.0, 1.0, 64, constants=c)
    geometry.BallGrid(c, n_r=64, n_mu=8, n_psi=8, radial_scheme="midpoint")


def radial_report_answer() -> dict:
    os.makedirs(CLI_OUT, exist_ok=True)
    fit_path = os.path.join(CLI_OUT, "radial_fit.json")
    if os.path.exists(fit_path):
        os.remove(fit_path)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(list(RADIAL_REPORT_ARGS))
    if code != 0:
        return {"exit_code": code, "output": captured.getvalue()}
    with open(fit_path, "r", encoding="utf-8") as fh:
        fit = json.load(fh)
    return {"exit_code": code, "stop_reason": fit["stop_reason"],
            "sup_energy": fit["sup_energy"],
            "exponent": fit["growth_fit"]["exponent"]}


def check_radial_report(answer: dict, ref: dict) -> list:
    if answer["exit_code"] != 0:
        return [f"exit code {answer['exit_code']}: {answer['output'].strip()}"]
    problems = [] if answer["stop_reason"] == "completed" else [
        f"stop reason {answer['stop_reason']!r}"]
    problems += _close("sup energy", answer["sup_energy"], ref["sup_energy"],
                       ref["rel_tol"])
    problems += _close("growth exponent", answer["exponent"], ref["exponent"],
                       ref["rel_tol"])
    return problems


def radial_report_iteration(tally: Tally, reference: dict) -> None:
    ref = reference["radial-report"]
    tally.op("vel radial", radial_report_answer,
             partial(check_radial_report, ref=ref))


# ---------------------------------------------------------------------------
# radial-step: the 256-cell solver, where RK4 stepping dominates


def radial_step_setup():
    c = params.derive_constants(params.GasParams(gamma=2.0, mass=1.0))
    radial.RadialSolver(2.0, 1.0, 256, constants=c)
    geometry.BallGrid(c, n_r=256, n_mu=4, n_psi=4, radial_scheme="midpoint")


def radial_step_answer() -> dict:
    result = radial.run(STEP_CONFIG)
    fit = radial.fit_growth(result.times, result.radii)
    return {"stop_reason": result.stop_reason, "exponent": fit.exponent}


def check_radial_step(answer: dict, ref: dict) -> list:
    problems = [] if answer["stop_reason"] == "completed" else [
        f"stop reason {answer['stop_reason']!r}"]
    target = 1.0 / (3.0 * STEP_CONFIG.gamma - 1.0)
    dev = abs(answer["exponent"] - target) / target
    problems += _at_most("growth exponent deviation from 1/(3 gamma - 1)",
                         dev, GROWTH_REL_DEV)
    problems += _close("growth exponent", answer["exponent"], ref["exponent"],
                       ref["rel_tol"])
    return problems


def radial_step_iteration(tally: Tally, reference: dict) -> None:
    ref = reference["radial-step"]
    tally.op("radial.run", radial_step_answer,
             partial(check_radial_step, ref=ref))


# ---------------------------------------------------------------------------
# dilation-ode: scalar ODE integrations, no grid code


def dilation_ode_setup():
    for gamma in LIU_GAMMAS.values():
        params.derive_constants(params.GasParams(gamma=gamma, mass=1.0))


def decay_answer(gamma: float) -> list:
    fits = []
    for scale in (1.0, 0.5):
        path = theta.integrate_h(gamma, DECAY_T_END, rtol=1e-10 * scale,
                                 atol=1e-10 * scale)
        rep = theta.verify_decay(path, n=2)
        fits.append({"lower": rep.max_violation["lower"],
                     "monotone": rep.max_violation["monotone"],
                     "K_fit": rep.K_fit, "Cn_fit_2": rep.Cn_fit[2]})
    return fits


def check_decay(fits: list, ref: list, rel_tol: float) -> list:
    problems = []
    for fit, want in zip(fits, ref, strict=True):
        problems += _at_most("lower-bound violation", fit["lower"], DECAY_BOUND)
        problems += _at_most("monotone violation", fit["monotone"], DECAY_BOUND)
        problems += _close("K_fit", fit["K_fit"], want["K_fit"], rel_tol)
        problems += _close("Cn_fit[2]", fit["Cn_fit_2"], want["Cn_fit_2"], rel_tol)
    a, b = fits
    change = max(abs(a["K_fit"] - b["K_fit"]) / abs(a["K_fit"]),
                 abs(a["Cn_fit_2"] - b["Cn_fit_2"]) / abs(a["Cn_fit_2"]))
    problems += _at_most("fitted-constant change under tolerance halving",
                         change, FIT_CHANGE_BOUND)
    return problems


def liu_answer(gamma: float) -> dict:
    rep = theta.liu_vs_barenblatt(gamma, 1.0, LIU_T_END)
    return {"passed": rep.passed, "slope": rep.slope,
            "mass_drift": rep.mass_drift,
            "finite": all(math.isfinite(v) for v in rep.deviation)}


def check_liu(answer: dict, ref: dict, rel_tol: float,
              drift_rel_tol: float) -> list:
    problems = [] if answer["passed"] and answer["finite"] else [
        "report not passed or deviation not finite"]
    problems += _at_most("last-decade slope", answer["slope"], SLOPE_CEILING)
    problems += _at_most("mass drift", answer["mass_drift"], DRIFT_BUDGET)
    problems += _close("slope", answer["slope"], ref["slope"], rel_tol)
    problems += _close("mass drift", answer["mass_drift"], ref["mass_drift"],
                       drift_rel_tol)
    return problems


def dilation_ode_iteration(tally: Tally, reference: dict) -> None:
    ref = reference["dilation-ode"]
    for key, gamma in DECAY_GAMMAS.items():
        tally.op(f"decay gamma={key}", partial(decay_answer, gamma),
                 partial(check_decay, ref=ref["decay"][key],
                         rel_tol=ref["rel_tol"]))
    for key, gamma in LIU_GAMMAS.items():
        tally.op(f"liu gamma={key}", partial(liu_answer, gamma),
                 partial(check_liu, ref=ref["liu"][key],
                         rel_tol=ref["rel_tol"],
                         drift_rel_tol=ref["drift_rel_tol"]))


@dataclass(frozen=True)
class Workload:
    setup: Callable[[], None]
    iteration: Callable[[Tally, dict], None]
    # the host-speed kernel that tracks this kind of work (speed.py)
    calibration: Calibration


WORKLOADS = {
    "radial-report": Workload(radial_report_setup, radial_report_iteration,
                              ARRAY),
    "radial-step": Workload(radial_step_setup, radial_step_iteration, ARRAY),
    "dilation-ode": Workload(dilation_ode_setup, dilation_ode_iteration,
                             SCALAR),
}
