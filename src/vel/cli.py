"""Command-line entry points: configuration, suite orchestration, reports.

JSON config files hold nested blocks (gas, grid, ode, solver, norms,
output, seed); command-line flags override file values, file values
override defaults.  Unknown keys are rejected with their dotted
location.  Exit codes: 0 all checks pass, 1 at least one check failed,
2 configuration or runtime error.  Identical configuration (including
seed) produces byte-identical series files on the same platform.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import geometry, norms, params, radial, theta

_SCHEMA = {
    "gas": {"gamma": float, "mass": float},
    "grid": {"resolution": int, "n_mu": int, "n_psi": int},
    "ode": {"rtol": float, "atol": float, "t_end": float},
    "solver": {"cfl": float, "eps": float, "family": str,
               "family_exponent": int, "eps0": float},
    "norms": {"J_max": int, "m_max": int, "nl_max": int},
    "output": {"directory": str, "format": str, "records": int},
    "seed": int,
}

# Config fields are named by their schema keys, apart from these two.
_RENAMED = {("output", "directory"): "out_dir", ("output", "format"): "fmt"}


class ConfigError(ValueError):
    """Configuration file or flag rejected."""


@dataclass(frozen=True)
class Config:
    """Effective run configuration after defaults, file, and flags."""

    gamma: float = 2.0
    mass: float = radial.RunConfig.mass
    resolution: int = radial.RunConfig.resolution
    n_mu: int = radial.RunConfig.report_angles[0]
    n_psi: int = radial.RunConfig.report_angles[1]
    rtol: float = 1e-10
    atol: float = 1e-12
    t_end: float | None = None
    cfl: float = radial.RunConfig.cfl
    eps: float = radial.RunConfig.amplitude
    family: str = radial.RunConfig.family
    family_exponent: int = radial.RunConfig.family_exponent
    eps0: float = radial.RunConfig.eps0
    J_max: int = radial.RunConfig.J_max
    m_max: int = radial.RunConfig.truncation.m_max
    nl_max: int = radial.RunConfig.truncation.nl_max
    out_dir: str | None = None
    fmt: str = "csv"
    records: int = radial.RunConfig.records
    seed: int = 0

    def __post_init__(self):
        # every other field is checked by the object that consumes it
        try:
            _run_config(self)
            for tol in (self.rtol, self.atol):
                params.check_positive("ode tolerances", tol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def _run_config(config: Config) -> radial.RunConfig:
    """The radial run a configuration describes; t_end defaults to 1e3."""
    return radial.RunConfig(
        gamma=config.gamma, mass=config.mass, resolution=config.resolution,
        cfl=config.cfl, t_end=1e3 if config.t_end is None else config.t_end,
        family=config.family, family_exponent=config.family_exponent,
        amplitude=config.eps, records=config.records, eps0=config.eps0,
        J_max=config.J_max,
        truncation=norms.Truncation(m_max=config.m_max,
                                    nl_max=config.nl_max),
        report_angles=(config.n_mu, config.n_psi))


def _coerce(value, want, where):
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number")
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer")
        return int(value)
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string")
    return value


def parse_config(path=None, overrides=None) -> Config:
    """Load a JSON config file and apply flag overrides on top."""
    values = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        for key, block in raw.items():
            if key == "seed":
                values["seed"] = _coerce(block, int, "seed")
                continue
            schema = _SCHEMA.get(key)
            if schema is None:
                raise ConfigError(f"unknown key '{key}'")
            if not isinstance(block, dict):
                raise ConfigError(f"'{key}' must be an object")
            for sub, val in block.items():
                want = schema.get(sub)
                if want is None:
                    raise ConfigError(f"unknown key '{key}.{sub}'")
                values[_RENAMED.get((key, sub), sub)] = _coerce(
                    val, want, f"{key}.{sub}")
    try:
        config = Config(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if overrides:
        config = replace(config, **overrides)
    return config


def _out_dir(config: Config) -> str:
    out = config.out_dir or os.environ.get("VEL_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(path, text):
    """Every artifact: UTF-8 with untranslated newlines, so a rerun writes
    the same bytes on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path, columns, rows):
    """A header line, then one line per row of Python scalars (numpy 2
    reprs np.float64(0.1) with its type); floats round-trip by repr."""
    lines = [",".join(columns)]
    lines += [",".join(c if isinstance(c, str) else repr(c) for c in row)
              for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _dump_json(obj, dest_path):
    text = json.dumps(obj, sort_keys=True, indent=2)
    _write(dest_path, text + "\n")
    return text


class _Checks:
    """Collects named pass/fail lines and the overall exit code."""

    def __init__(self):
        self.lines = []
        self.failed = False

    def record(self, name, ok, detail):
        tag = "PASS" if ok else "FAIL"
        self.lines.append(f"{tag} {name}: {detail}")
        if not ok:
            self.failed = True

    def finish(self, payload, path):
        """Write payload with the overall verdict, print the check lines,
        and return the exit code."""
        _dump_json({**payload, "passed": not self.failed}, path)
        for line in self.lines:
            print(line)
        return 1 if self.failed else 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(config: Config, out):
    c = params.derive_constants(
        params.GasParams(gamma=config.gamma, mass=config.mass))
    payload = {
        "gamma": config.gamma,
        "mass": config.mass,
        "a_bar": c.a_bar,
        "b_bar": c.b_bar,
        "iota": c.iota,
        "r0": c.r0,
    }
    text = _dump_json(payload, os.path.join(out, "constants.json"))
    print(text)
    return 0


def _cmd_barenblatt_check(config: Config, out):
    checks = _Checks()
    gamma, mass = config.gamma, config.mass
    c = params.derive_constants(params.GasParams(gamma=gamma, mass=mass))
    rng = np.random.default_rng(config.seed)
    t_ref = 1.0
    rad = params.boundary_radius(c, gamma, t_ref)
    radii = rng.uniform(0.05, 0.75, size=20) * rad
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = radii[:, None] * dirs
    h0 = 1e-3 * rad
    orders = []
    for x in points:
        res_h = params.pme_darcy_residual(c, gamma, t_ref, x, h0)
        res_h2 = params.pme_darcy_residual(c, gamma, t_ref, x, h0 / 2.0)
        for a, b in zip(res_h, res_h2):
            if b > 1e-14:
                orders.append(math.log2(a / b))
    min_order = min(orders)
    checks.record("residual-order", min_order >= 1.7,
                  f"centered residuals converge at order {min_order:.2f} "
                  f"(need >= 1.7) over 20 interior points")
    worst = 0.0
    for t in (0.0, 1.0, 10.0, 100.0):
        m = params.mass_check(c, gamma, t)
        worst = max(worst, abs(m - mass) / mass)
    checks.record("mass", worst <= 1e-7,
                  f"max relative mass defect {worst:.2e} (budget 1e-07)")
    # physical vacuum: c^2 has a finite nonzero slope -2 g b_bar Rbar/(1+t)
    exact = -2.0 * gamma * c.b_bar * rad / (1.0 + t_ref)
    slope_defect = abs(params.sound_speed_slope(c, gamma, t_ref) / exact - 1.0)
    checks.record("vacuum-slope", slope_defect <= 1e-5,
                  f"boundary slope of c^2 off -2 gamma b_bar R/(1+t) by "
                  f"{slope_defect:.2e} relative at t=1 (budget 1e-05)")
    return checks.finish(
        {"gamma": gamma, "min_order": min_order, "mass_defect": worst,
         "vacuum_slope_defect": slope_defect},
        os.path.join(out, "barenblatt_check.json"))


def _cmd_theta(config: Config, out):
    checks = _Checks()
    t_end = config.t_end if config.t_end is not None else 1e4
    path = theta.integrate_h(config.gamma, t_end, rtol=config.rtol,
                             atol=config.atol)
    series_path = os.path.join(out, "theta_path.csv")
    series = (path.times, path.h, path.h_t, path.theta, path.theta_t,
              path.theta_tt)
    _write_csv(series_path, ("t", "h", "h_t", "theta", "theta_t", "theta_tt"),
               zip(*(s.tolist() for s in series)))
    rep = theta.verify_decay(path, n=2)
    checks.record(
        "decay-bounds", rep.passed,
        f"lower-bound violation {rep.max_violation['lower']:.2e}, "
        f"monotone violation {rep.max_violation['monotone']:.2e}, "
        f"K_fit={rep.K_fit:.6f}")
    return checks.finish(
        {"gamma": config.gamma, "t_end": t_end, "K_fit": rep.K_fit,
         "Cn_fit": {str(k): v for k, v in rep.Cn_fit.items()},
         "max_violation": rep.max_violation,
         "series": os.path.basename(series_path)},
        os.path.join(out, "theta_decay.json"))


def _cmd_liu(config: Config, out):
    checks = _Checks()
    t_end = config.t_end if config.t_end is not None else 1e5
    rep = theta.liu_vs_barenblatt(config.gamma, config.mass, t_end,
                                  rtol=config.rtol, atol=config.atol)
    series_path = os.path.join(out, "liu_deviation.csv")
    _write_csv(series_path, ("t", "deviation"),
               zip(rep.times.tolist(), rep.deviation.tolist()))
    checks.record(
        "asymptotic-equivalence", rep.passed,
        f"last-decade slope {rep.slope:.3f} "
        f"(ceiling {theta.SLOPE_CEILING:+.2f}), "
        f"bound_fit={rep.bound_fit:.3e}")
    checks.record("mass-drift", rep.mass_drift <= 1e-6,
                  f"relative drift {rep.mass_drift:.2e} (budget 1e-06)")
    return checks.finish(
        {"gamma": config.gamma, "t_end": t_end, "slope": rep.slope,
         "bound_fit": rep.bound_fit, "mass_drift": rep.mass_drift,
         "series": os.path.basename(series_path)},
        os.path.join(out, "liu.json"))


def _poly_displacement(grid, scale=0.05):
    y = grid.y
    vals = np.stack([
        scale * (0.3 * y[0] + 0.2 * y[1] * y[2] - 0.1 * y[0] ** 2),
        scale * (0.25 * y[1] - 0.15 * y[0] * y[2] + 0.05 * y[2] ** 2),
        scale * (0.2 * y[2] + 0.1 * y[0] * y[1] - 0.2 * y[1] ** 2),
    ])
    return geometry.VectorField(grid, vals)


def _cmd_identities(config: Config, out):
    checks = _Checks()
    c = params.derive_constants(
        params.GasParams(gamma=config.gamma, mass=config.mass))
    grid = geometry.BallGrid(c, n_r=config.resolution, n_mu=config.n_mu,
                             n_psi=config.n_psi)
    omega = _poly_displacement(grid)
    state = geometry.deformation(omega)
    checks.record(
        "determinant-reconstruction", state.det_defect <= 1e-12,
        f"defect {state.det_defect:.2e} (budget 1e-12)")
    checks.record(
        "volume-expansion", state.expansion_defect <= 1e-12,
        f"defect {state.expansion_defect:.2e} (budget 1e-12)")
    piola = geometry.piola_residual(state).values.max()
    checks.record("piola", piola <= 1e-10,
                  f"max row-divergence {piola:.2e} (budget 1e-10)")

    r0 = c.r0

    def disp(tau, y):
        base = np.exp(-tau) * 0.04
        return np.stack([
            base * (y[0] + 0.5 * y[1] * y[2]),
            base * (y[1] - 0.3 * y[0] * y[2]),
            base * (y[2] + 0.2 * y[0] * y[1]),
        ])

    def disp_t(tau, y):
        return -disp(tau, y)

    def test_field(tau, y):
        base = np.cos(tau) * 0.03
        return np.stack([
            base * y[1] * (r0**2 - y[0] ** 2),
            base * y[2],
            base * y[0] * y[1],
        ])

    def test_field_t(tau, y):
        return np.stack([
            -np.sin(tau) * 0.03 * y[1] * (r0**2 - y[0] ** 2),
            -np.sin(tau) * 0.03 * y[2],
            -np.sin(tau) * 0.03 * y[0] * y[1],
        ])

    d1, d2 = geometry.identity_nabt_nab(grid, disp, disp_t, test_field,
                                        test_field_t, 0.3)
    checks.record("flow-contraction-time", d1 <= 1e-8,
                  f"defect {d1:.2e} (budget 1e-08)")
    checks.record("flow-contraction", d2 <= 1e-8,
                  f"defect {d2:.2e} (budget 1e-08)")

    sig = geometry.ScalarField(grid, grid.sigma**2)
    rep = geometry.commutator_defect(sig, (1, 0, 0), (0, 1, 0))
    closed = np.abs(4.0 * c.b_bar * grid.sigma * grid.y[2]).max()
    comm_ok = (abs(rep.max_commutator - closed) <= 1e-6 * closed
               and np.isfinite(rep.C_fit))
    checks.record(
        "commutator-base", comm_ok,
        f"measured {rep.max_commutator:.6e} vs closed form {closed:.6e}")

    eta = geometry.VectorField(grid, grid.y.copy())
    _, _, curl_eta = geometry.flow_ops(geometry.deformation(eta), eta)
    curl_def = np.abs(curl_eta).max()
    checks.record("flow-curl-identity", curl_def <= 1e-9,
                  f"curl of the identity map {curl_def:.2e} (budget 1e-09)")

    return checks.finish(
        {"gamma": config.gamma,
         "resolution": [config.resolution, config.n_mu, config.n_psi],
         "det_defect": state.det_defect,
         "expansion_defect": state.expansion_defect,
         "piola": piola, "nabt": d1, "nab": d2,
         "commutator": rep.max_commutator, "flow_curl": curl_def},
        os.path.join(out, "identities.json"))


def _cmd_hardy(config: Config, out):
    checks = _Checks()
    iota = 1.0 / (config.gamma - 1.0)
    rng = np.random.default_rng(config.seed)
    delta = 1.0
    ceiling = 10.0
    rows = []
    worst = 0.0
    all_ok = True
    for trial in range(20):
        a, b_, cc, d = rng.uniform(-1.0, 1.0, size=4)
        b_ = 1.0 + 2.0 * abs(b_)

        def f(r, a=a, b_=b_, cc=cc, d=d):
            return a * np.cos(b_ * r) + cc * r**2 + d + 2.0

        for k in (0.0, iota, iota + 1.0):
            rep = norms.hardy_check(f, k, delta, constant=ceiling)
            rows.append((trial, k, rep.ratio, int(rep.passed)))
            all_ok = all_ok and rep.passed
            worst = max(worst, rep.ratio)
    checks.record(
        "hardy-random", all_ok,
        f"60 profile/weight combinations, max ratio {worst:.3f} "
        f"(ceiling {ceiling})")

    c = params.derive_constants(
        params.GasParams(gamma=config.gamma, mass=config.mass))
    grid = geometry.BallGrid(c, n_r=max(config.resolution, 24),
                             n_mu=config.n_mu, n_psi=config.n_psi)
    emb_worst = 0.0
    emb_ok = True
    emb_rows = []
    for freq in range(1, 11):
        fld = geometry.ScalarField(grid, np.cos(freq * grid.s)[:, None, None]
                                   * np.ones(grid.shape))
        rep = norms.embedding_check(fld, a=1.0, b=1)
        emb_rows.append((freq, rep.ratio))
        emb_ok = emb_ok and np.isfinite(rep.ratio)
        emb_worst = max(emb_worst, rep.ratio)
    checks.record(
        "embedding-oscillatory", emb_ok and emb_worst <= 2.5,
        f"10 frequencies, max fractional/weighted ratio {emb_worst:.3f} "
        f"(ceiling 2.5)")

    _write_csv(os.path.join(out, "hardy.csv"),
               ("trial", "k", "ratio", "passed"), rows)
    return checks.finish(
        {"gamma": config.gamma, "seed": config.seed,
         "hardy_max_ratio": worst, "hardy_ceiling": ceiling,
         "embedding_max_ratio": emb_worst,
         "embedding": [{"frequency": fq, "ratio": r} for fq, r in emb_rows]},
        os.path.join(out, "hardy.json"))


def _triple(key):
    return ",".join(str(v) for v in key)


def _cmd_radial(config: Config, out):
    checks = _Checks()
    run_cfg = _run_config(config)
    result = radial.run(run_cfg)
    series_path = os.path.join(out, "radial_trajectory.csv")
    _write_csv(
        series_path,
        ["t", "R"] + [f"E_{j}" for j in range(config.J_max + 1)]
        + ["V_add", "stop_reason"],
        ([t, radius, *map(float, rep.E_j), float(rep.V_add),
          result.stop_reason]
         for t, radius, rep in zip(result.times.tolist(),
                                   result.radii.tolist(), result.reports)))
    if config.fmt == "json":
        # EnergyReport's fields in order, each (m, n, l) written "m,n,l"
        payload = [asdict(rep) for rep in result.reports]
        for entry in payload:
            for name in ("frakE", "frakD", "frakV"):
                entry[name] = {_triple(k): v for k, v in entry[name].items()}
            entry["truncated"] = [_triple(k) for k in entry["truncated"]]
        _write(os.path.join(out, "radial_reports.json"),
               json.dumps(payload, indent=2) + "\n")

    checks.record(
        "run-outcome", result.stop_reason == "completed",
        f"stop reason '{result.stop_reason}' at t={result.final_state.time:.6g}")
    mass_worst = float(result.mass_error.max())
    checks.record("mass-conservation", mass_worst <= 1e-6,
                  f"max relative defect {mass_worst:.2e} (budget 1e-06)")
    vadd_worst = float(result.v_add().max()) if result.reports else 0.0
    checks.record("vorticity-free", vadd_worst <= 1e-16,
                  f"max additional curl norm {vadd_worst:.2e} (budget 1e-16)")
    checks.record("report-oracle", result.oracle_defect <= 1e-12,
                  f"separated reports off the 3D reports by at most "
                  f"{result.oracle_defect:.2e} (budget 1e-12)")

    fit_payload = None
    if config.eps > 0.0:
        try:
            fit = radial.fit_growth(result.times, result.radii)
        except ValueError as exc:
            # e.g. a run shorter than a decade or too few records in the fit
            # window: the check fails, the run's other results are still written
            checks.record("boundary-growth", False, f"no fit: {exc}")
        else:
            target = 1.0 / (3.0 * config.gamma - 1.0)
            dev = abs(fit.exponent - target)
            checks.record(
                "boundary-growth", dev <= 0.05 * target,
                f"exponent {fit.exponent:.5f} vs {target:.5f} "
                f"(|dev| {dev:.4f}, budget {0.05 * target:.4f}), "
                f"stderr {fit.stderr:.1e}")
            fit_payload = {"exponent": fit.exponent, "stderr": fit.stderr,
                           "target": target, "window": list(fit.window),
                           "n_points": fit.n_points}
    # wall-clock phases vary between reruns, so they stay out of radial_fit
    _dump_json({"setup_s": result.setup_s, "stepping_s": result.stepping_s,
                "reporting_s": result.reporting_s},
               os.path.join(out, "radial_timing.json"))
    return checks.finish(
        {"gamma": config.gamma, "eps": config.eps,
         "t_end": run_cfg.t_end, "resolution": config.resolution,
         "truncation": {"m_max": config.m_max, "nl_max": config.nl_max},
         "J_max": config.J_max,
         "stop_reason": result.stop_reason,
         "stop_time": result.final_state.time,
         "steps": result.steps,
         "dt_min": result.dt_min,
         "dt_max": result.dt_max,
         "records": result.records,
         "min_jacobian": result.min_jacobian,
         "sup_energy": result.sup_energy,
         "mass_defect": mass_worst,
         "v_add_max": vadd_worst,
         "oracle_defect": result.oracle_defect,
         "boundary_monotone": result.boundary_monotone,
         "growth_fit": fit_payload,
         "series": os.path.basename(series_path)},
        os.path.join(out, "radial_fit.json"))


def _cmd_report(config: Config, out):
    codes = {}
    blocks = (
        ("constants", _cmd_constants),
        ("barenblatt-check", _cmd_barenblatt_check),
        ("theta", _cmd_theta),
        ("liu", _cmd_liu),
        ("identities", _cmd_identities),
        ("hardy", _cmd_hardy),
    )
    for name, fn in blocks:
        print(f"== {name} ==")
        codes[name] = fn(config, out)
    payload = {name: ("pass" if code == 0 else "fail")
               for name, code in codes.items()}
    payload["gamma"] = config.gamma
    payload["seed"] = config.seed
    _dump_json(payload, os.path.join(out, "report.json"))
    return 1 if any(codes.values()) else 0


_COMMANDS = {
    "constants": _cmd_constants,
    "barenblatt-check": _cmd_barenblatt_check,
    "theta": _cmd_theta,
    "liu": _cmd_liu,
    "identities": _cmd_identities,
    "hardy": _cmd_hardy,
    "radial": _cmd_radial,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vel",
        description="self-similar expanding gas: verification suites and runs")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--mass", type=float)
    parser.add_argument("--t-end", dest="t_end", type=float)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--resolution", type=int)
    parser.add_argument("--out", dest="out_dir", metavar="DIR")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"))
    parser.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    overrides = {}
    for field in fields(Config):
        val = getattr(args, field.name, None)
        if val is not None:
            overrides[field.name] = val
    try:
        config = parse_config(args.config, overrides)
        out = _out_dir(config)
        return _COMMANDS[args.command](config, out)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
