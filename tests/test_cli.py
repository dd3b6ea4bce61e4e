"""Command-line interface: config parsing, subcommands, exit codes."""

import ast
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from vel import cli, norms, params, radial


# 32 cells, 6x6 angles, J_max 1 and 10 records: a radial run of a few seconds
SMALL_RADIAL = {
    "grid": {"resolution": 32, "n_mu": 6, "n_psi": 6},
    "norms": {"J_max": 1, "m_max": 1, "nl_max": 1},
    "output": {"records": 10},
}


# every file `vel report` writes
REPORT_FILES = (
    "constants.json", "barenblatt_check.json", "theta_path.csv",
    "theta_decay.json", "liu_deviation.csv", "liu.json", "identities.json",
    "hardy.csv", "hardy.json", "report.json",
)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_defaults(self):
        config = cli.parse_config()
        assert config.gamma == 2.0
        assert config.mass == 1.0
        assert config.resolution == 64
        assert config.t_end is None
        assert config.fmt == "csv"
        assert config.seed == 0

    def test_file_values_applied(self, tmp_path):
        path = write_config(tmp_path, {
            "gas": {"gamma": 3.0, "mass": 2.0},
            "grid": {"resolution": 32, "n_mu": 6, "n_psi": 10},
            "ode": {"rtol": 1e-8, "atol": 1e-9, "t_end": 50.0},
            "solver": {"cfl": 0.25, "eps": 1e-4, "family": "bump",
                       "family_exponent": 3, "eps0": 0.2},
            "norms": {"J_max": 1, "m_max": 3, "nl_max": 3},
            "output": {"directory": "outdir", "format": "json",
                       "records": 10},
            "seed": 7,
        })
        config = cli.parse_config(path)
        assert config.gamma == 3.0
        assert config.mass == 2.0
        assert config.resolution == 32
        assert config.n_mu == 6
        assert config.n_psi == 10
        assert config.rtol == 1e-8
        assert config.atol == 1e-9
        assert config.t_end == 50.0
        assert config.cfl == 0.25
        assert config.eps == 1e-4
        assert config.family == "bump"
        assert config.family_exponent == 3
        assert config.eps0 == 0.2
        assert config.J_max == 1
        assert config.m_max == 3
        assert config.nl_max == 3
        assert config.out_dir == "outdir"
        assert config.fmt == "json"
        assert config.records == 10
        assert config.seed == 7
        # every field was set by the file
        assert all(getattr(config, f.name) != f.default
                   for f in dataclasses.fields(cli.Config))

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, {"gas": {"gamma": 2.0}})
        config = cli.parse_config(path, {"gamma": 3.0, "t_end": 25.0})
        assert config.gamma == 3.0
        assert config.t_end == 25.0

    def test_unknown_nested_key_names_location(self, tmp_path):
        path = write_config(tmp_path, {"gas": {"gama": 2.0}})
        with pytest.raises(cli.ConfigError, match="unknown key 'gas.gama'"):
            cli.parse_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"gasses": {}})
        with pytest.raises(cli.ConfigError, match="unknown key 'gasses'"):
            cli.parse_config(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "gas": {\n    "gamma": 2.0,,\n  }\n}',
                        encoding="utf-8")
        with pytest.raises(cli.ConfigError, match="line 3"):
            cli.parse_config(str(path))

    def test_root_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match="root"):
            cli.parse_config(str(path))

    def test_type_mismatch_number(self, tmp_path):
        path = write_config(tmp_path, {"gas": {"gamma": "two"}})
        with pytest.raises(cli.ConfigError, match="gas.gamma"):
            cli.parse_config(path)

    def test_type_mismatch_integer(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"resolution": 32.5}})
        with pytest.raises(cli.ConfigError, match="expected an integer"):
            cli.parse_config(path)

    def test_bool_is_not_a_number(self, tmp_path):
        path = write_config(tmp_path, {"gas": {"gamma": True}})
        with pytest.raises(cli.ConfigError, match="expected a number"):
            cli.parse_config(path)

    @pytest.mark.parametrize("payload, message", [
        ({"gas": {"gamma": 0.9}}, "gamma must exceed 1"),
        ({"gas": {"mass": -1.0}}, "mass must be positive"),
        ({"output": {"format": "xml"}}, "csv or json"),
        ({"output": {"records": 1}}, "records"),
        ({"solver": {"cfl": 0.0}}, "cfl"),
        ({"solver": {"eps0": 0.0}}, "eps0"),
        ({"solver": {"family": "spike"}}, "family"),
        ({"seed": -1}, "seed"),
        ({"ode": {"rtol": 0.0}}, "tolerances"),
        ({"grid": {"n_psi": 5}}, "n_psi >= 4 and even"),
        ({"norms": {"nl_max": 4}}, "nl_max"),
        ({"solver": {"family_exponent": 1}}, "family_exponent"),
        ({"grid": {"resolution": 8}}, "resolution must be at least 16"),
        # json reads Infinity
        ({"solver": {"eps0": math.inf}}, "eps0 must be positive and finite"),
    ])
    def test_validation_messages(self, tmp_path, payload, message):
        path = write_config(tmp_path, payload)
        with pytest.raises(cli.ConfigError, match=message):
            cli.parse_config(path)

    @pytest.mark.parametrize("override, message", [
        ({"gamma": math.inf}, "gamma must exceed 1 and be finite"),
        ({"gamma": math.nan}, "gamma must exceed 1 and be finite"),
        ({"mass": math.inf}, "mass must be positive and finite"),
        ({"t_end": math.inf}, "t_end must be positive and finite"),
        ({"t_end": math.nan}, "t_end must be positive and finite"),
        ({"eps": math.inf}, "amplitude must be nonnegative and finite"),
        # json reads Infinity
        ({"rtol": math.inf}, "ode tolerances must be positive and finite"),
        ({"atol": math.nan}, "ode tolerances must be positive and finite"),
    ])
    def test_nonfinite_overrides_rejected(self, override, message):
        # every subcommand reads its t_end through this check, so
        # theta, liu and radial all stop here instead of running forever
        with pytest.raises(cli.ConfigError, match=message):
            cli.parse_config(None, override)


class TestRadialDefaults:
    # the radial fields of Config whose defaults are RunConfig's
    RADIAL_FIELDS = ("mass", "resolution", "n_mu", "n_psi", "cfl", "eps",
                     "family", "family_exponent", "eps0", "J_max", "m_max",
                     "nl_max", "records")

    def test_defaults_are_run_config_defaults(self):
        # t_end too: vel radial's horizon is RunConfig's default
        assert cli._run_config(cli.Config()) == radial.RunConfig(
            gamma=cli.Config.gamma)

    def test_no_literal_copy_of_a_run_config_default(self):
        tree = ast.parse(inspect.getsource(cli.Config))
        literal = {node.target.id for node in ast.walk(tree)
                   if isinstance(node, ast.AnnAssign)
                   and isinstance(node.value, ast.Constant)}
        assert literal.isdisjoint(self.RADIAL_FIELDS), literal
        assert {f.name for f in dataclasses.fields(cli.Config)} >= set(
            self.RADIAL_FIELDS)


class TestChecks:
    def test_at_most_line(self, capsys, tmp_path):
        checks = cli._Checks()
        checks.at_most("drift", 2.5e-7, 1e-6, "relative drift", " at t=1")
        assert checks.finish({}, tmp_path / "out.json") == 0
        assert capsys.readouterr().out == (
            "PASS drift: relative drift 2.50e-07 at t=1 (budget 1e-06)\n")

    @pytest.mark.parametrize("value", [2e-12, math.nan])
    def test_at_most_fails_over_budget_or_nan(self, capsys, tmp_path, value):
        checks = cli._Checks()
        checks.at_most("oracle", 0.0, 1e-12, "defect")
        checks.at_most("oracle", value, 1e-12, "defect")
        assert checks.finish({}, tmp_path / "out.json") == 1
        assert json.loads((tmp_path / "out.json").read_text()) == {
            "passed": False}
        assert capsys.readouterr().out.splitlines() == [
            "PASS oracle: defect 0.00e+00 (budget 1e-12)",
            f"FAIL oracle: defect {value:.2e} (budget 1e-12)"]


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["constants", "--config", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert "error:" in err

    def test_bad_config_value_via_main(self, capsys, tmp_path):
        path = write_config(tmp_path, {"gas": {"gamma": 0.5}})
        code, _, err = run_cli(["constants", "--config", path], capsys)
        assert code == 2
        assert "gamma must exceed 1" in err

    def test_runtime_error_exits_two(self, capsys, tmp_path, monkeypatch):
        def fail(_):
            raise RuntimeError("constants unavailable")

        monkeypatch.setattr(params, "derive_constants", fail)
        code, _, err = run_cli(
            ["constants", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "error: constants unavailable" in err

    def test_constants_near_gamma_one_exit_zero(self, capsys, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run_cli(
                ["constants", "--gamma", "1.001", "--out", str(tmp_path)],
                capsys)
        assert code == 0

    def test_radial_weight_underflow_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["radial", "--gamma", "1.001", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "gamma = 1.001 with 64 cells" in err

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(["--help"], capsys)
        assert code == 0


class TestConstants:
    def test_values_and_artifact(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["constants", "--gamma", "2", "--mass", "1",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert math.isclose(payload["a_bar"], 0.13481014081935863,
                            rel_tol=1e-10)
        assert payload["b_bar"] == 0.05
        assert math.isclose(payload["r0"], 1.6420118198073888,
                            rel_tol=1e-10)
        assert payload["iota"] == 1.0
        on_disk = json.loads((tmp_path / "constants.json").read_text())
        assert on_disk == payload

    def test_gamma_dependence(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["constants", "--gamma", "3", "--out", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert math.isclose(payload["b_bar"], 2.0 / 48.0, rel_tol=1e-12)
        assert payload["iota"] == 0.5


class TestSuites:
    def test_barenblatt_check(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["barenblatt-check", "--gamma", "2", "--out", str(tmp_path)],
            capsys)
        assert code == 0
        assert out.count("PASS") == 3
        assert "PASS vacuum-slope" in out
        payload = json.loads((tmp_path / "barenblatt_check.json").read_text())
        assert payload["passed"]
        assert payload["mass_defect"] <= 1e-7
        assert payload["vacuum_slope_defect"] <= 1e-5

    @pytest.mark.parametrize("gamma", ["1.01", "1.005"])
    def test_vacuum_slope_near_gamma_one(self, capsys, tmp_path, gamma):
        code, out, _ = run_cli(
            ["barenblatt-check", "--gamma", gamma, "--out", str(tmp_path)],
            capsys)
        assert "PASS vacuum-slope" in out
        assert code == 0

    def test_vacuum_slope_gate_fails_a_wrong_slope(self, capsys, tmp_path,
                                                   monkeypatch):
        slope = params.sound_speed_slope
        monkeypatch.setattr(params, "sound_speed_slope",
                            lambda *a: slope(*a) * (1.0 + 1e-3))
        code, out, _ = run_cli(
            ["barenblatt-check", "--gamma", "2", "--out", str(tmp_path)],
            capsys)
        assert code == 1
        assert "FAIL vacuum-slope" in out
        payload = json.loads((tmp_path / "barenblatt_check.json").read_text())
        assert not payload["passed"]
        assert payload["vacuum_slope_defect"] > 1e-5

    def test_theta(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["theta", "--gamma", "2", "--t-end", "1e4",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "PASS decay-bounds" in out
        assert "K_fit" in out
        series = (tmp_path / "theta_path.csv").read_text().splitlines()
        assert series[0] == "t,h,h_t,theta,theta_t,theta_tt"
        assert len(series) > 100
        payload = json.loads((tmp_path / "theta_decay.json").read_text())
        assert payload["passed"]
        assert payload["K_fit"] > 0.0
        # the solve switched to its stiff phase before t = 1e4
        steps = payload["steps"]
        assert steps["explicit"] > 0 and steps["stiff"] > 0
        assert 0.0 < steps["stiff_onset"] < 1e4

    def test_liu(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["liu", "--gamma", "2", "--t-end", "1e4",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "PASS asymptotic-equivalence" in out
        assert "PASS mass-drift" in out
        payload = json.loads((tmp_path / "liu.json").read_text())
        assert payload["passed"]
        assert payload["slope"] <= 0.05
        steps = payload["steps"]
        assert steps["explicit"] > 0 and steps["stiff"] > 0
        assert 0.0 < steps["stiff_onset"] < 1e4
        series = (tmp_path / "liu_deviation.csv").read_text().splitlines()
        assert series[0] == "t,deviation"
        assert len(series) > 100
        # plain float literals, not numpy scalar reprs
        rows = [[float(v) for v in line.split(",")] for line in series[1:]]
        assert rows[0] == [0.0, 0.0]

    def test_identities(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["identities", "--gamma", "2", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        payload = json.loads((tmp_path / "identities.json").read_text())
        assert payload["det_defect"] <= 1e-12
        assert payload["piola"] <= 1e-10

    def test_hardy(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["hardy", "--gamma", "2", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "PASS hardy-random" in out
        assert "PASS embedding-oscillatory" in out
        rows = (tmp_path / "hardy.csv").read_text().splitlines()
        assert rows[0] == "trial,k,ratio,passed"
        assert len(rows) == 61
        payload = json.loads((tmp_path / "hardy.json").read_text())
        assert payload["hardy_max_ratio"] <= 10.0
        assert len(payload["embedding"]) == 10

    @pytest.mark.parametrize("check,nan_fields,gate,line", [
        ("hardy_check", {"ratio": math.nan, "passed": False}, "hardy-random",
         "max ratio nan"),
        ("embedding_check", {"ratio": math.nan}, "embedding-oscillatory",
         "max fractional/weighted ratio nan")])
    def test_hardy_prints_a_nan_ratio(self, capsys, tmp_path, monkeypatch,
                                      check, nan_fields, gate, line):
        # one NaN ratio among finite ones fails the gate, and the printed
        # maximum is that NaN, not the largest finite ratio
        own, calls = getattr(norms, check), []

        def nan_once(*args, **kwargs):
            rep = own(*args, **kwargs)
            calls.append(1)
            return (dataclasses.replace(rep, **nan_fields) if len(calls) == 3
                    else rep)

        monkeypatch.setattr(norms, check, nan_once)
        code, out, _ = run_cli(
            ["hardy", "--gamma", "2", "--out", str(tmp_path)], capsys)
        assert code != 0
        failed = [ln for ln in out.splitlines() if f"FAIL {gate}" in ln]
        assert len(failed) == 1 and line in failed[0], out


class TestRadial:
    def test_light_run_passes_growth_gate(self, capsys, tmp_path):
        config = write_config(tmp_path, {
            "grid": {"resolution": 32, "n_mu": 6, "n_psi": 6},
            "norms": {"J_max": 1, "m_max": 1, "nl_max": 1},
            "output": {"records": 40},
        })
        code, out, _ = run_cli(
            ["radial", "--config", config, "--gamma", "2", "--eps", "1e-3",
             "--t-end", "1e3", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "PASS run-outcome" in out
        assert "PASS boundary-growth" in out
        assert "PASS vorticity-free" in out
        assert "PASS report-oracle" in out
        payload = json.loads((tmp_path / "radial_fit.json").read_text())
        assert payload["stop_reason"] == "completed"
        assert abs(payload["growth_fit"]["exponent"] - 0.2) <= 0.01
        assert payload["v_add_max"] <= 1e-16
        assert payload["oracle_defect"] <= 1e-12
        series = (tmp_path / "radial_trajectory.csv").read_text().splitlines()
        assert series[0].startswith("t,R,E_0")
        assert len(series) >= 40

    def test_benchmark_configuration_matches_reference(self, capsys, tmp_path):
        # the radial-report workload's run: its answers sit within round-off
        # of the reference the benchmark checks to 1e-6, so a march change
        # that moves them more fails here first
        bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
        with open(os.path.join(bench, "reference.json"), encoding="utf-8") as fh:
            ref = json.load(fh)["radial-report"]
        code, _, _ = run_cli(
            ["radial", "--config", os.path.join(bench, "radial_report.json"),
             "--out", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "radial_fit.json").read_text())
        assert payload["stop_reason"] == "completed"
        assert payload["sup_energy"] == pytest.approx(ref["sup_energy"], rel=1e-8)
        assert payload["growth_fit"]["exponent"] == pytest.approx(
            ref["exponent"], rel=1e-8)

    def test_zero_amplitude_skips_fit(self, capsys, tmp_path):
        config = write_config(tmp_path, {
            "grid": {"resolution": 32, "n_mu": 6, "n_psi": 6},
            "norms": {"J_max": 1, "m_max": 1, "nl_max": 1},
            "output": {"records": 10},
        })
        code, out, _ = run_cli(
            ["radial", "--config", config, "--eps", "0", "--t-end", "10",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "boundary-growth" not in out
        payload = json.loads((tmp_path / "radial_fit.json").read_text())
        assert payload["growth_fit"] is None

    def test_too_few_fit_records_fails_check(self, capsys, tmp_path):
        # 10 records over five decades leave 2 in the last one
        config = write_config(tmp_path, SMALL_RADIAL)
        code, out, _ = run_cli(
            ["radial", "--config", config, "--eps", "1e-3", "--t-end", "1e3",
             "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "PASS run-outcome" in out
        assert ("FAIL boundary-growth: no fit: fewer than 3 samples"
                in out)
        payload = json.loads((tmp_path / "radial_fit.json").read_text())
        assert payload["growth_fit"] is None
        assert payload["passed"] is False

    def test_short_run_fails_growth_gate(self, capsys, tmp_path):
        # 1+t spans less than a decade: nothing to fit, so the gate fails
        config = write_config(tmp_path, SMALL_RADIAL)
        code, out, _ = run_cli(
            ["radial", "--config", config, "--eps", "1e-3", "--t-end", "5",
             "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "PASS run-outcome" in out
        assert "FAIL boundary-growth: no fit: series spans" in out
        payload = json.loads((tmp_path / "radial_fit.json").read_text())
        assert payload["growth_fit"] is None
        assert payload["passed"] is False

    def test_deep_strings_pass_oracle(self, capsys, tmp_path):
        # J_max 3 with nl_max 3 walks four radial differences
        config = write_config(tmp_path, {
            "grid": {"resolution": 32, "n_mu": 4, "n_psi": 4},
            "norms": {"J_max": 3, "m_max": 2, "nl_max": 3},
            "output": {"records": 4},
        })
        code, out, _ = run_cli(
            ["radial", "--config", config, "--eps", "1e-3", "--t-end", "5",
             "--out", str(tmp_path)], capsys)
        assert "PASS report-oracle" in out
        payload = json.loads((tmp_path / "radial_fit.json").read_text())
        assert payload["oracle_defect"] <= 1e-12

    def test_perturbed_separated_report_fails_oracle(self, capsys, tmp_path,
                                                     monkeypatch):
        original = norms.SeparatedFields.partials

        def flipped(self, piece):
            return original(self, piece._replace(parity=-piece.parity))

        monkeypatch.setattr(norms.SeparatedFields, "partials", flipped)
        config = write_config(tmp_path, SMALL_RADIAL)
        code, out, _ = run_cli(
            ["radial", "--config", config, "--eps", "1e-3", "--t-end", "10",
             "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "FAIL report-oracle" in out
        payload = json.loads((tmp_path / "radial_fit.json").read_text())
        assert payload["oracle_defect"] > 1e-12

    def test_report_oracle_passes_at_gamma_five_thirds(self, capsys, tmp_path):
        # the CLI defaults with 12 records, the radial-report benchmark's
        # configuration, at gamma = 5/3: M0_integral, a remainder of about
        # 1e-13 there, read 3.89e-12 when measured relative to itself
        config = write_config(tmp_path, {"output": {"records": 12}})
        _, out, _ = run_cli(
            ["radial", "--config", config, "--gamma", "1.6666666666666667",
             "--out", str(tmp_path)], capsys)
        assert "PASS report-oracle" in out

    def test_telemetry_written(self, capsys, tmp_path):
        config = write_config(tmp_path, SMALL_RADIAL)
        run_cli(["radial", "--config", config, "--eps", "1e-3", "--t-end", "5",
                 "--out", str(tmp_path)], capsys)
        fit = json.loads((tmp_path / "radial_fit.json").read_text())
        assert fit["steps"] > 0
        assert 0.0 < fit["dt_min"] <= fit["dt_max"]
        # every record is reported: t = 0 and the 10 configured ones
        series = (tmp_path / "radial_trajectory.csv").read_text().splitlines()
        assert fit["records"] == len(series) - 1 == 11
        # the initial profile is 1e-3 psi, so J stays within 1e-2 of 1
        assert 0.99 < fit["min_jacobian"] < 1.0
        timing = json.loads((tmp_path / "radial_timing.json").read_text())
        assert set(timing) == {"setup_s", "stepping_s", "reporting_s"}
        assert all(v > 0.0 for v in timing.values())

    def test_json_format_writes_reports(self, capsys, tmp_path):
        config = write_config(tmp_path, {
            "grid": {"resolution": 32, "n_mu": 6, "n_psi": 6},
            "norms": {"J_max": 1, "m_max": 1, "nl_max": 1},
            "output": {"records": 10},
        })
        code, _, _ = run_cli(
            ["radial", "--config", config, "--eps", "0", "--t-end", "10",
             "--format", "json", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "radial_reports.json").exists()


class TestOutputHandling:
    def test_module_entry_point_warns_nothing(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "vel.cli",
             "constants", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "constants.json").exists()

    def test_env_var_out_dir(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("VEL_OUT_DIR", str(target))
        code, _, _ = run_cli(["constants"], capsys)
        assert code == 0
        assert (target / "constants.json").exists()

    def test_flag_beats_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("VEL_OUT_DIR", str(tmp_path / "env"))
        explicit = tmp_path / "flag"
        code, _, _ = run_cli(
            ["constants", "--out", str(explicit)], capsys)
        assert code == 0
        assert (explicit / "constants.json").exists()
        assert not (tmp_path / "env" / "constants.json").exists()

    # the radial run ends before the growth law is asymptotic, so its
    # 5% boundary-growth gate fails (exit 1); the files must still repeat
    @pytest.mark.parametrize("args,config,expected_code,outputs", [
        (["constants"], None, 0, ("constants.json",)),
        (["barenblatt-check"], None, 0, ("barenblatt_check.json",)),
        (["theta", "--gamma", "2", "--t-end", "100"], None, 0,
         ("theta_path.csv", "theta_decay.json")),
        (["liu", "--t-end", "1e4"], None, 0,
         ("liu_deviation.csv", "liu.json")),
        (["identities"], None, 0, ("identities.json",)),
        (["hardy"], None, 0, ("hardy.csv", "hardy.json")),
        (["radial", "--eps", "1e-3", "--t-end", "10"], SMALL_RADIAL, 1,
         ("radial_trajectory.csv", "radial_fit.json")),
        (["report"], None, 0, REPORT_FILES),
    ], ids=["constants", "barenblatt-check", "theta", "liu", "identities",
            "hardy", "radial", "report"])
    def test_byte_identical_reruns(self, capsys, tmp_path, args, config,
                                   expected_code, outputs):
        if config is not None:
            args = args + ["--config", write_config(tmp_path, config)]
        dirs = [tmp_path / "first", tmp_path / "second"]
        for d in dirs:
            code, _, _ = run_cli(args + ["--out", str(d)], capsys)
            assert code == expected_code
        for name in outputs:
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second

    def test_artifact_format(self, capsys, tmp_path):
        # every file of every subcommand: `report` writes the six suites'
        # files, `radial --format json` the radial ones
        config = write_config(tmp_path, SMALL_RADIAL)
        out = tmp_path / "out"
        assert run_cli(["report", "--out", str(out)], capsys)[0] == 0
        run_cli(["radial", "--config", config, "--eps", "1e-3", "--t-end",
                 "10", "--format", "json", "--out", str(out)], capsys)
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(REPORT_FILES + (
            "radial_trajectory.csv", "radial_fit.json", "radial_reports.json",
            "radial_timing.json"))
        for name in names:
            text = (out / name).read_text(encoding="utf-8")
            assert text.endswith("\n"), name
            assert "np." not in text, name
            if name.endswith(".csv"):
                rows = [line.split(",") for line in text.splitlines()]
                assert len(rows) > 1, name
                assert {len(row) for row in rows} == {len(rows[0])}, name

    def test_seeded_suites_deterministic(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run_cli(
                ["hardy", "--seed", "3", "--out", str(d)], capsys)
            assert code == 0
        assert ((dirs[0] / "hardy.csv").read_bytes()
                == (dirs[1] / "hardy.csv").read_bytes())
        assert ((dirs[0] / "hardy.json").read_bytes()
                == (dirs[1] / "hardy.json").read_bytes())


class TestReport:
    def test_aggregate(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["report", "--gamma", "2", "--out", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        for block in ("constants", "barenblatt-check", "theta", "liu",
                      "identities", "hardy"):
            assert payload[block] == "pass"
        assert "== identities ==" in out

    def test_runs_each_suite_once_in_command_order(self, capsys, tmp_path,
                                                   monkeypatch):
        calls = []

        def suite(name, code):
            def run(config, out):
                calls.append(name)
                return code
            return run

        for name in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, name,
                                suite(name, int(name == "liu")))
        monkeypatch.setitem(cli._COMMANDS, "report", cli._cmd_report)
        code, out, _ = run_cli(["report", "--out", str(tmp_path)], capsys)
        suites = ["constants", "barenblatt-check", "theta", "liu",
                  "identities", "hardy"]
        assert calls == suites
        assert code == 1
        assert out == "".join(f"== {name} ==\n" for name in suites)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload == {**{name: "pass" for name in suites}, "liu": "fail",
                           "gamma": cli.Config().gamma,
                           "seed": cli.Config().seed}

    # an unset t_end gives each dilation block its own subcommand's horizon
    @pytest.mark.parametrize("args,theta_end,liu_end", [
        ([], 1e4, 1e5), (["--t-end", "5e3"], 5e3, 5e3)],
        ids=["unset", "given"])
    def test_dilation_horizons(self, capsys, tmp_path, args, theta_end,
                               liu_end):
        run_cli(["report", "--out", str(tmp_path)] + args, capsys)
        theta_json = json.loads((tmp_path / "theta_decay.json").read_text())
        liu_json = json.loads((tmp_path / "liu.json").read_text())
        assert (theta_json["t_end"], liu_json["t_end"]) == (theta_end, liu_end)
