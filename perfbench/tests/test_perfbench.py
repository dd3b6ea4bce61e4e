"""Tests of the benchmark itself: tracer arithmetic, answer checks that can
fail, the metric list, and the refusal to run without vel's sources.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest

import probes
import run
import speed
import workloads
from tracer import NO_PARENT, Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_tracer_self_time_excludes_children_and_hot_calls():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.01), hot=True)
    child = tracer.wrap("child", lambda: _busy(0.02))

    def body():
        _busy(0.03)
        child()
        leaf()
        leaf()

    outer = tracer.wrap("outer", body)
    outer()
    outer()
    totals = tracer.totals()
    assert totals["outer"]["calls"] == 2
    assert totals["child"]["calls"] == 2
    assert totals["leaf"]["calls"] == 4
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["child"]["s"] - totals["leaf"]["s"])
    assert 0.06 <= totals["outer"]["self_s"] < totals["outer"]["s"]
    assert tracer.top_level_seconds() == pytest.approx(totals["outer"]["s"])
    parents = {name: parent for name, parent, _, _ in tracer.spans}
    assert parents["outer"] == NO_PARENT and parents["child"] != NO_PARENT


def test_tracer_restores_every_patched_name():
    from vel import geometry, norms, radial, theta

    targets = [(radial, "run"), (radial.RadialSolver, "step"),
               (norms, "flow_ops"), (geometry.BallGrid, "partials"),
               (theta, "nu")]
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = Tracer()
    run.install_spans(tracer)
    assert all(owner.__dict__[attr] is not orig
               for (owner, attr), orig in zip(targets, before))
    tracer.restore()
    assert [owner.__dict__[attr] for owner, attr in targets] == before


def test_tracer_dump_writes_spans(tmp_path):
    tracer = Tracer()
    tracer.wrap("a", lambda: tracer.wrap("b", lambda: None, hot=True)())()
    tracer.dump(tmp_path / "trace.json")
    payload = json.loads((tmp_path / "trace.json").read_text())
    assert [row[0] for row in payload["spans"]] == ["a"]
    assert payload["hot"] == [{"name": "b", "parent": 0, "calls": 1,
                               "s": payload["hot"][0]["s"]}]


def test_speed_meter_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    wall, nominal = speed.nominal_seconds(speed.SCALAR, _busy, 0.3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert wall >= 0.3 and nominal > 0.0
    with speed.SpeedMeter(speed.ARRAY) as meter:
        _busy(0.3)
    assert len(meter.samples) >= 4


def test_liu_operation_fails_against_a_perturbed_reference():
    reference = workloads.load_reference()
    tally = workloads.Tally()
    ref = reference["dilation-ode"]
    check = workloads.check_liu
    answer = workloads.liu_answer(2.0)
    tally.op("liu", lambda: answer,
             lambda a: check(a, ref["liu"]["2"], ref["rel_tol"],
                             ref["drift_rel_tol"]))
    assert (tally.attempted, tally.failed) == (1, 0)

    bad = copy.deepcopy(ref["liu"]["2"])
    bad["slope"] *= 1.0 + 1e-4
    tally.op("liu", lambda: answer,
             lambda a: check(a, bad, ref["rel_tol"], ref["drift_rel_tol"]))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "slope" in tally.problems[0]


def test_radial_and_decay_checks_fail_against_perturbed_references():
    reference = workloads.load_reference()
    rr = reference["radial-report"]
    good = {"exit_code": 0, "stop_reason": "completed",
            "sup_energy": rr["sup_energy"], "exponent": rr["exponent"]}
    assert workloads.check_radial_report(good, rr) == []
    assert workloads.check_radial_report(
        good, dict(rr, sup_energy=rr["sup_energy"] * (1 + 1e-5)))
    assert workloads.check_radial_report(
        dict(good, exit_code=2, output="error"), rr)

    rs = reference["radial-step"]
    assert workloads.check_radial_step({"stop_reason": "completed",
                                        "exponent": rs["exponent"]}, rs) == []
    assert workloads.check_radial_step(
        {"stop_reason": "completed", "exponent": rs["exponent"]},
        dict(rs, exponent=rs["exponent"] * (1 + 1e-5)))

    ode = reference["dilation-ode"]
    fits = [dict(f, lower=0.0, monotone=-1e-4) for f in ode["decay"]["3"]]
    assert workloads.check_decay(fits, ode["decay"]["3"], ode["rel_tol"]) == []
    bad = copy.deepcopy(ode["decay"]["3"])
    bad[1]["Cn_fit_2"] *= 1.0 + 1e-5
    assert workloads.check_decay(fits, bad, ode["rel_tol"])


def test_raising_operation_counts_as_failed():
    tally = workloads.Tally()

    def boom():
        raise RuntimeError("degenerate")

    tally.op("boom", boom, lambda a: [])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_every_listed_metric_is_produced(monkeypatch, tmp_path):
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert e2e == {"run_s", "setup_s", "peak_rss_mb"}

    names = [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    fake_probes = {n: 1.0 for n in names if n != "trace.overhead_s"
                   and n.rpartition(".")[2] not in ("calls", "s", "self_s")}
    monkeypatch.setattr(probes, "run_probes", lambda seed: dict(fake_probes))
    wl = workloads.Workload(setup=lambda: None,
                            iteration=lambda tally, ref: tally.op(
                                "noop", dict, lambda a: []),
                            calibration=speed.ARRAY)
    args = types.SimpleNamespace(workload="unit", seed=0)
    monkeypatch.setattr(workloads, "OUT_DIR", str(tmp_path))
    values = run.per_layer(args, wl, {}, workloads.Tally(), names)
    assert set(values) >= set(names)
    with pytest.raises(KeyError):
        run.per_layer(args, wl, {}, workloads.Tally(), ["radial.steps.calls"])


def test_probes_produce_the_listed_probe_metrics():
    names = {m["name"] for m in SPEC["per_layer"]}
    out = probes.run_probes(0)
    assert set(out) <= names
    assert all(v > 0.0 for v in out.values())
    assert len(out) == 11


def test_refuses_to_run_without_vel_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radial-step",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
