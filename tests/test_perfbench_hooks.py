"""The benchmark's tracing patches and probes still fit vel.

perfbench/run.py routes calls into vel through spans by replacing named
attributes (``norms.flow_ops``, ``RadialSolver.mass``, ...), and
perfbench/probes.py applies solver operators to vectors of fixed shapes.
Their own tests are not part of this suite, so these checks keep a rename,
deletion or reshape in vel from surfacing only when a traced benchmark run
raises.
"""

import importlib.util
from pathlib import Path

import numpy as np

from vel import norms, radial

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_spans_finds_every_traced_name():
    run, tracer_mod = _load("run"), _load("tracer")
    step = radial.RadialSolver.__dict__["step"]
    energy = radial.energy_functionals
    tracer = tracer_mod.Tracer()
    try:
        run.install_spans(tracer)
        assert radial.RadialSolver.__dict__["step"] is not step
        assert "norms.energy_functionals" in tracer.layers
    finally:
        tracer.restore()
    assert radial.RadialSolver.__dict__["step"] is step
    assert radial.energy_functionals is energy


def test_probe_operands_conform():
    # the SBP matvec probe applies solver.D to a vector on the full 2n-node
    # grid of the odd extension
    solver = radial.RadialSolver(2.0, resolution=16)
    out = solver.D @ np.ones(2 * solver.n)
    assert out.shape == (2 * solver.n,)


def test_workloads_build(monkeypatch):
    # perfbench/workloads.py builds STEP_CONFIG with report_angles=(4, 4)
    # at import: deleting that RunConfig field would fail every radial-step
    # operation
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load("workloads")
    cfg = workloads.STEP_CONFIG
    assert cfg.report_angles == (4, 4)
    assert isinstance(cfg, radial.RunConfig)
    assert set(workloads.WORKLOADS) == {"radial-report", "radial-step",
                                        "dilation-ode"}
    # the names the benchmark reaches beyond the traced spans
    assert callable(norms.flow_ops)
    assert radial.RadialSolver(2.0, resolution=16).D.shape == (32, 32)
