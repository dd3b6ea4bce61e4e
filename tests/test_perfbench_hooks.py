"""The benchmark's tracing patches still find every name they wrap.

perfbench/run.py routes calls into vel through spans by replacing named
attributes (``norms.flow_ops``, ``RadialSolver.mass``, ...).  Its own tests
are not part of this suite, so this check keeps a rename or deletion in vel
from surfacing only when a traced benchmark run raises.
"""

import importlib.util
from pathlib import Path

from vel import radial

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
