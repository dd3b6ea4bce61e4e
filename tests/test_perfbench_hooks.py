"""The benchmark's tracing patches and probes still fit vel.

perfbench/run.py routes calls into vel through spans by replacing named
attributes (``norms.flow_ops``, ``RadialSolver.mass``, ...), and
perfbench/probes.py applies solver operators to vectors of fixed shapes.
Their own tests are not part of this suite, so these checks keep a rename,
deletion or reshape in vel from surfacing only when a traced benchmark run
raises.
"""

import ast
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


def _vel_references(tree):
    """Dotted names the file looks up on vel modules.

    A reference is an attribute chain rooted at a name the file imports from
    vel (``radial.RadialSolver.step``), or a ``patch(owner, "attr", ...)``
    call whose owner is such a chain (the tracer's spans).
    """
    bound = {alias.asname or alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "vel"
             for alias in node.names}

    def chain(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            return [node.id] + parts[::-1]
        return None

    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            # the outermost attribute of a chain carries the whole name
            dotted = chain(node)
            if dotted:
                refs.add(tuple(dotted))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "patch" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            owner = chain(node.args[0])
            if owner:
                refs.add(tuple(owner) + (node.args[1].value,))
    return refs


def test_perfbench_references_exist_on_vel():
    # a deleted or renamed name that perfbench reaches (norms.energy_Ej in a
    # probe, the norms.flow_ops re-export in a span) would otherwise show
    # only as failed benchmark operations
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        refs |= {(path.name,) + ref
                 for ref in _vel_references(ast.parse(path.read_text()))}
    assert ("run.py", "norms", "flow_ops") in refs
    assert ("probes.py", "norms", "energy_Ej") in refs
    missing = []
    for fname, module, *attrs in sorted(refs):
        obj = importlib.import_module(f"vel.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(f"{fname}: {module}.{'.'.join(attrs)}")
                break
            obj = getattr(obj, attr)
    assert not missing, missing
