"""Every module-level import in vel is used by the module that makes it.

No linter runs on this tree, so a deletion that leaves its imports behind
would otherwise go unnoticed; each stale import also costs compile and
import time in every fresh process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vel"

# Imported for other modules to reach, not used where imported.
REEXPORTS = {
    ("norms", "flow_ops"): "perfbench's tracer patches norms.flow_ops",
}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for name, node in imported.items():
        if name in used:
            continue
        # a package's `from . import submodule` makes vel.submodule available
        if (path.name == "__init__.py" and isinstance(node, ast.ImportFrom)
                and node.level == 1 and node.module is None):
            continue
        if (path.stem, name) in REEXPORTS:
            continue
        unused.append(name)
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path) == []


def _writes_or_serializes(path):
    """Lines of path that call open or import json."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name == "open":
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "json" for a in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "json":
                found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"],
    ids=lambda p: p.name)
def test_only_the_cli_writes_artifacts(path):
    # the artifact format (UTF-8, untranslated newlines, repr floats, the
    # JSON layout) has one home: cli.py
    assert _writes_or_serializes(path) == []


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only vel hardy integrates with quad; every other command would pay
    # scipy.integrate's import time and memory for nothing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, vel.cli; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def _einsum_path_searches(path):
    """Lines of path whose einsum call passes optimize."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "einsum"
            and any(k.arg == "optimize" for k in node.keywords)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_einsum_without_path_search(path):
    """The per-node 3x3 contractions are too small for a contraction path
    to pay for its search. With numpy 2.4.6 on a 2-core host and
    (3, 3, 64, 8, 8) operands, ik,kj->ij took 274 us with optimize=True
    and 78 us without, and ri,sr,is-> took 784 us against 72 us."""
    assert _einsum_path_searches(path) == []


# The closures RadialSolver binds at build, which every RK4 stage runs.
STAGE_FUNCTIONS = ("stage", "grad", "accel", "march")
REDUCTIONS = {"min", "max", "all", "any"}


def _stage_reductions(source):
    """{function: [(line, name), ...]} of the .min()/.max()/.all()/.any()
    calls in each stage function defined in RadialSolver in source, as a
    method or as a closure nested in one."""
    cls = next(node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == "RadialSolver")
    return {fn.name: [(node.lineno, node.func.attr) for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in REDUCTIONS]
            for fn in ast.walk(cls)
            if isinstance(fn, ast.FunctionDef) and fn.name in STAGE_FUNCTIONS}


def test_stage_lint_sees_a_reduction():
    source = "class RadialSolver:\n    def stage(self, x):\n        return x.min()\n"
    assert _stage_reductions(source) == {"stage": [(3, "min")]}


def test_stage_lint_sees_a_reduction_in_a_closure():
    source = ("class RadialSolver:\n    def _bind(self):\n"
              "        def march(z):\n            return z.all()\n"
              "        def grad(x):\n            return x\n")
    assert _stage_reductions(source) == {"march": [(4, "all")], "grad": []}


def test_stage_without_method_reductions():
    """Every stage pays each reduction it makes. At 64 elements (numpy
    2.4.6, 2-core host) x.min() took 1.80 us and np.isfinite(y).all()
    2.30 us, against 0.47 us for x[x.argmin()] and 0.73 us for
    float(y.dot(zeros)) == 0.0."""
    found = _stage_reductions((SRC / "radial.py").read_text())
    assert sorted(found) == sorted(STAGE_FUNCTIONS)
    assert all(calls == [] for calls in found.values()), found


# The step rule (the CFL step and the damping bound) has one home: the march
# picks every dt, and step compares its dt with the one the march took.
STEP_RULE_READERS = {("radial", "march")}


def _readers(source, name):
    """Names of the innermost functions in source that read the global
    name; "<module>" for a read at module level."""
    found = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    and isinstance(child.ctx, ast.Load)):
                found.add(fn)
            visit(child, fn)

    visit(ast.parse(source), "<module>")
    return found


def test_step_rule_lint_sees_a_second_reader():
    source = ("DAMPING_BOUND = 2.5\nclass RadialSolver:\n"
              "    def _bind(self):\n        def march(th):\n"
              "            return DAMPING_BOUND / th\n"
              "    def step(self, dt):\n        return dt > DAMPING_BOUND\n")
    assert _readers(source, "DAMPING_BOUND") == {"march", "step"}


def test_step_rule_read_only_by_the_march():
    found = {(path.stem, fn) for path in sorted(SRC.glob("*.py"))
             for fn in _readers(path.read_text(), "DAMPING_BOUND")}
    assert found == STEP_RULE_READERS


# Each setting's rule has one home: the one function that states it.  The
# gamma, positive-and-finite and integer rules state their messages in a
# raise; the J_max and resolution rules pass their name and least value to
# params.check_integer, which words their messages "<name> must be ...".
# Every consumer calls the rule, so no other function may state it again.
RULE_HOMES = {
    "gamma must exceed 1": {("params", "check_gamma")},
    "must be positive and finite": {("params", "check_positive")},
    "must be an integer": {("params", "check_integer")},
    "J_max must be": {("norms", "check_J_max")},
    "resolution must be": {("radial", "check_resolution")},
}


def _stating(source, text):
    """Names of the innermost functions in source that state the rule
    worded text: a raise whose string (or f-string) literal contains text,
    or a check_integer call whose name argument begins text."""
    found = set()

    def visit(node, fn, raising):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name, False)
                continue
            if (raising and isinstance(child, ast.Constant)
                    and isinstance(child.value, str) and text in child.value):
                found.add(fn)
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", None) == "check_integer"
                    and isinstance(child.args[0], ast.Constant)
                    and text.startswith(f"{child.args[0].value} must be")):
                found.add(fn)
            visit(child, fn, raising or isinstance(child, ast.Raise))

    visit(ast.parse(source), "<module>", False)
    return found


def test_rule_lint_sees_a_second_home():
    source = ('def check_gamma(g):\n'
              '    raise ValueError(f"gamma must exceed 1, got {g}")\n'
              'class ThetaPath:\n    def __post_init__(self):\n'
              '        """gamma must exceed 1"""\n'
              '        if not self.gamma > 1.0:\n'
              '            raise ValueError("gamma must exceed 1")\n'
              'def check_J_max(J_max):\n    check_integer("J_max", J_max, 0)\n'
              'def energy(J_max):\n    check_integer("J_max", J_max, 1)\n'
              '    print("J_max must be nonnegative")\n')
    assert _stating(source, "gamma must exceed 1") == {"check_gamma",
                                                       "__post_init__"}
    assert _stating(source, "J_max must be") == {"check_J_max", "energy"}


@pytest.mark.parametrize("text", sorted(RULE_HOMES))
def test_each_rule_written_once(text):
    found = {(path.stem, fn) for path in sorted(SRC.glob("*.py"))
             for fn in _stating(path.read_text(), text)}
    assert found == RULE_HOMES[text]
