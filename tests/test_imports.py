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


def _loads(module, other):
    """Whether a fresh process that imports module has other loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print({other!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only vel hardy integrates with quad; every other command would pay
    # scipy.integrate's import time and memory for nothing
    assert not _loads("vel.cli", "scipy.integrate")


def _scipy_imports(source):
    """Dotted names of what source imports from scipy, at any depth:
    "scipy.special.beta" for from scipy.special import beta."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [f"{node.module}.{a.name}" for a in node.names]
    return [name for name in found if name.split(".")[0] == "scipy"]


def _private(name):
    return any(part.startswith("_") for part in name.split("."))


def test_scipy_lint_sees_private_and_linalg_imports():
    source = ("import scipy.linalg\nfrom scipy.special import beta\n"
              "def f():\n    from scipy.sparse._sparsetools import csr_matvec\n"
              "    from scipy.linalg.blas import dgbmv\n")
    names = _scipy_imports(source)
    assert sorted(names) == ["scipy.linalg", "scipy.linalg.blas.dgbmv",
                             "scipy.sparse._sparsetools.csr_matvec",
                             "scipy.special.beta"]
    assert [n for n in names if _private(n)] == [
        "scipy.sparse._sparsetools.csr_matvec"]


def test_private_scipy_names_only_in_radial():
    # a scipy upgrade may move a private name; radial.py's csr_matvec is
    # the one such import, and tests/test_radial.py checks it against the
    # public csr_array product
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in _scipy_imports(path.read_text()) if _private(name)}
    assert found == {("radial", "scipy.sparse._sparsetools.csr_matvec")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_linalg(path):
    assert [name for name in _scipy_imports(path.read_text())
            if name.startswith("scipy.linalg")] == []


def test_radial_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg.blas costs a fresh process about 50 ms to import, which
    # the CSR kernel of the radial stage does not need
    assert not _loads("vel.radial", "scipy.linalg")


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
STAGE_FUNCTIONS = ("stage", "accel", "march")
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
              "        def accel(x):\n            return x\n")
    assert _stage_reductions(source) == {"march": [(4, "all")], "accel": []}


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
# gamma, positive-and-finite, finite, integer, nonnegative and Jacobian rules
# state their messages in a raise; the J_max and resolution rules pass their
# name and least value to params.check_integer, which words their messages
# "<name> must be ...".  Every consumer calls the rule, so no other function
# may state it again.  cli._coerce states its own rule: a config value's
# JSON type.  The profile rule 1 + f > 0 has two homes: RadialState and the
# march, which keeps its own copy because a helper there would add a Python
# call to every step and change TestStageLaw's exact call list.
RULE_HOMES = {
    "gamma must exceed 1": {("params", "check_gamma")},
    "must be positive and finite": {("params", "check_positive")},
    "must be finite": {("params", "check_finite")},
    "must be an integer": {("params", "check_integer")},
    "must be nonnegative and finite": {("params", "check_nonnegative")},
    "deformation is degenerate": {("geometry", "check_jacobian")},
    "1 + f nonpositive": {("radial", "__post_init__"), ("radial", "march")},
    "expected an integer": {("cli", "_coerce")},
    "J_max must be": {("norms", "check_J_max")},
    "resolution must be": {("radial", "check_resolution")},
}
# Other words a second home might state a rule in.
REWORDINGS = {
    "must be positive and finite": ("must be positive", "must stay positive"),
    "must be an integer": ("non-negative integer", "nonnegative integer"),
    "must be nonnegative and finite": ("must be nonnegative",
                                       "must be non-negative"),
}


def _stating(source, text):
    """Names of the innermost functions in source that state the rule
    worded text: a raise whose string (or f-string) literal contains text
    or one of its rewordings, or a check_integer call whose name argument
    begins text."""
    found = set()
    wordings = (text, *REWORDINGS.get(text, ()))

    def visit(node, fn, raising):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name, False)
                continue
            if (raising and isinstance(child, ast.Constant)
                    and isinstance(child.value, str)
                    and any(w in child.value for w in wordings)):
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
              '    print("J_max must be nonnegative")\n'
              'def check_integer(name, value, least):\n'
              '    raise ValueError(f"{name} must be an integer")\n'
              'def nu(order):\n'
              '    raise ValueError(f"order must be a non-negative integer")\n'
              'def embed(b):\n    if b < 0:\n'
              '        raise ValueError(f"b must be a nonnegative integer, got {b}")\n'
              'def check_nonnegative(name, value):\n'
              '    raise ValueError(f"{name} must be nonnegative and finite")\n'
              'def eval_at(t):\n'
              '    raise ValueError(f"t must be non-negative, got {t}")\n'
              'def check_jacobian(J):\n'
              '    raise Degenerate("deformation is degenerate: J <= 0")\n'
              'class SeparatedFields:\n    def deformation(self, jac):\n'
              '        raise Degenerate("deformation is degenerate")\n'
              'class RadialState:\n    def __post_init__(self):\n'
              '        raise Degenerate(f"1 + f nonpositive at node {i}")\n'
              'def _bind():\n    def march(z):\n'
              '        raise Degenerate(f"1 + f nonpositive at node {i}")\n'
              'def step(z):\n    raise Degenerate("1 + f nonpositive")\n')
    assert _stating(source, "gamma must exceed 1") == {"check_gamma",
                                                       "__post_init__"}
    assert _stating(source, "J_max must be") == {"check_J_max", "energy"}
    assert _stating(source, "must be an integer") == {"check_integer", "nu",
                                                      "embed"}
    assert _stating(source, "must be nonnegative and finite") == {
        "check_nonnegative", "eval_at"}
    assert _stating(source, "deformation is degenerate") == {
        "check_jacobian", "deformation"}
    assert _stating(source, "1 + f nonpositive") == {"__post_init__",
                                                     "march", "step"}


@pytest.mark.parametrize("text", sorted(RULE_HOMES))
def test_each_rule_written_once(text):
    found = {(path.stem, fn) for path in sorted(SRC.glob("*.py"))
             for fn in _stating(path.read_text(), text)}
    assert found == RULE_HOMES[text]


# A gate's budget is stated once, in the comparison: _Checks.at_most prints
# the budget it compares against, so no other record detail writes one.
def _budget_printers(source):
    """Names of the innermost functions in source with a record(...) call
    whose arguments hold a string literal containing "(budget"."""
    found = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and "record" in (getattr(child.func, "attr", None),
                                     getattr(child.func, "id", None))
                    and any(isinstance(n, ast.Constant)
                            and isinstance(n.value, str) and "(budget" in n.value
                            for n in ast.walk(child))):
                found.add(fn)
            visit(child, fn)

    visit(ast.parse(source), "<module>")
    return found


def test_budget_lint_sees_a_hand_written_budget():
    source = ('class _Checks:\n    def at_most(self, name, v, b, what):\n'
              '        self.record(name, v <= b, f"{what} {v} (budget {b})")\n'
              'def _cmd_liu(checks, drift):\n'
              '    checks.record("mass-drift", drift <= 1e-6,\n'
              '                  f"relative drift {drift:.2e} (budget 1e-06)")\n'
              '    checks.record("slope", True, "(ceiling 0.05)")\n')
    assert _budget_printers(source) == {"at_most", "_cmd_liu"}


def test_gate_budgets_printed_by_at_most_only():
    assert _budget_printers((SRC / "cli.py").read_text()) == {"at_most"}


# Public names have one convention: no leading underscore.  An __all__ list
# would state them a second time, and nothing in this tree reads one.
def _all_assignments(source):
    """Lines of source that assign, augment or annotate __all__."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            found.append(node.lineno)
    return found


def test_all_lint_sees_an_assignment():
    source = ('import math\n__all__ = ["f"]\n__all__ += ["g"]\n'
              'all_names: list = []\n__all__: list = ["h"]\n')
    assert _all_assignments(source) == [2, 3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_assigns_all(path):
    assert _all_assignments(path.read_text()) == []
