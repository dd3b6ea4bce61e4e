"""Every module-level import in vel is used by the module that makes it.

No linter runs on this tree, so a deletion that leaves its imports behind
would otherwise go unnoticed; each stale import also costs compile and
import time in every fresh process.
"""

import ast
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

