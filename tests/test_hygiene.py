"""Every module-level import, constant and private function in the package
is used where it is defined, or exported through ``__all__``.

A stand-in for an unused-name lint, written with the standard library's
``ast`` so it runs without extra tools.
"""

import ast
import glob
import os

import pytest

import qshape

_MODULES = sorted(glob.glob(os.path.join(os.path.dirname(qshape.__file__), "*.py")))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(tree: ast.Module):
    """(name, defining statement) for each module-level import, constant
    (an all-caps name, leading underscores aside) and private function."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.lstrip("_").isupper():
                    yield t.id, node
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield node.name, node


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(path: str) -> list[str]:
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    exported = _exported(tree)
    out = []
    for name, owner in _defined(tree):
        if _dunder(name) or name in exported:
            continue
        # a use inside the defining statement itself (recursion) does not count
        used = any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                   for stmt in tree.body if stmt is not owner for n in ast.walk(stmt))
        if not used:
            out.append(name)
    return out


def test_modules_are_found():
    assert len(_MODULES) >= 7


@pytest.mark.parametrize("path", _MODULES, ids=[os.path.basename(p) for p in _MODULES])
def test_no_unused_module_names(path):
    assert _unused(path) == []


def test_detects_unused_names(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "__all__ = ['Public']\n"
        "_TOL = 1e-12\n"
        "_USED = 2\n"
        "def _helper():\n"
        "    return _helper()\n"
        "@dataclass\n"
        "class Public:\n"
        "    x: int = _USED\n"
    )
    assert sorted(_unused(str(src))) == ["_TOL", "_helper", "field", "os"]
