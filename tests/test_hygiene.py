"""Every module-level import, constant and private function in the package
is used where it is defined, or exported through ``__all__``; and every
dataclass that holds an array compares and hashes by identity.

A stand-in for an unused-name lint, written with the standard library's
``ast`` so it runs without extra tools.
"""

import ast
import dataclasses
import glob
import importlib
import os
import types

import numpy as np
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


def _array_dataclasses(module) -> dict[str, bool]:
    """Each dataclass defined in ``module`` with a field annotated
    ``np.ndarray``, and whether it generates ``__eq__``.  One that does
    compares the arrays, so ``==`` raises on a multi-entry one and the
    class is unhashable."""
    return {name: cls.__dataclass_params__.eq for name, cls in vars(module).items()
            if isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
            and any(f.type in ("np.ndarray", np.ndarray) for f in dataclasses.fields(cls))}


def test_array_holding_dataclasses_compare_by_identity():
    held = {}
    for path in _MODULES:
        name = os.path.splitext(os.path.basename(path))[0]
        if name != "__init__":
            held.update(_array_dataclasses(importlib.import_module(f"qshape.{name}")))
    assert set(held) >= {"BlockEnc", "StatePrep", "Grid", "WeightVector"}
    assert [name for name, eq in held.items() if eq] == []


def test_detects_array_dataclasses_with_eq():
    sample = types.ModuleType("sample")

    @dataclasses.dataclass(frozen=True)
    class Compared:
        values: np.ndarray

    @dataclasses.dataclass(frozen=True, eq=False)
    class ByIdentity:
        values: np.ndarray

    @dataclasses.dataclass(frozen=True)
    class Plain:
        count: int

    for cls in (Compared, ByIdentity, Plain):
        cls.__module__ = "sample"
        setattr(sample, cls.__name__, cls)
    assert _array_dataclasses(sample) == {"Compared": True, "ByIdentity": False}
