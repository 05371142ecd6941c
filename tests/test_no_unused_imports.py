"""Every module-level import in ``src/repro`` is used by its module.

An AST scan, so it needs no linter: for each module (``__init__.py``
files are skipped, their imports are re-exports) it collects the names
bound by top-level ``import``/``from ... import`` statements and checks
that each one is read somewhere in the module — as a name, the root of
an attribute chain, or inside a string annotation.  An import kept for
its side effect or as a patch target says so with ``# noqa: F401`` on
its line.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _module_imports(tree):
    """(name, line) for each name bound by a top-level import."""
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], alias.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = set()
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    trees.append(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    for t in trees:
        for node in ast.walk(t):
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


def unused_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _used_names(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in _module_imports(tree)
            if name not in used and "noqa: F401" not in lines[line - 1]]


def test_scan_sees_the_package():
    assert len(MODULES) > 50


def test_scanner_flags_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import List, Dict\n"
        "import numpy as np\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return np.sum(x)\n"
    )
    assert sorted(unused_imports(mod)) == ["m.py:2: os", "m.py:4: Dict"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []
