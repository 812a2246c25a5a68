"""Every name a primegaps module imports at module level is read by it."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "primegaps"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set:
    """The names bound by the module-level imports of `tree`, less those of
    `from __future__`."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def read_names(tree: ast.AST) -> set:
    """The names `tree` reads, those inside string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    names |= read_names(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - read_names(tree)) == []


def test_an_unread_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\n"
        "from typing import Callable, Optional\n"
        "from .bounds import FAST_REL_TOL, settle\n"
        "def f(x: 'Callable[[], np.ndarray]') -> Optional[int]:\n"
        "    return settle(x)\n")
    assert imported_names(tree) - read_names(tree) == {"os", "FAST_REL_TOL"}
