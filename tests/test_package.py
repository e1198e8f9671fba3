"""Package-wide rules: numpy and scipy are the only runtime dependencies,
and every exported name resolves."""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

import qubolab

SRC = pathlib.Path(qubolab.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "qubolab"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_scipy(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["qubolab" if node.level else node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in ALLOWED, f"{path.name}:{node.lineno}: {name}"


def test_every_exported_name_resolves():
    missing = [name for name in qubolab.__all__ if not hasattr(qubolab, name)]
    assert missing == []
    assert len(set(qubolab.__all__)) == len(qubolab.__all__)
