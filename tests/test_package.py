"""Package-wide rules: numpy and scipy are the only runtime dependencies,
every exported name resolves, and the test settings report a failing
Hypothesis example."""

from __future__ import annotations

import ast
import pathlib
import subprocess
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


def test_a_failing_hypothesis_example_is_reported(tmp_path):
    # Under the project's warning filters, the run reports the falsifying
    # example (exit status 1) and goes on to the next test.
    (tmp_path / "test_failing.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
        "def test_next():\n"
        "    pass\n")
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(config), "--rootdir", str(tmp_path), "test_failing.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
