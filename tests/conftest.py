"""Shared fixtures, the independent enumeration oracle, and the
acceptance-criteria reporter.

The oracle builds its own dense matrix and scores every assignment with
plain numpy, so it shares no code path with the block-product solver it is
used to check.
"""

from __future__ import annotations

import numpy as np
import pytest

from qubolab import QuboInstance
from qubolab.cli import keep_heap_mapped


def pytest_sessionstart(session):
    # The suite trains many models in one process; keep its freed heap
    # mapped, as the CLI does for its own process.
    keep_heap_mapped()


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


def naive_minimize(instance: QuboInstance, b) -> tuple[np.ndarray, float]:
    """Global minimum by direct enumeration of all 2^k assignments.

    Assignments are laid out in lexicographic order with x_0 as the most
    significant bit, so the first occurrence of the minimum value is the
    lexicographically smallest minimizer.
    """
    k = instance.k
    a = np.zeros((k, k))
    a[np.asarray(instance.rows), np.asarray(instance.cols)] = instance.vals
    b = np.asarray(b, dtype=np.float64)
    n = 1 << k
    codes = np.arange(n, dtype=np.int64)
    x_all = ((codes[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.float64)
    f_all = np.einsum("ni,ij,nj->n", x_all, a, x_all) + x_all @ b
    best = int(np.argmin(f_all))
    return x_all[best].astype(np.int8), float(f_all[best])


def tiny_instance() -> QuboInstance:
    """k=2 with one coupling: A = {(0, 1): 1}."""
    return QuboInstance(k=2, rows=[0], cols=[1], vals=[1.0])


@pytest.fixture
def k2_instance() -> QuboInstance:
    return tiny_instance()


# ---------------------------------------------------------------------------
# Acceptance-criteria reporting
# ---------------------------------------------------------------------------

_CRITERIA: dict[int, tuple[bool, str]] = {}
N_CRITERIA = 13


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _CRITERIA[number] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in range(1, N_CRITERIA + 1):
        if number in _CRITERIA:
            passed, detail = _CRITERIA[number]
            verdict = "PASS" if passed else "FAIL"
        else:
            verdict, detail = "FAIL", "no result recorded"
        terminalreporter.write_line(f"[criterion {number:2d}] {verdict} {detail}")
