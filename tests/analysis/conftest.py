"""Fixtures shared by the lint tests."""

from __future__ import annotations

import time
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.analysis import lint
from repro.analysis.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


class TreeLint(NamedTuple):
    report: lint.LintReport
    #: wall seconds the run took
    seconds: float


@pytest.fixture(scope="session")
def src_tree_lint() -> TreeLint:
    """One full-rule lint of ``src/repro``, shared by every test that
    checks the real tree, with its own wall time."""
    start = time.monotonic()
    report = lint.lint_paths([REPO_ROOT / "src" / "repro"],
                             rules=default_rules(), root=REPO_ROOT)
    return TreeLint(report, time.monotonic() - start)
