from __future__ import annotations

import sys

import pytest
from hypothesis import settings

import skewgrass as sg

# Seeded runs stay reproducible bit for bit: every property draws the same
# examples on every run, and nothing is written to a local example database.
settings.register_profile("skewgrass", derandomize=True, database=None, deadline=None)
settings.load_profile("skewgrass")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion after the run."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, desc in sorted(results):
        terminalreporter.write_line(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")


@pytest.fixture(scope="session")
def Q():
    return sg.rational_algebra()


@pytest.fixture(scope="session")
def Qi():
    return sg.field_algebra([1, 0, 1])


@pytest.fixture(scope="session")
def H():
    return sg.quaternion_algebra(-1, -1)


def subspace_rows(v):
    """Rows of the transposed basis matrix, as plain rationals (D = Q only)."""
    assert v.algebra.dim == 1
    return tuple(
        tuple(v.basis.entries[r][j].coords[0] for r in range(v.ambient_dim))
        for j in range(v.dim)
    )
