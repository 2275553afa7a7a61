"""Shared fixtures and the acceptance-criteria summary reporter."""

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, label: str, ok: bool, detail: str = "") -> str:
    """Register one acceptance-criterion verdict for the terminal summary."""
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} {label}: {status}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def eigensolves(monkeypatch):
    """Dimension of each ``np.linalg`` eigensolve made while the test runs.

    ``hermitian_eig`` solves one block at a time, so one Hamiltonian may
    take several calls; the dimensions of one full solve add up to the
    Hamiltonian's dimension, and solving it twice doubles the sum.
    """
    solves: list[int] = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            solves.append(np.shape(args[0])[0])
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return solves
