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
    """Names of the dense ``np.linalg`` eigensolves made while the test runs."""
    solves: list[str] = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            solves.append(_solver.__name__)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return solves
