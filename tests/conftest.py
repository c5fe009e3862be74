"""Shared pytest hooks and helpers: surface the acceptance-criteria
summary lines; the p-value of the one-coefficient route."""

import numpy as np

from impactreg.regression import _focus_test, _norm, _validate

ACCEPTANCE_LINES: list = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def focus_pvalue(y, X, names=None, flavor="HC0", reference="student_t"):
    """The p-value of the one-coefficient route, which forms only row 1,
    on a checked column-major copy of X."""
    y, X, names = _validate(y, np.array(X, dtype=float, order="F"), names)
    return _focus_test(y, X, 1, names, flavor, reference, _norm(y)).p_value
