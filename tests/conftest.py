"""Shared pytest hooks and helpers: surface the acceptance-criteria
summary lines; the p-value of the one-coefficient route; a shifted
joint's support."""

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


def shifted_support(seed=0):
    """8 atoms of (y, x1, x2), to 3 decimals: x1 = 1e4 + N(0, 1),
    x2 = N(0, 1), y = x1 + x2 + N(0, 1).  Well determined, though its
    uncentred second-moment matrix has a condition number of about 1e16."""
    z = np.random.default_rng(seed).standard_normal((8, 3))
    x1 = 1e4 + z[:, 0]
    return np.round(np.column_stack([x1 + z[:, 1] + z[:, 2], x1, z[:, 1]]),
                    3)
