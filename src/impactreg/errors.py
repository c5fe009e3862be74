"""Exception hierarchy shared across the package."""


class ImpactregError(Exception):
    """Base class for all errors raised by impactreg."""


class NumericalError(ImpactregError):
    """The input is well formed, but the numbers admit no answer: a
    singular design, a degenerate covariate or test, a non-finite value.

    The command line exits with 3 for these and with 2 for every other
    ``ImpactregError``.
    """


class DimensionMismatch(ImpactregError):
    pass


class NonFinite(NumericalError):
    pass


class RankDeficient(NumericalError):
    """Design matrix is not of full column rank.

    The offending column label (or index) is stored in ``column``.
    """

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(message or f"design matrix is rank deficient: column {column!r} "
                                    "is linearly dependent on the preceding columns")


class ZeroStdError(NumericalError):
    """A coefficient's robust test is degenerate.

    The coefficient itself is still estimated; it is stored in
    ``estimate``.
    """

    def __init__(self, message, estimate=None):
        self.estimate = estimate
        super().__init__(message)


class InvariantViolation(NumericalError):
    """Two routes to the same quantity disagree beyond rounding."""


class UnknownColumn(ImpactregError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"unknown column {column!r}")


class DegenerateCovariate(NumericalError):
    pass


class EmptySupport(NumericalError):
    pass


class SingularMoments(NumericalError):
    pass


class OutOfRange(ImpactregError):
    pass


class InvalidConfig(ImpactregError, ValueError):
    """Bad user input: an option, a config value or a spec entry."""


class ParseError(ImpactregError):
    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class MissingValue(ParseError):
    def __init__(self, line, column):
        super().__init__(line, column, "missing value")


class SchemaMismatch(ImpactregError):
    pass


class NonPositiveLogInput(ImpactregError):
    pass


class EmptyAfterExclusion(ImpactregError):
    pass
