"""Exception hierarchy shared across the package."""


class ImpactregError(Exception):
    """Base class for all errors raised by impactreg."""


class DimensionMismatch(ImpactregError):
    pass


class NonFinite(ImpactregError):
    pass


class RankDeficient(ImpactregError):
    """Design matrix is not of full column rank.

    The offending column label (or index) is stored in ``column``.
    """

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(message or f"design matrix is rank deficient: column {column!r} "
                                    "is linearly dependent on the preceding columns")


class ZeroStdError(ImpactregError):
    pass


class InvariantViolation(ImpactregError):
    """Two routes to the same quantity disagree beyond rounding."""


class UnknownColumn(ImpactregError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"unknown column {column!r}")


class DegenerateCovariate(ImpactregError):
    pass


class EmptySupport(ImpactregError):
    pass


class SingularMoments(ImpactregError):
    pass


class OutOfRange(ImpactregError):
    pass


class InvalidConfig(ImpactregError):
    pass


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
