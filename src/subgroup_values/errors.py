"""Exception types shared across the package.

Every contract violation raises a subclass of SubgroupValuesError so the CLI
can map domain failures to exit code 1 uniformly.
"""


class SubgroupValuesError(Exception):
    pass


# --- field contexts ---------------------------------------------------------

class NotPrime(SubgroupValuesError):
    pass


class PrimeTooLarge(SubgroupValuesError):
    """p >= 2^32 is outside the supported desk scale."""


class DegreeTooLarge(SubgroupValuesError):
    pass


class NonInvertible(SubgroupValuesError):
    pass


class ZeroInverse(SubgroupValuesError):
    pass


class CtxMismatch(SubgroupValuesError):
    pass


# --- polynomials and rational functions -------------------------------------

class BothZero(SubgroupValuesError):
    pass


class ZeroPolynomial(SubgroupValuesError):
    pass


class ZeroDenominator(SubgroupValuesError):
    pass


class PoleAt(SubgroupValuesError):
    def __init__(self, x):
        super().__init__(f"pole at x = {x}")
        self.x = x


# --- factorization ----------------------------------------------------------

class DegreeOutOfRange(SubgroupValuesError):
    pass


class CharTooSmall(SubgroupValuesError):
    """The characteristic must exceed the total degree of the input."""


class ConstantFunction(SubgroupValuesError):
    pass


# --- exceptional-lambda scan -------------------------------------------------

class ZeroLambda(SubgroupValuesError):
    pass


class PerfectPowerInput(SubgroupValuesError):
    pass


class DegreeTooSmall(SubgroupValuesError):
    pass


# --- lattices ----------------------------------------------------------------

class RankDeficient(SubgroupValuesError):
    pass


class SearchSpaceTooLarge(SubgroupValuesError):
    pass


class PreconditionViolated(SubgroupValuesError):
    pass


class MultiplierNotFound(SubgroupValuesError):
    """No valid multiplier found although the preconditions held.

    This must never fire; it would contradict the construction the search
    implements, so the message carries a full diagnostic dump.
    """


# --- counting ---------------------------------------------------------------

class OrderDoesNotDivide(SubgroupValuesError):
    pass


class FieldMismatch(SubgroupValuesError):
    pass


class AllWindowsContainPoles(SubgroupValuesError):
    pass


class BudgetExceeded(SubgroupValuesError):
    pass


# --- exponent algebra / proof tracing ----------------------------------------

class DegenerateDegrees(SubgroupValuesError):
    pass


class BadRange(SubgroupValuesError):
    pass


class WindowEmpty(SubgroupValuesError):
    def __init__(self, message, effective_c=None):
        super().__init__(message)
        self.effective_c = effective_c


class LambdaSetExhausted(SubgroupValuesError):
    pass


# --- CLI ----------------------------------------------------------------------

class ParseError(SubgroupValuesError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
