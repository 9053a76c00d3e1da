"""Exception types shared across the library."""


class RefinableError(Exception):
    """Base class for all library-specific errors."""


class IrreducibilityError(RefinableError):
    """x^k - n is reducible over Q, so (n, k) does not define a field."""


class DescriptorMismatch(RefinableError):
    """Operands live in different fields and neither side is rational."""


class DivisionByZero(RefinableError, ZeroDivisionError):
    """Exact division by the zero element."""


class ZeroPolynomial(RefinableError):
    """Operation undefined for the zero polynomial."""


class InvalidLambda(RefinableError):
    """A dilation parameter was not a real number > 1."""


class ConstructionFailure(RefinableError):
    """Internal consistency error: the nested-interval construction found
    no gap of the required length, which the admissibility inequalities
    rule out.  Never ignored silently."""


class Divergence(RefinableError):
    """Cascade iteration residuals grew instead of contracting."""


class NonIntegerMatrix(RefinableError):
    """Integer-dilation mask requires an integer direction matrix."""


class RankDeficient(RefinableError):
    """Direction matrix does not have full rank s."""


class ProbeExhaustion(RefinableError):
    """No admissible integer probe vectors found in the search box."""


class CycleInconsistency(RefinableError):
    """Cycle multiplier product disagrees with the dilation power."""


class RootIsolationFailure(RefinableError):
    """Could not isolate the real roots of a mask polynomial."""


class NonRationalTranslations(RefinableError):
    """Operation requires all mask translations to be rational."""


class RefinabilityError(RefinableError):
    """Operation requires an instance accepted by the refinability test."""
