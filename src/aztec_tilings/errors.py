"""Exception types shared across the package."""


class AztecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(AztecError, ValueError):
    """A numeric or structural argument is out of its allowed range."""


class InvalidDefectError(AztecError, ValueError):
    """A defect address is malformed, out of range, duplicated or absent."""


class UnsupportedRegionError(AztecError, ValueError):
    """The region does not satisfy an operation's structural requirements."""


class InvalidMatrixError(AztecError, ValueError):
    """A matrix is not square, not skew-symmetric, or has odd dimension."""


class NonterminatingSeriesError(AztecError, ValueError):
    """No numerator parameter truncates the hypergeometric series."""


class SingularParametersError(AztecError, ValueError):
    """A denominator Pochhammer vanishes before the series truncates."""


class CondensationInapplicableError(AztecError, ValueError):
    """The base graph has no perfect matching, so the quotient is undefined."""


class InvalidOrderError(AztecError, ValueError):
    """Vertices were not given in cyclic order on a face."""


class InvalidConfigurationError(AztecError, ValueError):
    """A defect configuration violates the hypotheses of the identity."""


class OutOfScopeConfigurationError(AztecError, ValueError):
    """The configuration lies outside the families an engine supports."""


class InternalInconsistencyError(AztecError, AssertionError):
    """An exactness invariant failed; indicates a convention or dispatch bug."""
