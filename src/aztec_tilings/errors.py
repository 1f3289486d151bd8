"""Exception types shared across the package, and its one checked exact division.

A malformed argument raises ``InvalidParameterError``, or
``InvalidDefectError``, which names the defect, when it is a defect address.
Well-formed arguments that miss the hypotheses of a condensation identity
raise ``InvalidConfigurationError``: ``check_kuo_identity``'s pattern and
colour counts, and ``condensation_count_symdiff``'s M(G) != 0.
"""


class AztecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(AztecError, ValueError):
    """An argument is malformed or out of range: a number, a cell, a matrix, a region or a face list."""


class InvalidDefectError(AztecError, ValueError):
    """A defect address is malformed, out of range, duplicated or absent; ``defect`` names it, if known."""

    def __init__(self, message: str, defect: object = None) -> None:
        super().__init__(message)
        self.defect = defect


class InvalidConfigurationError(AztecError, ValueError):
    """Well-formed arguments violate the hypotheses of a condensation identity: Kuo's pattern, or M(G) != 0."""


class OutOfScopeConfigurationError(AztecError, ValueError):
    """The configuration lies outside the families an engine supports."""


class InternalInconsistencyError(AztecError, AssertionError):
    """An exactness invariant failed; indicates a convention or dispatch bug."""


def exact_quotient(x: int, d: int, what: str) -> int:
    """x / d, which must be exact; a remainder raises ``InternalInconsistencyError`` naming what.

    The operands are printed in hex, which has no digit limit, so a huge
    value cannot turn the error into a ``ValueError`` from ``str``.
    """
    q, r = divmod(x, d)
    if r:
        raise InternalInconsistencyError(f"{what}: {x:#x} is not divisible by {d:#x}")
    return q
