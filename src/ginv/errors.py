"""Exception hierarchy shared by all ginv modules.

The CLI maps these onto its exit-code contract: input problems
(ParseError, DimensionError) exit 2, usage problems exit 3, and every
domain failure (an inverse that does not exist, a violated precondition,
a failed verification) exits 1.
"""


class GinvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GinvError):
    """A scalar token or matrix document does not conform to the grammar.

    ``offset`` is the 0-based character offset inside the offending token;
    ``row``/``col`` locate the token inside a matrix document (1-based)
    when applicable.
    """

    def __init__(self, message, offset=None, row=None, col=None):
        self.offset = offset
        self.row = row
        self.col = col
        where = []
        if row is not None:
            where.append(f"row {row}")
        if col is not None:
            where.append(f"column {col}")
        if offset is not None:
            where.append(f"offset {offset}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class DimensionError(GinvError):
    """Operand shapes are incompatible."""


class NoSolutionError(GinvError):
    """A linear system has no exact solution."""


class SingularMatrixError(GinvError):
    """Exact inversion was requested for a singular matrix."""


class NotGroupInvertibleError(GinvError):
    """rank(a^2) < rank(a): the group inverse does not exist."""


class NotBcInvertibleError(GinvError):
    """The candidate (b,c)-inverse failed one of its defining conditions."""


class NotTwoInvertibleError(GinvError):
    """No {2}-inverse with the prescribed image and kernel exists."""


class PreconditionViolatedError(GinvError):
    """A required orthogonality product is nonzero; the message names it."""


class InconsistentSystemError(GinvError):
    """A constrained linear system admits no solution."""


class VerificationError(GinvError):
    """A computed inverse failed its exact post-verification.

    Raised instead of returning an unverified value; the message names the
    defining equations that fail.
    """


class UsageError(GinvError):
    """Malformed command-line invocation (unknown kind, missing inputs)."""
