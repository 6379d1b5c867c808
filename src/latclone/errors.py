"""Exception types shared across the package."""


class LatcloneError(Exception):
    """Base class for all domain errors."""


class NotAPartialOrder(LatcloneError):
    """The cover relation contains a cycle."""


class NotALattice(LatcloneError):
    """Some pair of elements lacks a meet or a join."""


class InvalidSize(LatcloneError):
    """Size parameter outside the family's valid range."""


class EmptyTuple(LatcloneError):
    """Fold over an empty tuple of elements."""


class ArityMismatch(LatcloneError):
    """Arities of the operands do not line up."""


class LatticeMismatch(LatcloneError):
    """Operands live on different lattices."""


class IndexOutOfRange(LatcloneError):
    """Projection or variable index outside 1..n."""


class InvalidArgument(LatcloneError, ValueError):
    """Argument outside its valid range; still a ValueError for old callers."""


class BudgetExceeded(LatcloneError):
    """Enumeration or closure budget exhausted."""


class PreconditionViolated(LatcloneError):
    """Generator parameters violate the constructor's hypothesis."""


class NotIdempotent(LatcloneError):
    """Operand is not an idempotent aggregation function."""


class NotAggregation(LatcloneError):
    """Operand is not an aggregation function."""


class EmptyAgreementSet(LatcloneError):
    """No pool member agrees with f at the anchor tuple."""


class UnsupportedArity(LatcloneError):
    """Operation undefined at this arity."""


class InvalidSpec(LatcloneError):
    """Generator spec refers to unknown elements or is malformed."""


class ParseError(LatcloneError):
    """File-format parse error; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TermSyntaxError(LatcloneError):
    """S-expression syntax error; carries the character position."""

    def __init__(self, message, pos):
        self.pos = pos
        super().__init__(f"at position {pos}: {message}")
