"""Exception hierarchy shared by all skewgentle modules."""


class SkewGentleError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateName(SkewGentleError):
    """A vertex or arrow identifier was declared twice."""


class DanglingEndpoint(SkewGentleError):
    """An arrow endpoint refers to an undeclared vertex."""


class UnknownVertex(SkewGentleError):
    """A vertex identifier does not belong to the quiver."""


class NotComposable(SkewGentleError):
    """A relation x*y is no 2-path: the arrow y does not end where x starts."""


class InfiniteDimensional(SkewGentleError):
    """The bound quiver admits relation-free paths of unbounded length."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GenerationExhausted(SkewGentleError):
    """The random generator failed to produce a valid triple within budget."""


class NotGentle(SkewGentleError):
    """An operation requires a gentle, finite-dimensional bound quiver."""


class NotSkewedGentle(SkewGentleError):
    """An operation requires a valid skewed-gentle triple."""


class NotSpecial(SkewGentleError):
    """The named vertex is not in the triple's special set."""


class NameCollision(SkewGentleError):
    """A derived identifier clashes with an existing one."""


class LimitExceeded(SkewGentleError):
    """A configured enumeration cap was hit before the computation finished."""


class InternalInconsistency(SkewGentleError):
    """Two computations that must always agree disagreed; this is a bug."""


class ParseError(SkewGentleError):
    """Malformed presentation text, with a 1-based source location."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span

    def __str__(self):
        base = super().__str__()
        if self.span is not None:
            return f"{self.span.line}:{self.span.column}: {base}"
        return base


class IntegrityError(ParseError):
    """Well-formed text whose cross references do not resolve."""
