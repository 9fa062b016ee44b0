"""Exception hierarchy shared by all engine modules."""


class HermlabError(Exception):
    """Base class for every error raised by the engine."""


class ParseError(HermlabError):
    """Malformed field, class, form or element descriptor."""


class FieldMismatchError(HermlabError):
    """Operands live over different fields."""


class InvalidExtensionError(HermlabError):
    """A quadratic extension was requested by the trivial class."""


class UnsupportedFieldError(HermlabError):
    """The operation cannot run over this base (global function field)."""


class UnsupportedClassError(HermlabError):
    """Brauer class outside the supported range (more than two symbols)."""


class UnsupportedShapeError(HermlabError):
    """Hermitian form shape with no concrete reduction."""


class NotDivisionError(HermlabError):
    """A division-algebra precondition failed computationally.

    Carries the isotropic witness form that demonstrates the failure,
    when one was computed.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NeedsAssertionError(HermlabError):
    """A division fact over a global-function-field residue was required
    but not supplied as an explicit assertion."""


class GapError(HermlabError):
    """Upper bound and completion value disagree; signals a miscomputation."""


class EngineError(HermlabError):
    """Internal invariant violated; indicates a bug, not bad input."""

