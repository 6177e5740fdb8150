"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class RationalInputError(DomainError):
    """An operation that requires an irrational argument received a rational."""


class MixedRadicalError(DomainError):
    """Arithmetic between quadratic irrationals over different radicands."""


class UnsupportedPairingError(DomainError):
    """The (alpha, beta) representation pairing is not solvable exactly."""


class InvalidCertificateError(DomainError):
    """A certificate's defining relation does not hold for the given pair."""


class NotFoundError(LookupError):
    """A search that must produce an element found none."""


class ResourceLimitError(RuntimeError):
    """A bounded search or iteration schedule hit its configured limit."""


class PrecisionError(ArithmeticError):
    """A truncated-series computation ran out of known coefficients."""


class IndeterminateSignError(ArithmeticError):
    """The sign of a truncated series could not be decided: every computed
    coefficient is zero and the tail is not flagged exactly zero."""


class ParseError(ValueError):
    """Malformed textual input.  Carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos
