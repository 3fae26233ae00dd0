"""Exception hierarchy shared by all twistparity modules.  A missing local
h entry is no error: its omega is None, and the outputs that read it say so."""


class TwistParityError(Exception):
    """Base class for all package errors."""


class InvalidInputError(TwistParityError, ValueError):
    """An argument violates a documented precondition."""


class BadPrimeError(InvalidInputError):
    """A prime of bad reduction was passed where a good prime is required."""


class UnknownFactorizationError(TwistParityError):
    """A rational factorization was requested but cannot be certified."""


class ResourceLimitError(TwistParityError):
    """An enumeration exceeded its configured size bound."""


class ParseError(InvalidInputError):
    """A curve or profile file failed to parse; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
