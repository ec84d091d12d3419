"""Exception types shared across the library."""


class InvSysError(Exception):
    """Base class for all library errors."""


class ParseError(InvSysError):
    """Raised on malformed polynomial text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CharacteristicError(InvSysError):
    """An operation restricted to characteristic zero was requested over F_p."""


class FrameMismatchError(InvSysError):
    """Two subspaces (or a vector and a subspace) live in different frames."""


class DegreeCapError(InvSysError):
    """A requested degree bound exceeds the ring's configured cap."""


class NotArtinError(InvSysError):
    """An operation requiring an Artinian quotient got a non-Artinian ideal.

    ``proven`` is True when non-Artinianity was established outright and
    False when the degree-cap search was merely exhausted (inconclusive).
    """

    def __init__(self, message: str, proven: bool = False):
        super().__init__(message)
        self.proven = proven


class VerificationError(InvSysError):
    """A computed answer failed its exact re-check: an internal fault."""


class SingularCurveError(InvSysError):
    """Weierstrass data with vanishing discriminant guard 4a^3 + 27b^2."""
