"""Exception types shared across the toolkit."""


class TetherpickError(Exception):
    """Base class for all toolkit errors."""


class NoConvergence(TetherpickError):
    """An iterative solve exhausted its budget or lost its bracket."""


class OutOfDomain(TetherpickError):
    """A query point lies outside the domain of the object queried."""


class SingularSystem(TetherpickError):
    """The trajectory coefficient system cannot be solved."""


class DegenerateThrust(TetherpickError):
    """Commanded thrust vector is too small to define an attitude."""


class ParseError(TetherpickError):
    """A scenario file could not be parsed."""


class ValidationError(TetherpickError):
    """A parsed scenario violates a documented invariant."""
