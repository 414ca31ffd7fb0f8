"""Exception types shared across the library."""


class SimplicialError(Exception):
    """Base class for all simqwalk errors."""


class DegenerateSimplexError(SimplicialError, ValueError):
    """A vertex sequence contains repeated vertices."""


class InvalidEdgeError(SimplicialError, ValueError):
    """An edge is malformed: self-loop, bad vertex id, or unparsable line."""


class InvalidParameterError(SimplicialError, ValueError):
    """An operation parameter is outside its valid range."""


class UnknownSimplexError(SimplicialError, KeyError):
    """The simplex is not present in the complex."""

    # KeyError's own __str__ would quote the message like a dict key
    __str__ = Exception.__str__


class IsolatedSimplexError(SimplicialError, ValueError):
    """The simplex has no lower-adjacent partners; walk quantities are undefined."""


class NoAdjacencyError(SimplicialError, ValueError):
    """No lower-adjacent pairs exist at this dimension (arc count is zero)."""


class NumericalError(SimplicialError, RuntimeError):
    """A numerical routine failed to produce a usable result."""
