"""Exception types shared across the package."""


class GraphliftError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GraphliftError):
    """A model or tensor document is malformed and cannot be decoded."""


class ValidationError(GraphliftError):
    """A decoded model violates a structural rule; names the offending node."""


class ShapeError(GraphliftError):
    """Operand shapes are incompatible with an operator's shape law."""


class UnsupportedOp(GraphliftError):
    """An operator (or an operator configuration) is outside the supported set."""


class NumericError(GraphliftError):
    """A kernel produced a non-finite value from finite inputs."""


class NoPathError(GraphliftError):
    """No differentiable path connects the explained output to the input."""


class StuckError(GraphliftError):
    """A gradient rule broke its contract during the backward sweep: it
    returned a gradient for a non-differentiable input, or left a node the
    sweep must visit without one."""
