"""Exception hierarchy shared by all modules."""


class CsetTransportError(Exception):
    """Base class for all errors raised by this package."""


class TheoryError(CsetTransportError):
    """Invalid theory presentation (bad generator, equation, or name)."""


class DslSyntaxError(TheoryError):
    """Syntax error in the theory DSL, with source position."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class InstanceError(CsetTransportError):
    """Invalid instance data (bad map, violated equation, missing data)."""


class DimensionError(CsetTransportError):
    """Shapes of the supplied operands do not line up."""


class GuardExceeded(CsetTransportError):
    """A search exceeded its node budget; ``count`` is the nodes visited."""

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count


class LpError(CsetTransportError):
    """Malformed linear-program model."""


class LpNumericalError(CsetTransportError):
    """The simplex solver detected a numerical breakdown."""
