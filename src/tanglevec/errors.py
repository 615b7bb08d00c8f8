"""Exception types raised by the library."""


class TangleVecError(Exception):
    """Base class for all library errors."""


class ZeroState(TangleVecError, ValueError):
    """State vector has (numerically) zero norm."""


class NotNormalized(TangleVecError, ValueError):
    """Input violates a unit-norm precondition."""


class GaugeUndefined(TangleVecError, ValueError):
    """The global-phase gauge is undefined because A.A vanishes (zero three-tangle)."""


class UnknownGate(TangleVecError, KeyError):
    """Gate name not in the named-gate catalogue."""


class UnknownGenerator(TangleVecError, KeyError):
    """Generator label outside the 15-element su(4) pair basis."""


class IndexOutOfRange(TangleVecError, IndexError):
    """Generator index outside {1, 2, 3}."""


class NotRepresentable(TangleVecError, ValueError):
    """Gate step has no action on the chosen 6-vector (coupling touches the spectator qubit)."""


class DegenerateInput(TangleVecError, ValueError):
    """Protocol input is degenerate (e.g. a product-state angle)."""


class ParseError(TangleVecError, ValueError):
    """Malformed input: bad JSON or fields, a non-finite amplitude, or a bad gate step.

    A gate step raises it when it is built (see gates). The invariants and
    tangles also refuse a finite state whose |s|^4 overflows (|s| above about
    1.2e77); normalize() accepts it.
    """


class InvariantViolation(TangleVecError, ArithmeticError):
    """An internal numerical consistency check failed (numeric failure)."""
