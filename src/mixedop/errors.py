"""Exception types shared across the package."""


class MixedOpError(Exception):
    """Base class for every error raised by this package."""


class UnknownAtomError(MixedOpError, KeyError):
    """A pair, map, or density names an atom that its measure space lacks.

    On atomic spaces this is the analogue of an absolute-continuity
    violation: mass sits where the reference measure has none.
    """

    __str__ = MixedOpError.__str__  # KeyError's would quote the message


class DimensionMismatchError(MixedOpError, ValueError):
    """Vector or matrix shape is inconsistent with the fiber dimensions."""


class InvalidExponentError(MixedOpError, ValueError):
    """A norm exponent lies outside [1, inf]."""


class UnsupportedExponentsError(MixedOpError, ValueError):
    """Exponents outside the supported regime: 1 <= q <= p with p
    finite, and for mixed norms 1 <= alpha <= beta with beta finite."""


class HypothesisViolationError(MixedOpError, ValueError):
    """A criterion's structural hypothesis fails on the given instance."""


class NotInjectiveError(MixedOpError, ValueError):
    """An injective mapping was required."""


class MissingPairError(MixedOpError, KeyError):
    """A required (s, t) pair is absent from the kernel's relation."""

    __str__ = MixedOpError.__str__


class SliceRangeError(MixedOpError, ValueError):
    """A per-slice map sends a cell outside its target slice."""


class ScenarioError(MixedOpError, ValueError):
    """A scenario file does not parse or fails cross-reference checks."""


class NonFiniteResultError(MixedOpError, ArithmeticError):
    """A computed norm came out NaN or infinite, which finite input can
    still cause when an intermediate power overflows."""


class SandwichViolationError(MixedOpError):
    """The ordering oracle <= lower <= upper failed beyond tolerance."""
