"""Exception types shared across the package."""


class NegBetaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NegBetaError):
    """An argument lies outside the mathematical domain of the operation."""


class AmbiguousDigit(NegBetaError):
    """An interval is too wide to decide which partition cell contains it.

    Carries the precision (in bits) that was in effect; callers refine and
    retry, or give up and report an exhausted status.
    """

    def __init__(self, bits):
        super().__init__(f"digit undecidable at {bits} bits")
        self.bits = bits


class LengthMismatch(NegBetaError):
    """Two words that must have equal length do not."""


class UndecidableOrder(NegBetaError):
    """A comparison could not be decided from the available prefix."""


class SpecPrefixTooShort(NegBetaError):
    """The bound sequence is known to too few digits to decide membership."""


class HorizonExhausted(NegBetaError):
    """An exact infinite comparison was requested but only a finite prefix
    of the bound sequence is available and it did not decide."""


class PrefixTooShort(NegBetaError):
    """Graph construction needs more digits of the bound sequence."""


class EnumerationCapExceeded(NegBetaError):
    """An exhaustive check would enumerate more words than its fixed cap."""


class TruncationInsufficient(NegBetaError):
    """The requested walk, path or count leaves the truncated graph slice."""


class TwoSidedUnsupported(NegBetaError):
    """The graph presentation covers one-sided (upper-bound-only) shifts."""


class NotInGM(NegBetaError):
    """A word offered for gluing is not in the bounded-tail good set."""


class NoSelfLoop(NegBetaError):
    """Gluing needs the label-1 self loop at the root vertex (b_1 >= 2)."""


class GlueFailed(NegBetaError):
    """No admissible glued periodic block was found within the search cap."""


class EmptyPer(NegBetaError):
    """There are no periodic points of the requested period."""


class NoLFound(NegBetaError):
    """No cutoff level with tail entropy estimates under the target."""


class PatternMismatch(NegBetaError):
    """The expansion of 1 does not have the shape required by the code."""


class OddOneRun(NegBetaError):
    """The leading run of ones in the expansion of 1 has odd length.

    For genuine bases below the golden ratio this run is even; an odd run
    indicates a hand-made bound sequence, and is reported loudly rather
    than silently accepted.
    """


class NotOddPeriodic(NegBetaError):
    """The expansion of 1 is not purely periodic with odd period."""


class TooShort(NegBetaError):
    """The input word is shorter than the sliding window."""
