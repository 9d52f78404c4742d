"""Negative-base shift spaces with exact arithmetic.

Expansion computation, alternating-order admissibility, periodic points,
the truncated labelled-graph presentation, language decompositions with
entropy control, periodic gluing, periodic-orbit measures with Gibbs-type
diagnostics, and sliding block codes onto the staircase shift.
"""

from .errors import NegBetaError
from .language import ShiftSpec, count_words, enumerate_words, is_admissible, per_points
from .numeric import BetaValue, classify_d1, expand, golden_test, psi_value
from .order import EvPeriodicSeq, Word, alt_cmp, alt_cmp_seq, is_alt_shift_maximal, word

__all__ = [
    "BetaValue", "EvPeriodicSeq", "NegBetaError", "ShiftSpec", "Word",
    "alt_cmp", "alt_cmp_seq", "classify_d1", "count_words", "enumerate_words",
    "expand", "golden_test", "is_admissible", "is_alt_shift_maximal",
    "per_points", "psi_value", "word",
]

__version__ = "0.1.0"
