"""Certified computation for negative-base transformations.

The map is x -> -bx + floor(bx) + 1 on (0, 1], extended by 0 -> 1.  Bases
are exact rationals (preferred: every orbit value is an exact Fraction) or
real intervals refined on demand, e.g. the golden ratio.  Every orbit runs
on one integer-numerator kernel, `_orbit`: exact bases and intervals alike.
Exact bases are never rounded.  `expand` on a refinable interval base
first tries each precision with enclosures rounded outward onto a fixed
dyadic denominator; rounding only widens an enclosure, so a digit it
decides is the digit the exact enclosure decides (the lemma at `_orbit`).
Only when no precision finishes does it run the exact ladder, whose
certified prefix and exhausted status it then reports.  Interval results
are only reported when an enclosure determines them.  Each question
about the orbit of 1 walks it at most once: `classify_d1` needs no cycle
search except on an integer base, `golden_test` decides an exact base by
an integer test without walking at all, and an interval base's certified
prefix can be handed to `golden_test_prefix` for reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional

from .errors import AmbiguousDigit, DomainError, UndecidableOrder
from .order import EQ, LT, EvPeriodicSeq, Word, cmp_prefix, word

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class IntervalValue:
    """A closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def exact(self) -> Optional[Fraction]:
        return self.lo if self.lo == self.hi else None

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


UnitPoint = Fraction | IntervalValue

Refiner = Callable[[int], tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class BetaValue:
    """A base beta > 1, exact or enclosed in a refinable interval."""

    exact: Optional[Fraction] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    bits: int = 64
    refiner: Optional[Refiner] = field(default=None, compare=False)
    label: Optional[str] = None

    @staticmethod
    def from_rational(value) -> "BetaValue":
        v = Fraction(value)
        if v <= 1:
            raise DomainError(f"beta must exceed 1, got {v}")
        return BetaValue(exact=v, lo=v, hi=v)

    @staticmethod
    def golden(bits: int = 64) -> "BetaValue":
        if bits < 1:
            raise DomainError(f"precision must be at least 1 bit, got {bits}")

        def refine(b: int) -> tuple[Fraction, Fraction]:
            s = math.isqrt(5 << (2 * b))
            return (1 + Fraction(s, 1 << b)) / 2, (1 + Fraction(s + 1, 1 << b)) / 2

        lo, hi = refine(bits)
        return BetaValue(lo=lo, hi=hi, bits=bits, refiner=refine, label="golden")

    @staticmethod
    def parse(text: str, bits: int = 64) -> "BetaValue":
        """Parse "p/q", a decimal like "1.3" (read exactly), or "golden"."""
        text = text.strip()
        if text == "golden":
            return BetaValue.golden(bits)
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise DomainError(f"beta {text} has a zero denominator") from None
        return BetaValue.from_rational(value)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def bounds(self) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return self.exact, self.exact
        return self.lo, self.hi

    def with_bits(self, bits: int) -> "BetaValue":
        if self.exact is not None or self.refiner is None:
            return self
        lo, hi = self.refiner(bits)
        return BetaValue(lo=lo, hi=hi, bits=bits, refiner=self.refiner,
                         label=self.label)

    def floor(self) -> int:
        """floor(beta); for intervals the enclosure must decide it."""
        lo, hi = self.bounds()
        f = math.floor(lo)
        if math.floor(hi) != f:
            raise AmbiguousDigit(self.bits)
        return f

    @property
    def alphabet(self) -> int:
        return self.floor() + 1

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.exact is not None:
            return str(self.exact)
        return f"[{self.lo},{self.hi}]@{self.bits}b"


@dataclass(frozen=True)
class CertifiedDigits:
    """An expansion prefix together with how much of it is certified."""

    digits: Word
    certified: int
    status: tuple  # ("complete",) or ("precision_exhausted", failed_index)

    @property
    def complete(self) -> bool:
        return self.status[0] == "complete"


def _check_unit(x: UnitPoint, allow_zero: bool) -> tuple[Fraction, Fraction]:
    if isinstance(x, IntervalValue):
        lo, hi = x.lo, x.hi
    else:
        lo = hi = Fraction(x)
    if hi > 1 or lo < 0 or (not allow_zero and hi <= 0):
        raise DomainError(f"point {x} outside the unit interval")
    return lo, hi


def _orbit(beta: BetaValue, x: UnitPoint,
           round_bits: Optional[int] = None) -> Iterator[tuple[int, int, int, int]]:
    """The orbit of x under the map, one (digit, lo, hi, den) per step.

    The point after the step lies in [lo/den, hi/den]: the enclosure that
    Fraction interval arithmetic gives, unreduced over one shared
    denominator, which gains the factor lcm(beta's denominators) per step.
    Without round_bits nothing is rounded; exact beta and x keep lo == hi.
    With round_bits = W the start and every step are rounded outward onto
    the fixed denominator 2^W (floor for lo, ceiling for hi), so the
    integers stay O(W + bits) long.  Raises AmbiguousDigit once the
    enclosure straddles a cell boundary.
    """
    # Lemma: every digit that the rounded run emits is the digit that the
    # exact run (round_bits None, same beta and x) emits at that step.
    # Let E_t = [e, f] be the exact enclosure after t steps and R_t =
    # [r, s] the rounded one.  By induction on t, (1) E_t lies in R_t and
    # 0 <= r.  At t = 0 the start is rounded outward.  At a step, (2)
    # interval arithmetic for x -> d - beta*x is inclusion-monotone: from
    # 0 <= r <= e <= f <= s and 0 < blo <= bhi follows blo*r <= blo*e <=
    # bhi*f <= bhi*s, so (3) floor(blo*r) = floor(bhi*s) forces
    # floor(blo*e) = floor(bhi*f), the same digit d.  Then [d - bhi*f,
    # d - blo*e] lies in [d - bhi*s, d - blo*r], whose low end is > 0
    # since d > bhi*s, and rounding outward onto 2^W only widens it.  So
    # the exact run raises AmbiguousDigit no earlier than the rounded one.
    xlo, xhi = _check_unit(x, allow_zero=False)
    blo, bhi = beta.bounds()
    c = math.lcm(blo.denominator, bhi.denominator)
    alo, ahi = int(blo * c), int(bhi * c)
    den = math.lcm(xlo.denominator, xhi.denominator)
    lo, hi = int(xlo * den), int(xhi * den)
    if round_bits is not None:
        unit = 1 << round_bits
        lo, hi, den = lo * unit // den, -(-hi * unit // den), unit
    while True:
        den *= c
        tlo, thi = alo * lo, ahi * hi
        d = tlo // den + 1
        if thi // den + 1 != d:
            raise AmbiguousDigit(beta.bits)
        lo, hi = d * den - thi, d * den - tlo
        if round_bits is not None:
            # den = 2^W * c, so rounding onto 2^W divides by c
            lo, hi, den = lo // c, -(-hi // c), unit
        yield d, lo, hi, den


def step(beta: BetaValue, x: UnitPoint) -> tuple[int, UnitPoint]:
    """One application of the transformation: returns (digit, next point).

    digit = floor(beta*x) + 1 with the endpoint conventions of the cell
    partition (interior cells closed on the left, x = 1 in the top cell).
    Exact in, exact out; interval inputs raise AmbiguousDigit when the
    enclosure straddles a cell boundary.
    """
    d, lo, hi, den = next(_orbit(beta, x))
    if beta.is_exact and not isinstance(x, IntervalValue):
        return d, Fraction(lo, den)
    return d, IntervalValue(Fraction(lo, den), Fraction(hi, den))


def step_extended(beta: BetaValue, x: UnitPoint) -> tuple[Optional[int], UnitPoint]:
    """The extension to [0, 1]: 0 maps to 1 without emitting a digit."""
    if _check_unit(x, allow_zero=True)[1] == 0:
        return None, ONE
    return step(beta, x)


# Bits that the rounded pass of `expand` keeps beyond the base's precision
# level: the rounding errors then stay far below the base's own width.
_ROUND_GUARD = 32


def expand(beta: BetaValue, x: UnitPoint, n: int, max_bits: int = 4096) -> CertifiedDigits:
    """First n expansion digits of x.

    Rational base and point: all n digits exact.  Interval mode: on an
    ambiguous digit the precision is doubled (re-running from the start)
    up to max_bits; the result then records the certified prefix and an
    exhausted status.

    A refinable interval base first runs that ladder with enclosures
    rounded outward onto 2^(bits + _ROUND_GUARD), and returns at the first
    level that certifies all n digits.  By the lemma at `_orbit` the exact
    enclosure at that level certifies the same n digits, so the answer is
    the exact ladder's whenever every refiner interval contains one real
    beta, the contract that the refinement assertion below also assumes.
    If no level finishes, the exact ladder runs as before and reports the
    certified prefix.  Exact bases and refiner-less intervals run only the
    exact ladder.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if beta.exact is None and beta.refiner is not None:
        bits = beta.bits
        while True:
            orbit = _orbit(beta.with_bits(bits), x, bits + _ROUND_GUARD)
            try:
                got = tuple(d for d, _, _, _ in islice(orbit, n))
            except AmbiguousDigit:
                pass
            else:
                return CertifiedDigits(got, n, ("complete",))
            if bits >= max_bits:
                break
            bits *= 2
    bits = beta.bits
    best: list[int] = []
    while True:
        digits: list[int] = []
        try:
            for d, _, _, _ in islice(_orbit(beta.with_bits(bits), x), n):
                digits.append(d)
        except AmbiguousDigit:
            failed_at = len(digits)
        else:
            return CertifiedDigits(tuple(digits), n, ("complete",))
        if digits[: len(best)] != best[: len(digits)]:
            raise AssertionError("certified digits changed under refinement")
        if len(digits) > len(best):
            best = digits
        if bits >= max_bits or beta.refiner is None:
            return CertifiedDigits(tuple(best), len(best),
                                   ("precision_exhausted", failed_at))
        bits *= 2


@dataclass(frozen=True)
class D1Classification:
    """Cycle structure of the digit expansion of 1.

    kind is one of "periodic_odd", "periodic_even", "eventually_periodic"
    or "no_cycle".  Periods are certified only in exact rational mode, by
    literal repetition of an orbit value; interval mode never certifies.
    """

    kind: str
    period: Optional[int]
    preperiod: Optional[int]
    horizon: int
    digits: Word

    @property
    def purely_periodic(self) -> bool:
        return self.kind in ("periodic_odd", "periodic_even")


def classify_d1(beta: BetaValue, horizon: int) -> D1Classification:
    """Detect (pure or eventual) periodicity of the expansion of 1."""
    if horizon < 1:
        raise ValueError("horizon >= 1 required")
    if not beta.is_exact:
        got = expand(beta, ONE, horizon)
        return D1Classification("no_cycle", None, None, horizon, got.digits)
    # For beta = p/q in lowest terms and x = 1, the t-th orbit value is
    # num/q^t with num > 0 and gcd(num, q) = 1: true at t = 0 (1/1), and
    # the next numerator d*q^(t+1) - p*num has gcd(d*q^(t+1) - p*num, q) =
    # gcd(p*num, q) = 1.  So for q > 1 the reduced denominators q^t differ
    # from step to step, no value repeats and there is no cycle.  Only an
    # integer base is searched, keyed by the kernel's raw (num, 1).
    orbit = _orbit(beta, ONE)
    if beta.exact.denominator > 1:
        return D1Classification("no_cycle", None, None, horizon,
                                tuple(d for d, _, _, _ in islice(orbit, horizon)))
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    cur = (1, 1)
    for t in range(horizon):
        if cur in seen:
            s = seen[cur]
            p = t - s
            if s == 0:
                kind = "periodic_odd" if p % 2 == 1 else "periodic_even"
                return D1Classification(kind, p, 0, horizon, tuple(digits))
            return D1Classification("eventually_periodic", p, s, horizon,
                                    tuple(digits))
        seen[cur] = t
        d, num, _, den = next(orbit)
        digits.append(d)
        cur = (num, den)
    return D1Classification("no_cycle", None, None, horizon, tuple(digits))


GOLDEN_UPPER = EvPeriodicSeq.make((2,), (1,))


def golden_test(beta: BetaValue, horizon: int = 64) -> str:
    """Decide whether the expansion of 1 sits below 2(1)^inf, equivalently
    whether beta < (1+sqrt 5)/2.  Returns "below" or "at_or_above".

    An exact base p/q is decided by the integer test (2p - q)^2 < 5q^2
    (2p - q > 0 since beta > 1), without walking the orbit.  An interval
    base is decided by `golden_test_prefix` on its certified prefix of
    length horizon.
    """
    if horizon < 1:
        raise ValueError("n >= 1 required")
    if beta.is_exact:
        p, q = beta.exact.numerator, beta.exact.denominator
        return "below" if (2 * p - q) ** 2 < 5 * q * q else "at_or_above"
    return golden_test_prefix(beta, expand(beta, ONE, horizon).digits)


def golden_test_prefix(beta: BetaValue, prefix: Word) -> str:
    """`golden_test` for an interval base, read off a certified prefix of
    the expansion of 1.  The prefix decides almost always; a full tie is
    decided only for the golden base itself, by its constructor label.
    """
    c = cmp_prefix(prefix, GOLDEN_UPPER)
    if c != EQ:
        return "below" if c == LT else "at_or_above"
    if beta.label == "golden":
        return "at_or_above"
    raise UndecidableOrder(f"prefix of length {len(prefix)} ties 2(1)^inf")


def _interval_pow_recip(blo: Fraction, bhi: Fraction, i: int) -> tuple[Fraction, Fraction]:
    # enclosure of beta^(-i) for beta in [blo, bhi], blo > 1
    return 1 / bhi**i, 1 / blo**i


def psi_value(beta: BetaValue, seq) -> IntervalValue:
    """Value of the alternating digit series sum_i s_i * (-1)^(i+1) * beta^(-i).

    Exact (degenerate interval) for an eventually periodic sequence over an
    exact base, via geometric summation.  A finite word yields the partial
    sum bracketed by the tail bound  max_digit / (beta^m (beta-1)), where
    max_digit is the larger of the word's largest digit and floor(beta) + 1,
    the largest digit a continuation may use.
    """
    blo, bhi = beta.bounds()
    if isinstance(seq, EvPeriodicSeq):
        v0 = _psi_ev_exact(blo, seq)
        v1 = _psi_ev_exact(bhi, seq)
        # The series is not monotone in beta; pad the endpoint values by the
        # width times the derivative bound m / (blo - 1)^2.
        m = seq.max_digit
        pad = (bhi - blo) * m / (blo - 1) ** 2
        return IntervalValue(min(v0, v1) - pad, max(v0, v1) + pad)
    w = word(seq)
    m = len(w)
    if m == 0:
        raise ValueError("empty word")
    maxd = max(*w, math.floor(bhi) + 1)
    lo = hi = ZERO
    for i, d in enumerate(w, start=1):
        plo, phi = _interval_pow_recip(blo, bhi, i)
        if i % 2 == 1:
            lo, hi = lo + d * plo, hi + d * phi
        else:
            lo, hi = lo - d * phi, hi - d * plo
    tlo, thi = _interval_pow_recip(blo, bhi, m)
    tail = maxd * thi / (blo - 1)
    return IntervalValue(lo - tail, hi + tail)


def _psi_ev_exact(b: Fraction, seq: EvPeriodicSeq) -> Fraction:
    pre, per = seq.preperiod, seq.period
    p, L = len(pre), len(per)
    head = sum(Fraction(d) * (-1) ** (i + 1) / b**i
               for i, d in enumerate(pre, start=1))
    block = sum(Fraction(d) * (-1) ** (j + 1) / b**j
                for j, d in enumerate(per, start=1))
    r = Fraction((-1) ** L) / b**L
    tail = block / (1 - r)
    return head + Fraction((-1) ** p) / b**p * tail


# ---------------------------------------------------------------------------
# Exact interval-set iteration for the locally-eventually-onto search.
# ---------------------------------------------------------------------------

# A piece is (lo, lo_closed, hi, hi_closed) with Fraction endpoints; a point
# is lo == hi with both flags True.
Piece = tuple[Fraction, bool, Fraction, bool]

FULL: tuple[Piece, ...] = ((ZERO, False, ONE, True),)


def _piece_ok(p: Piece) -> bool:
    lo, lc, hi, hc = p
    return lo < hi or (lo == hi and lc and hc)


def _normalize(pieces: list[Piece]) -> tuple[Piece, ...]:
    pieces = [p for p in pieces if _piece_ok(p)]
    pieces.sort(key=lambda p: (p[0], not p[1]))
    out: list[Piece] = []
    for p in pieces:
        if not out:
            out.append(p)
            continue
        lo, lc, hi, hc = out[-1]
        plo, plc, phi, phc = p
        touching = plo < hi or (plo == hi and (hc or plc))
        if touching:
            if phi > hi or (phi == hi and phc and not hc):
                out[-1] = (lo, lc, phi, phc)
        else:
            out.append(p)
    return tuple(out)


def _intersect(p: Piece, q: Piece) -> Optional[Piece]:
    lo = max(p[0], q[0])
    hi = min(p[2], q[2])
    lc = (p[1] if p[0] == lo else True) and (q[1] if q[0] == lo else True)
    hc = (p[3] if p[2] == hi else True) and (q[3] if q[2] == hi else True)
    piece = (lo, lc, hi, hc)
    return piece if _piece_ok(piece) else None


def _cells(b: Fraction) -> list[tuple[Piece, int]]:
    """The digit partition of (0, 1] for an exact base."""
    fl = math.floor(b)
    cuts = [Fraction(i) / b for i in range(1, fl + 1)]
    cells: list[tuple[Piece, int]] = [((ZERO, False, cuts[0], False), 1)]
    for i in range(2, fl + 1):
        cells.append(((cuts[i - 2], True, cuts[i - 1], False), i))
    cells.append(((cuts[fl - 1], True, ONE, True), fl + 1))
    return cells


def _map_piece(b: Fraction, piece: Piece, digit: int) -> Piece:
    # x -> digit - b*x is decreasing: endpoints swap, flags follow them.
    lo, lc, hi, hc = piece
    return (digit - b * hi, hc, digit - b * lo, lc)


def leo_witness(beta: BetaValue, a, b, nmax: int,
                lo_closed: bool = False, hi_closed: bool = False) -> Optional[int]:
    """Smallest n <= nmax with the n-th image of the interval (a, b) under
    the extended map equal to (0, 1]; None if not reached by nmax.

    Exact rational propagation of interval unions across the partition, so
    a returned witness is a certificate, and None is only a search bound.
    """
    if not beta.is_exact:
        raise DomainError("interval bases not supported; use an exact rational")
    bq = beta.exact
    a, b = Fraction(a), Fraction(b)
    if not (0 <= a < b <= 1):
        raise DomainError(f"({a}, {b}) is not a positive-length subinterval of [0, 1]")
    cells = _cells(bq)
    cur = _normalize([(a, lo_closed, b, hi_closed)])
    seen: set = set()
    for n in range(nmax + 1):
        if cur == FULL:
            return n
        if cur in seen:
            # the image sets repeat exactly: the full interval is never
            # reached (happens for bases below the golden ratio)
            return None
        seen.add(cur)
        nxt: list[Piece] = []
        for piece in cur:
            if piece[0] == ZERO and piece[1]:  # extended map: 0 -> 1
                nxt.append((ONE, True, ONE, True))
            for cell, digit in cells:
                hit = _intersect(piece, cell)
                if hit is not None:
                    nxt.append(_map_piece(bq, hit, digit))
        cur = _normalize(nxt)
    return None
