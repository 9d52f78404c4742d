"""Certified computation for negative-base transformations.

The map is x -> -bx + floor(bx) + 1 on (0, 1].  Bases
are exact rationals (preferred: every orbit value is an exact Fraction) or
real intervals refined on demand, e.g. the golden ratio.  Every orbit runs
on one integer-numerator kernel, `_orbit`: exact bases and intervals alike.
Exact bases are never rounded, and an exact base and point run one
integer track, since their enclosure is a point.  `expand` on a
refinable interval base first tries each precision with enclosures
rounded outward onto a fixed dyadic denominator; rounding only widens an
enclosure, so a digit it decides is the digit the exact enclosure
decides (the lemma at `_orbit`).  When no precision finishes, a run
rounded inward at the top precision that fails where the outward run
failed shows that the exact orbit fails there too; only when it does not
does the exact orbit run, once, at the top precision.  Either way the
exact run's certified prefix is reported.  Interval results are only
reported when an enclosure determines them.  Each question
about the orbit of 1 walks it at most once: `classify_d1` knows the one
cycle there is (that of an integer base, by the lemma at `_d1_cycle`)
without walking, `golden_test` decides an exact base by an integer test
without walking at all, and an interval base's certified prefix can be
handed to `golden_test_prefix` for reuse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional

from .errors import AmbiguousDigit, DomainError, UndecidableOrder
from .order import EQ, LT, EvPeriodicSeq, Word, _Frozen, cmp_prefix, word

ZERO = Fraction(0)
ONE = Fraction(1)


class IntervalValue(_Frozen):
    """A closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        super().__init__(lo, hi)

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


class BetaValue(_Frozen):
    """A base beta > 1, exact or enclosed in a refinable interval."""

    __slots__ = ("exact", "lo", "hi", "bits", "refiner", "label")
    _cmp = ("exact", "lo", "hi", "bits", "label")  # not the refiner
    _defaults = (None, None, None, 64, None, None)

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


class CertifiedDigits(_Frozen):
    """An expansion prefix together with how much of it is certified."""

    __slots__ = ("digits", "certified",
                 "status")  # ("complete",) or ("precision_exhausted", failed_index)

    @property
    def complete(self) -> bool:
        return self.status[0] == "complete"


def _check_unit(x: UnitPoint) -> tuple[Fraction, Fraction]:
    if isinstance(x, IntervalValue):
        lo, hi = x.lo, x.hi
    else:
        lo = hi = Fraction(x)
    if hi > 1 or lo < 0 or hi <= 0:
        raise DomainError(f"point {x} outside the unit interval")
    return lo, hi


def _orbit(beta: BetaValue, x: UnitPoint, round_bits: Optional[int] = None,
           inward: bool = False) -> Iterator[tuple[int, int, int, int]]:
    """The orbit of x under the map, one (digit, lo, hi, den) per step.

    The point after the step lies in [lo/den, hi/den]: the enclosure that
    Fraction interval arithmetic gives, unreduced over one shared
    denominator, which gains the factor lcm(beta's denominators) per step.
    Without round_bits nothing is rounded; exact beta and x keep lo == hi,
    and then one track is computed.  With round_bits = W every step is
    rounded onto the fixed denominator 2^W, so the integers stay O(W +
    bits) long: outward (floor for lo, ceiling for hi, the start too), or,
    with inward set, inward (ceiling for lo, floor for hi, the start left
    exact), and then the orbit ends once the enclosure turns empty.
    Raises AmbiguousDigit once the enclosure straddles a cell boundary.
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
    #
    # Inward half: the exact run raises AmbiguousDigit no later than an
    # inward run that stays non-empty.  Let I_t = [r, s] be the inward
    # enclosure, r <= s.  While the exact run decides, I_t lies in E_t:
    # at t = 0 they are equal, and from e <= r <= s <= f, (2) gives blo*e
    # <= blo*r <= bhi*s <= bhi*f, so a digit d that E_t decides is I_t's
    # too, [d - bhi*s, d - blo*r] lies in [d - bhi*f, d - blo*e], and
    # rounding inward only shrinks it.  If I_t straddles a boundary,
    # floor(blo*r) < floor(bhi*s), then so does E_t, by the same chain.
    # So an outward and an inward run failing at one step t bracket the
    # exact run, which fails there too, with the outward run's digits.
    #
    # Exact beta and x: lo == hi and alo == ahi at the start, so the two
    # products alo*lo and ahi*hi are equal at every step, and so are the
    # next lo and hi; the one track computes one product and one division,
    # and skips the straddle test, which compares equal quotients.
    xlo, xhi = _check_unit(x)
    blo, bhi = beta.bounds()
    c = math.lcm(blo.denominator, bhi.denominator)
    alo, ahi = int(blo * c), int(bhi * c)
    den = math.lcm(xlo.denominator, xhi.denominator)
    lo, hi = int(xlo * den), int(xhi * den)
    one = round_bits is None and alo == ahi and lo == hi
    if round_bits is not None:
        unit = 1 << round_bits
        if inward:
            # the start unrounded, over den * 2^W: den stays 2^W times an
            # integer, so each step can round onto 2^W
            lo, hi, den = lo * unit, hi * unit, den * unit
        else:
            lo, hi, den = lo * unit // den, -(-hi * unit // den), unit
    while True:
        # d = q + 1 for q = floor(alo*lo / den), and d*den - (q*den + r) =
        # den - r: the next numerators are den minus the remainders
        den *= c
        q, r = divmod(alo * lo, den)
        if one:
            lo = hi = den - r
        else:
            qhi, rhi = divmod(ahi * hi, den)
            if qhi != q:
                raise AmbiguousDigit(beta.bits)
            lo, hi = den - rhi, den - r
            if round_bits is not None:
                # den = 2^W * k, so rounding onto 2^W divides by k (k = c
                # after the first step)
                k, den = den >> round_bits, unit
                if inward:
                    lo, hi = -(-lo // k), hi // k
                    if lo > hi:
                        return
                else:
                    lo, hi = lo // k, -(-hi // k)
        yield q + 1, lo, hi, den


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


# Bits that the rounded pass of `expand` keeps beyond the base's precision
# level: the rounding errors then stay far below the base's own width.
_ROUND_GUARD = 32


def _read(orbit: Iterator[tuple[int, int, int, int]],
          n: int) -> tuple[list[int], bool]:
    """The orbit's first n digits, cut at its first ambiguous digit, and
    whether it was so cut; an orbit that turns empty first is not cut."""
    digits: list[int] = []
    try:
        for d, _, _, _ in islice(orbit, n):
            digits.append(d)
    except AmbiguousDigit:
        return digits, True
    return digits, False


def _refine(best: list[int], orbit: Iterator[tuple[int, int, int, int]],
            n: int) -> list[int]:
    """`_read`'s digits, which must extend best, the prefix that the
    previous precision certified."""
    digits = _read(orbit, n)[0]
    if digits[: len(best)] != best:
        raise AssertionError("certified digits changed under refinement")
    return digits


def _fails_at(orbit: Iterator[tuple[int, int, int, int]], n: int) -> Optional[int]:
    """The step at which the orbit raises AmbiguousDigit within n steps;
    None if it decides n digits or ends first (turns empty)."""
    digits, cut = _read(orbit, n)
    return len(digits) if cut else None


def expand(beta: BetaValue, x: UnitPoint, n: int, max_bits: int = 4096) -> CertifiedDigits:
    """First n expansion digits of x.

    Rational base and point: all n digits exact.  A refinable interval
    base doubles its precision from beta.bits up to max_bits, running the
    orbit rounded outward onto 2^(bits + _ROUND_GUARD), and returns at the
    first level that certifies all n digits (the exact digits of that
    level, by the lemma at `_orbit`).  If none does, the orbit runs once
    more at the top level, rounded inward onto the same grid: when it
    fails at the step where the top level's outward run failed, the exact
    run fails there too (the inward half of the lemma at `_orbit`), and
    the outward run's prefix is reported with an exhausted status at that
    step, in time linear in the steps.  Otherwise (the inward run turned
    empty or failed later) the exact orbit runs once at the top level, at
    a cost quadratic in the steps, and its certified prefix is reported
    with an exhausted status.  Refiner-less intervals run only that exact
    orbit.

    Refiner intervals must be nested: refiner(2b) lies in refiner(b).
    The argument of the lemma at `_orbit`, with the previous level's base
    interval and grid in place of the rounded run's, shows that each run's
    enclosures lie in the previous run's, so its certified prefix extends
    the previous one and the exact run at the top level certifies the
    longest prefix of the ladder.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    bits, best = beta.bits, []
    if beta.exact is None and beta.refiner is not None:
        while True:
            top = beta.with_bits(bits)
            best = _refine(best, _orbit(top, x, bits + _ROUND_GUARD), n)
            if len(best) == n:
                return CertifiedDigits(tuple(best), n, ("complete",))
            if bits >= max_bits:
                break
            bits *= 2
        if _fails_at(_orbit(top, x, bits + _ROUND_GUARD, inward=True), n) == len(best):
            return CertifiedDigits(tuple(best), len(best),
                                   ("precision_exhausted", len(best)))
    got = _refine(best, _orbit(beta.with_bits(bits), x), n)
    status = ("complete",) if len(got) == n else ("precision_exhausted", len(got))
    return CertifiedDigits(tuple(got), len(got), status)


class D1Classification(_Frozen):
    """Cycle structure of the digit expansion of 1.

    kind is "periodic_odd" (period 1, preperiod 0) for an integer base b,
    whose expansion of 1 is (b+1)^inf, or "no_cycle" with the first horizon
    digits: by the lemma at `_d1_cycle` no other exact base has a cycle,
    and an interval base never certifies one.
    """

    __slots__ = ("kind", "period", "preperiod", "horizon", "digits")


def _d1_cycle(beta: BetaValue, horizon: int) -> Optional[Word]:
    """The period of the expansion of 1 when a walk of horizon steps would
    see it repeat: (b + 1,) for an integer base b and horizon >= 2, else
    None.  The walk is never run."""
    # For beta = p/q in lowest terms and x = 1, the t-th orbit value is
    # num/q^t with num > 0 and gcd(num, q) = 1: true at t = 0 (1/1), and
    # the next numerator d*q^(t+1) - p*num has gcd(d*q^(t+1) - p*num, q) =
    # gcd(p*num, q) = 1.  So for q > 1 the reduced denominators q^t differ
    # from step to step, no value repeats and there is no cycle.  For
    # q = 1 the map fixes 1: 1 -> (b + 1) - b*1 = 1, seen at step 1.
    if horizon < 1:
        raise ValueError("horizon >= 1 required")
    if beta.is_exact and beta.exact.denominator == 1 and horizon >= 2:
        return (beta.exact.numerator + 1,)
    return None


def classify_d1(beta: BetaValue, horizon: int) -> D1Classification:
    """Classify the expansion of 1 by the lemma at `_d1_cycle`: an integer
    base is periodic_odd without walking its orbit; any other base walks
    horizon steps for its no_cycle digits.  A caller that needs only the
    kind, period and preperiod reads them off `_d1_cycle`, which walks
    nothing (as `negbeta expand` does)."""
    cycle = _d1_cycle(beta, horizon)
    if cycle is not None:
        return D1Classification("periodic_odd", 1, 0, horizon, cycle)
    return D1Classification("no_cycle", None, None, horizon,
                            expand(beta, ONE, horizon).digits)


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
        raise ValueError("horizon >= 1 required")
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
