import math
import time
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negbeta import numeric
from negbeta.errors import AmbiguousDigit, DomainError, UndecidableOrder
from negbeta.language import ShiftSpec
from negbeta.numeric import (BetaValue, CertifiedDigits, D1Classification,
                             IntervalValue, _orbit, classify_d1, expand,
                             golden_test, golden_test_prefix, psi_value, step)
from negbeta.order import EQ, LT, EvPeriodicSeq, cmp_prefix, word

B2 = BetaValue.from_rational(2)
B13 = BetaValue.from_rational(F(13, 10))


def test_step_examples():
    assert step(B2, F(1)) == (3, F(1))
    assert step(B13, F(1)) == (2, F(7, 10))
    d, nxt = step(BetaValue.golden(64), F(1))
    assert d == 2
    assert F(381966, 10**6) < nxt.lo < nxt.hi < F(381967, 10**6)
    assert nxt.width < F(1, 2**30)


def test_step_domain():
    with pytest.raises(DomainError):
        step(B2, F(0))
    with pytest.raises(DomainError):
        step(B2, F(3, 2))


def test_expand_examples():
    assert expand(B2, F(1), 5).digits == word("33333")
    got = expand(B13, F(1), 4)
    assert got.digits == word("2112") and got.certified == 4 and got.complete
    assert expand(BetaValue.golden(), F(1), 6).digits == word("211111")


def test_digit_range_and_first_digit():
    for beta in (B2, B13, BetaValue.from_rational(F(5, 2)), BetaValue.from_rational(3)):
        top = beta.alphabet
        got = expand(beta, F(1), 25)
        assert got.digits[0] == top
        assert all(1 <= d <= top for d in got.digits)


def test_classify_d1():
    c2 = classify_d1(B2, 10)
    assert (c2.kind, c2.period) == ("periodic_odd", 1)
    c3 = classify_d1(BetaValue.from_rational(3), 10)
    assert (c3.kind, c3.period) == ("periodic_odd", 1)
    assert classify_d1(B13, 1000).kind == "no_cycle"
    # interval bases never certify a cycle
    assert classify_d1(BetaValue.golden(), 10).kind == "no_cycle"


def test_golden_test():
    assert golden_test(B13) == "below"
    assert golden_test(B2) == "at_or_above"
    assert golden_test(BetaValue.golden()) == "at_or_above"
    assert golden_test(BetaValue.from_rational(F(8, 5))) == "below"     # 1.6
    assert golden_test(BetaValue.from_rational(F(13, 8))) == "at_or_above"  # 1.625
    for beta in (B13, B2, BetaValue.golden()):
        with pytest.raises(ValueError, match=r"^horizon >= 1 required$"):
            golden_test(beta, horizon=0)


def test_psi_closed_forms():
    ones = EvPeriodicSeq.constant(1)
    for beta in (B2, B13, BetaValue.from_rational(F(7, 3))):
        iv = psi_value(beta, ones)
        assert iv.exact == 1 / (beta.exact + 1)
    assert psi_value(B2, EvPeriodicSeq.constant(3)).exact == 1
    # the expansion of 1 evaluates back to 1
    g = EvPeriodicSeq.make((2,), (1,))
    iv = psi_value(BetaValue.golden(128), g)
    assert iv.contains(1) and iv.width < F(1, 2**60)


def test_psi_prefix_brackets_value():
    digits = expand(B13, F(1), 30).digits
    iv = psi_value(B13, digits)
    assert iv.contains(1)
    tail = F(2) / (F(13, 10) ** 30 * (F(13, 10) - 1))
    assert iv.width <= 2 * tail + F(1, 10**30)


@given(st.integers(11, 40), st.integers(1, 200), st.integers(5, 25))
@example(35, 84, 6)  # the tail uses digit 4, above the word's maximum 2
@settings(max_examples=60, deadline=None)
def test_psi_bracket_property(p, num, m):
    # beta = p/10 in (1.1, 4.0], x = num/200 in (0, 1]
    beta = BetaValue.from_rational(F(p, 10))
    x = F(num, 200)
    digits = expand(beta, x, m).digits
    iv = psi_value(beta, digits)
    assert iv.contains(x)
    assert iv.width <= 2 * F(beta.alphabet) / (beta.exact ** m * (beta.exact - 1))


@given(st.integers(11, 40), st.integers(1, 100))
@settings(max_examples=50, deadline=None)
def test_step_conjugacy(p, num):
    beta = BetaValue.from_rational(F(p, 10))
    x = F(num, 100)
    _, nxt = step(beta, x)
    assert expand(beta, nxt, 6).digits == expand(beta, x, 7).digits[1:]


def test_interval_mode_matches_exact():
    bits = 128
    lo = F((13 << bits) // 10, 1 << bits)

    def refine(b):
        l = F((13 << b) // 10, 1 << b)
        return l, l + F(1, 1 << b)

    approx = BetaValue(lo=lo, hi=lo + F(1, 1 << bits), bits=bits, refiner=refine)
    got = expand(approx, F(1), 30)
    assert got.complete and got.digits == expand(B13, F(1), 30).digits


def test_monotone_certification():
    low = expand(BetaValue.golden(32), F(1), 40, max_bits=32)
    high = expand(BetaValue.golden(256), F(1), 40, max_bits=256)
    assert low.digits == high.digits[: low.certified]
    assert high.certified >= low.certified


def test_precision_exhaustion_reported():
    got = expand(BetaValue.golden(16), F(1), 200, max_bits=32)
    assert got.status[0] == "precision_exhausted"
    assert got.certified == len(got.digits) < 200


def test_beta_parse():
    assert BetaValue.parse("13/10").exact == F(13, 10)
    assert BetaValue.parse("1.3").exact == F(13, 10)
    assert BetaValue.parse("golden").label == "golden"
    with pytest.raises(DomainError):
        BetaValue.parse("0.5")
    with pytest.raises(DomainError):
        BetaValue.parse("1/0")


def test_golden_precision_must_be_positive():
    # doubling a zero precision never reaches the cap, so it is refused
    for bits in (0, -3):
        with pytest.raises(DomainError, match="precision"):
            BetaValue.golden(bits)
        with pytest.raises(DomainError, match="precision"):
            BetaValue.parse("golden", bits=bits)
    # a rational base carries no precision and keeps answering
    assert BetaValue.parse("13/10", bits=0).exact == F(13, 10)
    assert expand(BetaValue.golden(1), F(1), 5).digits == (2, 1, 1, 1, 1)


def test_golden_long_orbit():
    # 512 interval steps, certified by the outward-rounded pass
    got = expand(BetaValue.golden(), F(1), 512)
    assert got.complete and got.digits == (2,) + (1,) * 511
    cls = classify_d1(BetaValue.golden(), 256)
    assert cls.kind == "no_cycle" and cls.digits == (2,) + (1,) * 255


def _reference_orbit(beta, x, n, max_bits=4096):
    """Fraction interval arithmetic one step at a time, with the precision
    doubling of expand; returns (CertifiedDigits, the enclosure after each
    step), the enclosures None unless all n digits are certified."""
    bits, best = beta.bits, []
    while True:
        blo, bhi = beta.with_bits(bits).bounds()
        xlo, xhi = (x.lo, x.hi) if isinstance(x, IntervalValue) else (F(x), F(x))
        digits, path, failed_at = [], [], None
        for i in range(n):
            tlo, thi = blo * xlo, bhi * xhi
            d = math.floor(tlo) + 1
            if math.floor(thi) + 1 != d:
                failed_at = i
                break
            digits.append(d)
            xlo, xhi = d - thi, d - tlo
            path.append((xlo, xhi))
        if failed_at is None:
            return CertifiedDigits(tuple(digits), n, ("complete",)), path
        if len(digits) > len(best):
            best = digits
        if bits >= max_bits or beta.refiner is None:
            got = CertifiedDigits(tuple(best), len(best), ("precision_exhausted", failed_at))
            return got, None
        bits *= 2


def _reference_classify(beta, horizon):
    if not beta.is_exact:
        got = _reference_orbit(beta, F(1), horizon)[0]
        return D1Classification("no_cycle", None, None, horizon, got.digits)
    seen, digits, cur = {}, [], F(1)
    for t in range(horizon):
        if cur in seen:
            s, p = seen[cur], t - seen[cur]
            kind = ("eventually_periodic" if s else
                    "periodic_odd" if p % 2 else "periodic_even")
            return D1Classification(kind, p, s, horizon, tuple(digits))
        seen[cur] = t
        d = math.floor(beta.exact * cur) + 1
        digits.append(d)
        cur = d - beta.exact * cur
    return D1Classification("no_cycle", None, None, horizon, tuple(digits))


def _dyadic_beta(v, bits):
    def refine(b):
        lo = F(math.floor(v * (1 << b)), 1 << b)
        return lo, lo + F(1, 1 << b)

    lo, hi = refine(bits)
    return BetaValue(lo=lo, hi=hi, bits=bits, refiner=refine)


def _degenerate_refiner_base(v, bits):
    # a refiner that returns the exact value: the outward ladder exhausts,
    # and the inward enclosure of a point off the grid is empty at once
    return BetaValue(lo=v, hi=v, bits=bits, refiner=lambda b: (v, v))


def _narrow_beta(v, extra):
    # dyadic enclosures 2^extra times narrower than the precision level:
    # for extra near _ROUND_GUARD the rounding is as wide as the enclosure,
    # and the outward and inward runs fail at different steps
    inner = _dyadic_beta(v, 8 + extra)
    return BetaValue(lo=inner.lo, hi=inner.hi, bits=8,
                     refiner=lambda b: inner.refiner(b + extra))


_unit = st.builds(F, st.integers(1, 30), st.integers(1, 30)).filter(lambda f: f <= 1)
_exact_bases = st.builds(lambda q, k: BetaValue.from_rational(F(q + 1 + k % (3 * q), q)),
                         st.integers(1, 12), st.integers(0, 35))
_interval_bases = st.one_of(
    st.builds(lambda b, bits: _dyadic_beta(b.exact, bits), _exact_bases, st.integers(3, 24)),
    # degenerate and refiner-less: exact arithmetic never exhausts it, so
    # any rounding of the enclosures shows as an exhausted expansion
    st.builds(lambda b, bits: BetaValue(lo=b.exact, hi=b.exact, bits=bits),
              _exact_bases, st.integers(3, 24)))
_points = st.one_of(_unit, st.builds(lambda a, b: IntervalValue(min(a, b), max(a, b)),
                                     _unit, _unit))


@given(st.one_of(_exact_bases, _interval_bases), _points, st.integers(1, 60),
       st.sampled_from([8, 16, 32, 64, 4096]))
@settings(max_examples=150, deadline=None)
def test_orbit_kernel_matches_fraction_reference(beta, x, n, max_bits):
    assert expand(beta, x, n, max_bits=max_bits) == _reference_orbit(beta, x, n, max_bits)[0]
    assert classify_d1(beta, n) == _reference_classify(beta, n)
    first, path = _reference_orbit(beta, x, 1, max_bits=beta.bits)
    if path is None:
        with pytest.raises(AmbiguousDigit):
            step(beta, x)
        return
    exact = beta.is_exact and not isinstance(x, IntervalValue)
    d, nxt = step(beta, x)
    assert d == first.digits[0] and isinstance(nxt, F) == exact
    assert nxt == (path[0][0] if exact else IntervalValue(*path[0]))


def _certified_steps(orbit, n):
    steps = []
    try:
        steps.extend(islice(orbit, n))
    except AmbiguousDigit:
        pass
    return steps


_refiner_bases = st.one_of(
    st.builds(lambda b, bits: _dyadic_beta(b.exact, bits), _exact_bases, st.integers(3, 24)),
    st.builds(BetaValue.golden, st.integers(3, 64)))


@given(st.one_of(_refiner_bases, _exact_bases), _points, st.integers(1, 96),
       st.integers(1, 150))
@settings(max_examples=150, deadline=None)
def test_rounded_orbit_encloses_exact_orbit(beta, x, w, n):
    # the lemma at _orbit: while both runs decide, the rounded enclosure
    # contains the exact one, so its digits are the exact run's
    rounded = _certified_steps(_orbit(beta, x, round_bits=w), n)
    exact = _certified_steps(_orbit(beta, x), n)
    assert len(rounded) <= len(exact)
    for (d, lo, hi, den), (e, elo, ehi, eden) in zip(rounded, exact):
        assert d == e and den == 1 << w
        assert F(lo, den) <= F(elo, eden) <= F(ehi, eden) <= F(hi, den)


@given(_refiner_bases, _points, st.integers(61, 400),
       st.sampled_from([8, 16, 64, 4096]))
@example(BetaValue.golden(64), F(1), 400, 4096)
@example(_dyadic_beta(F(5, 2), 5), F(1), 400, 4096)
@example(_dyadic_beta(F(5, 2), 5), F(1), 400, 16)
@example(BetaValue.golden(16), F(1), 400, 32)
@example(BetaValue.golden(16), F(1), 200, 32)
@example(BetaValue.golden(24), F(2, 3), 300, 64)
@example(_dyadic_beta(F(7, 3), 4), IntervalValue(F(1, 3), F(1, 3)), 400, 8)
@example(_narrow_beta(F(13, 10), 30), F(1), 200, 16)   # the runs disagree
@example(_narrow_beta(F(13, 10), 30), F(1, 3), 200, 16)
@settings(max_examples=40, deadline=None)
def test_expand_matches_fraction_reference_at_depth(beta, x, n, max_bits):
    # deep enough to climb several precision levels; a case that
    # exhausts runs the rounded ladder and then one exact orbit at the top
    assert expand(beta, x, n, max_bits=max_bits) == _reference_orbit(beta, x, n, max_bits)[0]


@pytest.mark.parametrize("beta, n, max_bits, exact_runs, complete", [
    (BetaValue.golden(16), 200, 32, [], False),    # the inward bracket decides
    (BetaValue.golden(16), 40, 32, [], True),      # a rounded level completes
    (B13, 200, 32, [B13.bits], True),               # exact base
    (BetaValue(lo=F(3, 2), hi=F(3, 2), bits=8), 50, 64, [8], True),  # no refiner
    # the inward run turns empty: one exact orbit, at the top
    (_degenerate_refiner_base(F(13, 10), 8), 300, 16, [16], True),
    # the runs fail at steps 91 (outward) and 110 (inward): one exact orbit
    (_narrow_beta(F(13, 10), 30), 200, 16, [16], False)])
def test_expand_runs_the_exact_orbit_at_most_once(monkeypatch, beta, n, max_bits,
                                                  exact_runs, complete):
    runs = []

    def counting(b, x, round_bits=None, inward=False):
        if round_bits is None:
            runs.append(b.bits)
        return _orbit(b, x, round_bits, inward)

    monkeypatch.setattr(numeric, "_orbit", counting)
    assert expand(beta, F(1), n, max_bits=max_bits).complete == complete
    assert runs == exact_runs


@given(st.integers(1, 40), st.data(), _unit, st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_exact_orbit_is_one_track(q, data, x, n):
    # exact beta and x: the enclosure is one point at every step, over the
    # unreduced denominator den(x) * den(beta)^t, and never ambiguous
    beta = BetaValue.from_rational(F(data.draw(st.integers(q + 1, 4 * q)), q))
    got, path = _reference_orbit(beta, x, n)
    dens = [x.denominator * beta.exact.denominator ** t for t in range(1, n + 1)]
    want = [(d, lo * den, hi * den, den) for d, (lo, hi), den in zip(got.digits, path, dens)]
    assert all(lo.denominator == 1 for _, lo, _, _ in want)
    assert list(islice(_orbit(beta, x), n)) == want


@given(_refiner_bases, _points, st.integers(1, 96), st.integers(1, 150))
@settings(max_examples=150, deadline=None)
def test_inward_orbit_lies_in_exact_orbit(beta, x, w, n):
    # the inward half of the lemma at _orbit: while both runs decide and the
    # inward run is not empty, its enclosure lies in the exact one, and it
    # fails no earlier than the exact run
    inward = _certified_steps(_orbit(beta, x, w, inward=True), n)
    exact = _certified_steps(_orbit(beta, x), n)
    for (d, lo, hi, den), (e, elo, ehi, eden) in zip(inward, exact):
        assert d == e and den == 1 << w
        assert F(elo, eden) <= F(lo, den) <= F(hi, den) <= F(ehi, eden)
    t = numeric._fails_at(_orbit(beta, x, w, inward=True), n)
    if t is not None:
        assert numeric._fails_at(_orbit(beta, x), n) <= t


_bracket_values = st.fractions(F(3, 2), 4, max_denominator=40)
_bracket_bases = st.one_of(
    st.just(BetaValue.golden()),
    st.builds(lambda v: _dyadic_beta(v, 8), _bracket_values),
    st.builds(_narrow_beta, _bracket_values, st.integers(28, 34)))   # runs may disagree


@given(_bracket_bases, st.one_of(_unit, st.just(F(1, 10**9 + 7))),
       st.sampled_from([64, 128, 256]))
@example(BetaValue.golden(), F(1), 512)
@example(BetaValue.golden(), F(1, 3), 512)
@example(BetaValue.golden(), F(2, 7), 512)
@example(BetaValue.golden(), F(999, 1000), 512)
@settings(max_examples=60, deadline=None)
def test_inward_and_outward_runs_bracket_the_exact_run(beta, x, bits):
    # the outward run fails no later and the inward run no earlier than the
    # exact run, so when they fail at one step the exact run fails there
    beta = beta.with_bits(bits)
    w = bits + numeric._ROUND_GUARD
    fails = [numeric._fails_at(orbit, 8 * bits) for orbit in (
        _orbit(beta, x, w), _orbit(beta, x, w, inward=True), _orbit(beta, x))]
    outward, inward, exact = fails
    assert outward <= exact and (inward is None or exact <= inward)
    if beta.label == "golden":   # these points are bracketed exactly
        assert outward == inward == exact


def test_expand_exhausted_golden_ends_on_the_inward_bracket(monkeypatch):
    # the 4096-bit ladder certifies 5901 digits; the inward run fails there
    # too, so no unrounded orbit runs (it would cost Theta(t^2 * bits))
    runs = []

    def counting(b, x, round_bits=None, inward=False):
        runs.append((round_bits, inward))
        return _orbit(b, x, round_bits, inward)

    monkeypatch.setattr(numeric, "_orbit", counting)
    t0 = time.perf_counter()
    got = expand(BetaValue.golden(), F(1), 6000)
    assert time.perf_counter() - t0 < 20
    assert got.status == ("precision_exhausted", 5901) and got.certified == 5901
    assert got.digits == (2,) + (1,) * 5900
    assert None not in [r for r, _ in runs] and runs[-1] == (4096 + 32, True)


def test_expand_refuses_a_refiner_that_is_not_nested():
    # refiner(16) encloses 7/3, outside refiner(8) around 5/2: the digits
    # certified at 16 bits contradict those certified at 8 bits
    def jump(b):
        lo = _dyadic_beta(F(5, 2) if b < 16 else F(7, 3), b).lo
        return lo, lo + F(1, 1 << b)

    beta = BetaValue(lo=jump(8)[0], hi=jump(8)[1], bits=8, refiner=jump)
    with pytest.raises(AssertionError, match="changed under refinement"):
        expand(beta, F(1), 100, max_bits=16)


def test_golden_expansion_closed_form_at_2000():
    got = expand(BetaValue.golden(), F(1), 2000)
    assert got.complete and got.digits == (2,) + (1,) * 1999


def test_classify_d1_integer_bases_match_reference():
    # only integer bases have a cycle, (b+1)^inf of period 1, seen by the
    # reference search from horizon 2 on
    for b in range(2, 7):
        beta = BetaValue.from_rational(b)
        for horizon in range(1, 13):
            assert classify_d1(beta, horizon) == _reference_classify(beta, horizon)


@given(st.integers(1, 40), st.integers(1, 200), st.integers(1, 80))
@settings(max_examples=100, deadline=None)
def test_orbit_of_one_stays_reduced_over_q_powers(q, k, steps):
    # beta = p/q in lowest terms: the t-th value of the orbit of 1 is
    # num/q^t with num coprime to q, so for q > 1 no value repeats and
    # classify_d1 finds no cycle (the lemma at numeric._d1_cycle)
    beta = BetaValue.from_rational(1 + F(k, q))
    q = beta.exact.denominator
    for t, (_, num, hi, den) in enumerate(islice(_orbit(beta, F(1)), steps), 1):
        assert hi == num > 0 and den == q ** t and math.gcd(num, den) == 1


GOLDEN_UPPER = EvPeriodicSeq.make((2,), (1,))


def _golden_by_prefix(beta, digits):
    """golden_test read off the expansion prefix: the prefix decides
    unless it ties 2 1^inf in full, and the square test decides a tie."""
    c = cmp_prefix(digits, GOLDEN_UPPER)
    if c != EQ:
        return "below" if c == LT else "at_or_above"
    p, q = beta.exact.numerator, beta.exact.denominator
    return "below" if (2 * p - q) ** 2 < 5 * q * q else "at_or_above"


@given(_exact_bases, st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_golden_test_exact_matches_prefix_procedure(beta, horizon):
    digits = expand(beta, F(1), horizon).digits
    assert golden_test(beta, horizon=horizon) == _golden_by_prefix(beta, digits)


def test_golden_test_fibonacci_ratios_match_prefix_procedure():
    # F(k+1)/F(k) alternate around the golden ratio and their expansions
    # of 1 tie ever longer prefixes of 2 1^inf
    fib = [0, 1]
    while len(fib) < 33:
        fib.append(fib[-1] + fib[-2])
    ties = 0
    for k in range(2, 31):
        beta = BetaValue.from_rational(F(fib[k + 1], fib[k]))
        full = expand(beta, F(1), 300).digits
        for horizon in range(1, 301):
            want = _golden_by_prefix(beta, full[:horizon])
            assert golden_test(beta, horizon=horizon) == want, (k, horizon)
            ties += cmp_prefix(full[:horizon], GOLDEN_UPPER) == EQ
    assert ties > 300


def _from_beta_reference(beta, horizon, prefix_len):
    """ShiftSpec.from_beta by classifying to the horizon on every base with
    the reference cycle search and then expanding the prefix afresh."""
    cls = _reference_classify(beta, horizon)
    if cls.kind in ("periodic_odd", "periodic_even"):
        lower = "derived" if cls.kind == "periodic_odd" else None
        return ShiftSpec.make(EvPeriodicSeq.make((), cls.digits[: cls.period]),
                              lower=lower)
    if cls.kind == "eventually_periodic":
        s, p = cls.preperiod, cls.period
        return ShiftSpec.make(EvPeriodicSeq.make(cls.digits[:s], cls.digits[s: s + p]))
    got = expand(beta, 1, prefix_len)
    return ShiftSpec.make(got.digits[: got.certified])


_golden_bases = st.builds(BetaValue.golden, st.integers(8, 256))


@given(st.one_of(_golden_bases, _interval_bases, _exact_bases),
       st.integers(1, 300), st.integers(1, 300))
@example(B2, 1, 1)    # an integer base at the edge of the closed form
@example(B2, 1, 300)
@example(BetaValue.from_rational(3), 2, 1)
@example(BetaValue.from_rational(3), 2, 300)
@settings(max_examples=80, deadline=None)
def test_from_beta_matches_classify_then_expand(beta, horizon, prefix_len):
    got = ShiftSpec.from_beta(beta, horizon=horizon, prefix_len=prefix_len)
    assert got == _from_beta_reference(beta, horizon, prefix_len)
    assert got.origin is beta


def test_from_beta_guards():
    for beta in (B13, B2, BetaValue.golden(8), _dyadic_beta(F(13, 10), 16),
                 BetaValue(lo=F(13, 10), hi=F(13, 10), bits=8)):
        with pytest.raises(ValueError, match=r"^horizon >= 1 required$"):
            ShiftSpec.from_beta(beta, horizon=0)
    for beta in (B13, BetaValue.golden(8)):
        with pytest.raises(ValueError, match=r"^n >= 1 required$"):
            ShiftSpec.from_beta(beta, prefix_len=0)


def test_from_beta_walks_the_orbit_of_one_at_most_prefix_len_steps(monkeypatch):
    steps = []

    def counting(b, x, round_bits=None):
        for got in _orbit(b, x, round_bits):
            steps.append(got)
            yield got

    monkeypatch.setattr(numeric, "_orbit", counting)
    ShiftSpec.from_beta(B13)
    assert len(steps) <= 64
    steps.clear()
    for b in (2, 3, 7):
        assert ShiftSpec.from_beta(BetaValue.from_rational(b)).two_sided
        assert classify_d1(BetaValue.from_rational(b), 256).kind == "periodic_odd"
    assert steps == []


def test_golden_test_prefix_decides_or_refuses():
    # the prefix decides an interval base almost always; a full tie with
    # 2(1)^inf is decided only for the labelled golden base
    assert golden_test(_dyadic_beta(F(13, 10), 16)) == "below"
    assert golden_test(_dyadic_beta(F(17, 10), 16)) == "at_or_above"
    golden = BetaValue.golden(64)
    unlabelled = BetaValue(lo=golden.lo, hi=golden.hi, bits=golden.bits,
                           refiner=golden.refiner)
    digits = expand(unlabelled, F(1), 64).digits
    assert golden_test_prefix(golden, digits) == "at_or_above"
    with pytest.raises(UndecidableOrder, match="ties 2"):
        golden_test_prefix(unlabelled, digits)
    with pytest.raises(UndecidableOrder):
        golden_test(unlabelled)
