import dataclasses
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from negbeta import language, measures, oracle, order
from negbeta.errors import (EmptyPer, HorizonExhausted, NegBetaError, NotOddPeriodic,
                            SpecPrefixTooShort)
from negbeta.graph import build_graph_for_spec, k_of, path_count, path_words
from negbeta.language import (CountTable, ShiftSpec, count_words,
                              derived_lower_bound, entropy_profile,
                              enumerate_words, eventually_periodic_completion,
                              follower_words, is_admissible, iter_words,
                              per_count, per_points, periodic_block_ok,
                              seq_within_bounds)
from negbeta.numeric import BetaValue
from negbeta.order import EvPeriodicSeq, is_alt_shift_maximal, word

GOLDEN = ShiftSpec.golden()
FIG = ShiftSpec.make(EvPeriodicSeq.make((), word("3232133")))
B2 = ShiftSpec.from_beta(BetaValue.from_rational(2))


def test_spec_construction():
    assert GOLDEN.alphabet == 2 and not GOLDEN.two_sided
    assert B2.alphabet == 3 and B2.two_sided
    assert B2.lower == EvPeriodicSeq.make((), (1, 2))
    with pytest.raises(ValueError):
        ShiftSpec.make(EvPeriodicSeq.make((1,), (2,)))  # not shift maximal
    with pytest.raises(NotOddPeriodic):
        derived_lower_bound(EvPeriodicSeq.make((2,), (1,)))


def test_spec_first_digit_message():
    with pytest.raises(ValueError, match="first digit of the upper bound"):
        ShiftSpec.make((1, 2))
    with pytest.raises(ValueError, match=r"shift maximal \(shift 1\)"):
        ShiftSpec.make((2, 2, 1))


def test_from_beta_bound_is_never_refuted():
    # from_beta skips make's shift-maximality check (the argument is in its
    # docstring): on every base p/q with q <= 40 and p/q <= 6, at its
    # default 64 digits, each integer up to 9 and golden, make accepts the
    # bound and builds the same spec, lower bound included
    bases = {F(p, q) for q in range(1, 41) for p in range(q + 1, 6 * q + 1)}
    for beta in [*map(BetaValue.from_rational, bases | set(range(2, 10))),
                 BetaValue.golden()]:
        spec = ShiftSpec.from_beta(beta)
        assert spec.two_sided == (beta.is_exact and beta.exact.denominator == 1)
        assert is_alt_shift_maximal(spec.upper).status != "no", beta
        lower = "derived" if spec.two_sided else None
        assert spec == ShiftSpec.make(spec.upper, lower=lower), beta
    assert GOLDEN == ShiftSpec.make(GOLDEN.upper)


def test_from_beta_refuses_an_empty_prefix():
    # an interval base whose first digit is not decided certifies no digit
    with pytest.raises(ValueError, match="empty prefix"):
        ShiftSpec.from_beta(BetaValue(lo=F(3, 2), hi=F(5, 2)))


def test_from_beta_and_golden_skip_the_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bound from a base was checked again")

    monkeypatch.setattr(ShiftSpec, "make", staticmethod(refuse))
    monkeypatch.setattr(language, "is_alt_shift_maximal", refuse)
    monkeypatch.setattr(order, "is_alt_shift_maximal", refuse)
    for b in (2, 9):  # the derived lower bound is made canonical, with word()
        assert ShiftSpec.from_beta(BetaValue.from_rational(b)).two_sided
    monkeypatch.setattr(order, "word", refuse)
    for b in (F(13, 10), F(5, 2), F(41, 7)):
        assert ShiftSpec.from_beta(BetaValue.from_rational(b)).prefix_mode
    assert ShiftSpec.from_beta(BetaValue.golden()).prefix_mode
    assert ShiftSpec.golden().upper == EvPeriodicSeq((2,), (1,))


def test_admissibility_examples():
    assert is_admissible(GOLDEN, word("2111")) == "yes"
    # the even-position reversal makes 22 admissible: 22 precedes 21 here
    assert is_admissible(GOLDEN, word("22")) == "yes"
    assert is_admissible(GOLDEN, word("212")) == "no"
    assert is_admissible(B2, word("3331")) == "no"
    assert is_admissible(B2, word("13")) == "no"      # falls below the lower bound
    assert is_admissible(B2, word("23")) == "yes"


def test_enumeration_examples():
    assert enumerate_words(GOLDEN, 1) == [word("1"), word("2")]
    assert enumerate_words(GOLDEN, 2) == [word("11"), word("12"), word("21"), word("22")]
    assert enumerate_words(B2, 1) == [word("1"), word("2"), word("3")]


def test_golden_language_matches_forbidden_factor_rule():
    # a word is admissible iff no 2 is followed by an odd run of ones
    # capped by another 2
    def clean(w):
        runs = []
        count = None
        for d in w:
            if d == 2:
                if count is not None:
                    runs.append(count)
                count = 0
            elif count is not None:
                count += 1
        return all(r % 2 == 0 for r in runs)

    import itertools
    for n in range(1, 12):
        expected = [w for w in itertools.product((1, 2), repeat=n) if clean(w)]
        assert enumerate_words(GOLDEN, n) == expected


def test_admissible_matches_naive_oracle():
    import itertools
    for spec, alpha, nmax in ((GOLDEN, 2, 9), (FIG, 3, 6), (B2, 3, 6)):
        for n in range(1, nmax + 1):
            for w in itertools.product(range(1, alpha + 1), repeat=n):
                assert is_admissible(spec, w) == oracle.naive_admissible(spec, w), w


@given(st.integers(1, 10), st.data())
@settings(max_examples=200, deadline=None)
def test_closure_properties(n, data):
    spec = data.draw(st.sampled_from([GOLDEN, FIG, B2]))
    words = enumerate_words(spec, n)
    w = data.draw(st.sampled_from(words))
    assert is_admissible(spec, w[1:] or w) == "yes"     # suffix closure
    assert is_admissible(spec, w[:-1] or w) == "yes"    # prefix closure


def test_prefix_spec_undetermined():
    spec13 = ShiftSpec.from_beta(BetaValue.from_rational(F(13, 10)), prefix_len=6)
    # a word tying the whole 6-digit prefix cannot be decided
    assert is_admissible(spec13, word("2112222")) == "undetermined"
    with pytest.raises(SpecPrefixTooShort):
        enumerate_words(spec13, 7)


def test_prefix_spec_verdicts_match_oracle():
    # every word up to three digits past a short known prefix (digits above
    # the alphabet on short words): a tie with the whole prefix leaves the
    # word undetermined, unless a later suffix breaks the bound
    seen = set()
    for b in (F(4, 3), F(8, 5), F(5, 2), F(7, 3), F(11, 4), F(10, 3)):
        for prefix_len in range(3, 7):
            spec = ShiftSpec.from_beta(BetaValue.from_rational(b), prefix_len=prefix_len)
            top = spec.alphabet
            if top ** (prefix_len + 3) > 3 ** 8:
                continue
            for n in range(prefix_len + 4):
                digits = range(1, top + 1 + (n <= 3))
                for w in itertools.product(digits, repeat=n):
                    got = is_admissible(spec, w)
                    assert got == oracle.naive_admissible(spec, w), (spec.upper, w)
                    seen.add(got)
    assert seen == {"yes", "no", "undetermined"}


def test_per_points_examples():
    assert per_points(GOLDEN, 1) == [word("1"), word("2")]
    assert per_points(GOLDEN, 2) == [word("11"), word("22")]
    assert per_points(B2, 1) == [word("1"), word("2"), word("3")]
    three = ShiftSpec.make(EvPeriodicSeq.constant(3))
    assert word("3") in per_points(three, 1)


def test_per_points_match_naive():
    for spec, nmax in ((GOLDEN, 10), (B2, 6), (FIG, 6)):
        for n in range(1, nmax + 1):
            assert per_points(spec, n) == [tuple(p) for p in oracle.naive_per(spec, n)]


def test_per_points_rotation_closed():
    for n in range(1, 9):
        blocks = set(per_points(GOLDEN, n))
        for b in blocks:
            assert all(b[i:] + b[:i] in blocks for i in range(n))


def test_golden_per_counts_follow_trace_formula():
    # Period-n blocks have even cyclic runs of ones between twos, plus the
    # all-ones block.  A two-state run-parity trace gives the Lucas number
    # L(n); the all-ones block is counted twice for even n and missed for
    # odd n, so the block count is L(n) - (-1)^n.
    lucas = [2, 1]
    while len(lucas) < 14:
        lucas.append(lucas[-1] + lucas[-2])
    for n in range(1, 13):
        assert per_count(GOLDEN, n) == lucas[n] - (-1) ** n
    assert [per_count(GOLDEN, n) for n in range(1, 9)] == [2, 2, 5, 6, 12, 17, 30, 46]


def test_count_table_and_entropy_profile():
    table = count_words(GOLDEN, 14, with_per=True)
    counts = [r["count_words"] for r in table.rows]
    assert counts == [2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609, 986, 1596]
    prof = entropy_profile(table)
    assert abs(prof[-1]["words_estimate"] - 0.4812) < 0.1
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "n,count_L,count_Per,exact"
    assert csv_text.splitlines()[1] == "1,2,2,1"


def test_automaton_states_stop_growing_with_n(monkeypatch):
    built = []

    class Recorded(language._Automaton):
        def __init__(self, spec):
            super().__init__(spec)
            built.append(self)

    monkeypatch.setattr(language, "_Automaton", Recorded)
    fib = [0, 1]
    while len(fib) < 1004:
        fib.append(fib[-1] + fib[-2])
    two = ShiftSpec.from_beta(BetaValue.from_rational(2))
    for spec in (GOLDEN, FIG, two):
        # a spec keeps its automaton, so each length runs on an equal but
        # distinct spec and builds a fresh one
        long, short = dataclasses.replace(spec), dataclasses.replace(spec)
        counts = count_words(long, 1000).rows
        count_words(short, 200)
        assert built[-2:] == [long._automaton, short._automaton]
        assert built[-2] is not built[-1]
        states = [set(aut._moves) for aut in built[-2:]]
        assert states[0] == states[1]
        aut = built[-1]
        tracks = [t for t in (aut.upper, aut.lower) if t is not None]
        assert len(states[0]) <= math.prod(t.N + t.P for t in tracks)
        if spec is GOLDEN:
            assert counts[-1]["count_words"] == fib[1003] - 1


def _closed_form_cases():
    # golden: F(n+3) - 1 words of length n; an integer base b: (b+1) b^(n-1)
    fib = [0, 1]
    while len(fib) < 1004:
        fib.append(fib[-1] + fib[-2])
    yield GOLDEN, 1000, [fib[n + 3] - 1 for n in range(1, 1001)]
    for b in (2, 3, 5):
        spec = ShiftSpec.from_beta(BetaValue.from_rational(b))
        assert spec.two_sided
        yield spec, 300, [(b + 1) * b ** (n - 1) for n in range(1, 301)]


def test_word_counts_follow_closed_forms(monkeypatch):
    certified, recurrence = [], language._recurrence

    def spy(terms, size):
        q = recurrence(terms, size)
        certified.append(q is not None)
        return q

    for spec, nmax, want in _closed_form_cases():
        certified.clear()
        monkeypatch.setattr(language, "_recurrence", spy)
        assert [r["count_words"] for r in count_words(spec, nmax).rows] == want
        # one check, and it certifies: the long tail comes from the recurrence
        assert certified == [True]
        monkeypatch.setattr(language, "_recurrence", lambda terms, size: None)
        assert [r["count_words"] for r in count_words(spec, nmax).rows] == want
        monkeypatch.setattr(language, "_recurrence", recurrence)


def test_x_pow_mod_matches_linear_extension():
    # integer recurrences with negative and zero coefficients, of order 1 up
    for q in ([3], [-2], [0], [1], [1, 1], [0, 1], [-1, 0], [-1, 0, 2],
              [2, 0, 0, -3], [0, 0, 0, 1], [5, -4, 0, 1, -1]):
        d = len(q)
        for first in ([1] * d, [(-3) ** i + i for i in range(d)]):
            seq = list(first)
            while len(seq) <= 200:
                seq.append(sum(q[i] * seq[-d + i] for i in range(d)))
            for n in range(201):
                r = language._x_pow_mod(n, q)
                assert len(r) == d
                assert sum(a * c for a, c in zip(r, seq)) == seq[n], (q, n)
                if n < d:  # x^n is its own remainder
                    assert r == [int(i == n) for i in range(d)]


def test_word_counts_refuse_past_the_prefix():
    # the 64-digit prefix of 13/10 ties itself at length 64, so the count
    # of length 65 needs its 65th digit; the recurrence does not hide that
    spec = ShiftSpec.from_beta(BetaValue.from_rational(F(13, 10)))
    assert spec.prefix_mode and len(spec.upper) == 64
    assert count_words(spec, 64).rows[-1]["count_words"] > 0
    for nmax in (65, 200, 1000):
        with pytest.raises(SpecPrefixTooShort,
                           match=r"^upper bound needed at index 65$"):
            count_words(spec, nmax)


def test_entropy_profile_trivial_rows():
    full = CountTable([{"n": n, "count_words": 2 ** n, "exact": True}
                       for n in range(1, 8)])
    assert all(abs(r["words_estimate"] - math.log(2)) < 1e-12
               for r in entropy_profile(full))
    linear = CountTable([{"n": n, "count_words": n + 1, "exact": True}
                         for n in range(1, 30)])
    rows = entropy_profile(linear)
    assert rows[-1]["words_estimate"] < 0.12


def test_follower_words():
    f1 = follower_words(GOLDEN, word("1"), 3)
    f2 = follower_words(GOLDEN, word("11"), 3)
    assert f1 == f2 and len(f1) == 7
    assert follower_words(GOLDEN, word("2"), 3) == follower_words(GOLDEN, word("12"), 3)


def test_follower_words_refuse_a_digit_above_the_alphabet_past_a_prefix_tie():
    # 2 1 1 ties the whole prefix, whose next digit is unknown; a 4 after it
    # still breaks the empty tie, so the word is refused, not left undecided
    spec = ShiftSpec.from_beta(BetaValue.from_rational(F(13, 10)), prefix_len=3)
    with pytest.raises(SpecPrefixTooShort):
        follower_words(spec, word("2111"), 1)
    for w in ("2114", "1112114"):
        with pytest.raises(ValueError, match="is not admissible$"):
            follower_words(spec, word(w), 1)


def test_periodic_block_ok():
    assert periodic_block_ok(GOLDEN, word("211"))
    assert not periodic_block_ok(GOLDEN, word("21"))
    assert periodic_block_ok(B2, word("12"))
    assert not periodic_block_ok(B2, word("23"))  # 3 forces 3 forever


def test_periodic_block_refuses_empty_block():
    with pytest.raises(ValueError, match="nonempty"):
        periodic_block_ok(GOLDEN, ())
    with pytest.raises(ValueError):
        per_points(GOLDEN, 0)


def test_two_sided_conservative_rule_certified():
    # every conservatively admissible short word occurs in a genuine
    # eventually periodic point; discrepancies would be reported here
    missing = []
    for n in range(1, 8):
        for w in iter_words(B2, n):
            if eventually_periodic_completion(B2, w) is None:
                missing.append(w)
    assert missing == [], f"uncertified words: {missing}"


def test_completion_builds_period_blocks_when_reached():
    # the period-3 blocks of this 3-digit prefix raise HorizonExhausted
    # ((211)^inf ties the whole prefix), but the first candidate, built from
    # the period-1 blocks alone, already lies in the shift
    spec = ShiftSpec.from_beta(BetaValue.from_rational(F(13, 10)), prefix_len=3)
    assert eventually_periodic_completion(spec, (1,)) == EvPeriodicSeq.make((1,), (1,))
    with pytest.raises(HorizonExhausted):
        per_points(spec, 3)


def test_seq_within_bounds():
    assert seq_within_bounds(B2, EvPeriodicSeq.make((2,), (3,)))
    assert not seq_within_bounds(B2, EvPeriodicSeq.make((1,), (3,)))
    assert seq_within_bounds(GOLDEN, EvPeriodicSeq.make((2,), (1,)))


def test_per_points_prefix_mode_horizon():
    spec13 = ShiftSpec.from_beta(BetaValue.from_rational(F(13, 10)), prefix_len=40)
    # both one-digit branches have genuine fixed points below the bound
    assert per_points(spec13, 1) == [word("1"), word("2")]
    assert per_points(spec13, 2) == [word("11"), word("22")]


def test_prefix_tie_raises_horizon_exhausted():
    # 4/3 with five known digits 21122: a shift that repeats 2112 ties all
    # five, so its verdict needs a sixth digit; the message names that shift
    spec = ShiftSpec.from_beta(BetaValue.from_rational(F(4, 3)), prefix_len=5)
    assert spec.upper == (2, 1, 1, 2, 2)

    def tie(seq):
        return rf"^{seq} ties the 5-digit upper prefix; extend the prefix$"

    # the last rotation of 1122 ties: it is only seen at digit 4 + 5
    with pytest.raises(HorizonExhausted, match=tie(r"\(2112\)\^inf")):
        periodic_block_ok(spec, "1122")
    with pytest.raises(HorizonExhausted, match=tie(r"\(21122\)\^inf")):
        periodic_block_ok(spec, "21122")
    with pytest.raises(HorizonExhausted, match=tie(r"\(2112\)\^inf")):
        per_points(spec, 4)
    with pytest.raises(HorizonExhausted, match=tie(r"\(2112\)\^inf")):
        seq_within_bounds(spec, EvPeriodicSeq.make((1, 1), (1, 1, 2, 2)))
    with pytest.raises(HorizonExhausted, match=tie(r"21122\(1\)\^inf")):
        seq_within_bounds(spec, EvPeriodicSeq.make((2, 1, 1, 2, 2), (1,)))
    assert per_points(spec, 3) == [word(w) for w in ("111", "112", "121", "211", "222")]


# Rational bases in (1, 4) give the integer two-sided specs (beta = 2, 3)
# and prefix specs; eventually periodic one-sided bounds come from drawn
# digit blocks that dominate their shifts.
_RATIONAL_SPECS = (st.builds(F, st.integers(2, 23), st.integers(1, 6))
                   .filter(lambda b: 1 < b < 4)
                   .map(lambda b: ShiftSpec.from_beta(BetaValue.from_rational(b))))


@st.composite
def _bound_specs(draw):
    upper = EvPeriodicSeq.make(draw(st.lists(st.integers(1, 3), max_size=2)),
                               draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    assume(is_alt_shift_maximal(upper).status == "yes")
    odd = not upper.preperiod and len(upper.period) % 2 == 1 and upper.period[-1] > 1
    lower = "derived" if odd and draw(st.booleans()) else None
    return ShiftSpec.make(upper, lower=lower)


@given(st.one_of(_RATIONAL_SPECS, _bound_specs()), st.data())
@settings(max_examples=100, deadline=None)
def test_fast_paths_match_oracle_on_generated_bounds(spec, data):
    alphabet = range(1, spec.alphabet + 1)
    nmax = max(n for n in range(1, 8) if spec.alphabet ** n <= 3 ** 7)
    counts = [r["count_words"] for r in count_words(spec, nmax).rows]
    graph = None if spec.two_sided else build_graph_for_spec(spec, nmax)
    admissible, rejected, per = {}, {}, {}
    for n in range(1, nmax + 1):
        words = list(itertools.product(alphabet, repeat=n))
        verdicts = [oracle.naive_admissible(spec, w) for w in words]
        admissible[n] = [w for w, v in zip(words, verdicts) if v == "yes"]
        rejected[n] = [w for w, v in zip(words, verdicts) if v == "no"]
        assert [is_admissible(spec, w) for w in words] == verdicts
        assert list(iter_words(spec, n)) == admissible[n]
        assert counts[n - 1] == len(admissible[n])
        if graph is not None:
            assert path_count(graph, n) == counts[n - 1]
            assert set(path_words(graph, n)) == oracle.naive_path_words(graph, n)
        try:
            per[n] = oracle.naive_per(spec, n)
        except RuntimeError as exc:
            assert "ties the whole known prefix" in str(exc)
            per[n] = None
            with pytest.raises(HorizonExhausted, match="ties the .*-digit upper prefix"):
                per_points(spec, n)
        else:
            assert per_points(spec, n) == per[n]
            assert per_count(spec, n) == len(per[n])
    klen = min(nmax, 6)
    pattern = spec.upper if spec.prefix_mode else spec.upper.prefix(klen + 1)
    for w in itertools.product(alphabet, repeat=klen):
        assert k_of(spec.upper, w) == oracle.naive_k(pattern, w)
    m = data.draw(st.integers(1, 4))
    if rejected[m] and per[m] is not None:
        w = data.draw(st.sampled_from(rejected[m]))
        assert w not in per[m]
        assert periodic_block_ok(spec, w) is False
    assume(admissible[m])
    w = data.draw(st.sampled_from(admissible[m]))
    depth = data.draw(st.integers(1, nmax - m)) if nmax > m else 1
    expected = [u for u in itertools.product(alphabet, repeat=depth)
                if oracle.naive_admissible(spec, w + u) == "yes"]
    assert follower_words(spec, w, depth) == expected


@st.composite
def _prefix_specs(draw):
    # a finite prefix of length H of a drawn bound; n runs on both sides of
    # H and over the prefix's periods, where per_points checks word by word
    upper = draw(_bound_specs()).upper
    try:
        return ShiftSpec.make(upper.prefix(draw(st.integers(1, 10))))
    except ValueError:
        assume(False)


def _outcome(f):
    try:
        return f()
    except (HorizonExhausted, SpecPrefixTooShort) as exc:
        return type(exc), str(exc)


@given(st.one_of(_bound_specs(), _prefix_specs()))
@example(GOLDEN)
@example(FIG)
@example(B2)
@settings(max_examples=50, deadline=None)
def test_per_blocks_match_word_by_word_reference(spec):
    # necklace walk vs every admissible word checked on its own; n up to 12
    # covers blocks of non-least period (n = 4, 6, 12)
    for n in range(1, 13):
        if spec.alphabet ** n > 2 ** 12:
            break
        expected = _outcome(
            lambda: [w for w in iter_words(spec, n) if periodic_block_ok(spec, w)])
        got = _outcome(lambda: per_points(spec, n))
        assert got == expected
        count = _outcome(lambda: per_count(spec, n))
        assert count == (len(got) if isinstance(got, list) else got)


_TIED = ShiftSpec.from_beta(BetaValue.from_rational(F(4, 3)), prefix_len=5)


@given(st.one_of(_RATIONAL_SPECS, _bound_specs(), _prefix_specs()),
       st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True),
       st.integers(1, 9))
@example(_TIED, [6, 4, 2, 3, 1], 1)   # H = 5 <= 6 and period 4: word order
@example(_TIED, [3, 2, 5], 2)
@example(GOLDEN, [9, 1, 4, 6], 3)
@example(B2, [6, 5, 4], 4)
@settings(max_examples=100, deadline=None)
def test_one_walk_serves_every_length(spec, ns, m):
    # one walk for all of ns against one call per length and the naive
    # sweep; a failing multi-length call raises what the first failing
    # length of ns raises on its own, since the walked lengths raise nothing
    ns = [n for n in ns if spec.alphabet ** n <= 3 ** 6]
    assume(ns)
    m = min(m, *ns)
    single = {n: _outcome(lambda: per_points(spec, n)) for n in ns}
    for n in ns:
        try:
            naive = oracle.naive_per(spec, n)
        except RuntimeError:
            assert not isinstance(single[n], list)
        else:
            assert single[n] == naive
            assert per_count(spec, n) == len(naive)
    aut = language._Automaton(spec)
    blocks = _outcome(lambda: sorted((n, w[i:] + w[:i]) for n, w, k
                                     in language._per_blocks(aut, ns) for i in range(k)))
    counts = _outcome(lambda: language._per_counts(aut, ns))
    mus = _outcome(lambda: measures.mu_orders(spec, ns, m))
    failed = [got for got in single.values() if not isinstance(got, list)]
    if failed:
        assert blocks == counts == mus == failed[0]
        return
    assert blocks == sorted((n, w) for n in ns for w in single[n])
    assert counts == {n: len(single[n]) for n in ns}
    for n in ns:
        want = (measures.mu_n(spec, n, m) if single[n]
                else measures.EmpiricalMeasure(n, m, 0, {}))
        assert mus[n] == want


def test_word_order_lengths_raise_before_the_walk(monkeypatch):
    # a length the finite prefix 21122 ties (period 4, or H <= n) raises in
    # word order before the necklaces of the other lengths are walked
    walked, necklaces = [], language._necklaces

    def spy(aut, ns):
        walked.append(sorted(ns))
        return necklaces(aut, ns)

    monkeypatch.setattr(language, "_necklaces", spy)
    with pytest.raises(HorizonExhausted, match=r"^\(2112\)\^inf ties the 5-digit "
                       r"upper prefix; extend the prefix$"):
        count_words(ShiftSpec.make((2, 1, 1, 2, 2)), 5, with_per=True)
    assert walked == []


_QUERIES = st.lists(st.one_of(
    st.tuples(st.just("is_admissible"), st.lists(st.integers(1, 4), max_size=8).map(tuple)),
    st.tuples(st.just("periodic_block_ok"),
              st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple)),
    st.tuples(st.just("per_points"), st.integers(1, 6)),
    st.tuples(st.just("count_words"), st.integers(1, 6)),
    st.tuples(st.just("mu_n"), st.integers(1, 6), st.integers(1, 3))),
    min_size=1, max_size=6)


def _ask(spec, query):
    """The answer to one query, or the type and message of its refusal."""
    name, *args = query
    try:
        if name == "count_words":
            return count_words(spec, args[0], with_per=True).rows
        if name == "mu_n":
            n, m = args
            return measures.mu_n(spec, n, min(m, n))
        return getattr(language, name)(spec, *args)
    except NegBetaError as exc:
        return type(exc), str(exc)


def _oracle_agrees(spec, query, got) -> bool:
    """Whether an answer agrees with the oracle, where the oracle decides."""
    name, arg, *_ = query
    if name == "is_admissible":
        return got == oracle.naive_admissible(spec, arg)
    if name == "periodic_block_ok":
        try:
            want = all(oracle._repeat_in_bounds(spec, arg[i:] + arg[:i])
                       for i in range(len(arg)))
        except RuntimeError:
            want = None  # a rotation ties the whole prefix
        # a point read to its repeat meets every tie, so only a refusal or
        # a broken bound may stand beside an undecided oracle
        return (got is True) == (want is True)
    if spec.alphabet ** arg > 3 ** 6:
        return True
    lengths = range(1, arg + 1) if name == "count_words" else [arg]
    try:
        per = [oracle.naive_per(spec, n) for n in lengths]
    except RuntimeError:
        return type(got) is tuple and got[0] in (HorizonExhausted, SpecPrefixTooShort)
    if name == "per_points":
        return got == per[-1]
    if name == "mu_n":
        return (got.per_count if per[-1] else got) == (
            len(per[-1]) if per[-1] else (EmptyPer, f"no period-{arg} blocks"))
    if type(got) is tuple:
        return got[0] is SpecPrefixTooShort and spec.prefix_mode
    words = [itertools.product(range(1, spec.alphabet + 1), repeat=n)
             for n in range(1, arg + 1)]
    return got == [{"n": n, "count_words": sum(oracle.naive_admissible(spec, w) == "yes"
                                               for w in ws),
                    "exact": True, "count_per": len(p)}
                   for n, ws, p in zip(range(1, arg + 1), words, per)]


@given(st.one_of(_RATIONAL_SPECS, _bound_specs(), _prefix_specs()), _QUERIES)
# on the 5-digit prefix 21122 a refused query is followed by answered ones
@example(_TIED, [("count_words", 6), ("per_points", 4), ("per_points", 3),
                 ("mu_n", 4, 2), ("count_words", 5), ("mu_n", 3, 2),
                 ("periodic_block_ok", (2, 1, 1, 2)), ("periodic_block_ok", (2, 1))])
@example(ShiftSpec.make((2, 1, 1, 2, 2, 2, 1)),
         [("per_points", 6), ("is_admissible", (2, 1, 1, 2, 2, 2, 1, 1)),
          ("count_words", 4), ("per_points", 5)])
@example(B2, [("count_words", 5), ("mu_n", 4, 3), ("periodic_block_ok", (3, 1))])
@settings(max_examples=200, deadline=None)
def test_shared_automaton_answers_as_fresh_ones(spec, queries):
    # every query runs on the one spec object, whose automaton keeps the
    # rows of the queries before it, and on a fresh equal spec
    aut = spec._automaton
    for query in queries:
        got = _ask(spec, query)
        assert got == _ask(dataclasses.replace(spec), query)
        assert _oracle_agrees(spec, query, got)
    assert spec._automaton is aut
    # a refused query stored no row at a whole-prefix tie, and every stored
    # row is the one a fresh automaton computes
    fresh = language._Automaton(spec)
    assert all(aut._out(state) == fresh._out(state) for state in list(aut._moves))
    assert all(state[0] != aut.upper.known for state in aut._moves)
