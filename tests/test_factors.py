import itertools
import math
import re
from fractions import Fraction as F

import pytest

from negbeta import factors, language
from negbeta.errors import (EnumerationCapExceeded, NegBetaError,
                            NotOddPeriodic, OddOneRun, PatternMismatch,
                            SpecPrefixTooShort, TooShort)
from negbeta.factors import (ClaimResult, FactorReport, SlidingBlockCode,
                             build_case1_code, build_case2_code,
                             check_shifted_block_mismatch,
                             check_singleton_cylinder, in_x_language,
                             verify_factor, x_language)
from negbeta.language import (ShiftSpec, _Automaton, count_words,
                              is_admissible, iter_words)
from negbeta.numeric import BetaValue
from negbeta.order import EvPeriodicSeq, word

B13 = ShiftSpec.from_beta(BetaValue.from_rational(F(13, 10)), prefix_len=40)
B2 = ShiftSpec.from_beta(BetaValue.from_rational(2))
GOLDEN = ShiftSpec.golden()


def test_x_language():
    assert x_language(1) == [word("1"), word("2")]
    assert x_language(2) == [word("11"), word("12"), word("22")]
    assert len(x_language(5)) == 6
    assert math.log(len(x_language(40))) / 40 < 0.1      # entropy drains to zero
    assert in_x_language(word("1122"))
    assert not in_x_language(word("121"))
    assert not in_x_language(word("13"))
    # membership is exactly x_language's list, on every word over 1..4
    for n in range(1, 6):
        members = set(x_language(n))
        for w in itertools.product(range(1, 5), repeat=n):
            assert in_x_language(w) == (w in members), w


def test_build_case1():
    code = build_case1_code(B13)
    assert code.window == 3 and code.kind == "ones_window"
    with pytest.raises(PatternMismatch):
        build_case1_code(GOLDEN)          # at the golden base, not below
    # hand-made bound reading 2 1 2 2: the one-run has odd length
    with pytest.raises(OddOneRun):
        build_case1_code(ShiftSpec.make(word("2122")))


def test_build_case2():
    code = build_case2_code(B2)
    assert code.window == 3
    assert code.detect == frozenset({word("333")})
    assert code.symbol(word("333")) == 2
    assert code.symbol(word("233")) == 1
    with pytest.raises(NotOddPeriodic):
        build_case2_code(GOLDEN)


def test_apply_code():
    code2 = build_case2_code(B2)
    assert code2.apply(word("3333")) == word("22")
    code1 = build_case1_code(B13)
    assert code1.apply(word("111")) == word("1")
    assert code1.apply(word("2112")) == word("22")
    with pytest.raises(TooShort):
        code1.apply(word("21"))


def test_verify_case1():
    code = build_case1_code(B13)
    report = verify_factor(code, B13, 10)
    assert report.passed
    names = {c.claim for c in report.claims}
    assert names == {"image_containment", "monotone_twos", "equivariance",
                     "ones_tail_forbidden", "surjectivity_onto_target",
                     "witnesses"}


def test_verify_case2():
    code = build_case2_code(B2)
    report = verify_factor(code, B2, 12)
    assert report.passed
    names = {c.claim for c in report.claims}
    assert "singleton_cylinder" in names and "shifted_block_mismatch" in names
    js = report.to_json()
    assert js["passed"] and js["window"] == 3


def test_ones_tail_forbidden_exhaustive():
    code = build_case1_code(B13)
    claim = next(c for c in verify_factor(code, B13, 10).claims
                 if c.claim == "ones_tail_forbidden")
    assert claim.status == "pass"
    # spot checks: a single 2 anywhere kills a 111 tail
    assert is_admissible(B13, word("2111")) == "no"
    assert is_admissible(B13, word("12111")) == "no"
    assert is_admissible(B13, word("1111")) == "yes"


def test_singleton_cylinder_depth15():
    code = build_case2_code(B2)
    claim = check_singleton_cylinder(code, B2, 15)
    assert claim.status == "pass"
    # directly: the only admissible extensions of 333 are more threes
    words = [w for w in iter_words(B2, 10) if w[:3] == word("333")]
    assert words == [word("3") * 10]


def test_singleton_cylinder_counterexample():
    # under (21)^inf the block 212 extends by 2 as well as by its own 1
    spec = ShiftSpec.make(EvPeriodicSeq.make((), word("21")))
    code = SlidingBlockCode(window=3, kind="bound_blocks", detect=frozenset())
    claim = check_singleton_cylinder(code, spec, 5)
    assert (claim.status, claim.detail, claim.counterexample) == (
        "fail", "unexpected extension of 212", "2122")


def test_bound_blocks_code_refuses_prefix_spec():
    # a spec known as a finite prefix has no bound blocks to read past it:
    # every check that reads them refuses it as build_case2_code does
    spec = ShiftSpec.from_beta(BetaValue.from_rational(F(7, 3)))
    assert spec.prefix_mode
    code = SlidingBlockCode(window=3, kind="bound_blocks",
                            detect=frozenset({word("313")}))
    with pytest.raises(NotOddPeriodic) as built:
        build_case2_code(spec)
    message = f"^{re.escape(str(built.value))}$"
    with pytest.raises(NotOddPeriodic, match=message):
        check_singleton_cylinder(code, spec, 6)
    with pytest.raises(NotOddPeriodic, match=message):
        check_shifted_block_mismatch(code, spec)
    with pytest.raises(NotOddPeriodic, match=message):
        verify_factor(code, spec, 6)


def test_shifted_block_mismatch():
    code = build_case2_code(B2)
    assert check_shifted_block_mismatch(code, B2).status == "pass"
    up = B2.upper
    n = 1
    for j in range(1, 3 * n + 1):
        cand = (1,) * j + tuple(up.digit(r) for r in range(1, 3 * n - j + 1))
        for i in range(1, n + 1):
            assert cand != tuple(up.digit(i + t) for t in range(3 * n))


def test_image_is_staircase_language():
    code = build_case2_code(B2)
    depth = 10
    image = {code.apply(w) for w in iter_words(B2, depth)}
    assert image == set(x_language(depth - code.window + 1))


def test_equivariance_identity_on_staircase_code():
    # degenerate self-test: the identity-style window-1 code on the
    # staircase shift commutes with dropping symbols
    stairs = ShiftSpec.make(EvPeriodicSeq.constant(2))
    code = SlidingBlockCode(window=1, kind="bound_blocks",
                            detect=frozenset({word("2")}))
    for w in x_language(6):
        assert code.apply(w) == w
        assert code.apply(w[1:]) == code.apply(w)[1:]


def test_monotone_image_shapes():
    code = build_case1_code(B13)
    for w in iter_words(B13, 9):
        img = code.apply(w)
        assert in_x_language(img)
        assert not any(a == 2 and b == 1 for a, b in zip(img, img[1:]))


# -- the swept claims against a per-word reference ---------------------------

def _fmt(w):
    return "".join(map(str, w))


def _reference_ones_tail(code, spec, depth):
    """verify_factor's ones-tail claim as a loop over every shorter word."""
    n = code.window
    ones = (1,) * n
    for length in range(1, depth - n + 1):
        for w in iter_words(spec, length):
            if w == (1,) * length:
                continue
            if is_admissible(spec, w + ones) != "no":
                return ClaimResult("ones_tail_forbidden", "fail",
                                   f"w 1^{n} admissible at |w|={length}", _fmt(w))
    return ClaimResult("ones_tail_forbidden", "pass",
                       f"w 1^{n} inadmissible for every non-ones w up to "
                       f"length {depth - n}")


def _reference_verify(code, spec, depth):
    """verify_factor as a loop applying the code to every admissible word
    of the depth."""
    if depth <= code.window:
        raise TooShort("depth must exceed the window length")
    if code.kind == "bound_blocks":
        factors._bound_seq(spec)
    total = count_words(spec, depth).rows[-1]["count_words"]
    if total > factors._ENUMERATION_CAP:
        raise EnumerationCapExceeded("cap")
    words = list(iter_words(spec, depth))
    image = set()
    bad_contain = bad_monotone = bad_equivariance = None
    for w in words:
        img = code.apply(w)
        image.add(img)
        if not in_x_language(img):
            bad_contain = bad_contain or w
        if any(a == 2 and b == 1 for a, b in zip(img, img[1:])):
            bad_monotone = bad_monotone or w
        if code.apply(w[1:]) != img[1:]:
            bad_equivariance = bad_equivariance or w
    claims = [
        ClaimResult("image_containment", "fail" if bad_contain else "pass",
                    f"{len(words)} admissible words of length {depth}",
                    _fmt(bad_contain) if bad_contain else None),
        ClaimResult("monotone_twos", "fail" if bad_monotone else "pass",
                    "no 1 after a 2 in any image",
                    _fmt(bad_monotone) if bad_monotone else None),
        ClaimResult("equivariance", "fail" if bad_equivariance else "pass",
                    "dropping the first input digit commutes with the code",
                    _fmt(bad_equivariance) if bad_equivariance else None)]
    if code.kind == "ones_window":
        claims.append(_reference_ones_tail(code, spec, depth))
    else:
        claims.append(check_singleton_cylinder(code, spec, depth))
        claims.append(check_shifted_block_mismatch(code, spec))
    expected = set(x_language(depth - code.window + 1))
    missing = sorted(expected - image)
    claims.append(ClaimResult(
        "surjectivity_onto_target", "pass" if not missing else "fail",
        f"image covers all {len(expected)} target words of length "
        f"{depth - code.window + 1}",
        _fmt(missing[0]) if missing else None))
    claims.append(factors._check_named_witnesses(_Automaton(spec), code, spec, depth))
    return FactorReport(code.kind, code.window, depth, claims)


def _outcome(check, *args):
    try:
        return check(*args).to_json()
    except NegBetaError as exc:
        return type(exc).__name__, str(exc)


B13_BY_PREFIX = {n: ShiftSpec.from_beta(BetaValue.from_rational(F(13, 10)), prefix_len=n)
                 for n in (64, 40, 12, 8, 6, 4, 3)}
DETECT_111 = SlidingBlockCode(3, "bound_blocks", frozenset({word("111")}))
DETECT_313_133 = SlidingBlockCode(3, "bound_blocks",
                                  frozenset({word("313"), word("133")}))
EQUIVALENCE_CASES = (
    [(build_case2_code(B2), B2, d) for d in range(4, 13)]
    + [(build_case1_code(B13_BY_PREFIX[n]), B13_BY_PREFIX[n], d)
       for n in (64, 40, 12) for d in range(4, 15)]
    + [(code, B2, d) for code in (DETECT_111, DETECT_313_133) for d in range(4, 14)]
    + [(SlidingBlockCode(m, "ones_window"), B13, d)
       for m in (1, 2) for d in range(m + 1, 13)])


def test_sweep_matches_per_word_reference():
    for code, spec, depth in EQUIVALENCE_CASES:
        assert _outcome(verify_factor, code, spec, depth) == \
            _outcome(_reference_verify, code, spec, depth), (code, spec.upper, depth)


def test_sweep_counterexamples():
    def claim(code, spec, depth, name):
        return next(c for c in verify_factor(code, spec, depth).claims if c.claim == name)

    got = claim(DETECT_111, B2, 13, "image_containment")
    assert (got.status, got.counterexample) == ("fail", "1111111111112")
    got = claim(DETECT_313_133, B2, 13, "surjectivity_onto_target")
    assert (got.status, got.counterexample) == ("fail", "11111111112")
    for m in (1, 2):
        got = claim(SlidingBlockCode(m, "ones_window"), B13, 8, "ones_tail_forbidden")
        assert (got.status, got.counterexample) == ("fail", "2")
    spec = B13_BY_PREFIX[12]
    with pytest.raises(SpecPrefixTooShort, match="^upper bound needed at index 13$"):
        verify_factor(build_case1_code(spec), spec, 13)


def test_ones_tail_matches_reference_on_short_prefixes():
    # past a short prefix, w 1^n reads through whole-prefix ties, which the
    # reader drops to their borders: the per-state memo relies on that.  On
    # the prefix 211, 2 111 ties it whole and is undetermined, not refused.
    # A depth whose words the prefix cannot decide raises on both sides.
    assert is_admissible(B13_BY_PREFIX[3], word("2111")) == "undetermined"
    for n in (12, 8, 6, 4, 3):
        spec = B13_BY_PREFIX[n]
        for code in (SlidingBlockCode(3, "ones_window"),
                     SlidingBlockCode(2, "ones_window")):
            for depth in range(code.window + 1, 17):
                assert _outcome(verify_factor, code, spec, depth) == \
                    _outcome(_reference_verify, code, spec, depth), (n, code, depth)


def test_depth_must_exceed_window():
    for code, spec in ((build_case2_code(B2), B2), (build_case1_code(B13), B13)):
        with pytest.raises(TooShort, match="^depth must exceed the window length$"):
            verify_factor(code, spec, code.window)
        depth = code.window + 1
        assert verify_factor(code, spec, depth).to_json() == \
            _reference_verify(code, spec, depth).to_json()


def test_passing_sweep_lists_no_word(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a word of the depth was listed")

    for module in (language, factors):
        for name in ("_lex_words", "_lex_first", "iter_words", "enumerate_words"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    report = verify_factor(build_case2_code(B2), B2, 16)
    assert report.passed
    assert report.claims[0].detail == "98304 admissible words of length 16"


def test_named_witnesses_pass_at_small_depths():
    # the staircase witnesses 1^k 2^(L-k) need k <= L - 1, L = depth - window + 1
    for code, spec in ((build_case2_code(B2), B2), (build_case1_code(B13), B13)):
        for depth in range(4, 8):
            report = verify_factor(code, spec, depth)
            assert report.passed, (code.kind, depth)
            kmax = min(depth // 2, depth - code.window)
            assert report.claims[-1].detail == \
                f"explicit preimages found for every 1^k tail, k <= {kmax}"


def _old_preimage_of_staircase(aut, code, spec, k, depth):
    """The witness search as it re-read the bound digit by digit, kept to
    compare with the slices of the bound prefix."""
    m = code.window
    if code.kind == "ones_window":
        head = (1,) * (k + m - 1)
        tail_len = depth - len(head)
        if tail_len < 1:
            return None
        tail = tuple(spec.upper_digit(i) for i in range(1, tail_len + 1))
        if None in tail:
            return None
        cand = head + tail
    else:
        up = spec.upper
        tail_len = depth - k
        if tail_len < 1:
            return None
        target = (1,) * k + (2,) * (depth - m + 1 - k)
        for mid in range(2, spec.alphabet + 1):
            cand = ((1,) * (k - 1) + (mid,)
                    + tuple(up.digit(i) for i in range(1, tail_len + 1)))
            if aut.read(aut.start, cand)[0] == language.YES and code.apply(cand) == target:
                return cand
        return None
    return cand if aut.read(aut.start, cand)[0] == language.YES else None


def test_witness_slices_match_the_digit_reads():
    # the caller accepted an old witness only if its image was the target
    found = failed = 0
    for code, spec, depth in EQUIVALENCE_CASES:
        bprefix = tuple(spec.upper_digit(i) for i in range(1, depth + 1))
        if None in bprefix:
            continue  # the witness claim is inconclusive before any search
        aut = spec._automaton
        for k in range(1, min(depth // 2, depth - code.window) + 1):
            target = (1,) * k + (2,) * (depth - code.window + 1 - k)
            old = _old_preimage_of_staircase(aut, code, spec, k, depth)
            if old is not None and code.apply(old) != target:
                old = None
            got = factors._preimage_of_staircase(aut, code, bprefix, k, target)
            assert got == old, (code, spec.upper, depth, k)
            found += got is not None
            failed += got is None
    assert found and failed


def test_bound_blocks_witness_can_need_the_top_middle_digit():
    # On (312)^inf with 31 and 23 detected, the candidate for 1 2 with the
    # middle digit 2, 231, maps to 2 2; only the alphabet's top digit gives
    # an admissible preimage, 331.
    code = SlidingBlockCode(2, "bound_blocks", frozenset({word("31"), word("23")}))
    spec = ShiftSpec.make(EvPeriodicSeq.make((), word("312")))
    assert code.apply(word("231")) == word("22")
    got = factors._preimage_of_staircase(spec._automaton, code, word("312"), 1,
                                         word("12"))
    assert got == word("331")
    assert is_admissible(spec, got) == "yes"
