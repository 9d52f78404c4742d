import math
import re
from fractions import Fraction as F

import pytest

from negbeta.errors import (NotOddPeriodic, OddOneRun, PatternMismatch,
                            TooShort)
from negbeta.factors import (SlidingBlockCode, build_case1_code,
                             build_case2_code, check_ones_tail_forbidden,
                             check_shifted_block_mismatch,
                             check_singleton_cylinder, in_x_language,
                             verify_factor, x_language)
from negbeta.language import ShiftSpec, is_admissible, iter_words
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


def test_build_case1():
    code = build_case1_code(B13)
    assert code.window == 3 and code.kind == "ones_window"
    with pytest.raises(PatternMismatch):
        build_case1_code(GOLDEN)          # at the golden base, not below
    # hand-made bound reading 2 1 2 2: the one-run has odd length
    with pytest.raises(OddOneRun):
        build_case1_code(ShiftSpec.make(word("2122"), alphabet=2))


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
    claim = check_ones_tail_forbidden(code, B13, 10)
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
