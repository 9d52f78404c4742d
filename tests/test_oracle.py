from negbeta import oracle
from negbeta.language import ShiftSpec, is_admissible
from negbeta.numeric import BetaValue
from negbeta.order import word


GOLDEN = ShiftSpec.golden()


def test_naive_admissible_spot_values():
    assert oracle.naive_admissible(GOLDEN, word("21")) == "yes"
    assert oracle.naive_admissible(GOLDEN, word("1") * 10) == "yes"
    assert oracle.naive_admissible(GOLDEN, word("212")) == "no"
    # agreement with the optimized route is the real content
    assert oracle.naive_admissible(GOLDEN, word("22")) == is_admissible(GOLDEN, word("22"))


def test_naive_k_spot_values():
    b = word("3232133")
    assert oracle.naive_k(b, word("3232")) == 4
    assert oracle.naive_k(b, word("321")) == 0
    assert oracle.naive_k(b, ()) == 0


def test_naive_per_small():
    assert oracle.naive_per(GOLDEN, 1) == [(1,), (2,)]
    b2 = ShiftSpec.from_beta(BetaValue.from_rational(2))
    assert oracle.naive_per(b2, 1) == [(1,), (2,), (3,)]
