import itertools
import math
from fractions import Fraction as F

import pytest

from negbeta.errors import EmptyPer
from negbeta.language import ShiftSpec, per_count, per_points
from negbeta.measures import (EmpiricalMeasure, gibbs_check, htop_estimate,
                              measure_entropy_estimate, mu_n, mu_orders,
                              weakstar_diagnostic)
from negbeta.numeric import BetaValue
from negbeta.order import EvPeriodicSeq, word

GOLDEN = ShiftSpec.golden()
B2 = ShiftSpec.from_beta(BetaValue.from_rational(2))
STAIRS = ShiftSpec.make(EvPeriodicSeq.constant(2))   # language is 1-runs then 2-runs


def test_mu_basic():
    m = mu_n(GOLDEN, 1, 1)
    assert m.per_count == 2
    assert m.mass(word("1")) == F(1, 2) and m.mass(word("2")) == F(1, 2)
    assert m.mass(()) == 1
    with pytest.raises(ValueError):
        mu_n(GOLDEN, 3, 5)


def test_mu_sanity_exact():
    for spec, n, m in ((GOLDEN, 10, 4), (GOLDEN, 13, 5), (B2, 8, 3)):
        mu = mu_n(spec, n, m)
        assert mu.check_normalization()
        assert mu.check_consistency()


def test_consistency_refuses_a_normalized_inconsistent_measure():
    # both levels sum to 1, but the extensions of 1 carry 3/4, not 1/2
    masses = {word("1"): F(1, 2), word("2"): F(1, 2),
              word("11"): F(3, 4), word("21"): F(1, 4)}
    mu = EmpiricalMeasure(2, 2, 4, masses)
    assert mu.check_normalization()
    assert not mu.check_consistency()
    # the same levels with the extensions split as the prefixes are pass
    masses[word("11")] = masses[word("21")] = F(1, 2)
    assert mu.check_consistency()


def _rotation_averaged_masses(spec, n, m):
    # cylinder masses averaged over every rotation of every block; the block
    # set is closed under rotation, so this must equal mu_n exactly
    blocks = per_points(spec, n)
    hits = {}
    for p in blocks:
        doubled = p + p
        for j in range(n):
            for ell in range(1, m + 1):
                w = doubled[j: j + ell]
                hits[w] = hits.get(w, 0) + 1
    return {w: F(c, len(blocks) * n) for w, c in hits.items()}


def test_rotation_average_agrees():
    for spec, n, m in ((GOLDEN, 9, 3), (GOLDEN, 12, 4), (B2, 7, 3)):
        assert _rotation_averaged_masses(spec, n, m) == mu_n(spec, n, m).masses


def test_htop_estimates():
    est = htop_estimate(GOLDEN, 18)
    assert abs(est.value - math.log((1 + 5 ** 0.5) / 2)) < 0.1
    assert est.word_counts[-1] == 10945
    # the staircase target shift has vanishing growth
    stairs = htop_estimate(STAIRS, 20)
    assert stairs.word_counts == [n + 1 for n in range(1, 21)]
    assert stairs.value < 0.16
    # the two-sided integer-base shift has clearly positive growth
    est2 = htop_estimate(B2, 12)
    assert est2.value > 0.5


def test_gibbs_uniform_measure():
    masses = {}
    for n in range(1, 4):
        for i in range(2 ** n):
            w = tuple(1 + (i >> (n - 1 - j) & 1) for j in range(n))
            masses[w] = F(1, 2 ** n)
    uniform = EmpiricalMeasure(3, 3, 8, masses)
    rep = gibbs_check(uniform, [word("1"), word("22")], math.log(2))
    assert abs(rep.max_ratio - 1.0) < 1e-12
    assert abs(rep.min_good_ratio - 1.0) < 1e-12
    assert abs(rep.implied_K - 1.0) < 1e-12


def test_gibbs_golden():
    est = htop_estimate(GOLDEN, 18)
    m16 = mu_n(GOLDEN, 16, 5)
    gwords = [w for length in range(1, 6)
              for w in __import__("negbeta.language", fromlist=["iter_words"])
              .iter_words(GOLDEN, length)]
    rep = gibbs_check(m16, gwords, est.value)
    assert rep.max_ratio <= 10
    assert rep.implied_K >= 1
    assert not rep.zero_mass_good or all(len(w) >= 4 for w in rep.zero_mass_good)


def test_gibbs_zero_mass_flagged():
    m4 = mu_n(GOLDEN, 4, 4)
    rep = gibbs_check(m4, [word("1112")], math.log(2))
    assert rep.zero_mass_good == [word("1112")]
    assert rep.min_good_ratio is None
    assert rep.implied_K == math.inf
    # JSON has no infinity: the report writes null, as for min_good_ratio
    doc = rep.to_json()
    assert doc["implied_K"] is None and doc["min_good_ratio"] is None


def test_measure_entropy():
    masses = {w: F(1, 4) for w in [(1, 1), (1, 2), (2, 1), (2, 2)]}
    uniform = EmpiricalMeasure(2, 2, 4, masses)
    assert abs(measure_entropy_estimate(uniform, 2) - math.log(2)) < 1e-12
    point = EmpiricalMeasure(3, 3, 1, {(1,): F(1), (1, 1): F(1), (1, 1, 1): F(1)})
    assert measure_entropy_estimate(point, 3) == 0.0
    m16 = mu_n(GOLDEN, 16, 5)
    assert 0.55 < measure_entropy_estimate(m16, 5) < 0.62


def test_mu16_approximates_golden_parry_measure():
    """mu_16 is close to the golden shift's measure of maximal entropy, and
    that exact measure already has (1/5) H_5 above htop_18 + 0.05, so a
    length-5 block entropy cannot be bounded by the length-18 estimate."""
    phi = (1 + math.sqrt(5)) / 2
    # even shift with separator 2: state 0 = even 1-run (may read 2),
    # state 1 = odd 1-run (must read 1); Perron vector (phi, 1) for both
    # sides of the symmetric adjacency matrix
    step = {(0, 2): 0, (0, 1): 1, (1, 1): 0}
    perron = (phi, 1.0)

    def parry_mass(w):
        total = 0.0
        for start in (0, 1):
            state = start
            for a in w:
                state = step.get((state, a))
                if state is None:
                    break
            else:
                total += perron[start] * perron[state]
        return total / ((phi ** 2 + 1) * phi ** len(w))

    cylinders = list(itertools.product((1, 2), repeat=5))
    parry = [parry_mass(w) for w in cylinders]
    assert abs(sum(parry) - 1) < 1e-12
    m16 = mu_n(GOLDEN, 16, 5)
    assert all(abs(float(m16.mass(w)) - p) <= 1e-3
               for w, p in zip(cylinders, parry))
    parry_h5 = -sum(p * math.log(p) for p in parry if p > 0) / 5
    assert parry_h5 > htop_estimate(GOLDEN, 18).value + 0.05

def test_weakstar_table():
    table = weakstar_diagnostic(GOLDEN, [8, 10, 12, 14], 3)
    assert table.ns == [8, 10, 12, 14]
    assert not table.skipped
    assert len(table.deviations) == 3
    assert all(0 <= d <= 1 for d in table.deviations)
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "word,mu_8,mu_10,mu_12,mu_14"


def test_weakstar_reads_a_known_measure():
    fig = ShiftSpec.make(EvPeriodicSeq.make((), word("3232133")))
    for spec, ns in ((GOLDEN, [8, 10, 12]), (fig, [6, 8])):
        want = weakstar_diagnostic(spec, ns, 3)
        for m in (3, 4, 5):
            # an order outside ns, or too few cylinder lengths, is not read
            known = [mu_n(spec, ns[-1], m), mu_n(spec, ns[0], m),
                     mu_n(spec, ns[-1], 2), mu_n(spec, 5, m)]
            for k in known:
                assert weakstar_diagnostic(spec, ns, 3, [k]) == want
            assert weakstar_diagnostic(spec, ns, 3, known) == want


def test_htop_estimate_walks_its_period_blocks_once(monkeypatch):
    import negbeta.language as lang

    walked, necklaces = [], lang._necklaces

    def spy(aut, ns):
        walked.append(sorted(ns))
        return necklaces(aut, ns)

    monkeypatch.setattr(lang, "_necklaces", spy)
    est = htop_estimate(GOLDEN, 10)
    assert walked == [list(range(1, 11))]
    assert est.per_counts == [per_count(GOLDEN, n) for n in range(1, 11)]


def test_weakstar_skips_empty(monkeypatch):
    import negbeta.measures as M

    real, walked = M._per_blocks, []

    def fake(aut, ns):
        walked.append(sorted(ns))
        return ((n, w, k) for n, w, k in real(aut, ns) if n != 5)

    monkeypatch.setattr(M, "_per_blocks", fake)
    table = weakstar_diagnostic(GOLDEN, [4, 5, 6], 3)
    assert table.skipped == [5]
    assert table.ns == [4, 6]
    assert walked == [[4, 5, 6]]
    plain = weakstar_diagnostic(GOLDEN, [4, 6], 3)
    assert (table.masses, table.deviations) == (plain.masses, plain.deviations)
    # an empty order that a known measure holds is not walked again
    empty = EmpiricalMeasure(5, 3, 0, {})
    assert weakstar_diagnostic(GOLDEN, [4, 5, 6], 3, [empty]) == table
    assert walked[-1] == [4, 6]


def test_mu_empty_per(monkeypatch):
    import negbeta.measures as M
    monkeypatch.setattr(M, "_per_blocks", lambda aut, ns: iter(()))
    with pytest.raises(EmptyPer, match="^no period-4 blocks$"):
        mu_n(GOLDEN, 4, 2)
    assert mu_orders(GOLDEN, [4, 6], 2) == {
        4: EmpiricalMeasure(4, 2, 0, {}), 6: EmpiricalMeasure(6, 2, 0, {})}


def test_measure_json_round():
    m = mu_n(GOLDEN, 6, 3)
    js = m.to_json()
    assert js["per_count"] == m.per_count
    assert js["masses"]["11"] == f"{m.mass(word('11')).numerator}/{m.mass(word('11')).denominator}"
