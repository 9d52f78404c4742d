"""Periodic-orbit measures, entropy estimators and Gibbs-type diagnostics.

The measure of order n puts equal weight on every point fixed by the n-th
shift power; cylinder masses are exact rationals (counts over the set of
period blocks), and logarithms only appear in reports.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from .errors import EmptyPer
from .language import (CountTable, ShiftSpec, _per_blocks, _per_counts,
                       count_words)
from .order import Word, _Record, word


class EmpiricalMeasure(_Record):
    """Uniform measure on period-n blocks with cylinder masses up to length m.

    mass([w]) is the fraction of blocks whose periodic repetition starts
    with w; only nonzero masses are stored.
    """

    __slots__ = ("n", "m", "per_count", "masses")

    def __init__(self, n: int, m: int, per_count: int,
                 masses: dict[Word, Fraction]):
        self.n = n
        self.m = m
        self.per_count = per_count
        self.masses = masses

    def mass(self, w) -> Fraction:
        w = word(w)
        if len(w) == 0:
            return Fraction(1)
        if len(w) > self.m:
            raise ValueError(f"cylinder longer than table depth {self.m}")
        return self.masses.get(w, Fraction(0))

    def level(self, length: int) -> dict[Word, Fraction]:
        return {w: q for w, q in self.masses.items() if len(w) == length}

    def check_normalization(self) -> bool:
        return all(sum(self.level(ell).values()) == 1
                   for ell in range(1, self.m + 1))

    def check_consistency(self) -> bool:
        """mass([w]) must equal the sum of the masses of its one-digit
        extensions, exactly; one pass sums the masses into their prefixes."""
        ext: Counter = Counter()
        for w, q in self.masses.items():
            if 2 <= len(w) <= self.m:
                ext[w[:-1]] += q
        return all(ext[w] == q for w, q in self.masses.items()
                   if 0 < len(w) < self.m)

    def to_json(self) -> dict:
        return {
            "n": self.n, "m": self.m, "per_count": self.per_count,
            "masses": {"".join(map(str, w)): f"{q.numerator}/{q.denominator}"
                       for w, q in sorted(self.masses.items())},
        }


def mu_orders(spec: ShiftSpec, ns: Sequence[int], m: int) -> dict[int, EmpiricalMeasure]:
    """mu_n of every order n in ns from one `_per_blocks` walk, each rotation
    class crediting its k rotations; an order without blocks has per_count 0."""
    if not ns or not 1 <= m <= min(ns):
        raise ValueError("need 1 <= m <= n")
    hits = {n: Counter() for n in ns}
    for n, w, k in _per_blocks(spec._automaton, list(hits)):
        ww = w + w
        hits[n].update(ww[i:i + ell] for i in range(k) for ell in range(1, m + 1))
    got = {}
    for n, h in hits.items():  # each rotation adds one length-1 cylinder
        N = sum(c for u, c in h.items() if len(u) == 1)
        got[n] = EmpiricalMeasure(n, m, N, {u: Fraction(c, N)
                                            for u, c in sorted(h.items())})
    return got


def mu_n(spec: ShiftSpec, n: int, m: int) -> EmpiricalMeasure:
    """The order-n measure of `mu_orders`; EmptyPer without period-n blocks."""
    got = mu_orders(spec, [n], m)[n]
    if not got.per_count:
        raise EmptyPer(f"no period-{n} blocks")
    return got


class EntropyEstimate(_Record):
    __slots__ = ("value",            # (1/nmax) log #L_nmax
                 "nmax", "word_counts", "per_counts", "word_estimates",
                 "per_estimates",
                 "last_delta")       # change in the word estimate at nmax

    def __init__(self, value: float, nmax: int, word_counts: list[int],
                 per_counts: list[int], word_estimates: list[float],
                 per_estimates: list[Optional[float]], last_delta: float):
        self.value = value
        self.nmax = nmax
        self.word_counts = word_counts
        self.per_counts = per_counts
        self.word_estimates = word_estimates
        self.per_estimates = per_estimates
        self.last_delta = last_delta

    def to_json(self) -> dict:
        return {
            "value": self.value, "nmax": self.nmax,
            "word_counts": self.word_counts, "per_counts": self.per_counts,
            "word_estimates": self.word_estimates,
            "per_estimates": self.per_estimates,
            "last_delta": self.last_delta,
        }


def htop_estimate(spec: ShiftSpec, nmax: int) -> EntropyEstimate:
    """Finite-size topological entropy estimate from exact word counts,
    with the periodic-block growth sequence up to min(nmax, 12) as a
    secondary diagnostic."""
    if nmax < 2:
        raise ValueError("nmax >= 2 required")
    return htop_from_table(spec, count_words(spec, nmax))


def htop_from_table(spec: ShiftSpec, table: CountTable) -> EntropyEstimate:
    """htop_estimate from a count table up to nmax (as count_words builds
    it); period-block counts already in the table are reused, not counted
    again, so a caller holding a table with_per counts each length once."""
    nmax = len(table.rows)
    if nmax < 2:
        raise ValueError("nmax >= 2 required")
    counts = [r["count_words"] for r in table.rows]
    west = [math.log(c) / n if c > 0 else 0.0
            for n, c in enumerate(counts, start=1)]
    known = {r["n"]: r["count_per"] for r in table.rows if "count_per" in r}
    ns = range(1, min(nmax, 12) + 1)
    known.update(_per_counts(spec._automaton, [n for n in ns if n not in known]))
    pcounts = [known[n] for n in ns]
    pest = [math.log(c) / n if c > 0 else None
            for n, c in enumerate(pcounts, start=1)]
    return EntropyEstimate(west[-1], nmax, counts, pcounts, west, pest,
                           west[-1] - west[-2])


class GibbsReport(_Record):
    """Cylinder-mass ratios against e^{-n h}: the upper ratio scans every
    word, the lower only the designated good words."""

    __slots__ = ("h", "max_ratio", "max_word", "min_good_ratio",
                 "min_good_word", "zero_mass_good", "implied_K", "rows")

    def __init__(self, h: float, max_ratio: float, max_word: Word,
                 min_good_ratio: Optional[float], min_good_word: Optional[Word],
                 zero_mass_good: list[Word], implied_K: float, rows: list[dict]):
        self.h = h
        self.max_ratio = max_ratio
        self.max_word = max_word
        self.min_good_ratio = min_good_ratio
        self.min_good_word = min_good_word
        self.zero_mass_good = zero_mass_good
        self.implied_K = implied_K
        self.rows = rows

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "max_ratio": self.max_ratio,
            "max_word": "".join(map(str, self.max_word)),
            "min_good_ratio": self.min_good_ratio,
            "min_good_word": ("".join(map(str, self.min_good_word))
                              if self.min_good_word else None),
            "zero_mass_good": ["".join(map(str, w)) for w in self.zero_mass_good],
            # no finite constant is JSON null, as min_good_ratio is
            "implied_K": (self.implied_K if math.isfinite(self.implied_K)
                          else None),
            "rows": self.rows,
        }


def gibbs_check(measure: EmpiricalMeasure, gwords: Sequence, h: float) -> GibbsReport:
    """Compute mass * e^{|w| h} over all cylinders (upper side) and over the
    good words (lower side); the implied constant is the worse of the two.

    A good word of zero mass is flagged rather than crashing: it makes the
    lower bound fail at that length.
    """
    max_ratio, max_word = 0.0, ()
    rows = []
    for ell in range(1, measure.m + 1):
        level = measure.level(ell)
        scale = math.exp(ell * h)
        worst = max(level.items(), key=lambda kv: kv[1])
        ratio = float(worst[1]) * scale
        rows.append({"length": ell, "max_ratio": ratio,
                     "max_word": "".join(map(str, worst[0]))})
        if ratio > max_ratio:
            max_ratio, max_word = ratio, worst[0]
    min_good: Optional[float] = None
    min_good_word = None
    zero_mass = []
    for g in gwords:
        g = word(g)
        q = measure.mass(g)
        if q == 0:
            zero_mass.append(g)
            continue
        ratio = float(q) * math.exp(len(g) * h)
        if min_good is None or ratio < min_good:
            min_good, min_good_word = ratio, g
    implied = max(max_ratio, (1.0 / min_good) if min_good else math.inf, 1.0)
    return GibbsReport(h, max_ratio, max_word, min_good, min_good_word,
                       zero_mass, implied, rows)


class WeakStarTable(_Record):
    __slots__ = ("m", "ns", "skipped", "masses",
                 "deviations")  # successive sup-distances over the table

    def __init__(self, m: int, ns: list[int], skipped: list[int],
                 masses: dict[Word, list[Optional[Fraction]]],
                 deviations: list[float]):
        self.m = m
        self.ns = ns
        self.skipped = skipped
        self.masses = masses
        self.deviations = deviations

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["word"] + [f"mu_{n}" for n in self.ns])
        for w in sorted(self.masses):
            row = ["".join(map(str, w))]
            for q in self.masses[w]:
                row.append("" if q is None else f"{q.numerator}/{q.denominator}")
            writer.writerow(row)
        return buf.getvalue()


def weakstar_diagnostic(spec: ShiftSpec, ns: Sequence[int], m: int,
                        known: Sequence[EmpiricalMeasure] = ()) -> WeakStarTable:
    """Track cylinder masses along a list of orders; the successive maximum
    deviations indicate (but do not prove) weak-star convergence.  A known
    mu_n(spec, n, m') with m' >= m gives the masses of order n; the other
    orders come from one `mu_orders` walk."""
    got = {k.n: k for k in known if k.m >= m}
    if missing := [n for n in ns if n not in got]:
        got.update(mu_orders(spec, missing, m))
    skipped = [n for n in ns if not got[n].per_count]
    tables = [got[n] for n in ns if got[n].per_count]
    words = sorted({w for t in tables for w in t.masses if len(w) <= m})
    masses = {w: [t.masses.get(w, Fraction(0)) for t in tables] for w in words}
    deviations = []
    for a, b in zip(tables, tables[1:]):
        dev = max(abs(a.masses.get(w, Fraction(0)) - b.masses.get(w, Fraction(0)))
                  for w in words)
        deviations.append(float(dev))
    return WeakStarTable(m, [t.n for t in tables], skipped, masses, deviations)


def measure_entropy_estimate(measure: EmpiricalMeasure, m: int) -> float:
    """(1/m) sum -mass log mass over length-m cylinders (0 log 0 = 0)."""
    if not 1 <= m <= measure.m:
        raise ValueError("m beyond the cylinder table")
    total = 0.0
    for q in measure.level(m).values():
        if q > 0:
            total -= float(q) * math.log(float(q))
    return total / m
