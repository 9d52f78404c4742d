"""Language decomposition into low-return and high-excursion words,
tail-entropy profiles, path-count bounds, and periodic gluing.

For a cutoff L, a word belongs to the good set G when its walk from V_0
ends at a vertex below L; the complement piece C collects b_L followed by
the labels of a path from V_L that never revisits vertices below L.  Every
admissible word splits as (good)(excursion).  Gluing concatenates good
words with equal-length connectors so that the result repeats into an
admissible periodic point; connectors come from shortest paths back to
V_0 padded with ones, or from a verified bounded search when V_0 is
unreachable (eventually periodic bound sequences).
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .errors import GlueFailed, NoSelfLoop, NotInGM, TruncationInsufficient
from .graph import (GraphSlice, _dist_to_v0, _least_return, _rows, gap_scan,
                    path_count, path_counts, path_words, walk)
from .language import NO, ShiftSpec, _csv_text, periodic_block_ok
from .order import Word, _primitive_root, _Record, word


def c_words(graph: GraphSlice, L: int, n: int) -> list[Word]:
    """The excursion words of length n for cutoff L: b_L followed by the
    labels of a path from V_L of length n-1 avoiding V_0 .. V_{L-1}."""
    _check_c_args(graph, L, n)
    first = graph.spine_label(L - 1)  # b_L
    return [(first, *w) for w in path_words(graph, n - 1, L, L)]


def c_count(graph: GraphSlice, L: int, n: int) -> int:
    """Number of excursion words of length n for cutoff L: the paths that
    `c_words` lists, counted by `graph.path_count`'s jump to length n - 1."""
    _check_c_args(graph, L, n)
    return path_count(graph, n - 1, L, L)


def _check_L(graph: GraphSlice, L: int) -> None:
    if not 1 <= L <= graph.K:
        raise ValueError(f"L must be within 1..{graph.K}")


def _check_c_args(graph: GraphSlice, L: int, n: int) -> None:
    _check_L(graph, L)
    if n < 1:
        raise ValueError("n >= 1 required")
    if L + n - 1 > graph.K:
        raise TruncationInsufficient(
            f"excursions of length {n} from V_{L} can leave the K={graph.K} slice")


class CProfile(_Record):
    """Per-(L, n) excursion counts and growth estimates, with the selected
    cutoff whose tail estimates stay under the target."""

    __slots__ = ("epsilon", "nmax",
                 "rows",       # L, n, count, estimate
                 "selected_L")

    def to_csv(self) -> str:
        return _csv_text(["L", "n", "count", "estimate"],
                         ([r["L"], r["n"], r["count"], f"{r['estimate']:.6f}"]
                          for r in self.rows))


def c_entropy_profile(graph: GraphSlice, Lmax: int, nmax: int,
                      epsilon: float) -> CProfile:
    """Tabulate (1/n) log #C_n for L = 1..Lmax and pick the least L whose
    estimates for n in the upper half of the range all stay <= epsilon."""
    if Lmax < 1:
        raise ValueError(f"Lmax must be >= 1, got {Lmax}")
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    rows = []
    selected = None
    tail_start = (nmax + 1) // 2
    for L in range(1, Lmax + 1):
        tail_ok = True
        # raise at the first failing n, as c_count would
        _check_c_args(graph, L, min(nmax, graph.K - L + 2))
        counts = path_counts(graph, nmax - 1, L, L)
        for n, cnt in enumerate(counts, 1):
            est = math.log(cnt) / n if cnt >= 1 else 0.0
            rows.append({"L": L, "n": n, "count": cnt, "estimate": est})
            if n >= tail_start and est > epsilon:
                tail_ok = False
        if tail_ok and selected is None:
            selected = L
    return CProfile(epsilon, nmax, rows, selected)


class BoundReport(_Record):
    """Computed counting bounds a_1^(qN+1) <= b^(2q-3) N^(2q-3)."""

    __slots__ = ("L", "N", "alphabet", "window", "far_edge_certified",
                 "monotone_ok",
                 "rows",       # q, n, a1, bound, ok, margin
                 "epsilon_for_N")

    @property
    def all_ok(self) -> bool:
        return all(r["ok"] for r in self.rows)


def bound_check(graph: GraphSlice, L: int, N: int, qmax: int) -> BoundReport:
    """Verify the excursion-count bounds on computed exact counts.

    Checks a_1^(2N+1) <= bN, and a_1^(qN+1) <= b^(2q-3) N^(2q-3) for
    q <= qmax, as far as the slice window allows.  Violations are reported,
    not raised: on a correctly built graph they would indicate a bug.

    monotone_ok (a_v^(n) <= a_v^(n+1) for every start v >= L - 1 whose
    length-(n+1) paths fit the slice) is read from the spine, not counted:
    a counted path of length n >= 1 ends at some u in L..K-1, since edges
    climb at most one vertex, and the spine edge u -> u+1 extends it, so
    the counts grow as long as every such u keeps that edge.
    """
    _check_L(graph, L)
    b = graph.alphabet
    window = graph.K - (L - 1)
    # a_1^(n): length-n paths from V_{L-1} that stay at or above V_L
    a1s = path_counts(graph, window, L - 1, L)
    scan = gap_scan(graph, N)
    far_ok = scan is not None and scan <= L
    monotone_ok = all(row.get(graph.spine[u]) == j + 1
                      for u, row, j in _rows(graph, L, graph.K))
    rows = []
    for q in range(2, qmax + 1):
        n = q * N + 1
        if n > window:
            break
        a1 = a1s[n]
        bound = b ** (2 * q - 3) * N ** (2 * q - 3)
        rows.append({"q": q, "n": n, "a1": a1, "bound": bound,
                     "ok": a1 <= bound, "margin": bound - a1})
    eps = (2 / N) * (math.log(b) + math.log(N))
    return BoundReport(L, N, b, window, far_ok, monotone_ok, rows, eps)


def split(graph: GraphSlice, L: int, w) -> tuple[Word, Word]:
    """Split an admissible word as (good)(excursion): cut after the last
    walk position at a vertex below L."""
    w = word(w)
    _check_L(graph, L)
    vseq = walk(graph, w)
    if vseq is None:
        raise ValueError(f"{w} is not admissible")
    last_low = max(j for j, v in enumerate(vseq) if v <= L - 1)
    return w[:last_low], w[last_low:]


def t_gap(graph: GraphSlice, M: int, L: int) -> int:
    """Largest shortest-path length back to V_0 over vertices 0..M+L-1."""
    return _gap_table(graph, M, L)[0]


def _check_gap_args(M: int, L: int) -> None:
    if M < 0 or L < 1:
        raise ValueError("M >= 0 and L >= 1 required")


def _gap_table(graph: GraphSlice, M: int, L: int) -> tuple[int, list[Optional[int]]]:
    """t_gap and the `_dist_to_v0` table it was read from, exact at
    V_0 .. V_{M+L-1}."""
    _check_gap_args(M, L)
    if M + L - 1 > graph.K:
        raise TruncationInsufficient("M + L - 1 exceeds the slice")
    dist = _dist_to_v0(graph, M + L)
    if None in dist[: M + L]:
        raise TruncationInsufficient(
            f"no path from V_{dist.index(None)} to V_0 inside the K={graph.K} slice")
    return max(dist[: M + L]), dist


class GlueResult(_Record):
    __slots__ = ("words", "connectors", "gap",
                 "x",             # w^1 v^1 ... v^(m-1) w^m
                 "block",         # x followed by the final connector
                 "least_period",
                 "route",         # "paths" (shortest paths + one-padding) | "search"
                 "verified")      # "exact" | f"horizon:{H}"

    def to_json(self) -> dict:
        return {
            "words": ["".join(map(str, w)) for w in self.words],
            "connectors": ["".join(map(str, v)) for v in self.connectors],
            "gap": self.gap,
            "x": "".join(map(str, self.x)),
            "block": "".join(map(str, self.block)),
            "least_period": self.least_period,
            "route": self.route,
            "verified": self.verified,
        }


def _assemble(words: list[Word], connectors: list[Word]) -> tuple[Word, Word]:
    x: tuple[int, ...] = ()
    for i, w in enumerate(words):
        x += w
        if i < len(words) - 1:
            x += connectors[i]
    block = x + connectors[-1]
    return x, block


def glue(graph: GraphSlice, spec: ShiftSpec, L: int, M: int, words_in,
         t: Optional[int] = None, search_limit: int = 200000) -> GlueResult:
    """Glue good words into an admissible periodic block.

    Each input word must walk from V_0 to a vertex below M + L.  The
    connectors all have one common length (the gap): first choice is the
    shortest-path-to-V_0 label word padded with ones to the uniform gap
    value; when V_0 is unreachable inside the slice the gap and connectors
    are searched (smallest gap first up to 12, or the given gap t;
    lexicographic connectors), and every candidate block is verified
    exactly before being returned.
    """
    _check_gap_args(M, L)
    if t is not None and t < 0:
        raise ValueError(f"gap t must be >= 0, got {t}")
    words = [word(w) for w in words_in]
    if not words:
        raise ValueError("nothing to glue")
    if not all(words):
        raise ValueError("cannot glue an empty word")
    ends = []
    for w in words:
        vseq = walk(graph, w)
        if vseq is None:
            raise NotInGM(f"{w} is not admissible")
        if vseq[-1] > M + L - 1:
            raise NotInGM(f"{w} ends at V_{vseq[-1]} > {M + L - 1}")
        ends.append(vseq[-1])
    if graph[0].get(1) != 0:
        raise NoSelfLoop("gluing pads with ones; needs the 1-loop at V_0")

    verified = "exact" if not spec.prefix_mode else f"horizon:{len(spec.upper)}"
    if t is None:
        try:
            # one table serves every connector: each end is below M + L
            gap, dist = _gap_table(graph, M, L)
            connectors = []
            for end in ends:
                d, labels = _least_return(graph, dist, end)
                connectors.append(labels + (1,) * (gap - d))
            x, block = _assemble(words, connectors)
            if periodic_block_ok(spec, block):
                return GlueResult(words, connectors, gap, x, block,
                                  len(_primitive_root(block)), "paths", verified)
        except TruncationInsufficient:
            pass

    gaps = [t] if t is not None else list(range(13))
    budget = [search_limit]
    for gap in gaps:
        got = _search_connectors(spec, words, gap, budget)
        if got is not None:
            connectors = got
            x, block = _assemble(words, connectors)
            return GlueResult(words, connectors, gap, x, block,
                              len(_primitive_root(block)), "search", verified)
    raise GlueFailed(f"no admissible glue found with gap <= {gaps[-1]}")


def _search_connectors(spec: ShiftSpec, words: list[Word], gap: int,
                       budget: list[int]) -> Optional[list[Word]]:
    """The first connectors, slot by slot in lexicographic order, whose
    glued block verifies; each verification spends one unit of budget.
    Slot i offers the length-gap followers v of words[i] in order, kept
    when words[i] v words[i+1] reads without a broken bound."""
    aut = spec._automaton
    pruned = []
    for i, w in enumerate(words):
        verdict, state = aut.read(aut.start, w)
        ends = {} if verdict == NO else {state: [()]}  # state -> followers
        for _ in range(gap):
            grown: dict = {}
            for s, vs in ends.items():
                for a, t in aut.followers(s):
                    grown.setdefault(t, []).extend(v + (a,) for v in vs)
            ends = grown
        nxt = words[(i + 1) % len(words)]
        slot = sorted(v for s, vs in ends.items() if aut.read(s, nxt)[0] != NO
                      for v in vs)
        if not slot:
            return None
        pruned.append(slot)
    for chosen in itertools.product(*pruned):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if periodic_block_ok(spec, _assemble(words, chosen)[1]):
            return list(chosen)
    return None
