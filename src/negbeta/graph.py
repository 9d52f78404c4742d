"""Truncated labelled-graph presentation of a one-sided bounded shift.

Vertices V_0, V_1, ... index the length of the longest suffix of the word
read so far that is a prefix of the bound sequence b.  Each vertex V_i has
the spine edge V_i -> V_{i+1} labelled b_{i+1}; the remaining out-edges
carry digits on the admissible side of b_{i+1} (above it when i is odd,
below when i is even) and drop back to the suffix-match state of the
extended word.  Labelled paths from V_0 are exactly the admissible words.
The edges come from the upper-bound track of the suffix-match automaton in
`negbeta.language`, and `k_of` runs the same track as a plain matcher.

For an eventually periodic bound the rows repeat: `language._Fold` holds
the track's rows up to N + P - 1, certified to repeat with period P from N
on (spine edges move up, back edges stay), and a slice copies every higher
row from the row P below it, so building V_0..V_K runs the track a fixed
number of times whatever K is.  A finite bound prefix has no fold; each of
its rows comes from the track.

The slice stores vertices 0..K only.  Operations never extrapolate: walks
and counts that would leave the slice raise TruncationInsufficient, even
where the fold would say what lies beyond.  Path counts (`path_counts`,
which `path_count`, the excursion counts of `negbeta.decomposition` and its
`bound_check` share) run on the slice folded at its verified period, so
each length costs work in proportion to the fold, not the slice; on a slice
with a fold that period is found among a window of rows whose length does
not grow with n.  `path_words` walks the same edges, with the same floor,
to list the words those counts count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import (PrefixTooShort, TruncationInsufficient,
                     TwoSidedUnsupported)
from .language import (ShiftSpec, _Fold, _lex_words, _Track, follower_words,
                       is_admissible)
from .order import (BoundSeq, EvPeriodicSeq, Word, _failure_table,
                    bound_len, word)


def k_of(bprefix: BoundSeq, w) -> int:
    """Length of the longest suffix of w equal to a prefix of the bound
    sequence; 0 when there is none.  Amortized constant per symbol.

    A finite bound prefix is accepted as long as no full-prefix match makes
    the answer depend on unknown digits; otherwise PrefixTooShort.
    """
    w = word(w)
    if not isinstance(bprefix, EvPeriodicSeq):
        bprefix = word(bprefix)
    track = _Track(bprefix, 0)
    known = bound_len(bprefix)
    state = 0
    for a in w:
        if state == known:
            raise PrefixTooShort(
                f"match length {state} reaches the end of the known pattern")
        state = track.advance(state, a)
    if state == known and state < len(w):
        raise PrefixTooShort(
            f"suffix matches the entire {state}-digit prefix; longer matches unknown")
    return state


@dataclass(frozen=True)
class GraphSlice:
    """Vertices 0..K of the presentation with all in-slice edges."""

    K: int
    spine: Word            # b_1 .. b_{K+1}: spine[i] labels V_i -> V_{i+1}
    out: tuple             # per vertex: dict label -> target (spine from V_K omitted)
    complete: tuple        # per vertex: all out-edges present in the slice
    alphabet: int
    # (N, P) of the bound's fold: rows >= N repeat with period P; None for
    # the slice of a finite bound prefix
    fold: Optional[tuple[int, int]] = field(default=None, compare=False)

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        es = []
        for src, table in enumerate(self.out):
            for label, dst in table.items():
                es.append((src, dst, label))
        es.sort()
        return es

    def spine_label(self, i: int) -> int:
        return self.spine[i]

    def to_dot(self) -> str:
        lines = ["digraph slice {", "  rankdir=LR;"]
        for i in range(self.K + 1):
            shape = "circle" if self.complete[i] else "doublecircle"
            lines.append(f'  V{i} [shape={shape}];')
        for src, dst, label in self.edges:
            lines.append(f'  V{src} -> V{dst} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "alphabet": self.alphabet,
            "spine_labels": list(self.spine),
            "complete": [bool(c) for c in self.complete],
            "edges": [{"src": s, "dst": d, "label": l} for s, d, l in self.edges],
        }


def build_graph(b: BoundSeq, K: int) -> GraphSlice:
    """Build the slice V_0..V_K from a bound sequence known to at least
    K + 2 digits, so every in-slice edge target is determined.  The bound
    must dominate its shifts in the alternating order, as the upper bound
    of every ShiftSpec does."""
    if K < 0:
        raise ValueError("K >= 0 required")
    avail = bound_len(b)
    if avail < K + 2:
        raise PrefixTooShort(f"need {K + 2} digits, have {avail}")
    if isinstance(b, EvPeriodicSeq):
        pre, per = b.preperiod, b.period
        spine = (pre + per * ((K + 1) // len(per) + 1))[: K + 1]
        fold = _Fold.of(b)
        rows, P, folded = fold.rows, fold.P, (fold.N, fold.P)
    else:
        spine = tuple(b[: K + 1])
        track = _Track(spine, 1)
        rows, P, folded = [track.row(i, spine[0]) for i in range(K + 1)], None, None
    out: list[dict[int, int]] = []
    for i in range(K + 1):
        if i < len(rows):
            row = dict(rows[i])
        else:
            row = dict(out[i - P])
            row[spine[i]] = i + 1
        if i == K:
            del row[spine[i]]  # the spine edge from V_K leaves the slice
        out.append(row)
    complete = tuple(i < K for i in range(K + 1))
    return GraphSlice(K, spine, tuple(out), complete, spine[0], folded)


def build_graph_for_spec(spec: ShiftSpec, K: int) -> GraphSlice:
    if spec.two_sided:
        raise TwoSidedUnsupported(
            "the graph presentation covers one-sided shifts only")
    return build_graph(spec.upper, K)


def walk(graph: GraphSlice, w, start: int = 0) -> Optional[list[int]]:
    """Vertex sequence of the unique labelled path reading w from `start`,
    or None when some digit has no edge (the word is rejected)."""
    w = word(w)
    cur = start
    seq = [cur]
    for a in w:
        table = graph.out[cur]
        if a in table:
            cur = table[a]
        elif not graph.complete[cur] and a == graph.spine_label(cur):
            raise TruncationInsufficient(
                f"walk leaves the slice at V_{cur} on digit {a}")
        else:
            return None
        seq.append(cur)
    return seq


def path_count(graph: GraphSlice, n: int, start: int = 0) -> int:
    """Number of length-n labelled paths from `start` (exact, big integers)."""
    return path_counts(graph, n, start)[n]


def path_counts(graph: GraphSlice, nmax: int, start: int = 0,
                floor: int = 0) -> list[int]:
    """Numbers of length-n paths from V_start for n = 0..nmax, using only
    edges into vertices >= floor (exact, big integers).

    Row v is the sorted multiset of the edge targets >= floor of V_v, with
    the spine edge written as the marker -1 so that rows can repeat.  When
    the rows of V_j0 .. V_{start+nmax-1} (every vertex a counted path can
    leave) have period p, counting on the vertices below j0 + p with the
    spine out of V_{j0+p-1} bent back to V_j0 gives the same numbers.  j0 + p
    is the least such size; an aperiodic slice keeps all start + nmax rows.

    On a slice with a fold (N, P) the rows from c = max(N, floor) on have
    period P, so only the first 2(c + P) rows are read.  The least size
    found there is at most c + P, and its period p holds on at least c + 2P
    of those P-periodic rows, which is p + P or more: by Fine-Wilf the rows
    from c on also have period gcd(p, P), so p holds on every later row.
    """
    if nmax < 0:
        raise ValueError(nmax)
    if start < 0:
        raise ValueError(start)
    if start + nmax > graph.K:
        raise TruncationInsufficient(
            f"length-{nmax} paths from V_{start} can leave the K={graph.K} slice")
    if nmax == 0:
        return [1]
    m = start + nmax
    if graph.fold is not None:
        N, P = graph.fold
        m = min(m, 2 * (max(N, floor) + P))
    rows = [tuple(sorted(-1 if t == v + 1 else t
                         for t in graph.out[v].values() if t >= floor))
            for v in range(m)]
    # A reversed prefix of length ell with border f is the suffix of the rows
    # from j0 = m - ell with period ell - f: the folded size is m - f.
    fail = _failure_table(rows[::-1])
    f = max(fail)
    ell = fail.index(f)
    size, j0 = m - f, m - ell
    adj = [[(v + 1 if v + 1 < size else j0) if t < 0 else t for t in row]
           for v, row in enumerate(rows[:size])]
    vec = {start if start < size else j0 + (start - j0) % (ell - f): 1}
    counts = [1]
    for _ in range(nmax):
        nxt: dict[int, int] = {}
        for v, c in vec.items():
            for dst in adj[v]:
                nxt[dst] = nxt.get(dst, 0) + c
        vec = nxt
        counts.append(sum(vec.values()))
    return counts


def path_words(graph: GraphSlice, n: int, start: int = 0,
               floor: int = 0) -> Iterator[Word]:
    """All length-n labelled path words from `start`, lexicographically,
    using only edges into vertices >= floor."""
    if n < 0:
        raise ValueError(n)
    if start + n > graph.K:
        raise TruncationInsufficient(
            f"length-{n} paths from V_{start} can leave the K={graph.K} slice")
    yield from _lex_words(start, n, lambda v: [
        (label, t) for label, t in sorted(graph.out[v].items()) if t >= floor])


def shortest_path_to_v0(graph: GraphSlice, i: int) -> tuple[int, Word]:
    """Shortest in-slice path from V_i to V_0 and its lexicographically
    least label word; raises TruncationInsufficient when V_0 is unreachable
    inside the slice."""
    if not 0 <= i <= graph.K:
        raise ValueError(i)
    dist = _dist_to_v0(graph)
    if dist[i] is None:
        raise TruncationInsufficient(
            f"no path from V_{i} to V_0 inside the K={graph.K} slice")
    labels: list[int] = []
    cur = i
    while cur != 0:
        for label in sorted(graph.out[cur]):
            dst = graph.out[cur][label]
            if dist[dst] is not None and dist[dst] == dist[cur] - 1:
                labels.append(label)
                cur = dst
                break
        else:
            raise AssertionError("distance table inconsistent")
    return dist[i], tuple(labels)


def _dist_to_v0(graph: GraphSlice) -> list[Optional[int]]:
    radj: list[list[int]] = [[] for _ in range(graph.K + 1)]
    for src, table in enumerate(graph.out):
        for dst in table.values():
            if src != dst or dst == 0:
                radj[dst].append(src)
    dist: list[Optional[int]] = [None] * (graph.K + 1)
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in radj[v]:
                if dist[u] is None:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def gap_scan(graph: GraphSlice, N: int) -> Optional[int]:
    """Least L with no out-edge from any V_k, L <= k <= K, dropping by at
    most N (self-loops count as drop 0).  None when V_K itself violates.

    The answer is certified only within the slice; higher vertices are not
    inspected.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    violators = [src for src, table in enumerate(graph.out)
                 for dst in table.values() if 0 <= src - dst <= N]
    if not violators:
        return 0
    L = max(violators) + 1
    return L if L <= graph.K else None


@dataclass(frozen=True)
class FollowerReport:
    w: Word
    w2: Word
    k: int
    depth: int
    equal: bool
    counterexample: Optional[Word]
    sizes: tuple[int, int]


def follower_equiv_check(spec: ShiftSpec, w, w2, depth: int) -> FollowerReport:
    """Brute-force check that two words with the same suffix-match state
    admit exactly the same depth-bounded continuations."""
    w, w2 = word(w), word(w2)
    if is_admissible(spec, w) != "yes" or is_admissible(spec, w2) != "yes":
        raise ValueError("both words must be admissible")
    kw = k_of(spec.upper, w)
    kw2 = k_of(spec.upper, w2)
    if kw != kw2:
        raise ValueError(f"suffix-match states differ: {kw} vs {kw2}")
    f1 = set(follower_words(spec, w, depth))
    f2 = set(follower_words(spec, w2, depth))
    if f1 == f2:
        return FollowerReport(w, w2, kw, depth, True, None, (len(f1), len(f2)))
    diff = sorted(f1.symmetric_difference(f2))[0]
    return FollowerReport(w, w2, kw, depth, False, diff, (len(f1), len(f2)))


def parse_bound_file(text: str) -> BoundSeq:
    """Parse a bound sequence file: digits separated by whitespace/commas,
    with an optional "PRE | PER" split marking an eventually periodic tail.

    A token made only of the digits 1-9 is read digit by digit ("12" is 1, 2),
    any other token as one integer ("10" is ten, "7" is seven), so a digit
    above 9 must stand alone between separators."""
    cleaned = text.strip()
    if "|" in cleaned:
        pre_part, per_part = cleaned.split("|", 1)
        pre = _parse_digits(pre_part)
        per = _parse_digits(per_part)
        if not per:
            raise ValueError("empty period")
        return EvPeriodicSeq.make(pre, per)
    digits = _parse_digits(cleaned)
    if not digits:
        raise ValueError("no digits found")
    return tuple(digits)


def _parse_digits(part: str) -> tuple[int, ...]:
    tokens = part.replace(",", " ").split()
    out = []
    for tok in tokens:
        if tok.isdigit() and len(tok) > 1 and all(c in "123456789" for c in tok):
            # a run like "3232133" is a digit string
            out.extend(int(c) for c in tok)
        else:
            out.append(int(tok))
    return tuple(out)
