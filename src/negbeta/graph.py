"""Truncated labelled-graph presentation of a one-sided bounded shift.

Vertices V_0, V_1, ... index the length of the longest suffix of the word
read so far that is a prefix of the bound sequence b.  Each vertex V_i has
the spine edge V_i -> V_{i+1} labelled b_{i+1}; the remaining out-edges
carry digits on the admissible side of b_{i+1} (above it when i is odd,
below when i is even) and drop back to the suffix-match state of the
extended word.  Labelled paths from V_0 are exactly the admissible words.
The edges come from the upper-bound track of the suffix-match automaton in
`negbeta.language`, and `k_of` runs the same track as a plain matcher.

For an eventually periodic bound the rows repeat: the track is folded at
(N, P) (the lemma at `language._Track`: rows repeat with period P from N on,
spine edges moving up), so a slice stores V_0..V_{N+P-1} from the track and
serves every higher row on demand as the row P below it with its spine edge
moved up (`_Rows`); building V_0..V_K costs N + P rows whatever K is.  The
walkers read rows through `_row` (one vertex) and `_rows` (a range), which
map a served vertex into the fold without building its row.  A finite
bound prefix has no fold; each of its rows comes from the track.  The
exports emit rows in source order, each sorted on its own, since a row's
spine edge is its top edge.

The slice stores vertices 0..K only.  Operations never extrapolate: walks
and counts that would leave the slice raise TruncationInsufficient, even
where the fold would say what lies beyond.  Path counts (`path_counts` and
`path_count`, which the excursion counts of `negbeta.decomposition` and its
`bound_check` use) run on the slice folded at the fold's period P
(`_folded`), from the lowest row at or below max(N, floor) where the rows
start to repeat; no row from max(N, floor) + P on is read.  The language
layer's walk-count kernel counts the folded graph of `size` vertices by a
certified linear recurrence of order d <= size: a sweep (`_walk_counts`,
which `count_words` shares) costs one sum of d products per length, and
one count of length n (`_walk_count`) about log2(n) squarings modulo the
recurrence.  `path_words` walks the same edges, with the same floor, to
list the words those counts count.  On a slice with a fold, `gap_scan`
reads only the rows below N + n - 1, n being its drop bound, and distances
back to V_0 (`shortest_path_to_v0`, `decomposition.t_gap`) come from a
search over a window of vertices set by the fold and the highest vertex
asked about, not by K.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, cycle, islice
from typing import Iterator, Optional

from .errors import (PrefixTooShort, TruncationInsufficient,
                     TwoSidedUnsupported)
from .language import ShiftSpec, _lex_words, _Track, _walk_count, _walk_counts
from .order import BoundSeq, EvPeriodicSeq, Word, bound_len, word


def k_of(bprefix: BoundSeq, w) -> int:
    """Length of the longest suffix of w equal to a prefix of the bound
    sequence; 0 when there is none.  Amortized constant per symbol.

    A finite bound prefix is accepted as long as no full-prefix match makes
    the answer depend on unknown digits; otherwise PrefixTooShort.
    """
    w = word(w)
    if isinstance(bprefix, EvPeriodicSeq):
        bprefix = bprefix.prefix(len(w))  # no match is longer than w
    else:
        bprefix = word(bprefix)
    track = _Track(bprefix, 0)
    known = len(bprefix)
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


class _Rows(Sequence):
    """The out-rows of V_0 .. V_K on a slice with a fold (N, P), K >= N + P:
    the track's rows of V_0 .. V_{N+P-1} are stored, and a row i >= N + P
    is served on each access as a new dict, the row j = N + (i - N) mod P
    with its spine edge b_{j+1} -> j + 1 moved to i + 1 (dropped at V_K).
    It reads as the tuple of every row would: by length, index, slice,
    iteration and ==."""

    __slots__ = ("head", "top", "N", "P", "K", "spine")

    def __init__(self, head: tuple, N: int, P: int, K: int, spine: Word):
        self.head, self.top, self.N, self.P = head, len(head), N, P
        self.K, self.spine = K, spine

    def __len__(self) -> int:
        return self.K + 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(self.K + 1))))
        if i < 0:
            i += self.K + 1
        if not 0 <= i <= self.K:
            raise IndexError("row index out of range")
        if i < self.top:
            return self.head[i]
        j = self.N + (i - self.N) % self.P
        row = dict(self.head[j])
        if i == self.K:
            del row[self.spine[j]]
        else:
            row[self.spine[j]] = i + 1
        return row

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _Rows)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


@dataclass(frozen=True)
class GraphSlice:
    """Vertices 0..K of the presentation with all in-slice edges.

    `out` reads as a tuple of K + 1 dicts label -> target, one per vertex,
    the spine edge from V_K omitted.  On a slice with a fold and K >= N + P
    it is a `_Rows`, which stores N + P of them and builds the others on
    access; walkers read rows through `_row` and `_rows` instead."""

    K: int
    spine: Word            # b_1 .. b_{K+1}: spine[i] labels V_i -> V_{i+1}
    out: Sequence[dict[int, int]]
    alphabet: int
    # (N, P) of the bound's fold: rows >= N repeat with period P; None for
    # the slice of a finite bound prefix
    fold: Optional[tuple[int, int]] = field(default=None, compare=False)

    @property
    def complete(self) -> tuple:
        """Per vertex: all out-edges present in the slice (all but V_K)."""
        return (True,) * self.K + (False,)

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """(src, dst, label) of every edge, in increasing order: rows in
        source order, each sorted on its own.  A row's spine edge, into
        v + 1, is its top edge, so a served row is sorted as the stored row
        it is read from."""
        rows = list(_rows(self, 0, self.K + 1))
        order = {j: row for _, row, j in rows}
        order = {j: sorted(zip(row.values(), row)) for j, row in order.items()}
        return [(v, v + 1 if t > j else t, a)
                for v, row, j in rows for t, a in order[j]]

    def spine_label(self, i: int) -> int:
        return self.spine[i]

    def to_dot(self) -> str:
        edges = self.edges
        return ("digraph slice {\n  rankdir=LR;\n"
                + "  V%d [shape=circle];\n" * self.K % tuple(range(self.K))
                + "  V%d [shape=doublecircle];\n" % self.K
                + '  V%d -> V%d [label="%d"];\n' * len(edges)
                % tuple(chain.from_iterable(edges))
                + "}\n")

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "alphabet": self.alphabet,
            "spine_labels": list(self.spine),
            "complete": list(self.complete),
            "edges": [{"src": s, "dst": d, "label": l} for s, d, l in self.edges],
        }


def _row(graph: GraphSlice, v: int) -> tuple[dict[int, int], int]:
    """(row, j): the out-edges of V_v are those of row, but that row's only
    edge above j, its spine edge into j + 1, is V_v's spine edge into
    v + 1 (every other edge of a row falls to at most its own vertex).  A
    served row of a `_Rows` is read from its stored row j, with no dict
    built; otherwise j = v."""
    out = graph.out
    if type(out) is _Rows:
        if v < out.top:
            return out.head[v], v
        if v < out.K:
            j = out.N + (v - out.N) % out.P
            return out.head[j], j
    return out[v], v


def _rows(graph: GraphSlice, lo: int,
          hi: int) -> Iterator[tuple[int, dict[int, int], int]]:
    """(v, row, j) with `_row`'s (row, j) of V_v for v = lo .. hi - 1,
    read in bulk: the served rows below V_K cycle through the stored rows
    N .. N + P - 1."""
    out, vs = graph.out, range(lo, hi)
    if type(out) is not _Rows:
        return zip(vs, out[lo:hi], vs)
    if hi <= out.top:
        return zip(vs, out.head[lo:hi], vs)
    mid, end = max(lo, min(hi, out.top)), max(lo, min(hi, out.K))
    phase = (mid - out.N) % out.P
    js = [*range(lo, mid), *islice(cycle(range(out.N, out.top)), phase,
                                   phase + end - mid)]
    rows = zip(vs, map(out.head.__getitem__, js), js)
    return rows if end == hi else chain(rows, [(out.K, out[out.K], out.K)])


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
    track = _Track(b, 1)
    if track.finite:
        spine, fold, top = tuple(b[: K + 1]), None, K + 1
    else:
        spine, fold = b.prefix(K + 1), (track.N, track.P)
        top = min(K + 1, track.N + track.P)
    head: list[dict[int, int]] = []
    for i in range(top):
        # the track's row of N + P - 1 sends its spine to the folded N
        row = track.row(i, spine[0])
        row[spine[i]] = i + 1
        head.append(row)
    if top <= K:
        out: Sequence[dict[int, int]] = _Rows(tuple(head), *fold, K, spine)
    else:
        del head[K][spine[K]]  # the spine edge from V_K leaves the slice
        out = tuple(head)
    return GraphSlice(K, spine, out, spine[0], fold)


def build_graph_for_spec(spec: ShiftSpec, K: int) -> GraphSlice:
    if spec.two_sided:
        raise TwoSidedUnsupported(
            "the graph presentation covers one-sided shifts only")
    return build_graph(spec.upper, K)


def walk(graph: GraphSlice, w, start: int = 0) -> Optional[list[int]]:
    """Vertex sequence of the unique labelled path reading w from `start`,
    or None when some digit has no edge (the word is rejected)."""
    if not 0 <= start <= graph.K:
        raise ValueError(start)
    w = word(w)
    cur = start
    seq = [cur]
    for a in w:
        row, j = _row(graph, cur)
        if a in row:
            t = row[a]
            cur = cur + 1 if t > j else t
        elif cur == graph.K and a == graph.spine_label(cur):
            raise TruncationInsufficient(
                f"walk leaves the slice at V_{cur} on digit {a}")
        else:
            return None
        seq.append(cur)
    return seq


def path_count(graph: GraphSlice, n: int, start: int = 0, floor: int = 0) -> int:
    """Number of length-n paths from V_start, using only edges into
    vertices >= floor (exact, big integers): `path_counts(...)[n]`, found by
    `language._walk_count`'s jump to length n on the same folded graph."""
    s0, targets, size = _folded(graph, n, start, floor)
    return _walk_count(s0, n, targets, size)


def path_counts(graph: GraphSlice, nmax: int, start: int = 0,
                floor: int = 0) -> list[int]:
    """Numbers of length-n paths from V_start for n = 0..nmax, using only
    edges into vertices >= floor (exact, big integers), counted by
    `language._walk_counts` on the graph `_folded` returns."""
    s0, targets, size = _folded(graph, nmax, start, floor)
    return _walk_counts(s0, nmax, targets, size)


def _check_paths(graph: GraphSlice, n: int, start: int) -> None:
    """Refuse a negative length, a start outside the slice, or length-n
    paths from V_start that can leave it."""
    if n < 0:
        raise ValueError(n)
    if not 0 <= start <= graph.K:
        raise ValueError(start)
    if start + n > graph.K:
        raise TruncationInsufficient(
            f"length-{n} paths from V_{start} can leave the K={graph.K} slice")


def _folded(graph: GraphSlice, nmax: int, start: int, floor: int):
    """(start, targets, size) of a graph of `size` vertices whose walks from
    that start are counted as the length-n paths from V_start, n <= nmax,
    with edges into vertices >= floor.

    Row v is the sorted multiset of the edge targets >= floor of V_v, with
    the spine edge written as the marker -1.  Counted paths leave only
    V_0 .. V_{m-1}, m = start + nmax.  If row(v) = row(v + P) for
    j0 <= v < m - P, counting on the vertices below j0 + P with the spine
    out of V_{j0+P-1} bent back to V_j0 gives the same numbers: sending
    V_v to V_{j0 + (v - j0) mod P} from j0 + P on keeps each row, whose
    non-spine targets are at most v (the lemma at `language._Track`).

    On a slice with a fold (N, P), `build_graph` gives V_{v+P} the
    non-spine edges of V_v for v >= N, and spines from c = max(N, floor)
    on end above the floor: rows from c on have period P.  j0 walks down
    from c while row(j0 - 1) = row(j0 - 1 + P), reading no row from c + P
    on.  Without a fold, or if c + P >= m, the m rows count as they are.
    """
    _check_paths(graph, nmax, start)
    if nmax == 0:
        return start, None, 0  # no step is taken
    m = start + nmax
    N, P = graph.fold or (m, 0)  # without a fold no row is known to repeat
    c = max(N, floor)
    # the spine edge, into j + 1 in row, ends at v + 1
    rows = [tuple(sorted(-1 if t > j else t for t in row.values()
                         if t >= floor or t > j and v >= floor - 1))
            for v, row, j in _rows(graph, 0, min(m, c + P))]
    j0 = size = m  # V_m, past the rows, ends only a path's last step
    if c + P < m:
        j0 = c
        while j0 and rows[j0 - 1] == rows[j0 - 1 + P]:
            j0 -= 1
        size = j0 + P
    adj = [[(v + 1 if v + 1 < size else j0) if t < 0 else t for t in row]
           for v, row in enumerate(rows[:size])]
    s0 = start if start < size else j0 + (start - j0) % P
    return s0, adj.__getitem__, size


def path_words(graph: GraphSlice, n: int, start: int = 0,
               floor: int = 0) -> Iterator[Word]:
    """All length-n labelled path words from `start`, lexicographically,
    using only edges into vertices >= floor."""
    _check_paths(graph, n, start)
    ordered: dict[int, list] = {}  # stored row j -> its edges by label

    def children(v):
        row, j = _row(graph, v)
        pairs = ordered.get(j)
        if pairs is None:
            pairs = ordered[j] = sorted(row.items())
        return [(label, u) for label, t in pairs
                if (u := v + 1 if t > j else t) >= floor]

    return _lex_words(start, n, children)


def shortest_path_to_v0(graph: GraphSlice, i: int) -> tuple[int, Word]:
    """Shortest in-slice path from V_i to V_0 and its lexicographically
    least label word; raises TruncationInsufficient when V_0 is unreachable
    inside the slice."""
    if not 0 <= i <= graph.K:
        raise ValueError(i)
    return _least_return(graph, _dist_to_v0(graph, i + 1), i)


def _least_return(graph: GraphSlice, dist: list[Optional[int]],
                  i: int) -> tuple[int, Word]:
    """`shortest_path_to_v0` read off a `_dist_to_v0` table exact at V_i:
    the descent takes the least label to a vertex one step nearer V_0."""
    if dist[i] is None:
        raise TruncationInsufficient(
            f"no path from V_{i} to V_0 inside the K={graph.K} slice")
    labels: list[int] = []
    cur = i
    while cur != 0:
        row, j = _row(graph, cur)
        for label in sorted(row):
            dst = cur + 1 if row[label] > j else row[label]
            if dst < len(dist) and dist[dst] == dist[cur] - 1:
                labels.append(label)
                cur = dst
                break
        else:
            raise AssertionError("distance table inconsistent")
    return dist[i], tuple(labels)


def _dist_to_v0(graph: GraphSlice, upto: int) -> list[Optional[int]]:
    """In-slice distances to V_0, exact at least for V_0 .. V_{upto-1} and
    for every vertex on a shortest path from one of them (None: no path).

    On a slice with a fold (N, P) the search runs only on the vertices
    below W = min(K + 1, max(upto - 1, N) + P), and the table has W
    entries.  A path from V_i, i < upto, that climbs to some
    h >= max(i, N) + P passed V_{h-P}, since edges climb by at most one,
    and after its last visit there it climbed the spine to V_h: every
    vertex between is at least N, and its non-spine edges fall below
    N - 1 (the lemma at `language._Track`).  From V_h it falls to some
    V_t on a non-spine edge.  Rows from N on repeat with period P, with
    the same spine label, so V_{h-P} has that edge too, with the same
    label, and the path is P steps longer than the one that takes it
    there.  So every shortest path from such a V_i stays below W, and
    distances, refusals and the least return word are those of the whole
    slice.  A slice without a fold is searched whole.
    """
    top = graph.K + 1
    if graph.fold is not None:
        N, P = graph.fold
        top = min(top, max(upto - 1, N) + P)
    radj: list[list[int]] = [[] for _ in range(top)]
    for src, row, j in _rows(graph, 0, top):
        for dst in row.values():
            if dst > j:
                dst = src + 1
            if dst < top and (src != dst or dst == 0):
                radj[dst].append(src)
    dist: list[Optional[int]] = [None] * top
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

    On a slice with a fold (N_f, P) only the rows below N_f + N - 1 are
    read.  By the lemma at `language._Track` every non-spine edge of a row
    i >= N_f targets a vertex at most |pre| + P <= N_f - 2, |pre| being
    the bound's preperiod.  Hence a source at N_f + N - 1 or above drops by
    more than N on every non-spine edge and climbs by one on its spine
    edge: it cannot violate.  A slice without a fold scans every row.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    top = graph.K + 1
    if graph.fold is not None:
        top = min(top, graph.fold[0] + N - 1)
    # a spine edge, into j + 1 in row, climbs and cannot violate
    violators = [src for src, row, j in _rows(graph, 0, top)
                 for dst in row.values() if 0 <= src - dst <= N and dst <= j]
    if not violators:
        return 0
    L = max(violators) + 1
    return L if L <= graph.K else None


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
