import functools
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negbeta import graph as graph_mod
from negbeta import language, oracle
from negbeta.decomposition import c_count, t_gap
from negbeta.errors import (PrefixTooShort, TruncationInsufficient,
                            TwoSidedUnsupported)
from negbeta.graph import (build_graph, build_graph_for_spec, gap_scan, k_of,
                           parse_bound_file, path_count, path_counts,
                           path_words, shortest_path_to_v0, walk)
from negbeta.language import (_PRIME, ShiftSpec, _recurrence, _Track,
                              count_words, derived_lower_bound,
                              enumerate_words, iter_words)
from negbeta.numeric import BetaValue
from negbeta.order import EvPeriodicSeq, alt_cmp_seq, is_alt_shift_maximal, word

GOLDEN = ShiftSpec.golden()
FIG = ShiftSpec.make(EvPeriodicSeq.make((), word("3232133")))
BRANCHY = ShiftSpec.make(EvPeriodicSeq.make((), word("3123111312")))
GS = build_graph_for_spec(GOLDEN, 20)
FS = build_graph_for_spec(FIG, 16)


def test_k_of_examples():
    b = word("3232133")
    assert k_of(b, word("3232")) == 4
    assert k_of(b, word("321")) == 0
    assert k_of(b, ()) == 0


def test_k_of_prefix_guard():
    # the whole prefix matches and the word is longer: the answer would
    # depend on unknown digits
    with pytest.raises(PrefixTooShort):
        k_of(word("32"), word("132"))
    assert k_of(word("32"), word("32")) == 2    # exact: k cannot exceed |w|


def test_k_of_matches_naive():
    rng = random.Random(20260809)
    for b in (GOLDEN.upper, FIG.upper):
        bpfx = tuple(b.digit(i) for i in range(1, 40))
        for _ in range(2000):
            n = rng.randint(1, 30)
            w = tuple(rng.randint(1, 3) for _ in range(n))
            assert k_of(b, w) == oracle.naive_k(bpfx, w)


def test_golden_graph_shape():
    gs = build_graph(GOLDEN.upper, 3)
    assert gs.edges == [(0, 0, 1), (0, 1, 2), (1, 1, 2), (1, 2, 1), (2, 3, 1),
                        (3, 1, 2)]
    assert gs.spine == (2, 1, 1, 1)
    assert gs.complete == (True, True, True, False)


def test_figure_slice_shape():
    gs = build_graph(word("3232133"), 5)
    assert gs.edges == [(0, 0, 1), (0, 0, 2), (0, 1, 3),
                        (1, 1, 3), (1, 2, 2),
                        (2, 0, 1), (2, 0, 2), (2, 3, 3),
                        (3, 1, 3), (3, 4, 2),
                        (4, 5, 1)]
    # the periodic extension agrees on the slice the prefix determines
    ps = build_graph(FIG.upper, 5)
    assert ps.edges == gs.edges


def test_build_guards():
    with pytest.raises(PrefixTooShort):
        build_graph(word("3232133"), 6)
    b2 = ShiftSpec.from_beta(BetaValue.from_rational(2))
    with pytest.raises(TwoSidedUnsupported):
        build_graph_for_spec(b2, 4)


def test_edge_parity_invariant():
    for gs in (GS, FS):
        for src, dst, label in gs.edges:
            if dst == src + 1:
                assert label == gs.spine_label(src)
            elif src % 2 == 1:
                assert label >= gs.spine_label(src) + 1
            else:
                assert label <= gs.spine_label(src) - 1


def test_walk_examples():
    assert walk(GS, word("21")) == [0, 1, 2]
    assert walk(GS, word("22")) == [0, 1, 1]
    assert walk(GS, word("12")) == [0, 0, 1]
    assert walk(GS, word("212")) is None
    small = build_graph(GOLDEN.upper, 2)
    with pytest.raises(TruncationInsufficient):
        walk(small, word("2111"))


def test_walk_final_vertex_is_match_length():
    for spec, gs in ((GOLDEN, GS), (FIG, FS)):
        for n in range(1, 11):
            for w in iter_words(spec, n):
                assert walk(gs, w)[-1] == k_of(spec.upper, w)


def test_path_words_match_language():
    for spec, gs, nmax in ((GOLDEN, GS, 12), (FIG, FS, 10)):
        for n in range(1, nmax + 1):
            assert list(path_words(gs, n)) == enumerate_words(spec, n)


def test_path_words_with_floor_match_filtered_oracle():
    # the unpruned walks kept only when every vertex after the start is at
    # or above the floor; the words come out sorted and as many as counted
    branchy = build_graph_for_spec(BRANCHY, 16)
    for gs in (GS, FS, branchy):
        for floor in (1, 2, 3, 6):
            for start in (0, floor - 1, floor, floor + 2):
                for n in range(0, 7):
                    got = list(path_words(gs, n, start, floor))
                    want = {w for w in oracle.naive_path_words(gs, n, start)
                            if min(walk(gs, w, start)[1:], default=floor) >= floor}
                    assert got == sorted(want)
                    assert len(got) == path_counts(gs, n, start, floor)[n]


def test_path_words_match_unpruned_oracle():
    small = build_graph(GOLDEN.upper, 7)
    for n in range(1, 7):
        assert set(path_words(small, n)) == oracle.naive_path_words(small, n)


def test_path_count():
    assert path_count(GS, 0) == 1
    assert path_count(GS, 1) == 2
    assert path_count(GS, 2) == 4
    assert [path_count(GS, n) for n in range(1, 11)] == \
        [len(enumerate_words(GOLDEN, n)) for n in range(1, 11)]
    with pytest.raises(TruncationInsufficient):
        path_count(GS, 21)


def test_path_counts_guards():
    assert path_counts(GS, 0, 20) == [1]
    assert path_counts(GS, 5) == [1, 2, 4, 7, 12, 20]
    with pytest.raises(ValueError):
        path_counts(GS, -1)
    with pytest.raises(ValueError):
        path_count(GS, 1, -1)
    with pytest.raises(TruncationInsufficient,
                       match="length-3 paths from V_18 can leave the K=20 slice"):
        path_count(GS, 3, 18)


def test_walk_and_path_words_refuse_a_start_outside_the_slice():
    g = build_graph_for_spec(GOLDEN, 6)
    for start in (-1, -7, 7, 9):
        with pytest.raises(ValueError, match=f"^{start}$"):
            walk(g, (1,), start=start)
        with pytest.raises(ValueError, match=f"^{start}$"):
            list(path_words(g, 0, start=start))
    with pytest.raises(ValueError, match="^-3$"):
        list(path_words(g, 2, start=-3))
    # checked at the call, before any word is read
    for start in (-1, 7, 9):
        for call in (path_words, path_counts, path_count):
            with pytest.raises(ValueError, match=f"^{start}$"):
                call(g, 0, start=start)
    # both ends of 0..K stay valid
    assert walk(g, (1,), start=0) == [0, 0]
    assert list(path_words(g, 0, start=6)) == [()]


def _dict_dp_counts(graph, nmax, start, floor):
    # the unfolded sparse DP over the whole slice
    vec, counts = {start: 1}, [1]
    for _ in range(nmax):
        nxt = {}
        for v, c in vec.items():
            for dst in graph.out[v].values():
                if dst >= floor:
                    nxt[dst] = nxt.get(dst, 0) + c
        vec = nxt
        counts.append(sum(vec.values()))
    return counts


@st.composite
def _periodic_bounds(draw):
    # the largest shift of a drawn eventually periodic sequence, in the
    # alternating order: its shifts are shifts of the drawn sequence, so it
    # dominates them, and every valid bound is its own largest shift
    alphabet = draw(st.integers(2, 4))
    digits = st.integers(1, alphabet)
    seq = EvPeriodicSeq.make(draw(st.lists(digits, max_size=4)),
                             draw(st.lists(digits, min_size=1, max_size=8)))
    upper = max(map(seq.shift, range(len(seq.preperiod) + len(seq.period))),
                key=functools.cmp_to_key(alt_cmp_seq))
    assert is_alt_shift_maximal(upper).status == "yes"
    return upper


@st.composite
def _slices(draw):
    # eventually periodic bounds, and rational-base prefixes (aperiodic)
    K = draw(st.integers(1, 1000))
    if draw(st.booleans()):
        return build_graph(draw(_periodic_bounds()), K)
    q = draw(st.integers(2, 40))
    p = draw(st.integers(q + 1, 4 * q).filter(lambda p: p % q))
    spec = ShiftSpec.from_beta(BetaValue.from_rational(F(p, q)), prefix_len=K + 2)
    assume(spec.prefix_mode and len(spec.upper) >= K + 2)
    return build_graph_for_spec(spec, K)


@given(_slices(), st.data())
@settings(max_examples=60, deadline=None)
def test_folded_counts_match_dict_dp(graph, data):
    K = graph.K
    start = data.draw(st.integers(0, K))
    n = data.draw(st.integers(0, K - start))
    floor = data.draw(st.integers(0, start + 1))
    assert path_counts(graph, n, start, floor) == _dict_dp_counts(graph, n, start, floor)
    m = data.draw(st.integers(0, n))
    assert path_count(graph, m, start) == _dict_dp_counts(graph, m, start, 0)[m]
    L = data.draw(st.integers(1, K))
    n = data.draw(st.integers(1, K - L + 1))
    ref = _dict_dp_counts(graph, n - 1, L, L)
    assert [c_count(graph, L, j) for j in range(1, n + 1)] == ref


@given(_periodic_bounds(), st.data())
@settings(max_examples=40, deadline=None)
def test_capped_window_counts_past_the_fold(upper, data):
    # floors, and starts past max(N, floor) + 2P that path_counts maps into
    # the fold's period, reading no row from max(N, floor) + P on
    graph = build_graph(upper, 1000)
    N, P = graph.fold
    floor = data.draw(st.integers(0, N + 4 * P + 20))
    start = data.draw(st.integers(max(N, floor) + 2 * P, 2 * (max(N, floor) + P) + 40))
    n = data.draw(st.integers(0, 1000 - start))
    assert path_counts(graph, n, start, floor) == _dict_dp_counts(graph, n, start, floor)


@given(_periodic_bounds(), st.integers(280, 320))
@settings(max_examples=10, deadline=None)
def test_folded_path_count_matches_count_words(upper, n):
    table = count_words(ShiftSpec.make(upper), n)
    assert path_count(build_graph(upper, n), n) == table.rows[-1]["count_words"]


def test_shortest_paths():
    assert shortest_path_to_v0(FS, 0) == (0, ())
    assert shortest_path_to_v0(FS, 2) == (1, (1,))
    dist, labels = shortest_path_to_v0(FS, 5)
    assert dist == len(labels)
    assert walk(FS, labels, start=5)[-1] == 0
    # no vertex above 0 reaches the root in the golden graph
    with pytest.raises(TruncationInsufficient):
        shortest_path_to_v0(GS, 1)


def test_gap_scan():
    assert gap_scan(GS, 1) == 2
    assert gap_scan(GS, 4) == 6
    assert gap_scan(FS, 1) == 2
    ones = build_graph(EvPeriodicSeq.constant(1), 6)   # pure spine
    assert gap_scan(ones, 3) == 0
    with pytest.raises(ValueError):
        gap_scan(GS, 0)


def test_follower_property_across_state_classes():
    # words sharing a suffix-match state share depth-bounded futures
    from collections import defaultdict
    for spec, nmax, depth in ((GOLDEN, 8, 6), (FIG, 7, 5)):
        by_state = defaultdict(list)
        for n in range(1, nmax + 1):
            for w in iter_words(spec, n):
                by_state[k_of(spec.upper, w)].append(w)
        from negbeta.language import follower_words
        for state, members in by_state.items():
            if len(members) < 2:
                continue
            ref = set(follower_words(spec, members[0], depth))
            for other in members[1:3]:
                assert set(follower_words(spec, other, depth)) == ref


def test_exports_and_bound_file():
    dot = GS.to_dot()
    assert dot.startswith("digraph") or dot.startswith("//")
    assert 'V0 -> V1 [label="2"];' in dot
    js = GS.to_json()
    assert js["K"] == 20 and js["alphabet"] == 2
    assert parse_bound_file("3232133") == word("3232133")
    assert parse_bound_file("3 2 3, 2 1 3 3") == word("3232133")
    assert parse_bound_file("2 | 1") == EvPeriodicSeq.make((2,), (1,))
    assert parse_bound_file("| 3 2 3 2 1 3 3") == EvPeriodicSeq.make((), word("3232133"))


def _drawn_bounds(count, seed):
    # eventually periodic, alternately shift-maximal bounds: alphabet 2-5,
    # preperiod 0-7, period 1-8 (before reduction to the canonical form)
    rng = random.Random(seed)
    bounds = []
    while len(bounds) < count:
        a = rng.randint(2, 5)
        pre = [rng.randint(1, a) for _ in range(rng.randint(0, 7))]
        per = [rng.randint(1, a) for _ in range(rng.randint(1, 8))]
        (pre if pre else per)[0] = a
        b = EvPeriodicSeq.make(pre, per)
        if b.digit(1) == a and is_alt_shift_maximal(b).status == "yes":
            bounds.append(b)
    return bounds


# Bounds whose first N + P digits repeat a short period past the preperiod,
# so the fold's certificate fails at |pre| + P + 2 and N moves up.
RAISED_N = [EvPeriodicSeq.make(word(pre), word(per)) for pre, per in
            (("2111112", "1"), ("2121112", "1211"), ("3121213", "12"),
             ("3212123", "21"))]
FOLD_BOUNDS = (_drawn_bounds(300, 20261018) + RAISED_N
               + [GOLDEN.upper, FIG.upper, BRANCHY.upper])


def _per_vertex_build(b, K):
    # the track run for every vertex and digit, as in a slice without a fold
    digits = b.prefix(K + 1)
    track = _Track(digits, 1)
    out = []
    for i in range(K + 1):
        row = {}
        for a in range(1, digits[0] + 1):
            j = track.advance(i, a)
            if j is not None and j <= K:
                row[a] = j
        out.append(row)
    return out


def _fold_shape(b):
    q = len(b.period)
    P = q if q % 2 == 0 else 2 * q
    return len(b.preperiod) + P + 2, P


def _odd_periodic_uppers(count, seed):
    # purely periodic bounds of odd period whose last digit exceeds 1, the
    # uppers of two-sided specs: alphabet 2-5, period 1-7
    rng = random.Random(seed)
    bounds = []
    while len(bounds) < count:
        a = rng.randint(2, 5)
        b = EvPeriodicSeq.make((), [a] + [rng.randint(1, a) for _ in range(rng.randint(0, 6))])
        if (len(b.period) % 2 and b.period[-1] > 1
                and is_alt_shift_maximal(b).status == "yes"):
            bounds.append(b)
    return bounds


def test_fold_rows_repeat_past_N():
    for b in FOLD_BOUNDS:
        N, P = _fold(b)
        N0, P0 = _fold_shape(b)
        assert P == P0 and N >= N0 and (N - N0) % P == 0
        assert N > N0 or b not in RAISED_N
        out = _per_vertex_build(b, 300)
        for i in range(N, 300 - P):
            spine = b.digit(i + 1)
            assert out[i][spine] == i + 1
            assert out[i + P] == {**out[i], spine: i + P + 1}
            assert all(t <= len(b.preperiod) + P
                       for a, t in out[i].items() if a != spine)
    # a derived lower bound's folded track is the quotient of the unfolded
    # one by k ~ k + P from N on
    for upper in _odd_periodic_uppers(100, 20261019):
        b, alphabet = derived_lower_bound(upper), upper.digit(1)
        track, raw = _Track(b, -1), _Track(b.prefix(300), -1)
        (N, P), (N0, P0) = (track.N, track.P), _fold_shape(b)
        assert P == P0 and N >= N0 and (N - N0) % P == 0

        def fold(k):
            return k if k < N + P else N + (k - N) % P

        for i in range(300):
            want = {a: fold(t) for a, t in raw.row(i, alphabet).items()}
            assert track.row(fold(i), alphabet) == want


def _fold(b):
    track = _Track(b, 1)
    return track.N, track.P


def test_build_graph_matches_per_vertex_build():
    for b in FOLD_BOUNDS:
        N, P = _fold(b)
        for K in (0, 1, N + P - 1, N + P, N + P + 1, 300, 1000):
            g = build_graph(b, K)
            assert list(g.out) == _per_vertex_build(b, K)
            assert g.spine == b.prefix(K + 1) and g.alphabet == b.digit(1)
            assert g.complete == tuple(i < K for i in range(K + 1))
            assert g.fold == (N, P)
    assert build_graph(word("3232133"), 5).fold is None


def _tuple_rows(b, g):
    # the same slice built from the bound's (K + 2)-digit prefix, which has
    # no fold: its head stores every row, which the walkers read row by row
    # instead of through the fold
    h = build_graph(b.prefix(g.K + 2), g.K)
    assert h.fold is None and len(h.head) == g.K + 1
    assert h == g and tuple(h.out) == tuple(g.out)
    return h


def _outcome(call, *args):
    try:
        return call(*args)
    except TruncationInsufficient as exc:
        return str(exc)


def test_served_rows_read_as_tuple_rows():
    rng = random.Random(20261020)
    K = 120
    for b in FOLD_BOUNDS:
        g = build_graph(b, K)
        h = _tuple_rows(b, g)
        N, P = g.fold
        assert g.out[N + P:K + 1:7] == h.out[N + P:K + 1:7]
        assert g.out[-1] == h.out[-1] and g.out[K] == h.out[K]
        for start, floor in _count_pairs(N, P) + [(K - 3, 0)]:
            n = min(4, K - start)
            words = list(path_words(g, n, start, floor))
            assert words == list(path_words(h, n, start, floor))
            assert path_counts(g, K - start, start, floor) == \
                path_counts(h, K - start, start, floor)
            for w in words[:20] + [tuple(rng.randint(1, g.alphabet) for _ in range(9))
                                   for _ in range(5)]:
                assert _outcome(walk, g, w, start) == _outcome(walk, h, w, start)
        for i in range(K + 1):
            assert _outcome(shortest_path_to_v0, g, i) == \
                _outcome(shortest_path_to_v0, h, i)
        for n in (1, 2, 3, 4, 7, P + 1):
            assert gap_scan(g, n) == gap_scan(h, n)


def test_build_cost_does_not_grow_with_K(monkeypatch):
    rows = []
    row = _Track.row

    def counted(self, k, alphabet):
        rows.append(k)
        return row(self, k, alphabet)

    monkeypatch.setattr(_Track, "row", counted)
    K = 10 ** 6
    g = build_graph(GOLDEN.upper, K)
    N, P = g.fold
    assert rows == list(range(N + P)) and len(g.out) == K + 1
    # rows from N + P on follow the rule: the row N + (i - N) mod P with
    # its spine edge moved to i + 1, and dropped at V_K
    j = N + (K - 1 - N) % P
    assert g.out[K - 1] == {**g.out[j], g.spine[j]: K}
    assert g.out[K] == {a: t for a, t in g.out[N + (K - N) % P].items()
                        if a != g.spine[K]}
    assert walk(g, (1,) * 10, K - 10)[-1] == K


def _fstring_dot(g):
    # a reference writer: every edge in one global sort, and one f-string
    # per line
    edges = sorted((src, dst, label) for src, row in enumerate(g.out)
                   for label, dst in row.items())
    assert g.edges == edges
    lines = ["digraph slice {", "  rankdir=LR;"]
    for i in range(g.K + 1):
        shape = "circle" if i < g.K else "doublecircle"
        lines.append(f'  V{i} [shape={shape}];')
    for src, dst, label in edges:
        lines.append(f'  V{src} -> V{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_dot_matches_the_per_line_writer():
    for b in FOLD_BOUNDS:
        N, P = _fold(b)
        for K in (0, 1, N + P - 1, N + P, N + P + 1, 300):
            g = build_graph(b, K)
            assert g.to_dot() == _fstring_dot(g)
    spec = ShiftSpec.from_beta(BetaValue.parse("13/10"), horizon=300,
                               prefix_len=300)
    for K in (40, 250):
        g = build_graph_for_spec(spec, K)
        assert g.fold is None and g.to_dot() == _fstring_dot(g)


def _full_gap_scan(g, n):
    # every row of the slice, as for a slice without a fold
    violators = [src for src, table in enumerate(g.out)
                 for dst in table.values() if 0 <= src - dst <= n]
    if not violators:
        return 0
    L = max(violators) + 1
    return L if L <= g.K else None


def test_gap_scan_on_fold_matches_full_scan():
    for b in FOLD_BOUNDS:
        N, P = _fold(b)
        edges = {N + P + d for d in (-1, 0, 1, 2, 3, 4, 7, 8)}
        for K in sorted({0, 1, 2, 3, 5, 8, 13, 40, 200, 2000} | edges):
            g = build_graph(b, K)
            for n in (1, 2, 3, 4, 7):
                assert gap_scan(g, n) == _full_gap_scan(g, n), (b, K, n)
    g = build_graph(word("3232133") * 30, 200)
    assert g.fold is None
    assert [gap_scan(g, n) for n in (1, 2, 3, 4, 7)] == \
        [_full_gap_scan(g, n) for n in (1, 2, 3, 4, 7)]


def test_walk_on_copied_rows_matches_oracle():
    few = [GOLDEN.upper, RAISED_N[0]] + [b for b in FOLD_BOUNDS if b.digit(1) <= 3][:3]
    for b in few:
        spec = ShiftSpec.make(b)
        N, P = _fold(b)
        head = b.prefix(N + P)  # walks from V_{N+P} read served rows only
        g = build_graph(b, N + P + 12)
        bprefix = b.prefix(N + P + 13)
        for n in range(1, 9):
            for w in itertools.product(range(1, spec.alphabet + 1), repeat=n):
                for u in (w, head + w) if n <= 5 else (w,):
                    path = walk(g, u)
                    if oracle.naive_admissible(spec, u) == "yes":
                        assert path is not None and path[-1] == oracle.naive_k(bprefix, u)
                    else:
                        assert path is None


def test_build_graph_track_work_does_not_grow_with_K(monkeypatch):
    calls = [0]
    advance = _Track.advance

    def counted(self, k, a):
        calls[0] += 1
        return advance(self, k, a)

    monkeypatch.setattr(_Track, "advance", counted)
    for spec in (GOLDEN, FIG, BRANCHY):
        work = []
        for K in (300, 3000):
            calls[0] = 0
            build_graph(spec.upper, K)
            work.append(calls[0])
        assert work[0] == work[1] > 0


def _count_pairs(N, P):
    # (start, floor) as path_count, bound_check (L - 1, L) and the
    # excursion counts (L, L) use them, for L = 2, L = N (where the fold's
    # walk-down starts at the floor) and L = N + P
    return [(0, 0), (1, 2), (2, 2), (N - 1, N), (N, N), (N + P - 1, N + P),
            (N + P, N + P)]


def test_recurrence_counts_match_dict_dp(monkeypatch):
    sizes = []

    def spy(terms, size):
        q = _recurrence(terms, size)
        sizes.append((size, q is not None))
        return q

    monkeypatch.setattr(language, "_recurrence", spy)
    K = 200
    for b in FOLD_BOUNDS:
        g = build_graph(b, K)
        for start, floor in _count_pairs(*g.fold):
            ref = _dict_dp_counts(g, K - start, start, floor)
            sizes.clear()
            assert path_counts(g, K - start, start, floor) == ref
            # every long sweep here is certified: no bound falls back
            [(size, certified)] = sizes
            assert certified and 2 * size < K - start, (b, start, floor)
            for nmax in (2 * size - 1, 2 * size, 2 * size + 1):
                assert path_counts(g, nmax, start, floor) == ref[: nmax + 1]


def test_recurrence_needs_massey_bound():
    fib = [1, 1, 2, 3, 5, 8, 13, 21]
    assert _recurrence(fib, 2) == [1, 1]
    assert _recurrence([1, 2, 4, 8], 1) == [2]
    # linear complexity 2 exceeds size 1
    assert _recurrence(fib, 1) is None
    # order 2 found, but 3 terms are fewer than d + size = 4
    assert _recurrence(fib[:3], 2) is None
    # linear complexity 7 exceeds size 3
    assert _recurrence([1, 0, 0, 0, 0, 0, 0, 1], 3) is None
    # zero modulo the prime, but not over the integers
    assert _recurrence([1, _PRIME, 0, 0], 2) is None


def test_counts_without_certificate_continue_the_dp(monkeypatch):
    cases = []
    for b in FOLD_BOUNDS[::10] + [GOLDEN.upper, BRANCHY.upper]:
        g = build_graph(b, 150)
        for start, floor in _count_pairs(*g.fold):
            cases.append((g, start, floor, path_counts(g, 150 - start, start, floor)))
    monkeypatch.setattr(language, "_recurrence", lambda terms, size: None)
    for g, start, floor, certified in cases:
        assert path_counts(g, 150 - start, start, floor) == certified


def _jump_lengths(size, top):
    # below, at and above the 2·size + 1 counts the DP reads, and the longest
    return sorted({n for n in (1, 2 * size, 2 * size + 1, 2 * size + 2, top // 2, top)
                   if 0 <= n <= top})


def test_one_count_matches_the_sweep():
    K = 1000
    for b in FOLD_BOUNDS:
        g = build_graph(b, K)
        for start, floor in _count_pairs(*g.fold):
            counts = path_counts(g, K - start, start, floor)
            size = graph_mod._folded(g, K - start, start, floor)[2]
            for n in _jump_lengths(size, K - start):
                assert path_count(g, n, start, floor) == counts[n], (b, start, floor, n)
                if start == floor >= 1:
                    assert c_count(g, start, n + 1) == counts[n]


def test_one_count_past_twenty_thousand():
    fib = [0, 1]
    while len(fib) < 20004:
        fib.append(fib[-1] + fib[-2])
    assert path_count(build_graph(GOLDEN.upper, 20001), 20000) == fib[20003] - 1


def test_one_count_stops_the_dp_at_certification(monkeypatch):
    # a certified count of length n > 2·size reads 2·size + 1 DP counts and
    # takes no DP step after the certificate
    events = []

    def spy(terms, size):
        q = _recurrence(terms, size)
        events.append((len(terms), size, q is not None))
        return q

    def folded(*args):
        s0, targets, size = real(*args)
        return s0, lambda v: events.append("step") or targets(v), size

    real = graph_mod._folded
    monkeypatch.setattr(language, "_recurrence", spy)
    monkeypatch.setattr(graph_mod, "_folded", folded)
    for b in (GOLDEN.upper, FIG.upper, BRANCHY.upper) + tuple(FOLD_BOUNDS[::30]):
        g = build_graph(b, 1000)
        for start, floor in _count_pairs(*g.fold):
            events.clear()
            path_count(g, 1000 - start, start, floor)
            [(terms, size, certified)] = [e for e in events if e != "step"]
            assert certified and terms == 2 * size + 1
            assert events[-1] == (terms, size, certified)


def test_one_count_without_certificate_runs_the_dp(monkeypatch):
    monkeypatch.setattr(language, "_recurrence", lambda terms, size: None)
    for b in FOLD_BOUNDS[::10] + [GOLDEN.upper, BRANCHY.upper]:
        g = build_graph(b, 150)
        for start, floor in _count_pairs(*g.fold):
            ref = _dict_dp_counts(g, 150 - start, start, floor)
            for n in (0, 1, 150 - start):
                assert path_count(g, n, start, floor) == ref[n]


def _automaton_dp_counts(spec, nmax):
    # word counts by a plain sparse DP over the automaton's successors
    aut = language._Automaton(spec)
    vec, counts = {aut.start: 1}, []
    for _ in range(nmax):
        nxt = {}
        for state, c in vec.items():
            for _a, t in aut.successors(state):
                nxt[t] = nxt.get(t, 0) + c
        vec = nxt
        counts.append(sum(vec.values()))
    return counts


def test_word_counts_match_automaton_dp():
    specs = [ShiftSpec.make(b) for b in FOLD_BOUNDS]
    specs += [ShiftSpec.make(b, lower="derived")
              for b in _odd_periodic_uppers(30, 20261020)]
    specs += [ShiftSpec.from_beta(BetaValue.from_rational(b)) for b in (2, 3, 7)]
    for spec in specs:
        ref = _automaton_dp_counts(spec, 200)
        assert [r["count_words"] for r in count_words(spec, 200).rows] == ref
        for nmax in (1, 2, 17, 73):
            assert [r["count_words"] for r in count_words(spec, nmax).rows] == ref[:nmax]


def test_fold_back_edges_stay_low():
    # the bound that the windows of gap_scan and _dist_to_v0 rest on: every
    # non-spine edge of rows N .. N + 2P - 1 targets at most |pre| + P, and
    # so falls below N - 1
    for b in FOLD_BOUNDS:
        N, P = _fold(b)
        g = build_graph(b, N + 2 * P)
        top = max((t for i in range(N, N + 2 * P)
                   for a, t in g.out[i].items() if a != g.spine[i]), default=0)
        assert top <= len(b.preperiod) + P <= N - 2, b


def _full_dist(g):
    # breadth-first search backwards from V_0 over the whole slice
    radj = [[] for _ in range(g.K + 1)]
    for src, table in enumerate(g.out):
        for dst in table.values():
            radj[dst].append(src)
    dist, frontier = [None] * (g.K + 1), [0]
    dist[0] = 0
    while frontier:
        nxt = []
        for v in frontier:
            for u in radj[v]:
                if dist[u] is None:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def _check_returns_against_full_search(g):
    dist = _full_dist(g)
    refusal = "no path from V_{} to V_0 inside the K=%d slice" % g.K
    for i in range(g.K + 1):
        if dist[i] is None:
            with pytest.raises(TruncationInsufficient) as err:
                shortest_path_to_v0(g, i)
            assert str(err.value) == refusal.format(i)
        else:
            d, labels = shortest_path_to_v0(g, i)
            assert d == dist[i] == len(labels)
            # the lexicographically least word among the shortest ones
            cur = i
            for a in labels:
                least = min(x for x, t in g.out[cur].items()
                            if dist[t] is not None and dist[t] == dist[cur] - 1)
                assert a == least
                cur = g.out[cur][a]
            assert cur == 0
    for upto in range(1, g.K + 2):
        L = 1 if upto % 2 else upto  # t_gap reads only M + L
        head = dist[:upto]
        if None in head:
            with pytest.raises(TruncationInsufficient) as err:
                t_gap(g, upto - L, L)
            assert str(err.value) == refusal.format(head.index(None))
        else:
            assert t_gap(g, upto - L, L) == max(head)


def test_return_paths_on_fold_match_full_search():
    for b in FOLD_BOUNDS:
        N, P = _fold(b)
        for K in sorted({N + P - 1, N + P, N + 2 * P - 1, N + 2 * P, 200}):
            _check_returns_against_full_search(build_graph(b, K))
    # a finite prefix has no fold: the whole slice is searched
    g = build_graph(word("3232133") * 30, 200)
    assert g.fold is None
    _check_returns_against_full_search(g)
