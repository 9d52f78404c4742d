import itertools
import random
from fractions import Fraction as F

import pytest

from negbeta import decomposition, oracle
from negbeta import graph as graphmod
from negbeta.decomposition import (GlueResult, bound_check, c_count,
                                   c_entropy_profile, c_words, glue, split,
                                   t_gap)
from negbeta.errors import (GlueFailed, NoSelfLoop, NotInGM,
                            TruncationInsufficient)
from negbeta.graph import (GraphSlice, build_graph, build_graph_for_spec,
                           path_counts, walk)
from negbeta.language import (ShiftSpec, is_admissible, iter_words,
                              periodic_block_ok)
from negbeta.numeric import BetaValue
from negbeta.order import (EvPeriodicSeq, alt_cmp_seq, is_alt_shift_maximal,
                           word)

GOLDEN = ShiftSpec.golden()
GS = build_graph_for_spec(GOLDEN, 24)
FIG = ShiftSpec.make(EvPeriodicSeq.make((), word("3232133")))
FS = build_graph_for_spec(FIG, 16)
BRANCHY = ShiftSpec.make(EvPeriodicSeq.make((), word("3123111312")))
BS = build_graph_for_spec(BRANCHY, 30)


def test_c_words_examples():
    assert c_words(GS, 1, 1) == [word("2")]
    assert [c_count(GS, 1, n) for n in range(1, 10)] == [1, 2, 3, 5, 8, 13, 21, 34, 55]
    # above the cutoff the golden graph is a bare spine
    assert all(c_count(GS, 2, n) == 1 for n in range(1, 12))
    assert c_words(GS, 2, 3) == [word("111")]
    with pytest.raises(TruncationInsufficient):
        c_count(GS, 3, 23)


def test_c_words_long_excursion():
    # the walker keeps an explicit stack, so a length far beyond the
    # interpreter's recursion limit is fine
    gs = build_graph_for_spec(GOLDEN, 1101)
    got = c_words(gs, 2, 1100)
    assert len(got) == c_count(gs, 2, 1100) == 1
    assert got == [(1,) * 1100]


def test_c_words_are_excursions():
    for L in (1, 2, 3):
        for n in range(1, 7):
            for w in c_words(FS, L, n):
                assert w[0] == FS.spine_label(L - 1)
                assert is_admissible(FIG, w) != "no"
                vseq = walk(FS, w, start=L - 1)
                assert vseq is not None and all(v >= L for v in vseq[1:])


def test_c_count_matches_a1_counts():
    # a_1^(n), the bound check's count of length-n paths from V_{L-1} that
    # stay at or above V_L, is the number of excursion words of length n
    for gs, Ls in ((GS, (1, 2, 3)), (FS, (1, 2, 3)), (BS, (2, 6))):
        for L in Ls:
            window = gs.K - (L - 1)
            a1s = path_counts(gs, window, L - 1, L)
            for n in range(1, window + 1):
                assert a1s[n] == c_count(gs, L, n)
                if n <= 10:
                    assert a1s[n] == len(c_words(gs, L, n))


def test_entropy_profile_selects_cutoff():
    prof = c_entropy_profile(GS, 8, 12, 0.3)
    assert prof.selected_L == 2
    tail = [r for r in prof.rows if r["L"] == 2 and r["n"] >= 6]
    assert all(r["estimate"] <= 0.3 for r in tail)
    # level 1 keeps full golden growth, far above the target
    lvl1 = [r for r in prof.rows if r["L"] == 1 and r["n"] == 12]
    assert lvl1[0]["estimate"] > 0.4
    csv_text = prof.to_csv()
    assert csv_text.splitlines()[0] == "L,n,count,estimate"


def test_entropy_profile_no_cutoff():
    prof = c_entropy_profile(GS, 1, 12, 0.05)
    assert prof.selected_L is None


def test_entropy_profile_non_finite_epsilon_raises():
    # no estimate compares above nan, which would select L = 1
    for eps in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            c_entropy_profile(GS, 4, 6, eps)
    assert c_entropy_profile(GS, 4, 6, -1.0).selected_L is None


def test_entropy_profile_refuses_nmax_below_one():
    # as Lmax below one is: a profile with no rows would select L = 1 vacuously
    for nmax in (0, -3):
        with pytest.raises(ValueError, match=f"nmax must be >= 1, got {nmax}"):
            c_entropy_profile(GS, 4, nmax, 0.3)
    assert c_entropy_profile(GS, 1, 1, 0.3).rows == [
        {"L": 1, "n": 1, "count": 1, "estimate": 0.0}]


def test_bound_check_branching_fixture():
    report = bound_check(BS, 6, 4, 3)
    assert report.far_edge_certified
    assert report.monotone_ok
    assert report.all_ok
    rows = {r["q"]: r for r in report.rows}
    assert rows[2]["n"] == 9 and rows[2]["a1"] == 2 and rows[2]["bound"] == 12
    assert rows[3]["n"] == 13 and rows[3]["a1"] == 2 and rows[3]["bound"] == 1728
    # the high region genuinely branches: counts exceed the bare spine
    assert any(a1 >= 2 for a1 in path_counts(BS, BS.K - 5, 5, 6)[1:])


def _monotone_by_sweep(graph, L):
    # monotone_ok counted out: a_v^(n) <= a_v^(n+1) for every start v whose
    # length-(n+1) paths fit, one path_counts sweep per start
    return all(c[n] <= c[n + 1]
               for v in range(L - 1, graph.K)
               for c in [path_counts(graph, graph.K - v, v, L)]
               for n in range(1, graph.K - v))


def _drawn_slices(count, seed):
    # slices of eventually periodic, alternately shift-maximal bounds
    # (alphabet 2-4, preperiod 0-5, period 1-6) and of rational-base prefixes
    rng = random.Random(seed)
    slices = []
    while len(slices) < count:
        K = rng.randint(1, 40)
        if rng.random() < 0.25:
            q = rng.randint(2, 30)
            p = rng.choice([p for p in range(q + 1, 4 * q) if p % q])
            spec = ShiftSpec.from_beta(BetaValue.from_rational(F(p, q)),
                                       prefix_len=K + 2)
            if spec.prefix_mode and len(spec.upper) >= K + 2:
                slices.append(build_graph_for_spec(spec, K))
            continue
        a = rng.randint(2, 4)
        pre = [rng.randint(1, a) for _ in range(rng.randint(0, 5))]
        per = [rng.randint(1, a) for _ in range(rng.randint(1, 6))]
        (pre if pre else per)[0] = a
        b = EvPeriodicSeq.make(pre, per)
        if b.digit(1) == a and is_alt_shift_maximal(b).status == "yes":
            slices.append(build_graph(b, K))
    return slices


def test_monotone_ok_matches_count_sweep():
    for gs in _drawn_slices(120, 20261019) + [GS, FS, BS]:
        for L in sorted({1, 2, 3, (gs.K + 1) // 2, gs.K} & set(range(1, gs.K + 1))):
            assert bound_check(gs, L, 2, 3).monotone_ok == \
                _monotone_by_sweep(gs, L), (gs.spine, gs.K, L)


def test_monotone_ok_reads_a_missing_spine_edge():
    for gs, L in ((GS, 2), (FS, 3), (BS, 6)):
        for u in (L, gs.K - 1):
            out = list(gs.out)
            out[u] = {a: t for a, t in out[u].items() if t != u + 1}
            broken = GraphSlice(gs.K, gs.spine, tuple(out), None)
            assert not bound_check(broken, L, 4, 3).monotone_ok, (gs.K, L, u)


def test_bound_check_spine_only_region():
    report = bound_check(GS, 2, 4, 3)
    assert report.all_ok
    assert all(r["a1"] == 1 for r in report.rows)


def test_split_examples():
    assert split(GS, 1, word("21111")) == ((), word("21111"))
    assert split(GS, 2, word("21111")) == (word("2"), word("1111"))
    assert split(GS, 1, word("11")) == (word("11"), ())
    # a bound prefix splits right before the cutoff spine digit
    assert split(FS, 3, word("323213")) == (word("32"), word("3213"))
    with pytest.raises(ValueError):
        split(GS, 2, word("212"))


def test_split_soundness():
    for spec, gs, L in ((GOLDEN, GS, 2), (FIG, FS, 2), (FIG, FS, 3)):
        for n in range(1, 12):
            for w in iter_words(spec, n):
                u, v = split(gs, L, w)
                assert u + v == w
                assert walk(gs, u)[-1] <= L - 1
                if v:
                    assert v[0] == gs.spine_label(L - 1)
                    tail = walk(gs, v, start=L - 1)
                    assert all(x >= L for x in tail[1:])


def test_t_gap():
    assert t_gap(FS, 4, 2) == 4
    assert t_gap(FS, 0, 1) == 0
    with pytest.raises(TruncationInsufficient):
        t_gap(GS, 4, 2)      # the golden graph never returns to the root
    with pytest.raises(TruncationInsufficient):
        t_gap(FS, 20, 2)


def test_glue_golden_fallback_search():
    res = glue(GS, GOLDEN, 2, 4, ["2", "2"])
    assert res.route == "search" and res.gap == 0
    assert res.block == word("22")
    assert periodic_block_ok(GOLDEN, res.block)
    res = glue(GS, GOLDEN, 2, 4, ["2", "21", "112"])
    assert len(set(len(v) for v in res.connectors)) == 1
    assert len(res.block) == len(res.x) + res.gap
    assert res.block[: len(res.words[0])] == res.words[0]
    upper = GOLDEN.upper
    for i in range(len(res.block)):
        rot = res.block[i:] + res.block[:i]
        assert alt_cmp_seq(EvPeriodicSeq.make((), rot), upper) <= 0


def test_glue_all_ones():
    res = glue(GS, GOLDEN, 2, 4, ["1", "1"])
    assert set(res.block) == {1}
    assert periodic_block_ok(GOLDEN, res.block)


def test_glue_paths_route():
    spec52 = ShiftSpec.from_beta(BetaValue.from_rational(F(5, 2)), prefix_len=60)
    gs52 = build_graph_for_spec(spec52, 24)
    res = glue(gs52, spec52, 2, 4, ["3", "32"])
    assert res.route == "paths"
    assert res.gap == t_gap(gs52, 4, 2) == 2
    assert res.verified.startswith("horizon")
    assert len(res.block) == len(res.x) + res.gap
    res_fig = glue(FS, FIG, 2, 3, ["3", "32"])
    assert res_fig.route == "paths"
    assert res_fig.verified == "exact"
    assert periodic_block_ok(FIG, res_fig.block)


def test_glue_reads_one_v0_distance_table(monkeypatch):
    # the gap and every connector's least return word come from one table
    # for V_0 .. V_{M+L-1}; a finite prefix makes each search cover the slice
    spec52 = ShiftSpec.from_beta(BetaValue.from_rational(F(5, 2)), prefix_len=62)
    gs52 = build_graph_for_spec(spec52, 60)
    real, calls = graphmod._dist_to_v0, []

    def spy(graph, upto):
        calls.append(upto)
        return real(graph, upto)

    for module in (graphmod, decomposition):
        monkeypatch.setattr(module, "_dist_to_v0", spy)
    res = glue(gs52, spec52, 2, 4, [(1,), (2,), (3,), (1, 1)])
    assert calls == [6]
    x = word("11121132111")
    assert res == GlueResult([(1,), (2,), (3,), (1, 1)],
                             [(1, 1), (1, 1), (2, 1), (1, 1)], 2, x, x + (1, 1),
                             13, "paths", "horizon:62")


def test_glue_guards():
    with pytest.raises(NotInGM):
        glue(GS, GOLDEN, 2, 1, ["2111111"])     # walks past M + L - 1
    with pytest.raises(NotInGM):
        glue(GS, GOLDEN, 2, 4, ["212"])         # not admissible
    ones_spec = ShiftSpec.make(EvPeriodicSeq.constant(1))
    ones_graph = build_graph_for_spec(ones_spec, 6)
    with pytest.raises(NoSelfLoop):
        glue(ones_graph, ones_spec, 1, 1, ["1"])


def test_glue_checks_M_and_L_before_the_words(monkeypatch):
    walked = []
    monkeypatch.setattr(decomposition, "walk",
                        lambda *args: walked.append(args) or [0, 1])
    for L, M, t in ((2, -1, None), (0, 4, None), (-3, 4, 2), (2, -1, 2)):
        with pytest.raises(ValueError, match=r"^M >= 0 and L >= 1 required$"):
            glue(GS, GOLDEN, L, M, ["2", "21"], t=t)
    assert walked == []


def test_glue_refuses_empty_word():
    with pytest.raises(ValueError, match="empty word"):
        glue(GS, GOLDEN, 2, 4, [()])
    with pytest.raises(ValueError, match="empty word"):
        glue(GS, GOLDEN, 2, 4, ["2", ""])


def test_glue_explicit_gap():
    res = glue(GS, GOLDEN, 2, 4, ["2", "2"], t=2)
    assert res.gap == 2
    assert periodic_block_ok(GOLDEN, res.block)
    with pytest.raises(GlueFailed):
        # without connectors the wrap-around run of ones has odd length
        glue(GS, GOLDEN, 2, 4, ["2", "21"], t=0)


def test_glue_refuses_a_negative_gap():
    # refused before any search: no connector has a length below zero
    with pytest.raises(ValueError, match="gap t must be >= 0, got -1"):
        glue(GS, GOLDEN, 2, 4, ["2"], t=-1)


def _reference_connectors(spec, words, gap, limits):
    # the first connector search: all alphabet^gap candidates filtered per
    # slot by the oracle, then slot-by-slot recursion under the budget
    m = len(words)
    cands = list(itertools.product(range(1, spec.alphabet + 1), repeat=gap))
    slots = [[v for v in cands if oracle.naive_admissible(
        spec, words[i] + v + words[(i + 1) % m]) != "no"] for i in range(m)]
    for limit in limits:
        budget, chosen = [limit], []

        def rec(i):
            if budget[0] <= 0:
                return False
            if i == m:
                budget[0] -= 1
                return periodic_block_ok(spec, sum(map(tuple.__add__, words, chosen), ()))
            for v in slots[i]:
                chosen.append(v)
                if rec(i + 1):
                    return True
                chosen.pop()
            return False

        yield list(chosen) if all(slots) and rec(0) else None


def test_glue_search_matches_reference():
    rng = random.Random(8)
    specs = [GOLDEN, FIG]
    while len(specs) < 5:
        upper = EvPeriodicSeq.make([rng.randint(1, 3) for _ in range(rng.randint(0, 2))],
                                   [rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
        if upper.max_digit > 1 and is_alt_shift_maximal(upper).status == "yes":
            specs.append(ShiftSpec.make(upper))
    limits = (1, 3, 200000)
    for spec in specs:
        gs = build_graph_for_spec(spec, 24)
        good = [w for n in (1, 2, 3) for w in iter_words(spec, n) if walk(gs, w)[-1] <= 5]
        for _ in range(4):
            words = [rng.choice(good) for _ in range(rng.randint(1, 3))]
            for gap in range(6):
                for limit, want in zip(limits, _reference_connectors(spec, words, gap, limits)):
                    try:
                        got = glue(gs, spec, 2, 4, words, t=gap, search_limit=limit).connectors
                    except GlueFailed:
                        got = None
                    assert got == want, (spec.upper, words, gap, limit)


def test_profile_estimates_nonincreasing_in_cutoff_observed():
    # observed property, reported rather than asserted: at fixed n the
    # excursion growth estimate does not increase with the cutoff
    violations = []
    for gs in (GS, FS):
        prof = c_entropy_profile(gs, 4, 10, 0.3)
        table = {(r["L"], r["n"]): r["estimate"] for r in prof.rows}
        for L in range(1, 4):
            for n in range(1, 11):
                if table[(L + 1, n)] > table[(L, n)] + 1e-12:
                    violations.append((L, n, table[(L, n)], table[(L + 1, n)]))
    if violations:
        print(f"\nnonmonotone excursion estimates observed: {violations}")
    assert isinstance(violations, list)


def test_path_counts_match_dense_matrix_powers():
    # A counts the edges i -> j with j >= L; the row sums of A^n are
    # A^n 1 = A (A^(n-1) 1), compared for every start v with v + n <= K
    for graph in (BS, FS, build_graph_for_spec(GOLDEN, 40)):
        K = graph.K
        for L in (0, 1, 2, 5):
            adj = [[list(graph.out[i].values()).count(j) if j >= L else 0
                    for j in range(K + 1)] for i in range(K + 1)]
            sums = [[1] * (K + 1)]
            for _ in range(K):
                sums.append([sum(a * s for a, s in zip(row, sums[-1]))
                             for row in adj])
            for v in range(K + 1):
                assert path_counts(graph, K - v, v, L) == [
                    sums[n][v] for n in range(K - v + 1)]
