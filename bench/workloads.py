"""Seeded workloads: job lists and the answer checks for each job.

Every job is one call a user would make, either into the library or into
the CLI (``negbeta.cli.main`` in process, with its own ``--out``
directory).  A job's check runs outside the timed region and decides
whether a returned answer is correct, using references that do not go
through the code path being timed: closed forms (Fibonacci and Lucas
numbers), ``negbeta.oracle``, a second algorithm of the library (graph
path counts against word enumeration), or a few lines of exact orbit
arithmetic.

Workloads:

* ``fixed-deep``: five fixed bounds, deep sweeps of the enumerators over a
  grid of n.  The language/order enumeration does nearly all the work and
  is amortised over few specs.  The seed sets the job order and which
  small n get a full oracle sweep.
* ``long-slice``: graph slices with thousands of vertices on fixed and
  seeded eventually periodic bounds, walks and counts on them, excursion
  profiles and gluing.  ``graph`` and ``decomposition`` dominate.
* ``many-bases``: one fresh spec per seeded rational base, with cheap
  queries on each.  ``numeric`` and spec construction dominate and nothing
  is amortised.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

FIGURE = "3232133"
BRANCHY = "3123111312"


@dataclass
class Job:
    """One timed call.

    Library jobs return their answer; ``check(answer)`` says whether it is
    correct.  CLI jobs carry ``argv`` (without ``--out``); the harness runs
    them and hands ``check`` the written files as ``{name: bytes}``.
    """

    name: str
    check: Callable[[Any], bool]
    run: Optional[Callable[[], Any]] = None
    argv: Optional[list] = None
    # for a documented refusal: whether refusing was right (default: yes)
    refusal_ok: Optional[Callable[[], bool]] = None


@dataclass
class Workload:
    jobs: list
    prepare: Callable[[], None] = field(default=lambda: None)

    @property
    def digest(self) -> str:
        """Digest of the generated inputs; job names spell out every input."""
        text = "\n".join(job.name for job in self.jobs)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def fib_counts(nmax: int) -> list[int]:
    """Admissible word counts of the golden shift, n = 1..nmax: the
    Fibonacci numbers F(n+3) - 1, i.e. 2, 4, 7, 12, 20, ..."""
    out, a, b = [], 3, 5
    for _ in range(nmax):
        out.append(a - 1)
        a, b = b, a + b
    return out


def golden_per_count(n: int) -> int:
    """Period-n blocks of the golden shift: Lucas(n) - (-1)^n."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a - (-1) ** n


def _digits(w) -> str:
    return "".join(map(str, w))


class Reference:
    """Memoized reference answers for the checks of one workload run."""

    def __init__(self, nb):
        self.nb = nb
        self.oracle = nb.oracle
        self._memo: dict = {}

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- word counts ----------------------------------------------------

    def oracle_count(self, key: str, spec, n: int) -> int:
        def compute():
            return sum(1 for w in itertools.product(range(1, spec.alphabet + 1),
                                                    repeat=n)
                       if self.oracle.naive_admissible(spec, w) == "yes")
        return self.memo(("oracle_count", key, n), compute)

    def oracle_limit(self, spec) -> int:
        # largest n whose full alphabet^n sweep stays cheap
        return {2: 12, 3: 8}.get(spec.alphabet, 6)

    def graph_counts(self, key: str, spec, nmax: int) -> list[int]:
        """Counts from path counts on a graph slice (one-sided specs)."""
        got = self._memo.get(("graph_counts", key), [])
        if len(got) < nmax:
            g = self.nb.graph.build_graph(spec.upper, nmax + 1)
            got = [self.nb.graph.path_count(g, n) for n in range(1, nmax + 1)]
            self._memo[("graph_counts", key)] = got
        return got[:nmax]

    def word_counts(self, key: str, spec, nmax: int) -> list[int]:
        """Counts by word enumeration (count_words), for graph checks."""
        got = self._memo.get(("word_counts", key), [])
        if len(got) < nmax:
            table = self.nb.language.count_words(spec, nmax)
            got = [r["count_words"] for r in table.rows]
            self._memo[("word_counts", key)] = got
        return got[:nmax]

    def counts_ok(self, key: str, spec, counts: list[int]) -> bool:
        """Check counts[n-1] = #admissible words of length n, n = 1.. ."""
        nmax = len(counts)
        if key == "golden":
            return counts == fib_counts(nmax)
        if not spec.two_sided:
            return counts == self.graph_counts(key, spec, nmax)
        lim = min(nmax, self.oracle_limit(spec))
        if counts[:lim] != [self.oracle_count(key, spec, n) for n in range(1, lim + 1)]:
            return False
        # beyond the oracle's reach: every word extends, and by at most
        # alphabet digits
        return all(a <= b <= a * spec.alphabet for a, b in zip(counts, counts[1:]))

    # -- periodic blocks --------------------------------------------------

    def block_in_bounds(self, spec, block) -> bool:
        n = len(block)
        return all(self.oracle._repeat_in_bounds(spec, block[i:] + block[:i])
                   for i in range(n))

    def per_blocks(self, key: str, spec, n: int, full_oracle: bool) -> list:
        """Period-n blocks: the full oracle sweep for small sampled n, or the
        admissible words of length n filtered by the oracle's exact
        periodic-repetition test."""
        def compute():
            if full_oracle:
                return sorted(self.oracle.naive_per(spec, n))
            words = self.nb.language.iter_words(spec, n)
            return [w for w in words if self.block_in_bounds(spec, w)]
        blocks = self.memo(("per", key, n, full_oracle), compute)
        if key == "golden" and len(blocks) != golden_per_count(n):
            raise AssertionError("golden period blocks disagree with Lucas numbers")
        return blocks


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def fixed_specs(nb) -> dict:
    language, order, numeric = nb.language, nb.order, nb.numeric
    return {
        "golden": language.ShiftSpec.golden(),
        "figure": language.ShiftSpec.make(order.EvPeriodicSeq.make((), order.word(FIGURE))),
        "branchy": language.ShiftSpec.make(order.EvPeriodicSeq.make((), order.word(BRANCHY))),
        "beta2": language.ShiftSpec.from_beta(numeric.BetaValue.from_rational(2)),
        "beta13/10": language.ShiftSpec.from_beta(numeric.BetaValue.parse("13/10")),
    }


def _bound_text(bound) -> str:
    pre = " ".join(map(str, bound.preperiod))
    per = " ".join(map(str, bound.period))
    return f"{pre} | {per}\n"


def _cli_argv(tmp: Path, argv: list) -> list:
    """Input files named in a CLI job live in the run's scratch directory."""
    return [str(tmp / a) if a.endswith(".txt") else a for a in argv]


def _read_json(files: dict, name: str) -> dict:
    return json.loads(files[name])


# ---------------------------------------------------------------------------
# fixed-deep
# ---------------------------------------------------------------------------

FIXED_DEEP_GRID = {
    # spec: (count_words n, per_points n, mu_n (n, m), htop_estimate n)
    "golden": (range(6, 17), range(4, 12), [(8, 3), (10, 4)], [8, 10]),
    "figure": (range(4, 10), range(3, 7), [(6, 3)], [6]),
    "branchy": (range(4, 9), range(3, 7), [(6, 3)], [6]),
    "beta2": (range(4, 12), range(3, 8), [(6, 3), (7, 3)], [6, 7]),
    "beta13/10": (range(6, 21, 2), range(4, 11), [(8, 4), (10, 4)], [10, 14]),
}
FACTOR_DEPTHS = {"beta2": range(6, 10), "beta13/10": range(6, 15, 2)}
CLI_SOURCE = {"golden": ["--beta", "golden"], "figure": ["--b-file", "figure.txt"],
              "branchy": ["--b-file", "branchy.txt"], "beta2": ["--beta", "2"],
              "beta13/10": ["--beta", "13/10"]}
FIXED_DEEP_CLI = [
    ("entropy", "golden", ["--n", "8"]), ("entropy", "golden", ["--n", "10"]),
    ("entropy", "figure", ["--n", "6"]), ("entropy", "beta2", ["--n", "6"]),
    ("entropy", "beta13/10", ["--n", "10"]),
    ("measure", "golden", ["--n", "8", "--m", "4", "--L", "2"]),
    ("measure", "golden", ["--n", "9", "--m", "4", "--L", "2"]),
    ("measure", "beta2", ["--n", "6", "--m", "3", "--L", "2"]),
    ("factor", "beta2", ["--depth", "8"]), ("factor", "beta2", ["--depth", "9"]),
    ("factor", "beta13/10", ["--depth", "12"]),
]


def fixed_deep(nb, seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    specs = fixed_specs(nb)
    ref = Reference(nb)
    language, measures, factors = nb.language, nb.measures, nb.factors
    (tmp / "figure.txt").write_text("| " + " ".join(FIGURE) + "\n")
    (tmp / "branchy.txt").write_text("| " + " ".join(BRANCHY) + "\n")
    # the seeded sample of small n that gets a full oracle sweep
    oracle_n = {key: rng.choice([n for n in per_ns if n <= 6])
                for key, (_, per_ns, _, _) in FIXED_DEEP_GRID.items()}
    jobs: list[Job] = []

    def per_ok(key, n):
        spec = specs[key]
        return lambda got: got == ref.per_blocks(key, spec, n, n == oracle_n[key])

    for key, (count_ns, per_ns, mu_args, htop_ns) in FIXED_DEEP_GRID.items():
        spec = specs[key]
        for n in count_ns:
            jobs.append(Job(
                f"count_words/{key}/n={n}",
                lambda got, key=key, spec=spec: ref.counts_ok(
                    key, spec, [r["count_words"] for r in got.rows]),
                lambda spec=spec, n=n: language.count_words(spec, n)))
        for n in per_ns:
            jobs.append(Job(f"per_points/{key}/n={n}", per_ok(key, n),
                            lambda spec=spec, n=n: language.per_points(spec, n)))
        for n, m in mu_args:
            def mu_ok(got, key=key, spec=spec, n=n):
                return (got.check_normalization() and got.check_consistency()
                        and got.per_count == len(ref.per_blocks(key, spec, n, False)))
            jobs.append(Job(f"mu_n/{key}/n={n}/m={m}", mu_ok,
                            lambda spec=spec, n=n, m=m: measures.mu_n(spec, n, m)))
        for n in htop_ns:
            def htop_ok(got, key=key, spec=spec, n=n):
                pn = min(n, 12)
                return (ref.counts_ok(key, spec, got.word_counts)
                        and len(got.word_counts) == n
                        and got.per_counts == [len(ref.per_blocks(key, spec, k, False))
                                               for k in range(1, pn + 1)]
                        and got.value == math.log(got.word_counts[-1]) / n)
            jobs.append(Job(f"htop_estimate/{key}/n={n}", htop_ok,
                            lambda spec=spec, n=n: measures.htop_estimate(spec, n)))
    for key, depths in FACTOR_DEPTHS.items():
        spec = specs[key]
        build = (lambda spec=spec: factors.build_case2_code(spec)) if key == "beta2" \
            else (lambda spec=spec: factors.build_case1_code(spec))
        for d in depths:
            jobs.append(Job(f"verify_factor/{key}/depth={d}", lambda got: got.passed,
                            lambda build=build, spec=spec, d=d:
                                factors.verify_factor(build(), spec, d)))
    for verb, key, extra in FIXED_DEEP_CLI:
        argv = [verb, *CLI_SOURCE[key], *extra]
        jobs.append(Job("cli/" + " ".join(argv),
                        _fixed_cli_check(ref, verb, key, specs[key], extra),
                        argv=_cli_argv(tmp, argv)))
    rng.shuffle(jobs)
    return Workload(jobs)


def _fixed_cli_check(ref: Reference, verb: str, key: str, spec, extra: list):
    opts = dict(zip(extra[::2], extra[1::2]))

    def check(files: dict) -> bool:
        if verb == "entropy":
            doc = _read_json(files, "entropy.json")
            n = int(opts["--n"])
            counts = doc["htop"]["word_counts"]
            csv_counts = [int(line.split(",")[1])
                          for line in files["counts.csv"].decode().splitlines()[3:]]
            return (len(counts) == n and ref.counts_ok(key, spec, counts)
                    and csv_counts == counts)
        if verb == "measure":
            doc = _read_json(files, "measure.json")
            n = int(opts["--n"])
            masses = doc["measure"]["masses"]
            level1 = sum(Fraction(q) for w, q in masses.items() if len(w) == 1)
            return (level1 == 1 and doc["measure"]["per_count"]
                    == len(ref.per_blocks(key, spec, n, False)))
        doc = _read_json(files, "factor_report.json")
        return doc["report"]["passed"] is True
    return check


# ---------------------------------------------------------------------------
# long-slice
# ---------------------------------------------------------------------------

# (alphabet, preperiod length, period length) of each seeded bound
SEEDED_BOUND_SHAPES = [(2, 1, 5), (3, 2, 6), (3, 1, 7), (2, 2, 8)]
SLICE_K = 2000
BUILD_KS = (1000, 2000, 3000)
PATH_NS = (150, 400, 800)
GLUE_K, GLUE_L, GLUE_M = 24, 2, 4


def seeded_bound(nb, rng: random.Random, alphabet: int, pre_len: int, per_len: int):
    """A random eventually periodic, alternately shift-maximal bound."""
    order = nb.order
    while True:
        pre = [alphabet] + [rng.randint(1, alphabet) for _ in range(pre_len - 1)]
        per = [rng.randint(1, alphabet) for _ in range(per_len)]
        bound = order.EvPeriodicSeq.make(pre, per)
        if (bound.preperiod and bound.digit(1) == alphabet
                and order.is_alt_shift_maximal(bound).status == "yes"):
            return bound


def _glue_pool(g, rng: random.Random, count: int) -> list:
    """Distinct good words: random walks from V_0 that end below M + L."""
    pool, seen = [], set()
    while len(pool) < count:
        v, labels = 0, []
        for _ in range(rng.randint(1, 6)):
            label = rng.choice(sorted(g.out[v]))
            labels.append(label)
            v = g.out[v][label]
        w = tuple(labels)
        if v <= GLUE_M + GLUE_L - 1 and w not in seen:
            seen.add(w)
            pool.append(w)
    return pool


def long_slice(nb, seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    specs = fixed_specs(nb)
    ref = Reference(nb)
    graph, decomposition, language = nb.graph, nb.decomposition, nb.language
    bounds = {key: specs[key].upper for key in ("golden", "figure", "branchy")}
    for i, shape in enumerate(SEEDED_BOUND_SHAPES):
        bound = seeded_bound(nb, rng, *shape)
        bounds[f"seeded{i}:{bound}"] = bound
    slice_specs = {key: specs.get(key) or language.ShiftSpec.make(b)
                   for key, b in bounds.items()}
    glue_specs = {"golden": specs["golden"], "figure": specs["figure"],
                  "beta5/2": language.ShiftSpec.from_beta(nb.numeric.BetaValue.parse("5/2"))}
    seeded0 = next(k for k in bounds if k.startswith("seeded0"))
    for key, name in (("figure", "figure"), ("branchy", "branchy"), (seeded0, "seeded0")):
        (tmp / f"{name}.txt").write_text(_bound_text(bounds[key]))

    glue_slices = {key: graph.build_graph_for_spec(spec, GLUE_K)
                   for key, spec in glue_specs.items()}
    slices: dict = {}

    def prepare():
        for key, b in bounds.items():
            slices[key] = graph.build_graph(b, SLICE_K)

    jobs: list[Job] = []
    for key, b in bounds.items():
        spec = slice_specs[key]
        ks = BUILD_KS if key in ("golden", "figure", "branchy") else (SLICE_K,)
        for K in ks:
            def built_ok(g, key=key, spec=spec, K=K):
                counts = [graph.path_count(g, n) for n in range(1, 11)]
                return (g.K == K and len(g.out) == K + 1
                        and counts == ref.word_counts(key, spec, 10))
            jobs.append(Job(f"build_graph/{key}/K={K}", built_ok,
                            lambda b=b, K=K: graph.build_graph(b, K)))
        for base in PATH_NS:
            n = base + rng.randint(0, 20)
            jobs.append(Job(f"path_count/{key}/n={n}",
                            _path_count_check(ref, key, spec, slices, n),
                            lambda key=key, n=n: graph.path_count(slices[key], n)))
        for N in (1, 2, 3, 4):
            jobs.append(Job(f"gap_scan/{key}/N={N}",
                            lambda got, key=key, N=N: got == _gap_scan_ref(slices[key], N),
                            lambda key=key, N=N: graph.gap_scan(slices[key], N)))
        jobs.append(Job(f"c_entropy_profile/{key}/Lmax=6/nmax=40",
                        lambda got, key=key: _profile_ok(nb, slices[key], got),
                        lambda key=key: decomposition.c_entropy_profile(
                            slices[key], 6, 40, 0.3)))
    for key in ("golden", "figure", "branchy"):
        # V_0 is out of reach from most of these vertices: the slice refuses
        for i in range(10):
            jobs.append(Job(f"shortest_path_to_v0/{key}/i={i}",
                            lambda got, key=key, i=i: _return_path_ok(slices[key], i, got),
                            lambda key=key, i=i: graph.shortest_path_to_v0(slices[key], i),
                            refusal_ok=lambda key=key, i=i:
                                _reaches_root(slices[key], i) is None))
    for L in (2, 3):
        for n in (60, 250, 500):
            jobs.append(Job(f"c_words/golden/L={L}/n={n}",
                            lambda got, L=L, n=n: _c_words_ok(nb, slices["golden"], L, n, got),
                            lambda L=L, n=n: decomposition.c_words(slices["golden"], L, n)))
    # The excursion words of length 1100 are a single word; the recursive
    # enumerator exceeds Python's recursion limit on it.
    jobs.append(Job("c_words/golden/L=2/n=1100",
                    lambda got: _c_words_ok(nb, slices["golden"], 2, 1100, got),
                    lambda: decomposition.c_words(slices["golden"], 2, 1100)))

    glue_words = {}
    for key, g in glue_slices.items():
        pool = _glue_pool(g, rng, 12)
        glue_words[key] = [tuple(rng.sample(pool, rng.randint(1, 3))) for _ in range(6)]
    for key, tuples in glue_words.items():
        spec = glue_specs[key]
        t = 2 if key == "beta5/2" else None
        for words in tuples:
            label = ",".join(map(_digits, words))
            jobs.append(Job(f"glue/{key}/t={t}/words={label}",
                            lambda got, spec=spec, words=words, t=t:
                                _glue_ok(ref, spec, words, t, got),
                            lambda key=key, spec=spec, words=words, t=t:
                                decomposition.glue(glue_slices[key], spec, GLUE_L,
                                                   GLUE_M, words, t=t)))
    for argv_src, key, K, fmt in ((["--beta", "golden"], "golden", 2000, "json"),
                                  (["--b-file", "figure.txt"], "figure", 1000, "dot"),
                                  (["--b-file", "branchy.txt"], "branchy", 1000, "json"),
                                  (["--b-file", "seeded0.txt"], seeded0, 1000, "dot")):
        extra = ["--K", str(K), "--n", "40", "--format", fmt]
        argv = _cli_argv(tmp, ["graph", *argv_src, *extra])
        jobs.append(Job("cli/" + " ".join(["graph", *argv_src, *extra]) + f" [{key}]",
                        _graph_cli_check(ref, key, slice_specs[key], fmt, slices),
                        argv=argv))
    for key, src in (("golden", ["--beta", "golden"]), ("figure", ["--b-file", "figure.txt"])):
        words = glue_words[key][0]
        words_file = tmp / f"words-{key}.txt"
        words_file.write_text("".join(_digits(w) + "\n" for w in words))
        extra = ["--L", str(GLUE_L), "--M", str(GLUE_M)]
        argv = _cli_argv(tmp, ["glue", *src, "--words-file", words_file.name, *extra])
        jobs.append(Job("cli/" + " ".join(["glue", *src, *extra])
                        + f" words={','.join(map(_digits, words))}",
                        lambda files, spec=glue_specs[key], words=words:
                            _glue_ok(ref, spec, words, None,
                                     _read_json(files, "glue.json")["glue"]),
                        argv=argv))
    rng.shuffle(jobs)
    return Workload(jobs, prepare)


def _path_count_check(ref: Reference, key: str, spec, slices: dict, n: int):
    def check(got) -> bool:
        if key == "golden":
            return got == fib_counts(n)[-1]
        # no closed form: bracket by the count one step shorter
        prev = ref.nb.graph.path_count(slices[key], n - 1)
        return prev <= got <= prev * spec.alphabet
    return check


def _gap_scan_ref(g, N: int):
    worst = -1
    for src, table in enumerate(g.out):
        for dst in table.values():
            if 0 <= src - dst <= N:
                worst = max(worst, src)
    if worst < 0:
        return 0
    return worst + 1 if worst + 1 <= g.K else None


def _reaches_root(g, i: int) -> Optional[int]:
    """Breadth-first distance from V_i to V_0 inside the slice."""
    dist = {i: 0}
    frontier = [i]
    while frontier:
        nxt = []
        for v in frontier:
            if v == 0:
                return dist[v]
            for dst in g.out[v].values():
                if dst not in dist:
                    dist[dst] = dist[v] + 1
                    nxt.append(dst)
        frontier = nxt
    return None


def _return_path_ok(g, i: int, got) -> bool:
    dist, labels = got
    v = i
    for a in labels:
        if a not in g.out[v]:
            return False
        v = g.out[v][a]
    return v == 0 and dist == len(labels) == _reaches_root(g, i)


def _profile_ok(nb, g, prof) -> bool:
    tail_start = max(1, (prof.nmax + 1) // 2)
    selected = None
    for L in range(1, max(r["L"] for r in prof.rows) + 1):
        rows = [r for r in prof.rows if r["L"] == L]
        if [r["n"] for r in rows] != list(range(1, prof.nmax + 1)):
            return False
        for r in rows[:8]:
            if r["count"] != len(nb.decomposition.c_words(g, L, r["n"])):
                return False
        if selected is None and all(r["estimate"] <= prof.epsilon
                                    for r in rows if r["n"] >= tail_start):
            selected = L
    return selected == prof.selected_L


def _c_words_ok(nb, g, L: int, n: int, got) -> bool:
    if len(got) != nb.decomposition.c_count(g, L, n) or len(set(got)) != len(got):
        return False
    for w in got:
        if len(w) != n or w[0] != g.spine[L - 1]:
            return False
        v = L
        for a in w[1:]:
            v = g.out[v].get(a, -1)
            if v < L:
                return False
    return True


def _glue_ok(ref: Reference, spec, words, t, got) -> bool:
    # works for both the GlueResult object and its JSON form
    if isinstance(got, dict):
        words_got = [tuple(map(int, w)) for w in got["words"]]
        conns = [tuple(map(int, v)) for v in got["connectors"]]
        block, route, gap = tuple(map(int, got["block"])), got["route"], got["gap"]
    else:
        words_got, conns = list(got.words), list(got.connectors)
        block, route, gap = got.block, got.route, got.gap
    assembled = ()
    for w, v in zip(words_got, conns):
        assembled += w + v
    return (words_got == [tuple(w) for w in words] and assembled == block
            and all(len(v) == gap for v in conns)
            and (t is None or (gap == t and route == "search"))
            and ref.block_in_bounds(spec, block))


def _graph_cli_check(ref: Reference, key: str, spec, fmt: str, slices: dict):
    def check(files: dict) -> bool:
        report = _read_json(files, "graph_report.json")
        counts = report["path_counts"]
        if key == "golden":
            counts_ok = counts == fib_counts(len(counts))
        else:
            counts_ok = counts[:10] == ref.word_counts(key, spec, 10)
        if fmt == "json":
            K = _read_json(files, "graph.json")["graph"]["K"]
        else:
            K = files["graph.dot"].decode().count("shape=") - 1
        g = ref.nb.graph.build_graph(spec.upper, K)
        return counts_ok and report["gap_scan_N1"] == _gap_scan_ref(g, 1)
    return check


# ---------------------------------------------------------------------------
# many-bases
# ---------------------------------------------------------------------------

# Integer parts and denominators of the seeded bases a + r/q: one base per
# pair, with r drawn coprime to q, so every seed gets the same mix of
# alphabet sizes and denominator sizes.
BASE_INTEGER_PARTS = (1, 2, 3)
BASE_DENOMINATORS = (3, 4, 5, 7, 8, 9, 11)
HORIZON = 256
# Point queries per base, by word length.  They are most of the jobs, so
# job_p50_ms falls among them and shows per-spec costs paid on first use.
ADMISSIBLE_LENGTHS = (4, 6, 8, 10, 12, 14)
BLOCK_LENGTHS = (3, 5, 7, 9)


def _orbit(beta: Fraction, steps: int) -> tuple[list[int], Optional[int], Optional[int]]:
    """Digits of 1 under x -> -beta x + floor(beta x) + 1, with the first
    repeated orbit value (start index and period) if seen within steps."""
    seen: dict = {}
    digits: list[int] = []
    x = Fraction(1)
    for t in range(steps):
        if x in seen:
            return digits, seen[x], t - seen[x]
        seen[x] = t
        d = math.floor(beta * x) + 1
        digits.append(d)
        x = d - beta * x
    return digits, None, None


def _ref_digits(beta: Optional[Fraction], n: int) -> list[int]:
    if beta is None:   # golden: 2 1 1 1 ...
        return [2] + [1] * (n - 1)
    out, x = [], Fraction(1)
    for _ in range(n):
        d = math.floor(beta * x) + 1
        out.append(d)
        x = d - beta * x
    return out


def many_bases(nb, seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    numeric, language = nb.numeric, nb.language
    ref = Reference(nb)
    bases: list[tuple[str, Optional[Fraction]]] = [("golden", None), ("2", Fraction(2)),
                                                    ("3", Fraction(3))]
    for a in BASE_INTEGER_PARTS:
        for q in BASE_DENOMINATORS:
            r = rng.choice([r for r in range(1, q) if math.gcd(r, q) == 1])
            beta = a + Fraction(r, q)
            bases.append((f"{beta.numerator}/{beta.denominator}", beta))
    rng.shuffle(bases)
    specs: dict = {}
    jobs: list[Job] = []
    for label, exact in bases:
        value = numeric.BetaValue.parse(label)
        alphabet = math.floor(exact) + 1 if exact is not None else 2
        spec_key = f"spec/{label}"

        def spec_of(label=label):
            return specs[label]

        def from_beta(value=value, label=label):
            spec = language.ShiftSpec.from_beta(value)
            specs[label] = spec   # the base's later jobs query this spec
            return spec

        jobs.append(Job(f"from_beta/{label}",
                        lambda got, exact=exact: _spec_ok(got, exact), from_beta))
        jobs.append(Job(f"classify_d1/{label}/h={HORIZON}",
                        lambda got, exact=exact: _classify_ok(got, exact),
                        lambda value=value: numeric.classify_d1(value, HORIZON)))
        jobs.append(Job(f"golden_test/{label}",
                        lambda got, exact=exact: got == _golden_ref(exact),
                        lambda value=value: numeric.golden_test(value)))
        jobs.append(Job(f"expand/{label}/n=40",
                        lambda got, exact=exact: got.complete and list(got.digits)
                            == _ref_digits(exact, 40),
                        lambda value=value: numeric.expand(value, 1, 40)))
        jobs.append(Job(f"count_words/{label}/n=6",
                        lambda got, label=label, spec_key=spec_key:
                            [r["count_words"] for r in got.rows]
                            == [ref.oracle_count(spec_key, specs[label], n)
                                for n in range(1, 7)],
                        lambda spec_of=spec_of: language.count_words(spec_of(), 6)))
        for length in ADMISSIBLE_LENGTHS:
            w = _biased_word(rng, alphabet, length)
            jobs.append(Job(f"is_admissible/{label}/w={_digits(w)}",
                            lambda got, label=label, w=w:
                                got == ref.oracle.naive_admissible(specs[label], w),
                            lambda spec_of=spec_of, w=w: language.is_admissible(spec_of(), w)))
        for length in BLOCK_LENGTHS:
            w = _biased_word(rng, alphabet, length)
            jobs.append(Job(f"periodic_block_ok/{label}/w={_digits(w)}",
                            lambda got, label=label, w=w:
                                got == ref.block_in_bounds(specs[label], w),
                            lambda spec_of=spec_of, w=w:
                                language.periodic_block_ok(spec_of(), w)))
        jobs.append(Job(f"cli/expand --beta {label} --n 40",
                        lambda files, exact=exact: _expand_cli_ok(files, exact),
                        argv=["expand", "--beta", label, "--n", "40"]))
    # Spec construction is itself a timed job, so the other jobs of a base
    # run after it; bases stay interleaved in seeded order.
    return Workload(jobs)


def _biased_word(rng: random.Random, alphabet: int, n: int) -> tuple:
    # ones are frequent in admissible words, so favour them
    return tuple(1 if rng.random() < 0.5 else rng.randint(1, alphabet) for _ in range(n))


def _golden_ref(exact: Optional[Fraction]) -> str:
    if exact is None:
        return "at_or_above"
    p, q = exact.numerator, exact.denominator
    return "below" if (2 * p - q) ** 2 < 5 * q * q else "at_or_above"


def _classify_ok(got, exact: Optional[Fraction]) -> bool:
    if exact is None:
        return got.kind == "no_cycle" and list(got.digits) == _ref_digits(None, HORIZON)
    digits, start, period = _orbit(exact, HORIZON)
    if start is None:
        kind = "no_cycle"
    elif start == 0:
        kind = "periodic_odd" if period % 2 else "periodic_even"
    else:
        kind = "eventually_periodic"
    return (got.kind == kind and got.period == period and list(got.digits) == digits
            and (got.preperiod == start if start is not None else got.preperiod is None))


def _spec_ok(spec, exact: Optional[Fraction]) -> bool:
    n = 40 if not spec.prefix_mode else min(40, int(spec.upper_len()))
    ref = _ref_digits(exact, n)
    if [spec.upper_digit(i) for i in range(1, n + 1)] != ref:
        return False
    if exact is None:
        return spec.prefix_mode and not spec.two_sided
    _, start, period = _orbit(exact, HORIZON)
    if start is None:
        return spec.prefix_mode and spec.upper_len() == 64 and not spec.two_sided
    return (not spec.prefix_mode
            and spec.two_sided == (start == 0 and period % 2 == 1))


def _expand_cli_ok(files: dict, exact: Optional[Fraction]) -> bool:
    doc = _read_json(files, "expand.json")
    return (doc["digits"] == _digits(_ref_digits(exact, 40))
            and doc["golden_test"] == _golden_ref(exact)
            and doc["certified"] == 40)


WORKLOADS = {
    "fixed-deep": fixed_deep,
    "long-slice": long_slice,
    "many-bases": many_bases,
}
