import hashlib
import json
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from negbeta import cli, decomposition, factors, language, measures, numeric
from negbeta.cli import main
from negbeta.numeric import BetaValue, golden_test


def run(args):
    return main([str(a) for a in args])


def test_expand_and_determinism(tmp_path):
    out = tmp_path / "a"
    assert run(["expand", "--beta", "13/10", "--n", "20", "--out", out]) == 0
    doc = json.loads((out / "expand.json").read_text())
    assert doc["digits"].startswith("2112")
    assert doc["golden_test"] == "below"
    assert doc["format_version"] == "negbeta/1"
    assert doc["config"]["beta"] == "13/10"
    first = (out / "expand.json").read_bytes()
    assert run(["expand", "--beta", "13/10", "--n", "20", "--out", out]) == 0
    assert (out / "expand.json").read_bytes() == first


def test_expand_walks_the_orbit_once(tmp_path, monkeypatch):
    # an exact base's classification and golden test need no walk: the
    # orbit is walked for the 30 digits printed, once
    steps = []
    orbit = numeric._orbit

    def counted(*args, **kwargs):
        for step in orbit(*args, **kwargs):
            steps.append(step)
            yield step

    monkeypatch.setattr(numeric, "_orbit", counted)
    assert run(["expand", "--beta", "13/10", "--n", "30", "--out", tmp_path]) == 0
    assert len(steps) == 30
    doc = json.loads((tmp_path / "expand.json").read_text())
    assert doc["digits"] == "".join(str(d) for d, *_ in steps)
    assert doc["certified"] == 30 and doc["status"] == ["complete"]


@pytest.mark.parametrize("n, horizon", [(30, 100), (300, 100)])
def test_expand_walks_an_interval_base_once(tmp_path, monkeypatch, n, horizon):
    # golden's classification reads the first horizon digits of the one walk
    calls = []

    def counted(beta, x, steps):
        calls.append(steps)
        return numeric.expand(beta, x, steps)

    monkeypatch.setattr(cli, "expand", counted)
    assert run(["expand", "--beta", "golden", "--n", n, "--horizon", horizon,
                "--out", tmp_path]) == 0
    assert calls == [max(n, horizon)]
    doc = json.loads((tmp_path / "expand.json").read_text())
    assert doc["digits"] == "2" + "1" * (n - 1) and doc["status"] == ["complete"]


def test_expand_golden_test_field_on_golden(tmp_path):
    # the field is read off the classification's certified prefix
    beta = BetaValue.parse("golden")
    for horizon in (1, 8, 256):
        out = tmp_path / f"h{horizon}"
        assert run(["expand", "--beta", "golden", "--horizon", horizon,
                    "--out", out]) == 0
        doc = json.loads((out / "expand.json").read_text())
        assert doc["golden_test"] == golden_test(beta, horizon=horizon)


def test_expand_golden_deep(tmp_path):
    out = tmp_path / "deep"
    assert run(["expand", "--beta", "golden", "--n", "2000", "--out", out]) == 0
    doc = json.loads((out / "expand.json").read_text())
    assert doc["digits"] == "2" + "1" * 1999 and doc["certified"] == 2000


@pytest.mark.parametrize("args, status", [
    (["--n", "5", "--horizon", "100000"], ["complete"]),
    (["--n", "10000"], ["precision_exhausted", 5901])])
def test_expand_golden_past_the_ladder(tmp_path, args, status):
    # the 4096-bit ladder certifies 5901 digits, and the inward bracket
    # ends the walk there in linear time
    t0 = time.perf_counter()
    assert run(["expand", "--beta", "golden", *args, "--out", tmp_path]) == 0
    assert time.perf_counter() - t0 < 60
    doc = json.loads((tmp_path / "expand.json").read_text())
    assert doc["status"] == status and doc["golden_test"] == "at_or_above"


def test_graph_outputs(tmp_path):
    out = tmp_path / "g"
    assert run(["graph", "--beta", "golden", "--K", "8", "--out", out]) == 0
    dot = (out / "graph.dot").read_text()
    assert dot.splitlines()[0].startswith("// format_version")
    assert 'V0 -> V1 [label="2"];' in dot
    report = json.loads((out / "graph_report.json").read_text())
    assert report["path_counts"][:3] == [2, 4, 7]
    assert run(["graph", "--beta", "golden", "--K", "6", "--format", "json",
                "--out", out]) == 0
    js = json.loads((out / "graph.json").read_text())
    assert js["graph"]["K"] == 6


def test_graph_counts_every_length_by_default(tmp_path):
    out = tmp_path / "g400"
    assert run(["graph", "--beta", "golden", "--K", "400", "--out", out]) == 0
    report = json.loads((out / "graph_report.json").read_text())
    fib = [0, 1]
    while len(fib) < 404:
        fib.append(fib[-1] + fib[-2])
    # golden words of length n number F(n+3) - 1
    assert report["path_counts"] == [fib[n + 3] - 1 for n in range(1, 401)]


def test_graph_count_length_below_one_exits_2(tmp_path, capsys):
    # --n 0 is not "omitted", and a negative length counts nothing
    for n in ("0", "-1"):
        out = tmp_path / f"n{n}"
        assert run(["graph", "--beta", "golden", "--K", "6", "--n", n,
                    "--out", out]) == 2
        assert capsys.readouterr().err == f"error: --n >= 1 required, got {n}\n"
        assert not out.exists()
    out = tmp_path / "n1"
    assert run(["graph", "--beta", "golden", "--K", "6", "--n", "1",
                "--out", out]) == 0
    report = json.loads((out / "graph_report.json").read_text())
    assert report["path_counts"] == [2]


# SHA-256 of every file that the long-slice benchmark's four graph verbs
# and the README's two graph examples write, run in one directory with
# relative paths, since every file embeds its configuration
GRAPH_DIGESTS = {
    "graph --beta golden --K 2000 --n 40 --format json": {
        "graph.json": "334122c9be9594711b667cc4d9bd4b33d7e800fa384902406a04c1eb1d0353fe",
        "graph_report.json": "b67d035126a74039b2cd731e9f3a8beddf834d261b107e60bedf247f829e89b5"},
    "graph --b-file figure.txt --K 1000 --n 40 --format dot": {
        "graph.dot": "9c806c0d034ba1f22591d3b6608cdaabc1e9f3030c1bfc13a804aad03986ed97",
        "graph_report.json": "8eefcbdca782de4584d75774582f1ca2f125c8c73d563ddd5510ea9bf1bb9332"},
    "graph --b-file branchy.txt --K 1000 --n 40 --format json": {
        "graph.json": "188a59db155e22f5cd80de5f81a647ac28f9918f496c699b5f687d6e50df1c13",
        "graph_report.json": "35ab907934cd4873d3bda32f960f147bffe49d8607f3927d36aaac2e816b8e9b"},
    "graph --b-file seeded0.txt --K 1000 --n 40 --format dot": {
        "graph.dot": "31f0315c7d3b84765da37286e123c6c770f71de70117770cad09502843060bc3",
        "graph_report.json": "6d26f5a9157231db92d575fa9333f55355157c93144aad0675943f3068225497"},
    "graph --beta golden --K 12 --format dot": {
        "graph.dot": "89c7c6a6d26c5fb246cfde7fac1f8fa913efa8fd6ea777e776660affeeb7eeea",
        "graph_report.json": "fa96413441ba28363ba248e1abfd5f760b3d3e0654dd4637a3423e730e25fdbc"},
    "graph --b-file bound.txt --K 10": {
        "graph.dot": "b3f7b514445be515acae6b4012d37182d490ebbb887cb03b58d7793b03c1dd05",
        "graph_report.json": "16383f3ad586b8cb04cf61b6ec843d8b9cfe7748a5cd82fbc9538a182c37b897"},
}


def test_graph_output_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in (("figure", "| 3 2 3 2 1 3 3"),
                       ("branchy", "| 3 1 2 3 1 1 1 3 1 2"),
                       ("seeded0", "2 | 1 1 1 2 1"), ("bound", "| 3 2 3 2 1 3 3")):
        Path(f"{name}.txt").write_text(text + "\n")
    for line, digests in GRAPH_DIGESTS.items():
        shutil.rmtree("out", ignore_errors=True)
        assert main(line.split() + ["--out", "out"]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in Path("out").iterdir()} == digests, line


# The README examples of the other verbs.  entropy.json and measure.json
# carry report-only floats from math.log and math.exp, so for those two the
# digest is of the document with every float outside its config set to null.
VERB_DIGESTS = {
    "expand --beta 13/10 --n 30": {
        "expand.json": "fab67376bf33a2d57d277df72aa16b4a60658bd2472e9afffdf01821e1335a9b"},
    "entropy --beta golden --n 14 --epsilon 0.3": {
        "c_profile.csv": "a3630f3271aff9dffd0ea392abb66ad2893c410eb58ca2ab166368cc505619e8",
        "counts.csv": "ca95f0c2922d5eb97b7a5bbce32a57ebed9e2c4c815ac20b396bb6a67608ec5d",
        "entropy.json": "febb23513227b74bdf2b5eea40eaeaf0e5d3478e9188c6fd24cc9d31f2678765"},
    "glue --beta golden --L 2 --M 4 --words-file words.txt": {
        "glue.json": "926bcc4ea917e34d3abbead65ecd096961201fc9acc3ead2564a5d75e17a26df"},
    "measure --beta golden --n 12 --m 4 --L 2": {
        "measure.json": "505334a8919d842aabcbce9cce78d3973b30c6b805d843cbeacdf50e93399852",
        "weakstar.csv": "3995134077d36542bf4232f2cdea7b96cc7a3123cc7b72b2a6fb2080775fa5c5"},
    "factor --beta 2 --depth 12": {
        "factor_report.json": "cf7b8d168c4d2a650efa95dcb50d391a44d20fa994bac8c8595509f7239c66a3"},
    "factor --beta 13/10 --depth 12": {
        "factor_report.json": "add75339315250b7b7c00150b3c23dfd7577f8ad2244b9a2e741535ceebf012b"},
}


def _floats_nulled(o):
    if isinstance(o, float):
        return None
    if isinstance(o, dict):
        return {k: _floats_nulled(v) for k, v in o.items()}
    if isinstance(o, list):
        return [_floats_nulled(v) for v in o]
    return o


def _verb_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name in ("entropy.json", "measure.json"):
        doc = json.loads(data)
        doc = {k: v if k == "config" else _floats_nulled(v) for k, v in doc.items()}
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def test_verb_output_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("words.txt").write_text("2\n21\n112\n")
    for line, digests in VERB_DIGESTS.items():
        shutil.rmtree("out", ignore_errors=True)
        assert main(line.split() + ["--out", "out"]) == 0
        assert {p.name: _verb_digest(p) for p in Path("out").iterdir()} == digests, line


def test_graph_from_bound_file(tmp_path):
    bfile = tmp_path / "b.txt"
    bfile.write_text("| 3 2 3 2 1 3 3\n")
    out = tmp_path / "gf"
    assert run(["graph", "--b-file", bfile, "--K", "10", "--out", out]) == 0
    assert (out / "graph.dot").exists()


def test_entropy_command(tmp_path):
    out = tmp_path / "e"
    assert run(["entropy", "--beta", "golden", "--n", "14", "--K", "22",
                "--epsilon", "0.3", "--out", out]) == 0
    doc = json.loads((out / "entropy.json").read_text())
    assert 0.38 < doc["htop"]["value"] < 0.58
    assert doc["selected_L"] == 2
    counts = (out / "counts.csv").read_text().splitlines()
    assert counts[0].startswith("#")
    assert counts[2] == "n,count_L,count_Per,exact"


def test_entropy_non_finite_epsilon_exits_2(tmp_path, capsys):
    # golden reaches the cutoff profile; beta = 2 is two-sided and does not
    for beta in ("golden", "2"):
        for eps in ("nan", "inf", "-inf"):
            out = tmp_path / f"e{beta}{eps}"
            assert run(["entropy", "--beta", beta, "--n", "6",
                        f"--epsilon={eps}", "--out", out]) == 2
            assert "epsilon must be finite" in capsys.readouterr().err
            assert not out.exists()
    # a negative epsilon is finite: no cutoff is found, and all files are kept
    out = tmp_path / "neg"
    assert run(["entropy", "--beta", "golden", "--n", "6", "--epsilon=-1",
                "--out", out]) == 4
    assert json.loads((out / "entropy.json").read_text())["selected_L"] is None


def test_glue_command(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("2\n21\n112\n")
    out = tmp_path / "gl"
    assert run(["glue", "--beta", "golden", "--L", "2", "--M", "4",
                "--words-file", words, "--out", out]) == 0
    doc = json.loads((out / "glue.json").read_text())
    assert len(doc["glue"]["block"]) == len(doc["glue"]["x"]) + doc["glue"]["gap"]


def test_glue_M_below_zero_exits_2(tmp_path, capsys):
    words = tmp_path / "w.txt"
    words.write_text("2\n21\n")
    for extra in (["--M", "-1"], ["--L", "0"]):
        assert run(["glue", "--beta", "golden", "--words-file", words, *extra,
                    "--out", tmp_path / "g"]) == 2
        assert capsys.readouterr().err == "error: M >= 0 and L >= 1 required\n"
    assert not (tmp_path / "g").exists()


def test_golden_horizon_below_one_exits_2(tmp_path, capsys):
    words = tmp_path / "w.txt"
    words.write_text("2\n21\n")
    for verb in (["graph", "--K", "4"], ["entropy"],
                 ["glue", "--words-file", words], ["measure"]):
        for beta in ("golden", "2", "13/10"):
            out = tmp_path / f"{verb[0]}-{beta.replace('/', '_')}"
            assert run([*verb, "--beta", beta, "--horizon", "0", "--out", out]) == 2
            assert capsys.readouterr().err == "error: horizon >= 1 required\n"
            assert not out.exists()


def test_bound_file_horizon_below_one_exits_2(tmp_path, capsys):
    # a --b-file spec never reads --horizon, but every verb refuses it
    bound, words = tmp_path / "b.txt", tmp_path / "w.txt"
    bound.write_text("| 3 2 3 2 1 3 3\n")
    words.write_text("2\n21\n")
    for verb in (["graph", "--K", "4"], ["entropy"],
                 ["glue", "--words-file", words], ["measure"],
                 ["expand", "--beta", "2"], ["factor", "--beta", "2"]):
        for horizon in ("0", "-3"):
            out = tmp_path / f"{verb[0]}{horizon}"
            assert run([*verb, "--b-file", bound, "--horizon", horizon,
                        "--out", out]) == 2
            assert capsys.readouterr().err == "error: horizon >= 1 required\n"
            assert not out.exists()


def _spy_walks(monkeypatch) -> list:
    """The lengths of every necklace walk started, one sorted list a walk."""
    walked, necklaces = [], language._necklaces

    def spy(aut, ns):
        walked.append(sorted(ns))
        return necklaces(aut, ns)

    monkeypatch.setattr(language, "_necklaces", spy)
    return walked


def test_measure_walks_its_period_blocks_once(tmp_path, monkeypatch):
    walked = _spy_walks(monkeypatch)
    assert run(["measure", "--beta", "golden", "--n", "12", "--m", "4",
                "--L", "2", "--out", tmp_path / "m"]) == 0
    assert walked == [[8, 10, 12]]


def test_entropy_walks_its_period_blocks_once(tmp_path, monkeypatch):
    walked = _spy_walks(monkeypatch)
    assert run(["entropy", "--beta", "golden", "--n", "10",
                "--out", tmp_path / "e"]) == 0
    assert walked == [list(range(1, 11))]


@pytest.fixture
def built_automata(monkeypatch) -> list:
    """The spec of every suffix-match automaton built, one entry a build."""
    built, init = [], language._Automaton.__init__

    def spy(self, spec):
        built.append(spec)
        init(self, spec)

    monkeypatch.setattr(language._Automaton, "__init__", spy)
    return built


@pytest.mark.parametrize("args", [
    ["entropy", "--beta", "golden", "--n", "10"],
    ["measure", "--beta", "golden", "--n", "9", "--m", "4", "--L", "2"],
    ["factor", "--beta", "2", "--depth", "9"],
    ["factor", "--beta", "13/10", "--depth", "12"],
    ["glue", "--beta", "golden", "--L", "2", "--M", "4", "--words-file", "words.txt"],
])
def test_each_verb_builds_one_automaton(tmp_path, monkeypatch, built_automata, args):
    # the spec of a verb keeps its automaton, so the counts, the period
    # blocks, the factor sweep and every glue candidate share one build
    (tmp_path / "words.txt").write_text("2\n21\n112\n")
    searched, search = [], decomposition._search_connectors

    def spy(*call):
        searched.append(call)
        return search(*call)

    monkeypatch.setattr(decomposition, "_search_connectors", spy)
    monkeypatch.chdir(tmp_path)
    assert run([*args, "--out", tmp_path / "out"]) == 0
    assert len(built_automata) == 1
    assert bool(searched) == (args[0] == "glue")  # golden's words take the search


def test_verify_factor_builds_one_automaton(built_automata):
    for beta, build in ((2, factors.build_case2_code),
                        (Fraction(13, 10), factors.build_case1_code)):
        spec = language.ShiftSpec.from_beta(BetaValue.from_rational(beta))
        factors.verify_factor(build(spec), spec, 12)
        assert built_automata == [spec]
        built_automata.clear()


def test_measure_command(tmp_path):
    out = tmp_path / "m"
    assert run(["measure", "--beta", "golden", "--n", "12", "--m", "4",
                "--L", "2", "--out", out]) == 0
    doc = json.loads((out / "measure.json").read_text())
    assert doc["measure"]["per_count"] == 321
    assert doc["gibbs"]["max_ratio"] < 10
    assert (out / "weakstar.csv").exists()


@pytest.mark.parametrize("beta, n", [("golden", 8), ("golden", 9),
                                     ("2", 6), ("13/10", 10)])
def test_measure_gibbs_exponent_is_the_word_count_estimate(tmp_path, beta, n):
    out = tmp_path / "m"
    assert run(["measure", "--beta", beta, "--n", n, "--m", "3",
                "--out", out]) == 0
    h = json.loads((out / "measure.json").read_text())["gibbs"]["h"]
    spec = cli._spec_of(cli.build_parser().parse_args(["measure", "--beta", beta]))
    assert h == measures.htop_estimate(spec, max(n, 4)).value


def test_measure_infinite_implied_constant_is_null(tmp_path):
    # --L 1 designates no good word, so no finite Gibbs constant is implied
    out = tmp_path / "m2"
    assert run(["measure", "--beta", "2", "--n", "6", "--m", "3", "--L", "1",
                "--out", out]) == 0
    text = (out / "measure.json").read_text()
    assert "Infinity" not in text
    assert json.loads(text)["gibbs"]["implied_K"] is None


def test_factor_command(tmp_path):
    out = tmp_path / "f"
    assert run(["factor", "--beta", "2", "--depth", "12", "--out", out]) == 0
    doc = json.loads((out / "factor_report.json").read_text())
    assert doc["report"]["passed"] is True
    assert run(["factor", "--beta", "13/10", "--depth", "8", "--out", out]) == 0


def test_factor_depth_at_window_exits_2(tmp_path, capsys):
    # both codes have window 3, which the depth must exceed
    for beta in ("2", "13/10"):
        assert run(["factor", "--beta", beta, "--depth", "3",
                    "--out", tmp_path / "w"]) == 2
        assert "depth must exceed the window length" in capsys.readouterr().err


def test_factor_rejects_intrinsically_ergodic_case(tmp_path, capsys):
    out = tmp_path / "fx"
    assert run(["factor", "--beta", "golden", "--depth", "6", "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: no staircase factor construction applies: the base is at or "
        "above the golden ratio and the expansion of 1 is not purely "
        "odd-periodic (factors of this shift have unique maximal-entropy "
        "measures)\n")


def test_factor_horizon_below_one_exits_2(tmp_path, capsys):
    # golden and exact bases refuse with the same message
    for beta in ("golden", "2"):
        assert run(["factor", "--beta", beta, "--horizon", "0",
                    "--out", tmp_path / "h"]) == 2
        assert capsys.readouterr().err == "error: horizon >= 1 required\n"


def test_exit_codes(tmp_path):
    out = tmp_path / "x"
    assert run(["expand", "--beta", "abc", "--out", out]) == 2
    assert run(["expand", "--beta", "1/0", "--n", "5", "--out", out]) == 2
    # a slice deeper than the certified prefix cannot be built
    assert run(["graph", "--beta", "5/2", "--K", "300", "--horizon", "40",
                "--out", out]) == 3


def test_golden_precision_zero_exits_2(tmp_path, capsys):
    for verb in ("expand", "factor"):
        for bits in ("0", "-2"):
            assert run([verb, "--beta", "golden", "--precision-bits", bits,
                        "--out", tmp_path / "p"]) == 2
            assert "precision" in capsys.readouterr().err
    assert run(["expand", "--beta", "13/10", "--precision-bits", "0",
                "--n", "5", "--out", tmp_path / "p"]) == 0


def test_entropy_cutoff_below_one_exits_2(tmp_path, capsys):
    for L in ("0", "-2"):
        assert run(["entropy", "--beta", "golden", "--n", "5", "--L", L,
                    "--out", tmp_path / "e"]) == 2
        assert "Lmax must be >= 1" in capsys.readouterr().err
        # the refusal comes before any file is written
        assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("verb, beta, message", [
    ("entropy", "2", "Lmax must be >= 1, got {}"),
    ("entropy", "golden", "Lmax must be >= 1, got {}"),
    ("measure", "golden", "--L >= 1 required, got {}"),
    ("measure", "2", "--L >= 1 required, got {}")])
def test_cutoff_below_one_exits_2_before_the_spec(tmp_path, capsys, monkeypatch,
                                                   verb, beta, message):
    def refuse(_args):
        raise AssertionError("the spec was built before --L was checked")

    monkeypatch.setattr(cli, "_spec_of", refuse)
    for L in ("0", "-3"):
        assert run([verb, "--beta", beta, "--n", "6", "--L", L,
                    "--out", tmp_path / "c"]) == 2
        assert capsys.readouterr().err == f"error: {message.format(L)}\n"
        assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("verb", [
    ["entropy", "--n", "6"],
    ["glue", "--words-file", "WORDS"],
    ["measure", "--n", "6", "--m", "3"]])
def test_slice_size_below_one_exits_2(tmp_path, capsys, monkeypatch, verb):
    def refuse(_args):
        raise AssertionError("the spec was built before --K was checked")

    (tmp_path / "words.txt").write_text("2\n2\n")
    verb = [str(tmp_path / "words.txt") if a == "WORDS" else a for a in verb]
    monkeypatch.setattr(cli, "_spec_of", refuse)
    for K in ("0", "-3"):
        assert run([*verb, "--beta", "golden", "--K", K,
                    "--out", tmp_path / "k"]) == 2
        assert capsys.readouterr().err == f"error: --K >= 1 required, got {K}\n"
        assert not (tmp_path / "k").exists()


def test_factor_depth_over_enumeration_cap(tmp_path, capsys):
    # about 3 * 2^1099 words: exact counting refuses before enumerating
    start = time.perf_counter()
    assert run(["factor", "--beta", "2", "--depth", "1100",
                "--out", tmp_path / "deep"]) == 3
    assert time.perf_counter() - start < 30
    err = capsys.readouterr().err
    assert "enumeration cap" in err and "Traceback" not in err


def test_prefix_too_short_names_the_certified_digits(tmp_path, capsys):
    # the library's message, then how many digits the prefix has and how
    # to get more
    for horizon, have in ((None, 256), ("10", 64), ("300", 300)):
        extra = [] if horizon is None else ["--horizon", horizon]
        assert run(["factor", "--beta", "13/10", "--depth", "1100", *extra,
                    "--out", tmp_path / "f"]) == 3
        assert capsys.readouterr().err == (
            f"error: upper bound needed at index {have + 1} ({have} bound "
            "digits are certified, the larger of --horizon and 64; raise "
            "--horizon for more)\n")
    bfile = tmp_path / "b.txt"
    bfile.write_text("2 1 1 2 1 1 2\n")
    assert run(["factor", "--beta", "13/10", "--b-file", bfile, "--depth", "20",
                "--out", tmp_path / "f"]) == 3
    assert capsys.readouterr().err == (
        "error: upper bound needed at index 8 (the bound file gives 7 digits; "
        "add digits to the file for more)\n")


def test_slice_prefix_too_short_names_the_certified_digits(tmp_path, capsys):
    # a slice that needs more bound digits than the prefix has gets the
    # same hint as the automaton's refusal
    assert run(["graph", "--beta", "13/10", "--K", "300",
                "--out", tmp_path / "g"]) == 3
    assert capsys.readouterr().err == (
        "error: need 302 digits, have 256 (256 bound digits are certified, "
        "the larger of --horizon and 64; raise --horizon for more)\n")
    bfile = tmp_path / "b.txt"
    bfile.write_text("2 1 1 2 1 1 2\n")
    assert run(["graph", "--b-file", bfile, "--K", "10",
                "--out", tmp_path / "g"]) == 3
    assert capsys.readouterr().err == (
        "error: need 12 digits, have 7 (the bound file gives 7 digits; "
        "add digits to the file for more)\n")


README_EXAMPLES = [
    "expand  --beta 13/10 --n 30",
    "graph   --beta golden --K 12 --format dot",
    "graph   --b-file bound.txt --K 10",
    "entropy --beta golden --n 14 --epsilon 0.3",
    "glue    --beta golden --L 2 --M 4 --words-file words.txt",
    "measure --beta golden --n 12 --m 4 --L 2",
    "factor  --beta 2 --depth 12",
    "factor  --beta 13/10 --depth 12",
]


def _readme_argvs(tmp_path):
    (tmp_path / "bound.txt").write_text("| 3 2 3 2 1 3 3\n")
    (tmp_path / "words.txt").write_text("2\n21\n112\n")
    return [[str(tmp_path / a) if a.endswith(".txt") else a for a in line.split()]
            for line in README_EXAMPLES]


def _workload_argvs(tmp_path):
    # every CLI job of the benchmark's three workloads, at two seeds
    import negbeta
    import negbeta.oracle  # the workloads' references read it
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    argvs = []
    for seed in (11, 12):
        for name, make in sorted(WORKLOADS.items()):
            tmp = tmp_path / f"{name}-{seed}"
            tmp.mkdir()
            argvs += [job.argv for job in make(negbeta, seed, tmp).jobs
                      if job.argv is not None]
    return argvs


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_the_parser_once(tmp_path, monkeypatch, fresh_parser):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in _readme_argvs(tmp_path) * 2:
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(built) == 1
    # the public builder still returns a new parser on each call
    assert build() is not build()


def test_shared_parser_parses_as_a_fresh_one(tmp_path, fresh_parser):
    argvs = _readme_argvs(tmp_path) + _workload_argvs(tmp_path)
    assert len(argvs) > 80
    for argv in argvs:
        argv = argv + ["--out", str(tmp_path / "out")]
        assert vars(cli._parser().parse_args(argv)) == \
            vars(cli.build_parser().parse_args(argv))


def _outcome(argv, out, capsys):
    code = main(argv + ["--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
    return code, files, capsys.readouterr()


def test_failed_parse_leaves_the_next_call_unchanged(tmp_path, capsys,
                                                     fresh_parser):
    runs = [["expand", "--beta", "13/10", "--n", "20"],
            ["graph", "--beta", "golden", "--K", "12", "--format", "json"],
            ["factor", "--beta", "13/10", "--depth", "1100"]]
    firsts = []
    for i, argv in enumerate(runs):
        cli._parser.cache_clear()
        firsts.append(_outcome(argv, tmp_path / f"o{i}", capsys))
    assert [code for code, _, _ in firsts] == [0, 0, 3]
    for bad in (["expand", "--beta", "2", "--n", "x"], ["nonesuch"],
                ["--help"], ["graph", "--help"]):
        with pytest.raises(SystemExit):
            main(bad)
        capsys.readouterr()
        for i, argv in enumerate(runs):
            assert _outcome(argv, tmp_path / f"o{i}", capsys) == firsts[i]
