import json
import time

import pytest

from negbeta import cli, measures
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
