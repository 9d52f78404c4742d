"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True,
default=str), which serves here only as the oracle."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from negbeta import cli
from negbeta.graph import build_graph_for_spec
from negbeta.language import ShiftSpec
from negbeta.numeric import BetaValue
from negbeta.order import EvPeriodicSeq, word


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=str)


TRICKY = ["},\n    {", "},\n      {", '"', "é", "\x00", "", "{}", "[\n]"]
texts = st.text(max_size=8) | st.sampled_from(TRICKY)
scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.fractions(), texts)


def dicts(values):
    # keys of one type per dict, since sorting mixes no others
    return (st.dictionaries(texts, values, max_size=5)
            | st.dictionaries(st.integers(), values, max_size=5))


def tables(values):
    # rows over one key set, as the writer's table branch formats them
    return st.lists(texts, min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, values)),
                              min_size=1, max_size=5))


docs = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
        dicts(inner), st.lists(dicts(scalars), max_size=5),
        tables(scalars), tables(st.integers()), tables(inner)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(docs)
def test_writer_matches_json_dumps(doc):
    assert cli._dumps(doc) == oracle(doc)


def test_writer_edge_cases():
    for doc in ({}, [], (), {"a": {}}, [{}], [{}, {"a": 1}], [{"a": 1}, {}],
                [{"a": "},\n      {", "b": 2}, {"a": 3}], [[{"a": 1}]],
                {1: [1, {"x": math.nan}], 2: ()}, {None: [1]}, {True: {}},
                {2.5: [0], -1: [], 0.5: 1}, [{-0.0: 1}, {math.inf: 2}],
                [Fraction(1, 3), -0.0, 10 ** 50, math.inf, -math.inf]):
        assert cli._dumps(doc) == oracle(doc)
    # table rows: one % call over their values
    for doc in ([{"%d": 1, "a%%": 2, "%": 3}, {"%d": 4, "a%%": 5, "%": 6}],
                [{"%s": "%d", "b": "%"}, {"%s": "x", "b": 1.5}],
                [{"a": True, "b": 1}, {"a": 1, "b": False}], [{"a": 1}, {"a": True}],
                [{"a": 10 ** 51, "b": -10 ** 60}, {"a": 1, "b": 2}],
                [{"a": math.nan, "b": -0.0}, {"a": math.inf, "b": 0}],
                [{"a": Fraction(1, 3)}, {"a": Fraction(-2, 7)}, {"a": 3}],
                [{"a": "\x00", "b": ",\x00"}, {"a": "x,\x00y", "b": "},\n{"}],
                [{"k": 1}, {"k": 2}], [{"k": "s"}], [{"k": None}, {"k": 2.5}],
                [{"a": 1, "b": 2}, {"a": 1, "c": 2}], [{"a": 1}, {"a": 1, "b": 2}],
                [{"a": 1, "b": 2}, {1: 1, 2: 2}], [{1: 1}, {1: 2}],
                [{"a": 1}, {"a": [1]}], [{"a": 1}, {}], [{"a": 1}, 2],
                ({"a": 1, "b": 2}, {"b": 3, "a": 4})):
        assert cli._dumps(doc) == oracle(doc), doc
    with pytest.raises(TypeError):
        cli._dumps({"a": [1], (1, 2): 3})


GRAPH_SPECS = {
    "golden": ShiftSpec.golden(),
    "figure": ShiftSpec.make(EvPeriodicSeq.make((), word("3232133"))),
    "branchy": ShiftSpec.make(EvPeriodicSeq.make((), word("3123111312"))),
    "13/10": ShiftSpec.from_beta(BetaValue.parse("13/10"), horizon=2002,
                                 prefix_len=2002),
}


@pytest.mark.parametrize("key", sorted(GRAPH_SPECS))
def test_writer_on_graph_documents(key):
    for K in (0, 1, 8, 1000, 2000):
        doc = {"format_version": cli.FORMAT_VERSION,
               "config": {"K": K, "format": "json", "out": "out"},
               "graph": build_graph_for_spec(GRAPH_SPECS[key], K).to_json()}
        assert cli._dumps(doc) == oracle(doc)


@pytest.fixture
def written_docs(monkeypatch):
    """Every document the CLI writes, caught on its way to the writer."""
    docs = []
    write = cli._dumps

    def spy(o, nl="\n"):
        if nl == "\n":
            docs.append(o)
        return write(o, nl)

    monkeypatch.setattr(cli, "_dumps", spy)
    return docs


VERB_RUNS = [
    ["expand", "--beta", "13/10", "--n", "30"],
    ["expand", "--beta", "golden", "--n", "40"],
    ["graph", "--beta", "golden", "--K", "12", "--format", "json"],
    ["entropy", "--beta", "golden", "--n", "14", "--epsilon", "0.3"],
    ["entropy", "--beta", "2", "--n", "6"],
    ["glue", "--beta", "golden", "--L", "2", "--M", "4"],
    ["measure", "--beta", "golden", "--n", "12", "--m", "4", "--L", "2"],
    ["measure", "--beta", "2", "--n", "6", "--m", "3", "--L", "1"],
    ["factor", "--beta", "2", "--depth", "12"],
    ["factor", "--beta", "13/10", "--depth", "8"],
]


@pytest.mark.parametrize("argv", VERB_RUNS, ids=" ".join)
def test_writer_on_every_verb(argv, tmp_path, written_docs):
    words = tmp_path / "words.txt"
    words.write_text("2\n21\n112\n")
    out = tmp_path / "out"
    extra = ["--words-file", str(words)] if argv[0] == "glue" else []
    assert cli.main(argv + extra + ["--out", str(out)]) == 0
    assert written_docs
    texts = sorted(path.read_text() for path in out.glob("*.json"))
    assert texts == sorted(oracle(doc) + "\n" for doc in written_docs)


def _refuse(token):
    raise ValueError(f"non-JSON token {token}")


def test_readme_examples_write_strict_json(tmp_path):
    (tmp_path / "bound.txt").write_text("| 3 2 3 2 1 3 3\n")
    (tmp_path / "words.txt").write_text("2\n21\n112\n")
    examples = [
        "expand  --beta 13/10 --n 30",
        "graph   --beta golden --K 12 --format dot",
        "graph   --b-file bound.txt --K 10",
        "entropy --beta golden --n 14 --epsilon 0.3",
        "glue    --beta golden --L 2 --M 4 --words-file words.txt",
        "measure --beta golden --n 12 --m 4 --L 2",
        "factor  --beta 2 --depth 12",
    ]
    out = tmp_path / "out"
    for line in examples:
        argv = [str(tmp_path / a) if a.endswith(".txt") else a
                for a in line.split()]
        assert cli.main(argv + ["--out", str(out)]) == 0
    files = sorted(out.glob("*.json"))
    assert [p.name for p in files] == [
        "entropy.json", "expand.json", "factor_report.json", "glue.json",
        "graph_report.json", "measure.json"]
    for path in files:
        json.loads(path.read_text(), parse_constant=_refuse)
