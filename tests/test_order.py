import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negbeta
from negbeta.errors import LengthMismatch
from negbeta.order import (EQ, GT, LT, EvPeriodicSeq, ShiftMaximality, alt_cmp,
                           alt_cmp_seq, cmp_prefix, is_alt_shift_maximal, word)


def test_alt_cmp_examples():
    assert alt_cmp(word("13"), word("23")) == LT          # odd position, natural
    assert alt_cmp(word("22"), word("21")) == LT          # even position, reversed
    assert alt_cmp(word("3232"), word("3232")) == EQ


def test_alt_cmp_length_mismatch():
    with pytest.raises(LengthMismatch):
        alt_cmp(word("12"), word("123"))


def test_alt_cmp_seq_examples():
    assert alt_cmp_seq(EvPeriodicSeq.make((), (1, 2)), EvPeriodicSeq.constant(1)) == LT
    g = EvPeriodicSeq.make((2,), (1,))
    assert alt_cmp_seq(g, g) == EQ
    # decided at index 2 (even): the constant-3 sequence is smaller
    assert alt_cmp_seq(EvPeriodicSeq.constant(3), EvPeriodicSeq.make((), (3, 2))) == LT


def test_canonical_form():
    # preperiod absorbable into the period
    assert EvPeriodicSeq.make((1, 2), (1, 2)) == EvPeriodicSeq.make((), (1, 2))
    assert EvPeriodicSeq.make((2, 1), (1,)) == EvPeriodicSeq.make((2,), (1,))
    # proper powers reduce
    assert EvPeriodicSeq.make((), (1, 2, 1, 2)).period == (1, 2)


@given(st.lists(st.integers(1, 3), min_size=0, max_size=4),
       st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_canonicalization_preserves_digits(pre, per):
    raw_digit = lambda i: pre[i - 1] if i <= len(pre) else per[(i - 1 - len(pre)) % len(per)]
    seq = EvPeriodicSeq.make(pre, per)
    for i in range(1, len(pre) + 3 * len(per) + 2):
        assert seq.digit(i) == raw_digit(i)


def test_shift():
    g = EvPeriodicSeq.make((2,), (1,))
    assert g.shift(1) == EvPeriodicSeq.constant(1)
    assert g.shift(5) == EvPeriodicSeq.constant(1)
    s = EvPeriodicSeq.make((), (1, 2, 3))
    assert s.shift(2) == EvPeriodicSeq.make((), (3, 1, 2))


words3 = st.lists(st.integers(1, 3), min_size=1, max_size=8).map(tuple)


@given(words3, words3)
@settings(max_examples=500)
def test_alt_cmp_antisymmetric_total(u, v):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    assert alt_cmp(u, v) == -alt_cmp(v, u)
    assert (alt_cmp(u, v) == EQ) == (u == v)


@given(words3, words3, words3)
@settings(max_examples=2000)
def test_alt_cmp_transitive(u, v, w):
    n = min(len(u), len(v), len(w))
    u, v, w = u[:n], v[:n], w[:n]
    if alt_cmp(u, v) <= 0 and alt_cmp(v, w) <= 0:
        assert alt_cmp(u, w) <= 0


@given(st.lists(st.integers(1, 3), min_size=0, max_size=3),
       st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.lists(st.integers(1, 3), min_size=0, max_size=3),
       st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.integers(1, 12))
@settings(max_examples=500)
def test_seq_cmp_agrees_with_truncations(p1, q1, p2, q2, n):
    s = EvPeriodicSeq.make(p1, q1)
    t = EvPeriodicSeq.make(p2, q2)
    trunc = alt_cmp(s.prefix(n), t.prefix(n))
    if trunc != EQ:
        assert alt_cmp_seq(s, t) == trunc


def test_shift_maximality():
    assert is_alt_shift_maximal(EvPeriodicSeq.make((2,), (1,))).status == "yes"
    assert is_alt_shift_maximal(EvPeriodicSeq.constant(3)).status == "yes"
    bad = is_alt_shift_maximal(EvPeriodicSeq.make((1,), (2,)))  # 1 then all 2s
    assert bad.status == "no"
    # a prefix can refute but never certify
    assert is_alt_shift_maximal(word("3232133")).status == "undecided"
    assert is_alt_shift_maximal(word("311")).status == "undecided"
    assert is_alt_shift_maximal(word("132")).status == "no"


def _per_shift_maximality(b) -> ShiftMaximality:
    # the check one shift at a time, each compared as a sequence
    if isinstance(b, EvPeriodicSeq):
        if b.digit(1) != b.max_digit:
            return ShiftMaximality("no", None)
        for k in range(1, len(b.preperiod) + len(b.period)):
            if alt_cmp_seq(b.shift(k), b) == GT:
                return ShiftMaximality("no", k)
        return ShiftMaximality("yes")
    w = word(b)
    if w[0] != max(w):
        return ShiftMaximality("no", None)
    for k in range(1, len(w)):
        if cmp_prefix(w[k:], w) == GT:
            return ShiftMaximality("no", k)
    return ShiftMaximality("undecided")


def _words(alphabet, lengths):
    return [w for n in lengths for w in itertools.product(range(1, alphabet + 1), repeat=n)]


def test_one_loop_maximality_matches_the_per_shift_check():
    # every bound pre per^inf with |pre| <= 2, |per| <= 3 over 1..3, and
    # every finite prefix of length <= 6 over 1..3
    seen = set()
    for pre in _words(3, range(3)):
        for per in _words(3, range(1, 4)):
            b = EvPeriodicSeq.make(pre, per)
            got = is_alt_shift_maximal(b)
            assert got == _per_shift_maximality(b), b
            seen.add(got.status)
    assert seen == {"yes", "no"}
    for w in _words(3, range(1, 7)):
        assert is_alt_shift_maximal(w) == _per_shift_maximality(w), w


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 5).flatmap(lambda a: st.tuples(
    st.lists(st.integers(1, a), max_size=8),
    st.lists(st.integers(1, a), min_size=1, max_size=9))))
def test_one_loop_maximality_on_drawn_bounds(pre_per):
    pre, per = pre_per
    for b in (EvPeriodicSeq.make(pre, per),
              EvPeriodicSeq.make((max(pre + per),) + tuple(pre), per)):
        assert is_alt_shift_maximal(b) == _per_shift_maximality(b), b
        w = b.prefix(len(pre) + 2 * len(per))
        assert is_alt_shift_maximal(w) == _per_shift_maximality(w), w


def test_figure_sequence_is_maximal():
    fig = EvPeriodicSeq.make((), word("3232133"))
    assert is_alt_shift_maximal(fig).status == "yes"


def test_cmp_prefix():
    g = EvPeriodicSeq.make((2,), (1,))
    assert cmp_prefix(word("21"), g) == EQ          # tie at prefix
    assert cmp_prefix(word("22"), g) == LT
    assert cmp_prefix(word("3"), g) == GT


_REIMPORT = """
import gc, importlib, sys, weakref
refs, frozen = [], []
for _ in range(3):
    for name in [m for m in sys.modules if m == "negbeta" or m.startswith("negbeta.")]:
        del sys.modules[name]
    importlib.import_module("negbeta.cli")
    order, numeric = sys.modules["negbeta.order"], sys.modules["negbeta.numeric"]
    refs.append([weakref.ref(order), weakref.ref(order.EvPeriodicSeq),
                 weakref.ref(numeric.IntervalValue)])
    frozen.append(weakref.ref(order._Frozen))
    del order, numeric
gc.collect()
assert frozen[0]() is None, "the first copy of order._Frozen is still alive"
print([[r() is None for r in got] for got in refs])
"""


def test_reimport_frees_earlier_copies():
    # Module-level type aliases must not pin a class of the package (and so
    # its module globals) in a cache of the typing module: a process that
    # imports the package afresh, as a benchmark's set-up does, would keep
    # every earlier copy alive.
    src = str(Path(negbeta.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str([[True] * 3, [True] * 3, [False] * 3])
