import copy
import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import negbeta
from negbeta import decomposition, factors, graph, language, measures, numeric, order


def test_public_names_resolve():
    assert len(set(negbeta.__all__)) == len(negbeta.__all__)
    for name in negbeta.__all__:
        assert hasattr(negbeta, name), name
    # a stale name in __all__ makes the star import raise AttributeError
    namespace: dict = {}
    exec("from negbeta import *", namespace)
    assert set(negbeta.__all__) <= set(namespace)


def test_only_shift_spec_and_graph_slice_are_dataclasses():
    # @dataclass builds its methods from source text and execs them at
    # every fresh import of the package, which a benchmark's set-up repeats;
    # the other value classes derive from order._Record, compiled once.
    # ShiftSpec and GraphSlice stay dataclasses: tests copy them with
    # dataclasses.replace, and ShiftSpec's cached_property needs a __dict__.
    found = set()
    for info in pkgutil.iter_modules(negbeta.__path__):
        module = importlib.import_module(f"negbeta.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == {language.ShiftSpec, graph.GraphSlice}


# Each record class as the dataclass it replaces: its fields in order, the
# defaults of the trailing fields, and the fields left out of == and hash.
_RECORDS = [
    (order.EvPeriodicSeq, True, "preperiod period", (), ()),
    (order.ShiftMaximality, True, "status witness", (None,), ()),
    (numeric.IntervalValue, True, "lo hi", (), ()),
    (numeric.BetaValue, True, "exact lo hi bits refiner label",
     (None, None, None, 64, None, None), ("refiner",)),
    (numeric.CertifiedDigits, True, "digits certified status", (), ()),
    (numeric.D1Classification, True, "kind period preperiod horizon digits", (), ()),
    (language.CountTable, False, "rows", (), ()),
    (decomposition.CProfile, False, "epsilon nmax rows selected_L", (), ()),
    (decomposition.BoundReport, False,
     "L N alphabet window far_edge_certified monotone_ok rows epsilon_for_N", (), ()),
    (decomposition.GlueResult, False,
     "words connectors gap x block least_period route verified", (), ()),
    (measures.EmpiricalMeasure, False, "n m per_count masses", (), ()),
    (measures.EntropyEstimate, False, "value nmax word_counts per_counts "
     "word_estimates per_estimates last_delta", (), ()),
    (measures.GibbsReport, False, "h max_ratio max_word min_good_ratio "
     "min_good_word zero_mass_good implied_K rows", (), ()),
    (measures.WeakStarTable, False, "m ns skipped masses deviations", (), ()),
    (factors.SlidingBlockCode, True, "window kind detect", (frozenset(),), ()),
    (factors.ClaimResult, False, "claim status detail counterexample", ("", None), ()),
    (factors.FactorReport, False, "kind window depth claims", (), ()),
]


def _oracle(cls, frozen, names, defaults, uncompared):
    first_default = len(names) - len(defaults)
    fields = []
    for i, name in enumerate(names):
        kw = {"compare": name not in uncompared}
        if i >= first_default:
            kw["default"] = defaults[i - first_default]
        fields.append((name, object, dataclasses.field(**kw)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen)


def _outcome(act):
    try:
        return "ok", act()
    except Exception as exc:
        return type(exc), str(exc)


def _samples(names):
    # one instance per field bumped, besides the plain one; IntervalValue's
    # lo stays below its hi, as its __init__ demands
    plain = [Fraction(i) for i in range(len(names))]
    yield plain
    for i in range(len(names)):
        yield plain[:i] + [plain[i] + Fraction(1, 2)] + plain[i + 1:]


def test_records_behave_as_their_dataclasses():
    for cls, frozen, names, defaults, uncompared in _RECORDS:
        names = names.split()
        assert cls.__slots__ == tuple(names), cls
        oracle = _oracle(cls, frozen, names, defaults, uncompared)
        samples = list(_samples(names))
        required = samples[0][:len(names) - len(defaults)]
        pairs = [(cls(*required), oracle(*required))]
        pairs += [(cls(**dict(zip(names, vals))), oracle(**dict(zip(names, vals))))
                  for vals in samples]
        for got, want in pairs:
            assert repr(got) == repr(want)
            assert _outcome(lambda: hash(got)) == _outcome(lambda: hash(want)), cls
            for other_got, other_want in pairs:
                assert (got == other_got) == (want == other_want), (got, other_got)
                assert (got != other_got) == (want != other_want), (got, other_got)
            assert got != want  # records of different classes never compare equal
            assert repr(copy.deepcopy(got)) == repr(copy.deepcopy(want))
            assert repr(pickle.loads(pickle.dumps(got))) == repr(got)
        for got, want in pairs:
            for name in names:
                assert _outcome(lambda: setattr(got, name, 0)) == \
                    _outcome(lambda: setattr(want, name, 0)), (cls, name)
                assert _outcome(lambda: delattr(got, name)) == \
                    _outcome(lambda: delattr(want, name)), (cls, name)


def test_beta_values_differing_only_in_refiner_are_equal():
    golden = numeric.BetaValue.golden()
    other = numeric.BetaValue(lo=golden.lo, hi=golden.hi, bits=golden.bits,
                              refiner=lambda bits: (golden.lo, golden.hi),
                              label="golden")
    assert other.refiner is not golden.refiner
    assert other == golden and hash(other) == hash(golden)
    assert other != numeric.BetaValue.golden(bits=32)
    with pytest.raises(AttributeError, match="^cannot assign to field 'refiner'$"):
        golden.refiner = None
