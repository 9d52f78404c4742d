import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import negbeta
from negbeta import decomposition, factors, language, measures, numeric, order


def test_public_names_resolve():
    assert len(set(negbeta.__all__)) == len(negbeta.__all__)
    for name in negbeta.__all__:
        assert hasattr(negbeta, name), name
    # a stale name in __all__ makes the star import raise AttributeError
    namespace: dict = {}
    exec("from negbeta import *", namespace)
    assert set(negbeta.__all__) <= set(namespace)


def test_no_class_is_a_dataclass():
    # @dataclass builds its methods from source text and execs them at
    # every fresh import of the package, which a benchmark's set-up repeats;
    # the value classes derive from order._Record, compiled once
    found = set()
    for info in pkgutil.iter_modules(negbeta.__path__):
        module = importlib.import_module(f"negbeta.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == set()


def test_fresh_import_loads_no_dataclasses_or_inspect():
    # importing dataclasses loads inspect, ast, dis and tokenize; the
    # package imports it only to raise FrozenInstanceError (about 0.1 s,
    # a fresh interpreter)
    code = ("import sys, negbeta.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(negbeta.__file__).parents[1])}
    got = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert got.stdout == "[]\n"


def test_spec_copies_build_their_own_automaton():
    # copy and pickle rebuild a spec through __init__: equal, with the same
    # hash and repr, and without the automaton kept in the original's
    # __dict__
    specs = [language.ShiftSpec.golden(), language.ShiftSpec.make((3, 2, 3, 2, 1, 3, 3)),
             language.ShiftSpec.from_beta(numeric.BetaValue.from_rational(2)),
             language.ShiftSpec.from_beta(numeric.BetaValue.from_rational(Fraction(13, 10)))]
    for spec in specs:
        assert spec._automaton is spec.__dict__["_automaton"]
        twins = [copy.copy(spec), copy.deepcopy(spec)]
        if spec.origin is None or spec.origin.refiner is None:
            twins.append(pickle.loads(pickle.dumps(spec)))
        for twin in twins:
            assert twin == spec and hash(twin) == hash(spec)
            assert repr(twin) == repr(spec)
            assert "_automaton" not in twin.__dict__
            assert twin._automaton is not spec._automaton


# Each record class as the dataclass it replaces: its fields in order, the
# defaults of the trailing fields, and the fields left out of == and hash.
_RECORDS = [
    (language.ShiftSpec, True, "alphabet upper lower origin", (None, None), ("origin",)),
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
        assert cls._fields == tuple(names), cls
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
        values = samples[0]
        bad_calls = [((*values, values[0]), {}),              # a positional too many
                     (tuple(required), {"nonsense": 0}),      # an unknown keyword
                     ((values[0],), dict(zip(names, values)))]  # a repeated field
        if required:
            bad_calls.append((tuple(required[:-1]), {}))      # a missing field
        for args, kwargs in bad_calls:
            for make in (cls, oracle):
                with pytest.raises(TypeError):
                    make(*args, **kwargs)
    # IntervalValue checks its interval before the fields are bound
    with pytest.raises(ValueError, match=r"^empty interval \[2, 1\]$"):
        numeric.IntervalValue(lo=Fraction(2), hi=Fraction(1))


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
