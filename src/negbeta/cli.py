"""Command-line front end.

Verbs: expand | graph | entropy | glue | measure | factor.  Inputs come
from --beta (rational "13/10", decimal "1.3" read exactly, or "golden") or
from --b-file (digits, optionally "PRE | PER" for an eventually periodic
bound).  Every output file embeds the run configuration and a format
version; identical configurations produce byte-identical outputs.  JSON
files hold the bytes of json.dumps(doc, indent=2, sort_keys=True,
default=str) plus a newline; every scalar and key is written by the
stdlib's C encoder, except that a list of table rows holding only ints
is written by one %d format.

Exit codes: 2 invalid input, 3 truncation, precision exhausted or an
enumeration over its cap, 4 verification failure.  A refusal for a bound
prefix too short also names how many digits it has and how to get more.

In-process calls of `main` share one argument parser, built at the first
call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Optional

from . import decomposition, factors, graph as graphmod, language, measures
from .errors import (AmbiguousDigit, EmptyPer, EnumerationCapExceeded, GlueFailed,
                     HorizonExhausted, NegBetaError, NoLFound, PrefixTooShort,
                     SpecPrefixTooShort, TruncationInsufficient)
from .language import ShiftSpec, count_words, entropy_profile
from .numeric import BetaValue, _d1_cycle, expand, golden_test, golden_test_prefix

FORMAT_VERSION = "negbeta/1"

_TRUNCATION = (TruncationInsufficient, PrefixTooShort, SpecPrefixTooShort,
               HorizonExhausted, AmbiguousDigit, EnumerationCapExceeded)


class VerificationFailure(NegBetaError):
    pass


def _config_of(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


_CONTAINERS = (dict, list, tuple)
_INDENT = "  "
# one compact C encoder per item separator "," + newline + indent, built
# once: JSONEncoder.encode would build a new one on every call, and the
# stdlib's indent= option would drop to its pure-Python encoder instead.
# No circular check (markers None): the documents are trees.
_C_ENCODERS: dict = {}


def _c_encode(o, pad: str) -> str:
    enc = _C_ENCODERS.get(pad)
    if enc is None:
        enc = _C_ENCODERS[pad] = c_make_encoder(
            None, str, _quote, None, ": ", "," + pad, True, False, True)
    return "".join(enc(o, 0))


def _key(k) -> str:
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _c_encode(k, "") + '"'
    # json.dumps refuses other key types; the encoder would write a tuple
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _scalars(types) -> bool:
    return not any(issubclass(t, _CONTAINERS) for t in set(types))


def _table(o, inner: str) -> Optional[str]:
    """The items of the list o as `_dumps` writes them, inner being their
    lines' newline and indent, when o's items are plain dicts with one
    non-empty set of str keys and scalar values (table rows); None
    otherwise.

    One % call formats every row: %d when every value is an exact int,
    else %s with the values' C-encoded texts, which one C call writes with
    the separator ",<NUL>".  ensure_ascii escapes every NUL in a string,
    so the separators are the only NULs in that text.
    """
    first = o[0]
    # rows of one length holding every key of the first row hold no other
    if not (set(map(type, o)) == {dict} and first
            and all(map(isinstance, first, repeat(str)))
            and set(map(len, o)) == {len(first)}):
        return None
    keys = sorted(first)
    get = itemgetter(*keys)
    try:
        values = (list(map(get, o)) if len(keys) == 1
                  else list(chain.from_iterable(map(get, o))))
    except KeyError:
        return None
    types = set(map(type, values))
    if not _scalars(types):
        return None
    spec = "%d"
    if types != {int}:
        spec, values = "%s", _c_encode(values, "\0")[1:-1].split(",\0")
    field = inner + _INDENT
    row = "{" + field + ("," + field).join(
        [_quote(k).replace("%", "%%") + ": " + spec for k in keys]) + inner + "}"
    return ("," + inner).join(repeat(row, len(o))) % tuple(values)


def _dumps(o, nl: str = "\n") -> str:
    """o as json.dumps(o, indent=2, sort_keys=True, default=str) writes it,
    nl being the newline and indent of o's own line.

    Every scalar goes through the stdlib's C encoder: a lone scalar or key
    is one C call, and so is a container of scalars, whose item separator
    carries the newline and indent.  A list of table rows is one C call
    and one % call (`_table`).
    """
    if not isinstance(o, _CONTAINERS):
        return _c_encode(o, nl)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = nl + _INDENT
    if isinstance(o, dict):
        if _scalars(map(type, o.values())):
            return "{" + inner + _c_encode(o, inner)[1:-1] + nl + "}"
        body = [_key(k) + ": " + _dumps(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    if _scalars(map(type, o)):
        return "[" + inner + _c_encode(o, inner)[1:-1] + nl + "]"
    table = _table(o, inner)
    if table is None:
        table = ("," + inner).join([_dumps(v, inner) for v in o])
    return "[" + inner + table + nl + "]"


def _emit_json(args, name: str, payload: dict) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"format_version": FORMAT_VERSION, "config": _config_of(args)}
    doc.update(payload)
    path = out / name
    path.write_text(_dumps(doc) + "\n")
    return path


def _emit_text(args, name: str, body: str, comment: str = "#") -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = (f"{comment} format_version: {FORMAT_VERSION}\n"
              f"{comment} config: {json.dumps(_config_of(args), sort_keys=True)}\n")
    path = out / name
    path.write_text(header + body)
    return path


def _beta_of(args) -> BetaValue:
    if not getattr(args, "beta", None):
        raise ValueError("--beta is required for this command")
    return BetaValue.parse(args.beta, bits=args.precision_bits)


def _bound_of_file(args):
    return graphmod.parse_bound_file(Path(args.b_file).read_text())


def _prefix_len(args) -> int:
    """Digits of the bound prefix of a --beta whose expansion of 1 shows no
    cycle within --horizon."""
    return max(args.horizon, 64)


def _spec_of(args) -> ShiftSpec:
    if getattr(args, "b_file", None):
        return ShiftSpec.make(_bound_of_file(args))
    beta = _beta_of(args)
    if beta.label == "golden":
        return ShiftSpec.golden()
    return ShiftSpec.from_beta(beta, horizon=args.horizon,
                               prefix_len=_prefix_len(args))


def _prefix_hint(args) -> str:
    """How many digits a finite bound prefix has, and how to get more."""
    if getattr(args, "b_file", None):
        return (f"the bound file gives {len(_bound_of_file(args))} digits; "
                "add digits to the file for more")
    return (f"{_prefix_len(args)} bound digits are certified, the larger of "
            "--horizon and 64; raise --horizon for more")


def _at_least(option: str, value, least: int = 1) -> None:
    if value is not None and value < least:
        raise ValueError(f"--{option} >= {least} required, got {value}")


def _slice_K(args, default: int) -> int:
    """The slice size: --K when given (at least 1), else the default."""
    _at_least("K", args.K)
    return default if args.K is None else args.K


def cmd_expand(args) -> int:
    beta = _beta_of(args)
    if args.n < 1:  # before the walk, which may be longer than n
        raise ValueError("n >= 1 required")
    # by the lemma at `_d1_cycle` the classification needs no walk, and an
    # exact base's golden test is an integer test, so an exact base walks
    # the n digits printed; an interval base walks the orbit of 1 once, its
    # first n digits the expansion and its first horizon digits the
    # certified prefix that golden_test_prefix reads
    cycle = _d1_cycle(beta, args.horizon)
    if beta.is_exact:
        digits = expand(beta, Fraction(1), args.n).digits
        golden = golden_test(beta, horizon=args.horizon)
    else:
        walk = expand(beta, Fraction(1), max(args.n, args.horizon)).digits
        digits = walk[: args.n]
        golden = golden_test_prefix(beta, walk[: args.horizon])
    payload = {
        "beta": beta.describe(),
        "digits": "".join(map(str, digits)),
        "certified": len(digits),
        "status": (["complete"] if len(digits) == args.n
                   else ["precision_exhausted", len(digits)]),
        "classification": (
            {"kind": "no_cycle", "period": None, "preperiod": None}
            if cycle is None else
            {"kind": "periodic_odd", "period": len(cycle), "preperiod": 0}),
        "golden_test": golden,
    }
    path = _emit_json(args, "expand.json", payload)
    print(path)
    return 0


def cmd_graph(args) -> int:
    _at_least("n", args.n)
    spec = _spec_of(args)
    slice_ = graphmod.build_graph_for_spec(spec, args.K)
    if args.format == "dot":
        path = _emit_text(args, "graph.dot", slice_.to_dot(), comment="//")
    else:
        path = _emit_json(args, "graph.json", {"graph": slice_.to_json()})
    nmax = args.K if args.n is None else min(args.K, args.n)
    counts = graphmod.path_counts(slice_, nmax)[1:]
    _emit_json(args, "graph_report.json", {
        "path_counts": counts,
        "gap_scan_N1": graphmod.gap_scan(slice_, 1),
    })
    print(path)
    return 0


def cmd_entropy(args) -> int:
    # c_entropy_profile's checks, made first: a two-sided spec never reaches
    # it, and a non-finite epsilon would land in the config as a non-JSON token
    if not math.isfinite(args.epsilon):
        raise ValueError(f"epsilon must be finite, got {args.epsilon}")
    if args.L < 1:
        raise ValueError(f"Lmax must be >= 1, got {args.L}")
    _at_least("n", args.n, 2)
    K = _slice_K(args, args.L + args.n)
    spec = _spec_of(args)
    table = count_words(spec, args.n, with_per=args.n <= 14)
    profile_rows = entropy_profile(table)
    est = measures.htop_from_table(spec, table)
    payload = {"htop": est.to_json(), "profile": profile_rows}
    cprof = None
    if not spec.two_sided:
        slice_ = graphmod.build_graph_for_spec(spec, K)
        cprof = decomposition.c_entropy_profile(slice_, args.L, min(args.n, 12),
                                                args.epsilon)
        payload["selected_L"] = cprof.selected_L
    # every result is computed before anything is written, so a refused
    # run leaves no partial output
    _emit_text(args, "counts.csv", table.to_csv())
    if cprof is not None:
        _emit_text(args, "c_profile.csv", cprof.to_csv())
    path = _emit_json(args, "entropy.json", payload)
    if cprof is not None and cprof.selected_L is None:
        raise NoLFound(f"no cutoff found up to L = {args.L}")
    print(path)
    return 0


def cmd_glue(args) -> int:
    K = _slice_K(args, 24)
    spec = _spec_of(args)
    words_text = Path(args.words_file).read_text()
    tuples = [w.strip() for w in words_text.replace(",", "\n").splitlines()
              if w.strip()]
    slice_ = graphmod.build_graph_for_spec(spec, K)
    result = decomposition.glue(slice_, spec, args.L, args.M, tuples)
    path = _emit_json(args, "glue.json", {"glue": result.to_json()})
    print(path)
    return 0


def cmd_measure(args) -> int:
    _at_least("L", args.L)
    K = _slice_K(args, 24)
    spec = _spec_of(args)
    ns = [n for n in (args.n - 4, args.n - 2) if n >= args.m]
    got = measures.mu_orders(spec, [args.n, *ns], args.m)
    measure = got[args.n]
    if not measure.per_count:
        raise EmptyPer(f"no period-{args.n} blocks")
    if not (measure.check_normalization() and measure.check_consistency()):
        raise VerificationFailure("measure failed exact sanity checks")
    # the Gibbs exponent (1/N) log #L_N; the measure found period-n points, so #L_N > 0
    N = max(args.n, 4)
    h = math.log(count_words(spec, N).rows[-1]["count_words"]) / N
    gwords = []
    if not spec.two_sided:
        slice_ = graphmod.build_graph_for_spec(spec, K)
        for length in range(1, args.m + 1):
            for w in language.iter_words(spec, length):
                vseq = graphmod.walk(slice_, w)
                if vseq is not None and vseq[-1] <= args.L - 1:
                    gwords.append(w)
    gibbs = measures.gibbs_check(measure, gwords, h)
    weak = measures.weakstar_diagnostic(spec, [*ns, args.n], min(args.m, 3),
                                        list(got.values()))
    _emit_text(args, "weakstar.csv", weak.to_csv())
    path = _emit_json(args, "measure.json", {
        "measure": measure.to_json(),
        "gibbs": gibbs.to_json(),
        "weakstar_deviations": weak.deviations,
    })
    print(path)
    return 0


def cmd_factor(args) -> int:
    beta = _beta_of(args)
    spec = _spec_of(args)
    # from_beta made the spec two-sided exactly when the expansion of 1 is
    # purely odd-periodic
    if golden_test(beta, horizon=args.horizon) == "below":
        code = factors.build_case1_code(spec)
    elif spec.two_sided:
        code = factors.build_case2_code(spec)
    else:
        raise ValueError(
            "no staircase factor construction applies: the base is at or "
            "above the golden ratio and the expansion of 1 is not purely "
            "odd-periodic (factors of this shift have unique maximal-"
            "entropy measures)")
    report = factors.verify_factor(code, spec, args.depth)
    path = _emit_json(args, "factor_report.json", {"report": report.to_json()})
    print(path)
    if not report.passed:
        raise VerificationFailure("factor verification failed; see report")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negbeta",
        description="negative-base shift computations with exact arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, beta_required=False):
        p.add_argument("--beta", required=beta_required,
                       help='base: "p/q", exact decimal, or "golden"')
        p.add_argument("--b-file", dest="b_file",
                       help="file with a bound sequence (digits, optional PRE | PER)")
        p.add_argument("--precision-bits", dest="precision_bits", type=int,
                       default=64)
        p.add_argument("--horizon", type=int, default=256)
        p.add_argument("--out", default="out")

    p = sub.add_parser("expand", help="expansion digits of 1 and classification")
    common(p, beta_required=True)
    p.add_argument("--n", type=int, default=20)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("graph", help="truncated graph presentation")
    common(p)
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("entropy", help="word counts and entropy profiles")
    common(p)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--L", type=int, default=8)
    p.add_argument("--K", type=int)
    p.add_argument("--epsilon", type=float, default=0.3)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("glue", help="glue good words into a periodic block")
    common(p)
    p.add_argument("--words-file", dest="words_file", required=True)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--M", type=int, default=4)
    p.add_argument("--K", type=int)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("measure", help="periodic-orbit measure and diagnostics")
    common(p)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--K", type=int)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("factor", help="build and verify a staircase factor code")
    common(p, beta_required=True)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(func=cmd_factor)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built lazily, not at import: a fresh import of the package stays cheap
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.horizon < 1:  # every verb, golden and --b-file specs included
            raise ValueError("horizon >= 1 required")
        return args.func(args)
    except _TRUNCATION as exc:
        hint = (f" ({_prefix_hint(args)})"
                if isinstance(exc, (PrefixTooShort, SpecPrefixTooShort)) else "")
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 3
    except (VerificationFailure, GlueFailed, NoLFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NegBetaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
