"""Command-line front end.

Verbs: expand | graph | entropy | glue | measure | factor.  Inputs come
from --beta (rational "13/10", decimal "1.3" read exactly, or "golden") or
from --b-file (digits, optionally "PRE | PER" for an eventually periodic
bound).  Every output file embeds the run configuration and a format
version; identical configurations produce byte-identical outputs.  JSON
files hold the bytes of json.dumps(doc, indent=2, sort_keys=True,
default=str) plus a newline, written through the stdlib's C encoder.

Exit codes: 2 invalid input, 3 truncation, precision exhausted or an
enumeration over its cap, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import decomposition, factors, graph as graphmod, language, measures
from .errors import (AmbiguousDigit, EnumerationCapExceeded, GlueFailed,
                     HorizonExhausted, NegBetaError, NoLFound, PrefixTooShort,
                     SpecPrefixTooShort, TruncationInsufficient)
from .language import ShiftSpec, count_words, entropy_profile
from .numeric import (BetaValue, classify_d1, expand, golden_test,
                      golden_test_prefix)

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
# one compact C encoder per item separator "," + newline + indent; the
# stdlib's indent= option would drop to its pure-Python encoder instead
_C_ENCODERS: dict = {}


def _c_encode(pad: str):
    enc = _C_ENCODERS.get(pad)
    if enc is None:
        enc = _C_ENCODERS[pad] = json.JSONEncoder(
            separators=("," + pad, ": "), sort_keys=True, default=str).encode
    return enc


def _token(o) -> str:
    """A scalar as json.dumps(default=str) writes it."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    return _quote(str(o))


def _key(k) -> str:
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _token(k) + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _scalars(values) -> bool:
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _dumps(o, nl: str = "\n") -> str:
    """o as json.dumps(o, indent=2, sort_keys=True, default=str) writes it,
    nl being the newline and indent of o's own line.

    A container of scalars is one C call whose item separator carries the
    newline and indent.  So is a list of non-empty scalar-valued dicts
    (table rows): ensure_ascii escapes every control character, so the
    only "},<newline>{" in its text falls between two rows, where one
    replace moves the braces onto their own lines.
    """
    if not isinstance(o, _CONTAINERS):
        return _token(o)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = nl + _INDENT
    if isinstance(o, dict):
        if _scalars(o.values()):
            return "{" + inner + _c_encode(inner)(o)[1:-1] + nl + "}"
        body = [_key(k) + ": " + _dumps(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    if _scalars(o):
        return "[" + inner + _c_encode(inner)(o)[1:-1] + nl + "]"
    if (all(map(isinstance, o, repeat(dict))) and all(o)
            and _scalars(chain.from_iterable(map(dict.values, o)))):
        field = inner + _INDENT
        rows = _c_encode(field)(o)[2:-2].replace(
            "}," + field + "{", inner + "}," + inner + "{" + field)
        return "[" + inner + "{" + field + rows + inner + "}" + nl + "]"
    return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in o]) + nl + "]"


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


def _spec_of(args) -> ShiftSpec:
    if getattr(args, "b_file", None):
        bound = graphmod.parse_bound_file(Path(args.b_file).read_text())
        return ShiftSpec.make(bound)
    beta = _beta_of(args)
    if beta.label == "golden":
        return ShiftSpec.golden()
    return ShiftSpec.from_beta(beta, horizon=args.horizon,
                               prefix_len=max(args.horizon, 64))


def _slice_K(args, default: int) -> int:
    """The slice size: --K when given (at least 1), else the default."""
    if args.K is None:
        return default
    if args.K < 1:
        raise ValueError(f"--K >= 1 required, got {args.K}")
    return args.K


def cmd_expand(args) -> int:
    beta = _beta_of(args)
    got = expand(beta, Fraction(1), args.n)
    cls = classify_d1(beta, args.horizon)
    # an interval base's classification holds its certified prefix of
    # length horizon, which is all golden_test would expand
    golden = (golden_test(beta, horizon=args.horizon) if beta.is_exact
              else golden_test_prefix(beta, cls.digits))
    payload = {
        "beta": beta.describe(),
        "digits": "".join(map(str, got.digits)),
        "certified": got.certified,
        "status": list(got.status),
        "classification": {"kind": cls.kind, "period": cls.period,
                           "preperiod": cls.preperiod},
        "golden_test": golden,
    }
    path = _emit_json(args, "expand.json", payload)
    print(path)
    return 0


def cmd_graph(args) -> int:
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n >= 1 required, got {args.n}")
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
    if not math.isfinite(args.epsilon):
        # checked here too: a two-sided spec never reaches c_entropy_profile,
        # and the value would land in the config as a non-JSON token
        raise ValueError(f"epsilon must be finite, got {args.epsilon}")
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
    K = _slice_K(args, 24)
    spec = _spec_of(args)
    measure = measures.mu_n(spec, args.n, args.m)
    if not (measure.check_normalization() and measure.check_consistency()):
        raise VerificationFailure("measure failed exact sanity checks")
    # the Gibbs exponent (1/N) log #L_N; mu_n found period-n points, so #L_N > 0
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
    weak = measures.weakstar_diagnostic(
        spec, [n for n in (args.n - 4, args.n - 2, args.n) if n >= args.m],
        min(args.m, 3))
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
    # as in cmd_expand, an interval base reads golden_test off its
    # classification, so the orbit of 1 is walked once
    cls = None if beta.is_exact else classify_d1(beta, args.horizon)
    golden = (golden_test(beta, horizon=args.horizon) if cls is None
              else golden_test_prefix(beta, cls.digits))
    if golden == "below":
        code = factors.build_case1_code(spec)
    else:
        if cls is None:
            cls = classify_d1(beta, args.horizon)
        if cls.kind != "periodic_odd":
            raise ValueError(
                "no staircase factor construction applies: the base is at or "
                "above the golden ratio and the expansion of 1 is not purely "
                "odd-periodic (factors of this shift have unique maximal-"
                "entropy measures)")
        code = factors.build_case2_code(spec)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _TRUNCATION as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VerificationFailure, GlueFailed, NoLFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NegBetaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
