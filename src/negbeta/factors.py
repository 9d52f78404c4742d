"""Sliding block codes onto the staircase shift and their verification.

The target shift consists of 1^inf, 2^inf, and every 1-run followed by a
2-tail; its length-n language is the n+1 monotone words.  Two window maps
land on it: one sends a window to 1 exactly on the all-ones block (bases
below the golden ratio), the other sends a window to 2 exactly on the
cyclic blocks of the bound sequence (purely odd-periodic expansions).

The defining claims are decided for every admissible word of a chosen
depth without listing the words: a sliding block code is a finite-state
transducer, so the images of all words are swept layer by layer over the
finitely many states (automaton state, last window-1 digits, image shape)
of the suffix-match automaton times the code's window.  The same layers
decide the ones-tail claim of the all-ones window code (w 1^window is
refused for every w that is not all ones) at every length up to
depth - window.  A word is named only as the counterexample of a failing
claim, by a lexicographic walk over the same states.  The findings are
returned as a structured report.
"""

from __future__ import annotations

from typing import Optional

from .errors import (EnumerationCapExceeded, NotOddPeriodic, OddOneRun,
                     PatternMismatch, TooShort)
from .language import NO, YES, ShiftSpec, _Automaton, _lex_first, count_words
from .numeric import golden_test
from .order import EvPeriodicSeq, Word, _Frozen, _Record, word

# verify_factor refuses a depth whose admissible words outnumber this cap,
# counted exactly before any check (exit 3).  The sweep holds no words, so
# the cap no longer bounds memory; it stays as the documented refusal.
_ENUMERATION_CAP = 1 << 18


def x_language(n: int) -> list[Word]:
    """Length-n words of the target shift: 1-runs then 2-runs, n+1 of them."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return [(1,) * i + (2,) * (n - i) for i in range(n, -1, -1)]


def in_x_language(w) -> bool:
    """Whether w is a word of the target shift: 1s, then 2s."""
    w = word(w)
    return set(w) <= {1, 2} and w == tuple(sorted(w))


class SlidingBlockCode(_Frozen):
    """A window map to {1, 2} applied at every position."""

    __slots__ = ("window",
                 "kind",    # "ones_window" | "bound_blocks"
                 "detect")  # bound_blocks: windows mapped to 2

    def __init__(self, window: int, kind: str, detect: frozenset = frozenset()):
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "detect", detect)

    def symbol(self, block: Word) -> int:
        if len(block) != self.window:
            raise TooShort(f"window is {self.window}, got {len(block)}")
        if self.kind == "ones_window":
            return 1 if block == (1,) * self.window else 2
        return 2 if block in self.detect else 1

    def apply(self, w) -> Word:
        w = word(w)
        if len(w) < self.window:
            raise TooShort(f"need at least {self.window} digits")
        return tuple(self.symbol(w[i: i + self.window])
                     for i in range(len(w) - self.window + 1))


def build_case1_code(spec: ShiftSpec) -> SlidingBlockCode:
    """Window map for a base below the golden ratio.

    The expansion of 1 must read 2 1^k 2 with k even (and k >= 2 for
    genuine bases) within its first 64 digits; the window is k+1 and only
    the all-ones window maps to 1.
    """
    if spec.origin is not None:
        if golden_test(spec.origin) != "below":
            raise PatternMismatch("base is not below the golden ratio")
    digits = [spec.upper_digit(i) for i in range(1, 65)]
    digits = [d for d in digits if d is not None]
    if not digits or digits[0] != 2:
        raise PatternMismatch(f"expansion must start with 2, got {digits[:4]}")
    k = 0
    for d in digits[1:]:
        if d == 1:
            k += 1
        else:
            break
    else:
        raise PatternMismatch("no second 2 within the known prefix")
    if k == 0:
        raise PatternMismatch("expansion reads 22..; not of the form 2 1^k 2")
    if k % 2 == 1:
        raise OddOneRun(f"leading run of ones has odd length {k}")
    return SlidingBlockCode(window=k + 1, kind="ones_window")


def _bound_seq(spec: ShiftSpec) -> EvPeriodicSeq:
    """The upper bound sequence that bound-blocks windows are read from; a
    finite prefix of the expansion of 1 is none."""
    up = spec.upper
    if not isinstance(up, EvPeriodicSeq):
        raise NotOddPeriodic(f"upper bound {up} is not purely odd-periodic")
    return up


def build_case2_code(spec: ShiftSpec) -> SlidingBlockCode:
    """Window map for a purely periodic expansion of odd period n: windows
    of length 3n map to 2 exactly on the n cyclic blocks of the bound."""
    up = _bound_seq(spec)
    if up.preperiod or len(up.period) % 2 == 0:
        raise NotOddPeriodic(f"upper bound {up} is not purely odd-periodic")
    if not spec.two_sided:
        raise NotOddPeriodic("odd-period shifts carry a lower bound")
    n = len(up.period)
    if up.digit(n) == 1:
        raise PatternMismatch("last digit of the period must exceed 1")
    blocks = frozenset(tuple(up.digit(i + j) for j in range(3 * n))
                       for i in range(1, n + 1))
    return SlidingBlockCode(window=3 * n, kind="bound_blocks", detect=blocks)


class ClaimResult(_Record):
    __slots__ = ("claim",
                 "status",  # "pass" | "fail" | "inconclusive"
                 "detail", "counterexample")

    def __init__(self, claim: str, status: str, detail: str = "",
                 counterexample: Optional[str] = None):
        self.claim = claim
        self.status = status
        self.detail = detail
        self.counterexample = counterexample

    def to_json(self) -> dict:
        out = {"claim": self.claim, "status": self.status, "detail": self.detail}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class FactorReport(_Record):
    __slots__ = ("kind", "window", "depth", "claims")

    def __init__(self, kind: str, window: int, depth: int,
                 claims: list[ClaimResult]):
        self.kind = kind
        self.window = window
        self.depth = depth
        self.claims = claims

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.claims)

    def to_json(self) -> dict:
        return {"kind": self.kind, "window": self.window, "depth": self.depth,
                "passed": self.passed,
                "claims": [c.to_json() for c in self.claims]}


def _fmt(w: Word) -> str:
    return "".join(map(str, w))


def _after(shape: tuple[int, bool, bool], b: int) -> tuple[int, bool, bool]:
    """The image shape (leading 1s, a 2 seen, a 1 after a 2) once image
    symbol b is appended."""
    ones, two, broken = shape
    if b == 2:
        return ones, True, broken
    return (ones, True, True) if two else (ones + 1, False, False)


def verify_factor(code: SlidingBlockCode, spec: ShiftSpec, depth: int) -> FactorReport:
    """Re-check the factor-map claims on every admissible word of the given
    depth: image containment, the no-1-after-2 shape, the code-specific
    word equations, and surjectivity onto the target language.  Shift
    equivariance passes without a sweep: `apply` slides `symbol` over the
    windows, so the code commutes with the shift by construction.

    The words are swept layer by layer as states (automaton state, last
    window-1 digits, image shape); the claims read the final layer's
    shapes, the ones-tail claim every layer up to depth - window, and a
    failing claim names the least word that breaks it.
    """
    if depth <= code.window:
        raise TooShort("depth must exceed the window length")
    if code.kind == "bound_blocks":
        _bound_seq(spec)  # refuse a finite prefix before sweeping
    total = count_words(spec, depth).rows[-1]["count_words"]
    if total > _ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"the admissible words of length {depth} outnumber the "
            f"enumeration cap of {_ENUMERATION_CAP}")
    aut = spec._automaton
    m = code.window
    symbols: dict[Word, int] = {}
    moves: dict = {}

    def children(node):
        got = moves.get(node)
        if got is None:
            state, tail, shape = node
            got = moves[node] = []
            for a, nxt in aut.successors(state):
                win = (*tail, a)
                if len(win) < m:
                    got.append((a, (nxt, win, shape)))
                    continue
                b = symbols.get(win)
                if b is None:
                    b = symbols[win] = code.symbol(win)
                got.append((a, (nxt, win[1:], _after(shape, b))))
        return got

    # ones_window: w 1^m is refused exactly when reading 1^m from the state
    # of w says NO, because `read` drops a whole-prefix tie to its border
    # before going on; w is not all ones once its image has a 2 or its tail
    # holds another digit.  The first length with such a w fails the claim.
    ones = (1,) * m
    extends: dict = {}  # state -> 1^m is not refused after it

    def ones_tail(node):
        state, tail, shape = node
        if not (shape[1] or any(a != 1 for a in tail)):
            return False
        if state not in extends:
            extends[state] = aut.read(state, ones)[0] != NO
        return extends[state]

    start = (aut.start, (), (0, False, False))
    layer = {start}
    tail_fail = None
    for length in range(1, depth + 1):
        layer = {node for src in layer for _a, node in children(src)}
        if (code.kind == "ones_window" and tail_fail is None
                and length <= depth - m and any(map(ones_tail, layer))):
            tail_fail = length, _lex_first(start, length, children, ones_tail)
    shapes = {shape for _s, _t, shape in layer}

    bad_shape = None
    if any(broken for _o, _t, broken in shapes):
        bad_shape = _lex_first(start, depth, children, lambda node: node[2][2])
    claims: list[ClaimResult] = []
    claims.append(ClaimResult(
        "image_containment",
        "fail" if bad_shape else "pass",
        f"{total} admissible words of length {depth}",
        _fmt(bad_shape) if bad_shape else None))
    claims.append(ClaimResult(
        "monotone_twos",
        "fail" if bad_shape else "pass",
        "no 1 after a 2 in any image",
        _fmt(bad_shape) if bad_shape else None))
    claims.append(ClaimResult(
        "equivariance", "pass",
        "dropping the first input digit commutes with the code"))

    if code.kind == "ones_window":
        claims.append(
            ClaimResult("ones_tail_forbidden", "fail",
                        f"w 1^{m} admissible at |w|={tail_fail[0]}", _fmt(tail_fail[1]))
            if tail_fail else
            ClaimResult("ones_tail_forbidden", "pass",
                        f"w 1^{m} inadmissible for every non-ones w up to "
                        f"length {depth - m}"))
    else:
        claims.append(check_singleton_cylinder(code, spec, depth))
        claims.append(check_shifted_block_mismatch(code, spec))

    # an unbroken image is 1^k 2^(size-k); the largest k missing is the
    # least missing target word
    size = depth - m + 1
    reached = {ones for ones, _t, broken in shapes if not broken}
    missing = [k for k in range(size, -1, -1) if k not in reached]
    claims.append(ClaimResult(
        "surjectivity_onto_target",
        "pass" if not missing else "fail",
        f"image covers all {size + 1} target words of length {size}",
        _fmt((1,) * missing[0] + (2,) * (size - missing[0])) if missing else None))
    claims.append(_check_named_witnesses(aut, code, spec, depth))
    return FactorReport(code.kind, code.window, depth, claims)


def check_singleton_cylinder(code: SlidingBlockCode, spec: ShiftSpec,
                             depth: int) -> ClaimResult:
    """Every admissible extension of a detector block follows the periodic
    continuation of the bound sequence, digit for digit: one walk through
    the automaton per block, which fails at the first accepted digit that
    leaves the continuation."""
    up = _bound_seq(spec)
    n = code.window // 3
    aut = spec._automaton
    for i in range(1, n + 1):
        expected = tuple(up.digit(i + j) for j in range(depth))
        base = expected[:code.window]
        state = aut.read(aut.start, base)[1]  # None: nothing extends
        for pos in range(code.window, depth):
            if state is None:
                break
            stray = [a for a, _t in aut.successors(state) if a != expected[pos]]
            if stray:
                return ClaimResult("singleton_cylinder", "fail",
                                   f"unexpected extension of {_fmt(base)}",
                                   _fmt(expected[:pos] + (stray[0],)))
            state = aut.step(state, expected[pos])
    return ClaimResult("singleton_cylinder", "pass",
                       f"detector blocks extend uniquely up to length {depth}")


def check_shifted_block_mismatch(code: SlidingBlockCode,
                                 spec: ShiftSpec) -> ClaimResult:
    """1^j followed by the bound prefix never equals a detector block."""
    up = _bound_seq(spec)
    n = code.window // 3
    blocks = [tuple(up.digit(i + t) for t in range(3 * n)) for i in range(1, n + 1)]
    for j in range(1, 3 * n + 1):
        cand = (1,) * j + tuple(up.digit(r) for r in range(1, 3 * n - j + 1))
        for i, block in enumerate(blocks, 1):
            if cand == block:
                return ClaimResult("shifted_block_mismatch", "fail",
                                   f"j={j}, i={i}", _fmt(cand))
    return ClaimResult("shifted_block_mismatch", "pass",
                       f"1^j prefixes differ from all {n} detector blocks")


def _check_named_witnesses(aut: _Automaton, code: SlidingBlockCode,
                           spec: ShiftSpec, depth: int) -> ClaimResult:
    """Concrete preimages of the target points, checked on truncations:
    the all-ones word maps to all ones, the bound prefix to all twos, and
    for each k <= min(depth/2, L - 1) some admissible word maps to 1^k 2...,
    where L = depth - window + 1 is the image length (the witnesses need a
    digit after the k + window - 1 leading ones)."""
    m = code.window
    kmax = min(depth // 2, depth - m)
    ones = (1,) * depth
    if aut.read(aut.start, ones)[0] == NO:
        return ClaimResult("witnesses", "fail", "all-ones word inadmissible")
    if set(code.apply(ones)) != {1}:
        return ClaimResult("witnesses", "fail", "image of 1^depth is not all ones")
    bprefix = tuple(spec.upper_digit(i) for i in range(1, depth + 1))
    if None in bprefix:
        return ClaimResult("witnesses", "inconclusive", "bound prefix too short")
    if set(code.apply(bprefix)) != {2}:
        return ClaimResult("witnesses", "fail",
                           "image of the bound prefix is not all twos")
    for k in range(1, kmax + 1):
        target = (1,) * k + (2,) * (depth - m + 1 - k)
        if _preimage_of_staircase(aut, code, bprefix, k, target) is None:
            return ClaimResult("witnesses", "fail",
                               f"no preimage found for 1^{k} 2...", None)
    return ClaimResult("witnesses", "pass",
                       f"explicit preimages found for every 1^k tail, k <= {kmax}")


def _preimage_of_staircase(aut: _Automaton, code: SlidingBlockCode,
                           bprefix: Word, k: int, target: Word) -> Optional[Word]:
    """An admissible word as long as the bound prefix that the code maps to
    target = 1^k 2^(rest), or None.  Every candidate ends in a slice of the
    bound prefix, never empty since k <= depth - window."""
    m, depth = code.window, len(bprefix)
    if code.kind == "ones_window":
        # 1^(k+m-1) then the bound prefix: the first k windows are all ones,
        # every later window contains a non-one bound digit.
        cands = [(1,) * (k + m - 1) + bprefix[:depth - k - m + 1]]
    else:
        # 1^(k-1), a middle digit keeping every shift above the lower bound,
        # then the bound prefix; the right middle digit is found by trying.
        cands = ((1,) * (k - 1) + (mid,) + bprefix[:depth - k]
                 for mid in range(2, aut.alphabet + 1))
    return next((cand for cand in cands if aut.read(aut.start, cand)[0] == YES
                 and code.apply(cand) == target), None)
