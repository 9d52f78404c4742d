"""Admissible words, periodic points and counting for bounded shift spaces.

A shift is specified by an alphabet, an upper bound sequence b (the digit
expansion of 1, or any sequence dominating its shifts in the alternating
order) and, in the purely-odd-periodic case, a derived lower bound.  A word
is admissible when every suffix stays within the bounds compared against
the corresponding bound prefix; ties at the end of a finite comparison are
within bounds.

Membership, enumeration, counting, follower sets, mixing searches,
periodic blocks and eventually periodic points all run on one suffix-match
automaton whose state is the pair of longest suffix ties with the upper and
lower bound prefixes.  Its reader (`_Automaton.read`) decides a word from
any state as "yes", "no" or, when a suffix ties the whole of a finite
upper prefix and runs past it, "undetermined"; a periodic point is read
through it until the state at a block boundary repeats.  The graph layer
reuses its upper-bound track: its vertex V_k is the upper match length k.

The period-n blocks form rotation classes, so they are walked by necklace:
the admissible prenecklaces are grown in lexicographic order
(Fredricksen-Kessler-Maiorana), and one point check per necklace, resumed
from the state the walk reached, decides its whole class.  A spec known
only as a finite prefix of length H falls back to checking every admissible
word in lexicographic order when H <= n or n is a period of the prefix:
only there can a shift of an n-periodic point tie the whole prefix, and
the HorizonExhausted raised names the first such tie in word order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import HorizonExhausted, NotOddPeriodic, SpecPrefixTooShort
from .numeric import BetaValue, classify_d1, expand
from .order import (BoundSeq, EvPeriodicSeq, Word, _alt_sign, _failure_table,
                    bound_digit, bound_len, is_alt_shift_maximal, word)

YES, NO, UNDETERMINED = "yes", "no", "undetermined"


def derived_lower_bound(upper: EvPeriodicSeq) -> EvPeriodicSeq:
    """The lower bound attached to a purely periodic upper bound of odd
    period n: the periodic sequence with block 1 b_1 ... b_{n-1} (b_n - 1)."""
    if upper.preperiod or len(upper.period) % 2 == 0:
        raise NotOddPeriodic(str(upper))
    per = upper.period
    if per[-1] < 2:
        raise ValueError("last period digit must exceed 1")
    return EvPeriodicSeq.make((), (1,) + per[:-1] + (per[-1] - 1,))


@dataclass(frozen=True)
class ShiftSpec:
    """Defining data of a shift: alphabet size, upper bound sequence and an
    optional lower bound (present exactly in the odd-period case)."""

    alphabet: int
    upper: BoundSeq
    lower: Optional[EvPeriodicSeq] = None
    origin: Optional[BetaValue] = field(default=None, compare=False)

    @staticmethod
    def make(upper, lower=None, alphabet=None, origin=None) -> "ShiftSpec":
        """One-sided spec by default; pass lower="derived" for the two-sided
        odd-period semantics, or an explicit lower bound sequence."""
        if not isinstance(upper, EvPeriodicSeq):
            upper = word(upper)
        check = is_alt_shift_maximal(upper, alphabet)
        if check.status == "no" and check.witness is None:
            raise ValueError("first digit of the upper bound must be the alphabet maximum")
        if check.status == "no":
            raise ValueError(
                f"upper bound is not alternately shift maximal (shift {check.witness})")
        alph = bound_digit(upper, 1)
        if lower == "derived":
            lower = derived_lower_bound(upper)
        if lower is not None and not isinstance(lower, EvPeriodicSeq):
            raise TypeError("lower bound must be eventually periodic")
        return ShiftSpec(alph, upper, lower, origin)

    @staticmethod
    def golden() -> "ShiftSpec":
        """The shift bounded by 2(1)^inf, i.e. base (1+sqrt 5)/2."""
        return ShiftSpec.make(EvPeriodicSeq.make((2,), (1,)),
                              origin=BetaValue.golden())

    @staticmethod
    def from_beta(beta: BetaValue, horizon: int = 256,
                  prefix_len: int = 64) -> "ShiftSpec":
        """Build the spec for a base: classify the expansion of 1 and use a
        periodic bound when certified, otherwise a certified prefix.

        An interval base never certifies a cycle, so only its prefix is
        expanded.  An exact base without a cycle takes its prefix from the
        classified digits when they reach prefix_len.
        """
        if beta.is_exact:
            cls = classify_d1(beta, horizon)
            if cls.purely_periodic:
                upper = EvPeriodicSeq.make((), cls.digits[: cls.period])
                lower = "derived" if cls.kind == "periodic_odd" else None
                return ShiftSpec.make(upper, lower=lower, origin=beta)
            if cls.kind == "eventually_periodic":
                s, p = cls.preperiod, cls.period
                upper = EvPeriodicSeq.make(cls.digits[:s], cls.digits[s: s + p])
                return ShiftSpec.make(upper, origin=beta)
            if 1 <= prefix_len <= horizon:
                return ShiftSpec.make(cls.digits[:prefix_len], origin=beta)
        elif horizon < 1:
            raise ValueError("horizon >= 1 required")
        got = expand(beta, 1, prefix_len)
        return ShiftSpec.make(got.digits[: got.certified], origin=beta)

    @property
    def two_sided(self) -> bool:
        return self.lower is not None

    @property
    def prefix_mode(self) -> bool:
        return not isinstance(self.upper, EvPeriodicSeq)

    def upper_digit(self, i: int) -> Optional[int]:
        return bound_digit(self.upper, i)

    def upper_len(self) -> float:
        return bound_len(self.upper)

    def describe(self) -> str:
        side = "two-sided" if self.two_sided else "one-sided"
        return f"{side} shift over 1..{self.alphabet}, upper {self.upper}"


class _Track:
    """Suffix matching against one bound sequence (a KMP automaton).

    A state is the length k of the longest suffix of the word read so far
    that ties the bound prefix b_1 .. b_k.  The live ties are k and its
    border chain fail[k], fail[fail[k]], ..., 0; appending a digit compares
    it with b_{ell+1} at every live tie ell.  `sense` is the alternating
    sign that breaks the bound: +1 for an upper bound, -1 for a lower
    bound, 0 for plain matching.  An upper bound must dominate its shifts
    (as every spec's upper bound does): then a digit that extends some tie
    breaks none of the shorter ones.  The digits of a periodic bound and
    the failure table reach only as far as the ties do, growing on
    demand; results are memoised per instance.
    """

    def __init__(self, bound: BoundSeq, sense: int):
        self.bound = bound
        self.sense = sense
        self.finite = not isinstance(bound, EvPeriodicSeq)
        self.known = len(bound) if self.finite else math.inf
        self.digits = list(bound) if self.finite else []
        self.fail = [0]
        self.memo: dict[int, dict[int, Optional[int]]] = {}  # a -> k -> answer

    def border(self, k: int) -> int:
        """fail[k], the longest proper border of the tie b_1 .. b_k."""
        if k >= len(self.fail):
            # a fourfold step rebuilds less than doubling would when ties
            # climb one digit at a time (the rows of a fold or of a finite
            # prefix's graph slice), and stays short for the few-digit ties
            # of a membership test
            self.fail = _failure_table(self.digits[: 4 * k + 4])
        return self.fail[k]

    def advance(self, k: int, a: int) -> Optional[int]:
        """The match length after appending digit a, or None when a breaks
        the bound at a live tie."""
        digits = self.digits
        if k >= len(digits):
            if self.finite:
                raise SpecPrefixTooShort(f"upper bound needed at index {k + 1}")
            pre, per = self.bound.preperiod, self.bound.period
            digits = self.digits = list(pre + per * (2 * k // len(per) + 2))
        sense = self.sense
        # Walk down the chain to a tie that decides; every tie passed on the
        # way (no violation, and no match for upper bounds) shares its answer.
        chain = []
        while True:
            d = digits[k]
            if d == a and sense >= 0:
                got = k + 1
            elif d != a and _alt_sign(k + 1, a, d) == sense:
                got = None
            elif k == 0:
                got = 1 if d == a else 0
            else:
                memo = self.memo.setdefault(a, {})
                chain.append(k)
                k = self.fail[k] if k < len(self.fail) else self.border(k)
                got = memo.get(k, memo)
                if got is memo:
                    continue
            break
        for k in reversed(chain):
            if got is not None and digits[k] == a:
                got = k + 1  # the longest tie of a lower bound that a extends
            memo[k] = got
        return got

    def row(self, k: int, alphabet: int) -> dict[int, int]:
        """The out-row of match length k: accepted digit -> next length."""
        row = {}
        for a in range(1, alphabet + 1):
            j = self.advance(k, a)
            if j is not None:
                row[a] = j
        return row


@dataclass(frozen=True)
class _Fold:
    """The out-rows of the upper-bound track of an eventually periodic
    bound b = pre per^inf, stored up to the point where they repeat.

    Let q = |per| and P = q, or 2q when q is odd (the order reads the parity
    of a position).  `rows` holds the rows of match lengths 0 .. N + P - 1,
    and every higher row is the row P below it with only its spine edge
    (digit b_{k+1} -> k + 1) moved up by P.

    Lemma.  Write f(k) for the longest proper border of b_1 .. b_k.  The
    track's row of k is the spine edge, the digits on the breaking side of
    b_{k+1} at position k + 1 refused, and every other digit a sent where
    the row of f(k) sends it; and f(k + 1) is the plain match length after
    reading b_{k+1} from f(k).  For k >= |pre| the digit b_{k+1} and the
    parity of k + 1 repeat at k + P.  Hence, if N >= |pre| + q and
      (a) f(N + P) = f(N): then f(k + P) = f(k) for every k >= N by
          induction, so row k + P is row k with the spine moved by P; or
      (b) f(N) = N - q: then f(k) = k - q for every k >= N, since
          b_{k-q+1} = b_{k+1} keeps extending the border; a digit other than
          b_{k+1} is sent where row k - q sends it when q is even (same
          digit, same parity), so the back edges of k + q are those of k,
          and is refused at k or at k - q when q is odd (same digit,
          opposite parity), so those rows are spine edges alone.
    Either way the back edges from rows >= N are those of rows N .. N+P-1.
    They target no vertex above |pre| + P: a back edge of row k goes to at
    most f(k) + 1; in (a), which needs pre nonempty, f repeats and is below
    |pre| + q for large k (a longer border would make b_1 .. b_k q-periodic
    across the end of pre, against its minimality); (b) makes b_1 .. b_N
    q-periodic, so pre is empty, and every border that decides a back edge
    is shorter than q.

    `of` starts from N = |pre| + P + 2 and checks (a) or (b) on the failure
    table of the first N + P digits.  On a few bounds whose prefix repeats
    a short period past |pre| (such as 2111112(1)^inf) neither holds there
    and N moves up by P; one of them holds once N >= 2|pre| + 2q, where f(k)
    depends only on k mod q (or, for a purely periodic bound, equals k - q).
    """

    N: int
    P: int
    rows: tuple  # dict digit -> next match length, for 0 .. N + P - 1

    @staticmethod
    def of(bound: EvPeriodicSeq) -> "_Fold":
        q = len(bound.period)
        P = q if q % 2 == 0 else 2 * q
        N = len(bound.preperiod) + P + 2
        fail = _failure_table(bound.prefix(N + P))
        while not (fail[N + P] == fail[N] or fail[N] == N - q):
            N += P
            fail = _failure_table(bound.prefix(N + P))
        track = _Track(bound, 1)
        alphabet = bound.digit(1)
        return _Fold(N, P, tuple(track.row(k, alphabet) for k in range(N + P)))


class _Automaton:
    """The suffix-match automaton of a shift.

    A state is the pair (upper match length, lower match length); the
    lower one stays 0 for one-sided shifts.  `_next` steps both tracks by
    one digit; the transitions out of a state are built from it for the
    whole alphabet at the state's first visit and memoised per instance.
    """

    start = (0, 0)

    def __init__(self, spec: ShiftSpec):
        self.alphabet = spec.alphabet
        self.upper = _Track(spec.upper, 1)
        self.lower = _Track(spec.lower, -1) if spec.two_sided else None
        self._moves: dict = {}  # state -> {accepted digit: next state}

    def _next(self, state: tuple[int, int], a: int) -> Optional[tuple[int, int]]:
        u = self.upper.advance(state[0], a)
        if u is None:
            return None
        lo = 0 if self.lower is None else self.lower.advance(state[1], a)
        return None if lo is None else (u, lo)

    def _out(self, state: tuple[int, int]) -> dict:
        got = self._moves.get(state)
        if got is None:
            got = {}
            for a in range(1, self.alphabet + 1):
                t = self._next(state, a)
                if t is not None:
                    got[a] = t
            self._moves[state] = got
        return got

    def step(self, state: tuple[int, int], a: int) -> Optional[tuple[int, int]]:
        """The next state, or None when digit a breaks a bound."""
        return self._out(state).get(a)

    def successors(self, state: tuple[int, int]):
        """(digit, next state) for every digit accepted at `state`, in
        increasing digit order."""
        return self._out(state).items()

    def run(self, w: Word) -> tuple[int, int]:
        """The state reached by an admissible word; ValueError otherwise."""
        state = self.start
        for a in w:
            # a digit above the alphabet breaks the empty tie before any other
            state = self.step(state, a) if a <= self.alphabet else None
            if state is None:
                raise ValueError(f"{w} is not admissible")
        return state

    def _drop(self, state: tuple[int, int]) -> tuple[int, int]:
        # A tie with the whole of a finite upper prefix is undecided for
        # good; its longest border carries the shorter live ties.
        if state[0] == self.upper.known:
            return self.upper.border(state[0]), state[1]
        return state

    def read(self, state: tuple[int, int], w: Word) -> tuple[str, Optional[tuple[int, int]]]:
        """Read w from `state` digit by digit through the tracks: ("no",
        None) at the first broken bound, otherwise the verdict and the end
        state.  The verdict is "undetermined" when a tie with the whole
        upper prefix met a further digit (it is dropped to its longest
        border and reading goes on), "yes" otherwise."""
        verdict = YES
        for a in w:
            if state[0] == self.upper.known:
                verdict, state = UNDETERMINED, self._drop(state)
            state = self._next(state, a)
            if state is None:
                return NO, None
        return verdict, state

    def followers(self, state: tuple[int, int]):
        """(digit, next state) for every digit that `read` accepts after
        reaching `state`, in increasing digit order."""
        return self.successors(self._drop(state))


def is_admissible(spec: ShiftSpec, w) -> str:
    """Membership test: "yes", "no" or (prefix specs only) "undetermined".

    The word is read from the start state of the suffix-match automaton.
    "no" means some suffix breaks a bound; "undetermined" means none does
    but some suffix ties the whole known upper prefix and runs past it.
    Two-sided specs use the conservative finite-word semantics
    (violation-freeness; validated against completion searches in the
    tests).
    """
    aut = _Automaton(spec)
    return aut.read(aut.start, word(w))[0]


def _lex_words(start, n: int, children, head: Word = ()) -> Iterator[Word]:
    """head followed by the labels of every length-n path from `start`, in
    lexicographic order; children(node) lists (label, next node) pairs in
    increasing label order.  An explicit stack replaces recursion, so n is
    limited by memory only."""
    if n == 0:
        yield head
        return
    acc = list(head)
    stack = [iter(children(start))]
    while stack:
        for label, node in stack[-1]:
            if len(stack) == n:
                yield (*acc, label)
            else:
                acc.append(label)
                stack.append(iter(children(node)))
                break
        else:
            stack.pop()
            if stack:
                acc.pop()


def _lex_first(start, n: int, children, accept) -> Optional[Word]:
    """The least label sequence (n >= 1 labels) of a path from `start`
    whose end node satisfies `accept`, or None.  The walk is `_lex_words`'
    order with a memo of the (depth, node) pairs whose paths were all
    refused, so no node is expanded twice at one depth."""
    acc: list = []
    nodes = [start]
    dead = set()
    stack = [iter(children(start))]
    while stack:
        depth = len(stack)  # of the nodes listed by stack[-1]
        for label, node in stack[-1]:
            if depth == n:
                if accept(node):
                    return (*acc, label)
            elif (depth, node) not in dead:
                acc.append(label)
                nodes.append(node)
                stack.append(iter(children(node)))
                break
        else:
            stack.pop()
            dead.add((depth - 1, nodes.pop()))
            if acc:
                acc.pop()
    return None


def iter_words(spec: ShiftSpec, n: int) -> Iterator[Word]:
    """All admissible words of length n, in lexicographic order.

    Words are grown digit by digit through the suffix-match automaton,
    which refuses a digit that breaks a bound at a live suffix tie: the
    incremental arrangement of the per-suffix membership rule.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    aut = _Automaton(spec)
    yield from _lex_words(aut.start, n, aut.successors)


def enumerate_words(spec: ShiftSpec, n: int) -> list[Word]:
    return list(iter_words(spec, n))


@dataclass
class CountTable:
    """Per-length exact counts of admissible words and periodic blocks."""

    rows: list[dict]  # n, count_words, count_per (optional), exact

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "count_L", "count_Per", "exact"])
        for r in self.rows:
            per = r.get("count_per")
            writer.writerow([r["n"], r["count_words"],
                             "" if per is None else per, int(r["exact"])])
        return buf.getvalue()


def count_words(spec: ShiftSpec, nmax: int, with_per: bool = False) -> CountTable:
    """Exact word counts for every length up to nmax: a layer-by-layer sum
    of path multiplicities over the states of the suffix-match automaton."""
    if nmax < 1:
        raise ValueError("nmax >= 1 required")
    aut = _Automaton(spec)
    layer = {aut.start: 1}
    counts = []
    for _n in range(nmax):
        nxt: dict[tuple[int, int], int] = {}
        for state, c in layer.items():
            for _a, t in aut.successors(state):
                nxt[t] = nxt.get(t, 0) + c
        layer = nxt
        counts.append(sum(layer.values()))
    rows = []
    for n, count in enumerate(counts, start=1):
        row = {"n": n, "count_words": count, "exact": True}
        if with_per:
            row["count_per"] = _per_count(aut, n)
        rows.append(row)
    return CountTable(rows)


def _point_ok(aut: _Automaton, head: Word, block: Word,
              resume: Optional[tuple[int, int]] = None) -> bool:
    """Exact membership of the point head block^inf, read digit by digit
    through the automaton up to the first broken bound.

    It lies in the shift once the state at a block boundary repeats (the
    run from there repeats one already read) or once every shift of the
    point has been compared with every bound, to a decision or to a tie
    of a whole common period.  A caller that has already read the block
    (with an empty head) from the start state passes the state it reached
    as `resume`, and reading goes on from there.
    """
    n = len(block)
    horizon = len(head) + n - 1 + max(
        # a finite prefix needs one digit past its end to show a whole tie
        t.known + 1 if t.finite
        else len(t.bound.preperiod) + math.lcm(n, len(t.bound.period))
        for t in (aut.upper, aut.lower) if t is not None)
    step, state, read = aut.step, aut.start, 0
    seen = set()
    try:
        if resume is not None:
            # the horizon is at least n, so the first block never reaches it
            seen.add(state)
            state, read = resume, n
        for a in head:
            state = step(state, a)
            if state is None:
                return False
            read += 1
        while state not in seen:
            seen.add(state)
            for a in block:
                if read >= horizon:
                    return True
                state = step(state, a)
                if state is None:
                    return False
                read += 1
        return True
    except SpecPrefixTooShort:
        # the shift that ties the whole prefix began len(prefix) digits ago
        known = aut.upper.known
        tie = EvPeriodicSeq.make(head, block).shift(read - known)
        raise HorizonExhausted(
            f"{tie} ties the {known}-digit upper prefix; extend the prefix") from None


def _necklaces(aut: _Automaton, n: int) -> Iterator[tuple[Word, int, tuple[int, int]]]:
    """(w, p, state) for every necklace w of length n that the automaton
    reads from its start state, in lexicographic order: w is the least of
    its rotations, p its least period and state the one w reaches.

    Prenecklaces are grown digit by digit (Fredricksen-Kessler-Maiorana):
    after a prenecklace w_1 .. w_t of period p, a digit below w_{t+1-p}
    would start a smaller rotation and is never entered, the digit
    w_{t+1-p} keeps the period and a larger digit makes it t + 1.  A
    prenecklace of length n is a necklace exactly when p divides n.
    """
    acc: list[int] = []
    stack = [(iter(aut.successors(aut.start)), 1)]
    while stack:
        children, p = stack[-1]
        t = len(acc)
        low = acc[t - p] if t else 0
        for a, state in children:
            if a < low:
                continue
            q = p if a == low else t + 1
            if t + 1 < n:
                acc.append(a)
                stack.append((iter(aut.successors(state)), q))
                break
            if n % q == 0:
                yield (*acc, a), q, state
        else:
            stack.pop()
            if acc:
                acc.pop()


def _per_blocks(aut: _Automaton, n: int) -> Iterator[tuple[Word, int]]:
    """The period-n blocks by rotation class: pairs (w, k) such that w and
    its first k - 1 rotations are blocks, together every block once.

    The set of blocks is closed under rotation, so the necklaces are walked
    and one check per necklace w, resumed from the state the walk reached,
    credits the p distinct rotations of w (p its least period).  On a
    finite upper prefix that has period n (every prefix of length H <= n
    has), a shift of an n-periodic point can tie the whole prefix; there
    every admissible word is checked on its own, in lexicographic order
    (k = 1), so that HorizonExhausted names the first tie in word order.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    up = aut.upper
    if up.finite and all(up.digits[i] == up.digits[i + n] for i in range(up.known - n)):
        for w in _lex_words(aut.start, n, aut.successors):
            if _point_ok(aut, (), w):
                yield w, 1
        return
    for w, p, state in _necklaces(aut, n):
        if _point_ok(aut, (), w, state):
            yield w, p


def _per_points(aut: _Automaton, n: int) -> list[Word]:
    return sorted(w[i:] + w[:i] for w, k in _per_blocks(aut, n) for i in range(k))


def _per_count(aut: _Automaton, n: int) -> int:
    return sum(k for _w, k in _per_blocks(aut, n))


def per_points(spec: ShiftSpec, n: int) -> list[Word]:
    """Blocks of the points fixed by the n-th shift power: all w of length
    n whose every rotation, repeated periodically, stays within bounds, in
    lexicographic order.

    Blocks of non-least period are included, matching sigma^n x = x.  They
    are found by necklace: one check per rotation class, whose members are
    then listed (see `_per_blocks` for the finite-prefix fallback, which
    checks word by word when the prefix has length H <= n or period n).
    """
    return _per_points(_Automaton(spec), n)


def per_count(spec: ShiftSpec, n: int) -> int:
    """The number of period-n blocks, len(per_points(spec, n)), without
    listing them: each checked necklace adds its least period."""
    return _per_count(_Automaton(spec), n)


def entropy_profile(table: CountTable) -> list[dict]:
    """Finite-size growth estimates (1/n) log count for each table row."""
    rows = []
    for r in table.rows:
        n = r["n"]
        est = math.log(r["count_words"]) / n if r["count_words"] > 0 else 0.0
        row = {"n": n, "words_estimate": est}
        per = r.get("count_per")
        if per is not None:
            row["per_estimate"] = math.log(per) / n if per > 0 else 0.0
        rows.append(row)
    return rows


def mixing_witness(spec: ShiftSpec, v, w, nmax: int) -> Optional[int]:
    """Least n <= nmax such that some admissible word carries v as a prefix
    and w at positions n+1 .. n+|w|; None when the search bound is hit."""
    v, w = word(v), word(w)
    if is_admissible(spec, v) != YES or is_admissible(spec, w) != YES:
        raise ValueError("v and w must be admissible")
    aut = _Automaton(spec)

    for n in range(nmax + 1):
        forced = dict(enumerate(v, start=1))
        if any(forced.setdefault(n + i, d) != d for i, d in enumerate(w, start=1)):
            continue

        def children(node):
            # a node is (depth, state); forced positions admit one digit
            depth, state = node
            want = forced.get(depth + 1)
            return [(a, (depth + 1, t)) for a, t in aut.successors(state)
                    if want is None or a == want]

        total = max(len(v), n + len(w))
        if next(_lex_words((0, aut.start), total, children), None) is not None:
            return n
    return None


def follower_words(spec: ShiftSpec, w, depth: int) -> list[Word]:
    """All length-`depth` words u with w u admissible."""
    w = word(w)
    aut = _Automaton(spec)
    state = aut.run(w)
    if depth < 1:
        return []
    return list(_lex_words(state, depth, aut.successors))


def periodic_block_ok(spec: ShiftSpec, p) -> bool:
    """Exact check that the periodic repetition of block p lies in the
    shift: every rotation, repeated, stays within the bounds."""
    p = word(p)
    if not p:
        raise ValueError("a periodic block must be nonempty")
    return _point_ok(_Automaton(spec), (), p)


def seq_within_bounds(spec: ShiftSpec, seq: EvPeriodicSeq) -> bool:
    """Exact membership of an eventually periodic point: every shift stays
    within the bounds.  Distinct shifts are finite in number."""
    return _point_ok(_Automaton(spec), seq.preperiod, seq.period)


def eventually_periodic_completion(spec: ShiftSpec, w) -> Optional[EvPeriodicSeq]:
    """Certify that w occurs in the shift by completing it to an eventually
    periodic point: w, a bridge of at most 6 digits, then a repeated
    admissible block of period at most 3.  Bridges are the followers of w
    that the automaton does not refuse, shortest first, in lexicographic
    order.

    Sound but not complete: a certificate proves membership, absence proves
    nothing.
    """
    w = word(w)
    aut = _Automaton(spec)
    verdict, state = aut.read(aut.start, w)
    if verdict == NO:
        return None
    built: list[Word] = []
    unbuilt = (p for k in range(1, 4) for p in _per_points(aut, k))

    def periods():
        # the blocks of periods 1, 2, ..., each length built when first reached
        yield from built
        for p in unbuilt:
            built.append(p)
            yield p

    for extra in range(7):
        for u in _lex_words(state, extra, aut.followers, w):
            for p in periods():
                cand = EvPeriodicSeq.make(u, p)
                if _point_ok(aut, cand.preperiod, cand.period):
                    return cand
    return None
