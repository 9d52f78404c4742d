"""Admissible words, periodic points and counting for bounded shift spaces.

A shift is specified by an alphabet, an upper bound sequence b (the digit
expansion of 1, or any sequence dominating its shifts in the alternating
order) and, in the purely-odd-periodic case, a derived lower bound.  A word
is admissible when every suffix stays within the bounds compared against
the corresponding bound prefix; ties at the end of a finite comparison are
within bounds.

Membership, enumeration, counting, follower sets, periodic blocks and
eventually periodic points all run on one suffix-match automaton whose
state is the pair of longest suffix ties with the upper and lower bound
prefixes.  Each spec has one, built on its first query and kept for the
spec's lifetime, so its memoised rows serve every later query and every
layer that asks about the spec.  It is finite: an eventually periodic
bound's track is folded (the lemma at `_Track`), and a finite prefix's
ends at its length.  Its reader (`_Automaton.read`) decides a word from
any state as "yes", "no" or, when a suffix ties the whole of a finite
upper prefix and runs past it, "undetermined"; a periodic point is read
through it until the state at a block boundary repeats.  The graph layer
reuses its upper-bound track: its vertex V_k is the upper match length k.
Walks are counted, on the automaton (`count_words`) and on the graph
layer's folded slices (`graph.path_counts`, `graph.path_count`), by one
kernel whose DP a certified linear recurrence cuts short: `_walk_counts`
extends the counts by the recurrence, `_walk_count` jumps to one length.

The period-n blocks form rotation classes, so one walk serves every length
asked for: the admissible prenecklaces are grown in lexicographic order
(Fredricksen-Kessler-Maiorana) down to the longest, and one point check per
necklace, resumed from the state the walk reached, decides its whole class.
A spec known only as a finite prefix of length H checks every admissible
word of a length n on its own, in lexicographic order, when H <= n or n is
a period of the prefix: only there can a shift of an n-periodic point tie
the whole prefix, and HorizonExhausted names the first such tie in word order.
"""

from __future__ import annotations

import csv
import io
import math
from functools import cached_property
from operator import mul
from typing import Iterator, Optional

from .errors import HorizonExhausted, NotOddPeriodic, SpecPrefixTooShort
from .numeric import GOLDEN_UPPER, BetaValue, _d1_cycle, expand
from .order import (BoundSeq, EvPeriodicSeq, Word, _alt_sign, _failure_table,
                    _Frozen, _Record, bound_digit, bound_len,
                    is_alt_shift_maximal, word)

YES, NO, UNDETERMINED = "yes", "no", "undetermined"


def derived_lower_bound(upper: BoundSeq) -> EvPeriodicSeq:
    """The lower bound attached to a purely periodic upper bound of odd
    period n: the periodic sequence with block 1 b_1 ... b_{n-1} (b_n - 1).
    A finite prefix has no period and raises NotOddPeriodic."""
    if (not isinstance(upper, EvPeriodicSeq) or upper.preperiod
            or len(upper.period) % 2 == 0):
        raise NotOddPeriodic(str(upper))
    per = upper.period
    if per[-1] < 2:
        raise ValueError("last period digit must exceed 1")
    return EvPeriodicSeq.make((), (1,) + per[:-1] + (per[-1] - 1,))


class ShiftSpec(_Frozen):
    """Defining data of a shift: alphabet size, upper bound sequence and an
    optional lower bound (present exactly in the odd-period case)."""

    __slots__ = ("alphabet", "upper", "lower", "origin",
                 "__dict__")  # holds `_automaton` once built
    _cmp = ("alphabet", "upper", "lower")
    _defaults = (None, None)

    @staticmethod
    def make(upper, lower=None, origin=None) -> "ShiftSpec":
        """One-sided spec by default; pass lower="derived" for the two-sided
        odd-period semantics, or an explicit lower bound sequence."""
        if not isinstance(upper, EvPeriodicSeq):
            upper = word(upper)
        check = is_alt_shift_maximal(upper)
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
        return ShiftSpec(2, GOLDEN_UPPER, None, BetaValue.golden())

    @staticmethod
    def from_beta(beta: BetaValue, horizon: int = 256,
                  prefix_len: int = 64) -> "ShiftSpec":
        """Build the spec for a base: the two-sided odd-period spec when
        `classify_d1` certifies a cycle, otherwise a certified prefix of
        prefix_len digits from one walk of the orbit of 1.

        Only an integer base b has a cycle, (b+1)^inf, certified when
        horizon >= 2 (the lemma at `numeric._d1_cycle`), so on every other
        base horizon is only validated.

        The bound is not checked for shift maximality, as `make` checks a
        bound from outside: the map T sends (0, 1] into itself and the
        expansion d is increasing in the alternating order, so
        sigma^n d(1) = d(T^n 1) <= d(1) for every n (Ito-Sadahiro 2009), and
        no certified prefix of d(1) is refuted; (b+1)^inf ties its shifts.
        """
        cycle = _d1_cycle(beta, horizon)
        if cycle is not None:
            upper = EvPeriodicSeq((), cycle)  # a single digit is canonical
            return ShiftSpec(cycle[0], upper, derived_lower_bound(upper), beta)
        got = expand(beta, 1, prefix_len)
        upper = got.digits[: got.certified]
        if not upper:
            raise ValueError("empty prefix")
        return ShiftSpec(upper[0], upper, None, beta)

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

    @cached_property
    def _automaton(self) -> "_Automaton":
        # kept in the instance __dict__, beside the fields: ==, hash and
        # repr see the fields only, and a copy or an unpickled spec is
        # rebuilt through __init__ and builds its own automaton
        return _Automaton(self)


class _Track:
    """Suffix matching against one bound sequence (a KMP automaton).

    A state is the length k of the longest suffix of the word read so far
    that ties the bound prefix b_1 .. b_k.  The live ties are k and its
    border chain fail[k], fail[fail[k]], ..., 0; appending a digit compares
    it with b_{ell+1} at every live tie ell.  `sense` is the alternating
    sign that breaks the bound: +1 for an upper bound, -1 for a lower
    bound, 0 for plain matching.  An upper bound must dominate its shifts
    (as every spec's upper bound does): then a digit that extends some tie
    breaks none of the shorter ones; a lower bound's digit extends a tie
    only when no shorter tie refuses it.  Results are memoised in the track;
    a spec's tracks belong to its automaton, so the memo is kept per spec
    and shared by its queries (why that is safe: `_Automaton`).

    Either kind builds its failure table once, at construction.  A finite
    prefix keeps raw match lengths.  An eventually periodic bound
    b = pre per^inf is folded at (N, P): the track keeps the first N + P
    digits and returns N wherever the match length would be N + P, so its
    states are 0 .. N + P - 1.  By the lemma, rows k and k + P agree for
    k >= N but for the spine edge (digit b_{k+1} -> k + 1), moved up by P.

    Lemma.  Let q = |per|, P = q, or 2q when q is odd (the order reads the
    parity of a position), and f(k) the longest proper border of
    b_1 .. b_k.  For either sense, row k refuses a digit a != b_{k+1} on
    the breaking side of b_{k+1} at position k + 1, sends any other
    a != b_{k+1} where row f(k) does (to 0 from k = 0), and sends b_{k+1}
    to k + 1, for a lower bound only when row f(k) accepts b_{k+1} (or
    k = 0).  f(k + 1) is the plain match length after reading b_{k+1} from
    f(k).  For k >= |pre|, b_{k+1} and the parity of k + 1 repeat at
    k + P.  Hence, if N >= |pre| + q and
      (a) f(N + P) = f(N): then f(k + P) = f(k) for every k >= N by
          induction, so rows k and k + P read the same row f(k), the
          acceptance of a lower bound's spine included; or
      (b) f(N) = N - q: then f(k) = k - q for every k >= N, since
          b_{k-q+1} = b_{k+1} keeps extending the border.  A lower bound's
          spine at k is accepted exactly when row k - q accepts the same
          digit, its own spine, so acceptance is q-periodic.  For even q,
          positions k + 1 and k + q + 1 have the same parity, so a digit
          a != b_{k+1} is refused at k + q exactly when at k, and is
          otherwise sent where row f(k + q) = k sends it.  For odd q,
          positions k + 1 and k - q + 1 have opposite parities, so such a
          digit lies on the breaking side at exactly one of them: row k
          refuses it, or row k - q does and row k sends it where row
          f(k) = k - q does, nowhere.  Rows >= N hold the spine alone.
    Either way the back edges from rows >= N are those of rows N .. N+P-1.
    They target no vertex above |pre| + P: a back edge of row k goes to at
    most f(k) + 1; in (a), which needs pre nonempty, f repeats and is below
    |pre| + q for large k (a longer border would make b_1 .. b_k q-periodic
    across the end of pre, against its minimality); (b) makes b_1 .. b_N
    q-periodic, so pre is empty, and every border that decides a back edge
    is shorter than q.

    The constructor starts from N = |pre| + P + 2 and checks (a) or (b) on
    the failure table of the first N + P digits.  On a few bounds whose
    prefix repeats a short period past |pre| (such as 2111112(1)^inf)
    neither holds there and N moves up by P; one of them holds once
    N >= 2|pre| + 2q, where f(k) depends only on k mod q (or, for a purely
    periodic bound, equals k - q).
    """

    def __init__(self, bound: BoundSeq, sense: int):
        self.sense = sense
        self.finite = not isinstance(bound, EvPeriodicSeq)
        self.memo: dict[int, dict[int, Optional[int]]] = {}  # a -> k -> answer
        if self.finite:
            self.N = self.P = None
            self.known, self.digits, self.wrap = len(bound), list(bound), {}
            self.fail = _failure_table(bound)
            return
        q = len(bound.period)
        P = q if q % 2 == 0 else 2 * q
        N = len(bound.preperiod) + P + 2
        fail = _failure_table(bound.prefix(N + P))
        while not (fail[N + P] == fail[N] or fail[N] == N - q):
            N += P
            fail = _failure_table(bound.prefix(N + P))
        self.N, self.P, self.known, self.fail = N, P, math.inf, fail
        self.digits, self.wrap = list(bound.prefix(N + P)), {N + P: N}

    def advance(self, k: int, a: int) -> Optional[int]:
        """The state after appending digit a, or None when a breaks the
        bound at a live tie."""
        digits = self.digits
        if k >= len(digits):
            raise SpecPrefixTooShort(f"upper bound needed at index {k + 1}")
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
                k = self.fail[k]
                got = memo.get(k, memo)
                if got is memo:
                    continue
            break
        for k in reversed(chain):
            if got is not None and digits[k] == a:
                got = k + 1  # the longest tie of a lower bound that a extends
            memo[k] = got
        return self.wrap.get(got, got)

    def row(self, k: int, alphabet: int) -> dict[int, int]:
        """The out-row of state k: accepted digit -> next state."""
        row = {}
        for a in range(1, alphabet + 1):
            j = self.advance(k, a)
            if j is not None:
                row[a] = j
        return row


class _Automaton:
    """The suffix-match automaton of a shift.

    A state is the pair of the tracks' states (upper, lower); the lower one
    stays 0 for one-sided shifts.  A periodic bound's track has N + P
    states, so there are at most their product.  `_next` steps both tracks
    by one digit; the transitions out of a state are built from it for the
    whole alphabet at the state's first visit and memoised.

    A spec has one automaton (`ShiftSpec._automaton`), kept for the spec's
    lifetime, and every query on the spec reads the rows that earlier
    queries memoised.  Sharing is safe:
      - every memo entry (a track's answer for a state and a digit, an
        out-row) is a pure function of the spec's bounds, so no query
        leaves an answer that another query would not compute;
      - `_Track.advance` raises SpecPrefixTooShort only at its entry,
        before it writes any memo entry (the border chain it walks then
        only shrinks);
      - `_out` stores a row only after every digit of it is decided.
    So a query that raises mid-walk (HorizonExhausted, SpecPrefixTooShort)
    leaves no partial row, and the next query sees what a fresh automaton
    would compute.
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
            return self.upper.fail[state[0]], state[1]
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
    aut = spec._automaton
    return aut.read(aut.start, word(w))[0]


def _lex_words(start, n: int, children) -> Iterator[Word]:
    """The labels of every length-n path from `start`, in lexicographic
    order; children(node) lists (label, next node) pairs in increasing
    label order.  An explicit stack replaces recursion, so n is limited by
    memory only."""
    if n == 0:
        yield ()
        return
    acc: list = []
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
    aut = spec._automaton
    yield from _lex_words(aut.start, n, aut.successors)


def enumerate_words(spec: ShiftSpec, n: int) -> list[Word]:
    return list(iter_words(spec, n))


class CountTable(_Record):
    """Per-length exact counts of admissible words and periodic blocks."""

    __slots__ = ("rows",)  # n, count_words, count_per (optional), exact

    def to_csv(self) -> str:
        return _csv_text(["n", "count_L", "count_Per", "exact"],
                         ([r["n"], r["count_words"],
                           "" if (per := r.get("count_per")) is None else per,
                           int(r["exact"])] for r in self.rows))


def _csv_text(header: list, rows) -> str:
    """The header line and the rows as `csv.writer` writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _walk_terms(start, nmax: int, targets, size: int):
    """The shared part of `_walk_counts` and `_walk_count`: the counts of
    length-n walks from `start` in a graph of at most `size` states, where
    targets(v) lists the targets of v's out-edges with multiplicity, and
    the recurrence they obey (None when none is certified).

    The counts are 1^T A^n e_start for the size x size matrix A, so by
    Cayley-Hamilton they satisfy a linear recurrence of order at most size
    over the integers.  A DP over path multiplicities runs for the first
    2·size lengths; a recurrence of order d <= size that `_recurrence`
    checks on those 2·size + 1 exact counts then generates every later
    count (Massey 1969, "Shift-register synthesis and BCH decoding"): its
    residual t_k = counts[k] - sum of q times the d counts before it obeys
    the order-size recurrence of the counts from k = d + size on, and is
    zero for k = d .. d + size - 1, hence zero for every k >= d.  Without
    such a recurrence the DP goes on to nmax.  Every reachable state is
    reached within size - 1 steps, so a targets call that raises (at the
    whole tie of a finite prefix) raises before certification, at the same n.
    """
    vec, counts = {start: 1}, [1]
    for k in range(1, nmax + 1):
        if k == 2 * size + 1 and (q := _recurrence(counts, size)) is not None:
            return counts, q
        nxt: dict = {}
        for v, c in vec.items():
            for t in targets(v):
                nxt[t] = nxt.get(t, 0) + c
        vec = nxt
        counts.append(sum(vec.values()))
    return counts, None


def _walk_counts(start, nmax: int, targets, size: int) -> list[int]:
    """Numbers of length-n walks from `start` for n = 0..nmax (exact, big
    integers): `_walk_terms`, extended one sum of d products per length."""
    counts, q = _walk_terms(start, nmax, targets, size)
    if q is not None:
        d = len(q)
        for j in range(len(counts), nmax + 1):
            counts.append(sum(map(mul, q, counts[j - d:j])))
    return counts


def _walk_count(start, n: int, targets, size: int) -> int:
    """`_walk_counts(start, n, targets, size)[n]` without the counts
    between: past the DP's 2·size lengths it jumps to length n.

    The certified q holds for every k >= d, so chi(x) = x^d - sum(q[i] x^i)
    applied to the shift E, (E c)_k = c_{k+1}, annihilates the counts.
    Writing x^n = m(x) chi(x) + r(x) with deg r < d gives
    c_n = (E^n c)_0 = (r(E) c)_0 = sum(r[i] c_i), and r costs about log2(n)
    squarings modulo chi (Fiduccia 1985).
    """
    counts, q = _walk_terms(start, n, targets, size)
    return counts[n] if q is None else sum(map(mul, _x_pow_mod(n, q), counts))


def _x_pow_mod(n: int, q: list[int]) -> list[int]:
    """Coefficients, constant first, of x^n modulo x^d - sum(q[i] x^i),
    d = len(q) >= 1, by square-and-multiply over the bits of n."""
    d = len(q)
    r = [1] + [0] * (d - 1)
    for bit in bin(n)[2:]:
        s = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            s[2 * i] += a * a
            a += a
            for k, b in enumerate(r[i + 1:], 2 * i + 1):
                s[k] += a * b
        if bit == "1":
            s.insert(0, 0)
        for k in range(len(s) - 1, d - 1, -1):
            if c := s[k]:
                for i, b in enumerate(q, k - d):
                    s[i] += c * b
        r = s[:d]
    return r


# A Mersenne prime for the lift below; a coefficient past 2^126 (a huge
# alphabet) makes the lift fail, which only means that the DP goes on.
_PRIME = 2 ** 127 - 1


def _recurrence(terms: list[int], size: int) -> Optional[list[int]]:
    """Coefficients q with terms[k] = sum(q[i] * terms[k - d + i]) for
    every k >= d = len(q), when terms (of a sequence whose linear
    complexity is at most size) certify that recurrence for the whole
    sequence; None otherwise.

    Berlekamp-Massey modulo _PRIME proposes the shortest recurrence, its
    coefficients lifted to the integers of least absolute value.  It is
    returned only when d <= size, len(terms) >= d + size (Massey's bound)
    and it reproduces every term exactly over the integers.
    """
    p = _PRIME
    s = [t % p for t in terms]
    conn, prev = [1], [1]   # connection polynomials, constant term first
    L, gap, last = 0, 1, 1
    for n, t in enumerate(s):
        disc = (t + sum(map(mul, conn[1:L + 1], reversed(s[n - L:n])))) % p
        if not disc:
            gap += 1
            continue
        coef = disc * pow(last, -1, p) % p
        old = conn[:]
        conn += [0] * (len(prev) + gap - len(conn))
        for i, c in enumerate(prev):
            conn[i + gap] = (conn[i + gap] - coef * c) % p
        if 2 * L <= n:
            L, prev, last, gap = n + 1 - L, old, disc, 1
        else:
            gap += 1
    if L > size or len(terms) < L + size:
        return None
    conn += [0] * (L + 1 - len(conn))
    q = [-c if c <= p // 2 else p - c for c in reversed(conn[1:L + 1])]
    if any(sum(map(mul, q, terms[k - L:k])) != terms[k]
           for k in range(L, len(terms))):
        return None
    return q


def count_words(spec: ShiftSpec, nmax: int, with_per: bool = False) -> CountTable:
    """Exact word counts for every length up to nmax: walks from the start
    of the suffix-match automaton, counted by `_walk_counts`.  A track has
    len(digits) states when folded, one more for a finite prefix."""
    if nmax < 1:
        raise ValueError("nmax >= 1 required")
    aut = spec._automaton
    size = math.prod(len(t.digits) + t.finite for t in (aut.upper, aut.lower) if t)
    counts = _walk_counts(aut.start, nmax, lambda s: aut._out(s).values(), size)
    rows = [{"n": n, "count_words": count, "exact": True}
            for n, count in enumerate(counts[1:], start=1)]
    if with_per:
        for row, count in zip(rows, _per_counts(aut, range(1, nmax + 1)).values()):
            row["count_per"] = count
    return CountTable(rows)


def _point_ok(aut: _Automaton, head: Word, block: Word,
              resume: Optional[tuple[int, int]] = None) -> bool:
    """Exact membership of the point head block^inf, read digit by digit
    through the automaton up to the first broken bound.

    It lies in the shift once the state at a block boundary repeats: the
    run from there repeats one already read.  The automaton has finitely
    many states (a periodic bound's track is folded, a finite prefix's
    stops at its length), so that always happens.  A caller that has
    already read the block (with an empty head) from the start state passes
    the state it reached as `resume`, and reading goes on from there.
    """
    step, state, read = aut.step, aut.start, 0
    seen = set()
    try:
        if resume is not None:
            seen.add(state)
            state, read = resume, len(block)
        for a in head:
            state = step(state, a)
            if state is None:
                return False
            read += 1
        while state not in seen:
            seen.add(state)
            for a in block:
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


def _necklaces(aut: _Automaton, ns) -> Iterator[tuple[int, Word, int, tuple[int, int]]]:
    """(n, w, p, state) for every necklace w of a length n in the set ns
    that the automaton reads from its start state, from one walk in
    lexicographic order: w is the least of its rotations, p its least
    period and state the one w reaches.

    Prenecklaces are grown digit by digit (Fredricksen-Kessler-Maiorana)
    down to length max(ns): after a prenecklace w_1 .. w_t of period p, a
    digit below w_{t+1-p} would start a smaller rotation and is never
    entered, w_{t+1-p} keeps the period and a larger digit makes it t + 1.
    A prenecklace of length n is a necklace exactly when p divides n."""
    nmax = max(ns)
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
            if t + 1 < nmax:
                if t + 1 in ns and (t + 1) % q == 0:
                    yield t + 1, (*acc, a), q, state
                acc.append(a)
                stack.append((iter(aut.successors(state)), q))
                break
            if nmax % q == 0:
                yield nmax, (*acc, a), q, state
        else:
            stack.pop()
            if acc:
                acc.pop()


def _per_blocks(aut: _Automaton, ns) -> Iterator[tuple[int, Word, int]]:
    """The period-n blocks of every n in ns by rotation class: triples
    (n, w, k) such that w and its first k - 1 rotations are period-n
    blocks, together every block of each length once.

    The blocks are closed under rotation, so one walk of the necklaces of
    all lengths and one check per necklace w, resumed from the state the
    walk reached, credit the p distinct rotations of w (p its least period).
    A shift of an n-periodic point can tie the whole of a finite upper
    prefix only if the prefix has period n (as every prefix of length H <= n
    has); such an n is left out of the walk, which then raises nothing.
    Every admissible word of such a length is checked on its own (k = 1)
    before the walk, n in the order of ns, so that HorizonExhausted names
    the first tie in word order without a walk of the other lengths."""
    if any(n < 1 for n in ns):
        raise ValueError("n >= 1 required")
    up = aut.upper
    by_word = [n for n in dict.fromkeys(ns) if up.finite and all(
        up.digits[i] == up.digits[i + n] for i in range(up.known - n))]
    for n in by_word:
        for w in _lex_words(aut.start, n, aut.successors):
            if _point_ok(aut, (), w):
                yield n, w, 1
    if walked := set(ns).difference(by_word):
        for n, w, p, state in _necklaces(aut, walked):
            if _point_ok(aut, (), w, state):
                yield n, w, p


def _per_counts(aut: _Automaton, ns) -> dict[int, int]:
    """n -> the number of period-n blocks for every n in ns (`_per_blocks`)."""
    counts = dict.fromkeys(ns, 0)
    for n, _w, k in _per_blocks(aut, ns):
        counts[n] += k
    return counts


def _per_points(aut: _Automaton, n: int) -> list[Word]:
    return sorted(w[i:] + w[:i] for _n, w, k in _per_blocks(aut, [n]) for i in range(k))


def per_points(spec: ShiftSpec, n: int) -> list[Word]:
    """Blocks of the points fixed by the n-th shift power: all w of length
    n whose every rotation, repeated periodically, stays within bounds, in
    lexicographic order.

    Blocks of non-least period are included, matching sigma^n x = x.  They
    are found by necklace, one check per rotation class whose members are
    then listed; `_per_blocks` says when a finite prefix is checked word by
    word instead."""
    return _per_points(spec._automaton, n)


def per_count(spec: ShiftSpec, n: int) -> int:
    """len(per_points(spec, n)) without listing the blocks (`_per_counts`)."""
    return _per_counts(spec._automaton, [n])[n]


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


def follower_words(spec: ShiftSpec, w, depth: int) -> list[Word]:
    """All length-`depth` words u with w u admissible."""
    w = word(w)
    aut = spec._automaton
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
    return _point_ok(spec._automaton, (), p)


def seq_within_bounds(spec: ShiftSpec, seq: EvPeriodicSeq) -> bool:
    """Exact membership of an eventually periodic point: every shift stays
    within the bounds.  Distinct shifts are finite in number."""
    return _point_ok(spec._automaton, seq.preperiod, seq.period)


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
    aut = spec._automaton
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
        for u in _lex_words(state, extra, aut.followers):
            for p in periods():
                cand = EvPeriodicSeq.make(w + u, p)
                if _point_ok(aut, cand.preperiod, cand.period):
                    return cand
    return None
