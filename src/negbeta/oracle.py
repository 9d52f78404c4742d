"""Slow reference implementations used only by tests.

Everything here re-derives its answers from first principles with plain
loops: per-suffix comparisons written out digit by digit, quadratic suffix
scans, and full alphabet^n sweeps.  No helper is shared with the optimized
modules, so agreement between the two is meaningful.
"""

from __future__ import annotations

import math
from itertools import product


def _digit_of(bound, i):
    """1-based digit of an eventually periodic bound or a finite prefix."""
    pre = getattr(bound, "preperiod", None)
    if pre is not None:
        per = bound.period
        if i <= len(pre):
            return pre[i - 1]
        return per[(i - 1 - len(pre)) % len(per)]
    return bound[i - 1] if i <= len(bound) else None


def naive_admissible(spec, w) -> str:
    """Literal per-suffix membership test against both bounds."""
    w = tuple(w)
    if any(not 1 <= d <= spec.alphabet for d in w):
        return "no"
    undecided = False
    for start in range(len(w)):
        suffix = w[start:]
        # upper: the suffix must not exceed the bound prefix
        verdict = None  # None = tie so far
        for pos in range(1, len(suffix) + 1):
            d = _digit_of(spec.upper, pos)
            if d is None:
                undecided = True
                break
            a = suffix[pos - 1]
            if a == d:
                continue
            bigger = a > d
            if pos % 2 == 0:
                bigger = not bigger
            verdict = "over" if bigger else "under"
            break
        if verdict == "over":
            return "no"
        if spec.lower is not None:
            for pos in range(1, len(suffix) + 1):
                d = _digit_of(spec.lower, pos)
                a = suffix[pos - 1]
                if a == d:
                    continue
                smaller = a < d
                if pos % 2 == 0:
                    smaller = not smaller
                if smaller:
                    return "no"
                break
    return "undetermined" if undecided else "yes"


def naive_k(bprefix, w) -> int:
    """Quadratic suffix scan for the longest suffix of w that is a prefix
    of the pattern."""
    bprefix = tuple(bprefix)
    w = tuple(w)
    for k in range(min(len(w), len(bprefix)), 0, -1):
        if w[len(w) - k:] == bprefix[:k]:
            return k
    return 0


def naive_per(spec, n: int) -> list[tuple]:
    """Full alphabet^n sweep: keep the blocks whose every rotation repeats
    into a sequence within the bounds."""
    out = []
    for w in product(range(1, spec.alphabet + 1), repeat=n):
        if all(_repeat_in_bounds(spec, w[i:] + w[:i]) for i in range(n)):
            out.append(w)
    return out


def _repeat_in_bounds(spec, block) -> bool:
    n = len(block)
    up = spec.upper
    pre = getattr(up, "preperiod", None)
    if pre is not None:
        horizon = len(pre) + math.lcm(n, len(up.period)) + 1
    else:
        horizon = len(up)
    verdict_ok = None
    for pos in range(1, horizon + 1):
        a = block[(pos - 1) % n]
        d = _digit_of(up, pos)
        if a == d:
            continue
        bigger = a > d
        if pos % 2 == 0:
            bigger = not bigger
        verdict_ok = not bigger
        break
    if verdict_ok is False:
        return False
    if verdict_ok is None and pre is None:
        raise RuntimeError("rotation ties the whole known prefix; undecidable")
    if spec.lower is not None:
        lower = spec.lower
        horizon = math.lcm(n, len(lower.period)) + 1
        for pos in range(1, horizon + 1):
            a = block[(pos - 1) % n]
            d = _digit_of(lower, pos)
            if a == d:
                continue
            smaller = a < d
            if pos % 2 == 0:
                smaller = not smaller
            if smaller:
                return False
            break
    return True


def naive_path_words(graph, n: int, start: int = 0) -> set[tuple]:
    """All length-n label words of paths from `start`, by unpruned walks
    over the explicit edge list."""
    words = set()
    edges = graph.edges

    def grow(v, acc):
        if len(acc) == n:
            words.add(tuple(acc))
            return
        for src, dst, label in edges:
            if src == v:
                grow(dst, acc + [label])

    grow(start, [])
    return words
