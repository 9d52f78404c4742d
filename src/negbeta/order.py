"""Alternating lexicographic order on digit words and eventually periodic sequences.

Digits are positive integers; a word is a tuple of digits.  The alternating
order compares like the ordinary lexicographic order at odd positions and
with the comparison reversed at even positions (1-based).  It is the order
under which the digit-expansion map of a negative-base transformation is
monotone, and it decides admissibility everywhere else in this package.

The package's value classes derive from `_Record` (or `_Frozen`, for the
immutable ones) instead of being generated by `@dataclass`.  The base
gives them the constructor, __repr__, __eq__ and __hash__ that a dataclass
would, all read off the class's fields: its __slots__ in order, less an
optional "__dict__" slot, which holds memos such as a cached_property's
value and is no field.  __init__ takes the fields in order, by position
or keyword, fills trailing ones from the class's `_defaults` tuple and
raises TypeError, as a dataclass does, for a missing field, an unknown
keyword, a positional too many or a keyword repeating a positional.  A
class writes its own __init__ only to check its arguments first
(`numeric.IntervalValue` refuses lo > hi).  `@dataclass` builds every
method from source text and execs it, class by class, whenever the package
is imported afresh, and importing `dataclasses` loads `inspect`, `ast`,
`dis` and `tokenize`; these methods are compiled with their module, as any
other function is, and `dataclasses` is imported only to raise its
FrozenInstanceError.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import LengthMismatch

Word = tuple[int, ...]

LT, EQ, GT = -1, 0, 1


def word(digits) -> Word:
    """Coerce an iterable (or digit string like "2112") to a validated word."""
    if isinstance(digits, str):
        digits = [int(c) for c in digits.strip()]
    w = tuple(int(d) for d in digits)
    if any(d < 1 for d in w):
        raise ValueError(f"digits must be >= 1, got {w}")
    return w


def _alt_sign(position: int, a: int, b: int) -> int:
    # Sign of a-vs-b at a 1-based position: natural at odd, reversed at even.
    s = (a > b) - (a < b)
    return s if position % 2 == 1 else -s


def alt_cmp(u: Word, v: Word) -> int:
    """Compare equal-length words; returns LT, EQ or GT in alternating order."""
    if len(u) != len(v):
        raise LengthMismatch(f"{len(u)} vs {len(v)}")
    return cmp_prefix(u, v)


def cmp_prefix(u: Word, v) -> int:
    """Compare a word against the first len(u) digits of a sequence or word,
    stopping at the first digit where they differ; u may be any iterable of
    digits, read lazily.

    EQ means u ties the truncation digit for digit; callers that need a
    strict outcome must interpret the tie themselves (non-strict bounds
    treat it as "within bounds").
    """
    for i, a in enumerate(u, start=1):
        b = v.digit(i) if isinstance(v, EvPeriodicSeq) else v[i - 1]
        if a != b:
            return _alt_sign(i, a, b)
    return EQ


class _Record:
    """A value record whose fields are the class's __slots__, in order,
    less a "__dict__" slot (`_fields`).

    __init__, repr, == and hash are those of a dataclass over the same
    fields: the last len(`_defaults`) fields take those defaults, == compares
    the fields named in `_cmp` (all of them unless the class names fewer)
    between instances of one class, and a record that is not `_Frozen` is
    unhashable.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple([f for f in cls.__slots__ if f != "__dict__"])
        cls._cmp = cls.__dict__.get("_cmp", cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        # the field values in order, or the TypeError a dataclass's
        # __init__ raises for the same call
        names, defaults = cls._fields, cls._defaults
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        first_default = len(names) - len(defaults)
        values = list(args)
        for i in range(len(args), len(names)):
            if names[i] in kwargs:
                values.append(kwargs.pop(names[i]))
            elif i >= first_default:
                values.append(defaults[i - first_default])
            else:
                raise TypeError(f"{cls.__qualname__}() missing required "
                                f"argument {names[i]!r}")
        for key in kwargs:  # each one left names no field or a positional one
            problem = "multiple values for" if key in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {key!r}")
        return values

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._cmp])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented


class _Frozen(_Record):
    """A record whose fields are set once, by `_Record.__init__`; hashable
    unless the class sets __hash__ to None."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which the frozen
        # __setattr__ leaves as the only way to set the fields; a memo in
        # the "__dict__" slot is not carried over
        return self.__class__, tuple([getattr(self, f) for f in self._fields])


class EvPeriodicSeq(_Frozen):
    """An eventually periodic one-sided sequence: preperiod followed by
    an infinitely repeated period.

    Instances are canonical: the period is primitive (not a proper power)
    and the preperiod is minimal (nothing absorbable by rotating the
    period).  Always construct through :meth:`make` so that equality of
    instances coincides with equality of the sequences they denote.
    """

    __slots__ = ("preperiod", "period")

    @staticmethod
    def make(preperiod, period) -> "EvPeriodicSeq":
        pre = word(preperiod)
        per = word(period)
        if not per:
            raise ValueError("period must be nonempty")
        per = _primitive_root(per)
        pre = list(pre)
        per = list(per)
        while pre and pre[-1] == per[-1]:
            pre.pop()
            per = [per[-1]] + per[:-1]
        return EvPeriodicSeq(tuple(pre), tuple(per))

    @staticmethod
    def constant(d: int) -> "EvPeriodicSeq":
        return EvPeriodicSeq.make((), (d,))

    def digit(self, i: int) -> int:
        """1-based digit access."""
        if i < 1:
            raise IndexError(i)
        p = len(self.preperiod)
        if i <= p:
            return self.preperiod[i - 1]
        return self.period[(i - 1 - p) % len(self.period)]

    def prefix(self, n: int) -> Word:
        return (self.preperiod + self.period * (n // len(self.period) + 1))[: max(n, 0)]

    def shift(self, k: int) -> "EvPeriodicSeq":
        """Drop the first k digits."""
        if k < 0:
            raise ValueError(k)
        p = len(self.preperiod)
        if k <= p:
            return EvPeriodicSeq.make(self.preperiod[k:], self.period)
        r = (k - p) % len(self.period)
        return EvPeriodicSeq.make((), self.period[r:] + self.period[:r])

    @property
    def max_digit(self) -> int:
        return max(self.preperiod + self.period)

    def __str__(self) -> str:
        pre = "".join(map(str, self.preperiod))
        per = "".join(map(str, self.period))
        return f"{pre}({per})^inf" if pre else f"({per})^inf"


def _failure_table(w) -> list[int]:
    # fail[i] is the length of the longest proper border of w[:i]; the
    # borders of w[:i] are fail[i], fail[fail[i]], ..., 0.
    n = len(w)
    fail = [0] * (n + 1)
    k = 0
    for i in range(2, n + 1):
        while k > 0 and w[k] != w[i - 1]:
            k = fail[k]
        if w[k] == w[i - 1]:
            k += 1
        fail[i] = k
    return fail


def _primitive_root(w: Word) -> Word:
    # w is a proper power exactly when its length is a multiple of its
    # smallest period n - fail[n] (0 only for the empty word).
    n = len(w)
    r = n - _failure_table(w)[n]
    return w[:r] if r and n % r == 0 else w


def alt_cmp_seq(s: EvPeriodicSeq, t: EvPeriodicSeq) -> int:
    """Exact comparison of two eventually periodic sequences.

    Any difference shows up within the longer preperiod plus one least
    common multiple of the two period lengths; beyond that horizon the
    sequences coincide.
    """
    horizon = max(len(s.preperiod), len(t.preperiod)) + math.lcm(
        len(s.period), len(t.period))
    return cmp_prefix(map(s.digit, range(1, horizon + 1)), t)


BoundSeq = EvPeriodicSeq | Word


def bound_digit(b: BoundSeq, i: int) -> Optional[int]:
    """Digit i of a bound sequence, or None past the end of a finite prefix."""
    if isinstance(b, EvPeriodicSeq):
        return b.digit(i)
    return b[i - 1] if i <= len(b) else None


def bound_len(b: BoundSeq) -> float:
    return math.inf if isinstance(b, EvPeriodicSeq) else len(b)


class ShiftMaximality(_Frozen):
    __slots__ = ("status",   # "yes" | "no" | "undecided"
                 "witness")  # shift index k >= 1 with sigma^k(b) > b
    _defaults = (None,)


def is_alt_shift_maximal(b: BoundSeq) -> ShiftMaximality:
    """Check that b starts with its largest digit and dominates all its
    shifts in the alternating order.

    Exact for eventually periodic sequences.  For a finite prefix the answer
    is "no" (with a witness shift) or "undecided": a prefix can refute but
    never certify maximality.

    Both read one plain prefix w.  For b = pre per^inf, with m = |pre| +
    |per|, w holds 2m digits: shifts from m on repeat earlier ones, and
    sigma^k b agrees with b forever once it agrees on the first m digits
    (past digit |pre| both repeat per), which w[k:] covers for k < m.
    """
    if isinstance(b, EvPeriodicSeq):
        m = len(b.preperiod) + len(b.period)
        w, end = b.prefix(2 * m), ShiftMaximality("yes")
    else:
        w = word(b)
        if not w:
            raise ValueError("empty prefix")
        m, end = len(w), ShiftMaximality("undecided")
    if w[0] != max(w):
        return ShiftMaximality("no", None)
    for k in range(1, m):
        if cmp_prefix(w[k:], w) == GT:
            return ShiftMaximality("no", k)
    return end
