"""The reduced finitary power monoid of a monoid H.

``FinSubset1`` models a finite subset of H containing the identity;
setwise multiplication makes these a commutative monoid with identity
``{1}``.  Elements are stored sorted and duplicate-free, so set equality
is plain tuple equality and every report is byte-stable.

Over the ambient group Z a set is also an int bitmask, and the setwise
product is a sumset (Fan and Tringali): one shift-OR per member of the
smaller set.  Product, quotients and reversion run on masks when the
sets they read span at most 64 bits per member in total (the rule is
stated in ``set_product``), so a sparse set such as {0, 10**12} never
becomes a huge int.  A result's start, byte min X // 8, is read off
the mask's lowest set byte, its members a byte at a time through one
bounded table of element tuples, and its monoid, members and (start,
mask) pair, which the next mask operation reads as one, are set on its
slots in one step.
Sparse sets, and sets over other ambient groups, take the generic path,
which sums coordinate tuples.  Power and divides reach masks through the
product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add
from typing import Iterable

from .ambient import GroupElement
from .monoids import _Z1, FullN0, MonoidSpec

__all__ = [
    "FinSubset1",
    "QuotientReport",
    "MonoidMismatchError",
    "MembershipError",
    "checked_members",
    "set_product",
    "set_power",
    "divides",
    "quotients",
    "quotient_multiplicity",
    "reversion",
]


class MonoidMismatchError(ValueError):
    """Setwise operation across two different monoids."""


class MembershipError(ValueError):
    """A set literal contains an element outside its monoid."""

    def __init__(self, monoid: MonoidSpec, element: GroupElement):
        self.monoid = monoid
        self.element = element
        super().__init__(f"element {element!r} is not a member of monoid {monoid.label!r}")


def checked_members(
    monoid: MonoidSpec, elements: Iterable[GroupElement]
) -> tuple[GroupElement, ...]:
    """The distinct ``elements`` with the identity, sorted, each checked
    for membership in that order: the first non-member raises
    ``MembershipError``.  The identity belongs to every monoid, so it is
    never asked about."""
    identity = monoid.identity()
    # the identity object goes in first, so an equal one in ``elements``
    # collapses onto it and the loop skips it by identity, not by ``==``
    members = {identity}
    members.update(elements)
    canon = sorted(members, key=GroupElement.key)
    for u in canon:
        if u is not identity and not monoid.contains(u):
            raise MembershipError(monoid, u)
    return tuple(canon)


@dataclass(frozen=True, slots=True)
class FinSubset1:
    """Finite identity-containing subset of a monoid, canonically sorted.

    ``make`` checks a set literal.  The constructor trusts its caller:
    ``elements`` must be sorted by ``GroupElement.key``, duplicate-free,
    hold the identity and lie in ``monoid``.  The kernel skips it, setting
    the slots in one step, ``_bits`` too: the (start, mask) pair ``_mask``
    reads as one, which equality, hash, repr, copies and pickles skip.
    """

    monoid: MonoidSpec
    elements: tuple[GroupElement, ...]
    _bits: tuple[int, int] = field(init=False, compare=False, repr=False)

    @classmethod
    def make(cls, monoid: MonoidSpec, elements: Iterable[GroupElement]) -> FinSubset1:
        return cls(monoid, checked_members(monoid, elements))

    @classmethod
    def from_ints(cls, monoid: MonoidSpec, values: Iterable[int]) -> FinSubset1:
        """Convenience constructor for monoids inside the ambient group Z."""
        return cls.make(monoid, [monoid.signature.element(v) for v in values])

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, u: GroupElement) -> bool:
        return u in self.elements

    def ints(self) -> tuple[int, ...]:
        """Free coordinates for subsets of monoids inside Z."""
        return tuple(u.coords[0] for u in self.elements)

    def __mul__(self, other: FinSubset1) -> FinSubset1:
        return set_product(self, other)

    def __pow__(self, n: int) -> FinSubset1:
        return set_power(self, n)

    def __repr__(self) -> str:
        return "{" + ",".join(repr(u) for u in self.elements) + "}"

    def __reduce__(self):
        return FinSubset1, (self.monoid, self.elements)


_set_monoid = FinSubset1.monoid.__set__
_set_elements = FinSubset1.elements.__set__
_set_bits = FinSubset1._bits.__set__


def _check_same_monoid(x: FinSubset1, y: FinSubset1) -> None:
    if x.monoid is not y.monoid and x.monoid != y.monoid:
        raise MonoidMismatchError(
            f"sets over different monoids: {x.monoid.label!r} vs {y.monoid.label!r}"
        )


def _masked(x: FinSubset1, y: FinSubset1) -> bool:
    """Whether an operation reading X and Y runs on masks: they lie in the
    ambient group Z and span X + span Y <= 64(|X| + |Y|), the span of a
    set being max - min + 1.  One-set operations ask about (X, X)."""
    sig = x.monoid.signature
    if sig is not _Z1 and sig != _Z1:
        return False
    xs, ys = x.elements, y.elements
    span = xs[-1].coords[0] - xs[0].coords[0] + ys[-1].coords[0] - ys[0].coords[0] + 2
    return span <= 64 * (len(xs) + len(ys))


def _start(x: FinSubset1) -> int:
    """The byte min X // 8 that X's mask starts at: bit v - 8*start is
    member v.  A product's mask is built from its factors' start sum."""
    return x.elements[0].coords[0] >> 3


def _shift_or(x: FinSubset1, start: int, m: int) -> int:
    """The mask of X*M, M given by its mask ``m``; with m = 1, X's mask."""
    offset = start << 3
    out = 0
    for u in x.elements:
        out |= m << (u.coords[0] - offset)
    return out


def _mask(x: FinSubset1) -> tuple[int, int]:
    """X's ``_bits``, computed on first use unless the kernel built X."""
    try:
        return x._bits
    except AttributeError:
        start = _start(x)
        _set_bits(x, (start, _shift_or(x, start, 1)))
        return x._bits


# bounded: {0,a,3}^1000 next to every product of two subsets of {0..8}
# takes under 800 entries, and 1024 entries of 8 elements hold 1.3 MB
@lru_cache(maxsize=1024)
def _byte_elements(index: int, byte: int) -> tuple[GroupElement, ...]:
    """The members 8*index + i of Z, i a set bit of ``byte``, ascending."""
    base = index << 3
    return tuple(GroupElement(_Z1, (base + i,)) for i in range(8) if byte >> i & 1)


def _from_mask(monoid: MonoidSpec, m: int, start: int) -> FinSubset1:
    """The set of mask m from byte ``start``, stored from byte min X // 8."""
    low = (m & -m).bit_length() - 1 >> 3
    if low:
        m >>= low << 3
        start += low
    elements: list[GroupElement] = []
    for index, byte in enumerate(m.to_bytes((m.bit_length() + 7) >> 3, "little"), start):
        if byte:
            elements += _byte_elements(index, byte)
    x = object.__new__(FinSubset1)
    _set_monoid(x, monoid)
    _set_elements(x, tuple(elements))
    _set_bits(x, (start, m))
    return x


def set_product(x: FinSubset1, y: FinSubset1) -> FinSubset1:
    """Setwise product {u + v : u in X, v in Y}.

    Over Z it runs on masks when span X + span Y <= 64(|X| + |Y|): one
    shift-OR of the larger mask per member of the smaller set.  In Z,
    |X*Y| >= |X| + |Y| - 1, so a mask then holds at most 64 bits per
    member of the result plus 63; a sparse set such as {0, 10**12} takes
    the generic path.  Quotients and reversion use the same rule.
    """
    _check_same_monoid(x, y)
    if _masked(x, y):
        if len(x.elements) > len(y.elements):
            x, y = y, x
        sx, (sy, my) = _start(x), _mask(y)
        return _from_mask(x.monoid, _shift_or(x, sx, my), sx + sy)
    # coordinate tuples, torsion reduced before two sums are compared
    sig = x.monoid.signature
    ys = [v.coords for v in y.elements]
    if sig.torsion_orders:
        out = {sig._reduced(tuple(map(add, u.coords, v))) for u in x.elements for v in ys}
    else:
        out = {tuple(map(add, u.coords, v)) for u in x.elements for v in ys}
    return FinSubset1(x.monoid, tuple(GroupElement(sig, c) for c in sorted(out)))


def set_power(x: FinSubset1, n: int) -> FinSubset1:
    """n-fold product by repeated squaring; the zeroth power is {identity}."""
    if type(n) is not int:  # bool is refused too
        raise ValueError(f"set powers need an integer exponent, not {n!r}")
    if n < 0:
        raise ValueError("set powers need n >= 0")
    out = FinSubset1(x.monoid, (x.monoid.identity(),))
    while n:
        if n & 1:
            out = set_product(out, x)
        n >>= 1
        if n:
            x = set_product(x, x)
    return out


def divides(x: FinSubset1, y: FinSubset1) -> FinSubset1 | None:
    """The largest Z with X*Z = Y, or None when X does not divide Y.

    Every witness Z lies inside Z* = {z in Y : X + z <= Y}, because the
    identity is in X and X*Z = Y.  So Y = X*Z <= X*Z* <= Y, and X divides
    Y exactly when X*Z* = Y.  Z* contains the identity exactly when
    X <= Y, which every divisor satisfies.
    """
    _check_same_monoid(x, y)
    y_set = set(y.elements)
    if not set(x.elements) <= y_set:
        return None
    z = FinSubset1(
        y.monoid, tuple(w for w in y.elements if all((u + w) in y_set for u in x.elements))
    )
    return z if set_product(x, z).elements == y.elements else None


@dataclass(frozen=True, slots=True)
class QuotientReport:
    """Multiplicity of every quotient of a set X.

    An element a != identity of the monoid is a quotient of X of
    multiplicity n when exactly n members b of X satisfy a + b in X.
    Every non-identity member of X is one.
    """

    entries: tuple[tuple[GroupElement, int], ...]

    def __len__(self) -> int:
        return len(self.entries)


def quotient_multiplicity(x: FinSubset1, a: GroupElement) -> int:
    """Number of b in X with a + b in X (0 when a is no quotient: the
    identity and non-members of X's monoid never are)."""
    if not x.monoid.contains(a) or a.is_identity():
        return 0
    members = set(x.elements)
    return sum(1 for b in x.elements if (a + b) in members)


def quotients(x: FinSubset1) -> QuotientReport:
    """All quotients of X with multiplicities.

    The multiplicity of a is the number of pairs (u, v) of members with
    u - v = a (take u = a + b, v = b), so one count of the pairwise
    differences u - v, u != v, taken in the ambient group, gives every
    candidate with its multiplicity; only those landing in the monoid
    count.  On masks, the count of a and of -a is the popcount of
    X & (X >> a).  Each multiplicity is cross-checked against the
    cardinality identity |{identity, a} * X| = 2|X| - n.
    """
    monoid = x.monoid
    identity = monoid.identity()
    if _masked(x, x):
        m = _mask(x)[1]
        counts = {}
        for a in range(1, m.bit_length()):
            n = (m & (m >> a)).bit_count()
            if n:
                counts[GroupElement(_Z1, (a,))] = counts[GroupElement(_Z1, (-a,))] = n
    else:
        counts = Counter(u - v for u in x.elements for v in x.elements if u is not v)
    entries = []
    for a in sorted(counts, key=GroupElement.key):
        if not monoid.contains(a):
            continue
        n = counts[a]
        pair = FinSubset1(monoid, tuple(sorted({identity, a}, key=GroupElement.key)))
        if len(set_product(pair, x)) != 2 * len(x) - n:
            raise AssertionError(
                f"multiplicity cross-check failed for candidate {a!r} on {x!r}"
            )
        entries.append((a, n))
    return QuotientReport(tuple(entries))


def reversion(x: FinSubset1) -> FinSubset1:
    """max X - X, the reflection of a subset of N0 about its maximum."""
    if not isinstance(x.monoid, FullN0):
        raise MonoidMismatchError("reversion is defined over the full monoid N0 only")
    if _masked(x, x):
        # an N0 set's mask starts at byte 0, and its top bit is max X
        return _from_mask(x.monoid, int(format(_mask(x)[1], "b")[::-1], 2), 0)
    top = x.elements[-1]
    return FinSubset1(x.monoid, tuple(top - u for u in reversed(x.elements)))
