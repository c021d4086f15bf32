"""The reduced finitary power monoid of a monoid H.

``FinSubset1`` models a finite subset of H containing the identity;
setwise multiplication makes these a commutative monoid with identity
``{1}``.  Elements are stored sorted and duplicate-free, so set equality
is plain tuple equality and every report is byte-stable.

The exhaustive verification runs multiply hundreds of thousands of
subsets of N0, so products over the ambient group Z use a dedicated
integer fast path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
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


# bounded: 4096 entries hold every member of a set spanning 0..4095,
# such as {0, 1, 3}^1000 with its members 0..3000
@lru_cache(maxsize=4096)
def _z1_element(x: int) -> GroupElement:
    return GroupElement(_Z1, (x,))


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
    hold the identity and lie in ``monoid``.
    """

    monoid: MonoidSpec
    elements: tuple[GroupElement, ...]

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


def _check_same_monoid(x: FinSubset1, y: FinSubset1) -> None:
    if x.monoid != y.monoid:
        raise MonoidMismatchError(
            f"sets over different monoids: {x.monoid.label!r} vs {y.monoid.label!r}"
        )


def set_product(x: FinSubset1, y: FinSubset1) -> FinSubset1:
    """Setwise product {u + v : u in X, v in Y}."""
    _check_same_monoid(x, y)
    if x.monoid.signature == _Z1:
        values: set[int] = set()
        ys = [v.coords[0] for v in y.elements]
        for u in x.elements:
            a = u.coords[0]
            values.update(a + b for b in ys)
        elems = tuple(_z1_element(v) for v in sorted(values))
        return FinSubset1(x.monoid, elems)
    out: set[GroupElement] = set()
    for u in x.elements:
        for v in y.elements:
            out.add(u + v)
    return FinSubset1(x.monoid, tuple(sorted(out, key=GroupElement.key)))


def set_power(x: FinSubset1, n: int) -> FinSubset1:
    """n-fold product by repeated squaring; the zeroth power is {identity}."""
    if n < 0:
        raise ValueError("set powers need n >= 0")
    result = FinSubset1(x.monoid, (x.monoid.identity(),))
    while n:
        if n & 1:
            result = set_product(result, x)
        n >>= 1
        if n:
            x = set_product(x, x)
    return result


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

    def multiplicity(self, a: GroupElement) -> int:
        for elem, count in self.entries:
            if elem == a:
                return count
        return 0

    def quotient_elements(self) -> tuple[GroupElement, ...]:
        return tuple(elem for elem, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def quotient_multiplicity(x: FinSubset1, a: GroupElement) -> int:
    """Number of b in X with a + b in X (0 when a is no quotient)."""
    members = set(x.elements)
    return sum(1 for b in x.elements if (a + b) in members)


def quotients(x: FinSubset1) -> QuotientReport:
    """All quotients of X with multiplicities.

    The multiplicity of a is the number of pairs (u, v) of members with
    u - v = a (take u = a + b, v = b), so one count of the pairwise
    differences u - v, u != v, taken in the ambient group, gives every
    candidate with its multiplicity; only those landing in the monoid
    count.  Each multiplicity is cross-checked against the cardinality
    identity |{identity, a} * X| = 2|X| - n.
    """
    monoid = x.monoid
    identity = monoid.identity()
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
    values = x.ints()
    top = values[-1]
    elems = tuple(_z1_element(top - v) for v in reversed(values))
    return FinSubset1(x.monoid, elems)
