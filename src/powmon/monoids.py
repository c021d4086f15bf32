"""Membership-decidable monoid families inside a fixed ambient group.

Six families are supported:

* ``FullN0``        -- all of N0 inside Z;
* ``Numerical``     -- the submonoid of N0 generated by finitely many
                       positive integers;
* ``HalfPlaneLex``  -- a planar copy of (Z x N) | (N0 x {0}), the
                       positive cone of the lexicographic order on Z^2;
* ``IrrationalCone``-- a planar copy of {(x, y) : y <= alpha*x} for a
                       quadratic surd alpha, decided by exact sign
                       computation;
* ``FreeGenerated`` -- the subsemigroup-with-identity generated by a
                       finite set of ambient elements;
* ``Composite``     -- a valuation monoid glued with a translated
                       positive complement, V | (G.M).

Membership is exact for every family, and every valuation verdict is
decided: analytic, or an explicit witness.  Queries that list members of
an infinite monoid (``elements_in_window``, ``units``) are truncated to
a ``Window``.

Specs are immutable after validation and every query is pure, so all
values are safe to share between threads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import ClassVar, Iterable, Iterator

from .ambient import (
    GroupElement,
    GroupSignature,
    ResidueRow,
    SignatureMismatchError,
    lattice_residue,
    least_nonnegative,
    residue_rows,
    solve_system,
    subgroup_rows,
)

__all__ = [
    "QuadraticSurd",
    "Window",
    "ValuationStatus",
    "ValuationVerdict",
    "MonoidSpec",
    "FullN0",
    "Numerical",
    "HalfPlaneLex",
    "IrrationalCone",
    "FreeGenerated",
    "Composite",
    "ComplementSpec",
    "full_n0",
    "numerical",
    "half_plane_lex",
    "irrational_cone",
    "free_generated",
    "composite",
    "is_valuation",
    "is_unit",
    "units",
    "elements_in_window",
    "ambient_window",
    "witness_search_order",
    "pseudo_unit_submonoid",
    "element_to_dict",
    "to_json",
    "spec_from_dict",
    "monoid_to_json",
    "monoid_from_json",
    "load_monoid_file",
]

def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_a_plus_b_sqrt(a: int, b: int, n: int) -> int:
    """Exact sign of a + b*sqrt(n) for integers a, b and non-square n >= 2."""
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # a*a == b*b*n would make n a square, which QuadraticSurd refuses
    lhs, rhs = a * a, b * b * n
    if a > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


@dataclass(frozen=True, slots=True)
class QuadraticSurd:
    """The real number (p + q*sqrt(n)) / r, compared exactly.

    ``r`` must be positive and ``n`` a non-square integer >= 2.  A zero
    ``q`` makes the value rational; the monoid constructors that demand
    an irrational slope reject that case, it exists only so negative
    controls can build deliberately degenerate cones.
    """

    p: int
    q: int
    r: int
    n: int

    def __post_init__(self) -> None:
        if not all(type(v) is int for v in (self.p, self.q, self.r, self.n)):
            raise ValueError("p, q, r and n must be integers")
        if self.r <= 0:
            raise ValueError("denominator r must be positive")
        if self.n < 2 or isqrt(self.n) ** 2 == self.n:
            raise ValueError("radicand n must be a non-square integer >= 2")

    def is_irrational(self) -> bool:
        return self.q != 0

    def sign_linear(self, x: int, y: int) -> int:
        """Exact sign of y - alpha*x."""
        return _sign_a_plus_b_sqrt(self.r * y - self.p * x, -self.q * x, self.n)

    def __repr__(self) -> str:
        return f"({self.p}+{self.q}*sqrt({self.n}))/{self.r}"


@dataclass(frozen=True, slots=True)
class Window:
    """Axis-aligned truncation: |every free coordinate| <= bound, full torsion."""

    bound: int

    def __post_init__(self) -> None:
        if type(self.bound) is not int:  # bool is refused too
            raise ValueError(f"window bound must be an integer, not {self.bound!r}")
        if self.bound < 1:
            raise ValueError("window bound must be >= 1")

    def spans(self, sig: GroupSignature) -> list[range]:
        """The range of each coordinate over sig: free ones in
        [-bound, bound], torsion residues in [0, n)."""
        b = self.bound
        return [range(-b, b + 1)] * sig.free_rank + [range(n) for n in sig.torsion_orders]


def ambient_window(sig: GroupSignature, window: Window) -> Iterator[GroupElement]:
    """All ambient elements in the window, in canonical ascending order."""
    for coords in itertools.product(*window.spans(sig)):
        yield GroupElement(sig, coords)


def witness_search_order(sig: GroupSignature, window: Window) -> Iterator[GroupElement]:
    """Window elements small-first: shell by shell in the largest |free
    coordinate| (0, 1, ..., bound), each shell with its free coordinates
    descending, then its torsion ascending.

    Used by ``is_valuation``'s witness walk so that its witnesses are
    deterministic and as readable as possible; ``is_irreducible``'s search
    walks ``elements_in_window`` in key order instead.  The order is
    generated lazily, each shell filtered from its cube, so a walk that
    stops early scans only the cubes it reads.
    """
    d, spans = sig.free_rank, window.spans(sig)
    for k in range(window.bound + 1):
        spans[:d] = [range(k, -k - 1, -1)] * d
        for coords in itertools.product(*spans):
            if max(map(abs, coords[:d]), default=0) == k:
                yield GroupElement(sig, coords)


class ValuationStatus(str, Enum):
    TRUE_ANALYTIC = "TRUE_ANALYTIC"
    FALSE_WITNESS = "FALSE_WITNESS"


@dataclass(frozen=True, slots=True)
class ValuationVerdict:
    status: ValuationStatus
    witness: GroupElement | None = None


class MonoidSpec:
    """Behavioural base for all monoid families.

    Concrete families are frozen dataclasses; a spec is validated once
    at construction and immutable afterwards.  A ``label`` names a spec
    and is not part of it: equality and hashing ignore it.
    """

    __slots__ = ()

    signature: GroupSignature
    label: str
    family: ClassVar[str]

    def contains(self, u: GroupElement) -> bool:
        """Is u a member?  Its signature is checked, once (by identity
        first: most elements share the spec's signature object), and the
        family's rule is asked on its coordinates.  Each family binds this
        function in its own class body, where ``perfbench/tracing.py`` reads it."""
        if u.signature is not self.signature:
            self._check_element(u)
        return self._contains_coords(u.coords)

    def _contains_coords(self, coords: tuple[int, ...]) -> bool:
        """The family's membership rule, on the coordinates of an element
        of this signature with its torsion canonical in [0, n) (see
        ``GroupSignature._reduced``).  Nothing is checked: library paths
        that hold such tuples ask here; every other caller asks ``contains``."""
        raise NotImplementedError

    def identity(self) -> GroupElement:
        return self.signature.identity()

    def is_reduced(self) -> bool:
        """Certified analytically per family; never a window search."""
        raise NotImplementedError

    def quotient_generators(self) -> tuple[GroupElement, ...]:
        """Generators of the quotient group inside the ambient group."""
        raise NotImplementedError

    def iter_window_members(self, window: Window) -> Iterator[GroupElement]:
        """Members inside the window in ascending ``key()`` order, by a scan;
        planar families scan their plane alone, and composites build theirs."""
        members = ambient_window(self.signature, window)
        return (u for u in members if self._contains_coords(u.coords))

    def _check_element(self, u: GroupElement) -> None:
        if u.signature is not self.signature and u.signature != self.signature:
            raise SignatureMismatchError(
                f"element of {u.signature} queried against monoid over {self.signature}"
            )


@lru_cache(maxsize=32)
def elements_in_window(spec: MonoidSpec, window: Window) -> tuple[GroupElement, ...]:
    """Members of ``spec`` inside ``window`` in ``key()`` order (cached per pair)."""
    return tuple(spec.iter_window_members(window))


# ---------------------------------------------------------------------------
# N0 and numerical monoids (ambient Z).
# ---------------------------------------------------------------------------

_Z1 = GroupSignature(1)


@dataclass(frozen=True, slots=True)
class FullN0(MonoidSpec):
    signature: GroupSignature
    label: str = field(default="N0", compare=False)

    family: ClassVar[str] = "FULL_N0"

    def __post_init__(self) -> None:
        if self.signature != _Z1:
            raise ValueError("FULL_N0 lives in the ambient group Z")

    contains = MonoidSpec.contains

    def _contains_coords(self, coords: tuple[int, ...]) -> bool:
        return coords[0] >= 0

    def is_reduced(self) -> bool:
        return True

    def quotient_generators(self) -> tuple[GroupElement, ...]:
        return (self.signature.element(1),)


def _apery_table(gens: tuple[int, ...]) -> tuple[int, ...]:
    """Least member of the monoid in each residue class mod the smallest
    generator, computed by shortest-path relaxation over the residues."""
    m = gens[0]
    best = [0] + [None] * (m - 1)
    frontier = [0]
    while frontier:
        new_frontier = []
        for value_res in frontier:
            base = best[value_res]
            for g in gens:
                cand = base + g
                res = cand % m
                if best[res] is None or cand < best[res]:
                    best[res] = cand
                    new_frontier.append(res)
        frontier = new_frontier
    return tuple(best)


@dataclass(frozen=True, slots=True)
class Numerical(MonoidSpec):
    """Submonoid of N0 generated by positive integers.

    An empty generator tuple gives the trivial monoid {0}, the
    pseudo-unit submonoid of a proper numerical monoid, which builds it
    once.  Generators with gcd > 1 are supported; membership is decided
    by the Apery table of the gcd-normalized generators, which is (0,)
    exactly when the monoid is gcd*N0.
    """

    signature: GroupSignature
    generators: tuple[int, ...]
    label: str = field(default="", compare=False)
    _gcd: int = field(init=False, repr=False, compare=False, default=0)
    #: the trivial monoid {0} of a proper numerical monoid, else None
    _pseudo_units: Numerical | None = field(init=False, repr=False, compare=False, default=None)
    _apery: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    family: ClassVar[str] = "NUMERICAL"

    def __post_init__(self) -> None:
        if self.signature != _Z1:
            raise ValueError("NUMERICAL monoids live in the ambient group Z")
        if not all(type(g) is int and g >= 1 for g in self.generators):
            raise ValueError("numerical monoid generators must be positive integers")
        gens = tuple(sorted(set(self.generators)))
        object.__setattr__(self, "generators", gens)
        if not gens:
            return
        g0 = gcd(*gens)
        object.__setattr__(self, "_gcd", g0)
        object.__setattr__(self, "_apery", _apery_table(tuple(g // g0 for g in gens)))
        if not self.is_all_of_scaled_n0():
            trivial = Numerical(self.signature, (), f"{self.label}-pseudo-units")
            object.__setattr__(self, "_pseudo_units", trivial)

    def is_all_of_scaled_n0(self) -> bool:
        """True when the monoid is g*N0, i.e. a full copy of N0."""
        return self._apery == (0,)

    def frobenius_gap(self) -> int | None:
        """Largest element of gcd*N0 missing from the monoid, None if none."""
        if not self.generators or self.is_all_of_scaled_n0():
            return None
        return self._gcd * (max(self._apery) - len(self._apery))

    contains = MonoidSpec.contains

    def _contains_coords(self, coords: tuple[int, ...]) -> bool:
        x = coords[0]
        if not self.generators:
            return x == 0
        if x < 0 or x % self._gcd:
            return False
        xn = x // self._gcd
        return xn >= self._apery[xn % len(self._apery)]

    def is_reduced(self) -> bool:
        return True

    def quotient_generators(self) -> tuple[GroupElement, ...]:
        if not self.generators:
            return ()
        return (self.signature.element(self._gcd),)


# ---------------------------------------------------------------------------
# Planar valuation monoids (embedded in two free coordinates).
# ---------------------------------------------------------------------------


class _Planar(MonoidSpec):
    """Shared plumbing for monoids supported on two free coordinates."""

    __slots__ = ()

    embedding: tuple[int, int]
    #: every coordinate outside the embedding, torsion included
    _off_plane: tuple[int, ...]

    def __post_init__(self) -> None:
        emb = tuple(self.embedding)
        object.__setattr__(self, "embedding", emb)
        d = self.signature.free_rank
        in_range = all(type(k) is int and 0 <= k < d for k in emb)
        if not (len(emb) == 2 and in_range and emb[0] != emb[1]):
            raise ValueError(f"embedding {emb} invalid for free rank {d}")
        width = d + len(self.signature.torsion_orders)
        object.__setattr__(self, "_off_plane", tuple(k for k in range(width) if k not in emb))

    def _plane_xy(self, coords: tuple[int, ...]) -> tuple[int, int] | None:
        """(x, y) on the embedding plane, or None if coords leave the plane."""
        for k in self._off_plane:
            if coords[k]:
                return None
        i, j = self.embedding
        return coords[i], coords[j]

    def plane_element(self, x: int, y: int) -> GroupElement:
        i, j = self.embedding
        coords = list(self.signature.identity().coords)
        coords[i], coords[j] = x, y
        return GroupElement(self.signature, tuple(coords))

    def quotient_generators(self) -> tuple[GroupElement, ...]:
        return (self.plane_element(1, 0), self.plane_element(0, 1))

    def iter_window_members(self, window: Window) -> Iterator[GroupElement]:
        # the window's scan with the off-plane coordinates pinned at 0
        spans = window.spans(self.signature)
        for k in self._off_plane:
            spans[k] = range(1)
        sig, member = self.signature, self._contains_coords
        return (GroupElement(sig, c) for c in itertools.product(*spans) if member(c))


@dataclass(frozen=True, slots=True)
class HalfPlaneLex(_Planar):
    """Copy of (Z x N) | (N0 x {0}): the lexicographic positive cone."""

    signature: GroupSignature
    embedding: tuple[int, int]
    label: str = field(default="", compare=False)
    _off_plane: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    family: ClassVar[str] = "HALF_PLANE_LEX"

    contains = MonoidSpec.contains

    def _contains_coords(self, coords: tuple[int, ...]) -> bool:
        xy = self._plane_xy(coords)
        if xy is None:
            return False
        x, y = xy
        return y >= 1 or (y == 0 and x >= 0)

    def is_reduced(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class IrrationalCone(_Planar):
    """Copy of {(x, y) in Z^2 : y <= alpha*x}, alpha a quadratic surd.

    With an irrational slope the boundary line meets the lattice only at
    the origin, so the cone is the positive half of a total order and
    the monoid is reduced.  A rational slope (q == 0) leaves boundary
    lattice points inside, making the cone non-reduced; construct such
    cones only through the dataclass directly, never via the public
    factory, and only as negative controls.
    """

    signature: GroupSignature
    embedding: tuple[int, int]
    alpha: QuadraticSurd
    label: str = field(default="", compare=False)
    _off_plane: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    family: ClassVar[str] = "IRRATIONAL_CONE"

    contains = MonoidSpec.contains

    def _contains_coords(self, coords: tuple[int, ...]) -> bool:
        xy = self._plane_xy(coords)
        if xy is None:
            return False
        x, y = xy
        return self.alpha.sign_linear(x, y) <= 0

    def is_reduced(self) -> bool:
        return self.alpha.is_irrational()


# ---------------------------------------------------------------------------
# Finitely generated subsemigroups-with-identity.
# ---------------------------------------------------------------------------


def _positive_solution(
    equations: list[tuple[int, ...]], inequalities: list[tuple[int, ...]], width: int
) -> tuple[int, ...] | None:
    """Primitive integer x with e.x = 0 for every row e of ``equations``
    and p.x >= 1 for every row p of ``inequalities``, or None if none.

    Exact phase-1 simplex with Bland's rule, on integer rows kept up to a
    positive factor; the rational solution found scales to an integer one.
    """
    m = len(inequalities)
    n = width + m  # columns: x, a surplus s_i >= 0 with p_i.x - s_i = 1, the rhs
    rows = [list(e) + [0] * (m + 1) for e in equations]
    rows += [list(p) + [-(i == j) for j in range(m)] + [1] for i, p in enumerate(inequalities)]
    basis = [n + i for i in range(len(rows))]  # n + i: the artificial variable of row i

    def pivot(r: int, c: int) -> None:
        if rows[r][c] < 0:
            rows[r] = [-v for v in rows[r]]
        p, prow = rows[r][c], rows[r]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                new = [p * a - row[c] * b for a, b in zip(row, prow)]
                g = gcd(*new) or 1
                rows[i] = [v // g for v in new]
        basis[r] = c

    # x is free in sign: once each coordinate is basic, the other rows
    # constrain the surpluses alone
    for c in range(width):
        r = next((i for i, row in enumerate(rows) if basis[i] >= n and row[c]), None)
        if r is not None:
            pivot(r, c)
    cons = [i for i, b in enumerate(basis) if b >= width]
    for i in cons:
        if rows[i][-1] < 0:
            rows[i] = [-v for v in rows[i]]
    # last row: W + w.s = rhs, W the sum of the artificials, so raising s_j
    # lowers W when w_j > 0; an artificial that leaves the basis stays 0
    rows.append([sum(rows[i][j] for i in cons) for j in range(n + 1)])
    while rows[-1][-1] > 0:
        c = next((j for j in range(width, n) if rows[-1][j] > 0), None)
        if c is None:
            return None
        cand = [i for i in cons if rows[i][c] > 0]
        top = lcm(*(rows[i][c] for i in cand))
        pivot(min(cand, key=lambda i: (rows[i][-1] * top // rows[i][c], basis[i])), c)
    solved = {b: rows[i] for i, b in enumerate(basis) if b < width}
    den = lcm(*(row[b] for b, row in solved.items()))
    x = [solved[b][-1] * den // solved[b][b] if b in solved else 0 for b in range(width)]
    g = gcd(*x) or 1
    return tuple(v // g for v in x)


@dataclass(frozen=True, slots=True)
class FreeGenerated(MonoidSpec):
    """Subsemigroup-with-identity generated by finitely many elements.

    Construction decides exactly which of these holds, and requires one:

    * a positive grading (an integer functional strictly positive on
      every generator), which bounds the coefficients of any
      representation and also proves the monoid reduced.  The monoid is
      then {identity} | G.M with G trivial, held as ``complement_part``,
      and membership is the one graded lattice solve of ``ComplementSpec``; or
    * a group certificate (the identity as an everywhere-positive
      combination), in which case the monoid is the generated subgroup,
      ``complement_part`` is None and membership is a lattice question.

    Other generator sets are rejected: their membership problem is
    unbounded integer programming, out of scope here.
    """

    signature: GroupSignature
    generators: tuple[GroupElement, ...]
    label: str = field(default="", compare=False)
    complement_part: ComplementSpec | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _group_rows: tuple[ResidueRow, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    #: the trivial monoid of a graded monoid that is not totally ordered, else None
    _pseudo_units: FreeGenerated | None = field(
        init=False, repr=False, compare=False, default=None
    )

    family: ClassVar[str] = "FREE_GENERATED"

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if g.signature != self.signature:
                raise SignatureMismatchError("generator signature mismatch")
        try:
            object.__setattr__(self, "complement_part", ComplementSpec(self.signature, (), gens))
        except ValueError:  # no positive grading
            pass
        else:
            if not self.totally_ordered:
                trivial = FreeGenerated(self.signature, (), f"{self.label}-pseudo-units")
                object.__setattr__(self, "_pseudo_units", trivial)
            return
        # c >= 1 with sum(c_i * free_i) = 0: scaled by the lcm of the
        # torsion orders, the combination is the identity
        frees = [g.free for g in gens]
        unit_rows = [tuple(int(i == j) for j in range(len(gens))) for i in range(len(gens))]
        if _positive_solution(list(zip(*frees)), unit_rows, len(gens)) is not None:
            rows = residue_rows(subgroup_rows(self.signature, gens))
            object.__setattr__(self, "_group_rows", rows)
            return
        raise ValueError(
            "no integer functional is positive on every generator, and no "
            "combination of all generators with positive coefficients is the "
            "identity; membership is decided only in these two cases"
        )

    @property
    def grading(self) -> tuple[int, ...] | None:
        return None if self.complement_part is None else self.complement_part._grading

    @property
    def totally_ordered(self) -> bool:
        """A group, or a graded monoid with no incomparable pair: a valuation
        monoid by construction.  In the graded case G is trivial, so one
        difference of any two generators is a member.  For m of least grade
        and a generator g, m - g has grade <= 0, so g - m is a member: a sum
        of generators of grade below grade(g).  By induction each generator
        is a multiple of m, and the monoid is N0*m, a copy of N0."""
        return self.complement_part is None or self.complement_part.incomparable_pair is None

    contains = MonoidSpec.contains

    def _contains_coords(self, coords: tuple[int, ...]) -> bool:
        if self.complement_part is not None:
            return not any(coords) or self.complement_part._contains_coords(coords)
        return not any(lattice_residue(self._group_rows, coords))

    def is_reduced(self) -> bool:
        if self.complement_part is not None:
            return True
        # a group: reduced only if trivial
        return all(g.is_identity() for g in self.generators)

    def quotient_generators(self) -> tuple[GroupElement, ...]:
        return self.generators


# ---------------------------------------------------------------------------
# Composite monoids: valuation part glued with a translated complement.
# ---------------------------------------------------------------------------


#: Marks a residue the membership memo has not seen (None is a verdict).
_UNSEEN = object()


@dataclass(frozen=True, slots=True)
class ComplementSpec:
    """The set G.M: base subgroup G times the semigroup M generated by
    positive generators (at least one generator used).

    Membership of u is the existence of c in N0^k, c != 0, with
    u - sum(c_i * m_i) in the lattice of G.  A grading functional that
    vanishes on G and is strictly positive on every m_i bounds c;
    construction fails exactly when no such functional exists.  This is
    the package's one graded-membership solver: a graded
    ``FreeGenerated`` monoid holds a complement with G trivial.

    Construction row reduces the m_i together with G once
    (``solve_system``): the echelon rows give one integer solution c_p of
    u = sum(c_i * m_i) modulo G, and the kernel lattice
    L = {c : sum(c_i * m_i) in G} gives all others, c_p + L.  The answer
    for u is the lexicographically least c >= 0 in that coset
    (``least_nonnegative``), memoized by u's residue modulo G.
    """

    signature: GroupSignature
    base_subgroup: tuple[GroupElement, ...]
    positive_generators: tuple[GroupElement, ...]
    _residue_rows: tuple[ResidueRow, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    #: the echelon rows [sum(c_i * m_i) mod G | c], as residue rows
    _solve_rows: tuple[ResidueRow, ...] = field(init=False, repr=False, compare=False, default=())
    #: HNF basis of L = {c : sum(c_i * m_i) in G}
    _kernel: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False, default=())
    #: the coordinates of each m_i, and its grade
    _generator_coords: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _weights: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())
    _grading: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())
    #: the first pair of positive generators (as coordinates) neither of
    #: whose differences ``in_base_or_set`` holds: an incomparable pair
    incomparable_pair: tuple | None = field(init=False, repr=False, compare=False, default=None)
    _cache: dict = field(
        init=False, repr=False, compare=False, default_factory=lambda: {"member": {}}
    )
    # the monoid families' signature check and membership question
    _check_element = MonoidSpec._check_element
    contains = MonoidSpec.contains

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_subgroup", tuple(self.base_subgroup))
        object.__setattr__(self, "positive_generators", tuple(self.positive_generators))
        for g in self.base_subgroup + self.positive_generators:
            if g.signature != self.signature:
                raise SignatureMismatchError("complement generator signature mismatch")
        if not self.positive_generators:
            raise ValueError("complement needs at least one positive generator")
        base = subgroup_rows(self.signature, self.base_subgroup)
        object.__setattr__(self, "_residue_rows", residue_rows(base))
        grading = _positive_solution(
            [g.free for g in self.base_subgroup],
            [g.free for g in self.positive_generators],
            self.signature.free_rank,
        )
        if grading is None:
            raise ValueError(
                "no integer functional vanishes on the base subgroup and is "
                "strictly positive on every positive generator; complement "
                "membership would be unbounded"
            )
        object.__setattr__(self, "_grading", grading)
        gens = tuple(g.coords for g in self.positive_generators)
        echelon, kernel = solve_system(gens, base, len(self.signature.identity().coords))
        object.__setattr__(self, "_solve_rows", residue_rows(echelon))
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_generator_coords", gens)
        object.__setattr__(self, "_weights", tuple(map(self.grade, gens)))
        minus, holds = self.signature._minus, self.in_base_or_set
        pairs = itertools.combinations(gens, 2)
        pairs = ((x, y) for x, y in pairs if not (holds(minus(x, y)) or holds(minus(y, x))))
        object.__setattr__(self, "incomparable_pair", next(pairs, None))

    def grade(self, coords: tuple[int, ...]) -> int:
        """The grading functional at these coordinates; it vanishes on G."""
        # the grading has one entry per free coordinate, so map stops there
        return sum(map(mul, self._grading, coords))

    # Each question below reduces u modulo G once and probes the memo inline:
    # almost every question is a memo hit, and a shared probe helper, which
    # adds a call frame to each, measured slower on the composite workloads.
    def member_combination(self, coords: tuple[int, ...]) -> tuple[int, ...] | None:
        """For u given by its canonical coordinates, the lexicographically
        least c in N0^k, c != 0, with u - sum(c_i * m_i) in G, or None if u
        is not in G.M."""
        residue = lattice_residue(self._residue_rows, coords)
        found = self._cache["member"].get(residue, _UNSEEN)
        return self._solve(residue) if found is _UNSEEN else found

    def _contains_coords(self, coords: tuple[int, ...]) -> bool:
        residue = lattice_residue(self._residue_rows, coords)
        found = self._cache["member"].get(residue, _UNSEEN)
        return (self._solve(residue) if found is _UNSEEN else found) is not None

    def in_base_or_set(self, coords: tuple[int, ...]) -> bool:
        """Is u, given by its canonical coordinates, in G or in G.M?"""
        residue = lattice_residue(self._residue_rows, coords)
        if not any(residue):
            return True
        found = self._cache["member"].get(residue, _UNSEEN)
        return (self._solve(residue) if found is _UNSEEN else found) is not None

    def _solve(self, residue: tuple[int, ...]) -> tuple[int, ...] | None:
        """``member_combination`` of a residue modulo G that the memo has
        not seen, memoized.  The grading vanishes on G, so every solution c
        has grade(c) = grade(residue) >= 1, and c != 0 holds by itself."""
        found = None
        budget, width, gens = self.grade(residue), len(residue), self._generator_coords
        # (residue, 0) reduced by the echelon rows has a zero head exactly
        # when residue is some sum(c_i * m_i) modulo G, c being minus its tail
        v = lattice_residue(self._solve_rows, residue + (0,) * len(gens))
        if budget >= 1 and not any(v[:width]):
            tail = [-x for x in v[width:]]
            found = least_nonnegative(tail, self._kernel, self._weights, budget)
        if found is not None:
            # checked outside ``assert``, which ``python -O`` strips
            rest = list(residue)
            for n, g in zip(found, gens):
                rest = [a - n * b for a, b in zip(rest, g)]
            if min(found) < 0 or any(lattice_residue(self._residue_rows, rest)):
                raise AssertionError(f"solved combination {found} does not give residue {residue}")
        self._cache["member"][residue] = found
        return found

    def difference_witness(self, other: ComplementSpec) -> GroupElement | None:
        """An element of exactly one of the two complement sets, or None
        exactly when they are one set.  Each side's positive generators are
        tried against the other set, then m' + t and m' - t against the set
        of m', for t a base generator of one side and m' a positive generator
        of the other.  Sound: a member of G'.M' is some m' plus a member of G'
        or G'.M', so a passing t stabilises G'.M'; holding each m_i, it holds G.M.
        Complete: equal sets have equal stabilisers, each holding its base.
        Translates come after all generators pass, so m' +- t is in t's set only.
        """
        pairs = ((self, other), (other, self))
        generators = (m for a, b in pairs for m in a.positive_generators if not b.contains(m))
        translates = (
            u for a, b in pairs for t in a.base_subgroup
            for m in b.positive_generators for u in (m + t, m - t) if not b.contains(u)
        )
        return next(itertools.chain(generators, translates), None)


@dataclass(frozen=True, slots=True)
class Composite(MonoidSpec):
    """V | (G.M): a valuation monoid glued with a positive complement.

    Validation makes the decomposition structural rather than searched:

    * the valuation part is an analytically-certified valuation family
      and reduced;
    * its quotient group lies inside the base subgroup lattice, so the
      complement is closed under translation by that quotient group and
      disjoint from the valuation part;
    * some pair of positive generators is incomparable, so the
      complement genuinely breaks the total order (otherwise the glued
      monoid would itself be a valuation monoid).

    ``borrowed_nonunit`` is a non-unit v of the valuation part, or None
    exactly when that part is a group; a complement member u is v + (u - v).

    Window members are built: V walks its window; G.M, a union of cosets
    of G, is tested per representative with the coordinates G absorbs at
    0, then expanded over them.  V and G.M are disjoint by the grading.
    """

    signature: GroupSignature
    valuation_part: MonoidSpec
    complement_part: ComplementSpec
    label: str = field(default="", compare=False)
    borrowed_nonunit: GroupElement | None = field(init=False, repr=False, compare=False)

    family: ClassVar[str] = "COMPOSITE"

    def __post_init__(self) -> None:
        if self.valuation_part.signature != self.signature:
            raise SignatureMismatchError("valuation part signature mismatch")
        if self.complement_part.signature != self.signature:
            raise SignatureMismatchError("complement signature mismatch")
        if pseudo_unit_submonoid(self.valuation_part) is not self.valuation_part:
            raise ValueError("composite valuation part must be an analytic valuation family")
        rows = self.complement_part._residue_rows
        for g in self.valuation_part.quotient_generators():
            if any(lattice_residue(rows, g.coords)):
                raise ValueError(
                    "quotient group of the valuation part must lie in the "
                    "complement's base subgroup"
                )
        if self.complement_part.incomparable_pair is None:
            raise ValueError(
                "complement positive generators are totally ordered; the "
                "glued monoid would be a plain valuation monoid"
            )
        # V totally orders its quotient group, so g or -g is a member for
        # each quotient generator g.  All those members are units exactly
        # when V is its quotient group, so None iff V is a group ({0} included).
        val = self.valuation_part
        signed = (v for g in val.quotient_generators() for v in (g, -g))
        borrow = next((v for v in signed if val.contains(v) and not is_unit(val, v)), None)
        object.__setattr__(self, "borrowed_nonunit", borrow)

    contains = MonoidSpec.contains

    def _contains_coords(self, coords: tuple[int, ...]) -> bool:
        # both parts are over this signature (__post_init__); they are
        # disjoint, and most members asked about are complement members
        val, comp = self.valuation_part, self.complement_part
        return comp._contains_coords(coords) or val._contains_coords(coords)

    def iter_window_members(self, window: Window) -> Iterator[GroupElement]:
        sig, comp, spans = self.signature, self.complement_part, window.spans(self.signature)
        # G absorbs coordinate j when its HNF holds the unit row e_j
        absorbed = [(j, 1, ()) in comp._residue_rows for j in range(len(spans))]
        found = [u.coords for u in self.valuation_part.iter_window_members(window)]
        for rep in itertools.product(*(range(1) if a else r for a, r in zip(absorbed, spans))):
            if comp._contains_coords(rep):
                coset = (r if a else (x,) for a, x, r in zip(absorbed, rep, spans))
                found += itertools.product(*coset)
        # sorted as tuples, so the elements are built in the scan's order
        return (GroupElement(sig, coords) for coords in sorted(found))

    def is_reduced(self) -> bool:
        # complement members have strictly positive grading, so none is
        # invertible; reducedness rests on the valuation part alone
        return self.valuation_part.is_reduced()

    def quotient_generators(self) -> tuple[GroupElement, ...]:
        return (
            self.valuation_part.quotient_generators()
            + self.complement_part.base_subgroup
            + self.complement_part.positive_generators
        )


# ---------------------------------------------------------------------------
# Factories (the validating public constructors).
# ---------------------------------------------------------------------------


def full_n0(label: str = "N0") -> FullN0:
    return FullN0(_Z1, label)


def numerical(generators: Iterable[int], label: str = "") -> Numerical:
    gens = tuple(generators)
    return Numerical(_Z1, gens, label or f"<{','.join(map(str, gens))}>")


def half_plane_lex(
    signature: GroupSignature = GroupSignature(2),
    embedding: tuple[int, int] = (0, 1),
    label: str = "half-plane-lex",
) -> HalfPlaneLex:
    return HalfPlaneLex(signature, embedding, label)


def irrational_cone(
    alpha: QuadraticSurd,
    signature: GroupSignature = GroupSignature(2),
    embedding: tuple[int, int] = (0, 1),
    label: str | None = None,
) -> IrrationalCone:
    """The cone of an irrational slope; without a label it is named after
    the slope.  Monoid files load through here, keeping their label."""
    if not alpha.is_irrational():
        raise ValueError("cone slope must be irrational (q != 0)")
    return IrrationalCone(signature, embedding, alpha, f"cone{alpha!r}" if label is None else label)


def free_generated(
    signature: GroupSignature, generators: Iterable[GroupElement], label: str = "free-generated"
) -> FreeGenerated:
    return FreeGenerated(signature, tuple(generators), label)


def composite(
    valuation_part: MonoidSpec, complement_part: ComplementSpec, label: str = "composite"
) -> Composite:
    return Composite(valuation_part.signature, valuation_part, complement_part, label)


# ---------------------------------------------------------------------------
# Window-quantified queries.
# ---------------------------------------------------------------------------


def pseudo_unit_submonoid(spec: MonoidSpec) -> MonoidSpec:
    """The pseudo-units of spec as a spec of their own, over its signature.

    A composite keeps exactly its valuation part; a proper numerical
    monoid and a graded free-generated monoid that is not totally
    ordered collapse to the trivial monoid they built; every other spec
    is totally ordered by construction and is its own.
    """
    if isinstance(spec, Composite):
        return spec.valuation_part
    if isinstance(spec, (Numerical, FreeGenerated)) and spec._pseudo_units is not None:
        return spec._pseudo_units
    return spec


def is_valuation(spec: MonoidSpec, window: Window) -> ValuationVerdict:
    """Total-order verdict, always decided: analytic for the specs that are
    their own pseudo-unit submonoid, else a witness u of the quotient group
    with u and -u non-members.  A proper numerical monoid's is its gcd g:
    were g a member, the monoid would be g*N0, and -g < 0.  Elsewhere the
    window is walked small-first, and past it the complement's incomparable
    pair (x, y) gives x - y: G | G.M holds the spec but not x - y or y - x."""
    if pseudo_unit_submonoid(spec) is spec:
        return ValuationVerdict(ValuationStatus.TRUE_ANALYTIC)
    if isinstance(spec, Numerical):
        return ValuationVerdict(ValuationStatus.FALSE_WITNESS, spec.quotient_generators()[0])
    sig = spec.signature
    q_rows = residue_rows(subgroup_rows(sig, spec.quotient_generators()))
    # the identity lies in every monoid, so it is never a witness
    for u in witness_search_order(sig, window):
        if any(lattice_residue(q_rows, u.coords)):
            continue
        if not spec.contains(u) and not spec.contains(-u):
            return ValuationVerdict(ValuationStatus.FALSE_WITNESS, u)
    x, y = spec.complement_part.incomparable_pair
    return ValuationVerdict(ValuationStatus.FALSE_WITNESS, GroupElement(sig, sig._minus(x, y)))


def is_unit(spec: MonoidSpec, u: GroupElement) -> bool:
    """Is u a member with -u also a member?  A certified reduced monoid
    has the identity as its only unit, and the identity is a member of
    every monoid, so there the answer is an identity test."""
    if spec.is_reduced():
        spec._check_element(u)
        return u.is_identity()
    return spec.contains(u) and spec.contains(-u)


def units(spec: MonoidSpec, window: Window) -> tuple[GroupElement, ...]:
    """The units inside the window: the identity alone when spec is
    certified reduced, else a scan of the window's members."""
    if spec.is_reduced():
        return (spec.identity(),)
    return tuple(u for u in elements_in_window(spec, window) if spec.contains(-u))


# ---------------------------------------------------------------------------
# JSON serialization.  ``to_json`` is the one encoder: monoid files, suite
# reports and the ``analyze``/``eval`` documents hand it plain values, and
# only it states a JSON shape.  ``spec_from_dict`` is the validating
# reader; round trips are bit-exact.
# ---------------------------------------------------------------------------


def element_to_dict(u: GroupElement) -> dict:
    """The JSON object of an element: ``to_json``'s one element rule."""
    return {"free": list(u.free), "torsion": list(u.torsion)}


def to_json(value):
    """The JSON value of ``value``: a spec is its family, label and
    signature, then its constructor fields; a signature, a surd or a
    complement is its constructor fields.  A value with no rule raises
    TypeError."""
    if isinstance(value, GroupElement):
        return element_to_dict(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return value
    from .powersets import FinSubset1  # powersets imports this module
    if isinstance(value, FinSubset1):
        value = value.elements
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, MonoidSpec):
        head = {"family": value.family, "label": value.label, "signature": value.signature}
    elif isinstance(value, (GroupSignature, QuadraticSurd, ComplementSpec)):
        head = {}
    else:
        raise TypeError(f"no JSON rule for {type(value).__name__}")
    rest = (f.name for f in fields(value) if f.init and f.name not in ("label", "signature"))
    return to_json(head | {name: getattr(value, name) for name in rest})


def _element_from_obj(sig: GroupSignature, obj: dict) -> GroupElement:
    # "torsion" may be left out only where the signature has no torsion
    free = tuple(obj["free"])
    torsion = tuple(obj["torsion"] if sig.torsion_orders else obj.get("torsion", ()))
    return sig.element(free, torsion)


@lru_cache(maxsize=64)
def _interned(sig: GroupSignature) -> GroupSignature:
    """The first object seen equal to ``sig``: specs loaded from different
    files share one signature, so their element checks hit ``is``."""
    return sig


_interned(_Z1)  # file-loaded monoids over Z share the factories' signature


def _signature_from_obj(obj: dict) -> GroupSignature:
    return _interned(GroupSignature(obj["free_rank"], tuple(obj.get("torsion_orders", ()))))


def spec_from_dict(obj: dict) -> MonoidSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"monoid definition must be a JSON object, not {type(obj).__name__}")
    try:
        family = obj["family"]
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise TypeError("label must be a string")
        sig = _signature_from_obj(obj["signature"])
        if family == "FULL_N0":
            return FullN0(sig, label)
        if family == "NUMERICAL":
            return Numerical(sig, tuple(obj["generators"]), label)
        if family == "HALF_PLANE_LEX":
            return HalfPlaneLex(sig, tuple(obj["embedding"]), label)
        if family == "IRRATIONAL_CONE":
            a = obj["alpha"]
            alpha = QuadraticSurd(a["p"], a["q"], a["r"], a["n"])
            return irrational_cone(alpha, sig, tuple(obj["embedding"]), label)
        if family == "FREE_GENERATED":
            gens = tuple(_element_from_obj(sig, g) for g in obj["generators"])
            return FreeGenerated(sig, gens, label)
        if family == "COMPOSITE":
            val = spec_from_dict(obj["valuation_part"])
            comp = obj["complement_part"]
            complement = ComplementSpec(
                sig,
                tuple(_element_from_obj(sig, g) for g in comp["base_subgroup"]),
                tuple(_element_from_obj(sig, g) for g in comp["positive_generators"]),
            )
            return Composite(sig, val, complement, label)
    except KeyError as exc:
        raise ValueError(f"monoid definition missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"monoid definition has a field of the wrong type: {exc}") from exc
    raise ValueError(f"unknown monoid family {family!r}")


def monoid_to_json(spec: MonoidSpec) -> str:
    return json.dumps(to_json(spec), sort_keys=True, indent=2) + "\n"


def monoid_from_json(text: str) -> MonoidSpec:
    return spec_from_dict(json.loads(text))


def load_monoid_file(path) -> MonoidSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return monoid_from_json(fh.read())
