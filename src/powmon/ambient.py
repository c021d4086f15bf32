"""Exact arithmetic in ambient abelian groups Z^d + Z/n1 + ... + Z/nk.

Every monoid handled by this package lives inside such a group, so all
membership and equality questions reduce to integer arithmetic.  No
floating point is used anywhere.  The second half of the module solves
integer-lattice problems (Hermite normal form, kernels, subgroup
membership); these back the independence and quotient-group queries of
the monoid layer.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "INFINITE",
    "GroupSignature",
    "GroupElement",
    "RelationLattice",
    "SignatureMismatchError",
    "compose",
    "inverse",
    "scale",
    "element_order",
    "solve_relations",
    "hnf_rows",
    "kernel_rows",
    "lattice_contains",
    "lattice_residue",
    "element_vector",
    "subgroup_rows",
    "subgroup_contains",
    "subgroups_equal",
]


class SignatureMismatchError(ValueError):
    """Mixed arithmetic between elements of different ambient groups."""


class _InfiniteOrder:
    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"


#: Sentinel returned by ``element_order`` for elements of infinite order.
INFINITE = _InfiniteOrder()


@dataclass(frozen=True, slots=True)
class GroupSignature:
    """Shape of an ambient group: free rank d plus cyclic torsion orders."""

    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion_orders", tuple(self.torsion_orders))
        for n in (self.free_rank, *self.torsion_orders):
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"free_rank and torsion orders must be integers, not {n!r}")
        if self.free_rank < 0:
            raise ValueError("free_rank must be non-negative")
        if any(n < 2 for n in self.torsion_orders):
            raise ValueError("torsion orders must all be >= 2")

    def element(self, free: int | Iterable[int] = (), torsion: Iterable[int] = ()) -> GroupElement:
        if isinstance(free, int):
            free = (free,)
        free = tuple(free)
        torsion = tuple(torsion)
        if len(free) != self.free_rank or len(torsion) != len(self.torsion_orders):
            raise ValueError(
                f"coordinate count mismatch for signature {self}: "
                f"got {len(free)} free / {len(torsion)} torsion"
            )
        torsion = tuple(t % n for t, n in zip(torsion, self.torsion_orders))
        return GroupElement(self, free, torsion)

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * self.free_rank, (0,) * len(self.torsion_orders))

    def basis_element(self, index: int) -> GroupElement:
        """Standard basis vector e_index of the free part."""
        if not 0 <= index < self.free_rank:
            raise ValueError(f"free coordinate index {index} out of range")
        free = tuple(1 if i == index else 0 for i in range(self.free_rank))
        return GroupElement(self, free, (0,) * len(self.torsion_orders))


@dataclass(frozen=True, slots=True)
class GroupElement:
    """Element of an ambient group, torsion residues canonical in [0, n)."""

    signature: GroupSignature
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def _check(self, other: GroupElement) -> None:
        if self.signature != other.signature:
            raise SignatureMismatchError(
                f"cannot combine elements of {self.signature} and {other.signature}"
            )

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        free = tuple(a + b for a, b in zip(self.free, other.free))
        torsion = tuple(
            (a + b) % n for a, b, n in zip(self.torsion, other.torsion, self.signature.torsion_orders)
        )
        return GroupElement(self.signature, free, torsion)

    def __neg__(self) -> GroupElement:
        free = tuple(-a for a in self.free)
        torsion = tuple((-a) % n for a, n in zip(self.torsion, self.signature.torsion_orders))
        return GroupElement(self.signature, free, torsion)

    def __sub__(self, other: GroupElement) -> GroupElement:
        return self + (-other)

    def scale(self, n: int) -> GroupElement:
        free = tuple(a * n for a in self.free)
        torsion = tuple((a * n) % m for a, m in zip(self.torsion, self.signature.torsion_orders))
        return GroupElement(self.signature, free, torsion)

    def is_identity(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def order(self) -> int | _InfiniteOrder:
        if any(self.free):
            return INFINITE
        result = 1
        for t, n in zip(self.torsion, self.signature.torsion_orders):
            result = lcm(result, n // gcd(t, n))
        return result

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical sort key: lexicographic on free part, then torsion."""
        return (self.free, self.torsion)

    def norm_inf(self) -> int:
        return max((abs(a) for a in self.free), default=0)

    def __repr__(self) -> str:
        if self.torsion:
            return f"({','.join(map(str, self.free))};{','.join(map(str, self.torsion))})"
        if len(self.free) == 1:
            return str(self.free[0])
        return f"({','.join(map(str, self.free))})"


def compose(u: GroupElement, v: GroupElement) -> GroupElement:
    return u + v


def inverse(u: GroupElement) -> GroupElement:
    return -u


def scale(u: GroupElement, n: int) -> GroupElement:
    return u.scale(n)


def element_order(u: GroupElement) -> int | _InfiniteOrder:
    return u.order()


# ---------------------------------------------------------------------------
# Integer lattices.
#
# Lattices are stored as tuples of generator rows.  The canonical form is
# the row-style Hermite normal form: rows in echelon order, positive
# pivots, entries above each pivot reduced into [0, pivot).  Canonical
# form makes lattice equality a plain tuple comparison.
# ---------------------------------------------------------------------------


def _echelonize(mat: list[list[int]], head: int) -> int:
    """In-place integer row reduction on the first ``head`` columns.

    Row operations act on full rows, so trailing columns may carry
    bookkeeping data (used for kernel computation).  Returns the rank.
    """
    rank = 0
    for col in range(head):
        nz = [i for i in range(rank, len(mat)) if mat[i][col]]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(mat[i][col]))
            base = mat[nz[0]]
            pivot = base[col]
            for i in nz[1:]:
                q = mat[i][col] // pivot
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], base)]
            nz = [i for i in nz if mat[i][col]]
        i0 = nz[0]
        mat[rank], mat[i0] = mat[i0], mat[rank]
        if mat[rank][col] < 0:
            mat[rank] = [-x for x in mat[rank]]
        pivot = mat[rank][col]
        for i in range(rank):
            q = mat[i][col] // pivot
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def hnf_rows(rows: Iterable[Sequence[int]], width: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the lattice generated by ``rows``."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return ()
    if width is None:
        width = len(mat[0])
    rank = _echelonize(mat, width)
    return tuple(tuple(r) for r in mat[:rank])


def kernel_rows(rows: Sequence[Sequence[int]], width: int) -> tuple[tuple[int, ...], ...]:
    """HNF basis of ``{x in Z^m : x . M = 0}`` for the m-row matrix M."""
    m = len(rows)
    aug = [list(rows[i]) + [int(i == j) for j in range(m)] for i in range(m)]
    rank = _echelonize(aug, width)
    tails = [r[width:] for r in aug[rank:]]
    return hnf_rows(tails, m)


def _pivot_col(row: Sequence[int]) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    raise ValueError("zero row has no pivot")


def lattice_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Exact membership of ``vec`` in the lattice with row-HNF ``basis``."""
    v = list(vec)
    for row in basis:
        j = _pivot_col(row)
        if v[j]:
            q, r = divmod(v[j], row[j])
            if r:
                return False
            for idx in range(j, len(v)):
                v[idx] -= q * row[idx]
    return not any(v)


def lattice_residue(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> tuple[int, ...]:
    """Canonical coset representative of ``vec`` modulo the lattice."""
    v = list(vec)
    for row in basis:
        j = _pivot_col(row)
        q = v[j] // row[j]
        if q:
            for idx in range(j, len(v)):
                v[idx] -= q * row[idx]
    return tuple(v)


@dataclass(frozen=True, slots=True)
class RelationLattice:
    """All (n, m) with n*a + m*b = 0, as a canonical (HNF) generator list."""

    generators: tuple[tuple[int, int], ...]

    @property
    def is_trivial(self) -> bool:
        return not self.generators

    def contains(self, pair: tuple[int, int]) -> bool:
        if pair == (0, 0):
            return True
        if not self.generators:
            return False
        return lattice_contains(self.generators, pair)


def solve_relations(a: GroupElement, b: GroupElement) -> RelationLattice:
    """Kernel of (n, m) -> n*a + m*b, computed exactly.

    Free coordinates contribute exact linear equations; each torsion
    coordinate contributes a congruence, handled through an auxiliary
    integer unknown.  The result is canonical, so two calls on equal
    inputs give identical generator lists.
    """
    a._check(b)
    sig = a.signature
    d = sig.free_rank
    t = len(sig.torsion_orders)
    width = d + t
    rows: list[list[int]] = [
        list(a.free) + list(a.torsion),
        list(b.free) + list(b.torsion),
    ]
    for j, n in enumerate(sig.torsion_orders):
        row = [0] * width
        row[d + j] = n
        rows.append(row)
    ker = kernel_rows(rows, width)
    projected = [row[:2] for row in ker]
    gens = hnf_rows(projected, 2)
    return RelationLattice(tuple((g[0], g[1]) for g in gens))


# ---------------------------------------------------------------------------
# Subgroups of the ambient group.
#
# A subgroup generated by elements g_1..g_k is represented as an integer
# lattice in Z^(d+t): the generators' coordinate vectors together with
# the torsion relations n_j * e_(d+j).  HNF canonicity makes subgroup
# equality a tuple comparison.
# ---------------------------------------------------------------------------


def element_vector(u: GroupElement) -> tuple[int, ...]:
    return u.free + u.torsion


def subgroup_rows(sig: GroupSignature, gens: Iterable[GroupElement]) -> tuple[tuple[int, ...], ...]:
    d = sig.free_rank
    t = len(sig.torsion_orders)
    rows = [list(element_vector(g)) for g in gens]
    for j, n in enumerate(sig.torsion_orders):
        row = [0] * (d + t)
        row[d + j] = n
        rows.append(row)
    return hnf_rows(rows, d + t)


def subgroup_contains(rows: Sequence[Sequence[int]], u: GroupElement) -> bool:
    if not rows:
        return u.is_identity()
    return lattice_contains(rows, element_vector(u))


def subgroups_equal(sig: GroupSignature, gens_a: Iterable[GroupElement], gens_b: Iterable[GroupElement]) -> bool:
    return subgroup_rows(sig, gens_a) == subgroup_rows(sig, gens_b)
