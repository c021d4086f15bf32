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

from dataclasses import dataclass, field
from math import gcd, lcm
from operator import add, mod, neg, sub
from typing import Iterable, Sequence

__all__ = [
    "INFINITE",
    "GroupSignature",
    "GroupElement",
    "SignatureMismatchError",
    "solve_relations",
    "hnf_rows",
    "kernel_rows",
    "lattice_contains",
    "lattice_residue",
    "residue_rows",
    "subgroup_rows",
]


class SignatureMismatchError(ValueError):
    """Mixed arithmetic between elements of different ambient groups."""


class _InfiniteOrder:
    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"


#: Sentinel returned by ``GroupElement.order`` for elements of infinite order.
INFINITE = _InfiniteOrder()


@dataclass(frozen=True, slots=True)
class GroupSignature:
    """Shape of an ambient group: free rank d plus cyclic torsion orders."""

    free_rank: int
    torsion_orders: tuple[int, ...] = ()
    # built once: the identity is asked for on every set literal and pullback
    _identity: GroupElement = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion_orders", tuple(self.torsion_orders))
        for n in (self.free_rank, *self.torsion_orders):
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"free_rank and torsion orders must be integers, not {n!r}")
        if self.free_rank < 0:
            raise ValueError("free_rank must be non-negative")
        if any(n < 2 for n in self.torsion_orders):
            raise ValueError("torsion orders must all be >= 2")
        try:
            identity = GroupElement(self, (0,) * (self.free_rank + len(self.torsion_orders)))
        except (OverflowError, MemoryError):
            raise ValueError(f"free_rank {self.free_rank} is too large to build") from None
        object.__setattr__(self, "_identity", identity)

    def _reduced(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """These coordinates with their torsion residues reduced into
        [0, n): the one place torsion is reduced, for elements and for
        the coordinate tuples that library paths compute on."""
        if not self.torsion_orders:
            return coords
        d = self.free_rank
        return coords[:d] + tuple(map(mod, coords[d:], self.torsion_orders))

    def _minus(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """The canonical coordinates of a - b, from those of a and b."""
        return self._reduced(tuple(map(sub, a, b)))

    def _canonical(self, coords: tuple[int, ...]) -> GroupElement:
        """The element with these coordinates, torsion reduced; most
        elements are torsion-free, and skip the call.  Sums, differences,
        negations, multiples and ``element()`` are built here in one step,
        their two slots set directly; the public constructor is unchanged."""
        u = object.__new__(GroupElement)
        _set_signature(u, self)
        _set_coords(u, self._reduced(coords) if self.torsion_orders else coords)
        return u

    def element(self, free: int | Iterable[int] = (), torsion: Iterable[int] = ()) -> GroupElement:
        if isinstance(free, int):
            free = (free,)
        free = tuple(free)
        torsion = tuple(torsion)
        if not all(type(c) is int for c in free + torsion):  # bool is refused too
            raise TypeError(f"element coordinates must be integers: {free} / {torsion}")
        if len(free) != self.free_rank or len(torsion) != len(self.torsion_orders):
            raise ValueError(
                f"coordinate count mismatch for signature {self}: "
                f"got {len(free)} free / {len(torsion)} torsion"
            )
        return self._canonical(free + torsion)

    def identity(self) -> GroupElement:
        return self._identity

    def basis_element(self, index: int) -> GroupElement:
        """Standard basis vector e_index of the free part."""
        if not 0 <= index < self.free_rank:
            raise ValueError(f"free coordinate index {index} out of range")
        width = self.free_rank + len(self.torsion_orders)
        return GroupElement(self, tuple(int(i == index) for i in range(width)))


@dataclass(frozen=True, slots=True)
class GroupElement:
    """Element of an ambient group: its free coordinates, then its torsion
    residues canonical in [0, n).  ``GroupSignature.element`` checks and
    reduces coordinates; the constructor trusts its caller to.  The
    library builds the results of the arithmetic and of ``element()`` in
    one step (``GroupSignature._canonical``); the public constructor is
    unchanged, and both kinds equal, hash, print and pickle alike."""

    # compared, not hashed: hashing it would call a second, Python-level
    # __hash__ on every element hash
    signature: GroupSignature = field(hash=False)
    coords: tuple[int, ...]

    @property
    def free(self) -> tuple[int, ...]:
        return self.coords[: self.signature.free_rank]

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.coords[self.signature.free_rank :]

    def _check(self, other: GroupElement) -> None:
        # signatures are usually one shared object; compare fields only when not
        if other.signature is not self.signature and other.signature != self.signature:
            raise SignatureMismatchError(
                f"cannot combine elements of {self.signature} and {other.signature}"
            )

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        return self.signature._canonical(tuple(map(add, self.coords, other.coords)))

    def __neg__(self) -> GroupElement:
        return self.signature._canonical(tuple(map(neg, self.coords)))

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        return self.signature._canonical(tuple(map(sub, self.coords, other.coords)))

    def scale(self, n: int) -> GroupElement:
        return self.signature._canonical(tuple([a * n for a in self.coords]))

    def is_identity(self) -> bool:
        return not any(self.coords)

    def order(self) -> int | _InfiniteOrder:
        if any(self.free):
            return INFINITE
        result = 1
        for t, n in zip(self.torsion, self.signature.torsion_orders):
            result = lcm(result, n // gcd(t, n))
        return result

    def key(self) -> tuple[int, ...]:
        """Canonical sort key: within one signature, lexicographic on the
        free part, then the torsion."""
        return self.coords

    def __repr__(self) -> str:
        if self.torsion:
            return f"({','.join(map(str, self.free))};{','.join(map(str, self.torsion))})"
        if len(self.free) == 1:
            return str(self.free[0])
        return f"({','.join(map(str, self.free))})"


_set_signature = GroupElement.signature.__set__
_set_coords = GroupElement.coords.__set__


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


#: One row of a row-HNF basis as ``residue_rows`` gives it: (pivot
#: column, pivot, the non-zero entries right of the pivot as (column, entry)).
ResidueRow = tuple[int, int, tuple[tuple[int, int], ...]]


def residue_rows(basis: Sequence[Sequence[int]]) -> tuple[ResidueRow, ...]:
    """The sparse form of a row-HNF ``basis`` that ``lattice_residue`` reads."""
    out = []
    for row in basis:
        j = _pivot_col(row)
        tail = tuple((idx, row[idx]) for idx in range(j + 1, len(row)) if row[idx])
        out.append((j, row[j], tail))
    return tuple(out)


def lattice_residue(rows: Sequence[ResidueRow], vec: Sequence[int]) -> tuple[int, ...]:
    """Canonical coset representative of ``vec`` modulo the lattice.

    ``rows`` is ``residue_rows(basis)``, computed once per basis by
    callers that reduce many vectors modulo it; each row touches only its
    pivot and its non-zero entries."""
    v = list(vec)
    for j, pivot, tail in rows:
        q = v[j] // pivot
        if q:
            v[j] -= q * pivot
            for idx, x in tail:
                v[idx] -= q * x
    return tuple(v)


def lattice_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Exact membership of ``vec`` in the lattice with row-HNF ``basis``."""
    return not any(lattice_residue(residue_rows(basis), vec))


def _torsion_relations(sig: GroupSignature) -> list[list[int]]:
    """The rows n_j * e_(d+j): torsion coordinate j is defined modulo n_j."""
    d, width = sig.free_rank, len(sig.identity().coords)
    return [[n * (k == d + j) for k in range(width)] for j, n in enumerate(sig.torsion_orders)]


def solve_relations(a: GroupElement, b: GroupElement) -> tuple[tuple[int, ...], ...]:
    """HNF rows of the kernel of (n, m) -> n*a + m*b, computed exactly.

    Free coordinates contribute exact linear equations; each torsion
    coordinate contributes a congruence, handled through an auxiliary
    integer unknown.  The rows are canonical, so equal inputs give equal
    tuples, and ``()`` means a and b are independent.
    """
    a._check(b)
    rows = [list(a.coords), list(b.coords), *_torsion_relations(a.signature)]
    ker = kernel_rows(rows, len(a.coords))
    return hnf_rows((row[:2] for row in ker), 2)


# ---------------------------------------------------------------------------
# Subgroups of the ambient group.
#
# A subgroup generated by elements g_1..g_k is represented as an integer
# lattice in Z^(d+t): the generators' coordinate vectors together with
# the torsion relations n_j * e_(d+j).  HNF canonicity makes subgroup
# equality a tuple comparison.
# ---------------------------------------------------------------------------


def subgroup_rows(sig: GroupSignature, gens: Iterable[GroupElement]) -> tuple[tuple[int, ...], ...]:
    rows = [list(g.coords) for g in gens] + _torsion_relations(sig)
    return hnf_rows(rows, len(sig.identity().coords))
