"""Structural analysis of monoid elements.

Independence of pairs, irreducibility, pseudo-units and the resulting
partition of a monoid into its pseudo-unit submonoid and complement.

A pseudo-unit of a reduced monoid H is an element a such that every
b in H satisfies a - b in H or b - a in H.  The pseudo-units form a
valuation submonoid H_v; the complement is a subsemigroup closed under
translation by the quotient group of H_v.  Verdicts are certified:
either analytic (a family-level argument), witnessed (an explicit
counterexample element), or honestly UNKNOWN_UP_TO_WINDOW.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .ambient import GroupElement, solve_relations
from .monoids import (
    Composite,
    HalfPlaneLex,
    MonoidSpec,
    Numerical,
    Window,
    elements_in_window,
    is_unit,
    pseudo_unit_submonoid,
)

__all__ = [
    "IrreducibleStatus",
    "IrreducibilityVerdict",
    "PseudoUnitStatus",
    "PseudoUnitVerdict",
    "DecompositionReport",
    "is_independent",
    "is_irreducible",
    "pseudo_unit",
    "decompose",
    "IRREDUCIBILITY_WINDOW_FACTOR",
]

#: Factors of a window element may lie outside its box (seen already for
#: planar cones); irreducibility searches enlarge the window by this much.
IRREDUCIBILITY_WINDOW_FACTOR = 4


def is_independent(a: GroupElement, b: GroupElement) -> bool:
    """True when a and b satisfy no relation n*a + m*b = 0 besides (0, 0)."""
    return solve_relations(a, b).is_trivial


class IrreducibleStatus(str, Enum):
    IRREDUCIBLE_ANALYTIC = "IRREDUCIBLE_ANALYTIC"
    IRREDUCIBLE_UP_TO_WINDOW = "IRREDUCIBLE_UP_TO_WINDOW"
    REDUCIBLE = "REDUCIBLE"


@dataclass(frozen=True, slots=True)
class IrreducibilityVerdict:
    status: IrreducibleStatus
    factors: tuple[GroupElement, GroupElement] | None = None


def _reducible(v: GroupElement, w: GroupElement) -> IrreducibilityVerdict:
    return IrreducibilityVerdict(IrreducibleStatus.REDUCIBLE, (v, w))


def _half_plane_irreducible(spec: HalfPlaneLex, u: GroupElement) -> IrreducibilityVerdict:
    x, y = spec._plane_xy(u.coords)
    if y == 0:
        if x == 1:
            return IrreducibilityVerdict(IrreducibleStatus.IRREDUCIBLE_ANALYTIC)
        return _reducible(spec.plane_element(1, 0), spec.plane_element(x - 1, 0))
    if y == 1:
        return _reducible(spec.plane_element(x - 1, 1), spec.plane_element(1, 0))
    return _reducible(spec.plane_element(x, y - 1), spec.plane_element(0, 1))


def _search_factorization(
    spec: MonoidSpec, u: GroupElement, window: Window
) -> IrreducibilityVerdict:
    enlarged = Window(window.bound * IRREDUCIBILITY_WINDOW_FACTOR)
    for v in elements_in_window(spec, enlarged):
        if is_unit(spec, v):
            continue
        w = u - v
        if spec.contains(w) and not is_unit(spec, w):
            return _reducible(v, w)
    return IrreducibilityVerdict(IrreducibleStatus.IRREDUCIBLE_UP_TO_WINDOW)


def is_irreducible(spec: MonoidSpec, u: GroupElement, window: Window) -> IrreducibilityVerdict:
    """Can u be written as a sum of two non-units of the monoid?

    Analytic for the lexicographic half-plane and for the complement
    members of composites (whose positive grading confines any
    factorization).  A composite's valuation member takes its valuation
    part's path.  Every other member, a cone's included, goes to a
    bounded search over a 4x-enlarged window.
    """
    if not spec.contains(u):
        raise ValueError(f"{u!r} is not a member of {spec.label!r}")
    if is_unit(spec, u):
        raise ValueError(f"{u!r} is a unit; irreducibility applies to non-units only")
    if isinstance(spec, HalfPlaneLex):
        return _half_plane_irreducible(spec, u)
    if isinstance(spec, Composite):
        if spec.complement_part._contains_coords(u.coords):
            return _complement_irreducible(spec, u)
        # valuation members only factor inside the valuation part: any
        # complement factor would contribute positive grading that the
        # other factor cannot cancel
        return is_irreducible(spec.valuation_part, u, window)
    return _search_factorization(spec, u, window)


def _complement_irreducible(spec: Composite, u: GroupElement) -> IrreducibilityVerdict:
    """A complement member u of V | (G.M).  With V non-trivial, u is the
    composite's ``borrowed_nonunit`` v plus u - v, which G.M holds.  With
    V trivial (``borrowed_nonunit`` None), u = v + w needs v, w in G.M,
    and then u - g = w + (v - g) is in G.M for a generator g with a
    positive coefficient in v, so trying each generator decides exactly."""
    sig, comp = spec.signature, spec.complement_part
    v = spec.borrowed_nonunit
    if v is None:
        for g in comp.positive_generators:
            w = sig._minus(u.coords, g.coords)
            if comp._contains_coords(w):
                return _reducible(g, GroupElement(sig, w))
        return IrreducibilityVerdict(IrreducibleStatus.IRREDUCIBLE_ANALYTIC)
    w = sig._minus(u.coords, v.coords)
    # v is a member by construction (Composite.__post_init__)
    if not comp._contains_coords(w):
        raise AssertionError("constructed composite factorization failed")
    return _reducible(v, GroupElement(sig, w))


class PseudoUnitStatus(str, Enum):
    PSEUDO_UNIT_ANALYTIC = "PSEUDO_UNIT_ANALYTIC"
    NOT_PSEUDO_UNIT = "NOT_PSEUDO_UNIT"
    UNKNOWN_UP_TO_WINDOW = "UNKNOWN_UP_TO_WINDOW"


@dataclass(frozen=True, slots=True)
class PseudoUnitVerdict:
    element: GroupElement
    status: PseudoUnitStatus
    witness: GroupElement | None = None

    def __post_init__(self) -> None:
        if (self.status is PseudoUnitStatus.NOT_PSEUDO_UNIT) != (self.witness is not None):
            raise ValueError("NOT_PSEUDO_UNIT carries a witness, other statuses do not")


def _verified_witness(spec: MonoidSpec, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Is b a member incomparable with a?  Both are canonical coordinates
    over the signature of spec.  A pure conjunction: the membership of b,
    the same for every a, goes last."""
    sig, member = spec.signature, spec._contains_coords
    return not member(sig._minus(a, b)) and not member(sig._minus(b, a)) and member(b)


def _composite_witness(spec: Composite, a: GroupElement) -> GroupElement | None:
    """Witness for a complement member among the multiples of the positive
    generators, or None: with torsion, every multiple may be comparable.

    With c = ``member_combination(a.coords)``, generator i starts at k = c_i, or
    at c_i + 1 when another c_j is positive (c != 0, so k >= 1): for a
    smaller k, a - k*g_i is a G-part plus a non-zero combination of the
    generators, so it lies in G.M and k*g_i divides a.  The first verified
    witness is therefore the one the full loop finds."""
    sig, comp = spec.signature, spec.complement_part
    budget = comp.grade(a.coords) + 1
    c = comp.member_combination(a.coords)
    for g, c_i in zip(comp.positive_generators, c):
        for k in range(c_i + (sum(c) > c_i), budget + 1):
            b = sig._reduced(tuple(k * x for x in g.coords))
            if _verified_witness(spec, a.coords, b):
                return GroupElement(sig, b)
    return None


def pseudo_unit(spec: MonoidSpec, a: GroupElement, window: Window) -> PseudoUnitVerdict:
    """Is a comparable (in either direction) with every member of spec?

    Analytic exactly when a is the identity or lies in the analytic
    ``pseudo_unit_submonoid``.  Otherwise proper numerical monoids
    construct the witness a + F from the largest gap F, and complement
    members of composites try the multiples of each positive generator.
    Where no such multiple is a witness, and for every other family, a
    bounded window search decides, with an honest UNKNOWN.
    """
    if not spec.contains(a):
        raise ValueError(f"{a!r} is not a member of {spec.label!r}")
    pseudo = pseudo_unit_submonoid(spec)
    # a pseudo-unit submonoid is over the signature of its spec
    if a.is_identity() or (pseudo is not None and pseudo._contains_coords(a.coords)):
        return PseudoUnitVerdict(a, PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC)
    b = None
    if isinstance(spec, Numerical):
        b = a + spec.signature.element(spec.frobenius_gap())
        if not _verified_witness(spec, a.coords, b.coords):
            raise AssertionError(f"gap witness construction failed for {a!r}")
    elif isinstance(spec, Composite):
        b = _composite_witness(spec, a)
    if b is None:
        members = elements_in_window(spec, window)
        b = next((w for w in members if _verified_witness(spec, a.coords, w.coords)), None)
    if b is not None:
        return PseudoUnitVerdict(a, PseudoUnitStatus.NOT_PSEUDO_UNIT, b)
    return PseudoUnitVerdict(a, PseudoUnitStatus.UNKNOWN_UP_TO_WINDOW)


@dataclass(frozen=True, slots=True)
class DecompositionReport:
    """Partition of the window members into pseudo-units and complement.

    ``unknown`` is populated only for families whose pseudo-unit status
    cannot be certified within the window; whenever it is empty the
    other two buckets form an exact disjoint partition of the window.
    """

    monoid: MonoidSpec
    window: Window
    pseudo_units: tuple[GroupElement, ...]
    complement: tuple[GroupElement, ...]
    unknown: tuple[GroupElement, ...]
    verdicts: tuple[PseudoUnitVerdict, ...]


def decompose(spec: MonoidSpec, window: Window) -> DecompositionReport:
    """Classify every window member by its pseudo-unit verdict."""
    pseudo: list[GroupElement] = []
    comp: list[GroupElement] = []
    unknown: list[GroupElement] = []
    verdicts: list[PseudoUnitVerdict] = []
    for u in elements_in_window(spec, window):
        verdict = pseudo_unit(spec, u, window)
        verdicts.append(verdict)
        if verdict.status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC:
            pseudo.append(u)
        elif verdict.status is PseudoUnitStatus.NOT_PSEUDO_UNIT:
            comp.append(u)
        else:
            unknown.append(u)
    # raised, not asserted, so that the check survives python -O
    if spec.identity() not in pseudo:
        raise AssertionError(f"identity of {spec.label!r} is not classified as a pseudo-unit")
    return DecompositionReport(
        spec, window, tuple(pseudo), tuple(comp), tuple(unknown), tuple(verdicts)
    )
