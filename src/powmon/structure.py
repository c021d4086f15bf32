"""Structural analysis of monoid elements.

Independence of pairs, irreducibility, pseudo-units and the resulting
partition of a monoid into its pseudo-unit submonoid and complement.

A pseudo-unit of a reduced monoid H is an element a such that every
b in H satisfies a - b in H or b - a in H.  The pseudo-units form a
valuation submonoid H_v; the complement is a subsemigroup closed under
translation by the quotient group of H_v.  Pseudo-unit verdicts are
certified: analytic (a family-level argument) or witnessed (an explicit
counterexample element, constructed and verified).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .ambient import GroupElement, solve_relations
from .monoids import (
    ComplementSpec,
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
    return not solve_relations(a, b)


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
    """A complement member u of V | (G.M).  With a non-unit in V, u is the
    composite's ``borrowed_nonunit`` v plus u - v, which G.M holds.  With
    V a group ({0} included; ``borrowed_nonunit`` None), every non-unit
    lies in G.M, so u = v + w needs v, w in G.M, and then u - g = w + (v - g)
    is in G.M for a generator g with a positive coefficient in v, so
    trying each generator decides exactly."""
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


def _complement_witness(
    spec: MonoidSpec, comp: ComplementSpec, a: tuple[int, ...]
) -> tuple[int, ...]:
    """A member of spec incomparable with a, for a in G.M and spec between
    G.M and S = G | G.M, built from comp's incomparable pair (x, y): S + G.M
    lies in G.M, and S holds neither x - y nor y - x.  If a - x is in S, the
    witness is a - x + y; so for a - y.  Else if S lacks x - a, it is x; so
    for y.  Else x - a and y - a are in S, not in G (a - x would be), so in
    G.M: an incomparable pair of smaller grade.  Grades in G.M are positive,
    so the descent ends within grade(x) steps."""
    minus, holds = spec.signature._minus, comp.in_base_or_set
    x, y = comp.incomparable_pair
    for _ in range(comp.grade(x)):
        x_a, y_a = minus(x, a), minus(y, a)
        if holds(minus(a, x)):
            return minus(y, x_a)
        if holds(minus(a, y)):
            return minus(x, y_a)
        if not holds(x_a):
            return x
        if not holds(y_a):
            return y
        x, y = x_a, y_a
    raise AssertionError(f"witness descent for {a!r} ran past grade(x) steps")


def pseudo_unit(spec: MonoidSpec, a: GroupElement) -> PseudoUnitVerdict:
    """Is a comparable (in either direction) with every member of spec?

    Analytic exactly when a lies in the ``pseudo_unit_submonoid``.
    Otherwise a verified witness is built: a + F for the largest gap F of
    a numerical monoid, else ``_complement_witness`` on a composite's
    complement or on a graded free-generated monoid that is not totally
    ordered, which is {0} | G.M with G trivial.
    """
    if not spec.contains(a):
        raise ValueError(f"{a!r} is not a member of {spec.label!r}")
    # a pseudo-unit submonoid is over the signature of its spec
    if pseudo_unit_submonoid(spec)._contains_coords(a.coords):
        return PseudoUnitVerdict(a, PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC)
    if isinstance(spec, Numerical):
        b = (a.coords[0] + spec.frobenius_gap(),)
    else:
        b = _complement_witness(spec, spec.complement_part, a.coords)
    if not _verified_witness(spec, a.coords, b):
        raise AssertionError(f"witness construction failed for {a!r}")
    return PseudoUnitVerdict(a, PseudoUnitStatus.NOT_PSEUDO_UNIT, GroupElement(spec.signature, b))


@dataclass(frozen=True, slots=True)
class DecompositionReport:
    """Partition of the window members into pseudo-units and complement,
    by each member's verdict: analytic, or witnessed."""

    monoid: MonoidSpec
    window: Window
    pseudo_units: tuple[GroupElement, ...]
    complement: tuple[GroupElement, ...]
    verdicts: tuple[PseudoUnitVerdict, ...]


def decompose(spec: MonoidSpec, window: Window) -> DecompositionReport:
    """Classify every window member by its pseudo-unit verdict."""
    verdicts = tuple(pseudo_unit(spec, u) for u in elements_in_window(spec, window))
    pseudo = tuple(v.element for v in verdicts if v.status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC)
    comp = tuple(v.element for v in verdicts if v.status is PseudoUnitStatus.NOT_PSEUDO_UNIT)
    # raised, not asserted, so that the check survives python -O
    if spec.identity() not in pseudo:
        raise AssertionError(f"identity of {spec.label!r} is not classified as a pseudo-unit")
    return DecompositionReport(spec, window, pseudo, comp, verdicts)
