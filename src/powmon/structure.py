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
    FullN0,
    HalfPlaneLex,
    IrrationalCone,
    MonoidSpec,
    Numerical,
    Window,
    element_to_dict,
    elements_in_window,
    is_analytic_valuation_family,
    numerical,
    witness_search_order,
)

__all__ = [
    "IrreducibleStatus",
    "IrreducibilityVerdict",
    "PseudoUnitStatus",
    "PseudoUnitVerdict",
    "DecompositionReport",
    "is_independent",
    "is_unit",
    "is_irreducible",
    "pseudo_unit",
    "decompose",
    "pseudo_unit_submonoid",
    "IRREDUCIBILITY_WINDOW_FACTOR",
]

#: Factors of a window element may lie outside its box (seen already for
#: planar cones); irreducibility searches enlarge the window by this much.
IRREDUCIBILITY_WINDOW_FACTOR = 4


def is_independent(a: GroupElement, b: GroupElement) -> bool:
    """True when a and b satisfy no relation n*a + m*b = 0 besides (0, 0)."""
    return solve_relations(a, b).is_trivial


def is_unit(spec: MonoidSpec, u: GroupElement) -> bool:
    return spec.contains(u) and spec.contains(-u)


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
    x, y = spec.plane_coords(u)
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
    enlarged = window.scaled(IRREDUCIBILITY_WINDOW_FACTOR)
    for v in elements_in_window(spec, enlarged):
        if is_unit(spec, v):
            continue
        w = u - v
        if spec.contains(w) and not is_unit(spec, w):
            return _reducible(v, w)
    return IrreducibilityVerdict(IrreducibleStatus.IRREDUCIBLE_UP_TO_WINDOW)


def is_irreducible(spec: MonoidSpec, u: GroupElement, window: Window) -> IrreducibilityVerdict:
    """Can u be written as a sum of two non-units of the monoid?

    Analytic for the lexicographic half-plane and for composites (where
    the positive grading of the complement confines any factorization);
    a bounded search over a 4x-enlarged window elsewhere.
    """
    if not spec.contains(u):
        raise ValueError(f"{u!r} is not a member of {spec.label!r}")
    if is_unit(spec, u):
        raise ValueError(f"{u!r} is a unit; irreducibility applies to non-units only")
    if isinstance(spec, HalfPlaneLex):
        return _half_plane_irreducible(spec, u)
    if isinstance(spec, Composite):
        if spec.in_complement(u):
            return _complement_irreducible(spec, u, window)
        # valuation members only factor inside the valuation part: any
        # complement factor would contribute positive grading that the
        # other factor cannot cancel
        return is_irreducible(spec.valuation_part, u, window)
    return _search_factorization(spec, u, window)


def _complement_irreducible(
    spec: Composite, u: GroupElement, window: Window
) -> IrreducibilityVerdict:
    """A complement member u of V | (G.M).  With V non-trivial, u always
    factors: peel one positive generator off after borrowing any non-unit
    of V.  With V trivial (of the valuation families a composite admits,
    only the numerical monoid {0}), u = v + w needs v, w in G.M, and then
    u - g = w + (v - g) is in G.M for a generator g with a positive
    coefficient in v, so trying each generator decides exactly."""
    comp = spec.complement_part
    if isinstance(spec.valuation_part, Numerical) and spec.valuation_part.is_trivial():
        for g in comp.positive_generators:
            if comp.contains(u - g):
                return _reducible(g, u - g)
        return IrreducibilityVerdict(IrreducibleStatus.IRREDUCIBLE_ANALYTIC)
    v = _first_nonunit(spec.valuation_part, window)
    w = u - v
    if not (spec.contains(v) and spec.in_complement(w)):
        raise AssertionError("constructed composite factorization failed")
    return _reducible(v, w)


def _first_nonunit(spec: MonoidSpec, window: Window) -> GroupElement:
    for v in witness_search_order(spec.signature, window):
        if not v.is_identity() and spec.contains(v) and not is_unit(spec, v):
            return v
    raise ValueError(f"no non-unit of {spec.label!r} found in the window")


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


def _verified_witness(spec: MonoidSpec, a: GroupElement, b: GroupElement) -> bool:
    return spec.contains(b) and not spec.contains(a - b) and not spec.contains(b - a)


def _composite_witness(spec: Composite, a: GroupElement) -> GroupElement | None:
    """Witness for a complement member: some multiple of a positive
    generator is incomparable with a."""
    comp = spec.complement_part
    budget = comp.grade(a) + 1
    for g in comp.positive_generators:
        for k in range(1, budget + 1):
            b = g.scale(k)
            if _verified_witness(spec, a, b):
                return b
    return None


def _window_witness(spec: MonoidSpec, a: GroupElement, window: Window) -> GroupElement | None:
    for b in elements_in_window(spec, window):
        if not spec.contains(a - b) and not spec.contains(b - a):
            return b
    return None


def pseudo_unit(spec: MonoidSpec, a: GroupElement, window: Window) -> PseudoUnitVerdict:
    """Is a comparable (in either direction) with every member of spec?

    Valuation families answer analytically for every member.  Proper
    numerical monoids construct the witness a + F from the largest gap F.
    Composites split analytically: valuation members are pseudo-units,
    complement members get a constructed witness (cross-checked by the
    bounded search when construction fails).  Everything else is a
    bounded search with an honest UNKNOWN.
    """
    if not spec.contains(a):
        raise ValueError(f"{a!r} is not a member of {spec.label!r}")
    if a.is_identity():
        return PseudoUnitVerdict(a, PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC)
    if is_analytic_valuation_family(spec):
        return PseudoUnitVerdict(a, PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC)
    if isinstance(spec, Numerical):
        gap = spec.frobenius_gap()
        if gap is None:
            return PseudoUnitVerdict(a, PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC)
        b = a + spec.signature.element(gap)
        if not _verified_witness(spec, a, b):
            raise AssertionError(f"gap witness construction failed for {a!r}")
        return PseudoUnitVerdict(a, PseudoUnitStatus.NOT_PSEUDO_UNIT, b)
    if isinstance(spec, Composite):
        if spec.valuation_part.contains(a):
            return PseudoUnitVerdict(a, PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC)
        b = _composite_witness(spec, a)
        if b is None:
            b = _window_witness(spec, a, window)
        if b is not None:
            return PseudoUnitVerdict(a, PseudoUnitStatus.NOT_PSEUDO_UNIT, b)
        return PseudoUnitVerdict(a, PseudoUnitStatus.UNKNOWN_UP_TO_WINDOW)
    b = _window_witness(spec, a, window)
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

    def to_json_dict(self) -> dict:
        return {
            "monoid": self.monoid.label,
            "window": self.window.bound,
            "pseudo_units": [element_to_dict(u) for u in self.pseudo_units],
            "complement": [element_to_dict(u) for u in self.complement],
            "unknown": [element_to_dict(u) for u in self.unknown],
            "verdicts": [
                {
                    "element": element_to_dict(v.element),
                    "status": v.status.value,
                    **({"witness": element_to_dict(v.witness)} if v.witness is not None else {}),
                }
                for v in self.verdicts
            ],
        }


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


def pseudo_unit_submonoid(spec: MonoidSpec) -> MonoidSpec | None:
    """The pseudo-units of spec as a spec of their own, when analytic.

    Valuation families are their own pseudo-unit submonoid; a proper
    numerical monoid collapses to {0}; composites keep exactly their
    valuation part.  None means no analytic description is available.
    """
    if is_analytic_valuation_family(spec):
        return spec
    if isinstance(spec, Numerical):
        return numerical((), label=f"{spec.label}-pseudo-units")
    if isinstance(spec, Composite):
        return spec.valuation_part
    return None
