import os
import subprocess
import sys
import itertools
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from powmon.ambient import GroupSignature
from powmon.monoids import (
    ComplementSpec,
    Composite,
    IrrationalCone,
    MonoidSpec,
    QuadraticSurd,
    Window,
    composite,
    elements_in_window,
    free_generated,
    half_plane_lex,
    irrational_cone,
    is_unit,
    numerical,
    pseudo_unit_submonoid,
)
from powmon.structure import (
    IrreducibilityVerdict,
    IrreducibleStatus,
    PseudoUnitStatus,
    _complement_irreducible,
    _complement_witness,
    decompose,
    is_independent,
    is_irreducible,
    pseudo_unit,
)

from conftest import glued_composites, splits_window

Z1 = GroupSignature(1)
Z2 = GroupSignature(2)
Z4 = GroupSignature(4)
Z1_3 = GroupSignature(1, (3,))
W8 = Window(8)


def brute_force_pseudo_unit(spec, a, search_bound):
    """Oracle: scan members b up to the bound for an incomparable one."""
    for b in elements_in_window(spec, Window(search_bound)):
        if not spec.contains(a - b) and not spec.contains(b - a):
            return b
    return None


def test_independence_basic():
    assert is_independent(Z2.element((1, 0)), Z2.element((0, 1)))
    assert not is_independent(Z2.element((2, 4)), Z2.element((3, 6)))
    a = Z2.element((5, 1))
    assert not is_independent(a, a)
    assert not is_independent(a, Z2.identity())


def test_independence_symmetric_and_antireflexive():
    pairs = [
        (Z2.element((1, 2)), Z2.element((3, 1))),
        (Z2.element((2, 0)), Z2.element((0, 5))),
        (Z2.element((1, 1)), Z2.element((2, 2))),
    ]
    for a, b in pairs:
        assert is_independent(a, b) == is_independent(b, a)


def test_independence_fails_for_finite_order():
    sig = GroupSignature(1, (4,))
    a = sig.element((3,), (1,))
    b = sig.element((0,), (2,))  # finite order
    assert not is_independent(a, b)


def test_half_plane_irreducibility(halfplane):
    v = is_irreducible(halfplane, Z2.element((1, 0)), W8)
    assert v.status is IrreducibleStatus.IRREDUCIBLE_ANALYTIC
    for elem in [(3, 0), (-2, 1), (0, 1), (5, 2), (-7, 3)]:
        v = is_irreducible(halfplane, Z2.element(elem), W8)
        assert v.status is IrreducibleStatus.REDUCIBLE
        f1, f2 = v.factors
        assert f1 + f2 == Z2.element(elem)
        assert halfplane.contains(f1) and halfplane.contains(f2)
        assert not is_unit(halfplane, f1) and not is_unit(halfplane, f2)


def test_cone_elements_all_factor(cone_sqrt2):
    # no irreducible found among window members (up to the search bound)
    for u in elements_in_window(cone_sqrt2, Window(2)):
        if u.is_identity():
            continue
        v = is_irreducible(cone_sqrt2, u, Window(2))
        assert v.status is IrreducibleStatus.REDUCIBLE
        f1, f2 = v.factors
        assert f1 + f2 == u
        assert cone_sqrt2.contains(f1) and cone_sqrt2.contains(f2)


def test_cone_witness_outside_original_window(cone_sqrt2):
    # (1, 1) factors only through elements beyond its own box
    v = is_irreducible(cone_sqrt2, Z2.element((1, 1)), Window(2))
    assert v.status is IrreducibleStatus.REDUCIBLE
    assert max(abs(c) for f in v.factors for c in f.free) > 1


def test_numerical_irreducibility(num23):
    assert (
        is_irreducible(num23, Z1.element(2), Window(8)).status
        is IrreducibleStatus.IRREDUCIBLE_UP_TO_WINDOW
    )
    assert (
        is_irreducible(num23, Z1.element(3), Window(8)).status
        is IrreducibleStatus.IRREDUCIBLE_UP_TO_WINDOW
    )
    v = is_irreducible(num23, Z1.element(5), Window(8))
    assert v.status is IrreducibleStatus.REDUCIBLE
    assert sorted(f.free[0] for f in v.factors) == [2, 3]


def test_composite_with_trivial_valuation_part_matches_numerical(num23):
    # {0} glued with the complement generated by 2 and 3 is <2,3>; with no
    # non-unit to borrow from {0}, irreducibility is decided from the generators
    complement = ComplementSpec(Z1, (), (Z1.element(2), Z1.element(3)))
    glued = composite(numerical(()), complement, label="zero-glued-2-3")
    assert glued.borrowed_nonunit is None
    window = Window(10)
    assert elements_in_window(glued, window) == elements_in_window(num23, window)
    ours, theirs = decompose(glued, window), decompose(num23, window)
    assert (ours.pseudo_units, ours.complement) == (theirs.pseudo_units, theirs.complement)
    for x in range(2, 11):
        v = is_irreducible(glued, Z1.element(x), window)
        if x in (2, 3):
            assert v.status is IrreducibleStatus.IRREDUCIBLE_ANALYTIC
            continue
        assert v.status is IrreducibleStatus.REDUCIBLE
        f1, f2 = v.factors
        assert f1 + f2 == Z1.element(x)
        assert not is_unit(glued, f1) and not is_unit(glued, f2)
        assert glued.contains(f1) and glued.contains(f2)


#: Valuation parts on (0, 1) in Z^4 and the non-unit each should lend:
#: the first of g, -g over its quotient generators that is a non-unit member.
_RANK4_VALUATIONS = {
    "half-plane": (lambda: half_plane_lex(Z4, (0, 1)), (1, 0, 0, 0)),
    "cone-sqrt2": (lambda: irrational_cone(QuadraticSurd(0, 1, 1, 2), Z4, (0, 1)), (1, 0, 0, 0)),
    "cone-minus-sqrt2": (
        lambda: irrational_cone(QuadraticSurd(0, -1, 1, 2), Z4, (0, 1)),
        (-1, 0, 0, 0),
    ),
    # rational slopes: not reduced, so only the dataclass builds them
    "slope-1.5": (lambda: IrrationalCone(Z4, (0, 1), QuadraticSurd(3, 0, 2, 2)), (1, 0, 0, 0)),
    # +-e0 lie on the boundary line y = 0 and are units
    "slope-0": (lambda: IrrationalCone(Z4, (0, 1), QuadraticSurd(0, 0, 1, 2)), (0, -1, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(_RANK4_VALUATIONS))
def test_composite_borrows_a_nonunit_of_its_valuation_part(name, rank4_complement):
    build, expected = _RANK4_VALUATIONS[name]
    valuation = build()
    glued = composite(valuation, rank4_complement, label=f"glued-{name}")
    borrow = glued.borrowed_nonunit
    assert borrow == Z4.element(expected)
    assert valuation.contains(borrow) and not is_unit(valuation, borrow)
    members = [u for u in elements_in_window(glued, Window(2)) if glued.complement_part.contains(u)]
    assert members
    for u in members:
        for bound in (1, 3):
            v = is_irreducible(glued, u, Window(bound))
            assert (v.status, v.factors) == (IrreducibleStatus.REDUCIBLE, (borrow, u - borrow))


def test_irreducibility_rejects_units_and_nonmembers(halfplane):
    with pytest.raises(ValueError):
        is_irreducible(halfplane, Z2.element((0, 0)), W8)
    with pytest.raises(ValueError):
        is_irreducible(halfplane, Z2.element((-1, 0)), W8)


def test_rank4_irreducibility(rank4_h, rank4_k):
    e0 = Z4.basis_element(0)
    assert is_irreducible(rank4_h, e0, W8).status is IrreducibleStatus.IRREDUCIBLE_ANALYTIC
    # complement members always factor
    c = Z4.basis_element(2)
    v = is_irreducible(rank4_h, c, W8)
    assert v.status is IrreducibleStatus.REDUCIBLE
    f1, f2 = v.factors
    assert f1 + f2 == c and rank4_h.contains(f1) and rank4_h.contains(f2)
    # the cone-side composite has no irreducible members at all
    u = Z4.element((1, 1, 0, 0))
    assert is_irreducible(rank4_k, u, Window(2)).status is IrreducibleStatus.REDUCIBLE


def test_pseudo_unit_valuation_families(halfplane, cone_sqrt2, n0):
    for spec in (halfplane, cone_sqrt2):
        for u in elements_in_window(spec, Window(3)):
            assert (
                pseudo_unit(spec, u).status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC
            )
    assert pseudo_unit(n0, Z1.element(5)).status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC


def test_pseudo_unit_numerical(num23):
    v = pseudo_unit(num23, Z1.element(2))
    assert v.status is PseudoUnitStatus.NOT_PSEUDO_UNIT
    assert v.witness == Z1.element(3)
    # oracle: brute-force over b <= 20 confirms 3 is a witness
    oracle = brute_force_pseudo_unit(num23, Z1.element(2), 20)
    assert oracle is not None
    assert not num23.contains(Z1.element(3 - 2)) and not num23.contains(Z1.element(2 - 3))
    assert pseudo_unit(num23, Z1.element(0)).status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC


def test_pseudo_unit_numerical_matches_brute_force():
    for gens in ([2, 3], [3, 5], [4, 6], [5, 7, 9]):
        spec = numerical(gens)
        for u in elements_in_window(spec, Window(20)):
            verdict = pseudo_unit(spec, u)
            oracle = brute_force_pseudo_unit(spec, u, 40)
            if verdict.status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC:
                assert oracle is None
            else:
                assert verdict.status is PseudoUnitStatus.NOT_PSEUDO_UNIT
                assert oracle is not None
                w = verdict.witness
                assert spec.contains(w)
                assert not spec.contains(u - w) and not spec.contains(w - u)


def test_pseudo_unit_rank4(rank4_h):
    # valuation members are pseudo-units
    assert (
        pseudo_unit(rank4_h, Z4.element((-3, 2, 0, 0))).status
        is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC
    )
    # complement members are not, with a verified witness
    a = Z4.element((1, -2, 2, 1))
    v = pseudo_unit(rank4_h, a)
    assert v.status is PseudoUnitStatus.NOT_PSEUDO_UNIT
    b = v.witness
    assert rank4_h.contains(b)
    assert not rank4_h.contains(a - b) and not rank4_h.contains(b - a)


def test_pseudo_unit_free_generated_window_semantics():
    m = free_generated(Z2, (Z2.element((1, 0)), Z2.element((0, 1))))
    v = pseudo_unit(m, Z2.element((1, 0)))
    assert v.status is PseudoUnitStatus.NOT_PSEUDO_UNIT
    assert v.witness == Z2.element((0, 1))


def test_decompose_numerical(num23):
    report = decompose(num23, Window(20))
    assert [u.free[0] for u in report.pseudo_units] == [0]
    assert splits_window(report)
    for v in report.verdicts:
        if v.status is PseudoUnitStatus.NOT_PSEUDO_UNIT:
            w = v.witness
            assert num23.contains(w)
            assert not num23.contains(v.element - w)
            assert not num23.contains(w - v.element)


def test_decompose_halfplane(halfplane):
    report = decompose(halfplane, Window(4))
    assert report.pseudo_units == elements_in_window(halfplane, Window(4))
    assert not report.complement and splits_window(report)


def _half_plane_glued_non_basis():
    # generator images e2, e2+e3, e2+3*e3 are no free basis of Z^4 / G
    e = [Z4.basis_element(i) for i in range(4)]
    comp = ComplementSpec(Z4, (e[0], e[1]), (e[2], e[2] + e[3], e[2] + e[3].scale(3)))
    return composite(half_plane_lex(Z4, (0, 1)), comp, label="half-plane-glued-non-basis")


def _cone_glued_torsion_generators():
    # every multiple of (0,1,0;0) and of (0,1,0;1) is comparable with
    # (-2,2,-2;0), a member of G.M; (-2,2,-2;1) is not
    sig = GroupSignature(3, (2,))
    gens = (sig.element((0, 1, 0), (0,)), sig.element((0, 1, 0), (1,)))
    comp = ComplementSpec(sig, (sig.basis_element(0), sig.basis_element(2)), gens)
    return composite(irrational_cone(QuadraticSurd(0, 1, 1, 2), sig, (0, 2), "v"), comp, "drawn")


def _cone_glued_torsion_twins():
    # generators that differ by torsion alone: the witness of (0,0,0,1;0) is
    # (0,0,0,1;1) and the other way round, each formed with its torsion reduced
    sig = GroupSignature(4, (2,))
    gens = (sig.element((0, 0, 0, 1), (1,)), sig.element((0, 0, 0, 1), (0,)))
    comp = ComplementSpec(sig, (sig.basis_element(0), sig.basis_element(1)), gens)
    return composite(irrational_cone(QuadraticSurd(0, 1, 1, 2), sig, (0, 1), "v"), comp, "twins")


def _half_plane_glued_redundant():
    # e2 divides both 2*e2 and e2+e3, the incomparable pair, so the witness
    # of e2 is built on the pair (e2, e3) one step down
    e = [Z4.basis_element(i) for i in range(4)]
    comp = ComplementSpec(Z4, (e[0], e[1]), (e[2].scale(2), e[2] + e[3], e[2], e[3]))
    return composite(half_plane_lex(Z4, (0, 1)), comp, label="half-plane-glued-redundant")


@st.composite
def free_generated_specs(draw):
    """A free-generated monoid over Z, Z^2 or Z^3, with or without a Z/2
    factor, on non-identity generators with free coordinates in [-1, 1]:
    as drawn (graded, or a group when they allow no grading), the first
    and twice the first (a copy of N0), or as drawn with minus their sum
    (a group)."""
    d = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from(((), (2,))))
    sig = GroupSignature(d, torsion)
    coords = st.tuples(*[st.integers(-1, 1)] * d, *[st.integers(0, 1)] * len(torsion))
    element = coords.filter(any).map(lambda c: sig.element(c[:d], c[d:]))
    gens = draw(st.lists(element, min_size=2, max_size=3))
    kind = draw(st.sampled_from(("drawn", "drawn", "multiples", "group")))
    if kind == "multiples":
        gens = [gens[0], gens[0].scale(2)]
    elif kind == "group":
        gens.append(-sum(gens, sig.identity()))
    try:
        return free_generated(sig, gens)
    except ValueError:  # neither graded nor a group
        assume(False)


def _incomparable(spec, a, b):
    return not spec.contains(a - b) and not spec.contains(b - a) and spec.contains(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(glued_composites(), free_generated_specs()))
@example(_cone_glued_torsion_generators())
@example(_cone_glued_torsion_twins())
@example(_half_plane_glued_non_basis())
@example(_half_plane_glued_redundant())
# (1,0) divides the pair (2,0), (1,1) on one side only: its witness is y
@example(free_generated(Z2, [Z2.element(v) for v in ((2, 0), (1, 1), (1, 0))]))
@example(free_generated(Z1, [Z1.element(-1)]))
def test_pseudo_unit_verdicts_match_brute_force_on_drawn_specs(spec):
    # the pseudo-units V | {0}: a composite's valuation part, or all of a
    # free-generated monoid whose generators divide each other in some
    # direction, else {0}; a verdict is analytic exactly on them, an
    # analytic verdict meets no incomparable member of a larger window,
    # and every other verdict names one
    members = elements_in_window(spec, Window(2))
    if isinstance(spec, Composite):
        pseudo_units = {a for a in members if spec.valuation_part.contains(a)}
    else:
        pairs = itertools.combinations(spec.generators, 2)
        chain = all(spec.contains(g - h) or spec.contains(h - g) for g, h in pairs)
        pseudo_units = set(members) if chain else set()
    for a in members:
        verdict = pseudo_unit(spec, a)
        analytic = verdict.status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC
        assert analytic == (a.is_identity() or a in pseudo_units), a
        if analytic:
            assert brute_force_pseudo_unit(spec, a, 4) is None, a
        else:
            assert _incomparable(spec, a, verdict.witness), a


def test_pseudo_unit_builds_the_torsion_witness():
    # no multiple of a generator is incomparable with a = (-2,2,-2;0); with
    # the pair x = (0,1,0;0), y = (0,1,0;1), a - x is in G.M, so the
    # witness is a - x + y, outside every window of bound 1
    spec = _cone_glued_torsion_generators()
    sig = spec.signature
    verdict = pseudo_unit(spec, sig.element((-2, 2, -2), (0,)))
    assert verdict.witness == sig.element((-2, 2, -2), (1,))


def test_witness_descent_raises_past_its_bound(n0):
    # a stand-in complement whose descent needs five steps but whose
    # grade allows two: the construction raises instead of looping on
    comp = SimpleNamespace(
        incomparable_pair=((5,), (7,)), grade=lambda coords: 2, in_base_or_set=lambda d: d[0] > 0
    )
    with pytest.raises(AssertionError, match="ran past grade"):
        _complement_witness(n0, comp, (1,))


def _element_path_complement_irreducible(spec, u):
    """``_complement_irreducible`` on elements."""
    comp, v = spec.complement_part, spec.borrowed_nonunit
    if v is not None:
        return IrreducibilityVerdict(IrreducibleStatus.REDUCIBLE, (v, u - v))
    g = next((g for g in comp.positive_generators if comp.contains(u - g)), None)
    if g is None:
        return IrreducibilityVerdict(IrreducibleStatus.IRREDUCIBLE_ANALYTIC)
    return IrreducibilityVerdict(IrreducibleStatus.REDUCIBLE, (g, u - g))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(glued_composites())
@example(_cone_glued_torsion_generators())
@example(_cone_glued_torsion_twins())
def test_coordinate_witnesses_match_the_element_path(spec):
    # the coordinate path forms u - v and u - g as tuples, reducing their
    # torsion; every verdict and factor must be the element path's
    for a in elements_in_window(spec, Window(2)):
        if spec.complement_part.contains(a):
            assert _complement_irreducible(spec, a) == _element_path_complement_irreducible(spec, a), a


def test_witness_checks_ask_for_the_candidate_last(rank4_h, monkeypatch):
    # each check is not a|b, not b|a, b in H: the membership of the
    # candidate b is asked only by checks that find a witness
    from powmon import structure

    checks, asked = [], []
    current = []
    verified = structure._verified_witness
    contains = type(rank4_h)._contains_coords

    def counted_check(spec, a, b):
        current.append(b)
        try:
            found = verified(spec, a, b)
        finally:
            current.pop()
        checks.append(found)
        return found

    def counted_contains(spec, u):
        if current and u == current[-1]:
            asked.append(u)
        return contains(spec, u)

    monkeypatch.setattr(structure, "_verified_witness", counted_check)
    monkeypatch.setattr(type(rank4_h), "_contains_coords", counted_contains)
    report = decompose(rank4_h, Window(3))
    # one check per complement member, of the witness built for it
    assert sum(checks) == len(checks) == len(asked) == len(report.complement) == 735


def test_decompose_rank4(rank4_h):
    report = decompose(rank4_h, Window(4))
    val_members = tuple(
        u for u in elements_in_window(rank4_h, Window(4)) if rank4_h.valuation_part.contains(u)
    )
    assert report.pseudo_units == val_members
    assert splits_window(report)
    assert set(report.complement) == set(elements_in_window(rank4_h, Window(4))) - set(val_members)



def test_decompose_checks_survive_python_O():
    # with every element misclassified the identity is no pseudo-unit, and
    # decompose must say so even when python -O strips assert statements
    script = textwrap.dedent(
        """
        import sys
        from powmon import structure
        from powmon.monoids import Window, numerical

        def not_pseudo_unit(spec, a):
            return structure.PseudoUnitVerdict(a, structure.PseudoUnitStatus.NOT_PSEUDO_UNIT, a)

        structure.pseudo_unit = not_pseudo_unit
        try:
            structure.decompose(numerical([2, 3]), Window(6))
        except AssertionError as exc:
            print(sys.flags.optimize, "raised:", exc)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.startswith("1 raised: identity of '<2,3>'"), done.stdout

def test_decompose_report_fields(num23):
    report = decompose(num23, Window(6))
    assert report.monoid is num23 and report.window == Window(6)
    assert report.pseudo_units == (Z1.identity(),)
    statuses = {v.element: v.status for v in report.verdicts}
    assert statuses[Z1.element(2)] is PseudoUnitStatus.NOT_PSEUDO_UNIT


def test_pseudo_unit_submonoid(n0, num23, halfplane, cone_sqrt2, rank4_h):
    assert pseudo_unit_submonoid(n0) is n0
    assert pseudo_unit_submonoid(halfplane) is halfplane
    assert pseudo_unit_submonoid(cone_sqrt2) is cone_sqrt2
    trivial = pseudo_unit_submonoid(num23)
    assert not trivial.generators
    assert pseudo_unit_submonoid(rank4_h) is rank4_h.valuation_part
    m = free_generated(Z2, (Z2.element((1, 0)), Z2.element((0, 1))))
    assert pseudo_unit_submonoid(m) == free_generated(Z2, ())


def test_pseudo_unit_is_analytic_exactly_on_the_submonoid(
    n0, num23, halfplane, cone_sqrt2, rank4_h
):
    graded = free_generated(Z2, (Z2.element((2, 0)), Z2.element((1, 1)), Z2.element((0, 3))))
    cases = [
        (n0, Window(6)), (num23, Window(12)), (numerical([3, 5, 7]), Window(12)),
        (halfplane, Window(3)), (cone_sqrt2, Window(3)), (rank4_h, Window(2)), (graded, Window(3)),
    ]
    for spec, window in cases:
        sub = pseudo_unit_submonoid(spec)
        for a in elements_in_window(spec, window):
            analytic = pseudo_unit(spec, a).status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC
            assert analytic == (a.is_identity() or (sub is not None and sub.contains(a))), (spec, a)


@st.composite
def graded_generators(draw):
    """Two or three generators over Z^2 or Z + Z/3, graded by their first
    coordinate, 1 or 2."""
    sig = draw(st.sampled_from((Z2, Z1_3)))
    rest = st.integers(-3, 3) if sig.free_rank == 2 else st.integers(0, 2)
    gens = draw(st.lists(st.tuples(st.integers(1, 2), rest), min_size=2, max_size=3))
    return sig, [sig.element(c[: sig.free_rank], c[sig.free_rank :]) for c in gens]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(graded_generators())
@example((Z2, [Z2.element(v) for v in ((1, 0), (1, 1), (1, 3))]))  # free-z2
@example((Z1_3, [Z1_3.element((1,), (1,)), Z1_3.element((2,), (0,))]))  # free-z-z3
def test_one_complement_two_spellings(case):
    # a graded free-generated monoid that is not totally ordered is {0} | G.M
    # with G trivial: glued to the trivial group, it is one monoid, member
    # for member and verdict for verdict, witnesses included
    sig, gens = case
    free = free_generated(sig, gens)
    assume(not free.totally_ordered)
    glued = composite(free_generated(sig, ()), ComplementSpec(sig, (), gens))
    assert free.complement_part == glued.complement_part
    members = elements_in_window(free, Window(4))
    assert members == elements_in_window(glued, Window(4))
    for a in members:
        assert pseudo_unit(free, a) == pseudo_unit(glued, a), a


def _glued_line():
    """Z e0 | (Z e0 + N0 {e1, e2} minus 0) in Z^3: a composite whose
    valuation part is a group, so it is not reduced."""
    z3 = GroupSignature(3)
    e0, e1, e2 = (z3.basis_element(i) for i in range(3))
    line = free_generated(z3, [e0, -e0], "line")
    return composite(line, ComplementSpec(z3, (e0,), (e1, e2)), label="glued-line")


def test_every_spec_has_an_analytic_pseudo_unit_submonoid(
    n0, num23, halfplane, cone_sqrt2, rank4_h
):
    e0, e1 = Z2.basis_element(0), Z2.basis_element(1)
    cases = [
        (n0, Window(6)), (num23, Window(12)), (halfplane, Window(3)), (cone_sqrt2, Window(3)),
        (rank4_h, Window(2)), (_glued_line(), Window(2)),
        (free_generated(Z1, [Z1.element(-1)], "-N0"), Window(6)),
        (free_generated(Z2, [e0, e1, -(e0 + e1)], "group"), Window(3)),
        (free_generated(Z2, [e0, e1], "N0^2"), Window(3)),
        (free_generated(Z2, [e0 + e1, e0.scale(3) + e1.scale(3)], "diagonal"), Window(3)),
    ]
    for spec, window in cases:
        sub = pseudo_unit_submonoid(spec)
        assert isinstance(sub, MonoidSpec) and sub.signature == spec.signature, spec.label
        members = elements_in_window(spec, window)
        for a in members:
            analytic = pseudo_unit(spec, a).status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC
            assert analytic == sub.contains(a), (spec.label, a)
            # by definition: a pseudo-unit is comparable with every member
            if analytic:
                assert all(spec.contains(a - b) or spec.contains(b - a) for b in members)


def test_composite_over_a_group_factors_as_brute_force_does():
    glued = _glued_line()
    assert glued.borrowed_nonunit is None and not glued.is_reduced()
    # a factorization u = v + w moves along Z e0 by units, so one with v
    # at e0-coordinate 0 exists whenever any does: the window holds it
    window = Window(2)
    members = elements_in_window(glued, window)
    nonunits = [u for u in members if not is_unit(glued, u)]
    assert len(nonunits) == 40
    for u in nonunits:
        factors = any(
            glued.contains(u - v) and not is_unit(glued, u - v) for v in nonunits
        )
        verdict = is_irreducible(glued, u, window)
        assert (verdict.status is IrreducibleStatus.REDUCIBLE) == factors, u
        if factors:
            v, w = verdict.factors
            assert v + w == u and not is_unit(glued, v) and not is_unit(glued, w)
        else:
            assert verdict.status is IrreducibleStatus.IRREDUCIBLE_ANALYTIC


def test_pseudo_complement_closure_on_rank4(rank4_h):
    """Complement closed under products and under translation by the
    quotient group of the valuation part; valuation part totally ordered."""
    import random

    rng = random.Random(5)
    window = Window(4)
    members = elements_in_window(rank4_h, window)
    comp = [u for u in members if rank4_h.complement_part.contains(u)]
    val = [u for u in members if rank4_h.valuation_part.contains(u)]
    qval = [
        u
        for u in tuple(
            Z4.element((a, b, 0, 0))
            for a in range(-4, 5)
            for b in range(-4, 5)
        )
    ]
    for _ in range(2000):
        a, b = rng.choice(comp), rng.choice(comp)
        assert rank4_h.complement_part.contains(a + b)
        a, q = rng.choice(comp), rng.choice(qval)
        assert rank4_h.complement_part.contains(a + q)
        a, b = rng.choice(val), rng.choice(val)
        assert rank4_h.valuation_part.contains(a - b) or rank4_h.valuation_part.contains(b - a)
