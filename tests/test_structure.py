import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from powmon.ambient import GroupSignature
from powmon.monoids import (
    ComplementSpec,
    Window,
    composite,
    elements_in_window,
    free_generated,
    numerical,
)
from powmon.structure import (
    IrreducibleStatus,
    PseudoUnitStatus,
    decompose,
    is_independent,
    is_irreducible,
    is_unit,
    pseudo_unit,
    pseudo_unit_submonoid,
)

Z1 = GroupSignature(1)
Z2 = GroupSignature(2)
Z4 = GroupSignature(4)
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
    window = Window(10)
    assert elements_in_window(glued, window) == elements_in_window(num23, window)
    ours, theirs = decompose(glued, window), decompose(num23, window)
    assert (ours.pseudo_units, ours.complement, ours.unknown) == (
        theirs.pseudo_units,
        theirs.complement,
        theirs.unknown,
    )
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
                pseudo_unit(spec, u, W8).status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC
            )
    assert pseudo_unit(n0, Z1.element(5), W8).status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC


def test_pseudo_unit_numerical(num23):
    v = pseudo_unit(num23, Z1.element(2), W8)
    assert v.status is PseudoUnitStatus.NOT_PSEUDO_UNIT
    assert v.witness == Z1.element(3)
    # oracle: brute-force over b <= 20 confirms 3 is a witness
    oracle = brute_force_pseudo_unit(num23, Z1.element(2), 20)
    assert oracle is not None
    assert not num23.contains_int(3 - 2) and not num23.contains_int(2 - 3)
    assert pseudo_unit(num23, Z1.element(0), W8).status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC


def test_pseudo_unit_numerical_matches_brute_force():
    for gens in ([2, 3], [3, 5], [4, 6], [5, 7, 9]):
        spec = numerical(gens)
        for u in elements_in_window(spec, Window(20)):
            verdict = pseudo_unit(spec, u, Window(20))
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
        pseudo_unit(rank4_h, Z4.element((-3, 2, 0, 0)), W8).status
        is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC
    )
    # complement members are not, with a verified witness
    a = Z4.element((1, -2, 2, 1))
    v = pseudo_unit(rank4_h, a, W8)
    assert v.status is PseudoUnitStatus.NOT_PSEUDO_UNIT
    b = v.witness
    assert rank4_h.contains(b)
    assert not rank4_h.contains(a - b) and not rank4_h.contains(b - a)


def test_pseudo_unit_free_generated_window_semantics():
    m = free_generated(Z2, (Z2.element((1, 0)), Z2.element((0, 1))))
    v = pseudo_unit(m, Z2.element((1, 0)), W8)
    assert v.status is PseudoUnitStatus.NOT_PSEUDO_UNIT
    assert v.witness == Z2.element((0, 1))


def test_pseudo_unit_verdicts_stable_under_window_growth(num23, rank4_h):
    for spec, elems in (
        (num23, elements_in_window(num23, Window(10))),
        (rank4_h, elements_in_window(rank4_h, Window(2))),
    ):
        for u in elems:
            small = pseudo_unit(spec, u, Window(4))
            big = pseudo_unit(spec, u, Window(8))
            if small.status is not PseudoUnitStatus.UNKNOWN_UP_TO_WINDOW:
                assert small.status == big.status


def test_decompose_numerical(num23):
    report = decompose(num23, Window(20))
    assert [u.free[0] for u in report.pseudo_units] == [0]
    assert not report.unknown
    for v in report.verdicts:
        if v.status is PseudoUnitStatus.NOT_PSEUDO_UNIT:
            w = v.witness
            assert num23.contains(w)
            assert not num23.contains(v.element - w)
            assert not num23.contains(w - v.element)


def test_decompose_halfplane(halfplane):
    report = decompose(halfplane, Window(4))
    assert report.pseudo_units == elements_in_window(halfplane, Window(4))
    assert not report.complement and not report.unknown


def test_decompose_rank4(rank4_h):
    report = decompose(rank4_h, Window(4))
    val_members = tuple(
        u for u in elements_in_window(rank4_h, Window(4)) if rank4_h.valuation_part.contains(u)
    )
    assert report.pseudo_units == val_members
    assert not report.unknown
    assert set(report.complement) == set(elements_in_window(rank4_h, Window(4))) - set(val_members)



def test_decompose_checks_survive_python_O():
    # with every element misclassified the identity is no pseudo-unit, and
    # decompose must say so even when python -O strips assert statements
    script = textwrap.dedent(
        """
        import sys
        from powmon import structure
        from powmon.monoids import Window, numerical

        def not_pseudo_unit(spec, a, window):
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

def test_decompose_report_json(num23):
    report = decompose(num23, Window(6))
    doc = report.to_json_dict()
    assert doc["monoid"] == num23.label
    assert doc["pseudo_units"] == [{"free": [0], "torsion": []}]
    statuses = {tuple(v["element"]["free"]): v["status"] for v in doc["verdicts"]}
    assert statuses[(2,)] == "NOT_PSEUDO_UNIT"


def test_pseudo_unit_submonoid(n0, num23, halfplane, cone_sqrt2, rank4_h):
    assert pseudo_unit_submonoid(n0) is n0
    assert pseudo_unit_submonoid(halfplane) is halfplane
    assert pseudo_unit_submonoid(cone_sqrt2) is cone_sqrt2
    trivial = pseudo_unit_submonoid(num23)
    assert trivial.is_trivial()
    assert pseudo_unit_submonoid(rank4_h) is rank4_h.valuation_part
    m = free_generated(Z2, (Z2.element((1, 0)), Z2.element((0, 1))))
    assert pseudo_unit_submonoid(m) is None


def test_pseudo_complement_closure_on_rank4(rank4_h):
    """Complement closed under products and under translation by the
    quotient group of the valuation part; valuation part totally ordered."""
    import random

    rng = random.Random(5)
    window = Window(4)
    members = elements_in_window(rank4_h, window)
    comp = [u for u in members if rank4_h.in_complement(u)]
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
        assert rank4_h.in_complement(a + b)
        a, q = rng.choice(comp), rng.choice(qval)
        assert rank4_h.in_complement(a + q)
        a, b = rng.choice(val), rng.choice(val)
        assert rank4_h.valuation_part.contains(a - b) or rank4_h.valuation_part.contains(b - a)
