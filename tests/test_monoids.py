import itertools
import json
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from powmon.ambient import (
    GroupSignature,
    SignatureMismatchError,
    subgroup_contains,
    subgroup_rows,
)
from powmon.monoids import (
    ComplementSpec,
    FreeGenerated,
    MonoidSpec,
    QuadraticSurd,
    ValuationStatus,
    Window,
    ambient_window,
    composite,
    elements_in_window,
    free_generated,
    full_n0,
    half_plane_lex,
    irrational_cone,
    is_unit,
    is_valuation,
    load_monoid_file,
    monoid_from_json,
    monoid_to_json,
    numerical,
    spec_from_dict,
    spec_to_dict,
    units,
    witness_search_order,
)

from conftest import glued_composites

Z1 = GroupSignature(1)
Z2 = GroupSignature(2)


def surd_sign_oracle(alpha: QuadraticSurd, x: int, y: int) -> int:
    """Independent check of sign(y - alpha*x) by rational sandwiching.

    sqrt(n) is pinned between isqrt(n * scale^2) / scale and the next
    rational step; the precision is raised until the sandwich decides.
    """
    if x == 0:
        return (y > 0) - (y < 0)
    scale = 10**6
    while True:
        s = isqrt(alpha.n * scale * scale)
        lo = (Fraction(alpha.p) + alpha.q * Fraction(s if alpha.q > 0 else s + 1, scale)) / alpha.r
        hi = (Fraction(alpha.p) + alpha.q * Fraction(s + 1 if alpha.q > 0 else s, scale)) / alpha.r
        val_lo = y - hi * x if x > 0 else y - lo * x
        val_hi = y - lo * x if x > 0 else y - hi * x
        if val_lo > 0:
            return 1
        if val_hi < 0:
            return -1
        scale *= 1000


def test_surd_validation():
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 0, 2)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 1, 4)  # perfect square radicand
    with pytest.raises(ValueError):
        irrational_cone(QuadraticSurd(3, 0, 2, 2))  # rational slope rejected


def test_surd_sign_examples():
    sqrt2 = QuadraticSurd(0, 1, 1, 2)
    # oracle for the cone example (2, 3): 3 > 2*sqrt(2) because 9 > 8
    assert 3 * 3 > 2 * 2 * 2
    assert sqrt2.sign_linear(2, 3) == 1
    assert sqrt2.sign_linear(1, 1) == -1
    assert sqrt2.sign_linear(0, 0) == 0
    assert sqrt2.sign_linear(-2, -3) == -1


def test_surd_sign_against_sandwich_oracle():
    rng = random.Random(11)
    alphas = [
        QuadraticSurd(0, 1, 1, 2),
        QuadraticSurd(1, 1, 2, 5),
        QuadraticSurd(-3, 1, 5, 7),
        QuadraticSurd(2, -3, 4, 3),
    ]
    for _ in range(10_000):
        alpha = rng.choice(alphas)
        x = rng.randint(-50, 50)
        y = rng.randint(-80, 80)
        assert alpha.sign_linear(x, y) == surd_sign_oracle(alpha, x, y)


def test_half_plane_membership(halfplane):
    assert halfplane.contains(Z2.element((-5, 3)))
    assert not halfplane.contains(Z2.element((-1, 0)))
    assert halfplane.contains(Z2.element((0, 0)))
    assert halfplane.contains(Z2.element((4, 0)))
    assert not halfplane.contains(Z2.element((3, -1)))
    # Z2 here is equal to the half-plane's signature but another object
    assert Z2 is not halfplane.signature
    with pytest.raises(SignatureMismatchError):
        halfplane.contains(GroupSignature(2, (3,)).element((1, 0), (0,)))


def test_cone_membership(cone_sqrt2):
    assert not cone_sqrt2.contains(Z2.element((2, 3)))
    assert cone_sqrt2.contains(Z2.element((2, 2)))
    assert cone_sqrt2.contains(Z2.element((-2, -3)))
    assert cone_sqrt2.contains(Z2.element((0, 0)))
    assert not cone_sqrt2.contains(Z2.element((0, 1)))


def test_numerical_membership(num23):
    # oracle: enumerate combinations 2a + 3b up to 12
    reachable = {2 * a + 3 * b for a in range(7) for b in range(5) if 2 * a + 3 * b <= 12}
    for x in range(13):
        assert num23.contains_int(x) == (x in reachable)
    assert not num23.contains_int(1)
    assert num23.contains_int(5)
    assert not num23.contains_int(-2)


def test_numerical_gcd_normalization():
    m = numerical([4, 6])
    # oracle: {4,6} generates 2 * <2,3> = {0, 4, 6, 8, 10, ...}
    members = {0}
    for _ in range(8):
        members |= {x + 4 for x in members} | {x + 6 for x in members}
    for x in range(0, 25):
        assert m.contains_int(x) == (x in members)
    assert m.frobenius_gap() == 2  # largest even number missing


def test_numerical_frobenius(num23):
    assert num23.frobenius_gap() == 1
    assert numerical([3, 5]).frobenius_gap() == 7
    assert numerical([1]).frobenius_gap() is None
    assert numerical([1]).is_all_of_scaled_n0()


def numerical_closure(gens, limit):
    """Brute force: the members of the monoid generated by gens in 0..limit."""
    members = {0}
    for x in range(1, limit + 1):
        if any(x - g in members for g in gens):
            members.add(x)
    return members


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 12), max_size=4))
@example([2, 4])  # gcd > 1, normalized to <1, 2> = N0
@example([4, 6, 9])
@example([6])  # a single generator: 6*N0
@example([3, 5, 7])
@example([1, 3, 5, 7])  # a normalized 1 beside other generators
@example([])  # the trivial monoid {0}
def test_numerical_rules_match_closure(gens):
    m = numerical(gens)
    g = gcd(*gens)
    # past g * (the Frobenius number) every multiple of g is a member; with
    # generators <= 12 the Frobenius number is < 121 (Schur's bound)
    limit = 300
    members = numerical_closure(gens, limit)
    for x in range(-3, 61):
        assert m.contains_int(x) == (x in members), x
    scaled_n0 = bool(gens) and all(x in members for x in range(0, limit + 1, g))
    assert m.is_all_of_scaled_n0() == scaled_n0
    if not gens or scaled_n0:
        assert m.frobenius_gap() is None
    else:
        gap = max(x for x in range(0, limit + 1, g) if x not in members)
        assert gap < limit - 12 * g  # the closure reached past the gap
        assert m.frobenius_gap() == gap


def test_trivial_numerical():
    t = numerical([])
    assert t.is_trivial()
    assert t.contains_int(0)
    assert not t.contains_int(1)
    assert t.quotient_generators() == ()


def test_free_generated_graded_membership():
    gens = (Z2.element((2, 0)), Z2.element((1, 1)))
    m = free_generated(Z2, gens)
    assert m.grading is not None
    # oracle: bounded enumeration of combinations
    members = {
        (2 * a + b, b)
        for a in range(9)
        for b in range(9)
    }
    for x in range(-4, 9):
        for y in range(-4, 9):
            assert m.contains(Z2.element((x, y))) == ((x, y) in members)


def test_free_generated_group_certificate():
    gens = (Z2.element((1, 0)), Z2.element((0, 1)), Z2.element((-1, -1)))
    m = free_generated(Z2, gens)
    assert m.is_group()
    assert not m.is_reduced()
    w = Window(3)
    # generators sum to zero: every window point is a unit
    assert units(m, w) == elements_in_window(m, w)
    assert len(units(m, w)) == 7 * 7


def test_free_generated_rejects_undecidable():
    # Z x N0: zero is a positive combination of the first two generators
    # but never involves the third, so there is neither a positive
    # grading nor a group certificate
    gens = (Z2.element((1, 0)), Z2.element((-1, 0)), Z2.element((0, 1)))
    with pytest.raises(ValueError):
        free_generated(Z2, gens)
    # the same obstruction with seven generators; the message names the
    # two conditions that failed
    more = [(1, 0), (-1, 0), (0, 1), (0, 2), (0, 3), (1, 1), (-1, 1)]
    with pytest.raises(ValueError, match="no integer functional is positive"):
        free_generated(Z2, [Z2.element(v) for v in more])


def test_free_generated_torsion_group():
    sig = GroupSignature(0, (3,))
    m = free_generated(sig, (sig.element((), (1,)),))
    assert m.is_group()
    assert m.contains(sig.element((), (2,)))


def test_free_generated_without_generators_is_trivial_group():
    sig = GroupSignature(2, (3,))
    m = free_generated(sig, [])
    assert m.is_group() and m.is_reduced()
    assert elements_in_window(m, Window(2)) == (sig.identity(),)


@pytest.mark.parametrize(
    "sig, gens, bound, depth, group",
    [
        # graded only by functionals with a coefficient above 5, e.g. (37, 6);
        # a window member has grade <= 43 * 4, one per generator in any sum,
        # and (1, 0) needs 31 + 6 generators
        (Z2, [((1, -6), ()), ((-5, 31), ())], 4, 172, False),
        (GroupSignature(0, (7,)), [((), (1,))], 1, 6, True),
        (GroupSignature(1, (7,)), [((1,), (1,)), ((-1,), (0,))], 4, 24, True),
        # graded by (1,) with torsion: a window member has grade <= 6
        (GroupSignature(1, (3,)), [((1,), (1,)), ((2,), (0,))], 6, 6, False),
    ],
)
def test_free_generated_membership_matches_enumeration(sig, gens, bound, depth, group):
    elems = [sig.element(free, torsion) for free, torsion in gens]
    m = free_generated(sig, elems)
    assert m.is_group() == group
    # oracle: every sum of at most ``depth`` generators
    members = level = {sig.identity()}
    for _ in range(depth):
        level = {u + g for u in level for g in elems}
        members = members | level
    for u in ambient_window(sig, Window(bound)):
        assert m.contains(u) == (u in members), u


@pytest.mark.parametrize(
    "sig, base, gens, bound",
    [
        # the images of the generators in Z^3 / <e0> are not a free basis
        (
            GroupSignature(3),
            [((1, 0, 0), ())],
            [((0, 1, 0), ()), ((0, 1, 1), ()), ((0, 1, 3), ())],
            3,
        ),
        # an index-2 base subgroup, so residues keep the parity of x
        (Z2, [((2, 0), ())], [((1, 2), ()), ((0, 3), ()), ((1, 1), ())], 5),
        # a torsion ambient, with a base generator of infinite order
        (
            GroupSignature(2, (3,)),
            [((1, 0), (1,))],
            [((0, 1), (0,)), ((1, 2), (2,)), ((0, 1), (1,))],
            4,
        ),
    ],
)
def test_complement_matches_brute_force(sig, base, gens, bound):
    base = tuple(sig.element(free, torsion) for free, torsion in base)
    gens = tuple(sig.element(free, torsion) for free, torsion in gens)
    comp = ComplementSpec(sig, base, gens)
    rows = subgroup_rows(sig, base)
    # y vanishes on the base and is >= 1 on every generator, so c_i <= y <= bound
    # for a window member; product() runs in lexicographic order
    sums = {
        c: sum((g.scale(n) for n, g in zip(c, gens)), sig.identity())
        for c in itertools.product(range(bound + 1), repeat=len(gens))
        if any(c)
    }
    window = list(ambient_window(sig, Window(bound)))
    least = {
        u: next((c for c, total in sums.items() if subgroup_contains(rows, u - total)), None)
        for u in window
    }
    assert sum(c is not None for c in least.values()) > len(window) // 10
    for u in window + window[::-1]:  # the second pass answers from the memo
        assert comp.member_combination(u) == least[u], u
        assert comp.contains(u) == (least[u] is not None)
        assert comp.contains_with_base(u) == (least[u] is not None or subgroup_contains(rows, u))


@st.composite
def graded_complements(draw):
    """A complement in Z^3 or Z^2 + Z/3 that its first coordinate grades:
    the base vectors have first coordinate 0, the generators 1 or 2."""
    sig = draw(st.sampled_from((GroupSignature(3), GroupSignature(2, (3,)))))
    d = sig.free_rank
    rest = [st.integers(-2, 2)] * (d - 1) + [st.integers(0, n - 1) for n in sig.torsion_orders]

    def vectors(first):
        return st.tuples(first, *rest).map(lambda c: sig.element(c[:d], c[d:]))

    base = draw(st.lists(vectors(st.just(0)), max_size=2))
    gens = draw(st.lists(vectors(st.integers(1, 2)), min_size=1, max_size=3))
    return sig, ComplementSpec(sig, base, gens)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graded_complements())
def test_random_complements_match_enumeration(case):
    sig, comp = case
    gens, bound = comp.positive_generators, 3
    rows = subgroup_rows(sig, comp.base_subgroup)
    # every c with sum(c_i * grade(m_i)) = grade(u) <= bound has c_i <= bound;
    # product() runs in lexicographic order
    graded = [
        (c, sum(n * g.free[0] for n, g in zip(c, gens)),
         sum((g.scale(n) for n, g in zip(c, gens)), sig.identity()))
        for c in itertools.product(range(bound + 1), repeat=len(gens))
        if any(c)
    ]
    for u in ambient_window(sig, Window(bound)):
        least = next(
            (c for c, grade, total in graded
             if grade == u.free[0] and subgroup_contains(rows, u - total)),
            None,
        )
        assert comp.member_combination(u) == least, u
        assert comp.contains(u) == (least is not None), u


@st.composite
def complement_pairs(draw):
    """Two complements in Z^2 or Z^3, each with a positive grading, and
    whether the second rewrites the first: the base vectors have first
    coordinate 0, the generators 1 or 2.  A rewriting keeps the set:
    generators reordered, shifted by a base vector or joined by a sum of
    two, base vectors negated or joined by a sum, and a base vector t
    doubled while every generator m is joined by m + t, which changes
    the base lattice."""
    d = draw(st.sampled_from((2, 3)))
    sig = GroupSignature(d)
    coord = st.integers(-2, 2)
    base_vec = st.tuples(coord, coord).map(lambda t: sig.element((0,) + t[: d - 1]))
    gen_vec = st.tuples(st.integers(1, 2), coord, coord).map(lambda t: sig.element(t[:d]))
    base = draw(st.lists(base_vec, max_size=2))
    gens = draw(st.lists(gen_vec, min_size=1, max_size=3))
    rewritten = draw(st.booleans())
    if rewritten:
        other_base, other_gens = list(base), draw(st.permutations(gens))
        for _ in range(draw(st.integers(0, 3))):
            step = draw(st.sampled_from(("shift", "sum", "negate", "base-sum", "double")))
            if step == "shift" and other_base:
                i = draw(st.integers(0, len(other_gens) - 1))
                other_gens[i] = other_gens[i] + draw(st.sampled_from(other_base))
            elif step == "sum":
                other_gens.append(draw(st.sampled_from(other_gens)) + draw(st.sampled_from(other_gens)))
            elif step == "negate" and other_base:
                other_base[0] = -other_base[0]
            elif step == "base-sum" and other_base:
                other_base.append(other_base[0] + other_base[-1])
            elif step == "double" and other_base:
                t = other_base[-1]
                other_base[-1] = t.scale(2)
                other_gens += [m + t for m in other_gens]
    else:
        other_base = base if draw(st.booleans()) else draw(st.lists(base_vec, max_size=2))
        other_gens = draw(st.lists(gen_vec, min_size=1, max_size=3))
    a, b = ComplementSpec(sig, base, gens), ComplementSpec(sig, other_base, other_gens)
    return sig, a, b, rewritten


@settings(max_examples=80, deadline=None, derandomize=True)
@given(complement_pairs())
def test_complement_set_certificate_matches_window(pair):
    # difference_witness: None only for one set, else an element of exactly one
    sig, a, b, rewritten = pair
    witness = a.difference_witness(b)
    if witness is None:
        window = list(ambient_window(sig, Window(3)))
        assert [u for u in window if a.contains(u)] == [u for u in window if b.contains(u)]
    else:
        assert a.contains(witness) != b.contains(witness)
        assert not rewritten


def test_gradings_pinned(rank4_complement):
    # a grading sets the search budgets of graded membership and of the
    # composite pseudo-unit witness, so reports depend on which one is chosen
    assert rank4_complement._grading == (0, 0, 1, 1)
    m = free_generated(Z2, [Z2.element(v) for v in ((1, 0), (1, 1), (1, 3))])
    assert m.grading == (1, 0)
    sig = GroupSignature(1, (3,))
    m = free_generated(sig, (sig.element((1,), (1,)), sig.element((2,), (0,))))
    assert m.grading == (1,)
    # gradings are primitive: (0, 2) would also vanish on 2*e0
    comp = ComplementSpec(Z2, (Z2.element((2, 0)),), (Z2.element((0, 1)),))
    assert comp._grading == (0, 1)


def test_is_valuation_analytic(halfplane, cone_sqrt2, n0):
    w = Window(6)
    for spec in (halfplane, cone_sqrt2, n0):
        assert is_valuation(spec, w).status is ValuationStatus.TRUE_ANALYTIC
    assert is_valuation(numerical([1]), w).status is ValuationStatus.TRUE_ANALYTIC


def test_is_valuation_numerical_witness(num23):
    verdict = is_valuation(num23, Window(6))
    assert verdict.status is ValuationStatus.FALSE_WITNESS
    assert verdict.witness == Z1.element(1)


def test_is_valuation_composite_witness(rank4_h):
    verdict = is_valuation(rank4_h, Window(2))
    assert verdict.status is ValuationStatus.FALSE_WITNESS
    w = verdict.witness
    assert rank4_h.contains(w) is False
    assert rank4_h.contains(-w) is False


def test_valuation_verdict_stable_under_window_growth(halfplane, cone_sqrt2):
    for spec in (halfplane, cone_sqrt2):
        for bound in (2, 4, 8, 12):
            assert is_valuation(spec, Window(bound)).status is ValuationStatus.TRUE_ANALYTIC


def test_analytic_valuation_survives_witness_search(halfplane, cone_sqrt2):
    """Oracle for the analytic verdicts: an explicit scan up to bound 12
    finds no element of the quotient group outside both H and -H."""
    for spec in (halfplane, cone_sqrt2):
        for x in range(-12, 13):
            for y in range(-12, 13):
                u = Z2.element((x, y))
                assert spec.contains(u) or spec.contains(-u)


def test_units(n0, num23, halfplane, cone_sqrt2, rank4_h, rank4_k):
    assert units(num23, Window(8)) == (Z1.element(0),)
    assert units(halfplane, Window(8)) == (Z2.element((0, 0)),)
    # a certified reduced spec answers without the window scan, and agrees with it
    graded = free_generated(Z2, (Z2.element((2, 0)), Z2.element((1, 1))))
    glued = composite(numerical(()), ComplementSpec(Z1, (), (Z1.element(2), Z1.element(3))))
    w = Window(3)
    for spec in (n0, num23, numerical(()), halfplane, cone_sqrt2, graded, glued, rank4_h, rank4_k):
        assert spec.is_reduced()
        members = elements_in_window(spec, w)
        scan = tuple(u for u in members if spec.contains(-u))
        assert units(spec, w) == scan == (spec.identity(),)
        assert [is_unit(spec, u) for u in members] == [spec.contains(-u) for u in members]


def test_is_unit_on_a_reduced_spec_asks_no_membership(
    num23, halfplane, rank4_h, monkeypatch
):
    w = Window(3)
    for spec in (num23, halfplane, rank4_h):
        members = elements_in_window(spec, w)
        queried = []
        for cls in (type(spec), ComplementSpec):
            original = cls.contains
            monkeypatch.setattr(
                cls, "contains", lambda s, u, _f=original: queried.append(u) or _f(s, u)
            )
        assert [is_unit(spec, u) for u in members] == [u.is_identity() for u in members]
        assert queried == []
        monkeypatch.undo()
    # the signature check stays: another group's identity is no unit
    with pytest.raises(SignatureMismatchError):
        is_unit(rank4_h, Z2.identity())


def test_quotient_groups(num23, halfplane, cone_sqrt2):
    assert num23.quotient_generators() == (Z1.element(1),)
    assert set(halfplane.quotient_generators()) == {Z2.element((1, 0)), Z2.element((0, 1))}
    # oracle: (1,1) and (1,0) lie in the cone and generate Z^2
    assert cone_sqrt2.contains(Z2.element((1, 1)))
    assert cone_sqrt2.contains(Z2.element((1, 0)))
    assert set(cone_sqrt2.quotient_generators()) == {Z2.element((1, 0)), Z2.element((0, 1))}


def test_membership_closure_sampled(num23, halfplane, cone_sqrt2, rank4_h):
    w = Window(5)
    rng = random.Random(23)
    for spec in (num23, halfplane, cone_sqrt2, rank4_h):
        pool = elements_in_window(spec, w)
        assert spec.identity() in pool
        for _ in range(10_000):
            u = pool[rng.randrange(len(pool))]
            v = pool[rng.randrange(len(pool))]
            assert spec.contains(u + v)


def test_complement_membership(rank4_complement):
    Z4 = GroupSignature(4)
    assert rank4_complement.contains(Z4.element((5, -7, 1, 0)))
    assert rank4_complement.contains(Z4.element((0, 0, 2, 3)))
    assert not rank4_complement.contains(Z4.element((1, 1, 0, 0)))
    assert not rank4_complement.contains(Z4.element((0, 0, -1, 2)))
    assert rank4_complement.member_combination(Z4.element((9, 9, 1, 2))) == (1, 2)


def test_composite_membership(rank4_h):
    Z4 = GroupSignature(4)
    assert rank4_h.contains(Z4.element((-3, 2, 0, 0)))  # half-plane part
    assert rank4_h.contains(Z4.element((-3, -2, 1, 0)))  # complement part
    assert not rank4_h.contains(Z4.element((-3, 0, 0, 0)))
    assert not rank4_h.contains(Z4.element((0, 0, -1, 0)))
    assert rank4_h.is_reduced()


@pytest.mark.parametrize(
    "query",
    [
        lambda h: h.contains,
        lambda h: h.in_complement,
        lambda h: h.complement_part.contains,
        lambda h: free_generated(h.signature, h.complement_part.positive_generators).contains,
        # the positive generators and their negatives: a group certificate
        lambda h: free_generated(
            h.signature, [g.scale(s) for g in h.complement_part.positive_generators for s in (1, -1)]
        ).contains,
    ],
    ids=["composite", "in-complement", "complement", "free-graded", "free-group"],
)
def test_foreign_signature_raises_the_family_message(rank4_h, query):
    # every membership query names both signatures, in the same words
    foreign = GroupSignature(4, (2,)).element((1, 0, 0, 0), (1,))
    expected = f"element of {foreign.signature} queried against monoid over {rank4_h.signature}"
    with pytest.raises(SignatureMismatchError) as err:
        query(rank4_h)(foreign)
    assert str(err.value) == expected


def test_composite_rejects_totally_ordered_complement(halfplane):
    Z3 = GroupSignature(3)
    val = half_plane_lex(Z3, (0, 1))
    comp = ComplementSpec(
        Z3,
        base_subgroup=(Z3.basis_element(0), Z3.basis_element(1)),
        positive_generators=(Z3.basis_element(2),),
    )
    with pytest.raises(ValueError):
        composite(val, comp)


def test_composite_rejects_unrelated_quotients():
    Z3 = GroupSignature(3)
    val = half_plane_lex(Z3, (0, 1))
    comp = ComplementSpec(Z3, (Z3.basis_element(0),), (Z3.basis_element(2),))
    with pytest.raises(ValueError):
        composite(val, comp)  # q(val) not inside base subgroup


def test_json_round_trip(n0, num23, halfplane, cone_sqrt2, rank4_h):
    for spec in (n0, num23, halfplane, cone_sqrt2, rank4_h):
        text = monoid_to_json(spec)
        again = monoid_from_json(text)
        assert again == spec
        assert monoid_to_json(again) == text


Z3_TORSION = GroupSignature(3, (2,))
_coords = st.integers(-3, 3)


def _elements(sig):
    return st.builds(
        sig.element,
        st.tuples(*[_coords] * sig.free_rank),
        st.tuples(*[st.integers(0, n - 1) for n in sig.torsion_orders]),
    )


_surds = st.builds(
    QuadraticSurd,
    _coords,
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    st.integers(1, 3),
    st.sampled_from([2, 3, 5, 6, 7]),
)


@st.composite
def valid_specs(draw):
    """A spec of any family, drawn only among inputs the constructors accept."""
    family = draw(st.sampled_from(["N0", "NUM", "LEX", "CONE", "FREE", "COMPOSITE"]))
    label = draw(st.text("abc-", max_size=4))
    if family == "N0":
        return full_n0(label)
    if family == "NUM":
        return numerical(draw(st.lists(st.integers(1, 12), max_size=4)), label)
    if family == "COMPOSITE":
        # over Z^3 x Z/2, with the valuation plane inside the base subgroup
        sig = Z3_TORSION
        if draw(st.booleans()):
            val = half_plane_lex(sig, (0, 1), "v")
        else:
            val = irrational_cone(draw(_surds), sig, (0, 1), "v")
        extra = draw(st.lists(_elements(sig), max_size=1))
        graded = st.tuples(_coords, _coords, st.integers(1, 3), st.integers(0, 1))
        positive = [
            sig.element((a, b, c), (t,))
            for a, b, c, t in draw(st.lists(graded, min_size=2, max_size=3))
        ]
        try:
            base = (sig.basis_element(0), sig.basis_element(1), *extra)
            return composite(val, ComplementSpec(sig, base, positive), label)
        except ValueError:
            assume(False)
    sig = draw(st.sampled_from([Z2, GroupSignature(3), Z3_TORSION]))
    plane = tuple(draw(st.permutations(range(sig.free_rank)))[:2])
    if family == "LEX":
        return half_plane_lex(sig, plane, label)
    if family == "CONE":
        return irrational_cone(draw(_surds), sig, plane, label)
    try:
        return free_generated(sig, draw(st.lists(_elements(sig), max_size=3)), label)
    except ValueError:
        assume(False)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(valid_specs())
def test_json_round_trip_random(spec):
    text = monoid_to_json(spec)
    again = monoid_from_json(text)
    assert again == spec
    assert type(again) is type(spec)
    assert monoid_to_json(again) == text


def test_loaded_composite_shares_one_signature(rank4_h, tmp_path):
    path = tmp_path / "rank4-H.json"
    path.write_text(monoid_to_json(rank4_h), encoding="utf-8")
    loaded = load_monoid_file(path)
    assert loaded == rank4_h
    assert loaded.valuation_part.signature is loaded.signature
    assert loaded.complement_part.signature is loaded.signature


def test_loaded_files_share_one_signature(halfplane, cone_sqrt2, tmp_path):
    assert halfplane.signature is not cone_sqrt2.signature
    loaded = []
    for name, spec in (("half-plane-lex", halfplane), ("cone-sqrt2", cone_sqrt2)):
        path = tmp_path / f"{name}.json"
        path.write_text(monoid_to_json(spec), encoding="utf-8")
        loaded.append(load_monoid_file(path))
    h, k = loaded
    assert (h, k) == (halfplane, cone_sqrt2)
    assert h.signature is k.signature


def test_json_schema_validation():
    with pytest.raises(ValueError):
        spec_from_dict({"family": "NO_SUCH", "label": "", "signature": {"free_rank": 1}})
    with pytest.raises(ValueError):
        spec_from_dict({"family": "FULL_N0", "label": ""})
    # under a torsion signature an element must give its torsion residues
    no_torsion = {
        "family": "FREE_GENERATED",
        "signature": {"free_rank": 1, "torsion_orders": [3]},
        "generators": [{"free": [1]}],
    }
    with pytest.raises(ValueError, match="missing field 'torsion'"):
        spec_from_dict(no_torsion)
    # a bool is no coordinate, though True == 1
    bool_coordinate = {**no_torsion, "generators": [{"free": [True], "torsion": [0]}]}
    with pytest.raises(ValueError, match="field of the wrong type"):
        spec_from_dict(bool_coordinate)
    # rational slope rejected at load time
    bad = {
        "family": "IRRATIONAL_CONE",
        "label": "",
        "signature": {"free_rank": 2, "torsion_orders": []},
        "embedding": [0, 1],
        "alpha": {"p": 3, "q": 0, "r": 2, "n": 2},
    }
    with pytest.raises(ValueError, match="irrational"):
        spec_from_dict(bad)
    # a cone file without a label loads with the empty label, not a slope name
    unlabelled = {k: v for k, v in bad.items() if k != "label"}
    unlabelled["alpha"] = {"p": 0, "q": 1, "r": 1, "n": 2}
    assert spec_from_dict(unlabelled).label == ""


@pytest.mark.parametrize("embedding", [(0, 1), (1, 0)])
def test_plane_coords_none_exactly_off_the_plane(embedding):
    # in Z^2 + Z/3 the plane is the whole free part, so only a non-zero
    # torsion residue leaves it
    sig = GroupSignature(2, (3,))
    lex = half_plane_lex(sig, embedding)
    i, j = embedding
    for x, y, t in itertools.product(range(-2, 3), range(-2, 3), range(3)):
        xy = (x, y)
        assert lex.plane_coords(sig.element(xy, (t,))) == (None if t else (xy[i], xy[j]))


def test_elements_in_window_sorted_and_cached(num23):
    w = Window(9)
    elems = elements_in_window(num23, w)
    assert elems == tuple(sorted(elems, key=lambda u: u.key()))
    assert [u.free[0] for u in elems] == [0, 2, 3, 4, 5, 6, 7, 8, 9]
    assert elements_in_window(num23, Window(9)) is elems


@pytest.mark.parametrize("bound", [True, 2.5, "3", None])
def test_window_refuses_a_non_int_bound(bound):
    # Window(True) would write "window": true into a decomposition report
    with pytest.raises(ValueError, match="window bound must be an integer"):
        Window(bound)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(glued_composites())
def test_composite_window_walk_matches_scan(spec):
    # the walk builds exactly the members the generic scan tests for, in its order
    for bound in (1, 2, 3):
        w = Window(bound)
        assert list(spec.iter_window_members(w)) == list(MonoidSpec.iter_window_members(spec, w))


@st.composite
def specs_of_every_family(draw):
    """N0, a numerical monoid, a half-plane or cone on a drawn plane of a
    drawn signature (torsion included), a free-generated monoid or a glued
    composite."""
    family = draw(st.sampled_from(("n0", "numerical", "planar", "free", "composite")))
    if family == "n0":
        return full_n0()
    if family == "numerical":
        return numerical(draw(st.lists(st.integers(1, 9), max_size=3)))
    if family == "composite":
        return draw(glued_composites())
    if family == "free":
        sig, gens = draw(st.sampled_from([
            (Z2, [((1, -6), ()), ((-5, 31), ())]),
            (GroupSignature(1, (7,)), [((1,), (1,)), ((-1,), (0,))]),
            (GroupSignature(1, (3,)), [((1,), (1,)), ((2,), (0,))]),
        ]))
        return free_generated(sig, [sig.element(free, torsion) for free, torsion in gens])
    sig = draw(st.sampled_from((Z2, GroupSignature(2, (3,)), GroupSignature(3, (2,)))))
    plane = tuple(draw(st.permutations(range(sig.free_rank)))[:2])
    if draw(st.booleans()):
        return half_plane_lex(sig, plane)
    return irrational_cone(QuadraticSurd(0, 1, 1, 2), sig, plane)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(specs_of_every_family())
@example(half_plane_lex(GroupSignature(2, (3,)), (1, 0)))
@example(irrational_cone(QuadraticSurd(0, 1, 1, 2), GroupSignature(2), (1, 0)))
def test_window_walks_are_in_key_order(spec):
    # elements_in_window keeps each walk's order: it must be the scan's
    for bound in (1, 2, 3):
        w = Window(bound)
        assert list(spec.iter_window_members(w)) == list(MonoidSpec.iter_window_members(spec, w))


@pytest.mark.parametrize("name", ["rank4-H", "rank4-K"])
def test_composite_window_walk_matches_scan_at_window_8(name, rank4_h, rank4_k):
    spec = rank4_h if name == "rank4-H" else rank4_k
    w = Window(8)
    assert elements_in_window(spec, w) == tuple(MonoidSpec.iter_window_members(spec, w))


def test_composite_window_tests_each_complement_representative_once(rank4_h, monkeypatch):
    # G = <e0, e1> absorbs two coordinates, so 17^2 representatives are
    # tested for the 17^4 points of window 8
    calls = []
    contains = ComplementSpec.contains

    def counted(comp, u):
        calls.append(u)
        return contains(comp, u)

    monkeypatch.setattr(ComplementSpec, "contains", counted)
    assert len(list(rank4_h.iter_window_members(Window(8)))) == 23265
    assert len(calls) <= 17**2


@pytest.mark.parametrize(
    "sig",
    [
        GroupSignature(1),
        GroupSignature(2),
        GroupSignature(1, (3,)),
        GroupSignature(0, (2, 3)),
        GroupSignature(3, (2,)),
        GroupSignature(4),
    ],
    ids=["Z", "Z2", "Z+Z3", "Z2+Z3-rank0", "Z3+Z2", "Z4"],
)
@pytest.mark.parametrize("bound", [1, 2, 4])
def test_witness_search_order_matches_sorted_window(sig, bound):
    """The lazy order is the sorted window it replaces."""
    w = Window(bound)
    expected = sorted(
        ambient_window(sig, w),
        key=lambda u: (u.norm_inf(), tuple(-c for c in u.free), u.torsion),
    )
    order = witness_search_order(sig, w)
    assert iter(order) is order
    assert list(order) == expected
