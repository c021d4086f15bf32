import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powmon.ambient import GroupSignature, SignatureMismatchError
from powmon.monoids import (
    ComplementSpec,
    QuadraticSurd,
    Window,
    composite,
    elements_in_window,
    free_generated,
    full_n0,
    half_plane_lex,
    irrational_cone,
    numerical,
)
from powmon.powersets import (
    FinSubset1,
    MembershipError,
    quotient_multiplicity,
    reversion,
    set_product,
)
from powmon.structure import is_independent, pseudo_unit, PseudoUnitStatus
from powmon.suites import SuiteConfig, Verdict, planar_pair, rank4_pair, verify_iso
from powmon.translation import (
    ApplicabilityError,
    ReversedStatus,
    TranslationCheckError,
    TranslationIso,
    apply_iso,
    build_translation_iso,
    classify_reversed,
    decomposition_map,
    pullback,
    _translation,
    reversed_by_order,
    valuation_min,
)

from conftest import torsion_composite_pair

Z1 = GroupSignature(1)
Z2 = GroupSignature(2)
Z4 = GroupSignature(4)
E4 = [Z4.basis_element(i) for i in range(4)]


@pytest.fixture(scope="module")
def planar_iso(halfplane, cone_sqrt2):
    return build_translation_iso(halfplane, cone_sqrt2)


@pytest.fixture(scope="module")
def rank4_iso(rank4_h, rank4_k):
    return build_translation_iso(rank4_h, rank4_k)


def pool(spec, bound=8):
    return elements_in_window(spec, Window(bound))


def sample_set(rng, spec, elems, max_size=6):
    k = rng.randint(0, max_size)
    members = [elems[rng.randrange(len(elems))] for _ in range(k)]
    return FinSubset1.make(spec, members + [spec.identity()])


def test_valuation_min_examples(cone_sqrt2, n0):
    s = [Z2.element((0, 0)), Z2.element((1, 1)), Z2.element((2, 3))]
    # oracle: (0,0)-(2,3) = (-2,-3) with -3 <= -2*sqrt(2), and
    # (1,1)-(2,3) = (-1,-2) with -2 <= -sqrt(2): both differences in the cone
    assert cone_sqrt2.contains(Z2.element((-2, -3)))
    assert cone_sqrt2.contains(Z2.element((-1, -2)))
    assert valuation_min(cone_sqrt2, s) == Z2.element((2, 3))
    assert valuation_min(cone_sqrt2, [Z2.identity()]) == Z2.identity()
    assert valuation_min(n0, [Z1.element(v) for v in (0, 4, 7)]) == Z1.element(0)


def test_valuation_min_rejects_incomparable(num23):
    with pytest.raises(ValueError):
        valuation_min(num23, [Z1.element(2), Z1.element(3)])


def test_build_iso_planar(planar_iso, halfplane, cone_sqrt2):
    assert planar_iso.domain is halfplane
    assert planar_iso.codomain is cone_sqrt2
    assert planar_iso.certificate == "valuation-pair"


def test_build_iso_identical_numerical(num23):
    iso = build_translation_iso(num23, num23)
    assert iso.certificate == "identical-pair"
    x = FinSubset1.from_ints(num23, [0, 2, 5])
    assert apply_iso(iso, x) == x


@pytest.mark.parametrize(
    "h, k",
    [
        (numerical([2, 3], "a"), numerical([2, 3], "b")),
        # generators are sorted at construction; the default label is not
        (numerical([3, 2]), numerical([2, 3])),
    ],
    ids=["two-labels", "generator-order"],
)
def test_build_iso_identical_pair_ignores_labels(h, k):
    assert h.label != k.label
    iso = build_translation_iso(h, k)
    assert iso.certificate == "identical-pair"
    x = FinSubset1.from_ints(h, [0, 2, 5])
    assert apply_iso(iso, x).elements == x.elements


def test_build_iso_rejects_numerical_vs_n0(num23, n0):
    with pytest.raises(ApplicabilityError) as err:
        build_translation_iso(num23, n0)
    assert err.value.condition == "template-mismatch"


def test_template_mismatch_names_the_side_that_fits_no_template(num23, n0):
    with pytest.raises(ApplicabilityError) as err:
        build_translation_iso(n0, num23)
    assert err.value.condition == "template-mismatch"
    assert "domain 'N0' is a valuation monoid" in str(err.value)
    assert "codomain '<2,3>' is neither a valuation monoid nor a composite" in str(err.value)


def test_n0_and_minus_n0_are_a_valuation_pair(n0):
    neg_n0 = free_generated(Z1, [Z1.element(-1)])
    for h, k in ((n0, neg_n0), (neg_n0, n0)):
        iso = build_translation_iso(h, k)
        assert iso.certificate == "valuation-pair"
        assert (iso.domain_valuation, iso.codomain_valuation) == (h, k)


def test_n0_to_minus_n0_is_the_reversion(n0):
    # Tringali and Yan: X -> max X - X is the one non-trivial automorphism
    # of the reduced power monoid of N0; it is f: N0 -> -N0 read back by negation
    iso = build_translation_iso(n0, free_generated(Z1, [Z1.element(-1)]))
    rest = range(1, 10)
    subsets = [(0, *c) for k in range(10) for c in itertools.combinations(rest, k)]
    assert len(subsets) == 512
    for members in subsets:
        x = FinSubset1.from_ints(n0, members)
        image = apply_iso(iso, x)
        assert tuple(-u for u in reversed(image.elements)) == reversion(x).elements, members


def test_composites_over_copies_of_n0_and_minus_n0_pass_their_suites():
    # rays N0 e0 and -N0 e0 glued with one complement: each valuation part
    # is a totally ordered free-generated monoid, so the pair is a composite pair
    z3 = GroupSignature(3)
    e0, e1, e2 = (z3.basis_element(i) for i in range(3))
    complement = ComplementSpec(z3, (e0,), (e1, e2))
    h = composite(free_generated(z3, [e0], "ray"), complement, label="glued-ray")
    k = composite(free_generated(z3, [-e0], "minus-ray"), complement, label="glued-minus-ray")
    iso = build_translation_iso(h, k)
    assert iso.certificate == "composite-pair"
    assert reversed_by_order(iso, e0) and not reversed_by_order(iso, e1)
    reports = verify_iso(iso, SuiteConfig(window_bound=2, sample_count=40))
    assert {r.verdict for r in reports} == {Verdict.PASS, Verdict.NOT_APPLICABLE}


def test_build_iso_rejects_quotient_mismatch(n0):
    doubled = numerical([2, 4])  # a full copy of 2*N0, quotient group 2Z
    with pytest.raises(ApplicabilityError) as err:
        build_translation_iso(doubled, n0)
    assert err.value.condition == "quotient-groups-differ"
    assert str(err.value) == (
        "APPLICABILITY_FAILED [quotient-groups-differ]: "
        "valuation pair has different quotient groups inside the ambient group"
    )


def test_build_iso_rejects_composite_quotient_mismatch():
    # one complement, valuation parts on the planes (e0, e1) and (e0, e2)
    z5 = GroupSignature(5)
    e = [z5.basis_element(i) for i in range(5)]
    comp = ComplementSpec(z5, (e[0], e[1], e[2]), (e[3], e[4]))
    h = composite(half_plane_lex(z5, (0, 1)), comp, label="H")
    k = composite(half_plane_lex(z5, (0, 2)), comp, label="K")
    with pytest.raises(ApplicabilityError) as err:
        build_translation_iso(h, k)
    assert err.value.condition == "quotient-groups-differ"
    assert str(err.value) == (
        "APPLICABILITY_FAILED [quotient-groups-differ]: "
        "valuation parts have different quotient groups"
    )


@pytest.mark.parametrize(
    "h_complement, k_complement",
    [
        (None, ((E4[1], E4[0]), (E4[3], E4[2]))),
        (None, ((E4[0], E4[0] + E4[1]), (E4[2], E4[3], E4[2] + E4[3]))),
        # {x3 >= 2} over the base lattices <e0, e1, e2> and <e0, e1, 2e2>
        (
            ((E4[0], E4[1], E4[2]), (E4[3].scale(2), E4[3].scale(3))),
            (
                (E4[0], E4[1], E4[2].scale(2)),
                (E4[3].scale(2), E4[3].scale(3), E4[2] + E4[3].scale(2), E4[2] + E4[3].scale(3)),
            ),
        ),
    ],
    ids=["reordered", "redundant-generator", "different-base-lattice"],
)
def test_build_iso_accepts_the_same_complement_set(rank4_h, rank4_k, h_complement, k_complement):
    # each side glued with another presentation of one complement set
    # (None keeps the fixture's own complement)
    def glued(spec, complement):
        if complement is None:
            return spec
        return composite(
            spec.valuation_part, ComplementSpec(Z4, *complement), label=f"{spec.label}-presented"
        )

    iso = build_translation_iso(glued(rank4_h, h_complement), glued(rank4_k, k_complement))
    assert iso.certificate == "composite-pair"
    reports = verify_iso(iso, SuiteConfig(window_bound=4, sample_count=200))
    assert len(reports) == 16
    assert {r.verdict for r in reports} <= {Verdict.PASS, Verdict.NOT_APPLICABLE}


def test_build_iso_rejects_another_complement_set(rank4_h, rank4_k):
    other = ComplementSpec(Z4, (E4[0], E4[1]), (E4[2], E4[2] + E4[3]))
    # e3 lies outside <e2, e2 + e3> over <e0, e1>, whichever side holds it
    for h, k in (
        (rank4_h, composite(rank4_k.valuation_part, other, label="K")),
        (composite(rank4_h.valuation_part, other, label="H"), rank4_k),
    ):
        with pytest.raises(ApplicabilityError) as err:
            build_translation_iso(h, k)
        assert err.value.condition == "complement-not-shared"
        assert "(0,0,0,1) lies in the complement of 'rank4-" in str(err.value)
    # over a different base lattice the set {x3 >= 1} misses e2
    wider = ComplementSpec(Z4, (E4[0], E4[1], E4[2].scale(2)), (E4[3], E4[2] + E4[3]))
    with pytest.raises(ApplicabilityError) as err:
        build_translation_iso(rank4_h, composite(rank4_k.valuation_part, wider))
    assert str(err.value) == (
        "APPLICABILITY_FAILED [complement-not-shared]: composite pair must share the "
        "complement set: (0,0,1,0) lies in the complement of 'rank4-H' only"
    )
    # the generators lie in both sets, but 2(e2 - e3) does not stabilise
    # rank4_h's complement: the witness is a translate of e2
    skew = ComplementSpec(Z4, (E4[0], E4[1], (E4[2] - E4[3]).scale(2)), (E4[2], E4[3]))
    assert rank4_h.complement_part.difference_witness(skew) == Z4.element((0, 0, 3, -2))
    with pytest.raises(ApplicabilityError) as err:
        build_translation_iso(rank4_h, composite(rank4_k.valuation_part, skew, label="K"))
    assert str(err.value).endswith("(0,0,3,-2) lies in the complement of 'K' only")


def test_build_iso_rejects_ambient_mismatch(n0, halfplane):
    with pytest.raises(ApplicabilityError) as err:
        build_translation_iso(n0, halfplane)
    assert err.value.condition == "ambient-mismatch"


def test_build_iso_rejects_non_reduced(cone_sqrt2):
    from powmon.monoids import free_generated

    group = free_generated(
        Z2, (Z2.element((1, 0)), Z2.element((0, 1)), Z2.element((-1, -1)))
    )
    with pytest.raises(ApplicabilityError) as err:
        build_translation_iso(group, cone_sqrt2)
    assert err.value.condition == "domain-not-reduced"


def test_build_iso_rank4(rank4_iso):
    assert rank4_iso.certificate == "composite-pair"


def test_apply_iso_examples(planar_iso, halfplane):
    x = FinSubset1.make(halfplane, [Z2.element(c) for c in ((0, 0), (1, 1), (2, 3))])
    assert _translation(planar_iso, x.elements) == Z2.element((-2, -3))
    image = apply_iso(planar_iso, x)
    assert [u.free for u in image.elements] == [(-2, -3), (-1, -2), (0, 0)]

    singleton = FinSubset1.make(halfplane, [Z2.identity()])
    assert apply_iso(planar_iso, singleton).elements == (Z2.identity(),)

    y = FinSubset1.make(halfplane, [Z2.element(c) for c in ((0, 0), (-1, 1), (-3, 3))])
    assert _translation(planar_iso, y.elements) == Z2.element((3, -3))
    image_y = apply_iso(planar_iso, y)
    assert sorted(u.free for u in image_y.elements) == [(0, 0), (2, -2), (3, -3)]


def test_pullback_examples(planar_iso):
    assert pullback(planar_iso, Z2.element((1, 1))) == Z2.element((1, 1))
    assert pullback(planar_iso, Z2.element((-1, 1))) == Z2.element((1, -1))
    assert pullback(planar_iso, Z2.identity()) == Z2.identity()


def test_pullback_cache_transparent(planar_iso):
    a = Z2.element((4, 2))
    first = pullback(planar_iso, a)
    second = pullback(planar_iso, a)
    assert first == second


@pytest.mark.parametrize(
    "call, coords, named",
    [
        (pullback, (1, -1), (1, -1)),
        (pullback, (0, -1), (0, -1)),
        (classify_reversed, (1, -1), (1, -1)),
        # the chain {3a, a, 0} is checked in sorted order, so 3a is named first
        (classify_reversed, (0, -1), (0, -3)),
    ],
)
def test_non_members_raise_membership_error(planar_iso, call, coords, named):
    with pytest.raises(MembershipError) as info:
        call(planar_iso, Z2.element(coords))
    assert str(info.value) == (
        f"element {Z2.element(named)!r} is not a member of monoid 'half-plane-lex'"
    )
    assert info.value.element == Z2.element(named)


def test_rank4_non_members_raise_membership_error(rank4_iso):
    with pytest.raises(MembershipError) as info:
        pullback(rank4_iso, Z4.element((0, -1, 0, 0)))
    assert str(info.value) == "element (0,-1,0,0) is not a member of monoid 'rank4-H'"
    with pytest.raises(MembershipError) as info:
        classify_reversed(rank4_iso, Z4.element((0, 0, -1, 1)))
    assert str(info.value) == "element (0,0,-3,3) is not a member of monoid 'rank4-H'"


@pytest.mark.parametrize("call", [pullback, classify_reversed])
def test_foreign_elements_raise_signature_mismatch(planar_iso, call):
    with pytest.raises(SignatureMismatchError, match="element of GroupSignature\\(free_rank=4"):
        call(planar_iso, Z4.element((1, 0, 0, 0)))


#: Each question about one element, asked of the planar isomorphism.
_QUESTIONS = {
    "pullback": pullback,
    "reversed_by_order": reversed_by_order,
    "decomposition_map": decomposition_map,
    "quotient_multiplicity": lambda f, u: quotient_multiplicity(
        FinSubset1.make(f.domain, [Z2.element((1, 0))]), u
    ),
    "valuation_min": lambda f, u: valuation_min(f.codomain_valuation, [u]),
}


@pytest.mark.parametrize("question", sorted(_QUESTIONS))
@pytest.mark.parametrize("foreign", [Z1.identity(), Z1.element(5)], ids=["identity", "5"])
def test_every_question_refuses_another_signature(planar_iso, question, foreign):
    # the identity of another signature too: no question answers it first
    with pytest.raises(SignatureMismatchError, match="element of GroupSignature\\(free_rank=1,"):
        _QUESTIONS[question](planar_iso, foreign)


@pytest.mark.parametrize("template", ["identical-pair", "valuation-pair", "composite-pair"])
def test_the_identity_under_every_template(template, num23, halfplane, cone_sqrt2, n0, rank4_iso):
    # the order rule alone gives g(1) = 1, h(1) = 1 and 1 not reversed
    isos = {
        "identical-pair": [build_translation_iso(num23, num23)],
        "valuation-pair": [
            build_translation_iso(halfplane, cone_sqrt2),
            build_translation_iso(n0, free_generated(Z1, [Z1.element(-1)])),
        ],
        "composite-pair": [rank4_iso],
    }[template]
    for iso in isos:
        assert iso.certificate == template
        one = iso.codomain.identity()
        assert pullback(iso, iso.domain.identity()) == one
        assert decomposition_map(iso, iso.domain.identity()) == one
        assert not reversed_by_order(iso, iso.domain.identity())


def test_lying_certificate_raises_translation_check_error(halfplane, cone_sqrt2):
    # V_K claimed to be the half-plane: translates stay in the half-plane
    # and leave the cone
    lie = TranslationIso(halfplane, cone_sqrt2, halfplane, halfplane, "valuation-pair")
    x = FinSubset1.make(halfplane, [Z2.element((1, 0)), Z2.element((1, 2))])
    with pytest.raises(TranslationCheckError) as info:
        apply_iso(lie, x)
    assert str(info.value) == (
        "translate (0,0) of {(0,0),(1,0),(1,2)} left the codomain at (1,2); "
        "the applicability certificate is wrong"
    )
    with pytest.raises(TranslationCheckError) as info:
        pullback(lie, Z2.element((0, 1)))
    assert str(info.value) == (
        "translate (0,0) of {(0,0),(0,1)} left the codomain at (0,1); "
        "the applicability certificate is wrong"
    )
    assert not lie._pullback_cache


def test_lying_certificates_raise_in_both_order_branches(halfplane, cone_sqrt2):
    # reversed branch: the cone holds -a, and g(a) = -a leaves the half-plane
    lie = TranslationIso(halfplane, halfplane, halfplane, cone_sqrt2, "valuation-pair")
    with pytest.raises(TranslationCheckError) as info:
        pullback(lie, Z2.element((0, 1)))
    assert str(info.value) == (
        "translate (0,-1) of {(0,0),(0,1)} left the codomain at (0,-1); "
        "the applicability certificate is wrong"
    )
    assert not lie._pullback_cache
    # incomparable branch: V_K orders only the last two coordinates, so it
    # holds neither a nor -a, while the codomain holds a; the message names
    # the pair in sorted order
    v_h = half_plane_lex(Z4, (0, 1), "vh")
    v_k = half_plane_lex(Z4, (2, 3), "vk")
    lie = TranslationIso(v_h, v_h, v_h, v_k, "valuation-pair")
    for coords, named in [
        ((1, 0, 0, 0), "(1,0,0,0) and (0,0,0,0)"),
        ((-1, 1, 0, 0), "(0,0,0,0) and (-1,1,0,0)"),
    ]:
        with pytest.raises(ValueError) as info:
            pullback(lie, Z4.element(coords))
        assert type(info.value) is ValueError
        assert str(info.value) == (
            f"'vk' does not totally order the given set: {named} are incomparable"
        )
    assert not lie._pullback_cache


def test_collapsed_translation_raises_translation_check_error(planar_iso, halfplane, monkeypatch):
    # correct arithmetic cannot collapse a translate; a translation a with
    # -a outside X leaves the identity out of a + X, which the check catches
    monkeypatch.setattr("powmon.translation._translation", lambda f, elements: Z2.element((1, 0)))
    x = FinSubset1.make(halfplane, [Z2.element((1, 0))])
    with pytest.raises(TranslationCheckError) as info:
        apply_iso(planar_iso, x)
    assert str(info.value) == "translation collapsed elements; ambient arithmetic broken"


def _pullback_by_sets(f, a):
    """g(a) read off the set route: the non-identity element of f({1, a})."""
    image = apply_iso(f, FinSubset1.make(f.domain, (f.domain.identity(), a)))
    (other,) = [u for u in image.elements if not u.is_identity()]
    return other


def _check_set_free_path(h, k, members):
    iso = build_translation_iso(h, k)  # fresh: its pullback cache is empty
    for a in members:
        if a.is_identity():
            continue
        assert a not in iso._pullback_cache
        assert pullback(iso, a) == _pullback_by_sets(iso, a), a
        reversed_ = classify_reversed(iso, a) is ReversedStatus.REVERSED
        assert reversed_ == reversed_by_order(iso, a), a


@pytest.mark.parametrize("inverse", [False, True])
def test_set_free_path_matches_sets_planar(halfplane, cone_sqrt2, inverse):
    h, k = (cone_sqrt2, halfplane) if inverse else (halfplane, cone_sqrt2)
    members = pool(h)
    assert len(members) == 145
    _check_set_free_path(h, k, members)


def rank4_sample(rank4_h):
    """300 seeded window members of rank4-H and 300 seeded sums of two,
    which reach outside the window; sorted."""
    rng = random.Random(8)
    elems = pool(rank4_h)
    sample = {elems[rng.randrange(len(elems))] for _ in range(300)}
    sums = {
        elems[rng.randrange(len(elems))] + elems[rng.randrange(len(elems))] for _ in range(300)
    }
    assert any(max(map(abs, u.free)) > 8 for u in sums)
    return sorted(sample | sums, key=lambda u: u.key())


def test_set_free_path_matches_sets_rank4(rank4_h, rank4_k):
    _check_set_free_path(rank4_h, rank4_k, rank4_sample(rank4_h))


def test_set_free_path_matches_sets_rank4_inverse(rank4_h, rank4_k):
    _check_set_free_path(rank4_k, rank4_h, rank4_sample(rank4_k))


def test_classify_reversed_examples(planar_iso):
    assert (
        classify_reversed(planar_iso, Z2.element((-1, 1))) is ReversedStatus.REVERSED
    )
    assert (
        classify_reversed(planar_iso, Z2.element((1, 1))) is ReversedStatus.NOT_REVERSED
    )


def test_classify_reversed_identity_iso(num23):
    iso = build_translation_iso(num23, num23)
    for v in (2, 3, 5, 9):
        assert classify_reversed(iso, Z1.element(v)) is ReversedStatus.NOT_REVERSED


def test_classify_reversed_rejects_identity_and_finite_order(planar_iso):
    with pytest.raises(ValueError):
        classify_reversed(planar_iso, Z2.identity())
    with pytest.raises(ValueError, match="not a member"):
        classify_reversed(planar_iso, Z2.element((0, -1)))


def test_reversed_iff_outside_codomain(planar_iso, halfplane, cone_sqrt2):
    # for this pair the reversed members are exactly those outside the cone
    for u in pool(halfplane, 4):
        if u.is_identity():
            continue
        expected = (
            ReversedStatus.NOT_REVERSED if cone_sqrt2.contains(u) else ReversedStatus.REVERSED
        )
        assert classify_reversed(planar_iso, u) is expected


@pytest.mark.parametrize(
    "pair, bound, members, reversed_count",
    [("rank4", 4, 1984, 25), ("planar", 6, 84, 54), ("planar-inverse", 6, 84, 54)],
)
def test_reversed_by_order_matches_chain_images(
    pair, bound, members, reversed_count, halfplane, cone_sqrt2, rank4_h, rank4_k
):
    h, k = {
        "rank4": (rank4_h, rank4_k),
        "planar": (halfplane, cone_sqrt2),
        "planar-inverse": (cone_sqrt2, halfplane),
    }[pair]
    iso = build_translation_iso(h, k)
    nonid = [u for u in pool(h, bound) if not u.is_identity()]
    by_order = [reversed_by_order(iso, u) for u in nonid]
    by_chain = [classify_reversed(iso, u) is ReversedStatus.REVERSED for u in nonid]
    assert by_order == by_chain
    assert (len(nonid), sum(by_order)) == (members, reversed_count)
    assert not reversed_by_order(iso, h.identity())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(-3, 3),
    st.integers(-3, 3).filter(bool),
    st.integers(1, 3),
    st.sampled_from((2, 3, 5, 6, 7, 8, 10, 11)),
    st.booleans(),
    st.data(),
)
def test_valuation_pairs_match_chain_images_and_brute_force(p, q, r, n, cone_first, data):
    # the half-plane and a random irrational cone, in either direction
    cone = irrational_cone(QuadraticSurd(p, q, r, n))
    h, k = (cone, half_plane_lex()) if cone_first else (half_plane_lex(), cone)
    iso = build_translation_iso(h, k)
    assert iso.certificate == "valuation-pair"
    nonid = [u for u in pool(h, 3) if not u.is_identity()]
    for u in nonid:
        chain = classify_reversed(iso, u) is ReversedStatus.REVERSED
        assert reversed_by_order(iso, u) == chain, u
        assert pullback(iso, u) == _pullback_by_sets(iso, u), u
    for spec in (h, k):
        s = data.draw(st.lists(st.sampled_from(nonid), min_size=1, max_size=6, unique=True))
        least = [m for m in s if all(spec.contains(v - m) for v in s)]
        assert [valuation_min(spec, s)] == least


def test_reversed_by_order_without_valuation_part():
    h = free_generated(Z2, [Z2.element((1, 0)), Z2.element((0, 1))])
    iso = build_translation_iso(h, h)
    assert iso.domain_valuation == free_generated(Z2, ())
    for u in pool(h, 3):
        if u.is_identity():
            continue
        assert classify_reversed(iso, u) is ReversedStatus.NOT_REVERSED
        assert not reversed_by_order(iso, u)


def test_the_identity_is_not_reversed(planar_iso):
    assert not reversed_by_order(planar_iso, Z2.identity())


def test_decomposition_map_examples(planar_iso):
    assert decomposition_map(planar_iso, Z2.identity()) == Z2.identity()
    assert decomposition_map(planar_iso, Z2.element((1, 1))) == Z2.element((1, 1))
    # (-1, 1) is reversed, so its inverse (1, -1) is in the map's domain
    assert decomposition_map(planar_iso, Z2.element((1, -1))) == Z2.element((1, -1))


def test_decomposition_map_rejects_outside_domain(planar_iso):
    # (-1, 1) itself is reversed: neither non-reversed nor an inverted reversed
    with pytest.raises(ValueError):
        decomposition_map(planar_iso, Z2.element((-1, 1)))
    # (-3, -1) is outside the domain monoid and its negation (3, 1) is
    # not reversed, so it lies in neither part
    with pytest.raises(ValueError):
        decomposition_map(planar_iso, Z2.element((-3, -1)))


def test_homomorphism_sampled(planar_iso, halfplane):
    rng = random.Random(101)
    elems = pool(halfplane)
    for _ in range(400):
        x = sample_set(rng, halfplane, elems)
        y = sample_set(rng, halfplane, elems)
        assert apply_iso(planar_iso, set_product(x, y)) == set_product(
            apply_iso(planar_iso, x), apply_iso(planar_iso, y)
        )


def test_homomorphism_sampled_rank4(rank4_iso, rank4_h):
    rng = random.Random(103)
    elems = pool(rank4_h, 4)
    for _ in range(150):
        x = sample_set(rng, rank4_h, elems, max_size=4)
        y = sample_set(rng, rank4_h, elems, max_size=4)
        assert apply_iso(rank4_iso, set_product(x, y)) == set_product(
            apply_iso(rank4_iso, x), apply_iso(rank4_iso, y)
        )


#: Pair -> (H and K, window bound, largest |X|, sets in the scope); each
#: direction's scope has the same size, and n sets make n(n+1)/2 pairs X <= Y.
_WHOLE_SCOPES = {
    "identical": (lambda: (numerical([2, 3], "a"), numerical([3, 2], "b")), 8, 4, 64),
    "n0-minus-n0": (lambda: (full_n0(), free_generated(Z1, [Z1.element(-1)])), 8, 4, 93),
    "planar": (planar_pair, 2, 3, 79),
    "rank4": (rank4_pair, 1, 2, 32),
    "th-tc": (torsion_composite_pair, 1, 2, 23),
}


@functools.cache
def _scope_iso(pair, backward):
    """The iso on a pair of ``_WHOLE_SCOPES`` and its domain's window members."""
    build, bound = _WHOLE_SCOPES[pair][:2]
    h, k = build()[::-1] if backward else build()
    return build_translation_iso(h, k), elements_in_window(h, Window(bound))


def _whole_scope(pair, backward):
    """The iso built on the pair (reversed when ``backward``) and every X
    with |X| <= the scope's size over the domain's window members."""
    f, window = _scope_iso(pair, backward)
    size, n_sets = _WHOLE_SCOPES[pair][2:]
    h = f.domain
    rest = [u for u in window if not u.is_identity()]
    sets = [
        FinSubset1.make(h, (h.identity(), *members))
        for n in range(size)
        for members in itertools.combinations(rest, n)
    ]
    # a later change to a window cannot silently grow the scope
    assert len(sets) == n_sets
    return f, sets


@pytest.mark.parametrize("backward", [False, True], ids=["H->K", "K->H"])
@pytest.mark.parametrize("pair", list(_WHOLE_SCOPES))
def test_reverse_built_iso_inverts_f_on_every_small_set(pair, backward):
    # with both directions, f is one-to-one on H's scope and onto K's
    f, sets = _whole_scope(pair, backward)
    g = build_translation_iso(f.codomain, f.domain)
    for x in sets:
        assert apply_iso(g, apply_iso(f, x)) == x, x


@pytest.mark.parametrize("backward", [False, True], ids=["H->K", "K->H"])
@pytest.mark.parametrize("pair", list(_WHOLE_SCOPES))
def test_iso_is_a_homomorphism_on_every_small_set(pair, backward):
    f, sets = _whole_scope(pair, backward)
    images = [apply_iso(f, x) for x in sets]
    for i, j in itertools.combinations_with_replacement(range(len(sets)), 2):
        assert apply_iso(f, set_product(sets[i], sets[j])) == set_product(images[i], images[j])


_scope_sets = st.tuples(st.sampled_from(list(_WHOLE_SCOPES)), st.booleans()).flatmap(
    lambda key: st.tuples(
        st.just(key), st.lists(st.sampled_from(_scope_iso(*key)[1]), max_size=6)
    )
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_scope_sets)
# <2,3>: V_H = {0}, so only the identity counts and the translate is 0
@example((("identical", False), [Z1.element(2), Z1.element(3)]))
def test_translation_matches_filtered_brute_force_minimum(case):
    (pair, backward), members = case
    f, _ = _scope_iso(pair, backward)
    # only the valuation pairs skip the V_H filter
    assert (f.domain_valuation is f.domain) == (pair in ("n0-minus-n0", "planar"))
    x = FinSubset1.make(f.domain, members)
    s = [u for u in x.elements if f.domain_valuation.contains(u)]
    least = [m for m in s if all(f.codomain_valuation.contains(v - m) for v in s)]
    assert [_translation(f, x.elements)] == [-m for m in least]


def test_translation_uniqueness_scan(planar_iso, halfplane, cone_sqrt2):
    rng = random.Random(107)
    elems = pool(halfplane)
    for _ in range(150):
        x = sample_set(rng, halfplane, elems)
        valid = []
        for candidate in x.elements:
            a = -candidate
            if all(cone_sqrt2.contains(a + u) for u in x.elements):
                valid.append(a)
        assert len(valid) == 1
        assert valid[0] == _translation(planar_iso, x.elements)


def test_cardinality_and_two_sets(planar_iso, halfplane):
    rng = random.Random(109)
    elems = pool(halfplane)
    for _ in range(300):
        x = sample_set(rng, halfplane, elems)
        assert len(apply_iso(planar_iso, x)) == len(x)
    for _ in range(100):
        a = elems[rng.randrange(len(elems))]
        if a.is_identity():
            continue
        two = FinSubset1.make(halfplane, [halfplane.identity(), a])
        assert len(apply_iso(planar_iso, two)) == 2


def test_pullback_power_law(planar_iso, halfplane):
    rng = random.Random(113)
    elems = pool(halfplane)
    for _ in range(60):
        a = elems[rng.randrange(len(elems))]
        ga = pullback(planar_iso, a)
        for n in range(11):
            assert pullback(planar_iso, a.scale(n)) == ga.scale(n)


def test_quotient_preservation(planar_iso, halfplane):
    rng = random.Random(127)
    elems = pool(halfplane)
    for _ in range(150):
        x = sample_set(rng, halfplane, elems)
        a = elems[rng.randrange(len(elems))]
        if a.is_identity():
            continue
        fx = apply_iso(planar_iso, x)
        assert quotient_multiplicity(x, a) == quotient_multiplicity(
            fx, pullback(planar_iso, a)
        )


def test_reversed_dichotomy_for_products(planar_iso, halfplane):
    rng = random.Random(131)
    elems = [u for u in pool(halfplane, 6) if not u.is_identity()]
    seen = {ReversedStatus.REVERSED: 0, ReversedStatus.NOT_REVERSED: 0}
    checked = 0
    while checked < 300:
        a = elems[rng.randrange(len(elems))]
        b = elems[rng.randrange(len(elems))]
        if not is_independent(a, b):
            continue
        checked += 1
        ra = classify_reversed(planar_iso, a)
        rb = classify_reversed(planar_iso, b)
        seen[ra] += 1
        seen[rb] += 1
        ga, gb = pullback(planar_iso, a), pullback(planar_iso, b)
        gab = pullback(planar_iso, a + b)
        if ra is rb:
            assert gab == ga + gb
        else:
            assert gab != ga + gb
            assert gab in (ga - gb, gb - ga)
    assert all(seen.values())


def test_powers_of_unequal_pairs_stay_unequal(planar_iso, halfplane):
    rng = random.Random(137)
    elems = [u for u in pool(halfplane, 6) if not u.is_identity()]
    found = 0
    while found < 50:
        a = elems[rng.randrange(len(elems))]
        b = elems[rng.randrange(len(elems))]
        if not is_independent(a, b):
            continue
        ga, gb = pullback(planar_iso, a), pullback(planar_iso, b)
        if pullback(planar_iso, a + b) == ga + gb:
            continue
        found += 1
        for n in range(1, 4):
            for m in range(1, 4):
                assert pullback(planar_iso, a.scale(n) + b.scale(m)) != ga.scale(n) + gb.scale(m)


def test_reversed_parts_are_closed(planar_iso, halfplane):
    rng = random.Random(139)
    reversed_pool = [
        u
        for u in pool(halfplane, 5)
        if not u.is_identity()
        and classify_reversed(planar_iso, u) is ReversedStatus.REVERSED
    ]
    normal_pool = [
        u
        for u in pool(halfplane, 5)
        if not u.is_identity()
        and classify_reversed(planar_iso, u) is ReversedStatus.NOT_REVERSED
    ]
    assert reversed_pool and normal_pool
    for _ in range(200):
        a, b = rng.choice(reversed_pool), rng.choice(reversed_pool)
        assert classify_reversed(planar_iso, a + b) is ReversedStatus.REVERSED
        a, b = rng.choice(normal_pool), rng.choice(normal_pool)
        assert classify_reversed(planar_iso, a + b) is ReversedStatus.NOT_REVERSED
    # reversed members are always pseudo-units
    for u in reversed_pool:
        verdict = pseudo_unit(halfplane, u)
        assert verdict.status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC


def _check_decomposition_map(iso, members):
    """Check the map on each member against the chain-image check, the
    reference for the order rule the map reads; the count of each kind."""
    seen = {ReversedStatus.NOT_REVERSED: 0, ReversedStatus.REVERSED: 0}
    for u in members:
        if u.is_identity():
            continue
        status = classify_reversed(iso, u)
        seen[status] += 1
        if status is ReversedStatus.NOT_REVERSED:
            assert decomposition_map(iso, u) == pullback(iso, u), u
            continue
        with pytest.raises(ValueError, match="is reversed"):
            decomposition_map(iso, u)
        assert decomposition_map(iso, -u) == pullback(iso, u), u
    return seen[ReversedStatus.NOT_REVERSED], seen[ReversedStatus.REVERSED]


@pytest.mark.parametrize("inverse", [False, True])
def test_decomposition_map_matches_chain_images_planar(halfplane, cone_sqrt2, inverse):
    h, k = (cone_sqrt2, halfplane) if inverse else (halfplane, cone_sqrt2)
    # (not reversed, reversed) non-identity members
    assert _check_decomposition_map(build_translation_iso(h, k), pool(h, 4)) == (15, 25)


def test_decomposition_map_matches_chain_images_rank4(rank4_iso, rank4_h):
    assert _check_decomposition_map(rank4_iso, rank4_sample(rank4_h)) == (597, 2)


def test_decomposition_map_is_multiplicative(planar_iso, halfplane, cone_sqrt2):
    rng = random.Random(149)
    domain_pool = []
    for u in pool(halfplane, 5):
        if u.is_identity():
            domain_pool.append(u)
        elif classify_reversed(planar_iso, u) is ReversedStatus.NOT_REVERSED:
            domain_pool.append(u)
        else:
            domain_pool.append(-u)
    for _ in range(300):
        u, v = rng.choice(domain_pool), rng.choice(domain_pool)
        hu = decomposition_map(planar_iso, u)
        hv = decomposition_map(planar_iso, v)
        huv = decomposition_map(planar_iso, u + v)
        assert huv == hu + hv
        assert cone_sqrt2.contains(hu)


def _check_decomposition_map_is_identity(h, k, bound):
    """g fixes every non-reversed member and negates every reversed one, so
    (non-reversed) | (reversed)^-1 is K and h is the identity on it.
    Returns the member count and the reversed count."""
    iso = build_translation_iso(h, k)
    members = pool(h, bound)
    reversed_ = {u for u in members if reversed_by_order(iso, u)}
    parts = {-u if u in reversed_ else u for u in members}
    # the window is symmetric, so it holds every -u
    assert parts == set(pool(k, bound))
    for v in parts:
        assert decomposition_map(iso, v) == v, v
    return len(parts), len(reversed_)


@pytest.mark.parametrize("inverse", [False, True])
def test_decomposition_map_is_the_identity_planar(halfplane, cone_sqrt2, inverse):
    h, k = (cone_sqrt2, halfplane) if inverse else (halfplane, cone_sqrt2)
    assert _check_decomposition_map_is_identity(h, k, 8) == (145, 93)


@pytest.mark.parametrize("inverse", [False, True])
def test_decomposition_map_is_the_identity_rank4(rank4_h, rank4_k, inverse):
    h, k = (rank4_k, rank4_h) if inverse else (rank4_h, rank4_k)
    assert _check_decomposition_map_is_identity(h, k, 4) == (1985, 25)
