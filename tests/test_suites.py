import hashlib
import json

import pytest

from powmon.suites import (
    SUITE_NAMES,
    SuiteConfig,
    Verdict,
    format_reports,
    planar_iso,
    rank4_pair,
    run_rank4_example,
    run_suite,
    verify_iso,
)
from powmon import suites, translation
from powmon.ambient import GroupSignature
from powmon.powersets import FinSubset1
from powmon.monoids import (
    ComplementSpec,
    IrrationalCone,
    MonoidSpec,
    QuadraticSurd,
    Window,
    composite,
    element_to_dict,
    elements_in_window,
    free_generated,
    numerical,
)
from powmon.structure import decompose
from powmon.translation import TranslationIso, build_translation_iso

Z1 = GroupSignature(1)


@pytest.fixture(scope="module")
def iso():
    return planar_iso()


@pytest.fixture(scope="module")
def small_cfg():
    return SuiteConfig(sample_count=150, window_bound=6)


@pytest.mark.parametrize("value", [True, 2.5])
# a seed of 2.0 would equal 2, yet f"{seed}:{name}" seeds another stream
@pytest.mark.parametrize("name", ["seed", "window_bound", "sample_count", "max_set_size"])
def test_suite_config_refuses_non_int_values(name, value):
    with pytest.raises(ValueError, match="suite config values must be integers"):
        SuiteConfig(**{name: value})


def test_unknown_suite_rejected(iso):
    with pytest.raises(ValueError):
        run_suite("no_such_suite", iso)


def test_all_suites_pass_on_planar_iso(iso, small_cfg):
    for name in SUITE_NAMES:
        report = run_suite(name, iso, small_cfg)
        assert report.verdict in (Verdict.PASS, Verdict.NOT_APPLICABLE), (
            name,
            report.verdict,
            report.failures[:2],
        )
        assert (report.verdict == Verdict.FAIL) == bool(report.failures)


def test_not_applicable_suites_name_the_reason(iso, small_cfg):
    for name in ("pullback_unit_inverses", "torsion_products", "units_not_reversed", "nothing_reversed"):
        report = run_suite(name, iso, small_cfg)
        assert report.verdict == Verdict.NOT_APPLICABLE
        assert report.note


def test_not_applicable_suites_refuse_a_non_reduced_domain():
    # their verdict rests on the domain being reduced; only a hand-built
    # isomorphism can have a domain that is not
    cone = IrrationalCone(GroupSignature(2), (0, 1), QuadraticSurd(3, 0, 2, 2), label="cone-3/2")
    iso = TranslationIso(cone, cone, cone, cone, "hand-built")
    for name in ("pullback_unit_inverses", "torsion_products", "units_not_reversed", "nothing_reversed"):
        with pytest.raises(ValueError, match="not reduced"):
            run_suite(name, iso, SuiteConfig(window_bound=2, sample_count=5))


def test_one_reversed_sees_both_classes(iso, small_cfg):
    report = run_suite("one_reversed", iso, small_cfg)
    assert report.verdict == Verdict.PASS
    assert report.cases > 0


def test_one_reversed_inconclusive_on_identity_iso(num23, small_cfg):
    identity_iso = build_translation_iso(num23, num23)
    report = run_suite("one_reversed", identity_iso, small_cfg)
    assert report.verdict == Verdict.INCONCLUSIVE
    assert report.note


def test_reports_deterministic(iso, small_cfg):
    a = run_suite("homomorphism", iso, small_cfg)
    b = run_suite("homomorphism", iso, small_cfg)
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize(
    "pair, cfg, digest",
    [
        (
            "planar",
            SuiteConfig(sample_count=150, window_bound=6),
            "99c11518d2e829c607c6c91119d9e9a29ec654248470ff9701fdb5a2dff5fdcd",
        ),
        (
            "rank4",
            SuiteConfig(sample_count=60, window_bound=3),
            "24c642e9ebe253c4e602349990c2b9a44f83b49e762346d7bac1c4f5d0a238b4",
        ),
    ],
)
def test_report_digests_pinned(pair, cfg, digest):
    """The canonical JSON of all 16 reports is pinned.  A passing report
    holds only counts, notes and its verdict, so a changed sampling stream
    shows here through the counts that depend on the draws: the skips of
    quotient_multiplicity and the pair-loop cases of independent_powers."""
    iso = planar_iso() if pair == "planar" else build_translation_iso(*rank4_pair())
    text = format_reports(verify_iso(iso, cfg), "json")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


#: The names in ``powmon.suites`` through which a suite consumes its draws.
_DRAW_CONSUMERS = (
    "apply_iso", "pullback", "set_product", "pseudo_unit", "classify_reversed", "decomposition_map"
)

_DRAW_DIGESTS = {
    "planar": {
        "cardinality": "f738a6362d2a10422aac42d7957db8cbb6f40e0163609c69ecf31d54c627e295",
        "decomposition_hom": "afe7545c9dd959e3ea9a9413a84b6705c2da29b85f660b9532c11722654d8aff",
        "dependent_products": "624a179b477f23c4fd209ccb06f7bc92a1e36d9d9e774ed50c7b294a3d2f1a42",
        "homomorphism": "c8b5f9c6bf89331581c96e3418736447b703951e8dc10e266a1cf666423293e8",
        "independent_powers": "dc088bf1bb39d2fbc002725442c24c3f7c6e7784b6ce5397e6de82de27e0e853",
        "one_reversed": "2c187d57024a2f823097ed878c30b1343d919d87de25db31511390da3a620f35",
        "product_dichotomy": "e05e16ecd8d8cabc1f28b0349cce7d68baa54522a043c3705a4724cf8835b209",
        "pseudo_closure": "f24776b9bef937437ef250df702aecb6917f32b75d57412e49c366b00899ed23",
        "pullback_powers": "404f43a59fd8746dd4649031a4276478f9d9feccaf8e0ad5d643d6a1ffa30fdc",
        "quotient_multiplicity": "92ccf93dce733d9b08d69b363fe4d995c73f47a18bfbbd941f17ab900fe90105",
        "split_monoids": "f81f6a201f3a9678ddd9404121021e90849af5ed597dda43aa21d14aa214c192",
        "two_sets": "2e17e45cfcf993eee71341407680a92f93d49befc1b23bace0564f2e03bf70d0",
    },
    "rank4": {
        "cardinality": "2c75b5cb0bb176098e17d91d26b009970f8f82b3ea1db97428e8d03b66335e74",
        "decomposition_hom": "25572579ba48e66e82eea2467c09ea205ad41c6a5f4bc99d0e6bfc0bde029a1c",
        "dependent_products": "2fd12703437569a8dc3e32ee2c6c6d9f2f7dfcd10a0f7727f49adab412278444",
        "homomorphism": "56687d90d70fce29f48f5da5307e6d7d7b4b033db03f06238461dc7ec582ba72",
        "independent_powers": "70f3e12adc96001f56eb941be0f8a54c784b9ee51f363fbf2098bae0a0d83948",
        "one_reversed": "d0b87eae1e2c5ac890770aa60258a61fce48b3d8552b2f6df6bd0c85b933bb89",
        "product_dichotomy": "bd24f9a4c843231fd9ea33afd4d2ab7b385420f27368d21f4c0ce3ed0e8556f7",
        "pseudo_closure": "c919bb3875f9083167cd83d37f1d5cba5bf44460c22811fd683957ff39161a6c",
        "pullback_powers": "641b415a6b709bccdd8b5d831a8b4ef07f83666bb050ed2650c9eb9eb6b8ddd4",
        "quotient_multiplicity": "caceec67d7cf200123cde75594d3e76e5134db35e66f7e331a04e2f9a78de8cc",
        "split_monoids": "2807390a82fd7ea3bc0ee528b5210fbffa4a96b00534b543026dad76ac67cf53",
        "two_sets": "8975dcc3913c6e32539a234e66b46614e832f407b301b3316a0a39380933d2a7",
    },
}


@pytest.mark.parametrize(
    "pair, cfg",
    [
        ("planar", SuiteConfig(sample_count=150, window_bound=6)),
        ("rank4", SuiteConfig(sample_count=60, window_bound=3)),
    ],
)
def test_draws_pinned(pair, cfg, monkeypatch):
    """Each suite's calls to the names it consumes its draws through are
    pinned, argument by argument, so a changed draw or a changed use of
    one fails here even where every report still passes.

    ``classify_reversed`` on a window member classifies a member of a
    sampling pool, which a suite may do for the whole window, so only its
    calls on other elements (the sums a suite forms) are recorded.

    ``pseudo_closure`` on the planar domain, whose pools are all
    pseudo-units, consumes its draws only through the valuation order's
    ``contains``, so there that method is recorded too, under the same
    rule: its calls on window members split the pool, its calls on the
    differences that leave the window carry the draws.  On the rank-4
    domain the suite's draws reach ``pseudo_unit``, and the valuation
    order also answers inside every composite membership test, so it is
    not recorded there.
    """
    iso = planar_iso() if pair == "planar" else build_translation_iso(*rank4_pair())
    window = set(elements_in_window(iso.domain, cfg.window))
    calls = []

    def show(arg):
        if isinstance(arg, TranslationIso):
            return "f"
        if isinstance(arg, MonoidSpec):
            return arg.label
        if isinstance(arg, Window):
            return f"w{arg.bound}"
        return repr(arg)

    def recorder(name, fn):
        def record(*args):
            if not (name in ("classify_reversed", "contains") and args[1] in window):
                calls.append(f"{name}({','.join(map(show, args))})")
            return fn(*args)

        return record

    for name in _DRAW_CONSUMERS:
        monkeypatch.setattr(suites, name, recorder(name, getattr(suites, name)))
    digests = {}
    for name in sorted(SUITE_NAMES):
        calls.clear()
        with monkeypatch.context() as patch:
            if pair == "planar" and name == "pseudo_closure":
                order = type(iso.domain_valuation)
                patch.setattr(order, "contains", recorder("contains", order.contains))
            run_suite(name, iso, cfg)
        if calls:
            digests[name] = hashlib.sha256("\n".join(calls).encode("utf-8")).hexdigest()
    assert digests == _DRAW_DIGESTS[pair]


def test_pseudo_closure_holds_without_an_analytic_valuation_part():
    # the identity iso of N0^2 has the trivial pseudo-unit submonoid: a + b
    # that leaves the window still gets a witnessed verdict, so no case is
    # skipped
    z2 = GroupSignature(2)
    h = free_generated(z2, [z2.element(v) for v in ((1, 0), (0, 1), (1, 1))])
    iso = build_translation_iso(h, h)
    assert iso.domain_valuation == free_generated(z2, ())
    report = run_suite("pseudo_closure", iso, SuiteConfig(window_bound=4, sample_count=50))
    assert (report.verdict, report.failures) == (Verdict.PASS, ())
    assert (report.trivial_skips, report.cases) == (0, 100)


@pytest.mark.parametrize("pair, bound", [("rank4", 3), ("zero-glued-2-3", 6), ("num23", 6)])
def test_valuation_part_splits_the_window_as_decompose_does(pair, bound, num23):
    # pseudo_closure draws its pools from the certified pseudo-unit
    # submonoid; they must be decompose's partition, member for member
    if pair == "rank4":
        iso = build_translation_iso(*rank4_pair())
    else:
        complement = ComplementSpec(Z1, (), (Z1.element(2), Z1.element(3)))
        glued = composite(numerical(()), complement, label="zero-glued-2-3")
        h = glued if pair == "zero-glued-2-3" else num23
        iso = build_translation_iso(h, h)
    window = Window(bound)
    members = elements_in_window(iso.domain, window)
    inside = tuple(u for u in members if iso.domain_valuation.contains(u))
    outside = tuple(u for u in members if not iso.domain_valuation.contains(u))
    report = decompose(iso.domain, window)
    assert (report.pseudo_units, report.complement) == (inside, outside)
    assert inside and outside


def test_split_monoids_fails_a_drawn_member_its_pool_misplaces(iso, monkeypatch):
    # pools that disagree with the chain images give failures naming the
    # drawn members, not an exception, and add no case
    cfg = SuiteConfig(window_bound=3, sample_count=20)
    nonid = [u for u in elements_in_window(iso.domain, cfg.window) if not u.is_identity()]
    flipped = [u for u in nonid if not translation.reversed_by_order(iso, u)]
    monkeypatch.setattr(suites, "reversed_by_order", lambda f, u: u in flipped)
    report = run_suite("split_monoids", iso, cfg)
    misplaced = [f for f in report.failures if "element" in f]
    assert report.verdict == Verdict.FAIL and misplaced
    in_flipped = [element_to_dict(u) for u in flipped]
    for f in misplaced:
        assert (f["pool"] == "REVERSED") == (f["element"] in in_flipped)
    assert report.cases == 2 * (cfg.sample_count // 2) + len(flipped)


def test_reports_change_with_seed(iso):
    a = run_suite("homomorphism", iso, SuiteConfig(seed=1, sample_count=50))
    b = run_suite("homomorphism", iso, SuiteConfig(seed=2, sample_count=50))
    assert a.verdict == b.verdict == Verdict.PASS


def test_verify_iso_ordering(iso, small_cfg):
    reports = verify_iso(iso, small_cfg, names=["two_sets", "cardinality"])
    assert [r.suite for r in reports] == ["cardinality", "two_sets"]
    everything = verify_iso(iso, small_cfg)
    assert [r.suite for r in everything] == sorted(SUITE_NAMES)


def test_format_reports(iso, small_cfg):
    reports = verify_iso(iso, small_cfg, names=["two_sets"])
    human = format_reports(reports, "human")
    assert "two_sets" in human and "PASS" in human
    as_json = format_reports(reports, "json")
    assert '"suite": "two_sets"' in as_json


def test_rank4_pair_shares_complement():
    h, k = rank4_pair()
    assert h.complement_part == k.complement_part
    assert h.valuation_part != k.valuation_part


def test_rank4_example_small_window():
    report = run_rank4_example(SuiteConfig(window_bound=2, sample_count=60))
    assert report.verdict == Verdict.PASS
    assert report.cases > 4


def test_rank4_example_tampered_fails():
    report = run_rank4_example(SuiteConfig(window_bound=2, sample_count=40), tampered=True)
    assert report.verdict == Verdict.FAIL
    checks = {f["check"] for f in report.failures}
    assert "iso-applicability" in checks
    # the tampered cone has boundary lattice points, so it is not reduced
    applicability = [f for f in report.failures if f["check"] == "iso-applicability"]
    assert applicability[0]["condition"] == "codomain-not-reduced"


def test_rank4_example_deterministic():
    cfg = SuiteConfig(window_bound=2, sample_count=40)
    assert run_rank4_example(cfg).to_json_dict() == run_rank4_example(cfg).to_json_dict()


def _drop_largest(f, x):
    image = translation.apply_iso(f, x)
    return FinSubset1(image.monoid, image.elements[:-1])


#: Suite -> (the name in ``powmon.suites`` a mutant replaces, the mutant).
_MUTANTS = {
    "quotient_multiplicity": ("pullback", lambda f, a: -translation.pullback(f, a)),
    "cardinality": ("apply_iso", _drop_largest),
    "split_monoids": ("reversed_by_order", lambda f, u: not translation.reversed_by_order(f, u)),
    "one_reversed": ("classify_reversed", lambda f, u: translation.ReversedStatus.NOT_REVERSED),
}


@pytest.mark.parametrize(
    "suite, first_failure, digest",
    [
        (
            "quotient_multiplicity",
            '{"X": [{"free": [0, 0], "torsion": []}, {"free": [2, 0], "torsion": []}], '
            '"a": {"free": [2, 0], "torsion": []}, "direct": 1, "image": 0}',
            "1dc9f32d79add45dc8c780174adfe18e406628247a2bdd7bf44f536059317509",
        ),
        (
            "cardinality",
            '{"X": [{"free": [-2, 1], "torsion": []}, {"free": [-2, 3], "torsion": []}, '
            '{"free": [0, 0], "torsion": []}, {"free": [1, 3], "torsion": []}, '
            '{"free": [2, 1], "torsion": []}, {"free": [3, 2], "torsion": []}]}',
            "5a6c9b0366997a2f75e06e24676bd5d77eec91084ffcbf0109a412f10356f839",
        ),
        (
            "split_monoids",
            '{"element": {"free": [2, 2], "torsion": []}, "pool": "REVERSED"}',
            "5ed6846e5a5921429c93a9566d06a67d858c8603f89ef78718835cc6821889dd",
        ),
        (
            "one_reversed",
            '{"a": {"free": [0, 3], "torsion": []}, "b": {"free": [1, 0], "torsion": []}, '
            '"g(ab)": {"free": [-1, -3], "torsion": []}, "reversed_a": "NOT_REVERSED", '
            '"reversed_b": "NOT_REVERSED"}',
            "7457e80a746cf47d009e36d10fc659af0a1a8f39a78b6400534f855b2c7f983d",
        ),
    ],
)
def test_failing_reports_pinned(iso, suite, first_failure, digest, monkeypatch):
    """A FAIL report writes its witnesses as JSON values: elements as
    {free, torsion}, sets (X) as lists of elements, reversed classes as
    their status strings.  Each suite runs under one wrong isomorphism."""
    name, mutant = _MUTANTS[suite]
    monkeypatch.setattr(suites, name, mutant)
    report = run_suite(suite, iso, SuiteConfig(window_bound=3, sample_count=40))
    doc = report.to_json_dict()
    assert report.verdict == Verdict.FAIL
    assert json.dumps(doc["failures"][0], sort_keys=True) == first_failure
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def _swapped_class(f, u):
    statuses = translation.ReversedStatus
    if translation.classify_reversed(f, u) is statuses.REVERSED:
        return statuses.NOT_REVERSED
    return statuses.REVERSED


def test_swapped_reversed_classes_fail_split_monoids_alone(iso, monkeypatch):
    """The first cell of a suite x mutant matrix: a classify_reversed that
    swaps REVERSED and NOT_REVERSED.  one_reversed reads only whether two
    classes differ, so it passes; split_monoids compares each class with
    the order rule and fails."""
    monkeypatch.setattr(suites, "classify_reversed", _swapped_class)
    cfg = SuiteConfig(window_bound=3, sample_count=40)
    reports = {name: run_suite(name, iso, cfg) for name in SUITE_NAMES}
    verdicts = {name: r.verdict for name, r in reports.items()}
    assert verdicts.pop("split_monoids") == Verdict.FAIL
    assert verdicts["one_reversed"] == Verdict.PASS
    assert {name for name, v in verdicts.items() if v != Verdict.PASS} == {
        "nothing_reversed", "pullback_unit_inverses", "torsion_products", "units_not_reversed"
    }
    assert set(verdicts.values()) == {Verdict.PASS, Verdict.NOT_APPLICABLE}
    split = reports["split_monoids"]
    assert (split.cases, len(split.failures)) == (55, 64)
    assert json.dumps(split.failures[0], sort_keys=True) == (
        '{"element": {"free": [-2, 2], "torsion": []}, "pool": "REVERSED"}'
    )
    doc = json.dumps(split.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "c653cef89f9ef635738ecdae8ab18402fb6eb02f5a8c8cb46126e30281c6cf4c"
    )


def _drop_largest_of_three(f, x):
    """f with the last non-identity member of each image of 3 or more
    members dropped; images of {1} and {1, a} stay whole."""
    image = translation.apply_iso(f, x)
    if len(image) < 3:
        return image
    identity = image.monoid.identity()
    largest = next(u for u in reversed(image.elements) if u != identity)
    return FinSubset1(image.monoid, tuple(u for u in image.elements if u != largest))


def _elements(*points):
    return "[" + ", ".join(
        f'{{"free": [{x}, {y}], "torsion": []}}' for x, y in points
    ) + "]"


#: Suite -> (verdict, cases, failures, first failure as sorted JSON) under
#: ``_drop_largest_of_three``; suites it does not fail have no first failure.
_DROP_LARGEST_ROW = {
    "cardinality": (
        Verdict.FAIL, 40, 20,
        '{"X": ' + _elements((-2, 1), (-2, 3), (0, 0), (1, 3), (2, 1), (3, 2)) + "}",
    ),
    "decomposition_hom": (Verdict.PASS, 40, 0, None),
    "dependent_products": (Verdict.PASS, 40, 0, None),
    "homomorphism": (
        Verdict.FAIL, 40, 26,
        '{"X": ' + _elements((-2, 1), (-2, 2), (0, 0), (2, 0), (2, 1), (3, 1))
        + ', "Y": ' + _elements((-3, 3), (0, 0)) + "}",
    ),
    "independent_powers": (Verdict.PASS, 40, 0, None),
    "nothing_reversed": (Verdict.NOT_APPLICABLE, 0, 0, None),
    "one_reversed": (Verdict.PASS, 40, 0, None),
    "product_dichotomy": (Verdict.PASS, 40, 0, None),
    "pseudo_closure": (Verdict.PASS, 40, 0, None),
    "pullback_powers": (Verdict.PASS, 40, 0, None),
    "pullback_unit_inverses": (Verdict.NOT_APPLICABLE, 0, 0, None),
    "quotient_multiplicity": (
        Verdict.FAIL, 40, 1,
        '{"X": ' + _elements((-3, 2), (-1, 2), (-1, 3), (0, 0), (0, 3), (1, 3))
        + ', "a": {"free": [1, 0], "torsion": []}, "direct": 2, "image": 1}',
    ),
    "split_monoids": (Verdict.PASS, 55, 0, None),
    "torsion_products": (Verdict.NOT_APPLICABLE, 0, 0, None),
    "two_sets": (Verdict.PASS, 40, 0, None),
    "units_not_reversed": (Verdict.NOT_APPLICABLE, 0, 0, None),
}


def test_dropped_largest_member_fails_three_suites(iso, monkeypatch):
    """A row of the suite x mutant matrix: an f that drops the largest
    member of each image of 3 or more members.  Of the four suites that
    call apply_iso, cardinality, homomorphism and quotient_multiplicity
    fail; two_sets maps {1, a} only, so it passes with the other twelve."""
    monkeypatch.setattr(suites, "apply_iso", _drop_largest_of_three)
    cfg = SuiteConfig(window_bound=3, sample_count=40)
    row = {}
    for name in SUITE_NAMES:
        r = run_suite(name, iso, cfg)
        first = json.dumps(r.failures[0], sort_keys=True) if r.failures else None
        row[name] = (r.verdict, r.cases, len(r.failures), first)
    assert row == _DROP_LARGEST_ROW


_true_translation = translation._translation


def _translate_one_generator_off(f, elements):
    """f's translate a moved to a + (1, 0), one quotient generator off."""
    return _true_translation(f, elements) + GroupSignature(2).element((1, 0))


def _no_pattern(u, image):
    return (
        translation.DichotomyViolationError,
        f"image of the power chain of {u} is {image}, matching neither admissible pattern",
    )


_COLLAPSED = (
    translation.TranslationCheckError,
    "translation collapsed elements; ambient arithmetic broken",
)

#: Suite -> (verdict, cases, failures), or the (error type, message) it
#: raised, under ``_translate_one_generator_off``.
_TRANSLATE_OFF_ROW = {
    "cardinality": _COLLAPSED,
    "decomposition_hom": (Verdict.PASS, 40, 0),
    "dependent_products": (Verdict.PASS, 40, 0),
    "homomorphism": _COLLAPSED,
    "independent_powers": (Verdict.PASS, 40, 0),
    "nothing_reversed": (Verdict.NOT_APPLICABLE, 0, 0),
    "one_reversed": _no_pattern("(-1,2)", "[(1,0), (3,-4), (4,-6)]"),
    "product_dichotomy": (Verdict.PASS, 40, 0),
    "pseudo_closure": (Verdict.PASS, 40, 0),
    "pullback_powers": (Verdict.PASS, 40, 0),
    "pullback_unit_inverses": (Verdict.NOT_APPLICABLE, 0, 0),
    "quotient_multiplicity": _COLLAPSED,
    "split_monoids": _no_pattern("(-2,2)", "[(1,0), (5,-4), (7,-6)]"),
    "torsion_products": (Verdict.NOT_APPLICABLE, 0, 0),
    "two_sets": _COLLAPSED,
    "units_not_reversed": (Verdict.NOT_APPLICABLE, 0, 0),
}


def test_translate_one_generator_off_raises_in_six_suites(iso, monkeypatch):
    """A row of the suite x mutant matrix: a translate one quotient
    generator off.  a + X then misses the identity, so the four suites
    that call apply_iso raise its count check's error, and the chain
    images of classify_reversed match neither pattern.  The suites that
    read pullback alone pass: its success path maps no set."""
    monkeypatch.setattr(translation, "_translation", _translate_one_generator_off)
    cfg = SuiteConfig(window_bound=3, sample_count=40)
    row = {}
    for name in SUITE_NAMES:
        try:
            r = run_suite(name, iso, cfg)
        except (translation.TranslationCheckError, translation.DichotomyViolationError) as exc:
            row[name] = (type(exc), str(exc))
        else:
            row[name] = (r.verdict, r.cases, len(r.failures))
    assert row == _TRANSLATE_OFF_ROW


#: Suite -> (verdict, cases, failures), or the (error type, message) it
#: raised, with g((1,1)) poisoned to (-1,-1) in the pullback memo.
_POISONED_PULLBACK_ROW = {
    "cardinality": (Verdict.PASS, 40, 0),
    "decomposition_hom": (Verdict.FAIL, 40, 3),
    "dependent_products": (Verdict.PASS, 40, 0),
    "homomorphism": (Verdict.PASS, 40, 0),
    "independent_powers": (Verdict.PASS, 40, 0),
    "nothing_reversed": (Verdict.NOT_APPLICABLE, 0, 0),
    "one_reversed": _no_pattern("(1,1)", "[(0,0), (1,1), (3,3)]"),
    "product_dichotomy": (Verdict.PASS, 40, 0),
    "pseudo_closure": (Verdict.PASS, 40, 0),
    "pullback_powers": (Verdict.FAIL, 40, 27),
    "pullback_unit_inverses": (Verdict.NOT_APPLICABLE, 0, 0),
    "quotient_multiplicity": (Verdict.PASS, 40, 0),
    "split_monoids": _no_pattern("(1,1)", "[(0,0), (1,1), (3,3)]"),
    "torsion_products": (Verdict.NOT_APPLICABLE, 0, 0),
    "two_sets": (Verdict.PASS, 40, 0),
    "units_not_reversed": (Verdict.NOT_APPLICABLE, 0, 0),
}


def test_poisoned_pullback_memo_fails_two_suites_and_raises_in_two():
    """A row of the suite x mutant matrix: a memo entry that makes
    g((1,1)) = (-1,-1), reversed, though (1,1) is not.  pullback_powers
    and decomposition_hom fail, the power chain of (1,1) matches neither
    pattern in one_reversed and split_monoids, and the other eight
    sampled suites pass."""
    poisoned = planar_iso()  # not the shared fixture: the memo outlives the test
    sig = poisoned.domain.signature
    poisoned._pullback_cache[sig.element((1, 1))] = sig.element((-1, -1))
    cfg = SuiteConfig(window_bound=3, sample_count=40)
    row = {}
    for name in SUITE_NAMES:
        try:
            r = run_suite(name, poisoned, cfg)
        except (translation.TranslationCheckError, translation.DichotomyViolationError) as exc:
            row[name] = (type(exc), str(exc))
        else:
            row[name] = (r.verdict, r.cases, len(r.failures))
    assert row == _POISONED_PULLBACK_ROW


def _double_largest_of_three(f, x):
    """f with the last non-identity member u of each image of 3 or more
    members replaced by u + u; images of {1} and {1, a} stay whole."""
    image = translation.apply_iso(f, x)
    if len(image) < 3:
        return image
    identity = image.monoid.identity()
    largest = next(u for u in reversed(image.elements) if u != identity)
    return FinSubset1.make(image.monoid, (u + u if u == largest else u for u in image.elements))


def test_doubled_largest_member_fails_homomorphism_past_set_sizes(iso, monkeypatch):
    """Another row of the suite x mutant matrix, for the homomorphism law
    alone: f(X*Y) and f(X)*f(Y) differ in 27 cases, only 13 of them in size,
    so a law that compared lengths would miss the other 14."""
    monkeypatch.setattr(suites, "apply_iso", _double_largest_of_three)
    r = run_suite("homomorphism", iso, SuiteConfig(window_bound=3, sample_count=40))
    first = json.dumps(r.failures[0], sort_keys=True)
    assert (r.verdict, r.cases, len(r.failures), first) == (
        Verdict.FAIL, 40, 27,
        '{"X": ' + _elements((-2, 1), (-2, 2), (0, 0), (2, 0), (2, 1), (3, 1))
        + ', "Y": ' + _elements((-3, 3), (0, 0)) + "}",
    )
