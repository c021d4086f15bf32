import hashlib

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
from powmon.ambient import GroupSignature
from powmon.monoids import IrrationalCone, QuadraticSurd
from powmon.translation import TranslationIso, build_translation_iso


@pytest.fixture(scope="module")
def iso():
    return planar_iso()


@pytest.fixture(scope="module")
def small_cfg():
    return SuiteConfig(sample_count=150, window_bound=6)


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
    iso = TranslationIso(cone, cone, cone, cone, True, "hand-built")
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
    assert a.to_json() == b.to_json()


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
    assert run_rank4_example(cfg).to_json() == run_rank4_example(cfg).to_json()
