"""Acceptance criteria, one test per criterion.

Every check is exact (integer arithmetic, zero tolerance).  Each test
prints one ACCEPTANCE line with its verdict and runtime; the stated
time limits are asserted.
"""

import itertools
import random
import time
from contextlib import contextmanager

from powmon.ambient import GroupSignature
from powmon.monoids import (
    Window,
    elements_in_window,
    monoid_to_json,
    numerical,
)
from powmon.powersets import (
    FinSubset1,
    quotient_multiplicity,
    quotients,
    reversion,
    set_product,
)
from powmon.structure import PseudoUnitStatus, decompose, is_independent, pseudo_unit
from powmon.suites import (
    SuiteConfig,
    Verdict,
    planar_iso,
    rank4_pair,
    run_rank4_example,
    run_suite,
)
from powmon.translation import apply_iso, build_translation_iso, classify_reversed, pullback
from powmon.translation import ReversedStatus

from conftest import splits_window

Z1 = GroupSignature(1)


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    in_time = elapsed < limit_seconds
    verdict = "PASS" if in_time else "FAIL (over time limit)"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.2f}s, limit {limit_seconds:.0f}s)")
    assert in_time, f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"


def all_subsets_with_zero(n0, top: int) -> list[FinSubset1]:
    rest = range(1, top + 1)
    out = []
    for size in range(top + 1):
        for combo in itertools.combinations(rest, size):
            out.append(FinSubset1.from_ints(n0, (0,) + combo))
    return out


def test_criterion_1_reversion_automorphism(n0):
    """rev(X+Y) = rev(X)+rev(Y) for all 2^8 x 2^8 pairs from {0..8}."""
    with criterion(1, "reversion-automorphism", 5.0):
        sets = all_subsets_with_zero(n0, 8)
        assert len(sets) == 256
        revs = [reversion(x) for x in sets]
        checked = 0
        for i, x in enumerate(sets):
            rx = revs[i]
            for j, y in enumerate(sets):
                assert reversion(set_product(x, y)) == set_product(rx, revs[j])
                checked += 1
        assert checked == 65_536


def test_criterion_2_quotient_identity(n0):
    """Direct multiplicity equals 2|X| - |{0,a}+X| for all X from {0..6}
    and every candidate a."""
    with criterion(2, "quotient-multiplicity-identity", 5.0):
        for x in all_subsets_with_zero(n0, 6):
            members = set(x.ints())
            top = max(members)
            counts = dict(quotients(x).entries)  # internally cross-checks every entry
            for a in range(1, top + 1):
                direct = sum(1 for b in members if a + b in members)
                pair = FinSubset1.from_ints(n0, [0, a])
                assert direct == 2 * len(x) - len(set_product(pair, x))
                assert counts.get(Z1.element(a), 0) == direct


def test_criterion_3_translation_iso_laws(halfplane):
    """Product law, cardinality and 2-set preservation on 10,000 seeded
    pairs over the half-plane -> sqrt(2)-cone isomorphism, window 8."""
    with criterion(3, "translation-iso-laws", 30.0):
        iso = planar_iso()
        rng = random.Random(f"{SuiteConfig().seed}:acceptance-3")
        elems = elements_in_window(iso.domain, Window(8))
        nonid = [u for u in elems if not u.is_identity()]
        failures = 0
        for _ in range(10_000):
            k1, k2 = rng.randint(0, 6), rng.randint(0, 6)
            x = FinSubset1.make(
                iso.domain,
                [elems[rng.randrange(len(elems))] for _ in range(k1)] + [iso.domain.identity()],
            )
            y = FinSubset1.make(
                iso.domain,
                [elems[rng.randrange(len(elems))] for _ in range(k2)] + [iso.domain.identity()],
            )
            fx, fy = apply_iso(iso, x), apply_iso(iso, y)
            if apply_iso(iso, set_product(x, y)) != set_product(fx, fy):
                failures += 1
            if len(fx) != len(x) or len(fy) != len(y):
                failures += 1
            a = nonid[rng.randrange(len(nonid))]
            two = FinSubset1.make(iso.domain, (iso.domain.identity(), a))
            if len(apply_iso(iso, two)) != 2:
                failures += 1
        assert failures == 0


def test_criterion_4_pullback_laws(halfplane):
    """g(n*a) = n*g(a) for n <= 10 on 500 sampled a; quotient
    multiplicity preserved on 1,000 sampled (a, X)."""
    with criterion(4, "pullback-laws", 30.0):
        iso = planar_iso()
        rng = random.Random(f"{SuiteConfig().seed}:acceptance-4")
        elems = elements_in_window(iso.domain, Window(8))
        nonid = [u for u in elems if not u.is_identity()]
        failures = 0
        for _ in range(500):
            a = nonid[rng.randrange(len(nonid))]
            ga = pullback(iso, a)
            for n in range(11):
                if pullback(iso, a.scale(n)) != ga.scale(n):
                    failures += 1
        for _ in range(1000):
            a = nonid[rng.randrange(len(nonid))]
            k = rng.randint(0, 6)
            x = FinSubset1.make(
                iso.domain,
                [elems[rng.randrange(len(elems))] for _ in range(k)] + [iso.domain.identity()],
            )
            if quotient_multiplicity(x, a) != quotient_multiplicity(
                apply_iso(iso, x), pullback(iso, a)
            ):
                failures += 1
        assert failures == 0


def test_criterion_5_reversed_dichotomy(halfplane):
    """On 2,000 sampled independent pairs: g(ab) != g(a)g(b) exactly when
    one factor is reversed, the unequal value is g(a)-g(b) or g(b)-g(a),
    and both classes must actually occur."""
    with criterion(5, "reversed-dichotomy", 60.0):
        iso = planar_iso()
        rng = random.Random(f"{SuiteConfig().seed}:acceptance-5")
        nonid = [
            u for u in elements_in_window(iso.domain, Window(8)) if not u.is_identity()
        ]
        seen = {ReversedStatus.REVERSED: 0, ReversedStatus.NOT_REVERSED: 0}
        checked = 0
        failures = 0
        while checked < 2000:
            a = nonid[rng.randrange(len(nonid))]
            b = nonid[rng.randrange(len(nonid))]
            if not is_independent(a, b):
                continue
            checked += 1
            ra = classify_reversed(iso, a)
            rb = classify_reversed(iso, b)
            seen[ra] += 1
            seen[rb] += 1
            ga, gb, gab = pullback(iso, a), pullback(iso, b), pullback(iso, a + b)
            unequal = gab != ga + gb
            exactly_one = (ra is ReversedStatus.REVERSED) != (rb is ReversedStatus.REVERSED)
            if unequal != exactly_one:
                failures += 1
            if unequal and gab not in (ga - gb, gb - ga):
                failures += 1
        assert failures == 0
        assert all(seen.values()), "suite must certify both classes were sampled"


def test_criterion_6_numerical_decomposition():
    """decompose(<2,3>, window 20): pseudo-units are exactly {0}, every
    negative verdict carries a verifying witness, and all verdicts agree
    with a brute-force witness search over b <= 40."""
    with criterion(6, "numerical-decomposition", 5.0):
        spec = numerical([2, 3])
        report = decompose(spec, Window(20))
        assert [u.free[0] for u in report.pseudo_units] == [0]
        assert splits_window(report)
        search_pool = elements_in_window(spec, Window(40))
        for verdict in report.verdicts:
            a = verdict.element
            brute = None
            for b in search_pool:
                if not spec.contains(a - b) and not spec.contains(b - a):
                    brute = b
                    break
            if verdict.status is PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC:
                assert brute is None
            else:
                assert verdict.status is PseudoUnitStatus.NOT_PSEUDO_UNIT
                assert brute is not None
                w = verdict.witness
                assert spec.contains(w)
                assert not spec.contains(a - w)
                assert not spec.contains(w - a)


def test_criterion_7_pseudo_closure_rank4():
    """Complement closure, quotient-group absorption and valuation-part
    totality on the rank-4 domain, window 8, sampled; zero failures."""
    with criterion(7, "rank4-pseudo-closure", 30.0):
        h, k = rank4_pair()
        iso = build_translation_iso(h, k)
        report = run_suite("pseudo_closure", iso, SuiteConfig())
        assert report.verdict == Verdict.PASS, report.failures[:3]
        assert report.cases > 0
        assert not report.failures


def test_criterion_8_rank4_example():
    """The packaged rank-4 scenario passes all four checks at defaults."""
    with criterion(8, "rank4-example", 60.0):
        report = run_rank4_example(SuiteConfig())
        assert report.verdict == Verdict.PASS, report.failures[:3]
        checks_present = report.cases
        assert checks_present > 3


def test_criterion_9_negative_control(tmp_path, capsys, num23, n0):
    """The CLI rejects the <2,3> vs N0 pair with exit code 2 and names
    the violated applicability condition."""
    from powmon.cli import main

    with criterion(9, "negative-control-exit-2", 30.0):
        h_path = tmp_path / "num23.json"
        k_path = tmp_path / "n0.json"
        h_path.write_text(monoid_to_json(num23), encoding="utf-8")
        k_path.write_text(monoid_to_json(n0), encoding="utf-8")
        code = main(["iso", str(h_path), str(k_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "APPLICABILITY_FAILED" in captured.err
        assert "template-mismatch" in captured.err
        assert "valuation" in captured.err or "composite" in captured.err
