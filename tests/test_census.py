"""The applicability census: which ordered pairs of a fixed catalogue
``build_translation_iso`` decides, next to what is known about each pair.

Every ordered pair of distinct specs over one signature is a row: the
builder's outcome (its template, or the condition of its refusal) and the
expected class of the pair of power monoids:

* ISO     -- isomorphic: a monoid isomorphism H -> K induces X -> phi(X);
* THEOREM -- not isomorphic, by Tringali and Yan's theorem on numerical
             monoids, applied to the two monoids normalized by their gcd
             and sign;
* OPEN    -- no statement this package can cite decides the pair.

A later change may move a row only toward its expected class.
"""

from collections import Counter
from math import gcd

from powmon.ambient import GroupSignature
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
from powmon.translation import ApplicabilityError, build_translation_iso

Z1, Z2, Z4 = GroupSignature(1), GroupSignature(2), GroupSignature(4)
ISO, THEOREM, OPEN = "isomorphic", "non-isomorphic by Tringali-Yan", "open"


def _catalogue():
    sqrt2 = QuadraticSurd(0, 1, 1, 2)
    complement = ComplementSpec(
        Z4, (Z4.basis_element(0), Z4.basis_element(1)), (Z4.basis_element(2), Z4.basis_element(3))
    )
    specs = [
        full_n0(),
        free_generated(Z1, [Z1.element(-1)], "-N0"),
        numerical([2, 3]),
        numerical([2, 4]),
        numerical([4, 6]),
        numerical([3, 5]),
        numerical([3, 5, 7]),
        free_generated(Z1, [Z1.element(-2), Z1.element(-3)], "-<2,3>"),
        half_plane_lex(),
        irrational_cone(sqrt2, label="cone-sqrt2"),
        free_generated(Z2, [Z2.element(v) for v in ((1, 0), (1, 1), (1, 3))], "free-z2"),
        composite(half_plane_lex(Z4, (0, 1), "rank4-halfplane"), complement, "rank4-H"),
        composite(irrational_cone(sqrt2, Z4, (0, 1), "rank4-cone"), complement, "rank4-K"),
    ]
    return {s.label: s for s in specs}


def _rows(pairs):
    """The table of ``pairs``: one row per line, ``domain codomain outcome
    class``, the class abbreviated to iso, thm or open."""
    out = {}
    for line in pairs.strip().splitlines():
        h, k, outcome, expected = line.split(maxsplit=3)
        out[h, k] = (outcome, {"iso": ISO, "thm": THEOREM, "open": OPEN}[expected])
    return out


#: Every ordered pair of distinct catalogue specs over one signature.
CENSUS = _rows("""
N0 -N0 valuation-pair iso
N0 <2,3> template-mismatch thm
N0 <2,4> quotient-groups-differ iso
N0 <4,6> template-mismatch thm
N0 <3,5> template-mismatch thm
N0 <3,5,7> template-mismatch thm
N0 -<2,3> template-mismatch thm
-N0 N0 valuation-pair iso
-N0 <2,3> template-mismatch thm
-N0 <2,4> quotient-groups-differ iso
-N0 <4,6> template-mismatch thm
-N0 <3,5> template-mismatch thm
-N0 <3,5,7> template-mismatch thm
-N0 -<2,3> template-mismatch thm
<2,3> N0 template-mismatch thm
<2,3> -N0 template-mismatch thm
<2,3> <2,4> template-mismatch thm
<2,3> <4,6> template-mismatch iso
<2,3> <3,5> template-mismatch thm
<2,3> <3,5,7> template-mismatch thm
<2,3> -<2,3> template-mismatch iso
<2,4> N0 quotient-groups-differ iso
<2,4> -N0 quotient-groups-differ iso
<2,4> <2,3> template-mismatch thm
<2,4> <4,6> template-mismatch thm
<2,4> <3,5> template-mismatch thm
<2,4> <3,5,7> template-mismatch thm
<2,4> -<2,3> template-mismatch thm
<4,6> N0 template-mismatch thm
<4,6> -N0 template-mismatch thm
<4,6> <2,3> template-mismatch iso
<4,6> <2,4> template-mismatch thm
<4,6> <3,5> template-mismatch thm
<4,6> <3,5,7> template-mismatch thm
<4,6> -<2,3> template-mismatch iso
<3,5> N0 template-mismatch thm
<3,5> -N0 template-mismatch thm
<3,5> <2,3> template-mismatch thm
<3,5> <2,4> template-mismatch thm
<3,5> <4,6> template-mismatch thm
<3,5> <3,5,7> template-mismatch thm
<3,5> -<2,3> template-mismatch thm
<3,5,7> N0 template-mismatch thm
<3,5,7> -N0 template-mismatch thm
<3,5,7> <2,3> template-mismatch thm
<3,5,7> <2,4> template-mismatch thm
<3,5,7> <4,6> template-mismatch thm
<3,5,7> <3,5> template-mismatch thm
<3,5,7> -<2,3> template-mismatch thm
-<2,3> N0 template-mismatch thm
-<2,3> -N0 template-mismatch thm
-<2,3> <2,3> template-mismatch iso
-<2,3> <2,4> template-mismatch thm
-<2,3> <4,6> template-mismatch iso
-<2,3> <3,5> template-mismatch thm
-<2,3> <3,5,7> template-mismatch thm
half-plane-lex cone-sqrt2 valuation-pair iso
half-plane-lex free-z2 template-mismatch open
cone-sqrt2 half-plane-lex valuation-pair iso
cone-sqrt2 free-z2 template-mismatch open
free-z2 half-plane-lex template-mismatch open
free-z2 cone-sqrt2 template-mismatch open
rank4-H rank4-K composite-pair iso
rank4-K rank4-H composite-pair iso
""")


def _outcome(h, k) -> str:
    try:
        return build_translation_iso(h, k).certificate
    except ApplicabilityError as exc:
        return exc.condition


def _summary(rows) -> str:
    refused = Counter(c for outcome, c in rows.values() if not outcome.endswith("-pair"))
    built = len(rows) - sum(refused.values())
    return (
        f"{len(rows)} pairs: {built} built, {refused[THEOREM]} refused (not isomorphic, by the "
        f"theorem), {refused[ISO]} refused though isomorphic, {refused[OPEN]} open; builder: "
        + ", ".join(f"{n} {o}" for o, n in sorted(Counter(o for o, _ in rows.values()).items()))
    )


def test_census_pins_the_builder_on_every_pair():
    specs = _catalogue()
    sig = {label: s.signature for label, s in specs.items()}
    pairs = [(h, k) for h in specs for k in specs if h != k and sig[h] == sig[k]]
    # the builder gives the outcome; the class is known, not computed
    rows = {
        (h, k): (_outcome(specs[h], specs[k]), CENSUS.get((h, k), ("", "?"))[1]) for h, k in pairs
    }
    assert rows == CENSUS, f"census now: {_summary(rows)}\npinned:     {_summary(CENSUS)}"
    assert _summary(CENSUS) == (
        "64 pairs: 6 built, 44 refused (not isomorphic, by the theorem), 10 refused though "
        "isomorphic, 4 open; builder: 2 composite-pair, 4 quotient-groups-differ, "
        "54 template-mismatch, 4 valuation-pair"
    )


def test_census_rank1_classes_follow_the_normalized_monoids():
    # each rank-1 spec of the catalogue is a numerical monoid times its
    # gcd and its sign: divided by both, two specs are one numerical monoid
    # (ISO) or two that differ (THEOREM); every conductor here is below 20
    specs = {label: s for label, s in _catalogue().items() if s.signature == Z1}

    def normalized(spec):
        members = [u.coords[0] for u in elements_in_window(spec, Window(40))]
        unit = gcd(*members) * (1 if max(members) > 0 else -1)
        return {x // unit for x in members if 0 <= x // unit <= 20}

    rank1 = [(h, k, expected) for (h, k), (_, expected) in CENSUS.items() if h in specs]
    assert len(rank1) == 56
    for h, k, expected in rank1:
        same = normalized(specs[h]) == normalized(specs[k])
        assert (ISO if same else THEOREM) == expected, (h, k)
