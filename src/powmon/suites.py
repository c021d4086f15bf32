"""Executable property suites for constructed translation isomorphisms.

``run_suite`` drives every suite the same way: it derives the sampling
stream ``random.Random(f"{seed}:{name}")`` from the seed and the suite
name, hands the suite body that stream with the domain's window members
and their non-identity part, and builds the report through one verdict
rule.  A body only draws its cases and returns its failures, each with
full witness data.  A report carries the case count, the count of cases
that held trivially (skips), the failures and a verdict:

* PASS            -- cases ran, none failed;
* FAIL            -- at least one failure (witnesses attached);
* INCONCLUSIVE    -- the sampled inputs never exercised the law: no case
                     ran, every case was trivial, or a class of elements
                     was never seen (a domain with no non-identity member
                     in the window runs no case at all);
* NOT_APPLICABLE  -- four suites need a non-trivial unit or a finite-order
                     member, and a reduced domain has neither (a member u
                     of order n has the inverse (n-1)u).  Their verdict is
                     read from the certified ``is_reduced()`` without
                     sampling; a hand-built isomorphism whose domain is
                     not reduced is refused with ``ValueError``.

Reports are reproducible byte for byte from (suite, isomorphism,
config); suites may run concurrently since each derives its own
sampling stream.  The module also packages two ready-made scenarios:
the planar pair (lexicographic half-plane -> sqrt(2)-cone) and the
rank-4 glued pair, with the latter's four-part verification available
as ``run_rank4_example``.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, islice
from typing import Callable, Iterable

from .ambient import GroupElement, GroupSignature
from .monoids import (
    ComplementSpec,
    IrrationalCone,
    QuadraticSurd,
    Window,
    composite,
    elements_in_window,
    half_plane_lex,
    irrational_cone,
    to_json,
)
from .powersets import FinSubset1, quotient_multiplicity, set_product
from .structure import (
    IrreducibleStatus,
    PseudoUnitStatus,
    decompose,
    is_independent,
    is_irreducible,
    pseudo_unit,
)
from .translation import (
    ApplicabilityError,
    ReversedStatus,
    TranslationIso,
    apply_iso,
    build_translation_iso,
    classify_reversed,
    decomposition_map,
    pullback,
    reversed_by_order,
)

__all__ = [
    "DEFAULT_SEED",
    "SuiteConfig",
    "SuiteReport",
    "Verdict",
    "SUITE_NAMES",
    "run_suite",
    "verify_iso",
    "planar_pair",
    "planar_iso",
    "rank4_pair",
    "run_rank4_example",
    "format_reports",
]

#: Default sampling seed; fixed so that reports reproduce byte for byte.
DEFAULT_SEED = 1347440721


@dataclass(frozen=True, slots=True)
class SuiteConfig:
    seed: int = DEFAULT_SEED
    window_bound: int = 8
    sample_count: int = 1000
    max_set_size: int = 6

    def __post_init__(self) -> None:
        values = (self.seed, self.window_bound, self.sample_count, self.max_set_size)
        if not all(type(n) is int for n in values):  # bool is refused too
            raise ValueError(f"suite config values must be integers, not {values}")
        if min(values[1:]) < 1:  # the seed may be negative
            raise ValueError("suite config values must be positive")

    @property
    def window(self) -> Window:
        return Window(self.window_bound)


class Verdict:
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"
    NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True, slots=True)
class SuiteReport:
    suite: str
    scope: str
    cases: int
    trivial_skips: int
    failures: tuple[dict, ...]
    verdict: str
    note: str = ""

    def to_json_dict(self) -> dict:
        """The fields, with an empty ``note`` left out."""
        return {k: v for k, v in asdict(self).items() if k != "note" or v}


#: The status a failure records for a member's reversed class.
_CLASS = {True: ReversedStatus.REVERSED, False: ReversedStatus.NOT_REVERSED}


def _scope(iso: TranslationIso) -> str:
    return (
        f"constructed translation isomorphism {iso.domain.label!r} -> "
        f"{iso.codomain.label!r} (no quantification over other isomorphisms)"
    )


def _report(
    suite: str, scope: str, cases: int, skips: int, failures: list[dict], note: str = ""
) -> SuiteReport:
    """The one verdict rule: FAIL on a failure; else INCONCLUSIVE when a
    note says what sampling never saw or when no case exercised the law;
    else PASS."""
    if failures:
        verdict = Verdict.FAIL
    elif note or cases == skips:
        verdict = Verdict.INCONCLUSIVE
        note = note or "sampling never exercised the law"
    else:
        verdict = Verdict.PASS
    return SuiteReport(suite, scope, cases, skips, tuple(to_json(failures)), verdict, note)


@dataclass(slots=True)
class _Sample:
    """What ``run_suite`` hands a suite body.  ``cases`` stays
    ``sample_count`` unless the body counts its own, ``skips`` counts the
    cases that held trivially, and a ``note`` saying what sampling never
    saw makes the report INCONCLUSIVE."""

    iso: TranslationIso
    cfg: SuiteConfig
    rng: random.Random
    pool: tuple[GroupElement, ...]
    nonid: tuple[GroupElement, ...]
    cases: int
    skips: int = 0
    note: str = ""

    def member(self) -> GroupElement:
        return self.rng.choice(self.nonid)

    def subset(self) -> FinSubset1:
        k = self.rng.randint(0, self.cfg.max_set_size)
        members = [self.rng.choice(self.pool) for _ in range(k)]
        return FinSubset1.make(self.iso.domain, members + [self.iso.domain.identity()])


_BODIES: dict[str, Callable[[_Sample], list[dict]]] = {}


def _suite(name: str, per_case: bool = False):
    """Register a suite body under ``name``.  A body draws from the
    ``_Sample`` and returns its failures; a ``per_case`` body checks one
    case, yields that case's failures and runs ``sample_count`` times."""

    def register(body):
        _BODIES[name] = (
            (lambda s: [f for _ in range(s.cfg.sample_count) for f in body(s)]) if per_case else body
        )
        return body

    return register


def _pairs(
    s: _Sample, keep: Callable[[GroupElement, GroupElement], bool]
) -> list[tuple[GroupElement, GroupElement]]:
    """The first ``sample_count`` drawn pairs of non-identity members that
    ``keep`` accepts, out of at most ``20 * sample_count`` draws."""
    draws = ((s.member(), s.member()) for _ in range(20 * s.cfg.sample_count))
    pairs = list(islice(((a, b) for a, b in draws if keep(a, b)), s.cfg.sample_count))
    s.cases = len(pairs)
    return pairs


# ---------------------------------------------------------------------------
# Suites over the isomorphism itself.
# ---------------------------------------------------------------------------


@_suite("homomorphism", per_case=True)
def _homomorphism(s: _Sample):
    """f(X*Y) = f(X)*f(Y) on sampled pairs."""
    x, y = s.subset(), s.subset()
    left = apply_iso(s.iso, set_product(x, y))
    if left != set_product(apply_iso(s.iso, x), apply_iso(s.iso, y)):
        yield {"X": x, "Y": y}


@_suite("two_sets", per_case=True)
def _two_sets(s: _Sample):
    """Two-element sets map to two-element sets."""
    a = s.member()
    if len(apply_iso(s.iso, FinSubset1.make(s.iso.domain, (s.iso.domain.identity(), a)))) != 2:
        yield {"a": a}


@_suite("cardinality", per_case=True)
def _cardinality(s: _Sample):
    """|f(X)| = |X| on sampled sets."""
    x = s.subset()
    if len(apply_iso(s.iso, x)) != len(x):
        yield {"X": x}


@_suite("pullback_powers", per_case=True)
def _pullback_powers(s: _Sample):
    """g(n*a) = n*g(a) for n = 0..10."""
    a = s.member()
    ga = pullback(s.iso, a)
    for n in range(11):
        if pullback(s.iso, a.scale(n)) != ga.scale(n):
            yield {"a": a, "n": n}


@_suite("quotient_multiplicity", per_case=True)
def _quotient_multiplicity(s: _Sample):
    """a is a quotient of X of multiplicity n iff g(a) is one of f(X)."""
    x, a = s.subset(), s.member()
    direct = quotient_multiplicity(x, a)
    image = quotient_multiplicity(apply_iso(s.iso, x), pullback(s.iso, a))
    if not direct:
        s.skips += 1
    if direct != image:
        yield {"X": x, "a": a, "direct": direct, "image": image}


@_suite("product_dichotomy", per_case=True)
def _product_dichotomy(s: _Sample):
    """g(a+b) is g(a)+g(b) or one of g(a)-g(b), g(b)-g(a)."""
    a, b = s.member(), s.member()
    ga, gb, gab = pullback(s.iso, a), pullback(s.iso, b), pullback(s.iso, a + b)
    if gab != ga + gb and gab not in (ga - gb, gb - ga):
        yield {"a": a, "b": b, "g(ab)": gab}


@_suite("dependent_products", per_case=True)
def _dependent_products(s: _Sample):
    """Pairs with a power relation multiply through the pullback exactly."""
    w = s.member()
    n, m = s.rng.randint(1, 4), s.rng.randint(1, 4)
    a, b = w.scale(n), w.scale(m)
    if pullback(s.iso, a + b) != pullback(s.iso, a) + pullback(s.iso, b):
        yield {"a": a, "b": b}


@_suite("independent_powers")
def _independent_powers(s: _Sample) -> list[dict]:
    """Once g(a+b) != g(a)+g(b), no positive power pair recombines."""
    g = partial(pullback, s.iso)
    failures = []
    for a, b in _pairs(s, lambda a, b: g(a + b) != g(a) + g(b)):
        ga, gb = g(a), g(b)
        failures += [
            {"a": a, "b": b, "n": n, "m": m}
            for n in range(1, 4)
            for m in range(1, 4)
            if g(a.scale(n) + b.scale(m)) == ga.scale(n) + gb.scale(m)
        ]
    return failures


@_suite("one_reversed")
def _one_reversed(s: _Sample) -> list[dict]:
    """g(a+b) != g(a)+g(b) exactly when one factor is reversed, and the
    unequal value is g(a)-g(b) or g(b)-g(a).  Certifies that both
    classes were sampled; INCONCLUSIVE otherwise."""
    failures = []
    pairs = _pairs(s, is_independent)
    # each distinct drawn member is certified once
    drawn = dict.fromkeys(chain(*pairs))
    rev = {u: classify_reversed(s.iso, u) is ReversedStatus.REVERSED for u in drawn}
    for a, b in pairs:
        ra, rb = rev[a], rev[b]
        ga, gb, gab = pullback(s.iso, a), pullback(s.iso, b), pullback(s.iso, a + b)
        unequal = gab != ga + gb
        if unequal != (ra != rb):
            failures.append(
                {"a": a, "b": b, "reversed_a": _CLASS[ra], "reversed_b": _CLASS[rb], "g(ab)": gab}
            )
        elif unequal and gab not in (ga - gb, gb - ga):
            failures.append({"a": a, "b": b, "g(ab)": gab})
    if len(set(rev.values())) < 2:
        s.note = "never sampled both a reversed and a non-reversed element"
    return failures


@_suite("split_monoids")
def _split_monoids(s: _Sample) -> list[dict]:
    """The non-reversed part and the reversed part are closed under
    products, and reversed members are pseudo-units."""
    classes: dict[bool, list[GroupElement]] = {True: [], False: []}
    for u in s.nonid:
        classes[reversed_by_order(s.iso, u)].append(u)
    drawn = [
        (rev, s.rng.choice(pool), s.rng.choice(pool))
        for rev, pool in classes.items()
        if pool
        for _ in range(s.cfg.sample_count // 2)
    ]
    # the pools come from the valuation parts; each distinct drawn member
    # is certified by its chain image as well
    pool_of = {u: rev for rev, a, b in drawn for u in (a, b)}
    failures = [
        {"element": u, "pool": _CLASS[rev]}
        for u, rev in pool_of.items()
        if (classify_reversed(s.iso, u) is ReversedStatus.REVERSED) != rev
    ]
    failures += [
        {"a": a, "b": b, "class": _CLASS[rev]}
        for rev, a, b in drawn
        if (classify_reversed(s.iso, a + b) is ReversedStatus.REVERSED) != rev
    ]
    failures += [
        {"reversed_non_pseudo_unit": u}
        for u in classes[True]
        if pseudo_unit(s.iso.domain, u).status is PseudoUnitStatus.NOT_PSEUDO_UNIT
    ]
    s.cases = len(drawn) + len(classes[True])
    if not classes[True]:
        s.note = "no reversed elements in the window"
    return failures


@_suite("decomposition_hom")
def _decomposition_hom(s: _Sample) -> list[dict]:
    """h on (non-reversed) | (reversed)^-1 is multiplicative into the
    codomain."""
    domain_pool = [-u if reversed_by_order(s.iso, u) else u for u in s.pool]
    failures = []
    for _ in range(s.cfg.sample_count):
        u, v = s.rng.choice(domain_pool), s.rng.choice(domain_pool)
        try:
            hu = decomposition_map(s.iso, u)
            hv = decomposition_map(s.iso, v)
            huv = decomposition_map(s.iso, u + v)
        except ValueError as exc:
            failures.append({"u": u, "v": v, "error": str(exc)})
            continue
        if huv != hu + hv or not s.iso.codomain.contains(hu):
            failures.append({"u": u, "v": v})
    return failures


@_suite("pseudo_closure")
def _pseudo_closure(s: _Sample) -> list[dict]:
    """The pseudo-unit complement is a subsemigroup, absorbs translation
    by the quotient group of the pseudo-units, and the pseudo-units
    order each other totally (checked on the domain monoid)."""
    spec, window, count = s.iso.domain, s.cfg.window, s.cfg.sample_count
    analytic = PseudoUnitStatus.PSEUDO_UNIT_ANALYTIC
    dom_val = s.iso.domain_valuation
    # the certified pseudo-unit submonoid splits the window exactly
    val, comp = [], []
    for u in s.pool:
        (val if dom_val.contains(u) else comp).append(u)

    failures = []
    q_pool = []
    if comp and dom_val.quotient_generators():
        # a valuation monoid's quotient group is V | -V, and the window is
        # symmetric, so the group's window points are V's and their negatives;
        # a trivial quotient group gives no translation case
        members = elements_in_window(dom_val, window)
        q_pool = sorted({*members, *(-u for u in members)}, key=GroupElement.key)
    for _ in range(count if comp else 0):
        a, b = s.rng.choice(comp), s.rng.choice(comp)
        if pseudo_unit(spec, a + b).status is analytic:
            failures.append({"a": a, "b": b, "law": "product"})
        if q_pool:
            q = s.rng.choice(q_pool)
            if not spec.contains(a + q) or pseudo_unit(spec, a + q).status is analytic:
                failures.append({"a": a, "q": q, "law": "translation"})
    for _ in range(count):
        a, b = s.rng.choice(val), s.rng.choice(val)
        if not (dom_val.contains(a - b) or dom_val.contains(b - a)):
            failures.append({"a": a, "b": b, "law": "valuation"})
    s.cases = count * (1 + bool(comp) + bool(q_pool))
    return failures


#: Suites whose hypothesis needs a non-trivial unit or a finite-order
#: member, with the note of their NOT_APPLICABLE report on a reduced domain.
_EMPTY_ON_REDUCED = {
    "pullback_unit_inverses": "domain is reduced: no nontrivial units exist to test",
    "torsion_products": (
        "domain has no finite-order members (reduced cancellative monoids are torsion-free)"
    ),
    "units_not_reversed": "domain is reduced: no nontrivial units exist, the hypothesis is empty",
    "nothing_reversed": "domain is reduced: the non-trivial-unit hypothesis is empty",
}


def run_suite(name: str, iso: TranslationIso, cfg: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Run one named suite against a constructed isomorphism.

    The suites of ``_EMPTY_ON_REDUCED`` are answered from the domain's
    ``is_reduced()``.  Every other suite body gets the stream
    ``random.Random(f"{seed}:{name}")``, the domain's window members and
    their non-identity part; with no non-identity member it runs no case.
    """
    if name in _EMPTY_ON_REDUCED:
        if not iso.domain.is_reduced():
            raise ValueError(
                f"suite {name!r} is decided for reduced domains only; "
                f"{iso.domain.label!r} is not reduced"
            )
        note = _EMPTY_ON_REDUCED[name]
        return SuiteReport(name, _scope(iso), 0, 0, (), Verdict.NOT_APPLICABLE, note)
    if name not in _BODIES:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    pool = elements_in_window(iso.domain, cfg.window)
    # the pool is sorted by key() and holds the identity once
    i = bisect_left(pool, iso.domain.identity().key(), key=GroupElement.key)
    nonid = pool[:i] + pool[i + 1 :]
    if not nonid:
        return _report(name, _scope(iso), 0, 0, [])
    s = _Sample(iso, cfg, random.Random(f"{cfg.seed}:{name}"), pool, nonid, cfg.sample_count)
    failures = _BODIES[name](s)
    return _report(name, _scope(iso), s.cases, s.skips, failures, s.note)


#: Every suite name, sorted: the order ``verify_iso`` runs them in.
SUITE_NAMES: tuple[str, ...] = tuple(sorted((*_BODIES, *_EMPTY_ON_REDUCED)))


def verify_iso(
    iso: TranslationIso,
    cfg: SuiteConfig = SuiteConfig(),
    names: Iterable[str] | None = None,
) -> list[SuiteReport]:
    """Run the requested suites (all by default) once each, by suite name."""
    selected = sorted(set(names)) if names is not None else SUITE_NAMES
    return [run_suite(name, iso, cfg) for name in selected]


# ---------------------------------------------------------------------------
# Packaged scenarios.
# ---------------------------------------------------------------------------

_Z4 = GroupSignature(4)


def planar_pair():
    """The lexicographic half-plane and the sqrt(2)-cone inside Z^2."""
    return half_plane_lex(), irrational_cone(QuadraticSurd(0, 1, 1, 2), label="cone-sqrt2")


def planar_iso() -> TranslationIso:
    h, k = planar_pair()
    return build_translation_iso(h, k)


def rank4_pair(tampered: bool = False):
    """Two glued monoids inside Z^4 sharing the same complement.

    Both stack a planar valuation monoid on coordinates (0, 1) over the
    complement generated additively by the basis vectors e2, e3 over the
    base subgroup spanned by e0, e1.  The domain uses the lexicographic
    half-plane, the codomain the sqrt(2)-cone; with ``tampered`` the
    cone's slope is silently replaced by the rational 3/2, which puts
    lattice points on the boundary and destroys reducedness.
    """
    complement = ComplementSpec(
        _Z4,
        base_subgroup=(_Z4.basis_element(0), _Z4.basis_element(1)),
        positive_generators=(_Z4.basis_element(2), _Z4.basis_element(3)),
    )
    h_val = half_plane_lex(_Z4, (0, 1), label="rank4-halfplane")
    if tampered:
        slope = QuadraticSurd(3, 0, 2, 2)
        k_val = IrrationalCone(_Z4, (0, 1), slope, label="rank4-cone-tampered")
    else:
        k_val = irrational_cone(QuadraticSurd(0, 1, 1, 2), _Z4, (0, 1), label="rank4-cone")
    h = composite(h_val, complement, label="rank4-H")
    k = composite(k_val, complement, label="rank4-K")
    return h, k


def run_rank4_example(cfg: SuiteConfig = SuiteConfig(), tampered: bool = False) -> SuiteReport:
    """Four-part verification of the packaged rank-4 scenario.

    (i)   the pseudo-unit decomposition of the domain recovers exactly
          its valuation part within the window;
    (ii)  the first basis vector is irreducible in the domain;
    (iii) every non-identity member of the codomain's valuation part in
          the window factors into two non-units (witnesses verified);
    (iv)  the translation isomorphism builds and its product law holds
          on sampled pairs.
    """
    h, k = rank4_pair(tampered=tampered)
    failures: list[dict] = []
    cases = 0
    window = cfg.window

    # (i) decomposition recovers the valuation part
    report = decompose(h, window)
    cases += 1
    if report.pseudo_units != elements_in_window(h.valuation_part, window):
        failures.append({"check": "decomposition", "detail": "pseudo-units != valuation part"})

    # (ii) the (1,0)-image is irreducible in the domain
    cases += 1
    e0 = _Z4.basis_element(0)
    verdict = is_irreducible(h, e0, window)
    if verdict.status is not IrreducibleStatus.IRREDUCIBLE_ANALYTIC:
        failures.append({"check": "irreducible-generator", "status": verdict.status})

    # (iii) the codomain's valuation part has no irreducible members
    for u in elements_in_window(k.valuation_part, window):
        if u.is_identity():
            continue
        cases += 1
        try:
            v = is_irreducible(k, u, window)
        except ValueError as exc:
            # a unit where none should exist, or a membership defect
            failures.append(
                {"check": "cone-reducibility", "element": u, "error": str(exc)}
            )
            continue
        if v.status is not IrreducibleStatus.REDUCIBLE:
            failures.append({"check": "cone-reducibility", "element": u})
            continue
        f1, f2 = v.factors
        if f1 + f2 != u or not k.contains(f1) or not k.contains(f2):
            failures.append({"check": "cone-witness", "element": u})

    # (iv) the translation isomorphism exists and respects products
    cases += 1
    try:
        iso = build_translation_iso(h, k)
    except ApplicabilityError as exc:
        failures.append({"check": "iso-applicability", "condition": exc.condition, "error": str(exc)})
    else:
        hom = run_suite("homomorphism", iso, cfg)
        cases += hom.cases
        failures.extend(
            {"check": "iso-homomorphism", **f} for f in hom.failures
        )

    scope = "packaged rank-4 scenario" + (" (tampered)" if tampered else "")
    return _report("example_rank4", scope, cases, 0, failures)


def format_reports(reports: Iterable[SuiteReport], fmt: str = "human") -> str:
    """Render reports as canonical JSON or as a fixed-width table."""
    reports = list(reports)
    if fmt == "json":
        return json.dumps(
            [r.to_json_dict() for r in reports], sort_keys=True, indent=2
        ) + "\n"
    width = max((len(r.suite) for r in reports), default=10)
    lines = []
    for r in reports:
        lines.append(
            f"{r.suite:<{width}}  {r.verdict:<14} cases={r.cases:<7} "
            f"skips={r.trivial_skips:<5} failures={len(r.failures)}"
            + (f"  ({r.note})" if r.note else "")
        )
    return "\n".join(lines) + "\n"
