"""Translation isomorphisms f(X) = a + X between power monoids.

For suitable reduced monoids H and K inside the same ambient group, the
map sending X to its unique translate a + X that lands in the power
monoid of K is an isomorphism between the reduced finitary power
monoids of H and K.  The translate is computed from the pseudo-unit
submonoids: a is the negation of the minimum of X's pseudo-unit part in
the total divisibility order of K's pseudo-unit submonoid.

Applicability is certified structurally before any set is mapped:

* both monoids reduced (certified per family, never searched);
* either both are analytic valuation families with equal quotient
  groups, or both are composites sharing the complement data with
  valuation parts of equal quotient groups, or the two specs are
  structurally identical.

The pullback g (the element map with f({1, a}) = {1, g(a)}) is cached;
the cache is pure memoization and never observable.

Elements of infinite order are classified by how f acts on the chain
{1, a, a^3}: fixing it pointwise up to pullback ("not reversed") or
flipping it through the reflection about its maximum ("reversed").  The
reversed/non-reversed split is relative to the constructed isomorphism;
no canonicity across different isomorphisms of the same pair is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .ambient import GroupElement, INFINITE, subgroups_equal
from .monoids import (
    Composite,
    MonoidSpec,
    is_analytic_valuation_family,
)
from .powersets import FinSubset1, MembershipError, set_product
from .structure import pseudo_unit_submonoid

__all__ = [
    "ApplicabilityError",
    "TranslationCheckError",
    "DichotomyViolationError",
    "ReversedStatus",
    "ReversedClassification",
    "TranslationIso",
    "valuation_min",
    "build_translation_iso",
    "apply_iso",
    "pullback",
    "classify_reversed",
    "is_reversed",
    "decomposition_map",
    "translation_element",
]


class ApplicabilityError(ValueError):
    """The monoid pair does not fit the translation-isomorphism template."""

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(f"APPLICABILITY_FAILED [{condition}]: {message}")


class TranslationCheckError(RuntimeError):
    """An internal postcondition failed; the applicability certificate lied."""


class DichotomyViolationError(RuntimeError):
    """f({1,a,a^3}) matched neither admissible pattern; the map is not an
    isomorphism (or the certificate is wrong)."""


def valuation_min(k: MonoidSpec, s: Iterable[GroupElement]) -> GroupElement:
    """The unique m in S with every s - m a member of K.

    K's divisibility order (u <= v iff v - u in K) is total on its
    quotient group because K is a valuation monoid, so the minimum
    exists and is unique for finite nonempty S inside that group.
    """
    elems = list(s)
    if not elems:
        raise ValueError("valuation_min needs a nonempty set")
    m = elems[0]
    for cand in elems[1:]:
        if k.contains(m - cand):
            m = cand
    for cand in elems:
        if not k.contains(cand - m):
            raise ValueError(
                f"{k.label!r} does not totally order the given set: "
                f"{cand!r} and {m!r} are incomparable"
            )
    return m


@dataclass(frozen=True, slots=True)
class TranslationIso:
    """The isomorphism X -> a + X with its applicability certificate."""

    domain: MonoidSpec
    codomain: MonoidSpec
    domain_valuation: MonoidSpec | None
    codomain_valuation: MonoidSpec | None
    identical_pair: bool
    certificate: str
    _pullback_cache: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __call__(self, x: FinSubset1) -> FinSubset1:
        return apply_iso(self, x)


def _require_reduced(spec: MonoidSpec, side: str) -> None:
    if not spec.is_reduced():
        raise ApplicabilityError(
            f"{side}-not-reduced", f"{side} monoid {spec.label!r} is not reduced"
        )


def build_translation_iso(h: MonoidSpec, k: MonoidSpec) -> TranslationIso:
    """Certify the pair (H, K) and return the translation isomorphism.

    Checks run in a fixed order and the first violated condition is
    reported: ambient signatures equal, H reduced, K reduced, then one
    of the three templates (identical pair / valuation pair with equal
    quotient groups / composite pair sharing complement data with
    valuation parts of equal quotient groups).
    """
    if h.signature != k.signature:
        raise ApplicabilityError(
            "ambient-mismatch",
            f"ambient signatures differ: {h.signature} vs {k.signature}",
        )
    _require_reduced(h, "domain")
    _require_reduced(k, "codomain")
    h_v = pseudo_unit_submonoid(h)
    k_v = pseudo_unit_submonoid(k)
    if h == k:
        return TranslationIso(h, k, h_v, k_v, True, "identical-pair")
    if is_analytic_valuation_family(h) and is_analytic_valuation_family(k):
        if not subgroups_equal(h.signature, h.quotient_generators(), k.quotient_generators()):
            raise ApplicabilityError(
                "quotient-groups-differ",
                "valuation pair has different quotient groups inside the ambient group",
            )
        return TranslationIso(h, k, h_v, k_v, False, "valuation-pair")
    if isinstance(h, Composite) and isinstance(k, Composite):
        if h.complement_part != k.complement_part:
            raise ApplicabilityError(
                "complement-not-shared",
                "composite pair must share the complement data exactly",
            )
        if not subgroups_equal(
            h.signature,
            h.valuation_part.quotient_generators(),
            k.valuation_part.quotient_generators(),
        ):
            raise ApplicabilityError(
                "quotient-groups-differ",
                "valuation parts have different quotient groups",
            )
        return TranslationIso(h, k, h_v, k_v, False, "composite-pair")
    raise ApplicabilityError(
        "template-mismatch",
        f"domain {h.label!r} is neither a valuation monoid nor a composite "
        f"sharing complement data with {k.label!r} (and the specs are not identical)",
    )


def translation_element(f: TranslationIso, x: FinSubset1) -> GroupElement:
    """The unique a with a + X inside the codomain power monoid."""
    if x.monoid != f.domain:
        raise ValueError("set does not live over the isomorphism's domain")
    if f.identical_pair and f.domain_valuation is None:
        return f.domain.signature.identity()
    s = [u for u in x.elements if f.domain_valuation.contains(u)]
    m = valuation_min(f.codomain_valuation, s)
    return -m


def apply_iso(f: TranslationIso, x: FinSubset1) -> FinSubset1:
    """Map X to a + X and verify the image lands in the codomain."""
    a = translation_element(f, x)
    translated = tuple(a + u for u in x.elements)
    try:
        image = FinSubset1.make(f.codomain, translated)
    except MembershipError as exc:
        raise TranslationCheckError(
            f"translate {a!r} of {x!r} left the codomain at {exc.element!r}; "
            "the applicability certificate is wrong"
        ) from exc
    if len(image) != len(x):
        raise TranslationCheckError("translation collapsed elements; ambient arithmetic broken")
    return image


def pullback(f: TranslationIso, a: GroupElement) -> GroupElement:
    """g(a): the non-identity element of f({1, a}), with g(1) = 1."""
    if a.is_identity():
        return a
    cached = f._pullback_cache.get(a)
    if cached is not None:
        return cached
    pair = FinSubset1.make(f.domain, (f.domain.identity(), a))
    image = apply_iso(f, pair)
    others = [u for u in image.elements if not u.is_identity()]
    if len(others) != 1:
        raise TranslationCheckError(f"image of a 2-set was not a 2-set: {image!r}")
    result = others[0]
    f._pullback_cache[a] = result
    return result


class ReversedStatus(str, Enum):
    REVERSED = "REVERSED"
    NOT_REVERSED = "NOT_REVERSED"


@dataclass(frozen=True, slots=True)
class ReversedClassification:
    element: GroupElement
    status: ReversedStatus


def classify_reversed(f: TranslationIso, a: GroupElement) -> ReversedClassification:
    """Does f act on the powers of a as the identity or as the
    reflection about the maximum?

    Decided exactly from the image of {1, a, a^3}: the image must be
    {1, x, x^3} (not reversed) or {1, x^2, x^3} (reversed) for
    x = g(a); any other image is an implementation error, not a verdict.
    Only infinite-order elements carry the classification.
    """
    if a.is_identity():
        raise ValueError("the identity is not classified")
    if a.order() is not INFINITE:
        raise ValueError(f"{a!r} has finite order; only infinite-order elements are classified")
    if not f.domain.contains(a):
        raise ValueError(f"{a!r} is not a member of the domain")
    chain = FinSubset1.make(f.domain, (f.domain.identity(), a, a.scale(3)))
    image = set(apply_iso(f, chain).elements)
    x = pullback(f, a)
    identity = f.codomain.identity()
    if image == {identity, x, x.scale(3)}:
        return ReversedClassification(a, ReversedStatus.NOT_REVERSED)
    if image == {identity, x.scale(2), x.scale(3)}:
        return ReversedClassification(a, ReversedStatus.REVERSED)
    raise DichotomyViolationError(
        f"image of the power chain of {a!r} is {sorted(image, key=GroupElement.key)!r}, "
        "matching neither admissible pattern"
    )


def is_reversed(f: TranslationIso, a: GroupElement) -> bool:
    """Is a reversed?  ``classify_reversed`` decides infinite-order
    members; the identity and other finite-order members are not reversed."""
    if a.order() is not INFINITE:
        # finite-order members multiply through the pullback unchanged
        return False
    return classify_reversed(f, a).status is ReversedStatus.REVERSED


def decomposition_map(f: TranslationIso, u: GroupElement) -> GroupElement:
    """The isomorphism h from (non-reversed part) | (reversed part)^-1
    onto the codomain: h = g on the former, h(u) = g(-u) on the latter.
    """
    if u.is_identity():
        return f.codomain.identity()
    if f.domain.contains(u):
        if not is_reversed(f, u):
            return pullback(f, u)
        raise ValueError(
            f"{u!r} is reversed, so it belongs to neither the non-reversed "
            "part nor the inverted reversed part"
        )
    if f.domain.contains(-u) and is_reversed(f, -u):
        return pullback(f, -u)
    raise ValueError(f"{u!r} is outside the domain of the decomposition map")
