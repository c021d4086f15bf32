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
  groups, or both are composites with the same complement set and
  valuation parts of equal quotient groups, or the two specs are
  structurally identical.

The pullback g (the element map with f({1, a}) = {1, g(a)}) follows the
order rule: g(a) = -a when a lies in V_H and -a in V_K, the pseudo-unit
submonoids, else g(a) = a; the set path ``_image`` is its reference.  It
is cached; the cache is pure memoization and never observable.

Elements of infinite order are classified by how f acts on the chain
{1, a, a^3}: fixing it pointwise up to pullback ("not reversed") or
flipping it through the reflection about its maximum ("reversed").  The
reversed/non-reversed split is relative to the constructed isomorphism;
no canonicity across different isomorphisms of the same pair is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .ambient import GroupElement, INFINITE, subgroup_rows
from .monoids import Composite, MonoidSpec, pseudo_unit_submonoid
from .powersets import FinSubset1, MembershipError, checked_members

__all__ = [
    "ApplicabilityError",
    "TranslationCheckError",
    "DichotomyViolationError",
    "ReversedStatus",
    "TranslationIso",
    "valuation_min",
    "build_translation_iso",
    "apply_iso",
    "pullback",
    "classify_reversed",
    "reversed_by_order",
    "decomposition_map",
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
    exists and is unique for finite nonempty S inside that group.  One
    pass finds it: each element is compared with the least one so far,
    which by transitivity lies below every element already passed.
    """
    elems = list(s)
    if not elems:
        raise ValueError("valuation_min needs a nonempty set")
    m, sig, member = elems[0], k.signature, k._contains_coords
    k._check_element(m)
    for cand in elems[1:]:
        # K's check of cand, so cand - m is over one signature
        k._check_element(cand)
        if member(sig._minus(cand.coords, m.coords)):
            continue
        if not member(sig._minus(m.coords, cand.coords)):
            raise ValueError(
                f"{k.label!r} does not totally order the given set: "
                f"{cand!r} and {m!r} are incomparable"
            )
        m = cand
    return m


@dataclass(frozen=True, slots=True)
class TranslationIso:
    """The isomorphism X -> a + X with its applicability certificate."""

    domain: MonoidSpec
    codomain: MonoidSpec
    domain_valuation: MonoidSpec
    codomain_valuation: MonoidSpec
    certificate: str
    _pullback_cache: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )


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
    quotient groups / composite pair with the same complement set and
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
        return TranslationIso(h, k, h_v, k_v, "identical-pair")
    if h_v is h and k_v is k:
        template = "valuation-pair"
        differ = "valuation pair has different quotient groups inside the ambient group"
    elif isinstance(h, Composite) and isinstance(k, Composite):
        witness = h.complement_part.difference_witness(k.complement_part)
        if witness is not None:
            holder = h if h.complement_part.contains(witness) else k
            raise ApplicabilityError(
                "complement-not-shared",
                f"composite pair must share the complement set: {witness!r} lies "
                f"in the complement of {holder.label!r} only",
            )
        template, differ = "composite-pair", "valuation parts have different quotient groups"
    else:
        kinds = [
            "a valuation monoid" if s_v is s else "a composite" if isinstance(s, Composite)
            else "neither a valuation monoid nor a composite"
            for s, s_v in ((h, h_v), (k, k_v))
        ]
        raise ApplicabilityError(
            "template-mismatch",
            f"domain {h.label!r} is {kinds[0]} and codomain {k.label!r} is {kinds[1]}; "
            "the templates take two valuation monoids, two composites or identical specs",
        )
    # both templates compare the valuation parts' quotient groups (V_H = H for a valuation H)
    sig = h.signature
    if subgroup_rows(sig, h_v.quotient_generators()) != subgroup_rows(sig, k_v.quotient_generators()):
        raise ApplicabilityError("quotient-groups-differ", differ)
    return TranslationIso(h, k, h_v, k_v, template)


def _translation(f: TranslationIso, elements: Sequence[GroupElement]) -> GroupElement:
    """The unique a with a + X inside the codomain, for the domain members
    ``elements`` of X: minus the minimum, in K's order, of X's part in V_H.
    When V_H is H itself (a valuation pair, or an identical pair of a
    valuation monoid), that part is X, as X <= H = V_H: no member is asked."""
    s, v_h = elements, f.domain_valuation
    if v_h is not f.domain:
        # domain members, checked over the signature that V_H shares
        identity = f.domain.identity()
        s = [u for u in elements if u is identity or v_h._contains_coords(u.coords)]
    return -valuation_min(f.codomain_valuation, s)


def _image(f: TranslationIso, elements: tuple[GroupElement, ...]) -> tuple[GroupElement, ...]:
    """a + X, sorted, for the sorted members ``elements`` of a domain set X,
    checked by ``checked_members`` as ``FinSubset1.make`` checks a set
    literal.  As -a is in X, a + X holds the identity and has |X| members;
    a collapse or a missing identity alone changes that count.  The
    reference for ``pullback``."""
    a = _translation(f, elements)
    try:
        image = checked_members(f.codomain, [a + u for u in elements])
    except MembershipError as exc:
        raise TranslationCheckError(
            f"translate {a!r} of {FinSubset1(f.domain, elements)!r} left "
            f"the codomain at {exc.element!r}; the applicability certificate is wrong"
        ) from None
    if len(image) != len(elements):
        raise TranslationCheckError("translation collapsed elements; ambient arithmetic broken")
    return image


def apply_iso(f: TranslationIso, x: FinSubset1) -> FinSubset1:
    """Map X to a + X and verify the image lands in the codomain."""
    if x.monoid != f.domain:
        raise ValueError("set does not live over the isomorphism's domain")
    return FinSubset1(f.codomain, _image(f, x.elements))


def pullback(f: TranslationIso, a: GroupElement) -> GroupElement:
    """g(a): the non-identity element of f({1, a}), with g(1) = 1, read by
    the order rule of ``reversed_by_order`` with no set built; the rule
    gives g(1) = 1, as the identity lies in V_K.  A failed check of the
    set path (V_K holds a or -a for a in V_H; g(a) lies in the codomain)
    falls back to ``_image``, which raises its error."""
    cached = f._pullback_cache.get(a)
    if cached is not None:
        return cached
    if not f.domain.contains(a):
        raise MembershipError(f.domain, a)
    # a is checked: the other three specs are over its signature
    result, v_h, v_k = a, f.domain_valuation, f.codomain_valuation
    if v_h._contains_coords(a.coords):
        # reversed_by_order's question; V_K holds neither under a lying certificate
        neg_a, in_v_k = -a, v_k._contains_coords
        result = neg_a if in_v_k(neg_a.coords) else a if in_v_k(a.coords) else None
    if result is None or not f.codomain._contains_coords(result.coords):
        _image(f, checked_members(f.domain, (a,)))
    f._pullback_cache[a] = result
    return result


class ReversedStatus(str, Enum):
    REVERSED = "REVERSED"
    NOT_REVERSED = "NOT_REVERSED"


def classify_reversed(f: TranslationIso, a: GroupElement) -> ReversedStatus:
    """Does f act on the powers of a as the identity or as the
    reflection about the maximum?

    Decided exactly from the image of {1, a, a^3}: the image must be
    {1, x, x^3} (not reversed) or {1, x^2, x^3} (reversed) for
    x = g(a); any other image is an implementation error, not a verdict.
    Only infinite-order elements carry the classification.  The library
    reads the split from ``reversed_by_order``; this is its reference.
    """
    if a.is_identity():
        raise ValueError("the identity is not classified")
    if a.order() is not INFINITE:
        raise ValueError(f"{a!r} has finite order; only infinite-order elements are classified")
    # a non-member raises MembershipError, a ValueError
    chain = checked_members(f.domain, (a, a.scale(3)))
    # an image matching either pattern lies in the codomain with x, so it
    # needs no membership check of its own
    t = _translation(f, chain)
    image = {t + u for u in chain}
    x = pullback(f, a)
    identity, x3 = f.codomain.identity(), x.scale(3)
    if image == {identity, x, x3}:
        return ReversedStatus.NOT_REVERSED
    if image == {identity, x.scale(2), x3}:
        return ReversedStatus.REVERSED
    raise DichotomyViolationError(
        f"image of the power chain of {a!r} is {sorted(image, key=GroupElement.key)!r}, "
        "matching neither admissible pattern"
    )


def reversed_by_order(f: TranslationIso, u: GroupElement) -> bool:
    """Is the domain member u reversed?  Read from the two certified
    valuation parts, without mapping a set: u is reversed exactly when
    u lies in V_H and -u in V_K.

    Proof.  For u in V_H, the chain X = {0, u, 3u} lies in V_H, so
    ``_translation`` maps it by -min_K(X).  V_K totally orders the
    quotient group, which V_H shares, so exactly one of u and -u lies in
    V_K when u is not the identity.  If u is in V_K, min_K(X) = 0 and f
    fixes X and {0, u}: g(u) = u and f(X) = {0, g(u), 3g(u)}, not
    reversed.  If -u is in V_K, min_K(X) = 3u, f(X) = {-3u, -2u, 0} and
    f({0, u}) = {-u, 0}: g(u) = -u and f(X) = {0, 2g(u), 3g(u)},
    reversed.  A member outside V_H (a complement member) meets V_H in
    no element of its chain but 0, so f fixes its chain and it is never
    reversed.  The identity is not reversed.
    """
    v_h, v_k = f.domain_valuation, f.codomain_valuation
    return v_h.contains(u) and not u.is_identity() and v_k.contains(-u)


def decomposition_map(f: TranslationIso, u: GroupElement) -> GroupElement:
    """The isomorphism h from (non-reversed part) | (reversed part)^-1
    onto the codomain: h = g on the former, h(u) = g(-u) on the latter,
    the parts read from the valuation parts by ``reversed_by_order``.
    By the order rule g fixes every non-reversed member and negates every
    reversed one, so h is the identity and the codomain is that union;
    h still reads ``pullback``, whose checks catch a lying certificate.
    """
    if f.domain.contains(u):
        if not reversed_by_order(f, u):
            return pullback(f, u)
        raise ValueError(
            f"{u!r} is reversed, so it belongs to neither the non-reversed "
            "part nor the inverted reversed part"
        )
    if f.domain.contains(-u) and reversed_by_order(f, -u):
        return pullback(f, -u)
    raise ValueError(f"{u!r} is outside the domain of the decomposition map")
