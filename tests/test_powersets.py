import copy
import itertools
import pickle
import types
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powmon.ambient import GroupElement, GroupSignature
from powmon.cli import main
from powmon.monoids import (
    ComplementSpec,
    FullN0,
    Window,
    ambient_window,
    composite,
    elements_in_window,
    free_generated,
    full_n0,
    half_plane_lex,
    numerical,
)
from powmon.powersets import (
    FinSubset1,
    MembershipError,
    MonoidMismatchError,
    _byte_elements,
    _from_mask,
    _mask,
    _masked,
    divides,
    quotient_multiplicity,
    quotients,
    reversion,
    set_power,
    set_product,
)
from powmon.suites import rank4_pair

Z1 = GroupSignature(1)
Z2 = GroupSignature(2)


def subsets_of_range(limit, n0):
    """All X <= {0..limit} containing 0, as FinSubset1 over N0."""
    rest = list(range(1, limit + 1))
    out = []
    for size in range(len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            out.append(FinSubset1.from_ints(n0, (0,) + combo))
    return out


def test_make_canonical(n0):
    x = FinSubset1.from_ints(n0, [3, 1, 3, 0])
    assert x.ints() == (0, 1, 3)
    # identity is inserted automatically
    assert FinSubset1.from_ints(n0, [2]).ints() == (0, 2)


def test_from_ints_refuses_non_integers(n0):
    # True == 1, but a bool is no coordinate: it would print and serialise as true
    for values in ([True, 2], [0, 2.0]):
        with pytest.raises(TypeError):
            FinSubset1.from_ints(n0, values)


def test_make_rejects_non_members(num23):
    with pytest.raises(MembershipError) as err:
        FinSubset1.from_ints(num23, [0, 1])
    assert "1" in str(err.value)


class CountingMonoid:
    """A monoid that records every element it is asked about."""

    def __init__(self, spec):
        self.spec, self.label, self.asked = spec, spec.label, []

    def identity(self):
        return self.spec.identity()

    def contains(self, u):
        self.asked.append(u)
        return self.spec.contains(u)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([full_n0(), numerical([3, 5, 7]), numerical([2, 3])]),
    st.lists(st.integers(-3, 12), max_size=6),
)
@example(full_n0(), [0, 0, 4])  # a second, equal identity object collapses onto the first
@example(numerical([3, 5, 7]), [5, 4, 1])  # 1 and 4 fail: 1 comes first in sorted order
def test_make_checks_each_distinct_member_once_in_order(spec, values):
    monoid = CountingMonoid(spec)
    # a fresh element object for every value, identities included
    elements = [Z1.element(v) for v in values]
    distinct = sorted(set(values) | {0})
    failing = [v for v in distinct if not spec.contains(Z1.element(v))]
    if failing:
        with pytest.raises(MembershipError) as err:
            FinSubset1.make(monoid, elements)
        assert err.value.element == Z1.element(failing[0])
        asked = [v for v in distinct if v <= failing[0]]
    else:
        x = FinSubset1.make(monoid, elements)
        assert x.ints() == tuple(distinct)
        assert x.elements[0] is spec.identity()
        asked = distinct
    # the identity is never asked about; every other member once, sorted
    assert [u.free[0] for u in monoid.asked] == [v for v in asked if v != 0]


def test_product_examples(n0):
    x = FinSubset1.from_ints(n0, [0, 1])
    y = FinSubset1.from_ints(n0, [0, 2])
    assert (x * y).ints() == (0, 1, 2, 3)
    one = FinSubset1.from_ints(n0, [0])
    z = FinSubset1.from_ints(n0, [0, 5])
    assert (one * z).ints() == (0, 5)
    assert one * z == z


def test_product_two_generators():
    # {1,a}*{1,b} = {1, a, b, ab} for independent a, b
    m = free_generated(Z2, (Z2.element((1, 0)), Z2.element((0, 1))))
    a, b = Z2.element((1, 0)), Z2.element((0, 1))
    x = FinSubset1.make(m, [m.identity(), a])
    y = FinSubset1.make(m, [m.identity(), b])
    assert set((x * y).elements) == {m.identity(), a, b, a + b}


def test_product_monoid_mismatch(n0, num23):
    with pytest.raises(MonoidMismatchError):
        set_product(FinSubset1.from_ints(n0, [0]), FinSubset1.from_ints(num23, [0]))


def test_sets_over_a_relabeled_copy_multiply(n0, num23):
    # a label names a spec, it is not part of it
    copy = numerical([3, 2], "copy")
    x, y = FinSubset1.from_ints(num23, [0, 2]), FinSubset1.from_ints(copy, [0, 3])
    assert set_product(x, y).ints() == set_product(y, x).ints() == (0, 2, 3, 5)
    # another family is another monoid, whatever the labels
    with pytest.raises(MonoidMismatchError):
        set_product(FinSubset1.from_ints(full_n0("<2,3>"), [0, 2]), x)


def test_power_examples(n0):
    x = FinSubset1.from_ints(n0, [0, 1])
    # oracle: direct expansion {0,1}+{0,1}+{0,1}
    expanded = {a + b + c for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    assert sorted(expanded) == [0, 1, 2, 3]
    assert (x**3).ints() == (0, 1, 2, 3)
    assert (x**0).ints() == (0,)
    assert set_power(x, 1) == x
    # repeated squaring agrees with repeated multiplication
    y = FinSubset1.from_ints(n0, [0, 1, 3])
    expected = FinSubset1.from_ints(n0, [0])
    for n in range(10):
        assert set_power(y, n) == expected
        expected = expected * y


@pytest.mark.parametrize("n", [2.5, True, "2"])
def test_power_refuses_a_non_integer_exponent(n0, n):
    with pytest.raises(ValueError, match="integer exponent"):
        set_power(FinSubset1.from_ints(n0, [0, 1]), n)


def test_power_cyclic_group():
    sig = GroupSignature(0, (3,))
    m = free_generated(sig, (sig.element((), (1,)),))
    a = sig.element((), (1,))
    x = FinSubset1.make(m, [m.identity(), a])
    cube = set_power(x, 3)
    assert set(cube.elements) == {m.identity(), a, a.scale(2)}


def test_divides_requires_subset(n0):
    x = FinSubset1.from_ints(n0, [0, 4])
    y = FinSubset1.from_ints(n0, [0, 1, 2])
    assert divides(x, y) is None
    # in the group Z, {0,1} + {-1} = {-1,0}, but {-1} lacks the identity
    z = free_generated(Z1, (Z1.element(1), Z1.element(-1)))
    assert divides(FinSubset1.from_ints(z, [0, 1]), FinSubset1.from_ints(z, [-1, 0])) is None


def test_divides_examples(n0):
    x = FinSubset1.from_ints(n0, [0, 1])
    y = FinSubset1.from_ints(n0, [0, 1, 2])
    z = divides(x, y)
    assert z is not None and z.ints() == (0, 1)
    x2 = FinSubset1.from_ints(n0, [0, 2])
    y2 = FinSubset1.from_ints(n0, [0, 1, 2, 3])
    z2 = divides(x2, y2)
    assert z2 is not None and z2.ints() == (0, 1)
    assert set_product(x2, z2) == y2


def test_divides_large_target_maximal_witness(n0):
    x = FinSubset1.from_ints(n0, [0, 1])
    y = FinSubset1.from_ints(n0, range(20))
    z = divides(x, y)
    assert z is not None and z.ints() == tuple(range(19))
    assert set_product(x, z) == y
    # no larger witness: adding any other member of Y overshoots
    for w in set(y.elements) - set(z.elements):
        assert set_product(x, FinSubset1.make(n0, z.elements + (w,))) != y


def test_divides_witness_recomposes_exhaustive(n0):
    # oracle: every identity-containing Z inside {0..5}; X | Y iff some Z has
    # X + Z = Y, and the largest witness is the union of all of them
    sets = [frozenset(s.ints()) for s in subsets_of_range(5, n0)]
    for x in sets:
        for y in sets:
            witnesses = [z for z in sets if {a + b for a in x for b in z} == y]
            got = divides(FinSubset1.from_ints(n0, x), FinSubset1.from_ints(n0, y))
            if witnesses:
                assert got is not None and set(got.ints()) == set().union(*witnesses)
            else:
                assert got is None


def test_quotients_example(n0):
    x = FinSubset1.from_ints(n0, [0, 1, 3])
    # oracle: direct enumeration per candidate a
    members = {0, 1, 3}
    expected = {}
    for a in range(1, 4):
        n = sum(1 for b in members if a + b in members)
        if n:
            expected[a] = n
    assert expected == {1: 1, 2: 1, 3: 1}
    report = quotients(x)
    assert {e.free[0]: n for e, n in report.entries} == expected


def test_quotients_trivial(n0):
    assert len(quotients(FinSubset1.from_ints(n0, [0]))) == 0


def test_quotients_cardinality_identity(n0):
    x = FinSubset1.from_ints(n0, [0, 1, 3])
    a = FinSubset1.from_ints(n0, [0, 2])
    assert len(set_product(a, x)) == 5 == 2 * len(x) - 1


def test_quotients_include_nonmembers_of_x(n0):
    # 2 = 3 - 1 is a quotient of {0,1,3} though 2 is not in the set
    x = FinSubset1.from_ints(n0, [0, 1, 3])
    assert quotient_multiplicity(x, Z1.element(2)) == 1


def test_quotients_respect_monoid(num23):
    # over <2,3>, the difference 1 = 3 - 2 is outside the monoid: no entry
    x = FinSubset1.from_ints(num23, [0, 2, 3])
    report = quotients(x)
    assert Z1.element(1) not in [a for a, _ in report.entries]
    assert dict(report.entries)[Z1.element(2)] == 1


Z_MOD3 = GroupSignature(1, (3,))
# Z + Z/3 generated by the graded pair (1;1), (2;0)
FREE_Z_Z3 = free_generated(Z_MOD3, (Z_MOD3.element((1,), (1,)), Z_MOD3.element((2,), (0,))))
QUOTIENT_MONOIDS = (full_n0(), half_plane_lex(), FREE_Z_Z3)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(QUOTIENT_MONOIDS).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.sampled_from(elements_in_window(m, Window(3))), max_size=5))))
def test_quotients_match_definition(case):
    # every a != 0 of the monoid with #{b in X : a + b in X} > 0, in key
    # order; X - X lies in the window of bound 6
    monoid, members = case
    x = FinSubset1.make(monoid, members)
    count = {
        a: sum(a + b in x for b in x)
        for a in ambient_window(monoid.signature, Window(6))
        if not a.is_identity() and monoid.contains(a)
    }
    assert quotients(x).entries == tuple((a, n) for a, n in count.items() if n)
    for a, n in count.items():
        assert quotient_multiplicity(x, a) == n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from((full_n0(), numerical([2, 3]), half_plane_lex())).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.sampled_from(elements_in_window(m, Window(3))),
                                             max_size=5))))
@example((full_n0(), [Z1.element(1), Z1.element(3)]))
def test_quotient_multiplicity_agrees_with_quotients(case):
    # over the whole window: members, non-members of the monoid and the
    # identity, which is no quotient although a + b lies in X for every b
    monoid, members = case
    x = FinSubset1.make(monoid, members)
    counts = dict(quotients(x).entries)
    for a in ambient_window(monoid.signature, Window(3)):
        assert quotient_multiplicity(x, a) == counts.get(a, 0)


Z_GROUP = free_generated(Z1, (Z1.element(1), Z1.element(-1)), "Z")
FREE_Z2 = free_generated(Z2, (Z2.element((1, 0)), Z2.element((1, 1)), Z2.element((1, 3))))
KERNEL_CASES = tuple(
    (monoid, tuple(u for u in pool if monoid.contains(u)))
    for monoid, pool in (
        (Z_GROUP, map(Z1.element, range(-8, 25))),
        (full_n0(), map(Z1.element, range(25))),
        (numerical([2, 3]), map(Z1.element, range(25))),
        (FREE_Z_Z3, ambient_window(Z_MOD3, Window(4))),
        (FREE_Z2, ambient_window(Z2, Window(4))),
    )
)


def reference_product(xs, ys):
    return tuple(sorted({u + v for u in xs for v in ys}, key=GroupElement.key))


@st.composite
def kernel_cases(draw):
    monoid, members = draw(st.sampled_from(KERNEL_CASES))
    x, y = (FinSubset1.make(monoid, draw(st.lists(st.sampled_from(members), max_size=8)))
            for _ in range(2))
    return x, y, draw(st.integers(0, 4)), draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_cases())
def test_set_operations_match_componentwise_reference(case):
    # every set operation, on masks or not, over Z, Z + Z/3 and Z^2,
    # against a reference that adds GroupElements
    x, y, n, divisible = case
    monoid = x.monoid
    assert set_product(x, y).elements == reference_product(x.elements, y.elements)
    power = (monoid.identity(),)
    for _ in range(n):
        power = reference_product(power, x.elements)
    assert set_power(x, n).elements == power
    target = FinSubset1(monoid, reference_product(x.elements, y.elements)) if divisible else y
    members = set(target.elements)
    zstar = tuple(w for w in target.elements if all(u + w in members for u in x.elements))
    exact = set(x.elements) <= members and reference_product(x.elements, zstar) == target.elements
    witness = divides(x, target)
    assert (None if witness is None else witness.elements) == (zstar if exact else None)
    counts = Counter(u - v for u in x.elements for v in x.elements if u != v)
    assert quotients(x).entries == tuple(
        (a, counts[a]) for a in sorted(counts, key=GroupElement.key) if monoid.contains(a)
    )
    if isinstance(monoid, FullN0):
        top = x.elements[-1]
        assert reversion(x).elements == tuple(top - u for u in reversed(x.elements))


def test_generic_products_match_componentwise_reference():
    # the generic product sums coordinate tuples, reducing their torsion
    # before it drops repeats: over Z^3 + Z/2, (0,1,0;1) + (0,1,0;1) and
    # (0,2,0;0) + 0 are two raw sums of one member
    h = rank4_pair()[0]
    pool = elements_in_window(h, Window(1))
    sig = GroupSignature(3, (2,))
    m, t = sig.element((0, 1, 0), (0,)), sig.element((0, 1, 0), (1,))
    comp = ComplementSpec(sig, (sig.basis_element(0), sig.basis_element(2)), (m, t))
    glued = composite(half_plane_lex(sig, (0, 2)), comp)
    cases = [
        (h, pool[::5], pool[1::7]),
        (h, pool[-6:], pool[:4] + pool[-3:]),
        (glued, [t, m + m], [t]),
        (glued, [t, m + m, sig.basis_element(0)], [t, m, sig.basis_element(2)]),
    ]
    for monoid, xs, ys in cases:
        x, y = FinSubset1.make(monoid, xs), FinSubset1.make(monoid, ys)
        assert set_product(x, y).elements == reference_product(x.elements, y.elements)


def reference_divisor(xs, ys):
    """The largest Z with X*Z = Y by definition, or None."""
    members = set(ys)
    zstar = tuple(w for w in ys if all(u + w in members for u in xs))
    exact = set(xs) <= members and reference_product(xs, zstar) == ys
    return zstar if exact else None


def check_against_reference(p, z, n):
    """Every operation reading the kernel-built set P, against GroupElements."""
    monoid, ps = p.monoid, p.elements
    # the stored (start, mask) pair, read together, spells P's members
    start, m = _mask(p)
    assert tuple(8 * start + i for i in range(m.bit_length()) if m >> i & 1) == p.ints()
    for a, b in ((p, z), (z, p), (p, p)):
        assert set_product(a, b).elements == reference_product(a.elements, b.elements)
    power = (monoid.identity(),)
    for _ in range(n):
        power = reference_product(power, ps)
    assert set_power(p, n).elements == power
    target = set_product(p, z)
    for x, y in ((p, target), (z, target), (p, z)):
        witness = divides(x, y)
        assert (None if witness is None else witness.elements) == reference_divisor(
            x.elements, y.elements)
    counts = Counter(u - v for u in ps for v in ps if u != v)
    assert quotients(p).entries == tuple(
        (a, counts[a]) for a in sorted(counts, key=GroupElement.key) if monoid.contains(a)
    )
    if isinstance(monoid, FullN0):
        rev = tuple(ps[-1] - u for u in reversed(ps))
        assert reversion(p).elements == rev
        assert reversion(reversion(p)) == p


@st.composite
def chained_cases(draw):
    # the three monoids over Z, whose sets take the mask path
    monoid, members = draw(st.sampled_from(KERNEL_CASES[:3]))
    x, y, z = (FinSubset1.make(monoid, draw(st.lists(st.sampled_from(members), max_size=5)))
               for _ in range(3))
    return x, y, z, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(chained_cases())
@example((FinSubset1.from_ints(Z_GROUP, [-1, 3]), FinSubset1.from_ints(Z_GROUP, [-1, 5]),
          FinSubset1.from_ints(Z_GROUP, [-8, 2, 9]), 2))
def test_chained_kernel_results_match_componentwise_reference(case):
    # kernel results fed back into the kernel, which then reads the (start,
    # mask) pair they stored; over Z below 0 (here (-1) + (-1) = -2) a
    # product's stored start -2 lies below min // 8 = -1
    x, y, z, n = case
    xy = set_product(x, y)
    assert xy.elements == reference_product(x.elements, y.elements)
    check_against_reference(xy, z, n)
    xyz = set_product(xy, z)
    check_against_reference(xyz, y, n)
    if isinstance(x.monoid, FullN0):
        check_against_reference(reversion(xy), reversion(x), n)


def test_product_mask_is_stored_from_its_least_byte():
    # {-1,0,3} * {-1,0,5} over the group Z: the mask is built from the
    # factors' start sum (-1) + (-1) = -2 and stored from byte
    # min X // 8 = -2 // 8 = -1, so the stored start is -1, not -2
    p = set_product(FinSubset1.from_ints(Z_GROUP, [-1, 3]), FinSubset1.from_ints(Z_GROUP, [-1, 5]))
    start, m = _mask(p)
    assert start == -1
    members = (-2, -1, 0, 2, 3, 4, 5, 8)
    assert tuple(8 * start + i for i in range(m.bit_length()) if m >> i & 1) == members
    assert p.ints() == members


def test_stored_mask_is_invisible(n0, capsys):
    built = set_product(FinSubset1.from_ints(n0, [0, 1, 3]), FinSubset1.from_ints(n0, [0, 2]))
    made = FinSubset1.make(n0, built.elements)
    assert _mask(built) == (0, 0b101111) and not hasattr(made, "_bits")
    for twin in (made, copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert twin == built and built == twin
        assert hash(twin) == hash(built) and repr(twin) == repr(built) == "{0,1,2,3,5}"
        assert set_product(twin, built) == set_product(built, built)
    printed = []
    for text in ("{0,1,3}*{0,2}", repr(made)):
        assert main(["eval", text, "--format", "json"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


@st.composite
def mask_cases(draw):
    """Members of a set over the group Z, and how many zero low bytes the
    mask handed to ``_from_mask`` carries below byte min X // 8."""
    values = draw(st.sets(st.integers(-40, 60), max_size=8))
    return tuple(sorted(values | {0})), draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mask_cases())
@example(((-1, 0, 3), 0))  # stored start -1
@example(((0, 5, 17), 2))  # the caller's start lies two zero bytes below
def test_kernel_result_is_built_from_its_least_byte(case):
    # _from_mask sets the three slots of a FinSubset1 through their
    # descriptors; this layout is what it relies on
    assert FinSubset1.__slots__ == ("monoid", "elements", "_bits")
    for name in FinSubset1.__slots__:
        assert type(getattr(FinSubset1, name)) is types.MemberDescriptorType
    members, zero_bytes = case
    least = members[0] >> 3
    start = least - zero_bytes
    x = _from_mask(Z_GROUP, sum(1 << (v - 8 * start) for v in members), start)
    assert type(x) is FinSubset1 and x.ints() == members
    stored, m = _mask(x)
    assert (stored, m) == (least, sum(1 << (v - 8 * least) for v in members))
    assert tuple(8 * stored + i for i in range(m.bit_length()) if m >> i & 1) == members
    made = FinSubset1.from_ints(Z_GROUP, members)
    assert x == made and made == x
    assert hash(x) == hash(made) and repr(x) == repr(made)


def test_byte_element_table_is_bounded():
    maxsize = _byte_elements.cache_info().maxsize
    keys = [(index, byte) for index in range(-2, maxsize // 255 + 2) for byte in range(1, 256)]
    assert len(keys) > maxsize
    for index, byte in keys:
        members = tuple(8 * index + i for i in range(8) if byte >> i & 1)
        assert _byte_elements(index, byte) == tuple(GroupElement(Z1, (v,)) for v in members)
    assert _byte_elements.cache_info().currsize <= maxsize
    # entries evicted by the sweep come back equal
    assert _byte_elements(-2, 0b101) == (GroupElement(Z1, (-16,)), GroupElement(Z1, (-14,)))


def test_reversion_examples(n0):
    assert reversion(FinSubset1.from_ints(n0, [0, 1, 3])).ints() == (0, 2, 3)
    assert reversion(FinSubset1.from_ints(n0, [0])).ints() == (0,)
    x = FinSubset1.from_ints(n0, [0, 2, 5, 6])
    assert reversion(reversion(x)) == x


def test_reversion_of_every_subset_of_0_to_9(n0):
    # the mask path's bit reversal against the element path max X - X
    for x in subsets_of_range(9, n0):
        assert _masked(x, x)
        top = x.elements[-1]
        assert reversion(x).elements == tuple(top - u for u in reversed(x.elements))
        assert reversion(reversion(x)) == x


def test_reversion_rejects_other_monoids(num23):
    with pytest.raises(MonoidMismatchError):
        reversion(FinSubset1.from_ints(num23, [0, 2]))


def test_monoid_laws_exhaustive_small(n0):
    """Associativity, commutativity and neutrality over all subsets of
    {0..5} containing 0."""
    sets = subsets_of_range(5, n0)
    products = {}
    for i, x in enumerate(sets):
        for j, y in enumerate(sets):
            products[(i, j)] = set_product(x, y)
    one = next(i for i, s in enumerate(sets) if s.ints() == (0,))
    for i in range(len(sets)):
        assert products[(i, one)] == sets[i]
        for j in range(len(sets)):
            assert products[(i, j)] == products[(j, i)]
    for i, x in enumerate(sets):
        for j in range(len(sets)):
            xy = products[(i, j)]
            for k, z in enumerate(sets):
                assert set_product(xy, z) == set_product(x, products[(j, k)])


def test_size_bound_and_union_bound(n0):
    for x in subsets_of_range(4, n0):
        for y in subsets_of_range(4, n0):
            p = set_product(x, y)
            assert len(p) <= len(x) * len(y)
            assert set(x.ints()) | set(y.ints()) <= set(p.ints())


@st.composite
def n0_subsets(draw):
    values = draw(st.sets(st.integers(0, 30), max_size=6))
    return tuple(sorted(values | {0}))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n0_subsets(), n0_subsets())
def test_reversion_is_multiplicative_random(xs, ys):
    from powmon.monoids import full_n0

    n0 = full_n0()
    x = FinSubset1.from_ints(n0, xs)
    y = FinSubset1.from_ints(n0, ys)
    assert reversion(set_product(x, y)) == set_product(reversion(x), reversion(y))


def test_chained_mask_starts_at_its_least_member():
    # a 300-fold product of {-1,0} over -N0: each product's mask is built
    # from its factors' start sum, and the stored mask still starts at
    # byte min X // 8, so it holds at most the span plus 7 bits
    neg_n0 = free_generated(Z1, [Z1.element(-1)])
    chain = FinSubset1.from_ints(neg_n0, [-1, 0])
    for _ in range(299):
        chain = set_product(chain, FinSubset1.from_ints(neg_n0, [-1, 0]))
    assert chain.ints() == tuple(range(-300, 1))
    start, m = _mask(chain)
    assert start == -300 // 8
    assert m.bit_length() <= len(chain) + 7
    assert quotients(chain) == quotients(FinSubset1(neg_n0, chain.elements))


def test_reversion_of_a_sparse_set_takes_the_generic_path(n0):
    x = FinSubset1.from_ints(n0, [0, 10**12])
    assert repr(reversion(x)) == "{0,1000000000000}"
    assert not hasattr(x, "_bits")
