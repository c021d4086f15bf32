import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powmon.ambient import (
    INFINITE,
    GroupElement,
    GroupSignature,
    SignatureMismatchError,
    hnf_rows,
    kernel_rows,
    lattice_contains,
    lattice_residue,
    residue_rows,
    solve_relations,
    subgroup_rows,
)

Z1 = GroupSignature(1)
Z2 = GroupSignature(2)
Z_MOD6 = GroupSignature(0, (6,))
Z_X_MOD3 = GroupSignature(1, (3,))
Z_X_MOD2 = GroupSignature(1, (2,))


def brute_force_relations(a, b, bound):
    """Oracle: scan |n|, |m| <= bound for n*a + m*b = 0."""
    found = []
    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            if (n, m) != (0, 0) and (a.scale(n) + b.scale(m)).is_identity():
                found.append((n, m))
    return found


def test_compose_componentwise():
    u = Z2.element((1, 2))
    v = Z2.element((3, 4))
    assert u + v == Z2.element((4, 6))


def test_compose_reduces_torsion():
    u = Z_X_MOD3.element((1,), (2,))
    v = Z_X_MOD3.element((0,), (2,))
    assert u + v == Z_X_MOD3.element((1,), (1,))


def test_compose_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        Z1.element(1) + Z2.element((1, 2))
    # binary minus checks the signatures once, with the message of plus
    message = f"cannot combine elements of {Z1} and {Z2}"
    with pytest.raises(SignatureMismatchError) as err:
        Z1.element(1) - Z2.element((1, 2))
    assert str(err.value) == message
    # a torsion-free element meets one with torsion of the same free rank
    for u, v in ((Z1.element(1), Z_X_MOD3.element((1,), (1,))),
                 (Z_X_MOD3.element((1,), (1,)), Z1.element(1))):
        with pytest.raises(SignatureMismatchError):
            u + v
        with pytest.raises(SignatureMismatchError):
            u - v
    # an equal signature that is another object combines as the same group
    assert Z2.element((1, 2)) + GroupSignature(2).element((3, 4)) == Z2.element((4, 6))


def test_inverse_cancels():
    u = Z_X_MOD3.element((7,), (2,))
    assert (u + (-u)).is_identity()
    assert -(-u) == u


def test_scale_examples():
    assert Z2.element((1, 1)).scale(3) == Z2.element((3, 3))
    u = Z2.element((5, -2))
    assert u.scale(0) == Z2.identity()
    # oracle for the torsion case: 2*4 = 8, reduced mod 6
    assert 8 % 6 == 2
    assert Z_MOD6.element((), (2,)).scale(4) == Z_MOD6.element((), (2,))


def test_scale_negative_uses_inverse():
    u = Z2.element((2, -3))
    assert u.scale(-2) == (-u) + (-u)


def test_element_order():
    assert Z2.identity().order() == 1
    # oracle: multiples of 2 mod 6 are 2, 4, 0 -> order 3
    multiples = []
    t = 0
    for _ in range(6):
        t = (t + 2) % 6
        multiples.append(t)
        if t == 0:
            break
    assert len(multiples) == 3
    assert Z_MOD6.element((), (2,)).order() == 3
    assert Z_X_MOD2.element((1,), (0,)).order() is INFINITE
    assert Z_X_MOD2.element((0,), (1,)).order() == 2


def test_solve_relations_standard_basis_trivial():
    lat = solve_relations(Z2.element((1, 0)), Z2.element((0, 1)))
    assert not lat


def test_solve_relations_parallel_vectors():
    a = Z2.element((2, 4))
    b = Z2.element((3, 6))
    # oracle: brute-force all |n|, |m| <= 10, then the minimal relation
    found = brute_force_relations(a, b, 10)
    assert (3, -2) in found
    lat = solve_relations(a, b)
    assert lat == ((3, -2),)
    for rel in found:
        assert lattice_contains(lat, rel)


def test_solve_relations_torsion():
    a = Z_MOD6.element((), (2,))
    b = Z_MOD6.element((), (3,))
    # oracle: enumerate (n, m) mod 6
    sols = {
        (n, m)
        for n in range(6)
        for m in range(6)
        if (2 * n + 3 * m) % 6 == 0
    }
    assert (3, 0) in sols and (0, 2) in sols
    lat = solve_relations(a, b)
    assert lat == ((3, 0), (0, 2))


def test_solve_relations_oracle_equivalence_small():
    rng = random.Random(7)
    sigs = [Z1, Z2, Z_MOD6, Z_X_MOD3]
    for _ in range(120):
        sig = rng.choice(sigs)
        a = sig.element(
            tuple(rng.randint(-3, 3) for _ in range(sig.free_rank)),
            tuple(rng.randint(0, 5) for _ in sig.torsion_orders),
        )
        b = sig.element(
            tuple(rng.randint(-3, 3) for _ in range(sig.free_rank)),
            tuple(rng.randint(0, 5) for _ in sig.torsion_orders),
        )
        lat = solve_relations(a, b)
        # scan far enough to see the lattice's own minimal generators, so
        # triviality and the scan result are exactly equivalent
        bound = max([6] + [abs(c) for gen in lat for c in gen])
        scanned = brute_force_relations(a, b, bound)
        assert (not lat) == (not scanned)
        for rel in scanned:
            assert lattice_contains(lat, rel)
        for gen in lat:
            assert (a.scale(gen[0]) + b.scale(gen[1])).is_identity()


def test_solve_relations_deterministic():
    a = Z2.element((2, 4))
    b = Z2.element((3, 6))
    assert solve_relations(a, b) == solve_relations(a, b)


def test_hnf_canonical_under_row_mixing():
    rng = random.Random(3)
    for _ in range(60):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        base = hnf_rows(rows)
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        # add a random multiple of one row to another: same lattice
        i, j = rng.randrange(3), rng.randrange(3)
        if i != j:
            k = rng.randint(-2, 2)
            mixed[i] = [x + k * y for x, y in zip(mixed[i], mixed[j])]
        assert hnf_rows(mixed) == base


def test_hnf_positive_pivots_and_reduction():
    rows = hnf_rows([[-3, 2], [0, -2]])
    for row in rows:
        pivot = next(x for x in row if x)
        assert pivot > 0
    assert rows == ((3, 0), (0, 2))


@st.composite
def integer_matrices(draw):
    """At most 5 rows of width 1-4, entries in [-9, 9]."""
    width = draw(st.integers(1, 4))
    row = st.lists(st.integers(-9, 9), min_size=width, max_size=width)
    return draw(st.lists(row, max_size=5)), width


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_hnf_invariants(case):
    rows, width = case
    hnf = hnf_rows(rows, width)
    assert hnf_rows(hnf, width) == hnf
    pivots = [next(j for j, x in enumerate(row) if x) for row in hnf]
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, (j, row) in enumerate(zip(pivots, hnf)):
        assert row[j] > 0
        assert all(0 <= above[j] < row[j] for above in hnf[:i])
    # the output spans the input, and the input spans every output row
    basis = residue_rows(hnf)
    assert not any(any(lattice_residue(basis, row)) for row in rows)
    assert all(hnf_rows(rows + [list(row)], width) == hnf for row in hnf)


@st.composite
def spanning_rows_and_vectors(draw):
    """Integer rows of width 1-4 (zero rows and torsion-style rows n*e_j
    among them, the empty list included) and a vector that is often, but
    not always, in their span."""
    width = draw(st.integers(1, 4))
    entry = st.integers(-9, 9)
    vector = st.lists(entry, min_size=width, max_size=width)
    torsion_row = st.builds(
        lambda j, n: [n * (i == j) for i in range(width)],
        st.integers(0, width - 1),
        st.integers(2, 7),
    )
    rows = draw(st.lists(st.one_of(vector, torsion_row, st.just([0] * width)), max_size=4))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    shift = draw(st.one_of(st.just([0] * width), vector))
    vec = [x + sum(c * row[i] for c, row in zip(coeffs, rows)) for i, x in enumerate(shift)]
    return rows, width, vec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spanning_rows_and_vectors())
@example(([[2, 1], [0, 3]], 2, [4, 5]))
@example(([[2, 1], [0, 3]], 2, [3, 5]))
def test_lattice_contains_matches_span(case):
    rows, width, vec = case
    # oracle: vec is in the lattice exactly when adding it leaves the HNF unchanged
    span = hnf_rows(rows, width)
    assert lattice_contains(span, vec) == (hnf_rows(rows + [vec], width) == span)


# torsion signatures, and Z^2, where no generators give the empty lattice
SUBGROUP_SIGNATURES = (Z_MOD6, Z_X_MOD3, Z_X_MOD2, GroupSignature(2, (4, 6)), Z2)


@st.composite
def subgroups_and_elements(draw):
    sig = draw(st.sampled_from(SUBGROUP_SIGNATURES))
    element = st.builds(
        sig.element,
        st.tuples(*[st.integers(-6, 6)] * sig.free_rank),
        st.tuples(*[st.integers(0, n - 1) for n in sig.torsion_orders]),
    )
    gens = draw(st.lists(element, max_size=3))
    return sig, gens, draw(element)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(subgroups_and_elements())
def test_subgroup_contains_matches_span(case):
    sig, gens, u = case
    rows = subgroup_rows(sig, gens)
    assert lattice_contains(rows, u.coords) == (subgroup_rows(sig, gens + [u]) == rows)


def test_subgroup_membership_with_torsion():
    g = Z_X_MOD3.element((2,), (1,))
    rows = subgroup_rows(Z_X_MOD3, [g])
    assert lattice_contains(rows, g.coords)
    assert lattice_contains(rows, (g + g).coords)
    assert lattice_contains(rows, (-g).coords)
    assert not lattice_contains(rows, Z_X_MOD3.element((1,), (0,)).coords)
    # (6, 0) = 3*g because the torsion part of 3*g vanishes
    assert lattice_contains(rows, Z_X_MOD3.element((6,), (0,)).coords)


def test_subgroups_equal_by_canonical_form():
    gens_a = [Z2.element((2, 0)), Z2.element((0, 3))]
    gens_b = [Z2.element((2, 3)), Z2.element((2, -3)), Z2.element((2, 0))]
    # oracle: both generate 2Z x 3Z ... second set: (2,3)-(2,0)=(0,3) ok
    assert subgroup_rows(Z2, gens_a) == subgroup_rows(Z2, gens_b)
    assert subgroup_rows(Z2, gens_a) != subgroup_rows(Z2, [Z2.element((1, 0)), Z2.element((0, 3))])


elements_z_mod3 = st.builds(
    lambda f, t: Z_X_MOD3.element((f,), (t,)),
    st.integers(-50, 50),
    st.integers(0, 2),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(elements_z_mod3, elements_z_mod3)
def test_group_laws(u, v):
    assert u + v == v + u
    assert (u + Z_X_MOD3.identity()) == u
    assert (u + (-u)).is_identity()
    assert (u + v) - v == u


@settings(max_examples=100, deadline=None, derandomize=True)
@given(elements_z_mod3, st.integers(-6, 6), st.integers(-6, 6))
def test_scale_is_additive(u, n, m):
    assert u.scale(n + m) == u.scale(n) + u.scale(m)
    assert u.scale(-n) == -u.scale(n)


@st.composite
def signatures_and_coordinates(draw):
    """A signature of free rank 0-3 with 0-2 torsion orders in 2..6, and
    two unreduced coordinate vectors for it."""
    sig = GroupSignature(
        draw(st.integers(0, 3)), tuple(draw(st.lists(st.integers(2, 6), max_size=2)))
    )
    width = sig.free_rank + len(sig.torsion_orders)
    vector = st.lists(st.integers(-7, 7), min_size=width, max_size=width)
    return sig, draw(vector), draw(vector)


def reduced_reference(sig, coords):
    """(free, torsion) of a coordinate vector, reduced one component at a time."""
    d = sig.free_rank
    return tuple(coords[:d]), tuple(t % n for t, n in zip(coords[d:], sig.torsion_orders))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(signatures_and_coordinates())
def test_element_arithmetic_matches_componentwise_reference(case):
    sig, a, b = case
    d = sig.free_rank
    u, v = sig.element(a[:d], a[d:]), sig.element(b[:d], b[d:])
    expected = {
        "u": a,
        "v": b,
        "u + v": [x + y for x, y in zip(a, b)],
        "u - v": [x - y for x, y in zip(a, b)],
        "-u": [-x for x in a],
    }
    got = {"u": u, "v": v, "u + v": u + v, "u - v": u - v, "-u": -u}
    for n in range(-3, 4):
        expected[f"{n}u"] = [n * x for x in a]
        got[f"{n}u"] = u.scale(n)
    for name, w in got.items():
        free, torsion = reduced_reference(sig, expected[name])
        assert (w.free, w.torsion) == (free, torsion), name
        assert w.coords == free + torsion, name
        assert w == sig.element(free, torsion), name
    elems = list(got.values())
    by_parts = sorted(elems, key=lambda w: (w.free, w.torsion))
    assert sorted(elems, key=GroupElement.key) == by_parts


def test_identity_axioms_random_sample():
    rng = random.Random(1347440721)
    sig = GroupSignature(2, (4, 9))
    for _ in range(1000):
        u = sig.element(
            (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)),
            (rng.randint(0, 3), rng.randint(0, 8)),
        )
        assert u + sig.identity() == u
        assert (u + (-u)).is_identity()


@pytest.mark.parametrize(
    "free_rank, torsion", [(2.5, ()), (True, ()), ("1", ()), (1, (3.0,)), (1, (False,))]
)
def test_signature_rejects_non_integers(free_rank, torsion):
    with pytest.raises(ValueError):
        GroupSignature(free_rank, torsion)


def test_signature_too_large_to_build_is_a_value_error():
    # 10**20 coordinates do not fit an index, so nothing is allocated
    with pytest.raises(ValueError, match=r"^free_rank 100000000000000000000 is too large to build$"):
        GroupSignature(10**20)


@pytest.mark.parametrize(
    "sig, free, torsion",
    [(Z2, (1, 2.5), ()), (Z2, (True, 2), ()), (Z1, False, ()), (Z1, ("1",), ()),
     (Z_X_MOD3, (1,), (1.0,)), (Z_X_MOD3, (1,), (True,))],
)
def test_element_refuses_non_integer_coordinates(sig, free, torsion):
    with pytest.raises(TypeError, match="must be integers"):
        sig.element(free, torsion)


def test_finite_order_is_minimal():
    sig = GroupSignature(0, (4, 6))
    for a in range(4):
        for b in range(6):
            u = sig.element((), (a, b))
            n = u.order()
            assert u.scale(n).is_identity()
            for m in range(1, n):
                assert not u.scale(m).is_identity()


def test_element_hash_leaves_out_the_signature():
    u, v = GroupSignature(1, (3,)).element(1, (1,)), GroupSignature(1, (4,)).element(1, (1,))
    # equal coordinates, so equal hashes; the signatures still tell them apart
    assert hash(u) == hash(v) == hash(((1, 1),))
    assert u != v and len({u, v}) == 2
    assert u == GroupSignature(1, (3,)).element(1, (4,))


def test_relation_lattice_trivial_contains_only_zero():
    lat = ()
    assert lattice_contains(lat, (0, 0))
    assert not lattice_contains(lat, (1, 0))


def residue_by_row_scan(basis, vec):
    """Oracle: ``lattice_residue`` finding each row's pivot by a scan."""
    v = list(vec)
    for row in basis:
        j = next(i for i, x in enumerate(row) if x)
        q = v[j] // row[j]
        for idx in range(j, len(v)):
            v[idx] -= q * row[idx]
    return tuple(v)


@st.composite
def bases_and_vectors(draw):
    width = draw(st.integers(1, 5))
    row = st.lists(st.integers(-9, 9), min_size=width, max_size=width)
    basis = hnf_rows(draw(st.lists(row, max_size=5)), width)
    return basis, draw(row)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bases_and_vectors())
def test_pivot_cached_residue_matches_row_scan(case):
    basis, vec = case
    expected = residue_by_row_scan(basis, vec)
    assert lattice_residue(residue_rows(basis), vec) == expected
    # a representative of the coset of vec
    assert lattice_contains(basis, [a - b for a, b in zip(vec, expected)])


@st.composite
def small_matrices(draw):
    """An m x width integer matrix M, m <= 3, with entries in [-3, 3]."""
    m, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    return draw(st.lists(row, min_size=m, max_size=m)), width


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_matrices())
@example(([[1, 2], [2, 4], [3, 6]], 2))
@example(([[0], [0]], 1))
def test_kernel_rows_span_every_kernel_vector(case):
    rows, width = case
    kernel = kernel_rows(rows, width)

    def dot(x):
        return [sum(x[i] * rows[i][j] for i in range(len(rows))) for j in range(width)]

    assert all(not any(dot(r)) for r in kernel)
    assert hnf_rows(kernel) == kernel
    # oracle: every x in the box [-4, 4]^m with x . M = 0
    for x in itertools.product(range(-4, 5), repeat=len(rows)):
        if not any(dot(x)):
            assert lattice_contains(kernel, x), x


Z2_X_MOD6 = GroupSignature(2, (6,))


@pytest.mark.parametrize(
    "basis",
    [
        # non-unit pivots with negative entries right of them
        hnf_rows([[2, -3, 1], [0, 4, -5]]),
        # a torsion column: the relation row 6*e2 of Z^2 + Z/6
        subgroup_rows(
            Z2_X_MOD6,
            [Z2_X_MOD6.element((2, 0), (3,)), Z2_X_MOD6.element((0, 3), (4,))],
        ),
        # pivot in the torsion column only, behind a free pivot of 3
        subgroup_rows(Z_X_MOD2, [Z_X_MOD2.element((3,), (1,))]),
    ],
)
def test_sparse_residue_rows_fixed_cases(basis):
    for vec in itertools.product(range(-7, 8, 3), repeat=len(basis[0])):
        expected = residue_by_row_scan(basis, vec)
        assert lattice_residue(residue_rows(basis), vec) == expected
        assert lattice_contains(basis, [a - b for a, b in zip(vec, expected)])
    # lattice vectors reduce to zero
    for row in basis:
        assert not any(lattice_residue(residue_rows(basis), [-3 * x for x in row]))


def test_residue_rows_keep_only_the_non_zero_tail():
    assert hnf_rows([[2, -3, 1], [0, 4, -5]]) == ((2, 1, -4), (0, 4, -5))
    assert residue_rows(((2, 1, -4), (0, 4, -5))) == (
        (0, 2, ((1, 1), (2, -4))),
        (1, 4, ((2, -5),)),
    )
    assert residue_rows(((3, 0, 0), (0, 0, 6))) == ((0, 3, ()), (2, 6, ()))


def test_torsion_element_repr():
    assert repr(Z_X_MOD3.element((1,), (2,))) == "(1;2)"
