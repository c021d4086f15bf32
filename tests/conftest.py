import pytest
from hypothesis import assume
from hypothesis import strategies as st

from powmon.ambient import GroupSignature
from powmon.monoids import (
    ComplementSpec,
    QuadraticSurd,
    composite,
    elements_in_window,
    full_n0,
    half_plane_lex,
    irrational_cone,
    numerical,
)

Z1 = GroupSignature(1)
Z4 = GroupSignature(4)


def splits_window(report):
    """Do a decomposition's two buckets partition the window members?"""
    members = elements_in_window(report.monoid, report.window)
    parts = report.pseudo_units + report.complement
    return len(parts) == len(members) and set(parts) == set(members)


@st.composite
def glued_composites(draw):
    """A valid composite V | (G.M), drawn for the window and witness oracles.

    Over Z it is {0} glued with <2,3>, where G is trivial.  Over Z^3 or
    Z^4, with or without a Z/2 or Z/3 factor, V is the half-plane or the
    sqrt2 cone on a drawn plane; G holds that plane and up to two drawn
    elements, so its HNF has unit rows only (absorbing the plane, and at
    times a third coordinate or the torsion) or also rows with a pivot
    above 1 or a tail; M has two or three drawn generators.  Z^2 has no
    composite: the plane fills its free part, so no grading vanishes on
    G and not on M.
    """
    d = draw(st.sampled_from((1, 3, 4)))
    if d == 1:
        complement = ComplementSpec(Z1, (), (Z1.element(2), Z1.element(3)))
        return composite(numerical(()), complement, label="zero-glued-2-3")
    torsion = draw(st.sampled_from(((), (2,), (3,))))
    sig = GroupSignature(d, torsion)
    plane = tuple(draw(st.permutations(range(d)))[:2])
    if draw(st.booleans()):
        val = half_plane_lex(sig, plane, "v")
    else:
        val = irrational_cone(QuadraticSurd(0, 1, 1, 2), sig, plane, "v")

    def elements(off_plane):
        # off the plane, coordinates come from ``off_plane``; torsion is reduced
        coords = [off_plane] * d + [st.integers(0, 2)] * len(torsion)
        for k in plane:
            coords[k] = st.integers(-2, 2)
        return st.tuples(*coords).map(lambda c: sig.element(c[:d], c[d:]))

    extra = draw(st.lists(elements(st.integers(-1, 2)), max_size=2))
    positive = draw(st.lists(elements(st.integers(0, 3)), min_size=2, max_size=3))
    base = (sig.basis_element(plane[0]), sig.basis_element(plane[1]), *extra)
    try:
        return composite(val, ComplementSpec(sig, base, positive), label="drawn")
    except ValueError:  # no grading, or no incomparable pair of generators
        assume(False)


@pytest.fixture(scope="session")
def n0():
    return full_n0()


@pytest.fixture(scope="session")
def num23():
    return numerical([2, 3])


@pytest.fixture(scope="session")
def halfplane():
    return half_plane_lex()


@pytest.fixture(scope="session")
def sqrt2():
    return QuadraticSurd(0, 1, 1, 2)


@pytest.fixture(scope="session")
def cone_sqrt2(sqrt2):
    return irrational_cone(sqrt2)


@pytest.fixture(scope="session")
def rank4_complement():
    return ComplementSpec(
        Z4,
        base_subgroup=(Z4.basis_element(0), Z4.basis_element(1)),
        positive_generators=(Z4.basis_element(2), Z4.basis_element(3)),
    )


@pytest.fixture(scope="session")
def rank4_h(rank4_complement):
    valuation = half_plane_lex(Z4, (0, 1), label="rank4-halfplane")
    return composite(valuation, rank4_complement, label="rank4-H")


@pytest.fixture(scope="session")
def rank4_k(rank4_complement, sqrt2):
    valuation = irrational_cone(sqrt2, Z4, (0, 1), label="rank4-cone")
    return composite(valuation, rank4_complement, label="rank4-K")
