"""Plain-``int`` reference for the ``n0_algebra`` workload.

Subsets of N0 are bit masks (bit v set when v is a member), so every
result the workload checks is recomputed here without importing powmon.
Correctness of the benchmark's verdicts therefore never rests on the
code under test.
"""

from __future__ import annotations

import random


def mask(values) -> int:
    out = 0
    for v in values:
        out |= 1 << v
    return out


def members(m: int) -> tuple[int, ...]:
    out = []
    v = 0
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return tuple(out)


def product(a: int, b: int) -> int:
    """Setwise sum {u + v : u in A, v in B} of two masks."""
    out = 0
    for u in members(a):
        out |= b << u
    return out


def power(a: int, n: int) -> int:
    """n-fold product by repeated squaring; the zeroth power is {0}."""
    result, base = 1, a
    while n:
        if n & 1:
            result = product(result, base)
        n >>= 1
        if n:
            base = product(base, base)
    return result


def reversion(m: int) -> int:
    """max X - X."""
    vals = members(m)
    top = vals[-1]
    return mask(top - v for v in vals)


def quotient_entries(values: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(a, n) for every a > 0 with n = #{b in X : a + b in X} > 0, ascending."""
    xs = set(values)
    entries = []
    for a in sorted({u - v for u in xs for v in xs if u > v}):
        n = sum(1 for b in xs if a + b in xs)
        if n:
            entries.append((a, n))
    return tuple(entries)


def divisible(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """X | Y iff X * Z* = Y for the largest candidate Z* = {z in Y : X + z <= Y}."""
    ys = set(y)
    if not set(x) <= ys:
        return False
    zstar = [z for z in y if all(u + z in ys for u in x)]
    return {u + z for u in x for z in zstar} == ys


def is_witness(x: tuple[int, ...], y: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """W contains 0 and X * W = Y."""
    return 0 in w and {u + z for u in x for z in w} == set(y)


# ---------------------------------------------------------------------------
# Seeded inputs.  Sizes are fixed and only the members vary with the seed,
# so the amount of work is close to equal for every seed.
# ---------------------------------------------------------------------------

#: Exponents of the ``set_power`` calls; {0,a,3}^1000 alone takes seconds
#: while powering stays quadratic.
POWER_EXPONENTS = (1000, 500, 250)
DIVIDES_PAIRS = 120
DIVIDES_MAX_Y = 16
#: Pairs at the cap whose witness search runs through thousands of
#: candidate subsets; fixed, so their cost does not vary with the seed.
DIVIDES_AT_CAP = (
    ((0, 1), tuple(range(16))),
    ((0, 1), tuple(range(15)) + (16,)),
    ((0, 2), tuple(range(16))),
    ((0, 1, 2), tuple(range(15)) + (16,)),
    ((0, 3), tuple(range(16))),
)
EVAL_EXPRESSIONS = 12


def _subset_with_zero(rng: random.Random, top: int, k: int) -> tuple[int, ...]:
    return tuple(sorted({0, *rng.sample(range(1, top + 1), k)}))


def divides_pairs(rng: random.Random) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Half built as Y = X * Z, half with one member of such a Y moved,
    all with |Y| <= 16 (the divisibility search cap), then the fixed
    pairs at the cap."""
    pairs = []
    while len(pairs) < DIVIDES_PAIRS:
        x = _subset_with_zero(rng, 6, rng.randint(1, 3))
        z = _subset_with_zero(rng, 9, rng.randint(1, 4))
        y = sorted({u + v for u in x for v in z})
        if len(pairs) % 2:
            gone = rng.choice(y[1:])
            fresh = rng.choice([v for v in range(1, y[-1] + 2) if v not in y])
            y = sorted((set(y) - {gone}) | {fresh})
        if len(y) <= DIVIDES_MAX_Y:
            pairs.append((x, tuple(y)))
    return pairs + list(DIVIDES_AT_CAP)


def power_inputs(rng: random.Random) -> list[tuple[tuple[int, ...], int]]:
    return [((0, rng.choice((1, 2)), 3), n) for n in POWER_EXPONENTS]


def eval_inputs(rng: random.Random) -> list[tuple[str, int]]:
    """``rev(A*B)^k*C`` expressions with their reference result masks."""
    out = []
    for _ in range(EVAL_EXPRESSIONS):
        a, b, c = (_subset_with_zero(rng, 9, rng.randint(1, 4)) for _ in range(3))
        k = rng.randint(2, 6)
        text = "rev({%s}*{%s})^%d*{%s}" % (
            ",".join(map(str, a)), ",".join(map(str, b)), k, ",".join(map(str, c))
        )
        ref = product(power(reversion(product(mask(a), mask(b))), k), mask(c))
        out.append((text, ref))
    return out
