"""Seeded random instance generators shared by the test modules."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random

from branchproofs.geometry import EmptySet, UnboundedSet, support_value
from branchproofs.prooftree import EnumNode
from branchproofs.simplex import InequalitySystem, is_empty
from branchproofs.vectors import Vector


def random_system(rng: Random, n: int, m: int, span: int = 3) -> InequalitySystem:
    """Random integer system with entries in [-span, span]."""
    matrix = [Vector([rng.randint(-span, span) for _ in range(n)]) for _ in range(m)]
    rhs = [rng.randint(-span, span) for _ in range(m)]
    return InequalitySystem(matrix, rhs, n=n)


def random_boxed_polytope(
    rng: Random, n: int, extra_rows: int, lo: int = -3, hi: int = 3
) -> InequalitySystem:
    """[lo, hi]^n intersected with `extra_rows` random halfspaces."""
    system = InequalitySystem.box(n, lo, hi)
    rows = []
    for _ in range(extra_rows):
        a = Vector([rng.randint(-2, 2) for _ in range(n)])
        rows.append((a, rng.randint(-4, 4)))
    return system.with_rows(rows)


def random_integer_free_polytope(rng: Random, n: int) -> InequalitySystem:
    """A nonempty polytope in [-3, 3]^n with no integer points.

    Tries random boxed polytopes first; falls back to a small box around a
    half-integer center, which can never contain integer points.
    """
    for _ in range(60):
        system = random_boxed_polytope(rng, n, rng.randint(1, n + 1))
        if is_empty(system) is not None:
            continue
        if next(_integer_points_in_bounding_box(system), None) is None:
            return system
    center = [rng.randint(-2, 2) + Fraction(1, 2) for _ in range(n)]
    radius = Fraction(1, rng.randint(3, 5))
    rows = []
    for i in range(n):
        unit = Vector.unit(n, i)
        rows.append((unit, center[i] + radius))
        rows.append((-unit, -(center[i] - radius)))
    return InequalitySystem([a for a, _ in rows], [b for _, b in rows], n=n)


def rational_rows(rng: Random, system: InequalitySystem) -> InequalitySystem:
    """The system with each row divided by a random integer in 2..7: the
    same set, on rows whose least scales are mostly above 1."""
    scales = [Fraction(1, rng.randint(2, 7)) for _ in range(system.m)]
    return InequalitySystem([s * a for s, a in zip(scales, system.matrix)],
                            [s * b for s, b in zip(scales, system.rhs)], n=system.n)


def _integer_points_in_bounding_box(system: InequalitySystem):
    """The integer points of a nonempty system in [-3, 3]^n, scanning only the
    integers of its exact LP bounding box (the same points, fewer tests)."""
    ranges = []
    for i in range(system.n):
        unit = Vector.unit(system.n, i)
        lo = max(-3, math.ceil(-support_value(system, -unit)))
        hi = min(3, math.floor(support_value(system, unit)))
        ranges.append(range(lo, hi + 1))
    for coords in itertools.product(*ranges):
        point = Vector(coords)
        if system.contains(point):
            yield point


def random_enumerative_proof(rng: Random, system: InequalitySystem) -> EnumNode:
    """A valid enumerative proof for a nonempty integer-free polytope.

    Picks a branching direction that is non-constant on the current set when
    one exists, recursing on each integer slice; constant directions that miss
    the integers become gap leaves.  Terminates because every branching step
    drops the dimension of the affine hull.
    """
    n = system.n

    def build(current: InequalitySystem) -> EnumNode:
        choice = None
        for _ in range(40):
            a = Vector([rng.randint(-2, 2) for _ in range(n)])
            if a.is_zero():
                continue
            try:
                hi = support_value(current, a)
                lo = -support_value(current, -a)
            except (EmptySet, UnboundedSet):
                continue
            if lo < hi:
                choice = (a, lo, hi)
                break
            if lo == hi and lo.denominator != 1:
                choice = (a, lo, hi)  # constant and fractional: a gap leaf
                break
        if choice is None:
            # the set is (or behaves like) a fractional point: find a
            # coordinate direction with a fractional value
            for i in range(n):
                a = Vector.unit(n, i)
                hi = support_value(current, a)
                lo = -support_value(current, -a)
                if lo == hi and lo.denominator != 1:
                    choice = (a, lo, hi)
                    break
            else:
                raise AssertionError("no fractional direction on an integer-free set")
        a, lo, hi = choice
        children = []
        b = math.ceil(lo)
        while b <= math.floor(hi):
            child = current.with_equality(a, b)
            if is_empty(child) is not None:
                children.append((b, EnumNode()))
            else:
                children.append((b, build(child)))
            b += 1
        return EnumNode(a=a, lo=lo, hi=hi, children=tuple(children))

    return build(system)


def random_disjoint_pair(rng: Random, n: int, magnitude: int = 1):
    """(K, P) with K a nonempty bounded polytope and P integral rows missing K.

    P gets 1-3 integer rows with entries up to ~10^magnitude; the last row is
    tightened below K's minimum so the conjunction is certainly empty, while
    earlier rows add variety.
    """
    while True:
        K = random_boxed_polytope(rng, n, rng.randint(0, 2))
        if is_empty(K) is None:
            break
    while True:
        rows = []
        for _ in range(rng.randint(0, 2)):
            a = _nonzero_vector(rng, n, 10 ** rng.randint(0, magnitude))
            rows.append((a, rng.randint(-6, 6)))
        a = _nonzero_vector(rng, n, 10 ** rng.randint(0, magnitude))
        low = -support_value(K, -a)
        rows.append((a, math.floor(low) - rng.randint(1, 3)))
        P = InequalitySystem([r for r, _ in rows], [b for _, b in rows], n=n)
        if is_empty(K.with_rows(P.rows())) is not None:
            return K, P


def random_thin_slab(rng: Random, n: int):
    """(K, a, c): K = {a x = c + 1/2} inside a box ``-l <= x <= u`` with
    l_i in {0, 1} and u_i in {1, 2}, for an integer normal a whose entries
    have random magnitudes up to 10^9, so ``a x <= c or a x >= c + 1``
    refutes it; K may be empty."""
    a = Vector([rng.choice([-1, 1]) * rng.randint(10 ** rng.randint(1, 9), 10**9)
                for _ in range(n)])
    c = rng.randint(-3, 3)
    rows = [(a, c + Fraction(1, 2)), (-a, -c - Fraction(1, 2))]
    for i in range(n):
        rows.append((Vector.unit(n, i), rng.randint(1, 2)))
        rows.append((-Vector.unit(n, i), rng.randint(0, 1)))
    return InequalitySystem([r for r, _ in rows], [b for _, b in rows], n=n), a, c


def random_split_leaf(rng: Random, n: int):
    """(K, P) for a leaf under two large disjunctions: K is a thin
    slab ``t + 1/2 <= s x <= t + 1/2 + w`` (w in [0, 1/2]) of the unit box,
    for s = a1 + a2 with random normals of magnitude up to 10^9, and P is
    ``a1 x <= b1, a2 x <= t - b1`` with b1 halving K's range of a1 x.  Each
    row of P meets K, and both together miss it.  Returns None when K is
    empty or a row of P misses it."""
    a1, a2 = (Vector([rng.choice([-1, 1]) * rng.randint(10 ** rng.randint(1, 9), 10**9)
                      for _ in range(n)]) for _ in range(2))
    s = a1 + a2
    box = InequalitySystem.box(n, 0, 1)
    lo, hi = -support_value(box, -s), support_value(box, s)
    t = math.floor(lo + (hi - lo) * Fraction(rng.randint(1, 9), 10))
    K = box.with_rows([(-s, -t - Fraction(1, 2)),
                       (s, t + Fraction(1, 2) + Fraction(rng.randint(0, 4), 8))])
    if is_empty(K) is not None:
        return None
    b1 = math.floor((support_value(K, a1) - support_value(K, -a1)) / 2)
    P = InequalitySystem([a1, a2], [b1, t - b1], n=n)
    if any(is_empty(K.with_rows([row])) is not None for row in P.rows()):
        return None
    return K, P


def _nonzero_vector(rng: Random, n: int, span: int = 3) -> Vector:
    while True:
        a = Vector([rng.randint(-span, span) for _ in range(n)])
        if not a.is_zero():
            return a


def random_branching_proof(rng: Random, system: InequalitySystem):
    """A valid branching proof for a nonempty integer-free polytope."""
    from branchproofs.prooftree import enumerative_to_branching

    return enumerative_to_branching(random_enumerative_proof(rng, system))
