"""Diophantine approximation and the dominating / non-dominating split."""

from fractions import Fraction
from itertools import count, islice
from math import gcd
from random import Random

import pytest

from branchproofs import diophantine
from branchproofs.diophantine import (
    DioApprox,
    candidates,
    classify_rhs,
    dirichlet_approx,
    first,
)
from branchproofs.geometry import implies_R
from branchproofs.simplex import InequalitySystem
from branchproofs.vectors import Vector

from oracles import approximation_error, brute_force_dirichlet, linear_scan_dirichlet


def test_dirichlet_examples():
    d = dirichlet_approx(Vector([1, 0, -1]), 5)
    assert (d.multiplier, d.a_prime) == (1, Vector([1, 0, -1]))
    assert approximation_error(Vector([1, 0, -1]), d) == 0

    d = dirichlet_approx(Vector([1, Fraction(1, 2)]), 3)
    assert (d.multiplier, d.a_prime) == (2, Vector([2, 1]))

    d = dirichlet_approx(Vector([1, Fraction(2, 3)]), 4)
    assert (d.multiplier, d.a_prime) == (3, Vector([3, 2]))


def _edge_case_vectors(rng):
    """Inputs on the edges of the candidate search, with a precision for each.

    N = 1 (every residue is in the window), denominators at most N (window
    of one residue, so l is a multiple of them), negative numerators over
    one shared denominator, and denominators up to about 10^3; windows that
    wrap past 0 arise in the last two families.  Then N = 2 over odd
    denominators (2w + 1 = q0), the denominator 2 alone, several
    coordinates over one denominator, and n = 1.
    """
    for _ in range(40):
        n = rng.randint(1, 3)
        a = Vector([Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(n)])
        yield a, 1
    for _ in range(40):
        N = rng.randint(2, 9)
        q = rng.randint(2, N)
        yield Vector([q] + [rng.randint(-q, q) for _ in range(rng.randint(0, 2))]), N
    for _ in range(40):
        q = rng.randint(2, 60)
        yield Vector([q] + [-rng.randint(1, q) for _ in range(2)]), rng.randint(2, 12)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = Vector([Fraction(rng.randint(-10**3, 10**3), rng.randint(1, 10**3)) for _ in range(n)])
        yield a, rng.randint(1, 30)
    for _ in range(20):
        q = 2 * rng.randint(1, 40) + 1
        yield Vector([q] + [rng.randint(-q, q) for _ in range(rng.randint(1, 2))]), 2
    for _ in range(20):
        yield Vector([2] + [rng.choice((-1, 1)) for _ in range(rng.randint(0, 3))]), rng.randint(1, 9)
    for _ in range(20):
        q = rng.choice((3, 5, 7, 11, 101, 211, 293))
        others = [rng.choice((-1, 1)) * rng.randint(1, q - 1) for _ in range(rng.randint(2, 3))]
        yield Vector([q] + others), rng.randint(2, 20)
    for _ in range(20):
        yield Vector([Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))]), rng.randint(1, 50)


def test_dirichlet_matches_brute_force():
    rng = Random(6)
    for _ in range(60):
        n = rng.randint(1, 3)
        N = rng.randint(1, 12)
        a = Vector(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        )
        if a.is_zero():
            continue
        expected_l, expected_ap = brute_force_dirichlet(a, N)
        got = dirichlet_approx(a, N)
        assert (got.multiplier, got.a_prime) == (expected_l, expected_ap)
    for a, N in _edge_case_vectors(Random(7)):
        if a.is_zero():
            continue
        got = dirichlet_approx(a, N)
        expected = brute_force_dirichlet(a, N)
        assert (got.multiplier, got.a_prime) == expected, (a, N)
        assert linear_scan_dirichlet(a, N) == expected, (a, N)


def _euclid_candidates(p, q, w):
    """The candidates as repeated ``first`` calls find them, one per call."""
    l = 0
    while True:
        l += 1
        s = (-w - p * l) % q  # l + x qualifies iff (p x) mod q in [s, s + 2w]
        if s + 2 * w < q:
            l += first(p, q, s, s + 2 * w)
        yield l


def _step_cases(rng):
    """(p, q, w) with gcd(p, q) = 1: random, then the edges of the stepper.

    w = 0 (q <= N, so a = b = q), 2w + 1 >= q (every l), q = 2 and
    negative p arise on purpose; w = ceil(q / N) - 1 as in the search.
    """
    for _ in range(300):
        q = rng.randint(2, 500)
        N = rng.randint(1, 40)
        yield rng.randint(-q, q), q, -(-q // N) - 1
    for q in range(2, 30):
        for p in (1, -1, q - 1, 1 - q, q // 2 + 1, -(q // 2) - 1):
            for w in (0, 1, (q - 1) // 2, q // 2, q - 1):
                yield p, q, w


def test_candidates_match_first_and_brute_force():
    for p, q, w in _step_cases(Random(11)):
        if gcd(p, q) != 1:
            continue
        brute = (l for l in count(1) if min(p * l % q, -p * l % q) <= w)
        expected = list(islice(brute, 200))
        got = list(islice(candidates(p, q, w), 200))
        assert got == expected, (p, q, w)
        assert list(islice(_euclid_candidates(p, q, w), 200)) == expected, (p, q, w)
        a = next(x for x in count(1) if p * x % q <= 2 * w)
        b = next(x for x in count(1) if -p * x % q <= 2 * w)
        gaps = {y - x for x, y in zip([0] + got, got)}
        assert gaps <= {a, b, a + b}, (p, q, w, gaps, a, b)


def test_candidates_on_large_moduli():
    rng = Random(12)
    for _ in range(40):
        q = rng.randint(10**9, 10**15)
        p = rng.randint(-q, q)
        if gcd(p, q) != 1:
            continue
        w = -(-q // rng.randint(2, 120)) - 1
        got = list(islice(candidates(p, q, w), 2000))
        assert got == list(islice(_euclid_candidates(p, q, w), 2000)), (p, q, w)


def test_dirichlet_raises_when_rounding_misses_the_multiplier(monkeypatch):
    real = diophantine.round_half_away
    monkeypatch.setattr(diophantine, "round_half_away", lambda v: real(v) + 1)
    with pytest.raises(RuntimeError, match="not l ="):
        dirichlet_approx(Vector([3, 1]), 4)


def test_first_matches_brute_force():
    rng = Random(8)
    for _ in range(3000):
        m = rng.randint(1, 80)
        a = rng.randint(-200, 200)
        lo = rng.randint(0, m - 1)
        hi = rng.randint(lo, m - 1)
        expected = next((x for x in range(m) if lo <= a * x % m <= hi), None)
        assert first(a, m, lo, hi) == expected, (a, m, lo, hi)


def test_first_on_large_moduli():
    rng = Random(9)
    for _ in range(200):
        m = rng.randint(2, 10**15)
        a = rng.randint(1, m - 1)
        lo = rng.randint(1, m - 1)
        hi = min(m - 1, lo + rng.randint(0, m // 10**3))
        x = first(a, m, lo, hi)
        if x is None:
            # only possible when gcd(a, m) > 1 leaves [lo, hi] without a
            # multiple of it
            g = gcd(a, m)
            assert g > 1 and hi // g * g < lo
            continue
        assert lo <= a * x % m <= hi
        # x is the least one: no earlier multiplier of a lands in the window
        # (checked where a brute-force scan is cheap)
        if x < 10**5:
            assert all(not lo <= a * y % m <= hi for y in range(x))
    # about 2000 Euclid steps, more than the default recursion limit allows
    m = 2**4000
    a = 3**2500 % m
    x = first(a, m, 5, 10**50)
    assert 5 <= a * x % m <= 10**50


def test_dirichlet_matches_linear_scan_on_larger_inputs():
    rng = Random(10)
    for _ in range(60):
        n = rng.randint(2, 5)
        N = rng.randint(8, 24)
        a = Vector([rng.randint(-10**9, 10**9) for _ in range(n)])
        if a.is_zero():
            continue
        got = dirichlet_approx(a, N)
        assert (got.multiplier, got.a_prime) == linear_scan_dirichlet(a, N), (a, N)


def test_dirichlet_six_dimensions():
    """n = 6, N = 60 on the normal of instances/large/slab6.ineq.

    The multiplier is pinned to the value that ``linear_scan_dirichlet``
    gives in about 8 s; the candidate search takes about 0.3 s.
    """
    a = Vector([1170691171678, -1369503366352, -8140286472612,
                5691960509595, 5344945543347, 7052469140836])
    N = 60
    d = dirichlet_approx(a, N)
    assert d.multiplier == 11426616
    assert d.a_prime.norm_linf() == d.multiplier <= N ** len(a)
    assert approximation_error(a, d) * N < 1


def test_dirichlet_invariants_random():
    rng = Random(17)
    for _ in range(120):
        n = rng.randint(1, 4)
        N = rng.randint(1, 25)
        a = Vector(
            [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(n)]
        )
        if a.is_zero():
            continue
        d = dirichlet_approx(a, N)
        assert 1 <= d.multiplier <= N**n
        assert d.a_prime.norm_linf() == d.multiplier
        assert approximation_error(a, d) * N < 1
        for orig, approx in zip(a, d.a_prime):
            if orig == 0:
                assert approx == 0


def test_dirichlet_rejects_zero_and_bad_precision():
    with pytest.raises(ValueError):
        dirichlet_approx(Vector([0, 0]), 5)
    with pytest.raises(ValueError):
        dirichlet_approx(Vector([1]), 0)


def test_classify_examples():
    approx = dirichlet_approx(Vector([1000]), 20)
    cls = classify_rhs(Vector([1000]), 1999, approx, 2, 20)
    assert (cls.dominating, cls.b_prime) == (False, 2)

    approx = dirichlet_approx(Vector([1001]), 10)
    cls = classify_rhs(Vector([1001]), 500, approx, 1, 10)
    assert (cls.dominating, cls.b_prime) == (True, 0)

    approx = dirichlet_approx(Vector([7]), 20)
    cls = classify_rhs(Vector([7]), 20, approx, 2, 20)
    assert (cls.dominating, cls.b_prime) == (True, 2)  # b >= R ||a||


def test_classify_preconditions():
    approx = dirichlet_approx(Vector([9]), 4)
    with pytest.raises(ValueError):
        classify_rhs(Vector([9]), 0, approx, 1, 4)  # R/N = 1/4
    small = dirichlet_approx(Vector([1]), 10)
    with pytest.raises(ValueError):
        classify_rhs(Vector([1]), 0, small, 1, 10)  # alpha = 1 < 2


def _random_case(rng):
    n = rng.randint(1, 3)
    R = rng.randint(1, 3)
    N = rng.choice([10, 20, 40]) * R
    a = Vector([rng.randint(-10**4, 10**4) for _ in range(n)])
    if a.is_zero() or a.norm_linf() < 2 * N**n:
        return None
    b = rng.randint(-int(3 * R * a.norm_linf()), int(3 * R * a.norm_linf()))
    return a, b, R, N


def test_dominating_case_soundness():
    """Dominating (a', b') implies both sides of the disjunction on R B1."""
    rng = Random(31)
    seen = 0
    while seen < 25:
        case = _random_case(rng)
        if case is None:
            continue
        a, b, R, N = case
        approx = dirichlet_approx(a, N)
        cls = classify_rhs(a, Fraction(b), approx, R, N)
        if not cls.dominating:
            continue
        seen += 1
        n = len(a)
        ap, bp = approx.a_prime, cls.b_prime
        left = InequalitySystem([ap], [bp], n=n)
        assert implies_R(left, a, b, R)
        right = InequalitySystem([-ap], [-bp - 1], n=n)
        assert implies_R(right, -a, -b - 1, R)


def test_non_dominating_one_sided_error():
    """a' x <= b' forces a x <= alpha (b' + R/N) on the l1 ball."""
    rng = Random(32)
    seen = 0
    while seen < 25:
        case = _random_case(rng)
        if case is None:
            continue
        a, b, R, N = case
        approx = dirichlet_approx(a, N)
        cls = classify_rhs(a, Fraction(b), approx, R, N)
        if cls.dominating:
            continue
        seen += 1
        premise = InequalitySystem([approx.a_prime], [cls.b_prime], n=len(a))
        bound = cls.alpha * (cls.b_prime + Fraction(R, N))
        assert implies_R(premise, a, bound, R)


def test_flip_symmetry():
    rng = Random(33)
    seen = 0
    while seen < 40:
        case = _random_case(rng)
        if case is None:
            continue
        seen += 1
        a, b, R, N = case
        approx = dirichlet_approx(a, N)
        cls = classify_rhs(a, Fraction(b), approx, R, N)
        negated = DioApprox(-approx.a_prime, approx.multiplier)
        flipped = classify_rhs(-a, Fraction(-b - 1), negated, R, N)
        assert flipped.dominating == cls.dominating
        if cls.dominating:
            assert flipped.b_prime == -cls.b_prime - 1
        else:
            assert flipped.b_prime == -cls.b_prime


def _classify_by_full_scan(a_hat, b_hat, approx, R, N):
    """Reference classification scanning every candidate |b'| <= R l."""
    norm_hat = a_hat.norm_linf()
    alpha = norm_hat / approx.multiplier
    b_hat = Fraction(b_hat)
    if b_hat >= R * norm_hat:
        return True, R * approx.multiplier
    if b_hat + 1 <= -R * norm_hat:
        return True, -R * approx.multiplier - 1
    shift = alpha * Fraction(R, N)
    limit = R * approx.multiplier
    for bp in range(-limit, limit + 1):
        if alpha * bp - shift < b_hat + 1 and alpha * bp + shift > b_hat:
            return False, bp
    for bp in range(-limit, limit):
        if alpha * bp + shift <= b_hat and b_hat + 1 <= alpha * (bp + 1) - shift:
            return True, bp
    raise AssertionError("no case matched in the full scan")


def test_classify_matches_full_scan():
    rng = Random(555)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 2)
        R = rng.randint(1, 3)
        N = 10 * n * R
        a = Vector([rng.randint(-400, 400) for _ in range(n)])
        if a.is_zero() or a.norm_linf() < 2 * N**n:
            continue
        span = 10 * int(a.norm_linf())
        b = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        approx = dirichlet_approx(a, N)
        got = classify_rhs(a, b, approx, R, N)
        assert (got.dominating, got.b_prime) == _classify_by_full_scan(
            a, b, approx, R, N
        )
        checked += 1
