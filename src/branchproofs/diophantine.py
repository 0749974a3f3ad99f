"""Simultaneous Diophantine approximation and right-hand-side classification.

``dirichlet_approx`` finds, for a nonzero rational vector a and precision N,
the smallest positive integer l <= N^n such that rounding l * a / ||a||_inf
coordinate-wise gives an integer vector a' with rounding error below 1/N.
Existence is a pigeonhole fact (Dirichlet), so some l <= N^n qualifies.  The
search runs on raw integers (per-coordinate modular remainders) and tests
only the l that put one coordinate within 1/N of an integer, in increasing
order, so the first l that passes is the smallest.  ``candidates`` steps
from one such l to the next in O(1): by the three-gap theorem the gaps take
at most three values, a, b and a + b, which two exact Euclid searches
(``first``) find once per call.

``classify_rhs`` decides, for an inequality ``a x <= b`` and an approximation
a' of a, whether a' together with a unique integer right-hand side b' fully
dominates the disjunction ``a x <= b  or  >= b+1`` over the l1 ball of radius
R, or merely pins the unique non-dominating candidate b'.  All interval
comparisons are exact, with open/closed endpoints exactly as stated in the
case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import floor

from .vectors import Scalar, Vector, round_half_away


@dataclass(frozen=True)
class DioApprox:
    """Result of precision-N approximation: a' = round(l * a / ||a||_inf)."""

    a_prime: Vector
    multiplier: int  # l, with ||a'||_inf == l


@dataclass(frozen=True)
class RhsClassification:
    """Outcome of the right-hand-side case split.

    ``dominating`` means ``a' x <= b'  =>_R  a x <= b`` and
    ``a' x >= b'+1  =>_R  a x >= b+1`` both hold; non-dominating means b' is
    the unique integer whose error interval meets (b, b+1).
    """

    dominating: bool
    b_prime: int
    alpha: Fraction


def first(a: int, m: int, lo: int, hi: int) -> int | None:
    """Least x >= 0 with lo <= (a * x) mod m <= hi, or None if there is none.

    Requires 0 <= lo <= hi < m.  Exact Euclid search in O(log m) steps: when
    no multiple of a lies in [lo, hi], the least x belongs to the least
    y >= 1 for which [lo + m y, hi + m y] holds a multiple of a, which is a
    search of the same form with (a, m) replaced by (m mod a, a); then
    x = ceil((lo + m y) / a).  The steps are kept on a list rather than the
    call stack, so no coefficient size reaches the recursion limit.
    """
    steps = []
    while True:
        a %= m
        if lo == 0:
            x = 0
            break
        if a == 0:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        # [lo, hi] holds no multiple of a, so its residues mod a, negated,
        # form the interval [-hi mod a, -lo mod a], which does not wrap past 0
        steps.append((a, m, lo))
        a, m, lo, hi = m, a, -hi % a, -lo % a
    for a, m, lo in reversed(steps):
        x = -(-(lo + m * x) // a)
    return x


def candidates(p: int, q: int, w: int):
    """Every l >= 1 with (p l) mod q in the window [-w, w] mod q, increasing.

    Requires gcd(p, q) = 1 and 0 <= w.  Steps in O(1) per candidate, keeping
    r, the residue of p l centred in [-w, w].  Let a be the least x >= 1
    with (p x) mod q in [0, 2w], and b the least x >= 1 with (-p x) mod q in
    [0, 2w]; they shift r up by s_a = (p a) mod q and down by
    s_b = (-p b) mod q.  The gaps between returns of a rotation to an
    interval take at most three values (Sos 1958; Slater, "Gaps and steps
    for the sequence n theta mod 1", 1967): the next candidate is l + a or
    l + b, whichever shift keeps r in the window, and l + a + b, which moves
    r by s_a - s_b, when neither does.  Both shifts keep r in the window only
    when a = b: otherwise s_a + s_b <= 2w, so x = |a - b| < max(a, b) would
    meet the condition that defines the larger of a and b.
    """
    if 2 * w + 1 >= q:  # the window holds every residue
        yield from count(1)
        return
    # for 0 < x < q, (p x) mod q != 0; w = 0 leaves x = q alone
    a = first(p, q, 1, 2 * w) if w else q
    b = first(-p, q, 1, 2 * w) if w else q
    up, down = p * a % q, -p * b % q
    l = r = 0
    while True:
        if r + up <= w:
            l += a
            r += up
        elif r - down >= -w:
            l += b
            r -= down
        else:
            l += a + b
            r += up - down
        yield l


def dirichlet_approx(a: Vector, N: int) -> DioApprox:
    """Smallest l in 1..N^n with ||l * a/||a||_inf - round(...)||_inf < 1/N.

    The returned integer vector a' = round(l * a / ||a||_inf) satisfies
    ||a'||_inf = l and keeps every zero coordinate of a zero.

    Coordinate p/q of a/||a||_inf is within 1/N of an integer at l exactly
    when (l p) mod q lies in the window [-w, w] mod q, w = ceil(q/N) - 1.
    Only the l whose window holds for the coordinate p0/q0 with the largest
    denominator are tested, in increasing order as ``candidates`` steps
    through them; each is checked exactly on every other coordinate.
    """
    if a.is_zero():
        raise ValueError("cannot approximate the zero vector")
    if N < 1:
        raise ValueError("precision N must be a positive integer")
    scale = a.norm_linf()
    unit = [e / scale for e in a]
    # integer scan data: coordinate i contributes (l*p) mod q
    checks = [
        (u.numerator, u.denominator) for u in unit if u.denominator != 1
    ]
    bound = N ** len(a)
    hit = None
    if not checks:
        hit = 1
    else:
        p0, q0 = max(checks, key=lambda check: check[1])
        # every candidate holds for (p0, q0) by construction
        others = [check for check in checks if check != (p0, q0)]
        for l in candidates(p0, q0, -(-q0 // N) - 1):
            if l > bound:
                break
            for p, q in others:
                r = (l * p) % q
                if min(r, q - r) * N >= q:
                    break
            else:
                hit = l
                break
    if hit is None:
        raise RuntimeError(
            "no multiplier below N^n satisfied the error bound;"
            " this contradicts the pigeonhole guarantee"
        )
    a_prime = Vector(round_half_away(hit * u) for u in unit)
    if int(a_prime.norm_linf()) != hit:
        raise RuntimeError(
            f"rounding gave ||a'||_inf = {a_prime.norm_linf()}, not l = {hit}"
        )
    return DioApprox(a_prime, hit)


def classify_rhs(
    a_hat: Vector,
    b_hat: Scalar,
    approx: DioApprox,
    R: int,
    N: int,
) -> RhsClassification:
    """Case split choosing the integer right-hand side b' for a' x <= b'.

    Requires R/N < 1/4 and alpha = ||a_hat||_inf / ||a'||_inf >= 2.  Exactly
    one of the following applies:

    * b_hat >= R ||a_hat||_inf:      dominating with b' = R ||a'||_inf;
    * b_hat + 1 <= -R ||a_hat||_inf: dominating with b' = -R ||a'||_inf - 1;
    * otherwise either the open interval (b_hat, b_hat + 1) meets the closed
      error interval [alpha (b' - R/N), alpha (b' + R/N)] of a unique
      |b'| <= R ||a'||_inf (non-dominating), or it lies strictly between two
      consecutive error intervals (dominating).
    """
    b_hat = Fraction(b_hat)
    if Fraction(R, N) >= Fraction(1, 4):
        raise ValueError("precondition R/N < 1/4 violated")
    norm_hat = a_hat.norm_linf()
    norm_prime = Fraction(approx.multiplier)
    alpha = norm_hat / norm_prime
    if alpha < 2:
        raise ValueError("precondition alpha >= 2 violated")
    if b_hat >= R * norm_hat:
        return RhsClassification(True, int(R * norm_prime), alpha)
    if b_hat + 1 <= -R * norm_hat:
        return RhsClassification(True, int(-R * norm_prime) - 1, alpha)

    shift = alpha * Fraction(R, N)
    lo_window = floor(b_hat / alpha) - 2
    hi_window = floor((b_hat + 1) / alpha) + 2
    limit = int(R * norm_prime)
    meets = []
    for b_prime in range(max(lo_window, -limit), min(hi_window, limit) + 1):
        left = alpha * b_prime - shift
        right = alpha * b_prime + shift
        if left < b_hat + 1 and right > b_hat:
            meets.append(b_prime)
    if meets:
        if len(meets) > 1:
            raise RuntimeError("error intervals are not pairwise disjoint")
        return RhsClassification(False, meets[0], alpha)
    for b_prime in range(max(lo_window, -limit), min(hi_window, limit - 1) + 1):
        left = alpha * b_prime + shift
        right = alpha * (b_prime + 1) - shift
        if left <= b_hat and b_hat + 1 <= right:
            return RhsClassification(True, b_prime, alpha)
    raise RuntimeError("case split failed: no interval matched")
