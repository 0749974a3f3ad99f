"""Recompiling branching proofs into low-coefficient branching proofs.

The pipeline replaces every disjunction ``a x <= b or >= b+1`` of a proof by
an iterated Diophantine approximation ``a' x <= b' or >= b'+1`` whose
coefficients depend only on the dimension n and the l1 radius R of the set
(not on the original proof), and then repairs each leaf whose new relaxation
is no longer empty by a short chain of branching steps that simulates at most
2(n+1) Chvatal-Gomory cuts drawn from the approximation data.  The precision
is fixed by the set: R = ``l1_radius_bound(K)``, N = 10 n R and
M = N^(n+2); a substitution sequence stores R alone and derives N and M.

Central pieces:

* ``long_to_short``    -- builds a valid substitution sequence
  ``(a', b', k, (a_i, b_i, gamma_i))`` of an inequality at radius R, whose
  flip is a valid substitution sequence of the complementary inequality;
* ``verify_substitution_sequence`` -- machine-checks the four defining
  properties of such a sequence with exact l1-ball implication tests;
* ``gen_cg_cuts``      -- the leaf repair: <= 2(n+1) CG cuts as (normal, rhs)
  pairs;
* ``recompile``        -- assembles the final proof tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diophantine import classify_rhs, dirichlet_approx
from .geometry import (
    EmptySet,
    UnboundedSet,
    implies_R,
    l1_radius_bound,
    support_value,
)
from .prooftree import BranchNode, Report, _path_rows, verify_branching_proof, walk
from .simplex import DimensionMismatch, InequalitySystem, is_empty
from .vectors import Vector, round_half_away


@dataclass(frozen=True)
class SubstitutionSequence:
    """A valid substitution sequence of ``a x <= b`` at radius R.

    ``levels`` holds (a_i, b_i, gamma_i) for i = 1..k with gamma_k = 0; the
    replacement disjunction is ``a' x <= b'`` with a' = sum M^(k-i) a_i and
    b' = sum M^(k-i) b_i.  The precision N = 10 n R and the base
    M = N^(n+2) follow from R and the dimension n of a'.  The defining
    properties (coefficient bounds and three families of l1-ball
    implications) are checked by :func:`verify_substitution_sequence`.
    """

    a_prime: Vector
    b_prime: int
    levels: tuple[tuple[Vector, int, Fraction], ...]
    R: int

    @property
    def k(self) -> int:
        return len(self.levels)

    @property
    def N(self) -> int:
        return 10 * len(self.a_prime) * self.R

    @property
    def M(self) -> int:
        return self.N ** (len(self.a_prime) + 2)


def long_to_short(a: Vector, b: int, R: int) -> SubstitutionSequence:
    """Iterated Diophantine approximation of ``a x <= b`` at radius R, with
    precision N = 10 n R and base M = N^(n+2).

    Repeatedly approximates the residual direction, choosing each right-hand
    side by the dominating / non-dominating case split, until either a
    dominating approximation occurs or the residual direction is already
    small (max-norm at most 10 n N^n); terminates within n+1 levels because
    each subtraction zeroes at least one more coordinate of the residual.

    The flipped output (see :func:`flip_sequence`) is a valid substitution
    sequence of ``-a x <= -b - 1``, so one call serves both sides of the
    disjunction.
    """
    if a.is_zero():
        raise ValueError("disjunction normal must be nonzero")
    if not a.is_integral() or not isinstance(b, int):
        raise ValueError("disjunction must be integral")
    if not isinstance(R, int) or R < 1:
        raise ValueError("radius must be a positive integer")

    n = len(a)
    N = 10 * n * R
    M = N ** (n + 2)
    threshold = 10 * n * N**n
    a_hat = Vector(Fraction(v) for v in a)
    b_hat = Fraction(b)
    levels: list[tuple[Vector, int, Fraction]] = []
    alphas: list[Fraction] = []

    for _ in range(n + 1):
        if a_hat.norm_linf() <= threshold:
            break
        approx = dirichlet_approx(a_hat, N)
        cls = classify_rhs(a_hat, b_hat, approx, R, N)
        if cls.dominating:
            levels.append((approx.a_prime, cls.b_prime, Fraction(0)))
            return _assemble(levels, R, M)
        gamma = 2 * cls.alpha / (5 * n)
        levels.append((approx.a_prime, cls.b_prime, gamma))
        alphas.append(cls.alpha)
        a_hat = a_hat - cls.alpha * approx.a_prime
        b_hat = b_hat - cls.alpha * cls.b_prime
    else:
        raise RuntimeError("residual failed to shrink within n+1 levels")

    # small-residual exit: final level reconstructs (a, b) over the rounded
    # multipliers, with the right-hand side clamped into the trivial range
    a_k = a
    b_tilde = b
    for (a_i, b_i, _), alpha in zip(levels, alphas):
        r = round_half_away(alpha)
        a_k = a_k - r * a_i
        b_tilde = b_tilde - r * b_i
    norm_k = int(a_k.norm_linf())
    if -R * norm_k - 1 < b_tilde < R * norm_k:
        b_k = b_tilde
    elif b_tilde <= -R * norm_k - 1:
        b_k = -R * norm_k - 1
    else:
        b_k = R * norm_k
    levels.append((a_k, b_k, Fraction(0)))
    return _assemble(levels, R, M)


def _assemble(levels, R: int, M: int) -> SubstitutionSequence:
    k = len(levels)
    a_prime = Vector.zero(len(levels[0][0]))
    b_prime = 0
    for i, (a_i, b_i, _) in enumerate(levels, start=1):
        a_prime = a_prime + M ** (k - i) * a_i
        b_prime += M ** (k - i) * b_i
    return SubstitutionSequence(
        a_prime=a_prime.round_nearest(),
        b_prime=b_prime,
        levels=tuple(levels),
        R=R,
    )


def flip_sequence(seq: SubstitutionSequence) -> SubstitutionSequence:
    """The flipped sequence, valid for the complementary inequality.

    If ``seq`` is a valid substitution sequence of ``a x <= b`` then the flip
    is one of ``-a x <= -b - 1``: all levels are negated and the last level's
    right-hand side additionally drops by one, mirroring ``b -> -b - 1``.
    """
    flipped = [(-a_i, -b_i, g) for a_i, b_i, g in seq.levels]
    a_k, b_k, g_k = flipped[-1]
    flipped[-1] = (a_k, b_k - 1, g_k)
    return SubstitutionSequence(
        a_prime=-seq.a_prime,
        b_prime=-seq.b_prime - 1,
        levels=tuple(flipped),
        R=seq.R,
    )


def verify_substitution_sequence(
    seq: SubstitutionSequence, a: Vector, b: int
) -> Report:
    """Machine-check all defining properties of a substitution sequence.

    Property 1 (coefficient bounds and the M-adic reconstruction of a', b')
    is arithmetic; properties 2-4 are l1-ball implications at radius R,
    checked with one exact LP each:

      2. a' x <= b', a_i x = b_i (i < l)  =>_R  a_l x <  b_l + 1   (l < k)
      3. a' x <= b', a_i x = b_i (i < l)  =>_R  a x  <=  b + gamma_l
      4. a_l x <= b_l - 1, a_i x = b_i (i < l)  =>_R  a x <= b - n gamma_l
    """
    failures: list[str] = []
    n = len(a)
    R, N, M = seq.R, seq.N, seq.M
    k = seq.k

    def fail(prop: int, level, reason: str) -> None:
        failures.append(f"property {prop} at level {level}: {reason}")

    if not 1 <= k <= n + 1:
        fail(1, "-", f"k={k} outside [1, n+1]")
    recon_a = Vector.zero(n)
    recon_b = 0
    for i, (a_i, b_i, gamma_i) in enumerate(seq.levels, start=1):
        recon_a = recon_a + M ** (k - i) * a_i
        recon_b += M ** (k - i) * b_i
        if a_i.norm_linf() > 11 * n * N**n:
            fail(1, i, "level normal exceeds 11 n N^n")
        if abs(b_i) > R * a_i.norm_linf() + 1:
            fail(1, i, "level rhs exceeds R ||a_i|| + 1")
        if gamma_i < 0:
            fail(1, i, "negative gamma")
    if seq.levels and seq.levels[-1][2] != 0:
        fail(1, k, "gamma_k must be zero")
    if recon_a != seq.a_prime or recon_b != seq.b_prime:
        fail(1, "-", "a', b' are not the M-adic combination of the levels")
    if seq.a_prime.norm_linf() > N**n * M ** (n + 1):
        fail(1, "-", "a' exceeds N^n M^(n+1)")
    if abs(seq.b_prime) > R * N**n * M ** (n + 1):
        fail(1, "-", "b' exceeds R N^n M^(n+1)")

    def premise(upto: int) -> InequalitySystem:
        """a' x <= b' plus the first `upto` level equalities."""
        system = InequalitySystem([seq.a_prime], [seq.b_prime], n=n)
        for a_i, b_i, _ in seq.levels[:upto]:
            system = system.with_equality(a_i, b_i)
        return system

    for l in range(1, k):
        a_l, b_l, _ = seq.levels[l - 1]
        if not implies_R(premise(l - 1), a_l, b_l + 1, R, strict=True):
            fail(2, l, "approximate premise does not pin the level inequality")
    for l in range(1, k + 1):
        gamma_l = seq.levels[l - 1][2]
        if not implies_R(premise(l - 1), a, b + gamma_l, R):
            fail(3, l, "premise does not imply the original inequality")
    for l in range(1, k):
        a_l, b_l, gamma_l = seq.levels[l - 1]
        system = InequalitySystem([a_l], [b_l - 1], n=n)
        for a_i, b_i, _ in seq.levels[: l - 1]:
            system = system.with_equality(a_i, b_i)
        if not implies_R(system, a, b - n * gamma_l, R):
            fail(4, l, "strict level decrease does not overshoot the original")

    return Report(valid=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# generalized Farkas machinery and leaf repair
# ---------------------------------------------------------------------------


def generalized_certificate(K: InequalitySystem, P: InequalitySystem) -> Vector:
    """Multipliers lam >= 0 on P's rows with  min over K of lam (A x - b) > 0.

    Requires K nonempty and bounded and K disjoint from P.  lam is P's part
    lam_P of the solver's certificate (lam_K, lam_P) for K and P together,
    from one emptiness LP; the certificate is already verified and reduced,
    so lam has at most n+1 nonzero entries.  It needs no further check:
    lam A = 0, lam b = -1 and lam_K >= 0 give, for every x in K,

        lam_P (A_P x - b_P) = -lam_K A_K x - lam_P b_P
                           >= -lam_K b_K - lam_P b_P = 1.
    """
    if P.n != K.n:
        raise DimensionMismatch("appended row disagrees with the system's dimension")
    cert = is_empty(K._appended(*P._rows))
    if cert is None:
        raise ValueError("K and P intersect; no certificate exists")
    return Vector(cert.multipliers[K.m :])


def gen_cg_cuts(
    K: InequalitySystem,
    P: InequalitySystem,
    seqs: list[SubstitutionSequence],
) -> list[tuple[Vector, int]]:
    """The leaf repair: CG cuts emptying K n P', drawn from the substitution
    levels, as ``(normal, rhs)`` pairs in emission order.

    Given disjoint K and P and one valid substitution sequence per row of P,
    whose replacement rows ``a' x <= b'`` make up the substitution
    polyhedron P', returns at most 2(n+1) pairs, ``(a, b)`` then ``(-a, -b)``
    for each forced level equality ``a x = b``, with
    ``apply_cg_list(K n P', normals)`` empty (none when K n P' is empty
    already).  Round by round, with lam the generalized certificate and
    eps_j the error of row j's current level, the row j* maximizing
    eps_j lam_j (the first on ties) has its level equality forced: K misses
    P relaxed by eps - (n+1) eps_j* e_j*, which is re-checked by an LP.  The
    loop stops once the forced equalities are inconsistent or K misses P
    relaxed by eps.
    """
    n = K.n
    if len(seqs) != P.m:
        raise ValueError("need one substitution sequence per row of P")
    if is_empty(K.with_rows((seq.a_prime, seq.b_prime) for seq in seqs)) is not None:
        return []  # nothing to repair
    lam = generalized_certificate(K, P)
    level = [0] * P.m  # index of each row's current level
    eps = [seq.levels[0][2] for seq in seqs]
    pairs: list[tuple[Vector, int]] = []
    V = InequalitySystem([], [], n=n)  # the affine subspace of the forced equalities

    while True:
        if pairs and is_empty(V) is not None:
            return pairs
        if is_empty(_relaxed(K, P, eps)) is not None:
            return pairs
        if len(pairs) == 2 * (n + 1):
            raise RuntimeError("leaf repair did not converge within n+1 rounds")
        best = max(e * l for e, l in zip(eps, lam))
        if best <= 0:
            raise RuntimeError("certificate disagrees with the emptiness test")
        j_star = next(j for j, (e, l) in enumerate(zip(eps, lam)) if e * l == best)
        shifted = list(eps)
        shifted[j_star] -= (n + 1) * eps[j_star]
        if is_empty(_relaxed(K, P, shifted)) is None:
            raise RuntimeError("tightened relaxation is unexpectedly feasible")
        a_p, b_p, _ = seqs[j_star].levels[level[j_star]]
        pairs += [(a_p, b_p), (-a_p, -b_p)]
        V = V.with_equality(a_p, b_p)
        for j, seq in enumerate(seqs):
            while level[j] + 1 < seq.k and _affine_implies_equality(
                V, *seq.levels[level[j]][:2]
            ):
                level[j] += 1
            eps[j] = seq.levels[level[j]][2]


def _relaxed(K: InequalitySystem, P: InequalitySystem, eps) -> InequalitySystem:
    """K with P's rows appended, row j relaxed by eps_j."""
    return K.with_rows((row, rhs + e) for (row, rhs), e in zip(P.rows(), eps))


def _affine_implies_equality(V: InequalitySystem, a: Vector, b: int) -> bool:
    """Whether the affine subspace V lies inside {a x = b}; an empty V does."""
    try:
        return support_value(V, a) == b and support_value(V, -a) == -b
    except EmptySet:
        return True
    except UnboundedSet:
        return False


# ---------------------------------------------------------------------------
# whole-proof recompilation
# ---------------------------------------------------------------------------


def recompile(K: InequalitySystem, proof: BranchNode) -> BranchNode:
    """Rebuild a valid branching proof using only small disjunction normals.

    Every disjunction of the input proof is replaced by its substitution
    disjunction at radius R = ``l1_radius_bound(K)`` (``long_to_short``),
    bounding all edge coefficients by (10 n R)^((n+2)^2) independently of
    the input; each leaf whose replacement relaxation is nonempty gets a
    repair chain of at most 4(n+1) nodes encoding the gen_cg_cuts pairs as
    branching steps whose right children are empty.  The result is again a
    valid proof, with node count at most |T| + 4(n+1) * (number of leaves).

    The input proof must be valid; ``l1_radius_bound`` raises
    ``UnboundedSet`` if K is unbounded.
    """
    report = verify_branching_proof(K, proof)
    if not report.valid:
        raise ValueError(f"input proof is invalid: {report.failures[0]}")
    R = l1_radius_bound(K)

    built: list[BranchNode] = []  # rebuilt subtrees, left to right
    seq_pairs: list[tuple] = []  # (seq, flipped seq) of each internal node on the path
    for node, path, leaving in walk(proof):
        if leaving:
            seq = seq_pairs[len(path)][0]
            right = built.pop()
            built[-1] = BranchNode(seq.a_prime, seq.b_prime, built[-1], right)
        elif not node.is_leaf:
            seq = long_to_short(node.a, node.b, R)
            del seq_pairs[len(path):]
            seq_pairs.append((seq, flip_sequence(seq)))
        else:
            seqs = [seq_pairs[d][0 if went_left else 1] for d, (_, went_left) in enumerate(path)]
            P = InequalitySystem._scaled(K.n, _path_rows(K, path, ([], [], [])))
            tree = BranchNode()
            for a_c, b_c in reversed(gen_cg_cuts(K, P, seqs)):
                tree = BranchNode(a_c, b_c, tree, BranchNode())
            built.append(tree)
    return built[0]
