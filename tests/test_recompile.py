"""Substitution sequences, generalized certificates, leaf repair, recompile."""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from branchproofs.families import thin_segment
from branchproofs.geometry import apply_cg_list, l1_radius_bound
from branchproofs.prooftree import BranchNode, format_branching, proof_stats, verify_branching_proof
from branchproofs.recompile import (
    SubstitutionSequence,
    flip_sequence,
    gen_cg_cuts,
    generalized_certificate,
    long_to_short,
    recompile,
    verify_substitution_sequence,
)
from branchproofs.simplex import InequalitySystem, is_empty
from branchproofs.vectors import Vector

from oracles import check_repair_invariants
from randgen import random_branching_proof, random_integer_free_polytope


def test_long_to_short_passthrough():
    seq = long_to_short(Vector([7]), 3, R=2)
    assert seq.k == 1
    assert seq.a_prime == Vector([7]) and seq.b_prime == 3
    assert seq.levels[0][2] == 0


def test_long_to_short_unit_vector():
    seq = long_to_short(Vector([1, 0, 0]), 0, R=2)
    assert seq.k == 1
    assert seq.a_prime == Vector([1, 0, 0]) and seq.b_prime == 0


def test_long_to_short_thin_segment_trace():
    seq = long_to_short(Vector([10**6, 1]), 0, R=3)
    assert seq.k == 2
    assert seq.a_prime == Vector([60**4, 1])
    assert seq.b_prime == 0
    a1, b1, g1 = seq.levels[0]
    assert (a1, b1) == (Vector([1, 0]), 0)
    assert g1 == Fraction(2 * 10**6, 10)  # 2 alpha / (5 n) with alpha = 10^6
    a2, b2, g2 = seq.levels[1]
    assert (a2, b2, g2) == (Vector([0, 1]), 0, 0)


@pytest.mark.parametrize("a, R", [(Vector([7]), 2), (Vector([10**6, 1]), 3), (Vector([10**12, 5, 3]), 1)])
def test_long_to_short_derives_its_precision(a, R):
    """N = 10 n R and M = N^(n+2) follow from the radius and the dimension."""
    seq = long_to_short(a, 0, R)
    n = len(a)
    assert seq.R == R and seq.N == 10 * n * R and seq.M == seq.N ** (n + 2)


def test_long_to_short_rejects_bad_input():
    with pytest.raises(ValueError):
        long_to_short(Vector([0, 0]), 0, R=1)
    with pytest.raises(ValueError):
        long_to_short(Vector([5]), 0, R=0)


def test_residual_zero_coordinates_increase():
    """Residuals r_0 = a, r_(i+1) = r_i - alpha_i a'_i over the levels with
    gamma_i = 2 alpha_i / (5 n) > 0 gain a zero coordinate at each step."""
    a = Vector([10**12, 123456789, 3])
    seq = long_to_short(a, 5, R=2)
    residuals = [a]
    for a_i, _, gamma in seq.levels:
        if gamma > 0:
            residuals.append(residuals[-1] - 5 * len(a) * gamma / 2 * a_i)
    assert len(residuals) == 3
    zero_counts = [sum(1 for v in r if v == 0) for r in residuals]
    assert all(b > a for a, b in zip(zero_counts, zero_counts[1:]))


def test_verify_substitution_both_orientations():
    a, b = Vector([10**6, 1]), 0
    seq = long_to_short(a, b, R=3)
    assert verify_substitution_sequence(seq, a, b).valid
    flip = flip_sequence(seq)
    assert verify_substitution_sequence(flip, -a, -b - 1).valid


def test_verify_detects_tampered_rhs():
    a, b = Vector([10**6, 1]), 0
    seq = long_to_short(a, b, R=3)
    bump = seq.R * int(seq.a_prime.norm_linf())
    tampered = SubstitutionSequence(
        seq.a_prime, seq.b_prime + bump, seq.levels, seq.R, seq.N, seq.M
    )
    report = verify_substitution_sequence(tampered, a, b)
    assert not report.valid
    # the M-adic reconstruction breaks along with property 2 or 3
    assert any("property" in f for f in report.failures)


def test_verify_k1_vacuous_properties():
    seq = long_to_short(Vector([3, 1]), 2, R=2)
    assert seq.k == 1
    report = verify_substitution_sequence(seq, Vector([3, 1]), 2)
    assert report.valid  # properties 2 and 4 hold vacuously


def test_flip_is_involution():
    seq = long_to_short(Vector([10**6, 1]), 0, R=3)
    assert flip_sequence(flip_sequence(seq)) == seq


def test_generalized_certificate_examples():
    # K = {x = 1/2} inside [-2, 2], P = {x <= 0, -x <= -1}
    K = InequalitySystem([[2], [-2], [1], [-1]], [1, -1, 2, 2])
    P = InequalitySystem([[1], [-1]], [0, -1])
    lam = generalized_certificate(K, P)
    assert len(lam) == 2
    assert all(v >= 0 for v in lam)

    box = InequalitySystem.box(1, 0, 1)
    single = generalized_certificate(box, InequalitySystem([[1]], [-1]))
    assert single[0] > 0

    with pytest.raises(ValueError, match="intersect"):
        generalized_certificate(box, InequalitySystem([[1]], [0]))


def test_generalized_certificate_solves_one_lp(monkeypatch):
    """The multipliers come from the one emptiness LP of K and P together,
    whose verified certificate needs no further LP."""
    from branchproofs import simplex

    solves = []
    real = simplex._solve_verified
    monkeypatch.setattr(simplex, "_solve_verified", lambda *args: solves.append(args) or real(*args))
    K = InequalitySystem([[2], [-2], [1], [-1]], [1, -1, 2, 2])
    lam = generalized_certificate(K, InequalitySystem([[1], [-1]], [0, -1]))
    assert len(solves) == 1
    assert (lam[0] + lam[1]) / 2 > 0  # lam (A_P x - b_P) at K's one point x = 1/2


def test_gen_cg_cuts_thin_segment_leaf():
    K, _ = thin_segment(10**6)
    seq = long_to_short(Vector([10**6, 1]), 0, R=3)
    P = InequalitySystem([Vector([10**6, 1])], [0], n=2)
    pairs = gen_cg_cuts(K, P, [seq])
    assert pairs == [(Vector([1, 0]), 0), (Vector([-1, 0]), 0)]
    final = apply_cg_list(K.with_rows([(seq.a_prime, seq.b_prime)]), [a for a, _ in pairs])
    assert is_empty(final) is not None
    check_repair_invariants(K, P, [seq], pairs)


def test_gen_cg_cuts_empty_intersection_returns_nothing():
    K, _ = thin_segment(10)
    seq = long_to_short(Vector([10, 1]), -100, R=3)
    P = InequalitySystem([Vector([10, 1])], [-100], n=2)
    assert is_empty(K.with_rows([(seq.a_prime, seq.b_prime)])) is not None
    assert gen_cg_cuts(K, P, [seq]) == []


# K = {a x = 7/2, -1 <= x1 <= 2, 0 <= x2 <= 1} refuted by a x <= 3 or >= 4:
# both leaves of the recompiled proof take two repair rounds
TWO_ROUND_NORMAL = Vector([-1034173427, 199396078])
TWO_ROUND_K = InequalitySystem(
    [TWO_ROUND_NORMAL, -TWO_ROUND_NORMAL, [1, 0], [-1, 0], [0, 1], [0, -1]],
    [Fraction(7, 2), Fraction(-7, 2), 2, 1, 1, 0],
)


def test_two_round_repair_output_is_pinned():
    """The recompiled proof of a case whose leaves each need two repair
    rounds, byte for byte."""
    proof = BranchNode(TWO_ROUND_NORMAL, 3, BranchNode(), BranchNode())
    rebuilt = recompile(TWO_ROUND_K, proof)
    assert rebuilt.node_count() == 19
    text = format_branching(rebuilt) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "27e909b5400307d937e864d232b7719af781538869b30c4d50b0e19ecce0880d"
    )


@pytest.mark.parametrize("a, b", [(TWO_ROUND_NORMAL, 3), (-TWO_ROUND_NORMAL, -4)])
def test_two_round_repair_keeps_its_invariants(a, b):
    K = TWO_ROUND_K
    P = InequalitySystem([a], [b], n=2)
    seqs = [long_to_short(a, b, l1_radius_bound(K))]
    pairs = gen_cg_cuts(K, P, seqs)
    assert len(pairs) == 4  # two rounds
    check_repair_invariants(K, P, seqs, pairs)
    a_2, b_2 = pairs[2]
    with pytest.raises(AssertionError, match="round 2 forces no current level"):
        check_repair_invariants(K, P, seqs, pairs[:2] + [(a_2, b_2 + 1), (-a_2, -b_2 - 1)])


def test_recompile_thin_segment():
    K, proof = thin_segment(10**6)
    rebuilt = recompile(K, proof)
    assert verify_branching_proof(K, rebuilt).valid
    stats = proof_stats(rebuilt)
    assert stats.length == 11  # 3 skeleton nodes + 2 repair cuts per leaf
    assert stats.length <= 3 + 4 * 3 * 2
    assert stats.max_coeff <= (10 * 2 * 3) ** 16


def test_recompile_small_coefficients_pass_through():
    K, proof = thin_segment(2)
    rebuilt = recompile(K, proof)
    assert verify_branching_proof(K, rebuilt).valid
    assert rebuilt.node_count() == proof.node_count()
    assert rebuilt.a == proof.a and rebuilt.b == proof.b


def test_recompile_empty_root():
    empty = InequalitySystem([[1, 0], [-1, 0]], [0, -1])
    rebuilt = recompile(empty, BranchNode())
    assert rebuilt.is_leaf


def test_recompile_rejects_invalid_proof():
    K, _ = thin_segment(10)
    bad = BranchNode(Vector([1, 0]), 0, BranchNode(), BranchNode())
    with pytest.raises(ValueError, match="invalid"):
        recompile(K, bad)


def test_recompile_random_proofs():
    rng = Random(61)
    for _ in range(6):
        K = random_integer_free_polytope(rng, 2)
        proof = random_branching_proof(rng, K)
        R = l1_radius_bound(K)
        rebuilt = recompile(K, proof)
        assert verify_branching_proof(K, rebuilt).valid
        stats = proof_stats(rebuilt)
        n = K.n
        assert stats.max_coeff <= (10 * n * R) ** ((n + 2) ** 2)
        bound = proof.node_count() + 4 * (n + 1) * proof.leaf_count()
        assert stats.length <= bound


def test_recompile_rotated_slabs():
    """Big-coefficient slabs in random orientation, n in {2, 3}."""
    from branchproofs.prooftree import certify, verify_certified_proof
    import math

    rng = Random(20250811)
    trials = 0
    while trials < 10:
        n = rng.choice([2, 3])
        M = 10 ** rng.randint(3, 8)
        big = rng.randrange(n)
        a = Vector([M if i == big else rng.randint(-3, 3) for i in range(n)])
        c = rng.randint(-2, 2) + Fraction(rng.randint(1, 3), 4)
        rows = [(a, c), (-a, -c)]
        for i in range(n):
            if i != big:
                rows.append((Vector.unit(n, i), rng.randint(1, 2)))
                rows.append((-Vector.unit(n, i), rng.randint(0, 1)))
        K = InequalitySystem([r for r, _ in rows], [b for _, b in rows], n=n)
        if is_empty(K) is not None:
            continue
        proof = BranchNode(a, math.floor(c), BranchNode(), BranchNode())
        if not verify_branching_proof(K, proof).valid:
            continue
        trials += 1
        rebuilt = recompile(K, proof)
        assert verify_branching_proof(K, rebuilt).valid
        R = l1_radius_bound(K)
        stats = proof_stats(rebuilt)
        assert stats.max_coeff <= (10 * n * R) ** ((n + 2) ** 2)
        assert stats.length <= 3 + 4 * (n + 1) * 2
        assert verify_certified_proof(K, certify(K, rebuilt)).valid
