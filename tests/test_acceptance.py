"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact (rational arithmetic, zero numerical tolerance); the
stated runtime budgets are asserted with wall-clock measurements.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
import time
from fractions import Fraction
from random import Random

from branchproofs.diophantine import approximation_error, dirichlet_approx
from branchproofs.enumcp import enum_to_cp
from branchproofs.families import (
    TseitinInstance,
    pn_polytope,
    qn_split_refutation,
    thin_segment,
    tseitin_polytope,
    tseitin_sp_refutation,
)
from branchproofs.geometry import apply_cg_list, l1_radius_bound
from branchproofs.prooftree import (
    certify,
    proof_stats,
    verify_branching_proof,
    verify_certified_proof,
    verify_enumerative_proof,
)
from branchproofs.recompile import (
    flip_sequence,
    gen_cg_cuts,
    long_to_short,
    recompile,
    verify_substitution_sequence,
)
from branchproofs.simplex import InequalitySystem, is_empty
from branchproofs.vectors import Vector

from oracles import check_repair_invariants, fourier_motzkin_empty, integer_points_in_box
from randgen import (
    random_boxed_polytope,
    random_disjoint_pair,
    random_enumerative_proof,
    random_integer_free_polytope,
    random_split_leaf,
    random_system,
    random_thin_slab,
)

COEFF_BOUND = (10 * 2 * 3) ** 16  # (10 n R)^((n+2)^2) at n = 2, R = 3


def _thin_segment_fixtures():
    return [(M, *thin_segment(M)) for M in (10**3, 10**6, 10**9)]


def test_criterion_1_thin_segment_recompilation():
    """Recompiled one-step refutations stay valid with bounded data."""
    for M, K, proof in _thin_segment_fixtures():
        start = time.monotonic()
        rebuilt = recompile(K, proof)
        elapsed = time.monotonic() - start
        report = verify_branching_proof(K, rebuilt)
        stats = proof_stats(rebuilt)
        assert report.valid, f"M={M}: recompiled proof invalid"
        assert stats.max_coeff <= COEFF_BOUND, f"M={M}: coefficient too large"
        assert stats.length <= 3 + 4 * 3 * 2, f"M={M}: tree too large"
        assert elapsed < 5.0, f"M={M}: took {elapsed:.2f}s"
    print("criterion 1 (thin-segment recompilation, M = 1e3/1e6/1e9): PASS")


def test_criterion_2_diophantine_suite():
    """500 random approximations satisfy all four exact guarantees."""
    rng = Random(20210)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 4)
        N = rng.randint(1, 40)
        a = Vector(
            [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(n)]
        )
        if a.is_zero():
            continue
        approx = dirichlet_approx(a, N)
        assert 1 <= approx.multiplier <= N**n
        assert approx.a_prime.norm_linf() == approx.multiplier
        assert approximation_error(a, approx) * N < 1
        assert all(
            w == 0 for v, w in zip(a, approx.a_prime) if v == 0
        ), "zero coordinate not preserved"
        checked += 1
    print(f"criterion 2 (Diophantine approximation, {checked} samples): PASS")


def test_criterion_3_substitution_suite():
    """100 random substitution sequences verify in both orientations."""
    rng = Random(30303)
    start = time.monotonic()
    for trial in range(100):
        n = rng.randint(1, 3)
        R = rng.randint(1, 4)
        span = 10 ** rng.choice([1, 3, 6])
        while True:
            a = Vector([rng.randint(-span, span) for _ in range(n)])
            if not a.is_zero():
                break
        b = rng.randint(-2 * R * span, 2 * R * span)
        seq = long_to_short(a, b, R)
        assert seq.k <= n + 1, f"trial {trial}: k too large"
        assert verify_substitution_sequence(seq, a, b).valid, f"trial {trial}"
        flip = flip_sequence(seq)
        assert verify_substitution_sequence(flip, -a, -b - 1).valid, f"trial {trial}"
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"suite took {elapsed:.1f}s"
    print(f"criterion 3 (substitution sequences, 100 samples, {elapsed:.1f}s): PASS")


def _leaf_repair_case(K, P, R) -> int:
    """Check one leaf's repair, its invariants replayed by the oracle; return
    its number of rounds."""
    n = K.n
    seqs = [long_to_short(a, int(b), R) for a, b in P.rows()]
    pairs = gen_cg_cuts(K, P, seqs)
    assert len(pairs) <= 2 * (n + 1), "too many repair cuts"
    cuts = [a for a, _ in pairs]
    final = apply_cg_list(K.with_rows((s.a_prime, s.b_prime) for s in seqs), cuts)
    assert is_empty(final) is not None, "repair cuts left the set nonempty"
    check_repair_invariants(K, P, seqs, pairs)
    return len(pairs) // 2


def test_criterion_4_leaf_repair_bound():
    """gen_cg_cuts stays within 2(n+1) cuts and empties the leaf set."""
    # the two leaves of each thin-segment fixture
    for M, K, proof in _thin_segment_fixtures():
        a, b = proof.a, proof.b
        _leaf_repair_case(K, InequalitySystem([a], [b], n=2), R=3)
        _leaf_repair_case(K, InequalitySystem([-a], [-b - 1], n=2), R=3)
    rng = Random(40404)
    for _ in range(50):
        n = rng.randint(1, 3)
        K, P = random_disjoint_pair(rng, n, magnitude=rng.randint(0, 5))
        _leaf_repair_case(K, P, R=l1_radius_bound(K))
    # both leaves of thin slabs with large normals
    rng = Random(40405)
    rounds = []
    for _ in range(10):
        K, a, c = random_thin_slab(rng, rng.choice([2, 3]))
        if is_empty(K) is not None:
            continue
        for row, rhs in ((a, c), (-a, -c - 1)):
            P = InequalitySystem([row], [rhs], n=K.n)
            rounds.append(_leaf_repair_case(K, P, l1_radius_bound(K)))
    # leaves under two large disjunctions, where the repair picks between rows
    rng = Random(40408)
    split_rounds = []
    for _ in range(300):
        case = random_split_leaf(rng, rng.choice([2, 3]))
        if case is not None:
            K, P = case
            split_rounds.append(_leaf_repair_case(K, P, l1_radius_bound(K)))
    assert max(rounds) >= 2 and max(split_rounds) >= 2, "no leaf needed a second repair round"
    print(f"criterion 4 (leaf repair, 6 fixture + 50 random + {len(rounds)} slab"
          f" + {len(split_rounds)} split leaves, {sum(r >= 2 for r in rounds + split_rounds)}"
          f" of them in 2+ rounds): PASS")


def test_criterion_5_enum_to_cp_bound():
    """|L| <= 2|T| - 1 with an empty final set, on random and Tseitin proofs."""
    rng = Random(50505)
    for trial in range(100):
        n = rng.randint(1, 3)
        K = random_integer_free_polytope(rng, n)
        proof = random_enumerative_proof(rng, K)
        cuts = enum_to_cp(K, proof)
        assert len(cuts) <= 2 * proof.node_count() - 1, f"trial {trial}"
        assert is_empty(apply_cg_list(K, cuts)) is not None, f"trial {trial}"
    for inst in _tseitin_fixtures():
        K = tseitin_polytope(inst)
        proof = tseitin_sp_refutation(inst)
        cuts = enum_to_cp(K, proof)
        assert len(cuts) <= 2 * proof.node_count() - 1
        assert is_empty(apply_cg_list(K, cuts)) is not None
    print("criterion 5 (enumerative-to-CP bound, 100 random + Tseitin): PASS")


def _tseitin_fixtures():
    triangle = TseitinInstance(3, ((0, 1), (1, 2), (0, 2)), (1, 0, 0))
    single = TseitinInstance(2, ((0, 1),), (1, 0))
    k4 = TseitinInstance(
        4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)), (1, 0, 0, 0)
    )
    return [triangle, single, k4]


def _grid_instance():
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c + 1 < 3:
                edges.append((v, v + 1))
            if r + 1 < 3:
                edges.append((v, v + 3))
    parities = [0] * 9
    parities[0] = 1
    return TseitinInstance(9, tuple(edges), tuple(parities))


def test_criterion_6_tseitin_pipeline():
    """Generate, verify and serialize the Tseitin fixtures; grid under 5 min."""
    lengths = {}
    for name, inst in [
        ("C3", _tseitin_fixtures()[0]),
        ("K2", _tseitin_fixtures()[1]),
        ("K4", _tseitin_fixtures()[2]),
    ]:
        K = tseitin_polytope(inst)
        proof = tseitin_sp_refutation(inst)
        assert verify_enumerative_proof(K, proof).valid, name
        cuts = enum_to_cp(K, proof)
        assert is_empty(apply_cg_list(K, cuts)) is not None, name
        lengths[name] = (proof.node_count(), len(cuts))

    start = time.monotonic()
    grid = _grid_instance()
    K = tseitin_polytope(grid)
    proof = tseitin_sp_refutation(grid)
    assert verify_enumerative_proof(K, proof).valid, "grid refutation invalid"
    cuts = enum_to_cp(K, proof)
    assert is_empty(apply_cg_list(K, cuts)) is not None, "grid cut list too weak"
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"grid pipeline took {elapsed:.0f}s"
    lengths["grid3x3"] = (proof.node_count(), len(cuts))
    report = ", ".join(
        f"{name}: |T|={t}, |L|={l}" for name, (t, l) in lengths.items()
    )
    print(f"criterion 6 (Tseitin pipeline, grid {elapsed:.1f}s; {report}): PASS")


def test_criterion_7_hard_instances():
    """P_n integer-free and integer-critical; Q_n split-cut refutations."""
    for n in (2, 3, 4):
        P = pn_polytope(n)
        for point in itertools.product((0, 1), repeat=n):
            assert not P.contains(Vector(point)), f"P_{n} contains {point}"
        for mask in range(2**n):
            keep = [i for i in range(P.m) if i != mask]
            reduced = InequalitySystem(
                [P.matrix[i] for i in keep], [P.rhs[i] for i in keep], n=n
            )
            complement = Vector([0 if mask >> i & 1 else 1 for i in range(n)])
            assert reduced.contains(complement), f"P_{n} not critical at {mask}"
    for n in (2, 3, 4, 5, 6):
        report = qn_split_refutation(n)
        assert report.valid, f"Q_{n}: {report.side_failures}"
        assert report.certificate is not None
    print("criterion 7 (P_n critical for n=2..4, Q_n splits for n=2..6): PASS")


def test_criterion_8_certified_recompilation():
    """certify(recompile(T)) yields sparse, arithmetically checkable leaves."""
    total_bits = 0
    for M, K, proof in _thin_segment_fixtures():
        rebuilt = recompile(K, proof)
        certified = certify(K, rebuilt)
        assert verify_certified_proof(K, certified).valid, f"M={M}"

        def leaf_supports(node):
            if node.is_leaf:
                yield len([v for v in node.cert.multipliers if v != 0])
            else:
                yield from leaf_supports(node.left)
                yield from leaf_supports(node.right)

        assert max(leaf_supports(certified)) <= K.n + 1, f"M={M}: dense certificate"
        total_bits += proof_stats(certified).bit_size
    assert total_bits > 0
    print(f"criterion 8 (certified recompilation, total bit size {total_bits}): PASS")


def test_criterion_9_oracle_equivalence():
    """Emptiness matches Fourier-Motzkin; CG cuts preserve integer points."""
    rng = Random(90909)
    for trial in range(1000):
        n = rng.randint(1, 3)
        system = random_system(rng, n, rng.randint(1, 6))
        ours = is_empty(system) is not None
        oracle = fourier_motzkin_empty(system.matrix, system.rhs)
        assert ours == oracle, f"trial {trial}: solver={ours} oracle={oracle}"

    for trial in range(500):
        K = random_boxed_polytope(rng, 2, rng.randint(0, 3))
        cuts = []
        for _ in range(rng.randint(1, 4)):
            a = Vector([rng.randint(-2, 2), rng.randint(-2, 2)])
            if not a.is_zero():
                cuts.append(a)
        before = set(map(tuple, integer_points_in_box(K, -3, 3)))
        after_system = apply_cg_list(K, cuts)
        after = set(map(tuple, integer_points_in_box(after_system, -3, 3)))
        assert before == after, f"trial {trial}: integer point lost or gained"
    print("criterion 9 (1000 FM agreements, 500 CG preservations): PASS")
