"""Instance generators: Tseitin systems and refutations, P_n, Q_n, segments."""

import itertools
from fractions import Fraction

import pytest

from branchproofs.enumcp import enum_to_cp
from branchproofs.families import (
    TseitinInstance,
    pn_polytope,
    qn_polytope,
    qn_split_refutation,
    thin_segment,
    tseitin_polytope,
    tseitin_sp_refutation,
)
from branchproofs.geometry import apply_cg_list
from branchproofs.prooftree import (
    proof_stats,
    verify_branching_proof,
    verify_enumerative_proof,
)
from branchproofs.simplex import InequalitySystem, is_empty
from branchproofs.vectors import Vector


def triangle():
    return TseitinInstance(3, ((0, 1), (1, 2), (0, 2)), (1, 0, 0))


def test_instance_validation():
    with pytest.raises(ValueError, match="odd"):
        TseitinInstance(2, ((0, 1),), (1, 1))
    with pytest.raises(ValueError, match="self-loops"):
        TseitinInstance(2, ((0, 0),), (1, 0))
    with pytest.raises(ValueError, match="range"):
        TseitinInstance(2, ((0, 5),), (1, 0))


def test_graph_text_round_trip():
    inst = triangle()
    assert TseitinInstance.from_text(inst.to_text()) == inst


@pytest.mark.parametrize("text, message", [
    ("3 3 junk\n0 1\n1 2\n0 2\n1 0 0\n", "first line 'V E' must be two integers, found '3 3 junk'"),
    ("3 3\n0 1 2\n1 2\n0 2\n1 0 0\n", "edge line 'u v' must be two integers, found '0 1 2'"),
    ("3 3\n0 1\n1\n0 2\n1 0 0\n", "edge line 'u v' must be two integers, found '1'"),
])
def test_graph_reader_names_the_bad_line(text, message):
    """A header is exactly 'V E' and an edge line exactly two integers."""
    with pytest.raises(ValueError, match=message):
        TseitinInstance.from_text(text)


def test_triangle_polytope_shape():
    K = tseitin_polytope(triangle())
    assert K.n == 3
    assert K.m == 6 + 6  # 2 clauses per degree-2 vertex, plus 6 bounds


def test_single_edge_polytope():
    K = tseitin_polytope(TseitinInstance(2, ((0, 1),), (1, 0)))
    assert K.n == 1
    # the two unit clauses force x = 1 and x = 0 at once: infeasible already,
    # and certainly with no 0/1 point
    assert not K.contains(Vector([0]))
    assert not K.contains(Vector([1]))
    assert is_empty(K) is not None


def test_degree_guard():
    star_edges = tuple((0, i) for i in range(1, 23))
    inst = TseitinInstance(23, star_edges, (1,) + (0,) * 22)
    with pytest.raises(ValueError, match="degree"):
        tseitin_polytope(inst)


def test_parity_invariant_brute_force():
    """On any 0/1 point satisfying the parity constraints inside W, the edge
    count leaving W is congruent to the parity sum over W."""
    inst = TseitinInstance(
        4, ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3)), (1, 0, 0, 0)
    )
    vertex_sets = [
        W
        for size in range(1, 5)
        for W in itertools.combinations(range(4), size)
    ]
    for bits in itertools.product((0, 1), repeat=inst.num_edges):
        x = list(bits)
        for W in vertex_sets:
            if any(
                sum(x[e] for e in inst.incident(v)) % 2 != inst.parities[v]
                for v in W
            ):
                continue
            crossing = sum(
                x[i]
                for i, (u, v) in enumerate(inst.edges)
                if (u in W) != (v in W)
            )
            assert crossing % 2 == sum(inst.parities[v] for v in W) % 2


def test_triangle_refutation_valid():
    K = tseitin_polytope(triangle())
    proof = tseitin_sp_refutation(triangle())
    report = verify_enumerative_proof(K, proof)
    assert report.valid


def test_single_edge_refutation():
    inst = TseitinInstance(2, ((0, 1),), (1, 0))
    proof = tseitin_sp_refutation(inst)
    # the LP relaxation is already empty (conflicting unit clauses), so the
    # shortest valid refutation is a single empty leaf
    assert proof.node_count() == 1
    assert verify_enumerative_proof(tseitin_polytope(inst), proof).valid


def test_k4_pipeline():
    inst = TseitinInstance(
        4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)), (1, 0, 0, 0)
    )
    K = tseitin_polytope(inst)
    proof = tseitin_sp_refutation(inst)
    assert verify_enumerative_proof(K, proof).valid
    cuts = enum_to_cp(K, proof)
    assert len(cuts) <= 2 * proof.node_count() - 1
    assert is_empty(apply_cg_list(K, cuts)) is not None


def test_pn_examples():
    P2 = pn_polytope(2)
    # collapses to the single point (1/2, 1/2)
    assert P2.contains(Vector([Fraction(1, 2), Fraction(1, 2)]))
    for point in itertools.product((0, 1), repeat=2):
        assert not P2.contains(Vector(point))

    P3 = pn_polytope(3)
    center = Vector([Fraction(1, 2)] * 3)
    assert P3.contains(center)
    for point in itertools.product((0, 1), repeat=3):
        assert not P3.contains(Vector(point))


def test_pn_clause_removal_restores_feasibility():
    n = 3
    P = pn_polytope(n)
    rows = list(P.rows())
    for mask in range(2**n):
        kept = rows[:mask] + rows[mask + 1:]
        reduced = InequalitySystem([a for a, _ in kept], [b for _, b in kept], n=n)
        complement = Vector([0 if mask >> i & 1 else 1 for i in range(n)])
        assert reduced.contains(complement)


def test_pn_guards():
    with pytest.raises(ValueError):
        pn_polytope(1)
    with pytest.raises(ValueError):
        pn_polytope(17)


def test_qn_examples():
    Q2 = qn_polytope(2)
    # y = 0 forces x = (1/2, 1/2)
    assert Q2.contains(Vector([Fraction(1, 2), Fraction(1, 2), 0, 0]))
    assert not Q2.contains(Vector([1, Fraction(1, 2), Fraction(1, 2), 0]))
    # the relaxation is nonempty but no integer x extends to (x, y) in Q_n
    for n in (2, 3):
        Q = qn_polytope(n)
        P = pn_polytope(n)
        for point in itertools.product((0, 1), repeat=n):
            x = Vector(point)
            fixed = Q
            for i in range(n):
                fixed = fixed.with_equality(Vector.unit(2 * n, i), point[i])
            assert is_empty(fixed) is not None
            assert not P.contains(x)


def test_qn_split_refutation(monkeypatch):
    for n in (2, 4):
        report = qn_split_refutation(n)
        assert report.valid
        assert report.certificate is not None

    # on the cube [0,1]^(2n) in place of Q_n, y_i >= 1/2 is no split cut and
    # the cut cube stays nonempty: the report names both faults
    from branchproofs import families

    monkeypatch.setattr(families, "qn_polytope", lambda n: InequalitySystem.box(2 * n, 0, 1))
    tampered = qn_split_refutation(4)
    assert not tampered.valid and tampered.certificate is None
    assert any("x_0 <= 0" in f for f in tampered.side_failures)
    assert "augmented system is still feasible" in tampered.side_failures


def test_thin_segment_examples():
    K, proof = thin_segment(1)
    assert verify_branching_proof(K, proof).valid
    assert proof_stats(proof).max_coeff == 1

    K6, proof6 = thin_segment(10**6)
    assert verify_branching_proof(K6, proof6).valid
    assert proof_stats(proof6).max_coeff == 10**6

    from branchproofs.prooftree import BranchNode

    axis = BranchNode(Vector([1, 0]), 0, BranchNode(), BranchNode())
    report = verify_branching_proof(K6, axis)
    assert not report.valid  # witness: x = (0, 1/2) has x_1 = 0
