"""CG-cut lifting and the enumerative-to-cutting-plane serialization."""

from fractions import Fraction
from random import Random

import pytest

from branchproofs.enumcp import enum_to_cp, lift_cg_sequence
from branchproofs.geometry import apply_cg_list, support_value
from branchproofs.prooftree import EnumNode, verify_enumerative_proof
from branchproofs.simplex import InequalitySystem, is_empty
from branchproofs.vectors import Vector

from oracles import integer_points_in_box
from randgen import random_enumerative_proof, random_integer_free_polytope


def horizontal_segment():
    # {x2 = 1/2, 0 <= x1 <= 1}
    return InequalitySystem(
        [[0, 1], [0, -1], [1, 0], [-1, 0]],
        [Fraction(1, 2), Fraction(-1, 2), 1, 0],
    )


def diagonal_segment():
    # from (0, 0) to (1, 1)
    return InequalitySystem(
        [[1, -1], [-1, 1], [1, 0], [-1, 0]],
        [0, 0, 1, 0],
    )


def test_lift_cg_cut_zero_multiplier():
    cut = lift_cg_sequence(horizontal_segment(), Vector([1, 0]), [Vector([0, 1])])[0]
    assert cut.multiplier == 0
    assert cut.lifted == Vector([0, 1])


def test_lift_cg_cut_needs_one_step():
    cut = lift_cg_sequence(diagonal_segment(), Vector([1, 0]), [Vector([0, -1])])[0]
    assert cut.multiplier == 1
    assert cut.lifted == Vector([1, -1])


def test_lift_cg_cut_zero_face_normal():
    K = InequalitySystem.box(2, 0, 1)
    cut = lift_cg_sequence(K, Vector([0, 0]), [Vector([1, 1])])[0]
    assert cut.multiplier == 0 and cut.lifted == Vector([1, 1])


def test_lift_cg_cut_requires_integral_face_value():
    with pytest.raises(ValueError, match="integral"):
        lift_cg_sequence(horizontal_segment(), Vector([0, 1]), [Vector([1, 0])])[0]


def test_lift_preserves_face_trace():
    """The lifted cut has the same effect on the face as the face's own cut."""
    rng = Random(90)
    for _ in range(25):
        K = random_integer_free_polytope(rng, 2)
        c = Vector([rng.randint(-2, 2), rng.randint(-2, 2)])
        if c.is_zero():
            continue
        value = support_value(K, c)
        if value.denominator != 1:
            continue  # lifting requires an integral support value
        a = Vector([rng.randint(-2, 2), rng.randint(-2, 2)])
        cut = lift_cg_sequence(K, c, [a])[0]
        from branchproofs.geometry import face

        F = face(K, c)
        lhs = apply_cg_list(K, [cut.lifted]).with_equality(c, value)
        rhs = apply_cg_list(F, [a])
        for point in integer_points_in_box(
            InequalitySystem.box(2, -4, 4), -4, 4
        ):
            assert lhs.contains(point) == rhs.contains(point)


def test_lift_sequence_trivial_cases():
    K = horizontal_segment()
    assert lift_cg_sequence(K, Vector([1, 0]), []) == []
    single = lift_cg_sequence(K, Vector([1, 0]), [Vector([0, 1])])
    assert len(single) == 1
    assert single[0].lifted == lift_cg_sequence(K, Vector([1, 0]), [Vector([0, 1])])[0].lifted


def test_enum_to_cp_empty_set():
    empty = InequalitySystem([[1, 0], [-1, 0]], [0, -1])
    proof = EnumNode(leaf_kind="empty")
    assert enum_to_cp(empty, proof) == []


def test_enum_to_cp_single_gap_node():
    K = InequalitySystem([[2], [-2], [1], [-1]], [1, -1, 1, 0])
    proof = EnumNode(a=Vector([1]), lo=Fraction(1, 2), hi=Fraction(1, 2))
    cuts = enum_to_cp(K, proof)
    assert cuts == [Vector([1])]
    assert is_empty(apply_cg_list(K, cuts)) is not None


def test_enum_to_cp_three_node_trace():
    K = horizontal_segment()
    gap = lambda: EnumNode(a=Vector([0, 1]), lo=Fraction(1, 2), hi=Fraction(1, 2))
    proof = EnumNode(
        a=Vector([1, 0]), lo=0, hi=1, children=((0, gap()), (1, gap()))
    )
    cuts = enum_to_cp(K, proof)
    assert cuts == [Vector([1, 0]), Vector([0, 1]), Vector([1, 0])]
    assert len(cuts) <= 2 * proof.node_count() - 1
    assert is_empty(apply_cg_list(K, cuts)) is not None


def test_enum_to_cp_invalid_proof_raises():
    K = InequalitySystem.box(1, 0, 1)  # contains integers: not refutable
    bad = EnumNode(a=Vector([1]), lo=0, hi=1,
                   children=((0, EnumNode(leaf_kind="empty")),
                             (1, EnumNode(leaf_kind="empty"))))
    with pytest.raises(ValueError):
        enum_to_cp(K, bad)


def test_enum_to_cp_random_bound_and_emptiness():
    rng = Random(47)
    for _ in range(15):
        K = random_integer_free_polytope(rng, 2)
        proof = random_enumerative_proof(rng, K)
        assert verify_enumerative_proof(K, proof).valid
        cuts = enum_to_cp(K, proof)
        assert len(cuts) <= 2 * proof.node_count() - 1
        assert is_empty(apply_cg_list(K, cuts)) is not None


def test_enum_to_cp_prefix_soundness():
    """After every prefix of the cut list, all integer points of K survive."""
    rng = Random(48)
    for _ in range(8):
        K = random_integer_free_polytope(rng, 2)
        proof = random_enumerative_proof(rng, K)
        cuts = enum_to_cp(K, proof)
        points = list(integer_points_in_box(K, -3, 3))  # empty for these K
        current = K
        for i in range(len(cuts) + 1):
            current = apply_cg_list(K, cuts[:i])
            for p in points:
                assert current.contains(p)
