"""CG-cut lifting and the enumerative-to-cutting-plane serialization."""

import hashlib
import math
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from branchproofs import enumcp
from branchproofs.enumcp import enum_to_cp, lift_cg_sequence
from branchproofs.families import TseitinInstance, tseitin_polytope, tseitin_sp_refutation
from branchproofs.geometry import (
    CgCut, apply_cg, apply_cg_list, cuts_to_text, face, support_value,
)
from branchproofs.prooftree import EnumNode, verify_enumerative_proof
from branchproofs.simplex import InequalitySystem, Optimal, SolverError, is_empty
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


def face_records(K, c, normals):
    """The records of ``normals`` applied in turn to ``face(K, c)``."""
    face_set, records = face(K, c), []
    for a in normals:
        face_set, record = apply_cg(face_set, a)
        records.append(record)
    return records


def lift(K, c, normals):
    """The lifted records of ``normals`` applied in turn to ``face(K, c)``.

    Their hand-built twins ``CgCut(a, rhs)``, which carry no face optimum,
    must lift by the search of solves alone to the same cuts."""
    records = face_records(K, c, normals)
    lifted = lift_cg_sequence(K, c, records)[1]
    searched = lift_cg_sequence(K, c, [CgCut(r.normal, r.rhs) for r in records])[1]
    assert lifted == searched  # normals and rhs
    return lifted


def test_lift_cg_cut_zero_multiplier():
    cut = lift(horizontal_segment(), Vector([1, 0]), [Vector([0, 1])])[0]
    assert cut.normal == Vector([0, 1])


def test_lift_cg_cut_needs_one_step():
    cut = lift(diagonal_segment(), Vector([1, 0]), [Vector([0, -1])])[0]
    assert cut.normal == Vector([1, -1])


def test_lift_cg_cut_zero_face_normal():
    K = InequalitySystem.box(2, 0, 1)
    cut = lift(K, Vector([0, 0]), [Vector([1, 1])])[0]
    assert cut.normal == Vector([1, 1])


def test_lift_cg_cut_requires_integral_face_value():
    with pytest.raises(ValueError, match="integral"):
        lift(horizontal_segment(), Vector([0, 1]), [Vector([1, 0])])


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
        cut = lift(K, c, [a])[0]
        F = face(K, c)
        lhs = apply_cg_list(K, [cut.normal]).with_equality(c, value)
        rhs = apply_cg_list(F, [a])
        for point in integer_points_in_box(
            InequalitySystem.box(2, -4, 4), -4, 4
        ):
            assert lhs.contains(point) == rhs.contains(point)


def count_certified(monkeypatch) -> list:
    """Every certified lift from here on, as ``(system, normal, record)``."""
    certified, real = [], enumcp._apply_certified

    def counted(K, a, *rest):
        system, record = real(K, a, *rest)
        certified.append((K, a, record))
        return system, record

    monkeypatch.setattr(enumcp, "_apply_certified", counted)
    return certified


def assert_cold_values(certified):
    """Each certified value is the support value a cold twin solves."""
    for K, a, record in certified:
        cold = InequalitySystem(K.matrix, K.rhs, n=K.n)
        assert record._optimal.value == support_value(cold, a)
        assert record.rhs == math.floor(record._optimal.value)


def test_hand_built_records_lift_by_the_search(monkeypatch):
    """Records without a carried optimum are lifted by solves alone; the
    records apply_cg returns are certified on the same cases."""
    certified = count_certified(monkeypatch)
    cases = [(horizontal_segment(), Vector([1, 0]), [Vector([0, 1])]),
             (diagonal_segment(), Vector([1, 0]), [Vector([0, -1])]),
             (InequalitySystem.box(2, 0, 1), Vector([0, 0]), [Vector([1, 1])])]
    for K, c, normals in cases:
        bare = [CgCut(r.normal, r.rhs) for r in face_records(K, c, normals)]
        lift_cg_sequence(K, c, bare)
    assert certified == []
    for K, c, normals in cases:
        lift_cg_sequence(K, c, face_records(K, c, normals))
    assert len(certified) == len(cases)
    assert_cold_values(certified)


def with_optimal(record, optimal):
    return CgCut._carrying(record.normal, record.rhs, optimal, record._row)


def test_tampered_carried_certificate_raises(monkeypatch):
    """A carried dual with one multiplier halved, or a carried point moved
    off K, fails the integer check of the certified lift."""
    K, c = diagonal_segment(), Vector([1, 0])
    (record,) = face_records(K, c, [Vector([0, -1])])
    opt = record._optimal
    point, scale, weights, sigmas, w_den = opt._parts
    certified = count_certified(monkeypatch)
    assert lift_cg_sequence(K, c, [record])[1][0].normal == Vector([1, -1])
    assert len(certified) == 1 and len(weights) == 2
    for row, _ in weights:  # sigma_i w_i / w_den on row i: halve one
        halved = [(i, w if i == row else 2 * w) for i, w in weights]
        tampered = Optimal(opt.value, point, scale, halved, sigmas, 2 * w_den)
        assert sum(a != b for a, b in zip(tampered.dual, opt.dual)) == 1
        with pytest.raises(SolverError):
            lift_cg_sequence(K, c, [with_optimal(record, tampered)])
    moved = Optimal(opt.value, [v + scale for v in point], scale, weights, sigmas, w_den)
    assert not K.contains(moved.point)
    with pytest.raises(SolverError):
        lift_cg_sequence(K, c, [with_optimal(record, moved)])


def test_lift_row_map_through_a_row_tightened_on_the_face(monkeypatch):
    """The face tightens its row 2 in place while K appends the lifted cut,
    so face row 2 maps to K's new row with the cut's multiplier; a later
    face cut whose dual uses face row 2 is certified through that map."""
    K = InequalitySystem([[1, 0], [-1, 0], [0, 1], [2, 2], [0, -1]],
                         [1, 0, Fraction(5, 2), 5, 0])
    c = Vector([1, 0])
    F0 = face(K, c)
    F1, first = apply_cg(F0, Vector([0, 1]))
    assert first._row == 2 and F1.m == F0.m and F1.rhs[2] == 1  # tightened in place
    _, second = apply_cg(F1, Vector([0, 1]))
    assert second._row == 2 and list(second._optimal.dual) == [0, 0, 1, 0, 0, 0, 0]
    certified = count_certified(monkeypatch)
    after, lifted = lift_cg_sequence(K, c, [first, second])
    assert [r.normal for r in lifted] == [Vector([1, 1]), Vector([1, 1])]
    assert lifted[0]._row == K.m and after.m == K.m + 1  # appended on K
    assert lifted[1]._row == K.m and after.rhs[K.m] == 2  # dominated by it
    assert [a for _, a, _ in certified] == [Vector([1, 1]), Vector([1, 1])]
    assert_cold_values(certified)


def test_certified_lifts_match_cold_solves(monkeypatch):
    """On seeded random polytopes and proofs, every certified lift's value
    is the support value of a cold twin of its system."""
    certified = count_certified(monkeypatch)
    rng = Random(90)
    for _ in range(25):
        K = random_integer_free_polytope(rng, 2)
        c = Vector([rng.randint(-2, 2), rng.randint(-2, 2)])
        if c.is_zero() or support_value(K, c).denominator != 1:
            continue
        normals = [Vector([rng.randint(-2, 2), rng.randint(-2, 2)])
                   for _ in range(rng.randint(1, 3))]
        lift(K, c, normals)
    rng = Random(47)
    for _ in range(10):
        K = random_integer_free_polytope(rng, rng.randint(2, 3))
        enum_to_cp(K, random_enumerative_proof(rng, K))
    assert len(certified) > 20
    assert_cold_values(certified)


# (certified lifts, search solves) of k4's enum_to_cp; the face LP is dual
# degenerate, so the warm-start basis picks which optimal dual, and so which
# i*, a lift sees, while the multipliers and cuts stay the same
CERTIFIED_K4_PIN = (27, 16)


def test_k4_lifts_are_certified(monkeypatch):
    """k4's enum_to_cp makes 34 searches; before certified lifts they solved
    43 support values, now most end at a certificate with no LP."""
    inst = TseitinInstance.from_text(
        (Path(__file__).resolve().parent.parent / "instances" / "k4.graph").read_text())
    counts = {"searches": 0, "solves": 0}
    searching = []
    real_search, real_support = enumcp._search_multiplier, enumcp.support_value

    def search(*args):
        counts["searches"] += 1
        searching.append(True)
        try:
            return real_search(*args)
        finally:
            searching.pop()

    def support(*args):
        counts["solves"] += bool(searching)
        return real_support(*args)

    monkeypatch.setattr(enumcp, "_search_multiplier", search)
    monkeypatch.setattr(enumcp, "support_value", support)
    certified = count_certified(monkeypatch)
    enum_to_cp(tseitin_polytope(inst), tseitin_sp_refutation(inst))
    assert counts["searches"] == 34
    assert 0 < len(certified) and counts["solves"] < 43
    assert (len(certified), counts["solves"]) == CERTIFIED_K4_PIN


def test_grid3x3_chain_tests_emptiness_only_at_the_root(monkeypatch):
    """grid3x3's generator and enum_to_cp solve the zero-objective LP of
    ``is_empty`` on K alone, and its verifier on no node: every node below
    the root is nonempty by convexity, and the verifier reads a labeled
    node's emptiness from its support LPs (the proof has no unlabeled leaf).
    They solved 47, 47 and 32 such LPs while each node was tested by one of
    its own."""
    from branchproofs import simplex

    inst = TseitinInstance.from_text(
        (Path(__file__).resolve().parent.parent / "instances" / "grid3x3.graph").read_text())
    zero_solves = []
    solve = simplex._solve_verified

    def counted_solve(system, c, key):
        zero_solves[-1] += c.is_zero()
        return solve(system, c, key)

    monkeypatch.setattr(simplex, "_solve_verified", counted_solve)
    zero_solves.append(0)
    proof = tseitin_sp_refutation(inst)
    zero_solves.append(0)
    assert verify_enumerative_proof(tseitin_polytope(inst), proof).valid
    zero_solves.append(0)
    enum_to_cp(tseitin_polytope(inst), proof)
    generator, verifier, serializer = zero_solves
    assert generator <= 1 and verifier == 0 and serializer <= 1


def test_lift_sequence_trivial_cases():
    K = horizontal_segment()
    current, lifted = lift_cg_sequence(K, Vector([1, 0]), [])
    assert current is K and lifted == []
    single = lift(K, Vector([1, 0]), [Vector([0, 1])])
    assert len(single) == 1
    assert single[0].normal == lift(K, Vector([1, 0]), [Vector([0, 1])])[0].normal


def test_enum_to_cp_empty_set():
    empty = InequalitySystem([[1, 0], [-1, 0]], [0, -1])
    proof = EnumNode()
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
                   children=((0, EnumNode()), (1, EnumNode())))
    with pytest.raises(ValueError):
        enum_to_cp(K, bad)
    # the push-down leaves 1/2 <= x <= 2, below lo = 3 but not empty
    K = InequalitySystem.box(1, Fraction(1, 2), Fraction(5, 2))
    with pytest.raises(ValueError, match="does not refute"):
        enum_to_cp(K, EnumNode(a=Vector([1]), lo=3, hi=3))


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


# sha256 of cuts_to_text(enum_to_cp(K, proof)) for the proofs drawn from
# Random(4040) below, recorded before serialization levels passed CgCut records
RANDOM_PROOF_CUT_DIGESTS = (
    "98a7338ce3397765d52807b4e0e023bf4360fd0dc523462e2107161802464620",
    "ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28",
    "98a7338ce3397765d52807b4e0e023bf4360fd0dc523462e2107161802464620",
    "a8d84da4d4fa59787044fb523e8aa913a3302f964d361ac32817c3a344d1bb24",
    "6eb2a383c24aa96560aedef051cb40e30f846f0eef331f19164059da5f6d06d0",
    "0a6ce55a41c213cf0da662552cb02f2b9b49255a807fc96f2aee4ba27893ce78",
    "ce736faa4fc516dc59778f86342fc9566909118f00a00222929c810d435c5dbe",
    "0ec1df984cc69362cd457c1c9c39f4884430ead9828983e8f542d70ee89619a9",
    "3a71b789e184ca3a0700a2f70b1f02dce5cef15c9b64d21b7f755cef2df01bcf",
    "cc78a867472a2232b7f1e5bd8bc0b448e1ecefc1262e6b89388bbe400dd2f527",
    "21f5c91d62a2530c36119922bda6f02b8084df6f87e1fa0f8f9a839cd828cbd9",
    "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424",
    "052d7b89637345503bc1983feec6e40e7c3e572093795e61a591d4ac3ff18e81",
    "855c44b4a923f91c2be9a5ae168a4b06299c12d85575edbb145d16c0f57a558d",
    "7e0699ca1fae75f6a513c751d704f9d3ccaebd672f71e7672f5f51c3fa08aa5c",
    "98a7338ce3397765d52807b4e0e023bf4360fd0dc523462e2107161802464620",
    "00ec4e2cc602f7808429da8850d5e369396ec18b6f583a7c3b1f88d9c8c01698",
    "fae24d9669cbb826d1eb06eebd3e05a9e865cce17f9c936ad9ef330e3e78b4bf",
    "d562dc7bf7d1a59f8d45ed095b7ae512dc22f12e01481d7e23c4e649cb7a29d8",
    "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "e9f71ae91475a8fbcabe54e1236af38e6f156c1998804fd594bd21f9ee4b4665",
    "51dfb9a6d812100d2f1469c2f2f6008759dd60bf1197f9e1404312a982ca5d01",
    "b9217e6f3556e8673027d114c6d7c1dd32cad6ccffdf0d68e6f6a29d8e070fa7",
    "8515902f9c7436cfab9a2186f232eed04a4eaca0bd27fa0930edb2f191f0b866",
    "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "092a7c47111dfc2e5b52f5281f77d10587b2fee2623bef52386f367392143722",
    "32f84fa8edc8853c4c330222bec2017632295bad29b50f65a779b2ac73c4a8db",
    "32f84fa8edc8853c4c330222bec2017632295bad29b50f65a779b2ac73c4a8db",
    "6d7e57500ed2a02a3ddb964918cf61a1826ab46ed45160377f7554acfbfe1b7c",
    "2380fe4bc790e895d4ef82b586cca6e6e49b4a5664c6a8b5d47fe4aa98cab713",
)


def test_enum_to_cp_builds_each_face_once(monkeypatch):
    """One face per serialized (node, value) pair; random cut lists pinned."""
    k4 = TseitinInstance(
        4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)), (1, 0, 0, 0)
    )
    K, proof = tseitin_polytope(k4), tseitin_sp_refutation(k4)
    faces, frames = [], []
    real_face, real_node = enumcp.face, enumcp._serialize_node
    monkeypatch.setattr(enumcp, "face", lambda S, a: faces.append(a) or real_face(S, a))
    monkeypatch.setattr(
        enumcp, "_serialize_node", lambda S, node: frames.append(node) or real_node(S, node)
    )
    cuts = enum_to_cp(K, proof)
    assert is_empty(apply_cg_list(K, cuts)) is not None
    assert len(frames) > 1
    assert len(faces) == len(frames) - 1  # every frame but the root's is a face

    rng = Random(4040)
    digests = []
    for _ in range(len(RANDOM_PROOF_CUT_DIGESTS)):
        K = random_integer_free_polytope(rng, rng.randint(1, 3))
        proof = random_enumerative_proof(rng, K)
        text = cuts_to_text(enum_to_cp(K, proof))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(digests) == RANDOM_PROOF_CUT_DIGESTS
