"""Support functions, CG cuts, faces, l1-ball implication, radius bounds."""

import re
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from branchproofs.families import pn_polytope
from branchproofs.geometry import (
    EmptySet,
    UnboundedSet,
    _append_dominant,
    apply_cg,
    apply_cg_list,
    cuts_from_text,
    cuts_to_text,
    face,
    implies_R,
    l1_radius_bound,
    support_value,
)
from branchproofs.simplex import InequalitySystem, is_empty
from branchproofs.vectors import Vector

from oracles import fraction_l1_lift, integer_points_in_box
from randgen import random_boxed_polytope


def unit_box(n):
    return InequalitySystem.box(n, 0, 1)


def test_support_value_examples():
    assert support_value(unit_box(2), Vector([1, 1])) == 2
    empty = InequalitySystem([[1], [-1]], [0, -1])
    with pytest.raises(EmptySet):
        support_value(empty, Vector([3]))
    assert support_value(pn_polytope(2), Vector([1, 0])) == Fraction(1, 2)
    free = InequalitySystem([], [], n=1)
    with pytest.raises(UnboundedSet):
        support_value(free, Vector([1]))


def test_empty_and_unbounded_are_value_errors():
    """The CLI maps a ValueError to exit 2; the message names the direction."""
    assert issubclass(EmptySet, ValueError) and issubclass(UnboundedSet, ValueError)
    half_plane = InequalitySystem([[-1, 0]], [0])
    with pytest.raises(UnboundedSet, match=r"^the set is unbounded along \(1 -1/2\)$"):
        support_value(half_plane, Vector([1, Fraction(-1, 2)]))


def test_no_float_in_src():
    """Support values are exact: no module names a float or an infinity."""
    src = Path(__file__).resolve().parents[1] / "src" / "branchproofs"
    pattern = re.compile(r"math\.inf|NEG_INFINITY|UNBOUNDED|\bfloat\b")
    modules = sorted(src.glob("*.py"))
    assert modules
    found = [f"{path.name}:{i}" for path in modules
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert not found, found


def test_apply_cg_examples():
    K = unit_box(2).with_rows([(Vector([1, 1]), Fraction(3, 2))])
    cut_system, cut = apply_cg(K, Vector([1, 1]))
    assert cut.rhs == 1  # floor(3/2)
    assert support_value(cut_system, Vector([1, 1])) == 1

    # integral support value: the set is unchanged
    box_cut, cut2 = apply_cg(unit_box(2), Vector([1, 0]))
    assert cut2.rhs == 1
    assert support_value(box_cut, Vector([1, 0])) == 1
    assert next(integer_points_in_box(box_cut, -2, 2), None) is not None

    # the point x = 1/2 in [0, 1]: cut empties it
    K3 = InequalitySystem([[2], [-2], [1], [-1]], [1, -1, 1, 0])
    cut_system3, cut3 = apply_cg(K3, Vector([1]))
    assert cut3.rhs == 0
    assert is_empty(cut_system3) is not None


def test_apply_cg_empty_set_is_noop():
    empty = InequalitySystem([[1], [-1]], [0, -1])
    same, cut = apply_cg(empty, Vector([5]))
    assert same is empty
    assert cut.is_noop()
    assert is_empty(apply_cg_list(empty, [Vector([1]), Vector([-2])])) is not None


def test_apply_cg_unbounded_direction_raises():
    with pytest.raises(UnboundedSet):
        apply_cg(InequalitySystem([[-1]], [0]), Vector([1]))


def test_apply_cg_list_examples():
    K = unit_box(2)
    assert apply_cg_list(K, []) == K
    K2 = K.with_rows([(Vector([1, 1]), Fraction(3, 2))])
    once = apply_cg_list(K2, [Vector([1, 1])])
    twice = apply_cg_list(K2, [Vector([1, 1]), Vector([1, 1])])
    assert support_value(once, Vector([1, 1])) == support_value(twice, Vector([1, 1])) == 1


def test_append_dominant_replaces_the_first_row_with_the_normal():
    """The scaled-row lookup finds the first row equal to a, whatever its
    scale, and no row that is only a multiple of a; the row it reports
    carries the cut: appended, tightened in place, or already dominating."""
    rng = Random(808)
    normals = [Vector(v) for v in ([1, 1], [2, 2], [Fraction(1, 2), Fraction(1, 2)],
                                   [1, 0], [0, -1], [1, -1])]
    for _ in range(200):
        rows = [(rng.choice(normals), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 6))]
        K = InequalitySystem([a for a, _ in rows], [b for _, b in rows], n=2)
        a = rng.choice([v for v in normals if v.is_integral()])
        b = Fraction(rng.randint(-3, 3))
        first = next((i for i, row in enumerate(K.matrix) if row == a), None)
        if first is None:
            expected, carrier = list(rows) + [(a, b)], len(rows)
        elif K.rhs[first] <= b:
            expected, carrier = list(rows), first
        else:
            expected, carrier = list(rows), first
            expected[first] = (a, b)
        result, row = _append_dominant(K, a.as_ints(), int(b))
        assert list(result.rows()) == expected
        assert row == carrier and result.matrix[row] == a and result.rhs[row] <= b
        assert (result is K) == (first is not None and K.rhs[first] <= b)


def test_integer_normals_as_tuples_and_rational_objectives():
    """A CG cut normal is read as an int tuple in either form, a non-integral
    one still raises, and rational objectives (implies_R's, a rational
    direction) still solve."""
    K = unit_box(2).with_rows([(Vector([1, 1]), Fraction(3, 2))])
    by_vector, by_tuple = apply_cg(K, Vector([1, 1])), apply_cg(K, (1, 1))
    assert by_vector[0] == by_tuple[0] and by_vector[1] == by_tuple[1]
    assert by_tuple[1].normal == Vector([1, 1]) and by_tuple[1].rhs == 1
    assert apply_cg_list(K, [(1, 1)]) == apply_cg_list(K, [Vector([1, 1])])
    for bad in (Vector([Fraction(1, 2), 1]), (Fraction(1, 2), 1)):
        with pytest.raises(ValueError, match="CG cut normals must be integral"):
            apply_cg(K, bad)
    box = InequalitySystem.box(2, Fraction(-1, 2), Fraction(3, 2))
    assert support_value(box, Vector([Fraction(1, 2), Fraction(-1, 3)])) == Fraction(11, 12)
    assert support_value(box, (1, -1)) == support_value(box, Vector([1, -1])) == 2
    c = Vector([Fraction(1, 2), Fraction(1, 3)])
    assert implies_R(box, c, Fraction(5, 4), 4)
    assert not implies_R(box, c, Fraction(5, 4), 4, strict=True)
    assert not implies_R(box, c, Fraction(6, 5), 4)
    assert l1_radius_bound(box) == 3


def test_apply_cg_result_is_subset():
    rng = Random(21)
    for _ in range(40):
        K = random_boxed_polytope(rng, 2, 2)
        a = Vector([rng.randint(-2, 2), rng.randint(-2, 2)])
        after, _ = apply_cg(K, a)
        for point in integer_points_in_box(after, -3, 3):
            assert K.contains(point)


def test_cg_preserves_integer_points():
    rng = Random(34)
    for _ in range(150):
        K = random_boxed_polytope(rng, 2, rng.randint(0, 3))
        cuts = []
        for _ in range(rng.randint(1, 4)):
            a = Vector([rng.randint(-2, 2), rng.randint(-2, 2)])
            if not a.is_zero():
                cuts.append(a)
        before = set(map(tuple, integer_points_in_box(K, -3, 3)))
        after_system = apply_cg_list(K, cuts)
        after = set(map(tuple, integer_points_in_box(after_system, -3, 3)))
        assert before == after  # CG cuts never remove integer points


def test_face_examples():
    K = unit_box(2)
    F = face(K, Vector([1, 0]))
    assert support_value(F, Vector([0, 1])) == 1
    assert -support_value(F, Vector([-1, 0])) == 1  # x1 pinned to 1

    segment = InequalitySystem(
        [[0, 1], [0, -1], [1, 0], [-1, 0]],
        [Fraction(1, 2), Fraction(-1, 2), 1, 0],
    )
    point = face(segment, Vector([1, 0]))
    assert support_value(point, Vector([1, 0])) == 1
    assert support_value(point, Vector([0, 1])) == Fraction(1, 2)

    corner = face(K, Vector([1, 1]))
    assert support_value(corner, Vector([1, 0])) == 1
    assert support_value(corner, Vector([0, 1])) == 1


def test_face_support_is_stable():
    rng = Random(8)
    for _ in range(30):
        K = random_boxed_polytope(rng, 2, 1)
        if is_empty(K) is not None:
            continue
        a = Vector([rng.randint(-2, 2), rng.randint(-2, 2)])
        assert support_value(face(K, a), a) == support_value(K, a)


def test_face_errors():
    empty = InequalitySystem([[1], [-1]], [0, -1])
    with pytest.raises(EmptySet):
        face(empty, Vector([1]))
    with pytest.raises(UnboundedSet):
        face(InequalitySystem([[-1]], [0]), Vector([1]))


def test_implies_R_examples():
    premise = InequalitySystem([[1]], [0])  # x <= 0
    assert implies_R(premise, Vector([7]), 3, 2)
    premise2 = InequalitySystem([[1]], [1])  # x <= 1
    assert not implies_R(premise2, Vector([7]), 3, 2)
    empty = InequalitySystem([[1], [-1]], [0, -1])
    assert implies_R(empty, Vector([123]), -999, 1)


def test_implies_R_strict():
    premise = InequalitySystem([[1]], [0])
    assert implies_R(premise, Vector([1]), 0, 5)
    assert not implies_R(premise, Vector([1]), 0, 5, strict=True)
    assert implies_R(premise, Vector([1]), 1, 5, strict=True)


def test_implies_R_monotone_in_premise():
    rng = Random(55)
    for _ in range(60):
        n = rng.randint(1, 3)
        base_rows = [
            (Vector([rng.randint(-2, 2) for _ in range(n)]), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3))
        ]
        premise = InequalitySystem(
            [a for a, _ in base_rows], [b for _, b in base_rows], n=n
        )
        c, d = Vector([rng.randint(-2, 2) for _ in range(n)]), rng.randint(-3, 3)
        if implies_R(premise, c, d, 2):
            extra = (Vector([rng.randint(-2, 2) for _ in range(n)]), rng.randint(-3, 3))
            assert implies_R(premise.with_rows([extra]), c, d, 2)


@pytest.mark.parametrize("R", [Fraction(3, 2), 1.5, 0, -1])
def test_implies_R_needs_an_integer_radius(R):
    with pytest.raises(ValueError, match="radius must be a positive integer"):
        implies_R(InequalitySystem([[1]], [0]), Vector([1]), 0, R)


def test_implies_R_lifts_as_the_fraction_path(monkeypatch):
    """implies_R solves on the system that padding the premise's Fraction
    rows and appending the ball's rows by the public constructor builds, and
    answers as that system's support value says, strict and non-strict, on
    premises with rational rows and on a row-less premise."""
    from branchproofs import geometry

    lifted = []
    real = geometry.support_value
    monkeypatch.setattr(geometry, "support_value",
                        lambda system, c: lifted.append(system) or real(system, c))
    rng = Random(2931)
    premises = [InequalitySystem([], [], n=n) for n in (1, 2, 3)]
    for _ in range(24):
        n = rng.randint(1, 3)
        rows = [(Vector([Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]),
                 Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
                for _ in range(rng.randint(1, 4))]
        premises.append(InequalitySystem([a for a, _ in rows], [b for _, b in rows], n=n))
    assert any(sigma > 1 for premise in premises for sigma in premise._rows[2])
    for premise in premises:
        n, R = premise.n, rng.randint(1, 4)
        reference = fraction_l1_lift(premise, R)
        c = Vector([rng.randint(-3, 3) for _ in range(n)])
        try:
            value = real(reference, Vector(tuple(c) + (0,) * n))
        except EmptySet:
            value = None
        bounds = [Fraction(rng.randint(-12, 12), rng.randint(1, 3))]
        for d in bounds + ([] if value is None else [value]):
            for strict in (False, True):
                lifted.clear()
                answer = implies_R(premise, c, d, R, strict=strict)
                assert lifted == [reference] and lifted[0]._rows == reference._rows
                expected = value is None or (value < d if strict else value <= d)
                assert answer == expected


def test_l1_radius_bound_examples():
    assert l1_radius_bound(InequalitySystem.box(2, 0, 1)) == 2
    assert l1_radius_bound(pn_polytope(2)) == 1
    assert l1_radius_bound(InequalitySystem([[1, 0], [-1, 0]], [0, -1])) == 1
    with pytest.raises(UnboundedSet):
        l1_radius_bound(InequalitySystem([[-1]], [0]))


def test_cut_list_text_round_trip():
    cuts = [Vector([1, -2]), Vector([0, 3])]
    text = cuts_to_text(cuts)
    assert cuts_from_text(text, n=2) == cuts
    with pytest.raises(ValueError):
        cuts_from_text("1 2 3\n", n=2)
