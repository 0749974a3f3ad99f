"""Exact LP: outcomes, certificates, reduction, oracle agreement."""

import hashlib
from fractions import Fraction
from math import floor, lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from branchproofs import simplex
from branchproofs.simplex import (
    DimensionMismatch,
    FarkasCertificate,
    InequalitySystem,
    Infeasible,
    Optimal,
    SolverError,
    Unbounded,
    is_empty,
    lp_optimize,
)
from branchproofs.vectors import Vector

from oracles import (
    dual_cone_vertices, fourier_motzkin_empty, fraction_combination, fraction_view_text,
)
from randgen import random_boxed_polytope, random_system


def test_optimize_box():
    K = InequalitySystem.box(2, 0, 1)
    res = lp_optimize(K, Vector([1, 1]))
    assert isinstance(res, Optimal)
    assert res.value == 2
    assert res.point == Vector([1, 1])


def test_optimize_infeasible():
    S = InequalitySystem([[1], [-1]], [0, -1])
    res = lp_optimize(S, Vector([5]))
    assert isinstance(res, Infeasible)
    assert res.certificate.verify(S)


def test_optimize_unbounded():
    S = InequalitySystem([[-1]], [0])
    res = lp_optimize(S, Vector([1]))
    assert isinstance(res, Unbounded)
    assert res.ray[0] > 0


def test_optimize_point():
    S = InequalitySystem([[2], [-2]], [1, -1])  # x = 1/2
    res = lp_optimize(S, Vector([1]))
    assert isinstance(res, Optimal)
    assert res.value == Fraction(1, 2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp_optimize(InequalitySystem.box(2, 0, 1), Vector([1]))


def test_is_empty_examples():
    assert is_empty(InequalitySystem([[1], [-1]], [0, -1])) is not None
    assert is_empty(InequalitySystem.box(1, 0, 1)) is None
    assert is_empty(InequalitySystem([[2], [-2]], [1, -1])) is None  # x = 1/2


def test_strong_duality_invariants():
    rng = Random(42)
    optimal_seen = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        system = random_system(rng, n, rng.randint(1, 6))
        c = Vector([rng.randint(-3, 3) for _ in range(n)])
        res = lp_optimize(system, c)
        if not isinstance(res, Optimal):
            continue
        optimal_seen += 1
        assert c.dot(res.point) == res.value
        assert system.contains(res.point)
        assert all(v >= 0 for v in res.dual)
        combo = Vector.zero(n)
        total = Fraction(0)
        for coeff, (a, b) in zip(res.dual, system.rows()):
            combo = combo + coeff * a
            total += coeff * b
        assert combo == c
        assert total == res.value
    assert optimal_seen > 50


def test_agrees_with_fourier_motzkin():
    rng = Random(99)
    for _ in range(300):
        n = rng.randint(1, 3)
        system = random_system(rng, n, rng.randint(1, 6))
        cert = is_empty(system)
        assert (cert is not None) == fourier_motzkin_empty(system.matrix, system.rhs)
        if cert is not None:
            assert cert.verify(system)


def normalized(system, lam) -> tuple:
    """The multipliers scaled to ``lam b = -1``, in Fractions over every row."""
    slack = -fraction_combination(system, lam)[1]
    return tuple(v / slack for v in lam)


def test_solver_certificates_are_dual_cone_vertices():
    """Every certificate is_empty returns, cold or warm-started on a system
    made by with_rows / with_rhs, is a basic dual ray already scaled to
    lam b = -1: a vertex of the normalized dual cone, so at most n+1 of its
    multipliers are nonzero."""
    rng = Random(2024)
    seen = {"cold": 0, "rows": 0, "rhs": 0}
    for _ in range(150):
        n = rng.randint(1, 3)
        parent = random_system(rng, n, rng.randint(2, 5))
        is_empty(parent)  # a nonempty parent keeps its tableau for the children
        extra = [(Vector([rng.randint(-3, 3) for _ in range(n)]), rng.randint(-3, 3))]
        derived = {
            "cold": parent,
            "rows": parent.with_rows(extra),
            "rhs": parent.with_rhs(rng.randrange(parent.m), rng.randint(-4, 1)),
        }
        for kind, system in derived.items():
            cert = is_empty(system)
            if cert is None:
                continue
            seen[kind] += 1
            vertex = normalized(system, cert.multipliers)
            assert vertex in dual_cone_vertices(system)
            assert tuple(cert.multipliers) == vertex
            assert len(cert.nonzeros) <= n + 1
    assert min(seen.values()) > 10, seen


def test_system_text_round_trip():
    system = InequalitySystem(
        [[Fraction(1, 2), -2], [3, Fraction(5, 7)]], [Fraction(-1, 3), 4]
    )
    again = InequalitySystem.from_text(system.to_text())
    assert again == system
    with pytest.raises(ValueError):
        InequalitySystem.from_text("2 1\n1 2\n")  # row too short


def test_empty_row_system():
    free = InequalitySystem([], [], n=2)
    assert is_empty(free) is None
    res = lp_optimize(free, Vector([0, 0]))
    assert isinstance(res, Optimal) and res.value == 0
    res = lp_optimize(free, Vector([1, 0]))
    assert isinstance(res, Unbounded)


def test_degenerate_rows_fuzz():
    """Zero rows, duplicate rows and rational entries against the oracle."""
    rng = Random(777)
    for _ in range(400):
        n = rng.randint(1, 4)
        m = rng.randint(0, 8)
        matrix, rhs = [], []
        for _ in range(m):
            kind = rng.random()
            if kind < 0.15:
                row = [0] * n
            elif kind < 0.3 and matrix:
                row = list(matrix[rng.randrange(len(matrix))])
            else:
                row = [
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(n)
                ]
            matrix.append(row)
            rhs.append(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        system = InequalitySystem([Vector(r) for r in matrix], rhs, n=n)
        cert = is_empty(system)
        assert (cert is not None) == fourier_motzkin_empty(
            system.matrix, system.rhs
        )
        c = Vector([Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)])
        lp_optimize(system, c)  # outcomes self-verify exactly; would raise


def count_tableaus(monkeypatch) -> list:
    """Record every ``_DualTableau`` built or warm-started, i.e. every LP
    actually solved."""
    built = []

    class Counted(simplex._DualTableau):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

        def extended(self, *args):
            twin = super().extended(*args)
            built.append(twin)
            return twin

    monkeypatch.setattr(simplex, "_DualTableau", Counted)
    return built


def test_outcomes_memoized_per_system(monkeypatch):
    built = count_tableaus(monkeypatch)
    K = InequalitySystem.box(2, 0, 1).with_rows([(Vector([1, 1]), Fraction(3, 2))])
    c = Vector([1, 2])
    first = lp_optimize(K, c)
    assert len(built) == 1 and first.value == Fraction(5, 2)
    assert lp_optimize(K, Vector([1, 2])) is first
    assert len(built) == 1
    # another objective, the negated one and a derived system each solve
    assert lp_optimize(K, Vector([2, 1])).value == Fraction(5, 2)
    assert lp_optimize(K, -c).value == 0
    child = K.with_rows([(Vector([0, 1]), Fraction(1, 2))])
    assert lp_optimize(child, c).value == 2
    assert len(built) == 4
    # the memo is the instance's: an equal system solves afresh
    twin = InequalitySystem(K.matrix, K.rhs, n=K.n)
    assert lp_optimize(twin, c) == first
    assert len(built) == 5


def test_derived_systems_share_parent_rhs_entries():
    """A derived system holds its parent's scaled rows and integer
    right-hand sides, not copies; with_rhs replaces the one changed entry."""
    parent = InequalitySystem.box(2, Fraction(-1, 3), Fraction(5, 2))
    for child in (
        parent.with_rows([(Vector([1, 1]), 1)]),
        parent.with_equality(Vector([1, -1]), Fraction(1, 2)),
    ):
        for part, old in zip(child._rows, parent._rows):
            assert all(part[i] is old[i] for i in range(parent.m))
        assert child.rhs[:parent.m] == parent.rhs
    child = parent.with_rhs(1, 7)
    assert child.rhs == parent.rhs[:1] + (7,) + parent.rhs[2:]
    for part, old in zip(child._rows, parent._rows):
        assert all(part[i] is old[i] for i in range(parent.m) if i != 1)


def test_with_rows_checks_only_the_appended_rows():
    parent = InequalitySystem([[1, 0], [0, 1]], [1, 1])
    child = parent.with_rows([(Vector([1, 1]), 1)])
    assert all(child._rows[0][i] is parent._rows[0][i] for i in range(parent.m))
    assert child == InequalitySystem(list(parent.matrix) + [Vector([1, 1])], [1, 1, 1])
    for bad in ([(Vector([1, 1, 1]), 1)], [(Vector([1, 1]), 0), (Vector([1]), 0)]):
        with pytest.raises(DimensionMismatch):
            parent.with_rows(bad)
    with pytest.raises(DimensionMismatch):
        parent.with_equality(Vector([1]), 0)


def test_derived_systems_inherit_row_scaling():
    K = InequalitySystem([[Fraction(1, 2), Fraction(1, 3)], [-1, 0]], [Fraction(5, 6), 0])
    child = K.with_equality(Vector([Fraction(2, 3), 1]), Fraction(1, 4))
    assert child._rows == InequalitySystem(child.matrix, child.rhs)._rows
    assert child._rows[2] == [6, 1, 12, 12]


def test_inherited_sparse_rows_equal_rows_scaled_from_scratch():
    """Chains of with_rows, with_equality and with_rhs keep rows that agree
    with scaling the same rows from scratch, as ``(index, value)`` nonzeros
    with no zero entry, and each system equals the one built from its
    Fraction view."""
    rng = Random(3141)

    def fraction():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    for _ in range(40):
        n = rng.randint(1, 4)
        system = InequalitySystem.box(n, fraction(), 3)
        for _ in range(rng.randint(1, 6)):
            step = rng.randrange(3)
            if step == 0:
                rows = [(Vector([fraction() for _ in range(n)]), fraction())
                        for _ in range(rng.randint(1, 3))]
                system = system.with_rows(rows)
            elif step == 1:
                system = system.with_equality(Vector([fraction() for _ in range(n)]),
                                              fraction())
            else:
                system = system.with_rhs(rng.randrange(system.m), fraction())
            assert system._rows == simplex._scale_rows(system.rows())
            assert system == InequalitySystem(system.matrix, system.rhs, n=system.n)
            for row, a in zip(system._rows[0], system.matrix):
                assert all(v != 0 for _, v in row)
                assert [j for j, _ in row] == [j for j, e in enumerate(a) if e]


# 1/2 x1 + 1/3 x2 <= 5/6, x1 >= 0, x2 >= 0, 2/3 x1 <= 1/2: every row but the
# sign rows has a scale sigma > 1
FRACTIONAL = InequalitySystem(
    [[Fraction(1, 2), Fraction(1, 3)], [-1, 0], [0, -1], [Fraction(2, 3), 0]],
    [Fraction(5, 6), 0, 0, Fraction(1, 2)],
)


def test_text_round_trip_keeps_bytes():
    """``to_text`` writes the Fraction view of the stored rows, and
    ``from_text`` reads it back to an equal system with the same text, also
    after a with_rhs that changes its row's scale (2/3 x1 <= 1/2 is 4 x1 <=
    3; 2/3 x1 <= 1 is 2 x1 <= 3)."""
    child = FRACTIONAL.with_rhs(3, 1)
    assert (FRACTIONAL._rows[2][3], child._rows[2][3]) == (6, 3)
    assert child._rows[0][3] == ((0, 2),) and child._rows[1][3] == 3
    texts = ["2 4\n1/2 1/3 5/6\n-1 0 0\n0 -1 0\n2/3 0 1/2\n",
             "2 4\n1/2 1/3 5/6\n-1 0 0\n0 -1 0\n2/3 0 1\n"]
    for system, text in zip((FRACTIONAL, child), texts):
        assert system.to_text() == text
        read = InequalitySystem.from_text(text)
        assert read == system and read.to_text() == text


def test_text_reader_and_writer_match_the_fraction_views():
    """On seeded random systems ``to_text`` is, byte for byte, the text
    formatted through the ``matrix`` / ``rhs`` views, and ``from_text`` reads
    it to the scaled rows the public constructor builds: integral rows
    (sigma = 1, read with no Fraction) and rational ones (sigma > 1, up to
    10^30), with zero, negative and 10^30-size entries."""
    rng = Random(2828)
    big = 10**30

    def entry(rational):
        value = rng.choice([0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-big, big)])
        if rational and rng.random() < 0.5:
            return Fraction(value, rng.choice([2, 3, 7, big + 1]))
        return Fraction(value)

    sigmas = set()
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        matrix, rhs = [], []
        for _ in range(m):
            rational = rng.random() < 0.5
            matrix.append([entry(rational) for _ in range(n)])
            rhs.append(entry(rational))
        system = InequalitySystem(matrix, rhs, n=n)
        text = system.to_text()
        assert text == fraction_view_text(system)
        read = InequalitySystem.from_text(text)
        assert read.n == n and read._rows == system._rows
        assert read.to_text() == text
        sigmas.update(system._rows[2])
    assert 1 in sigmas and max(sigmas) > big


def test_contains_checks_the_scaled_rows_exactly():
    """``contains`` decides ``A x <= b`` in integers on the stored rows: a
    point on a boundary row is inside, one past it by 1/1000 is not."""
    for point, inside in (([Fraction(3, 4), 0], True), ([Fraction(751, 1000), 0], False),
                          ([Fraction(3, 4), Fraction(11, 8)], True),
                          ([Fraction(3, 4), Fraction(1376, 1000)], False), ([0, 0], True)):
        assert FRACTIONAL.contains(Vector(point)) is inside
    with pytest.raises(DimensionMismatch):
        FRACTIONAL.contains(Vector([0, 0, 0]))


def check_fraction_outcome(system, c, point, dual) -> Fraction:
    """``_check_optimal`` on an optimum given in Fractions, turned into its
    integer form by ``_over_common_denominator`` and ``_weights``: the point
    over a scale, the duals as weights over mu times that scale.  Returns the
    value the check certifies."""
    c_int, mu = simplex._over_common_denominator(c)
    p_int, p_den = simplex._over_common_denominator(point)
    weights, w_den = simplex._weights(system._rows, [(i, y) for i, y in enumerate(dual) if y])
    scale = lcm(p_den, w_den)
    point = [v * (scale // p_den) for v in p_int]
    weights = [(i, w * mu * (scale // w_den)) for i, w in weights]
    total = simplex._check_optimal(system, c_int, point, weights, scale)
    return Fraction(total, mu * scale)


def test_check_optimal_catches_tampered_outcomes():
    c = Vector([1, 1])
    res = lp_optimize(FRACTIONAL, c)
    assert isinstance(res, Optimal)
    point, dual = res.point, res.dual
    # the true outcome passes
    assert check_fraction_outcome(FRACTIONAL, c, point, dual) == res.value
    # -x1 <= 0 and 2/3 x1 <= 1/2, taken 1 : 3/2, cancel in A but add 3/4 to b
    cancelling = Vector([0, 1, 0, Fraction(3, 2)])
    tampered = {
        "infeasible": (point + Vector([10, -10]), dual),
        "does not attain": (point - Vector([1, 0]), dual),
        "negative dual": (point, dual - Vector([0, 1, 0, 0])),
        "do not reproduce": (point, dual * 2),
        "strong duality": (point, dual + cancelling),
    }
    for message, (p, y) in tampered.items():
        with pytest.raises(SolverError, match=message):
            check_fraction_outcome(FRACTIONAL, c, p, y)


def test_check_ray_catches_bad_rays():
    # x1 >= 0, 1/2 x2 <= 1/3: unbounded along +x1 only
    S = InequalitySystem([[-1, 0], [0, Fraction(1, 2)]], [0, Fraction(1, 3)])
    c = Vector([1, 0])
    res = lp_optimize(S, c)
    assert isinstance(res, Unbounded)
    simplex._check_ray(S, c, res.ray)
    with pytest.raises(SolverError, match="does not improve"):
        simplex._check_ray(S, c, Vector([-1, 0]))
    with pytest.raises(SolverError, match="recession cone"):
        simplex._check_ray(S, c, Vector([1, Fraction(1, 3)]))


# x <= 0 and -x <= -1 (so empty), then x <= 5 and -x <= 5
EMPTY_LINE = InequalitySystem([[1], [-1], [1], [-1]], [0, -1, 5, 5])


def test_farkas_check_catches_tampered_rays(monkeypatch):
    """Each entry of the phase-2 dual ray, perturbed or negated, fails the
    integer Farkas check; so does a ray that cancels A without contradiction,
    and one that proves emptiness on more than n+1 rows."""
    rays = []
    direction = simplex._ray_direction

    def recorded(tab, col):
        ray = direction(tab, col)
        rays.append(dict(ray))
        return ray

    monkeypatch.setattr(simplex, "_ray_direction", recorded)
    res = lp_optimize(cold_twin(EMPTY_LINE), Vector([1]))
    assert isinstance(res, Infeasible) and res.certificate.verify(EMPTY_LINE)
    (ray,) = rays
    assert len(ray) == 2
    tampers = []
    for i in ray:
        tampers.append(("lam A != 0", lambda tab, i=i: {**ray, i: ray[i] + 1}))
        tampers.append(("negative multiplier", lambda tab, i=i: {**ray, i: -ray[i]}))
    # rows 2 and 3 cancel in A, but 5 + 5 is no contradiction
    tampers.append(("lam b >= 0", lambda tab: {2: 1, 3: 1}))
    # 5 x - 6 x + x = 0 and 0 - 6 + 5 < 0, but on n+2 rows: no basic ray
    tampers.append((r"more than n\+1 nonzero", lambda tab: {0: 5, 1: 6, 2: 1}))
    for message, tampered in tampers:
        monkeypatch.setattr(simplex, "_ray_direction", lambda tab, col: tampered(tab))
        with pytest.raises(SolverError, match=message):
            lp_optimize(cold_twin(EMPTY_LINE), Vector([1]))


def test_phase_one_and_reduction_checks_raise(monkeypatch):
    """The remaining SolverError path: an unbounded phase 1.  The checks on
    the solver's reduced certificates are tampered with in
    ``test_farkas_check_catches_tampered_rays``."""
    S = InequalitySystem([[1], [-1]], [0, -1])
    monkeypatch.setattr(simplex._DualTableau, "_leaving", lambda self, column: None)
    with pytest.raises(SolverError, match="phase 1"):
        lp_optimize(cold_twin(S), Vector([1]))


def test_carried_multipliers_equal_fresh_prices(monkeypatch):
    """After every pivot of ``run``, in phase 1 with artificials and in phase
    2, the rank-one update gives exactly ``prices(raw)`` of the new basis:
    Bland's rule receives the carried multipliers at every step.  So does
    the first step of a solve that starts from a kept basis: one kept for
    the objective and extended (warm), or an ancestor's restarted and
    extended; and every restart by dual simplex leaves ``prices(raw)``."""
    checked = {True: 0, False: 0}  # entering steps that follow a pivot
    carried = dict.fromkeys(["warm", "restarted", "ancestor"], 0)
    pivoted, restarts = [], []
    entering, pivot = simplex._DualTableau._entering, simplex._DualTableau.pivot
    run, restarted = simplex._DualTableau.run, simplex._DualTableau.restarted
    kept_start = simplex._kept_start

    def checked_entering(self, raw, prices, artificials, *rest):
        assert prices == self.prices(raw)
        checked[artificials] += bool(pivoted)
        pivoted.clear()
        return entering(self, raw, prices, artificials, *rest)

    def noted_pivot(self, *args):
        pivoted.append(True)
        pivot(self, *args)

    def noted_start(*args):
        restarts.clear()
        return kept_start(*args)

    def checked_restart(self, c_int, raw, *rest):
        twin = restarted(self, c_int, raw, *rest)
        if twin is not None:
            assert twin.multipliers == twin.prices(raw)
            carried["restarted"] += 1
            restarts.append(twin)
        return twin

    def checked_run(self, raw, artificials, start=0):
        if start:
            assert self.multipliers == self.prices(raw)
            carried["ancestor" if restarts else "warm"] += 1
        return run(self, raw, artificials, start)

    monkeypatch.setattr(simplex._DualTableau, "_entering", checked_entering)
    monkeypatch.setattr(simplex._DualTableau, "pivot", noted_pivot)
    monkeypatch.setattr(simplex._DualTableau, "restarted", checked_restart)
    monkeypatch.setattr(simplex._DualTableau, "run", checked_run)
    monkeypatch.setattr(simplex, "_kept_start", noted_start)
    rng = Random(8080)

    def objective(n):
        return Vector([rng.randint(-3, 3) for _ in range(n)])

    def extra_rows(n):
        return [(objective(n), rng.randint(-1, 4)) for _ in range(rng.randint(1, 3))]

    for _ in range(150):
        n = rng.randint(1, 4)
        system = random_system(rng, n, rng.randint(1, 8))
        c = objective(n)
        lp_optimize(system, c)
        is_empty(system)
        child = system.with_rows(extra_rows(n))
        lp_optimize(child, c)  # warm, from the basis kept for c
        lp_optimize(child, objective(n))  # restarted from the child's own
        lp_optimize(system.with_rows(extra_rows(n)), objective(n))  # from an ancestor's
    assert checked[True] > 300 and checked[False] > 100
    assert min(carried.values()) > 30, carried


def fraction_check_optimal(system, c, point, dual) -> bool:
    """Reference: the optimality conditions in Fraction arithmetic, the
    value being the duals' ``dual b``."""
    combo, total = fraction_combination(system, dual)
    return (
        c.dot(point) == total
        and system.contains(point)
        and all(v >= 0 for v in dual)
        and combo == list(c)
    )


def test_integer_checks_agree_with_fraction_reference():
    rng = Random(2024)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        rhs = [Fraction(rng.randint(-2, 6), rng.randint(1, 4)) for _ in rows]
        system = InequalitySystem(rows, rhs, n=n)
        c = Vector([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
        res = lp_optimize(system, c)
        if not isinstance(res, Optimal):
            continue
        checked += 1
        for _ in range(4):  # nudge the point or the duals, or neither
            point, dual = list(res.point), list(res.dual)
            part = rng.randrange(3)
            nudge = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            if part == 1:
                point[rng.randrange(n)] += nudge
            elif part == 2:
                dual[rng.randrange(len(dual))] += nudge
            point, dual = Vector(point), Vector(dual)
            expected = fraction_check_optimal(system, c, point, dual)
            try:
                value = check_fraction_outcome(system, c, point, dual)
                passed = True
            except SolverError:
                passed = False
            assert passed == expected
            if passed:
                assert value == fraction_combination(system, dual)[1]
    assert checked > 50


def test_lazy_point_and_dual_equal_the_fraction_formulas(monkeypatch):
    """On random systems, an optimum builds nothing until read;
    then its point is ``-tau_j prices_j / d`` (0 for a dropped equality) and
    its dual ``sigma_i beta_i / (mu d)`` on basic rows, from the final
    tableau, its value is ``-(objective value) / mu``, and equality and repr
    are those of the triple."""
    finals = []
    primal = simplex._primal

    def recorded(tab):
        finals.append(tab)
        return primal(tab)

    monkeypatch.setattr(simplex, "_primal", recorded)
    rng = Random(3131)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        if rng.randrange(2):
            system = random_system(rng, n, rng.randint(1, 8))
        else:  # bounded, so most objectives have an optimum
            system = random_boxed_polytope(rng, n, rng.randint(1, 4))
        c = Vector([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
        finals.clear()
        res = lp_optimize(system, c)
        if not isinstance(res, Optimal):
            continue
        checked += 1
        assert res._point is None and res._dual is None
        tab = finals[-1]
        raw = [-v for v in system._rows[1]] + [0] * n
        d, tau, prices, dropped = tab.d, tab.tau, tab.prices(raw), set(tab.dropped)
        basic, objective = dict(zip(tab.basis, tab.beta)), tab.objective_value(raw)
        mu = simplex._over_common_denominator(c)[1]
        sigmas = system._rows[2]
        point = Vector(0 if j in dropped else Fraction(-t * v, d)
                       for j, (t, v) in enumerate(zip(tau, prices)))
        dual = Vector(Fraction(sigmas[i] * basic[i], mu * d) if basic.get(i) else 0
                      for i in range(system.m))
        assert res.value == -objective / mu
        assert res.dual == dual and res.point == point
        assert res.point is res.point and res.dual is res.dual  # built once
        # equal and hashed by value, point and dual, not by how they are stored
        ints, scale, weights, sigmas, w_den = res._parts
        twin = Optimal(res.value, [2 * v for v in ints], 2 * scale,
                       [(i, 3 * w) for i, w in weights], sigmas, 3 * w_den)
        assert res == twin and hash(res) == hash(twin)
        assert repr(res) == f"Optimal(value={res.value!r}, point={point!r}, dual={dual!r})"
    assert checked > 80, checked


def test_support_value_leaves_the_dual_unbuilt():
    from branchproofs.geometry import support_value

    K = cold_twin(FRACTIONAL)
    a = Vector([1, 1])
    assert support_value(K, a) == Fraction(5, 2)
    o = K._outcomes[a.entries]
    assert o._point is None and o._dual is None


def fraction_farkas_check(system: InequalitySystem, lam) -> bool:
    """The reference check: lam >= 0, lam A = 0, lam b < 0 in Fractions over every row."""
    if len(lam) != system.m or any(v < 0 for v in lam):
        return False
    combo, total = fraction_combination(system, lam)
    return all(v == 0 for v in combo) and total < 0


def small_fractions(low=-4, high=4):
    return st.builds(Fraction, st.integers(low, high), st.integers(1, 4))


@st.composite
def certificate_cases(draw):
    """A small system, often empty (one row and its opposite past a gap), as
    built or derived by with_rows / with_equality / with_rhs, and candidate
    multipliers: its Farkas certificate if it is empty, tampered
    copies of it, the all-zero vector, wrong lengths, a signed vector that
    would refute the system but for its negative entry, and random vectors."""
    n = draw(st.integers(1, 3))
    row = st.lists(small_fractions(), min_size=n, max_size=n).map(Vector)
    rows = draw(st.lists(st.tuples(row, small_fractions(-2, 6)), min_size=1, max_size=4))
    if draw(st.booleans()):
        a, b = draw(row), draw(small_fractions())
        rows += [(a, b), (-a, -b - draw(small_fractions(1, 3)))]
    # a looser positive multiple t (a_i, b_i) + (0, gap) of row i, so that the
    # signed lam = t e_i - e_j cancels A with lam b < 0
    i, t = draw(st.integers(0, len(rows) - 1)), draw(small_fractions(1, 4))
    rows.append((t * rows[i][0], t * rows[i][1] + draw(small_fractions(1, 3))))
    signed = {i: t, len(rows) - 1: Fraction(-1)}
    system = InequalitySystem([a for a, _ in rows], [b for _, b in rows], n=n)
    for step in draw(st.lists(st.sampled_from(["rows", "equality", "rhs"]), max_size=3)):
        if step == "rows":
            system = system.with_rows(draw(st.lists(st.tuples(row, small_fractions()),
                                                    min_size=1, max_size=2)))
        elif step == "equality":
            system = system.with_equality(draw(row), draw(small_fractions()))
        else:
            system = system.with_rhs(draw(st.integers(0, system.m - 1)), draw(small_fractions()))
    m = system.m
    candidates = [Vector.zero(m), Vector.zero(m + 1)]
    candidates.append(Vector(signed.get(k, 0) for k in range(m)))
    candidates.append(Vector(draw(st.lists(small_fractions(-1, 3), min_size=m, max_size=m))))
    cert = is_empty(system)
    if cert is not None:
        lam = list(cert.multipliers)
        support = [i for i, v in enumerate(lam) if v]
        pick = draw(st.sampled_from(support))
        for changed in (2 * lam[pick], -lam[pick]):
            candidates.append(Vector(lam[:pick] + [changed] + lam[pick + 1:]))
        candidates += [cert.multipliers, Vector(lam + [0]), Vector(lam[:-1])]
    return system, cert, candidates


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=certificate_cases())
def test_integer_farkas_check_agrees_with_fraction_reference(case):
    """FarkasCertificate.verify and the row combination of ``_weights`` and
    ``_combine``, in integers on the scaled rows, against the Fraction
    reference on every candidate."""
    system, cert, candidates = case
    if cert is not None:
        assert FarkasCertificate(cert.multipliers).verify(system)
    for lam in candidates:
        assert FarkasCertificate(lam).verify(system) == fraction_farkas_check(system, lam)
        # the sparse form the solver and the reader build
        dense = FarkasCertificate(lam)
        sparse = FarkasCertificate._from_nonzeros(len(lam), [(i, v) for i, v in enumerate(lam) if v])
        assert sparse == dense and hash(sparse) == hash(dense)
        assert [i for i, _ in dense.nonzeros] == [i for i, v in enumerate(lam) if v]
        assert sparse.multipliers == lam and sparse.verify(system) == dense.verify(system)
        if len(lam) == system.m:
            rows = system._rows
            weights, w_den = simplex._weights(rows, [(i, v) for i, v in enumerate(lam) if v])
            combo, total = simplex._combine(rows, system.n, weights)
            exact = ([Fraction(v, w_den) for v in combo], Fraction(total, w_den))
            assert exact == fraction_combination(system, lam)


def count_warm_starts(monkeypatch) -> list:
    """Record every tableau warm-started from a kept ancestor tableau."""
    warm = []
    extended = simplex._DualTableau.extended

    def counted(self, *args):
        twin = extended(self, *args)
        warm.append(twin)
        return twin

    monkeypatch.setattr(simplex._DualTableau, "extended", counted)
    return warm


def cold_twin(system: InequalitySystem) -> InequalitySystem:
    """An equal system with no ancestry, so it solves from scratch."""
    return InequalitySystem(system.matrix, system.rhs, n=system.n)


def same_outcome(warm, cold) -> bool:
    if type(warm) is not type(cold):
        return False
    return not isinstance(warm, Optimal) or warm.value == cold.value


def test_warm_start_agrees_with_cold_solves(monkeypatch):
    from branchproofs.geometry import apply_cg

    warm = count_warm_starts(monkeypatch)
    rng = Random(5150)

    def fraction():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    def random_row(n):
        return Vector([rng.randint(-3, 3) for _ in range(n)]), fraction()

    compared = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [random_row(n) for _ in range(rng.randint(0, 4))]
        parent = InequalitySystem.box(n, -3, Fraction(7, 2)).with_rows(rows)
        c = Vector([rng.randint(-3, 3) for _ in range(n)])
        lp_optimize(parent, c)
        # new rows, an equality, and a CG cut that tightens an existing row
        child = parent.with_rows(random_row(n) for _ in range(rng.randint(1, 3)))
        children = [child, child.with_equality(*random_row(n))]
        normal = children[-1].matrix[rng.randrange(children[-1].m)]
        children.append(apply_cg(children[-1], normal)[0])
        for system in children:
            outcome = lp_optimize(system, c)
            assert same_outcome(outcome, lp_optimize(cold_twin(system), c))
            if isinstance(outcome, Infeasible):
                assert outcome.certificate.verify(system)
            compared += 1
    assert compared == 900
    assert len(warm) > 400


def test_warm_start_after_rank_deficient_parent(monkeypatch):
    # x2 appears in no row: phase 1 drops its equality, so no tableau is kept
    parent = InequalitySystem([[1, 0], [-1, 0]], [1, 0])
    c = Vector([1, 0])
    assert lp_optimize(parent, c).value == 1
    child = parent.with_rows([(Vector([1, 1]), Fraction(1, 2)), (Vector([0, -1]), 0)])
    outcome = lp_optimize(child, c)
    assert outcome.value == lp_optimize(cold_twin(child), c).value == Fraction(1, 2)
    # the child spans both coordinates, so its own tableau warm-starts a grandchild
    warm = count_warm_starts(monkeypatch)
    grandchild = child.with_rows([(Vector([2, 1]), Fraction(1, 3))])
    outcome = lp_optimize(grandchild, c)
    assert len(warm) == 1
    assert outcome.value == lp_optimize(cold_twin(grandchild), c).value == Fraction(1, 6)


def test_warm_start_into_empty_child_gives_farkas_certificate(monkeypatch):
    warm = count_warm_starts(monkeypatch)
    parent = InequalitySystem.box(2, 0, 1)
    c = Vector([1, -1])
    assert lp_optimize(parent, c).value == 1
    child = parent.with_rows([(Vector([1, 1]), Fraction(-1, 2))])
    outcome = lp_optimize(child, c)
    assert len(warm) == 1
    assert isinstance(outcome, Infeasible)
    assert outcome.certificate.verify(child)
    assert isinstance(lp_optimize(cold_twin(child), c), Infeasible)


def test_is_empty_returns_the_certificate_a_solve_verified(monkeypatch):
    """A system a solve found empty answers is_empty with that solve's
    certificate, with no LP of its own."""
    K = InequalitySystem.box(2, 0, 1).with_rows([(Vector([1, 1]), Fraction(-1, 2))])
    outcome = lp_optimize(K, Vector([1, -1]))
    assert isinstance(outcome, Infeasible)
    monkeypatch.setattr(simplex, "_solve_verified", lambda *args: pytest.fail("solved again"))
    assert is_empty(K) is outcome.certificate


def test_fresh_import_frees_the_old_modules():
    """A freshly imported package leaves nothing holding the previous one."""
    import gc
    import importlib
    import sys
    import weakref

    def ours():
        return [name for name in sys.modules if name.split(".")[0] == "branchproofs"]

    saved = {name: sys.modules[name] for name in ours()}
    try:
        for name in ours():
            del sys.modules[name]
        # a class: its methods hold the module's globals, not the module
        ref = weakref.ref(importlib.import_module("branchproofs.simplex").Optimal)
        for name in ours():
            del sys.modules[name]
        gc.collect()
        assert ref() is None
    finally:
        sys.modules.update(saved)


def test_sibling_children_warm_start_from_one_kept_tableau(monkeypatch):
    """Both children of a solved parent, one per edge row, extend the
    parent's kept tableau; solving one leaves that tableau, and so the
    other's outcome, unchanged."""
    warm = count_warm_starts(monkeypatch)
    parent = InequalitySystem.box(2, 0, 3).with_rows([(Vector([1, 1]), 4)])
    c = Vector([2, 1])
    assert lp_optimize(parent, c).value == 7
    left = parent.with_rows([(Vector([3, 1]), 7)])  # 3 x1 + x2 <= 7
    right = parent.with_rows([(Vector([-3, -1]), -8)])  # 3 x1 + x2 >= 8
    kept = parent._tableaux[c.entries]
    before = (list(kept.inv), list(kept.beta), list(kept.basis), kept.d)
    first = lp_optimize(left, c)
    assert left._tableaux[c.entries].inv != before[0]  # the solve pivoted
    assert (list(kept.inv), list(kept.beta), list(kept.basis), kept.d) == before
    second = lp_optimize(right, c)
    assert len(warm) == 2
    assert (first.value, second.value) == (Fraction(11, 2), 7)
    assert first == lp_optimize(cold_twin(left), c)
    assert second == lp_optimize(cold_twin(right), c)


def count_solves(monkeypatch) -> dict:
    """Count real solves, and how they start: cold from the artificial
    basis, warm from an ancestor's basis for the objective, or restarted from
    a basis for another objective (``from_ancestor`` of them an ancestor's,
    whose rows are not the system's own scaled rows); a restart that finds
    the objective unbounded falls back to the cold path."""
    counts = dict.fromkeys(["solves", "cold", "warm", "restarted", "from_ancestor",
                            "fallback"], 0)
    init, kept_start = simplex._DualTableau.__init__, simplex._kept_start
    restarted, solve = simplex._DualTableau.restarted, simplex._solve_verified
    solving = []  # the scaled rows of the system whose start is looked up

    def counted_solve(*args):
        counts["solves"] += 1
        return solve(*args)

    def counted_init(self, *args):
        counts["cold"] += 1
        init(self, *args)

    def counted_start(system, *args):
        solving.append(system._rows[0])
        restarts = counts["restarted"] + counts["fallback"]
        tab, all_rows = kept_start(system, *args)
        solving.pop()
        counts["warm"] += tab is not None and counts["restarted"] + counts["fallback"] == restarts
        return tab, all_rows

    def counted_restart(self, *args):
        tab = restarted(self, *args)
        counts["restarted" if tab is not None else "fallback"] += 1
        counts["from_ancestor"] += tab is not None and self.mat is not solving[-1]
        return tab

    monkeypatch.setattr(simplex, "_solve_verified", counted_solve)
    monkeypatch.setattr(simplex._DualTableau, "__init__", counted_init)
    monkeypatch.setattr(simplex, "_kept_start", counted_start)
    monkeypatch.setattr(simplex._DualTableau, "restarted", counted_restart)
    return counts


def test_restart_agrees_with_cold_solves(monkeypatch):
    """A sequence of objectives on one random system: after the first
    optimum, each solve restarts from the system's kept basis, and gives the
    cold solve's outcome type and value; an objective the system does not
    bound falls back to the cold path, which returns its ray."""
    counts = count_solves(monkeypatch)
    rng = Random(6060)
    outcomes = {Optimal: 0, Unbounded: 0, Infeasible: 0}
    for _ in range(200):
        n = rng.randint(1, 4)
        if rng.randrange(2):
            system = random_system(rng, n, rng.randint(1, 9))
        else:  # bounded, so nearly every objective restarts
            system = cold_twin(random_boxed_polytope(rng, n, rng.randint(1, 4)))
        for _ in range(rng.randint(2, 6)):
            c = Vector([rng.randint(-3, 3) for _ in range(n)])
            outcome = lp_optimize(system, c)
            assert same_outcome(outcome, lp_optimize(cold_twin(system), c))
            if isinstance(outcome, Optimal):
                assert check_fraction_outcome(system, c, outcome.point,
                                              outcome.dual) == outcome.value
            elif isinstance(outcome, Unbounded):
                simplex._check_ray(system, c, outcome.ray)
            outcomes[type(outcome)] += 1
    assert min(outcomes.values()) > 100
    assert counts["restarted"] > 200 and counts["fallback"] > 40


def largest_ratio(self, pos, raw, prices):
    """``_DualTableau._dual_entering`` with its ratio test reversed."""
    sd = 1 if self.d > 0 else -1
    best = (None, 0, 0)
    for col, a in enumerate(self.mat):
        alpha = self.column(col)[pos]
        cost = self.d * raw[col] - sum(self.tau[j] * prices[j] * v for j, v in a)
        if alpha * sd < 0 and (best[0] is None or cost * best[2] > best[1] * alpha):
            best = (col, cost, alpha)
    return best[:2]


def test_wrong_restart_raises(monkeypatch):
    """A restart that skips the dual simplex, keeps the old basic values, or
    takes a column other than the least ratio's ends in a basis that is not
    optimal for the objective: each is caught and raises SolverError."""
    system = InequalitySystem.box(2, -2, 2).with_rows(
        [(Vector([0, -3]), 4), (Vector([0, 0]), 2), (Vector([3, 3]), -2)])
    first, second = Vector([2, 0]), Vector([-1, 2])
    assert lp_optimize(system, first).value == Fraction(4, 3)
    assert lp_optimize(cold_twin(system), second).value == Fraction(14, 3)

    def unpivoted(self, c_int, raw, prices):  # beta reset, but not made feasible
        twin = self.extended(self.mat)
        tau_c = [t * v for t, v in zip(self.tau, c_int)]
        twin.beta = [sum(w * v for w, v in zip(row, tau_c)) for row in twin.inv]
        return twin

    for attr, wrong in (("restarted", unpivoted),
                        ("restarted", lambda self, c_int, raw, prices: self.extended(self.mat)),
                        ("_dual_entering", largest_ratio)):
        fresh = cold_twin(system)
        lp_optimize(fresh, first)
        with monkeypatch.context() as patched:
            patched.setattr(simplex._DualTableau, attr, wrong)
            with pytest.raises(SolverError):
                lp_optimize(fresh, second)


def test_wrong_restart_of_rhs_child_raises(monkeypatch):
    """A with_rhs child keeps no basis of its own and restarts from its
    parent's on all of its rows, so a restart that ends in a basis not
    optimal for the objective is caught there too, not repaired by phase 2."""
    system = InequalitySystem.box(2, -2, 2).with_rows(
        [(Vector([0, -3]), 4), (Vector([0, 0]), 2), (Vector([3, 3]), -2)])
    first, second = Vector([2, 0]), Vector([-1, 2])
    child = system.with_rhs(5, 3)  # loosens 0 <= 2, which no optimum uses
    assert lp_optimize(cold_twin(child), second).value == Fraction(14, 3)
    assert lp_optimize(system, first).value == Fraction(4, 3)
    counts = count_solves(monkeypatch)
    monkeypatch.setattr(simplex._DualTableau, "_dual_entering", largest_ratio)
    with pytest.raises(SolverError, match="optimal point is infeasible"):
        lp_optimize(child, second)
    assert counts["from_ancestor"] == 1 and counts["cold"] == 0


def test_rescaled_rhs_child_solves_as_its_cold_twin(monkeypatch):
    """A with_rhs child whose changed row scales differently fails the
    prefix check against every kept basis, so each of its solves starts as
    its cold twin's does and ends with the same outcome."""
    parent = InequalitySystem.box(2, -2, 2).with_rows([(Vector([1, 1]), 3)])
    objectives = [Vector([1, 2]), Vector([2, -1]), Vector([-1, 0])]
    for c in objectives:
        lp_optimize(parent, c)
    child = parent.with_rhs(4, Fraction(1, 3))
    assert child._rows[0][4] != parent._rows[0][4]
    starts, outcomes = [], []
    for system in (child, cold_twin(child)):
        with monkeypatch.context() as patched:
            counts = count_solves(patched)
            outcomes.append([lp_optimize(system, c) for c in objectives])
        starts.append(counts)
    assert starts[0] == starts[1]
    assert starts[0]["cold"] == 1 and starts[0]["restarted"] == 2
    assert outcomes[0] == outcomes[1]


def test_tightened_integral_row_reprices_every_column():
    """A with_rhs child that tightens an integral row keeps its scaled row,
    so the parent's kept bases pass the prefix check.  But a changed b
    changes the costs: the basis kept for (2, 1) puts x2 at -3, past -x2 <=
    2, a row before the changed one, so no kept column counts as priced; and
    the last kept basis, for (-1, 1), puts x1 + x2 at 0, so (0, 1) restarts
    it on the parent's costs and prices every column again.  Each solve ends
    with its cold twin's outcome."""
    parent = InequalitySystem.box(2, -2, 2).with_rows([(Vector([1, 1]), 3)])
    objectives = [Vector([2, 1]), Vector([1, 2]), Vector([-1, 1])]
    for c in objectives:
        lp_optimize(parent, c)
    child = parent.with_rhs(4, -1)  # x1 + x2 <= -1
    assert child._rows[0] == parent._rows[0]
    for c in [Vector([0, 1])] + objectives + [Vector([1, 0])]:
        outcome = lp_optimize(child, c)
        assert same_outcome(outcome, lp_optimize(cold_twin(child), c))
        assert check_fraction_outcome(child, c, outcome.point, outcome.dual) == outcome.value
    assert lp_optimize(child, objectives[0]).value == 0


def test_suboptimal_ancestor_basis_restarts_on_its_own_costs(monkeypatch):
    """A with_rhs child whose tightened nonbasic row cuts off the point of
    the parent's last kept basis restarts that basis on the parent's costs and
    runs phase 2 from column 0, instead of going cold; every outcome is its
    cold twin's."""
    rng = Random(7272)
    restarts = 0
    for _ in range(60):
        n = rng.randint(2, 3)
        parent = cold_twin(random_boxed_polytope(rng, n, rng.randint(1, 3)))
        objectives = [Vector([rng.randint(-3, 3) for _ in range(n)]) for _ in range(3)]
        solved = [lp_optimize(parent, c) for c in objectives]
        if not parent._tableaux or not all(isinstance(o, Optimal) for o in solved):
            continue
        kept = next(reversed(parent._tableaux.values()))  # the basis restarted
        point = Vector(Fraction(v, abs(kept.d)) for v in simplex._primal(kept))
        matrix, rhs = parent.matrix, parent.rhs
        row = next((i for i, a in enumerate(matrix)
                    if i not in kept.basis and a.is_integral()), None)
        if row is None:
            continue
        # a nonbasic row, tightened past the basis's point by a whole number,
        # so its scaled row, and the prefix check, are unchanged
        gap = rhs[row] - matrix[row].dot(point)
        child = parent.with_rhs(row, rhs[row] - floor(gap) - 1)
        c = Vector([rng.randint(-3, 3) for _ in range(n)])
        with monkeypatch.context() as patched:
            runs, run = [], simplex._DualTableau.run
            patched.setattr(simplex._DualTableau, "run",
                            lambda self, raw, art, start=0: runs.append(start) or run(
                                self, raw, art, start))
            counts = count_solves(patched)
            outcome = lp_optimize(child, c)
        assert same_outcome(outcome, lp_optimize(cold_twin(child), c))
        if counts["from_ancestor"]:
            assert counts["cold"] == 0 and runs == [0]
            restarts += 1
    assert restarts > 10


def test_kept_columns_are_not_priced_again(monkeypatch):
    """A restart on all of a system's rows is optimal as it stands, so it
    never calls ``run``; a solve that extends a basis kept for the objective,
    or an ancestor's basis restarted for it, begins its first Bland scan at
    the appended columns."""
    runs, scans = [], []
    run, entering = simplex._DualTableau.run, simplex._DualTableau._entering

    def counted_run(self, raw, artificials, start=0):
        runs.append(start)
        return run(self, raw, artificials, start)

    def counted_entering(self, raw, prices, artificials, start):
        scans.append(start)
        return entering(self, raw, prices, artificials, start)

    parent = InequalitySystem.box(2, -2, 2).with_rows([(Vector([1, 1]), 3)])
    c = Vector([2, 1])
    lp_optimize(parent, c)
    monkeypatch.setattr(simplex._DualTableau, "run", counted_run)
    monkeypatch.setattr(simplex._DualTableau, "_entering", counted_entering)
    assert lp_optimize(parent, Vector([1, 2])).value == 5  # restarted on all rows
    assert scans == []
    # likewise from the parent's basis, once its one scan finds it optimal for
    # the child's costs
    assert lp_optimize(parent.with_rhs(4, 2), Vector([1, 0])).value == 2
    assert runs == [] and scans == [0]
    cut = (Vector([1, 0]), 1)  # x1 <= 1 cuts off the optimum (2, 1)
    for objective in (c, Vector([3, 1])):  # warm, then restarted from the parent's
        del runs[:], scans[:]
        child = parent.with_rows([cut])
        outcome = lp_optimize(child, objective)
        assert runs == [parent.m] and scans[0] == parent.m and scans[1:] == [0] * (len(scans) - 1)
        assert outcome == lp_optimize(cold_twin(child), objective)


def test_objective_forms_share_outcome_and_memo(monkeypatch):
    """An integer objective as a Vector and as an int tuple gives equal
    outcomes on seeded random systems, some on rational rows, and the second
    call, in the other form, is a memo hit with no solve; a derived system
    warm-starts the tuple form from the basis kept for the Vector; and a
    rational objective solves as a tuple as it does as a Vector."""
    from randgen import rational_rows

    rng = Random(3131)
    solves = []
    solve = simplex._solve_verified

    def counted(*args):
        solves.append(args[1])
        return solve(*args)

    monkeypatch.setattr(simplex, "_solve_verified", counted)
    kinds = set()
    for trial in range(80):
        n = rng.randint(1, 4)
        if trial % 3:
            K = random_boxed_polytope(rng, n, rng.randint(0, 3))
        else:
            K = random_system(rng, n, rng.randint(1, 6))
        if trial % 2:
            K = rational_rows(rng, K)
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        first, second = (Vector(c), c) if trial % 4 < 2 else (c, Vector(c))
        outcome = lp_optimize(K, first)
        del solves[:]
        assert lp_optimize(K, second) is outcome and solves == []
        assert lp_optimize(cold_twin(K), second) == outcome
        assert lp_optimize(cold_twin(K), first) == outcome
        kinds.add(type(outcome).__name__)
    assert kinds == {"Optimal", "Infeasible", "Unbounded"}
    monkeypatch.undo()

    K = random_boxed_polytope(Random(5), 3, 2)
    c = (1, -2, 1)
    assert isinstance(lp_optimize(K, Vector(c)), Optimal)
    child = K.with_rows([(Vector([1, 1, 0]), 1)])
    counts = count_solves(monkeypatch)
    assert lp_optimize(child, c) == lp_optimize(cold_twin(child), Vector(c))
    assert counts["warm"] == 1 and counts["cold"] == 1  # the cold one is the twin's

    # a tuple with a Fraction entry is put over its denominator like a Vector
    box = InequalitySystem.box(2, Fraction(-1, 2), Fraction(3, 2))
    rational = (Fraction(1, 2), Fraction(-1, 3))
    outcome = lp_optimize(box, rational)
    assert outcome == lp_optimize(cold_twin(box), Vector(rational))
    assert outcome.value == Fraction(11, 12)


def test_grid3x3_solve_starts_pinned(monkeypatch):
    """How grid3x3's enum_to_cp starts its real solves: after the root's
    cold solve, every solve warm-starts or restarts, 37 of the restarts from
    an ancestor's basis, and no objective is unbounded.  It made 361 solves
    before lifts were certified from the face's dual and each node stopped
    at the Farkas certificate of its last push-down solve, and 183 while
    every node's set was tested empty by a zero-objective LP of its own."""
    from pathlib import Path

    from branchproofs.enumcp import enum_to_cp
    from branchproofs.families import TseitinInstance, tseitin_polytope, tseitin_sp_refutation

    graph = Path(__file__).resolve().parent.parent / "instances" / "grid3x3.graph"
    inst = TseitinInstance.from_text(graph.read_text())
    proof = tseitin_sp_refutation(inst)
    counts = count_solves(monkeypatch)
    enum_to_cp(tseitin_polytope(inst), proof)
    assert counts["solves"] < 183
    assert counts == {"solves": 152, "cold": 1, "warm": 103, "restarted": 48,
                      "from_ancestor": 37, "fallback": 0}


# sha256 of the (pos, col, d) of every pivot made by the pipelines below; the
# entering and leaving rules and the exact pivot arithmetic are pinned by them
PIVOT_TRACE_PIN = "a15410bd7b60597e4052d7300c5dfe785ec558d96f4810ca53acb209198b4cd7"


def test_pivot_trace_pinned(monkeypatch):
    from pathlib import Path

    from branchproofs.enumcp import enum_to_cp
    from branchproofs.families import (
        TseitinInstance, thin_segment, tseitin_polytope, tseitin_sp_refutation,
    )
    from branchproofs.prooftree import (
        certify, enumerative_to_branching, verify_enumerative_proof,
    )
    from branchproofs.recompile import recompile

    trace = []
    pivot = simplex._DualTableau.pivot

    def traced(self, pos, col, *rest):
        pivot(self, pos, col, *rest)
        trace.append((pos, col, self.d))

    monkeypatch.setattr(simplex._DualTableau, "pivot", traced)
    instances = Path(__file__).resolve().parent.parent / "instances"
    for name in ("k4", "cycle5"):
        inst = TseitinInstance.from_text((instances / f"{name}.graph").read_text())
        proof = tseitin_sp_refutation(inst)
        assert verify_enumerative_proof(tseitin_polytope(inst), proof).valid
        enum_to_cp(tseitin_polytope(inst), proof)
        certify(tseitin_polytope(inst), enumerative_to_branching(proof))
    for M in (10**3, 10**6, 10**9):
        K, proof = thin_segment(M)
        certify(K, recompile(K, proof))
    assert len(trace) == 610
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == PIVOT_TRACE_PIN


def test_tseitin_cp_chain_lp_work_pinned(monkeypatch, tmp_path, capsys):
    """The LP work of the CLI chain gen-tseitin, verify enumerative,
    enum-to-cp and verify cp on the five bundled graphs: real solves and
    pivots per op kind, summed over the graphs.  The objective's form (a
    Vector or an integer tuple) must not move them."""
    from pathlib import Path

    from branchproofs.cli import main

    work = {"solves": 0, "pivots": 0}
    solve, pivot = simplex._solve_verified, simplex._DualTableau.pivot

    def counted_solve(*args):
        work["solves"] += 1
        return solve(*args)

    def counted_pivot(self, *args):
        work["pivots"] += 1
        pivot(self, *args)

    monkeypatch.setattr(simplex, "_solve_verified", counted_solve)
    monkeypatch.setattr(simplex._DualTableau, "pivot", counted_pivot)
    instances = Path(__file__).resolve().parent.parent / "instances"
    steps = {
        "gen-tseitin": ["gen-tseitin", "{graph}", "--system", "{ineq}", "--proof", "{proof}"],
        "verify enumerative": ["verify", "enumerative", "{ineq}", "{proof}"],
        "enum-to-cp": ["enum-to-cp", "{ineq}", "{proof}", "--out", "{cuts}"],
        "verify cp": ["verify", "cp", "{ineq}", "{cuts}"],
    }
    totals = {kind: [0, 0] for kind in steps}
    for graph in sorted(instances.glob("*.graph")):
        files = {"graph": graph, **{ext: tmp_path / f"{graph.stem}.{ext}"
                                    for ext in ("ineq", "proof", "cuts")}}
        for kind, argv in steps.items():
            before = dict(work)
            assert main([arg.format(**files) for arg in argv]) == 0
            totals[kind][0] += work["solves"] - before["solves"]
            totals[kind][1] += work["pivots"] - before["pivots"]
    capsys.readouterr()
    # [real solves, pivots], recorded before objectives became integer tuples
    assert totals == {"gen-tseitin": [139, 730], "verify enumerative": [135, 692],
                      "enum-to-cp": [227, 1271], "verify cp": [90, 491]}
