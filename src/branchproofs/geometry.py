"""Polytope geometry: support functions, CG cuts, faces, l1-ball implication.

All sets here are rational polytopes given as inequality systems.  The
support value ``h_K(a)`` is an exact Fraction; where the paper's convention
gives it the value -infinity (K empty) or +infinity (K unbounded along a),
:func:`support_value` raises :class:`EmptySet` or :class:`UnboundedSet`, and
only the callers that give such a case a meaning catch it: a CG cut of an
empty set is a no-op, and an empty set lies in every ball and implies every
inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .simplex import (
    InequalitySystem, Infeasible, Optimal, _check_optimal, lp_optimize,
)
from .vectors import Scalar, Vector, parse_integer


class EmptySet(ValueError):
    """The set is empty: its support value is -infinity in every direction."""


class UnboundedSet(ValueError):
    """The set is unbounded along the asked direction."""


@dataclass(frozen=True)
class CgCut:
    """A Chvatal-Gomory cut record: normal a and rhs floor(h_K(a)).

    The rhs is None for the no-op cut produced by cutting an empty set.
    A record that :func:`apply_cg` returns also keeps, out of its fields,
    the ``Optimal`` of max a x over the cut set (``_optimal``) and the index
    of the row that carries the cut in the new system (``_row``): appended,
    tightened in place or already there.  Lifting reads them.
    """

    normal: Vector
    rhs: int | None
    _optimal: Optional[Optimal] = field(default=None, init=False, repr=False, compare=False)
    _row: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def is_noop(self) -> bool:
        return self.rhs is None

    @classmethod
    def _carrying(cls, a: Vector, rhs: int, optimal: Optimal, row: int) -> "CgCut":
        out = cls(a, rhs)
        object.__setattr__(out, "_optimal", optimal)
        object.__setattr__(out, "_row", row)
        return out


def support_value(K: InequalitySystem, a: Vector) -> Fraction:
    """max of a x over K, exactly.

    Raises :class:`EmptySet` if K is empty and :class:`UnboundedSet` if a x
    is unbounded above on K.
    """
    return _support_optimum(K, a).value


def _support_optimum(K: InequalitySystem, a: Vector) -> Optimal:
    """The verified ``Optimal`` of max a x over K; raises as :func:`support_value`."""
    outcome = lp_optimize(K, a)
    if isinstance(outcome, Optimal):
        return outcome
    if isinstance(outcome, Infeasible):
        raise EmptySet("the set is empty")
    raise UnboundedSet(f"the set is unbounded along ({a.text()})")


def apply_cg(K: InequalitySystem, a: Vector) -> tuple[InequalitySystem, CgCut]:
    """Apply the CG cut induced by integer normal a: K -> K n {a x <= floor(h)}.

    On an empty K the set is returned unchanged with a no-op cut (matching
    the h = -infinity convention), with no LP once K's emptiness is known.
    A direction in which K is unbounded raises :class:`UnboundedSet`.
    """
    if not a.is_integral():
        raise ValueError("CG cut normals must be integral")
    if K._empty:  # a Farkas certificate of K is already verified
        return K, CgCut(a, None)
    try:
        optimal = _support_optimum(K, a)
    except EmptySet:
        return K, CgCut(a, None)
    return _cut(K, a, optimal)


def _apply_certified(
    K: InequalitySystem, a: Vector, point: list[int], scale: int, nonzeros, den: int
) -> tuple[InequalitySystem, CgCut]:
    """:func:`apply_cg` of integer normal a from a given optimum, with no LP.

    The optimum is the point ``point / scale`` and the dual multipliers
    ``lam_k = v_k / den`` of the ``(k, v_k)`` nonzeros on K's rows.  Both are
    put over one denominator as integer weights on K's scaled rows, reduced
    by their gcd, and checked in integers as the solver checks its own
    optima: every multiplier >= 0, ``lam A = a``, the point feasible and ``a
    point = lam b``, which is then ``h_K(a)``.  A failed check raises
    ``SolverError``.
    """
    sigmas = K._rows[2]
    # lam_k = sigma_k w_k / common needs den sigma_k to divide common
    common = math.lcm(scale, den * math.lcm(*(sigmas[k] for k, _ in nonzeros)))
    point = [v * (common // scale) for v in point]
    weights = [(k, v * (common // (den * sigmas[k]))) for k, v in nonzeros]
    g = math.gcd(common, *point, *(w for _, w in weights))
    if g > 1:
        common //= g
        point = [v // g for v in point]
        weights = [(k, w // g) for k, w in weights]
    total = _check_optimal(K, a.as_ints(), point, weights, common)
    optimal = Optimal(Fraction(total, common), point, common, weights, sigmas, common)
    return _cut(K, a, optimal)


def _cut(K: InequalitySystem, a: Vector, optimal: Optimal
         ) -> tuple[InequalitySystem, CgCut]:
    rhs = math.floor(optimal.value)
    system, row = _append_dominant(K, a, rhs)
    return system, CgCut._carrying(a, rhs, optimal, row)


def _append_dominant(K: InequalitySystem, a: Vector, b: int) -> tuple[InequalitySystem, int]:
    """K n {a x <= b}, replacing an existing looser row with the same normal,
    and the index of the row that now carries ``a x <= b``.

    Set-equivalent to appending the row; keeps systems small when the same
    normal is cut repeatedly (as the serialization of enumerative proofs does).
    The row is the first with normal a, tightened in place through
    ``with_rhs`` or, if its rhs is already <= b, kept as it is with K; or
    else the appended row ``K.m``.  The normal a and b are integral, so row i
    has normal a exactly when its scaled nonzeros are those of sigma_i a, a
    comparison of integer tuples, its rhs is <= b when its scaled rhs is <=
    sigma_i b, and an appended row is its own scaled row, sigma = 1.
    """
    mat, rhs, sigmas = K._rows
    target = tuple((j, e.numerator) for j, e in enumerate(a) if e)
    scaled = {1: target}  # sigma -> the nonzeros of sigma a
    for i, (row, sigma) in enumerate(zip(mat, sigmas)):
        want = scaled.get(sigma)
        if want is None:
            want = scaled[sigma] = tuple((j, sigma * v) for j, v in target)
        if row == want:
            if rhs[i] <= sigma * b:
                return K, i
            return K.with_rhs(i, b), i
    return K._appended([target], [b], [1]), K.m


def apply_cg_list(
    K: InequalitySystem, cuts: Iterable[Vector]
) -> InequalitySystem:
    """Sequential left-to-right application of CG cuts; CG(K, ()) == K."""
    current = K
    for a in cuts:
        current, _ = apply_cg(current, a)
    return current


def face(K: InequalitySystem, a: Vector) -> InequalitySystem:
    """The face of maximizers of a over K, as K plus the equality a x = h_K(a).

    Raises as :func:`support_value` does when K is empty or unbounded along a.
    """
    return K.with_equality(a, support_value(K, a))


def implies_R(
    premise: InequalitySystem,
    c: Vector,
    d: Scalar,
    R: int,
    strict: bool = False,
) -> bool:
    """Decide  premise  =>_R  c x <= d  (or < d when strict).

    The implication is over the l1 ball of radius R, modeled by the extended
    formulation in variables (x, y): -y_i <= x_i <= y_i and sum y_i <= R,
    which keeps the check polynomial-size in the dimension.  An empty
    restricted premise makes the implication vacuously true.
    """
    if not isinstance(R, int) or R < 1:
        raise ValueError("radius must be a positive integer")
    n = premise.n
    # premise's scaled rows lifted as they are (their indices below n are
    # the x coordinates), then the ball's integer rows with sigma 1
    mat, rhs, sigmas = (list(part) for part in premise._rows)
    for i in range(n):
        mat += [((i, 1), (n + i, -1)), ((i, -1), (n + i, -1))]
    mat.append(tuple((n + i, 1) for i in range(n)))
    rhs += [0] * (2 * n) + [R]
    sigmas += [1] * (2 * n + 1)
    extended = InequalitySystem._scaled(2 * n, (mat, rhs, sigmas))
    objective = Vector(tuple(c) + (0,) * n)
    try:
        value = support_value(extended, objective)
    except EmptySet:
        return True
    return value < d if strict else value <= d


def l1_radius_bound(K: InequalitySystem) -> int:
    """A positive integer R with K inside the l1 ball of radius R.

    Computed from 2n exact LPs as ceil of the sum over coordinates of
    max(|min x_i|, |max x_i|); raises :class:`UnboundedSet` if K is
    unbounded.  An empty K gets R = 1.
    """
    total = Fraction(0)
    try:
        for i in range(K.n):
            unit = Vector.unit(K.n, i)
            hi = support_value(K, unit)
            lo = support_value(K, -unit)
            total += max(abs(hi), abs(lo))
    except EmptySet:
        return 1
    return max(1, math.ceil(total))


# cut-list text format: one cut normal per line, n integers space-separated


def cuts_to_text(cuts: Sequence[Vector]) -> str:
    return "".join(" ".join(str(v) for v in cut.as_ints()) + "\n" for cut in cuts)


def cuts_from_text(text: str, n: int | None = None) -> list[Vector]:
    cuts = []
    for line in text.splitlines():
        if not line.strip():
            continue
        entries = [parse_integer(tok) for tok in line.split()]
        if n is not None and len(entries) != n:
            raise ValueError(f"cut of dimension {len(entries)}, expected {n}")
        cuts.append(Vector(entries))
    return cuts
