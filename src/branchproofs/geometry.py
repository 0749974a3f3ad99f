"""Polytope geometry: support functions, CG cuts, faces, l1-ball implication.

All sets here are rational polytopes given as inequality systems.  A
direction is a Vector or a tuple of ints; a CG cut normal is integral, and
:func:`apply_cg` turns it into its int tuple once, which the solve, the cut
row and the cut's record then carry.  The support value ``h_K(a)`` is an
exact Fraction; where the paper's convention
gives it the value -infinity (K empty) or +infinity (K unbounded along a),
:func:`support_value` raises :class:`EmptySet` or :class:`UnboundedSet`, and
only the callers that give such a case a meaning catch it: a CG cut of an
empty set is a no-op, and an empty set lies in every ball and implies every
inequality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .simplex import (
    InequalitySystem, Infeasible, Optimal, _check_optimal, lp_optimize,
)
from .vectors import Scalar, Vector, format_rational, parse_integer


class EmptySet(ValueError):
    """The set is empty: its support value is -infinity in every direction."""


class UnboundedSet(ValueError):
    """The set is unbounded along the asked direction."""


class CgCut:
    """A Chvatal-Gomory cut record: normal a and rhs floor(h_K(a)).

    The rhs is None for the no-op cut produced by cutting an empty set.  The
    normal is kept as its int tuple ``_ints``, which lifting reads;
    ``normal``, its Vector, is built when first read.  A record that
    :func:`apply_cg` returns also keeps the ``Optimal`` of max a x over the
    cut set (``_optimal``) and the index of the row that carries the cut in
    the new system (``_row``): appended, tightened in place or already
    there.  Lifting reads them.  Equal and hashed as ``(normal, rhs)``.
    """

    __slots__ = ("_ints", "rhs", "_optimal", "_row", "_normal")

    def __init__(self, normal: Vector | tuple[int, ...], rhs: int | None):
        """The record of an integral normal, a Vector or a tuple of ints,
        carrying no optimum; a normal that is not integral raises."""
        self._ints, self.rhs = _integral(normal), rhs
        self._optimal = self._row = self._normal = None

    @classmethod
    def _carrying(cls, a: tuple[int, ...], rhs: int | None, optimal: Optimal | None,
                  row: int | None) -> "CgCut":
        """The record of the int tuple a, carrying its optimum and row (all
        None for a no-op cut)."""
        out = object.__new__(cls)
        out._ints, out.rhs, out._optimal, out._row, out._normal = a, rhs, optimal, row, None
        return out

    @property
    def normal(self) -> Vector:
        if self._normal is None:
            self._normal = Vector(self._ints)
        return self._normal

    def is_noop(self) -> bool:
        return self.rhs is None

    def __eq__(self, other) -> bool:
        if type(other) is not CgCut:
            return NotImplemented
        return (self._ints, self.rhs) == (other._ints, other.rhs)

    def __hash__(self) -> int:
        return hash((self._ints, self.rhs))

    def __repr__(self) -> str:
        return f"CgCut(normal={self.normal!r}, rhs={self.rhs!r})"


def _integral(a: Vector | tuple[int, ...]) -> tuple[int, ...]:
    """The entries of a CG cut normal, a Vector or a tuple of ints, as an
    int tuple; raises ``ValueError`` if one is not an integer."""
    if any(e.denominator != 1 for e in a):
        raise ValueError("CG cut normals must be integral")
    return tuple([e.numerator for e in a])


def support_value(K: InequalitySystem, a: Vector | tuple[int, ...]) -> Fraction:
    """max of a x over K, exactly, for a Vector or a tuple of ints a.

    Raises :class:`EmptySet` if K is empty and :class:`UnboundedSet` if a x
    is unbounded above on K.
    """
    return _support_optimum(K, a).value


def _support_optimum(K: InequalitySystem, a: Vector | tuple[int, ...]) -> Optimal:
    """The verified ``Optimal`` of max a x over K; raises as :func:`support_value`."""
    outcome = lp_optimize(K, a)
    if isinstance(outcome, Optimal):
        return outcome
    if isinstance(outcome, Infeasible):
        raise EmptySet("the set is empty")
    raise UnboundedSet(f"the set is unbounded along ({' '.join(map(format_rational, a))})")


def apply_cg(K: InequalitySystem, a: Vector | tuple[int, ...]
             ) -> tuple[InequalitySystem, CgCut]:
    """Apply the CG cut induced by integer normal a: K -> K n {a x <= floor(h)}.

    The normal is an integral Vector or a tuple of ints, turned into its int
    tuple once; one with a non-integer entry raises ``ValueError``.  On an
    empty K the set is returned unchanged with a no-op cut (matching the h =
    -infinity convention), with no LP once K's emptiness is known.  A
    direction in which K is unbounded raises :class:`UnboundedSet`.
    """
    a = _integral(a)
    if K._empty:  # a Farkas certificate of K is already verified
        return K, CgCut._carrying(a, None, None, None)
    try:
        optimal = _support_optimum(K, a)
    except EmptySet:
        return K, CgCut._carrying(a, None, None, None)
    return _cut(K, a, optimal)


def _apply_certified(
    K: InequalitySystem, a: tuple[int, ...], point: list[int], scale: int, nonzeros, den: int
) -> tuple[InequalitySystem, CgCut]:
    """:func:`apply_cg` of the int tuple a from a given optimum, with no LP.

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
    total = _check_optimal(K, a, point, weights, common)
    optimal = Optimal(Fraction(total, common), point, common, weights, sigmas, common)
    return _cut(K, a, optimal)


def _cut(K: InequalitySystem, a: tuple[int, ...], optimal: Optimal
         ) -> tuple[InequalitySystem, CgCut]:
    rhs = math.floor(optimal.value)
    system, row = _append_dominant(K, a, rhs)
    return system, CgCut._carrying(a, rhs, optimal, row)


def _append_dominant(K: InequalitySystem, a: tuple[int, ...], b: int
                     ) -> tuple[InequalitySystem, int]:
    """K n {a x <= b}, replacing an existing looser row with the same normal,
    and the index of the row that now carries ``a x <= b``.

    Set-equivalent to appending the row; keeps systems small when the same
    normal is cut repeatedly (as the serialization of enumerative proofs does).
    The row is the first with normal a, tightened in place through
    ``with_rhs`` or, if its rhs is already <= b, kept as it is with K; or
    else the appended row ``K.m``.  The normal a and b are ints, so row i
    has normal a exactly when its scaled nonzeros are those of sigma_i a, a
    comparison of integer tuples, its rhs is <= b when its scaled rhs is <=
    sigma_i b, and an appended row is its own scaled row, sigma = 1.
    """
    mat, rhs, sigmas = K._rows
    target = tuple([(j, v) for j, v in enumerate(a) if v])
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
    K: InequalitySystem, cuts: Iterable[Vector | tuple[int, ...]]
) -> InequalitySystem:
    """Sequential left-to-right application of CG cuts, each an integral
    Vector or a tuple of ints; CG(K, ()) == K."""
    current = K
    for a in cuts:
        current, _ = apply_cg(current, a)
    return current


def face(K: InequalitySystem, a: Vector | tuple[int, ...]) -> InequalitySystem:
    """The face of maximizers of a over K, as K plus the equality a x = h_K(a),
    for a Vector or a tuple of ints a.

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
    return [Vector(cut) for cut in _cut_rows(text, n)]


def _cut_rows(text: str, n: int | None = None) -> list[tuple[int, ...]]:
    """The cut normals of a cut-list text as int tuples, which
    :func:`apply_cg_list` applies with no Fraction."""
    cuts = []
    for line in text.splitlines():
        if not line.strip():
            continue
        entries = tuple([parse_integer(tok) for tok in line.split()])
        if n is not None and len(entries) != n:
            raise ValueError(f"cut of dimension {len(entries)}, expected {n}")
        cuts.append(entries)
    return cuts
