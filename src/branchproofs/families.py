"""Instance families and their reference proofs.

* Tseitin parity systems over a graph with odd total charge, their SAT-LP
  relaxations, and the divide-and-conquer enumerative refutation that
  repeatedly halves a parity-contradicting vertex set by branching on edge
  counts across cuts.
* The fully-clawed SAT polytope P_n (integer-free, integer-critical, and
  exponentially hard for branching proofs) and its compact extended
  formulation Q_n, together with Q_n's n-split-cut refutation.
* The thin-segment example whose one-step refutation needs a coefficient of
  order M, the canonical recompilation fixture.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import EmptySet, support_value
from .prooftree import BranchNode, EnumNode
from .simplex import FarkasCertificate, InequalitySystem, _box_rows, _scale_rows, is_empty
from .vectors import Vector, parse_integer

_DEGREE_GUARD = 20
_PN_GUARD = 16


@dataclass(frozen=True)
class TseitinInstance:
    """A graph with 0/1 vertex parities of odd total sum (no self-loops)."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        if len(self.parities) != self.num_vertices:
            raise ValueError("one parity per vertex required")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0/1")
        if sum(self.parities) % 2 != 1:
            raise ValueError("total parity must be odd (otherwise satisfiable)")
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge endpoint out of range")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incident(self, vertex: int) -> list[int]:
        return [i for i, (u, v) in enumerate(self.edges) if vertex in (u, v)]

    # graph text format: "V E", then E lines "u v", then one line of parities

    def to_text(self) -> str:
        lines = [f"{self.num_vertices} {self.num_edges}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        lines.append(" ".join(str(p) for p in self.parities))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "TseitinInstance":
        rows = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not rows:
            raise ValueError("empty graph description")

        def pair(row, form):
            if len(row) != 2:
                raise ValueError(f"{form} must be two integers, found '{' '.join(row)}'")
            return parse_integer(row[0]), parse_integer(row[1])

        nv, ne = pair(rows[0], "first line 'V E'")
        if len(rows) != ne + 2:
            raise ValueError(f"expected {ne} edge lines plus a parity line")
        edges = tuple(pair(row, "edge line 'u v'") for row in rows[1 : ne + 1])
        parities = tuple(parse_integer(p) for p in rows[ne + 1])
        return TseitinInstance(nv, edges, parities)


def tseitin_polytope(inst: TseitinInstance) -> InequalitySystem:
    """The SAT-LP relaxation of the parity CNF, over edge variables in [0,1].

    Every vertex of degree d contributes 2^(d-1) clause rows, one per
    parity-violating local assignment; a degree guard rejects blow-ups.
    """
    n = inst.num_edges
    if n == 0:
        raise ValueError("instance has no edges")
    mat, rhs = [], []
    for v in range(inst.num_vertices):
        incident = inst.incident(v)
        if len(incident) > _DEGREE_GUARD:
            raise ValueError(
                f"vertex {v} has degree {len(incident)} > {_DEGREE_GUARD};"
                " clause expansion would blow up"
            )
        for bits in itertools.product((0, 1), repeat=len(incident)):
            if sum(bits) % 2 == inst.parities[v]:
                continue  # satisfying assignment, no clause
            # incident is in increasing edge order, as scaled rows are
            mat.append(tuple((e, 1 if bit else -1) for e, bit in zip(incident, bits)))
            rhs.append(sum(bits) - 1)
    return _in_unit_box(n, (mat, rhs, [1] * len(mat)))


def _in_unit_box(n: int, rows) -> InequalitySystem:
    """The system of the scaled rows ``(mat, rhs, sigmas)`` in n variables,
    followed by the rows of the box [0, 1]^n."""
    return InequalitySystem._scaled(n, tuple(a + b for a, b in zip(rows, _box_rows(n, 0, 1))))


def _edge_cut_vector(inst: TseitinInstance, part_a, part_b) -> Vector:
    """0/1 indicator of the edges with one endpoint in each part."""
    a_set, b_set = set(part_a), set(part_b)
    coeffs = [0] * inst.num_edges
    for i, (u, v) in enumerate(inst.edges):
        if (u in a_set and v in b_set) or (v in a_set and u in b_set):
            coeffs[i] = 1
    return Vector(coeffs)


def tseitin_sp_refutation(inst: TseitinInstance) -> EnumNode:
    """The divide-and-conquer enumerative refutation of a Tseitin system.

    Keeps a vertex set S whose parities contradict the (integer) number of
    edges leaving S, a value pinned by the path equalities.  While |S| > 1, S
    is halved (sorted order, first ceil(|S|/2) vertices) and the proof
    branches on the edge count between the halves and then on the edge count
    leaving the first half, after which exactly one half must still be
    contradicting.  A singleton set finishes with a complete branching tree
    over its incident edge variables, where every fully pinned assignment
    violates a parity clause.  Children are created for every integer in the
    exact LP range of the branched functional, each nonempty by convexity,
    so only K is tested empty (and then refuted by one unlabeled leaf).
    """
    K = tseitin_polytope(inst)
    if is_empty(K) is not None:
        return EnumNode()
    vertices = tuple(range(inst.num_vertices))
    return _expand_set(inst, K, vertices, 0)


def _branch(system: InequalitySystem, functional: Vector, continuation) -> EnumNode:
    """One enumerative node on `functional` with a child per integer in range."""
    hi = support_value(system, functional)
    lo = -support_value(system, -functional)
    children = tuple(
        (b, continuation(system.with_equality(functional, b), b))
        for b in range(math.ceil(lo), math.floor(hi) + 1)
    )
    return EnumNode(a=functional, lo=lo, hi=hi, children=children)


def _expand_set(inst, system, contradicting, boundary_value: int) -> EnumNode:
    """Refute a nonempty relaxation knowing sum of parities over
    `contradicting` differs mod 2 from `boundary_value`, the pinned number of
    edges leaving it."""
    if len(contradicting) == 1:
        pending = inst.incident(contradicting[0])
        return _enumerate_edges(system, pending)
    half = (len(contradicting) + 1) // 2
    first, second = contradicting[:half], contradicting[half:]
    inner = _edge_cut_vector(inst, first, second)
    rest = [v for v in range(inst.num_vertices) if v not in contradicting]
    outgoing = _edge_cut_vector(inst, first, second + tuple(rest))
    first_parity = sum(inst.parities[v] for v in first) % 2

    def decide(sys2, b1: int, b2: int) -> EnumNode:
        if first_parity != b2 % 2:
            return _expand_set(inst, sys2, first, b2)
        return _expand_set(inst, sys2, second, 2 * b1 - b2 + boundary_value)

    if outgoing == inner:
        # nothing outside S: both functionals coincide (the root split)
        if inner.is_zero():
            return decide(system, 0, 0)
        return _branch(system, inner, lambda sys1, b1: decide(sys1, b1, b1))
    if inner.is_zero():
        return _branch(system, outgoing, lambda sys2, b2: decide(sys2, 0, b2))

    def after_inner(sys1, b1: int) -> EnumNode:
        if outgoing.is_zero():
            return decide(sys1, b1, 0)
        return _branch(sys1, outgoing, lambda sys2, b2: decide(sys2, b1, b2))

    return _branch(system, inner, after_inner)


def _enumerate_edges(system, pending: list[int]) -> EnumNode:
    """Complete branching over the remaining edge variables of a vertex."""
    if not pending:
        raise RuntimeError(
            "all incident edges pinned but the relaxation stayed nonempty"
        )
    n = system.n
    head = Vector.unit(n, pending[0])
    return _branch(
        system, head, lambda child, _b: _enumerate_edges(child, pending[1:])
    )


# ---------------------------------------------------------------------------
# hard SAT polytopes
# ---------------------------------------------------------------------------


def pn_polytope(n: int) -> InequalitySystem:
    """The SAT polytope with all 2^n clauses: the l1 ball of radius n/2 - 1
    around (1/2, ..., 1/2) inside the unit cube; integer-free for all n.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    if n > _PN_GUARD:
        raise ValueError(f"n > {_PN_GUARD} would create 2^{n} clause rows")
    mat, rhs = [], []
    for mask in range(2**n):
        # clause: sum_{i in S} x_i + sum_{i not in S} (1 - x_i) >= 1
        mat.append(tuple((i, -1 if mask >> i & 1 else 1) for i in range(n)))
        rhs.append(sum(1 for i in range(n) if not mask >> i & 1) - 1)
    return _in_unit_box(n, (mat, rhs, [1] * len(mat)))


def qn_polytope(n: int) -> InequalitySystem:
    """The compact extended formulation of pn_polytope in variables (x, y):
    sum y_i <= n/2 - 1 and |x_i - 1/2| <= y_i inside [0,1]^(2n); its
    projection to x equals pn_polytope(n)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if n > _PN_GUARD:
        raise ValueError(f"n > {_PN_GUARD} refused for symmetry with pn_polytope")
    dim = 2 * n
    rows = [([0] * n + [1] * n, Fraction(n, 2) - 1)]
    for i in range(n):
        for s in (1, -1):  # s x_i - y_i <= s/2
            a = [0] * dim
            a[i], a[n + i] = s, -1
            rows.append((a, Fraction(s, 2)))
    return _in_unit_box(dim, _scale_rows(rows))


@dataclass(frozen=True)
class SplitCutReport:
    """Outcome of checking the split-cut refutation of qn_polytope."""

    valid: bool
    side_failures: tuple[str, ...]
    certificate: FarkasCertificate | None


def qn_split_refutation(n: int) -> SplitCutReport:
    """Check that y_i >= 1/2 is a split cut of qn_polytope for every i
    (valid on both sides of the disjunction x_i <= 0 or x_i >= 1) and that
    adding all n cuts makes the system Farkas-certified empty.
    """
    Q = qn_polytope(n)
    cut_rhs = Fraction(1, 2)
    dim = Q.n
    failures: list[str] = []
    for i in range(n):
        x_i = Vector.unit(dim, i)
        y_i = Vector.unit(dim, n + i)
        for label, row, bound in (
            ("x_%d <= 0" % i, x_i, Fraction(0)),
            ("x_%d >= 1" % i, -x_i, Fraction(-1)),
        ):
            side = Q.with_rows([(row, bound)])
            try:
                low = -support_value(side, -y_i)
            except EmptySet:
                continue
            if low < cut_rhs:
                failures.append(
                    f"cut y_{i} >= {cut_rhs} invalid on side {label}:"
                    f" min y_{i} = {low}"
                )
    augmented = Q.with_rows(
        [(-Vector.unit(dim, n + i), -cut_rhs) for i in range(n)]
    )
    certificate = is_empty(augmented)
    if certificate is None:
        failures.append("augmented system is still feasible")
    return SplitCutReport(
        valid=not failures,
        side_failures=tuple(failures),
        certificate=certificate,
    )


def thin_segment(M: int) -> tuple[InequalitySystem, BranchNode]:
    """The segment M x1 + x2 = 1/2, 0 <= x2 <= 2 and its one-step refutation.

    The proof branches on M x1 + x2 <= 0 or >= 1, which is valid for every
    M >= 1; every one-step refutation of this set needs a coefficient of
    order M, making it the canonical recompilation fixture.
    """
    if M < 1:
        raise ValueError("M >= 1 required")
    half = Fraction(1, 2)
    rows = [([M, 1], half), ([-M, -1], -half), ([0, 1], 2), ([0, -1], 0)]
    K = InequalitySystem._scaled(2, _scale_rows(rows))
    proof = BranchNode(Vector([M, 1]), 0, BranchNode(), BranchNode())
    return K, proof
