"""Proof objects and their verifiers.

Two tree shapes are modeled:

* :class:`BranchNode` -- a binary branching proof.  Each internal node holds
  an integer disjunction ``(a, b)``; the left edge asserts ``a x <= b`` and
  the right edge ``a x >= b + 1``.  Leaves may carry a Farkas certificate
  (the certified variant).  A proof is valid for K when every leaf relaxation
  ``K_v`` (K plus the path inequalities) is empty.

* :class:`EnumNode` -- an enumerative branching proof.  A labeled node holds
  a direction ``a`` and bounds ``lo <= hi`` with one child per integer b in
  ``[lo, hi]``, whose edge asserts the equality ``a x = b``.  A labeled node
  with no children claims the bounds contain no integer (``floor(hi) < lo``);
  an unlabeled leaf claims its relaxation is empty.

A ``BranchNode`` stores its normal once, as its integer row: the dimension
and the ``(j, a_j)`` nonzeros, which is the left edge's own scaled row
(sigma 1).  The reader parses a header as integers straight into that row,
and the public Vector ``a`` is built only when it is first read.  An
``EnumNode`` keeps its direction's row, made at construction, next to its
Vector.  The writers, :func:`proof_stats` and the edges read the rows.
Every pass over a proof path takes
an edge's rows from the node's ``_edge_rows`` by :func:`_path_rows`.
Verification decides each node's emptiness once, by one exact LP or, at a
labeled enumerative node, by the support LPs of its range.  A child's
relaxation is its parent's plus the edge's rows (:func:`_relaxations`), so
each solve warm-starts from the parent's optimal tableau.  A certified proof
is checked with no LP and no relaxation: each leaf's certificate is checked
in integers on K's scaled rows followed by a stack of the path's edge rows.
Reports list failures in depth-first (path-sorted) order, so the result is
deterministic.  Every pass over a tree runs on an explicit stack --
:func:`walk` for verifying, certifying, counting and writing, the parsers'
own for reading -- so a proof may nest deeper than Python's recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, zip_longest
from operator import attrgetter

from .simplex import (
    DimensionMismatch,
    FarkasCertificate,
    InequalitySystem,
    is_empty,
    lp_optimize,
)
from .geometry import EmptySet, UnboundedSet, support_value
from .vectors import (
    _ZERO, Vector, bit_size, format_rational, parse_integer, parse_rational, sparse_bit_size,
)


class _TreeNode:
    """Equality, hashing and repr for proof nodes that never recurse.

    Two trees are equal when one parallel :func:`walk` finds the same own
    fields (``_fields``: everything but the child nodes) at every node; the
    hash and the repr cover the node's own fields and its child count only,
    so any depth is fine.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for mine, theirs in zip_longest(walk(self), walk(other)):
            if mine is None or theirs is None:
                return False
            if mine[2] != theirs[2] or mine[0]._fields() != theirs[0]._fields():
                return False
        return True

    def __hash__(self) -> int:
        return hash((self._fields(), len(self.edges())))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields())
        return f"{type(self).__name__}({fields}, children={len(self.edges())})"

    def node_count(self) -> int:
        return sum(1 for _, _, leaving in walk(self) if not leaving)


class BranchNode(_TreeNode):
    """A node of a branching proof; a leaf when ``a`` is None.

    An internal node stores its normal once, as its integer row: the
    dimension ``n`` and the ``(j, a_j)`` nonzeros in index order, which is
    the left edge's scaled row (sigma 1) as :meth:`_edge_rows` returns it.
    The public ``a``, a Vector of all n entries, is built from the row when
    first read and then kept.  ``BranchNode(a, b, left, right, cert)``
    checks its arguments; the parser, ``certify`` and
    ``enumerative_to_branching`` build nodes from rows they already hold,
    through :meth:`_from_row`.
    """

    __slots__ = ("_b", "_left", "_right", "_cert", "_n", "_row", "_neg", "_a")

    def __init__(self, a: Vector | None = None, b: int | None = None,
                 left: "BranchNode | None" = None, right: "BranchNode | None" = None,
                 cert: FarkasCertificate | None = None):
        if a is None:
            if left is not None or right is not None or b is not None:
                raise ValueError("leaves carry no disjunction and no children")
            if cert is not None and not isinstance(cert, FarkasCertificate):
                raise TypeError("a leaf certificate must be a FarkasCertificate")
            self._set(None, None, None, None, None, cert)
            return
        row = _integral_row(a)
        if not row:
            raise ValueError("disjunction normals must be nonzero integral")
        if not isinstance(b, int):
            raise ValueError("disjunction right-hand sides must be integers")
        if left is None or right is None:
            raise ValueError("internal nodes need both children")
        if cert is not None:
            raise ValueError("only leaves carry certificates")
        self._set(len(a), row, b, left, right, None, a)

    def _set(self, n, row, b, left, right, cert, a=None) -> None:
        self._n, self._row, self._neg, self._a = n, row, None, a
        self._b, self._left, self._right, self._cert = b, left, right, cert

    # read-only: a node never changes, so its hash and its kept ``a`` and
    # negated row stay valid
    b = property(attrgetter("_b"), doc="The right-hand side b of ``a x <= b``; None at a leaf.")
    left = property(attrgetter("_left"), doc="The child on ``a x <= b``; None at a leaf.")
    right = property(attrgetter("_right"), doc="The child on ``a x >= b + 1``; None at a leaf.")
    cert = property(attrgetter("_cert"), doc="A leaf's Farkas certificate, or None.")

    @classmethod
    def _from_row(cls, n: int, row: tuple, b: int, left: "BranchNode",
                  right: "BranchNode") -> "BranchNode":
        """The internal node on the integer row ``row`` in n variables: its
        ``(j, a_j)`` pairs with int ``a_j != 0``, in index order, all j < n.
        An empty row, the zero normal, raises as the public constructor does."""
        if not row:
            raise ValueError("disjunction normals must be nonzero integral")
        node = object.__new__(cls)
        node._set(n, row, b, left, right, None)
        return node

    @property
    def a(self) -> Vector | None:
        """The normal as a Vector, built from the row when first read; None
        at a leaf."""
        if self._a is None and self._row is not None:
            self._a = _vector(self._n, self._row)
        return self._a

    @property
    def is_leaf(self) -> bool:
        return self._row is None

    def edges(self) -> tuple:
        """(went_left, child) pairs, left first; empty for a leaf."""
        if self._row is None:
            return ()
        return ((True, self._left), (False, self._right))

    def _edge_rows(self, went_left: bool):
        """The scaled row ``(mat, rhs, sigmas)`` of the left edge's ``a x <= b`` or
        the right edge's ``-a x <= -b - 1``, with sigma 1: the stored row, or
        its negation, built on the first descent to the right and then kept."""
        if went_left:
            return (self._row,), (self._b,), (1,)
        neg = self._neg
        if neg is None:
            neg = self._neg = tuple((j, -v) for j, v in self._row)
        return (neg,), (-self._b - 1,), (1,)

    def _fields(self) -> tuple:
        return (("a", self.a), ("b", self.b), ("cert", self.cert))

    def _label_size(self) -> tuple[int, int]:
        """The bits of the disjunction or certificate, and the largest
        coefficient of the two edge rows."""
        row = self._row
        if row is None:
            cert = self.cert
            return (0 if cert is None else sparse_bit_size(cert.m, cert.nonzeros)), 0
        b = self.b
        coeff = max(max([abs(v) for _, v in row]), abs(b), abs(b + 1))
        return sparse_bit_size(self._n, row) + bit_size(b), coeff


@dataclass(frozen=True, eq=False, repr=False)
class EnumNode(_TreeNode):
    """A node of an enumerative proof.

    ``a is None`` marks an unlabeled leaf, ``EnumNode()``, which claims its
    relaxation is empty; otherwise the node carries direction/bounds and
    children keyed by the branched integer value.  A labeled childless node
    is the integer-free-interval leaf.  A labeled node also keeps its
    direction's integer row, the dimension ``_n`` and the ``(j, a_j)``
    nonzeros ``_row`` with their negation ``_neg``, made once at
    construction for its edges, its text and its bit size.
    """

    a: Vector | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None
    children: tuple[tuple[int, "EnumNode"], ...] = ()

    def __post_init__(self):
        if self.a is not None:
            self._label(len(self.a), _integral_row(self.a))
        elif self.children:
            raise ValueError("unlabeled leaves cannot have children")

    @classmethod
    def _from_row(cls, n: int, row: tuple, lo: Fraction, hi: Fraction,
                  children: tuple) -> "EnumNode":
        """The labeled node on the integer row ``row`` in n variables, with
        the same checks as the public constructor; ``row`` is as for
        ``BranchNode._from_row``."""
        node = object.__new__(cls)
        for name, value in (("a", _vector(n, row)), ("lo", lo), ("hi", hi), ("children", children)):
            object.__setattr__(node, name, value)
        node._label(n, row)
        return node

    def _label(self, n: int, row: tuple | None) -> None:
        """Check a labeled node's fields and keep its direction's row, which
        is None or empty unless the direction is nonzero integral."""
        if not row:
            raise ValueError("branching directions must be nonzero integral")
        if self.lo is None or self.hi is None:
            raise ValueError("labeled nodes need bounds")
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        object.__setattr__(
            self, "children", tuple(sorted(self.children, key=lambda kv: kv[0]))
        )
        values = [b for b, _ in self.children]
        if len(set(values)) != len(values):
            raise ValueError("duplicate child values")
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_neg", tuple((j, -v) for j, v in row))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def edges(self) -> tuple[tuple[int, "EnumNode"], ...]:
        """(b, child) pairs by increasing b; empty for a leaf."""
        return self.children

    def _edge_rows(self, b: int):
        """The scaled rows ``(mat, rhs, sigmas)`` of the equality ``a x = b``
        asserted by the edge to child b: ``a x <= b``, then ``-a x <= -b``,
        each with sigma 1."""
        return (self._row, self._neg), (b, -b), (1, 1)

    def _fields(self) -> tuple:
        values = tuple(b for b, _ in self.children)
        return (("a", self.a), ("lo", self.lo), ("hi", self.hi), ("values", values))

    def _label_size(self) -> tuple[int, int]:
        """The bits of ``(a, lo, hi)`` and of the edge integers, and the
        largest of their coefficients."""
        if self.a is None:
            return 0, 0
        values = [b for b, _ in self.children]
        bits = sparse_bit_size(self._n, self._row) + bit_size(self.lo) + bit_size(self.hi)
        bits += sum(map(bit_size, values))
        return bits, max([abs(v) for _, v in self._row] + [abs(v) for v in values])


def _integral_row(a: Vector) -> tuple | None:
    """The ``(j, a_j)`` nonzeros of a Vector, as ints; None if an entry is
    not an integer."""
    nonzeros = [(j, e) for j, e in enumerate(a) if e]
    if any(e.denominator != 1 for _, e in nonzeros):
        return None
    return tuple([(j, e.numerator) for j, e in nonzeros])


@dataclass(frozen=True)
class Report:
    """Verification outcome; ``failures`` holds "path: reason" strings."""

    valid: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProofStats:
    length: int  # number of nodes
    bit_size: int
    max_coeff: int


_LEAVING = object()  # stack marker: the node's subtrees are done


def walk(proof):
    """Every node of a proof tree, by one explicit stack (no recursion).

    Yields ``(node, path, leaving)``.  A node with children is reported on
    entry (``leaving`` False, before its subtrees) and again on exit
    (``leaving`` True, after them); a leaf only on entry.  Children come in
    order -- left before right, enumerative children by increasing value --
    so leaves arrive in depth-first (path-sorted) order.  ``path`` holds the
    ``(parent, edge)`` pairs from the root down to ``node``, where ``edge``
    is ``went_left`` for a branching node and the child value b for an
    enumerative one.  The walk reuses ``path``: read it before resuming the
    walk, and copy it to keep it.
    """
    path: list = []
    stack: list = [(proof, None)]
    while stack:
        node, step = stack.pop()
        if step is _LEAVING:
            yield node, path, True
        else:
            if step is not None:
                path.append(step)
            yield node, path, False
            edges = node.edges()
            if edges:
                stack.append((node, _LEAVING))
                for edge, child in reversed(edges):
                    stack.append((child, (node, edge)))
                continue
        if path:
            path.pop()


def _branch_label(path) -> str:
    return "".join("L" if went_left else "R" for _, went_left in path) or "(root)"


def _witness(system: InequalitySystem) -> str:
    """"; witness x = (...)": x = 0 or the memoized point of ``is_empty``'s c = 0 solve."""
    zero = Vector.zero(system.n)
    point = lp_optimize(system, zero).point if any(b < 0 for b in system._rows[1]) else zero
    return _witness_text(point)


def _witness_text(point: Vector) -> str:
    return f"; witness x = ({', '.join(map(format_rational, point))})"


def _path_rows(K: InequalitySystem, steps, rows):
    """The scaled rows ``rows = (mat, rhs, sigmas)`` extended in place by the
    ``_edge_rows`` of each ``(parent, edge)`` step of a path, in order; a
    normal whose length is not ``K.n`` raises ``DimensionMismatch``."""
    mat, rhs, sigmas = rows
    for parent, edge in steps:
        if parent._n != K.n:
            raise DimensionMismatch("appended row disagrees with the system's dimension")
        new_mat, new_rhs, new_sigmas = parent._edge_rows(edge)
        mat += new_mat
        rhs += new_rhs
        sigmas += new_sigmas
    return rows


def _relaxations(K: InequalitySystem, proof):
    """:func:`walk` with each node's relaxation K_v: K plus the inequalities
    along its path.

    Yields ``(node, path, system, leaving)``.  A child's system is its
    parent's with the edge's rows appended, so it is built once per node and
    an LP on it can warm-start from the parent's.
    """
    systems = [K]  # systems[d]: the relaxation at depth d of the current path
    for node, path, leaving in walk(proof):
        if path and not leaving:
            del systems[len(path):]
            systems.append(systems[-1]._appended(*_path_rows(K, path[-1:], ([], [], []))))
        yield node, path, systems[len(path)], leaving


def verify_branching_proof(K: InequalitySystem, proof: BranchNode) -> Report:
    """Valid iff every leaf relaxation is empty.

    One exact LP per node: solving each internal node's relaxation first
    lets every leaf warm-start from its parent's optimal tableau.
    """
    failures: list[str] = []
    for node, path, system, leaving in _relaxations(K, proof):
        if not leaving and is_empty(system) is None and node.is_leaf:
            label = _branch_label(path)
            failures.append(f"{label}: leaf relaxation is nonempty{_witness(system)}")
    return Report(valid=not failures, failures=tuple(failures))


def verify_certified_proof(K: InequalitySystem, proof: BranchNode) -> Report:
    """Check every leaf's Farkas certificate by pure arithmetic (no LPs).

    Certificates list multipliers for K's rows first, then the path rows in
    root-to-leaf order.  Stops at the first leaf that has no certificate or
    whose certificate fails, reporting it as "label: check": the leaf's
    branch label and ``no certificate`` or the check it fails
    (``FarkasCertificate.failed_check``), so the verdict does not depend on
    the order of the leaves.

    No relaxation is built.  The rows a leaf is checked on are a copy of K's
    scaled rows followed by one stack of the path's edge rows, which the
    walk truncates and extends in place, so memory is O(m + D) for a
    depth-D proof.  A normal whose length is not ``K.n`` raises
    ``DimensionMismatch`` on descending into its node's first child.
    """
    n, m = K.n, K.m
    rows = tuple(list(part) for part in K._rows)
    mat, rhs, sigmas = rows
    for node, path, leaving in walk(proof):
        if leaving:
            continue
        if path:
            top = m + len(path) - 1  # the parent's rows end here
            del mat[top:], rhs[top:], sigmas[top:]
            _path_rows(K, path[-1:], rows)
        if node.is_leaf:
            cert = node.cert
            check = "no certificate" if cert is None else cert._failed_check(rows, n)
            if check is not None:
                return Report(valid=False, failures=(f"{_branch_label(path)}: {check}",))
    return Report(valid=True)


def certify(K: InequalitySystem, proof: BranchNode) -> BranchNode:
    """Label every leaf with a reduced Farkas certificate (<= n+1 nonzeros).

    Every node's relaxation is solved, so each leaf warm-starts from its
    parent's, and each leaf takes the solver's certificate as it is: a
    basic dual ray scaled to ``lam b = -1``, which is already reduced.
    Raises ``ValueError`` naming the first nonempty leaf if the proof is
    invalid.
    """
    built: list[BranchNode] = []  # finished subtrees, left to right
    for node, path, system, leaving in _relaxations(K, proof):
        if leaving:
            right = built.pop()
            built[-1] = BranchNode._from_row(node._n, node._row, node.b, built[-1], right)
            continue
        cert = is_empty(system)
        if node.is_leaf:
            if cert is None:
                raise ValueError(
                    f"cannot certify: leaf {_branch_label(path)} has a nonempty relaxation"
                )
            built.append(BranchNode(cert=cert))
    return built[0]


def verify_enumerative_proof(K: InequalitySystem, proof: EnumNode) -> Report:
    """Check bounds, child completeness and both leaf conditions.

    At every labeled node with nonempty relaxation, the exact min/max of
    ``a x`` must lie within ``[lo, hi]`` and a child must exist for every
    integer in that interval (one failure per run of missing values);
    childless labeled nodes must satisfy ``floor(hi) < lo``.  A labeled
    node's relaxation is empty when its support LPs raise ``EmptySet``.
    Unlabeled leaves must have empty relaxations.
    The subtree of a node unbounded in its direction is not checked.
    """
    failures: list[str] = []
    pruned = None  # the walk skips nodes deeper than this
    for node, path, system, leaving in _relaxations(K, proof):
        if pruned is not None and len(path) > pruned:
            continue
        pruned = None
        if leaving:
            continue
        where = "/".join(str(b) for _, b in path) or "(root)"
        if node.a is None:
            if is_empty(system) is None:
                failures.append(f"{where}: leaf relaxation is nonempty{_witness(system)}")
            continue
        # the direction and its negation as int tuples, from the node's row
        up, down = _dense(node._n, node._row), _dense(node._n, node._neg)
        try:
            hi_val = support_value(system, up)
            lo_val = -support_value(system, down)
        except EmptySet:
            continue
        except UnboundedSet:
            failures.append(f"{where}: relaxation unbounded in the direction")
            pruned = len(path)
            continue
        if lo_val < node.lo or hi_val > node.hi:
            # the point attaining an escaping end, from its memoized solve
            end = up if hi_val > node.hi else down
            failures.append(
                f"{where}: range [{lo_val}, {hi_val}] escapes bounds"
                f" [{node.lo}, {node.hi}]" + _witness_text(lp_optimize(system, end).point)
            )
        if not node.children and math.floor(node.hi) >= node.lo:
            # the maximizer of a x, from its memoized solve
            failures.append(
                f"{where}: nonempty leaf whose bounds contain an integer"
                + _witness_text(lp_optimize(system, up).point)
            )
        if node.children:
            b, top = math.ceil(node.lo), math.floor(node.hi)
            present = sorted({v for v, _ in node.children if b <= v <= top})
            for v in present + [top + 1]:
                if v == b + 1:
                    failures.append(f"{where}: missing child for b={b}")
                elif v > b:
                    failures.append(f"{where}: missing children for b={b}..{v - 1}")
                b = v + 1
    return Report(valid=not failures, failures=tuple(failures))


def enumerative_to_branching(proof: EnumNode) -> BranchNode:
    """Encode an enumerative proof as a binary branching proof.

    Each child value b becomes two branching levels (``a x <= b`` then
    ``a x >= b`` via the complement of ``a x <= b - 1``); childless labeled
    nodes become a single disjunction at ``floor(hi)``.  The result verifies
    valid iff the original does.
    """
    built: list[BranchNode] = []  # converted subtrees, left to right
    for node, _, leaving in walk(proof):
        if node.a is None:
            built.append(BranchNode())
            continue
        n, row = node._n, node._row
        if not node.children:
            leaf = BranchNode._from_row(n, row, math.floor(node.hi), BranchNode(), BranchNode())
            built.append(leaf)
        elif leaving:
            first = len(built) - len(node.children)
            subs = built[first:]
            del built[first:]
            chain = BranchNode()  # claims a x >= last value + 1 is empty
            for (b, _), sub in zip(reversed(node.children), reversed(subs)):
                inner = BranchNode._from_row(n, row, b - 1, BranchNode(), sub)
                chain = BranchNode._from_row(n, row, b, inner, chain)
            built.append(chain)
    return built[0]


def proof_stats(proof) -> ProofStats:
    """Length (node count), encoding bit-size, and the largest edge coefficient.

    The bit-size counts nodes + edges + label sizes: for branching nodes the
    disjunction ``(a, b)`` (counted once per internal node) and any leaf
    certificates; for enumerative nodes ``(a, lo, hi)`` plus the integer on
    each edge.  Absent labels cost 0 bits.
    """
    if not isinstance(proof, (BranchNode, EnumNode)):
        raise TypeError(f"not a proof object: {type(proof).__name__}")
    nodes = bits = coeff = 0
    for node, _, leaving in walk(proof):
        if not leaving:
            nodes += 1
            label_bits, label_coeff = node._label_size()
            bits += label_bits
            coeff = max(coeff, label_coeff)
    bits += 2 * nodes - 1  # one bit per node and per edge
    return ProofStats(length=nodes, bit_size=bits, max_coeff=coeff)


# ---------------------------------------------------------------------------
# text format: parenthesized trees
#
#   branching:    (node (a_1 ... a_n b) LEFT RIGHT) | (leaf)
#                 | (leaf (cert lam_1 ... lam_m))
#   enumerative:  (enode (a_1 ... a_n) lo hi (child b SUBTREE)...)
#                 | (eleaf empty)
# ---------------------------------------------------------------------------


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _open(tokens: list[str], pos: int, tags: tuple[str, ...]) -> tuple[str, int]:
    """The tag, one of ``tags``, of the node group that opens at ``pos``, and
    the position after it."""
    opening = tokens[pos:pos + 2]
    if len(opening) < 2 or opening[0] != "(" or opening[1] not in tags:
        raise ValueError(f"expected ({' or ('.join(tags)} at token {pos}")
    return opening[1], pos + 2


def _close(tokens: list[str], pos: int) -> int:
    """The position after the ``)`` that must stand at ``pos``."""
    if tokens[pos:pos + 1] != [")"]:
        raise ValueError(f"expected ')' at token {pos}")
    return pos + 1


def _atoms(tokens: list[str], pos: int) -> tuple[list[str], int]:
    """The atoms of the flat group that opens at ``pos`` (a node's
    coefficients or a leaf's ``(cert ...)``), taken as one slice up to its
    ``)``, and the position after it."""
    if tokens[pos:pos + 1] != ["("]:
        raise ValueError(f"expected '(' at token {pos}")
    try:
        end = tokens.index(")", pos + 1)
    except ValueError:
        raise ValueError(f"unclosed group at token {pos}") from None
    group = tokens[pos + 1:end]
    if "(" in group:
        raise ValueError(f"expected numbers in the group at token {pos}, found a list")
    return group, end + 1


def _rational_atom(atom: str, numbers: dict[str, Fraction]) -> Fraction:
    """The number an atom spells.  ``numbers`` holds the tokens parsed so
    far, so one parse reads each distinct token once and shares its
    Fraction."""
    value = numbers.get(atom)
    if value is None:
        value = numbers[atom] = parse_rational(atom)
    return value


def _integer_atom(atom: str, integers: dict[str, int]) -> int:
    """The integer an atom spells.  ``integers`` holds the tokens read so
    far; a token with a ``/`` is read as a rational, which must be an
    integer (``4/2`` is 2)."""
    value = integers.get(atom)
    if value is None:
        if "/" in atom:
            fraction = parse_rational(atom)
            if fraction.denominator != 1:
                raise ValueError(f"expected an integer, found {atom}")
            value = fraction.numerator
        else:
            value = parse_integer(atom)
        integers[atom] = value
    return value


def _integer_atoms(atoms: list[str], integers: dict[str, int]) -> list[int]:
    """The integers the atoms spell, by :func:`_integer_atom`: one lookup
    each when every atom has been read before."""
    try:
        return list(map(integers.__getitem__, atoms))
    except KeyError:
        return [_integer_atom(t, integers) for t in atoms]


def _row(n: int, values) -> tuple:
    """The ``(j, v)`` nonzeros of the first n integers of ``values``."""
    head = values[:n]
    return tuple(compress(enumerate(head), head))


def _vector(n: int, row) -> Vector:
    """The Vector of n entries whose nonzeros are the integer row's."""
    entries = [_ZERO] * n
    for j, v in row:
        entries[j] = Fraction(v)
    return Vector(entries)


def _dense(n: int, row) -> tuple[int, ...]:
    """The n entries of an integer row, as the int tuple the solver keys on."""
    entries = [0] * n
    for j, v in row:
        entries[j] = v
    return tuple(entries)


def _header(n: int, row) -> str:
    """The n coefficients of an integer row, as the text of a node group."""
    coeffs = ["0"] * n
    for j, v in row:
        coeffs[j] = str(v)
    return " ".join(coeffs)


def _certificate(group: list, numbers: dict[str, Fraction]) -> FarkasCertificate:
    """The certificate of a ``(cert ...)`` group, from its nonzero tokens:
    a token spelled "0" is skipped unparsed, and one that parses to 0
    (``-0``, ``00``, ``0/7``) is dropped."""
    spelled = compress(enumerate(group, -1), map("0".__ne__, group))
    next(spelled)  # (-1, "cert"): the tag
    nonzeros = []
    for i, tok in spelled:
        value = _rational_atom(tok, numbers)
        if value:
            nonzeros.append((i, value))
    return FarkasCertificate._from_nonzeros(len(group) - 1, nonzeros)


def format_branching(proof: BranchNode) -> str:
    parts = []
    for node, path, leaving in walk(proof):
        if leaving:
            parts.append(")")
            continue
        if path and not path[-1][1]:
            parts.append("\n")  # a right child follows its left sibling
        pad = "  " * len(path)
        if not node.is_leaf:
            parts.append(f"{pad}(node ({_header(node._n, node._row)} {node.b})\n")
        elif node.cert is None:
            parts.append(f"{pad}(leaf)")
        else:
            lams = ["0"] * node.cert.m
            for i, v in node.cert.nonzeros:
                lams[i] = format_rational(v)
            parts.append(f"{pad}(leaf (cert {' '.join(lams)}))")
    return "".join(parts)


def parse_branching(text: str) -> BranchNode:
    """Read a branching proof in one pass over its tokens.

    A node's header is read in integers into its integer row.  One explicit
    stack holds ``(n, row, b, len(built))`` for each node whose subtrees are
    still being read; a node is built, and its normal checked nonzero, as
    soon as its second subtree closes.
    """
    tokens = _tokenize(text)
    numbers: dict[str, Fraction] = {}
    integers: dict[str, int] = {}
    built: list[BranchNode] = []  # finished subtrees, left to right
    open_nodes: list[tuple] = []
    pos = 0
    while True:
        tag, pos = _open(tokens, pos, ("node", "leaf"))
        if tag == "node":
            header, pos = _atoms(tokens, pos)
            values = _integer_atoms(header, integers)
            if len(values) < 2:
                raise ValueError("disjunction needs at least one coefficient and a rhs")
            n = len(values) - 1
            open_nodes.append((n, _row(n, values), values[-1], len(built)))
            continue
        if tokens[pos:pos + 1] == ["("]:
            group, pos = _atoms(tokens, pos)
            if group[:1] != ["cert"]:
                raise ValueError("a leaf holds nothing but a (cert ...) group")
            built.append(BranchNode(cert=_certificate(group, numbers)))
        else:
            built.append(BranchNode())
        pos = _close(tokens, pos)
        while open_nodes and len(built) == open_nodes[-1][3] + 2:
            n, row, b, _ = open_nodes.pop()
            pos = _close(tokens, pos)
            right = built.pop()
            built[-1] = BranchNode._from_row(n, row, b, built[-1], right)
        if not open_nodes:
            if pos != len(tokens):
                raise ValueError("trailing tokens after proof")
            return built[0]


def format_enumerative(proof: EnumNode) -> str:
    parts = []
    for node, path, leaving in walk(proof):
        depth = 2 * len(path)
        if leaving:
            parts.append(")")
        else:
            if path:
                parts.append(f"\n{'  ' * (depth - 1)}(child {path[-1][1]}\n")
            pad = "  " * depth
            if node.a is None:
                parts.append(f"{pad}(eleaf empty)")
            else:
                parts.append(
                    f"{pad}(enode ({_header(node._n, node._row)}) {format_rational(node.lo)}"
                    f" {format_rational(node.hi)}" + ("" if node.children else ")")
                )
            if node.children:
                continue
        if path:
            parts.append(")")  # closes the (child b ...) group
    return "".join(parts)


def parse_enumerative(text: str) -> EnumNode:
    """Read an enumerative proof in one pass over its tokens.

    One explicit stack holds ``(n, row, lo, hi, child values, len(built))`` for
    each node whose children are still being read; a ``(child b`` group
    pushes b, and a node is built as soon as its own ``)`` is read.
    """
    tokens = _tokenize(text)
    numbers: dict[str, Fraction] = {}
    integers: dict[str, int] = {}
    built: list[EnumNode] = []  # finished subtrees, left to right
    open_nodes: list[tuple] = []
    pos = 0
    while True:
        tag, pos = _open(tokens, pos, ("enode", "eleaf"))
        if tag == "enode":
            header, pos = _atoms(tokens, pos)
            values = _integer_atoms(header, integers)
            n = len(values)
            bounds = tokens[pos:pos + 2]
            if len(bounds) < 2:
                raise ValueError("an enumerative node needs bounds lo hi")
            lo, hi = (_rational_atom(t, numbers) for t in bounds)
            open_nodes.append((n, _row(n, values), lo, hi, [], len(built)))
            pos += 2
        else:
            if tokens[pos:pos + 1] != ["empty"]:
                raise ValueError("an enumerative leaf is (eleaf empty); an integer-free"
                                 " interval is a childless (enode (a_1 ... a_n) lo hi)")
            built.append(EnumNode())
            pos = _close(tokens, pos + 1)
        finished = tag == "eleaf"  # a subtree closed, so its child group closes next
        while open_nodes:
            if finished:
                pos = _close(tokens, pos)
            if tokens[pos:pos + 2] == ["(", "child"]:
                value = tokens[pos + 2:pos + 3]
                if not value:
                    raise ValueError("a child group needs a value b")
                open_nodes[-1][4].append(_integer_atom(value[0], integers))
                pos += 3
                break
            n, row, lo, hi, values, first = open_nodes.pop()
            pos = _close(tokens, pos)
            children = tuple(zip(values, built[first:]))
            built[first:] = [EnumNode._from_row(n, row, lo, hi, children)]
            finished = True
        if not open_nodes:
            if pos != len(tokens):
                raise ValueError("trailing tokens after proof")
            return built[0]


_OPENING_TAG = re.compile(r"\s*\(\s*([^\s()]*)")


def detect_proof_kind(text: str) -> str:
    """"branching" or "enumerative", from the opening node tag."""
    opening = _OPENING_TAG.match(text)
    tag = opening[1] if opening else None
    if tag in ("node", "leaf"):
        return "branching"
    if tag in ("enode", "eleaf"):
        return "enumerative"
    raise ValueError("cannot detect proof kind")
