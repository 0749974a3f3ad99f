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

Every pass over a proof path takes an edge's rows, integral and so their
own scaled rows (sigma 1), from the node's ``_edge_rows`` by :func:`_path_rows`.
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
from itertools import zip_longest

from .simplex import (
    DimensionMismatch,
    FarkasCertificate,
    InequalitySystem,
    is_empty,
    lp_optimize,
)
from .geometry import EmptySet, UnboundedSet, support_value
from .vectors import Vector, bit_size, format_rational, parse_rational, sparse_bit_size


class _TreeNode:
    """Equality, hashing and repr for proof nodes that never recurse.

    Two trees are equal when one parallel :func:`walk` finds the same own
    fields (``_fields``: everything but the child nodes) at every node; the
    hash and the repr cover the node's own fields and its child count only,
    so any depth is fine.
    """

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


@dataclass(frozen=True, eq=False, repr=False)
class BranchNode(_TreeNode):
    """A node of a branching proof; a leaf when ``a`` is None."""

    a: Vector | None = None
    b: int | None = None
    left: "BranchNode | None" = None
    right: "BranchNode | None" = None
    cert: FarkasCertificate | None = None

    def __post_init__(self):
        if self.a is None:
            if self.left is not None or self.right is not None or self.b is not None:
                raise ValueError("leaves carry no disjunction and no children")
            if self.cert is not None and not isinstance(self.cert, FarkasCertificate):
                raise TypeError("a leaf certificate must be a FarkasCertificate")
        else:
            if not self.a.is_integral() or self.a.is_zero():
                raise ValueError("disjunction normals must be nonzero integral")
            if not isinstance(self.b, int):
                raise ValueError("disjunction right-hand sides must be integers")
            if self.left is None or self.right is None:
                raise ValueError("internal nodes need both children")
            if self.cert is not None:
                raise ValueError("only leaves carry certificates")

    @property
    def is_leaf(self) -> bool:
        return self.a is None

    def edges(self) -> tuple:
        """(went_left, child) pairs, left first; empty for a leaf."""
        if self.a is None:
            return ()
        return ((True, self.left), (False, self.right))

    def _edge_rows(self, went_left: bool):
        """The scaled row ``(mat, rhs, sigmas)`` of the left edge's ``a x <= b`` or
        the right edge's ``-a x <= -b - 1``, with sigma 1: the normal is integral."""
        sign, b = (1, self.b) if went_left else (-1, -self.b - 1)
        row = tuple((j, sign * e.numerator) for j, e in enumerate(self.a) if e.numerator)
        return (row,), (b,), (1,)

    def _fields(self) -> tuple:
        return (("a", self.a), ("b", self.b), ("cert", self.cert))

    def _label_size(self) -> tuple[int, int]:
        """The bits of the disjunction or certificate, and the largest
        coefficient of the two edge rows."""
        if self.a is None:
            cert = self.cert
            return (0 if cert is None else sparse_bit_size(cert.m, cert.nonzeros)), 0
        b = self.b
        coeff = max(max([abs(e.numerator) for e in self.a]), abs(b), abs(b + 1))
        return bit_size(self.a) + bit_size(b), coeff


@dataclass(frozen=True, eq=False, repr=False)
class EnumNode(_TreeNode):
    """A node of an enumerative proof.

    ``a is None`` marks an unlabeled leaf, ``EnumNode()``, which claims its
    relaxation is empty; otherwise the node carries direction/bounds and
    children keyed by the branched integer value.  A labeled childless node
    is the integer-free-interval leaf.
    """

    a: Vector | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None
    children: tuple[tuple[int, "EnumNode"], ...] = ()

    def __post_init__(self):
        if self.a is None:
            if self.children:
                raise ValueError("unlabeled leaves cannot have children")
        else:
            if not self.a.is_integral() or self.a.is_zero():
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
        row = tuple((j, e.numerator) for j, e in enumerate(self.a) if e.numerator)
        return (row, tuple((j, -v) for j, v in row)), (b, -b), (1, 1)

    def _fields(self) -> tuple:
        values = tuple(b for b, _ in self.children)
        return (("a", self.a), ("lo", self.lo), ("hi", self.hi), ("values", values))

    def _label_size(self) -> tuple[int, int]:
        """The bits of ``(a, lo, hi)`` and of the edge integers, and the
        largest of their coefficients."""
        if self.a is None:
            return 0, 0
        values = [b for b, _ in self.children]
        bits = bit_size(self.a) + bit_size(self.lo) + bit_size(self.hi)
        bits += sum(map(bit_size, values))
        return bits, max([abs(e.numerator) for e in self.a] + [abs(v) for v in values])


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
        if len(parent.a) != K.n:
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
            built[-1] = BranchNode(node.a, node.b, built[-1], right)
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
        try:
            hi_val = support_value(system, node.a)
            lo_val = -support_value(system, -node.a)
        except EmptySet:
            continue
        except UnboundedSet:
            failures.append(f"{where}: relaxation unbounded in the direction")
            pruned = len(path)
            continue
        if lo_val < node.lo or hi_val > node.hi:
            # the point attaining an escaping end, from its memoized solve
            end = node.a if hi_val > node.hi else -node.a
            failures.append(
                f"{where}: range [{lo_val}, {hi_val}] escapes bounds"
                f" [{node.lo}, {node.hi}]" + _witness_text(lp_optimize(system, end).point)
            )
        if not node.children and math.floor(node.hi) >= node.lo:
            # the maximizer of a x, from its memoized solve
            failures.append(
                f"{where}: nonempty leaf whose bounds contain an integer"
                + _witness_text(lp_optimize(system, node.a).point)
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
        elif not node.children:
            built.append(BranchNode(node.a, math.floor(node.hi), BranchNode(), BranchNode()))
        elif leaving:
            first = len(built) - len(node.children)
            subs = built[first:]
            del built[first:]
            chain = BranchNode()  # claims a x >= last value + 1 is empty
            for (b, _), sub in zip(reversed(node.children), reversed(subs)):
                inner = BranchNode(node.a, b - 1, BranchNode(), sub)
                chain = BranchNode(node.a, b, inner, chain)
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


def _integer_atom(atom: str, numbers: dict[str, Fraction]) -> Fraction:
    """The integer an atom spells, as its shared Fraction."""
    value = _rational_atom(atom, numbers)
    if value.denominator != 1:
        raise ValueError(f"expected an integer, found {atom}")
    return value


def _certificate(group: list, numbers: dict[str, Fraction]) -> FarkasCertificate:
    """The certificate of a ``(cert ...)`` group, from its nonzero tokens:
    a token spelled "0" is skipped unparsed, and one that parses to 0
    (``-0``, ``00``, ``0/7``) is dropped."""
    spelled = [(i, tok) for i, tok in enumerate(group) if tok != "0"]
    nonzeros = []
    for i, tok in spelled[1:]:  # spelled[0] is the "cert" tag
        value = _rational_atom(tok, numbers)
        if value:
            nonzeros.append((i - 1, value))
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
            header = " ".join(str(v) for v in node.a.as_ints()) + f" {node.b}"
            parts.append(f"{pad}(node ({header})\n")
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

    One explicit stack holds ``(a, b, len(built))`` for each node whose
    subtrees are still being read; a node is built as soon as its second
    subtree closes.
    """
    tokens = _tokenize(text)
    numbers: dict[str, Fraction] = {}
    built: list[BranchNode] = []  # finished subtrees, left to right
    open_nodes: list[tuple] = []
    pos = 0
    while True:
        tag, pos = _open(tokens, pos, ("node", "leaf"))
        if tag == "node":
            header, pos = _atoms(tokens, pos)
            values = [_integer_atom(t, numbers) for t in header]
            if len(values) < 2:
                raise ValueError("disjunction needs at least one coefficient and a rhs")
            open_nodes.append((Vector(values[:-1]), values[-1].numerator, len(built)))
            continue
        if tokens[pos:pos + 1] == ["("]:
            group, pos = _atoms(tokens, pos)
            if group[:1] != ["cert"]:
                raise ValueError("a leaf holds nothing but a (cert ...) group")
            built.append(BranchNode(cert=_certificate(group, numbers)))
        else:
            built.append(BranchNode())
        pos = _close(tokens, pos)
        while open_nodes and len(built) == open_nodes[-1][2] + 2:
            a, b, _ = open_nodes.pop()
            pos = _close(tokens, pos)
            right = built.pop()
            built[-1] = BranchNode(a=a, b=b, left=built[-1], right=right)
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
                coeffs = " ".join(str(v) for v in node.a.as_ints())
                parts.append(
                    f"{pad}(enode ({coeffs}) {format_rational(node.lo)}"
                    f" {format_rational(node.hi)}" + ("" if node.children else ")")
                )
            if node.children:
                continue
        if path:
            parts.append(")")  # closes the (child b ...) group
    return "".join(parts)


def parse_enumerative(text: str) -> EnumNode:
    """Read an enumerative proof in one pass over its tokens.

    One explicit stack holds ``(a, lo, hi, child values, len(built))`` for
    each node whose children are still being read; a ``(child b`` group
    pushes b, and a node is built as soon as its own ``)`` is read.
    """
    tokens = _tokenize(text)
    numbers: dict[str, Fraction] = {}
    built: list[EnumNode] = []  # finished subtrees, left to right
    open_nodes: list[tuple] = []
    pos = 0
    while True:
        tag, pos = _open(tokens, pos, ("enode", "eleaf"))
        if tag == "enode":
            header, pos = _atoms(tokens, pos)
            a = Vector([_integer_atom(t, numbers) for t in header])
            bounds = tokens[pos:pos + 2]
            if len(bounds) < 2:
                raise ValueError("an enumerative node needs bounds lo hi")
            lo, hi = (_rational_atom(t, numbers) for t in bounds)
            open_nodes.append((a, lo, hi, [], len(built)))
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
                open_nodes[-1][3].append(_integer_atom(value[0], numbers).numerator)
                pos += 3
                break
            a, lo, hi, values, first = open_nodes.pop()
            pos = _close(tokens, pos)
            children = tuple(zip(values, built[first:]))
            built[first:] = [EnumNode(a=a, lo=lo, hi=hi, children=children)]
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
