"""Serializing enumerative branching proofs into CG cutting-plane proofs.

``enum_to_cp`` walks an enumerative proof of integer infeasibility and emits
an ordered list of CG cut normals whose sequential application empties the
polytope, of length at most 2|T| - 1.  The recursion pushes the hyperplane
``a_r x = b`` backwards through the set: the cut induced by the branching
direction ``a_r`` drops its support value to the next integer, the child
subtree at that value is serialized on the face of maximizers (by an
explicit stack of per-node frames, so any proof depth is fine),
and the face cuts are lifted back with :func:`lift_cg_sequence` so that they
have the same effect applied to the full set.  Serialization levels pass
each other the :class:`CgCut` records that :func:`apply_cg` returns, so each
face is built and cut once.

Lifting replaces a face cut ``a`` by ``a + i c`` (c the face normal).  A
multiplier ``i`` is accepted exactly when
``floor(h_K(a + i c) - i h_K(c)) == floor(h_F(a))``, the rhs of the face
cut's record, which makes the cut's trace on the face coincide with the
face's own CG cut; existence of such an ``i`` is guaranteed for rational
polytopes, and small multipliers are preferred (the search runs
i = 0, 1, 2, 4, 8, ... with a generous cap that turns a violated
precondition into a diagnosable error).  Support values here must be
finite, else :func:`support_value` raises ``EmptySet`` or ``UnboundedSet``;
only a CG cut (a no-op) and the push-down loop (which stops) take an empty
set as an answer.
"""

from __future__ import annotations

import math

from .geometry import CgCut, EmptySet, apply_cg, face, support_value
from .prooftree import EnumNode
from .simplex import InequalitySystem, is_empty
from .vectors import Vector

_MULTIPLIER_CAP = 2**64


def lift_cg_sequence(
    K: InequalitySystem, c: Vector, face_cuts: list[CgCut]
) -> tuple[InequalitySystem, list[CgCut]]:
    """Lift the CG cuts of ``face(K, c)``, given as their records, to cuts of K.

    ``face_cuts`` are the records of cuts applied one after another to the
    face, as :func:`apply_cg` returned them.  Cut i is lifted against K after
    the previously lifted cuts, so the set equality holds prefix-wise.
    Requires ``h_K(c)`` finite and integral; each multiplier is the smallest
    in the doubling schedule passing the floor test, and 0 for a no-op cut
    (the face was already empty).  Returns K after the lifted cuts and their
    records on K, like :func:`apply_cg`.
    """
    h_c = support_value(K, c)
    if h_c.denominator != 1:
        raise ValueError("face support value must be integral for lifting")
    current = K
    lifted: list[CgCut] = []
    for cut in face_cuts:
        multiplier = 0
        if not cut.is_noop():
            multiplier = _search_multiplier(current, c, cut.normal, h_c, cut.rhs)
        current, record = apply_cg(current, cut.normal + multiplier * c)
        lifted.append(record)
    return current, lifted


def _search_multiplier(K, c, a, h_c, target: int) -> int:
    i = 0
    while i <= _MULTIPLIER_CAP:
        if math.floor(support_value(K, a + i * c) - i * h_c) == target:
            return i
        i = 1 if i == 0 else 2 * i
    raise RuntimeError(
        "no lifting multiplier found below the cap; the set is probably"
        " unbounded or the face support value is not integral"
    )


def enum_to_cp(K: InequalitySystem, proof: EnumNode) -> list[Vector]:
    """Serialize a valid enumerative proof into a CG cut list emptying K.

    The returned list has length at most 2|T| - 1 and satisfies
    ``apply_cg_list(K, cuts)`` empty; an input proof that fails to refute the
    set raises ``ValueError``.
    """
    records, final = _serialize(K, proof)
    if is_empty(final) is None:
        raise ValueError("enumerative proof does not refute the set")
    return [cut.normal for cut in records]


def _serialize(K: InequalitySystem, root: EnumNode):
    """``(cut records, final set)`` for the proof ``root`` of K, by a stack.

    Each frame is one node's :func:`_serialize_node` generator, which yields
    ``(face, child)`` where a recursive serializer would call itself and is
    sent the child's cut records on that face back.
    """
    frames = [_serialize_node(K, root)]
    reply = None
    while True:
        try:
            face_set, child = frames[-1].send(reply)
        except StopIteration as done:
            frames.pop()
            if not frames:
                return done.value
            reply = done.value[0]
        else:
            frames.append(_serialize_node(face_set, child))
            reply = None


def _serialize_node(K: InequalitySystem, node: EnumNode):
    if is_empty(K) is not None:
        return [], K
    if node.a is None:
        # an unlabeled leaf over a nonempty set: the proof is invalid
        raise ValueError("empty leaf reached with a nonempty relaxation")
    a_r = node.a
    children = dict(node.children)
    current, record = apply_cg(K, a_r)
    records = [record]
    previous_b = None
    while True:
        try:
            value = support_value(current, a_r)
        except EmptySet:
            break
        if value < node.lo:
            break
        if value.denominator != 1:
            raise RuntimeError("support value not integral after a CG cut")
        b = int(value)
        if previous_b is not None and b >= previous_b:
            raise RuntimeError("pushed value failed to decrease")
        previous_b = b
        if b not in children:
            raise ValueError(f"no child for branched value {b}")
        face_cuts = yield face(current, a_r), children[b]
        current, lifted = lift_cg_sequence(current, a_r, face_cuts)
        records.extend(lifted)
        current, record = apply_cg(current, a_r)
        records.append(record)
    if is_empty(current) is None:
        # support dropped below lo on a nonempty set: bounds were wrong
        raise ValueError("enumerative proof does not refute the set")
    return records, current
