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
face's own CG cut; the least such ``i`` in the schedule i = 0, 1, 2, 4, 8,
... is taken, with a generous cap that turns a violated precondition into a
diagnosable error.  With ``g(i) = h_K(a + i c) - i h_K(c)``, the minimum of g
over i >= 0 is ``h_F(a)`` (LP duality), and the face LP's optimal dual says
from where on: each record carries the optimum of the LP that made it and
the row that holds its cut, so the dual's weight on a face row moves to
that row's K-side row, and the face's rows ``(c, h_c)`` and ``(-c, -h_c)``,
and each earlier face cut k (lifted with multiplier ``i_k``), add weight
times -1, +1 and ``i_k`` to a number i0.  For every ``i >= i* = max(0,
ceil(i0))`` these multipliers plus ``i - i0`` times the dual of ``h_K(c)``
certify ``h_K(a + i c) = h_F(a) + i h_K(c)``, attained at the face optimum,
so only the schedule values below i* are solved; the first one at or above
it is checked in integers (``geometry._apply_certified``) and cut with no
LP, and its record carries that certificate up to the next level.  The plan
stays in the solver's integers: i0 and the multipliers are numerators over
the face dual's denominator, summed from its integer weights, and the dual
of ``h_K(c)`` joins them over the product of the two denominators.  The
multiplier is the one the search by solves alone finds.  Every direction
and cut normal here is an int tuple: a node's from its integer row, a face
cut's from its record, and ``a + i c`` summed in ints, so the solver keys,
cuts and lifts them with no Fraction; a record builds its Vector normal
only when :func:`enum_to_cp` returns it.  Support values
here must be finite, else :func:`support_value` raises ``EmptySet`` or
``UnboundedSet``; only a CG cut (a no-op) and the push-down loop (which
stops) take an empty set as an answer.  Only K itself is tested empty:
every other node's set is a face at a finite support value, so nonempty.
"""

from __future__ import annotations

import math

from .geometry import (
    CgCut, EmptySet, _apply_certified, _integral, _support_optimum, apply_cg, face,
    support_value,
)
from .prooftree import EnumNode, _dense, walk
from .simplex import DimensionMismatch, InequalitySystem, SolverError, is_empty
from .vectors import Vector

_MULTIPLIER_CAP = 2**64


def lift_cg_sequence(
    K: InequalitySystem, c: Vector | tuple[int, ...], face_cuts: list[CgCut]
) -> tuple[InequalitySystem, list[CgCut]]:
    """Lift the CG cuts of ``face(K, c)``, given as their records, to cuts of K.

    ``face_cuts`` are the records of cuts applied one after another to the
    face, as :func:`apply_cg` returned them.  Cut i is lifted against K after
    the previously lifted cuts, so the set equality holds prefix-wise.  The
    face normal c is an integral Vector or a tuple of ints.
    Requires ``h_K(c)`` finite and integral; each multiplier is the smallest
    in the doubling schedule passing the floor test, and 0 for a no-op cut
    (the face was already empty).  A record that carries its face optimum
    has the schedule values below its i* solved and the first at or above it
    certified with no LP (see the module docstring); a record that carries
    none, such as a hand-built ``CgCut(a, rhs)``, has every value solved.
    Returns K after the lifted cuts and their records on K, like
    :func:`apply_cg`, each carrying its own optimum on K.
    """
    c = _integral(c)
    along = _support_optimum(K, c)
    if along.value.denominator != 1:
        raise ValueError("face support value must be integral for lifting")
    _, _, weights, sigmas, along_den = along._parts
    h_c = int(along.value)
    along_dual = ([(k, sigmas[k] * w) for k, w in weights], along_den)
    # face row r -> (k, s): current's row k is face row r plus s (c, h_c),
    # with a rhs no larger; k is None for the face's rows (c, h_c) and
    # (-c, -h_c), which are -s (c, h_c) themselves
    rows = [(k, 0) for k in range(K.m)] + [(None, -1), (None, 1)]
    current = K
    lifted: list[CgCut] = []
    for cut in face_cuts:
        multiplier = 0
        if cut.is_noop():
            current, record = apply_cg(current, cut._ints)
        else:
            plan = None
            if rows is not None and cut._optimal is not None:
                plan = _face_dual_on_k(cut._optimal, rows, along_dual)
            current, record, multiplier = _search_multiplier(
                current, c, cut._ints, h_c, cut.rhs, plan)
        lifted.append(record)
        if rows is None or cut._row is None or cut._row > len(rows) or record._row is None:
            rows = None  # no map from here on: later records are solved
        elif cut._row == len(rows):
            rows.append((record._row, multiplier))
        else:
            rows[cut._row] = (record._row, multiplier)
    return current, lifted


def _face_dual_on_k(optimal, rows, along):
    """``(i0, den, point, scale, multipliers, along)`` from a face optimum, in
    the solver's integers over the face dual's denominator ``den``: the
    dual's weight on face row r moves to r's K-side row and adds weight
    times r's shift to i0, so the ``{row: multiplier}`` combine current's
    rows to at most ``(a + i0 c, value + i0 h_c)``, each of i0 and the
    multipliers a numerator over ``den``; the point is the face optimum as
    integers over ``scale``, and ``along`` the dual of h_K(c), as
    ``(row, numerator)`` pairs and their denominator."""
    point, scale, weights, sigmas, den = optimal._parts
    i0, multipliers = 0, {}
    for r, w in weights:
        if r >= len(rows):
            raise SolverError("carried dual has a row outside the face")
        k, shift = rows[r]
        y = sigmas[r] * w  # the multiplier on face row r, over den
        i0 += shift * y
        if k is not None:
            multipliers[k] = multipliers.get(k, 0) + y
    return i0, den, point, scale, multipliers, along


def _search_multiplier(K, c, a, h_c: int, target: int, plan):
    """``(system, record, i)`` for the least i in 0, 1, 2, 4, ... with
    ``floor(h_K(a + i c)) - i h_c == target``, K cut by ``a + i c``, for
    int tuples a and c.

    With a ``plan`` from :func:`_face_dual_on_k`, the first schedule value at
    or above i0 is not solved: its multipliers are the plan's plus ``i - i0``
    times the dual of h_K(c), as numerators over the product of the two
    denominators, and :func:`_apply_certified` checks them with the face
    optimum."""
    i = 0
    while i <= _MULTIPLIER_CAP:
        normal = tuple([x + i * y for x, y in zip(a, c)])
        if plan is not None and i * plan[1] >= plan[0]:
            i0, den, point, scale, multipliers, (along, along_den) = plan
            step = i * den - i0  # (i - i0) den
            numerators = {k: v * along_den for k, v in multipliers.items()}
            for k, v in along:
                numerators[k] = numerators.get(k, 0) + step * v
            nonzeros = [(k, v) for k, v in numerators.items() if v]
            system, record = _apply_certified(
                K, normal, point, scale, nonzeros, den * along_den)
            if record.rhs - i * h_c != target:
                raise SolverError("certified lift fails the floor test")
            return system, record, i
        if math.floor(support_value(K, normal)) - i * h_c == target:
            return (*apply_cg(K, normal), i)
        i = 1 if i == 0 else 2 * i
    raise RuntimeError(
        "no lifting multiplier found below the cap; the set is probably"
        " unbounded or the face support value is not integral"
    )


def enum_to_cp(K: InequalitySystem, proof: EnumNode) -> list[Vector]:
    """Serialize a valid enumerative proof into a CG cut list emptying K.

    The returned list has length at most 2|T| - 1 and satisfies
    ``apply_cg_list(K, cuts)`` empty; an input proof that fails to refute the
    set raises ``ValueError``.  An empty K takes no cut.  Every direction's
    length is checked first, also on the nodes serialization never reaches,
    so a direction that is not in K's dimension raises ``DimensionMismatch``
    as ``verify_enumerative_proof`` does.
    """
    for node, _, _ in walk(proof):
        if node.a is not None and len(node.a) != K.n:
            raise DimensionMismatch(f"objective has dim {len(node.a)}, system has n={K.n}")
    if is_empty(K) is not None:
        return []
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
    # K is nonempty: enum_to_cp tested the root, and each face is nonempty
    if node.a is None:
        raise ValueError("empty leaf reached with a nonempty relaxation")
    a_r = _dense(node._n, node._row)
    children = dict(node.children)
    current, record = apply_cg(K, a_r)
    records = [record]
    previous_b = None
    while True:
        try:
            value = support_value(current, a_r)
        except EmptySet:  # the solver verified its Farkas certificate
            return records, current
        if value < node.lo:
            # support dropped below lo on a nonempty set: bounds were wrong
            raise ValueError("enumerative proof does not refute the set")
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
