"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they validate: emptiness is decided
by Fourier-Motzkin elimination, integer-point questions by grid enumeration,
and Diophantine approximations by a direct scan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from branchproofs.prooftree import Report, _branch_label, _relaxations
from branchproofs.vectors import Vector, format_rational


def fraction_combination(system, lam) -> tuple[list[Fraction], Fraction]:
    """``(sum lam_i a_i, sum lam_i b_i)`` in Fractions over every row, the
    reference for the library's integer combination on scaled rows."""
    combo = [Fraction(0)] * system.n
    total = Fraction(0)
    for coeff, a, b in zip(lam, system.matrix, system.rhs):
        for j, e in enumerate(a):
            combo[j] += coeff * e
        total += coeff * b
    return combo, total


def fraction_view_text(system) -> str:
    """The ``.ineq`` text of a system formatted through its ``matrix`` and
    ``rhs`` views, each row as its Vector's text and its rhs: the reference
    for ``to_text``, which formats the scaled integer rows."""
    lines = [f"{system.n} {system.m}"]
    for a, b in zip(system.matrix, system.rhs):
        lines.append(a.text() + " " + format_rational(b))
    return "\n".join(lines) + "\n"


def relaxation_certified_report(K, proof) -> Report:
    """``verify certified`` on built relaxations: each leaf's certificate is
    checked by ``FarkasCertificate.failed_check`` on its relaxation, K plus
    its path rows derived by ``with_rows`` (``_relaxations``), so a normal of
    the wrong dimension raises from ``with_rows``.  The reference for the
    verifier, which checks on one stack of scaled rows."""
    for node, path, system, _ in _relaxations(K, proof):
        if node.is_leaf and (node.cert is None or not node.cert.verify(system)):
            check = "no certificate" if node.cert is None else node.cert.failed_check(system)
            return Report(valid=False, failures=(f"{_branch_label(path)}: {check}",))
    return Report(valid=True)


def dense_proof_bits(proof) -> int:
    """The encoding bit size of a branching proof, over every entry of its
    dense certificate vectors: one bit per node and per edge, a rational p/q
    costs 1 + ceil(log2(|p|+1)) + ceil(log2(q+1)) bits and a vector its
    dimension plus its entries."""
    def rational(value) -> int:
        value = Fraction(value)
        return 1 + abs(value.numerator).bit_length() + value.denominator.bit_length()

    def vector(entries) -> int:
        return len(entries) + sum(rational(e) for e in entries)

    nodes, bits, todo = 0, 0, [proof]
    while todo:
        node = todo.pop()
        nodes += 1
        if node.a is not None:
            bits += vector(list(node.a)) + rational(node.b)
            todo += [node.left, node.right]
        elif node.cert is not None:
            bits += vector(list(node.cert.multipliers))
    return bits + 2 * nodes - 1


def fourier_motzkin_empty(matrix, rhs) -> bool:
    """True iff {x : A x <= b} is empty, by eliminating variables in order."""
    rows = [list(a) + [Fraction(b)] for a, b in zip(matrix, rhs)]
    n = len(rows[0]) - 1 if rows else 0
    for var in range(n):
        pos, neg, rest = [], [], []
        for row in rows:
            if row[var] > 0:
                pos.append(row)
            elif row[var] < 0:
                neg.append(row)
            else:
                rest.append(row)
        new_rows = rest
        for rp in pos:
            for rn in neg:
                combined = [
                    rp[k] / rp[var] - rn[k] / rn[var] for k in range(len(rp))
                ]
                combined[var] = Fraction(0)
                new_rows.append(combined)
        rows = new_rows
    # only constant constraints 0 <= b remain
    return any(row[-1] < 0 for row in rows)


def integer_points_in_box(system, lo: int, hi: int):
    """All integer points of the system inside [lo, hi]^n, by enumeration."""
    for coords in itertools.product(range(lo, hi + 1), repeat=system.n):
        point = Vector(coords)
        if system.contains(point):
            yield point


def brute_force_dirichlet(a: Vector, N: int):
    """Smallest l in 1..N^len(a) with max_i dist(l * a_i / ||a||_inf, Z) < 1/N.

    Mirrors the published existence statement directly with Fraction
    arithmetic; used to pin expected values for the fast implementation.
    """
    scale = a.norm_linf()
    unit = [e / scale for e in a]
    bound = N ** len(a)
    for l in range(1, bound + 1):
        ok = True
        rounded = []
        for u in unit:
            v = l * u
            r = _round_half_away(v)
            if abs(v - r) * N >= 1:
                ok = False
                break
            rounded.append(r)
        if ok:
            return l, Vector(rounded)
    raise AssertionError("pigeonhole guarantee violated")


def approximation_error(a: Vector, approx) -> Fraction:
    """max_i | l * a_i / ||a||_inf - a'_i | of a ``DioApprox``, exactly."""
    scale = a.norm_linf()
    return max(abs(approx.multiplier * e / scale - w) for e, w in zip(a, approx.a_prime))


def linear_scan_dirichlet(a: Vector, N: int):
    """``brute_force_dirichlet`` as an integer scan over every l in 1..N^n.

    Coordinate p/q of a/||a||_inf is within 1/N of an integer at l exactly
    when min(r, q - r) N < q for r = (l p) mod q.  Far faster than the
    Fraction oracle, so it cross-checks cases with larger denominators.
    """
    scale = a.norm_linf()
    unit = [e / scale for e in a]
    checks = [(u.numerator, u.denominator) for u in unit if u.denominator != 1]
    for l in range(1, N ** len(a) + 1):
        for p, q in checks:
            r = (l * p) % q
            if min(r, q - r) * N >= q:
                break
        else:
            return l, Vector(_round_half_away(l * u) for u in unit)
    raise AssertionError("pigeonhole guarantee violated")


def _round_half_away(value: Fraction) -> int:
    if value >= 0:
        return (2 * value.numerator + value.denominator) // (2 * value.denominator)
    return -_round_half_away(-value)


def dual_cone_vertices(system):
    """All vertices of {lam >= 0 : lam A = 0, lam b = -1}, by basis enumeration.

    Only usable for small m; serves as the oracle for certificate reduction.
    """
    m, n = system.m, system.n
    rows = [tuple(a) + (b,) for a, b in system.rows()]
    vertices = []
    for support in _subsets(range(m), n + 1):
        vertex = _solve_support(rows, support)
        if vertex is not None and vertex not in vertices:
            vertices.append(vertex)
    return vertices


def _subsets(universe, max_size):
    universe = list(universe)
    for size in range(1, max_size + 1):
        yield from itertools.combinations(universe, size)


def _solve_support(rows, support):
    """The unique lam >= 0 supported on `support` with lam A = 0, lam b = -1,
    for the rows ``(a_1, ..., a_n, b)`` of ``A x <= b``."""
    cols = [rows[i] for i in support]
    n = len(rows[0]) - 1
    target = [Fraction(0)] * n + [Fraction(-1)]
    width = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(width)] + [target[i]]
           for i in range(n + 1)]
    # gaussian elimination
    rank = 0
    pivots = []
    for col in range(width):
        row = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if row is None:
            return None  # column dependency: not a basic solution
        aug[rank], aug[row] = aug[row], aug[rank]
        piv = aug[rank][col]
        aug[rank] = [v / piv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    if any(row[-1] != 0 for row in aug[rank:]):
        return None  # inconsistent
    lam = [Fraction(0)] * len(rows)
    for col, r in zip(pivots, range(rank)):
        lam[support[col]] = aug[r][-1]
    if any(v < 0 for v in lam):
        return None
    return tuple(lam)


def check_repair_invariants(K, P, seqs, pairs) -> None:
    """Replay a leaf repair from its substitution sequences and the
    ``(normal, rhs)`` pairs that ``gen_cg_cuts`` returned, and raise
    ``AssertionError`` unless, after each +/- pair, the CG closure of
    K n P' under the cuts so far is empty or lies inside every forced
    equality and inside P relaxed by the current level errors.

    Each forced equality must be the current level of some row; levels
    advance once the forced equalities imply them, decided here by ranks
    (Gaussian elimination) instead of the repair's LPs.
    """
    from branchproofs.geometry import apply_cg_list, support_value
    from branchproofs.simplex import is_empty

    forced = pairs[::2]
    assert pairs[1::2] == [(-a, -b) for a, b in forced], "pairs are not +/- pairs"
    K_prime = K.with_rows((seq.a_prime, seq.b_prime) for seq in seqs)
    level = [0] * len(seqs)
    emptied = False  # once the closure is empty, later rounds only replay levels
    for r, (a_r, b_r) in enumerate(forced, start=1):
        assert any(seq.levels[l][:2] == (a_r, b_r) for seq, l in zip(seqs, level)), \
            f"round {r} forces no current level"
        learned = [list(a) + [b] for a, b in forced[:r]]
        for j, seq in enumerate(seqs):
            while level[j] + 1 < seq.k and _affine_implies(learned, *seq.levels[level[j]][:2]):
                level[j] += 1
        if not emptied:
            current = apply_cg_list(K_prime, [a for a, _ in pairs[: 2 * r]])
            emptied = is_empty(current) is not None
        if emptied:
            continue
        for a, b in forced[:r]:
            assert support_value(current, a) <= b <= -support_value(current, -a), \
                f"round {r}: cut set escaped the forced equalities"
        for (row, rhs), seq, l in zip(P.rows(), seqs, level):
            assert support_value(current, row) <= rhs + seq.levels[l][2], \
                f"round {r}: cut set escaped the error-relaxed P"


def _affine_implies(learned, a, b) -> bool:
    """Whether the equalities ``[A | b]`` (rows of ``learned``) imply
    ``a x = b``: they are inconsistent, or ``(a, b)`` lies in their row span."""
    coeffs = [row[:-1] for row in learned]
    if _rank(coeffs) < _rank(learned):
        return True
    return _rank(learned + [list(a) + [b]]) == _rank(learned)


def _rank(rows) -> int:
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank
