"""Proof objects: verification, certification, stats, serialization."""

import hashlib
import math
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from branchproofs.families import thin_segment, tseitin_polytope, tseitin_sp_refutation
from branchproofs.families import TseitinInstance
from branchproofs import simplex
from branchproofs.prooftree import (
    BranchNode,
    EnumNode,
    _relaxations,
    certify,
    detect_proof_kind,
    enumerative_to_branching,
    format_branching,
    format_enumerative,
    parse_branching,
    parse_enumerative,
    proof_stats,
    verify_branching_proof,
    verify_certified_proof,
    verify_enumerative_proof,
    walk,
)
from branchproofs.recompile import recompile
from branchproofs.simplex import DimensionMismatch, FarkasCertificate, InequalitySystem
from branchproofs.vectors import Vector, format_rational, parse_rational

from oracles import (
    dense_proof_bits,
    fraction_edge_rows,
    fraction_relaxations,
    relaxation_certified_report,
)
from randgen import (
    random_branching_proof,
    random_enumerative_proof,
    random_integer_free_polytope,
    rational_rows,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def leaf():
    return BranchNode()


def test_verify_thin_segment_proof():
    K, proof = thin_segment(10**6)
    assert verify_branching_proof(K, proof).valid


def test_verify_names_nonempty_leaf():
    K, _ = thin_segment(10**6)
    bad = BranchNode(Vector([1, 0]), 0, leaf(), leaf())
    report = verify_branching_proof(K, bad)
    assert not report.valid
    assert [f.split(":", 1)[0] for f in report.failures] == ["L"]  # witness x = (0, 1/2)


def test_verify_reports_every_nonempty_leaf_in_path_order():
    K = InequalitySystem([[1], [-1]], [Fraction(3, 4), Fraction(-1, 4)])  # 1/4 <= x <= 3/4
    # L: x <= 1/2 and RL: x = 3/4 are nonempty, RR: x >= 1 is empty
    proof = parse_branching("(node (4 2) (leaf) (node (4 3) (leaf) (leaf)))")
    report = verify_branching_proof(K, proof)
    assert report.failures == (
        "L: leaf relaxation is nonempty; witness x = (1/2)",
        "RL: leaf relaxation is nonempty; witness x = (3/4)",
    )


def reported_witness(failure: str) -> Vector:
    entries = failure.split("; witness x = (", 1)[1].rstrip(")").split(", ")
    return Vector([parse_rational(e) for e in entries])


def test_witnesses_lie_in_their_leaf_relaxations(monkeypatch):
    """Every nonempty leaf a verifier reports carries a point of its leaf
    relaxation, read from the leaf check without solving another LP."""
    from branchproofs import prooftree

    solves = []
    solve, witness = simplex._solve_verified, prooftree._witness

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    def witness_without_solving(system):
        before = len(solves)
        text = witness(system)
        assert len(solves) == before
        return text

    monkeypatch.setattr(simplex, "_solve_verified", counted_solve)
    monkeypatch.setattr(prooftree, "_witness", witness_without_solving)
    rng = Random(6060)
    witnesses = 0
    for _ in range(12):
        n = rng.randint(1, 3)
        K = random_integer_free_polytope(rng, n)
        enum_proof = random_enumerative_proof(rng, K)
        # cut the proof short: every child of the root becomes an "empty"
        # leaf or a childless node whose bounds hold an integer
        children = tuple(
            (b, EnumNode() if rng.random() < 0.5 or child.a is None
             else EnumNode(a=child.a, lo=math.floor(child.lo), hi=math.ceil(child.hi)))
            for b, child in enum_proof.children
        )
        truncated = EnumNode(a=enum_proof.a, lo=enum_proof.lo, hi=enum_proof.hi,
                             children=children)
        for proof, verify in ((truncated, verify_enumerative_proof),
                              (enumerative_to_branching(truncated), verify_branching_proof)):
            for failure in verify(K, proof).failures:
                if "witness" not in failure:
                    continue
                label = failure.split(":", 1)[0]
                system, node = K, proof
                if label != "(root)":
                    steps = label.split("/") if proof is truncated else label
                    for step in steps:
                        edge = int(step) if proof is truncated else step == "L"
                        system = system.with_rows(fraction_edge_rows(node, edge))
                        node = dict(node.edges())[edge]
                point = reported_witness(failure)
                assert K.contains(point) and system.contains(point)
                witnesses += 1
    assert witnesses > 20


def test_verify_is_path_local():
    # permuting sibling subtrees cannot change validity
    K, proof = thin_segment(1000)
    swapped = BranchNode(-proof.a, -proof.b - 1, proof.right, proof.left)
    assert verify_branching_proof(K, swapped).valid


def test_certify_and_verify_certified():
    K, proof = thin_segment(10**6)
    certified = certify(K, proof)
    assert verify_certified_proof(K, certified).valid

    def leaves(node):
        if node.is_leaf:
            yield node
        else:
            yield from leaves(node.left)
            yield from leaves(node.right)

    for node in leaves(certified):
        assert len([v for v in node.cert.multipliers if v != 0]) <= K.n + 1


def test_certified_tampering_detected():
    K, proof = thin_segment(100)
    certified = certify(K, proof)

    def tamper(node, how):
        if node.is_leaf:
            if how == "scale":
                return BranchNode(cert=FarkasCertificate(3 * node.cert.multipliers))
            entries = list(node.cert.multipliers)
            entries[next(i for i, v in enumerate(entries) if v != 0)] = 0
            return BranchNode(cert=FarkasCertificate(Vector(entries)))
        return BranchNode(node.a, node.b, tamper(node.left, how), node.right)

    assert verify_certified_proof(K, tamper(certified, "scale")).valid  # cone is scale-free
    assert not verify_certified_proof(K, tamper(certified, "zero")).valid


# sha256 of format_branching(certify(K, proof)): each bundled graph's Tseitin
# refutation as a branching proof, and the recompiled thin segment at M
CERTIFIED_PINS = {
    "cycle5": "aec74fc2d51ce92fff34c261547c66e242de5b5ef620febb78d3ed2621a2b44e",
    "grid3x3": "2c0d020c26b3960626ba0e29f7344a86aa541fc7805786822bbc5b8acbb77608",
    "k4": "3dcca6c580de294cc07cc7891c55da022a49a33e12a4851b7629367d5887a82e",
    "single_edge": "598581082ae2db1f3377c0b3e453794d5c7b03cc8bad82269ede54b2ffb5f0ff",
    "triangle": "08d6a586a6a4bda2af7317bfcc24e1590c81baa8ad4151532b7aa478b07fdd2d",
    10**3: "442018e0f1c9d20ea7ceb61ecafd1b6e65cd73e6ffdbba6f85035a91fb627f69",
    10**6: "d8171abe82d6959c9fbec966ddf82906903edf5b86053aa09a93125a7c063eb0",
    10**9: "1fac1bd269e1337ab9582b903f0795b4abbbcdc4c4dd781abf4ebf34f8359c7b",
}


def test_certified_outputs_pinned():
    digests = {}
    for graph in sorted(INSTANCES.glob("*.graph")):
        inst = TseitinInstance.from_text(graph.read_text())
        proof = enumerative_to_branching(tseitin_sp_refutation(inst))
        certified = certify(tseitin_polytope(inst), proof)
        digests[graph.stem] = hashlib.sha256(format_branching(certified).encode()).hexdigest()
    for M in (10**3, 10**6, 10**9):
        K, proof = thin_segment(M)
        certified = certify(K, recompile(K, proof))
        digests[M] = hashlib.sha256(format_branching(certified).encode()).hexdigest()
    assert digests == CERTIFIED_PINS


# sha256 of the certified Tseitin refutation of the 4x4 grid (411 leaves) as
# certify writes it, with its closing newline
GRID4X4_CERTIFIED_PIN = "2a9d6ea6feafd789f7aac4b64339d3a99cd94e78d09fa8344f2804763011f462"


def test_certified_grid4x4_pinned():
    inst = TseitinInstance.from_text((INSTANCES / "large" / "grid4x4.graph").read_text())
    proof = enumerative_to_branching(tseitin_sp_refutation(inst))
    certified = certify(tseitin_polytope(inst), proof)
    assert sum(node.is_leaf for node, _, _ in walk(certified)) == 411
    text = format_branching(certified) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GRID4X4_CERTIFIED_PIN


def test_verify_certified_is_lp_free_and_scales_k_once(monkeypatch):
    """On grid3x3's certified proof: no LP, no row scaled (K's rows were
    scaled when K was built) and no derived system; each edge row is the
    disjunction's own integers."""
    inst = TseitinInstance.from_text((INSTANCES / "grid3x3.graph").read_text())
    proof = enumerative_to_branching(tseitin_sp_refutation(inst))
    certified = certify(tseitin_polytope(inst), proof)
    K = tseitin_polytope(inst)
    solves, scaled = [], []
    scale_rows = simplex._scale_rows

    def counted_scale(rows):
        rows = list(rows)
        scaled.append(len(rows))
        return scale_rows(rows)

    derived = []
    monkeypatch.setattr(simplex, "_solve_max", lambda *args: solves.append(args))
    monkeypatch.setattr(simplex, "_scale_rows", counted_scale)
    for name in ("with_rows", "_derived"):
        monkeypatch.setattr(InequalitySystem, name,
                            lambda *args, name=name: derived.append(name))
    assert verify_certified_proof(K, certified).valid
    assert solves == [] and derived == [] and scaled == []


def test_leaf_solves_warm_start_from_the_root(monkeypatch):
    """Each relaxation is its parent's plus one edge, so after the root's
    cold solve every relaxation's solve extends an ancestor's tableau;
    certify takes each leaf's certificate as the solver returns it, so it
    solves nothing more."""
    cold, warm = [], []

    class Counted(simplex._DualTableau):
        def __init__(self, *args):
            cold.append(self)
            super().__init__(*args)

        def extended(self, *args):
            warm.append(self)
            return super().extended(*args)

    monkeypatch.setattr(simplex, "_DualTableau", Counted)
    inst = TseitinInstance.from_text((INSTANCES / "k4.graph").read_text())
    proof = enumerative_to_branching(tseitin_sp_refutation(inst))
    for check in (verify_branching_proof, certify):
        del cold[:], warm[:]
        check(tseitin_polytope(inst), proof)
        assert len(cold) == 1 and len(warm) >= sum(node.is_leaf for node, _, _ in walk(proof))


def test_certify_rejects_invalid_proof():
    K, _ = thin_segment(10)
    bad = BranchNode(Vector([1, 0]), 0, leaf(), leaf())
    with pytest.raises(ValueError, match="nonempty"):
        certify(K, bad)


def test_certified_never_disagrees_with_lp_verifier():
    rng = Random(77)
    for _ in range(15):
        K = random_integer_free_polytope(rng, 2)
        proof = random_branching_proof(rng, K)
        assert verify_branching_proof(K, proof).valid
        assert verify_certified_proof(K, certify(K, proof)).valid


def _replaced(node, path, new):
    """The tree with the node at ``path``, its went_left flags, replaced."""
    if not path:
        return new
    left, right = node.left, node.right
    if path[0]:
        left = _replaced(left, path[1:], new)
    else:
        right = _replaced(right, path[1:], new)
    return BranchNode(node.a, node.b, left, right)


def _tampered(rng, proof):
    """The proof with one random node changed: a leaf's certificate gets one
    multiplier doubled, is dropped, or loses or gains an entry; an internal
    node's normal loses or gains a coordinate."""
    nodes = [(node, [went_left for _, went_left in path]) for node, path, leaving
             in walk(proof) if not leaving and (node.a is not None or node.cert is not None)]
    node, path = rng.choice(nodes)
    if node.is_leaf:
        cert = node.cert
        how = rng.choice(["double", "drop", "short", "long"])
        if how == "drop":
            return _replaced(proof, path, BranchNode())
        if how == "double":
            k = rng.randrange(len(cert.nonzeros))
            nonzeros = [(i, 2 * v if j == k else v) for j, (i, v) in enumerate(cert.nonzeros)]
            return _replaced(proof, path, BranchNode(cert=FarkasCertificate._from_nonzeros(
                cert.m, nonzeros)))
        m = cert.m - 1 if how == "short" else cert.m + 1
        nonzeros = [(i, v) for i, v in cert.nonzeros if i < m]
        return _replaced(proof, path, BranchNode(cert=FarkasCertificate._from_nonzeros(
            m, nonzeros)))
    entries = list(node.a)
    shorter = entries[:-1]
    a = Vector(shorter if any(shorter) and rng.random() < 0.5 else entries + [1])
    return _replaced(proof, path, BranchNode(a, node.b, node.left, node.right))


def test_certified_check_matches_relaxation_oracle():
    """``verify_certified_proof`` gives the identical Report, or the identical
    ``DimensionMismatch``, as the check on built relaxations, on seeded
    certified proofs and on copies with one or two random nodes tampered."""
    def outcome(check, K, proof):
        try:
            return check(K, proof)
        except DimensionMismatch as exc:
            return str(exc)

    rng = Random(2424)
    seen = set()
    for trial in range(24):
        K = random_integer_free_polytope(rng, 2 + trial % 2)
        certified = certify(K, random_branching_proof(rng, K))
        variants = [certified] + [_tampered(rng, certified) for _ in range(6)]
        variants += [_tampered(rng, _tampered(rng, certified)) for _ in range(3)]
        for proof in variants:
            expected = outcome(relaxation_certified_report, K, proof)
            assert outcome(verify_certified_proof, K, proof) == expected
            if isinstance(expected, str):
                seen.add(expected)
            else:
                seen.update(f.split(": ", 1)[1].split(":")[0] for f in expected.failures)
                seen.add(expected.valid)
    assert seen >= {True, False, "no certificate", "wrong length", "lam A != 0",
                    "appended row disagrees with the system's dimension"}


def test_integer_edge_rows_build_the_fraction_path_systems():
    """Every system ``_relaxations`` yields equals the one the public
    ``with_rows`` builds from Fraction edge rows, on seeded enumerative
    proofs and their branching encodings over polytopes with rational rows."""
    rng = Random(2929)
    nodes = 0
    for trial in range(10):
        K = rational_rows(rng, random_integer_free_polytope(rng, 2 + trial % 2))
        assert any(sigma > 1 for sigma in K._rows[2])
        enum_proof = random_enumerative_proof(rng, K)
        for proof in (enum_proof, enumerative_to_branching(enum_proof)):
            ours = list(_relaxations(K, proof))
            expected = list(fraction_relaxations(K, proof))
            assert len(ours) == len(expected)
            for (_, _, system, _), (_, _, reference, _) in zip(ours, expected):
                assert system == reference and system._rows == reference._rows
                nodes += 1
    assert nodes > 200


def test_missing_certificate_fails_its_leaf():
    """A leaf without a certificate fails as "<label>: no certificate", on
    the left or on the right."""
    K, proof = thin_segment(10)
    report = verify_certified_proof(K, proof)
    assert not report.valid and report.failures == ("L: no certificate",)
    certified = certify(K, proof)
    half = BranchNode(proof.a, proof.b, certified.left, BranchNode())
    assert verify_certified_proof(K, half).failures == ("R: no certificate",)


def test_single_leaf_over_empty_system():
    empty = InequalitySystem([[1, 0], [-1, 0]], [0, -1])
    assert verify_branching_proof(empty, leaf()).valid
    certified = certify(empty, leaf())
    assert verify_certified_proof(empty, certified).valid
    assert len(certified.cert.multipliers) == empty.m


def test_verify_enumerative_examples():
    # {2x = 1, 0 <= x <= 1}: gap node, no children
    K = InequalitySystem([[2], [-2], [1], [-1]], [1, -1, 1, 0])
    gap = EnumNode(a=Vector([1]), lo=Fraction(1, 2), hi=Fraction(1, 2))
    assert verify_enumerative_proof(K, gap).valid

    wrong_bounds = EnumNode(a=Vector([1]), lo=0, hi=1)
    report = verify_enumerative_proof(K, wrong_bounds)
    assert not report.valid
    assert any("missing child" in f or "integer" in f for f in report.failures)

    tri = TseitinInstance(3, ((0, 1), (1, 2), (0, 2)), (1, 0, 0))
    assert verify_enumerative_proof(tseitin_polytope(tri), tseitin_sp_refutation(tri)).valid


def test_escaped_bound_reports_the_point_attaining_it():
    """A bound that the range escapes is reported with the optimal point of
    the support solve at the escaping end."""
    K = InequalitySystem([[-1, 0], [0, -1], [1, 2]], [0, 0, Fraction(5, 2)])
    for lo, hi, witness in ((0, 2, "(5/2, 0)"), (1, 3, "(0, 0)")):
        report = verify_enumerative_proof(K, EnumNode(a=Vector([1, 1]), lo=lo, hi=hi))
        assert report.failures[0] == (
            f"(root): range [0, 5/2] escapes bounds [{lo}, {hi}]; witness x = {witness}")
    tri = TseitinInstance(3, ((0, 1), (1, 2), (0, 2)), (1, 0, 0))
    P, proof = tseitin_polytope(tri), tseitin_sp_refutation(tri)
    tampered = EnumNode(a=proof.a, lo=proof.lo, hi=proof.hi - 1, children=proof.children)
    (failure,) = [f for f in verify_enumerative_proof(P, tampered).failures if "escapes" in f]
    top = Fraction(failure.split(", ", 1)[1].split("]", 1)[0])
    point = reported_witness(failure)
    assert top > tampered.hi and P.contains(point) and proof.a.dot(point) == top


def test_verify_enumerative_missing_child():
    K = InequalitySystem.box(1, 0, 1)
    node = EnumNode(
        a=Vector([1]), lo=0, hi=1,
        children=((1, EnumNode()),),
    )
    report = verify_enumerative_proof(K, node)
    assert not report.valid
    assert any("missing child for b=0" in f for f in report.failures)


def test_verify_enumerative_missing_runs():
    """One failure per maximal run of missing values; children outside the
    bounds fill none."""
    K = InequalitySystem.box(1, 0, 6)
    empty = EnumNode()
    node = EnumNode(
        a=Vector([1]), lo=0, hi=6,
        children=((-1, empty), (1, empty), (4, empty), (9, empty)),
    )
    report = verify_enumerative_proof(K, node)
    missing = [f for f in report.failures if "missing" in f]
    assert missing == [
        "(root): missing child for b=0",
        "(root): missing children for b=2..3",
        "(root): missing children for b=5..6",
    ]


def test_verify_enumerative_bad_empty_leaf():
    K = InequalitySystem.box(1, 0, 1)
    report = verify_enumerative_proof(K, EnumNode())
    assert not report.valid


def test_unlabeled_gap_leaf_is_unverifiable():
    """An integer-free interval is a childless labeled node; an unlabeled
    leaf has no kind to name, and one of any kind but "empty" is not read."""
    with pytest.raises(TypeError):
        EnumNode(leaf_kind="gap")
    with pytest.raises(ValueError, match=r"childless \(enode"):
        parse_enumerative("(eleaf gap)")


def test_enumerative_to_branching_equivalence():
    rng = Random(11)
    for _ in range(12):
        K = random_integer_free_polytope(rng, 2)
        proof = random_enumerative_proof(rng, K)
        assert verify_enumerative_proof(K, proof).valid
        binary = enumerative_to_branching(proof)
        assert verify_branching_proof(K, binary).valid

    # an invalid enumerative proof converts to an invalid branching proof
    K = InequalitySystem.box(1, 0, 1)
    missing = EnumNode(
        a=Vector([1]), lo=0, hi=1,
        children=((1, EnumNode()),),
    )
    assert not verify_branching_proof(K, enumerative_to_branching(missing)).valid


def test_proof_stats_examples():
    assert proof_stats(leaf()).length == 1
    assert proof_stats(leaf()).max_coeff == 0

    K, proof = thin_segment(10**6)
    stats = proof_stats(proof)
    assert stats.length == 3
    assert stats.max_coeff == 10**6
    assert stats.bit_size >= stats.length


def test_stats_count_certificates():
    K, proof = thin_segment(10)
    plain = proof_stats(proof)
    certified = proof_stats(certify(K, proof))
    assert certified.bit_size > plain.bit_size
    assert certified.length == plain.length


def test_branching_round_trip():
    K, proof = thin_segment(10**6)
    assert parse_branching(format_branching(proof)) == proof
    certified = certify(K, proof)
    assert parse_branching(format_branching(certified)) == certified


ZERO_SPELLINGS = ("0", "-0", "00", "0/7")


@st.composite
def spelled_rational(draw):
    """(token, value): a spelling of 0, or a nonzero fraction, in lowest terms
    or not, with no sign or one of ``-``, ``+`` and the unicode minus."""
    if draw(st.booleans()):
        return draw(st.sampled_from(ZERO_SPELLINGS)), Fraction(0)
    p, q, k = draw(st.integers(1, 10**6)), draw(st.integers(1, 12)), draw(st.integers(1, 3))
    sign = draw(st.sampled_from(["", "+", "-", "−"]))
    value = Fraction(p, q) if sign in ("", "+") else Fraction(-p, q)
    body = f"{k * p}" if q == k == 1 else f"{k * p}/{k * q}"
    return sign + body, value


@st.composite
def spelled_proof(draw, n, depth):
    """(text, canonical text, proof): a branching proof of at most ``depth``
    levels whose leaf certificates are spelled by ``spelled_rational``; the
    canonical text spells every value as ``format_rational`` does."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.integers(0, 4)) == 0:
            return "(leaf)", "(leaf)", BranchNode()
        entries = draw(st.lists(spelled_rational(), max_size=6))
        text = " ".join(["(leaf (cert", *(t for t, _ in entries)]) + "))"
        canonical = " ".join(["(leaf (cert", *(format_rational(v) for _, v in entries)]) + "))"
        cert = FarkasCertificate(Vector([v for _, v in entries]))
        return text, canonical, BranchNode(cert=cert)
    a = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
    b = draw(st.integers(-5, 5))
    left, right = draw(spelled_proof(n, depth - 1)), draw(spelled_proof(n, depth - 1))
    header = "(node (" + " ".join(map(str, a)) + f" {b})"
    return (f"{header} {left[0]} {right[0]})", f"{header} {left[1]} {right[1]})",
            BranchNode(Vector(a), b, left[2], right[2]))


def tokens(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=st.integers(1, 3).flatmap(lambda n: spelled_proof(n, 3)))
def test_certified_text_round_trips_sparse(case):
    """Zero spellings are dropped and nonzero fractions kept by the reader;
    the writer spells every multiplier canonically, "0" between the
    nonzeros; and proof_stats' sparse bit size equals the dense count."""
    text, canonical, expected = case
    parsed = parse_branching(text)
    assert parsed == expected
    written = format_branching(parsed)
    assert tokens(written) == tokens(canonical)
    assert parse_branching(written) == parsed
    assert proof_stats(parsed).bit_size == dense_proof_bits(parsed)


def test_enumerative_round_trip():
    rng = Random(23)
    K = random_integer_free_polytope(rng, 2)
    proof = random_enumerative_proof(rng, K)
    assert parse_enumerative(format_enumerative(proof)) == proof
    assert parse_enumerative("(eleaf empty)") == EnumNode()


def enum_chain(depth: int, hi: int = 0) -> EnumNode:
    node = EnumNode()
    for _ in range(depth):
        node = EnumNode(a=Vector([1, 0]), lo=0, hi=hi, children=((0, node),))
    return node


def branch_chain(depth: int, b: int = 0) -> BranchNode:
    node = BranchNode()
    for _ in range(depth):
        node = BranchNode(a=Vector([1, 0]), b=b, left=node, right=BranchNode())
    return node


def test_deep_trees_compare_hash_and_print():
    depth = 3000
    assert depth > sys.getrecursionlimit()
    for chain in (enum_chain, branch_chain):
        tree, twin, differs = chain(depth), chain(depth), chain(depth, 1)
        assert tree == twin and not tree != twin
        assert tree != differs and not tree == differs
        assert tree != chain(depth - 1) and chain(depth + 1) != tree
        assert hash(tree) == hash(twin)
        assert repr(tree) == repr(twin) and len(repr(tree)) < 200
    assert enum_chain(1) != branch_chain(1)
    assert repr(enum_chain(1)) == (
        "EnumNode(a=Vector((1, 0)), lo=Fraction(0, 1), hi=Fraction(0, 1),"
        " values=(0,), children=1)"
    )
    assert repr(BranchNode()) == "BranchNode(a=None, b=None, cert=None, children=0)"


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_branching("(node (1 2) (leaf))")  # missing right child
    with pytest.raises(ValueError):
        parse_branching("(node (1/2 0) (leaf) (leaf))")  # fractional coefficient
    with pytest.raises(ValueError):
        parse_enumerative("(enode (1))")
    with pytest.raises(ValueError):
        parse_branching("(leaf) extra")
    with pytest.raises(ValueError, match="nonzero"):
        parse_branching("(node (0 0) (leaf) (leaf))")  # zero normal


@pytest.mark.parametrize("parse, text, message", [
    (parse_branching, "", r"^expected \(node or \(leaf at token 0$"),
    (parse_branching, "(node (1 0) (leaf) (leaf) (leaf))", r"^expected '\)' at token 12$"),
    (parse_branching, "(leaf x", r"^expected '\)' at token 2$"),
    (parse_branching, "(node 1 0 (leaf) (leaf))", r"^expected '\(' at token 2$"),
    (parse_branching, "(leaf (cert 1 2", "^unclosed group at token 2$"),
    (parse_branching, "(leaf (cert 1 (2) 3))", "at token 2, found a list$"),
    (parse_branching, "(node (0) (leaf) (leaf))", "^disjunction needs"),
    (parse_branching, "(leaf (1 2))", r"nothing but a \(cert \.\.\.\) group$"),
    (parse_branching, "(leaf) (leaf)", "^trailing tokens"),
    (parse_enumerative, "(enode (1) 0 1 (child 0 (eleaf empty))", r"^expected '\)' at token 15$"),
    (parse_enumerative, "(enode (1) 0 1 (child", "needs a value b$"),
    (parse_enumerative, "(enode (1) 0", "needs bounds lo hi$"),
    (parse_enumerative, "(eleaf)", r"is \(eleaf empty\); an integer-free interval is a childless \(enode"),
    (parse_enumerative, "(enode (1) 0 0 (child 0 (leaf)))",
     r"^expected \(enode or \(eleaf at token 10$"),
    (parse_enumerative, "(eleaf empty) 0", "^trailing tokens"),
])
def test_reader_errors_name_the_fault(parse, text, message):
    """Each malformed text stops the reader at the check it breaks; the
    CLI's exit-code contract sees only exit 2 for all of them."""
    with pytest.raises(ValueError, match=message):
        parse(text)


def test_detect_proof_kind():
    assert detect_proof_kind("(leaf)") == "branching"
    assert detect_proof_kind("(eleaf empty)") == "enumerative"
    with pytest.raises(ValueError):
        detect_proof_kind("(what)")
