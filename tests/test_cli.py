"""Command-line interface: exit codes, file formats, piping, golden stats."""

import hashlib
import io
import re
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from branchproofs.cli import build_parser, main
from branchproofs.families import TseitinInstance, tseitin_polytope, tseitin_sp_refutation
from branchproofs.prooftree import (
    EnumNode,
    enumerative_to_branching,
    format_branching,
    format_enumerative,
    parse_branching,
    proof_stats,
    verify_branching_proof,
    verify_certified_proof,
)
from branchproofs.simplex import InequalitySystem
from branchproofs.vectors import Vector, parse_integer, parse_rational


TRIANGLE = "3 3\n0 1\n1 2\n0 2\n1 0 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_thin_segment_generation_and_verify(tmp_path, capsys):
    system = tmp_path / "thin.ineq"
    proof = tmp_path / "thin.proof"
    code, out = run(capsys, "thin-segment", "1000000",
                    "--system", str(system), "--proof", str(proof))
    assert code == 0 and "RESULT ok" in out
    code, out = run(capsys, "verify", "branching", str(system), str(proof))
    assert code == 0
    assert "RESULT valid" in out


def test_verify_invalid_names_leaf(tmp_path, capsys):
    system = tmp_path / "thin.ineq"
    proof = tmp_path / "thin.proof"
    run(capsys, "thin-segment", "1000000", "--system", str(system),
        "--proof", str(proof))
    bad = tmp_path / "bad.proof"
    bad.write_text("(node (1 0 0)\n  (leaf)\n  (leaf))\n")
    code, out = run(capsys, "verify", "branching", str(system), str(bad))
    assert code == 1
    assert "RESULT invalid" in out
    assert "L" in out  # the failing leaf path


@pytest.mark.parametrize("proof, line", [
    ("(node (1 0) (leaf (cert 0 1 1)) (leaf (cert 1 0)))", "R: wrong length: 2 multipliers for 3 rows"),
    ("(node (1 0) (leaf (cert 0 -1 1)) (leaf (cert 1 0 1)))", "L: negative multiplier l_2"),
    ("(node (1 0) (leaf (cert 0 2 1)) (leaf (cert 1 0 1)))", "L: lam A != 0"),
    ("(node (1 0) (leaf (cert 0 1 1)) (leaf (cert 1 1 0)))", "R: lam b >= 0"),
    ("(leaf (cert 1 1))", "(root): lam b >= 0"),
    ("(node (1 0) (leaf) (leaf (cert 0 2 1)))", "L: no certificate"),
    ("(node (1 0) (leaf (cert 0 1 1)) (leaf))", "R: no certificate"),
])
def test_verify_certified_names_failing_leaf_and_check(tmp_path, capsys, proof, line):
    """An invalid certified proof's report names the first failing leaf by
    its branch label, and the check its certificate failed, before the
    RESULT line."""
    (tmp_path / "k.ineq").write_text(SEGMENT)
    (tmp_path / "p.proof").write_text(proof)
    code, out = run(capsys, "verify", "certified", str(tmp_path / "k.ineq"),
                    str(tmp_path / "p.proof"))
    assert code == 1
    assert out.splitlines() == [line, f"RESULT invalid certified proof: {line}"]


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code, out = run(capsys, "recompile", str(tmp_path / "nope.ineq"),
                    str(tmp_path / "nope.proof"))
    assert code == 2
    assert "RESULT error" in out


def test_recompile_and_certify_flow(tmp_path, capsys):
    system = tmp_path / "thin.ineq"
    proof = tmp_path / "thin.proof"
    run(capsys, "thin-segment", "1000000", "--system", str(system),
        "--proof", str(proof))
    out_proof = tmp_path / "small.proof"
    code, out = run(capsys, "recompile", str(system), str(proof),
                    "--out", str(out_proof))
    assert code == 0 and "RESULT valid" in out
    certified = tmp_path / "cert.proof"
    code, out = run(capsys, "certify", str(system), str(out_proof),
                    "--out", str(certified))
    assert code == 0
    code, out = run(capsys, "verify", "certified", str(system), str(certified))
    assert code == 0


def test_out_defaults_to_the_proof_path(tmp_path, capsys, monkeypatch):
    """recompile, certify and enum-to-cp write beside the proof, with the
    proof's suffix replaced, unless --out names a path, used as given."""
    monkeypatch.chdir(tmp_path)
    system, proof = tmp_path / "thin.ineq", tmp_path / "thin.proof"
    run(capsys, "thin-segment", "1000", "--system", str(system), "--proof", str(proof))
    code, out = run(capsys, "recompile", str(system), str(proof))
    recompiled = tmp_path / "thin.recompiled.proof"
    assert code == 0 and f"wrote {recompiled}\n" in out
    code, out = run(capsys, "certify", str(system), str(recompiled))
    assert code == 0 and f"wrote {tmp_path / 'thin.recompiled.certified.proof'}\n" in out
    code, out = run(capsys, "certify", str(system), str(recompiled), "--out", "plain")
    assert code == 0 and "wrote plain\n" in out and (tmp_path / "plain").is_file()
    graph = tmp_path / "tri.graph"
    graph.write_text(TRIANGLE)
    system, proof = tmp_path / "tri.ineq", tmp_path / "tri.proof"
    run(capsys, "gen-tseitin", str(graph), "--system", str(system), "--proof", str(proof))
    code, out = run(capsys, "enum-to-cp", str(system), str(proof))
    assert code == 0 and f"wrote {tmp_path / 'tri.cuts'}\n" in out
    assert (tmp_path / "tri.cuts").read_text()


def test_tseitin_pipe_to_cp(tmp_path, capsys):
    graph = tmp_path / "tri.graph"
    graph.write_text(TRIANGLE)
    system = tmp_path / "tri.ineq"
    proof = tmp_path / "tri.proof"
    code, out = run(capsys, "gen-tseitin", str(graph),
                    "--system", str(system), "--proof", str(proof))
    assert code == 0
    code, out = run(capsys, "verify", "enumerative", str(system), str(proof))
    assert code == 0
    cuts = tmp_path / "tri.cuts"
    code, out = run(capsys, "enum-to-cp", str(system), str(proof),
                    "--out", str(cuts))
    assert code == 0
    code, out = run(capsys, "verify", "cp", str(system), str(cuts))
    assert code == 0 and "RESULT valid" in out


def test_cp_verify_detects_short_list(tmp_path, capsys):
    graph = tmp_path / "tri.graph"
    graph.write_text(TRIANGLE)
    system = tmp_path / "tri.ineq"
    proof = tmp_path / "tri.proof"
    run(capsys, "gen-tseitin", str(graph), "--system", str(system),
        "--proof", str(proof))
    cuts = tmp_path / "weak.cuts"
    cuts.write_text("")  # zero cuts leave the fractional point intact
    code, out = run(capsys, "verify", "cp", str(system), str(cuts))
    last = out.splitlines()[-1]
    prefix = "RESULT invalid cut list leaves the system nonempty; witness x = ("
    assert code == 1 and last.startswith(prefix) and last.endswith(")")
    point = Vector([parse_rational(e) for e in last[len(prefix):-1].split(", ")])
    assert InequalitySystem.from_text(system.read_text()).contains(point)


# sha256 of the gen-tseitin .ineq / .proof and the enum-to-cp .cuts, and the
# RESULT lines of gen-tseitin, enum-to-cp and verify cp, for each bundled graph
PINNED = {
    "cycle5": (
        "d75355076340637d174afdbd668b9d1c1700d9420f617e7135060eb1e9e478c5",
        "17733605015c8836cfdf4ae95c66f269683a5c15e8a77b79c7ea8dd5e9c570b6",
        "364612ab6465008d61a6e58b47903b808ad45a3b7e9bef48f15bee6b59b6982e",
        ("RESULT ok tseitin n=5 m=20 nodes=2",
         "RESULT valid cp-length=3 bound=3 nodes=2",
         "RESULT valid cp proof of 3 cuts empties the system"),
    ),
    "grid3x3": (
        "1285a71cd11899ac7f1c530d0163ce1d9a6b39ede487801ab6a333f64eec4cfb",
        "4478ffbb25d34f6dc596b4a1db8f91d77b2ba8dc67376b89e9fc62104251f110",
        "3388495d8289c40bd52d172f1ce14ab9d4afd371586d6c6be73af9d697d94a7f",
        ("RESULT ok tseitin n=12 m=56 nodes=47",
         "RESULT valid cp-length=61 bound=93 nodes=47",
         "RESULT valid cp proof of 61 cuts empties the system"),
    ),
    "k4": (
        "a7d89a8870e2f06de2ea78e1ffb9e0bd30e5d68ed054dfedb48e18b5bc749a64",
        "9db7ab187cfaf7c08c03f3cdf4610d1ef6da874b30c299c272ae98e885aab5ba",
        "d6d29f9e9b61d107354ddf9fe8dc682f0640a3a336e6504f91cbacd86fdb2fe7",
        ("RESULT ok tseitin n=6 m=28 nodes=16",
         "RESULT valid cp-length=25 bound=31 nodes=16",
         "RESULT valid cp proof of 25 cuts empties the system"),
    ),
    "single_edge": (
        "2b2e76efdbd7540f85d50b9b1f0a9582d34c4918cf215743db1298150480aafe",
        "d71d408c20cc797017b9d74f01fd70a83b8a914d1975a0d521379d5ef06b9979",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("RESULT ok tseitin n=1 m=4 nodes=1",
         "RESULT valid cp-length=0 bound=1 nodes=1",
         "RESULT valid cp proof of 0 cuts empties the system"),
    ),
    "triangle": (
        "e244607e84f54200e0f0234507f4ae2cf1032bc1a49bc49c7b7b90083d00ad30",
        "b1c51a6b2275b494c91a08e6f0c4a60c47289173274151494b65a59bd9004db3",
        "9548e6bca9e62208c3567749671f896bf7a66b7f6d6d2c78fd30660aa4010e8b",
        ("RESULT ok tseitin n=3 m=12 nodes=2",
         "RESULT valid cp-length=3 bound=3 nodes=2",
         "RESULT valid cp proof of 3 cuts empties the system"),
    ),
}


def result_line(out):
    return [line for line in out.splitlines() if line.startswith("RESULT")][-1]


def test_pipe_on_all_bundled_instances(tmp_path, capsys):
    """gen-tseitin -> enum-to-cp -> verify cp exits 0 for every shipped graph,
    and writes byte-for-byte the pinned files and RESULT lines."""
    bundled = sorted(Path(__file__).resolve().parent.parent.glob("instances/*.graph"))
    assert bundled, "no bundled instance files found"
    assert {g.stem for g in bundled} >= {"triangle", "single_edge", "k4", "grid3x3"}
    for graph in bundled:
        system = tmp_path / f"{graph.stem}.ineq"
        proof = tmp_path / f"{graph.stem}.proof"
        cuts = tmp_path / f"{graph.stem}.cuts"
        code, gen_out = run(capsys, "gen-tseitin", str(graph), "--system", str(system),
                            "--proof", str(proof))
        assert code == 0
        code, cp_out = run(capsys, "enum-to-cp", str(system), str(proof),
                           "--out", str(cuts))
        assert code == 0
        code, out = run(capsys, "verify", "cp", str(system), str(cuts))
        assert code == 0, f"{graph.stem}: {out}"
        *digests, results = PINNED[graph.stem]
        written = [hashlib.sha256(f.read_bytes()).hexdigest() for f in (system, proof, cuts)]
        assert written == digests, graph.stem
        assert tuple(result_line(o) for o in (gen_out, cp_out, out)) == results


def test_gen_pn_and_qn(tmp_path, capsys):
    code, out = run(capsys, "gen-pn", "3", "--out", str(tmp_path / "p3.ineq"))
    assert code == 0
    code, out = run(capsys, "gen-qn", "3", "--out", str(tmp_path / "q3.ineq"),
                    "--split-check")
    assert code == 0 and "RESULT valid" in out


def test_stats_matches_library(tmp_path, capsys):
    system = tmp_path / "thin.ineq"
    proof_path = tmp_path / "thin.proof"
    run(capsys, "thin-segment", "12345", "--system", str(system),
        "--proof", str(proof_path))
    code, out = run(capsys, "stats", str(proof_path))
    assert code == 0
    stats = proof_stats(parse_branching(proof_path.read_text()))
    match = re.search(r"length=(\d+) bit_size=(\d+) max_coeff=(\d+)", out)
    assert match is not None
    assert tuple(map(int, match.groups())) == (
        stats.length, stats.bit_size, stats.max_coeff
    )


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def parsed(parser, argv):
    """What ``parser`` makes of argv: the namespace, or the exit code and
    the usage text."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue()


ARGVS = [
    ["gen-tseitin", "g.graph"], ["gen-tseitin", "g.graph", "--system", "s", "--proof", "p"],
    ["gen-pn", "3"], ["gen-pn", "x"], ["gen-qn", "3", "--split-check"],
    ["thin-segment", "10", "--system", "t"], ["recompile", "s", "p", "--out", "r"],
    ["enum-to-cp", "s", "p", "--out", "c"], ["verify", "cp", "s", "c"],
    ["verify", "bogus", "s", "p"], ["verify", "cp", "s", "c", "extra"], ["certify", "s"],
    ["stats", "p"], ["stats", "--bad", "p"], ["verify", "-h"],
]


@pytest.mark.parametrize("argv", ARGVS)
def test_one_subcommand_parser_parses_alike(argv):
    """main parses every call with the one parser it builds per process;
    after parsing every other command line it still gives the same
    namespace, or the same exit code and usage text, as a new parser."""
    for other in ARGVS:
        parsed(build_parser(), other)
    assert parsed(build_parser(), argv) == parsed(build_parser.__wrapped__(), argv)


# ---------------------------------------------------------------------------
# exit-code contract: whatever the input, main returns 0, 1 or 2 and prints
# exactly one RESULT line, last
# ---------------------------------------------------------------------------

# The deep cases run with the recursion limit lowered to this value, so that
# proofs twice as deep as the limit stay cheap to solve (LP work grows with
# depth squared); the code under test recurses nowhere, at any limit.
LOW_RECURSION_LIMIT = 150

SEGMENT = "1 2\n1 3/4\n-1 -1/4\n"  # 1/4 <= x <= 3/4, no integer point
POINT = "2 4\n1 0 0\n-1 0 0\n0 1 1/2\n0 -1 -1/2\n"  # x1 = 0, x2 = 1/2
QUADRANT = "2 2\n-1 0 0\n0 -1 0\n"  # x1, x2 >= 0: unbounded along (1 0)
RAY = "2 3\n-1 0 0\n0 1 1/2\n0 -1 -1/2\n"  # x1 >= 0, x2 = 1/2
EMPTY = "1 2\n1 0\n-1 -1\n"  # x <= 0 and x >= 1
STRIP = "2 2\n1 0 3/4\n-1 0 -1/4\n"  # 1/4 <= x1 <= 3/4, x2 free
# a split x1 <= 0 | x1 >= 1 whose certificates are valid for STRIP if the
# normal's missing or extra coordinates are ignored
SHORT_NORMAL = "(node (1 0) (leaf (cert 0 1 1)) (leaf (cert 1 0 1)))"
LONG_NORMAL = "(node (1 0 0 0) (leaf (cert 0 1 1)) (leaf (cert 1 0 1)))"


@pytest.mark.parametrize("proof", [SHORT_NORMAL, LONG_NORMAL])
def test_certify_reports_a_wrong_length_normal_as_an_input_error(tmp_path, capsys, proof):
    """certify gives a normal of the wrong length the RESULT line and exit
    code that verify branching gives it, not an invalid-proof verdict."""
    (tmp_path / "k.ineq").write_text(STRIP)
    (tmp_path / "p.proof").write_text(proof)
    paths = [str(tmp_path / "k.ineq"), str(tmp_path / "p.proof")]
    code, out = run(capsys, "certify", *paths, "--out", str(tmp_path / "c.proof"))
    expected = run(capsys, "verify", "branching", *paths)
    assert (code, out) == expected
    assert code == 2 and out.startswith("RESULT error: ")


@contextmanager
def recursion_limit(limit):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


# tokens the reader refuses, on a row read in integers (no "/") and on one
# read in Fractions; "" leaves its row one number short
BAD_TOKENS = ["1/0", "1e3", "1_0", "1/2/3", "١", "1/٢", "３", ""]
# tokens it reads, each as parse_rational reads it
GOOD_TOKENS = ["−3", "−3/4", "+3", "-0", "0/5", "0", "-7", "4/6"]


def test_text_reader_tokens():
    """Every bad token raises ValueError on either row path, and every good
    one reads as ``parse_rational`` reads it, to the public constructor's
    rows."""
    for token in BAD_TOKENS:
        for lead in ("1", "1/2"):
            with pytest.raises(ValueError):
                InequalitySystem.from_text(f"2 1\n{lead} {token} 0\n")
        with pytest.raises(ValueError):
            parse_rational(token)
    for token in GOOD_TOKENS:
        for lead in ("1", "1/2"):
            read = InequalitySystem.from_text(f"2 1\n{lead} {token} 0\n")
            built = InequalitySystem([[parse_rational(lead), parse_rational(token)]], [0])
            assert read._rows == built._rows
        if "/" not in token:
            assert parse_integer(token) == parse_rational(token)


def deep_chain(depth, certified=False):
    """A valid proof for SEGMENT: ``depth`` nodes x <= 0 | x >= 1 nested
    down the right edges, every left child and the last right child a leaf.

    Certified, the left leaf at depth k adds -x <= -1/4 to its edge x <= 0,
    and the bottom right leaf adds x <= 3/4 to its last edge -x <= -1.
    """
    def leaf(lam):
        return "(leaf (cert " + " ".join(map(str, lam)) + "))" if certified else "(leaf)"

    parts = []
    for k in range(1, depth + 1):
        parts.append(f"(node (1 0) {leaf([0, 1] + [0] * (k - 1) + [1])} ")
    parts.append(leaf([1, 0] + [0] * (depth - 1) + [1]))
    return "".join(parts) + ")" * depth


def test_verify_certified_memory_is_linear_in_depth():
    """A depth-2000 certified chain checks in under 2 MB of traced memory:
    the leaf rows are K's plus one stack of path rows, where a derived
    system per node held O(depth^2) row references (82 MB)."""
    K = InequalitySystem.from_text(SEGMENT)
    proof = parse_branching(deep_chain(2000, certified=True))
    tracemalloc.start()
    try:
        report = verify_certified_proof(K, proof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid and peak < 2 * 2**20


def test_verify_branching_memory_holds_one_row_form():
    """A depth-1000 chain verifies in under 16 MB of traced memory: each
    relaxation K_v holds its rows once, scaled to integers, where a second
    Vector/Fraction copy of every row took 21 MB."""
    K = InequalitySystem.from_text(SEGMENT)
    proof = parse_branching(deep_chain(1000))
    tracemalloc.start()
    try:
        report = verify_branching_proof(K, proof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid and peak < 16 * 2**20


def wide_enode(width):
    """A valid enumerative proof for {0 <= x1 <= width - 1, x2 = 1/2}: one
    node on x1 with ``width`` children, each a childless node on x2."""
    gap = EnumNode(a=Vector([0, 1]), lo=Fraction(1, 2), hi=Fraction(1, 2))
    return EnumNode(a=Vector([1, 0]), lo=0, hi=width - 1,
                    children=tuple((b, gap) for b in range(width)))


def deep_enum_chain(depth):
    """A valid enumerative proof for POINT: ``depth`` nodes on x1 with the one
    value 0 nested through their child, the last child a childless node on x2
    claiming no integer in [1/2, 1/2].  No face along the chain is smaller
    than POINT, so serializing it descends all ``depth`` levels."""
    node = EnumNode(a=Vector([0, 1]), lo=Fraction(1, 2), hi=Fraction(1, 2))
    for _ in range(depth):
        node = EnumNode(a=Vector([1, 0]), lo=0, hi=0, children=((0, node),))
    return node


def contract_cases(depth):
    """(name, files, argv, exit code) rows; file names in argv are relative."""
    chain = deep_chain(depth)
    wide = wide_enode(depth)
    nested = "(" * (10 * depth) + ")" * (10 * depth)
    converted = enumerative_to_branching(wide)
    return [
        ("zero denominator in system", {"k.ineq": "1 2\n1 1/0\n-1 0\n", "p.proof": "(leaf)"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("zero denominator in certificate",
         {"k.ineq": SEGMENT, "p.proof": "(node (1 0) (leaf (cert 1/0 1 1)) (leaf (cert 1 0 1)))"},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("one-token graph header", {"g.graph": "3\n"}, ["gen-tseitin", "g.graph"], 2),
        ("three-token graph header", {"g.graph": "3 3 junk\n" + TRIANGLE.split("\n", 1)[1]},
         ["gen-tseitin", "g.graph"], 2),
        ("three-token edge line", {"g.graph": "3 3\n0 1 2\n1 2\n0 2\n1 0 0\n"},
         ["gen-tseitin", "g.graph"], 2),
        ("deep verify branching", {"k.ineq": SEGMENT, "p.proof": chain},
         ["verify", "branching", "k.ineq", "p.proof"], 0),
        ("deep certify", {"k.ineq": SEGMENT, "p.proof": chain},
         ["certify", "k.ineq", "p.proof", "--out", "c.proof"], 0),
        ("deep verify certified", {"k.ineq": SEGMENT, "p.proof": deep_chain(depth, True)},
         ["verify", "certified", "k.ineq", "p.proof"], 0),
        ("deeper stats", {"p.proof": deep_chain(10 * depth)}, ["stats", "p.proof"], 0),
        ("wide enode stats", {"e.proof": format_enumerative(wide)}, ["stats", "e.proof"], 0),
        ("wide enode as branching stats", {"b.proof": format_branching(converted)},
         ["stats", "b.proof"], 0),
        ("deep enum-to-cp", {"k.ineq": POINT, "e.proof": format_enumerative(deep_enum_chain(depth))},
         ["enum-to-cp", "k.ineq", "e.proof", "--out", "e.cuts"], 0),
        ("too-short normal, verify branching", {"k.ineq": STRIP, "p.proof": SHORT_NORMAL},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("too-short normal, verify certified", {"k.ineq": STRIP, "p.proof": SHORT_NORMAL},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("too-long normal, verify branching", {"k.ineq": STRIP, "p.proof": LONG_NORMAL},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("too-long normal, verify certified", {"k.ineq": STRIP, "p.proof": LONG_NORMAL},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("too-short normal, certify", {"k.ineq": STRIP, "p.proof": SHORT_NORMAL},
         ["certify", "k.ineq", "p.proof", "--out", "c.proof"], 2),
        ("too-long normal, certify", {"k.ineq": STRIP, "p.proof": LONG_NORMAL},
         ["certify", "k.ineq", "p.proof", "--out", "c.proof"], 2),
        ("zero disjunction normal",
         {"k.ineq": SEGMENT, "p.proof": "(node (0 0) (node (1 0) (leaf) (leaf)) (leaf))"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("list for a number in a node", {"k.ineq": SEGMENT, "p.proof": "(node ((1) 0) (leaf) (leaf))"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("list for a number in a certificate", {"k.ineq": SEGMENT, "p.proof": "(leaf (cert (1)))"},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("deeper list for a branching tag", {"k.ineq": SEGMENT, "p.proof": nested},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("deeper list for an enumerative tag",
         {"e.proof": f"(enode (1) 0 0 (child 0 {nested}))"}, ["stats", "e.proof"], 2),
        ("3 million variables, no rows", {"k.ineq": "3000000 0\n", "p.proof": "(leaf)"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("negative row count", {"k.ineq": "2 -1\n", "p.proof": "(leaf)"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("10^12 missing children",
         {"k.ineq": SEGMENT, "e.proof": "(enode (1) 0 1000000000000 (child 0 (eleaf empty)))"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 1),
        ("unbounded enumerative node",
         {"k.ineq": QUADRANT, "e.proof": "(enode (1 0) 0 3 (child 0 (eleaf empty)))"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 1),
        ("unbounded enum-to-cp",
         {"k.ineq": QUADRANT, "e.proof": "(enode (1 0) 0 3 (child 0 (eleaf empty)))"},
         ["enum-to-cp", "k.ineq", "e.proof", "--out", "e.cuts"], 2),
        ("unbounded cut", {"k.ineq": QUADRANT, "c.cuts": "1 0\n"},
         ["verify", "cp", "k.ineq", "c.cuts"], 2),
        ("unbounded recompile", {"k.ineq": RAY, "p.proof": "(node (0 1 0) (leaf) (leaf))"},
         ["recompile", "k.ineq", "p.proof", "--out", "r.proof"], 2),
        ("empty enum-to-cp", {"k.ineq": EMPTY, "e.proof": "(eleaf empty)"},
         ["enum-to-cp", "k.ineq", "e.proof", "--out", "e.cuts"], 0),
        # an integer-free interval is a childless (enode ...), even on an empty K
        ("gap leaf verify", {"k.ineq": EMPTY, "e.proof": "(eleaf gap)"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 2),
        ("gap leaf enum-to-cp", {"k.ineq": EMPTY, "e.proof": "(eleaf gap)"},
         ["enum-to-cp", "k.ineq", "e.proof", "--out", "e.cuts"], 2),
        ("empty recompile", {"k.ineq": EMPTY, "p.proof": "(node (1 0) (leaf) (leaf))"},
         ["recompile", "k.ineq", "p.proof", "--out", "r.proof"], 0),
        ("list inside a certificate", {"k.ineq": SEGMENT, "p.proof": "(leaf (cert 1 (2) 3))"},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("unclosed certificate", {"k.ineq": SEGMENT, "p.proof": "(leaf (cert 1 2"},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("nested certificate groups",
         {"k.ineq": SEGMENT, "p.proof": "(leaf " + "(cert 1 " * (10 * depth) + ")" * (10 * depth + 1)},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("two certificates on a leaf", {"k.ineq": SEGMENT, "p.proof": "(leaf (cert 1) (cert 2))"},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("empty certificate", {"k.ineq": SEGMENT, "p.proof": "(leaf (cert))"},
         ["verify", "certified", "k.ineq", "p.proof"], 1),
        ("bad certificate, then a leaf without one",
         {"k.ineq": SEGMENT, "p.proof": "(node (1 0) (leaf (cert 0 2 1)) (leaf))"},
         ["verify", "certified", "k.ineq", "p.proof"], 1),
        ("leaf without a certificate, then a bad one",
         {"k.ineq": SEGMENT, "p.proof": "(node (1 0) (leaf) (leaf (cert 0 2 1)))"},
         ["verify", "certified", "k.ineq", "p.proof"], 1),
        ("wrong-length certificate",
         {"k.ineq": SEGMENT, "p.proof": "(node (1 0) (leaf (cert 0 1 1)) (leaf (cert 1 0)))"},
         ["verify", "certified", "k.ineq", "p.proof"], 1),
        ("digit separator in a system", {"k.ineq": "1 2\n1 3/4\n-1 -1_0/40\n", "p.proof": "(leaf)"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("non-ASCII digits in a system header", {"k.ineq": "١ 2\n1 3/4\n-1 -1/4\n",
                                                 "p.proof": "(leaf)"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        # each token the .ineq reader refuses, on a row read in integers and
        # on one read in Fractions
        *((f"bad token {token!r} in a{kind} system row",
           {"k.ineq": f"1 2\n{lead} {token}\n-1 -1/4\n", "p.proof": "(leaf)"},
           ["verify", "branching", "k.ineq", "p.proof"], 2)
          for token in BAD_TOKENS
          for kind, lead in (("n integer", "1"), (" rational", "1/2"))),
        ("digit separator in a normal", {"k.ineq": SEGMENT, "p.proof": "(node (1_0 0) (leaf) (leaf))"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("non-ASCII digits in a certificate",
         {"k.ineq": SEGMENT, "p.proof": "(node (1 0) (leaf (cert 0 ١ 1)) (leaf (cert 1 0 1)))"},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("digit separator in a cut", {"k.ineq": SEGMENT, "c.cuts": "1_0\n"},
         ["verify", "cp", "k.ineq", "c.cuts"], 2),
        ("non-ASCII digits in a cut", {"k.ineq": SEGMENT, "c.cuts": "−٢\n"},
         ["verify", "cp", "k.ineq", "c.cuts"], 2),
        ("digit separator in a graph", {"g.graph": "2 1\n0 0_1\n1 0\n"}, ["gen-tseitin", "g.graph"], 2),
        ("non-ASCII digits in a graph", {"g.graph": "2 1\n0 ١\n1 0\n"}, ["gen-tseitin", "g.graph"], 2),
        # one row per error path of the proof readers
        ("empty proof file", {"k.ineq": SEGMENT, "p.proof": ""},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("enumerative tag in a branching proof", {"k.ineq": SEGMENT, "p.proof": "(eleaf empty)"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("node with a third subtree",
         {"k.ineq": SEGMENT, "p.proof": "(node (1 0) (leaf) (leaf) (leaf))"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("unclosed leaf", {"k.ineq": SEGMENT, "p.proof": "(node (1 0) (leaf) (leaf"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("node without a coefficient group", {"k.ineq": SEGMENT, "p.proof": "(node 1 0 (leaf) (leaf))"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("disjunction without a normal", {"k.ineq": SEGMENT, "p.proof": "(node (0) (leaf) (leaf))"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("leaf holding a non-certificate group", {"k.ineq": SEGMENT, "p.proof": "(leaf (1 2))"},
         ["verify", "certified", "k.ineq", "p.proof"], 2),
        ("trailing branching proof", {"k.ineq": SEGMENT, "p.proof": "(leaf) (leaf)"},
         ["verify", "branching", "k.ineq", "p.proof"], 2),
        ("unclosed enumerative node",
         {"k.ineq": SEGMENT, "e.proof": "(enode (1) 0 1 (child 0 (eleaf empty))"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 2),
        ("two subtrees in a child group",
         {"k.ineq": SEGMENT, "e.proof": "(enode (1) 0 0 (child 0 (eleaf empty) (eleaf empty)))"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 2),
        ("child group at end of file", {"k.ineq": SEGMENT, "e.proof": "(enode (1) 0 1 (child"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 2),
        ("enumerative node without bounds", {"k.ineq": SEGMENT, "e.proof": "(enode (1) 0"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 2),
        ("enumerative leaf without a kind", {"k.ineq": SEGMENT, "e.proof": "(eleaf)"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 2),
        ("branching tag in an enumerative proof",
         {"k.ineq": SEGMENT, "e.proof": "(enode (1) 0 0 (child 0 (leaf)))"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 2),
        ("trailing enumerative proof", {"k.ineq": SEGMENT, "e.proof": "(eleaf empty) 0"},
         ["verify", "enumerative", "k.ineq", "e.proof"], 2),
        ("unknown proof kind", {"p.proof": "(what)"}, ["stats", "p.proof"], 2),
    ]


def test_exit_code_contract(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    problems = []
    with recursion_limit(LOW_RECURSION_LIMIT):
        depth = 2 * sys.getrecursionlimit()
        assert enumerative_to_branching(wide_enode(depth)).node_count() == 6 * depth + 1
        for name, files, argv, expected in contract_cases(depth):
            for path, text in files.items():
                Path(path).write_text(text)
            try:
                code = main(argv)
            except Exception as exc:
                problems.append(f"{name}: {type(exc).__name__} escaped main")
                continue
            lines = capsys.readouterr().out.splitlines()
            results = [line for line in lines if line.startswith("RESULT")]
            if code != expected:  # every expected code is 0, 1 or 2
                problems.append(f"{name}: exit {code}, expected {expected}")
            if len(results) != 1 or lines[-1] != results[0]:
                problems.append(f"{name}: RESULT lines {results}")
            if len(lines) > 5:  # each row's report fits in a few lines
                problems.append(f"{name}: {len(lines)} output lines")
    assert not problems, problems


# The same contract on generated and mutated text in the four input formats.
# Each format is a base input, the files it is used with and the commands
# run on it; the base is valid, so edits reach past the parsers.

TRIANGLE_INSTANCE = TseitinInstance.from_text(TRIANGLE)
FORMATS = {
    "ineq": ("k.ineq", SEGMENT, {"p.proof": deep_chain(2)},
             [["verify", "branching", "k.ineq", "p.proof"]]),
    "branching": ("p.proof", deep_chain(3), {"k.ineq": SEGMENT},
                  [["verify", "branching", "k.ineq", "p.proof"], ["stats", "p.proof"]]),
    "certified": ("p.proof", deep_chain(3, certified=True), {"k.ineq": SEGMENT},
                  [["verify", "certified", "k.ineq", "p.proof"]]),
    "enumerative": ("e.proof", format_enumerative(tseitin_sp_refutation(TRIANGLE_INSTANCE)),
                    {"k.ineq": tseitin_polytope(TRIANGLE_INSTANCE).to_text()},
                    [["verify", "enumerative", "k.ineq", "e.proof"],
                     ["enum-to-cp", "k.ineq", "e.proof", "--out", "e.cuts"],
                     ["stats", "e.proof"]]),
}
PIECES = ["(", ")", " ", "\n", "node", "leaf", "cert", "enode", "eleaf", "child",
          "empty", "gap", "0", "1", "-1", "2", "-3/4", "1/2", "1/0", "x", "(1)"]


@st.composite
def edited(draw, text):
    """``text`` after a few deletions, insertions and repeated spans."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        kind = draw(st.sampled_from(["delete", "insert", "repeat"]))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            text = text[:i] + draw(st.sampled_from(PIECES)) + text[i:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


@st.composite
def contract_input(draw):
    kind = draw(st.sampled_from(sorted(FORMATS)))
    name, base, others, commands = FORMATS[kind]
    generated = st.lists(st.sampled_from(PIECES), max_size=40).map(" ".join)
    text = draw(st.one_of(edited(base), generated))
    return {name: text, **others}, commands


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=contract_input())
def test_exit_code_contract_on_mutated_input(tmp_path_factory, case):
    files, commands = case
    where = tmp_path_factory.mktemp("contract")
    for name, text in files.items():
        (where / name).write_text(text)
    for argv in commands:
        out = io.StringIO()
        with redirect_stdout(out):  # the arguments with a dot are file names
            code = main([str(where / arg) if "." in arg else arg for arg in argv])
        lines = out.getvalue().splitlines()
        results = [line for line in lines if line.startswith("RESULT")]
        assert code in (0, 1, 2), (argv, files)
        assert len(results) == 1 and lines[-1] == results[0], (argv, files, lines)
