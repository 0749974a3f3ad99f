"""Command-line front end.

Subcommands tie the generators, the recompiler, the enumerative-to-CP
converter and the verifiers together over the text formats (.ineq systems,
.proof trees, .cuts lists, .graph instances).  Every run ends with one
machine-parsable summary line

    RESULT valid|invalid|error|ok <details>

and exits 0 on success/valid, 1 on an invalid proof, 2 on input or
precondition errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .enumcp import enum_to_cp
from .families import (
    TseitinInstance,
    pn_polytope,
    qn_polytope,
    qn_split_refutation,
    thin_segment,
    tseitin_polytope,
    tseitin_sp_refutation,
)
from .geometry import apply_cg_list, cuts_from_text, cuts_to_text
from .prooftree import (
    certify,
    detect_proof_kind,
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
from .recompile import recompile
from .simplex import InequalitySystem, is_empty
from .vectors import bit_size


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)
    print(f"wrote {path}")


def _print_stats(proof) -> None:
    stats = proof_stats(proof)
    print(f"length={stats.length} bit_size={stats.bit_size} max_coeff={stats.max_coeff}")


def _cmd_gen_tseitin(args) -> int:
    inst = TseitinInstance.from_text(_read(args.graph))
    system = tseitin_polytope(inst)
    proof = tseitin_sp_refutation(inst)
    _write(args.system, system.to_text())
    _write(args.proof, format_enumerative(proof) + "\n")
    _print_stats(proof)
    print(f"RESULT ok tseitin n={system.n} m={system.m} nodes={proof.node_count()}")
    return 0


def _cmd_gen_pn(args) -> int:
    system = pn_polytope(args.n)
    _write(args.out, system.to_text())
    print(f"RESULT ok pn n={system.n} m={system.m}")
    return 0


def _cmd_gen_qn(args) -> int:
    system = qn_polytope(args.n)
    _write(args.out, system.to_text())
    if args.split_check:
        report = qn_split_refutation(args.n)
        for failure in report.side_failures:
            print(failure)
        if not report.valid:
            print("RESULT invalid split-cut refutation failed")
            return 1
        print(f"RESULT valid split-cut refutation n={args.n}")
        return 0
    print(f"RESULT ok qn n={system.n} m={system.m}")
    return 0


def _cmd_thin_segment(args) -> int:
    system, proof = thin_segment(args.M)
    _write(args.system, system.to_text())
    _write(args.proof, format_branching(proof) + "\n")
    _print_stats(proof)
    print(f"RESULT ok thin-segment M={args.M}")
    return 0


def _cmd_recompile(args) -> int:
    system = InequalitySystem.from_text(_read(args.system))
    proof = parse_branching(_read(args.proof))
    rebuilt = recompile(system, proof, R=args.radius)
    _write(_out(args, ".recompiled.proof"), format_branching(rebuilt) + "\n")
    _print_stats(rebuilt)
    report = verify_branching_proof(system, rebuilt)
    if not report.valid:
        print(f"RESULT invalid recompiled proof failed: {report.failures[0]}")
        return 1
    print(f"RESULT valid recompiled nodes={rebuilt.node_count()}")
    return 0


def _cmd_enum_to_cp(args) -> int:
    system = InequalitySystem.from_text(_read(args.system))
    proof = parse_enumerative(_read(args.proof))
    cuts = enum_to_cp(system, proof)
    _write(_out(args, ".cuts"), cuts_to_text(cuts))
    nodes = proof.node_count()
    print(f"RESULT valid cp-length={len(cuts)} bound={2 * nodes - 1} nodes={nodes}")
    return 0


def _cmd_verify(args) -> int:
    system = InequalitySystem.from_text(_read(args.system))
    text = _read(args.proof)
    if args.kind == "branching":
        report = verify_branching_proof(system, parse_branching(text))
    elif args.kind == "certified":
        ok = verify_certified_proof(system, parse_branching(text))
        if ok:
            print("RESULT valid certified proof")
            return 0
        print("RESULT invalid certificate check failed")
        return 1
    elif args.kind == "enumerative":
        report = verify_enumerative_proof(system, parse_enumerative(text))
    elif args.kind == "cp":
        cuts = cuts_from_text(text, n=system.n)
        final = apply_cg_list(system, cuts)
        if is_empty(final) is not None:
            print(f"RESULT valid cp proof of {len(cuts)} cuts empties the system")
            return 0
        print("RESULT invalid cut list leaves the system nonempty")
        return 1
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.kind)
    if report.valid:
        print(f"RESULT valid {args.kind} proof")
        return 0
    for failure in report.failures:
        print(failure)
    print(f"RESULT invalid {args.kind} proof: {report.failures[0]}")
    return 1


def _cmd_certify(args) -> int:
    system = InequalitySystem.from_text(_read(args.system))
    proof = parse_branching(_read(args.proof))
    try:
        certified = certify(system, proof)
    except ValueError as exc:
        print(f"RESULT invalid {exc}")
        return 1
    _write(_out(args, ".certified.proof"), format_branching(certified) + "\n")
    _print_stats(certified)
    sizes = [bit_size(node.cert) for node, _, _ in walk(certified) if node.is_leaf]
    print(f"certificates: {len(sizes)}, bit sizes {sizes} (total {sum(sizes)})")
    print("RESULT valid certified proof written")
    return 0


def _cmd_stats(args) -> int:
    text = _read(args.proof)
    kind = detect_proof_kind(text)
    proof = parse_branching(text) if kind == "branching" else parse_enumerative(text)
    _print_stats(proof)
    print(f"RESULT ok {kind} proof")
    return 0


def _out(args, suffix: str) -> str:
    """The ``--out`` path if given, else the proof's path with the suffix."""
    return args.out if args.out is not None else str(Path(args.proof).with_suffix(suffix))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchproofs",
        description="exact branching-proof toolkit: generate, recompile, "
        "serialize to cutting planes, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tseitin", help="Tseitin system + enumerative refutation")
    p.add_argument("graph", help=".graph file: 'V E', E edge lines, parity line")
    p.add_argument("--system", default="tseitin.ineq")
    p.add_argument("--proof", default="tseitin.proof")
    p.set_defaults(func=_cmd_gen_tseitin)

    p = sub.add_parser("gen-pn", help="the 2^n-clause SAT polytope P_n")
    p.add_argument("n", type=int)
    p.add_argument("--out", default="pn.ineq")
    p.set_defaults(func=_cmd_gen_pn)

    p = sub.add_parser("gen-qn", help="the compact extension Q_n of P_n")
    p.add_argument("n", type=int)
    p.add_argument("--out", default="qn.ineq")
    p.add_argument("--split-check", action="store_true",
                   help="also verify the n-split-cut refutation")
    p.set_defaults(func=_cmd_gen_qn)

    p = sub.add_parser("thin-segment", help="the slanted segment fixture")
    p.add_argument("M", type=int)
    p.add_argument("--system", default="thin.ineq")
    p.add_argument("--proof", default="thin.proof")
    p.set_defaults(func=_cmd_thin_segment)

    p = sub.add_parser("recompile", help="rebuild a proof with small coefficients")
    p.add_argument("system")
    p.add_argument("proof")
    p.add_argument("--radius", type=int, default=None,
                   help="l1 radius R (default: computed from the system)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_recompile)

    p = sub.add_parser("enum-to-cp", help="serialize an enumerative proof to CG cuts")
    p.add_argument("system")
    p.add_argument("proof")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enum_to_cp)

    p = sub.add_parser("verify", help="verify a proof against a system")
    p.add_argument("kind", choices=["branching", "certified", "enumerative", "cp"])
    p.add_argument("system")
    p.add_argument("proof")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="attach reduced Farkas certificates")
    p.add_argument("system")
    p.add_argument("proof")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("stats", help="length / bit-size / max coefficient")
    p.add_argument("proof")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"RESULT error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
