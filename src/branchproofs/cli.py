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
import functools
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
from .simplex import DimensionMismatch, InequalitySystem, is_empty
from .vectors import sparse_bit_size


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
    rebuilt = recompile(system, proof)
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
        report = verify_certified_proof(system, parse_branching(text))
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
    except DimensionMismatch:
        raise  # an input error, not an invalid proof
    except ValueError as exc:
        print(f"RESULT invalid {exc}")
        return 1
    _write(_out(args, ".certified.proof"), format_branching(certified) + "\n")
    _print_stats(certified)
    sizes = [sparse_bit_size(node.cert.m, node.cert.nonzeros)
             for node, _, _ in walk(certified) if node.is_leaf]
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


def _arg(*names, **options):
    return names, options


_SYSTEM_PROOF = [_arg("system"), _arg("proof")]

# name -> (handler, help, arguments)
_SUBCOMMANDS = {
    "gen-tseitin": (_cmd_gen_tseitin, "Tseitin system + enumerative refutation", [
        _arg("graph", help=".graph file: 'V E', E edge lines, parity line"),
        _arg("--system", default="tseitin.ineq"),
        _arg("--proof", default="tseitin.proof")]),
    "gen-pn": (_cmd_gen_pn, "the 2^n-clause SAT polytope P_n", [
        _arg("n", type=int), _arg("--out", default="pn.ineq")]),
    "gen-qn": (_cmd_gen_qn, "the compact extension Q_n of P_n", [
        _arg("n", type=int), _arg("--out", default="qn.ineq"),
        _arg("--split-check", action="store_true",
             help="also verify the n-split-cut refutation")]),
    "thin-segment": (_cmd_thin_segment, "the slanted segment fixture", [
        _arg("M", type=int), _arg("--system", default="thin.ineq"),
        _arg("--proof", default="thin.proof")]),
    "recompile": (_cmd_recompile, "rebuild a proof with small coefficients",
                  _SYSTEM_PROOF + [_arg("--out", default=None)]),
    "enum-to-cp": (_cmd_enum_to_cp, "serialize an enumerative proof to CG cuts",
                   _SYSTEM_PROOF + [_arg("--out", default=None)]),
    "verify": (_cmd_verify, "verify a proof against a system", [
        _arg("kind", choices=["branching", "certified", "enumerative", "cp"])] + _SYSTEM_PROOF),
    "certify": (_cmd_certify, "attach reduced Farkas certificates",
                _SYSTEM_PROOF + [_arg("--out", default=None)]),
    "stats": (_cmd_stats, "length / bit-size / max coefficient", [_arg("proof")]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="branchproofs",
        description="exact branching-proof toolkit: generate, recompile, "
        "serialize to cutting planes, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"RESULT error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
