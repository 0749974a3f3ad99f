"""Exact-arithmetic branching proofs of integer infeasibility.

A library for modeling branching proofs (binary trees of integer
disjunctions) and enumerative branching proofs over rational polytopes,
verifying them with exact LPs and Farkas certificates, recompiling arbitrary
branching proofs into equivalent proofs with small disjunction coefficients,
and serializing enumerative proofs into Chvatal-Gomory cutting-plane proofs.

Everything is exact: scalars are ``fractions.Fraction``, the LP solver is an
integer-pivoting simplex, and every certificate is checked by arithmetic.
"""

from .vectors import Vector, bit_size, format_rational, parse_rational
from .simplex import (
    FarkasCertificate,
    InequalitySystem,
    Infeasible,
    LpOutcome,
    Optimal,
    Unbounded,
    is_empty,
    lp_optimize,
)
from .geometry import (
    CgCut,
    EmptySet,
    UnboundedSet,
    apply_cg,
    apply_cg_list,
    cuts_from_text,
    cuts_to_text,
    face,
    implies_R,
    l1_radius_bound,
    support_value,
)
from .prooftree import (
    BranchNode,
    EnumNode,
    Report,
    ProofStats,
    certify,
    enumerative_to_branching,
    format_branching,
    format_enumerative,
    parse_branching,
    parse_enumerative,
    detect_proof_kind,
    proof_stats,
    verify_branching_proof,
    verify_certified_proof,
    verify_enumerative_proof,
    walk,
)
from .diophantine import (
    DioApprox,
    RhsClassification,
    classify_rhs,
    dirichlet_approx,
)
from .recompile import (
    SubstitutionSequence,
    flip_sequence,
    gen_cg_cuts,
    generalized_certificate,
    long_to_short,
    recompile,
    verify_substitution_sequence,
)
from .enumcp import enum_to_cp, lift_cg_sequence
from .families import (
    SplitCutReport,
    TseitinInstance,
    pn_polytope,
    qn_polytope,
    qn_split_refutation,
    thin_segment,
    tseitin_polytope,
    tseitin_sp_refutation,
)

__all__ = [
    "Vector", "bit_size", "format_rational", "parse_rational",
    "FarkasCertificate", "InequalitySystem", "Infeasible", "LpOutcome", "Optimal",
    "Unbounded", "is_empty", "lp_optimize",
    "CgCut", "EmptySet", "UnboundedSet", "apply_cg", "apply_cg_list", "cuts_from_text",
    "cuts_to_text", "face", "implies_R", "l1_radius_bound", "support_value",
    "BranchNode", "EnumNode", "Report", "ProofStats", "certify", "enumerative_to_branching",
    "format_branching", "format_enumerative", "parse_branching", "parse_enumerative",
    "detect_proof_kind", "proof_stats", "verify_branching_proof", "verify_certified_proof",
    "verify_enumerative_proof", "walk",
    "DioApprox", "RhsClassification", "classify_rhs", "dirichlet_approx",
    "SubstitutionSequence", "flip_sequence", "gen_cg_cuts", "generalized_certificate",
    "long_to_short", "recompile", "verify_substitution_sequence",
    "enum_to_cp", "lift_cg_sequence",
    "SplitCutReport", "TseitinInstance", "pn_polytope", "qn_polytope", "qn_split_refutation",
    "thin_segment", "tseitin_polytope", "tseitin_sp_refutation",
]
__version__ = "0.1.0"
