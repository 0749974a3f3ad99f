"""Recompiling a proof whose only short refutation uses huge coefficients.

The segment  M x1 + x2 = 1/2, 0 <= x2 <= 2  is integer-free, and branching on
M x1 + x2 <= 0 or >= 1 refutes it in one step -- but any one-step refutation
needs a normal with a coefficient of order M.  Recompilation trades a few
extra nodes for coefficients bounded by (10 n R)^((n+2)^2), a quantity that
depends only on the dimension and the l1 radius (here R = 3), never on M.
"""

from branchproofs import (
    BranchNode,
    Vector,
    certify,
    proof_stats,
    recompile,
    thin_segment,
    verify_branching_proof,
    verify_certified_proof,
)

M = 10**6
K, proof = thin_segment(M)
print(f"segment: {M} x1 + x2 = 1/2 with 0 <= x2 <= 2")
stats = proof_stats(proof)
print(f"one-step refutation: {stats.length} nodes, "
      f"largest coefficient {stats.max_coeff}")

# the obvious small-coefficient attempt fails: branching on x1 alone leaves
# the point (0, 1/2) alive on the x1 <= 0 side
naive = BranchNode(Vector([1, 0]), 0, BranchNode(), BranchNode())
report = verify_branching_proof(K, naive)
print(f"branching on x1 <= 0 / x1 >= 1 instead: valid = {report.valid} "
      f"({report.failures[0]})")

print()
rebuilt = recompile(K, proof, R=3)
new_stats = proof_stats(rebuilt)
bound = (10 * 2 * 3) ** 16
print(f"recompiled proof: {new_stats.length} nodes "
      f"(allowed: {3 + 4 * 3 * 2}), largest coefficient "
      f"{new_stats.max_coeff} (allowed: (10*2*3)^16 = {bound})")
print(f"recompiled proof valid: {verify_branching_proof(K, rebuilt).valid}")
print(f"root disjunction is now {tuple(rebuilt.a.as_ints())} x <= {rebuilt.b}")

print()
certified = certify(K, rebuilt)
print("attaching reduced Farkas certificates to every leaf...")
print(f"certificate check by pure arithmetic: "
      f"{verify_certified_proof(K, certified).valid}")
print(f"certified proof bit size: {proof_stats(certified).bit_size}")
