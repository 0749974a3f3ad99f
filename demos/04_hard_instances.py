"""Instances that are provably hard for branching proofs.

The SAT polytope P_n carries one clause per subset of [n]; geometrically it
is the l1 ball of radius n/2 - 1 around the all-1/2 point.  It has no 0/1
points, yet deleting any single clause creates one -- this "integer
criticality" forces every branching proof to cite almost all 2^n clauses, so
proofs need length at least 2^n / n.  Its extended formulation Q_n has only
O(n) rows and inherits the lower bound for mixed-integer branching, while
falling to just n split cuts.
"""

import itertools

from branchproofs import (
    InequalitySystem,
    Vector,
    pn_polytope,
    qn_polytope,
    qn_split_refutation,
)

n = 4
P = pn_polytope(n)
print(f"P_{n}: {P.m} rows ({2**n} clauses + {2 * n} bounds) over {P.n} variables")

integer_points = [
    p for p in itertools.product((0, 1), repeat=n) if P.contains(Vector(p))
]
print(f"0/1 points inside P_{n}: {len(integer_points)}")

restored = 0
rows = list(P.rows())
for mask in range(2**n):
    kept = rows[:mask] + rows[mask + 1:]
    reduced = InequalitySystem([a for a, _ in kept], [b for _, b in kept], n=n)
    complement = Vector([0 if mask >> i & 1 else 1 for i in range(n)])
    if reduced.contains(complement):
        restored += 1
print(f"clause deletions that create a 0/1 point: {restored} of {2**n} "
      "(integer-critical)")
print(f"=> any branching proof for P_{n} needs at least "
      f"2^{n}/{n} = {2**n // n} leaves")

print()
Q = qn_polytope(n)
print(f"Q_{n}: the same set via {Q.m} rows in dimension {Q.n} "
      "(y_i models |x_i - 1/2|)")
report = qn_split_refutation(n)
print(f"split cuts y_i >= 1/2 valid on both sides of x_i <= 0 / x_i >= 1: "
      f"{report.valid}")
print(f"adding all {n} cuts empties Q_{n}: certificate with "
      f"{len(report.certificate.nonzeros)} nonzero multipliers")
print("so mixed-integer branching needs exponentially many steps where")
print("n split cuts suffice")
