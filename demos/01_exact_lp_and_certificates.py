"""Exact rational LP, Farkas certificates, and Chvatal-Gomory cuts.

Everything downstream (proof verification, recompilation, cut generation)
rests on three primitives shown here: optimizing a linear functional over a
rational polytope exactly, certifying emptiness with nonnegative multipliers,
and applying CG cuts.  Run as a script; every printed number is an exact
rational.
"""

from fractions import Fraction

from branchproofs import (
    FarkasCertificate,
    InequalitySystem,
    Optimal,
    Vector,
    apply_cg,
    apply_cg_list,
    is_empty,
    lp_optimize,
    support_value,
)

print("== exact linear programming ==")
square = InequalitySystem.box(2, 0, 1)
outcome = lp_optimize(square, Vector([1, 1]))
assert isinstance(outcome, Optimal)
print(f"max x1+x2 over the unit square: {outcome.value} at {outcome.point}")
print(f"dual multipliers (one per row): {outcome.dual}")
print("strong duality holds exactly: dual . rhs =",
      sum(d * b for d, b in zip(outcome.dual, square.rhs)))

print()
print("== Farkas certificates ==")
# x <= 0 and x >= 1 cannot both hold; four redundant rows make the point
system = InequalitySystem([[1], [1], [-1], [-1]], [0, 0, -1, -1])
cert = is_empty(system)
print(f"emptiness certificate: {cert.multipliers} "
      f"({len(cert.nonzeros)} nonzeros <= n+1 = 2)")
dense = FarkasCertificate(Vector([1, 1, 1, 1]))
print(f"a dense certificate {dense.multipliers} is checked by the same "
      f"arithmetic: valid = {dense.verify(system)}")

print()
print("== Chvatal-Gomory cuts ==")
# the slab x1 + x2 <= 3/2 inside the square: its CG cut rounds 3/2 down to 1
slab = square.with_rows([(Vector([1, 1]), Fraction(3, 2))])
print(f"support value of (1,1): {support_value(slab, Vector([1, 1]))}")
after, cut = apply_cg(slab, Vector([1, 1]))
print(f"CG cut: x1 + x2 <= {cut.rhs}; new support value: "
      f"{support_value(after, Vector([1, 1]))}")
print("integer points are never lost: (1,0) still feasible ->",
      after.contains(Vector([1, 0])))

# a fractional point is killed outright: {x = 1/2} inside [0,1]
point = InequalitySystem([[2], [-2], [1], [-1]], [1, -1, 1, 0])
emptied = apply_cg_list(point, [Vector([1])])
print(f"the point x = 1/2 after the cut induced by (1): "
      f"empty = {is_empty(emptied) is not None}")
