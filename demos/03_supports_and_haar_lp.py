"""Admissible supports and the exact linear program bounding the Haar weight."""

from fractions import Fraction

from haargap import (
    enumerate_block_partitions,
    enumerate_symmetric_closed,
    extremal_vertex_report,
    inner_weight_formula,
    min_haar_weight,
    solve_min_haar,
)

# Ergodic components of an invariant measure live on symmetric, addition-closed
# root subsets.  For SL_3 there are exactly five.
for s in enumerate_symmetric_closed(3):
    print(f"  {s.label:<10} [{s.kind}]")

# For SL_4 the count grows to 15; equal-size block partitions form the
# sublist relevant to inner-type quotients.
print("\nSL_4 generic supports:", len(enumerate_symmetric_closed(4)))
print("SL_4 block partitions:", [s.label for s in enumerate_block_partitions(4)])

# The entropy game: minimize the Haar weight w_Δ subject to one entropy
# constraint per test direction.  For SL_3 at half the Haar entropy the
# optimum is exactly 1/4.
print("\nmin Haar weight, SL_3 at beta = 1/2:", min_haar_weight(3, "generic", Fraction(1, 2)))

# SL_4 at beta = 1/2 allows zero Haar weight, but only by spreading mass
# evenly over the four 3+1 block supports.
_, _, solution = solve_min_haar(4, "generic", Fraction(1, 2))
print("\nSL_4 at beta = 1/2: optimum", solution.optimum)
for label, kind, weight in extremal_vertex_report(solution):
    print(f"  {label:<22} [{kind}] weight {weight}")

# Nudging beta above 1/2 forces Haar weight 2*eps.
eps = Fraction(1, 20)
print("\nSL_4 at beta = 1/2 + 1/20:", min_haar_weight(4, "generic", Fraction(1, 2) + eps))

# Inner-type quotients restrict the supports to equal-size block partitions,
# and the optimum matches the closed form ((n+1)/2 - t)/(n - t).
print("\ninner-type minima:")
for n in range(3, 13):
    w = min_haar_weight(n, "inner", Fraction(1, 2))
    print(f"  n={n:>2}: {str(w):>5}  closed form {inner_weight_formula(n)}  equal: {w == inner_weight_formula(n)}")
