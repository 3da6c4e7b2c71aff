"""Floating-point validation: almost-orthogonality and oscillatory decay."""

import numpy as np

from haargap import (
    MatrixFamily,
    OscillatoryProblem,
    cotlar_bound_check,
    orthogonal_projector_family,
    oscillatory_decay,
    smooth_bump,
)

# Almost-orthogonality: the norm of a sum of operators is bounded by the worst
# row sum of square-rooted cross norms, not by the (much larger) sum of norms.
family = MatrixFamily.random_gaussian(num_members=8, rows=12, cols=12, seed=11)
check = cotlar_bound_check(family)
print("random Gaussian family of 8 members:")
print(f"  |sum A|      = {check.lhs:.6f}")
print(f"  max(R1, R2)  = {max(check.R1, check.R2):.6f}   (bound holds: {check.holds})")
triangle = sum(np.linalg.norm(m, 2) for m in family.members)
print(f"  sum of norms = {triangle:.6f}   (triangle inequality, far cruder)")

# Orthogonal projectors are the degenerate case: the bound is an equality.
proj = cotlar_bound_check(orthogonal_projector_family(num_blocks=4, block_size=2))
print(f"\northogonal projectors: |sum| = {proj.lhs:.9f}, bound = {max(proj.R1, proj.R2):.9f}")

# Oscillatory integrals int exp(i S(x)/h) a(x) dx over a bump amplitude:
# a non-vanishing phase derivative kills the integral faster than any power,
# while a stationary point pins the decay to h^(1/2).
fast = oscillatory_decay(OscillatoryProblem.from_functions(lambda x: x, smooth_bump))
slow = oscillatory_decay(OscillatoryProblem.from_functions(lambda x: x**2 / 2.0, smooth_bump))
print("\nlog-log decay slopes over h in [1e-3, 1e-1]:")
print(f"  S(x) = x      (no stationary point): slope {fast.fitted_slope:.2f}")
print(f"  S(x) = x^2/2  (stationary at 0):     slope {slow.fitted_slope:.2f}")
print("\nmagnitudes (non-stationary):", [f"{m:.2e}" for m in fast.magnitudes])
