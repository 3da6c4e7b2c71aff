"""Root systems, Weyl orbits and Lyapunov spectra, all in exact arithmetic."""

from fractions import Fraction

from haargap import (
    build_type_a,
    cartan,
    dominant_representative,
    evaluate_root,
    fast_slow_split,
    is_regular,
    lyapunov_spectrum,
    weyl_orbit,
)

# The A_2 root system lives inside SL_3: six roots alpha_ij(X) = X_i - X_j.
rs = build_type_a(3)
print(f"A_2: {len(rs.roots)} roots, {len(rs.positive_indices)} positive, rank {rs.rank}")

# Evaluate a root on a flow direction exactly.
X = cartan(2, -1, -1)
alpha_12 = rs.root(1, 2)
print(f"alpha_12(2,-1,-1) = {evaluate_root(rs, alpha_12, X)}")

# The Weyl group permutes coordinates; this direction has a 3-element orbit.
for orbit_elem in weyl_orbit(X):
    print("  orbit element:", tuple(str(c) for c in orbit_elem.coords))
print("dominant:", tuple(str(c) for c in dominant_representative(cartan(-1, -1, 2)).coords))
print("regular?", is_regular(X), "(two coordinates coincide, so no)")

# The Lyapunov spectrum of the flow e^{tX} lists alpha(X) over positive roots.
spec = lyapunov_spectrum(rs, X)
print("spectrum:", [str(v) for v in spec.values], "chi_max =", spec.chi_max)

# Exponents split into slow (< 1/(2K)) and fast ones for a horizon constant K.
split = fast_slow_split(spec, Fraction(1, 3))
print(f"K = 1/3: threshold {split.threshold}, J0 = {split.J0} slow, {len(split.fast_indices)} fast")
