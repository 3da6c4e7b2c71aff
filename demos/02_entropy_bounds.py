"""Entropy bounds for diagonal flows and the exponent of the dispersive estimate."""

from fractions import Fraction

from haargap import (
    CartanElement,
    build_type_a,
    cartan,
    conjectured_entropy_bound,
    entropy_lower_bound,
    fast_slow_split,
    haar_entropy,
    lyapunov_spectrum,
)

# Haar measure has entropy sum_alpha (alpha(X))^+ under the flow e^{tX}.
rs = build_type_a(4)
X = cartan(3, -1, -1, -1)
print("Haar entropy of diag(3,-1,-1,-1) flow on SL_4:", haar_entropy(rs, X))

# The proved floor keeps only exponents above half the top one:
#   sum over alpha(X) >= chi_max/2 of (alpha(X) - chi_max/2).
print("proved lower bound:     ", entropy_lower_bound(rs, X))
print("conjectured lower bound:", conjectured_entropy_bound(rs, X))
# For this direction all positive exponents are equal, so the two coincide.

# A direction with spread-out exponents shows the gap:
Y = cartan(3, 1, -1, -3)
print("\nY = diag(3,1,-1,-3):")
print("  spectrum:", [str(v) for v in lyapunov_spectrum(rs, Y).values])
print("  proved:     ", entropy_lower_bound(rs, Y))
print("  conjectured:", conjectured_entropy_bound(rs, Y))
print("  Haar:       ", haar_entropy(rs, Y))

# Dispersive exponent: split the spectrum at 1/(2K); each fast exponent chi
# contributes K*chi - 1/2.  At K = 1/chi_max this recovers the proved bound,
# rescaled by chi_max.
spec = lyapunov_spectrum(rs, Y)
K = 1 / spec.chi_max
E = fast_slow_split(spec, K).dispersive_exponent
print(f"\ndispersive exponent at K = 1/chi_max = {K}: E = {E}")
print("bridge identity E * chi_max == proved bound:", E * spec.chi_max == entropy_lower_bound(rs, Y))

# Positive homogeneity and Weyl invariance hold exactly.
c = Fraction(5, 7)
cY = CartanElement(tuple(c * y for y in Y.coords))
print("homogeneity check:", entropy_lower_bound(rs, cY) == c * entropy_lower_bound(rs, Y))
