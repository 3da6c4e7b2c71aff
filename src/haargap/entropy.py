"""Lyapunov spectra and entropy bounds for diagonal flows e^{tX} on SL_n quotients.

Everything here is exact: inputs are rational Cartan elements and outputs are
Fractions.  The flow direction X has Lyapunov exponents alpha(X) with alpha
running over the roots.  SL_n is split, so every root space is a line (all
multiplicities are 1) and each root counts once in the sums.  The key
quantities are

* the Haar entropy  sum over all roots of max(alpha(X), 0),
* the proved entropy lower bound  sum over roots with alpha(X) >= chi_max/2
  of (alpha(X) - chi_max/2), where chi_max is the top exponent,
* the split of exponents into slow (< 1/(2K)) and fast (>= 1/(2K)) ones for a
  log-time horizon constant K, and the resulting net power of the semiclassical
  parameter in the dispersive estimate.

Prefactor constants and the tube-width slack of the dispersive estimate are
symbolic and never materialize as numbers here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .roots import CartanElement, RootSystem, dominant_representative


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Non-negative exponents of a dominantized direction, sorted ascending."""

    values: tuple[Fraction, ...]
    chi_max: Fraction
    direction: CartanElement

    @property
    def J(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FastSlowSplit:
    """Partition of the positive spectrum at the threshold 1/(2K).

    Slow means strictly below the threshold; J0 is the slow dimension.
    Indices refer to the sorted spectrum.  The dispersive exponent is the net
    power of the semiclassical parameter in the dispersive bound: each fast
    exponent chi contributes K*chi - 1/2 and slow ones nothing.  The constant
    prefactor and the tube-width slack stay symbolic.
    """

    threshold: Fraction
    slow_indices: tuple[int, ...]
    fast_indices: tuple[int, ...]
    J0: int
    dispersive_exponent: Fraction


def _scaled(rs: RootSystem, X: CartanElement) -> tuple[list[int], int]:
    """X's coordinates times d, the lcm of their denominators, and d."""
    if X.n != rs.n:
        raise ValueError(f"dimension mismatch: root system has n={rs.n}, element has n={X.n}")
    d = math.lcm(*(c.denominator for c in X.coords))
    return [c.numerator * (d // c.denominator) for c in X.coords], d


def lyapunov_spectrum(rs: RootSystem, X: CartanElement) -> LyapunovSpectrum:
    """Positive-root exponents of the dominant representative of X, one per root.

    The positive roots take the values |X_i - X_j| (i < j) on the dominant
    representative, so the exponents are read off X scaled to integers.
    """
    x, d = _scaled(rs, X)
    values = tuple(Fraction(v, d) for v in sorted(abs(a - b) for a, b in combinations(x, 2)))
    chi_max = values[-1] if values else Fraction(0)
    return LyapunovSpectrum(values, chi_max, dominant_representative(X))


def haar_entropy(rs: RootSystem, X: CartanElement) -> Fraction:
    """Entropy of Haar measure under e^X: sum of positive parts over all roots.

    One of alpha_ij, alpha_ji is positive on X unless both vanish, so the sum is
    that of |X_i - X_j| over i < j, taken on X scaled to integers.
    """
    x, d = _scaled(rs, X)
    return Fraction(sum(abs(a - b) for a, b in combinations(x, 2)), d)


def entropy_lower_bound(rs: RootSystem, X: CartanElement) -> Fraction:
    """Proved entropy floor for the flow in direction X.

    Sums alpha(X) - chi_max/2 over exponents with
    alpha(X) >= chi_max/2; the comparison is closed, so ties are kept.
    The exponents are the |X_i - X_j| and chi_max = max X - min X; on X scaled
    to integers each term is (2 alpha - chi_max)/2, summed over 2 alpha >= chi_max.
    Zero for X = 0.
    """
    x, d = _scaled(rs, X)
    chi = max(x) - min(x)
    twice = (2 * abs(a - b) for a, b in combinations(x, 2))
    return Fraction(sum(t - chi for t in twice if t >= chi), 2 * d)


def conjectured_entropy_bound(rs: RootSystem, X: CartanElement) -> Fraction:
    """The stronger conjectural floor: half the Haar entropy."""
    return haar_entropy(rs, X) / 2


def fast_slow_split(spec: LyapunovSpectrum, K) -> FastSlowSplit:
    """Split the spectrum at 1/(2K), K > 0: strictly smaller exponents are slow."""
    K = Fraction(K)
    if K <= 0:
        raise ValueError(f"horizon constant K must be positive, got {K}")
    threshold = Fraction(1, 2) / K
    slow = tuple(i for i, v in enumerate(spec.values) if v < threshold)
    fast = tuple(i for i, v in enumerate(spec.values) if v >= threshold)
    exponent = sum((K * spec.values[i] - Fraction(1, 2) for i in fast), Fraction(0))
    return FastSlowSplit(threshold, slow, fast, len(slow), exponent)
