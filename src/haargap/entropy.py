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

from dataclasses import dataclass
from fractions import Fraction

from .roots import CartanElement, RootSystem, dominant_representative, evaluate_root


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
    Indices refer to the sorted spectrum.
    """

    threshold: Fraction
    slow_indices: tuple[int, ...]
    fast_indices: tuple[int, ...]
    J0: int
    J: int


@dataclass(frozen=True)
class DispersiveQuery:
    """A log-time horizon constant K > 0 together with a flow direction."""

    K: Fraction
    direction: CartanElement

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", Fraction(self.K))
        if self.K <= 0:
            raise ValueError(f"horizon constant K must be positive, got {self.K}")


def lyapunov_spectrum(rs: RootSystem, X: CartanElement) -> LyapunovSpectrum:
    """Positive-root exponents of the dominant representative of X, one per root."""
    Xd = dominant_representative(X)
    values = sorted(evaluate_root(rs, rs.roots[k], Xd) for k in rs.positive_indices)
    chi_max = values[-1] if values else Fraction(0)
    return LyapunovSpectrum(tuple(values), chi_max, Xd)


def haar_entropy(rs: RootSystem, X: CartanElement) -> Fraction:
    """Entropy of Haar measure under e^X: sum of positive parts over all roots."""
    total = Fraction(0)
    for root in rs.roots:
        v = evaluate_root(rs, root, X)
        if v > 0:
            total += v
    return total


def entropy_lower_bound(rs: RootSystem, X: CartanElement) -> Fraction:
    """Proved entropy floor for the flow in direction X.

    Sums alpha(X) - chi_max/2 over exponents with
    alpha(X) >= chi_max/2; the comparison is closed, so ties are kept.
    X is dominantized internally.  Zero for X = 0.
    """
    spec = lyapunov_spectrum(rs, X)
    half_max = spec.chi_max / 2
    total = Fraction(0)
    for v in spec.values:
        if v >= half_max:
            total += v - half_max
    return total


def conjectured_entropy_bound(rs: RootSystem, X: CartanElement) -> Fraction:
    """The stronger conjectural floor: half the Haar entropy."""
    return haar_entropy(rs, X) / 2


def fast_slow_split(rs: RootSystem, X: CartanElement, K) -> FastSlowSplit:
    """Split the spectrum at 1/(2K): strictly smaller exponents are slow."""
    K = Fraction(K)
    if K <= 0:
        raise ValueError(f"horizon constant K must be positive, got {K}")
    spec = lyapunov_spectrum(rs, X)
    threshold = Fraction(1, 2) / K
    slow = tuple(i for i, v in enumerate(spec.values) if v < threshold)
    fast = tuple(i for i, v in enumerate(spec.values) if v >= threshold)
    return FastSlowSplit(threshold, slow, fast, len(slow), spec.J)


def dispersive_exponent(q: DispersiveQuery, rs: RootSystem) -> Fraction:
    """Net power of the semiclassical parameter in the dispersive bound.

    Each fast exponent chi (those with chi >= 1/(2K)) contributes K*chi - 1/2;
    slow exponents contribute nothing.  The constant prefactor and the
    tube-width slack stay symbolic.
    """
    spec = lyapunov_spectrum(rs, q.direction)
    split = fast_slow_split(rs, q.direction, q.K)
    total = Fraction(0)
    for i in split.fast_indices:
        total += q.K * spec.values[i] - Fraction(1, 2)
    return total
