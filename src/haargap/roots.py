"""Type A root systems, Cartan elements and Weyl-group operations, all in
exact rational arithmetic.

The ambient group is SL_n: Cartan elements are trace-zero rational vectors,
roots are the functionals X -> X_i - X_j, and the Weyl group acts by
coordinate permutations.  No floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


# Largest n for which a root system is built (n(n-1) roots and their index
# tables), so that `roots --n` is bounded up front: n = 65 exits with code 3.
ROOT_SYSTEM_MAX_N = 64


def abbreviated(text: str, width: int = 24) -> str:
    """text, or its first `width` characters and its length when it is longer."""
    return text if len(text) <= width else f"{text[:width]}... ({len(text)} characters)"


class CapacityError(Exception):
    """Raised when a requested size exceeds its configured limit."""


@dataclass(frozen=True)
class Root:
    """The functional X -> X_i - X_j, stored as its index pair (i, j), 1-based, i != j."""

    i: int
    j: int


@dataclass(frozen=True)
class CartanElement:
    """A trace-zero rational vector (diagonal direction of a one-parameter flow)."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(Fraction(v) for v in self.coords)
        object.__setattr__(self, "coords", coords)
        trace = sum(coords, Fraction(0))
        if trace != 0:
            raise ValueError(
                f"Cartan element must have coordinates summing to zero; "
                f"got trace {abbreviated(str(trace))}"
            )

    @property
    def n(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def cartan(*coords) -> CartanElement:
    """Convenience constructor: cartan(2, -1, -1)."""
    return CartanElement(coords)


class RootSystem:
    """The A_{n-1} root system of SL_n.

    Roots are ordered lexicographically by their index pair (i, j), i != j,
    1-based; this order is deterministic, so bitmasks over root indices are
    reproducible across runs.  SL_n is split, so every root has multiplicity 1
    and sums over roots carry no weights.
    """

    def __init__(self, n: int, roots: Sequence[Root]):
        self.n = n
        self.roots: tuple[Root, ...] = tuple(roots)
        self.rank = n - 1
        self.positive_indices: tuple[int, ...] = tuple(
            k for k, r in enumerate(self.roots) if r.i < r.j
        )

    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(self.roots[k] for k in self.positive_indices)


def build_type_a(n: int) -> RootSystem:
    """Construct the A_{n-1} root system for SL_n.

    Raises ValueError for n < 2 and CapacityError above ROOT_SYSTEM_MAX_N,
    before anything is built.
    """
    if n < 2:
        raise ValueError(f"invalid dimension n={n}; the root system needs n >= 2")
    if n > ROOT_SYSTEM_MAX_N:
        raise CapacityError(
            f"root systems are limited to n <= {ROOT_SYSTEM_MAX_N}, got n={n}"
        )
    roots = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                roots.append(Root(i, j))
    return RootSystem(n, roots)


def _distinct_permutations(items: tuple) -> Iterable[tuple]:
    """Multiset permutations of items, each once, in descending lexicographic order.

    Steps through the permutations of the values' ranks (0 for the largest) in
    ascending order, the classic next-permutation walk, so only ints are compared.
    """
    values = sorted(set(items), reverse=True)
    rank = {v: r for r, v in enumerate(values)}
    a = sorted(rank[v] for v in items)
    last = len(a) - 1
    while True:
        yield tuple(values[r] for r in a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def weyl_orbit(X: CartanElement) -> tuple[CartanElement, ...]:
    """All distinct coordinate permutations of X, deduplicated.

    Returned in descending lexicographic order, so the dominant representative
    comes first; the order is deterministic.  X is already checked, so each
    permutation is stored as it is, without converting or re-summing it.
    """
    orbit = []
    for p in _distinct_permutations(X.coords):
        Y = object.__new__(CartanElement)
        object.__setattr__(Y, "coords", p)
        orbit.append(Y)
    return tuple(orbit)


def dominant_representative(X: CartanElement) -> CartanElement:
    """The unique orbit element with coordinates sorted in non-increasing order.

    Every positive root is >= 0 on the result.
    """
    return CartanElement(tuple(sorted(X.coords, reverse=True)))


def is_regular(X: CartanElement) -> bool:
    """True iff no root vanishes on X, i.e. all coordinates are pairwise distinct."""
    return len(set(X.coords)) == len(X.coords)
