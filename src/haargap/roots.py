"""Type A root systems, Cartan elements and Weyl-group operations, all in
exact rational arithmetic.

The ambient group is SL_n: Cartan elements are trace-zero rational vectors,
roots are the functionals X -> X_i - X_j, and the Weyl group acts by
coordinate permutations, so an orbit is walked over a direction's distinct
coordinate values.  No floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# Largest n for which a root system is built (n(n-1) roots and their index
# tables), so that `roots --n` is bounded up front: n = 65 exits with code 3.
ROOT_SYSTEM_MAX_N = 64


def abbreviated(text: str) -> str:
    """text, or its first 24 characters and its length when it is longer."""
    return text if len(text) <= 24 else f"{text[:24]}... ({len(text)} characters)"


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
    """The A_{n-1} root system of SL_n, built from n alone.

    Roots are ordered lexicographically by their index pair (i, j), i != j,
    1-based, the same order on every run.  SL_n is split, so every root has
    multiplicity 1 and sums over roots carry no weights.  Raises ValueError
    for n < 2 and CapacityError above ROOT_SYSTEM_MAX_N, before anything is
    built.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"invalid dimension n={n}; the root system needs n >= 2")
        if n > ROOT_SYSTEM_MAX_N:
            raise CapacityError(
                f"root systems are limited to n <= {ROOT_SYSTEM_MAX_N}, got n={n}"
            )
        indices = range(1, n + 1)
        self.n = n
        self.roots = tuple(Root(i, j) for i in indices for j in indices if i != j)
        self.rank = n - 1
        self.positive_indices = tuple(k for k, r in enumerate(self.roots) if r.i < r.j)

    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(self.roots[k] for k in self.positive_indices)


def build_type_a(n: int) -> RootSystem:
    """The A_{n-1} root system for SL_n: RootSystem(n)."""
    return RootSystem(n)


def weyl_orbit(X: CartanElement) -> tuple[CartanElement, ...]:
    """All distinct coordinate permutations of X, in descending lexicographic
    order, so the dominant representative comes first.

    The walk fills the positions in order, each with every distinct value that
    has copies left, largest first.  X is already checked, so each permutation
    is stored as it is, without converting or re-summing it.
    """
    # each distinct value beside the number of its copies still to place
    left = [[v, X.coords.count(v)] for v in sorted(set(X.coords), reverse=True)]
    n, prefix, orbit = X.n, [], []

    def walk() -> None:
        if len(prefix) == n:
            Y = object.__new__(CartanElement)
            object.__setattr__(Y, "coords", tuple(prefix))
            orbit.append(Y)
            return
        for cell in left:
            if cell[1]:
                cell[1] -= 1
                prefix.append(cell[0])
                walk()
                prefix.pop()
                cell[1] += 1

    walk()
    return tuple(orbit)


def dominant_representative(X: CartanElement) -> CartanElement:
    """The unique orbit element with coordinates sorted in non-increasing order.

    Every positive root is >= 0 on the result.
    """
    return CartanElement(tuple(sorted(X.coords, reverse=True)))


def is_regular(X: CartanElement) -> bool:
    """True iff no root vanishes on X, i.e. all coordinates are pairwise distinct."""
    return len(set(X.coords)) == len(X.coords)
