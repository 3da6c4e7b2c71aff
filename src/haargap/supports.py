"""Enumeration of admissible ergodic-component supports.

A support is a subset R of the root set that is symmetric (R = -R) and closed
under root addition.  In type A such a set is exactly an equivalence relation
on {1..n}: ±α_ij ∈ R means i ~ j, and closure under α_ik + α_kj = α_ij is
transitivity.  So every support is the set of within-block roots of a set
partition of {1..n}, and both enumerations walk set partitions: all of them
for the generic lattice, those with equal-size blocks for inner forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .roots import CapacityError, RootSystem

GENERIC_POSITIVE_ROOT_LIMIT = 15
BLOCK_PARTITION_LIMIT = 12

KIND_EMPTY = "empty"
KIND_PAIR = "pair"
KIND_BLOCK = "block-partition"
KIND_FULL = "full"
KIND_OTHER = "other"


@dataclass(frozen=True)
class SupportSet:
    """A root subset given as a bitmask: make_support's answer for a non-partition mask."""

    mask: int
    label: str
    kind: str


class Partition(tuple):
    """A set partition of {1..n}: ascending blocks ordered by their smallest element.

    It stands for the admissible support of every root inside a block.  Its
    mask (over build_type_a(n)'s lexicographic root order), label and kind are
    derived from the blocks when read.
    """

    __slots__ = ()

    @property
    def mask(self) -> int:
        n = sum(map(len, self))
        pairs = (p for block in self for p in itertools.permutations(block, 2))
        # the bit of rs.index_of[(i, j)], the pairs i != j in lexicographic order
        return sum(1 << (i - 1) * (n - 1) + j - 1 - (j > i) for i, j in pairs)

    @property
    def kind(self) -> str:
        sizes = [len(b) for b in self if len(b) > 1]
        if not sizes:
            return KIND_EMPTY
        if len(self) == 1:
            return KIND_FULL
        return KIND_PAIR if sizes == [2] else KIND_BLOCK

    @property
    def label(self) -> str:
        kind = self.kind
        if kind == KIND_PAIR:
            return "{±α_%d%d}" % next(b for b in self if len(b) > 1)
        if kind == KIND_BLOCK:
            return "blocks " + "".join("{" + ",".join(map(str, b)) + "}" for b in self)
        return "∅" if kind == KIND_EMPTY else "Δ"


def support_indices(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a mask, ascending."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    m = mask
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _check_mask(rs: RootSystem, mask: int) -> None:
    if mask < 0 or mask >> len(rs):
        raise ValueError(f"mask {mask:#x} does not fit a root system with {len(rs)} roots")


def is_symmetric_mask(rs: RootSystem, mask: int) -> bool:
    _check_mask(rs, mask)
    return all(mask >> rs.negation[k] & 1 for k in support_indices(mask))


def closure_of(rs: RootSystem, mask: int) -> int:
    """Smallest addition-closed superset: α_ik and α_kj force α_ij when i != j.

    This is the transitive closure of the index pairs, built one pivot k at a
    time (Warshall).
    """
    _check_mask(rs, mask)
    pairs = {(rs.roots[b].i, rs.roots[b].j) for b in support_indices(mask)}
    for k in range(1, rs.n + 1):
        into = [i for i, m in pairs if m == k]
        out = [j for m, j in pairs if m == k]
        pairs.update((i, j) for i in into for j in out if i != j)
    closed = 0
    for pair in pairs:
        closed |= 1 << rs.index_of[pair]
    return closed


def _partitions(rest: tuple, sizes, prefix: tuple, out: list) -> None:
    """Append to out prefix + each partition of rest into blocks of the given sizes.

    The smallest unused element opens each block and `itertools.combinations`
    picks its partners, so with one size the partitions come out in
    lexicographic order of their block lists.
    """
    first, others = rest[0], rest[1:]
    for size in sizes:
        if size == len(rest):
            out.append(Partition((*prefix, rest)))
            continue
        for partners in itertools.combinations(others, size - 1):
            left = tuple(itertools.filterfalse(partners.__contains__, others))
            _partitions(left, sizes, (*prefix, (first, *partners)), out)


def make_support(rs: RootSystem, mask: int) -> Partition | SupportSet:
    """The Partition whose support is the mask, or else a SupportSet of kind `other`.

    Each index's partners {i} ∪ {j : α_ij ∈ mask} are its candidate block; the
    mask is admissible exactly when those blocks rebuild it.  Any other mask
    is labelled by its positive roots.
    """
    _check_mask(rs, mask)
    partners = {i: {i} for i in range(1, rs.n + 1)}
    idx = support_indices(mask)
    for k in idx:
        partners[rs.roots[k].i].add(rs.roots[k].j)
    support = Partition(sorted({tuple(sorted(p)) for p in partners.values()}))
    if support.mask == mask:
        return support
    pos = [rs.roots[k] for k in idx if rs.roots[k].i < rs.roots[k].j]
    label = "{" + ", ".join(f"±α_{r.i}{r.j}" for r in pos) + "}"
    return SupportSet(mask, label, KIND_OTHER)


def is_admissible(rs: RootSystem, R: Partition | SupportSet) -> bool:
    """True iff R is symmetric and addition-closed."""
    _check_mask(rs, R.mask)
    return is_symmetric_mask(rs, R.mask) and closure_of(rs, R.mask) == R.mask


def enumerate_symmetric_closed(rs: RootSystem) -> list[Partition]:
    """All symmetric, addition-closed subsets of the root set.

    One per set partition of {1..n}, so Bell(n) of them; ordered by root
    count then mask value, so ∅ comes first and Δ last.
    """
    npos = len(rs.positive_indices)
    if npos > GENERIC_POSITIVE_ROOT_LIMIT:
        raise CapacityError(
            f"root system has {npos} positive roots; generic enumeration is "
            f"limited to {GENERIC_POSITIVE_ROOT_LIMIT}"
        )
    found: list[Partition] = []
    _partitions(tuple(range(1, rs.n + 1)), range(1, rs.n + 1), (), found)
    found.sort(key=lambda p: (p.mask.bit_count(), p.mask))
    return found


def enumerate_block_partitions(n: int) -> list[Partition]:
    """Supports of equal-size block partitions of {1..n}, for every divisor k of n.

    k = 1 yields ∅ and k = n yields Δ.  Within each k the partitions come out
    in lexicographic order of their block lists.
    """
    if n < 2:
        raise ValueError(f"invalid dimension n={n}; need n >= 2")
    if n > BLOCK_PARTITION_LIMIT:
        raise CapacityError(
            f"n={n} exceeds the block-partition enumeration limit of {BLOCK_PARTITION_LIMIT}"
        )
    out: list[Partition] = []
    for k in range(1, n + 1):
        if n % k == 0:
            _partitions(tuple(range(1, n + 1)), (k,), (), out)
    return out
