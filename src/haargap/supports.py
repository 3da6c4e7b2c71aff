"""Enumeration of admissible ergodic-component supports.

A support is a subset R of the root set that is symmetric (R = -R) and closed
under root addition.  In type A such a set is exactly an equivalence relation
on {1..n}: ±α_ij ∈ R means i ~ j, and closure under α_ik + α_kj = α_ij is
transitivity.  So every support is the set of within-block roots of a set
partition of {1..n}, and both enumerations walk set partitions: all of them
for the generic lattice, those with equal-size blocks for inner forms.  The
generic supports (at most Bell(6) = 203) come as a sorted list; the inner ones
(32 034 at n = 12) as a lazy walk that is taken afresh on each iteration, so a
reader that makes one pass never holds them all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .roots import CapacityError, RootSystem

GENERIC_POSITIVE_ROOT_LIMIT = 15
BLOCK_PARTITION_LIMIT = 12

KIND_EMPTY = "empty"
KIND_PAIR = "pair"
KIND_BLOCK = "block-partition"
KIND_FULL = "full"


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


def _partitions(rest: tuple, sizes, prefix: tuple):
    """Yield prefix + each partition of rest into blocks of the given sizes.

    The smallest unused element opens each block and `itertools.combinations`
    picks its partners, so with one size the partitions come out in
    lexicographic order of their block lists.
    """
    first, others = rest[0], rest[1:]
    for size in sizes:
        if size == len(rest):
            yield Partition((*prefix, rest))
            continue
        for partners in itertools.combinations(others, size - 1):
            left = tuple(itertools.filterfalse(partners.__contains__, others))
            yield from _partitions(left, sizes, (*prefix, (first, *partners)))


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
    found = list(_partitions(tuple(range(1, rs.n + 1)), range(1, rs.n + 1), ()))
    found.sort(key=lambda p: (p.mask.bit_count(), p.mask))
    return found


@dataclass(frozen=True)
class BlockPartitions:
    """The equal-size block partitions of {1..n}, walked afresh on each iteration.

    Its length is the closed form: the sum over k | n of n!/((k!)^(n/k) (n/k)!).
    n outside 2..BLOCK_PARTITION_LIMIT is refused when it is made.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"invalid dimension n={self.n}; need n >= 2")
        if self.n > BLOCK_PARTITION_LIMIT:
            raise CapacityError(
                f"n={self.n} exceeds the block-partition enumeration limit of {BLOCK_PARTITION_LIMIT}"
            )

    def __iter__(self):
        elements = tuple(range(1, self.n + 1))
        for k in range(1, self.n + 1):
            if self.n % k == 0:
                yield from _partitions(elements, (k,), ())

    def __len__(self) -> int:
        n, f = self.n, math.factorial
        return sum(f(n) // (f(k) ** (n // k) * f(n // k)) for k in range(1, n + 1) if n % k == 0)


def enumerate_block_partitions(n: int) -> BlockPartitions:
    """Supports of equal-size block partitions of {1..n}, for every divisor k of n.

    k = 1 yields ∅ and k = n yields Δ.  Within each k the partitions come out
    in lexicographic order of their block lists.
    """
    return BlockPartitions(n)
