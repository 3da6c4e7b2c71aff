"""Enumeration of admissible ergodic-component supports.

A support is a subset R of the root set that is symmetric (R = -R) and closed
under root addition.  In type A such a set is exactly an equivalence relation
on {1..n}: ±α_ij ∈ R means i ~ j, and closure under α_ik + α_kj = α_ij is
transitivity.  So every support is the set of within-block roots of a set
partition of {1..n}, and both enumerations walk set partitions: all of them
for the generic lattice, those with equal-size blocks for inner forms.  Which
positions can join the first in its block depends only on how many elements
are left, so a walk cuts by a table of splits per length, built on the first
walk with its lengths and block sizes and kept for later ones.  Both walks
read n alone and refuse an n outside 2..their limit.  The generic supports
(at most Bell(6) = 203) come as a list sorted by their roots; the inner ones
(32 034 at n = 12) as a lazy walk that is taken afresh on each iteration, so
a reader that makes one pass never holds them all.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .roots import CapacityError

SET_PARTITION_LIMIT = 6
BLOCK_PARTITION_LIMIT = 12

KIND_EMPTY = "empty"
KIND_PAIR = "pair"
KIND_BLOCK = "block-partition"
KIND_FULL = "full"


class Partition(tuple):
    """A set partition of {1..n}: ascending blocks ordered by their smallest element.

    It stands for the admissible support of every root inside a block.  Its
    label and kind are derived from the blocks when read.
    """

    __slots__ = ()

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
        return render_label(self, self.kind)


def render_label(p: Partition, kind: str) -> str:
    """p's label, rendered from its kind, which a caller that also shows it has at hand."""
    if kind == KIND_PAIR:
        return "{±α_%d%d}" % next(b for b in p if len(b) > 1)
    if kind == KIND_BLOCK:
        return "blocks " + "".join(map(_block_text, p))
    return "∅" if kind == KIND_EMPTY else "Δ"


# inner n = 12's 142 232 block occurrences hold only 1 718 distinct blocks
@functools.cache
def _block_text(block: tuple) -> str:
    return "{" + ",".join(map(str, block)) + "}"


@functools.cache  # the enumeration limits on n bound the (lengths, sizes) keys
def _split_table(lengths, sizes) -> dict:
    """Map each length L to its cuts into the block its first element opens,
    of each size, and the rest: (block, rest) itemgetter pairs, partners in
    lexicographic order, or (None, None) when the block is all L elements."""
    table = {}
    for length in lengths:
        splits = table[length] = []
        for size in sizes:
            for partners in itertools.combinations(range(1, length), size - 1):
                rest = [i for i in range(1, length) if i not in partners]
                splits.append((_getter(0, *partners), _getter(*rest)) if rest else (None, None))
    return table


def _getter(*positions):
    """An itemgetter that returns the tuple of those positions, even of one."""
    p, *more = positions
    return operator.itemgetter(*positions) if more else operator.itemgetter(slice(p, p + 1))


def _partitions(rest: tuple, splits: dict, prefix: tuple):
    """Yield prefix + each partition of rest, cut by the table of _split_table;
    the smallest unused element opens each block, so with one size the
    partitions come out in lexicographic order of their block lists."""
    for block, left in splits[len(rest)]:
        if left is None:
            yield Partition((*prefix, rest))
        else:
            yield from _partitions(left(rest), splits, (*prefix, block(rest)))


def _check_n(n: int, limit: int, walk: str) -> None:
    """Refuse an n outside 2..limit: ValueError below 2, CapacityError above."""
    if n < 2:
        raise ValueError(f"invalid dimension n={n}; need n >= 2")
    if n > limit:
        raise CapacityError(f"n={n} exceeds the {walk} enumeration limit of {limit}")


def enumerate_symmetric_closed(n: int) -> list[Partition]:
    """All symmetric, addition-closed subsets of SL_n's root set.

    One per set partition of {1..n}, so Bell(n) of them; ordered by root
    count, then by the roots (i, j) inside the blocks, compared from the
    largest down, so ∅ comes first and Δ last.  n outside
    2..SET_PARTITION_LIMIT is refused.
    """
    _check_n(n, SET_PARTITION_LIMIT, "set-partition")
    sizes = range(1, n + 1)
    found = list(_partitions(tuple(sizes), _split_table(sizes, sizes), ()))
    found.sort(key=_roots_descending)
    return found


def _roots_descending(p: Partition) -> tuple[int, list]:
    """The root count of p and its roots (i, j), largest first: the generic sort key."""
    roots = sorted((r for block in p for r in itertools.permutations(block, 2)), reverse=True)
    return len(roots), roots


@dataclass(frozen=True)
class BlockPartitions:
    """The equal-size block partitions of {1..n}, walked afresh on each iteration.

    Its length is the closed form: the sum over k | n of n!/((k!)^(n/k) (n/k)!).
    n outside 2..BLOCK_PARTITION_LIMIT is refused when it is made.
    """

    n: int

    def __post_init__(self) -> None:
        _check_n(self.n, BLOCK_PARTITION_LIMIT, "block-partition")

    def __iter__(self):
        elements = tuple(range(1, self.n + 1))
        for k in range(1, self.n + 1):
            if self.n % k == 0:
                yield from _partitions(elements, _split_table(range(k, self.n + 1, k), (k,)), ())

    def __len__(self) -> int:
        n, f = self.n, math.factorial
        return sum(f(n) // (f(k) ** (n // k) * f(n // k)) for k in range(1, n + 1) if n % k == 0)


def enumerate_block_partitions(n: int) -> BlockPartitions:
    """Supports of equal-size block partitions of {1..n}, for every divisor k of n.

    k = 1 yields ∅ and k = n yields Δ.  Within each k the partitions come out
    in lexicographic order of their block lists.
    """
    return BlockPartitions(n)
