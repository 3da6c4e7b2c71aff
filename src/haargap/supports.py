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

from .roots import CapacityError, RootSystem, build_type_a

GENERIC_POSITIVE_ROOT_LIMIT = 15
BLOCK_PARTITION_LIMIT = 12

KIND_EMPTY = "empty"
KIND_PAIR = "pair"
KIND_BLOCK = "block-partition"
KIND_FULL = "full"
KIND_OTHER = "other"


@dataclass(frozen=True)
class SupportSet:
    """A root subset given as a bitmask over a RootSystem's root order."""

    mask: int
    label: str
    kind: str


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


def _set_partitions(n: int, max_blocks: int, max_size: int):
    """Set partitions of {1..n} into at most max_blocks blocks of at most max_size.

    Restricted-growth depth-first walk: each element joins an open block with
    room or opens a new block.  Blocks come out ascending, ordered by their
    smallest element.
    """
    blocks: list[list[int]] = []

    def place(x: int):
        if x > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            if len(b) < max_size:
                b.append(x)
                yield from place(x + 1)
                b.pop()
        if len(blocks) < max_blocks:
            blocks.append([x])
            yield from place(x + 1)
            blocks.pop()

    yield from place(1)


def _support_of_blocks(rs: RootSystem, blocks) -> SupportSet:
    """The support made of all roots inside the blocks, with its label and kind."""
    mask = 0
    for block in blocks:
        for i, j in itertools.permutations(block, 2):
            mask |= 1 << rs.index_of[(i, j)]
    nontrivial = [b for b in blocks if len(b) > 1]
    if not nontrivial:
        return SupportSet(0, "∅", KIND_EMPTY)
    if len(blocks) == 1:
        return SupportSet(mask, "Δ", KIND_FULL)
    if len(nontrivial) == 1 and len(nontrivial[0]) == 2:
        i, j = nontrivial[0]
        return SupportSet(mask, f"{{±α_{i}{j}}}", KIND_PAIR)
    label = "blocks " + "".join("{" + ",".join(map(str, b)) + "}" for b in blocks)
    return SupportSet(mask, label, KIND_BLOCK)


def make_support(rs: RootSystem, mask: int) -> SupportSet:
    """Attach a canonical label and kind to a mask.

    Each index's partners {i} ∪ {j : α_ij ∈ mask} are its candidate block; the
    mask is admissible exactly when those blocks rebuild it.  Any other mask
    is labelled by its positive roots and has kind `other`.
    """
    _check_mask(rs, mask)
    partners = {i: {i} for i in range(1, rs.n + 1)}
    idx = support_indices(mask)
    for k in idx:
        partners[rs.roots[k].i].add(rs.roots[k].j)
    support = _support_of_blocks(rs, sorted({tuple(sorted(p)) for p in partners.values()}))
    if support.mask == mask:
        return support
    pos = [rs.roots[k] for k in idx if rs.roots[k].i < rs.roots[k].j]
    label = "{" + ", ".join(f"±α_{r.i}{r.j}" for r in pos) + "}"
    return SupportSet(mask, label, KIND_OTHER)


def is_admissible(rs: RootSystem, R: SupportSet) -> bool:
    """True iff R is symmetric and addition-closed."""
    _check_mask(rs, R.mask)
    return is_symmetric_mask(rs, R.mask) and closure_of(rs, R.mask) == R.mask


def enumerate_symmetric_closed(rs: RootSystem) -> list[SupportSet]:
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
    found = [_support_of_blocks(rs, blocks) for blocks in _set_partitions(rs.n, rs.n, rs.n)]
    found.sort(key=lambda s: (s.mask.bit_count(), s.mask))
    return found


def enumerate_block_partitions(n: int) -> list[SupportSet]:
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
    rs = build_type_a(n)
    out: list[SupportSet] = []
    for k in range(1, n + 1):
        if n % k == 0:
            # n // k blocks of at most k elements hold all n only when every block
            # is full; the walk's order is not lexicographic, hence the sort
            out += [_support_of_blocks(rs, b) for b in sorted(_set_partitions(n, n // k, k))]
    return out
