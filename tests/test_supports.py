"""Support enumeration: symmetric closed sets and block partitions."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haargap import supports
from haargap.roots import build_type_a, cartan
from haargap.supports import (
    BlockPartitions,
    CapacityError,
    enumerate_block_partitions,
    enumerate_symmetric_closed,
)
from util import (
    SupportSet,
    closure_of,
    component_entropy_cap,
    full_mask,
    is_admissible,
    is_symmetric_mask,
    make_support,
    mask_of,
    pair_mask,
    recursive_partitions,
    root_indices,
    support_indices,
)


def _index_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _is_closed(members: set) -> bool:
    """Closed under root addition: (e_a - e_b) + (e_b - e_d) is a root when a != d."""
    return all(
        (a, d) in members for (a, b) in members for (c, d) in members if b == c and a != d
    )


def independent_symmetric_closed_masks(n: int) -> list[int]:
    """Brute-force filter over all symmetric masks, built from raw vectors only.

    Pairs are indexed in lexicographic (i, j) order and the masks sorted by
    root count then value, the order enumerate_symmetric_closed promises.
    """
    pairs = _index_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    found = []
    positives = [(i, j) for (i, j) in pairs if i < j]
    for keep in itertools.product((0, 1), repeat=len(positives)):
        chosen = {p for p, flag in zip(positives, keep) if flag}
        members = set()
        for i, j in chosen:
            members.add((i, j))
            members.add((j, i))
        if _is_closed(members):
            found.append(sum(1 << index[p] for p in members))
    return sorted(found, key=lambda m: (m.bit_count(), m))


def test_a2_supports_exactly_five():
    rs = build_type_a(3)
    got = enumerate_symmetric_closed(rs.n)
    expected_masks = [
        0,
        pair_mask(rs, 1, 2),
        pair_mask(rs, 1, 3),
        pair_mask(rs, 2, 3),
        full_mask(rs),
    ]
    assert [mask_of(s) for s in got] == sorted(expected_masks, key=lambda m: (m.bit_count(), m))
    assert [s.label for s in got] == ["∅", "{±α_12}", "{±α_13}", "{±α_23}", "Δ"]
    assert [s.kind for s in got] == ["empty", "pair", "pair", "pair", "full"]


def test_a1_supports():
    got = enumerate_symmetric_closed(2)
    assert [s.label for s in got] == ["∅", "Δ"]


def test_a3_supports_fifteen_with_structure():
    got = enumerate_symmetric_closed(4)
    assert len(got) == 15
    kinds = [s.kind for s in got]
    assert kinds.count("empty") == 1
    assert kinds.count("pair") == 6
    assert kinds.count("block-partition") == 7  # three 2+2 and four 3+1
    assert kinds.count("full") == 1
    sizes = sorted(len(support_indices(mask_of(s))) for s in got)
    assert sizes == [0] + [2] * 6 + [4] * 3 + [6] * 4 + [12]


@pytest.mark.parametrize("n,bell", [(2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
def test_symmetric_closed_counts_are_bell_numbers(n, bell):
    # admissible supports correspond to set partitions of {1..n}: i ~ j iff
    # the pair ±α_ij lies in R (symmetry + closure give transitivity)
    assert len(enumerate_symmetric_closed(n)) == bell


@pytest.mark.parametrize("n", range(2, 7))
def test_symmetric_closed_matches_independent_filter(n):
    got = [mask_of(s) for s in enumerate_symmetric_closed(n)]
    assert got == independent_symmetric_closed_masks(n)


def test_enumeration_is_deterministic_and_ordered():
    a = enumerate_symmetric_closed(4)
    b = enumerate_symmetric_closed(4)
    assert a == b
    keys = [(m.bit_count(), m) for m in map(mask_of, a)]
    assert keys == sorted(keys)
    assert a[0].label == "∅" and a[-1].label == "Δ"


def test_capacity_error_names_limit():
    with pytest.raises(CapacityError, match="limit of 6"):
        enumerate_symmetric_closed(7)


def test_block_partitions_small_n():
    assert [s.label for s in enumerate_block_partitions(3)] == ["∅", "Δ"]
    got4 = tuple(enumerate_block_partitions(4))
    assert len(got4) == 5
    assert [s.kind for s in got4] == ["empty"] + ["block-partition"] * 3 + ["full"]
    labels = [s.label for s in got4[1:4]]
    assert labels == ["blocks {1,2}{3,4}", "blocks {1,3}{2,4}", "blocks {1,4}{2,3}"]
    got6 = enumerate_block_partitions(6)
    assert len(got6) == 27


@pytest.mark.parametrize("n", range(2, 13))
def test_block_partition_counts_match_formula(n):
    got = enumerate_block_partitions(n)
    by_block_count = {}
    for s in got:
        per_index = len(support_indices(mask_of(s))) // n
        k = per_index + 1  # block size: each index sees k-1 partners, two roots each
        by_block_count[k] = by_block_count.get(k, 0) + 1
    total = 0
    for k in range(1, n + 1):
        if n % k:
            assert k not in by_block_count
            continue
        l = n // k
        expected = math.factorial(n) // (math.factorial(k) ** l * math.factorial(l))
        assert by_block_count[k] == expected
        total += expected
    assert len(got) == total
    # within each block size the block lists come out in lexicographic order
    block_lists: dict[int, list] = {}
    for s in got:
        if s.kind == "block-partition":
            text = s.label.removeprefix("blocks {").removesuffix("}")
            blocks = [tuple(map(int, b.split(","))) for b in text.split("}{")]
            block_lists.setdefault(len(blocks[0]), []).append(blocks)
    for seq in block_lists.values():
        assert seq == sorted(seq)


@pytest.mark.parametrize(
    "walk, count, calls, yields",
    [
        (lambda: enumerate_symmetric_closed(6), 203, 203, 674),
        (lambda: BlockPartitions(12), 32_034, 38_077, 142_232),
    ],
    ids=["generic-6", "inner-12"],
)
def test_partition_walk_work_counts_are_pinned(monkeypatch, walk, count, calls, yields):
    # calls: the walk's generators; yields: the partitions they pass up, summed
    # over the recursion's levels.  A count that moves is a change in the work
    # of the walk: fix the regression or re-pin it as a golden
    work, partitions = [0, 0], supports._partitions

    def counting(rest, splits, prefix):
        work[0] += 1
        for p in partitions(rest, splits, prefix):
            work[1] += 1
            yield p

    monkeypatch.setattr(supports, "_partitions", counting)
    assert sum(1 for _ in walk()) == count
    assert tuple(work) == (calls, yields)


@pytest.mark.parametrize("n", range(2, 13))
def test_block_partition_walk_matches_the_recursive_oracle(n):
    elements = tuple(range(1, n + 1))
    oracle = [p for k in range(1, n + 1) if n % k == 0
              for p in recursive_partitions(elements, (k,), ())]
    got = list(BlockPartitions(n))
    assert got == oracle
    assert all(type(p) is supports.Partition for p in got)


@pytest.mark.parametrize("n", range(2, 7))
def test_generic_partition_walk_matches_the_recursive_oracle(n):
    sizes = range(1, n + 1)
    oracle = list(recursive_partitions(tuple(sizes), sizes, ()))
    walk = supports._partitions(tuple(sizes), supports._split_table(sizes, sizes), ())
    assert list(walk) == oracle
    oracle.sort(key=supports._roots_descending)
    assert enumerate_symmetric_closed(n) == oracle


@pytest.mark.parametrize("n", range(2, 13))
def test_block_partitions_len_is_the_walk_length_and_each_walk_repeats(n):
    walk = enumerate_block_partitions(n)
    assert len(walk) == sum(1 for _ in walk)
    assert list(walk) == list(walk)


def test_a_second_walk_builds_no_split_table():
    # the tables depend only on the lengths and block sizes, so they are
    # built once and every later walk of the same n reads them
    first = list(BlockPartitions(9))
    misses = supports._split_table.cache_info().misses
    assert list(BlockPartitions(9)) == first
    assert supports._split_table.cache_info().misses == misses


def test_block_partitions_input_validation():
    with pytest.raises(ValueError):
        enumerate_block_partitions(1)
    with pytest.raises(CapacityError, match="12"):
        enumerate_block_partitions(13)


@pytest.mark.parametrize("walk, limit", [(enumerate_symmetric_closed, 6),
                                         (enumerate_block_partitions, 12)],
                         ids=["generic", "inner"])
def test_each_walk_refuses_n_outside_two_to_its_limit(walk, limit):
    # one shared check: ValueError below 2, CapacityError one past the limit
    with pytest.raises(ValueError, match="need n >= 2"):
        walk(1)
    with pytest.raises(CapacityError, match=f"enumeration limit of {limit}$"):
        walk(limit + 1)
    assert len(walk(limit)) > 0


def test_block_partitions_checks_its_limits_when_made():
    # made directly, the walk is refused as through enumerate_block_partitions
    with pytest.raises(ValueError, match="need n >= 2"):
        BlockPartitions(1)
    with pytest.raises(CapacityError, match="limit of 12"):
        BlockPartitions(13)


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_block_partitions_prime_n(n):
    assert [s.label for s in enumerate_block_partitions(n)] == ["∅", "Δ"]


@pytest.mark.parametrize("n", range(2, 8))
def test_block_partitions_are_admissible(n):
    rs = build_type_a(n)
    for s in enumerate_block_partitions(n):
        assert is_admissible(rs, s)


@pytest.mark.parametrize("n", range(2, 7))
def test_block_partitions_subset_of_generic(n):
    # exactly the generic supports in which every index has the same number of partners
    rs = build_type_a(n)
    uniform = set()
    for s in enumerate_symmetric_closed(rs.n):
        partners = [0] * (n + 1)
        for k in support_indices(mask_of(s)):
            partners[rs.roots[k].i] += 1
        if len(set(partners[1:])) == 1:
            uniform.add(mask_of(s))
    assert {mask_of(s) for s in enumerate_block_partitions(n)} == uniform


def test_is_admissible_examples():
    rs3 = build_type_a(3)
    not_closed = make_support(rs3, pair_mask(rs3, 1, 2) | pair_mask(rs3, 1, 3))
    assert not is_admissible(rs3, not_closed)
    rs4 = build_type_a(4)
    two_pairs = make_support(rs4, pair_mask(rs4, 1, 2) | pair_mask(rs4, 3, 4))
    assert is_admissible(rs4, two_pairs)
    lone = make_support(rs3, 1 << root_indices(rs3)[(1, 2)])
    assert not is_admissible(rs3, lone)


def test_is_admissible_rejects_out_of_range_mask():
    rs = build_type_a(3)
    with pytest.raises(ValueError):
        is_admissible(rs, SupportSet(1 << 10, "bogus", "other"))


@pytest.mark.parametrize("mask", [-1, -(1 << 6), 1 << 6, 1 << 10])
def test_masks_outside_the_root_system_are_refused(mask):
    rs = build_type_a(3)  # six roots: the masks that fit are 0 .. 2^6 - 1
    bogus = SupportSet(mask, "bogus", "other")
    X = cartan(1, 0, -1)
    calls = [
        lambda: make_support(rs, mask),
        lambda: closure_of(rs, mask),
        lambda: is_symmetric_mask(rs, mask),
        lambda: is_admissible(rs, bogus),
        lambda: component_entropy_cap(rs, bogus, X),
        lambda: component_entropy_cap(rs, mask, X),
    ]
    if mask < 0:
        calls.append(lambda: support_indices(mask))
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_closure_fixpoint():
    rs = build_type_a(4)
    for s in enumerate_symmetric_closed(rs.n):
        assert closure_of(rs, mask_of(s)) == mask_of(s)
    # and closures of arbitrary masks are themselves closed
    probe = pair_mask(rs, 1, 2) | pair_mask(rs, 2, 3)
    closed = closure_of(rs, probe)
    assert closed != probe
    assert closure_of(rs, closed) == closed


def test_make_support_labels_unicode_cases():
    rs = build_type_a(4)
    three_one = enumerate_symmetric_closed(rs.n)[10]
    assert three_one.kind == "block-partition"
    assert three_one.label.startswith("blocks {")
    pair = make_support(rs, pair_mask(rs, 2, 4))
    assert (pair.kind, pair.label) == ("pair", "{±α_24}")
    assert make_support(rs, mask_of(three_one)) == three_one
    two_pairs = make_support(rs, pair_mask(rs, 1, 3) | pair_mask(rs, 2, 4))
    assert (two_pairs.kind, two_pairs.label) == ("block-partition", "blocks {1,3}{2,4}")
    rs3 = build_type_a(3)
    other = make_support(rs3, pair_mask(rs3, 1, 2) | pair_mask(rs3, 1, 3))
    assert (other.kind, other.label) == ("other", "{±α_12, ±α_13}")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1)) - 1))
    )
)
def test_closure_and_admissibility_match_raw_vectors(case):
    n, mask = case
    rs = build_type_a(n)
    pairs = _index_pairs(n)
    members = {p for k, p in enumerate(pairs) if mask >> k & 1}
    closed = closure_of(rs, mask)
    closure = {p for k, p in enumerate(pairs) if closed >> k & 1}
    assert members <= closure and _is_closed(closure)
    # smallest: every added pair is forced, in some order, by pairs already present
    derived = set(members)
    pending = closure - members
    while pending:
        forced = {
            (a, d)
            for (a, d) in pending
            if any((a, b) in derived and (b, d) in derived for b in range(1, n + 1))
        }
        assert forced, f"pairs {sorted(pending)} are not forced by {sorted(members)}"
        derived |= forced
        pending -= forced
    symmetric = all((j, i) in members for i, j in members)
    assert is_admissible(rs, SupportSet(mask, "probe", "other")) == (symmetric and _is_closed(members))
