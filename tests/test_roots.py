"""Root system construction, evaluation and Weyl operations."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from haargap import supports
from haargap.supports import enumerate_symmetric_closed
from haargap.roots import (
    ROOT_SYSTEM_MAX_N,
    CapacityError,
    CartanElement,
    Root,
    RootSystem,
    build_type_a,
    cartan,
    dominant_representative,
    is_regular,
    weyl_orbit,
)
from util import (
    apply_permutation,
    closure_of,
    evaluate_root,
    negation,
    permute_root,
    random_permutation,
    random_trace_zero,
    root_vector,
)


@pytest.mark.parametrize("n,total,positive", [(2, 2, 1), (3, 6, 3), (4, 12, 6)])
def test_build_type_a_counts(n, total, positive):
    rs = build_type_a(n)
    assert len(rs.roots) == total
    assert len(rs.positive_indices) == positive
    assert rs.rank == n - 1


def test_build_type_a_rejects_small_n():
    with pytest.raises(ValueError):
        build_type_a(1)
    with pytest.raises(ValueError):
        build_type_a(0)


def test_roots_come_in_pairs_and_positivity_convention():
    rs = build_type_a(4)
    for k, r in enumerate(rs.roots):
        neg = rs.roots[negation(rs)[k]]
        assert (neg.i, neg.j) == (r.j, r.i)
        assert all(a == -b for a, b in zip(root_vector(rs, neg), root_vector(rs, r)))
    for k in rs.positive_indices:
        assert rs.roots[k].i < rs.roots[k].j


def test_root_order_is_lexicographic():
    rs = build_type_a(3)
    assert [(r.i, r.j) for r in rs.roots] == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
    ]


def test_evaluate_root_examples():
    rs = build_type_a(3)
    assert evaluate_root(rs, Root(1, 2), cartan(2, -1, -1)) == 3
    rs4 = build_type_a(4)
    assert evaluate_root(rs4, Root(1, 2), cartan(3, -1, -1, -1)) == 4


def test_evaluate_root_antisymmetry():
    rs = build_type_a(4)
    neg = negation(rs)
    rng = random.Random(7)
    for _ in range(25):
        X = random_trace_zero(rng, 4)
        for k, r in enumerate(rs.roots):
            assert evaluate_root(rs, r, X) == -evaluate_root(rs, rs.roots[neg[k]], X)


def test_evaluate_root_dimension_mismatch():
    rs = build_type_a(3)
    with pytest.raises(ValueError):
        evaluate_root(rs, Root(1, 2), cartan(1, -1))


def test_cartan_element_requires_zero_trace():
    with pytest.raises(ValueError, match="trace 3"):
        cartan(1, 1, 1)


def test_weyl_orbit_examples():
    orbit = weyl_orbit(cartan(2, -1, -1))
    coords = {o.coords for o in orbit}
    assert coords == {
        (Fraction(2), Fraction(-1), Fraction(-1)),
        (Fraction(-1), Fraction(2), Fraction(-1)),
        (Fraction(-1), Fraction(-1), Fraction(2)),
    }
    assert len(weyl_orbit(cartan(3, -1, -1, -1))) == 4
    assert len(weyl_orbit(cartan(0, 0, 0))) == 1


def test_weyl_orbit_deterministic_and_deduplicated():
    X = cartan(1, 1, -2)
    assert weyl_orbit(X) == weyl_orbit(X)
    orbit = weyl_orbit(X)
    assert len(set(orbit)) == len(orbit) == 3


def _orbit_oracle(X):
    return tuple(CartanElement(p) for p in sorted(set(permutations(X.coords)), reverse=True))


@pytest.mark.parametrize("n", range(2, 8))
def test_weyl_orbit_matches_permutation_oracle(n):
    # few distinct values force repeated coordinates; the mean shift makes
    # them rational and negative
    rng = random.Random(n)
    cases = [cartan(n - 1, *([-1] * (n - 1))), CartanElement((Fraction(0),) * n)]
    for k in range(12):
        pool = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(1 + k % 3)]
        coords = [rng.choice(pool) for _ in range(n)]
        mean = sum(coords, Fraction(0)) / n
        cases.append(CartanElement(tuple(c - mean for c in coords)))
    for X in cases:
        orbit = weyl_orbit(X)
        assert orbit == _orbit_oracle(X)
        assert all(type(c) is Fraction for Y in orbit for c in Y.coords)
        assert orbit[0] == dominant_representative(X)


def test_dominant_representative():
    assert dominant_representative(cartan(-1, -1, 2)).coords == cartan(2, -1, -1).coords
    assert dominant_representative(cartan(-1, 3, -1, -1)).coords == cartan(3, -1, -1, -1).coords
    # idempotent and orbit-preserving
    rng = random.Random(11)
    for _ in range(25):
        X = random_trace_zero(rng, 4)
        dom = dominant_representative(X)
        assert dominant_representative(dom) == dom
        assert dom in weyl_orbit(X)


def test_dominant_makes_positive_roots_nonnegative():
    rs = build_type_a(5)
    rng = random.Random(13)
    for _ in range(20):
        dom = dominant_representative(random_trace_zero(rng, 5))
        assert all(evaluate_root(rs, r, dom) >= 0 for r in rs.positive_roots())


def test_is_regular():
    assert not is_regular(cartan(2, -1, -1))
    assert is_regular(cartan(2, 1, -3))
    assert not is_regular(cartan(0, 0))


def test_weyl_equivariance():
    rs = build_type_a(4)
    rng = random.Random(3)
    for _ in range(20):
        X = random_trace_zero(rng, 4)
        perm = random_permutation(rng, 4)
        wX = apply_permutation(X, perm)
        for r in rs.roots:
            assert evaluate_root(rs, permute_root(rs, r, perm), wX) == evaluate_root(rs, r, X)


@pytest.mark.parametrize("n", range(2, 9))
def test_positive_root_sum_is_twice_rho(n):
    # coordinate k of the sum of all positive roots is n + 1 - 2k (1-based k)
    rs = build_type_a(n)
    total = [Fraction(0)] * n
    for r in rs.positive_roots():
        total = [a + b for a, b in zip(total, root_vector(rs, r))]
    assert total == [Fraction(n + 1 - 2 * k) for k in range(1, n + 1)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_root_addition_closure_table(n):
    # alpha + beta is a root iff the index pairs chain; checked by raw vector
    # sums, and the closure of {alpha, beta} adds exactly that root
    rs = build_type_a(n)
    vectors = {root_vector(rs, r): k for k, r in enumerate(rs.roots)}
    for a, ra in enumerate(rs.roots):
        for b, rb in enumerate(rs.roots):
            vec = tuple(x + y for x, y in zip(root_vector(rs, ra), root_vector(rs, rb)))
            expected = vectors.get(vec)
            chained = (ra.j == rb.i and ra.i != rb.j) or (rb.j == ra.i and rb.i != ra.j)
            assert (expected is not None) == chained
            pair = (1 << a) | (1 << b)
            added = 0 if expected is None else 1 << expected
            assert closure_of(rs, pair) == pair | added


def test_build_type_a_dimension_limit():
    # one past the limit fails, with the error class the support enumerators raise
    assert supports.CapacityError is CapacityError
    assert len(build_type_a(ROOT_SYSTEM_MAX_N).roots) == 64 * 63
    with pytest.raises(CapacityError, match="n <= 64"):
        build_type_a(ROOT_SYSTEM_MAX_N + 1)


def test_root_system_is_built_from_n_alone():
    # RootSystem takes no roots from its caller, so its limits hold however
    # it is built: n = 9's 36 positive roots are refused by the generic walk
    with pytest.raises(ValueError, match="n >= 2"):
        RootSystem(1)
    with pytest.raises(CapacityError, match="n <= 64"):
        RootSystem(ROOT_SYSTEM_MAX_N + 1)
    with pytest.raises(CapacityError, match="36 positive roots"):
        enumerate_symmetric_closed(RootSystem(9))
    rs = RootSystem(4)
    assert (rs.n, rs.rank, rs.roots) == (4, 3, build_type_a(4).roots)
