"""Lyapunov spectra, entropy bounds and the dispersive exponent."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from haargap.entropy import (
    conjectured_entropy_bound,
    entropy_lower_bound,
    fast_slow_split,
    haar_entropy,
    lyapunov_spectrum,
)
from haargap.roots import (
    CartanElement,
    apply_permutation,
    build_type_a,
    cartan,
    dominant_representative,
    weyl_orbit,
)
from haargap.supports import Partition
from util import component_entropy_cap, make_support, random_permutation, random_trace_zero


def pair_support(rs, i, j):
    return make_support(rs, rs.pair_mask(i, j))


def full_support(rs):
    return make_support(rs, rs.full_mask())


def empty_support(rs):
    return make_support(rs, 0)


def test_lyapunov_spectrum_examples():
    rs = build_type_a(3)
    spec = lyapunov_spectrum(rs, cartan(2, -1, -1))
    assert spec.values == (Fraction(0), Fraction(3), Fraction(3))
    assert spec.chi_max == 3
    rs4 = build_type_a(4)
    spec4 = lyapunov_spectrum(rs4, cartan(3, -1, -1, -1))
    assert spec4.values == (0, 0, 0, 4, 4, 4)
    assert spec4.chi_max == 4
    zero = lyapunov_spectrum(rs, cartan(0, 0, 0))
    assert zero.values == (0, 0, 0) and zero.chi_max == 0


def test_lyapunov_spectrum_dominantizes_and_sizes():
    rs = build_type_a(4)
    spec = lyapunov_spectrum(rs, cartan(-1, 3, -1, -1))
    assert spec.direction.coords == cartan(3, -1, -1, -1).coords
    assert spec.J == 6 == len(rs.positive_indices)
    assert all(v >= 0 for v in spec.values)
    assert list(spec.values) == sorted(spec.values)


def test_haar_entropy_examples():
    rs = build_type_a(3)
    assert haar_entropy(rs, cartan(1, 1, -2)) == 6
    for n in range(2, 9):
        rsn = build_type_a(n)
        X = cartan(n - 1, *([-1] * (n - 1)))
        assert haar_entropy(rsn, X) == n * (n - 1)
    assert haar_entropy(rs, cartan(0, 0, 0)) == 0


def test_entropy_lower_bound_examples():
    rs = build_type_a(3)
    assert entropy_lower_bound(rs, cartan(2, -1, -1)) == 3
    assert entropy_lower_bound(rs, cartan(2, -1, -1)) == haar_entropy(rs, cartan(2, -1, -1)) / 2
    rs4 = build_type_a(4)
    assert entropy_lower_bound(rs4, cartan(3, -1, -1, -1)) == 6
    assert entropy_lower_bound(rs, cartan(0, 0, 0)) == 0


def test_entropy_lower_bound_keeps_ties():
    # spectrum (0, 1, 1, 2, 2, 2) on A_3: threshold 1, ties at 1 are kept
    rs = build_type_a(4)
    X = cartan(1, 0, 0, -1)
    assert lyapunov_spectrum(rs, X).values == (0, 1, 1, 1, 1, 2)
    assert entropy_lower_bound(rs, X) == (1 - 1) * 4 + (2 - 1)  # kept ties contribute zero


def test_component_entropy_cap_examples():
    rs = build_type_a(3)
    X = cartan(1, 1, -2)
    assert component_entropy_cap(rs, pair_support(rs, 1, 3), X) == 3
    assert component_entropy_cap(rs, pair_support(rs, 1, 2), X) == 0
    assert component_entropy_cap(rs, empty_support(rs), X) == 0


def test_component_entropy_cap_is_orbit_resolved():
    # the cap is evaluated at X as given, not at its dominant representative
    rs = build_type_a(3)
    R = pair_support(rs, 2, 3)
    assert component_entropy_cap(rs, R, cartan(2, -1, -1)) == 0
    assert component_entropy_cap(rs, R, cartan(-1, 2, -1)) == 3


def test_component_entropy_cap_range_check():
    rs = build_type_a(3)
    bad = make_support(build_type_a(4), build_type_a(4).full_mask())
    with pytest.raises(ValueError):
        component_entropy_cap(rs, bad, cartan(1, 0, -1))


def test_component_entropy_cap_refuses_a_partition_of_another_n():
    rs = build_type_a(4)
    X = cartan(3, -1, -1, -1)
    assert component_entropy_cap(rs, Partition(((1, 2, 3), (4,))), X) == 8
    # {1,2,3} alone partitions {1,2,3}; read over n = 3 its mask names other roots of n = 4
    for blocks in [((1, 2, 3),), ((1, 2), (3,), (5,))]:
        with pytest.raises(ValueError):
            component_entropy_cap(rs, Partition(blocks), X)


def test_fast_slow_split_examples():
    spec = lyapunov_spectrum(build_type_a(3), cartan(2, -1, -1))
    split = fast_slow_split(spec, Fraction(1, 3))
    assert split.threshold == Fraction(3, 2)
    assert split.slow_indices == (0,) and split.J0 == 1
    assert split.fast_indices == (1, 2)
    huge = fast_slow_split(spec, Fraction(10**9))
    assert spec.J == len(huge.slow_indices) + len(huge.fast_indices) == 3
    assert huge.fast_indices == (1, 2)  # the zero exponent stays slow
    tiny = fast_slow_split(spec, Fraction(1, 10**9))
    assert tiny.J0 == spec.J == 3 and tiny.fast_indices == ()


def test_fast_slow_split_rejects_nonpositive_K():
    spec = lyapunov_spectrum(build_type_a(3), cartan(2, -1, -1))
    for K in (0, Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="K must be positive"):
            fast_slow_split(spec, K)


def test_dispersive_exponent_examples():
    spec = lyapunov_spectrum(build_type_a(3), cartan(2, -1, -1))
    assert fast_slow_split(spec, Fraction(1, 3)).dispersive_exponent == 1
    assert fast_slow_split(spec, Fraction(1, 10**9)).dispersive_exponent == 0


def test_bridge_identity_random_dominant():
    rng = random.Random(101)
    for n in (3, 4, 5):
        rs = build_type_a(n)
        count = 0
        while count < 20:
            X = dominant_representative(random_trace_zero(rng, n))
            if X.is_zero():
                continue
            count += 1
            spec = lyapunov_spectrum(rs, X)
            E = fast_slow_split(spec, 1 / spec.chi_max).dispersive_exponent
            assert E * spec.chi_max == entropy_lower_bound(rs, X)


def test_weyl_invariance_of_bounds():
    rng = random.Random(23)
    for n in (3, 4):
        rs = build_type_a(n)
        for _ in range(30):
            X = random_trace_zero(rng, n)
            wX = apply_permutation(X, random_permutation(rng, n))
            assert entropy_lower_bound(rs, wX) == entropy_lower_bound(rs, X)
            assert haar_entropy(rs, wX) == haar_entropy(rs, X)


def test_positive_homogeneity():
    rng = random.Random(29)
    rs = build_type_a(4)
    R = pair_support(rs, 1, 3)
    for _ in range(30):
        X = random_trace_zero(rng, 4)
        c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        cX = X.scaled(c)
        assert entropy_lower_bound(rs, cX) == c * entropy_lower_bound(rs, X)
        assert haar_entropy(rs, cX) == c * haar_entropy(rs, X)
        assert component_entropy_cap(rs, R, cX) == c * component_entropy_cap(rs, R, X)


def test_positivity_floor_and_ruelle_pesin():
    rng = random.Random(31)
    for n in (3, 4, 5):
        rs = build_type_a(n)
        for _ in range(30):
            X = random_trace_zero(rng, n)
            lb = entropy_lower_bound(rs, X)
            assert lb <= haar_entropy(rs, X)
            if not X.is_zero():
                chi_max = lyapunov_spectrum(rs, X).chi_max
                assert lb >= chi_max / 2 > 0


@pytest.mark.parametrize("n", range(2, 9))
def test_equal_exponent_sharpness(n):
    # all positive exponents equal: the proved bound meets the conjectured one
    rs = build_type_a(n)
    X = cartan(n - 1, *([-1] * (n - 1)))
    for orbit_elem in weyl_orbit(X):
        assert entropy_lower_bound(rs, orbit_elem) == conjectured_entropy_bound(rs, orbit_elem)


def test_cap_symmetry_and_full_cap():
    rng = random.Random(37)
    rs = build_type_a(4)
    pairs = [pair_support(rs, 1, 2), pair_support(rs, 2, 4), full_support(rs)]
    for _ in range(30):
        X = random_trace_zero(rng, 4)
        for R in pairs:
            assert component_entropy_cap(rs, R, X) == component_entropy_cap(rs, R, X.negated())
        assert component_entropy_cap(rs, full_support(rs), X) == haar_entropy(rs, X)


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=1000)


@st.composite
def rational_directions(draw):
    """Trace-zero directions, n = 2..8: generic, tied, zero or all equal but one."""
    n = draw(st.integers(2, 8))
    shape = draw(st.sampled_from(("generic", "tied", "zero", "all-but-one")))
    if shape == "zero":
        return CartanElement((0,) * n)
    if shape == "all-but-one":
        a = draw(RATIONALS)
        coords = [a] * (n - 1) + [-(n - 1) * a]
        return CartanElement(tuple(draw(st.permutations(coords))))
    if shape == "tied":
        pool = draw(st.lists(RATIONALS, min_size=1, max_size=max(1, n - 1)))
        head = draw(st.lists(st.sampled_from(pool), min_size=n - 1, max_size=n - 1))
    else:
        head = draw(st.lists(RATIONALS, min_size=n - 1, max_size=n - 1))
    return CartanElement((*head, -sum(head, Fraction(0))))


@settings(max_examples=400, deadline=None)
@given(X=rational_directions())
def test_integer_bounds_equal_the_root_by_root_oracles(X):
    rs = build_type_a(X.n)
    assert lyapunov_spectrum(rs, X) == util.lyapunov_spectrum(rs, X)
    assert haar_entropy(rs, X) == util.haar_entropy(rs, X)
    assert entropy_lower_bound(rs, X) == util.entropy_lower_bound(rs, X)


@pytest.mark.parametrize(
    "fn, oracle",
    [
        (lyapunov_spectrum, util.lyapunov_spectrum),
        (haar_entropy, util.haar_entropy),
        (entropy_lower_bound, util.entropy_lower_bound),
    ],
    ids=lambda f: f.__name__,
)
def test_dimension_mismatch_raises_the_oracles_error(fn, oracle):
    X = cartan(Fraction(1, 3), 0, Fraction(-1, 3))
    for n in (2, 4):
        rs = build_type_a(n)
        with pytest.raises(ValueError) as expected:
            oracle(rs, X)
        with pytest.raises(ValueError) as got:
            fn(rs, X)
        assert str(got.value) == str(expected.value)
