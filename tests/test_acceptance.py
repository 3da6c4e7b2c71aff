"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All rational assertions are exact (zero tolerance); the numerical criteria use
the tolerances fixed in haargap.cotlar_stein.TOLERANCES.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

from haargap.cotlar_stein import (
    TOLERANCES,
    MatrixFamily,
    OscillatoryProblem,
    cotlar_bound_check,
    orthogonal_projector_family,
    oscillatory_decay,
    seeded_family_corpus,
    smooth_bump,
)
from haargap.entropy import (
    conjectured_entropy_bound,
    entropy_lower_bound,
    fast_slow_split,
    haar_entropy,
    lyapunov_spectrum,
)
from haargap.rigidity import (
    extremal_vertex_report,
    inner_weight_formula,
    min_haar_weight,
    solve_min_haar,
)
from haargap.roots import build_type_a, cartan, weyl_orbit
from haargap.supports import enumerate_block_partitions, enumerate_symmetric_closed
from util import (
    apply_permutation,
    brute_force_lp_minimum,
    full_mask,
    mask_of,
    pair_mask,
    random_permutation,
    random_trace_zero,
    scaled,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {title}")


def test_criterion_1_sl3_generic_quarter():
    with criterion(1, "SL_3 generic min Haar weight is exactly 1/4 in under 1 s"):
        start = time.perf_counter()
        value = min_haar_weight(3, "generic", F(1, 2))
        elapsed = time.perf_counter() - start
        assert value == F(1, 4)
        assert elapsed < 1.0


def test_criterion_2_inner_type_closed_form():
    with criterion(2, "inner type n=3..12 matches ((n+1)/2 - t)/(n - t) in under 10 s"):
        start = time.perf_counter()
        for n in range(3, 13):
            assert min_haar_weight(n, "inner", F(1, 2)) == inner_weight_formula(n)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_3_sl4_optimum_2eps_and_vertex():
    with criterion(3, "SL_4 generic optimum is 2ε; at ε=0 the four 3+1 blocks carry 1/4 each"):
        for eps in (F(0), F(1, 100), F(1, 20), F(1, 10)):
            assert min_haar_weight(4, "generic", F(1, 2) + eps) == 2 * eps
        _, _, solution = solve_min_haar(4, "generic", F(1, 2))
        entries = extremal_vertex_report(solution)
        assert solution.optimum == 0
        assert len(entries) == 4
        assert all(kind == "block-partition" and w == F(1, 4) for _, kind, w in entries)
        three_one = {
            "blocks {1,2,3}{4}", "blocks {1,2,4}{3}", "blocks {1,3,4}{2}", "blocks {1}{2,3,4}",
        }
        assert {label for label, _, _ in entries} == three_one


def test_criterion_4_sl3_refined_three_halves_eps():
    with criterion(4, "SL_3 at β = 1/3 + ε gives optimum exactly (3/2)ε"):
        for eps in (F(1, 30), F(1, 12)):
            assert min_haar_weight(3, "generic", F(1, 3) + eps) == F(3, 2) * eps


def test_criterion_5_entropy_property_suite():
    with criterion(5, "entropy properties hold exactly on 200 random X per n in {3,4,5}"):
        rng = random.Random(2025)
        for n in (3, 4, 5):
            rs = build_type_a(n)
            for _ in range(200):
                X = random_trace_zero(rng, n)
                wX = apply_permutation(X, random_permutation(rng, n))
                assert entropy_lower_bound(rs, wX) == entropy_lower_bound(rs, X)
                assert haar_entropy(rs, wX) == haar_entropy(rs, X)
                c = F(rng.randint(1, 10), rng.randint(1, 10))
                assert entropy_lower_bound(rs, scaled(X, c)) == c * entropy_lower_bound(rs, X)
                assert haar_entropy(rs, scaled(X, c)) == c * haar_entropy(rs, X)
                assert entropy_lower_bound(rs, X) <= haar_entropy(rs, X)
                if not X.is_zero():
                    spec = lyapunov_spectrum(rs, X)
                    assert entropy_lower_bound(rs, X) >= spec.chi_max / 2 > 0
                    E = fast_slow_split(spec, 1 / spec.chi_max).dispersive_exponent
                    assert E * spec.chi_max == entropy_lower_bound(rs, X)
            extreme = cartan(n - 1, *([-1] * (n - 1)))
            for orbit_elem in weyl_orbit(extreme):
                assert entropy_lower_bound(rs, orbit_elem) == conjectured_entropy_bound(
                    rs, orbit_elem
                )


def test_criterion_6_support_enumeration():
    with criterion(6, "A_2 five supports; A_3 matches the 64-mask filter; block counts match"):
        rs3 = build_type_a(3)
        got = enumerate_symmetric_closed(rs3.n)
        expected = {0, pair_mask(rs3, 1, 2), pair_mask(rs3, 1, 3), pair_mask(rs3, 2, 3), full_mask(rs3)}
        assert {mask_of(s) for s in got} == expected and len(got) == 5

        rs4 = build_type_a(4)
        independent = _independent_closure_filter_count(rs4)
        assert len(enumerate_symmetric_closed(rs4.n)) == independent == 15

        for n in range(2, 13):
            counts = {}
            for s in enumerate_block_partitions(n):
                size = mask_of(s).bit_count()
                counts[size] = counts.get(size, 0) + 1
            for k in range(1, n + 1):
                if n % k:
                    continue
                l = n // k
                expected_count = math.factorial(n) // (math.factorial(k) ** l * math.factorial(l))
                size = l * k * (k - 1)  # roots in a k-block support
                assert counts.get(size, 0) == expected_count, (n, k)


def _independent_closure_filter_count(rs) -> int:
    # scan all 2^|Δ⁺| symmetric masks, filtering by raw vector-sum closure
    import itertools

    pos = [rs.roots[k] for k in rs.positive_indices]
    count = 0
    for keep in itertools.product((0, 1), repeat=len(pos)):
        members = set()
        for flag, r in zip(keep, pos):
            if flag:
                members.add((r.i, r.j))
                members.add((r.j, r.i))
        ok = True
        for (a, b) in members:
            for (c, d) in members:
                summed = None
                if b == c and a != d:
                    summed = (a, d)
                elif d == a and c != b:
                    summed = (c, b)
                if summed is not None and summed not in members:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_criterion_7_lp_oracle_equivalence():
    with criterion(7, "simplex equals brute-force vertex enumeration on ≤6-variable instances"):
        instances = [
            solve_min_haar(3, "generic", F(1, 2)),
            solve_min_haar(3, "generic", F(1, 3) + F(1, 30)),
            solve_min_haar(3, "generic", F(1, 3) + F(1, 12)),
            solve_min_haar(3, "inner", F(1, 2)),
            solve_min_haar(4, "inner", F(1, 2)),
            solve_min_haar(5, "inner", F(1, 2)),
            solve_min_haar(7, "inner", F(1, 2)),
            solve_min_haar(11, "inner", F(1, 2)),
        ]
        for _, model, solution in instances:
            assert len(model.group_of) <= 6  # variables of the ungrouped LP
            assert brute_force_lp_minimum(model) == solution.optimum


def test_criterion_8_cotlar_stein_numeric_suite():
    with criterion(8, "50 seeded families satisfy the bound; degenerate cases tight; under 5 s"):
        start = time.perf_counter()
        families = seeded_family_corpus(0)
        assert len(families) == 50
        for fam in families:
            assert len(fam.members) <= 12
            assert max(fam.shape) <= 16
            check = cotlar_bound_check(fam)
            assert check.lhs <= max(check.R1, check.R2) * (1.0 + 1e-8)

        single = cotlar_bound_check(MatrixFamily.random_gaussian(1, 8, 8, seed=1))
        scale = max(single.lhs, 1.0)
        assert abs(single.lhs - max(single.R1, single.R2)) <= 1e-9 * scale

        proj = cotlar_bound_check(orthogonal_projector_family(4, 2))
        assert abs(proj.lhs - 1.0) <= 1e-9
        assert abs(max(proj.R1, proj.R2) - 1.0) <= 1e-9

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0


def test_criterion_9_oscillatory_slopes():
    with criterion(9, "non-stationary slope ≥ 2.0; stationary control slope in [0.4, 0.6]"):
        hbars = tuple(float(h) for h in np.logspace(-1, -3, 9))
        problem = OscillatoryProblem.from_functions(lambda x: x, smooth_bump)
        assert problem.hbar_values == hbars
        nonstationary = oscillatory_decay(problem)
        assert min(hbars) >= 1e-3 and max(hbars) <= 1e-1
        assert nonstationary.fitted_slope >= 2.0
        stationary = oscillatory_decay(
            OscillatoryProblem.from_functions(lambda x: x**2 / 2.0, smooth_bump)
        )
        assert 0.4 <= stationary.fitted_slope <= 0.6
