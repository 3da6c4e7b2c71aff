"""The exact rational simplex core."""

import hashlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from haargap.simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    SimplexResult,
    solve_standard_form,
)
from util import brute_force_standard_form, row_rank


def test_empty_lp_is_the_empty_vertex():
    assert solve_standard_form([], [], []) == SimplexResult(STATUS_OPTIMAL, (), F(0), ())


def test_simple_bounded_lp():
    # max x + y s.t. x + y <= 1  ->  min -x - y with slack
    A = [[F(1), F(1), F(1)]]
    b = [F(1)]
    c = [F(-1), F(-1), F(0)]
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == -1
    assert res.x[0] + res.x[1] == 1


def test_two_constraint_lp():
    # min -2x - 3y s.t. x + y + s1 = 4, x + 3y + s2 = 6
    A = [[F(1), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]]
    b = [F(4), F(6)]
    c = [F(-2), F(-3), F(0), F(0)]
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == F(-9)  # x = 3, y = 1
    assert res.x[:2] == (F(3), F(1))


def test_equality_constraints_exact_fractions():
    # min x1/3 s.t. x1 + x2 = 1, x1 - x2 = 1/3  ->  x1 = 2/3
    A = [[F(1), F(1)], [F(1), F(-1)]]
    b = [F(1), F(1, 3)]
    c = [F(1, 3), F(0)]
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_OPTIMAL
    assert res.x == (F(2, 3), F(1, 3))
    assert res.objective == F(2, 9)


def test_infeasible_detected():
    # x = 2 and x = 1 simultaneously
    A = [[F(1)], [F(1)]]
    b = [F(2), F(1)]
    c = [F(0)]
    assert solve_standard_form(A, b, c).status == STATUS_INFEASIBLE


def test_unbounded_detected():
    # min -x s.t. x - s = 0 (x can grow without bound)
    A = [[F(1), F(-1)]]
    b = [F(0)]
    c = [F(-1), F(0)]
    assert solve_standard_form(A, b, c).status == STATUS_UNBOUNDED


def test_negative_rhs_rows_are_normalized():
    # -x - y = -1 encodes x + y = 1
    A = [[F(-1), F(-1)]]
    b = [F(-1)]
    c = [F(1), F(2)]
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 1 and res.x == (F(1), F(0))


def test_redundant_rows_are_dropped():
    A = [[F(1), F(1)], [F(2), F(2)]]
    b = [F(1), F(2)]
    c = [F(1), F(0)]
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 0 and res.x == (F(0), F(1))


def test_beale_cycling_example_terminates():
    # the classic tableau that cycles under the naive pivot choice
    A = [
        [F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)],
        [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
    ]
    b = [F(0), F(0), F(1)]
    c = [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)]
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == F(-1, 20)


def test_degenerate_vertex_is_deterministic():
    A = [[F(1), F(1), F(0)], [F(1), F(0), F(1)]]
    b = [F(1), F(1)]
    c = [F(-1), F(0), F(0)]
    first = solve_standard_form(A, b, c)
    second = solve_standard_form(A, b, c)
    assert first == second
    assert first.objective == -1


def test_objective_length_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_standard_form([[F(1)]], [F(1)], [F(1), F(2)])


def _corpus_lp(rng):
    """A small random standard-form LP; about a third each optimal, infeasible, unbounded."""
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    A = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(m)]
    b = [F(rng.randint(-4, 4)) for _ in range(m)]
    c = [F(rng.randint(-3, 3)) for _ in range(n)]
    if rng.random() < 0.4:
        # slack columns and a nonnegative right-hand side: x = 0 is feasible
        A = [row + [F(int(k == i)) for k in range(m)] for i, row in enumerate(A)]
        b = [abs(v) for v in b]
        c += [F(0)] * m
    if m > 1 and rng.random() < 0.3:
        # the last row repeats the first, rescaled, possibly by a negative factor
        s = F(rng.choice((-2, -1, 2, 3)), rng.choice((1, 2)))
        A[-1], b[-1] = [s * v for v in A[0]], s * b[0]
    if rng.random() < 0.3:
        b[rng.randrange(m)] = F(0)
    return A, b, c


# sha256 of every (status, x, objective, basis) on the seeded corpus below:
# any change in a pivot choice shows up here, if only in the basis
CORPUS_DIGEST = "b22e7420c4d24b45e2995285fcae79008b99a3a0c676ef18ab19debacfda2ec6"


def test_seeded_corpus_results_are_pinned():
    rng = random.Random(20260)
    corpus = [_corpus_lp(rng) for _ in range(300)]
    results = [solve_standard_form(A, b, c) for A, b, c in corpus]
    # the corpus covers every status, negative right-hand sides, dropped
    # redundant rows and degenerate vertices
    assert Counter(r.status for r in results) == {
        STATUS_INFEASIBLE: 105,
        STATUS_OPTIMAL: 100,
        STATUS_UNBOUNDED: 95,
    }
    pairs = list(zip(corpus, results))
    assert sum(any(v < 0 for v in b) for (_, b, _), _ in pairs) == 135
    optimal = [(A, r) for (A, _, _), r in pairs if r.status == STATUS_OPTIMAL]
    assert sum(len(r.basis) < len(A) for A, r in optimal) == 16
    assert sum(any(r.x[j] == 0 for j in r.basis) for _, r in optimal) == 30
    text = "\n".join(repr((r.status, r.x, r.objective, r.basis)) for r in results)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGEST


_entries = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _bounded_lps(draw):
    """Full-row-rank LPs whose region is bounded by an extra row sum(x) + s = K."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    A = [draw(st.lists(_entries, min_size=n, max_size=n)) + [F(0)] for _ in range(m)]
    A.append([F(1)] * (n + 1))
    b = draw(st.lists(st.integers(-4, 4).map(F), min_size=m, max_size=m))
    b.append(F(draw(st.integers(0, 5))))
    c = draw(st.lists(_entries, min_size=n + 1, max_size=n + 1))
    assume(row_rank(A) == m + 1)
    return A, b, c


@settings(max_examples=300, deadline=None)
@given(_bounded_lps())
def test_matches_column_basis_oracle(lp):
    A, b, c = lp
    status, optimum = brute_force_standard_form(A, b, c)
    res = solve_standard_form(A, b, c)
    assert res.status == status
    if status == STATUS_OPTIMAL:
        assert res.objective == optimum
        assert all(v >= 0 for v in res.x)
        for row, rhs in zip(A, b):
            assert sum(a * v for a, v in zip(row, res.x)) == rhs
        assert sum(cj * v for cj, v in zip(c, res.x)) == res.objective
