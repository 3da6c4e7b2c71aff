"""The exact rational simplex core."""

import hashlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import haargap.simplex as simplex
from haargap.rigidity import BOUND_HAAR_FRACTION, BOUND_MODES, solve_min_haar
from haargap.simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    SimplexResult,
    solve_standard_form,
)
from util import (
    brute_force_standard_form,
    explicit_artificial_standard_form,
    random_trace_zero,
    row_rank,
)


def test_empty_lp_is_the_empty_vertex():
    assert solve_standard_form([], [], []) == SimplexResult(STATUS_OPTIMAL, (), F(0), (), ())


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


def _unit_column_lp(pick):
    """A random LP whose rows get zero, one or two signed unit columns.

    pick(lo, hi) draws an integer in [lo, hi], so Hypothesis and a seeded
    Random share this generator.  A unit column is +e_i (a slack) or -e_i (a
    surplus), and a negative right-hand side negates its row, sign included.
    A redundant last row, a rescaled copy of the first, leaves the first row's
    unit columns with two entries.  The columns are shuffled, so the unit
    columns sit anywhere in Bland's order.
    """
    m, n = pick(1, 4), pick(1, 4)
    A = [[F(pick(-3, 3), pick(1, 3)) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        for _ in range(pick(0, 2)):
            sign = F(2 * pick(0, 1) - 1)
            for k, row in enumerate(A):
                row.append(sign if k == i else F(0))
    b = [F(pick(-4, 4)) for _ in range(m)]
    if m > 1 and not pick(0, 3):
        s = F(pick(1, 3) * (2 * pick(0, 1) - 1))
        A[-1], b[-1] = [s * v for v in A[0]], s * b[0]
    order = list(range(len(A[0])))
    for j in reversed(order[1:]):
        k = pick(0, j)
        order[j], order[k] = order[k], order[j]
    return [[row[j] for j in order] for row in A], b, [F(pick(-3, 3)) for _ in order]


def _unit_signs(A, b):
    """Each row's unit-column signs once rows with a negative right-hand side are negated."""
    signs = [[] for _ in A]
    for col in zip(*A):
        nonzero = [i for i, v in enumerate(col) if v]
        if len(nonzero) == 1 and abs(col[nonzero[0]]) == 1:
            i = nonzero[0]
            signs[i].append(-col[i] if b[i] < 0 else col[i])
    return signs


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_derived_artificials_match_explicit_reference(data):
    A, b, c = _unit_column_lp(lambda lo, hi: data.draw(st.integers(lo, hi)))
    assert solve_standard_form(A, b, c) == explicit_artificial_standard_form(A, b, c)


def test_derived_artificials_match_explicit_reference_on_a_seeded_sweep():
    rng = random.Random(28)
    corpus = [_unit_column_lp(rng.randint) for _ in range(800)]
    results = [solve_standard_form(A, b, c) for A, b, c in corpus]
    assert results == [explicit_artificial_standard_form(A, b, c) for A, b, c in corpus]
    # slack and surplus columns, negated rows among them, rows with two unit
    # columns and with none, dropped redundant rows, and re-entering artificials
    rows = [(bi, signs) for A, b, _ in corpus for bi, signs in zip(b, _unit_signs(A, b))]
    assert Counter(len(signs) for _, signs in rows) == {0: 824, 1: 562, 2: 571, 3: 52, 4: 8}
    assert Counter(v for _, signs in rows for v in signs) == {1: 981, -1: 911}
    assert sum(bi < 0 and bool(signs) for bi, signs in rows) == 531
    assert Counter(r.status for r in results) == {
        STATUS_INFEASIBLE: 326,
        STATUS_OPTIMAL: 190,
        STATUS_UNBOUNDED: 284,
    }
    assert sum(r.status == STATUS_OPTIMAL and len(r.basis) < len(A)
               for (A, _, _), r in zip(corpus, results)) == 23
    # an artificial (index >= n) enters only in phase 1, after leaving
    assert sum(any(col >= len(A[0]) for _, col in r.pivots) for (A, _, _), r in zip(corpus, results)) == 3


def test_an_artificial_read_off_a_unit_column_reenters():
    # once row 0 is negated every row has a signed unit column (row 1 two),
    # so phase 1 stores no artificial, yet a_1 (column 7 + 1) comes back into
    # the basis before phase 1 finds the LP infeasible
    A = [[F(v) for v in row.split()] for row in (
        "0 0 -1 -1 -2/3 0 -3/2",
        "-1 -1 2/3 0 -3 0 -1",
        "0 0 -1 0 0 -1 -3/2",
    )]
    b, c = [F(-3), F(0), F(4)], [F(v) for v in (2, 3, -1, -2, 3, -2, -2)]
    assert _unit_signs(A, b) == [[1], [-1, -1], [-1]]
    res = solve_standard_form(A, b, c)
    assert res == explicit_artificial_standard_form(A, b, c)
    assert res.status == STATUS_INFEASIBLE
    assert 7 + 1 in [col for _, col in res.pivots]


def test_a_repeated_basis_is_refused(monkeypatch):
    # a pivot that changes nothing keeps phase 1 at its first basis; past a
    # few calls the stand-in fails, so a missing guard fails, not hangs.  Its
    # rows hold 3 columns and b: +e_0 (row 0 negated) and -e_1 are read off
    widths = []

    def unchanged(T, basis, row, col, column):
        widths.append(len(T[row]))
        assert len(widths) <= 3, "the repeated basis was not refused"

    monkeypatch.setattr(simplex, "_pivot", unchanged)
    with pytest.raises(RuntimeError, match="revisited the basis"):
        solve_standard_form([[F(-1), F(2), F(0)], [F(0), F(1), F(-1)]], [F(-1), F(1)], [F(0)] * 3)
    assert widths == [3 + 1]


def test_a_reentering_derived_artificial_takes_each_reference_pivot():
    # a_3 is read off row 3's surplus column 4 (tau = -1) and re-enters at the
    # fourth pivot.  The whole pivot path is compared with the reference, so a
    # wrong entry in the entering column, its reduced cost included, fails
    # here, and one that makes phase 1 cycle fails on the repeated basis
    A = [[F(v) for v in row.split()] for row in (
        "0 1 0 -1/2 0 0 0 1/3 0",
        "0 -1/2 0 1 0 1 1 1 -1",
        "-1 1 -1 2 0 0 0 -3/2 3",
        "0 1/3 0 -1/2 -1 0 0 0 -1/2",
    )]
    b, c = [F(1), F(-4), F(4), F(0)], [F(v) for v in (-2, 2, 1, -2, 0, -2, 1, -2, 3)]
    assert _unit_signs(A, b) == [[], [-1, -1], [-1, -1], [-1]]
    expected = explicit_artificial_standard_form(A, b, c)
    assert expected.pivots == ((3, 1), (0, 3), (0, 8), (2, 9 + 3), (1, 0))
    assert expected.status == STATUS_INFEASIBLE
    assert solve_standard_form(A, b, c) == expected


_PIPELINE_BETAS = (F(1, 3), F(1, 2), F(2, 3), F(1))


def _pipeline_cases():
    """solve_min_haar's (n, lattice, beta, bound mode, directions) for 95 pipeline LPs.

    The default directions at generic n = 3..5 for every beta above in both
    bound modes, generic n = 6 and inner n = 3..12 at beta = 1/2, and 60
    seeded custom-direction LPs at generic n = 4..5 with 1 to 4 directions.
    """
    cases = [(n, "generic", beta, mode, None)
             for n in (3, 4, 5) for beta in _PIPELINE_BETAS for mode in BOUND_MODES]
    cases.append((6, "generic", F(1, 2), BOUND_HAAR_FRACTION, None))
    cases += [(n, "inner", F(1, 2), BOUND_HAAR_FRACTION, None) for n in range(3, 13)]
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(4, 5)
        directions = [random_trace_zero(rng, n) for _ in range(rng.randint(1, 4))]
        cases.append((n, "generic", rng.choice(_PIPELINE_BETAS), rng.choice(BOUND_MODES), directions))
    return cases


# sha256 of each pipeline LP's (row, entering column) pivot sequence, one LP
# a line: a rewrite of pricing or of the pivot that claims the same pivots
# must leave it as it is
PIVOT_PATH_DIGEST = "94baca95a78b922fa1ec2c4885fecce4e8bf5274ff5ea845eca3ade72e3b19a7"
PIVOT_PATH_PIVOTS = 1618


def test_pipeline_pivot_path_is_pinned(monkeypatch):
    results, solve = [], simplex.solve_standard_form
    monkeypatch.setattr(simplex, "solve_standard_form", lambda *lp: results.append(solve(*lp)) or results[-1])
    for n, lattice, beta, mode, directions in _pipeline_cases():
        solve_min_haar(n, lattice, beta, bound_mode=mode, test_directions=directions)
    lines = [repr(list(r.pivots)) for r in results]
    assert (len(lines), sum(len(r.pivots) for r in results)) == (95, PIVOT_PATH_PIVOTS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PIVOT_PATH_DIGEST
