"""The Haar-weight linear program: model construction, exact solving, theorems."""

import dataclasses
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from haargap import simplex
from haargap.entropy import entropy_lower_bound, haar_entropy
from haargap.rigidity import (
    BOUND_HAAR_FRACTION,
    BOUND_MODES,
    BOUND_THM14,
    LPModel,
    RigidityProblem,
    build_lp,
    default_test_directions,
    extremal_vertex_report,
    extreme_direction,
    inner_weight_formula,
    lattice_supports,
    min_haar_weight,
    solve_lp,
    solve_min_haar,
    verify_solution,
)
from haargap.roots import CartanElement, build_type_a, cartan, weyl_orbit
from haargap.supports import CapacityError, Partition
from util import (
    apply_permutation,
    brute_force_lp_minimum,
    component_entropy_cap,
    full_mask,
    make_support,
    member_lp,
    negated,
    random_permutation,
    random_trace_zero,
    scaled,
    shape_lp_minimum,
)


def query(n, lattice, beta, bound_mode=BOUND_HAAR_FRACTION, directions=()):
    return RigidityProblem(n, lattice, beta, bound_mode, directions)


def sl3_problem(beta, bound_mode=BOUND_HAAR_FRACTION):
    return query(3, "generic", beta, bound_mode)


def test_build_lp_sl3_shape_and_first_constraint():
    model = build_lp(sl3_problem(F(1, 2)))
    assert len(model.variables) == 5
    assert len(model.ge_rows) == 3
    assert model.variables == ("∅", "{±α_12}", "{±α_13}", "{±α_23}", "Δ")
    assert model.directions[0].coords == cartan(2, -1, -1).coords
    assert model.ge_rows[0] == (F(0), F(3), F(3), F(0), F(6))
    assert model.ge_rhs[0] == 3


@st.composite
def rational_directions(draw, n: int, max_denominator: int):
    """Nonzero trace-zero directions with independent rational coordinates."""
    coords = [
        F(draw(st.integers(-40, 40)), draw(st.integers(1, max_denominator))) for _ in range(n)
    ]
    mean = sum(coords, F(0)) / n
    X = CartanElement(tuple(c - mean for c in coords))
    assume(not X.is_zero())
    return X


def fraction_keyed_groups(objective, columns):
    """The grouping oracle: first members and member -> group index, keyed
    on each member's objective coefficient and column as Fractions."""
    groups, reps, rep_of = {}, [], []
    for j, column in enumerate(columns):
        key = (F(objective[j]), *map(F, column))
        if key not in groups:
            groups[key] = len(reps)
            reps.append(j)
        rep_of.append(groups[key])
    return reps, rep_of


def assert_rows_are_entropy_caps(lattice: str, n: int, directions) -> None:
    """Every member's column, read through group_of, is its per-root entropy
    cap, and the groups are those of the Fraction-keyed oracle."""
    model = build_lp(query(n, lattice, F(1, 2), directions=directions))
    assert model.directions == tuple(directions)
    rs, walk = lattice_supports(n, lattice)
    supports = tuple(walk)
    assert len(model.group_of) == len(supports)
    columns = [
        [component_entropy_cap(rs, s, X) for X in model.directions]
        for s in supports
    ]
    objective = [F(s.kind == "full") for s in supports]
    for m, g in enumerate(model.group_of):
        assert [row[g] for row in model.ge_rows] == columns[m]
        assert model.objective[g] == objective[m]
    assert all(type(v) is F for row in model.ge_rows for v in row)
    reps, rep_of = fraction_keyed_groups(objective, columns)
    assert model.supports == tuple(supports[j] for j in reps)
    assert model.group_of == tuple(rep_of)
    assert model.variables == tuple(s.label for s in model.supports)


def test_build_lp_rows_match_entropy_caps():
    assert_rows_are_entropy_caps("generic", 4, default_test_directions(4))


@pytest.mark.parametrize("lattice,n", [("generic", 6), ("inner", 8)])
def test_build_lp_groups_match_fraction_oracle_at_default_directions(lattice, n):
    # the default directions merge most columns: 203 supports into 150 groups
    # at generic n = 6, 142 into 4 at inner n = 8
    assert_rows_are_entropy_caps(lattice, n, default_test_directions(n))


STANDARD_CASES = [("generic", n) for n in range(3, 7)] + [("inner", n) for n in range(3, 13)]


@pytest.mark.parametrize("lattice,n", STANDARD_CASES)
def test_member_counts_cover_every_support(lattice, n):
    model = build_lp(query(n, lattice, F(1, 2)))
    if lattice == "generic":
        expected = {3: 5, 4: 15, 5: 52, 6: 203}[n]  # Bell(n)
    else:
        expected = sum(
            math.factorial(n) // (math.factorial(k) ** (n // k) * math.factorial(n // k))
            for k in range(1, n + 1)
            if n % k == 0
        )
    assert len(model.group_of) == expected
    # every group has a member
    assert set(model.group_of) == set(range(len(model.supports)))
    # groups are numbered in order of their first member
    firsts = [model.group_of.index(g) for g in range(len(model.supports))]
    assert firsts == sorted(firsts)


LATTICE_CASES = [("generic", 3), ("generic", 4), ("generic", 5), ("inner", 4), ("inner", 6)]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(LATTICE_CASES), data=st.data())
def test_build_lp_rows_match_entropy_caps_on_random_directions(case, data):
    lattice, n = case
    directions = data.draw(st.lists(rational_directions(n, 3000), min_size=1, max_size=3))
    assert_rows_are_entropy_caps(lattice, n, directions)


@pytest.mark.parametrize("lattice,n", LATTICE_CASES)
def test_build_lp_rows_match_entropy_caps_with_many_bit_planes(lattice, n):
    # coprime denominators near 1000 put the cap numerators far above 2^8
    dens = [997, 1009, 1013, 1019, 1021, 1031][:n]
    coords = [F(3 * i + 1, d) for i, d in enumerate(dens)]
    mean = sum(coords, F(0)) / n
    X = CartanElement(tuple(c - mean for c in coords))
    denom = math.lcm(*(c.denominator for c in X.coords))
    assert max(abs(a - b) * denom for a in X.coords for b in X.coords) > 1 << 8
    assert_rows_are_entropy_caps(lattice, n, [X, negated(X), cartan(n - 1, *([-1] * (n - 1)))])


@functools.cache
def walk_groups(n, lattice, directions):
    """The Fraction-keyed groups of the walk's tuple: first members, member ->
    group, and each first member's column.  A support's cap at X is the sum,
    over the pairs inside its blocks, of |x_i - x_j| / L, with x = L X for the
    lcm L of X's denominators.  Each block's sums are taken once, and the
    Fractions are built once per distinct integer column, so inner n = 12's
    32 034 supports are read in about 0.3 s."""
    supports = tuple(lattice_supports(n, lattice)[1])
    scales = [math.lcm(*(c.denominator for c in X.coords)) for X in directions]
    xs = [[int(c * L) for c in X.coords] for X, L in zip(directions, scales)]
    caps = {}

    def block_caps(block):
        if block not in caps:
            pairs = list(itertools.combinations(block, 2))
            caps[block] = [sum(abs(x[i - 1] - x[j - 1]) for i, j in pairs) for x in xs]
        return caps[block]

    # (is Δ, integer column) -> index, numbered in order of first member
    distinct: dict[tuple, int] = {}
    index = [
        distinct.setdefault((s.kind == "full", *map(sum, zip(*map(block_caps, s)))), len(distinct))
        for s in supports
    ]
    first = {}
    for m, u in enumerate(index):
        first.setdefault(u, m)
    columns = [[F(k, L) for k, L in zip(key[1:], scales)] for key in distinct]
    reps, rep_of = fraction_keyed_groups([F(key[0]) for key in distinct], columns)
    return (
        tuple(supports[first[u]] for u in reps),
        tuple(rep_of[u] for u in index),
        [columns[u] for u in reps],
    )


def assert_lazy_walk_reads_as_its_tuple(problem) -> None:
    """build_lp's model of a streamed walk is the Fraction-keyed grouping of
    the walk's tuple, with each direction's own bound on the right."""
    model = build_lp(problem)
    directions = problem.test_directions or default_test_directions(problem.n)
    supports, group_of, columns = walk_groups(problem.n, problem.lattice, directions)
    assert model.directions == directions
    assert model.supports == supports
    assert model.group_of == group_of
    assert [list(column) for column in zip(*model.ge_rows)] == columns
    assert model.objective == tuple(F(s.kind == "full") for s in supports)
    rs = build_type_a(problem.n)
    if problem.bound_mode == BOUND_HAAR_FRACTION:
        assert model.ge_rhs == tuple(problem.beta * haar_entropy(rs, X) for X in directions)
    else:
        assert model.ge_rhs == tuple(entropy_lower_bound(rs, X) for X in directions)


@pytest.mark.parametrize("bound_mode", BOUND_MODES)
@pytest.mark.parametrize("n", range(3, 13))
def test_build_lp_reads_the_lazy_walk_as_its_tuple(n, bound_mode):
    assert_lazy_walk_reads_as_its_tuple(query(n, "inner", F(1, 2), bound_mode))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), bound_mode=st.sampled_from(BOUND_MODES), data=st.data())
def test_build_lp_reads_the_lazy_walk_as_its_tuple_on_random_directions(n, bound_mode, data):
    directions = data.draw(st.lists(rational_directions(n, 3000), min_size=1, max_size=3))
    assert_lazy_walk_reads_as_its_tuple(query(n, "inner", F(1, 2), bound_mode, directions))


def test_inner_n12_build_lp_never_holds_every_support():
    # 32 034 Partitions held at once, as a tuple, peak at about 9 MB
    tracemalloc.start()
    try:
        build_lp(query(12, "inner", F(1, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def assert_rhs_are_per_direction_bounds(n, beta, directions):
    """build_lp's right-hand sides, in both bound modes, are each direction's own bound."""
    rs = build_type_a(n)
    haar = query(n, "generic", beta, directions=directions)
    thm14 = query(n, "generic", beta, BOUND_THM14, directions)
    assert build_lp(haar).ge_rhs == tuple(beta * haar_entropy(rs, D) for D in directions)
    assert build_lp(thm14).ge_rhs == tuple(entropy_lower_bound(rs, D) for D in directions)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 5),
    beta=st.fractions(0, 1, max_denominator=12),
    data=st.data(),
)
def test_build_lp_rhs_matches_per_direction_bounds(n, beta, data):
    # permuted and rescaled copies share sorted scaled coordinates, or not,
    # so both the shared and the separate right-hand sides are exercised
    X, Y = data.draw(st.lists(rational_directions(n, 12), min_size=2, max_size=2))
    directions = [X, Y]
    for _ in range(data.draw(st.integers(1, 5))):
        base = data.draw(st.sampled_from(directions))
        perm = data.draw(st.permutations(range(n)))
        scale = data.draw(st.sampled_from([F(1), F(2), F(1, 2), F(-3, 7)]))
        directions.append(scaled(CartanElement(tuple(base.coords[i] for i in perm)), scale))
    assert_rhs_are_per_direction_bounds(n, beta, directions)


def test_build_lp_rhs_tells_orbits_apart():
    # equal first coordinates, or equal sorted numerators over another
    # denominator, do not make two directions one orbit
    directions = [
        cartan(2, -1, -1), cartan(2, -2, 0), cartan(-1, 2, -1), cartan(0, 2, -2),
        cartan(1, F(-1, 2), F(-1, 2)), cartan(F(-1, 2), F(-1, 2), 1), cartan(-2, 1, 1),
    ]
    assert_rhs_are_per_direction_bounds(3, F(2, 3), directions)


def test_build_lp_beta_zero_is_trivially_feasible():
    model = build_lp(sl3_problem(F(0)))
    assert all(rhs == 0 for rhs in model.ge_rhs)
    assert solve_lp(model).optimum == 0


def test_build_lp_thm14_mode_equals_half_haar_at_extreme_directions():
    # every positive exponent of the default directions is equal, so the proved
    # floor coincides with half the Haar entropy
    a = build_lp(sl3_problem(F(1, 2)))
    b = build_lp(sl3_problem(F(0), bound_mode=BOUND_THM14))
    assert a.ge_rhs == b.ge_rhs
    assert a.ge_rows == b.ge_rows


def test_build_lp_validation_errors():
    with pytest.raises(ValueError, match="nonzero"):
        build_lp(query(3, "generic", F(1, 2), directions=(cartan(0, 0, 0),)))
    with pytest.raises(ValueError, match="beta"):
        build_lp(query(3, "generic", F(3, 2)))
    with pytest.raises(ValueError, match="bound mode"):
        build_lp(query(3, "generic", F(1, 2), "nonsense"))
    with pytest.raises(ValueError, match="test direction has n=2"):
        build_lp(query(3, "generic", F(1, 2), directions=(cartan(1, -1),)))


def test_build_lp_refuses_in_order():
    # each query breaks two rules; the one named is the earlier of the two
    cases = [
        (query(2, "outer", F(1, 2)), ValueError, "need n >= 3"),
        (query(3, "outer", F(1, 2), "nonsense"), ValueError, "unknown lattice"),
        (query(7, "generic", F(1, 2), "nonsense"), CapacityError, "limited to 15"),
        (query(13, "inner", F(1, 2), "nonsense"), CapacityError, "limit of 12"),
        (query(3, "generic", F(3, 2), "nonsense"), ValueError, "bound mode"),
        (query(3, "generic", F(3, 2), directions=(cartan(0, 0, 0),)), ValueError, "beta"),
        (query(3, "generic", F(1, 2), directions=(cartan(1, -1), cartan(0, 0, 0))),
         ValueError, "n=2"),
        (query(3, "generic", F(1, 2), directions=(cartan(0, 0, 0), cartan(1, -1))),
         ValueError, "nonzero"),
    ]
    for problem, error, message in cases:
        with pytest.raises(error, match=message):
            build_lp(problem)


def test_lattice_supports_are_partitions_with_delta_once():
    # the check build_lp made on every support of every query, made once here
    # over every lattice class and n within the enumeration limits
    for lattice, sizes in (("generic", range(2, 7)), ("inner", range(2, 13))):
        for n in sizes:
            rs, walk = lattice_supports(n, lattice)
            supports = list(walk)
            assert rs.n == n
            assert all(type(s) is Partition for s in supports)
            assert supports.count(Partition((tuple(range(1, n + 1)),))) == 1
            assert supports[0] == Partition(tuple((i,) for i in range(1, n + 1)))
            if lattice == "generic":
                assert len(supports[-1]) == 1


def test_solve_lp_sl3_theorem_vertex():
    _, model, solution = solve_min_haar(3, "generic", F(1, 2))
    assert solution.optimum == F(1, 4)
    by_label = {s.label: w for s, w in solution.weights.items()}
    assert by_label == {
        "∅": F(0),
        "{±α_12}": F(1, 4),
        "{±α_13}": F(1, 4),
        "{±α_23}": F(1, 4),
        "Δ": F(1, 4),
    }
    assert verify_solution(model, solution)


def hand_built_sl3_model(supports, beta):
    """The SL_3 model over the given supports, one group each, at the default
    directions, with β·h(X) on the right."""
    rs = build_type_a(3)
    directions = default_test_directions(3)
    return LPModel(
        supports=tuple(supports),
        directions=directions,
        ge_rows=tuple(tuple(component_entropy_cap(rs, s, X) for s in supports) for X in directions),
        ge_rhs=tuple(beta * haar_entropy(rs, X) for X in directions),
        group_of=tuple(range(len(supports))),
    )


def test_solve_lp_single_support_families():
    # with Δ alone, the total-mass equality pins w_Δ = 1; adding ∅ lets the
    # entropy constraint bind instead and the optimum drops to 1/2
    rs = build_type_a(3)
    delta = make_support(rs, full_mask(rs))
    empty = make_support(rs, 0)
    only_delta = hand_built_sl3_model((delta,), F(1, 2))
    assert only_delta.objective == (1,) and only_delta.variables == ("Δ",)
    assert solve_lp(only_delta).optimum == 1
    with_empty = hand_built_sl3_model((empty, delta), F(1, 2))
    assert with_empty.objective == (0, 1) and with_empty.variables == ("∅", "Δ")
    assert solve_lp(with_empty).optimum == F(1, 2)


@pytest.mark.parametrize("n", [3, 4])
def test_solve_lp_beta_one_forces_full_weight(n):
    # every proper support has a strictly smaller cap at some test direction
    rs, supports = lattice_supports(n, "generic")
    for s in supports:
        if s.kind == "full":
            continue
        assert any(
            component_entropy_cap(rs, s, X) < haar_entropy(rs, X)
            for X in default_test_directions(n)
        )
    assert solve_lp(build_lp(query(n, "generic", F(1)))).optimum == 1


def test_solve_lp_infeasible_status():
    # build_lp never makes an infeasible model, but a hand-built one whose
    # single constraint exceeds what Δ can deliver is refused
    rs = build_type_a(3)
    delta = make_support(rs, full_mask(rs))
    X = cartan(2, -1, -1)
    model = LPModel(
        supports=(delta,),
        directions=(X,),
        ge_rows=((F(6),),),
        ge_rhs=(F(10),),
        group_of=(0,),
    )
    with pytest.raises(RuntimeError, match="'infeasible'"):
        solve_lp(model)


def test_min_haar_weight_theorem_values():
    assert min_haar_weight(3, "generic", F(1, 2)) == F(1, 4)
    assert min_haar_weight(4, "generic", F(1, 2) + F(1, 20)) == F(1, 10)
    assert min_haar_weight(3, "generic", F(1, 3) + F(1, 30)) == F(1, 20)
    assert min_haar_weight(5, "inner", F(1, 2)) == F(1, 2)
    assert min_haar_weight(6, "inner", F(1, 2)) == F(1, 6)


def test_min_haar_weight_input_validation():
    with pytest.raises(ValueError):
        min_haar_weight(2, "generic", F(1, 2))
    with pytest.raises(CapacityError):
        min_haar_weight(7, "generic", F(1, 2))
    with pytest.raises(CapacityError):
        min_haar_weight(13, "inner", F(1, 2))
    with pytest.raises(ValueError):
        min_haar_weight(4, "outer", F(1, 2))


def test_inner_weight_formula():
    assert [inner_weight_formula(n) for n in range(3, 13)] == [
        F(1, 2), F(1, 4), F(1, 2), F(1, 6), F(1, 2),
        F(1, 8), F(1, 3), F(1, 10), F(1, 2), F(1, 12),
    ]


def test_extremal_vertex_report_sl4():
    _, _, solution = solve_min_haar(4, "generic", F(1, 2))
    entries = extremal_vertex_report(solution)
    assert solution.optimum == 0
    assert len(entries) == 4
    for label, kind, weight in entries:
        assert kind == "block-partition"
        assert weight == F(1, 4)
        assert label.count(",") == 2  # a 3-element block plus a singleton


def test_extremal_vertex_report_sl3_and_delta_only():
    _, _, solution = solve_min_haar(3, "generic", F(1, 2))
    entries = extremal_vertex_report(solution)
    assert {label for label, _, _ in entries} == {"{±α_12}", "{±α_13}", "{±α_23}", "Δ"}
    assert solution.optimum == F(1, 4)

    rs = build_type_a(3)
    model = hand_built_sl3_model((make_support(rs, full_mask(rs)),), F(1, 2))
    assert [e[0] for e in extremal_vertex_report(solve_lp(model))] == ["Δ"]


@pytest.mark.parametrize("n", [3, 4])
def test_monotonicity_in_beta(n):
    grid = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]
    values = [min_haar_weight(n, "generic", b) for b in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_orbit_sufficiency_inverse_flow():
    # adding the constraints of the inverse flow changes nothing: caps agree on
    # symmetric supports, so the extra rows duplicate existing ones
    for n in (3, 4):
        rs, supports = lattice_supports(n, "generic")
        orbit = default_test_directions(n)
        m1 = build_lp(query(n, "generic", F(1, 2)))
        m2 = build_lp(query(n, "generic", F(1, 2), directions=orbit + tuple(map(negated, orbit))))
        rows1, rows2 = member_lp(m1)[1], member_lp(m2)[1]
        k = len(orbit)
        for i, X in enumerate(orbit):
            assert rows2[k + i] == [component_entropy_cap(rs, s, negated(X)) for s in supports]
            assert rows2[k + i] in rows1  # -X duplicates some +Y row
        assert solve_lp(m1).optimum == solve_lp(m2).optimum


def test_verify_solution_rejects_corruption():
    _, model, solution = solve_min_haar(3, "generic", F(1, 2))
    assert verify_solution(model, solution)
    tampered_weights = dict(solution.weights)
    first = next(iter(tampered_weights))
    tampered_weights[first] += F(1, 100)
    tampered = type(solution)(solution.optimum, tampered_weights)
    assert not verify_solution(model, tampered)


def vertex_sl3():
    _, model, solution = solve_min_haar(3, "generic", F(1, 2))
    # the vertex: each pair and Δ at 1/4, ∅ at 0
    by_label = {s.label: s for s in model.supports}
    assert solution.weights[by_label["∅"]] == 0
    return model, solution, by_label


def reweighted(solution, by_label, changes, optimum=None):
    weights = dict(solution.weights)
    for label, w in changes.items():
        weights[by_label[label]] = w
    return dataclasses.replace(
        solution, weights=weights, optimum=solution.optimum if optimum is None else optimum
    )


def test_verify_solution_rejects_negative_weight_off_the_vertex():
    # ∅ drops to -1/100 and a pair gains 1/100: the sum, every row and the
    # objective all still pass, so only the sign check can reject
    model, solution, by_label = vertex_sl3()
    tampered = reweighted(solution, by_label, {"∅": F(-1, 100), "{±α_12}": F(1, 4) + F(1, 100)})
    assert not verify_solution(model, tampered)


def test_verify_solution_rejects_weights_not_summing_to_one():
    # weight on ∅ changes no row and not the objective, only the total mass
    model, solution, by_label = vertex_sl3()
    assert not verify_solution(model, reweighted(solution, by_label, {"∅": F(1, 100)}))


def test_verify_solution_rejects_a_violated_row():
    # mass 1 and objective 1/4 as at the vertex, but Δ alone delivers 6/4 < 3
    model, solution, by_label = vertex_sl3()
    changes = {"∅": F(3, 4), "{±α_12}": F(0), "{±α_13}": F(0), "{±α_23}": F(0)}
    assert not verify_solution(model, reweighted(solution, by_label, changes))


def test_verify_solution_rejects_a_wrong_optimum():
    model, solution, by_label = vertex_sl3()
    assert not verify_solution(model, reweighted(solution, by_label, {}, optimum=F(1, 5)))
    # all mass on Δ is feasible, but its objective 1 is not the reported 1/4
    changes = {"Δ": F(1), "{±α_12}": F(0), "{±α_13}": F(0), "{±α_23}": F(0)}
    assert not verify_solution(model, reweighted(solution, by_label, changes))


@settings(max_examples=60, deadline=None)
@given(
    beta=st.fractions(0, 1, max_denominator=12),
    bound_mode=st.sampled_from(BOUND_MODES),
    directions=st.lists(rational_directions(3, 6), min_size=1, max_size=3),
)
def test_solve_lp_matches_brute_force_on_random_directions(beta, bound_mode, directions):
    _, model, solution = solve_min_haar(
        3, "generic", beta, bound_mode=bound_mode, test_directions=directions
    )
    assert solution.optimum == brute_force_lp_minimum(model)
    assert verify_solution(model, solution)
    # the optimum is the Haar weight: Δ's own weight at the vertex
    (haar_weight,) = (w for s, w in solution.weights.items() if s.kind == "full")
    assert haar_weight == solution.optimum


# generic n <= 5 and inner n = 4, 6, 8, each with 1 to 3 random directions
FEASIBILITY_CASES = st.sampled_from(
    [("generic", n) for n in (3, 4, 5)] + [("inner", n) for n in (4, 6, 8)]
).flatmap(lambda case: st.tuples(
    st.just(case), st.lists(rational_directions(case[1], 6), min_size=1, max_size=3)
))


@settings(max_examples=60, deadline=None)
@given(
    case=FEASIBILITY_CASES,
    beta=st.one_of(st.sampled_from([F(0), F(1)]), st.fractions(0, 1, max_denominator=12)),
    bound_mode=st.sampled_from(BOUND_MODES),
)
@example(case=(("generic", 5), [extreme_direction(5)]), beta=F(1), bound_mode=BOUND_HAAR_FRACTION)
@example(case=(("inner", 8), [extreme_direction(8)]), beta=F(0), bound_mode=BOUND_HAAR_FRACTION)
def test_every_built_lp_is_feasible_through_delta_alone(case, beta, bound_mode):
    # Δ's column is the Haar entropy h(X) and no right-hand side exceeds it,
    # so w_Δ = 1 meets every row: solve_lp never sees an infeasible model
    (lattice, n), directions = case
    model = build_lp(query(n, lattice, beta, bound_mode, directions))
    delta = model.objective.index(1)
    assert model.supports[delta].kind == "full"
    haar = [haar_entropy(build_type_a(n), X) for X in model.directions]
    assert [row[delta] for row in model.ge_rows] == haar
    assert all(rhs <= h for rhs, h in zip(model.ge_rhs, haar))
    assert 0 <= solve_lp(model).optimum <= 1


def test_bounds_sandwich_closed_forms_meet_lp():
    # the closed-form lower bounds coincide with the LP optimum on every
    # instance; a strict gap would be a finding, so it fails loudly here
    assert min_haar_weight(3, "generic", F(1, 2)) == F(1, 4)
    for eps in (F(0), F(1, 100), F(1, 20), F(1, 10)):
        assert min_haar_weight(4, "generic", F(1, 2) + eps) == 2 * eps
    for eps in (F(1, 30), F(1, 12)):
        assert min_haar_weight(3, "generic", F(1, 3) + eps) == F(3, 2) * eps
    for n in range(3, 13):
        assert min_haar_weight(n, "inner", F(1, 2)) == inner_weight_formula(n)


def test_lp_matches_brute_force_vertex_enumeration():
    # instances small enough for exhaustive vertex search
    small = [
        solve_min_haar(3, "generic", F(1, 2)),
        solve_min_haar(3, "generic", F(1, 3) + F(1, 30)),
        solve_min_haar(3, "inner", F(1, 2)),
        solve_min_haar(4, "inner", F(1, 2)),
        solve_min_haar(5, "inner", F(1, 2)),
    ]
    for _, model, solution in small:
        assert len(model.group_of) <= 6  # variables of the ungrouped LP
        assert brute_force_lp_minimum(model) == solution.optimum


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(STANDARD_CASES),
    beta=st.fractions(0, 1, max_denominator=30),
    bound_mode=st.sampled_from(BOUND_MODES),
)
@example(case=("inner", 12), beta=F(1, 2), bound_mode=BOUND_HAAR_FRACTION)
@example(case=("generic", 6), beta=F(1), bound_mode=BOUND_HAAR_FRACTION)
def test_default_lp_matches_shape_closed_form(case, beta, bound_mode):
    lattice, n = case
    expected = shape_lp_minimum(lattice, n, beta, bound_mode)
    if bound_mode == BOUND_HAAR_FRACTION:
        assert min_haar_weight(n, lattice, beta) == expected
    else:
        _, _, solution = solve_min_haar(n, lattice, beta, bound_mode=bound_mode)
        assert solution.optimum == expected


def lp_optimum(lattice, n, directions, beta, bound_mode):
    _, _, solution = solve_min_haar(
        n, lattice, beta, bound_mode=bound_mode, test_directions=directions
    )
    return solution.optimum


def seeded_directions(rng, n, most=4):
    """1 to `most` nonzero directions: each a rescaled Weyl image of the
    extreme direction, or one with small random rational coordinates."""
    directions = []
    for _ in range(rng.randint(1, most)):
        if rng.random() < 0.5:
            X = apply_permutation(extreme_direction(n), random_permutation(rng, n))
            X = scaled(X, F(rng.randint(1, 9), rng.randint(1, 9)))
        else:
            X = random_trace_zero(rng, n)
            while X.is_zero():
                X = random_trace_zero(rng, n)
        directions.append(X)
    return directions


# (lattice, sizes, most directions, seed): generic n = 4-5 with 1-4 directions,
# then inner n = 8-12 and generic n = 6, with fewer directions to keep each LP
# under about 0.1 s
METAMORPHIC_CASES = (
    [pytest.param("generic", (4, 5), 4, seed, id=str(seed)) for seed in range(16)]
    + [pytest.param("inner", (n,), 2, seed, id=f"inner-{n}-{seed}")
       for n in (8, 9, 10) for seed in range(2)]
    + [pytest.param("inner", (12,), 1, 0, id="inner-12-0")]
    # one and three directions
    + [pytest.param("generic", (6,), 3, seed, id=f"generic-6-{seed}") for seed in (2, 5)]
)


# metamorphic relations, for LPs beyond the brute-force oracle's reach
@pytest.mark.parametrize("lattice, sizes, most, seed", METAMORPHIC_CASES)
def test_optimum_survives_permuting_rescaling_and_repeating_directions(lattice, sizes, most, seed):
    # both lattices' supports are closed under coordinate permutations, and
    # every cap and both bounds scale with the direction, so none of these
    # three changes the feasible region; at generic n >= 4 the thm14 optimum
    # is 0, at inner n it is not
    rng = random.Random(seed)
    n = rng.choice(sizes)
    directions = seeded_directions(rng, n, most)
    beta = F(rng.randint(6, 12), 12)
    perm = random_permutation(rng, n)
    scale = F(rng.randint(1, 9), rng.randint(1, 9))
    repeated = directions + [rng.choice(directions)]
    for bound_mode in BOUND_MODES:
        optimum = lp_optimum(lattice, n, directions, beta, bound_mode)
        permuted = [apply_permutation(X, perm) for X in directions]
        assert lp_optimum(lattice, n, permuted, beta, bound_mode) == optimum
        rescaled = [scaled(X, scale) for X in directions]
        assert lp_optimum(lattice, n, rescaled, beta, bound_mode) == optimum
        assert lp_optimum(lattice, n, repeated, beta, bound_mode) == optimum


# (lattice, sizes, most directions, seed): generic n = 4-5 with 1-4 directions,
# then inner n = 8-10 and generic n = 6 with 1-2, each case's nine LPs within
# about 0.3 s; three directions at generic n = 6 take 1.6-2.6 s
CONVEXITY_CASES = (
    [pytest.param("generic", (4, 5), 4, seed, id=str(seed)) for seed in range(8)]
    + [pytest.param("inner", (n,), 2, seed, id=f"inner-{n}-{seed}")
       for n in (8, 9, 10) for seed in range(2)]
    + [pytest.param("generic", (6,), 2, seed, id=f"generic-6-{seed}") for seed in range(2)]
)


@pytest.mark.parametrize("lattice, sizes, most, seed", CONVEXITY_CASES)
def test_haar_fraction_optimum_is_zero_at_zero_nondecreasing_and_convex_in_beta(
    lattice, sizes, most, seed
):
    # v(beta) is an LP value whose right-hand side is linear in beta
    rng = random.Random(100 + seed)
    n = rng.choice(sizes)
    directions = seeded_directions(rng, n, most)
    values = [lp_optimum(lattice, n, directions, F(k, 8), BOUND_HAAR_FRACTION) for k in range(9)]
    assert values[0] == 0
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(2 * v <= u + w for u, v, w in zip(values, values[1:], values[2:]))


def test_custom_test_directions_override():
    X = cartan(1, 0, -1)
    _, model, _ = solve_min_haar(3, "generic", F(1, 2), test_directions=[X])
    assert len(model.ge_rows) == 1
    assert model.directions[0].coords == X.coords


def test_weights_keyed_by_support_and_sum_to_one():
    _, _, solution = solve_min_haar(4, "inner", F(1, 2))
    total = sum(solution.weights.values(), F(0))
    assert total == 1
    assert all(w >= 0 for w in solution.weights.values())


def _solve_counting_pivots(monkeypatch, n, lattice, beta, **kwargs):
    """solve_min_haar's model, and each pivot's Fraction updates and row width."""
    work, pivot = [], simplex._pivot

    def counting(T, basis, row, col, column):
        # Fraction updates: the pivot row's nonzero entries, in the pivot row
        # and in every row with a nonzero entry in the pivot column
        work.append((sum(map(bool, column)) * sum(map(bool, T[row])), len(T[row])))
        pivot(T, basis, row, col, column)

    monkeypatch.setattr(simplex, "_pivot", counting)
    _, model, _ = solve_min_haar(n, lattice, beta, **kwargs)
    return model, work


@pytest.mark.parametrize(
    "n, lattice, beta, pivots, updates",
    [
        (9, "inner", F(1, 2), 11, 272),
        (12, "inner", F(1, 2), 17, 812),
        (4, "generic", F(1, 2), 8, 436),
        (6, "generic", F(1), 144, 144_639),
    ],
)
def test_simplex_work_counts_are_pinned(monkeypatch, n, lattice, beta, pivots, updates):
    # a count that moves is a change in the work the simplex does, whatever
    # the host's timings say: fix the regression or re-pin it as a golden
    model, work = _solve_counting_pivots(monkeypatch, n, lattice, beta)
    assert (len(work), sum(u for u, _ in work)) == (pivots, updates)
    # every row of A has a signed unit column, so phase 1 stores no artificial:
    # each row holds the group and surplus columns and the right-hand side
    assert {width for _, width in work} == {len(model.supports) + len(model.ge_rows) + 1}


def test_custom_direction_simplex_work_counts_are_pinned(monkeypatch):
    # three fixed directions with no shared orbit: 52 supports at generic n = 5
    directions = [cartan(3, 1, -4, 2, -2), cartan(1, -1, 2, -3, 1), cartan(-2, 5, 0, -1, -2)]
    model, work = _solve_counting_pivots(monkeypatch, 5, "generic", F(2, 3), test_directions=directions)
    assert (len(work), sum(u for u, _ in work)) == (21, 5119)
    assert {width for _, width in work} == {len(model.supports) + len(model.ge_rows) + 1}
