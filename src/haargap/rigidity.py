"""The Haar-weight linear program ("entropy game").

A flow-invariant probability measure decomposes over admissible supports R
with weights w_R.  Testing the entropy of the measure at a family of flow
directions X yields, for each X, the inequality

    sum_R  w_R * cap(R, X)  >=  LB(X),

where cap is the per-support entropy ceiling and LB is either a fraction of
the Haar entropy or the proved entropy floor.  Minimizing the weight of the
full support Δ over these constraints (plus sum w_R = 1, w_R >= 0) gives an
exact lower bound for the Haar component.  Everything is solved in rational
arithmetic; no floating point enters this module.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from . import simplex
from .entropy import _scaled, entropy_lower_bound, haar_entropy
from .roots import CartanElement, build_type_a, cartan, weyl_orbit
from .supports import (
    Partition,
    enumerate_block_partitions,
    enumerate_symmetric_closed,
    render_label,
)

BOUND_HAAR_FRACTION = "haar-fraction"
BOUND_THM14 = "thm14"  # the proved floor: sum of (alpha(X) - chi_max/2) over kept exponents
BOUND_MODES = (BOUND_HAAR_FRACTION, BOUND_THM14)

LATTICE_GENERIC = "generic"
LATTICE_INNER = "inner"
LATTICES = (LATTICE_GENERIC, LATTICE_INNER)

_ZERO = Fraction(0)


def lattice_supports(n: int, lattice: str) -> Iterable[Partition]:
    """The lattice class's supports for SL_n: generic, the sorted tuple of every
    set partition; inner, the lazy walk of the equal-size block partitions.
    An unknown class is refused before n is checked."""
    if lattice == LATTICE_GENERIC:
        return tuple(enumerate_symmetric_closed(n))
    if lattice == LATTICE_INNER:
        return enumerate_block_partitions(n)
    raise ValueError(f"unknown lattice class {lattice!r}; expected one of {LATTICES}")


@dataclass(frozen=True)
class RigidityProblem:
    """An entropy-game query for SL_n: the lattice class, whose supports
    lattice_supports picks, β, the bound mode and the test directions, the
    Weyl orbit of default_test_directions(n) when empty."""

    n: int
    lattice: str
    beta: Fraction
    bound_mode: str
    test_directions: tuple[CartanElement, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "test_directions", tuple(self.test_directions))
        object.__setattr__(self, "beta", Fraction(self.beta))


@dataclass(frozen=True)
class LPModel:
    """Minimize objective.w subject to ge_rows.w >= ge_rhs, sum(w) = 1, w >= 0.

    Supports with equal columns form one group, one variable: supports (each
    group's first member), ge_rows' columns and the derived variables and
    objective run over the groups.  Support m is in group_of[m].
    """

    supports: tuple[Partition, ...]
    directions: tuple[CartanElement, ...]
    ge_rows: tuple[tuple[Fraction, ...], ...]
    ge_rhs: tuple[Fraction, ...]
    group_of: tuple[int, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        """Each group's label."""
        return tuple(s.label for s in self.supports)

    @property
    def objective(self) -> tuple[Fraction, ...]:
        """Δ's weight: 1 on Δ, the partition with one block, and 0 elsewhere.
        Every nonzero direction puts some pair of distinct values in different
        blocks of any partition but Δ, so Δ's column is a group of its own."""
        return tuple(Fraction(1) if len(s) == 1 else _ZERO for s in self.supports)


@dataclass(frozen=True)
class LPSolution:
    """solve_lp's optimal vertex: the least Haar weight, and each group's weight."""

    optimum: Fraction
    weights: dict[Partition, Fraction]


VERTEX_NOTE = "one optimal vertex among possibly many; uniqueness is not claimed"


def build_lp(problem: RigidityProblem) -> LPModel:
    """Assemble the entropy-game LP for a query.

    One constraint per test direction; caps are evaluated at the direction as
    given (orbit elements are deliberately not dominantized).  A support holds
    ±α_ij together and one of them is positive on X, so its cap at X is the
    sum of |X_i - X_j| over the pairs i < j inside its blocks.  These integer
    sums (X scaled once) make one key per support with a lane per direction;
    supports with equal keys form one group, whose column is built once.  The
    supports are read in one pass that keeps only each group's first member
    and the group of each support.  Both bounds are invariant under permuting
    X's coordinates, so each is computed once per distinct (sorted scaled
    coordinates, denominator).

    Refuses, in this order, n < 3, an unknown lattice class or one past its
    enumeration limit, an unknown bound mode, β outside [0, 1], and a test
    direction of another dimension or zero.
    """
    if problem.n < 3:
        raise ValueError(f"need n >= 3, got n={problem.n}")
    supports = lattice_supports(problem.n, problem.lattice)
    directions = problem.test_directions or default_test_directions(problem.n)
    if problem.bound_mode not in BOUND_MODES:
        raise ValueError(f"unknown bound mode {problem.bound_mode!r}; expected one of {BOUND_MODES}")
    if not (0 <= problem.beta <= 1):
        raise ValueError(f"beta must lie in [0, 1], got {problem.beta}")
    for X in directions:
        if X.n != problem.n:
            raise ValueError(f"test direction has n={X.n}, root system has n={problem.n}")
        if X.is_zero():
            raise ValueError("test directions must be nonzero")

    rs = build_type_a(problem.n)
    scaled, denoms = zip(*(_scaled(rs, X) for X in directions))
    pairs = list(itertools.combinations(range(rs.n), 2))
    # no support's cap exceeds Δ's, the sum over all pairs, so a lane as wide
    # as the largest such sum never carries into the next
    width = max(sum(abs(x[i] - x[j]) for i, j in pairs) for x in scaled).bit_length()
    pair_weight = {
        (i + 1, j + 1): sum(abs(x[i] - x[j]) << d * width for d, x in enumerate(scaled))
        for i, j in pairs
    }
    block_weight: dict[tuple, int] = {}
    group: dict[int, int] = {}  # key -> group, numbered in order of first member
    reps: list[Partition] = []
    group_of: list[int] = []
    for s in supports:
        key = 0
        for block in s:
            if block not in block_weight:
                block_weight[block] = sum(
                    map(pair_weight.__getitem__, itertools.combinations(block, 2))
                )
            key += block_weight[block]
        g = group.setdefault(key, len(reps))
        if g == len(reps):
            reps.append(s)
        group_of.append(g)

    lane = (1 << width) - 1
    rows = tuple(
        tuple(Fraction(key >> d * width & lane, denom) for key in group)
        for d, denom in enumerate(denoms)
    )
    orbit_bound: dict[tuple, Fraction] = {}
    rhs = []
    for X, x, d in zip(directions, scaled, denoms):
        key = (tuple(sorted(x)), d)
        if key not in orbit_bound:
            if problem.bound_mode == BOUND_HAAR_FRACTION:
                orbit_bound[key] = problem.beta * haar_entropy(rs, X)
            else:
                orbit_bound[key] = entropy_lower_bound(rs, X)
        rhs.append(orbit_bound[key])
    return LPModel(tuple(reps), directions, rows, tuple(rhs), tuple(group_of))


def solve_lp(model: LPModel) -> LPSolution:
    """Exact optimum of the model via two-phase simplex with Bland's rule.

    Every model build_lp makes has one, since w_Δ = 1 meets every row; any
    other solver status, only possible for a hand-built model, raises.

    Each group of equal columns is one variable, so its weight lands on the
    group's first member, which keeps the result deterministic.  The returned
    vertex is re-verified against every constraint by exact substitution
    before being handed back.
    """
    ng = len(model.supports)
    nrows = len(model.ge_rows)
    # standard form: [group weights | surplus]; rows: sum-to-one, then each >=
    A = [[Fraction(1)] * ng + [_ZERO] * nrows] + [
        list(row) + [Fraction(-1) if t == k else _ZERO for t in range(nrows)]
        for k, row in enumerate(model.ge_rows)
    ]
    b = [Fraction(1), *model.ge_rhs]
    c = list(model.objective) + [_ZERO] * nrows

    result = simplex.solve_standard_form(A, b, c)
    if result.status != simplex.STATUS_OPTIMAL:
        raise RuntimeError(f"solver status {result.status!r}: the model is not feasible and bounded")
    solution = LPSolution(result.objective, dict(zip(model.supports, result.x)))
    if not verify_solution(model, solution):
        raise RuntimeError("solver returned a vertex that fails exact re-substitution")
    return solution


def verify_solution(model: LPModel, solution: LPSolution) -> bool:
    """Exact substitution check of feasibility and of the reported optimum."""
    w = [solution.weights[s] for s in model.supports]
    if any(v < 0 for v in w):
        return False
    # every weight is now >= 0, so only the positive ones contribute
    live = [(j, v) for j, v in enumerate(w) if v]
    if sum((v for _, v in live), _ZERO) != 1:
        return False
    for row, bound in zip(model.ge_rows, model.ge_rhs):
        if sum((row[j] * v for j, v in live), _ZERO) < bound:
            return False
    objective = model.objective
    value = sum((objective[j] * v for j, v in live), _ZERO)
    return value == solution.optimum


def default_test_directions(n: int) -> tuple[CartanElement, ...]:
    """The Weyl orbit of diag(n-1, -1, ..., -1), whose positive exponents are
    all equal; that dominant direction comes first."""
    return weyl_orbit(cartan(n - 1, *([-1] * (n - 1))))


def solve_min_haar(
    n: int,
    lattice: str,
    beta,
    *,
    bound_mode: str = BOUND_HAAR_FRACTION,
    test_directions=None,
) -> tuple[RigidityProblem, LPModel, LPSolution]:
    problem = RigidityProblem(n, lattice, beta, bound_mode, test_directions or ())
    model = build_lp(problem)
    solution = solve_lp(model)
    return problem, model, solution


def min_haar_weight(n: int, lattice: str, beta) -> Fraction:
    """Exact minimum of the Haar weight w_Δ over the standard problem instance."""
    return solve_min_haar(n, lattice, beta)[2].optimum


def inner_weight_formula(n: int) -> Fraction:
    """Closed form ((n+1)/2 - t)/(n - t) with t the largest proper divisor of n."""
    t = max(d for d in range(1, n) if n % d == 0)
    return (Fraction(n + 1, 2) - t) / (n - t)


def extremal_vertex_report(solution: LPSolution) -> tuple[tuple[str, str, Fraction], ...]:
    """(label, kind, weight) of each positive-weight support of a solved vertex,
    heaviest first, ties by label.  Δ's weight is solution.optimum."""
    entries = [
        (render_label(s, kind := s.kind), kind, w) for s, w in solution.weights.items() if w > 0
    ]
    return tuple(sorted(entries, key=lambda e: (-e[2], e[0])))
