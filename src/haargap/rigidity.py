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

import math
from dataclasses import dataclass
from fractions import Fraction

from . import simplex
from .entropy import entropy_lower_bound, haar_entropy
from .roots import CartanElement, RootSystem, build_type_a, cartan, weyl_orbit
from .supports import (
    KIND_FULL,
    SupportSet,
    enumerate_block_partitions,
    enumerate_symmetric_closed,
)

BOUND_HAAR_FRACTION = "haar-fraction"
BOUND_THM14 = "thm14"  # the proved floor: sum of (alpha(X) - chi_max/2) over kept exponents
BOUND_MODES = (BOUND_HAAR_FRACTION, BOUND_THM14)

LATTICE_GENERIC = "generic"
LATTICE_INNER = "inner"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class RigidityProblem:
    """An instance of the entropy game: supports, test directions, bound choice."""

    rs: RootSystem
    supports: tuple[SupportSet, ...]
    test_directions: tuple[CartanElement, ...]
    beta: Fraction
    bound_mode: str = BOUND_HAAR_FRACTION

    def __post_init__(self) -> None:
        object.__setattr__(self, "supports", tuple(self.supports))
        object.__setattr__(self, "test_directions", tuple(self.test_directions))
        object.__setattr__(self, "beta", Fraction(self.beta))


@dataclass(frozen=True)
class LPModel:
    """Minimize objective.w subject to ge_rows.w >= ge_rhs, sum(w) = 1, w >= 0."""

    variables: tuple[str, ...]
    supports: tuple[SupportSet, ...]
    directions: tuple[CartanElement, ...]
    objective: tuple[Fraction, ...]
    ge_rows: tuple[tuple[Fraction, ...], ...]
    ge_rhs: tuple[Fraction, ...]


@dataclass(frozen=True)
class LPSolution:
    status: str
    optimum: Fraction | None
    weights: dict[SupportSet, Fraction]
    basis: tuple[str, ...]


@dataclass(frozen=True)
class VertexReport:
    """The supports carrying positive weight at a solved vertex.

    The solver returns one optimal vertex deterministically; when the optimum
    is degenerate other optimal vertices may exist, and no uniqueness is
    claimed here.
    """

    optimum: Fraction
    haar_weight: Fraction
    entries: tuple[tuple[str, str, Fraction], ...]
    note: str = "one optimal vertex among possibly many; uniqueness is not claimed"


def _positive_part_numerators(rs: RootSystem, X: CartanElement) -> tuple[list[int], int]:
    """Integerize max(alpha(X), 0) over all roots: values are nums/denom."""
    denom = math.lcm(*(c.denominator for c in X.coords))
    scaled = [int(c * denom) for c in X.coords]
    return [max(scaled[r.i - 1] - scaled[r.j - 1], 0) for r in rs.roots], denom


def build_lp(problem: RigidityProblem) -> LPModel:
    """Assemble the entropy-game LP for a rigidity problem.

    One constraint per test direction; caps are evaluated at the direction as
    given (orbit elements are deliberately not dominantized).
    """
    rs = problem.rs
    supports = problem.supports
    n_full = sum(1 for s in supports if s.mask == rs.full_mask())
    if n_full == 0:
        raise ValueError("Δ missing from supports: the full support must be present")
    if n_full > 1:
        raise ValueError("Δ present more than once in supports")
    if not problem.test_directions:
        raise ValueError("empty test set: at least one test direction is required")
    if problem.bound_mode not in BOUND_MODES:
        raise ValueError(f"unknown bound mode {problem.bound_mode!r}; expected one of {BOUND_MODES}")
    if not (0 <= problem.beta <= 1):
        raise ValueError(f"beta must lie in [0, 1], got {problem.beta}")
    for X in problem.test_directions:
        if X.n != rs.n:
            raise ValueError(f"test direction has n={X.n}, root system has n={rs.n}")
        if X.is_zero():
            raise ValueError("test directions must be nonzero")

    masks = [s.mask for s in supports]
    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    for X in problem.test_directions:
        nums, denom = _positive_part_numerators(rs, X)
        # plane b is the mask of roots whose numerator has bit b set, so a
        # support's cap numerator is the sum over b of its popcount in plane b
        planes = [
            (b, sum(1 << k for k, v in enumerate(nums) if v >> b & 1))
            for b in range(max(nums).bit_length())
        ]
        caps: dict[int, Fraction] = {}
        row = []
        for mask in masks:
            total = 0
            for b, plane in planes:
                total += (mask & plane).bit_count() << b
            cap = caps.get(total)
            if cap is None:
                cap = caps[total] = Fraction(total, denom)
            row.append(cap)
        if problem.bound_mode == BOUND_HAAR_FRACTION:
            bound = problem.beta * haar_entropy(rs, X)
        else:
            bound = entropy_lower_bound(rs, X)
        rows.append(tuple(row))
        rhs.append(bound)

    objective = tuple(
        Fraction(1) if s.mask == rs.full_mask() else _ZERO for s in supports
    )
    labels = tuple(s.label for s in supports)
    return LPModel(labels, supports, problem.test_directions, objective, tuple(rows), tuple(rhs))


def _dedup_columns(model: LPModel):
    """Group variables with identical objective coefficient and constraint column."""
    groups: dict[tuple, int] = {}
    rep_of: list[int] = []
    reps: list[int] = []
    for j, column in enumerate(zip(model.objective, *model.ge_rows)):
        # integer pairs hash in C; a Fraction hashes in Python
        key = tuple((v.numerator, v.denominator) for v in column)
        g = groups.get(key)
        if g is None:
            g = len(reps)
            groups[key] = g
            reps.append(j)
        rep_of.append(g)
    return reps, rep_of


def solve_lp(model: LPModel) -> LPSolution:
    """Exact optimum of the model via two-phase simplex with Bland's rule.

    Duplicate columns are merged before solving and the merged weight lands on
    the first variable of each group, which keeps the result deterministic.
    The returned vertex is re-verified against every constraint by exact
    substitution before being handed back.
    """
    reps, _ = _dedup_columns(model)
    ng = len(reps)
    nrows = len(model.ge_rows)
    # standard form: [group weights | surplus]; rows: sum-to-one, then each >=
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    A.append([Fraction(1)] * ng + [_ZERO] * nrows)
    b.append(Fraction(1))
    for k, row in enumerate(model.ge_rows):
        srow = [row[j] for j in reps]
        srow += [Fraction(-1) if t == k else _ZERO for t in range(nrows)]
        A.append(srow)
        b.append(model.ge_rhs[k])
    c = [model.objective[j] for j in reps] + [_ZERO] * nrows

    result = simplex.solve_standard_form(A, b, c)
    if result.status == simplex.STATUS_INFEASIBLE:
        return LPSolution("infeasible", None, {}, ())
    if result.status != simplex.STATUS_OPTIMAL:
        raise RuntimeError(f"unexpected solver status {result.status!r} on a compact feasible region")

    weights: dict[SupportSet, Fraction] = {s: _ZERO for s in model.supports}
    for g, j in enumerate(reps):
        weights[model.supports[j]] = result.x[g]
    basis_names = tuple(
        model.variables[reps[k]] if k < ng else f"surplus_{k - ng}" for k in result.basis
    )
    solution = LPSolution("optimal", result.objective, weights, basis_names)
    if not verify_solution(model, solution):
        raise RuntimeError("solver returned a vertex that fails exact re-substitution")
    return solution


def verify_solution(model: LPModel, solution: LPSolution) -> bool:
    """Exact substitution check of feasibility and of the reported optimum."""
    if solution.status != "optimal":
        return False
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
    value = sum((model.objective[j] * v for j, v in live), _ZERO)
    return value == solution.optimum


def extreme_direction(n: int) -> CartanElement:
    """The direction diag(n-1, -1, ..., -1) whose positive exponents are all equal."""
    return cartan(n - 1, *([-1] * (n - 1)))


def default_test_directions(n: int) -> tuple[CartanElement, ...]:
    return weyl_orbit(extreme_direction(n))


def rigidity_problem(
    n: int,
    lattice: str,
    beta,
    *,
    bound_mode: str = BOUND_HAAR_FRACTION,
    test_directions=None,
) -> RigidityProblem:
    """Assemble the standard problem instance for SL_n with the given lattice class."""
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if lattice == LATTICE_GENERIC:
        rs = build_type_a(n)
        supports = tuple(enumerate_symmetric_closed(rs))
    elif lattice == LATTICE_INNER:
        supports = tuple(enumerate_block_partitions(n))
        rs = build_type_a(n)
    else:
        raise ValueError(f"unknown lattice class {lattice!r}; expected 'generic' or 'inner'")
    directions = tuple(test_directions) if test_directions else default_test_directions(n)
    return RigidityProblem(rs, supports, directions, Fraction(beta), bound_mode)


def solve_min_haar(
    n: int,
    lattice: str,
    beta,
    *,
    bound_mode: str = BOUND_HAAR_FRACTION,
    test_directions=None,
) -> tuple[RigidityProblem, LPModel, LPSolution]:
    problem = rigidity_problem(
        n, lattice, beta, bound_mode=bound_mode, test_directions=test_directions
    )
    model = build_lp(problem)
    solution = solve_lp(model)
    return problem, model, solution


def min_haar_weight(n: int, lattice: str, beta) -> Fraction:
    """Exact minimum of the Haar weight w_Δ over the standard problem instance."""
    _, _, solution = solve_min_haar(n, lattice, beta)
    if solution.status != "optimal":
        raise RuntimeError(f"entropy-game LP unexpectedly {solution.status}")
    return solution.optimum


def inner_weight_formula(n: int) -> Fraction:
    """Closed form ((n+1)/2 - t)/(n - t) with t the largest proper divisor of n."""
    t = max(d for d in range(1, n) if n % d == 0)
    return (Fraction(n + 1, 2) - t) / (n - t)


def extremal_vertex_report(solution: LPSolution) -> VertexReport:
    """Positive-weight supports of a solved vertex, heaviest first."""
    if solution.status != "optimal":
        raise ValueError(f"cannot report on a solution with status {solution.status!r}")
    entries = [
        (s.label, s.kind, w) for s, w in solution.weights.items() if w > 0
    ]
    entries.sort(key=lambda e: (-e[2], e[0]))
    haar_weight = sum((w for _, kind, w in entries if kind == KIND_FULL), _ZERO)
    return VertexReport(solution.optimum, haar_weight, tuple(entries))
