"""Shared test helpers: random exact data and the brute-force LP oracles.

The oracles are deliberately independent of the production simplex: they
enumerate every choice of active constraints (or of basic columns), solve the
square system by rational Gaussian elimination, filter for feasibility and
take the best objective value.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from haargap.roots import CartanElement


def random_trace_zero(rng: random.Random, n: int) -> CartanElement:
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
    mean = sum(coords, Fraction(0)) / n
    return CartanElement(tuple(c - mean for c in coords))


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination; returns the unique solution or None if singular."""
    n = len(rows)
    M = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def member_lp(model) -> tuple[list[Fraction], list[list[Fraction]]]:
    """The ungrouped LP: objective and >= rows with one entry per problem
    support, each read from its group's column through group_of."""
    objective = [model.objective[g] for g in model.group_of]
    rows = [[row[g] for g in model.group_of] for row in model.ge_rows]
    return objective, rows


def brute_force_lp_minimum(model) -> Fraction:
    """Minimum of the ungrouped LP's objective over all basic feasible vertices.

    One variable per problem support, not per group.  Constraint list: the
    sum-to-one equality, every >= row, and every bound w_j >= 0.  A vertex is
    any feasible solution of nv active constraints.
    """
    objective, ge_rows = member_lp(model)
    nv = len(objective)
    rows: list[tuple[list[Fraction], Fraction]] = []
    rows.append(([Fraction(1)] * nv, Fraction(1)))  # equality, always re-checked as ==
    for row, rhs in zip(ge_rows, model.ge_rhs):
        rows.append(([Fraction(v) for v in row], Fraction(rhs)))
    for j in range(nv):
        bound = [Fraction(0)] * nv
        bound[j] = Fraction(1)
        rows.append((bound, Fraction(0)))

    best = None
    for combo in itertools.combinations(range(len(rows)), nv):
        if 0 not in combo:
            continue  # the equality must always be active
        x = _solve_square([rows[i][0] for i in combo], [rows[i][1] for i in combo])
        if x is None:
            continue
        if sum(x, Fraction(0)) != 1:
            continue
        if any(v < 0 for v in x):
            continue
        feasible = all(
            sum((c * v for c, v in zip(coeffs, x)), Fraction(0)) >= rhs
            for coeffs, rhs in rows[1 : 1 + len(model.ge_rows)]
        )
        if not feasible:
            continue
        value = sum((c * v for c, v in zip(objective, x)), Fraction(0))
        if best is None or value < best:
            best = value
    return best


def shape_lp_minimum(lattice: str, n: int, beta: Fraction, bound_mode: str) -> Fraction:
    """Closed-form minimum of the LP over the default (Weyl-orbit) directions.

    The directions are S_n-invariant, so some optimum weighs all partitions
    of one shape equally.  Spread evenly over the partitions with block sizes
    s_b, weight delivers the share Σ_b s_b(s_b - 1) / (n(n - 1)) of the Haar
    entropy at every direction.  So the minimum is
    max(0, (βn(n-1) - c*)/(n(n-1) - c*)), c* the largest share numerator over
    the lattice's shapes other than the full block.  At these directions every
    positive exponent is equal, so the thm14 floor is half the Haar entropy.
    """
    if bound_mode == "thm14":
        beta = Fraction(1, 2)

    def shapes(rest: int, largest: int):
        if rest == 0:
            yield ()
        for size in range(min(rest, largest), 0, -1):
            for tail in shapes(rest - size, size):
                yield (size, *tail)

    allowed = [
        s for s in shapes(n, n) if s != (n,) and (lattice == "generic" or len(set(s)) == 1)
    ]
    c_star = max(sum(size * (size - 1) for size in s) for s in allowed)
    total = n * (n - 1)
    return max(Fraction(0), (beta * total - c_star) / (total - c_star))


def row_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    M = [row[:] for row in rows]
    rank = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for r in range(rank + 1, len(M)):
            f = M[r][col] / M[rank][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def brute_force_standard_form(A, b, c):
    """(status, optimum) of min c.x subject to A x = b, x >= 0, over every column basis.

    A must have full row rank and a bounded feasible region.  Then the LP is
    infeasible exactly when no choice of m columns gives a nonnegative basic
    solution, and otherwise its minimum is attained at one of them.
    """
    m, n = len(A), len(A[0])
    best = None
    for cols in itertools.combinations(range(n), m):
        xb = _solve_square([[A[i][j] for j in cols] for i in range(m)], list(b))
        if xb is None or any(v < 0 for v in xb):
            continue
        value = sum((c[j] * v for j, v in zip(cols, xb)), Fraction(0))
        if best is None or value < best:
            best = value
    return ("infeasible", None) if best is None else ("optimal", best)
