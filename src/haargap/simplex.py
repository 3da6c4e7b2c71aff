"""Exact two-phase simplex over the rationals.

Dense tableau implementation for small problems, kept as one augmented array:
each row holds a constraint's coefficients (in phase 1 also the artificial
columns) with its right-hand side as the last entry, and the current
objective's reduced costs ride along as the last row, minus the objective
value in its last entry.  One pivot therefore updates constraints,
right-hand sides and reduced costs together.  Every entry is a Fraction;
pivoting follows Bland's rule (lowest eligible index, ties by lowest basic
variable), which rules out cycling and makes the solved vertex deterministic.

Phase 1 minimizes the sum of the artificials, each basic in its own row, so
its cost row is minus each column's sum over the constraint rows (0 under the
artificials), taken on integers over the column's common denominator.  Phase
2 prices its objective out by subtracting cost times row for each basic
variable with a nonzero cost.  The ratio test compares the ratios on
integers by cross-multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    basis: tuple[int, ...] | None


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction(v):
    """v as a Fraction; Fraction(v) would build a new one even from a Fraction."""
    return v if type(v) is Fraction else Fraction(v)


def _pivot(T, basis, row, col):
    inv = _ONE / T[row][col]
    prow = T[row] = [v * inv if v else v for v in T[row]]
    for i, ti in enumerate(T):
        f = ti[col]
        if f and i != row:
            # a zero in the pivot row leaves the entry as it is: skip two Fraction ops
            T[i] = [a - f * b if b else a for a, b in zip(ti, prow)]
    basis[row] = col


def _negated_sum(values):
    """Minus the exact sum of Fractions, taken on integers over their lcm."""
    d = math.lcm(*(v.denominator for v in values))
    return Fraction(-sum(v.numerator * (d // v.denominator) for v in values), d)


def _run_phase(T, basis, z):
    """Append the reduced-cost row z to T and pivot until optimal or unbounded.

    The cost row stays last in T; the constraint rows are T[:len(basis)].
    """
    T.append(z)
    rows = range(len(basis))
    width = len(z) - 1
    while True:
        z = T[-1]
        col = next((j for j in range(width) if z[j] < 0), None)
        if col is None:
            return STATUS_OPTIMAL
        # ratio test on integers, b/a = (p/q)/(s/t) as p*t over q*s; ties go
        # to the lowest basic variable
        best = None
        for i in rows:
            a = T[i][col]
            if a > 0:
                b = T[i][-1]
                num, den = b.numerator * a.denominator, b.denominator * a.numerator
                if best is None or (num * best_den, basis[i]) < (best_num * den, basis[best]):
                    best, best_num, best_den = i, num, den
        if best is None:
            return STATUS_UNBOUNDED
        _pivot(T, basis, best, col)


def solve_standard_form(A, b, c) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0; all data rational.

    Rows with negative right-hand side are negated up front.  Returns the
    optimum with a vertex and the final basis, or an infeasible/unbounded
    status.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    c = [_fraction(v) for v in c]
    if len(c) != n:
        raise ValueError(f"objective length {len(c)} does not match {n} columns")
    if not m:
        return SimplexResult(STATUS_OPTIMAL, (), _ZERO, ())
    T = []
    for i in range(m):
        row = [_fraction(v) for v in A[i]] + [_fraction(b[i])]
        if row[-1] < 0:
            row = [-v for v in row]
        T.append(row[:n] + [_ONE if k == i else _ZERO for k in range(m)] + row[n:])

    # phase 1: artificial basis, minimizing the sum of the artificials; its
    # cost row is minus the column sums, 0 under the artificials
    basis = list(range(n, n + m))
    sums = [_negated_sum(col) for col in zip(*T)]
    if _run_phase(T, basis, sums[:n] + [_ZERO] * m + sums[-1:]) == STATUS_UNBOUNDED:
        # cannot happen: phase-1 objective is bounded below by zero
        raise RuntimeError("phase-1 simplex reported unbounded")
    if T.pop()[-1] < 0:
        return SimplexResult(STATUS_INFEASIBLE, None, None, None)

    # drive artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j]), None)
            if col is None:
                continue  # redundant row
            _pivot(T, basis, i, col)
        keep.append(i)
    T = [T[i][:n] + T[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: price the objective out over the basis
    z = c + [_ZERO]
    for ti, bi in zip(T, basis):
        if c[bi]:
            z = [a - c[bi] * b for a, b in zip(z, ti)]
    if _run_phase(T, basis, z) == STATUS_UNBOUNDED:
        return SimplexResult(STATUS_UNBOUNDED, None, None, None)
    x = [_ZERO] * n
    for ti, bi in zip(T, basis):
        x[bi] = ti[-1]
    return SimplexResult(STATUS_OPTIMAL, tuple(x), -T[-1][-1], tuple(basis))
