"""Exact two-phase simplex over the rationals.

Dense tableau implementation for small problems, kept as one augmented array:
each row holds a constraint's coefficients (in phase 1 also the artificial
columns) with its right-hand side as the last entry, and the current
objective's reduced costs ride along as the last row, minus the objective
value in its last entry.  One pivot therefore updates constraints,
right-hand sides and reduced costs together.  Every entry is a Fraction;
pivoting follows Bland's rule (lowest eligible index, ties by lowest basic
variable), which rules out cycling and makes the solved vertex deterministic.
"""

from __future__ import annotations

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


def _pivot(T, basis, row, col):
    inv = Fraction(1) / T[row][col]
    prow = T[row] = [v * inv for v in T[row]]
    for i, ti in enumerate(T):
        f = ti[col]
        if f and i != row:
            # a zero in the pivot row leaves the entry as it is: skip two Fraction ops
            T[i] = [a - f * b if b else a for a, b in zip(ti, prow)]
    basis[row] = col


def _run_phase(T, basis, cost):
    """Append the reduced-cost row of `cost` to T and pivot until optimal or unbounded.

    The cost row stays last in T; the constraint rows are T[:len(basis)].
    """
    z = cost + [Fraction(0)]
    for ti, bi in zip(T, basis):
        if cost[bi]:
            z = [a - cost[bi] * b for a, b in zip(z, ti)]
    T.append(z)
    rows = range(len(basis))
    while True:
        z = T[-1]
        col = next((j for j in range(len(cost)) if z[j] < 0), None)
        if col is None:
            return STATUS_OPTIMAL
        # ratio test; ties go to the lowest basic variable
        eligible = [i for i in rows if T[i][col] > 0]
        if not eligible:
            return STATUS_UNBOUNDED
        _pivot(T, basis, min(eligible, key=lambda i: (T[i][-1] / T[i][col], basis[i])), col)


def solve_standard_form(A, b, c) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0; all data rational.

    Rows with negative right-hand side are negated up front.  Returns the
    optimum with a vertex and the final basis, or an infeasible/unbounded
    status.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    c = [Fraction(v) for v in c]
    if len(c) != n:
        raise ValueError(f"objective length {len(c)} does not match {n} columns")
    T = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]] + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-v for v in row]
        T.append(row[:n] + [Fraction(int(k == i)) for k in range(m)] + row[n:])

    # phase 1: artificial basis, minimizing the sum of the artificials
    basis = list(range(n, n + m))
    if _run_phase(T, basis, [Fraction(0)] * n + [Fraction(1)] * m) == STATUS_UNBOUNDED:
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

    # phase 2
    if _run_phase(T, basis, c) == STATUS_UNBOUNDED:
        return SimplexResult(STATUS_UNBOUNDED, None, None, None)
    x = [Fraction(0)] * n
    for ti, bi in zip(T, basis):
        x[bi] = ti[-1]
    return SimplexResult(STATUS_OPTIMAL, tuple(x), -T[-1][-1], tuple(basis))
