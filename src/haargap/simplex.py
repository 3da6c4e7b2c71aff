"""Exact two-phase simplex over the rationals.

Dense tableau implementation for small problems, kept as one augmented array:
each row holds a constraint's coefficients (in phase 1 also the artificial
columns it stores) with its right-hand side as the last entry, and the current
objective's reduced costs ride along as the last row, minus the objective
value in its last entry.  One pivot therefore updates constraints,
right-hand sides and reduced costs together.  Every entry is a Fraction;
pivoting follows Bland's rule (lowest eligible index, ties by lowest basic
variable), which rules out cycling and makes the solved vertex deterministic.

Phase 1 minimizes the sum of the artificials a_0..a_{m-1}, logical columns
n..n+m-1, each basic in its own row, so its cost row is minus each column's
sum over the constraint rows (0 under the artificials), taken on integers
over the column's common denominator.  An artificial is stored only for a row
without a signed unit column.  If column j of the sign-normalized rows is
tau*e_i (tau = +-1), then, as the tableau is B^-1 times the original columns
and the reduced costs are z = c - c_B B^-1 A, col(a_i) = tau*col(j) and
z(a_i) = 1 + tau*z(j) at every basis.  Both are exact, so every entry the
solver reads, and with it every pivot, is the one an explicit artificial
column would give; pricing a_i reads z(j) alone, and its column is built
only when it enters.  Phase 2 prices its objective out by subtracting cost
times row for each basic variable with a nonzero cost.  The ratio test
compares the ratios on integers by cross-multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    basis: tuple[int, ...] | None
    pivots: tuple[tuple[int, int], ...]  # (row, logical column): phase 1, drive-out, phase 2


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction(v):
    """v as a Fraction; Fraction(v) would build a new one even from a Fraction."""
    return v if type(v) is Fraction else Fraction(v)


def _pivot(T, basis, row, col, column):
    """Pivot on T[row] at logical column col, whose entries in the rows of T are column."""
    inv = _ONE / column[row]
    prow = T[row] = [v * inv if v else v for v in T[row]]
    for i, (ti, f) in enumerate(zip(T, column)):
        if f and i != row:
            # a zero in the pivot row leaves the entry as it is: skip two Fraction ops
            T[i] = [a - f * b if b else a for a, b in zip(ti, prow)]
    basis[row] = col


def _negated_sum(values):
    """Minus the exact sum of Fractions, taken on integers over their lcm."""
    d = math.lcm(*(v.denominator for v in values))
    return Fraction(-sum(v.numerator * (d // v.denominator) for v in values), d)


def _run_phase(T, basis, z, n, pivots, artificials=()):
    """Append the reduced-cost row z to T and pivot until optimal or unbounded.

    The cost row stays last in T; the constraint rows are T[:len(basis)].
    Logical column n + i is artificials[i] = (k, tau, offset): its entries
    are tau*T[:, k], plus offset in the cost row, so its price reads z[k].
    """
    T.append(z)
    rows = range(len(basis))
    seen = set()

    def column(j):
        """Logical column j's entries in the rows of T, its reduced cost last."""
        if j < n:
            return [t[j] for t in T]
        k, tau, offset = artificials[j - n]
        return [tau * t[k] for t in T[:-1]] + [offset + tau * T[-1][k]]

    while True:
        # Bland's rule never revisits a basis, and every entry read below is a
        # function of the basis, so a repeat is a fault that would loop for ever
        if (key := tuple(basis)) in seen:
            raise RuntimeError(f"simplex phase revisited the basis {key}")
        seen.add(key)
        z = T[-1]
        # an artificial is priced only when no structural column is eligible
        col = next(chain((j for j in range(n) if z[j] < 0),
                         (n + i for i, (k, tau, offset) in enumerate(artificials)
                          if offset + tau * z[k] < 0)), None)
        if col is None:
            return STATUS_OPTIMAL
        values = column(col)
        # ratio test on integers, b/a = (p/q)/(s/t) as p*t over q*s; ties go
        # to the lowest basic variable
        best = None
        for i in rows:
            a = values[i]
            if a > 0:
                b = T[i][-1]
                num, den = b.numerator * a.denominator, b.denominator * a.numerator
                if best is None or (num * best_den, basis[i]) < (best_num * den, basis[best]):
                    best, best_num, best_den = i, num, den
        if best is None:
            return STATUS_UNBOUNDED
        _pivot(T, basis, best, col, values)
        pivots.append((best, col))


def solve_standard_form(A, b, c) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0; all data rational.

    Rows with negative right-hand side are negated up front.  Returns the
    optimum with a vertex and the final basis, or an infeasible/unbounded
    status, with every pivot taken.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    c = [_fraction(v) for v in c]
    if len(c) != n:
        raise ValueError(f"objective length {len(c)} does not match {n} columns")
    if not m:
        return SimplexResult(STATUS_OPTIMAL, (), _ZERO, (), ())
    T = []
    for i in range(m):
        row = [_fraction(v) for v in A[i]] + [_fraction(b[i])]
        T.append([-v for v in row] if row[-1] < 0 else row)

    # phase 1 minimizes the sum of the artificials; a_i is (j, tau, 1), read off
    # its row's first unit column j = tau*e_i, or is stored after the n columns
    artificials = {}
    for j, col in zip(range(n), zip(*T)):
        nonzero = [i for i, v in enumerate(col) if v]
        if len(nonzero) == 1 and abs(col[nonzero[0]]) == 1:
            artificials.setdefault(nonzero[0], (j, col[nonzero[0]].numerator, 1))
    stored = [i for i in range(m) if i not in artificials]
    artificials.update({i: (n + p, 1, 0) for p, i in enumerate(stored)})
    T = [t[:n] + [_ONE if k == i else _ZERO for k in stored] + t[n:] for i, t in enumerate(T)]
    z = [_negated_sum(col) for col in zip(*T)]
    z[n:-1] = [_ZERO] * len(stored)
    basis, pivots = list(range(n, n + m)), []
    if _run_phase(T, basis, z, n, pivots, [artificials[i] for i in range(m)]) == STATUS_UNBOUNDED:
        # cannot happen: phase-1 objective is bounded below by zero
        raise RuntimeError("phase-1 simplex reported unbounded")
    if T.pop()[-1] < 0:
        return SimplexResult(STATUS_INFEASIBLE, None, None, None, tuple(pivots))

    # drive artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j]), None)
            if col is None:
                continue  # redundant row
            _pivot(T, basis, i, col, [t[col] for t in T])
            pivots.append((i, col))
        keep.append(i)
    T = [T[i][:n] + T[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: price the objective out over the basis
    z = c + [_ZERO]
    for ti, bi in zip(T, basis):
        if c[bi]:
            z = [a - c[bi] * b for a, b in zip(z, ti)]
    if _run_phase(T, basis, z, n, pivots) == STATUS_UNBOUNDED:
        return SimplexResult(STATUS_UNBOUNDED, None, None, None, tuple(pivots))
    x = [_ZERO] * n
    for ti, bi in zip(T, basis):
        x[bi] = ti[-1]
    return SimplexResult(STATUS_OPTIMAL, tuple(x), -T[-1][-1], tuple(basis), tuple(pivots))
