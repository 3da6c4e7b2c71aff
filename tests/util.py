"""Shared test helpers: random exact data, mask-based support oracles, the
recursive partition-walk oracle, the root-by-root entropy oracles and the
brute-force LP oracles.

The support oracles work on bitmasks over build_type_a(n)'s root order, a
representation the program does not use: it reads supports only as Partition
blocks.  The LP oracles are deliberately independent of the production
simplex: they enumerate every choice of active constraints (or of basic
columns), solve the square system by rational Gaussian elimination, filter
for feasibility and take the best objective value.  The validation-suite
oracle runs the float layer's public checks one after another on the calling
thread.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from haargap.entropy import LyapunovSpectrum
from haargap.roots import CartanElement, Root, RootSystem, dominant_representative
from haargap.simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    SimplexResult,
)
from haargap.supports import Partition

KIND_OTHER = "other"


def random_trace_zero(rng: random.Random, n: int) -> CartanElement:
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
    mean = sum(coords, Fraction(0)) / n
    return CartanElement(tuple(c - mean for c in coords))


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def scaled(X: CartanElement, c) -> CartanElement:
    """The direction cX."""
    c = Fraction(c)
    return CartanElement(tuple(c * x for x in X.coords))


def negated(X: CartanElement) -> CartanElement:
    """The direction -X, the inverse flow."""
    return CartanElement(tuple(-x for x in X.coords))


def root_indices(rs: RootSystem) -> dict[tuple[int, int], int]:
    """The index in rs.roots of each root alpha_ij, keyed by (i, j)."""
    return {(r.i, r.j): k for k, r in enumerate(rs.roots)}


def evaluate_root(rs: RootSystem, alpha: Root, X: CartanElement) -> Fraction:
    """Exact value of alpha on X, i.e. X_i - X_j."""
    if X.n != rs.n:
        raise ValueError(f"dimension mismatch: root system has n={rs.n}, element has n={X.n}")
    return X.coords[alpha.i - 1] - X.coords[alpha.j - 1]


def root_vector(rs: RootSystem, alpha: Root) -> tuple[Fraction, ...]:
    """The coordinate vector e_i - e_j of alpha_ij."""
    vec = [Fraction(0)] * rs.n
    vec[alpha.i - 1] = Fraction(1)
    vec[alpha.j - 1] = Fraction(-1)
    return tuple(vec)


def negation(rs: RootSystem) -> tuple[int, ...]:
    """For each root index k, the index of -rs.roots[k]."""
    index = root_indices(rs)
    return tuple(index[(r.j, r.i)] for r in rs.roots)


def permute_root(rs: RootSystem, alpha: Root, perm: Sequence[int]) -> Root:
    """Weyl action on roots: alpha_ij -> alpha_{perm(i) perm(j)} (0-based perm)."""
    return Root(perm[alpha.i - 1] + 1, perm[alpha.j - 1] + 1)


def apply_permutation(X: CartanElement, perm: Sequence[int]) -> CartanElement:
    """Weyl action on Cartan elements: position perm[k] receives coordinate k (0-based perm)."""
    coords = [Fraction(0)] * len(X.coords)
    for k, p in enumerate(perm):
        coords[p] = X.coords[k]
    return CartanElement(tuple(coords))


def full_mask(rs: RootSystem) -> int:
    """Bitmask of every root."""
    return (1 << len(rs.roots)) - 1


def pair_mask(rs: RootSystem, i: int, j: int) -> int:
    """Bitmask of the symmetric pair {alpha_ij, alpha_ji}."""
    index = root_indices(rs)
    return (1 << index[(i, j)]) | (1 << index[(j, i)])


@dataclass(frozen=True)
class SupportSet:
    """A root subset given as a bitmask: make_support's answer for a non-partition mask."""

    mask: int
    label: str
    kind: str


def mask_of(R: Partition | SupportSet) -> int:
    """Bitmask of R's roots over build_type_a(n)'s lexicographic root order.

    A Partition's root (i, j), i != j, has bit (i-1)(n-1) + j-1 - [j > i];
    a SupportSet carries its mask.
    """
    if isinstance(R, SupportSet):
        return R.mask
    n = sum(map(len, R))
    pairs = (p for block in R for p in itertools.permutations(block, 2))
    return sum(1 << (i - 1) * (n - 1) + j - 1 - (j > i) for i, j in pairs)


def recursive_partitions(rest: tuple, sizes, prefix: tuple):
    """Yield prefix + each partition of rest into blocks of the given sizes.

    The oracle of the production walk, which cuts by a table of positions
    per length: here the smallest unused element opens each block and
    `itertools.combinations` picks its partners among the elements at every
    node, so with one size the partitions come out in lexicographic order of
    their block lists.
    """
    first, others = rest[0], rest[1:]
    for size in sizes:
        if size == len(rest):
            yield Partition((*prefix, rest))
            continue
        for partners in itertools.combinations(others, size - 1):
            left = tuple(itertools.filterfalse(partners.__contains__, others))
            yield from recursive_partitions(left, sizes, (*prefix, (first, *partners)))


def support_indices(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a mask, ascending."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    m = mask
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _check_mask(rs: RootSystem, mask: int) -> None:
    if mask < 0 or mask >> len(rs.roots):
        raise ValueError(f"mask {mask:#x} does not fit a root system with {len(rs.roots)} roots")


def is_symmetric_mask(rs: RootSystem, mask: int) -> bool:
    _check_mask(rs, mask)
    neg = negation(rs)
    return all(mask >> neg[k] & 1 for k in support_indices(mask))


def closure_of(rs: RootSystem, mask: int) -> int:
    """Smallest addition-closed superset: α_ik and α_kj force α_ij when i != j.

    This is the transitive closure of the index pairs, built one pivot k at a
    time (Warshall).
    """
    _check_mask(rs, mask)
    pairs = {(rs.roots[b].i, rs.roots[b].j) for b in support_indices(mask)}
    for k in range(1, rs.n + 1):
        into = [i for i, m in pairs if m == k]
        out = [j for m, j in pairs if m == k]
        pairs.update((i, j) for i in into for j in out if i != j)
    index = root_indices(rs)
    closed = 0
    for pair in pairs:
        closed |= 1 << index[pair]
    return closed


def make_support(rs: RootSystem, mask: int) -> Partition | SupportSet:
    """The Partition whose support is the mask, or else a SupportSet of kind `other`.

    Each index's partners {i} ∪ {j : α_ij ∈ mask} are its candidate block; the
    mask is admissible exactly when those blocks rebuild it.  Any other mask
    is labelled by its positive roots.
    """
    _check_mask(rs, mask)
    partners = {i: {i} for i in range(1, rs.n + 1)}
    idx = support_indices(mask)
    for k in idx:
        partners[rs.roots[k].i].add(rs.roots[k].j)
    support = Partition(sorted({tuple(sorted(p)) for p in partners.values()}))
    if mask_of(support) == mask:
        return support
    pos = [rs.roots[k] for k in idx if rs.roots[k].i < rs.roots[k].j]
    label = "{" + ", ".join(f"±α_{r.i}{r.j}" for r in pos) + "}"
    return SupportSet(mask, label, KIND_OTHER)


def is_admissible(rs: RootSystem, R: Partition | SupportSet) -> bool:
    """True iff R is symmetric and addition-closed."""
    mask = mask_of(R)
    _check_mask(rs, mask)
    return is_symmetric_mask(rs, mask) and closure_of(rs, mask) == mask


def component_entropy_cap(rs: RootSystem, R: Partition | SupportSet | int, X: CartanElement) -> Fraction:
    """Maximal entropy of a component supported on R, at this specific X.

    The input is deliberately NOT dominantized: the rigidity linear program
    needs the cap at each orbit element separately.
    """
    if isinstance(R, Partition) and sorted(i for block in R for i in block) != list(range(1, rs.n + 1)):
        raise ValueError(f"{R} is not a partition of 1..{rs.n}")
    mask = R if isinstance(R, int) else mask_of(R)
    _check_mask(rs, mask)
    total = Fraction(0)
    for k in support_indices(mask):
        v = evaluate_root(rs, rs.roots[k], X)
        if v > 0:
            total += v
    return total


def lyapunov_spectrum(rs: RootSystem, X: CartanElement) -> LyapunovSpectrum:
    """Positive-root exponents of the dominant representative of X, one per root."""
    Xd = dominant_representative(X)
    values = sorted(evaluate_root(rs, rs.roots[k], Xd) for k in rs.positive_indices)
    # the top exponent over every root, against the spectrum's own reading
    chi_max = max((evaluate_root(rs, root, Xd) for root in rs.roots), default=Fraction(0))
    spec = LyapunovSpectrum(tuple(values), Xd)
    assert spec.chi_max == chi_max
    return spec


def haar_entropy(rs: RootSystem, X: CartanElement) -> Fraction:
    """Entropy of Haar measure under e^X: sum of positive parts over all roots."""
    total = Fraction(0)
    for root in rs.roots:
        v = evaluate_root(rs, root, X)
        if v > 0:
            total += v
    return total


def entropy_lower_bound(rs: RootSystem, X: CartanElement) -> Fraction:
    """Proved entropy floor for the flow in direction X.

    Sums alpha(X) - chi_max/2 over exponents with
    alpha(X) >= chi_max/2; the comparison is closed, so ties are kept.
    X is dominantized internally.  Zero for X = 0.
    """
    spec = lyapunov_spectrum(rs, X)
    half_max = spec.chi_max / 2
    total = Fraction(0)
    for v in spec.values:
        if v >= half_max:
            total += v - half_max
    return total


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
    objective = model.objective
    rows = [[row[g] for g in model.group_of] for row in model.ge_rows]
    return [objective[g] for g in model.group_of], rows


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


def explicit_artificial_standard_form(A, b, c, pivots=None) -> SimplexResult:
    """solve_standard_form as it was with one stored artificial column per row.

    The reference for the production solver, which reads an artificial off a
    signed unit column of its row instead: the same two phases, Bland's rule
    and ratio test, on a tableau [A | I | b] whose artificial columns are
    always stored and pivoted.  Only the arithmetic is repeated here, not
    shared, so an error in the derived columns cannot hide in both.  A list
    passed as pivots gets the (row, column) of each pivot, in order.
    """
    zero, one = Fraction(0), Fraction(1)
    m, n = len(A), len(A[0]) if A else 0
    c = [Fraction(v) for v in c]
    if len(c) != n:
        raise ValueError(f"objective length {len(c)} does not match {n} columns")
    if not m:
        return SimplexResult(STATUS_OPTIMAL, (), zero, ())

    def pivot(T, basis, row, col):
        if pivots is not None:
            pivots.append((row, col))
        prow = T[row] = [v / T[row][col] for v in T[row]]
        for i, ti in enumerate(T):
            if i != row and ti[col]:
                T[i] = [a - ti[col] * p for a, p in zip(ti, prow)]
        basis[row] = col

    def run(T, basis, z):
        T.append(z)
        while True:
            col = next((j for j in range(len(z) - 1) if T[-1][j] < 0), None)
            if col is None:
                return STATUS_OPTIMAL
            ratios = [(T[i][-1] / T[i][col], basis[i], i) for i in range(len(basis)) if T[i][col] > 0]
            if not ratios:
                return STATUS_UNBOUNDED
            pivot(T, basis, min(ratios)[2], col)

    T = []
    for i in range(m):
        sign = -1 if b[i] < 0 else 1
        T.append([sign * Fraction(v) for v in A[i]] + [one if k == i else zero for k in range(m)]
                 + [sign * Fraction(b[i])])
    basis = list(range(n, n + m))
    z = [-sum(col, zero) for col in zip(*T)]
    z[n:n + m] = [zero] * m
    if run(T, basis, z) == STATUS_UNBOUNDED:
        raise RuntimeError("phase-1 simplex reported unbounded")
    if T.pop()[-1] < 0:
        return SimplexResult(STATUS_INFEASIBLE, None, None, None)
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j]), None)
            if col is None:
                continue
            pivot(T, basis, i, col)
        keep.append(i)
    T = [T[i][:n] + T[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    z = c + [zero]
    for ti, bi in zip(T, basis):
        z = [a - c[bi] * v for a, v in zip(z, ti)]
    if run(T, basis, z) == STATUS_UNBOUNDED:
        return SimplexResult(STATUS_UNBOUNDED, None, None, None)
    x = [zero] * n
    for ti, bi in zip(T, basis):
        x[bi] = ti[-1]
    return SimplexResult(STATUS_OPTIMAL, tuple(x), -T[-1][-1], tuple(basis))


def sequential_validation_suite(seed: int) -> dict:
    """run_validation_suite(seed) composed of the same public checks, one
    after another on the calling thread; numpy is imported only here."""
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

    tol = TOLERANCES
    single = cotlar_bound_check(MatrixFamily.random_gaussian(1, 8, 8, seed + 1))
    proj = cotlar_bound_check(orthogonal_projector_family(4, 2))
    corpus = [cotlar_bound_check(f) for f in seeded_family_corpus(seed)]
    decays = [
        oscillatory_decay(OscillatoryProblem.from_functions(phase, smooth_bump)).fitted_slope
        for phase in (lambda x: x, lambda x: x**2 / 2.0)
    ]
    lo, hi = tol.stationary_slope - tol.stationary_window, tol.stationary_slope + tol.stationary_window
    checks = [
        ("single-member family is tight",
         single.holds
         and abs(single.lhs - max(single.R1, single.R2)) <= tol.equality_tol * max(single.lhs, 1.0)),
        ("orthogonal projectors are tight",
         proj.holds
         and abs(proj.lhs - 1.0) <= tol.equality_tol
         and abs(max(proj.R1, proj.R2) - 1.0) <= tol.equality_tol),
        ("random families satisfy the bound", all(c.holds for c in corpus)),
        ("non-vanishing phase derivative decays fast", decays[0] >= tol.slope_floor),
        ("stationary point slows decay to square-root rate", lo <= decays[1] <= hi),
    ]
    summary = [{"name": name, "passed": bool(passed)} for name, passed in checks]
    summary[3]["slope"], summary[4]["slope"] = decays
    return {"seed": seed, "checks": summary, "all_passed": all(c["passed"] for c in summary)}
