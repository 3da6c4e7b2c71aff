"""Desk-scale numerical checks of two operator estimates.

* Almost-orthogonality: for a finite family of equal-shape matrices A_1..A_k,
  the norm of the sum is at most max(R1, R2), where R1 bounds the row sums of
  the paired cross-norms ||A_a^* A_b||^(1/2) and R2 those of ||A_a A_b^*||^(1/2).
* Oscillatory decay: integrals of exp(i S(x)/h) a(x) over a compact interval
  decay superpolynomially in h when the phase derivative never vanishes on the
  support of the amplitude, and only like h^(1/2) at a nondegenerate
  stationary point.

The family check reads every norm it needs, the summed family's included, as
the square root of the top eigenvalue of a min(rows, cols)-square Gram matrix,
all from one batched `linalg.eigvalsh`, after one batched QR of the members or
of their adjoints, whichever are tall; the cross norms are taken over the pairs
a < b only, since both are symmetric in the pair and the diagonal is the member
norm.  Against an SVD, which only the tests take, these norms differ by about
1e-15 relative, far inside `bound_slack` and `equality_tol`.  A family is one
complex array of shape (members, rows, cols), checked once when it is built:
ragged, zero-size or non-finite input is refused there.  This is the only module
that touches floating point; every tolerance lives in the single `TOLERANCES`
record below.

`run_validation_suite` runs the almost-orthogonality checks on a worker thread
beside the decay checks, and each `oscillatory_decay` splits its h ladder
between two threads before any work starts: the calling thread takes every
second h from the first, a helper thread the others.  Every array is
allocated on the calling thread, the helper's scratch buffer too, and the
helper writes only through `out=`, so no large block lands in a second malloc
arena.  The exp argument is phase * (1/h) put in the imaginary part of a
zeroed buffer: bitwise numpy's 1j * phase / h, without the array 1j * phase.
A phase exactly even or odd about the grid's middle entry, as x^2/2 and x are
on `np.linspace(-1, 1, N)`, has its exp taken on the first (N+1)//2 entries and
mirrored onto the rest.  That is bitwise the full exp: an even phase gives the
tail the same exp inputs, and for an odd one exp(-i t) = conj(exp(i t)) bit for
bit, which the one-expression oracle test checks.  So each float is the one a
sequential, unmirrored run gives.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NumericTolerances:
    bound_slack: float = 1e-8         # multiplicative slack on the orthogonality bound
    equality_tol: float = 1e-9        # degenerate cases must match to this
    slope_floor: float = 2.0          # asserted decay slope for a non-vanishing phase derivative
    stationary_slope: float = 0.5     # expected slope at a nondegenerate stationary point
    stationary_window: float = 0.1
    min_points_per_period: int = 20   # quadrature resolution guard


TOLERANCES = NumericTolerances()


@dataclass(frozen=True)
class MatrixFamily:
    """A nonempty family of finite dense complex matrices, as one (k, rows, cols) array."""

    members: np.ndarray

    def __post_init__(self) -> None:
        members = np.asarray(self.members, dtype=complex)  # ragged input raises here
        if members.ndim != 3 or members.size == 0:
            raise ValueError("matrix family must be one or more nonempty matrices of one 2-d shape")
        if not np.isfinite(members).all():
            raise ValueError("matrix family has non-finite entries")
        object.__setattr__(self, "members", members)

    @property
    def shape(self):
        return self.members.shape[1:]

    @classmethod
    def random_gaussian(cls, num_members: int, rows: int, cols: int, seed: int) -> "MatrixFamily":
        # member by member, real part before imaginary: the order of one draw per part
        parts = np.random.default_rng(seed).standard_normal((num_members, 2, rows, cols))
        return cls((parts[:, 0] + 1j * parts[:, 1]) / math.sqrt(2.0))


@dataclass(frozen=True)
class CotlarCheck:
    R1: float
    R2: float
    lhs: float

    @property
    def holds(self) -> bool:
        """Whether lhs stays below max(R1, R2) up to the configured slack."""
        return self.lhs <= max(self.R1, self.R2) * (1.0 + TOLERANCES.bound_slack)


def cotlar_bound_check(family: MatrixFamily) -> CotlarCheck:
    """Evaluate the almost-orthogonality bound on a matrix family.

    R1 and R2 are the worst row sums of the square-rooted cross norms; `holds`
    says whether the norm of the summed family stays below max(R1, R2) up
    to the configured slack.
    """
    members = family.members
    rows, cols = family.shape
    # the members or their adjoints, whichever are tall: T_a = Q_a R_a, so
    # T_a^* T_b is min-square and T_a T_b^* has the norm of R_a R_b^*
    tall = members if rows >= cols else members.conj().transpose(0, 2, 1)
    r = np.linalg.qr(tall, mode="r")
    k = len(members)
    # the summed family, whose adjoint is the sum of the adjoints, is normed as
    # member k, which no cross product reads
    tall = np.concatenate((tall, tall.sum(axis=0, keepdims=True)))
    wide = tall.conj().transpose(0, 2, 1)
    # entry (a, b) is ||A_a^* A_b||^(1/2), resp. ||A_a A_b^*||^(1/2): symmetric
    # in a and b and ||A_a|| on the diagonal, so only the pairs a < b are normed
    a, b = np.triu_indices(k, 1)
    cross = np.concatenate((wide[a] @ tall[b], r[a] @ r[b].conj().transpose(0, 2, 1)))
    grams = np.concatenate((wide @ tall, cross @ cross.conj().transpose(0, 2, 1)))
    norms = np.sqrt(np.linalg.eigvalsh(grams)[:, -1])
    lhs = float(norms[k])
    member_norms, _, direct, reduced = np.split(norms, [k, k + 1, k + 1 + len(a)])
    row_sums = []
    # T_a^* T_b is A_a^* A_b for a tall family and A_a A_b^* for a wide one
    for products in (direct, reduced) if rows >= cols else (reduced, direct):
        table = np.diag(member_norms)
        table[a, b] = table[b, a] = np.sqrt(products)
        row_sums.append(float(table.sum(axis=1).max()))
    R1, R2 = row_sums
    return CotlarCheck(R1, R2, lhs)


def orthogonal_projector_family(num_blocks: int, block_size: int) -> MatrixFamily:
    """Indicator-block projectors with mutually orthogonal ranges."""
    dim = num_blocks * block_size
    members = np.zeros((num_blocks, dim, dim), dtype=complex)
    i = np.arange(dim)
    members[i // block_size, i, i] = 1
    return MatrixFamily(members)


def smooth_bump(x: np.ndarray) -> np.ndarray:
    """The standard compactly supported bump exp(-1/(1-x^2)) on (-1, 1)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out


@dataclass(frozen=True)
class OscillatoryProblem:
    """A phase and amplitude sampled on a uniform grid, plus a ladder of h values."""

    grid: np.ndarray
    phase: np.ndarray
    amplitude: np.ndarray
    hbar_values: tuple

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        phase = np.asarray(self.phase, dtype=float)
        amplitude = np.asarray(self.amplitude, dtype=float)
        if not (grid.shape == phase.shape == amplitude.shape) or grid.ndim != 1:
            raise ValueError("grid, phase and amplitude must be 1-d arrays of equal length")
        if grid.size < 3 or grid.size % 2 == 0:
            raise ValueError("composite Simpson needs an odd number of grid points (>= 3)")
        if not all(np.isfinite(v).all() for v in (grid, phase, amplitude)):
            raise ValueError("grid, phase and amplitude must be finite")
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform")
        hbars = tuple(float(h) for h in self.hbar_values)
        if not hbars or not all(0 < h < math.inf for h in hbars):
            raise ValueError("hbar values must be positive and finite")
        if any(b >= a for a, b in zip(hbars, hbars[1:])):
            raise ValueError("hbar values must be strictly decreasing")
        amax = float(np.abs(amplitude).max())
        if amax > 0 and (abs(amplitude[0]) > 1e-12 * amax or abs(amplitude[-1]) > 1e-12 * amax):
            raise ValueError("amplitude must vanish at the interval endpoints")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "hbar_values", hbars)

    @classmethod
    def from_functions(cls, phase_fn, amplitude_fn) -> "OscillatoryProblem":
        """Both functions sampled at 2^17 + 1 points of [-1, 1], with 9 log-spaced h from 1e-1 to 1e-3."""
        grid = np.linspace(-1.0, 1.0, 2**17 + 1)
        return cls(grid, phase_fn(grid), amplitude_fn(grid), tuple(np.logspace(-1, -3, 9)))


@dataclass(frozen=True)
class OscillatoryDecay:
    """|I_h| for each h of the problem's ladder, in order, and their log-log slope."""

    magnitudes: tuple
    fitted_slope: float
    min_phase_speed: float
    max_phase_speed: float


def _simpson_sum(
    weighted: np.ndarray, phase: np.ndarray, h: float, terms: np.ndarray, mirror: int
) -> float:
    """|sum(weighted * exp(1j * phase / h))|, computed in the complex buffer `terms`.

    `mirror` is 1 for a phase even about the middle entry, -1 for an odd one,
    0 for any other: the exp is taken on the head, all N entries or the first
    (N+1)//2, and the tail is the head reversed, its imaginary part times
    `mirror`.  An entry 0.0 mirrored as -0.0 flips only the sign of a zero.
    """
    n = len(phase)
    m = (n + 1) // 2 if mirror else n
    head, tail, source = terms[:m], terms[m:], terms[: n - m][::-1]
    head.real = 0.0
    np.multiply(phase[:m], 1.0 / h, out=head.imag)  # bitwise 1j * phase / h; phase / h is not
    np.exp(head, out=head)
    tail.real = source.real
    np.multiply(source.imag, mirror, out=tail.imag)
    # weighted * terms would cast through a 128 KB ufunc buffer; this differs in zero signs only
    np.multiply(weighted, terms.real, out=terms.real)
    np.multiply(weighted, terms.imag, out=terms.imag)
    return float(abs(np.sum(terms)))


def oscillatory_decay(problem: OscillatoryProblem) -> OscillatoryDecay:
    """Quadrature magnitudes |I_h| and the log-log decay slope over the h ladder.

    Refuses to run when the fastest oscillation is resolved by fewer than 20
    grid points per period, since the fitted slope would then be quadrature
    noise rather than decay.  The calling thread computes the quadratures of
    h_0, h_2, ... and a helper thread those of h_1, h_3, ..., each in a scratch
    buffer of its own.  A failure on either thread is raised once the helper
    has finished its half and been joined.

    A phase exactly even or odd about the middle entry has each exp taken on
    half the grid and mirrored, conjugated when odd; the Simpson products and
    the full-length sum are unchanged, so the magnitudes are bitwise the
    unmirrored ones (module docstring).
    """
    grid = problem.grid
    hbars = problem.hbar_values
    dx = grid[1] - grid[0]
    speed = np.gradient(problem.phase, dx)
    amax = float(np.abs(problem.amplitude).max())
    support = np.abs(problem.amplitude) > 1e-14 * amax if amax > 0 else np.zeros_like(grid, bool)
    if support.any():
        min_speed = float(np.abs(speed[support]).min())
        max_speed = float(np.abs(speed[support]).max())
    else:
        min_speed = max_speed = 0.0
    del speed, support

    if max_speed > 0:
        shortest_period = 2.0 * math.pi * min(hbars) / max_speed
        points_per_period = shortest_period / dx
        if points_per_period < TOLERANCES.min_points_per_period:
            needed = math.ceil(
                (grid[-1] - grid[0]) * TOLERANCES.min_points_per_period / shortest_period
            )
            raise ValueError(
                f"grid under-resolves the fastest oscillation "
                f"({points_per_period:.1f} points per period < "
                f"{TOLERANCES.min_points_per_period}); use at least {needed + 1} points"
            )

    even, odd = (np.array_equal(problem.phase[::-1], s * problem.phase) for s in (1, -1))
    mirror = 1 if even else -1 if odd else 0  # the zero phase is both, and taken as even
    weighted = np.ones_like(grid)
    weighted[1:-1:2] = 4.0
    weighted[2:-1:2] = 2.0
    weighted *= dx / 3.0
    weighted *= problem.amplitude
    own, spare = np.empty(grid.shape, complex), np.empty(grid.shape, complex)
    mags = [None] * len(hbars)

    def work(indices, terms):
        for i in indices:
            mags[i] = _simpson_sum(weighted, problem.phase, hbars[i], terms, mirror)

    with ThreadPoolExecutor(max_workers=1) as pool:
        helper = pool.submit(work, range(1, len(hbars), 2), spare)
        work(range(0, len(hbars), 2), own)
        helper.result()

    usable = [(math.log(h), math.log(m)) for h, m in zip(hbars, mags) if m > 0]
    if len(usable) >= 2:
        xs = np.array([u[0] for u in usable])
        ys = np.array([u[1] for u in usable])
        xbar = xs.mean()
        slope = float(((xs - xbar) * (ys - ys.mean())).sum() / ((xs - xbar) ** 2).sum())
    else:
        slope = float("nan")
    return OscillatoryDecay(tuple(mags), slope, min_speed, max_speed)


def seeded_family_corpus(seed: int):
    """The validation suite's deterministic corpus: 50 random Gaussian families,
    each of 1 to 12 members with 2 to 16 rows and 2 to 16 columns."""
    rng = np.random.default_rng(seed)
    families = []
    for _ in range(50):
        k = int(rng.integers(1, 13))
        rows = int(rng.integers(2, 17))
        cols = int(rng.integers(2, 17))
        member_seed = int(rng.integers(0, 2**31 - 1))
        families.append(MatrixFamily.random_gaussian(k, rows, cols, member_seed))
    return families


def _cotlar_checks(seed: int) -> list:
    """The three almost-orthogonality verdicts, in the suite's order."""
    single = cotlar_bound_check(MatrixFamily.random_gaussian(1, 8, 8, seed + 1))
    eq = abs(single.lhs - max(single.R1, single.R2)) <= TOLERANCES.equality_tol * max(single.lhs, 1.0)
    checks = [{"name": "single-member family is tight", "passed": bool(single.holds and eq)}]

    proj = cotlar_bound_check(orthogonal_projector_family(4, 2))
    eq = (
        abs(proj.lhs - 1.0) <= TOLERANCES.equality_tol
        and abs(max(proj.R1, proj.R2) - 1.0) <= TOLERANCES.equality_tol
    )
    checks.append({"name": "orthogonal projectors are tight", "passed": bool(proj.holds and eq)})

    corpus_ok = all(cotlar_bound_check(f).holds for f in seeded_family_corpus(seed))
    checks.append({"name": "random families satisfy the bound", "passed": bool(corpus_ok)})
    return checks


def run_validation_suite(seed: int) -> dict:
    """Run every numerical check once; returns a summary with per-check verdicts.

    The three Cotlar-Stein checks run on a worker thread while the calling
    thread runs both decay checks, each with its own helper thread; the two
    halves share no data, and leaving the executor joins the worker, whose
    exception ``result()`` re-raises.  The summary is the one the same checks
    give in sequence.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        cotlar = pool.submit(_cotlar_checks, seed)

        nonstationary = oscillatory_decay(
            OscillatoryProblem.from_functions(lambda x: x, smooth_bump)
        )
        stationary = oscillatory_decay(
            OscillatoryProblem.from_functions(lambda x: x**2 / 2.0, smooth_bump)
        )
        checks = cotlar.result()

    checks.append(
        {
            "name": "non-vanishing phase derivative decays fast",
            "passed": bool(nonstationary.fitted_slope >= TOLERANCES.slope_floor),
            "slope": nonstationary.fitted_slope,
        }
    )
    window = (
        TOLERANCES.stationary_slope - TOLERANCES.stationary_window,
        TOLERANCES.stationary_slope + TOLERANCES.stationary_window,
    )
    checks.append(
        {
            "name": "stationary point slows decay to square-root rate",
            "passed": bool(window[0] <= stationary.fitted_slope <= window[1]),
            "slope": stationary.fitted_slope,
        }
    )

    return {"seed": seed, "checks": checks, "all_passed": all(c["passed"] for c in checks)}
