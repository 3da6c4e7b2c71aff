"""Numerical checks: the almost-orthogonality bound and decay slopes."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from haargap import cotlar_stein
from haargap.cotlar_stein import (
    TOLERANCES,
    MatrixFamily,
    OscillatoryProblem,
    cotlar_bound_check,
    orthogonal_projector_family,
    oscillatory_decay,
    run_validation_suite,
    seeded_family_corpus,
    smooth_bump,
)
from util import sequential_validation_suite

DEFAULT_LADDER = tuple(np.logspace(-1, -3, 9))


def _svd_norm(M):
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _problem_on(num_points, phase_fn, amplitude_fn, hbar_values=DEFAULT_LADDER):
    """The problem from_functions builds, on num_points points of [-1, 1] and any ladder."""
    grid = np.linspace(-1, 1, num_points)
    return OscillatoryProblem(grid, phase_fn(grid), amplitude_fn(grid), hbar_values)


def test_matrix_family_validation():
    with pytest.raises(ValueError):
        MatrixFamily(())
    with pytest.raises(ValueError):
        MatrixFamily((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="2-d"):
        MatrixFamily((np.ones(4),))
    with pytest.raises(ValueError, match="2-d"):
        MatrixFamily((np.ones((2, 2, 2)),))


@pytest.mark.parametrize(
    "members",
    [np.zeros((0, 3, 3)), (np.zeros((3, 0)),) * 2, (np.zeros((0, 3)),)],
    ids=["no-members", "no-columns", "no-rows"],
)
def test_matrix_family_refuses_zero_size(members):
    # zero rows or columns used to reach the Gram eigenvalues of
    # `cotlar_bound_check` and fail there with an IndexError
    with pytest.raises(ValueError, match="nonempty"):
        cotlar_bound_check(MatrixFamily(members))


@pytest.mark.parametrize("container", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
def test_matrix_family_members_are_one_complex_array(container):
    rng = np.random.default_rng(5)
    matrices = [rng.standard_normal((4, 3)) for _ in range(3)]
    family = MatrixFamily(container(matrices))
    assert isinstance(family.members, np.ndarray)
    assert family.members.dtype == complex
    assert family.members.shape == (3, 4, 3)
    assert family.shape == (4, 3)
    assert np.array_equal(family.members, np.stack(matrices))


def test_orthogonal_projectors_equal_the_block_by_block_family():
    members = []
    for b in range(4):
        m = np.zeros((8, 8), dtype=complex)
        m[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = np.eye(2)
        members.append(m)
    family = orthogonal_projector_family(4, 2)
    assert family.members.shape == (4, 8, 8)
    assert family.members.tobytes() == np.stack(members).tobytes()


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_matrix_family_refuses_non_finite_members(entry):
    bad = np.eye(3, 2, dtype=complex)
    bad[2, 1] = complex(1.0, entry)
    with pytest.raises(ValueError, match="non-finite"):
        MatrixFamily((np.ones((3, 2)), bad))
    with pytest.raises(ValueError, match="non-finite"):
        MatrixFamily((np.full((2, 3), entry),))


def test_cotlar_single_member_is_tight():
    fam = MatrixFamily.random_gaussian(1, 8, 8, seed=3)
    check = cotlar_bound_check(fam)
    assert check.holds
    assert check.lhs == pytest.approx(check.R1, rel=TOLERANCES.equality_tol)
    assert check.lhs == pytest.approx(check.R2, rel=TOLERANCES.equality_tol)
    assert check.lhs == pytest.approx(_svd_norm(fam.members[0]), rel=TOLERANCES.equality_tol)


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5)], ids=["tall", "wide", "square"])
def test_cotlar_single_member_is_tight_exactly(shape):
    # the sum of one member is that member, normed in the same eigensolve
    for seed in range(8):
        family = MatrixFamily.random_gaussian(1, *shape, seed)
        check = cotlar_bound_check(family)
        assert check.lhs == max(check.R1, check.R2)
        assert check.lhs == pytest.approx(_svd_norm(family.members[0]), rel=1e-12)


def test_cotlar_orthogonal_projectors_equality():
    family = orthogonal_projector_family(4, 2)
    check = cotlar_bound_check(family)
    assert check.holds
    assert check.R1 == pytest.approx(1.0, abs=TOLERANCES.equality_tol)
    assert check.R2 == pytest.approx(1.0, abs=TOLERANCES.equality_tol)
    assert check.lhs == pytest.approx(1.0, abs=TOLERANCES.equality_tol)
    # the triangle-inequality bound, the sum of the member norms, is far cruder here
    assert sum(map(_svd_norm, family.members)) == pytest.approx(4.0, abs=1e-9)


def test_cotlar_random_families_hold_within_the_triangle_bound():
    for fam in seeded_family_corpus(0)[:10]:
        check = cotlar_bound_check(fam)
        assert check.holds
        assert check.lhs <= sum(map(_svd_norm, fam.members)) * (1.0 + TOLERANCES.bound_slack)


def test_oscillatory_zero_amplitude():
    problem = _problem_on(2**12 + 1, lambda x: x, np.zeros_like)
    decay = oscillatory_decay(problem)
    assert all(m == 0.0 for m in decay.magnitudes)
    assert math.isnan(decay.fitted_slope)


def test_from_functions_samples_the_default_grid_and_ladder():
    built = OscillatoryProblem.from_functions(lambda x: x**2 / 2.0, smooth_bump)
    expected = _problem_on(2**17 + 1, lambda x: x**2 / 2.0, smooth_bump)
    for name in ("grid", "phase", "amplitude"):
        assert getattr(built, name).tobytes() == getattr(expected, name).tobytes()
    assert built.hbar_values == expected.hbar_values


def test_oscillatory_nonstationary_phase_decays_fast():
    decay = oscillatory_decay(OscillatoryProblem.from_functions(lambda x: x, smooth_bump))
    assert decay.min_phase_speed > 0.5
    assert decay.fitted_slope >= TOLERANCES.slope_floor
    # magnitudes drop monotonically in this clean case
    assert decay.magnitudes[-1] < decay.magnitudes[0]


def test_oscillatory_stationary_phase_is_square_root():
    decay = oscillatory_decay(
        OscillatoryProblem.from_functions(lambda x: x**2 / 2.0, smooth_bump)
    )
    lo = TOLERANCES.stationary_slope - TOLERANCES.stationary_window
    hi = TOLERANCES.stationary_slope + TOLERANCES.stationary_window
    assert lo <= decay.fitted_slope <= hi


def test_nonstationary_beats_stationary_slope():
    fast = oscillatory_decay(OscillatoryProblem.from_functions(lambda x: x, smooth_bump))
    slow = oscillatory_decay(
        OscillatoryProblem.from_functions(lambda x: x**2 / 2.0, smooth_bump)
    )
    assert fast.fitted_slope > slow.fitted_slope


def test_oscillatory_resolution_guard():
    # 257 points cannot resolve oscillations at hbar = 1e-3
    problem = _problem_on(257, lambda x: x, smooth_bump)
    with pytest.raises(ValueError, match="points per period"):
        oscillatory_decay(problem)


def test_oscillatory_problem_validation():
    grid = np.linspace(-1, 1, 101)
    bump = smooth_bump(grid)
    with pytest.raises(ValueError, match="vanish"):
        OscillatoryProblem(grid, grid, np.ones_like(grid), (0.1, 0.01))
    with pytest.raises(ValueError, match="decreasing"):
        OscillatoryProblem(grid, grid, bump, (0.01, 0.1))
    with pytest.raises(ValueError, match="positive"):
        OscillatoryProblem(grid, grid, bump, (0.1, -0.01))
    with pytest.raises(ValueError, match="uniform"):
        OscillatoryProblem(grid**3, grid, bump, (0.1, 0.01))
    with pytest.raises(ValueError, match="odd"):
        OscillatoryProblem(grid[:-1], grid[:-1], bump[:-1], (0.1, 0.01))
    with pytest.raises(ValueError, match="equal length"):
        OscillatoryProblem(grid, grid[:-2], bump, (0.1, 0.01))


_GRID = np.linspace(-1, 1, 101)


def _spiked(values, spike):
    values = values.copy()
    values[50] = spike
    return values


def _problem_with(**changes):
    fields = dict(grid=_GRID, phase=_GRID, amplitude=smooth_bump(_GRID), hbar_values=(0.1, 0.01))
    fields.update(changes)
    return OscillatoryProblem(**fields)


@pytest.mark.parametrize(
    "changes",
    [
        # a uniform step of inf: the uniformity check alone lets this grid through
        {
            "grid": np.array([-np.inf, 0.0, np.inf]),
            "phase": np.zeros(3),
            "amplitude": np.array([0.0, 1.0, 0.0]),
        },
        {"phase": _spiked(_GRID, np.nan)},
        {"amplitude": _spiked(smooth_bump(_GRID), np.inf)},
        {"hbar_values": (0.1, float("nan"), 0.02)},
        {"hbar_values": (float("inf"), 0.1)},
    ],
    ids=["grid", "phase", "amplitude", "hbar-nan", "hbar-inf"],
)
def test_oscillatory_problem_rejects_non_finite(changes):
    with pytest.raises(ValueError, match="finite"):
        _problem_with(**changes)


def _simpson_weights(grid):
    weights = np.ones_like(grid)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return weights * ((grid[1] - grid[0]) / 3.0)


def _perturbed_even_phase(x):
    # one entry of the tail, where the amplitude is far from 0, moved off x^2/2
    phase = x**2 / 2.0
    phase[3 * len(x) // 4] += 1e-6
    return phase


# mirrored: whether the phase is exactly even or odd about the grid's middle
# entry, so that np.exp sees only its first (N+1)//2 points; None where that
# rests on libm's sin being exactly odd
@pytest.mark.parametrize(
    "problem, mirrored",
    [
        (OscillatoryProblem.from_functions(lambda x: x, smooth_bump), True),
        (OscillatoryProblem.from_functions(lambda x: x**2 / 2.0, smooth_bump), True),
        (_problem_on(2**10 + 1, lambda x: np.sin(3 * x), smooth_bump, (0.2, 0.1, 0.05)), None),
        # short quadratures on a long ladder, twenty on each thread
        (
            _problem_on(
                2**10 + 1, lambda x: np.sin(3 * x), smooth_bump, tuple(np.geomspace(0.2, 0.05, 40))
            ),
            None,
        ),
        (OscillatoryProblem.from_functions(lambda x: x + x**2 / 2.0, smooth_bump), False),
        (OscillatoryProblem.from_functions(_perturbed_even_phase, smooth_bump), False),
        # both even and odd
        (OscillatoryProblem.from_functions(np.zeros_like, smooth_bump), True),
        # the smallest grids: a one-entry tail, and a two-entry tail of which
        # one entry has a nonzero amplitude
        (_problem_on(3, lambda x: x, smooth_bump, (8.0, 4.0)), True),
        (_problem_on(5, lambda x: x, smooth_bump, (4.0, 2.0)), True),
    ],
    ids=[
        "nonstationary", "stationary", "short-grid", "long-ladder", "asymmetric",
        "perturbed-even", "zero", "3-point", "5-point",
    ],
)
def test_quadrature_matches_one_expression_oracle_bit_for_bit(problem, mirrored, request, monkeypatch):
    weights = _simpson_weights(problem.grid)
    expected = tuple(
        float(abs(np.sum(weights * problem.amplitude * np.exp(1j * problem.phase / h))))
        for h in problem.hbar_values
    )
    # a symmetric phase takes the exp of its first (N+1)//2 points only
    size = problem.grid.size
    if mirrored is None:
        flipped = problem.phase[::-1]
        mirrored = bool((flipped == problem.phase).all() or (flipped == -problem.phase).all())
    exp, exp_sizes = np.exp, []

    def counted(*args, **kwargs):
        exp_sizes.append(np.size(args[0]))
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    assert oscillatory_decay(problem).magnitudes == expected
    monkeypatch.undo()
    assert exp_sizes == [(size + 1) // 2 if mirrored else size] * len(problem.hbar_values)
    # repeated calls, concurrent on more threads than cores and with frequent
    # switches, interleave their quadratures differently each time but give the
    # same floats
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            runs = [pool.submit(oscillatory_decay, problem) for _ in range(6)]
            assert [run.result(timeout=60).magnitudes for run in runs] == [expected] * 6
    finally:
        sys.setswitchinterval(interval)
    if request.node.callspec.id != "long-ladder":
        return
    # the calling thread computes h_0, h_2, ... in order, and its one helper
    # h_1, h_3, ...: the split is fixed before any work starts
    seen = []
    quadrature = cotlar_stein._simpson_sum

    def recorded(weighted, phase, h, terms, mirror):
        seen.append((h, threading.get_ident()))
        return quadrature(weighted, phase, h, terms, mirror)

    monkeypatch.setattr(cotlar_stein, "_simpson_sum", recorded)
    assert oscillatory_decay(problem).magnitudes == expected
    caller = threading.get_ident()
    assert [h for h, thread in seen if thread == caller] == list(problem.hbar_values[0::2])
    (helper,) = {thread for _, thread in seen} - {caller}
    assert [h for h, thread in seen if thread == helper] == list(problem.hbar_values[1::2])


@pytest.mark.parametrize(
    "phase, mirror", [(lambda x: x, -1), (lambda x: x**2 / 2.0, 1)], ids=["nonstationary", "stationary"]
)
def test_decay_check_buffers_stay_on_the_calling_thread(phase, mirror):
    # the weighted amplitude and two complex scratch buffers, one per thread,
    # make five grids; holding 1j * phase and the phase speeds as well made 7.25
    problem = OscillatoryProblem.from_functions(phase, smooth_bump)
    tracemalloc.start()
    try:
        oscillatory_decay(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * problem.grid.nbytes

    # one quadrature in caller-owned buffers allocates nothing large, so the
    # helper thread never grows a malloc arena of its own
    terms = np.empty(problem.grid.shape, complex)
    peaks = []

    def quadrature():
        tracemalloc.start()
        try:
            cotlar_stein._simpson_sum(problem.amplitude, problem.phase, 0.01, terms, mirror)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    worker = threading.Thread(target=quadrature)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert peaks and peaks[0] <= 64 * 1024


def test_decay_check_threads_write_to_different_buffers(monkeypatch):
    # each thread's first quadrature waits at a barrier until the other's has
    # begun, so the two run at once whatever the scheduling, and each must
    # write to a scratch buffer of its own
    simpson_sum, barrier, buffers = cotlar_stein._simpson_sum, threading.Barrier(2, timeout=10), {}

    def held(weighted, phase, h, terms, mirror):
        if threading.get_ident() not in buffers:
            buffers[threading.get_ident()] = terms
            barrier.wait()
        return simpson_sum(weighted, phase, h, terms, mirror)

    monkeypatch.setattr(cotlar_stein, "_simpson_sum", held)
    problem = _problem_on(2**12 + 1, lambda x: x, smooth_bump, (0.1, 0.05))
    oscillatory_decay(problem)
    first, second = buffers.values()
    assert not np.shares_memory(first, second)


def test_validation_suite_passes_and_is_seeded():
    summary = run_validation_suite(seed=0)
    assert summary["all_passed"]
    assert summary["seed"] == 0
    again = run_validation_suite(seed=0)
    assert summary["checks"] == again["checks"]


def test_validation_suite_exp_work_is_pinned(monkeypatch):
    # the calls to np.exp and the points they see over validate --seed 0, on
    # both threads: the bumps' real exps and the mirrored quadratures' complex
    # ones.  A count that moves is a change in the work of the float layer:
    # fix the regression or re-pin it as a golden
    exp, sizes = np.exp, []

    def counted(*args, **kwargs):
        sizes.append(np.size(args[0]))
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    assert run_validation_suite(seed=0)["all_passed"]
    assert (len(sizes), sum(sizes)) == (20, 1_441_808)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 2])
def test_validation_suite_equals_its_checks_run_in_sequence(seed):
    # the Cotlar-Stein half runs on a worker thread; every float must still be
    # the one the same public calls give one after another on this thread
    threads = threading.active_count()
    summary = run_validation_suite(seed)
    assert threading.active_count() == threads
    assert summary == sequential_validation_suite(seed)


def test_validation_suite_worker_exception_propagates_and_joins(monkeypatch):
    def fail(family):
        raise RuntimeError("worker failed")

    monkeypatch.setattr(cotlar_stein, "cotlar_bound_check", fail)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        run_validation_suite(0)
    assert threading.active_count() == threads
    monkeypatch.undo()

    # a quadrature that fails on the calling thread, then one that fails on
    # the decay check's helper thread: the error is raised, and no thread is
    # left running
    caller = threading.get_ident()
    for failing_thread in ("caller", "helper"):

        def quadrature(weighted, phase, h, terms, mirror):
            if (threading.get_ident() == caller) == (failing_thread == "caller"):
                raise RuntimeError(f"{failing_thread} failed")
            return 1.0

        monkeypatch.setattr(cotlar_stein, "_simpson_sum", quadrature)
        with pytest.raises(RuntimeError, match=f"{failing_thread} failed"):
            run_validation_suite(0)
        assert threading.active_count() == threads
        monkeypatch.undo()


def test_validation_suite_joins_every_executor_it_starts(monkeypatch):
    # a live-thread count can miss a leaked executor whose idle worker exits
    # meanwhile; a record of each executor's shutdown cannot
    started = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.joined = False
            started.append(self)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            self.joined = wait

    monkeypatch.setattr(cotlar_stein, "ThreadPoolExecutor", Recorded)
    run_validation_suite(0)
    # the suite's Cotlar-Stein worker and one helper per decay check
    assert len(started) == 3 and all(e.joined for e in started)


def test_cotlar_cross_norms_match_per_pair_oracle():
    # QR-reduced Gram eigenvalues over the pairs a < b, and the summed family's
    # Gram eigenvalue, against one full SVD per ordered pair and of the sum, on
    # tall, wide and square families of 1, 2, 12 and other sizes; a zero member
    # has Gram eigenvalues exactly 0.  It goes in with np.insert: on an array,
    # tuple-style `[:2] + (zero,) + [2:]` adds elementwise and drops it
    four = MatrixFamily.random_gaussian(4, 6, 3, seed=15).members
    with_zero = MatrixFamily(np.insert(four, 2, 0, axis=0))
    assert with_zero.members.shape == (5, 6, 3) and not with_zero.members[2].any()
    families = seeded_family_corpus(0)[:10] + [
        MatrixFamily.random_gaussian(1, 7, 3, seed=11),
        MatrixFamily.random_gaussian(2, 3, 9, seed=12),
        MatrixFamily.random_gaussian(12, 10, 4, seed=13),
        MatrixFamily.random_gaussian(12, 5, 8, seed=14),
        MatrixFamily.random_gaussian(12, 16, 2, seed=16),
        MatrixFamily.random_gaussian(12, 2, 16, seed=17),
        with_zero,
        orthogonal_projector_family(4, 2),
    ]
    signs, sizes = set(), set()
    for fam in families:
        members = fam.members
        rows, cols = fam.shape
        signs.add(np.sign(rows - cols))
        sizes.add(len(members))
        R1 = max(sum(math.sqrt(_svd_norm(a.conj().T @ b)) for b in members) for a in members)
        R2 = max(sum(math.sqrt(_svd_norm(a @ b.conj().T)) for b in members) for a in members)
        lhs = _svd_norm(sum(members))
        check = cotlar_bound_check(fam)
        assert check.R1 == pytest.approx(R1, rel=1e-12)
        assert check.R2 == pytest.approx(R2, rel=1e-12)
        assert check.lhs == pytest.approx(lhs, rel=1e-12)
        assert check.holds == (lhs <= max(R1, R2) * (1.0 + TOLERANCES.bound_slack))
        assert check.holds
    assert {-1, 0, 1} <= signs
    assert {1, 2, 12} <= sizes


def test_cotlar_rejects_non_finite_family():
    with pytest.raises(ValueError, match="non-finite"):
        cotlar_bound_check(MatrixFamily((np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]]))))
