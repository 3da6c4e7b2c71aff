"""Mutation checks: each listed mutant of `src/` must make its paired tests fail.

Usage (stdlib only; the paired modules need pytest):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

Each mutant is one exact-text replacement in one file of `src/haargap`,
paired with the test known to catch it, and through it with that test's
module.  For each, `src/` is copied to a temporary directory, the replacement
is made in the copy, and `pytest -x -q <test> <module>` runs against it: the
known test first, then, if it passes, the whole module, so the check stays
module-wide.  The mutant is killed when pytest reports failed tests or errors.
A mutant whose pytest runs past MUTANT_TIMEOUT_S, such as one that makes a
loop never end, is stopped there and counted as detected, apart from the kills.
Two mutants run at a time.  Each pytest process runs in its mutant's
temporary directory, so Hypothesis keeps its example database there and a
failure that one mutant saves is never replayed by another or by tier-1.
All pytest processes of one run share a bytecode cache (PYTHONPYCACHEPREFIX)
in a temporary directory that is removed when the run ends, so the plugins and
test modules are compiled and assert-rewritten once, not once per mutant.
One line per mutant is printed in list order, with the first test that
failed or the timeout, and a summary line with the timeouts and the total
seconds; the exit code is 1 if any mutant survived or could not be applied.
A reader that closes stdout early, such as `| head -n 1`, ends the run at
once: no further mutant starts, the pytest runs already going are killed with
their process groups, and the exit code is 1, without a traceback.
The repository's own files are never changed.  The file name keeps it out of
pytest's default collection, so tier-1 does not run it.
"""

from __future__ import annotations

import contextlib
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# seconds each pytest process of one mutant may run: over three times the
# slowest module alone (tests/test_rigidity.py, about 9 s), so a mutant that
# only slows the tests down is not mistaken for one that hangs
MUTANT_TIMEOUT_S = 30
TIMED_OUT = f"timed out after {MUTANT_TIMEOUT_S} s"

# name: (file in src/haargap, exact old text, new text, known killing test)
MUTANTS = {
    "ratio-test ties broken by row": (
        "simplex.py",
        "(num * best_den, basis[i]) < (best_num * den, basis[best])",
        "(num * best_den, i) < (best_num * den, best)",
        "tests/test_simplex.py::test_seeded_corpus_results_are_pinned",
    ),
    "Bland's entering column taken from the end": (
        "simplex.py",
        "next(chain((j for j in range(n) if z[j] < 0),",
        "next(chain((j for j in reversed(range(n)) if z[j] < 0),",
        "tests/test_simplex.py::test_seeded_corpus_results_are_pinned",
    ),
    # the wrong reduced cost makes phase 1 cycle on some LPs of the pinned
    # corpus; the named test checks each pivot as it is made, so it fails at
    # the first wrong one instead
    "tau flipped in a derived artificial's reduced cost": (
        "simplex.py",
        "[offset + tau * T[-1][k]]",
        "[offset - tau * T[-1][k]]",
        "tests/test_simplex.py::test_a_reentering_derived_artificial_takes_each_reference_pivot",
    ),
    "tau flipped in an artificial's priced reduced cost": (
        "simplex.py",
        "if offset + tau * z[k] < 0)",
        "if offset - tau * z[k] < 0)",
        "tests/test_simplex.py::test_an_artificial_read_off_a_unit_column_reenters",
    ),
    "build_lp lane one bit short": (
        "rigidity.py",
        "for x in scaled).bit_length()",
        "for x in scaled).bit_length() - 1",
        "tests/test_rigidity.py::test_build_lp_sl3_shape_and_first_constraint",
    ),
    "beta above 1 let through": (
        "rigidity.py",
        "if not (0 <= problem.beta <= 1):",
        "if not (0 <= problem.beta):",
        "tests/test_rigidity.py::test_build_lp_validation_errors",
    ),
    "verify_solution without its objective check": (
        "rigidity.py",
        "    return value == solution.optimum\n",
        "    return True\n",
        "tests/test_rigidity.py::test_verify_solution_rejects_a_wrong_optimum",
    ),
    "claim without the stop check": (
        "cotlar_stein.py",
        "i = None if stop else next(todo, None)",
        "i = next(todo, None)",
        "tests/test_cotlar_stein.py::test_validation_suite_worker_exception_propagates_and_joins",
    ),
    "failure that does not set stop": (
        "cotlar_stein.py",
        "                stop.append(None)\n",
        # only a loop that ran out of h values sets it
        "                stop.extend([None] if i is None else [])\n",
        "tests/test_cotlar_stein.py::test_validation_suite_worker_exception_propagates_and_joins",
    ),
    "one scratch buffer for both threads": (
        "cotlar_stein.py",
        "helper = pool.submit(work, spare)",
        "helper = pool.submit(work, own)",
        "tests/test_cotlar_stein.py::test_decay_check_threads_write_to_different_buffers",
    ),
    "helper.result() dropped": (
        "cotlar_stein.py",
        "        work(own)\n        helper.result()\n",
        "        work(own)\n",
        "tests/test_cotlar_stein.py::test_validation_suite_worker_exception_propagates_and_joins",
    ),
    "each thread walks the whole ladder": (
        "cotlar_stein.py",
        "    def work(terms):\n",
        "    def work(terms):\n        todo = iter(range(len(hbars)))\n",
        "tests/test_cotlar_stein.py::"
        "test_quadrature_matches_one_expression_oracle_bit_for_bit[nonstationary]",
    ),
    "odd phase mirrored without negating the imaginary part": (
        "cotlar_stein.py",
        "np.multiply(source.imag, mirror, out=tail.imag)",
        "np.multiply(source.imag, abs(mirror), out=tail.imag)",
        "tests/test_cotlar_stein.py::test_oscillatory_nonstationary_phase_decays_fast",
    ),
    "mirrored tail shifted by one entry": (
        "cotlar_stein.py",
        "terms[: n - m][::-1]",
        "terms[1 : n - m + 1][::-1]",
        "tests/test_cotlar_stein.py::test_oscillatory_nonstationary_phase_decays_fast",
    ),
    "QR-reduced cross norms in the wrong row sum": (
        "cotlar_stein.py",
        "    for products in (direct, reduced) if rows >= cols else (reduced, direct):\n",
        "    for products in (direct, reduced):\n",
        "tests/test_cotlar_stein.py::test_cotlar_cross_norms_match_per_pair_oracle",
    ),
    "summed family normed as its first member": (
        "cotlar_stein.py",
        "tall.sum(axis=0, keepdims=True)",
        "tall[:1]",
        "tests/test_cotlar_stein.py::test_cotlar_cross_norms_match_per_pair_oracle",
    ),
    "non-finite members accepted": (
        "cotlar_stein.py",
        "        if not np.isfinite(members).all():\n"
        "            raise ValueError(\"matrix family has non-finite entries\")\n",
        "",
        "tests/test_cotlar_stein.py::test_matrix_family_refuses_non_finite_members",
    ),
    "zero-size family accepted": (
        "cotlar_stein.py",
        "if members.ndim != 3 or members.size == 0:",
        "if members.ndim != 3:",
        "tests/test_cotlar_stein.py::test_matrix_family_refuses_zero_size",
    ),
    "corpus one dimension wider": (
        "cotlar_stein.py",
        "        rows = int(rng.integers(2, 17))\n        cols = int(rng.integers(2, 17))\n",
        "        rows = int(rng.integers(2, 18))\n        cols = int(rng.integers(2, 18))\n",
        "tests/test_acceptance.py::test_criterion_8_cotlar_stein_numeric_suite",
    ),
    "generic supports left unsorted": (
        "supports.py",
        "    found.sort(key=_roots_descending)\n",
        "",
        "tests/test_supports.py::test_a2_supports_exactly_five",
    ),
    "generic supports sorted with roots ascending": (
        "supports.py",
        "itertools.permutations(block, 2)), reverse=True)",
        "itertools.permutations(block, 2)))",
        "tests/test_supports.py::test_symmetric_closed_matches_independent_filter",
    ),
    "root system limit one past 64": (
        "roots.py",
        "        if n > ROOT_SYSTEM_MAX_N:\n",
        "        if n > ROOT_SYSTEM_MAX_N + 1:\n",
        "tests/test_roots.py::test_root_system_is_built_from_n_alone",
    ),
    "orbit walk takes the smallest value first": (
        "roots.py",
        "sorted(set(X.coords), reverse=True)",
        "sorted(set(X.coords))",
        "tests/test_roots.py::test_weyl_orbit_matches_permutation_oracle",
    ),
    "vertex entries lightest first": (
        "rigidity.py",
        "key=lambda e: (-e[2], e[0])",
        "key=lambda e: (e[2], e[0])",
        "tests/test_cli_golden.py::test_cli_output_is_byte_identical[haar-lp --n 3 --beta 2/3]",
    ),
    "haar-lp solves before it renders the constraints": (
        "cli.py",
        "    num_variables = len(model.group_of)\n",
        "    solution = solve_lp(model)\n    num_variables = len(model.group_of)\n",
        "tests/test_cli.py::test_unprintable_results_are_refused_with_the_cli_message",
    ),
    "haar-lp coefficients printed per group": (
        "cli.py",
        "[_frac(row[g]) for g in model.group_of]",
        "[_frac(v) for v in row]",
        "tests/test_cli_payloads.py::test_every_printed_value_matches_the_oracles",
    ),
    "orbit size divided by each multiplicity, not its factorial": (
        "cli.py",
        "orbit_size //= math.factorial(m)",
        "orbit_size //= m",
        "tests/test_cli_payloads.py::test_every_printed_value_matches_the_oracles",
    ),
    "sums check without its n = 1 floor": (
        "cli.py",
        "if max(n * (n - 1), 1) * max(",
        "if n * (n - 1) * max(",
        "tests/test_cli.py::test_unprintable_values_are_refused_before_any_work",
    ),
    "K = 0 let through the split": (
        "entropy.py",
        "    if K <= 0:\n",
        "    if K < 0:\n",
        "tests/test_entropy.py::test_fast_slow_split_rejects_nonpositive_K",
    ),
    "dispersive exponent without its - 1/2": (
        "entropy.py",
        "K * spec.values[i] - Fraction(1, 2) for i in fast",
        "K * spec.values[i] for i in fast",
        "tests/test_entropy.py::test_dispersive_exponent_examples",
    ),
    "failed stdout write not caught": (
        "cli.py",
        "    except OSError as exc:\n        if not args.output:\n",
        "    except OSError as exc:\n        if not args.output:\n            raise\n",
        "tests/test_cli.py::test_stdout_closed_early_is_invalid_input",
    ),
    "unwritten stdout left for the exit flush": (
        "cli.py",
        "                os.dup2(devnull.fileno(), sys.stdout.fileno())\n",
        "                pass\n",
        "tests/test_cli.py::test_stdout_on_a_full_device_is_invalid_input",
    ),
    "split tables built afresh on each walk": (
        "supports.py",
        "@functools.cache  # the enumeration limits on n bound the (lengths, sizes) keys\n",
        "@functools.lru_cache(maxsize=0)\n",
        "tests/test_supports.py::test_a_second_walk_builds_no_split_table",
    ),
    "BlockPartitions without its limit check": (
        "supports.py",
        "        if self.n > BLOCK_PARTITION_LIMIT:\n",
        "        if False:\n",
        "tests/test_supports.py::test_block_partitions_input_validation",
    ),
    "validation executor never shut down": (
        "cotlar_stein.py",
        "    with ThreadPoolExecutor(max_workers=1) as pool:\n"
        "        cotlar = pool.submit(_cotlar_checks, seed)\n",
        "    pool = ThreadPoolExecutor(max_workers=1)\n"
        "    if True:\n"
        "        cotlar = pool.submit(_cotlar_checks, seed)\n",
        "tests/test_cotlar_stein.py::test_validation_suite_joins_every_executor_it_starts",
    ),
}


class Stopped(Exception):
    """The run stopped before this subprocess could start."""


class Children:
    """The subprocesses of one run: each in its own process group, which is
    killed on its timeout or when the run stops; once stopped, none starts."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.running: set[subprocess.Popen] = set()
        self.stopped = False

    def run(self, args: list[str], **kwargs) -> subprocess.CompletedProcess:
        """subprocess.run(args, capture_output=True, text=True,
        timeout=MUTANT_TIMEOUT_S, **kwargs), but stoppable."""
        with self.lock:
            if self.stopped:
                raise Stopped
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, start_new_session=True, **kwargs)
            self.running.add(proc)
        try:
            out, err = proc.communicate(timeout=MUTANT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            with self.lock:
                self.running.discard(proc)
        return subprocess.CompletedProcess(args, proc.returncode, out, err)

    def stop(self) -> None:
        with self.lock:
            self.stopped = True
            for proc in self.running:
                # one that has just ended may be reaped already
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)


def stop_when_reader_leaves(children: Children) -> None:
    """Stop the run's children once the reader of stdout closes its pipe.

    poll reports POLLERR on a pipe's write end once its read end is closed,
    asked for or not, so waiting for no event blocks until the reader
    leaves, and for good while stdout is a file or an open terminal or pipe.
    """
    poller = select.poll()
    poller.register(sys.stdout.fileno(), 0)
    poller.poll()
    children.stop()


def run_mutant(filename: str, old: str, new: str, test: str, pycache: str,
               children: Children) -> str:
    """'killed' and the first failing test, TIMED_OUT, 'SURVIVED', or why it
    did not run; bytecode is written only under pycache."""
    with tempfile.TemporaryDirectory(prefix="haargap-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "haargap" / filename
        text = path.read_text()
        if text.count(old) != 1:
            return f"NOT APPLIED: the old text occurs {text.count(old)} times in {filename}"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        # without --keep-duplicates pytest folds the test into its module's order
        module = test.split("::")[0]
        try:
            probe = children.run(
                [sys.executable, "-c", "import haargap; print(haargap.__file__)"], env=env,
            )
            if not probe.stdout.startswith(str(src)):
                return f"NOT APPLIED: haargap imports from {probe.stdout.strip() or probe.stderr.strip()}"
            result = children.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--keep-duplicates", str(ROOT / test), str(ROOT / module)],
                cwd=tmp, env=env,
            )
        except subprocess.TimeoutExpired:
            return TIMED_OUT
        except Stopped:
            return "NOT RUN: the run stopped"
        # pytest: 1 = tests failed, 2 = errors such as a failed import
        if result.returncode in (1, 2):
            # pytest names the tests by their path from cwd, the temporary directory
            caught = [line.split(" - ")[0].replace(os.path.relpath(ROOT, tmp) + os.sep, "")
                      for line in result.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
            return f"killed    {caught[0] if caught else ''}"
        return "SURVIVED" if result.returncode == 0 else f"NOT RUN: pytest exit {result.returncode}"


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(MUTANTS)}", file=sys.stderr)
        return 2
    names = names or list(MUTANTS)
    failed, timeouts, begin = 0, 0, time.perf_counter()
    children = Children()
    if hasattr(select, "poll"):
        threading.Thread(target=stop_when_reader_leaves, args=(children,), daemon=True).start()
    with tempfile.TemporaryDirectory(prefix="haargap-pycache-") as pycache, \
            ThreadPoolExecutor(max_workers=2) as pool:

        def timed(name: str) -> tuple[str, float]:
            start = time.perf_counter()
            outcome = run_mutant(*MUTANTS[name], pycache, children)
            return outcome, time.perf_counter() - start

        try:
            for name, (outcome, seconds) in zip(names, pool.map(timed, names)):
                timeouts += outcome == TIMED_OUT
                failed += not outcome.startswith("killed") and outcome != TIMED_OUT
                print(f"{seconds:5.1f} s  {name}: {outcome}", flush=True)
            total = len(names)
            print(f"{total - failed} of {total} mutants detected ({total - failed - timeouts} "
                  f"killed, {timeouts} timed out) in {time.perf_counter() - begin:.1f} s", flush=True)
        except BrokenPipeError:
            # the reader left: start no further mutant, kill the pytest runs
            # already going, and point stdout at os.devnull so the
            # interpreter's own flush at exit does not fail again
            pool.shutdown(wait=False, cancel_futures=True)
            children.stop()
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
