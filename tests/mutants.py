"""Mutation checks: each listed mutant of `src/` must make its paired tests fail.

Usage (stdlib only; the paired modules need pytest):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

Each mutant is one exact-text replacement in one file of `src/haargap`,
paired with the test module that must catch it.  For each, `src/` is copied
to a temporary directory, the replacement is made in the copy, and the paired
module runs with `pytest -x -q` against it.  The mutant is killed when pytest
reports failed tests or errors.  One line per mutant is printed, with the
first test that failed; the exit code is 1 if any mutant survived or could
not be applied.  The repository's own files are never changed.  The file
name keeps it out of pytest's default collection, so tier-1 does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file in src/haargap, exact old text, new text, paired test module)
MUTANTS = {
    "ratio-test ties broken by row": (
        "simplex.py",
        "(num * best_den, basis[i]) < (best_num * den, basis[best])",
        "(num * best_den, i) < (best_num * den, best)",
        "tests/test_simplex.py",
    ),
    "Bland's entering column taken from the end": (
        "simplex.py",
        "col = next((j for j in range(width) if z[j] < 0), None)",
        "col = next((j for j in reversed(range(width)) if z[j] < 0), None)",
        "tests/test_simplex.py",
    ),
    "build_lp lane one bit short": (
        "rigidity.py",
        "for x in scaled).bit_length()",
        "for x in scaled).bit_length() - 1",
        "tests/test_rigidity.py",
    ),
    "verify_solution without its objective check": (
        "rigidity.py",
        "    return value == solution.optimum\n",
        "    return True\n",
        "tests/test_rigidity.py",
    ),
    "claim without the stop check": (
        "cotlar_stein.py",
        "i = None if stop else next(todo, None)",
        "i = next(todo, None)",
        "tests/test_cotlar_stein.py",
    ),
    "failure that does not set stop": (
        "cotlar_stein.py",
        "                stop.append(None)\n",
        # only a loop that ran out of h values sets it
        "                stop.extend([None] if i is None else [])\n",
        "tests/test_cotlar_stein.py",
    ),
    "one scratch buffer for both threads": (
        "cotlar_stein.py",
        "helper = pool.submit(work, spare)",
        "helper = pool.submit(work, own)",
        "tests/test_cotlar_stein.py",
    ),
    "helper.result() dropped": (
        "cotlar_stein.py",
        "        work(own)\n        helper.result()\n",
        "        work(own)\n",
        "tests/test_cotlar_stein.py",
    ),
    "each thread walks the whole ladder": (
        "cotlar_stein.py",
        "    def work(terms):\n",
        "    def work(terms):\n        todo = iter(range(len(hbars)))\n",
        "tests/test_cotlar_stein.py",
    ),
    "generic supports left unsorted": (
        "supports.py",
        "    found.sort(key=lambda p: (p.mask.bit_count(), p.mask))\n",
        "",
        "tests/test_supports.py",
    ),
    "haar-lp solves before it renders the constraints": (
        "cli.py",
        "    num_variables = len(model.group_of)\n",
        "    solution = solve_lp(model)\n    num_variables = len(model.group_of)\n",
        "tests/test_cli.py",
    ),
    "sums check without its n = 1 floor": (
        "cli.py",
        "if max(n * (n - 1), 1) * max(",
        "if n * (n - 1) * max(",
        "tests/test_cli.py",
    ),
    "K = 0 let through the split": (
        "entropy.py",
        "    if K <= 0:\n",
        "    if K < 0:\n",
        "tests/test_entropy.py",
    ),
    "dispersive exponent without its - 1/2": (
        "entropy.py",
        "K * spec.values[i] - Fraction(1, 2) for i in fast",
        "K * spec.values[i] for i in fast",
        "tests/test_entropy.py",
    ),
    "failed stdout write not caught": (
        "cli.py",
        "    except OSError as exc:\n        if not args.output:\n",
        "    except OSError as exc:\n        if not args.output:\n            raise\n",
        "tests/test_cli.py",
    ),
    "unwritten stdout left for the exit flush": (
        "cli.py",
        "                os.dup2(devnull.fileno(), sys.stdout.fileno())\n",
        "                pass\n",
        "tests/test_cli.py",
    ),
    "BlockPartitions without its limit check": (
        "supports.py",
        "        if self.n > BLOCK_PARTITION_LIMIT:\n",
        "        if False:\n",
        "tests/test_supports.py",
    ),
    "validation executor never shut down": (
        "cotlar_stein.py",
        "    with ThreadPoolExecutor(max_workers=1) as pool:\n"
        "        cotlar = pool.submit(_cotlar_checks, seed)\n",
        "    pool = ThreadPoolExecutor(max_workers=1)\n"
        "    if True:\n"
        "        cotlar = pool.submit(_cotlar_checks, seed)\n",
        "tests/test_cotlar_stein.py",
    ),
}


def run_mutant(filename: str, old: str, new: str, tests: str) -> str:
    """'killed' and the first failing test, 'SURVIVED', or why it did not run."""
    with tempfile.TemporaryDirectory(prefix="haargap-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "haargap" / filename
        text = path.read_text()
        if text.count(old) != 1:
            return f"NOT APPLIED: the old text occurs {text.count(old)} times in {filename}"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        probe = subprocess.run(
            [sys.executable, "-c", "import haargap; print(haargap.__file__)"],
            env=env, capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(src)):
            return f"NOT APPLIED: haargap imports from {probe.stdout.strip() or probe.stderr.strip()}"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        # pytest: 1 = tests failed, 2 = errors such as a failed import
        if result.returncode in (1, 2):
            caught = [line.split(" - ")[0] for line in result.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))]
            return f"killed    {caught[0] if caught else ''}"
        return "SURVIVED" if result.returncode == 0 else f"NOT RUN: pytest exit {result.returncode}"


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(MUTANTS)}", file=sys.stderr)
        return 2
    failed = 0
    for name in names or MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(*MUTANTS[name])
        failed += not outcome.startswith("killed")
        print(f"{time.perf_counter() - start:5.1f} s  {name}: {outcome}", flush=True)
    print(f"{len(names or MUTANTS) - failed} of {len(names or MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
