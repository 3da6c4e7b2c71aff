"""Benchmark of the haargap command line.

    python3 bench/run.py --workload lp-default --seed 1 --seconds 30 --trace 0

Runs the seeded query lists of ``workloads.py`` through ``haargap.cli.main`` in
this process, one query at a time: a closed loop with one client, one thread
and BLAS held to one thread.  A run repeats sweeps (one sweep is the query
list) until ``--seconds`` have passed, checks every answer with an exact
oracle and prints its metrics as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``metrics.json``.  ``--trace 1``
runs every sweep twice, untraced and then traced (``tracer.py``), checks that
both give byte-identical output, and reports the per-layer metrics.  Run
metadata and, for traced runs, the spans are written to ``bench/out/``.

End-to-end times are in reference seconds.  A query's time is first the
smaller of its elapsed time and its CPU time (this process's threads plus any
child it reaps): the two agree for a query that runs undisturbed on one
thread, elapsed time alone also holds time another tenant had the core, and
work spread over threads or processes shows as CPU time above elapsed time.
On a shared machine even CPU time swings: on a 2-core x86-64 host the same
query took from 1x to 1.8x its best time, the machine flipping between fast
and slow states within a second.  So a fixed calibration kernel is timed
between queries, and each query is divided by the kernel's slowdown around
it (``Calibration``).  On that host this cut the spread of repeated identical
queries from 40-57% to 6-11% of their median, and of wall_s over five seeds
from 18% to 7%.  Per-layer times stay in raw elapsed seconds, like the spans.

The program is imported from ``src/`` of the checkout holding this file.
Without it the benchmark prints nothing on standard output and exits with 2.
"""

from __future__ import annotations

import os

# Must precede the first numpy import: one BLAS thread, so the numbers measure
# the program and not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import ctypes
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
METRICS = json.loads((BENCH_DIR / "metrics.json").read_text(encoding="utf-8"))

SETUP_REPEATS = 9
# Seconds calibration_kernel takes on an idle core of the reference machine
# (2-core x86-64, Python 3.11).  Every reported time is scaled by it.
REFERENCE_KERNEL_S = 0.0037
CALIBRATION_STEP_S = 0.1
CALIBRATION_WINDOW_S = 0.05
CALIBRATION_MAX_REPEATS = 30
# Past this many seconds from the start the current query is abandoned and
# counted as failed, so a run ends well inside 180 s even on a regression.
HARD_LIMIT_S = 160.0


class Overrun(BaseException):
    """Raised by the alarm when a run passes HARD_LIMIT_S."""


def _on_alarm(signum, frame):
    raise Overrun()


def tail_rank(count: int, percentile: float) -> int:
    """0-based nearest-rank index of a percentile among ``count`` samples."""
    return max(0, math.ceil(percentile * count / 100) - 1)


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup() -> float:
    """Reference seconds from spawning a fresh interpreter until haargap.cli is
    imported: the median sample, each the smaller of elapsed time and the
    child's own CPU time, scaled by the calibration taken in between."""
    code = ("import time, haargap.cli; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time())")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    calibration = Calibration()
    calibration.sample()
    spans = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        ready, cpu = map(float, done.stdout.split()[-2:])
        # CLOCK_MONOTONIC is what perf_counter reads on Linux
        spans.append((start, ready, min(ready - start, cpu)))
        calibration.sample(ready - start)
    return statistics.median(t / calibration.slowdown(a, b) for a, b, t in spans)


def calibration_kernel() -> Fraction:
    """Fixed pure-Python work in the program's style: rational arithmetic,
    dict updates and one row elimination over Fractions."""
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 1000):
        acc += Fraction((i * 7919) % 97 + 1, i % 89 + 1)
        counts[i % 101] = counts.get(i % 101, 0) + 1
    rows = [[Fraction(i + j, j + 1) for j in range(16)] for i in range(16)]
    for r in rows[1:]:
        f = r[0]
        rows[0] = [a - f * b for a, b in zip(rows[0], r)]
    return acc + rows[0][-1]


class Calibration:
    """Timed runs of the calibration kernel, taken between queries.

    The machine's speed flips between states within a second, so a query is
    scaled by the kernel runs close to it in time: those within the query's
    own duration (at least CALIBRATION_WINDOW_S) before its start and after
    its end.  After a query of d seconds the kernel runs about
    d / CALIBRATION_STEP_S times, so long queries have samples to draw on.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.times: list[float] = []

    def sample(self, after_seconds: float = 0.0) -> None:
        for _ in range(min(CALIBRATION_MAX_REPEATS, 1 + int(after_seconds / CALIBRATION_STEP_S))):
            wall, cpu = time.perf_counter(), time.process_time()
            calibration_kernel()
            end = time.perf_counter()
            self.ends.append(end)
            self.times.append(min(end - wall, time.process_time() - cpu))

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Reference speed over the mean speed around [start, end] (the whole
        run when not given): the harmonic mean of the kernel times there
        against REFERENCE_KERNEL_S."""
        times = self.times
        if start is not None:
            margin = max(end - start, CALIBRATION_WINDOW_S)
            lo = bisect.bisect_left(self.ends, start - margin)
            hi = bisect.bisect_right(self.ends, end + margin)
            times = self.times[lo:hi] or self.times
        return statistics.harmonic_mean(times) / REFERENCE_KERNEL_S


def run_query(cli, query) -> dict:
    """One cli.main call with its output captured; never raises Exception."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu = time.perf_counter(), time.process_time() + children_cpu()
        try:
            code = cli.main(list(query.argv))
        except Exception:
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
        cpu = time.process_time() + children_cpu() - cpu
    text = out.getvalue()
    payload = None
    if error is None:
        try:
            payload = json.loads(text)
        except ValueError:
            error = f"output is not JSON (exit {code}): {err.getvalue()[-200:]!r}"
    if error is None:
        try:
            error = query.check(code, payload)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            error = f"malformed output: {exc!r}"
    return {"start": start, "end": end, "wall": end - start, "cpu": cpu,
            "text": text, "payload": payload, "error": error}


def run_sweep(cli, queries, calibration, on_query=None) -> list[dict]:
    calibration.sample()
    results = []
    for i, query in enumerate(queries):
        if on_query:
            on_query(i)
        r = run_query(cli, query)
        calibration.sample(r["wall"])
        if r["error"] is None and query.twin_of is not None:
            twin = results[query.twin_of]
            # both answers passed their checks, so both carry an optimum
            if twin["error"] is None:
                a, b = workloads.lp_optimum(twin["payload"]), workloads.lp_optimum(r["payload"])
                if a != b:
                    r["error"] = f"optimum {b} differs from its twin's {a}"
        results.append(r)
    return results


def repeat_share(keys) -> float:
    seen, repeats, counted = set(), 0, 0
    for key in keys:
        if key is None:
            continue
        counted += 1
        repeats += key in seen
        seen.add(key)
    return repeats / counted if counted else 0.0


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS numpy loaded, else the setting."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "haargap" / "cli.py").is_file():
        print(f"bench: no haargap sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from haargap import cli
    if Path(cli.__file__).resolve().parent != SRC / "haargap":
        print(f"bench: imported haargap from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy

    failures, attempted, output_bytes = [], 0, 0
    setup_s = 0.0
    if not args.trace:
        try:
            setup_s = measure_setup()
        except (subprocess.SubprocessError, ValueError) as exc:
            attempted += 1
            failures.append(f"set-up failed: {exc}")
    calibration = Calibration()
    workload = workloads.WORKLOADS[args.workload]
    trace = tracer.Tracer() if args.trace else None
    once, sweeps, keys = [], [], []  # untraced results
    traced_walls = []  # raw elapsed seconds per traced sweep, like the spans

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(1.0, HARD_LIMIT_S - (time.perf_counter() - started)))
    loop_start = time.perf_counter()
    index = 0
    try:
        once = run_sweep(cli, workload.once, calibration)
        attempted += len(once)
        failures += [r["error"] for r in once if r["error"]]
        while index == 0 or time.perf_counter() - loop_start < args.seconds:
            queries = workload.sweep(args.seed, index)
            plain = run_sweep(cli, queries, calibration)
            sweeps.append(plain)
            attempted += len(queries)
            failures += [r["error"] for r in plain if r["error"]]
            keys += [q.key for q in queries]
            if trace is not None:
                base = len(trace.spans)
                trace.install()
                try:
                    traced = run_sweep(cli, queries, calibration,
                                       on_query=lambda i: setattr(trace, "query", index * 1000 + i))
                finally:
                    trace.uninstall()
                attempted += len(queries)
                for r, p in zip(traced, plain):
                    if r["error"] is None and r["text"] != p["text"]:
                        r["error"] = "traced output differs from the untraced output"
                failures += [r["error"] for r in traced if r["error"]]
                traced_walls.append(sum(r["wall"] for r in traced))
                output_bytes += sum(len(r["text"].encode("utf-8")) for r in traced)
                if len(trace.spans) == base:
                    failures.append("trace recorded no spans")
            index += 1
    except Overrun:
        attempted += 1
        failures.append(f"run passed {HARD_LIMIT_S} s and was cut")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_seconds(r) -> float:
        return min(r["wall"], r["cpu"]) / calibration.slowdown(r["start"], r["end"])

    sweep_times = [sum(map(reference_seconds, sweep)) for sweep in sweeps]
    sorted_lat = sorted(reference_seconds(r) for r in once + [r for sweep in sweeps for r in sweep])
    tail = tail_rank(len(sorted_lat), workload.tail_percentile)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "sweeps": len(sweep_times),
        "queries_once": len(workload.once),
        "queries_per_sweep": len(workload.sweep(args.seed, 0)),
        "queries": attempted,
        "repeat_share": repeat_share(keys),
        "repeat_share_one_sweep": repeat_share(q.key for q in workload.sweep(args.seed, 0)),
        "latency_samples": len(sorted_lat),
        "tail_percentile": workload.tail_percentile,
        "tail_samples_above": len(sorted_lat) - tail - 1,
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:10],
        "machine_slowdown": calibration.slowdown(),
        "calibration_samples": len(calibration.times),
        "raw_wall_s": statistics.median(sum(r["wall"] for r in sweep) for sweep in sweeps)
        if sweeps else None,
    }

    if args.trace:
        spans = trace.spans
        traced = len(traced_walls)
        metrics = tracer.layer_metrics(spans, trace.counts, traced)
        wall = statistics.mean(traced_walls) if traced else 0.0
        accounted = sum(metrics[f"layer.{layer}.self_s"] for layer in tracer.LAYERS)
        metrics["trace.wall_s"] = wall
        if traced:
            plain = statistics.mean(sum(r["wall"] for r in sweep) for sweep in sweeps[:traced])
            metrics["trace.overhead_s"] = wall - plain
        metrics["trace.accounted_share"] = accounted / wall if wall else 0.0
        metrics["cli.output_bytes"] = output_bytes / traced if traced else 0
        meta["spans"] = len(spans)
        specs = METRICS["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if sweep_times:
            metrics["wall_s"] = statistics.median(sweep_times)
            metrics["query_p50_s"] = statistics.median(sorted_lat)
            metrics["query_tail_s"] = sorted_lat[tail]
        specs = METRICS["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace is not None:
        trace.dump(OUT_DIR / f"{stem}.spans.jsonl", loop_start)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {s["name"]: {"value": metrics.get(s["name"], 0.0), "unit": s["unit"]}
                    for s in specs},
    }
    timings = [(" ".join(q.argv), r["wall"], r["cpu"], reference_seconds(r))
               for i, sweep in enumerate(sweeps)
               for q, r in zip(workload.sweep(args.seed, i), sweep)]
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "result": result, "timings": timings}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
