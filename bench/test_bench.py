"""Tests of the benchmark itself: oracles, input generators, tracing, output.

    python -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from haargap import cli, rigidity  # noqa: E402
from haargap.roots import CartanElement, dominant_representative  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "lattice, n, beta",
    [
        ("generic", 3, Fraction(1, 2)),
        ("generic", 5, Fraction(4, 5)),
        ("generic", 6, Fraction(1, 3)),
        ("inner", 6, Fraction(1, 2)),
        ("inner", 8, Fraction(3, 4)),
        ("inner", 9, Fraction(2, 3)),
    ],
)
def test_default_oracle_matches_min_haar_weight(lattice, n, beta):
    assert workloads.default_optimum(lattice, n, beta, workloads.HAAR_FRACTION) == \
        rigidity.min_haar_weight(n, lattice, beta)


@pytest.mark.parametrize("lattice, n", [("generic", 3), ("generic", 5), ("inner", 6), ("inner", 9)])
def test_thm14_oracle_is_the_half_value(lattice, n):
    _, _, solution = rigidity.solve_min_haar(n, lattice, Fraction(1, 7), bound_mode="thm14")
    assert solution.optimum == workloads.default_optimum(lattice, n, Fraction(1, 7), workloads.THM14)
    assert solution.optimum == rigidity.min_haar_weight(n, lattice, Fraction(1, 2))


def _scale_free(X: CartanElement) -> tuple:
    d = dominant_representative(X).coords
    return tuple(c / d[0] for c in d)


@pytest.mark.parametrize("seed", range(5))
def test_twin_generator_yields_valid_twins(seed):
    rng = random.Random(seed)
    for n in (4, 5, 6):
        directions = [workloads.random_direction(rng, n) for _ in range(8)]
        twin = workloads.twin_directions(rng, directions)
        elements = [CartanElement(d) for d in directions]
        twins = [CartanElement(d) for d in twin]
        assert all(X.n == n and not X.is_zero() for X in elements + twins)
        # same set up to a positive scale per direction and one Weyl element
        assert sorted(map(_scale_free, elements)) == sorted(map(_scale_free, twins))


def _cli_output(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def test_custom_sweep_twins_agree():
    queries = workloads.lp_custom_sweep(3, 0)[:2]
    first, second = (json.loads(_cli_output(q.argv)) for q in queries)
    assert queries[1].twin_of == 0
    assert workloads.lp_optimum(first) == workloads.lp_optimum(second)


def test_self_times_on_a_synthetic_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("rigidity.build_lp", 1.0, 4.0, 0, 0),
        ("entropy.haar_entropy", 2.0, 3.0, 1, 0),
        ("simplex.solve_standard_form", 3.0, 6.0, 0, 0),  # overlaps its sibling
        ("roots.build_type_a", 8.0, 12.0, 0, 0),  # runs past its parent's end
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]
    m = tracer.layer_metrics(spans, {}, sweeps=2)
    assert m["cli.main.self_s"] == 1.5
    assert m["rigidity.build_lp.self_s"] == 1.0
    assert m["entropy.bounds.calls"] == 0.5
    assert m["entropy.bounds.s"] == 0.5
    assert sum(m[f"layer.{layer}.self_s"] for layer in tracer.LAYERS) == 6.5


def test_tracing_leaves_output_byte_identical():
    argvs = [
        ("haar-lp", "--n", "5", "--lattice", "generic", "--beta", "3/4"),
        ("haar-lp", "--n", "6", "--lattice", "inner", "--beta", "1/2", "--bound-mode", "thm14"),
        workloads.lp_custom_sweep(1, 0)[0].argv,
        ("roots", "--n", "3", "--direction", "2,-1,-1"),
    ]
    plain = [_cli_output(a) for a in argvs]
    original = rigidity.build_lp
    t = tracer.Tracer()
    t.install()
    try:
        assert rigidity.build_lp is not original
        traced = [_cli_output(a) for a in argvs]
    finally:
        t.uninstall()
    assert rigidity.build_lp is original
    assert traced == plain
    names = {s[0] for s in t.spans}
    assert {"cli.main", "rigidity.build_lp", "simplex.solve_standard_form",
            "supports.enumerate_symmetric_closed", "supports.enumerate_block_partitions"} <= names
    m = tracer.layer_metrics(t.spans, t.counts, sweeps=1)
    assert m["simplex.solve_standard_form.calls"] == 3
    assert 0 < m["rigidity.dedup_ratio"] <= 1


def test_tail_rank():
    assert run.tail_rank(100, 90.0) == 89  # ten samples above
    assert run.tail_rank(12, 75.0) == 8
    assert run.tail_rank(1, 90.0) == 0


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_metrics_json():
    spec = _bench_json()
    for section, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                          ("per_layer", ("name", "unit", "better"))):
        assert spec[section] == [{k: m[k] for k in keys} for m in run.METRICS[section]]
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(trace, section):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lp-custom", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in _bench_json()[section]]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
