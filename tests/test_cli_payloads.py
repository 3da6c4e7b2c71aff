"""Every value the CLI prints, recomputed from the inputs it prints.

Hypothesis draws short argv for each exact subcommand.  Each runs through
cli.main once as JSON and once as a table.  The JSON's results are then
checked against the oracles in tests/util.py, reading only the payload's own
inputs:
- bounds and spectra against the root-by-root oracles;
- supports against a scan of every symmetric mask through make_support, in
  (root count, mask) order, or, for inner forms, against the permutations of
  1..n cut into equal blocks;
- each haar-lp coefficient against component_entropy_cap, and each rhs
  against beta times the Haar entropy or the proved floor;
- the minimum against a brute force over the column bases of the printed LP;
- the printed vertex: it sums to 1, meets every printed row, and its Δ weight
  is the minimum.
Every number in the table is one the JSON prints, and the table shows the
JSON's headline values.
"""

import contextlib
import functools
import io
import itertools
import json
import re
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from haargap import cli
from haargap.rigidity import BOUND_MODES, VERTEX_NOTE
from haargap.roots import CartanElement, build_type_a
from haargap.supports import Partition
from util import (
    brute_force_standard_form,
    component_entropy_cap,
    entropy_lower_bound,
    haar_entropy,
    lyapunov_spectrum,
    make_support,
    mask_of,
    pair_mask,
)

# a number of the output, but not a subscript such as SL_4 or α_12, nor a
# piece of the fixed text "1/(2K)"
NUMBER = re.compile(r"(?<![\w/(])-?\d+(?:/\d+)?(?![\w/(])")
# the results each table must show
TABLE_KEYS = {
    "roots": ("num_roots", "num_positive", "rank", "weyl_orbit_size"),
    "spectrum": ("chi_max", "threshold", "J0"),
    "bound": ("thm14", "haar", "optim", "dispersive_exponent"),
    "supports": ("count",),
    "haar-lp": ("min_haar_weight", "num_variables", "num_constraints"),
}

coordinate = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def direction(draw, n: int, nonzero: bool = False) -> str:
    """A trace-zero direction as the CLI prints it: "p/q" coordinates, comma-separated."""
    head = draw(st.lists(coordinate, min_size=n - 1, max_size=n - 1))
    coords = [*head, -sum(head, Fraction(0))]
    if nonzero and not any(coords):
        coords[:2] = [Fraction(1), Fraction(-1)]
    return ",".join(map(str, coords))


@st.composite
def exact_argv(draw) -> list[str]:
    command = draw(st.sampled_from(list(TABLE_KEYS)))
    if command == "supports":
        return [command, "--n", str(draw(st.integers(2, 5))),
                "--lattice", draw(st.sampled_from(["generic", "inner"]))]
    if command == "haar-lp":
        lattice = draw(st.sampled_from(["generic", "inner"]))
        n = draw(st.integers(3, 4) if lattice == "generic" else st.sampled_from([4, 6]))
        beta = draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        argv = [command, "--n", str(n), "--lattice", lattice, "--beta", str(beta),
                "--bound-mode", draw(st.sampled_from(BOUND_MODES))]
        for _ in range(draw(st.integers(1, 3))):
            argv.append("--direction=" + draw(direction(n, nonzero=True)))
        return argv
    n = draw(st.integers(2, 6))
    argv = [command, "--n", str(n)]
    if command != "roots" or draw(st.booleans()):
        argv.append("--direction=" + draw(direction(n)))
    if command != "roots" and draw(st.booleans()):
        K = draw(st.fractions(min_value=0, max_value=4, max_denominator=6).filter(bool))
        argv += ["--K", str(K)]
    return argv


def label_and_kind(p: Partition) -> tuple[str, str]:
    big = [b for b in p if len(b) > 1]
    if not big:
        return "∅", "empty"
    if len(p) == 1:
        return "Δ", "full"
    if len(big) == 1 and len(big[0]) == 2:
        return "{±α_%d%d}" % big[0], "pair"
    return "blocks " + "".join("{" + ",".join(map(str, b)) + "}" for b in p), "block-partition"


@functools.cache
def generic_supports(n: int) -> tuple[Partition, ...]:
    """Every symmetric mask that make_support reads as a Partition, in (root count, mask) order."""
    rs = build_type_a(n)
    pairs = [pair_mask(rs, r.i, r.j) for r in rs.positive_roots()]
    found = []
    for keep in itertools.product((0, 1), repeat=len(pairs)):
        support = make_support(rs, sum(m for flag, m in zip(keep, pairs) if flag))
        if isinstance(support, Partition):
            found.append(support)
    return tuple(sorted(found, key=lambda s: (mask_of(s).bit_count(), mask_of(s))))


@functools.cache
def inner_supports(n: int) -> tuple[Partition, ...]:
    """The permutations of 1..n cut into blocks of each size k | n, ascending k,
    each k's partitions in lexicographic order of their block lists."""
    found = []
    for k in (k for k in range(1, n + 1) if n % k == 0):
        cuts = {tuple(sorted(tuple(sorted(p[i:i + k])) for i in range(0, n, k)))
                for p in itertools.permutations(range(1, n + 1))}
        found += map(Partition, sorted(cuts))
    return tuple(found)


def lp_minimum(costs: list, columns: list, rhs: list) -> Fraction:
    """Least cost of a convex combination of the columns that meets every rhs.

    A column that another column of no greater cost meets or beats in every
    row can give it its weight, so only the others enter the brute force over
    column bases, with one surplus column per row.
    """
    cost = {}
    for c, col in zip(costs, columns):
        cost[col] = min(c, cost.get(col, c))
    kept = [(col, c) for col, c in cost.items() if not any(
        other != col and c2 <= c and all(a <= b for a, b in zip(col, other))
        for other, c2 in cost.items())]
    rows = len(rhs)
    A = [[Fraction(1)] * len(kept) + [Fraction(0)] * rows] + [
        [col[k] for col, _ in kept] + [Fraction(-(t == k)) for t in range(rows)] for k in range(rows)
    ]
    c = [c for _, c in kept] + [Fraction(0)] * rows
    status, value = brute_force_standard_form(A, [Fraction(1), *rhs], c)
    assert status == "optimal"
    return value


def run(argv: list[str], fmt: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--format", fmt])
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def check_roots(inputs: dict, results: dict) -> None:
    n = inputs["n"]
    assert (results["n"], results["rank"]) == (n, n - 1)
    assert (results["num_roots"], results["num_positive"]) == (n * (n - 1), n * (n - 1) // 2)
    assert results["positive_roots"] == [
        f"α_{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    if "direction" in inputs:
        coords = [Fraction(c) for c in inputs["direction"].split(",")]
        assert results["direction"] == [str(c) for c in coords]
        assert results["weyl_orbit_size"] == len(set(itertools.permutations(coords)))
        assert results["dominant_representative"] == [str(c) for c in sorted(coords, reverse=True)]
        assert results["is_regular"] == (len(set(coords)) == n)


def check_spectrum(inputs: dict, results: dict) -> None:
    spec = lyapunov_spectrum(build_type_a(inputs["n"]), direction_of(inputs["direction"]))
    assert results["values"] == [str(v) for v in spec.values]
    assert results["chi_max"] == str(spec.chi_max)
    assert results["J"] == len(spec.values)
    assert results["dominant_direction"] == [str(c) for c in spec.direction.coords]
    if "K" in inputs:
        K = Fraction(inputs["K"])
        slow = [i for i, v in enumerate(spec.values) if 2 * K * v < 1]
        assert results["threshold"] == str(1 / (2 * K))
        assert (results["J0"], results["slow_indices"]) == (len(slow), slow)
        assert results["fast_indices"] == [i for i in range(len(spec.values)) if i not in slow]


def check_bound(inputs: dict, results: dict) -> None:
    rs, X = build_type_a(inputs["n"]), direction_of(inputs["direction"])
    assert results["thm14"] == str(entropy_lower_bound(rs, X))
    assert results["haar"] == str(haar_entropy(rs, X))
    assert results["optim"] == str(haar_entropy(rs, X) / 2)
    assert results["chi_max"] == str(lyapunov_spectrum(rs, X).chi_max)
    if "K" in inputs:
        K = Fraction(inputs["K"])
        fast = [v for v in lyapunov_spectrum(rs, X).values if 2 * K * v >= 1]
        exponent = sum((K * v - Fraction(1, 2) for v in fast), Fraction(0))
        assert results["dispersive_exponent"] == str(exponent)


def check_supports(inputs: dict, results: dict) -> None:
    n = inputs["n"]
    expected = generic_supports(n) if inputs["lattice"] == "generic" else inner_supports(n)
    printed = [{"label": label, "kind": kind} for label, kind in map(label_and_kind, expected)]
    assert results["supports"] == printed
    assert results["count"] == len(expected)
    assert results["counts_by_kind"] == Counter(s["kind"] for s in printed)


def check_haar_lp(inputs: dict, results: dict) -> None:
    n, beta, mode = inputs["n"], Fraction(inputs["beta"]), inputs["bound_mode"]
    rs = build_type_a(n)
    supports = generic_supports(n) if inputs["lattice"] == "generic" else inner_supports(n)
    directions = [direction_of(text) for text in inputs["direction"]]
    assert results["status"] == "optimal" and results["vertex_note"] == VERTEX_NOTE
    assert (results["num_variables"], results["num_constraints"]) == (len(supports), len(directions))
    assert len(results["constraints"]) == len(directions)
    rows, rhs = [], []
    for X, text, printed in zip(directions, inputs["direction"], results["constraints"]):
        rows.append([component_entropy_cap(rs, s, X) for s in supports])
        rhs.append(beta * haar_entropy(rs, X) if mode == "haar-fraction" else entropy_lower_bound(rs, X))
        assert printed == {"direction": text, "rhs": str(rhs[-1]),
                           "coefficients": [str(v) for v in rows[-1]]}
    full = [len(s) == 1 for s in supports]
    optimum = lp_minimum([Fraction(f) for f in full], list(zip(*rows)), rhs)
    assert results["min_haar_weight"] == str(optimum)
    # the vertex: heaviest first, each entry a support of the LP, summing to
    # 1, meeting every row, with Δ's weight the minimum
    column = {label_and_kind(s): m for m, s in enumerate(supports)}
    entries = [((v["label"], v["kind"]), Fraction(v["weight"])) for v in results["vertex"]]
    assert all(key in column and w > 0 for key, w in entries)
    assert entries == sorted(entries, key=lambda e: (-e[1], e[0][0]))
    assert sum(w for _, w in entries) == 1
    for row, bound in zip(rows, rhs):
        assert sum(w * row[column[key]] for key, w in entries) >= bound
    assert sum(w for key, w in entries if full[column[key]]) == optimum


def inputs_of(argv: list[str]) -> dict:
    """The inputs a payload echoes: each option of argv, --n as an int and,
    for haar-lp, the repeated --direction as a list."""
    inputs, rest = {}, iter(argv[1:])
    for token in rest:
        if token.startswith("--direction="):
            inputs.setdefault("direction", []).append(token.removeprefix("--direction="))
        else:
            inputs[token[2:].replace("-", "_")] = next(rest)
    if "direction" in inputs and argv[0] != "haar-lp":
        (inputs["direction"],) = inputs["direction"]
    inputs["n"] = int(inputs["n"])
    return inputs


def direction_of(text: str) -> CartanElement:
    return CartanElement(tuple(Fraction(c) for c in text.split(",")))


CHECKS = {
    "roots": check_roots,
    "spectrum": check_spectrum,
    "bound": check_bound,
    "supports": check_supports,
    "haar-lp": check_haar_lp,
}


@settings(max_examples=150, deadline=None)
@given(argv=exact_argv())
def test_every_printed_value_matches_the_oracles(argv):
    payload = json.loads(run(argv, "json"))
    command, inputs, results = payload["command"], payload["inputs"], payload["results"]
    assert (command, inputs) == (argv[0], inputs_of(argv))
    CHECKS[command](inputs, results)
    table = run(argv, "table")
    printed = json.dumps([inputs, results], ensure_ascii=False)
    assert set(NUMBER.findall(table)) <= set(NUMBER.findall(printed))
    shown = NUMBER.findall(table)
    assert all(str(results[key]) in shown for key in TABLE_KEYS[command] if key in results)
    if command == "haar-lp":
        assert all(v["weight"] in shown for v in results["vertex"])
