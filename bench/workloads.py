"""Seeded query lists and exact oracles for the three benchmark workloads.

A workload is a ``sweep(seed, index) -> list[Query]`` and an optional list of
queries run once per run, first.  One sweep is the query list whose time to
solution is ``wall_s``; a run repeats sweeps, each with fresh inputs drawn from
``(seed, index)``, until its time is up.  The program sees only the generated
argv.

The oracles are written here from the closed forms.  They do not call the
library's formula helpers, so a wrong formula in the library cannot agree with
a wrong solver by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HAAR_FRACTION = "haar-fraction"
THM14 = "thm14"
MODES = (HAAR_FRACTION, THM14)

# lp-default: each (lattice, n) the default test directions are queried at
# runs four times a sweep: haar-fraction at one β from each third of [0, 1],
# and thm14.  The simplex time at generic n = 5, 6 grows about fourfold from
# β = 0 to β = 1, so one β from each third keeps a sweep's cost, and the
# place of its median and tail in the mix, from hinging on the draw.  Generic
# n = 3, 4 solve in milliseconds and run twice (one β, and thm14); this puts
# the sweep's median inside the equal-cost inner n = 9 queries instead of on
# the edge between two classes of different cost.  Inner n = 12 alone costs
# about as much as all the rest; it runs once a sweep and alternates its mode.
DEFAULT_GENERIC_N = (3, 4, 5, 6)
DEFAULT_CHEAP_GENERIC_N = (3, 4)
DEFAULT_INNER_N = (6, 8, 9, 10)
DEFAULT_INNER_HEAVY_N = 12
BETA_MAX_DENOMINATOR = 12

# lp-custom: one twin pair per slot (n, number of directions).  The sizes are
# fixed rather than drawn, so a sweep's cost does not hinge on the draw: at
# n = 6 the simplex time grows steeply and erratically with the number of
# directions (up to 8 s for one query with 8 directions), so n = 6 keeps 4.
CUSTOM_SLOTS = ((4, 11), (5, 10), (5, 11), (5, 12), (6, 4))
CUSTOM_COORD_RANGE = 2
CUSTOM_MAX_DENOMINATOR = 6
TWIN_MAX_SCALE_TERM = 4

# validate: the decay-slope windows the suite's output must respect.
NONSTATIONARY_SLOPE_FLOOR = 2.0
STATIONARY_SLOPE_WINDOW = (0.4, 0.6)


@dataclass(frozen=True)
class Query:
    """One ``cli.main`` call and the oracle its output must satisfy.

    ``check(code, payload)`` returns None when the answer is right and a short
    reason otherwise.  ``twin_of`` is the index, within the sweep, of a query
    whose optimum this one must equal.  ``key`` identifies the instance for the
    repeat share: (lattice, n, direction set) for haar-lp, the suite seed for
    validate, None for report.
    """

    argv: tuple[str, ...]
    check: Callable[[int, dict], str | None]
    key: tuple | None = None
    twin_of: int | None = None


def sweep_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------- oracles

def largest_proper_divisor(n: int) -> int:
    return max(d for d in range(1, n) if n % d == 0)


def default_optimum(lattice: str, n: int, beta: Fraction, mode: str) -> Fraction:
    """Minimum Haar weight with the default Weyl-orbit test directions."""
    if mode == THM14:
        beta = Fraction(1, 2)
    if lattice == "generic":
        value = (beta * n - (n - 2)) / 2
    else:
        t = largest_proper_divisor(n)
        value = (beta * (n - 1) - (t - 1)) / (n - t)
    return max(Fraction(0), value)


def _lp_result(code: int, payload: dict) -> tuple[Fraction | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    results = payload.get("results", {})
    if payload.get("command") != "haar-lp" or results.get("status") != "optimal":
        return None, f"not an optimal haar-lp answer: {results.get('status')!r}"
    return Fraction(results["min_haar_weight"]), None


def expect_default(lattice: str, n: int, beta: Fraction, mode: str):
    expected = default_optimum(lattice, n, beta, mode)

    def check(code: int, payload: dict) -> str | None:
        value, err = _lp_result(code, payload)
        if err:
            return err
        if value != expected:
            return f"min_haar_weight {value} != closed form {expected}"
        return None

    return check


def lp_optimum(payload: dict) -> Fraction:
    return Fraction(payload["results"]["min_haar_weight"])


def expect_custom(code: int, payload: dict) -> str | None:
    value, err = _lp_result(code, payload)
    if err:
        return err
    if not 0 <= value <= 1:
        return f"min_haar_weight {value} outside [0, 1]"
    return None


REPORT_ROWS = [("generic", n) for n in (3, 4)] + [("inner", n) for n in range(3, 13)]


def expect_report(code: int, payload: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    results = payload.get("results", {})
    if results.get("all_equal") is not True:
        return "report says a computed weight differs from its closed form"
    rows = results.get("rows", [])
    if [(r["lattice"], r["n"]) for r in rows] != REPORT_ROWS:
        return "report rows are not the expected (lattice, n) list"
    half = Fraction(1, 2)
    for r in rows:
        expected = default_optimum(r["lattice"], r["n"], half, HAAR_FRACTION)
        if Fraction(r["computed"]) != expected:
            return f"report {r['lattice']} n={r['n']}: {r['computed']} != {expected}"
    return None


def expect_validate(seed: int):
    def check(code: int, payload: dict) -> str | None:
        if code != 0:
            return f"exit code {code}"
        results = payload.get("results", {})
        if results.get("seed") != seed or results.get("all_passed") is not True:
            return "validation suite did not pass"
        slopes = [c["slope"] for c in results.get("checks", []) if "slope" in c]
        if len(slopes) != 2:
            return f"expected two fitted slopes, got {len(slopes)}"
        lo, hi = STATIONARY_SLOPE_WINDOW
        if not (slopes[0] >= NONSTATIONARY_SLOPE_FLOOR and lo <= slopes[1] <= hi):
            return f"slopes {slopes} outside their windows"
        return None

    return check


# ---------------------------------------------------------------- generators

def _fmt(coords) -> str:
    return ",".join(str(Fraction(c)) for c in coords)


def _haar_lp_argv(n: int, lattice: str, beta: Fraction, mode: str, directions=()) -> tuple[str, ...]:
    argv = ["haar-lp", "--n", str(n), "--lattice", lattice, "--beta", str(beta), "--bound-mode", mode]
    argv += [f"--direction={_fmt(d)}" for d in directions]
    return tuple(argv)


def _beta(rng: random.Random, keep=lambda beta: True) -> Fraction:
    """A rational in [0, 1] with denominator at most BETA_MAX_DENOMINATOR."""
    while True:
        q = rng.randint(1, BETA_MAX_DENOMINATOR)
        beta = Fraction(rng.randint(0, q), q)
        if keep(beta):
            return beta


def _default_query(lattice: str, n: int, beta: Fraction, mode: str) -> Query:
    return Query(_haar_lp_argv(n, lattice, beta, mode), expect_default(lattice, n, beta, mode),
                 key=(lattice, n, "default"))


def lp_default_sweep(seed: int, index: int) -> list[Query]:
    rng = sweep_rng(seed, index)
    queries = []
    for lattice, ns in (("generic", DEFAULT_GENERIC_N), ("inner", DEFAULT_INNER_N)):
        for n in ns:
            if lattice == "generic" and n in DEFAULT_CHEAP_GENERIC_N:
                queries.append(_default_query(lattice, n, _beta(rng), HAAR_FRACTION))
            else:
                for third in range(3):
                    beta = _beta(rng, lambda b: min(int(3 * b), 2) == third)
                    queries.append(_default_query(lattice, n, beta, HAAR_FRACTION))
            queries.append(_default_query(lattice, n, _beta(rng), THM14))
    queries.append(_default_query("inner", DEFAULT_INNER_HEAVY_N, _beta(rng), MODES[index % 2]))
    rng.shuffle(queries)
    return queries


def random_direction(rng: random.Random, n: int) -> tuple[int, ...]:
    """A nonzero trace-zero integer vector with small entries."""
    while True:
        head = [rng.randint(-CUSTOM_COORD_RANGE, CUSTOM_COORD_RANGE) for _ in range(n - 1)]
        if any(head):
            return tuple(head + [-sum(head)])


def twin_directions(rng: random.Random, directions) -> list[tuple[Fraction, ...]]:
    """The same direction set under one common coordinate permutation (a Weyl
    element), a positive rational scale per direction, in shuffled order.

    The entropy game is invariant under all three, so the twin's optimum must
    equal the original's.
    """
    n = len(directions[0])
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for d in directions:
        scale = Fraction(rng.randint(1, TWIN_MAX_SCALE_TERM), rng.randint(1, TWIN_MAX_SCALE_TERM))
        moved = [Fraction(0)] * n
        for k, p in enumerate(perm):
            moved[p] = scale * d[k]
        out.append(tuple(moved))
    rng.shuffle(out)
    return out


def _beta_at_least_half(rng: random.Random) -> Fraction:
    q = rng.randint(2, CUSTOM_MAX_DENOMINATOR)
    return Fraction(rng.randint((q + 1) // 2, q - 1), q)


def _direction_key(n: int, directions) -> tuple:
    return ("generic", n, tuple(sorted(_fmt(d) for d in directions)))


def lp_custom_sweep(seed: int, index: int) -> list[Query]:
    rng = sweep_rng(seed, index)
    queries: list[Query] = []
    for slot, (n, count) in enumerate(CUSTOM_SLOTS):
        directions = [random_direction(rng, n) for _ in range(count)]
        twin = twin_directions(rng, directions)
        beta = _beta_at_least_half(rng)
        mode = MODES[(slot + index) % 2]
        first = len(queries)
        queries.append(
            Query(_haar_lp_argv(n, "generic", beta, mode, directions), expect_custom,
                  key=_direction_key(n, directions))
        )
        queries.append(
            Query(_haar_lp_argv(n, "generic", beta, mode, twin), expect_custom,
                  key=_direction_key(n, twin), twin_of=first)
        )
    return queries


def validate_sweep(seed: int, index: int) -> list[Query]:
    suite_seed = sweep_rng(seed, index).randrange(2**31)
    return [Query(("validate", "--seed", str(suite_seed)), expect_validate(suite_seed),
                  key=("validate", suite_seed))]


@dataclass(frozen=True)
class Workload:
    """``once`` queries run first, one time per run; then ``sweep`` repeats.

    ``tail_percentile`` is about the highest percentile that a 30-second run
    leaves ten queries above (a quarter of them for validate, whose runs hold
    only a dozen or so queries).  It is fixed per workload rather than chosen
    per run, so the tail stays at one place in the workload's mix of queries
    when the number of sweeps in a run changes.
    """

    sweep: Callable[[int, int], list[Query]]
    tail_percentile: float
    once: tuple[Query, ...] = ()


WORKLOADS = {
    "lp-default": Workload(lp_default_sweep, 90.0, (Query(("report",), expect_report),)),
    "lp-custom": Workload(lp_custom_sweep, 90.0),
    "validate": Workload(validate_sweep, 75.0),
}
