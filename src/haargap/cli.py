"""Command-line front end.

Subcommands: roots, spectrum, bound, supports, haar-lp, validate, report.
Exact quantities are serialized as "p/q" strings, never floats; floats appear
only in `validate` payloads.  Each handler returns its results, table lines
and exit code, and main prints them.  Exit codes: 0 success, 2 invalid input,
3 capacity exceeded, 4 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from collections import Counter
from fractions import Fraction

from . import __version__
from .entropy import (
    conjectured_entropy_bound,
    entropy_lower_bound,
    fast_slow_split,
    haar_entropy,
    lyapunov_spectrum,
)
from .rigidity import (
    BOUND_MODES,
    LATTICE_GENERIC,
    LATTICE_INNER,
    LATTICES,
    VERTEX_NOTE,
    RigidityProblem,
    build_lp,
    extremal_vertex_report,
    inner_weight_formula,
    lattice_supports,
    min_haar_weight,
    solve_lp,
)
from .roots import (
    CartanElement,
    abbreviated,
    build_type_a,
    dominant_representative,
    is_regular,
)
from .supports import CapacityError, render_label

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_VALIDATION = 4

# Fraction evaluates 10**exponent in full, so one short argument such as
# 1e-999999999 would run for minutes; an integer past the interpreter's
# 4300-digit int-to-str limit could not be printed anyway.
MAX_DECIMAL_EXPONENT = 4300
# Python 3.10's Fraction grammar on every version: p/q or a decimal, without
# digit-group underscores or spaces around "/".  Groups: p, q, decimals, exponent.
_RATIONAL = re.compile(r"\s*[-+]?(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:e[-+]?(\d+))?)\s*", re.I)


def run_validation_suite(seed: int) -> dict:
    """The float layer's suite; numpy is imported only when it runs."""
    from .cotlar_stein import run_validation_suite
    return run_validation_suite(seed)


def parse_rational(text: str) -> Fraction:
    quoted = abbreviated(repr(text))
    match = _RATIONAL.fullmatch(text)
    limit = sys.get_int_max_str_digits()
    if match and limit and max(map(len, match.groups(""))) > limit:
        raise ValueError(f"cannot parse {quoted}: a number in it has more than {limit} digits")
    if not match or match[2] and not int(match[2]):  # not p/q or a decimal, or q = 0
        raise ValueError(f"cannot parse {quoted} as a rational 'p/q'")
    if int(match[4] or 0) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"cannot parse {quoted}: decimal exponents are limited to ±{MAX_DECIMAL_EXPONENT}"
        )
    return Fraction(text)


def parse_direction(text: str) -> CartanElement:
    coords = tuple(parse_rational(p.strip()) for p in text.split(","))
    _refuse_unprintable_sums(coords)
    # CartanElement rejects off-trace input, reporting the computed trace
    return CartanElement(coords)


def _refuse_unprintable_sums(coords: tuple[Fraction, ...]) -> None:
    """Refuse coordinates whose bounds could not be printed.

    With x the coordinates scaled by their common denominator d, every bound a
    command prints has a denominator dividing 2d and a numerator at most the
    sum of |x_i - x_j| over the n(n-1)/2 pairs, so at most n(n-1) max|x_i|;
    at n = 1 the lone coordinate, which the trace check prints, is bounded
    instead.  Each is checked against sys.get_int_max_str_digits() (0: no
    limit), and d is built up one coordinate at a time, so the check stops as
    soon as it fails.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    too_long = 10**limit  # the smallest integer with more than `limit` digits
    d = 1
    for c in coords:
        d = math.lcm(d, c.denominator)
        if 2 * d >= too_long:
            raise ValueError(
                f"cannot use the direction: twice the common denominator of its "
                f"coordinates has more than {limit} digits and could not be printed"
            )
    n = len(coords)
    if max(n * (n - 1), 1) * max(abs(c.numerator) * (d // c.denominator) for c in coords) >= too_long:
        raise ValueError(
            f"cannot use the direction: with x scaled to integers, a coordinate or a sum of "
            f"|x_i - x_j| over its pairs may have more than {limit} digits and could not be printed"
        )


def _argument(parse):
    """An argparse type that reports parse's ValueError as a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _frac(x: Fraction) -> str:
    """x as "p/q", or "p" when q = 1; every exact value the CLI prints passes here."""
    try:
        return str(x)
    except ValueError:
        raise ValueError(
            f"a value has more than {sys.get_int_max_str_digits()} digits and could not be printed"
        ) from None


def _inputs(args) -> dict:
    """The payload's inputs: every parsed argument but the output options and
    the unset ones, in declaration order, rendered as printed.  main renders
    them before any work, so an input that could not be printed is refused
    first."""
    def echo(value):
        if isinstance(value, list):  # a repeated --direction
            return [echo(v) for v in value]
        if isinstance(value, CartanElement):
            return ",".join(_frac(c) for c in value.coords)
        return _frac(value) if isinstance(value, Fraction) else value

    return {key: echo(value) for key, value in vars(args).items()
            if value is not None and key not in ("command", "format", "output", "handler")}


def _emit(args, inputs: dict, results: dict, lines: list[str]) -> None:
    if args.format == "json":
        payload = {
            "command": args.command,
            "inputs": inputs,
            "results": results,
            "version": __version__,
        }
        text = json.dumps(payload, indent=2, ensure_ascii=False)
    else:
        text = "\n".join(lines)
    try:
        with (open(args.output, "w", encoding="utf-8") if args.output
              else contextlib.nullcontext(sys.stdout)) as sink:
            # the newline is written apart: where stdout is unbuffered, a write
            # cut short goes unreported, and the next one fails
            print(text, file=sink, flush=True)
    except OSError as exc:
        if not args.output:
            # what stays buffered goes to os.devnull, so the interpreter's own
            # flush at exit does not fail again and print "Exception ignored"
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        where = "--output" if args.output else "standard output"
        raise ValueError(f"cannot write {where}: {exc}") from exc


def _cmd_roots(args, inputs: dict) -> tuple[dict, list[str], int]:
    rs = build_type_a(args.n)
    direction = args.direction
    results = {
        "n": rs.n,
        "rank": rs.rank,
        "num_roots": len(rs.roots),
        "num_positive": len(rs.positive_indices),
        "positive_roots": [f"α_{r.i}{r.j}" for r in rs.positive_roots()],
    }
    if direction is not None:
        if direction.n != rs.n:
            raise ValueError(f"direction has {direction.n} coordinates, expected {rs.n}")
        # the orbit is the distinct coordinate permutations: n! / prod(m!) over
        # coordinate multiplicities m, counted without listing them
        orbit_size = math.factorial(direction.n)
        for m in Counter(direction.coords).values():
            orbit_size //= math.factorial(m)
        results["direction"] = [_frac(c) for c in direction.coords]
        results["weyl_orbit_size"] = orbit_size
        results["dominant_representative"] = [
            _frac(c) for c in dominant_representative(direction).coords
        ]
        results["is_regular"] = is_regular(direction)
    lines = [
        f"A_{rs.n - 1} root system for SL_{rs.n}",
        f"  roots: {results['num_roots']}  positive: {results['num_positive']}  rank: {rs.rank}",
        "  positive roots: " + " ".join(results["positive_roots"]),
    ]
    if direction is not None:
        lines.append(
            f"  direction {inputs['direction']}: orbit size {results['weyl_orbit_size']}, "
            f"dominant {','.join(results['dominant_representative'])}, "
            f"regular: {results['is_regular']}"
        )
    return results, lines, EXIT_OK


def _cmd_spectrum(args, inputs: dict) -> tuple[dict, list[str], int]:
    rs = build_type_a(args.n)
    spec = lyapunov_spectrum(rs, args.direction)
    results = {
        "values": [_frac(v) for v in spec.values],
        "chi_max": _frac(spec.chi_max),
        "J": spec.J,
        "dominant_direction": [_frac(c) for c in spec.direction.coords],
    }
    lines = [
        f"Lyapunov spectrum for SL_{args.n}, direction {inputs['direction']}",
        "  values: " + " ".join(results["values"]),
        f"  chi_max: {results['chi_max']}",
    ]
    if args.K is not None:
        split = fast_slow_split(spec, args.K)
        results["threshold"] = _frac(split.threshold)
        results["J0"] = split.J0
        results["slow_indices"] = list(split.slow_indices)
        results["fast_indices"] = list(split.fast_indices)
        lines.append(
            f"  split at 1/(2K) = {results['threshold']}: "
            f"J0 = {split.J0} slow, {len(split.fast_indices)} fast"
        )
    return results, lines, EXIT_OK


def _cmd_bound(args, inputs: dict) -> tuple[dict, list[str], int]:
    rs = build_type_a(args.n)
    spec = lyapunov_spectrum(rs, args.direction)
    results = {
        "thm14": _frac(entropy_lower_bound(rs, args.direction)),
        "haar": _frac(haar_entropy(rs, args.direction)),
        "optim": _frac(conjectured_entropy_bound(rs, args.direction)),
        "chi_max": _frac(spec.chi_max),
    }
    lines = [
        f"Entropy bounds for SL_{args.n}, direction {inputs['direction']}",
        f"  proved lower bound:      {results['thm14']}",
        f"  Haar entropy:            {results['haar']}",
        f"  conjectured lower bound: {results['optim']}",
    ]
    if args.K is not None:
        results["dispersive_exponent"] = _frac(fast_slow_split(spec, args.K).dispersive_exponent)
        lines.append(f"  dispersive exponent at K={inputs['K']}: {results['dispersive_exponent']}")
    return results, lines, EXIT_OK


def _cmd_supports(args, inputs: dict) -> tuple[dict, list[str], int]:
    # printed in full below, so walked once here rather than once per use
    sets = list(lattice_supports(args.n, args.lattice))
    supports = [{"label": render_label(s, kind := s.kind), "kind": kind} for s in sets]
    by_kind = dict(Counter(s["kind"] for s in supports))
    results = {"count": len(sets), "counts_by_kind": by_kind, "supports": supports}
    lines = [
        f"Admissible supports for SL_{args.n} ({args.lattice}): {len(sets)}",
        "  by kind: " + ", ".join(f"{k}: {v}" for k, v in sorted(by_kind.items())),
    ]
    if len(sets) <= 40:
        lines += [f"    {s['label']}  [{s['kind']}]" for s in supports]
    return results, lines, EXIT_OK


def _cmd_haar_lp(args, inputs: dict) -> tuple[dict, list[str], int]:
    model = build_lp(RigidityProblem(
        args.n, args.lattice, args.beta, args.bound_mode, args.direction or ()
    ))
    num_variables = len(model.group_of)
    constraints = []
    for X, row, rhs in zip(model.directions, model.ge_rows, model.ge_rhs):
        entry = {
            "direction": ",".join(_frac(c) for c in X.coords),
            "rhs": _frac(rhs),
        }
        if num_variables <= 64:
            entry["coefficients"] = [_frac(row[g]) for g in model.group_of]
        constraints.append(entry)
    # every right-hand side has been printed above, so an unprintable one is
    # refused before the simplex runs
    solution = solve_lp(model)
    results = {
        "status": "optimal",
        "num_variables": num_variables,
        "num_constraints": len(model.ge_rows),
        "constraints": constraints,
        "min_haar_weight": _frac(solution.optimum),
        "vertex": [{"label": label, "kind": kind, "weight": _frac(w)}
                   for label, kind, w in extremal_vertex_report(solution)],
        "vertex_note": VERTEX_NOTE,
    }
    lines = [
        f"Entropy-game LP for SL_{args.n} ({args.lattice}), beta = {inputs['beta']}, "
        f"{num_variables} variables, {len(model.ge_rows)} constraints",
        f"  min Haar weight: {results['min_haar_weight']}",
        f"  optimal vertex ({VERTEX_NOTE}):",
        *(f"    {v['label']:>24}  [{v['kind']}]  {v['weight']}" for v in results["vertex"]),
    ]
    return results, lines, EXIT_OK


def _cmd_validate(args, inputs: dict) -> tuple[dict, list[str], int]:
    summary = run_validation_suite(args.seed)
    lines = [f"Numerical validation suite (seed {args.seed})"]
    for check in summary["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        extra = f"  slope={check['slope']:.3f}" if "slope" in check else ""
        lines.append(f"  [{mark}] {check['name']}{extra}")
    lines.append("all passed" if summary["all_passed"] else "FAILURES present")
    return summary, lines, EXIT_OK if summary["all_passed"] else EXIT_VALIDATION


def _cmd_report(args, inputs: dict) -> tuple[dict, list[str], int]:
    rows = []
    half = Fraction(1, 2)
    generic_expected = {3: Fraction(1, 4), 4: Fraction(0)}
    for n in (3, 4):
        computed = min_haar_weight(n, LATTICE_GENERIC, half)
        expected = generic_expected[n]
        rows.append((LATTICE_GENERIC, n, computed, expected))
    for n in range(3, 13):
        computed = min_haar_weight(n, LATTICE_INNER, half)
        rows.append((LATTICE_INNER, n, computed, inner_weight_formula(n)))
    all_equal = all(c == e for _, _, c, e in rows)
    inputs["beta"] = _frac(half)
    results = {
        "rows": [
            {
                "lattice": mode,
                "n": n,
                "computed": _frac(c),
                "expected": _frac(e),
                "equal": c == e,
            }
            for mode, n, c, e in rows
        ],
        "all_equal": all_equal,
    }
    lines = [
        "| lattice | n | min Haar weight | closed form | equal |",
        "|---------|---|-----------------|-------------|-------|",
    ]
    for mode, n, c, e in rows:
        lines.append(f"| {mode} | {n} | {_frac(c)} | {_frac(e)} | {'yes' if c == e else 'NO'} |")
    return results, lines, EXIT_OK if all_equal else EXIT_VALIDATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="haargap",
        description="Exact entropy bounds, support enumeration and Haar-weight "
        "linear programs for diagonal flows on SL_n.",
    )
    parser.add_argument("--version", action="version", version=f"haargap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", help="write the rendered output to this path")

    p = sub.add_parser("roots", help="root data and Weyl orbit of a direction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--direction", type=_argument(parse_direction), default=None)
    common(p)
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("spectrum", help="Lyapunov spectrum and fast/slow split")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--direction", type=_argument(parse_direction), required=True)
    p.add_argument("--K", type=_argument(parse_rational), default=None)
    common(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("bound", help="entropy bounds and dispersive exponent")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--direction", type=_argument(parse_direction), required=True)
    p.add_argument("--K", type=_argument(parse_rational), default=None)
    common(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("supports", help="enumerate admissible supports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lattice", choices=LATTICES, default=LATTICE_GENERIC)
    common(p)
    p.set_defaults(handler=_cmd_supports)

    p = sub.add_parser("haar-lp", help="solve the Haar-weight linear program")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lattice", choices=LATTICES, default=LATTICE_GENERIC)
    p.add_argument("--beta", type=_argument(parse_rational), required=True)
    p.add_argument("--bound-mode", choices=BOUND_MODES, default=BOUND_MODES[0])
    p.add_argument("--direction", type=_argument(parse_direction), action="append", default=None,
                   help="override the Weyl-orbit test directions (repeatable; "
                        "use --direction=-1,2,-1 for leading minus signs)")
    common(p)
    p.set_defaults(handler=_cmd_haar_lp)

    p = sub.add_parser("validate", help="run the numerical validation suite")
    p.add_argument("--seed", type=int, default=0, help="the corpus seed (default: 0)")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("report", help="theorem table: computed vs closed-form Haar weights")
    common(p)
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        inputs = _inputs(args)
        results, lines, code = args.handler(args, inputs)
        _emit(args, inputs, results, lines)
        return code
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
