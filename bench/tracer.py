"""Per-layer tracing of haargap, done from outside the program.

``Tracer.install()`` wraps the public functions listed in ``TRACED``.  Each is
replaced at every module attribute through which the program looks it up
(``rigidity.enumerate_block_partitions``, ``haargap.simplex.solve_standard_form``,
``cli.solve_min_haar``, ...) and, for the one classmethod, at its class, so
calls between modules are seen as well as the benchmark's own call into
``cli.main``.  Every call records a span (name, start, end, parent, query id)
in memory.  Counts come only from call arguments and return values.  A listed
function the program no longer has is skipped, so its metrics read as zero.

Per-support and per-root helpers (``make_support``, ``support_indices``,
``evaluate_root``) are deliberately not traced: they run tens of thousands of
times per query, and spans there would cost more than they show.  Their time
lands in the self time of the layer function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from workloads import NONSTATIONARY_SLOPE_FLOOR, STATIONARY_SLOPE_WINDOW

LAYERS = ("roots", "supports", "entropy", "rigidity", "simplex", "cotlar_stein", "cli")

# A cotlar check whose bound is attained to this relative accuracy is tight by
# construction (one member, orthogonal projectors); its margin is rounding
# noise, so min_bound_margin leaves it out unless it has gone negative.
TIGHT_MARGIN = 1e-9


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _enumerate_generic(args, kwargs, result):
    rs = _arg(args, kwargs, 0, "rs")
    return {"found": len(result), "scanned": 2 ** len(rs.positive_indices)}


def _enumerate_blocks(args, kwargs, result):
    return {"found": len(result), "scanned": len(result)}


def _build_lp(args, kwargs, model):
    return {"columns": len(model.variables), "rows": len(model.ge_rows)}


def _max_bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _solve_standard_form(args, kwargs, result):
    A = _arg(args, kwargs, 0, "A")
    rows = len(A)
    cols = len(A[0]) if rows else 0
    return {"rows": rows, "cols": cols, "bits": _max_bits(result.x or ())}


def _weyl_orbit(args, kwargs, result):
    return {"size": len(result)}


def _operator_norm(args, kwargs, result):
    M = _arg(args, kwargs, 0, "M")
    size = getattr(M, "size", None)
    return {"entries": size if size is not None else sum(len(row) for row in M)}


def _cotlar_bound_check(args, kwargs, check):
    top = max(check.R1, check.R2)
    return {"margin": (top - check.lhs) / top if top > 0 else 0.0}


def _oscillatory_decay(args, kwargs, decay):
    problem = _arg(args, kwargs, 0, "problem")
    slope = decay.fitted_slope
    if decay.min_phase_speed <= 1e-6 * decay.max_phase_speed:
        lo, hi = STATIONARY_SLOPE_WINDOW
        margin = min(slope - lo, hi - slope)
    else:
        margin = slope - NONSTATIONARY_SLOPE_FLOOR
    return {"points": problem.grid.size * len(problem.hbar_values), "slope_margin": margin}


# traced function -> hook deriving its counts from (args, kwargs, result)
TRACED = {
    "roots.build_type_a": None,
    "roots.weyl_orbit": _weyl_orbit,
    "supports.enumerate_symmetric_closed": _enumerate_generic,
    "supports.enumerate_block_partitions": _enumerate_blocks,
    "entropy.haar_entropy": None,
    "entropy.entropy_lower_bound": None,
    "rigidity.rigidity_problem": None,
    "rigidity.default_test_directions": None,
    "rigidity.build_lp": _build_lp,
    "rigidity.solve_lp": None,
    "rigidity.verify_solution": None,
    "rigidity.solve_min_haar": None,
    "rigidity.min_haar_weight": None,
    "rigidity.inner_weight_formula": None,
    "rigidity.extremal_vertex_report": None,
    "simplex.solve_standard_form": _solve_standard_form,
    "cotlar_stein.run_validation_suite": None,
    "cotlar_stein.seeded_family_corpus": None,
    "cotlar_stein.orthogonal_projector_family": None,
    "cotlar_stein.cotlar_bound_check": _cotlar_bound_check,
    "cotlar_stein.operator_norm": _operator_norm,
    "cotlar_stein.oscillatory_decay": _oscillatory_decay,
    "cotlar_stein.OscillatoryProblem.from_functions": None,
    "cli.main": None,
}


class Tracer:
    """Span recorder for the functions in ``TRACED``.

    Spans are tuples (name, start, end, parent index or -1, query id) in call
    order; ``counts`` maps a span index to the counts its hook derived.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[int, dict] = {}
        self.query = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, hook):
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.query)
            if hook is not None:
                try:
                    counts[idx] = hook(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass  # arguments or result changed shape: those counts read as zero
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            try:
                importlib.import_module(f"haargap.{layer}")
            except ImportError:
                continue
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "haargap" or key.startswith("haargap."))]
        for name, hook in TRACED.items():
            layer, _, attr = name.partition(".")
            module = sys.modules.get(f"haargap.{layer}")
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, hook)))
                    self._restore.append((cls, meth, raw))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            wrapper = self._wrap(name, fn, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, fn))

    def uninstall(self) -> None:
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)

    def dump(self, path, origin: float) -> None:
        """Write every span, with its self time and counts, as JSON lines."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                record = {"name": name, "start": start - origin, "end": end - origin,
                          "parent": parent, "query": query, "self": selfs[i]}
                if i in self.counts:
                    record["counts"] = self.counts[i]
                fh.write(json.dumps(record) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered = 0.0
        cursor = start
        for a, b in sorted(kids):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts, sweeps: int) -> dict[str, float]:
    """Per-layer metrics of traced sweeps; times and counts are per sweep.

    Names missing from the trace read as zero.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    bounds_s = 0.0
    bounds_calls = 0
    max_bits = 0
    margins, slope_margins = [], []
    for i, (name, start, end, parent, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.partition(".")[0]] += selfs[i]
        if name.startswith("entropy.") and parent >= 0 and spans[parent][0] == "rigidity.build_lp":
            bounds_s += end - start
            bounds_calls += 1
        c = counts.get(i)
        if not c:
            continue
        for key, value in c.items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
        if name == "simplex.solve_standard_form":
            max_bits = max(max_bits, c["bits"])
            sums["cells"] = sums.get("cells", 0) + c["rows"] * c["cols"]
            if parent >= 0 and spans[parent][0] == "rigidity.solve_lp":
                # [group weights | surplus] with one sum-to-one row on top
                sums["distinct"] = sums.get("distinct", 0) + c["cols"] - c["rows"] + 1
        elif name == "cotlar_stein.cotlar_bound_check":
            if not -TIGHT_MARGIN <= c["margin"] <= TIGHT_MARGIN:
                margins.append(c["margin"])
        elif name == "cotlar_stein.oscillatory_decay":
            slope_margins.append(c["slope_margin"])

    def per(x):
        return x / sweeps if sweeps else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    g = sums.get
    enum = ("supports.enumerate_symmetric_closed", "supports.enumerate_block_partitions")
    found = sum(g(f"{e}.found", 0) for e in enum)
    scanned = sum(g(f"{e}.scanned", 0) for e in enum)
    sf = "simplex.solve_standard_form"
    m = {
        "supports.enumerate.s": per(sum(total.get(e, 0.0) for e in enum)),
        "supports.enumerate.count": per(found),
        "supports.scan_yield": ratio(found, scanned),
        "rigidity.build_lp.self_s": per(own.get("rigidity.build_lp", 0.0)),
        "rigidity.build_lp.columns": per(g("rigidity.build_lp.columns", 0)),
        "rigidity.build_lp.rows": per(g("rigidity.build_lp.rows", 0)),
        "rigidity.solve_lp.self_s": per(own.get("rigidity.solve_lp", 0.0)),
        "rigidity.dedup_ratio": ratio(g("distinct", 0), g("rigidity.build_lp.columns", 0)),
        "rigidity.verify_solution.s": per(total.get("rigidity.verify_solution", 0.0)),
        "rigidity.rigidity_problem.self_s": per(own.get("rigidity.rigidity_problem", 0.0)),
        f"{sf}.s": per(total.get(sf, 0.0)),
        f"{sf}.calls": per(calls.get(sf, 0)),
        f"{sf}.cells": per(g("cells", 0)),
        f"{sf}.max_bits": max_bits,
        "roots.build_type_a.calls": per(calls.get("roots.build_type_a", 0)),
        "roots.build_type_a.s": per(total.get("roots.build_type_a", 0.0)),
        "roots.weyl_orbit.s": per(total.get("roots.weyl_orbit", 0.0)),
        "roots.weyl_orbit.size": per(g("roots.weyl_orbit.size", 0)),
        "entropy.bounds.calls": per(bounds_calls),
        "entropy.bounds.s": per(bounds_s),
        "cotlar_stein.operator_norm.s": per(total.get("cotlar_stein.operator_norm", 0.0)),
        "cotlar_stein.operator_norm.calls": per(calls.get("cotlar_stein.operator_norm", 0)),
        "cotlar_stein.operator_norm.entries": per(g("cotlar_stein.operator_norm.entries", 0)),
        "cotlar_stein.cotlar_bound_check.self_s": per(own.get("cotlar_stein.cotlar_bound_check", 0.0)),
        "cotlar_stein.seeded_family_corpus.s": per(total.get("cotlar_stein.seeded_family_corpus", 0.0)),
        "cotlar_stein.oscillatory_decay.s": per(total.get("cotlar_stein.oscillatory_decay", 0.0)),
        "cotlar_stein.oscillatory_decay.points": per(g("cotlar_stein.oscillatory_decay.points", 0)),
        "cotlar_stein.from_functions.s": per(
            total.get("cotlar_stein.OscillatoryProblem.from_functions", 0.0)),
        "cotlar_stein.min_bound_margin": min(margins, default=0.0),
        "cotlar_stein.slope_margin": min(slope_margins, default=0.0),
        "cli.main.self_s": per(own.get("cli.main", 0.0)),
    }
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_s"] = per(value)
    return m
