"""Outside-in span recorder for the typesched layers.

The recorder wraps public functions of the solver modules without editing
them.  Callers import with ``from .lp import solve_extreme_point``, so
rebinding ``lp.solve_extreme_point`` alone would miss every call: ``install``
rebinds the name in every loaded ``typesched`` module whose global refers to
the original function, and restores all of them on exit.

Spans live in memory as (name, start, end, parent, failed, info).  A span's
self time is its duration minus the durations of its direct children; on a
single thread the children never overlap, so that is the time they cover.
Pivot counts and the phase-1/phase-2 split of the simplex happen inside
``solve_extreme_point`` and cannot be seen from outside; they are left to an
in-program recorder.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter_ns

MODULES = ("model", "oracle", "makespan", "lpnorm", "convex", "rounding", "lp")


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed", "info")

    def __init__(self, name: str, start: int, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.failed = False
        self.info = None


class Recorder:
    """Single-threaded span stack; spans stay in memory until summarized."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter_ns(), parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> Span:
        span = self.spans[idx]
        span.end = perf_counter_ns()
        span.failed = failed
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span


# ---------------------------------------------------------------------------
# wrappers


def _lp_info(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    rows = lp.num_rows
    cols = len(lp.variables)
    slacks = sum(1 for c in lp.constraints if c.rel != "=")
    return (rows, cols, rows * (cols + slacks))


def _stats_info(args, kwargs, result):
    st = args[0].stats
    return (st.lp_solves, st.iterations, st.case_slot_merge, st.case_machine_drop)


def _attr_info(attr):
    def info(args, kwargs, result):
        return getattr(result, attr) if result is not None else 0
    return info


def _wrap_call(rec: Recorder, name: str, fn, info=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span = rec.close(idx, failed=True)
            if info is not None:
                span.info = info(args, kwargs, None)
            raise
        span = rec.close(idx)
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    return wrapper


class _TracedIter:
    """One span per ``next``; a span that returns an item has info 1."""

    def __init__(self, rec: Recorder, name: str, it):
        self._rec, self._name, self._it = rec, name, it

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._rec.open(self._name)
        try:
            item = next(self._it)
        except StopIteration:
            self._rec.close(idx)
            raise
        except BaseException:
            self._rec.close(idx, failed=True)
            raise
        self._rec.close(idx).info = 1
        return item

    def close(self):
        self._it.close()


def _wrap_iter(rec: Recorder, name: str, fn, info=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TracedIter(rec, name, fn(*args, **kwargs))

    return wrapper


# (module, attribute, wrapper kind, info); the span is "<module>.<attribute>"
TARGETS = (
    ("model", "evaluate_makespan", _wrap_call, None),
    ("model", "evaluate_lp_norm_pow", _wrap_call, None),
    ("oracle", "exact_solve", _wrap_call, _attr_info("explored")),
    ("makespan", "makespan_ptas", _wrap_call, _attr_info("probes")),
    ("makespan", "makespan_decision", _wrap_call, None),
    ("makespan", "make_scaled_instance", _wrap_call, None),
    ("makespan", "profile_from_schedule", _wrap_call, None),
    ("makespan", "enumerate_pattern_profiles", _wrap_iter, None),
    ("makespan", "build_rounding_problem", _wrap_call, None),
    ("lpnorm", "lpnorm_ptas", _wrap_call, None),
    ("lpnorm", "guess_from_schedule", _wrap_call, None),
    ("lpnorm", "enumerate_guesses", _wrap_iter, None),
    ("lpnorm", "build_cp_model", _wrap_call, None),
    ("lpnorm", "solve_slot_cp", _wrap_call, None),
    ("convex", "solve_convex_over_polytope", _wrap_call, _attr_info("iterations")),
    ("rounding", "RoundingEngine.run", _wrap_call, _stats_info),
    ("rounding", "untangle", _wrap_call, None),
    ("lp", "solve_extreme_point", _wrap_call, _lp_info),
)
ITERATORS = tuple(f"{m}.{a}" for m, a, kind, _ in TARGETS if kind is _wrap_iter)


@contextlib.contextmanager
def installed(rec: Recorder):
    """Route every call of a TARGETS function through rec; yields the rebind sites."""
    loaded = {m: importlib.import_module(f"typesched.{m}") for m in MODULES}
    namespaces = [
        (where, vars(mod)) for where, mod in sorted(sys.modules.items())
        if where == "typesched" or where.startswith("typesched.")
    ]
    undo: list[tuple[object, str, object]] = []
    sites: dict[str, list[str]] = {}
    try:
        for module, attr, kind, info in TARGETS:
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(loaded[module], cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, kind(rec, name, original, info))
                undo.append((cls, meth, original))
                sites[name] = [f"typesched.{module}.{cls_name}"]
                continue
            original = getattr(loaded[module], attr)
            wrapper = kind(rec, name, original, info)
            sites[name] = []
            for where, ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        undo.append((ns, key, original))
                        sites[name].append(where)
        yield sites
    finally:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


# ---------------------------------------------------------------------------
# summary


_LP_PARENTS = {
    "rounding.RoundingEngine.run": "rounding",
    "convex.solve_convex_over_polytope": "convex",
    "rounding.untangle": "untangle",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric summarize() reports, with its unit, in order."""
    out = []
    for module, attr, kind, _ in TARGETS:
        name = f"{module}.{attr}"
        out += [(f"{name}.calls", "count"), (f"{name}.failed", "count"),
                (f"{name}.self_s", "s"), (f"{name}.total_s", "s")]
        if kind is _wrap_iter:
            out.append((f"{name}.yielded", "count"))
    out += [(f"{m}.self_s", "s") for m in MODULES]
    out += [
        ("makespan.probes", "count"),
        ("lpnorm.guesses_tried", "count"),
        ("lpnorm.guesses_pruned", "count"),
        ("lpnorm.guess_useful_ratio", "ratio"),
        ("convex.iterations", "count"),
        ("convex.lmo_lp_calls", "count"),
        ("rounding.lp_solves", "count"),
        ("rounding.iterations", "count"),
        ("rounding.slot_merges", "count"),
        ("rounding.machine_drops", "count"),
        ("oracle.explored", "count"),
        ("lp.feasible_ratio", "ratio"),
        ("lp.rows_mean", "count"),
        ("lp.cols_mean", "count"),
        ("lp.tableau_cells_mean", "count"),
    ]
    out += [(f"lp.calls_by_parent.{p}", "count") for p in ("rounding", "convex", "untangle")]
    return out


def summarize(rec: Recorder) -> dict[str, float]:
    spans = rec.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
    values: dict[str, float] = {name: 0 for name, _ in metric_names()}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        values[f"{s.name}.calls"] += 1
        values[f"{s.name}.failed"] += s.failed
        values[f"{s.name}.total_s"] += dur / 1e9
        values[f"{s.name}.self_s"] += (dur - child_ns[i]) / 1e9
        values[f"{s.name.split('.')[0]}.self_s"] += (dur - child_ns[i]) / 1e9
        if s.name in ITERATORS and s.info:
            values[f"{s.name}.yielded"] += 1

    def ancestors(i):
        while spans[i].parent >= 0:
            i = spans[i].parent
            yield spans[i].name

    lp_rows = lp_cols = lp_cells = 0
    useful = 0
    for s in spans:
        name = s.name
        if name == "makespan.makespan_ptas":
            values["makespan.probes"] += s.info
        elif name == "oracle.exact_solve":
            values["oracle.explored"] += s.info
        elif name == "convex.solve_convex_over_polytope":
            values["convex.iterations"] += s.info
        elif name == "rounding.RoundingEngine.run":
            for key, v in zip(("lp_solves", "iterations", "slot_merges", "machine_drops"), s.info):
                values[f"rounding.{key}"] += v
        elif name == "lp.solve_extreme_point":
            rows, cols, cells = s.info
            lp_rows, lp_cols, lp_cells = lp_rows + rows, lp_cols + cols, lp_cells + cells
            parent = _LP_PARENTS.get(spans[s.parent].name) if s.parent >= 0 else None
            if parent is not None:
                values[f"lp.calls_by_parent.{parent}"] += 1
    for i, s in enumerate(spans):
        if s.name == "rounding.untangle" and not s.failed:
            useful += "lpnorm.lpnorm_ptas" in ancestors(i)

    tried = values["lpnorm.enumerate_guesses.yielded"] + (
        values["lpnorm.guess_from_schedule.calls"] - values["lpnorm.guess_from_schedule.failed"]
    )
    values["lpnorm.guesses_tried"] = tried
    values["lpnorm.guesses_pruned"] = tried - values["lpnorm.build_cp_model.calls"]
    values["lpnorm.guess_useful_ratio"] = useful / tried if tried else 0.0
    values["convex.lmo_lp_calls"] = values["lp.calls_by_parent.convex"]
    lp_calls = values["lp.solve_extreme_point.calls"]
    if lp_calls:
        values["lp.feasible_ratio"] = (lp_calls - values["lp.solve_extreme_point.failed"]) / lp_calls
        values["lp.rows_mean"] = lp_rows / lp_calls
        values["lp.cols_mean"] = lp_cols / lp_calls
        values["lp.tableau_cells_mean"] = lp_cells / lp_calls
    return values
