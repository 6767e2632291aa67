"""Timing spans around detpf's public entry points, installed from outside.

`installed(tracer)` patches each traced name in the namespace of every
module that calls it (a `from x import f` binding is a separate name, so
patching only the defining module would miss those calls) and restores the
original objects on exit.  Spans are kept in memory; the run writes them out
once at the end.

A span is recorded only inside an open root span and while the tracer is
not paused, so the benchmark's own answer checks, which also call detpf,
are never attributed to a layer.  The process is single-threaded, so spans
nest and a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from math import comb

ROOT = "trace.root"

# (module, attribute) pairs that hold each traced name.  A class stands in
# for its module where the entry point is a method.
ENTRY_POINTS = {
    "constructions.random_linear_skew": [
        ("constructions", "random_linear_skew"),
        ("dominance", "random_linear_skew"),
    ],
    "dominance.is_dominant": [("dominance", "is_dominant")],
    "polymat.submaximal_pfaffians": [
        ("polymat", "submaximal_pfaffians"),
        ("dominance", "submaximal_pfaffians"),
    ],
    "polymat.evaluate_batch": [
        ("polymat.LinearSkewMatrix", "evaluate_batch"),
        ("polymat.GradedMatrix", "evaluate_batch"),
    ],
    "polymat.determinant": [("polymat", "determinant"), ("graded", "determinant")],
    "polymat.to_graded": [
        ("polymat.LinearSkewMatrix", "to_graded"),
        ("polymat.GradedMatrix", "content_hash"),
    ],
    "mpoly.sample_points": [("mpoly", "sample_points"), ("polymat", "sample_points")],
    "mpoly.vandermonde": [("mpoly", "vandermonde"), ("graded", "vandermonde")],
    "mpoly.interpolate_many": [
        ("mpoly", "interpolate_many"),
        ("polymat", "interpolate_many"),
    ],
    "mpoly.from_coefficient_vector": [("mpoly.HomogeneousForm", "from_coefficient_vector")],
    "mpoly.coefficient_vector": [("mpoly.HomogeneousForm", "coefficient_vector")],
    "mpoly.multiplication_matrix": [
        ("mpoly", "multiplication_matrix"),
        ("graded", "multiplication_matrix"),
    ],
    "exactlin.rank": [("exactlin", "rank")],
    # interpolation imports these at call time from exactlin; calls made by
    # exactlin's own rank/invert/solve stay inside those spans
    "exactlin.eliminate": [
        ("exactlin", "_forward_eliminate"),
        ("exactlin", "_back_substitute"),
    ],
    "exactlin.invert": [("exactlin", "invert")],
    "exactlin.pfaffian": [("exactlin", "_pfaffian_array")],
    "exactlin.det": [("exactlin", "_det_array")],
    "graded.coker_hilbert": [("graded", "coker_hilbert")],
    "graded.graded_piece_matrix": [("graded", "graded_piece_matrix")],
    "graded.form_in_ideal_piece": [("graded", "form_in_ideal_piece")],
    "graded.det_in_minor_ideal": [("graded", "det_in_minor_ideal")],
}
SKIP_CALLERS = {"exactlin.eliminate": "detpf.exactlin"}


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # each span: [name, start, end, parent index or None, operation id]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op_id = None
        self.paused = False
        self._stack: list[int] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack) and not self.paused

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextlib.contextmanager
    def pause(self):
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: defaultdict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def call_counts(spans) -> dict[str, int]:
    out: defaultdict[str, int] = defaultdict(int)
    for span in spans:
        out[span[0]] += 1
    return dict(out)


# ---- counters measured where the work happens ---------------------------------


def _count_rank(tracer, args, kwargs, result):
    rows, cols = args[0].a.shape
    tracer.counts["exactlin.rank.ops"] += rows * cols * result
    tracer.counts["exactlin.bytes"] += 8 * rows * cols


def _count_eliminate(tracer, args, kwargs, result):
    m = args[0]
    pivots = result[0] if isinstance(result, tuple) else args[2]
    tracer.counts["exactlin.eliminate.ops"] += m.shape[0] * m.shape[1] * len(pivots)
    tracer.counts["exactlin.bytes"] += 8 * m.shape[0] * m.shape[1]


def _count_square(tracer, args, kwargs, result):
    a = args[0]
    shape = a.a.shape if hasattr(a, "a") else a.shape
    tracer.counts["exactlin.bytes"] += 8 * shape[0] * shape[1]


def _count_attempts(tracer, args, kwargs, result):
    tracer.counts["dominance.attempts"] += result[1].attempts


def _count_points(tracer, args, kwargs, result):
    L, stats = args[0], kwargs["stats"]
    tracer.counts["polymat.points_used"] += stats.get("points_used", 0)
    tracer.counts["polymat.points_degenerate"] += stats.get("points_degenerate", 0)
    tracer.counts["polymat.points_needed"] += comb(L.size // 2 - 1 + L.nvars - 1, L.nvars - 1)


AFTER = {
    "dominance.is_dominant": _count_attempts,
    "exactlin.rank": _count_rank,
    "exactlin.eliminate": _count_eliminate,
    "exactlin.invert": _count_square,
    "exactlin.pfaffian": _count_square,
    "exactlin.det": _count_square,
    "polymat.submaximal_pfaffians": _count_points,
}


def _traced(tracer: Tracer, name: str, fn):
    after = AFTER.get(name)
    skip_caller = SKIP_CALLERS.get(name)
    wants_stats = name == "polymat.submaximal_pfaffians"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording or (
            skip_caller and sys._getframe(1).f_globals.get("__name__") == skip_caller
        ):
            return fn(*args, **kwargs)
        if wants_stats and kwargs.get("stats") is None:
            kwargs["stats"] = {}
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _owner(path: str):
    module, _, cls = path.partition(".")
    obj = sys.modules[f"detpf.{module}"]
    return getattr(obj, cls) if cls else obj


def _patch_targets():
    for name, sites in ENTRY_POINTS.items():
        for owner_path, attr in sites:
            yield name, _owner(owner_path), attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper; restore the original objects on exit."""
    import detpf.dominance  # noqa: F401  (loads every traced module)
    import detpf.graded  # noqa: F401

    saved = []
    try:
        for name, owner, attr in _patch_targets():
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_traced(tracer, name, raw.__func__)))
            else:
                setattr(owner, attr, _traced(tracer, name, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
