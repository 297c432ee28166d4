"""Span tracing of the svls package from outside it.

The tracer replaces public functions at the points where one svls module
calls another (for example ``simulate.svls_recover`` or ``cli.matio``'s
``read_matrix``) with wrappers that record a span
``(name, start, end, parent, op_id, thread)`` in memory.  Nothing in
``src/`` changes: the wrappers are installed around one benchmark op and
the original functions are put back afterwards.

Spans nest through a per-thread stack.  A span opened on a worker thread
with an empty stack takes as parent the innermost open span of the thread
that installed the tracer, so the ``run_trial`` spans of a threaded sweep
hang under their ``simulate.sweep`` span.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

from svls import baselines, cli, matio, measurements, recovery, simulate

MB = 1e6

# Iteration cap of IterativeSolverConfig's default, which simulate uses.
DEFAULT_MAX_ITERS = baselines.IterativeSolverConfig().max_iters


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _reported(args, kwargs, result) -> dict:
    return {"runtime_seconds": result.runtime_seconds}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


def _sweep_attrs(args, kwargs, result) -> dict:
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    return {
        "jobs": jobs,
        "trials": len(result),
        "errored": sum(1 for rec in result if rec.error),
    }


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs["argv"]
    return f"cli.{argv[0]}"


# (module, attribute, span name, attribute extractor, track allocations).
# Each row is one place where a module, or the benchmark itself, calls a
# function of another svls module through a module-level name.  Calls made
# by simulate are not allocation-tracked: tracemalloc slows every Python
# allocation, and thousands of small trials would make it dominate.
PATCH_POINTS = [
    (cli, "main", _cli_name, None, False),
    (measurements, "gen_low_rank", "measurements.gen_low_rank", None, False),
    (cli, "gen_low_rank", "measurements.gen_low_rank", None, False),
    (simulate, "gen_low_rank", "measurements.gen_low_rank", None, False),
    (measurements, "gen_design", "measurements.gen_design", None, False),
    (cli, "gen_design", "measurements.gen_design", None, False),
    (simulate, "gen_design", "measurements.gen_design", None, False),
    (measurements, "measure", "measurements.measure", None, True),
    (cli, "measure", "measurements.measure", None, True),
    (simulate, "measure", "measurements.measure", None, False),
    (recovery, "svls_recover", "recovery.svls_recover", _reported, True),
    (cli, "svls_recover", "recovery.svls_recover", _reported, True),
    (simulate, "svls_recover", "recovery.svls_recover", _reported, False),
    (cli, "cur_recover", "recovery.cur_recover", _reported, False),
    (simulate, "cur_recover", "recovery.cur_recover", _reported, False),
    (recovery, "estimate_col_space", "recovery.estimate_col_space", None, False),
    (baselines, "estimate_col_space", "recovery.estimate_col_space", None, False),
    (recovery, "estimate_row_space", "recovery.estimate_row_space", None, False),
    (baselines, "estimate_row_space", "recovery.estimate_row_space", None, False),
    (recovery, "solve_core", "recovery.solve_core", None, False),
    (baselines, "solve_core", "recovery.solve_core", None, False),
    (recovery, "relative_error", "recovery.relative_error", None, False),
    (baselines, "relative_error", "recovery.relative_error", None, False),
    (cli, "als_recover", "baselines.als_recover", _iterations, False),
    (simulate, "als_recover", "baselines.als_recover", _iterations, False),
    (cli, "svp_recover", "baselines.svp_recover", _iterations, False),
    (simulate, "svp_recover", "baselines.svp_recover", _iterations, False),
    (simulate, "gaussian_operator", "baselines.gaussian_operator", None, False),
    (simulate, "sweep", "simulate.sweep", _sweep_attrs, False),
    (simulate, "run_trial", "simulate.run_trial", None, False),
    (simulate, "write_records_csv", "simulate.write_records_csv", None, False),
    (simulate, "read_records_csv", "simulate.read_records_csv", None, False),
    (simulate, "aggregate", "simulate.aggregate", None, False),
    (simulate, "write_summary_csv", "simulate.write_summary_csv", None, False),
    (matio, "write_matrix", "matio.write_matrix", _file_bytes, False),
    (matio, "read_matrix", "matio.read_matrix", _file_bytes, False),
]


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, extract=None, track_alloc=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._root_stack[-1] if self._root_stack else None
            )
            span_id = next(self._ids)
            # tracemalloc is process-wide, so only calls on the installing
            # thread, outside another tracked call, measure allocations.
            tracking = (
                track_alloc
                and stack is self._root_stack
                and not tracemalloc.is_tracing()
            )
            if tracking:
                tracemalloc.start()
            stack.append(span_id)
            ok = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = extract(args, kwargs, result) if ok and extract else {}
                if tracking:
                    attrs["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.spans.append(
                    Span(
                        span_id,
                        name(args, kwargs) if callable(name) else name,
                        start,
                        end,
                        parent,
                        self.op_id,
                        threading.get_ident(),
                        attrs,
                    )
                )

        return traced

    def install(self, op_id: int) -> None:
        self.op_id = op_id
        for module, attr, name, extract, track_alloc in PATCH_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, extract, track_alloc))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    [s.id, s.name, s.start, s.end, s.parent, s.op_id, s.thread, s.attrs]
                ) + "\n")


def _covered(interval: tuple[float, float], children: list[Span]) -> float:
    """Length of the part of ``interval`` that the children's spans cover."""
    lo, hi = interval
    total, reach = 0.0, lo
    for a, b in sorted((max(c.start, lo), min(c.end, hi)) for c in children):
        start = max(a, reach)
        if b > start:
            total += b - start
            reach = b
    return total


# Every per-layer metric with its unit, in the order they are reported.
LAYER_METRICS = {
    "measurements.gen_low_rank.s": "s",
    "measurements.gen_design.s": "s",
    "measurements.measure.s": "s",
    "measurements.measure.alloc_peak_mb": "MB",
    "recovery.svls_recover.s": "s",
    "recovery.svls_recover.self_s": "s",
    "recovery.estimate_col_space.s": "s",
    "recovery.estimate_row_space.s": "s",
    "recovery.solve_core.s": "s",
    "recovery.relative_error.s": "s",
    "recovery.cur_recover.s": "s",
    "recovery.svls_recover.alloc_peak_mb": "MB",
    "recovery.reported_ratio": "ratio",
    "baselines.als_recover.s": "s",
    "baselines.svp_recover.s": "s",
    "baselines.als.iterations": "count",
    "baselines.svp.iterations": "count",
    "baselines.als_recover.s_per_iter": "s",
    "baselines.svp_recover.s_per_iter": "s",
    "baselines.als.converged_ratio": "ratio",
    "baselines.svp.converged_ratio": "ratio",
    "baselines.gaussian_operator.s": "s",
    "simulate.sweep.s": "s",
    "simulate.sweep.self_s": "s",
    "simulate.run_trial.s": "s",
    "simulate.worker_busy_ratio": "ratio",
    "simulate.jobs": "count",
    "simulate.trials": "count",
    "simulate.trials_errored": "count",
    "simulate.write_records_csv.s": "s",
    "simulate.aggregate.s": "s",
    "simulate.read_records_csv.s": "s",
    "simulate.write_summary_csv.s": "s",
    "matio.write_matrix.s": "s",
    "matio.read_matrix.s": "s",
    "matio.write_matrix.MBps": "MB/s",
    "matio.read_matrix.MBps": "MB/s",
    "matio.bytes_written": "count",
    "matio.bytes_read": "count",
    "cli.gen-matrix.s": "s",
    "cli.gen-design.s": "s",
    "cli.measure.s": "s",
    "cli.recover.s": "s",
    "cli.sweep.s": "s",
    "cli.summarize.s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


# Span names whose per-op total time is reported as "<name>.s".
TIMED = tuple(name[:-2] for name in LAYER_METRICS if name.endswith(".s"))


def _op_metrics(op_spans: list[Span]) -> dict[str, float]:
    """Per-op totals of the time, count and allocation metrics."""
    by_id = {s.id: s for s in op_spans}
    children: dict[int, list[Span]] = {}
    for s in op_spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def self_time(s: Span) -> float:
        return s.seconds - _covered((s.start, s.end), children.get(s.id, []))

    out = {f"{name}.s": 0.0 for name in TIMED}
    for s in op_spans:
        if s.name == "recovery.estimate_col_space":
            parent = by_id.get(s.parent)
            # estimate_row_space is estimate_col_space on the transpose;
            # that nested call is counted under estimate_row_space only.
            if parent is not None and parent.name == "recovery.estimate_row_space":
                continue
        if s.name in TIMED:
            out[f"{s.name}.s"] += s.seconds

    def total(name: str, attr: str) -> float:
        return float(sum(s.attrs.get(attr, 0) for s in op_spans if s.name == name))

    def peak(name: str) -> float:
        return max(
            (s.attrs.get("alloc_peak_bytes", 0) for s in op_spans if s.name == name),
            default=0,
        ) / MB

    sweeps = [s for s in op_spans if s.name == "simulate.sweep"]
    jobs = max((s.attrs.get("jobs", 0) for s in sweeps), default=0)
    sweep_wall = sum(s.seconds for s in sweeps)
    out.update({
        "recovery.svls_recover.self_s": float(sum(
            self_time(s) for s in op_spans if s.name == "recovery.svls_recover")),
        "simulate.sweep.self_s": float(sum(self_time(s) for s in sweeps)),
        "cli.self_s": float(sum(
            self_time(s) for s in op_spans if s.name.startswith("cli."))),
        "measurements.measure.alloc_peak_mb": peak("measurements.measure"),
        "recovery.svls_recover.alloc_peak_mb": peak("recovery.svls_recover"),
        "baselines.als.iterations": total("baselines.als_recover", "iterations"),
        "baselines.svp.iterations": total("baselines.svp_recover", "iterations"),
        "simulate.jobs": float(jobs),
        "simulate.trials": total("simulate.sweep", "trials"),
        "simulate.trials_errored": total("simulate.sweep", "errored"),
        "simulate.worker_busy_ratio": (
            out["simulate.run_trial.s"] / (sweep_wall * jobs) if sweep_wall else 0.0
        ),
        "matio.bytes_written": total("matio.write_matrix", "bytes"),
        "matio.bytes_read": total("matio.read_matrix", "bytes"),
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span], traced_ops: list[float], untraced_ops: list[float]
) -> dict[str, float]:
    """Every per-layer metric: per-op totals as a median over traced ops,
    ratios as run totals, and the tracing overhead from op durations
    (each in units of the calibration kernel timed around that op)."""
    by_op: dict[int, list[Span]] = {}
    for s in spans:
        by_op.setdefault(s.op_id, []).append(s)
    per_op = [_op_metrics(op_spans) for op_spans in by_op.values()] or [_op_metrics([])]
    values = {
        key: statistics.median(op[key] for op in per_op) for key in per_op[0]
    }

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    recoveries = named("recovery.svls_recover") + named("recovery.cur_recover")
    values["recovery.reported_ratio"] = _ratio(
        sum(s.attrs.get("runtime_seconds", 0.0) for s in recoveries),
        sum(s.seconds for s in recoveries if "runtime_seconds" in s.attrs),
    )
    for algo in ("als", "svp"):
        calls = [s for s in named(f"baselines.{algo}_recover") if "iterations" in s.attrs]
        iters = sum(s.attrs["iterations"] for s in calls)
        values[f"baselines.{algo}_recover.s_per_iter"] = _ratio(
            sum(s.seconds for s in calls), iters)
        values[f"baselines.{algo}.converged_ratio"] = _ratio(
            sum(1 for s in calls if s.attrs["iterations"] < DEFAULT_MAX_ITERS),
            len(calls))
    for kind in ("write", "read"):
        calls = named(f"matio.{kind}_matrix")
        values[f"matio.{kind}_matrix.MBps"] = _ratio(
            sum(s.attrs.get("bytes", 0) for s in calls) / MB,
            sum(s.seconds for s in calls))
    values["trace.overhead_ratio"] = _ratio(
        statistics.median(traced_ops), statistics.median(untraced_ops))
    return {name: values[name] for name in LAYER_METRICS}
