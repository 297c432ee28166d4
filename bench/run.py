"""Benchmark of the svls package: one workload per process, closed loop.

Usage (from the repository root)::

    python3 bench/run.py --workload large_svls --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout this script sits
in.  With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics, with op times in units of the calibration kernel
timed around each op (see ``calibrate.py``); with ``--trace 1`` ops
alternate between untraced and traced, the spans go to
``.bench_work/traces/`` and the last line holds the per-layer metrics.  The lines before it are a readable report: the
environment record, then every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
MIN_OPS = 2

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import svls; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_rel_p50": "ratio",
    "recover_rel_p50": "ratio",
    "peak_rss_mb": "MB",
}
# Printed in the report beside the gated metrics, not in the result line.
RAW_UNITS = {
    "op_s_p50": "s",
    "recover_s_p50": "s",
    "trials_per_s": "1/s",
    "calibration_s_p50": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy input sizes, for the self-test")
    return p.parse_args(argv)


def import_seconds() -> float:
    """Time of ``import svls`` (numpy included) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip())


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def percentile_with_tail(values: list[float], q: int) -> float | None:
    """The q-th percentile, only when at least ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def run(args) -> int:
    import spans
    import workloads
    from calibrate import Calibration

    factory = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        # Built before anything else, so that where its buffers land in
        # the heap, and with it the peak RSS, is the same in every run.
        calibration = Calibration(factory.calibration, work)
        setup = []
        for _ in range(SETUP_REPS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            wl = factory(args.seed, work, args.toy)
            warm = wl.op("warmup")
            setup.append(t_import + time.perf_counter() - t0)
        wl.reference()
        problem = wl.check(warm)
        if problem:
            raise RuntimeError(f"warm-up op failed its check: {problem}")

        tracer = spans.Tracer()
        calibration()  # warm-up
        cal_before = calibration()
        outcomes = []
        start = time.perf_counter()
        i = 0
        while i < MIN_OPS or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and i % 2 == 1
            t0 = time.perf_counter()
            if traced:
                tracer.install(i)
            try:
                out = wl.op(i)
            except (Exception, SystemExit) as exc:
                out = workloads.Outcome(time.perf_counter() - t0, 0.0, 0.0, 0, 0,
                                        error=f"{type(exc).__name__}: {exc}")
            finally:
                tracer.uninstall()
            if out.error is None:
                try:
                    out.error = wl.check(out)
                except Exception as exc:  # a broken output is a failed op
                    out.error = f"check raised {type(exc).__name__}: {exc}"
            cal_after = calibration()
            out.cal_s = (cal_before + cal_after) / 2
            cal_before = cal_after
            out.traced = traced
            outcomes.append(out)
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for o in outcomes if o.error)
    for o in outcomes:
        if o.error:
            print(f"failed op: {o.error}")
    plain = [o for o in outcomes if not o.traced]
    ok = [o for o in plain if not o.error] or plain
    op_s = [o.op_s for o in ok]
    e2e = {
        "setup_s": statistics.median(setup),
        "op_rel_p50": statistics.median(o.op_s / o.cal_s for o in ok),
        "recover_rel_p50": statistics.median(o.recover_s / o.cal_s for o in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    raw = {
        "op_s_p50": statistics.median(op_s),
        "recover_s_p50": statistics.median(o.recover_s for o in ok),
        "trials_per_s": statistics.median(
            o.trials / o.trial_s if o.trial_s else 0.0 for o in ok),
        "calibration_s_p50": statistics.median(o.cal_s for o in ok),
    }
    samples = {"setup_s": len(setup), "peak_rss_mb": 1}
    print(f"workload {args.workload}  seed {args.seed}  ops {len(outcomes)}"
          f"  traced {len(outcomes) - len(plain)}")
    print(f"  {'metric':<38} {'value':>14}  {'unit':<6} samples")
    for name, value in e2e.items():
        print(f"  {name:<38} {value:>14.6g}  {END_TO_END_UNITS[name]:<6} "
              f"{samples.get(name, len(ok))}")
    for name, value in raw.items():
        print(f"  {name:<38} {value:>14.6g}  {RAW_UNITS[name]:<6} {len(ok)}")
    p90 = percentile_with_tail(op_s, 90)
    print(f"  {'op_s_p90':<38} {'dropped' if p90 is None else f'{p90:14.6g}':>14}"
          f"  {'s':<6} {len(op_s)}")
    trials = sum(o.trials for o in ok)
    print(f"  {'success_rate':<38} "
          f"{sum(o.successes for o in ok) / trials if trials else 0.0:>14.6g}"
          f"  {'ratio':<6} {trials}")
    rel = [o.rel_error for o in ok if o.rel_error is not None]
    if rel:
        print(f"  {'rel_error_p50':<38} {statistics.median(rel):>14.6g}"
              f"  {'ratio':<6} {len(rel)}")
    print(f"  {'op_s (each op)':<38} " + " ".join(f"{t:.4g}" for t in op_s))
    if hasattr(wl, "reference_s"):
        print(f"  {'default_jobs_sweep_s':<38} {wl.reference_s:>14.6g}  {'s':<6} 1")
    print(f"  {'fail_ratio':<38} {failed / len(outcomes):>14.6g}  {'ratio':<6} "
          f"ops_attempted {len(outcomes)}")

    if args.trace:
        traced_s = [o.op_s for o in outcomes if o.traced]
        layer = spans.layer_metrics(
            tracer.spans,
            [o.op_s / o.cal_s for o in outcomes if o.traced],
            [o.op_s / o.cal_s for o in ok],
        )
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl.gz"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        for name, value in layer.items():
            print(f"  {name:<38} {value:>14.6g}  {spans.LAYER_METRICS[name]:<6} "
                  f"{len(traced_s)}")
        metrics = {k: {"value": v, "unit": spans.LAYER_METRICS[k]}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "svls" / "__init__.py").is_file():
        print(f"error: no svls package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: on a two-core share an OpenBLAS worker spinning
    # beside the Python thread doubled the op-to-op swing of the sweeps.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import svls

    if Path(svls.__file__).resolve().parent != (SRC / "svls").resolve():
        print(f"error: imported svls from {svls.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
