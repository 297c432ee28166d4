"""Run every workload once and print its readable report.

Usage (from the repository root)::

    python3 bench/report.py --seed 1 --seconds 20 [--trace]

Each workload runs in its own process through ``bench/run.py``; the
report lists every end-to-end metric with its unit and sample count,
``fail_ratio`` beside ``ops_attempted``, and with ``--trace`` a second,
traced run per workload with every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.rstrip("\n").splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
            print(f"  correct {result['correct']}  attempted {result['attempted']}"
                  f"  failed {result['failed']}\n")
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
