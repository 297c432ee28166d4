"""The benchmark's four workloads.

Each workload is a closed loop driven by one caller: ``op(i)`` runs the
i-th operation to completion and returns its timings and output,
``check(outcome)`` then verifies that output outside the timed region.
All inputs come from the workload seed, through :func:`derive_seed`.

Why these four (see README.md for the layer map):

- ``large_svls``: the paper's headline path at a size where the dense
  m x n work dominates; bypasses matio, simulate and baselines.
- ``sweep``: thousands of tiny trials through ``svls sweep``, so the
  harness (seeding, executor, sorting, aggregation, CSV) and per-call
  Python overhead dominate while the dense kernels stay negligible.
- ``baselines``: the only workload where the ALS and SVP solvers do the
  work; kept apart from ``sweep`` so they do not drown its signal.
- ``cli_pipeline``: the on-disk pipeline, dominated by 17-digit CSV I/O
  in matio; bypasses simulate and baselines.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from svls import cli, measurements, recovery

# large_svls fails an op whose relative error exceeds this at sigma=0.01
# (measured values are about 1e-4).
LARGE_REL_ERROR_BOUND = 1e-3
# cli_pipeline recovers exactly (cur at k1 = k2 = r, noiseless).
PIPELINE_REL_ERROR_BOUND = 1e-10
RESULT_KEYS = {
    "algorithm",
    "rank_used",
    "row_residual",
    "col_residual",
    "runtime_seconds",
    "relative_error",
    "x_hat",
}


def derive_seed(seed: int, *labels) -> int:
    """A 31-bit seed, stable across platforms, for one labelled input."""
    text = "|".join(str(part) for part in (seed, *labels))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class Outcome:
    """Timings and output of one op.  ``trials`` recovery trials ran in
    ``trial_s`` seconds; ``recover_s`` is the recovery call alone."""

    op_s: float
    recover_s: float
    trial_s: float
    trials: int
    successes: int
    rel_error: float | None = None
    payload: object = None
    error: str | None = None
    traced: bool = False
    cal_s: float = 0.0  # calibration kernel seconds around this op


def read_csv_matrix(path: Path) -> np.ndarray:
    """Parse a matrix CSV without svls.matio, as an independent check."""
    text = path.read_text()
    rows = text.count("\n")
    return np.array(text.replace(",", " ").split(), dtype=np.float64).reshape(rows, -1)


class LargeSvls:
    """gen_low_rank -> gen_design -> measure -> svls_recover(truth=...)."""

    name = "large_svls"
    calibration = "dense"
    FULL = dict(m=4000, n=4000, r=10, k=20, sigma=0.01)
    TOY = dict(m=300, n=300, r=5, k=10, sigma=0.001)

    def __init__(self, seed: int, work: Path, toy: bool) -> None:
        self.seed = seed
        self.p = self.TOY if toy else self.FULL

    def reference(self) -> None:
        pass

    def op(self, i) -> Outcome:
        p, s = self.p, derive_seed(self.seed, "op", i)
        t0 = time.perf_counter()
        truth = measurements.gen_low_rank(p["m"], p["n"], p["r"], derive_seed(s, "truth"))
        design = measurements.gen_design(
            measurements.DesignKind.GAUSSIAN_AFFINE,
            p["m"], p["n"], p["k"], p["k"], derive_seed(s, "design"),
        )
        meas = measurements.measure(truth.x, design, p["sigma"], derive_seed(s, "noise"))
        t1 = time.perf_counter()
        result = recovery.svls_recover(meas, design, p["r"], truth=truth.x)
        t2 = time.perf_counter()
        return Outcome(t2 - t0, t2 - t1, t2 - t0, 1, 0, result.relative_error)

    def check(self, out: Outcome) -> str | None:
        if out.rel_error is None or not out.rel_error <= LARGE_REL_ERROR_BOUND:
            return f"relative error {out.rel_error} above {LARGE_REL_ERROR_BOUND}"
        out.successes = 1
        return None


class _SweepWorkload:
    """One ``svls sweep --jobs 1`` plus ``svls summarize`` per op.

    Ops cycle through ``draws`` configurations that differ only in their
    base seed.  Every op of one configuration must produce, byte for
    byte, the records CSV of a reference made for it before the timed
    ops with the default ``--jobs`` (``os.cpu_count()``).  The references'
    wall time is reported but not gated: on two cores, Python threads and
    OpenBLAS threads oversubscribe the CPUs and that time swings by
    20-30 % from run to run, more than any bound could absorb."""

    FULL: dict
    TOY: dict
    draws = 1

    def __init__(self, seed: int, work: Path, toy: bool) -> None:
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.config = dict(self.TOY if toy else self.FULL)
        self.config_paths = []
        for d in range(self.draws):
            path = work / f"config-{d}.json"
            path.write_text(json.dumps(
                dict(self.config, base_seed=derive_seed(seed, self.name, d))))
            self.config_paths.append(path)
        self.records_path = work / "records.csv"
        self.summary_path = work / "summary.csv"
        self.expected_bytes: list[bytes] = []
        self.successes: list[int] = []
        config = self.config
        self.points = (
            len(config["ranks"]) * len(config["design_kinds"]) * len(config["k_values"])
            * len(config["sigmas"]) * len(config["algorithms"])
        )

    def reference(self) -> None:
        self.reference_s = 0.0
        for d, config_path in enumerate(self.config_paths):
            path = self.work / f"reference-{d}.csv"
            t0 = time.perf_counter()
            rc = cli.main(["sweep", "--config", str(config_path), "--out", str(path)])
            self.reference_s += time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"reference sweep {d} exited {rc}")
            data = path.read_bytes()
            rows = list(csv.DictReader(data.decode().splitlines()))
            expected = self.points * self.config["trials"]
            if len(rows) != expected:
                raise RuntimeError(
                    f"reference {d} has {len(rows)} records, expected {expected}")
            bad = [row for row in rows if self.must_succeed(row) and row["success"] != "1"]
            if bad:
                raise RuntimeError(f"{len(bad)} reference {d} records failed, first: {bad[0]}")
            self.expected_bytes.append(data)
            self.successes.append(sum(row["success"] == "1" for row in rows))

    def op(self, i) -> Outcome:
        d = i % self.draws if isinstance(i, int) else 0
        self.records_path.unlink(missing_ok=True)
        self.summary_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc_sweep = cli.main(["sweep", "--config", str(self.config_paths[d]),
                             "--out", str(self.records_path), "--jobs", "1"])
        t1 = time.perf_counter()
        rc_sum = cli.main(["summarize", "--in", str(self.records_path),
                           "--out", str(self.summary_path)])
        t2 = time.perf_counter()
        trials = self.points * self.config["trials"]
        return Outcome(t2 - t0, t1 - t0, t1 - t0, trials, 0, payload=(rc_sweep, rc_sum, d))

    def check(self, out: Outcome) -> str | None:
        rc_sweep, rc_sum, d = out.payload
        if (rc_sweep, rc_sum) != (0, 0):
            return f"exit codes (sweep, summarize) = {(rc_sweep, rc_sum)}"
        if self.records_path.read_bytes() != self.expected_bytes[d]:
            return f"records CSV differs from the default --jobs reference {d}"
        rows = self.summary_path.read_text().count("\n") - 1
        if rows != self.points:
            return f"summary has {rows} rows, expected {self.points}"
        out.successes = self.successes[d]
        return None


class Sweep(_SweepWorkload):
    name = "sweep"
    calibration = "interp"
    FULL = dict(
        m=50, n=50, ranks=[3], design_kinds=["gaussian", "rowcol"],
        k_values=[[k, k] for k in range(1, 9)], sigmas=[0.0, 1e-3],
        algorithms=["svls", "cur"], trials=50,
    )
    TOY = dict(FULL, m=20, n=20, k_values=[[k, k] for k in range(1, 5)], trials=2)

    @staticmethod
    def must_succeed(row: dict) -> bool:
        # Noiseless svls with k >= r recovers exactly on either design.
        return (row["algorithm"] == "svls" and float(row["sigma"]) == 0.0
                and int(row["k1"]) >= int(row["rank"]))


class Baselines(_SweepWorkload):
    name = "baselines"
    calibration = "solver"
    # At k=4 SVP runs into its 500-iteration cap; at k=8 it converges.
    # Noisy ALS at k=4 takes 15-200 sweeps depending on the draw, and a
    # run's seed fixes the draws.  Short ops over four draws let the
    # median op set aside one heavy draw, where four trials in every op
    # would carry it into every op.
    draws = 4
    FULL = dict(
        m=30, n=30, ranks=[2], design_kinds=["gaussian"],
        k_values=[[4, 4], [8, 8]], sigmas=[0.0, 1e-3],
        algorithms=["als", "svp"], trials=1,
    )
    TOY = dict(FULL, m=12, n=12, k_values=[[8, 8]], trials=1)

    @staticmethod
    def must_succeed(row: dict) -> bool:
        # Noiseless ALS (started from svls) and SVP at k=8 stay far below
        # the 1e-4 success threshold; the other points straddle it.
        if row["error"]:
            return True
        if row["algorithm"] == "als":
            return float(row["sigma"]) == 0.0
        return int(row["k1"]) == 8


class CliPipeline:
    """gen-matrix -> gen-design --kind rowcol -> measure -> recover --algo
    cur --truth, in-process through ``cli.main``."""

    name = "cli_pipeline"
    calibration = "text"
    FULL = dict(m=500, n=500, r=5)
    TOY = dict(m=40, n=40, r=3)

    def __init__(self, seed: int, work: Path, toy: bool) -> None:
        self.seed = seed
        self.p = self.TOY if toy else self.FULL
        self.dir = work / "pipeline"

    def reference(self) -> None:
        pass

    def op(self, i) -> Outcome:
        p, s, d = self.p, derive_seed(self.seed, "op", i), self.dir
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        dims = ["--m", str(p["m"]), "--n", str(p["n"])]
        k = ["--k1", str(p["r"]), "--k2", str(p["r"])]
        steps = [
            ["gen-matrix", *dims, "--rank", str(p["r"]),
             "--seed", str(derive_seed(s, "truth")), "--out", str(d / "x.csv")],
            ["gen-design", "--kind", "rowcol", *dims, *k,
             "--seed", str(derive_seed(s, "design")), "--out", str(d / "design")],
            ["measure", "--x", str(d / "x.csv"), "--design", str(d / "design"),
             "--sigma", "0", "--noise-seed", str(derive_seed(s, "noise")),
             "--out", str(d / "meas")],
            ["recover", "--meas", str(d / "meas"), "--algo", "cur",
             "--rank", str(p["r"]), "--truth", str(d / "x.csv"), "--out", str(d / "rec")],
        ]
        codes = []
        t0 = time.perf_counter()
        for argv in steps[:3]:
            codes.append(cli.main(argv))
        t1 = time.perf_counter()
        codes.append(cli.main(steps[3]))
        t2 = time.perf_counter()
        return Outcome(t2 - t0, t2 - t1, t2 - t0, 1, 0, payload=codes)

    def check(self, out: Outcome) -> str | None:
        if out.payload != [0, 0, 0, 0]:
            return f"exit codes {out.payload}"
        rec = self.dir / "rec"
        result = json.loads((rec / "result.json").read_text())
        missing = RESULT_KEYS - set(result)
        if missing:
            return f"result.json lacks {sorted(missing)}"
        truth = read_csv_matrix(self.dir / "x.csv")
        x_hat = read_csv_matrix(rec / "x_hat.csv")
        if x_hat.shape != truth.shape:
            return f"x_hat shape {x_hat.shape} != truth shape {truth.shape}"
        rel = float(np.linalg.norm(x_hat - truth) / np.linalg.norm(truth))
        out.rel_error = rel
        if not rel <= PIPELINE_REL_ERROR_BOUND:
            return f"x_hat relative error {rel} above {PIPELINE_REL_ERROR_BOUND}"
        out.successes = 1
        return None


WORKLOADS = {w.name: w for w in (LargeSvls, Sweep, Baselines, CliPipeline)}
