"""Deterministic experiment harness for phase-transition and noise sweeps.

A sweep is the Cartesian product of the swept parameters times the trial
count.  Every trial's seed is derived from the base seed, the fully
instantiated parameter tuple, and the trial index through a stable hash
(BLAKE2b over a canonical string encoding, truncated to 64 bits), so
trials are independent streams and the sweep output is a pure function
of its configuration regardless of how many worker threads run it.
Failures inside a trial are contained: they become records with an error
tag, never aborting the sweep.

Every trial takes one path, ``_run_point``: once a point in ``sweep``,
on one trial in ``run_trial``.  An ``svls`` or ``cur`` point runs its
trials in stacks, each drawn in one call of each generator of
``measurements`` (every trial from its own seeds), solved in one call of
a stacked solver of ``recovery`` and scored in one call of
``recovery._errors``; an ``als`` or ``svp`` trial is a stack of one,
solved and scored by its baseline.  A trial's truth stays its factors,
and only the ``svp`` baseline's dense operator reads the m x n target,
so a stack is sized by its factors, designs and blocks (``STACK_ENTRIES``).

Record CSVs use a fixed column order (parameters first, then metrics),
17-significant-digit numerics, and ``\\n`` line endings.  Wall-clock
timings are kept on the in-memory records but left out of the canonical
CSV so that repeated runs of one configuration are byte-identical; an
opt-in flag appends the timing column for benchmarking use.

Each field list is declared once, as a dataclass: ``TrialRecord`` and
``SummaryRow`` extend ``TrialPoint``.  The CSV columns, the record
equality key, the sort and group keys, the seed key and the CSV reader
all derive from ``dataclasses.fields``.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .baselines import als_recover, gaussian_operator, svp_recover
from .matio import format_float, undecodable
from .measurements import (
    DesignKind, _generator, _is_finite_nonnegative, _is_int, gen_design, gen_low_rank, measure,
)
# cur_recover and svls_recover go uncalled: the benchmark's tracer patches them (ROADMAP item 11)
from .recovery import (
    _check_cur, _check_svls, _errors, cur_recover, cur_stack, svls_recover, svls_stack,
)

ALGORITHMS = ("svls", "cur", "svp", "als")
# The algorithms whose trials run in stacks: the stacked solver, and the
# checks it makes before it solves, which depend on the point alone.
_STACKED = {"svls": (_check_svls, svls_stack), "cur": (_check_cur, cur_stack)}
# A stack of trials holds, per trial, the truth's factors ((m + n) r), a
# Gaussian design (k1 m + n k2) and the blocks (k1 n + m k2): at most
# (m + n)(r + k1 + k2) float64 entries.  A stack takes as many trials as
# fit in STACK_ENTRIES of them, 8 MB (and at least one trial); the
# solver's temporaries are of the same order.  At 50 x 50, r = 3,
# k = 8, that is 551 trials; at 10^5 x 10^5, r = 10, k = 20, one.
STACK_ENTRIES = 1 << 20


@dataclass(frozen=True, slots=True)
class TrialPoint:
    """One fully instantiated parameter combination.

    ``TrialRecord`` and ``SummaryRow`` extend it and hold ``design`` as
    the kind's value (``"gaussian"``), as their CSV cells do.  All three
    are slotted: a sweep holds one record per trial.
    """

    m: int
    n: int
    rank: int
    design: DesignKind
    k1: int
    k2: int
    sigma: float
    algorithm: str


@dataclass(frozen=True, eq=False, slots=True)
class TrialRecord(TrialPoint):
    """Outcome of a single trial.

    Two records are equal when their canonical CSV rows are, so
    ``runtime_seconds`` is excluded (two runs of the same trial are the
    same experiment even though the clock differs) and nan equals nan.
    A failed trial carries the error tag, ``relative_error = nan``, and
    ``success = False``.  ``runtime_seconds`` is the solver's
    ``RecoveryResult.runtime_seconds``: for a trial solved in a stack,
    the stack's solve time divided by the number of trials in it.
    """

    trial_index: int
    seed: int
    relative_error: float
    success: bool
    iterations: int
    error: str = ""
    runtime_seconds: float = field(default=math.nan, compare=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialRecord):
            return NotImplemented
        return _record_key(self) == _record_key(other)

    def __hash__(self) -> int:
        return hash(_record_key(self))


@dataclass(frozen=True, slots=True)
class SummaryRow(TrialPoint):
    """Aggregate over all trials sharing one parameter tuple.

    Error statistics pool the non-failed trials; the success rate counts
    failed trials in its denominator.
    """

    trials: int
    mean_relative_error: float
    median_relative_error: float
    success_rate: float
    mean_runtime_seconds: float = field(compare=False)


_POINT_FIELDS = tuple(f.name for f in fields(TrialPoint))
RECORD_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.compare)
_TIMED_RECORD_COLUMNS = tuple(f.name for f in fields(TrialRecord))
SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))

# How a value becomes a CSV cell or a seed-key part, and how a records CSV
# cell becomes a value, chosen by the field's annotation.  Strings (design
# kinds included, which join as their value) pass through unchanged, and
# the csv module writes ints itself.
_CSV_CELL = {"float": format_float, "bool": int}
_KEY_PART = {"int": str, "float": format_float}
_FROM_CELL = {"int": int, "float": float, "bool": lambda cell: bool(int(cell))}


def _converters(cls: type, columns: Sequence[str], table: dict) -> tuple:
    """A getter of ``columns`` and the ``(index, function)`` pairs that
    ``table`` gives for the columns it converts."""
    types = {f.name: f.type for f in fields(cls)}
    convert = [
        (i, table[types[name]]) for i, name in enumerate(columns) if types[name] in table
    ]
    return attrgetter(*columns), convert


def _row(obj: object, converters: tuple) -> list:
    get, convert = converters
    row = list(get(obj))
    for i, fn in convert:
        row[i] = fn(row[i])
    return row


_RECORD_CELLS = _converters(TrialRecord, RECORD_COLUMNS, _CSV_CELL)
_TIMED_RECORD_CELLS = _converters(TrialRecord, _TIMED_RECORD_COLUMNS, _CSV_CELL)
_SUMMARY_CELLS = _converters(SummaryRow, SUMMARY_COLUMNS, _CSV_CELL)
_POINT_KEY_PARTS = _converters(TrialPoint, _POINT_FIELDS, _KEY_PART)
_READ = {f.name: _FROM_CELL.get(f.type, str) for f in fields(TrialRecord)}
_point_values = attrgetter(*_POINT_FIELDS)
_record_order = attrgetter(*_POINT_FIELDS, "trial_index")


def _record_key(rec: TrialRecord) -> tuple:
    return tuple(_row(rec, _RECORD_CELLS))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep specification.

    Integer fields must be ints (not bools), every tuple field nonempty,
    ``sigmas`` finite and nonnegative, and ``success_threshold`` finite
    and positive; anything else raises ``ValueError``.
    """

    m: int
    n: int
    ranks: tuple[int, ...]
    design_kinds: tuple[DesignKind, ...]
    k_values: tuple[tuple[int, int], ...]
    sigmas: tuple[float, ...]
    algorithms: tuple[str, ...]
    trials: int
    base_seed: int
    success_threshold: float = 1e-4

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_int(value):
                raise ValueError(f"{f.name} must be an integer")
            nonempty = isinstance(value, (tuple, list)) and len(value) > 0
            if f.type.startswith("tuple") and not nonempty:
                raise ValueError(f"{f.name} must be a nonempty sequence")
        if min(self.m, self.n) < 1:
            raise ValueError("m and n must be positive")
        if not all(map(_is_int, self.ranks)):
            raise ValueError("ranks must be integers")
        if not all(isinstance(kind, DesignKind) for kind in self.design_kinds):
            raise ValueError("design_kinds must be DesignKind members")
        if not all(
            isinstance(ks, (tuple, list)) and len(ks) == 2 and all(map(_is_int, ks))
            for ks in self.k_values
        ):
            raise ValueError("k_values must be [k1, k2] integer pairs")
        if not all(map(_is_finite_nonnegative, self.sigmas)):
            raise ValueError("sigmas must be finite and nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        threshold = self.success_threshold
        if not (_is_finite_nonnegative(threshold) and threshold > 0):
            raise ValueError("success_threshold must be finite and positive")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")

    @classmethod
    def from_json_dict(cls, payload: object) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ValueError("sweep config must be a JSON object")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        config = dict(payload)
        for f in fields(cls):
            if f.default is MISSING and f.name not in payload:
                raise ValueError(f"config missing field {f.name!r}")
            if f.type.startswith("tuple"):
                if not isinstance(payload[f.name], list):
                    raise ValueError(f"{f.name} must be a list")
                config[f.name] = tuple(
                    tuple(v) if isinstance(v, list) else v for v in payload[f.name]
                )
        config["design_kinds"] = tuple(map(DesignKind, config["design_kinds"]))
        return cls(**config)


def _seed_prefix(base_seed: int, point: TrialPoint) -> str:
    return f"{base_seed}|{'|'.join(_row(point, _POINT_KEY_PARTS))}|"


def _hash64(text: str) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def trial_seed(base_seed: int, point: TrialPoint, trial_index: int) -> int:
    """Stable 64-bit per-trial seed from the sweep coordinates."""
    return _hash64(f"{_seed_prefix(base_seed, point)}{trial_index}")


def _subseed(seed: int | tuple[int, ...], label: str) -> int | tuple[int, ...]:
    """A trial's ``label`` seed, or those of a tuple of trials."""
    if isinstance(seed, tuple):
        return tuple(_hash64(f"{s}|{label}") for s in seed)
    return _hash64(f"{seed}|{label}")


def _point_fields(point: TrialPoint) -> dict:
    """The point's fields as a record holds them: ``design`` as a string."""
    design = point.design.value if isinstance(point.design, DesignKind) else str(point.design)
    return dict(zip(_POINT_FIELDS, _point_values(point)), design=design)


def _record(
    fields: dict,
    seed: int,
    trial_index: int,
    success_threshold: float,
    rel: float = math.nan,
    iterations: int = 0,
    runtime: float = math.nan,
    exc: Exception | None = None,
) -> TrialRecord:
    """A trial's record from its point's fields; a failed one carries the error tag of ``exc``."""
    return TrialRecord(
        **fields,
        trial_index=trial_index,
        seed=seed,
        relative_error=rel,
        success=bool(rel < success_threshold),
        iterations=iterations,
        error="" if exc is None else f"{type(exc).__name__}: {exc}",
        runtime_seconds=runtime,
    )


def _draw(point: TrialPoint, seed: int | tuple[int, ...]) -> tuple:
    """A trial's truth (its factors), design and measurement set; for a
    tuple of trial seeds, a stack's, drawn in one call of each generator."""
    truth = gen_low_rank(point.m, point.n, point.rank, _subseed(seed, "truth"))
    design = gen_design(
        point.design, point.m, point.n, point.k1, point.k2, _subseed(seed, "design")
    )
    return truth, design, measure(truth, design, point.sigma, _subseed(seed, "noise"))


def _als(point: TrialPoint, seed: int):
    truth, design, meas = _draw(point, seed)
    return als_recover(meas, design, point.rank, truth=truth)


def _svp(point: TrialPoint, seed: int):
    truth = gen_low_rank(point.m, point.n, point.rank, _subseed(seed, "truth"))
    k = point.k1 * point.n + point.k2 * point.m
    op = gaussian_operator(point.m, point.n, k, _subseed(seed, "design"))
    b = op @ truth.x.ravel()
    if point.sigma > 0:
        noise = _generator(_subseed(seed, "noise")).standard_normal(b.shape)
        b = b + point.sigma * noise
    return svp_recover(b, op, point.m, point.n, point.rank, truth=truth)


# The algorithms with no stacked form, whose trials are stacks of one.
_SINGLE = {"als": _als, "svp": _svp}


def run_trial(
    point: TrialPoint,
    seed: int,
    trial_index: int = 0,
    success_threshold: float = 1e-4,
) -> TrialRecord:
    """Generate, measure, and recover one instance; pure in (point, seed).

    It is the sweep's point path on one trial, so its record is the one a
    sweep gives.  The ``svp`` record is the standard-design baseline: SVP
    on a fresh dense Gaussian operator with ``k1*n + k2*m`` measurements
    (budget parity with the row/column design), whatever ``point.design``
    says.  Any exception, from an unknown ``point.design`` string or
    algorithm too, is captured in the record's error tag.
    """
    return _run_point(point, [(trial_index, seed)], success_threshold)[0]


def _run_point(
    point: TrialPoint, trials: list[tuple[int, int]], success_threshold: float
) -> list[TrialRecord]:
    """The records of a point's ``(trial_index, seed)`` trials.

    For ``svls`` and ``cur``, a stack of no trials is drawn first, for the
    generators' checks, and then the solver's are made.  Each depends on
    the point alone, so a point failing one (or naming no algorithm) gives
    every trial that error (the message it gets alone) and draws no
    trial.  The trials then run in stacks of at most ``STACK_ENTRIES``
    entries of factors, designs and blocks (at least one trial; one for
    ``_SINGLE``): one step draws a stack (:func:`_draw`), solves it and
    scores it against its truths' factors (``_errors``).  A stack whose
    step raises is split into stacks of one that take the same step, so
    only a failing trial gets an error record.
    """
    algo, fields = point.algorithm, _point_fields(point)
    try:
        if algo in _STACKED:
            check, solve = _STACKED[algo]
            check(*_draw(point, ())[1:], point.rank)
        elif algo not in _SINGLE:
            raise ValueError(f"unknown algorithm {algo!r}")
    except Exception as exc:
        return [_record(fields, seed, t, success_threshold, exc=exc) for t, seed in trials]

    def solved(chunk: list[tuple[int, int]]) -> list[TrialRecord]:
        # what the stack holds is let go on return: one stack at a time
        seeds = tuple(seed for _, seed in chunk)
        if algo in _SINGLE:
            sol = _SINGLE[algo](point, *seeds)
            rels = [sol.relative_error]
        else:
            truth, design, meas = _draw(point, seeds)
            sol = solve(meas, design, point.rank)
            del design, meas  # and its design and blocks before it is scored
            rels = _errors(sol.left, sol.right, truth)
        iterations = sol.iterations or 0
        return [
            _record(fields, seed, t, success_threshold, rel, iterations, sol.runtime_seconds)
            for (t, seed), rel in zip(chunk, rels)
        ]

    def contained(chunk: list[tuple[int, int]]) -> list[TrialRecord]:
        try:
            return solved(chunk)
        except Exception as exc:
            if len(chunk) == 1:
                ((t, seed),) = chunk
                return [_record(fields, seed, t, success_threshold, exc=exc)]
        return [rec for trial in chunk for rec in contained([trial])]

    per_trial = (point.m + point.n) * (point.rank + point.k1 + point.k2)
    size = 1 if algo in _SINGLE else max(1, STACK_ENTRIES // per_trial)
    return [rec for i in range(0, len(trials), size) for rec in contained(trials[i : i + size])]


def sweep(config: ExperimentConfig, jobs: int = 1) -> list[TrialRecord]:
    """Run every (parameter tuple, trial) combination.

    Records come back in canonical order (sorted by parameter tuple,
    then trial index) whatever the parallelism level.  Each point is one
    task, whatever its algorithm (see ``_run_point``).  ``jobs``, the
    number of worker threads, must be an integer of at least 1, not a
    bool (``ValueError``).
    """
    if not (_is_int(jobs) and jobs >= 1):
        raise ValueError(f"jobs must be an integer of at least 1, got {jobs!r}")
    points = [
        TrialPoint(config.m, config.n, rank, kind, k1, k2, sigma, algo)
        for rank, kind, (k1, k2), sigma, algo in itertools.product(
            config.ranks, config.design_kinds, config.k_values, config.sigmas, config.algorithms
        )
    ]

    def run(point: TrialPoint) -> list[TrialRecord]:
        prefix = _seed_prefix(config.base_seed, point)  # trial_seed, once per point
        trials = [(t, _hash64(f"{prefix}{t}")) for t in range(config.trials)]
        return _run_point(point, trials, config.success_threshold)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = [rec for recs in pool.map(run, points) for rec in recs]
    else:
        records = [rec for point in points for rec in run(point)]
    records.sort(key=_record_order)
    return records


def aggregate(records: Iterable[TrialRecord]) -> list[SummaryRow]:
    """Group records by parameter tuple, in canonical order."""
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault(_point_values(rec), []).append(rec)
    rows = []
    for key in sorted(groups):
        recs = groups[key]
        errs = [r.relative_error for r in recs if not math.isnan(r.relative_error)]
        times = [r.runtime_seconds for r in recs if not math.isnan(r.runtime_seconds)]
        rows.append(
            SummaryRow(
                *key,
                trials=len(recs),
                mean_relative_error=statistics.fmean(errs) if errs else math.nan,
                median_relative_error=statistics.median(errs) if errs else math.nan,
                success_rate=sum(r.success for r in recs) / len(recs),
                mean_runtime_seconds=statistics.fmean(times) if times else math.nan,
            )
        )
    return rows


def _write_csv(
    path: str | Path, columns: Sequence[str], converters: tuple, objs: Iterable
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(_row(obj, converters) for obj in objs)


def write_records_csv(
    path: str | Path, records: Sequence[TrialRecord], include_runtime: bool = False
) -> None:
    if include_runtime:
        _write_csv(path, _TIMED_RECORD_COLUMNS, _TIMED_RECORD_CELLS, records)
    else:
        _write_csv(path, RECORD_COLUMNS, _RECORD_CELLS, records)


def read_records_csv(path: str | Path) -> list[TrialRecord]:
    """Read a records CSV by column name; ``runtime_seconds`` is optional."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = set(RECORD_COLUMNS) - set(header)
            if missing:
                raise ValueError(f"{path}: records CSV missing columns {sorted(missing)}")
            cells = [
                (header.index(name), _READ[name])
                for name in _TIMED_RECORD_COLUMNS
                if name in header
            ]
            records = []
            for row in reader:
                if row and len(row) != len(header):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: expected {len(header)} fields"
                    )
                if row:  # blank lines are skipped
                    records.append(TrialRecord(*[fn(row[i]) for i, fn in cells]))
    except UnicodeDecodeError as exc:
        raise undecodable(path, exc) from None
    return records


def write_summary_csv(path: str | Path, rows: Sequence[SummaryRow]) -> None:
    _write_csv(path, SUMMARY_COLUMNS, _SUMMARY_CELLS, rows)
