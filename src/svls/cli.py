"""Command-line front end over the file formats in :mod:`svls.matio`.

Subcommands chain into reproducible pipelines::

    svls gen-matrix --m 50 --n 50 --rank 3 --seed 7 --out x.csv
    svls gen-design --kind gaussian --m 50 --n 50 --k1 3 --k2 3 --seed 1 --out design/
    svls measure --x x.csv --design design/ --sigma 0 --noise-seed 2 --out meas/
    svls recover --meas meas/ --algo svls --rank 3 --truth x.csv --out rec/
    svls sweep --config sweep.json --out records.csv [--jobs N]
    svls summarize --in records.csv --out summary.csv

``sweep`` runs its trials on one thread unless ``--jobs`` asks for more;
small trials spend most of their time in Python, which threads do not
overlap, so extra threads slow them down.  ``recover --algo svp`` runs
SVP on the stored design itself, through its ``rows``, ``cols`` and
``adjoint``, so no target size is refused; its iterate is dense m x n.

``gen-matrix`` writes a sidecar ``x.json`` beside ``x.csv`` with the
matrix's recipe and digests; ``measure --x`` and ``recover --truth``
rebuild the matrix from it while the digests still certify the CSV, and
parse the CSV otherwise (:func:`svls.matio.read_truth`).

An absent seed is a constant of its command: ``gen-matrix --seed`` 0,
``gen-design --seed`` 1, ``measure --noise-seed`` 2.  Equal seeds draw equal
numbers in all three, so the defaults differ; only the arguments set a seed.

Exit codes: 0 on success, 2 on usage errors, 1 on runtime errors, an
allocation too large for memory among them (which print a single
``error: ...`` line to standard error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import matio, simulate
from .baselines import als_recover, svp_recover
from .measurements import DesignKind, _is_finite_nonnegative, gen_design, gen_low_rank, measure
from .recovery import cur_recover, estimate_rank, svls_recover


def _int_at_least(low: int, expected: str):
    """The argparse type of an integer of at least ``low``, which ``expected`` describes."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_seed_int = _int_at_least(0, "a nonnegative seed")


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not _is_finite_nonnegative(value):
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative number, got {text}")
    return value


def _rank_arg(text: str) -> int | str:
    return text if text == "auto" else _positive_int(text)


def _cmd_gen_matrix(args: argparse.Namespace) -> int:
    truth = gen_low_rank(args.m, args.n, args.rank, args.seed)
    matio.write_truth(args.out, truth)
    return 0


def _cmd_gen_design(args: argparse.Namespace) -> int:
    design = gen_design(DesignKind(args.kind), args.m, args.n, args.k1, args.k2, args.seed)
    matio.write_design(args.out, design)
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    x = matio.read_truth(args.x)
    design = matio.read_design(args.design)
    meas = measure(x, design, args.sigma, args.noise_seed)
    matio.write_measurement_set(args.out, meas, design)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    meas, design = matio.read_measurement_set(args.meas)
    truth = matio.read_truth(args.truth) if args.truth else None
    rank = None  # cur takes its rank from the overlap block
    if args.rank != "auto":
        rank = args.rank
    elif args.algo != "cur":
        rank = estimate_rank(meas.b_row, meas.b_col, meas.sigma)
        if rank < 1:
            raise ValueError("estimated rank is 0; supply --rank explicitly")
    if args.algo == "svls":
        result = svls_recover(meas, design, rank, truth=truth)
    elif args.algo == "cur":
        result = cur_recover(meas, design, truth=truth)
    elif args.algo == "als":
        result = als_recover(meas, design, rank, truth=truth)
    else:  # svp on the row/column design itself
        b = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
        result = svp_recover(b, design, design.m, design.n, rank, truth=truth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    x_hat = "x_hat.csv"
    matio.write_matrix(out / x_hat, result.x_hat)
    matio.write_json(out / "result.json", {**result.to_json_dict(), "x_hat": x_hat})
    manifest = matio.read_json(Path(args.meas) / "manifest.json")
    manifest["algorithm"] = args.algo
    manifest["rank"] = args.rank
    if args.truth:
        manifest["truth"] = str(args.truth)
    matio.write_json(out / "manifest.json", manifest)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = simulate.ExperimentConfig.from_json_dict(matio.read_json(args.config))
    records = simulate.sweep(config, jobs=args.jobs)
    simulate.write_records_csv(args.out, records, include_runtime=args.timing)
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    records = simulate.read_records_csv(args.in_path)
    simulate.write_summary_csv(args.out, simulate.aggregate(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svls",
        description="Low-rank matrix recovery from row-and-column affine measurements.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-matrix", help="write a random low-rank ground-truth matrix")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed_int, default=0)
    p.add_argument("--out", required=True, help="output matrix CSV path")
    p.set_defaults(func=_cmd_gen_matrix)

    p = sub.add_parser("gen-design", help="write a measurement design directory")
    p.add_argument(
        "--kind", choices=[k.value for k in DesignKind], required=True
    )
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k1", type=_positive_int, required=True)
    p.add_argument("--k2", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed_int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_design)

    p = sub.add_parser("measure", help="apply a design to a matrix, writing a measurement set")
    p.add_argument("--x", required=True, help="target matrix CSV")
    p.add_argument("--design", required=True, help="design directory")
    p.add_argument("--sigma", type=_nonnegative_float, required=True)
    p.add_argument("--noise-seed", type=_seed_int, default=2)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("recover", help="recover an estimate from a measurement set")
    p.add_argument("--meas", required=True, help="measurement-set directory")
    p.add_argument("--algo", choices=list(simulate.ALGORITHMS), required=True)
    p.add_argument(
        "--rank",
        type=_rank_arg,
        required=True,
        help="target rank, or 'auto' to estimate it from the measurements "
        "(cur derives its effective rank from the overlap block)",
    )
    p.add_argument("--truth", default=None, help="optional ground-truth matrix CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("sweep", help="run an experiment sweep from a JSON config")
    p.add_argument("--config", required=True, help="ExperimentConfig JSON path")
    p.add_argument("--out", required=True, help="output records CSV path")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker threads")
    p.add_argument(
        "--timing",
        action="store_true",
        help="append the (nondeterministic) runtime column to the CSV",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("summarize", help="aggregate a records CSV into a summary CSV")
    p.add_argument("--in", dest="in_path", required=True, help="records CSV path")
    p.add_argument("--out", required=True, help="output summary CSV path")
    p.set_defaults(func=_cmd_summarize)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
