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

Exit codes: 0 on success, 2 on usage errors, 1 on runtime errors (which
print a single ``error: ...`` line to standard error).  When a ``--seed``
or ``--noise-seed`` flag is absent, its default comes from the
``RC_RECOVER_SEED`` environment variable (0 if unset).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import matio, simulate
from .baselines import als_recover, svp_recover
from .measurements import DesignKind, gen_design, gen_low_rank, measure
from .recovery import cur_recover, estimate_rank, svls_recover


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative seed, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 <= value <= sys.float_info.max:
        raise argparse.ArgumentTypeError(
            f"expected a finite nonnegative number, got {text}"
        )
    return value


def _rank_arg(text: str) -> str:
    if text == "auto":
        return text
    _positive_int(text)
    return text


def _default_seed() -> int:
    raw = os.environ.get("RC_RECOVER_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"RC_RECOVER_SEED is not an integer: {raw!r}") from None


def _seed_or_default(value: int | None) -> int:
    return _default_seed() if value is None else value


def _cmd_gen_matrix(args: argparse.Namespace) -> int:
    seed = _seed_or_default(args.seed)
    truth = gen_low_rank(args.m, args.n, args.rank, seed)
    out = Path(args.out)
    matio.write_matrix(out, truth.x)
    matio.write_json(
        out.with_suffix(".json"),
        {"m": args.m, "n": args.n, "rank": args.rank, "seed": seed},
    )
    return 0


def _cmd_gen_design(args: argparse.Namespace) -> int:
    seed = _seed_or_default(args.seed)
    design = gen_design(DesignKind(args.kind), args.m, args.n, args.k1, args.k2, seed)
    matio.write_design(args.out, design)
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    x = matio.read_matrix(args.x)
    design = matio.read_design(args.design)
    meas = measure(x, design, args.sigma, _seed_or_default(args.noise_seed))
    matio.write_measurement_set(args.out, meas, design)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    meas, design = matio.read_measurement_set(args.meas)
    truth = matio.read_matrix(args.truth) if args.truth else None
    rank = None  # cur takes its rank from the overlap block
    if args.rank != "auto":
        rank = int(args.rank)
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
    matio.write_matrix(out / "x_hat.csv", result.x_hat)
    matio.write_json(out / "result.json", result.to_json_dict(x_hat_ref="x_hat.csv"))
    manifest = matio.read_json(Path(args.meas) / "manifest.json")
    manifest["algorithm"] = args.algo
    manifest["rank"] = "auto" if args.rank == "auto" else rank
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
    p.add_argument("--seed", type=_seed_int, default=None)
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
    p.add_argument("--seed", type=_seed_int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_design)

    p = sub.add_parser("measure", help="apply a design to a matrix, writing a measurement set")
    p.add_argument("--x", required=True, help="target matrix CSV")
    p.add_argument("--design", required=True, help="design directory")
    p.add_argument("--sigma", type=_nonnegative_float, required=True)
    p.add_argument("--noise-seed", type=_seed_int, default=None)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
