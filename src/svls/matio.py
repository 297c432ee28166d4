"""Plain-text file formats for matrices, designs, and measurement sets.

Matrix files are bit-exact: one matrix row per line, fields separated by
a single comma, numbers rendered with 17 significant decimal digits
(lossless for 64-bit floats), ``\\n`` terminated, no header.

A measurement set on disk is a directory containing ``b_row.csv``,
``b_col.csv``, ``design_a_row.csv``, ``design_a_col.csv``, and a
``manifest.json`` with the fields ``{kind, m, n, k1, k2, sigma,
design_seed, noise_seed, row_indices?, col_indices?}``.  A design-only
directory holds the two design files and a manifest without the noise
fields.  Manifests always suffice to re-derive the artifact from seeds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .measurements import (
    DesignKind,
    MeasurementDesign,
    MeasurementSet,
    _freeze,
    _freeze_index,
    _selection,
)

DESIGN_FIELDS = ("kind", "m", "n", "k1", "k2", "design_seed")
NOISE_FIELDS = ("sigma", "noise_seed")

# 17 significant digits round-trip every float64 exactly.
FLOAT_FORMAT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def write_matrix(path: str | Path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("only nonempty 2-d matrices can be written")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    row = ",".join([FLOAT_FORMAT] * a.shape[1])
    text = "\n".join([row % tuple(values) for values in a.tolist()])
    Path(path).write_text(text + "\n", newline="\n")


def _parses(text: str) -> bool:
    if not text.strip():
        return False
    try:
        np.loadtxt([text], delimiter=",", comments=None, dtype=np.float64)
    except ValueError:
        return False
    return True


def _first_malformed(path: Path, lines: list[str]) -> ValueError | None:
    """The error for the first line of ``lines``, and its first field,
    that numpy cannot parse; None when every line parses."""
    for lineno, line in enumerate(lines, start=1):
        if not _parses(line):
            field = next((f for f in line.split(",") if not _parses(f)), line)
            return ValueError(
                f"{path}:{lineno}: malformed matrix row: "
                f"could not convert string to float: {field!r}"
            )
    return None


def read_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    commas = lines[0].count(",")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.count(",") != commas:
            # an earlier malformed line is reported first, as a line-by-line read would
            raise _first_malformed(path, lines[:lineno]) or ValueError(
                f"{path}:{lineno}: ragged row ({line.count(',') + 1} != {commas + 1})"
            )
    try:
        a = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise _first_malformed(path, lines) or exc from None
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return _freeze(a)


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n"
    )


def read_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from None


def _design_manifest(design: MeasurementDesign) -> dict:
    manifest = {
        "kind": design.kind.value,
        "m": design.m,
        "n": design.n,
        "k1": design.k1,
        "k2": design.k2,
        "design_seed": design.seed,
    }
    if design.row_indices is not None:
        manifest["row_indices"] = [int(i) for i in design.row_indices]
        manifest["col_indices"] = [int(i) for i in design.col_indices]
    return manifest


def write_design(dirpath: str | Path, design: MeasurementDesign) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    write_matrix(dirpath / "design_a_row.csv", design.a_row)
    write_matrix(dirpath / "design_a_col.csv", design.a_col)
    write_json(dirpath / "manifest.json", _design_manifest(design))


def _require_fields(dirpath: Path, manifest: dict, fields: tuple[str, ...]) -> None:
    if not isinstance(manifest, dict):
        raise ValueError(f"{dirpath}: manifest is not a JSON object")
    for field in fields:
        if field not in manifest:
            raise ValueError(f"{dirpath}: manifest missing field {field!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _seed(dirpath: Path, manifest: dict, key: str) -> int:
    if not _is_int(manifest[key]):
        raise ValueError(f"{dirpath}: {key} must be an integer")
    return manifest[key]


def _is_finite_nonnegative(value) -> bool:
    """A JSON number (not a bool) in ``[0, float max]``; huge ints included."""
    return (_is_int(value) or isinstance(value, float)) and 0 <= value <= sys.float_info.max


def _sigma(dirpath: Path, manifest: dict) -> float:
    sigma = manifest["sigma"]
    if not _is_finite_nonnegative(sigma):
        raise ValueError(f"{dirpath}: sigma must be a finite nonnegative number")
    return float(sigma)


def _sample_indices(
    dirpath: Path, manifest: dict, key: str, selection: np.ndarray, csv_name: str
) -> np.ndarray | None:
    """The manifest's index list ``key``, checked against the 0/1
    ``selection`` matrix (one row per index) read from ``csv_name``."""
    raw = manifest.get(key)
    if raw is None:
        return None
    count, size = selection.shape
    if not isinstance(raw, list) or not all(_is_int(i) for i in raw):
        raise ValueError(f"{dirpath}: {key} must be a list of integers")
    if len(raw) != count:
        raise ValueError(f"{dirpath}: {key} has {len(raw)} entries, expected {count}")
    if not all(0 <= i < size for i in raw):
        raise ValueError(f"{dirpath}: {key} has an entry outside [0, {size})")
    if len(set(raw)) != count:
        raise ValueError(f"{dirpath}: {key} repeats an index")
    indices = _freeze_index(np.array(raw))
    if not np.array_equal(selection, _selection(indices, size)):
        raise ValueError(f"{dirpath}: {key} disagrees with the 1 entries of {csv_name}")
    return indices


def _design_from_dir(dirpath: Path, manifest: dict) -> MeasurementDesign:
    _require_fields(dirpath, manifest, DESIGN_FIELDS)
    kind = DesignKind(manifest["kind"])
    a_row = read_matrix(dirpath / "design_a_row.csv")
    a_col = read_matrix(dirpath / "design_a_col.csv")
    if a_row.shape != (manifest["k1"], manifest["m"]):
        raise ValueError(f"{dirpath}: design_a_row.csv shape disagrees with manifest")
    if a_col.shape != (manifest["n"], manifest["k2"]):
        raise ValueError(f"{dirpath}: design_a_col.csv shape disagrees with manifest")
    return MeasurementDesign(
        kind=kind,
        a_row=a_row,
        a_col=a_col,
        row_indices=_sample_indices(
            dirpath, manifest, "row_indices", a_row, "design_a_row.csv"
        ),
        col_indices=_sample_indices(
            dirpath, manifest, "col_indices", a_col.T, "design_a_col.csv"
        ),
        seed=_seed(dirpath, manifest, "design_seed"),
    )


def read_design(dirpath: str | Path) -> MeasurementDesign:
    dirpath = Path(dirpath)
    manifest = read_json(dirpath / "manifest.json")
    return _design_from_dir(dirpath, manifest)


def write_measurement_set(
    dirpath: str | Path, meas: MeasurementSet, design: MeasurementDesign
) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    write_matrix(dirpath / "b_row.csv", meas.b_row)
    write_matrix(dirpath / "b_col.csv", meas.b_col)
    write_matrix(dirpath / "design_a_row.csv", design.a_row)
    write_matrix(dirpath / "design_a_col.csv", design.a_col)
    manifest = _design_manifest(design)
    manifest["sigma"] = meas.sigma
    manifest["noise_seed"] = meas.noise_seed
    write_json(dirpath / "manifest.json", manifest)


def read_measurement_set(
    dirpath: str | Path,
) -> tuple[MeasurementSet, MeasurementDesign]:
    dirpath = Path(dirpath)
    manifest = read_json(dirpath / "manifest.json")
    _require_fields(dirpath, manifest, NOISE_FIELDS)
    design = _design_from_dir(dirpath, manifest)
    b_row = read_matrix(dirpath / "b_row.csv")
    b_col = read_matrix(dirpath / "b_col.csv")
    if b_row.shape != (design.k1, design.n):
        raise ValueError(f"{dirpath}: b_row.csv shape disagrees with manifest")
    if b_col.shape != (design.m, design.k2):
        raise ValueError(f"{dirpath}: b_col.csv shape disagrees with manifest")
    total = design.k1 * design.n + design.k2 * design.m
    distinct = None
    if design.kind is DesignKind.ROW_COL_SAMPLE:
        distinct = total - design.k1 * design.k2
    meas = MeasurementSet(
        b_row=b_row,
        b_col=b_col,
        sigma=_sigma(dirpath, manifest),
        design_seed=design.seed,
        noise_seed=_seed(dirpath, manifest, "noise_seed"),
        total_measurements=total,
        distinct_measurements=distinct,
    )
    return meas, design
