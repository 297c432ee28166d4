"""Plain-text file formats for matrices, designs, and measurement sets.

Matrix files are bit-exact: one matrix row per line, fields separated by
a single comma, numbers rendered with 17 significant decimal digits
(lossless for 64-bit floats), ``\\n`` terminated, no header.

A design on disk is a directory with a ``manifest.json`` holding the
fields ``{kind, m, n, k1, k2, design_seed}``.  A sampling design is its
manifest, which also lists ``row_indices`` and ``col_indices``; a
Gaussian design adds its sensing matrices as ``design_a_row.csv`` and
``design_a_col.csv``.  A measurement set is a design directory that
also holds ``b_row.csv`` and ``b_col.csv``, with ``sigma`` and
``noise_seed`` in its manifest.  Manifests always suffice to re-derive
the artifact from seeds.  Sampling directories written with the 0/1
selection matrices as ``design_a_*.csv`` still read: those files are
ignored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .measurements import (
    DesignKind, MeasurementDesign, MeasurementSet, _freeze, _is_finite_nonnegative, _is_int,
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
    if design.a_row is not None:
        write_matrix(dirpath / "design_a_row.csv", design.a_row)
        write_matrix(dirpath / "design_a_col.csv", design.a_col)
    write_json(dirpath / "manifest.json", _design_manifest(design))


def _require_fields(dirpath: Path, manifest: dict, fields: tuple[str, ...]) -> None:
    if not isinstance(manifest, dict):
        raise ValueError(f"{dirpath}: manifest is not a JSON object")
    for field in fields:
        if field not in manifest:
            raise ValueError(f"{dirpath}: manifest missing field {field!r}")


def _seed(dirpath: Path, manifest: dict, key: str) -> int:
    seed = manifest[key]
    if not _is_int(seed):
        raise ValueError(f"{dirpath}: {key} must be an integer")
    if seed < 0:  # a seed the library would refuse to draw from
        raise ValueError(f"{dirpath}: {key} must be a nonnegative integer")
    return seed


def _sigma(dirpath: Path, manifest: dict) -> float:
    sigma = manifest["sigma"]
    if not _is_finite_nonnegative(sigma):
        raise ValueError(f"{dirpath}: sigma must be a finite nonnegative number")
    return float(sigma)


def _positive(dirpath: Path, manifest: dict, key: str) -> int:
    value = manifest[key]
    if not (_is_int(value) and 1 <= value <= sys.maxsize):
        raise ValueError(f"{dirpath}: {key} must be a positive integer below 2**63")
    return value


def _sample_indices(dirpath: Path, manifest: dict, key: str, count: int) -> list:
    """The manifest's list ``key`` of ``count`` integers; the design they
    are passed to checks their range and distinctness."""
    raw = manifest[key]
    if not isinstance(raw, list) or not all(_is_int(i) for i in raw):
        raise ValueError(f"{dirpath}: {key} must be a list of integers")
    if len(raw) != count:
        raise ValueError(f"{dirpath}: {key} has {len(raw)} entries, expected {count}")
    return raw


def _design_from_dir(dirpath: Path, manifest: dict) -> MeasurementDesign:
    """The design a manifest describes.  A sampling design is its index
    lists; a Gaussian one reads its two sensing matrices from CSV."""
    _require_fields(dirpath, manifest, DESIGN_FIELDS)
    kinds = [k.value for k in DesignKind]
    if manifest["kind"] not in kinds:
        raise ValueError(f"{dirpath}: kind must be one of {kinds}, got {manifest['kind']!r}")
    kind = DesignKind(manifest["kind"])
    m, n, k1, k2 = (_positive(dirpath, manifest, k) for k in ("m", "n", "k1", "k2"))
    seed = _seed(dirpath, manifest, "design_seed")
    if kind is DesignKind.ROW_COL_SAMPLE:
        _require_fields(dirpath, manifest, ("row_indices", "col_indices"))
        rows = _sample_indices(dirpath, manifest, "row_indices", k1)
        cols = _sample_indices(dirpath, manifest, "col_indices", k2)
        try:
            return MeasurementDesign(kind, m, n, seed, row_indices=rows, col_indices=cols)
        except ValueError as exc:
            raise ValueError(f"{dirpath}: {exc}") from None
    if "row_indices" in manifest or "col_indices" in manifest:
        raise ValueError(f"{dirpath}: a gaussian design has no sampling indices")
    a_row = read_matrix(dirpath / "design_a_row.csv")
    a_col = read_matrix(dirpath / "design_a_col.csv")
    if a_row.shape != (k1, m):
        raise ValueError(f"{dirpath}: design_a_row.csv shape disagrees with manifest")
    if a_col.shape != (n, k2):
        raise ValueError(f"{dirpath}: design_a_col.csv shape disagrees with manifest")
    return MeasurementDesign(kind, m, n, seed, a_row=a_row, a_col=a_col)


def read_design(dirpath: str | Path) -> MeasurementDesign:
    dirpath = Path(dirpath)
    manifest = read_json(dirpath / "manifest.json")
    return _design_from_dir(dirpath, manifest)


def write_measurement_set(
    dirpath: str | Path, meas: MeasurementSet, design: MeasurementDesign
) -> None:
    dirpath = Path(dirpath)
    write_design(dirpath, design)
    write_matrix(dirpath / "b_row.csv", meas.b_row)
    write_matrix(dirpath / "b_col.csv", meas.b_col)
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
    meas = MeasurementSet(
        b_row=b_row,
        b_col=b_col,
        sigma=_sigma(dirpath, manifest),
        noise_seed=_seed(dirpath, manifest, "noise_seed"),
    )
    return meas, design
