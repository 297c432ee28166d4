"""Plain-text file formats for matrices, designs, and measurement sets.

Matrix files are bit-exact: one matrix row per line, fields separated by
a single comma, numbers rendered with 17 significant decimal digits
(lossless for 64-bit floats), ``\\n`` terminated, no header.  Both
directions stream, with O(row) transient memory: ``write_matrix`` writes
its rows in chunks of ``WRITE_CHUNK_ENTRIES`` and ``read_matrix`` feeds
numpy one line at a time.  Writing then reading a 2000 x 2000 matrix
(32 MB) peaked at 101 MB max RSS in a fresh process, against 350 MB when
both held the file's whole text.

``%.17g`` formatting is most of a write and the GIL serializes it, so
when the process may run on more than one CPU (``os.sched_getaffinity``,
which does not see a cgroup CPU quota) a matrix of ``PARALLEL_ENTRIES``
or more is cut in two by rows: the process formats the first half and a
``python -I -S`` helper (:mod:`svls._rowtext`, standard library only) the
second, reading raw float64 from an anonymous temporary file in the
target's directory and writing text to another that is then appended,
both in row chunks.  The helper is a second interpreter of about 10 MB;
the process keeps O(row) memory.  Rows whose helper does not start,
fails or writes the wrong line count are formatted in process; the
bytes are the same.  No helper outlives ``write_matrix`` when it returns
or raises; if the process itself is killed, a running helper finishes
its rows into its anonymous file.

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

A ``gen-matrix`` truth is a matrix CSV with a sidecar holding its recipe
and digests (:func:`write_truth`); :func:`read_truth` rebuilds it from
its seed while the digests certify the CSV, and parses the CSV otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from ._rowtext import row_template, rows_text
from .measurements import (
    DesignKind, GroundTruth, MeasurementDesign, MeasurementSet,
    _all_finite, _freeze, _is_finite_nonnegative, _is_int, gen_low_rank,
)

DESIGN_FIELDS = ("kind", "m", "n", "k1", "k2", "design_seed")
TRUTH_FIELDS = ("m", "n", "rank", "seed", "csv_sha256", "x_sha256")
NOISE_FIELDS = ("sigma", "noise_seed")

# 17 significant digits round-trip every float64 exactly.
FLOAT_FORMAT = "%.17g"
# write_matrix formats and writes its rows in chunks of about this many entries
WRITE_CHUNK_ENTRIES = 2**10
# write_matrix gives half the rows of a matrix of at least this many entries to
# a helper interpreter when the process may run on more than one CPU
PARALLEL_ENTRIES = 2**17


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux: the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_rows(fh, a: np.ndarray, template: str, rows: int) -> None:
    for i in range(0, len(a), rows):
        fh.write(rows_text(template, a[i : i + rows].tolist()).encode())


def _start_helper(stack: ExitStack, dirpath: Path, a: np.ndarray, rows: int):
    """A helper interpreter writing the text of ``a`` to an anonymous file in
    ``dirpath``, and that file, or two Nones if none starts.  The helper is
    killed if it still runs when ``stack`` closes."""
    import subprocess  # only large writes pay for its import

    try:
        out = stack.enter_context(tempfile.TemporaryFile(dir=dirpath))
        with tempfile.TemporaryFile(dir=dirpath) as src:
            a.tofile(src)
            src.seek(0)
            proc = subprocess.Popen(  # sys.executable is '' or None with no interpreter
                [sys.executable or "", "-I", "-S", Path(__file__).with_name("_rowtext.py"),
                 FLOAT_FORMAT, str(a.shape[1]), str(rows)],
                stdin=src, stdout=out, stderr=subprocess.DEVNULL)
    except OSError:  # no room or permission for the temporary files, or no interpreter
        return None, None
    stack.callback(lambda: (proc.kill(), proc.wait()))
    return proc, out


def _append(fh, proc, out, lines: int) -> bool:
    """Append ``out`` to ``fh`` if ``proc`` succeeded and wrote ``lines`` lines."""
    if proc is None or proc.wait() != 0:
        return False
    out.seek(0)
    count = sum(chunk.count(b"\n") for chunk in iter(lambda: out.read(2**14), b""))
    out.seek(0)
    if count == lines:
        shutil.copyfileobj(out, fh, 2**14)
    return count == lines


def write_matrix(path: str | Path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("only nonempty 2-d matrices can be written")
    if not _all_finite(a):
        raise ValueError("matrix entries must be finite")
    path, template = Path(path), row_template(FLOAT_FORMAT, a.shape[1])
    rows = max(1, WRITE_CHUNK_ENTRIES // a.shape[1])
    # the helper's rows, the last; one helper is the setup that was timed
    half = len(a) // 2 if a.size >= PARALLEL_ENTRIES and _usable_cpus() > 1 else 0
    with open(path, "wb") as fh, ExitStack() as stack:
        proc, out = _start_helper(stack, path.parent, a[-half:], rows) if half else (None, None)
        _write_rows(fh, a[: len(a) - half], template, rows)
        if half and not _append(fh, proc, out, half):  # format them here instead
            _write_rows(fh, a[-half:], template, rows)


def _lines(fh):
    """The lines of the open text file ``fh``, split as ``str.splitlines``
    splits its whole text."""
    for text in fh:
        yield from text.splitlines()


def _checked(lines):
    """``lines``, stopped by a ValueError at the first blank or ragged one,
    which numpy would skip or name without the path, or at the end when
    there is none, which numpy would warn of."""
    commas = None
    for line in lines:
        commas = line.count(",") if commas is None else commas
        if not line.strip() or line.count(",") != commas:
            raise ValueError(line)
        yield line
    if commas is None:
        raise ValueError("empty")


def undecodable(path: str | Path, exc: UnicodeDecodeError) -> ValueError:
    """``exc``, raised decoding ``path`` a chunk at a time, with the path and
    the file offsets of its bytes.  No byte of a multibyte UTF-8 character
    is ``\\n``, so each line decodes as it did within the whole text."""
    offset = 0
    with open(path, "rb") as fh:
        for line in fh:
            try:
                line.decode(exc.encoding)
            except UnicodeDecodeError as err:
                at, last = err.start + offset, err.end - 1 + offset
                where = (f"byte 0x{line[err.start]:02x} in position {at}" if at == last
                         else f"bytes in position {at}-{last}")
                return ValueError(f"{path}: '{err.encoding}' codec can't decode {where}: "
                                  f"{err.reason}")
            offset += len(line)
    return ValueError(f"{path}: {exc}")  # the file changed since


def _parses(text: str) -> bool:
    if not text.strip():
        return False
    try:
        np.loadtxt([text], delimiter=",", comments=None, dtype=np.float64)
    except ValueError:
        return False
    return True


def _diagnosis(path: Path) -> ValueError | None:
    """Why ``path`` does not read, from a second streaming pass: a decode
    error anywhere; else the first line that is malformed (naming its first
    bad field) or ragged; else an empty file.  None if none of these."""
    found, lineno = None, 0
    try:
        with open(path) as fh:
            for lineno, line in enumerate(_lines(fh), start=1):
                commas = line.count(",") if lineno == 1 else commas
                if found is None and not _parses(line):  # once found, read on for decoding
                    bad = next((f for f in line.split(",") if not _parses(f)), line)
                    found = (f"{lineno}: malformed matrix row: "
                             f"could not convert string to float: {bad!r}")
                elif found is None and line.count(",") != commas:
                    found = f"{lineno}: ragged row ({line.count(',') + 1} != {commas + 1})"
    except UnicodeDecodeError as exc:
        return undecodable(path, exc)
    if not lineno:
        return ValueError(f"{path}: empty matrix file")
    return found and ValueError(f"{path}:{found}")


def read_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    try:
        with open(path) as fh:
            a = np.loadtxt(
                _checked(_lines(fh)), delimiter=",", comments=None, ndmin=2, dtype=np.float64
            )
    except ValueError as exc:  # a decode error is one too
        raise _diagnosis(path) or exc from None
    if not _all_finite(a):
        raise ValueError(f"{path}: matrix entries must be finite")
    return _freeze(a)


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()  # hashlib.file_digest needs Python 3.11
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_truth(path: str | Path, truth: GroundTruth) -> None:
    """Write ``truth.x`` with :func:`write_matrix` and, at ``path`` with
    suffix ``.json``, its sidecar: the recipe ``{m, n, rank, seed}`` and the
    SHA-256 digests ``csv_sha256`` of the CSV and ``x_sha256`` of ``truth.x``."""
    path = Path(path)
    if path.with_suffix(".json") == path:
        raise ValueError(f"{path}: the matrix's metadata would overwrite it; "
                         "use a suffix other than .json")
    write_matrix(path, truth.x)
    recipe = (*truth.x.shape, truth.rank, truth.seed, _file_sha256(path),
              hashlib.sha256(truth.x).hexdigest())
    write_json(path.with_suffix(".json"), dict(zip(TRUTH_FIELDS, recipe)))


def read_truth(path: str | Path) -> np.ndarray:
    """The matrix CSV at ``path`` as :func:`read_matrix` parses it, or rebuilt
    from its :func:`write_truth` sidecar's recipe when the CSV's digest
    matches, m·n is at most half its bytes (each entry takes two or more, so
    a forged sidecar allocates no more than the file holds) and the rebuilt
    matrix's digest matches.  The format is lossless: the arrays are equal."""
    path, sidecar = Path(path), Path(path).with_suffix(".json")
    try:
        recipe = read_json(sidecar) if sidecar != path else None
    except (OSError, ValueError):  # absent, undecodable or not JSON
        recipe = None
    if isinstance(recipe, dict) and set(TRUTH_FIELDS) <= recipe.keys():
        m, n, rank, seed, csv_sha256, x_sha256 = (recipe[k] for k in TRUTH_FIELDS)
        try:
            if (_is_int(m) and _is_int(n) and 2 * m * n <= path.stat().st_size
                    and _file_sha256(path) == csv_sha256):
                x = gen_low_rank(m, n, rank, seed).x
                if hashlib.sha256(x).hexdigest() == x_sha256:
                    return x
        except (OSError, ValueError):  # unreadable, or a recipe gen_low_rank refuses
            pass
    return read_matrix(path)


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n"
    )


def read_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ValueError(f"{path}: malformed JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


def write_design(dirpath: str | Path, design: MeasurementDesign, **extra) -> None:
    """Write ``design`` to ``dirpath``; ``extra`` joins its manifest, which
    is written once and last."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    if design.a_row is not None:
        write_matrix(dirpath / "design_a_row.csv", design.a_row)
        write_matrix(dirpath / "design_a_col.csv", design.a_col)
    write_json(dirpath / "manifest.json", {**_design_manifest(design), **extra})


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
    dirpath.mkdir(parents=True, exist_ok=True)
    write_matrix(dirpath / "b_row.csv", meas.b_row)
    write_matrix(dirpath / "b_col.csv", meas.b_col)
    write_design(dirpath, design, sigma=meas.sigma, noise_seed=meas.noise_seed)


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
