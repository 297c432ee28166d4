"""Plain-text file formats for matrices, designs, and measurement sets.

Matrix files are bit-exact: one matrix row per line, fields separated by
a single comma, numbers rendered with 17 significant decimal digits
(lossless for 64-bit floats), ``\\n`` terminated, no header.  Both
directions stream: ``write_matrix`` converts and writes a chunk of whole
rows at a time (``_chunk_entries``), holding about 80 bytes a value of it;
``read_matrix`` feeds numpy one line at a time, and names a bad line from
that one pass, parsing only it again.  Writing then reading a 2000 x 2000
matrix (32 MB) peaked at 102 MB max RSS in a fresh process, against 350 MB
when both held the file's whole text.

``write_matrix`` writes ``%.17g`` text with a numpy kernel.  For a value v
that is not an integer, with 1e-4 <= |v| < 2^52, 10^(16-X), X = floor(log10
|v|), is an exact double, and Dekker's exact product p + e (IEEE binary64,
round to nearest), p >= 2^53 even, gives the 17 digits D = round-half-even(
|v| 10^(16-X)) as p + rint(e); X is corrected once where D has not 17 digits.
Zeros have templates of their own; other values are formatted by ``%``, a
whole chunk of them when they are most of it.  Complex matrices are refused.

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
import sys
from pathlib import Path

import numpy as np

from .measurements import (
    DesignKind, GroundTruth, MeasurementDesign, MeasurementSet,
    _all_finite, _freeze, _is_finite_nonnegative, _is_int, gen_low_rank,
)

DESIGN_FIELDS = ("kind", "m", "n", "k1", "k2", "design_seed")
TRUTH_FIELDS = ("m", "n", "rank", "seed", "csv_sha256", "x_sha256")
NOISE_FIELDS = ("sigma", "noise_seed")

# 17 significant digits round-trip every float64 exactly.
FLOAT_FORMAT = "%.17g"
# write_matrix's chunks: CHUNK_ROWS whole rows, or as many as make CHUNK_FLOOR
# entries, but at most CHUNK_CAP entries (the README says how each was chosen)
CHUNK_ROWS, CHUNK_FLOOR, CHUNK_CAP = 3, 1024, 4096
_SPLIT = 2.0**27 + 1  # Veltkamp's factor: splits a double into 26-bit halves


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _chunk_entries(n: int) -> int:
    """The entries of each chunk ``write_matrix`` writes of rows ``n`` wide."""
    return min(max(CHUNK_ROWS, CHUNK_FLOOR // n), CHUNK_CAP // n) * n or CHUNK_CAP


def _write_tables():
    """By X + 6: 10^(16 - X) and its halves (0 unless -5 <= X <= 16), and, plus 24
    sign + 48 separator, text templates for X in [-4, 15], -6 (zero) and -5 (``%``).
    Words of 4-digit groups, of them without trailing zeros, of a first digit."""
    x = np.arange(-6, 18)
    power = np.r_[1.0, np.cumprod(np.full(21, 10.0))]  # 10^0 .. 10^21, exact
    s = np.where((x >= -5) & (x <= 16), power[np.clip(16 - x, 0, 21)], 0.0)
    s_hi = s * _SPLIT - (s * _SPLIT - s)
    digits = 48 + np.arange(10000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]
    words = np.zeros((20010, 8), np.uint8)
    words[:20000, ::2] = np.concatenate([digits, np.where(trailing, 0, digits)])
    words[20001:, 6] = 48 + np.arange(1, 10)
    templates = np.zeros((2, 2, 24, 40), np.uint8)
    templates[0, ..., 39], templates[1, ..., 39] = ord(","), ord("\n")
    for x in range(-6, 16):
        for sign in (0, 1):
            lead = FLOAT_FORMAT if x == -5 else "-" * sign + (
                "0" if x == -6 else "0." + "0" * (-x - 1) if x < 0 else "")
            templates[:, sign, x + 6, 6 - len(lead) : 6] = list(lead.encode())
        if x >= 0:
            templates[..., x + 6, 7 + 2 * x] = ord(".")
    return s, s_hi, s - s_hi, words.view("<u8").ravel(), templates.reshape(-1).view("V40")


_S, _S_HI, _S_LO, _WORDS, _TEMPLATES = _write_tables()


def _digits(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    hi = x * _SPLIT
    hi -= hi - x
    lo = x - hi
    p, s, s_lo = _S.take(xi), _S_HI.take(xi), _S_LO.take(xi)
    p *= x
    e = hi * s - p
    for a, b in ((hi, s_lo), (s, lo), (lo, s_lo)):  # Dekker's order, in place
        a *= b
        e += a
    del hi, lo, s, s_lo
    return p.astype(np.int64) + np.rint(e, out=e).astype(np.int64)


def _chunk_text(v: np.ndarray, first: int, n: int) -> bytes:
    """The text of the entries ``v`` of a matrix ``n`` wide; ``v[first]`` ends
    its row.  A value's text is five ``'<u8'`` words, NULs deleted: a template
    with the sign and any ``0.000`` up to byte 5, the dot after digit X at
    7 + 2X and the separator at 39, and words with digit i of D at 6 + 2i."""
    x = np.abs(v)
    ok = (x >= 1e-4) & (x != np.rint(x))  # the kernel writes no integer: 0 or below 2^52
    if 2 * (count := np.count_nonzero(ok)) < len(v):
        spec = bytearray(FLOAT_FORMAT.encode() + b",") * len(v)
        spec[6 * first + 5 :: 6 * n] = b"\n" * len(range(first, len(v), n))
        return bytes(spec) % tuple(v.tolist())
    xi = np.log10(x) + 6
    xi = np.minimum(np.maximum(np.floor(xi, out=xi), 0, out=xi), 23, out=xi).astype(np.intp)
    d, text = _digits(x, xi), ()
    if count < len(v) or d.min() < 10**16 or d.max() >= 10**17:  # an X out by one, or % values
        fix = ((d < 10**16) | (d >= 10**17)).nonzero()[0]
        xi[fix] = np.clip(xi[fix] + (d[fix] >= 10**17) - (d[fix] < 10**16), 0, 23)
        d[fix] = _digits(x[fix], xi[fix])
        text = ((~ok | (d < 10**16) | (d >= 10**17)) & (x != 0)).nonzero()[0]
        xi[text], d[text] = 1, 0
    del x, ok
    xi += 24 * np.signbit(v)
    xi[first::n] += 48
    rows = _TEMPLATES.take(xi).view("<u8").reshape(-1, 5)
    del xi
    # 4-digit groups from the last, whose word leaves out its trailing zeros, as does
    # each before a run of zero groups: fractional digits, as no value here is an integer
    run = None
    for k in (4, 3, 2, 1):  # numpy's floor_divide by a constant is fast, its divmod is not
        q, words = d - (d := d // 10**4) * 10**4, _WORDS
        if run is None:
            run, words = (q == 0).nonzero()[0], _WORDS[10000:]
        elif run.size:
            q[run] += 10000
            run = run[q[run] == 10000]
        rows[:, k] |= words.take(q)
    rows[:, 0] |= _WORDS[20000:].take(d)
    del d, q
    raw = rows.tobytes()
    del rows
    raw = raw.translate(None, b"\0")
    return raw % tuple(v[text].tolist()) if len(text) else raw


def write_matrix(path: str | Path, a: np.ndarray) -> None:
    a = np.asarray(a)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("only nonempty 2-d matrices can be written")
    if np.iscomplexobj(a):  # numpy's cast would drop the imaginary parts
        raise ValueError("complex matrix entries cannot be written")
    # row-major float64 chunks: another dtype or layout is converted a chunk at a time
    n = a.shape[1]
    chunks = np.nditer(a, ["external_loop", "buffered", "refs_ok"], op_dtypes=np.float64,
                       casting="unsafe", buffersize=_chunk_entries(n), order="C")
    if not all(np.isfinite(v).all() for v in chunks):  # before the file is opened
        raise ValueError("matrix entries must be finite")
    chunks.reset()
    with open(path, "wb") as fh, np.errstate(all="ignore"):
        for v in chunks:
            fh.write(_chunk_text(v, (n - 1 - chunks.iterindex) % n, n))


def _numbered(fh, at: list):
    """The lines of the open text file ``fh``, split as ``str.splitlines``
    splits its whole text.  ``at`` holds the number and text of the last
    handed on, and line 1's comma count.  A ValueError stops them at a blank
    or ragged line, which numpy would skip or name without the path, or at
    the end of an empty file, which numpy would warn of."""
    for text in fh:
        for line in text.splitlines():
            at[0], at[1], at[2] = at[0] + 1, line, at[2] if at[0] else line.count(",")
            if not line.strip() or line.count(",") != at[2]:
                raise ValueError(line)
            yield line
    if not at[0]:
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
        np.loadtxt([text], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def _stopped(path: Path, at: list) -> ValueError:
    """Why the read stopped at the line ``at`` names, the first bad one as numpy
    converts each line before it takes the next: malformed, or else ragged."""
    lineno, line, commas = at
    if not lineno:
        return ValueError(f"{path}: empty matrix file")
    if _parses(line):  # then _numbered stopped at it, as ragged
        return ValueError(f"{path}:{lineno}: ragged row ({line.count(',') + 1} != {commas + 1})")
    bad = next((f for f in line.split(",") if not _parses(f)), line)
    return ValueError(f"{path}:{lineno}: malformed matrix row: "
                      f"could not convert string to float: {bad!r}")


def read_matrix(path: str | Path) -> np.ndarray:
    path, at = Path(path), [0, "", 0]
    try:
        with open(path) as fh:
            try:
                a = np.loadtxt(_numbered(fh, at), delimiter=",", comments=None, ndmin=2)
            except UnicodeDecodeError:
                raise
            except ValueError:
                for _ in fh:  # a decode error further on is reported first
                    pass
                raise _stopped(path, at) from None
    except UnicodeDecodeError as exc:
        raise undecodable(path, exc) from None
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
    manifest = dict(zip(DESIGN_FIELDS, (design.kind.value, design.m, design.n, design.k1,
                                        design.k2, design.seed)))
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
