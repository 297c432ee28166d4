import hashlib
import json
import os
import re
import stat
import threading
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import whole_text_read_matrix
from svls import matio, simulate
from svls.matio import (
    DESIGN_FIELDS,
    NOISE_FIELDS,
    format_float,
    read_design,
    read_matrix,
    read_measurement_set,
    read_truth,
    write_design,
    write_matrix,
    write_measurement_set,
    write_truth,
)
from svls.measurements import (
    DesignKind,
    MeasurementDesign,
    gen_design,
    gen_low_rank,
    measure,
)


class TestMatrixFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 5)) * np.logspace(-12, 12, 5)
        path = tmp_path / "a.csv"
        write_matrix(path, a)
        assert np.array_equal(read_matrix(path), a)

    def test_format_is_plain_csv_without_header(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(path, np.array([[1.0, 0.5], [-2.0, 0.1]]))
        text = path.read_text()
        assert text == "1,0.5\n-2,0.10000000000000001\n"

    def test_seventeen_digits_lossless(self):
        for value in (0.1, 1 / 3, np.pi, 1e-300, -1.2345678901234567e17):
            assert float(format_float(value)) == value

    def test_single_entry_matrix(self, tmp_path):
        path = tmp_path / "one.csv"
        write_matrix(path, np.array([[3.5]]))
        assert np.array_equal(read_matrix(path), [[3.5]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_matrix(path)

    def test_malformed_number_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,zap\n")
        with pytest.raises(ValueError, match="malformed"):
            read_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_matrix(path)

    def test_nonfinite_rejected_on_write_and_read(self, tmp_path):
        path = tmp_path / "inf.csv"
        with pytest.raises(ValueError):
            write_matrix(path, np.array([[np.inf]]))
        path.write_text("nan\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_complex_rejected_before_the_file_opens(self, tmp_path):
        # numpy's cast to float64 would write only the real parts
        path = tmp_path / "complex.csv"
        with pytest.raises(ValueError, match="complex"):
            write_matrix(path, np.array([[1 + 2j]]))
        assert not path.exists()

    @pytest.mark.parametrize("a", [np.ones(3), np.ones((0, 3)), np.ones((2, 0)), np.ones((1, 2, 2))],
                             ids=["1d", "no_rows", "no_columns", "3d"])
    def test_shape_rejected_before_the_file_opens(self, tmp_path, a):
        path = tmp_path / "shape.csv"
        with pytest.raises(ValueError, match="^only nonempty 2-d matrices can be written$"):
            write_matrix(path, a)
        assert not path.exists()


# each writer of matio and simulate, writing a fixed payload to a path
WRITERS = {
    "write_matrix": lambda path: write_matrix(path, np.array([[1.0, 0.5], [-2.0, 0.1]])),
    "write_json": lambda path: matio.write_json(path, {"m": 2, "sigma": 0.1}),
    "_write_csv": lambda path: simulate.write_records_csv(
        path, [simulate.TrialRecord(4, 4, 1, "rowcol", 1, 1, 0.0, "svls", 0, 3, 1e-17, True, 0)]
    ),
}
OLD_BYTES = b"longer than what the writer writes\n" * 100


class TestWritingOverPaths:
    """A writer opens what is at its path and writes through it."""

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_writing_over_a_file_gives_a_new_files_bytes(self, tmp_path, writer):
        new, old, hard_link = tmp_path / "new", tmp_path / "old", tmp_path / "hard_link"
        WRITERS[writer](new)
        old.write_bytes(OLD_BYTES)
        old.chmod(0o600)
        os.link(old, hard_link)
        WRITERS[writer](old)
        assert old.read_bytes() == new.read_bytes() == hard_link.read_bytes()
        assert stat.S_IMODE(old.stat().st_mode) == 0o600

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_a_symlink_is_written_through(self, tmp_path, writer):
        new, target, path = tmp_path / "new", tmp_path / "target", tmp_path / "path"
        WRITERS[writer](new)
        target.write_bytes(OLD_BYTES)
        path.symlink_to(target)
        WRITERS[writer](path)
        assert path.is_symlink() and target.read_bytes() == new.read_bytes()

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_the_null_device_stays(self, writer):
        WRITERS[writer](os.devnull)
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_a_fifo_is_written_through_and_stays(self, tmp_path, writer):
        new, fifo = tmp_path / "new", tmp_path / "fifo"
        WRITERS[writer](new)
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        WRITERS[writer](fifo)
        reader.join(timeout=10)
        assert got == [new.read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def oracle_write_matrix(path, a):
    """Slow per-entry writer, the reference for write_matrix's bytes."""
    lines = [",".join(f"{float(v):.17g}" for v in row) for row in np.asarray(a)]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def oracle_read_matrix(path):
    """Slow per-entry reader, the reference for read_matrix."""
    rows = []
    width = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed matrix row: {exc}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{path}:{lineno}: ragged row ({len(row)} != {width})")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    a = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return a


def _oracle_matrices():
    rng = np.random.default_rng(21)
    wide = np.logspace(-300, 300, 41)
    special = [0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max,
               -np.finfo(np.float64).max, 1e16, -1e16, 1.0, -3.0, 123456789.0]
    return {
        "logspace_scaled": rng.standard_normal((9, 41)) * wide,
        "logspace_scaled_rows": rng.standard_normal((41, 7)) * wide[:, None],
        "special": np.array([special, special[::-1]]),
        "integers": rng.integers(-10**6, 10**6, size=(5, 6)).astype(np.float64),
        "1x1": np.array([[np.pi]]),
        "1xn": rng.standard_normal((1, 13)),
        "mx1": rng.standard_normal((13, 1)),
        # the writer formats rows in chunks (matio._chunk_entries): many
        # chunks with a short last one, and rows wider than a chunk
        "many_chunks": rng.standard_normal((2100, 3)),
        "wider_than_a_chunk": rng.standard_normal((3, 1500)),
        **_chunk_edges(rng),
    }


def _chunk_edges(rng):
    """Widths just below, at and just above where the writer's chunk rule turns:
    above CHUNK_FLOOR // (CHUNK_ROWS + 1) the floor no longer adds rows, above
    CHUNK_CAP // CHUNK_ROWS the cap takes rows away, and above CHUNK_CAP a row
    is written in parts.  Each has one row more than a chunk holds (two rows
    where a row is written in parts), so its last chunk is a single row."""
    turns = (matio.CHUNK_FLOOR // (matio.CHUNK_ROWS + 1), matio.CHUNK_CAP // matio.CHUNK_ROWS,
             matio.CHUNK_CAP)
    return {f"chunk_edge_{n}": rng.standard_normal((max(matio._chunk_entries(n) // n, 1) + 1, n))
            for turn in turns for n in (turn - 1, turn, turn + 1)}


ORACLE_MATRICES = _oracle_matrices()

# text, the error kind, and the 1-based line the error names (None: no line)
REJECTION_CORPUS = {
    "empty_file": ("", "empty", None),
    "blank_line_in_middle": ("1,2\n\n3,4\n", "malformed", 2),
    "trailing_blank_line": ("1,2\n3,4\n\n", "malformed", 3),
    "whitespace_only_line": ("1,2\n \t \n", "malformed", 2),
    "comment": ("# x\n", "malformed", 1),
    "quoted": ('1,2\n3,"1"\n', "malformed", 2),
    "empty_field": ("1,,2\n", "malformed", 1),
    "bad_entry_line_3": ("1,2\n3,4\n5,zap\n", "malformed", 3),
    "ragged": ("1,2\n3,4\n5\n", "ragged", 3),
    "malformed_before_ragged": ("1,2\n3,x\n5\n", "malformed", 2),
    "nan": ("1,2\nnan,4\n", "finite", None),
    "inf": ("inf\n", "finite", None),
    "overflow": ("1e400,1\n", "finite", None),
    # lines end where str.splitlines ends them, not only at "\n"
    "crlf_ragged": ("1,2\r\n3\r\n", "ragged", 2),
    "no_final_newline": ("1,2\n3,x", "malformed", 2),
    "form_feed_in_row": ("1,\x0c2\n", "malformed", 1),
    "file_separator_in_row": ("1,2\x1c3\n", "ragged", 2),
    "next_line_at_row_end": ("1,2\x85\n3,4\n", "malformed", 2),
    "line_separator_in_row": ("1,2\u20283,4,5\n", "ragged", 2),
}

# text that reads, and the matrix it reads as
ACCEPTED_CORPUS = {
    "crlf": ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
    "no_final_newline": ("1,2\n3,4", [[1, 2], [3, 4]]),
    "form_feed_in_row": ("1,2\x0c3,4\n", [[1, 2], [3, 4]]),
    "file_separator_in_row": ("1,2\x1c3,4\n", [[1, 2], [3, 4]]),
    "next_line_in_row": ("1\x852\n", [[1], [2]]),
    "line_separator_in_row": ("1,2\u20283,4", [[1, 2], [3, 4]]),
}


def _error_kind_and_line(reader, path):
    with pytest.raises(ValueError) as info:
        reader(path)
    message = str(info.value)
    kind = re.search(r"empty|malformed|ragged|finite", message).group(0)
    line = re.match(rf"{re.escape(str(path))}:(\d+):", message)
    return kind, line and int(line.group(1))


class TestMatrixOracles:
    @pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
    def test_writer_bytes_match_oracle(self, tmp_path, name):
        a = ORACLE_MATRICES[name]
        write_matrix(tmp_path / "new.csv", a)
        oracle_write_matrix(tmp_path / "old.csv", a)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
    def test_reader_bits_match_oracle(self, tmp_path, name):
        a = ORACLE_MATRICES[name]
        oracle_write_matrix(tmp_path / "a.csv", a)
        got = read_matrix(tmp_path / "a.csv")
        assert got.shape == a.shape
        assert got.tobytes() == oracle_read_matrix(tmp_path / "a.csv").tobytes()
        assert got.tobytes() == a.tobytes()

    def test_format_float_matches_writer(self):
        for value in ORACLE_MATRICES["special"][0]:
            assert format_float(value) == f"{value:.17g}"

    @pytest.mark.parametrize("case", sorted(REJECTION_CORPUS))
    def test_rejections_match_oracle(self, tmp_path, case):
        text, kind, line = REJECTION_CORPUS[case]
        path = tmp_path / "bad.csv"
        path.write_text(text, newline="")
        assert _error_kind_and_line(oracle_read_matrix, path) == (kind, line)
        assert _error_kind_and_line(read_matrix, path) == (kind, line)
        assert _error_kind_and_line(whole_text_read_matrix, path) == (kind, line)

    @pytest.mark.parametrize("case", sorted(ACCEPTED_CORPUS))
    def test_line_breaks_match_oracle(self, tmp_path, case):
        text, want = ACCEPTED_CORPUS[case]
        path = tmp_path / "a.csv"
        path.write_text(text, newline="")
        for reader in (oracle_read_matrix, whole_text_read_matrix, read_matrix):
            assert reader(path).tobytes() == np.array(want, dtype=np.float64).tobytes()

    @pytest.mark.parametrize(
        "bad, want",
        [({2: "1,x", 60_002: "3"}, ("malformed", 2)),
         ({60_002: "3"}, ("ragged", 60_002)),
         ({2: "3", 60_002: "1,x"}, ("ragged", 2)),
         ({60_002: "1,x"}, ("malformed", 60_002))],
    )
    def test_error_priority_across_a_long_file(self, tmp_path, bad, want):
        # the first bad line is named, however far in, and a malformed
        # line before a ragged one is named first
        lines = ["1,2"] * 60_010
        for lineno, line in bad.items():
            lines[lineno - 1] = line
        path = tmp_path / "long.csv"
        path.write_text("\n".join(lines) + "\n")
        for reader in (oracle_read_matrix, whole_text_read_matrix, read_matrix):
            assert _error_kind_and_line(reader, path) == want

    @pytest.mark.parametrize("last, kind", [("1,x", "malformed"), ("3", "ragged")])
    def test_bad_last_line_is_named_from_one_pass(self, tmp_path, monkeypatch, last, kind):
        # numpy converts each line before it takes the next, so the line the
        # read stopped at is the first bad one: only it is parsed again
        path = tmp_path / "long.csv"
        path.write_text("1,2\n" * 60_009 + last + "\n")
        calls, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
        assert _error_kind_and_line(read_matrix, path) == (kind, 60_010)
        assert len(calls) <= 2 + len(last.split(","))

    @pytest.mark.parametrize("head", [b"", b"1,x\n"])
    def test_undecodable_byte_names_the_path(self, tmp_path, head):
        # past the lines numpy has parsed, and behind a malformed one: the
        # decode error comes first, as when the whole text was decoded, and
        # names the byte's offset in the file, not in the decoder's chunk
        path = tmp_path / "bad.csv"
        path.write_bytes(head + b"1,2\n" * 60_000 + b"1,\xff\n")
        offset = len(head) + 240_002
        message = f"{path}: 'utf-8' codec can't decode byte 0xff in position {offset}: "
        with pytest.raises(ValueError, match=re.escape(message) + "invalid start byte$"):
            read_matrix(path)
        with pytest.raises(UnicodeDecodeError) as exc:
            whole_text_read_matrix(path)
        assert exc.value.start == offset

    @pytest.mark.parametrize(
        "tail, where",
        [(b"1,\xe2\x82\n", "bytes in position 240002-240003: invalid continuation byte"),
         (b"1,\xe2\x82", "bytes in position 240002-240003: unexpected end of data"),
         (b"1,\xc3\x28\n", "byte 0xc3 in position 240002: invalid continuation byte")],
    )
    def test_undecodable_sequence_names_its_file_offsets(self, tmp_path, tail, where):
        # a multibyte sequence cut short, by a line's end or the file's
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n" * 60_000 + tail)
        with pytest.raises(ValueError) as exc:
            read_matrix(path)
        assert str(exc.value) == f"{path}: 'utf-8' codec can't decode {where}"
        with pytest.raises(UnicodeDecodeError) as oracle:
            whole_text_read_matrix(path)
        assert str(oracle.value) == f"'utf-8' codec can't decode {where}"

    def test_file_that_decodes_on_the_reread_keeps_the_first_error(self, tmp_path):
        # the file changed since the read that failed: no line fails now
        path = tmp_path / "fixed.csv"
        path.write_text("1,2\n3,4\n", encoding="utf-8")
        exc = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
        err = matio.undecodable(path, exc)
        assert isinstance(err, ValueError)
        message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert str(err) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["1_0\n", "1,\u0661\n", "\uff11\n"])
    def test_spellings_only_python_float_accepted_are_rejected(self, tmp_path, text):
        # underscores and non-ASCII digits: write_matrix never writes them
        path = tmp_path / "odd.csv"
        path.write_text(text, encoding="utf-8")
        oracle_read_matrix(path)
        assert _error_kind_and_line(read_matrix, path) == ("malformed", 1)


FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)
finite_matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)
matrix_like_text = st.text(alphabet="0123456789,.-+eE \t\n\r_#\"naifNAIF\x0b\x85\u0661")
# any bytes, and invalid UTF-8 after a malformed or ragged line
matrix_like_bytes = st.one_of(
    st.one_of(matrix_like_text, st.text()).map(str.encode),
    st.binary(),
    st.tuples(matrix_like_text, st.sampled_from(["1,2\n3,x\n", "1,2\n3\n", "1\n\n"]),
              matrix_like_text, st.binary(min_size=1))
    .map(lambda parts: "".join(parts[:3]).encode() + parts[3]),
)


class TestMatrixFuzz:
    @FUZZ
    @given(a=finite_matrices)
    def test_round_trip_bit_exact(self, tmp_path_factory, a):
        path = tmp_path_factory.getbasetemp() / "fuzz_round_trip.csv"
        path.unlink(missing_ok=True)  # a new file: writing over one can wait on the disk
        write_matrix(path, a)
        assert read_matrix(path).tobytes() == a.tobytes()

    @FUZZ
    @given(text=st.one_of(matrix_like_text, st.text()))
    def test_any_text_parses_or_raises_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz_text.csv"
        path.unlink(missing_ok=True)  # a new file: writing over one can wait on the disk
        path.write_bytes(text.encode("utf-8"))
        try:
            a = read_matrix(path)
        except ValueError:
            return
        assert a.ndim == 2 and a.size > 0 and np.isfinite(a).all()

    @FUZZ
    @given(a=finite_matrices)
    def test_writer_bytes_match_oracle(self, tmp_path_factory, a):
        new, old = (tmp_path_factory.getbasetemp() / f"fuzz_{n}.csv" for n in ("new", "old"))
        for path in (new, old):  # new files: writing over one can wait on the disk
            path.unlink(missing_ok=True)
        write_matrix(new, a)
        oracle_write_matrix(old, a)
        assert new.read_bytes() == old.read_bytes()

    @FUZZ
    @given(data=matrix_like_bytes)
    def test_streaming_reader_matches_whole_text_reader(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz_stream.csv"
        path.unlink(missing_ok=True)  # a new file: writing over one can wait on the disk
        path.write_bytes(data)
        try:
            want = whole_text_read_matrix(path).tobytes()
        except UnicodeDecodeError as exc:  # the oracle decodes the whole text at once
            want = f"{path}: {exc}"
        except ValueError as exc:
            want = str(exc)
        try:
            got = read_matrix(path).tobytes()
        except ValueError as exc:
            got = str(exc)
        assert got == want


def _tiled(name, entries=2**17):
    """``ORACLE_MATRICES[name]`` repeated by rows to at least ``entries`` entries."""
    a = ORACLE_MATRICES[name]
    return np.tile(a, (-(-entries // a.size), 1))


def _decade_edges(low=-6, high=18):
    """Every power of ten from 10^low to 10^high and the 8 doubles on each
    side of it, in both signs: one row of 17 per power and sign."""
    powers = np.array([float(f"1e{k}") for k in range(low, high + 1)])
    below, above = [powers], [powers]
    for _ in range(8):
        below.append(np.nextafter(below[-1], 0))
        above.append(np.nextafter(above[-1], np.inf))
    edges = np.stack(below[:0:-1] + above, axis=1)
    return np.concatenate([edges, -edges])


def _ties(count=2000):
    """Doubles halfway between two 17-digit decimals: 53-bit odd integers
    times 2^-2 (16 integer digits and .25 or .75) and 2^-3."""
    odd = np.random.default_rng(11).integers(2**52, 2**53, count) | 1
    return np.stack([np.ldexp(odd, -2), -np.ldexp(odd, -3)]).reshape(-1, 10)


def _bit_patterns(count=10**5):
    """``count`` finite doubles with uniformly random bits."""
    bits = np.random.default_rng(12).integers(0, 2**64, 2 * count, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:count].reshape(-1, 100)


def _extremes():
    """Signed zeros, subnormals, the normal extremes and +-max, with values
    in the kernel's range around them."""
    info = np.finfo(np.float64)
    subnormals = np.ldexp(np.random.default_rng(13).integers(1, 2**52, 12), -1074)
    odd = [0.0, -0.0, 5e-324, -5e-324, info.smallest_normal, -info.smallest_normal,
           np.nextafter(info.smallest_normal, 0), info.max, -info.max, *subnormals, *-subnormals]
    return np.array([odd, [1.5] * len(odd), odd[::-1]])


def _short_and_mixed():
    """Values whose 17 digits end in zeros (k / 2^j), integers, zeros and
    values outside the kernel's range, among ordinary ones."""
    rng = np.random.default_rng(17)
    short = rng.integers(-10**6, 10**6, (40, 25)) / 2.0 ** rng.integers(0, 12, (40, 25))
    odd = rng.choice([0.0, -0.0, 3.0, -2.0**52, 1e-5, -3e-300, 2e16, 1e300], (40, 25))
    return np.where(rng.random((40, 25)) < 0.2, odd, short)


EXACTNESS_MATRICES = {
    "decade_edges": _decade_edges(),
    "ties": _ties(),
    "bit_patterns": _bit_patterns(),
    "extremes": _extremes(),
    "short_and_mixed": _short_and_mixed(),
    # many chunks, rows wider than a chunk, and other layouts
    "special_tiled": _tiled("special"),
    "logspace_scaled_tiled": _tiled("logspace_scaled"),
    "rows_wider_than_a_chunk": np.random.default_rng(5).standard_normal((100, 1500)),
    "transposed_view": ORACLE_MATRICES["logspace_scaled"].T,
    "big_endian": ORACLE_MATRICES["many_chunks"].astype(">f8"),
    # other dtypes, converted a chunk at a time
    "float32": np.random.default_rng(6).standard_normal((50, 30)).astype(np.float32),
    "int64": np.random.default_rng(7).integers(-2**62, 2**62, (20, 7)),
}


class TestWriterExactness:
    """``write_matrix`` writes 17 digits with a numpy kernel, exact for the
    values that are not integers with 1e-4 <= |v| < 1e16, and any other
    value by ``%``: either way its bytes are the oracle's per-value ``%.17g``."""

    @pytest.mark.parametrize("name", sorted(EXACTNESS_MATRICES))
    def test_bytes_match_oracle(self, tmp_path, name):
        a = EXACTNESS_MATRICES[name]
        write_matrix(tmp_path / "new.csv", a)
        oracle_write_matrix(tmp_path / "old.csv", a)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_ties_are_ties(self):
        # 18 significant digits ending in 5: %.17g rounds them half to even
        for value in EXACTNESS_MATRICES["ties"][:200:20, 0]:
            digits = Decimal(value).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5

    @pytest.mark.parametrize("a", [
        _decade_edges(-4, 16), _ties(), _short_and_mixed(),
        np.where(np.arange(600).reshape(30, 20) % 7 == 0, -0.0,
                 np.random.default_rng(14).standard_normal((30, 20))),
        np.random.default_rng(15).choice([-1.0, 1.0], (300, 7))
        * 10 ** np.random.default_rng(16).uniform(-4, 15.999, (300, 7)),
    ], ids=["decade_edges", "ties", "short_and_mixed", "signed_zeros", "log_uniform"])
    def test_kernel_writes_its_range(self, a):
        # the kernel writes every value that is not an integer with
        # 1e-4 <= |v| < 1e16, decade edges included, and zeros: in chunks
        # not mostly of others, only nonzero integers and values outside
        # that range reach %
        printed = []

        class Recorded(np.ndarray):
            def tolist(self):
                printed.extend(np.asarray(self).tolist())
                return super().tolist()

        n, step, flat = a.shape[1], matio._chunk_entries(a.shape[1]), a.reshape(-1).view(Recorded)
        with np.errstate(all="ignore"):
            text = b"".join(matio._chunk_text(flat[i : i + step], (n - 1 - i) % n, n)
                            for i in range(0, a.size, step))
        assert text.decode() == "".join(
            f"{v:.17g}" + ("\n" if i % n == n - 1 else ",") for i, v in enumerate(a.flat))
        printed = np.array(printed)
        inside = (np.abs(printed) >= 1e-4) & (np.abs(printed) < 1e16)
        assert np.all((printed != 0) & (~inside | (printed == np.rint(printed))))


class TestMatrixMemory:
    """``write_matrix`` and ``read_matrix`` stream: their peak holds a few
    rows of text besides the array.  The whole-text versions peaked at
    5.46 MB to write and 3.65 MB to read a 300 x 300 matrix (720 KB, 6 KB
    of text a row)."""

    A = np.random.default_rng(3).standard_normal((300, 300))

    @staticmethod
    def _peak(fn, *args):
        fn(*args)  # lazy imports and caches
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_peak_is_a_few_rows_of_text(self, tmp_path):
        path = tmp_path / "a.csv"
        peak = self._peak(write_matrix, path, self.A)  # measured 80 KB
        row_text = path.stat().st_size / len(self.A)
        assert peak < 16 * row_text

    @pytest.mark.parametrize("a", [A.T, np.random.default_rng(3).standard_normal((400, 400)),
                                   A.astype(np.float32), A.astype(">f8")],
                             ids=["transposed_view", "400x400", "float32", "big_endian"])
    def test_write_peak_of_other_layouts_and_sizes(self, tmp_path, a):
        # a transposed view, or another dtype, is written a chunk at a time
        # too, with no C-ordered float64 copy of the whole matrix
        path = tmp_path / "a.csv"
        peak = self._peak(write_matrix, path, a)  # measured 87, 104, 87 and 87 KB
        assert peak < 16 * path.stat().st_size / len(a)

    @pytest.mark.parametrize("shape", [(20000, 3), (3, 20000)], ids=["narrow", "wide"])
    def test_write_peak_is_its_chunk(self, tmp_path, shape):
        # a chunk holds at least CHUNK_FLOOR - n + 1 and at most CHUNK_CAP
        # entries, whatever the rows' text, at about 80 bytes a value
        a = np.random.default_rng(3).standard_normal(shape)
        peak = self._peak(write_matrix, tmp_path / "a.csv", a)  # measured 90 and 335 KB
        assert peak < 100 * matio._chunk_entries(shape[1])

    def test_read_peak_is_the_array_and_a_few_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        write_matrix(path, self.A)
        # numpy grows its output by a fraction as rows arrive; measured 827 KB
        assert self._peak(read_matrix, path) < 1.3 * self.A.nbytes


def _edit_sidecar(**changes):
    def edit(csv, sidecar):
        recipe = json.loads(sidecar.read_text())
        recipe.update(changes)
        sidecar.write_text(json.dumps(recipe))
    return edit


def _write_sidecar(data):
    return lambda csv, sidecar: sidecar.write_bytes(data)


def _remove_key(key):
    return lambda csv, sidecar: sidecar.write_text(json.dumps(
        {k: v for k, v in json.loads(sidecar.read_text()).items() if k != key}))


class TestCertifiedTruth:
    """``read_truth`` rebuilds a ``write_truth`` CSV from its sidecar's
    recipe only while both digests certify it; otherwise it returns what
    ``read_matrix``, the oracle, parses."""

    TRUTH = gen_low_rank(9, 7, 2, 5)

    @pytest.fixture
    def written(self, tmp_path):
        path = tmp_path / "x.csv"
        write_truth(path, self.TRUTH)
        return path, tmp_path / "x.json"

    @staticmethod
    def assert_bit_equal(got, want):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    def test_csv_is_what_write_matrix_writes(self, written, tmp_path):
        path, _ = written
        write_matrix(tmp_path / "plain.csv", self.TRUTH.x)
        assert path.read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_digests_need_no_file_digest(self, tmp_path, monkeypatch):
        # hashlib.file_digest is new in Python 3.11; the project supports 3.10
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        path = tmp_path / "x.csv"
        write_truth(path, self.TRUTH)
        sidecar = json.loads((tmp_path / "x.json").read_text())
        assert sidecar["csv_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert sidecar["x_sha256"] == hashlib.sha256(self.TRUTH.x.tobytes()).hexdigest()
        self.assert_bit_equal(read_truth(path), self.TRUTH.x)

    def test_certified_read_rebuilds_without_parsing(self, written, monkeypatch):
        path, _ = written
        want = read_matrix(path)

        def refuse(p):
            raise AssertionError(f"parsed {p}")

        monkeypatch.setattr(matio, "read_matrix", refuse)
        self.assert_bit_equal(read_truth(path), want)
        self.assert_bit_equal(read_truth(str(path)), want)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda csv, sidecar: sidecar.unlink(),
            _write_sidecar(b'{"m": 9, "n": 7, "rank": 2, "seed": 5}'),  # from before the digests
            _write_sidecar(b'{"m": 9,'),
            _write_sidecar(b'{"m": \xff}'),
            _write_sidecar(b"[]"),
            _write_sidecar(b"null"),
            _write_sidecar(b'"x.csv"'),
            _write_sidecar(b"[" * 100_000 + b"]" * 100_000),
            lambda csv, sidecar: csv.write_bytes(csv.read_bytes().replace(b"1", b"2", 1)),
            _edit_sidecar(seed=6),
            _edit_sidecar(rank=1),
            _edit_sidecar(rank=8),
            _edit_sidecar(seed=-1),
            _edit_sidecar(seed="5"),
            _edit_sidecar(m=9.0),
            _edit_sidecar(m=7, n=9),
            _edit_sidecar(x_sha256="0" * 64),  # as from another numpy or BLAS build
            _edit_sidecar(csv_sha256=None),
            _remove_key("x_sha256"),
        ],
        ids=["no-sidecar", "old-sidecar", "malformed", "undecodable", "list", "null",
             "string", "deep", "csv-byte", "seed", "rank", "bad-rank", "negative-seed",
             "string-seed", "float-m", "transposed", "x-digest", "csv-digest", "no-x-digest"],
    )
    def test_uncertified_read_parses(self, written, monkeypatch, edit):
        path, sidecar = written
        edit(path, sidecar)
        want = read_matrix(path)
        parsed = []
        monkeypatch.setattr(matio, "read_matrix", lambda p: parsed.append(p) or want)
        assert read_truth(path) is want
        assert parsed == [path]

    def test_sidecar_too_large_for_the_file_allocates_nothing(self, written):
        # a forged m·n beyond half the CSV's bytes, with the CSV's own
        # digest: were it rebuilt, the 2000 x 2000 matrix alone is 32 MB
        path, sidecar = written
        _edit_sidecar(m=2000, n=2000)(path, sidecar)
        want = read_matrix(path)
        read_truth(path)  # lazy imports and caches
        tracemalloc.start()
        try:
            got = read_truth(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assert_bit_equal(got, want)
        assert peak < 256 * 1024

    def test_matrix_at_a_json_path_parses(self, written, monkeypatch):
        # its sidecar would be itself
        path, _ = written
        other = path.with_name("t.json")
        other.write_bytes(path.read_bytes())
        parsed = []
        monkeypatch.setattr(matio, "read_matrix", lambda p: parsed.append(p) or read_matrix(p))
        self.assert_bit_equal(read_truth(other), read_matrix(path))
        assert parsed == [other]


def assert_same_design(got, want):
    assert (got.kind, got.m, got.n, got.seed) == (want.kind, want.m, want.n, want.seed)
    for name in ("a_row", "a_col", "row_indices", "col_indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or np.array_equal(a, b), name


class TestDesignDirectory:
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_round_trip(self, tmp_path, kind):
        design = gen_design(kind, 6, 7, 3, 2, seed=11)
        write_design(tmp_path / "d", design)
        loaded = read_design(tmp_path / "d")
        assert_same_design(loaded, design)

    def test_manifest_contents(self, tmp_path):
        import json

        design = gen_design(DesignKind.ROW_COL_SAMPLE, 5, 6, 2, 3, seed=4)
        write_design(tmp_path / "d", design)
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["kind"] == "rowcol"
        assert (manifest["m"], manifest["n"]) == (5, 6)
        assert (manifest["k1"], manifest["k2"]) == (2, 3)
        assert manifest["design_seed"] == 4
        assert sorted(manifest["row_indices"]) == sorted(set(manifest["row_indices"]))

    def test_shape_disagreement_rejected(self, tmp_path):
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, seed=1)
        write_design(tmp_path / "d", design)
        write_matrix(tmp_path / "d" / "design_a_row.csv", np.zeros((3, 4)))
        with pytest.raises(ValueError, match="disagrees"):
            read_design(tmp_path / "d")


def oracle_write_measurement_set(dirpath, meas, design):
    """The writer that wrote manifest.json twice: the design with its
    manifest, the blocks, then the manifest again with the noise fields."""
    write_design(dirpath, design)
    write_matrix(dirpath / "b_row.csv", meas.b_row)
    write_matrix(dirpath / "b_col.csv", meas.b_col)
    manifest = json.loads((dirpath / "manifest.json").read_text())
    manifest.update(sigma=meas.sigma, noise_seed=meas.noise_seed)
    matio.write_json(dirpath / "manifest.json", manifest)


class TestMeasurementSetDirectory:
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_manifest_written_once_and_bytes_unchanged(self, tmp_path, monkeypatch, kind):
        design = gen_design(kind, 6, 5, 3, 2, seed=1)
        meas = measure(gen_low_rank(6, 5, 2, seed=1).x, design, 0.01, 2)
        oracle_write_measurement_set(tmp_path / "old", meas, design)
        written, write_json = [], matio.write_json
        monkeypatch.setattr(matio, "write_json", lambda path, payload: (
            written.append(path), write_json(path, payload)))
        write_measurement_set(tmp_path / "new", meas, design)
        assert written == [tmp_path / "new" / "manifest.json"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "new").iterdir()} == {
            p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()}

    def test_round_trip(self, tmp_path):
        truth = gen_low_rank(6, 8, 2, seed=2)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 6, 8, 3, 2, seed=3)
        meas = measure(truth.x, design, 0.01, noise_seed=9)
        write_measurement_set(tmp_path / "meas", meas, design)
        loaded_meas, loaded_design = read_measurement_set(tmp_path / "meas")
        assert np.array_equal(loaded_meas.b_row, meas.b_row)
        assert np.array_equal(loaded_meas.b_col, meas.b_col)
        assert loaded_meas.sigma == 0.01
        assert loaded_design.seed == 3
        assert loaded_meas.noise_seed == 9
        assert_same_design(loaded_design, design)

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_expected_files_present(self, tmp_path, kind):
        truth = gen_low_rank(5, 5, 1, seed=1)
        design = gen_design(kind, 5, 5, 2, 2, seed=1)
        meas = measure(truth.x, design, 0.0, 0)
        write_measurement_set(tmp_path / "meas", meas, design)
        names = sorted(p.name for p in (tmp_path / "meas").iterdir())
        # a sampling design is its manifest's index lists
        design_files = ["design_a_col.csv", "design_a_row.csv"]
        if kind is DesignKind.ROW_COL_SAMPLE:
            design_files = []
        assert names == ["b_col.csv", "b_row.csv", *design_files, "manifest.json"]

    def test_directory_with_selection_csvs_still_reads(self, tmp_path):
        # Sampling directories used to carry their 0/1 selection matrices
        # as design_a_row.csv and design_a_col.csv; they read back the same.
        truth = gen_low_rank(6, 8, 2, seed=2)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 6, 8, 3, 2, seed=3)
        meas = measure(truth.x, design, 0.01, noise_seed=9)
        write_measurement_set(tmp_path / "meas", meas, design)
        write_matrix(tmp_path / "meas" / "design_a_row.csv", np.eye(6)[design.row_indices])
        write_matrix(
            tmp_path / "meas" / "design_a_col.csv", np.eye(8)[:, design.col_indices]
        )
        loaded_meas, loaded_design = read_measurement_set(tmp_path / "meas")
        assert_same_design(loaded_design, design)
        assert_same_design(read_design(tmp_path / "meas"), design)
        assert np.array_equal(loaded_meas.b_row, meas.b_row)
        assert np.array_equal(loaded_meas.b_col, meas.b_col)
        assert (loaded_meas.sigma, loaded_design.seed, loaded_meas.noise_seed) == (
            meas.sigma,
            design.seed,
            meas.noise_seed,
        )

    def test_missing_manifest_field_rejected(self, tmp_path):
        import json

        truth = gen_low_rank(4, 4, 1, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, seed=1)
        meas = measure(truth.x, design, 0.0, 0)
        write_measurement_set(tmp_path / "meas", meas, design)
        manifest_path = tmp_path / "meas" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["sigma"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="missing field"):
            read_measurement_set(tmp_path / "meas")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("noise_seed", None, "noise_seed must be an integer"),
            ("noise_seed", False, "noise_seed must be an integer"),
            ("noise_seed", 2.0, "noise_seed must be an integer"),
            ("sigma", None, "sigma must be"),
            ("sigma", True, "sigma must be"),
            ("sigma", "0.1", "sigma must be"),
            ("sigma", -0.5, "sigma must be"),
            ("sigma", float("nan"), "sigma must be"),
            ("sigma", float("inf"), "sigma must be"),
            pytest.param("sigma", 10**400, "sigma must be", id="sigma-huge_int"),
        ],
    )
    def test_bad_noise_scalar_rejected(self, tmp_path, key, value, message):
        truth = gen_low_rank(4, 4, 1, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, seed=1)
        write_measurement_set(tmp_path / "meas", measure(truth.x, design, 0.0, 0), design)
        _tamper_manifest(tmp_path / "meas", lambda mf: mf.update({key: value}))
        with pytest.raises(ValueError, match=message):
            read_measurement_set(tmp_path / "meas")

    def test_integer_sigma_accepted(self, tmp_path):
        truth = gen_low_rank(4, 4, 1, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, seed=1)
        write_measurement_set(tmp_path / "meas", measure(truth.x, design, 0.0, 0), design)
        _tamper_manifest(tmp_path / "meas", lambda mf: mf.update(sigma=0))
        meas, _ = read_measurement_set(tmp_path / "meas")
        assert meas.sigma == 0.0 and isinstance(meas.sigma, float)

    def test_block_shape_disagreement_rejected(self, tmp_path):
        truth = gen_low_rank(4, 4, 1, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, seed=1)
        meas = measure(truth.x, design, 0.0, 0)
        write_measurement_set(tmp_path / "meas", meas, design)
        write_matrix(tmp_path / "meas" / "b_row.csv", np.zeros((1, 4)))
        with pytest.raises(ValueError, match="disagrees"):
            read_measurement_set(tmp_path / "meas")

    def test_malformed_manifest_rejected(self, tmp_path):
        (tmp_path / "meas").mkdir()
        (tmp_path / "meas" / "manifest.json").write_text("{no json")
        with pytest.raises(ValueError, match="malformed JSON"):
            read_measurement_set(tmp_path / "meas")


def _tamper_manifest(dirpath, edit):
    path = dirpath / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


BAD_INDEX_EDITS = {
    "out_of_range": (
        lambda mf: mf.update(row_indices=[99] + mf["row_indices"][1:]), "outside"),
    "negative": (
        lambda mf: mf.update(col_indices=[-1] + mf["col_indices"][1:]), "outside"),
    "repeated": (
        lambda mf: mf.update(row_indices=mf["row_indices"][:1] * 3), "repeats"),
    "wrong_length": (
        lambda mf: mf.update(col_indices=mf["col_indices"][:-1]), "entries, expected"),
    "not_integers": (
        lambda mf: mf.update(row_indices=[1.5] + mf["row_indices"][1:]), "list of integers"),
    "missing": (lambda mf: mf.pop("col_indices"), "missing field 'col_indices'"),
}


class TestSamplingIndices:
    @pytest.fixture
    def meas_dir(self, tmp_path):
        truth = gen_low_rank(30, 20, 2, seed=1)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 30, 20, 3, 3, seed=2)
        write_measurement_set(tmp_path / "meas", measure(truth.x, design, 0.0, 0), design)
        return tmp_path / "meas"

    def test_valid_indices_round_trip(self, meas_dir):
        _, design = read_measurement_set(meas_dir)
        assert_same_design(design, gen_design(DesignKind.ROW_COL_SAMPLE, 30, 20, 3, 3, seed=2))

    @pytest.mark.parametrize("case", sorted(BAD_INDEX_EDITS))
    def test_bad_indices_rejected(self, meas_dir, case):
        edit, message = BAD_INDEX_EDITS[case]
        _tamper_manifest(meas_dir, edit)
        with pytest.raises(ValueError, match=message):
            read_measurement_set(meas_dir)
        with pytest.raises(ValueError, match=message):
            read_design(meas_dir)


class TestDesignManifestFields:
    @pytest.mark.parametrize(
        "field", ["kind", "m", "n", "k1", "k2", "design_seed"]
    )
    def test_missing_design_field_rejected(self, tmp_path, field):
        write_design(tmp_path / "d", gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, 0))
        _tamper_manifest(tmp_path / "d", lambda mf: mf.pop(field))
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            read_design(tmp_path / "d")

    @pytest.mark.parametrize("value", [None, True, 1.0, "3", [1]])
    def test_non_integer_design_seed_rejected(self, tmp_path, value):
        write_design(tmp_path / "d", gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, 0))
        _tamper_manifest(tmp_path / "d", lambda mf: mf.update(design_seed=value))
        with pytest.raises(ValueError, match="design_seed must be an integer"):
            read_design(tmp_path / "d")

    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("key", ["design_seed", "noise_seed"])
    @pytest.mark.parametrize("value", [-1, -3, -(2**70)])
    def test_negative_seed_rejected(self, tmp_path, kind, key, value):
        # the library refuses to draw from a negative seed, so no reader
        # hands one on
        design = gen_design(kind, 6, 5, 3, 2, seed=1)
        meas = measure(gen_low_rank(6, 5, 2, seed=1).x, design, 0.01, 2)
        write_measurement_set(tmp_path / "d", meas, design)
        _tamper_manifest(tmp_path / "d", lambda mf: mf.update({key: value}))
        message = re.escape(f"{tmp_path / 'd'}: {key} must be a nonnegative integer")
        with pytest.raises(ValueError, match=message):
            read_measurement_set(tmp_path / "d")
        if key == "design_seed":
            with pytest.raises(ValueError, match=message):
                read_design(tmp_path / "d")

    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("seed", [0, 2**63, 2**70, 2**200])
    def test_any_nonnegative_seed_reads(self, tmp_path, kind, seed):
        design = gen_design(kind, 6, 5, 3, 2, seed=1)
        meas = measure(gen_low_rank(6, 5, 2, seed=1).x, design, 0.01, 2)
        write_measurement_set(tmp_path / "d", meas, design)
        _tamper_manifest(tmp_path / "d", lambda mf: mf.update(design_seed=seed, noise_seed=seed))
        got_meas, got_design = read_measurement_set(tmp_path / "d")
        assert got_design.seed == got_meas.noise_seed == read_design(tmp_path / "d").seed == seed

    @pytest.mark.parametrize("value", ["foo", 3, "Gaussian", None, [1]])
    def test_unknown_kind_names_its_directory(self, tmp_path, value):
        write_design(tmp_path / "d", gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, 0))
        _tamper_manifest(tmp_path / "d", lambda mf: mf.update(kind=value))
        message = f"{tmp_path / 'd'}: kind must be one of ['gaussian', 'rowcol'], got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_design(tmp_path / "d")

    def test_gaussian_manifest_with_indices_rejected(self, tmp_path):
        write_design(tmp_path / "d", gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, 0))
        _tamper_manifest(tmp_path / "d", lambda mf: mf.update(row_indices=[0, 1]))
        with pytest.raises(ValueError, match="no sampling indices"):
            read_design(tmp_path / "d")

    def test_non_object_manifest_rejected(self, tmp_path):
        write_design(tmp_path / "d", gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, 0))
        (tmp_path / "d" / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            read_design(tmp_path / "d")

    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize(
        "field, value",
        [("m", "30"), ("n", None), ("k1", True), ("k2", 0), ("m", -4), ("n", 5.0),
         ("k1", 2**63), ("k2", [2])],
    )
    def test_bad_dimension_rejected(self, tmp_path, kind, field, value):
        write_design(tmp_path / "d", gen_design(kind, 4, 5, 2, 2, 0))
        _tamper_manifest(tmp_path / "d", lambda mf: mf.update({field: value}))
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            read_design(tmp_path / "d")


MANIFEST_KEYS = (*DESIGN_FIELDS, *NOISE_FIELDS, "row_indices", "col_indices")
DELETE = object()
json_scalars = (
    st.none() | st.booleans() | st.integers(-2, 12) | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from([kind.value for kind in DesignKind])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
manifest_edits = st.dictionaries(
    st.sampled_from(MANIFEST_KEYS), json_values | st.just(DELETE), max_size=4
)


class TestManifestFuzz:
    """Any JSON in manifest.json gives a design (and measurement set) or
    one ValueError, never another exception."""

    @pytest.fixture(scope="class")
    def meas_dirs(self, tmp_path_factory):
        dirs = {}
        for kind in DesignKind:
            design = gen_design(kind, 6, 5, 3, 2, seed=1)
            meas = measure(gen_low_rank(6, 5, 2, seed=1).x, design, 0.01, 2)
            dirs[kind] = tmp_path_factory.mktemp(kind.value)
            write_measurement_set(dirs[kind], meas, design)
        return dirs

    @FUZZ
    @given(
        kind=st.sampled_from(DesignKind),
        edits=manifest_edits,
        whole=st.none() | json_values,
    )
    def test_any_manifest_reads_or_raises_value_error(self, meas_dirs, kind, edits, whole):
        dirpath = meas_dirs[kind]
        path = dirpath / "manifest.json"
        original = path.read_text()
        manifest = json.loads(original)
        for key, value in edits.items():
            if value is DELETE:
                manifest.pop(key, None)
            else:
                manifest[key] = value
        path.unlink()  # new files: writing over one can wait on the disk
        path.write_text(json.dumps(manifest if whole is None else whole))
        try:
            for read in (read_design, read_measurement_set):
                try:
                    got = read(dirpath)
                except ValueError:
                    continue
                design = got if read is read_design else got[1]
                assert isinstance(design, MeasurementDesign)
                assert design.seed >= 0
                if read is read_measurement_set:
                    assert got[0].noise_seed >= 0
                    assert got[0].b_row.shape == (design.k1, design.n)
                    assert got[0].b_col.shape == (design.m, design.k2)
        finally:
            path.unlink()
            path.write_text(original)
