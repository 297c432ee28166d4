import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from svls.matio import (
    DESIGN_FIELDS,
    NOISE_FIELDS,
    format_float,
    read_design,
    read_matrix,
    read_measurement_set,
    write_design,
    write_matrix,
    write_measurement_set,
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
    }


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


class TestMatrixFuzz:
    @FUZZ
    @given(a=finite_matrices)
    def test_round_trip_bit_exact(self, tmp_path_factory, a):
        path = tmp_path_factory.getbasetemp() / "fuzz_round_trip.csv"
        write_matrix(path, a)
        assert read_matrix(path).tobytes() == a.tobytes()

    @FUZZ
    @given(text=st.one_of(matrix_like_text, st.text()))
    def test_any_text_parses_or_raises_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz_text.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            a = read_matrix(path)
        except ValueError:
            return
        assert a.ndim == 2 and a.size > 0 and np.isfinite(a).all()


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


class TestMeasurementSetDirectory:
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
            path.write_text(original)
