import json

import numpy as np
import pytest

from svls.matio import (
    format_float,
    read_design,
    read_matrix,
    read_measurement_set,
    write_design,
    write_matrix,
    write_measurement_set,
)
from svls.measurements import DesignKind, gen_design, gen_low_rank, measure


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


class TestDesignDirectory:
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_round_trip(self, tmp_path, kind):
        design = gen_design(kind, 6, 7, 3, 2, seed=11)
        write_design(tmp_path / "d", design)
        loaded = read_design(tmp_path / "d")
        assert loaded.kind is kind
        assert np.array_equal(loaded.a_row, design.a_row)
        assert np.array_equal(loaded.a_col, design.a_col)
        assert loaded.seed == design.seed
        if kind is DesignKind.ROW_COL_SAMPLE:
            assert np.array_equal(loaded.row_indices, design.row_indices)
            assert np.array_equal(loaded.col_indices, design.col_indices)
        else:
            assert loaded.row_indices is None

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
        assert loaded_meas.design_seed == 3
        assert loaded_meas.noise_seed == 9
        assert loaded_meas.total_measurements == meas.total_measurements
        assert loaded_meas.distinct_measurements == meas.distinct_measurements
        assert np.array_equal(loaded_design.a_row, design.a_row)

    def test_expected_files_present(self, tmp_path):
        truth = gen_low_rank(5, 5, 1, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 5, 5, 2, 2, seed=1)
        meas = measure(truth.x, design, 0.0, 0)
        write_measurement_set(tmp_path / "meas", meas, design)
        names = sorted(p.name for p in (tmp_path / "meas").iterdir())
        assert names == [
            "b_col.csv",
            "b_row.csv",
            "design_a_col.csv",
            "design_a_row.csv",
            "manifest.json",
        ]

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


def _shift_first_row_index(manifest):
    # a valid, distinct index that the 1 entries of design_a_row.csv do not use
    used = set(manifest["row_indices"])
    manifest["row_indices"][0] = min(set(range(manifest["m"])) - used)


def _shift_first_col_index(manifest):
    used = set(manifest["col_indices"])
    manifest["col_indices"][0] = min(set(range(manifest["n"])) - used)


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
    "disagrees_with_a_row": (_shift_first_row_index, "design_a_row.csv"),
    "disagrees_with_a_col": (_shift_first_col_index, "design_a_col.csv"),
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
        assert np.array_equal(design.a_row[np.arange(3), design.row_indices], np.ones(3))
        assert np.array_equal(design.a_col[design.col_indices, np.arange(3)], np.ones(3))

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

    def test_non_object_manifest_rejected(self, tmp_path):
        write_design(tmp_path / "d", gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, 0))
        (tmp_path / "d" / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            read_design(tmp_path / "d")
