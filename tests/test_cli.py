import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svls import cli
from svls.cli import build_parser, main
from svls.matio import (
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
from svls.recovery import block_residuals
from svls.simulate import RECORD_COLUMNS


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def pipeline(tmp_path):
    """gen-matrix -> gen-design -> measure, returning the artifact paths."""
    x = tmp_path / "x.csv"
    design = tmp_path / "design"
    meas = tmp_path / "meas"
    assert run_cli("gen-matrix", "--m", 12, "--n", 10, "--rank", 2,
                   "--seed", 7, "--out", x) == 0
    assert run_cli("gen-design", "--kind", "gaussian", "--m", 12, "--n", 10,
                   "--k1", 3, "--k2", 3, "--seed", 5, "--out", design) == 0
    assert run_cli("measure", "--x", x, "--design", design, "--sigma", 0,
                   "--noise-seed", 1, "--out", meas) == 0
    return x, design, meas


class TestGenMatrix:
    def test_writes_matrix_and_sidecar(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli("gen-matrix", "--m", 5, "--n", 4, "--rank", 2,
                       "--seed", 3, "--out", out) == 0
        x = read_matrix(out)
        assert x.shape == (5, 4)
        assert np.array_equal(x, gen_low_rank(5, 4, 2, 3).x)
        sidecar = json.loads((tmp_path / "x.json").read_text())
        assert sidecar == {
            "m": 5, "n": 4, "rank": 2, "seed": 3,
            "csv_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
            "x_sha256": hashlib.sha256(x.tobytes()).hexdigest(),
        }

    def test_zero_dimension_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen-matrix", "--m", 0, "--n", 5, "--rank", 1,
                    "--out", tmp_path / "x.csv")
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen-matrix", "--m", 2, "--n", 2, "--rank", 1,
                    "--out", tmp_path / "x.csv", "--bogus", 1)
        assert exc.value.code == 2

    def test_invalid_rank_is_runtime_error(self, tmp_path, capsys):
        code = run_cli("gen-matrix", "--m", 2, "--n", 2, "--rank", 5,
                       "--seed", 0, "--out", tmp_path / "x.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_default_seeds_draw_distinct_streams(self, tmp_path):
        # equal seeds draw equal numbers, so the truth's left factor, the design's
        # a_row and b_row's noise would coincide under one default seed
        m, n, r = 40, 30, 3
        x, design = tmp_path / "x.csv", tmp_path / "design"
        assert run_cli("gen-matrix", "--m", m, "--n", n, "--rank", r, "--out", x) == 0
        assert run_cli("gen-design", "--kind", "gaussian", "--m", m, "--n", n,
                       "--k1", 4, "--k2", 4, "--out", design) == 0
        sets = []
        for sigma in (0, 1):
            out = tmp_path / f"meas{sigma}"
            assert run_cli("measure", "--x", x, "--design", design, "--sigma", sigma,
                           "--out", out) == 0
            sets.append(read_measurement_set(out))
        (quiet, gaussian), (noisy, _) = sets
        left = gen_low_rank(m, n, r, 0).left_factor.ravel()
        a_row = gaussian.a_row.ravel()
        noise = (noisy.b_row - quiet.b_row).ravel()
        for one, other in [(a_row, left), (noise, left), (noise, a_row)]:
            k = min(one.size, other.size)
            assert not np.allclose(one[:k], other[:k])

    @pytest.mark.parametrize("value", ["99", "junk"])
    def test_environment_is_ignored(self, tmp_path, monkeypatch, value):
        assert run_cli("gen-matrix", "--m", 4, "--n", 4, "--rank", 1, "--seed", 0,
                       "--out", tmp_path / "flag.csv") == 0
        monkeypatch.setenv("RC_RECOVER_SEED", value)
        assert run_cli("gen-matrix", "--m", 4, "--n", 4, "--rank", 1,
                       "--out", tmp_path / "env.csv") == 0
        for suffix in (".csv", ".json"):
            env, flag = (tmp_path / f"{name}{suffix}" for name in ("env", "flag"))
            assert env.read_bytes() == flag.read_bytes()

    @pytest.mark.parametrize("name", ["t.json", "x.csv.json"])
    def test_out_that_its_metadata_would_overwrite_refused(self, tmp_path, capsys, name):
        # the metadata goes to out.with_suffix(".json"), the matrix's own path
        out = tmp_path / name
        code = run_cli("gen-matrix", "--m", 3, "--n", 3, "--rank", 1, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(out) in err
        assert list(tmp_path.iterdir()) == []


class TestMeasureAndRecover:
    def test_recover_svls_noiseless(self, pipeline, tmp_path):
        x, _, meas = pipeline
        out = tmp_path / "rec"
        assert run_cli("recover", "--meas", meas, "--algo", "svls",
                       "--rank", 2, "--truth", x, "--out", out) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["algorithm"] == "svls"
        assert result["relative_error"] <= 1e-8
        assert result["x_hat"] == "x_hat.csv"
        assert "converged" not in result  # one-shot solvers leave it None
        x_hat = read_matrix(out / "x_hat.csv")
        assert np.allclose(x_hat, read_matrix(x), atol=1e-8)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["algorithm"] == "svls"
        assert manifest["noise_seed"] == 1

    def test_recover_all_ones_fixture(self, tmp_path):
        # 2x2 all-ones target observed through row 0 and column 0
        x_path = tmp_path / "ones.csv"
        write_matrix(x_path, np.full((2, 2), 1.0))
        design = MeasurementDesign(
            kind=DesignKind.ROW_COL_SAMPLE,
            m=2,
            n=2,
            seed=0,
            row_indices=np.array([0]),
            col_indices=np.array([0]),
        )
        meas = measure(np.full((2, 2), 1.0), design, 0.0, 0)
        meas_dir = tmp_path / "meas"
        write_measurement_set(meas_dir, meas, design)
        out = tmp_path / "rec"
        assert run_cli("recover", "--meas", meas_dir, "--algo", "svls",
                       "--rank", 1, "--truth", x_path, "--out", out) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["relative_error"] <= 1e-10

    def test_recover_cur_on_sampling_design(self, tmp_path):
        x_path = tmp_path / "x.csv"
        run_cli("gen-matrix", "--m", 10, "--n", 9, "--rank", 2, "--seed", 1,
                "--out", x_path)
        run_cli("gen-design", "--kind", "rowcol", "--m", 10, "--n", 9,
                "--k1", 2, "--k2", 2, "--seed", 2, "--out", tmp_path / "d")
        run_cli("measure", "--x", x_path, "--design", tmp_path / "d",
                "--sigma", 0, "--out", tmp_path / "meas")
        assert run_cli("recover", "--meas", tmp_path / "meas", "--algo", "cur",
                       "--rank", 2, "--truth", x_path,
                       "--out", tmp_path / "rec") == 0
        result = json.loads((tmp_path / "rec" / "result.json").read_text())
        assert result["relative_error"] <= 1e-10
        assert result["rank_used"] == 2
        # every algorithm runs on a sampling design: pin each key set
        one_shot = {"algorithm", "rank_used", "row_residual", "col_residual",
                    "runtime_seconds", "relative_error", "x_hat"}
        iterative = one_shot | {"iterations", "final_objective", "converged"}
        for algo, keys in [("svls", one_shot), ("cur", one_shot),
                           ("als", iterative), ("svp", iterative)]:
            out = tmp_path / f"rec_{algo}"
            assert run_cli("recover", "--meas", tmp_path / "meas", "--algo", algo,
                           "--rank", 2, "--truth", x_path, "--out", out) == 0
            assert set(json.loads((out / "result.json").read_text())) == keys, algo

    def test_recover_als_and_svp(self, pipeline, tmp_path):
        x, _, meas = pipeline
        for algo in ("als", "svp"):
            out = tmp_path / f"rec_{algo}"
            assert run_cli("recover", "--meas", meas, "--algo", algo,
                           "--rank", 2, "--truth", x, "--out", out) == 0
            result = json.loads((out / "result.json").read_text())
            assert result["algorithm"] == algo
            assert result["iterations"] >= 1
            assert "final_objective" in result
            assert isinstance(result["converged"], bool)
            assert result["row_residual"] >= 0
            assert result["col_residual"] >= 0

    @pytest.mark.parametrize("kind", ["gaussian", "rowcol"])
    def test_recover_svp_residuals_are_its_block_residuals(self, monkeypatch, tmp_path, kind):
        # svp runs on the design itself and splits its own final residual
        results = []
        svp_recover = cli.svp_recover

        def spy(*args, **kwargs):
            results.append(svp_recover(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "svp_recover", spy)
        x = tmp_path / "x.csv"
        run_cli("gen-matrix", "--m", 12, "--n", 10, "--rank", 2, "--seed", 7, "--out", x)
        run_cli("gen-design", "--kind", kind, "--m", 12, "--n", 10, "--k1", 3, "--k2", 3,
                "--seed", 5, "--out", tmp_path / "design")
        run_cli("measure", "--x", x, "--design", tmp_path / "design", "--sigma", 0.01,
                "--noise-seed", 1, "--out", tmp_path / "meas")
        out = tmp_path / "rec"
        assert run_cli("recover", "--meas", tmp_path / "meas", "--algo", "svp",
                       "--rank", 2, "--out", out) == 0
        (result,) = results
        meas, design = read_measurement_set(tmp_path / "meas")
        want = block_residuals(result.left, result.right, design, meas)
        written = json.loads((out / "result.json").read_text())
        b_norm = np.hypot(np.linalg.norm(meas.b_row), np.linalg.norm(meas.b_col))
        assert np.allclose((written["row_residual"], written["col_residual"]), want,
                           rtol=0, atol=1e-12 * b_norm)

    def test_recover_rank_auto(self, pipeline, tmp_path):
        x, _, meas = pipeline
        out = tmp_path / "rec_auto"
        assert run_cli("recover", "--meas", meas, "--algo", "svls",
                       "--rank", "auto", "--truth", x, "--out", out) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["rank_used"] == 2
        assert result["relative_error"] <= 1e-8

    def test_recover_cur_rank_auto_on_zero_blocks(self, tmp_path):
        # cur takes its rank from the overlap block, so auto estimates none
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 6, 5, 2, 2, seed=3)
        write_measurement_set(tmp_path / "meas", measure(np.zeros((6, 5)), design, 0.0, 0), design)
        out = tmp_path / "rec"
        assert run_cli("recover", "--meas", tmp_path / "meas", "--algo", "cur",
                       "--rank", "auto", "--out", out) == 0
        assert json.loads((out / "result.json").read_text())["rank_used"] == 0
        assert json.loads((out / "manifest.json").read_text())["rank"] == "auto"
        assert np.array_equal(read_matrix(out / "x_hat.csv"), np.zeros((6, 5)))

    def test_recover_svls_rank_auto_on_zero_blocks_is_runtime_error(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        write_matrix(x, np.zeros((6, 5)))
        assert run_cli("gen-design", "--kind", "gaussian", "--m", 6, "--n", 5,
                       "--k1", 2, "--k2", 2, "--out", tmp_path / "design") == 0
        assert run_cli("measure", "--x", x, "--design", tmp_path / "design", "--sigma", 0,
                       "--out", tmp_path / "meas") == 0
        capsys.readouterr()
        assert run_cli("recover", "--meas", tmp_path / "meas", "--algo", "svls",
                       "--rank", "auto", "--out", tmp_path / "rec") == 1
        assert capsys.readouterr().err == "error: estimated rank is 0; supply --rank explicitly\n"

    def test_recover_missing_measurement_dir(self, tmp_path, capsys):
        code = run_cli("recover", "--meas", tmp_path / "nope", "--algo", "svls",
                       "--rank", 2, "--out", tmp_path / "rec")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_measure_infinite_sigma_is_usage_error(self, pipeline, tmp_path):
        x, design, _ = pipeline
        out = tmp_path / "meas-inf"
        with pytest.raises(SystemExit) as exc:
            run_cli("measure", "--x", x, "--design", design, "--sigma", "inf",
                    "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    def test_measure_dimension_mismatch(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        write_matrix(x_path, np.zeros((3, 3)))
        write_design(tmp_path / "d", gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, 0))
        code = run_cli("measure", "--x", x_path, "--design", tmp_path / "d",
                       "--sigma", 0, "--out", tmp_path / "meas")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("row_indices", [99, 1, 2]),  # out of range for 30 rows
            ("row_indices", [0, 0, 2]),  # repeated
            ("row_indices", [0, 1]),  # wrong length
        ],
        ids=["out_of_range", "repeated", "wrong_length"],
    )
    def test_recover_bad_sampling_indices(self, tmp_path, capsys, key, value):
        truth = gen_low_rank(30, 20, 2, seed=1)
        design = MeasurementDesign(
            kind=DesignKind.ROW_COL_SAMPLE,
            m=30,
            n=20,
            seed=0,
            row_indices=np.array([0, 1, 2]),
            col_indices=np.array([0, 1, 2]),
        )
        meas = tmp_path / "meas"
        write_measurement_set(meas, measure(truth.x, design, 0.0, 0), design)
        manifest = json.loads((meas / "manifest.json").read_text())
        manifest[key] = value
        (meas / "manifest.json").write_text(json.dumps(manifest))
        code = run_cli("recover", "--meas", meas, "--algo", "cur", "--rank", 2,
                       "--out", tmp_path / "rec")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "rec").exists()

    def test_measure_design_missing_seed(self, pipeline, tmp_path, capsys):
        x, design, _ = pipeline
        manifest = json.loads((design / "manifest.json").read_text())
        del manifest["design_seed"]
        (design / "manifest.json").write_text(json.dumps(manifest))
        code = run_cli("measure", "--x", x, "--design", design, "--sigma", 0,
                       "--out", tmp_path / "meas2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "design_seed" in err

    @pytest.mark.parametrize(
        "key, value, message",
        [("design_seed", -3, "design_seed must be a nonnegative integer"),
         ("kind", "foo", "kind must be one of ['gaussian', 'rowcol'], got 'foo'"),
         ("kind", 3, "kind must be one of ['gaussian', 'rowcol'], got 3")],
        ids=["design_seed_negative", "kind_foo", "kind_3"],
    )
    def test_measure_bad_design_manifest(self, pipeline, tmp_path, capsys, key, value, message):
        x, design, _ = pipeline
        manifest = json.loads((design / "manifest.json").read_text())
        manifest[key] = value
        (design / "manifest.json").write_text(json.dumps(manifest))
        code = run_cli("measure", "--x", x, "--design", design, "--sigma", 0,
                       "--out", tmp_path / "meas2")
        assert code == 1
        assert capsys.readouterr().err == f"error: {design}: {message}\n"
        assert not (tmp_path / "meas2").exists()

    @pytest.fixture
    def rowcol_meas(self, tmp_path):
        truth = gen_low_rank(30, 20, 2, seed=1)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 30, 20, 3, 3, seed=2)
        meas = tmp_path / "meas"
        write_measurement_set(meas, measure(truth.x, design, 0.0, 0), design)
        return meas

    @pytest.mark.parametrize(
        "key, value",
        [("sigma", None), ("noise_seed", [1]), ("design_seed", None), ("noise_seed", -3),
         ("design_seed", -3), ("kind", "foo"), ("kind", 3)],
        ids=["sigma_null", "noise_seed_list", "design_seed_null", "noise_seed_negative",
             "design_seed_negative", "kind_foo", "kind_3"],
    )
    def test_recover_bad_manifest_scalar(self, rowcol_meas, tmp_path, capsys, key, value):
        manifest = json.loads((rowcol_meas / "manifest.json").read_text())
        manifest[key] = value
        (rowcol_meas / "manifest.json").write_text(json.dumps(manifest))
        code = run_cli("recover", "--meas", rowcol_meas, "--algo", "cur", "--rank", 2,
                       "--out", tmp_path / "rec")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rowcol_meas}: ") and err.count("\n") == 1 and key in err

    @pytest.mark.parametrize(
        "key, value",
        [("m", "30"), ("n", None), ("k1", True), ("k2", 0), ("m", 2**63)],
        ids=["m_string", "n_null", "k1_bool", "k2_zero", "m_huge"],
    )
    def test_recover_bad_manifest_dimension(self, rowcol_meas, tmp_path, capsys, key, value):
        # a sampling design is its manifest, so its sizes are checked there
        manifest = json.loads((rowcol_meas / "manifest.json").read_text())
        manifest[key] = value
        (rowcol_meas / "manifest.json").write_text(json.dumps(manifest))
        code = run_cli("recover", "--meas", rowcol_meas, "--algo", "cur", "--rank", 2,
                       "--out", tmp_path / "rec")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err
        assert not (tmp_path / "rec").exists()

    def test_measure_malformed_entry_names_line(self, pipeline, tmp_path, capsys):
        x, design, _ = pipeline
        lines = x.read_text().splitlines()
        lines[2] = lines[2].replace(",", ",zap", 1)
        x.write_text("\n".join(lines) + "\n")
        code = run_cli("measure", "--x", x, "--design", design, "--sigma", 0,
                       "--out", tmp_path / "meas2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{x}:3: malformed" in err

    def test_undecodable_files_name_their_path(self, pipeline, tmp_path, capsys):
        # the bad byte sits past the first lines numpy parses
        x, design, meas = pipeline
        x.write_bytes(x.read_bytes() * 500 + b"1,\xff\n")
        (meas / "manifest.json").write_bytes(b'{"m": \xff}')
        records = tmp_path / "records.csv"
        records.write_bytes(",".join(RECORD_COLUMNS).encode() + b"\n\xff\n")
        for argv, path in [
            (("measure", "--x", x, "--design", design, "--sigma", 0, "--out", tmp_path / "m"), x),
            (("recover", "--meas", meas, "--algo", "cur", "--rank", 2, "--out", tmp_path / "r"),
             meas / "manifest.json"),
            (("summarize", "--in", records, "--out", tmp_path / "s.csv"), records),
        ]:
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
            assert err.count("\n") == 1

    def test_matrix_round_trip_through_cli(self, pipeline):
        x, _, _ = pipeline
        assert np.array_equal(read_matrix(x), gen_low_rank(12, 10, 2, 7).x)


class TestCertifiedPipeline:
    """``measure --x`` and ``recover --truth`` rebuild a gen-matrix truth
    from its sidecar; without the sidecar they parse ``x.csv``.  Every
    output byte is the same either way."""

    @staticmethod
    def outputs(dirpath):
        files = {}
        for path in sorted(p for p in dirpath.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "result.json":
                result = json.loads(data)
                del result["runtime_seconds"]
                data = json.dumps(result, sort_keys=True).encode()
            files[path.relative_to(dirpath)] = data
        return files

    @pytest.mark.parametrize(
        "kind, algo", [("gaussian", "svls"), ("rowcol", "svls"), ("rowcol", "cur")]
    )
    def test_outputs_identical_with_and_without_sidecar(self, tmp_path, monkeypatch, kind, algo):
        x = tmp_path / "x.csv"
        assert run_cli("gen-matrix", "--m", 30, "--n", 20, "--rank", 3,
                       "--seed", 4, "--out", x) == 0
        assert run_cli("gen-design", "--kind", kind, "--m", 30, "--n", 20,
                       "--k1", 5, "--k2", 5, "--seed", 6, "--out", tmp_path / "design") == 0
        parsed = []
        read_matrix = cli.matio.read_matrix
        monkeypatch.setattr(cli.matio, "read_matrix",
                            lambda p: parsed.append(p.name) or read_matrix(p))
        runs = {}
        for sidecar in (True, False):
            if not sidecar:
                (tmp_path / "x.json").unlink()
            parsed.clear()
            out = tmp_path / f"run-{sidecar}"
            assert run_cli("measure", "--x", x, "--design", tmp_path / "design",
                           "--sigma", 1e-3, "--noise-seed", 8, "--out", out / "meas") == 0
            assert run_cli("recover", "--meas", out / "meas", "--algo", algo, "--rank", 3,
                           "--truth", x, "--out", out / "rec") == 0
            assert parsed.count("x.csv") == (0 if sidecar else 2)
            runs[sidecar] = self.outputs(out)
        assert len(runs[True]) >= 4
        assert runs[True] == runs[False]


class TestSweepAndSummarize:
    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "m": 12, "n": 12, "ranks": [2], "design_kinds": ["gaussian"],
            "k_values": [[2, 2], [3, 3]], "sigmas": [0.0],
            "algorithms": ["svls"], "trials": 3, "base_seed": 11,
        }))
        return path

    def test_sweep_deterministic_bytes(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep", "--config", config_path, "--out", a, "--jobs", 1) == 0
        assert run_cli("sweep", "--config", config_path, "--out", b, "--jobs", 3) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_jobs_defaults_to_one(self):
        args = build_parser().parse_args(["sweep", "--config", "c.json", "--out", "r.csv"])
        assert args.jobs == 1

    def test_summarize(self, config_path, tmp_path):
        records = tmp_path / "records.csv"
        summary = tmp_path / "summary.csv"
        run_cli("sweep", "--config", config_path, "--out", records)
        assert run_cli("summarize", "--in", records, "--out", summary) == 0
        lines = summary.read_text().splitlines()
        assert len(lines) == 3  # header + two k-values
        assert lines[0].split(",")[-1] == "mean_runtime_seconds"

    def test_sweep_timing_flag(self, config_path, tmp_path):
        out = tmp_path / "timed.csv"
        assert run_cli("sweep", "--config", config_path, "--out", out, "--timing") == 0
        assert out.read_text().splitlines()[0].endswith("runtime_seconds")

    def test_malformed_config_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("sweep", "--config", bad, "--out", tmp_path / "r.csv")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text", ["5", "null", '{"m": null}'])
    def test_ill_typed_config_is_runtime_error(self, config_path, tmp_path, capsys, text):
        if text.startswith("{"):  # one field of the valid config made null
            config = json.loads(config_path.read_text())
            config.update(json.loads(text))
            text = json.dumps(config)
        config_path.write_text(text)
        code = run_cli("sweep", "--config", config_path, "--out", tmp_path / "r.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2


SWEEP_CONFIG = {
    "m": 6, "n": 5, "ranks": [2], "design_kinds": ["rowcol"], "k_values": [[2, 2]],
    "sigmas": [0.0], "algorithms": ["svls"], "trials": 2, "base_seed": 3,
}
# a sweep config's edits stay small, as a valid one runs
small_json = (st.none() | st.booleans() | st.integers(-2, 12) | st.floats()
              | st.text(max_size=3))
any_json = st.recursive(
    small_json | st.integers(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


def main_outcome(argv):
    """The exit code of ``main(argv)`` and what it wrote to standard error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestNoExceptionEscapesMain:
    """A malformed artifact gives exit code 1 and one ``error:`` line."""

    @pytest.fixture(scope="class")
    def targets(self, tmp_path_factory):
        """Each JSON file the CLI reads, and a command that reads it."""
        d = tmp_path_factory.mktemp("artifacts")
        x, design, meas, config = d / "x.csv", d / "design", d / "meas", d / "config.json"
        assert run_cli("gen-matrix", "--m", 6, "--n", 5, "--rank", 2, "--seed", 1,
                       "--out", x) == 0
        assert run_cli("gen-design", "--kind", "rowcol", "--m", 6, "--n", 5, "--k1", 2,
                       "--k2", 2, "--seed", 1, "--out", design) == 0
        assert run_cli("measure", "--x", x, "--design", design, "--sigma", 0.01,
                       "--noise-seed", 2, "--out", meas) == 0
        config.write_text(json.dumps(SWEEP_CONFIG))
        return {
            "measure": (design / "manifest.json", ["measure", "--x", x, "--design", design,
                        "--sigma", 0, "--out", d / "out_meas"]),
            "recover": (meas / "manifest.json", ["recover", "--meas", meas, "--algo", "svls",
                        "--rank", 2, "--out", d / "out_rec"]),
            "sweep": (config, ["sweep", "--config", config, "--out", d / "records.csv"]),
        }

    @pytest.mark.parametrize("target", ["measure", "recover", "sweep"])
    def test_deeply_nested_json(self, targets, target):
        path, argv = targets[target]
        original = path.read_text()
        path.write_text("[" * 100_000)
        try:
            code, err = main_outcome(argv)
        finally:
            path.write_text(original)
        assert code == 1
        assert err.startswith(f"error: {path}: malformed JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 72.8 TiB"), "error: Unable to allocate 72.8 TiB\n"),
        (MemoryError(), "error: MemoryError\n"),
    ])
    def test_memory_error(self, tmp_path, monkeypatch, exc, line):
        def command(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_gen_matrix", command)
        argv = ["gen-matrix", "--m", 2, "--n", 2, "--rank", 1, "--out", tmp_path / "x.csv"]
        assert main_outcome(argv) == (1, line)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(target=st.sampled_from(["measure", "recover", "sweep"]), data=st.data())
    def test_malformed_json_exits_0_1_or_2(self, targets, target, data):
        path, argv = targets[target]
        original = path.read_text()
        base = json.loads(original)
        form = data.draw(st.sampled_from(["nested", "cut", "whole", "edited"]))
        if form == "nested":
            text = "[" * data.draw(st.integers(1, 100_000))
        elif form == "cut":
            text = original[: data.draw(st.integers(0, len(original) - 1))]
        elif form == "whole":
            text = json.dumps(data.draw(any_json))
        else:
            values = small_json if target == "sweep" else any_json
            edits = st.dictionaries(st.sampled_from(sorted(base)), values, min_size=1, max_size=3)
            text = json.dumps({**base, **data.draw(edits)})
        path.write_text(text)
        try:
            code, err = main_outcome(argv)
        finally:
            path.write_text(original)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.fixture(scope="class")
    def matrices(self, tmp_path_factory):
        """Each matrix CSV the CLI reads, and a command that reads it."""
        d = tmp_path_factory.mktemp("matrices")
        x, design, meas = d / "x.csv", d / "design", d / "meas"
        assert run_cli("gen-matrix", "--m", 6, "--n", 5, "--rank", 2, "--seed", 1,
                       "--out", x) == 0
        assert run_cli("gen-design", "--kind", "gaussian", "--m", 6, "--n", 5, "--k1", 2,
                       "--k2", 2, "--seed", 1, "--out", design) == 0
        assert run_cli("measure", "--x", x, "--design", design, "--sigma", 0.01,
                       "--noise-seed", 2, "--out", meas) == 0
        measure = ["measure", "--x", x, "--design", design, "--sigma", 0, "--out", d / "m2"]
        recover = ["recover", "--meas", meas, "--algo", "svls", "--rank", 2, "--truth", x,
                   "--out", d / "rec"]
        return [(x, measure), (x, recover), (design / "design_a_row.csv", measure),
                (design / "design_a_col.csv", measure), (meas / "b_row.csv", recover),
                (meas / "b_col.csv", recover), (meas / "design_a_row.csv", recover),
                (meas / "design_a_col.csv", recover)]

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(data=st.data())
    def test_malformed_matrix_csv_exits_0_1_or_2(self, matrices, data):
        path, argv = data.draw(st.sampled_from(matrices))
        original = path.read_bytes()
        lines = original.splitlines(keepends=True)
        line = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[line].rstrip(b"\n").split(b",")
        field = data.draw(st.integers(0, len(fields) - 1))
        form = data.draw(st.sampled_from(
            ["empty", "cut", "ragged", "undecodable", "nonfinite", "exponent", "bytes"]))
        if form == "empty":
            text = b""
        elif form == "cut":
            text = original[: data.draw(st.integers(0, len(original) - 1))]
        elif form == "ragged":
            fields = fields[:-1] if len(fields) > 1 else fields * 2
        elif form == "undecodable":
            fields[field] += data.draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xe2\x82"]))
        elif form == "nonfinite":
            fields[field] = data.draw(st.sampled_from([b"nan", b"inf", b"-inf", b"NaN"]))
        elif form == "exponent":
            fields[field] = data.draw(st.sampled_from([b"1e400", b"-1e999", b"1e-400",
                                                       b"1e99999999999999999999"]))
        else:
            text = data.draw(st.binary(max_size=64))
        if form in ("ragged", "undecodable", "nonfinite", "exponent"):
            lines[line] = b",".join(fields) + b"\n"
            text = b"".join(lines)
        path.write_bytes(text)
        try:
            code, err = main_outcome(argv)
        finally:
            path.write_bytes(original)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1
