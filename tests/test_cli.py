import json

import numpy as np
import pytest

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
        assert sidecar == {"m": 5, "n": 4, "rank": 2, "seed": 3}

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

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RC_RECOVER_SEED", "99")
        out = tmp_path / "x.csv"
        assert run_cli("gen-matrix", "--m", 4, "--n", 4, "--rank", 1,
                       "--out", out) == 0
        assert np.array_equal(read_matrix(out), gen_low_rank(4, 4, 1, 99).x)
        assert json.loads((tmp_path / "x.json").read_text())["seed"] == 99

    def test_flag_overrides_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RC_RECOVER_SEED", "99")
        out = tmp_path / "x.csv"
        assert run_cli("gen-matrix", "--m", 4, "--n", 4, "--rank", 1,
                       "--seed", 2, "--out", out) == 0
        assert np.array_equal(read_matrix(out), gen_low_rank(4, 4, 1, 2).x)


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

    def test_matrix_round_trip_through_cli(self, pipeline):
        x, _, _ = pipeline
        assert np.array_equal(read_matrix(x), gen_low_rank(12, 10, 2, 7).x)


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
