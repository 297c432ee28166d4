import numpy as np
import pytest

from svls.baselines import (
    IterativeSolverConfig,
    als_recover,
    apply_operator,
    gaussian_operator,
    rowcol_operator_matrix,
    svp_recover,
)
from svls.measurements import DesignKind, gen_design, gen_low_rank, measure
from svls.recovery import (
    core_objective,
    estimate_col_space,
    estimate_row_space,
    solve_core,
)


class TestGaussianOperator:
    def test_shape_and_determinism(self):
        a = gaussian_operator(4, 5, 7, seed=3)
        b = gaussian_operator(4, 5, 7, seed=3)
        assert a.shape == (7, 20)
        assert np.array_equal(a, b)

    def test_oversized_target_rejected(self):
        with pytest.raises(ValueError):
            gaussian_operator(400, 400, 10, seed=0)

    def test_apply_uses_row_major_vec(self):
        x = np.arange(6.0).reshape(2, 3)
        op = np.eye(6)
        assert np.array_equal(apply_operator(op, x), x.ravel())


class TestSvpRecover:
    def test_zero_measurements_fixed_point(self):
        op = gaussian_operator(5, 5, 12, seed=1)
        result = svp_recover(np.zeros(12), op, 5, 5, 2)
        assert np.array_equal(result.x_hat, np.zeros((5, 5)))
        assert result.iterations == 1

    def test_identity_operator_fully_determined(self):
        truth = gen_low_rank(6, 6, 6, seed=2)
        op = np.eye(36)
        b = apply_operator(op, truth.x)
        result = svp_recover(b, op, 6, 6, 6, truth=truth.x)
        assert result.relative_error <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_one_sensing_monte_carlo(self, seed):
        m = n = 20
        truth = gen_low_rank(m, n, 1, seed=seed)
        op = gaussian_operator(m, n, 4 * (m + n), seed=seed + 500)
        b = apply_operator(op, truth.x)
        result = svp_recover(b, op, m, n, 1, truth=truth.x)
        assert result.relative_error <= 1e-4
        assert result.iterations <= 500

    @pytest.mark.parametrize("seed", range(20))
    def test_objective_nonincreasing_with_auto_step(self, seed):
        truth = gen_low_rank(10, 8, 2, seed=seed)
        op = gaussian_operator(10, 8, 40, seed=seed + 40)
        b = apply_operator(op, truth.x)
        result = svp_recover(
            b, op, 10, 8, 2, cfg=IterativeSolverConfig(max_iters=50)
        )
        hist = np.array(result.objective_history)
        assert np.all(np.diff(hist) <= 1e-9 * (1.0 + hist[:-1]))

    def test_iterates_capped_at_rank(self):
        truth = gen_low_rank(8, 8, 4, seed=3)
        op = gaussian_operator(8, 8, 50, seed=4)
        b = apply_operator(op, truth.x)
        result = svp_recover(b, op, 8, 8, 2)
        assert np.linalg.matrix_rank(result.x_hat, tol=1e-8) <= 2

    def test_nonconvergence_reported_not_raised(self):
        truth = gen_low_rank(10, 10, 3, seed=5)
        op = gaussian_operator(10, 10, 25, seed=6)  # far too few measurements
        b = apply_operator(op, truth.x)
        result = svp_recover(b, op, 10, 10, 3, cfg=IterativeSolverConfig(max_iters=20))
        assert result.iterations == 20
        assert result.final_objective is not None

    def test_dimension_mismatch_rejected(self):
        op = gaussian_operator(4, 4, 10, seed=0)
        with pytest.raises(ValueError):
            svp_recover(np.zeros(9), op, 4, 4, 1)
        with pytest.raises(ValueError):
            svp_recover(np.zeros(10), op, 4, 5, 1)
        with pytest.raises(ValueError):
            svp_recover(np.zeros(10), op, 4, 4, 5)


class TestAlsRecover:
    def test_truth_initialization_converges_immediately(self):
        truth = gen_low_rank(12, 10, 2, seed=7)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 12, 10, 2, 2, seed=8)
        meas = measure(truth.x, design, 0.0, 0)
        result = als_recover(
            meas,
            design,
            2,
            truth=truth.x,
            init=(truth.left_factor, truth.right_factor),
        )
        assert result.iterations == 1
        assert result.relative_error <= 1e-9

    def test_zero_measurements_give_zero(self):
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 6, 6, 2, 2, seed=1)
        meas = measure(np.zeros((6, 6)), design, 0.0, 0)
        result = als_recover(meas, design, 2)
        assert np.allclose(result.x_hat, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_refines_or_matches_one_shot_fit(self, seed):
        truth = gen_low_rank(30, 30, 2, seed=seed)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 30, 30, 4, 4, seed=seed + 11)
        meas = measure(truth.x, design, 1e-3, noise_seed=seed + 22)
        u = estimate_col_space(meas.b_col, 2)
        v = estimate_row_space(meas.b_row, 2)
        svls_objective = core_objective(
            solve_core(u, v, design, meas), u, v, design, meas
        )
        result = als_recover(meas, design, 2)
        assert result.final_objective <= svls_objective + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_objective_nonincreasing_across_half_steps(self, seed):
        truth = gen_low_rank(15, 12, 2, seed=seed)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 15, 12, 3, 3, seed=seed + 5)
        meas = measure(truth.x, design, 0.01, noise_seed=seed + 9)
        result = als_recover(meas, design, 2, cfg=IterativeSolverConfig(max_iters=30))
        hist = np.array(result.objective_history)
        assert np.all(np.diff(hist) <= 1e-9 * (1.0 + hist[:-1]))

    def test_random_init_mode(self):
        truth = gen_low_rank(14, 14, 2, seed=3)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 14, 14, 4, 4, seed=4)
        meas = measure(truth.x, design, 0.0, 0)
        a = als_recover(meas, design, 2, init="random", init_seed=5)
        b = als_recover(meas, design, 2, init="random", init_seed=5)
        assert np.array_equal(a.x_hat, b.x_hat)

    def test_estimate_rank_capped(self):
        truth = gen_low_rank(10, 10, 2, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 10, 10, 4, 4, seed=2)
        meas = measure(truth.x, design, 0.0, 0)
        result = als_recover(meas, design, 2)
        assert np.linalg.matrix_rank(result.x_hat, tol=1e-8) <= 2

    def test_invalid_rank_rejected(self):
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 8, 8, 2, 2, seed=1)
        meas = measure(gen_low_rank(8, 8, 2, 0).x, design, 0.0, 0)
        with pytest.raises(ValueError):
            als_recover(meas, design, 3)


class TestRowcolOperatorMatrix:
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_flattening_reproduces_blocks(self, kind):
        truth = gen_low_rank(6, 7, 2, seed=9)
        design = gen_design(kind, 6, 7, 3, 2, seed=10)
        meas = measure(truth.x, design, 0.0, 0)
        op = rowcol_operator_matrix(design)
        assert op.shape == (3 * 7 + 2 * 6, 6 * 7)
        stacked = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
        assert np.allclose(op @ truth.x.ravel(), stacked, atol=1e-12)


class TestIterativeSolverConfig:
    def test_defaults(self):
        cfg = IterativeSolverConfig()
        assert cfg.max_iters == 500
        assert cfg.tol == 1e-8
        assert cfg.step_size == "auto"

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_iters=0), dict(tol=0.0), dict(tol=-1e-3), dict(step_size=-1.0)],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IterativeSolverConfig(**kwargs)
