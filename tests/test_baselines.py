import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import core_objective, dense_operators, product_norm, rowcol_operator_matrix

from svls import baselines, recovery
from svls.baselines import IterativeSolverConfig, als_recover, gaussian_operator, svp_recover
from svls.measurements import DesignKind, gen_design, gen_low_rank, measure
from svls.recovery import (
    block_residuals, estimate_col_space, estimate_row_space, solve_core, svls_recover,
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

    def test_draws_default_rng_stream(self):
        op = gaussian_operator(4, 5, 7, seed=2**64 - 1)
        ref = np.random.default_rng(2**64 - 1).standard_normal((7, 20))
        assert op.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, (1, 2)], ids=repr)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            gaussian_operator(4, 5, 7, seed)

    def test_apply_uses_row_major_vec(self):
        # b = op @ vec(X) with the row-major vec: under the identity
        # operator SVP's first (line-search) step is X itself, and a
        # column-major reading would give x.ravel().reshape(3, 2).T
        x = np.arange(6.0).reshape(2, 3)
        result = svp_recover(
            x.ravel(), np.eye(6), 2, 3, 2, cfg=IterativeSolverConfig(max_iters=1)
        )
        assert np.allclose(result.x_hat, x, rtol=0, atol=1e-12)
        op = gaussian_operator(2, 3, 4, seed=1)
        sensing = op.reshape(4, 2, 3)  # row i is A_i, flattened row-major
        assert np.allclose(op @ x.ravel(), np.einsum("kij,ij->k", sensing, x))


def safe_step(op):
    """1/sigma_max(op)^2, the largest fixed step at which majorization
    keeps SVP's objective from rising."""
    return 1.0 / float(np.linalg.eigvalsh(op @ op.T)[-1])


def svp_oracle(b, op, m, n, r, iters, step=None, tol=None):
    """Slow reference for ``svp_recover``; every residual is recomputed
    from its iterate.

    With ``step=None`` it applies ``svp_recover``'s step rule from its
    definition: the trial step is the Barzilai-Borwein step
    ``||x - x_prev||^2 / ||op @ vec(x - x_prev)||^2`` or, with no last
    update or one that ``op`` maps to zero, the exact line-search step
    ``||grad||^2 / ||op @ vec(grad)||^2``; and while a trial raises the
    objective it is redone at a quarter of its step.  A float ``step``
    is fixed-step SVP (Jain, Meka & Dhillon 2010), the reference the
    step rule is measured against.  Without ``tol`` it runs ``iters``
    iterations; with it, it also stops, as ``svp_recover`` does, after
    an update of at most ``tol`` times the new iterate's norm.  Returns
    the iterate, the objective history and the number of rejected
    trials.
    """

    def objective(x):
        return float(np.sum((op @ x.ravel() - b) ** 2))

    def project(y):
        u, s, vt = np.linalg.svd(y)
        return (u[:, :r] * s[:r]) @ vt[:r]

    x_prev, x = None, np.zeros((m, n))
    history, rejected = [objective(x)], 0
    for _ in range(iters):
        grad = (op.T @ (op @ x.ravel() - b)).reshape(m, n)
        eta = step
        if step is None:
            d = None if x_prev is None else op @ (x - x_prev).ravel()
            if d is not None and d @ d > 0:
                eta = np.sum((x - x_prev) ** 2) / (d @ d)
            else:
                g = op @ grad.ravel()
                eta = np.sum(grad**2) / (g @ g)
        x_new = project(x - eta * grad)
        while step is None and objective(x_new) > history[-1]:
            rejected += 1
            eta /= 4
            x_new = project(x - eta * grad)
        x_prev, x = x, x_new
        history.append(objective(x))
        if tol is not None and np.linalg.norm(x - x_prev) <= tol * np.linalg.norm(x):
            break
    return x, history, rejected


class TestSvpRecover:
    def test_zero_measurements_fixed_point(self):
        op = gaussian_operator(5, 5, 12, seed=1)
        result = svp_recover(np.zeros(12), op, 5, 5, 2)
        assert np.array_equal(result.x_hat, np.zeros((5, 5)))
        assert result.iterations == 1

    def test_identity_operator_fully_determined(self):
        truth = gen_low_rank(6, 6, 6, seed=2)
        op = np.eye(36)
        b = op @ truth.x.ravel()
        result = svp_recover(b, op, 6, 6, 6, truth=truth.x)
        assert result.relative_error <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_one_sensing_monte_carlo(self, seed):
        m = n = 20
        truth = gen_low_rank(m, n, 1, seed=seed)
        op = gaussian_operator(m, n, 4 * (m + n), seed=seed + 500)
        b = op @ truth.x.ravel()
        result = svp_recover(b, op, m, n, 1, truth=truth.x)
        assert result.relative_error <= 1e-4
        assert result.iterations <= 500
        assert result.converged is True

    @pytest.mark.parametrize("seed", range(20))
    def test_objective_nonincreasing_with_auto_step(self, seed):
        truth = gen_low_rank(10, 8, 2, seed=seed)
        op = gaussian_operator(10, 8, 40, seed=seed + 40)
        b = op @ truth.x.ravel()
        result = svp_recover(
            b, op, 10, 8, 2, cfg=IterativeSolverConfig(max_iters=50)
        )
        hist = np.array(result.objective_history)
        assert np.all(np.diff(hist) <= 1e-9 * (1.0 + hist[:-1]))

    @pytest.mark.parametrize("noise", [None, 0.5, 1.0])
    def test_matches_oracle(self, noise):
        # seed 0 at this size rejects several trials within ten
        # iterations, so the back-off runs.  A float adds Gaussian noise
        # of that standard deviation to b (whose entries have standard
        # deviation about 7), so the objective stays away from zero.
        truth = gen_low_rank(10, 8, 2, seed=0)
        op = gaussian_operator(10, 8, 40, seed=40)
        b = op @ truth.x.ravel()
        if noise is not None:
            b = b + noise * np.random.default_rng(41).standard_normal(b.shape)
        x, history, rejected = svp_oracle(b, op, 10, 8, 2, 10)
        cfg = IterativeSolverConfig(max_iters=10, tol=1e-300)
        result = svp_recover(b, op, 10, 8, 2, cfg=cfg)
        assert rejected >= 2
        assert result.iterations == 10
        assert len(result.objective_history) == 11
        assert np.allclose(result.objective_history, history, rtol=1e-9, atol=0)
        assert np.allclose(result.x_hat, x, rtol=0, atol=1e-9 * np.abs(x).max())
        hist = np.array(result.objective_history)
        assert np.all(np.diff(hist) <= 1e-9 * (1.0 + hist[:-1]))

    def test_first_iterate_is_the_line_search_step(self):
        truth = gen_low_rank(12, 9, 2, seed=1)
        op = gaussian_operator(12, 9, 60, seed=2)
        b = op @ truth.x.ravel()
        grad = op.T @ -b  # the gradient at X = 0
        g = op @ grad
        line_search = float(np.vdot(grad, grad)) / float(g @ g)
        auto = svp_recover(b, op, 12, 9, 2, cfg=IterativeSolverConfig(max_iters=1))
        fixed, history, _ = svp_oracle(b, op, 12, 9, 2, 1, step=line_search)
        assert np.allclose(auto.x_hat, fixed, rtol=0, atol=1e-12 * np.abs(fixed).max())
        assert np.allclose(auto.objective_history, history, rtol=1e-12, atol=0)
        assert auto.final_objective < auto.objective_history[0]

    def test_auto_step_calls_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        truth = gen_low_rank(12, 9, 2, seed=1)
        op = gaussian_operator(12, 9, 60, seed=2)
        result = svp_recover(op @ truth.x.ravel(), op, 12, 9, 2)
        assert result.converged

    def test_back_off_is_bounded(self, monkeypatch):
        # A projected step that always raises the objective: every trial
        # is rejected, so the first iteration gives up after the bound.
        truth = gen_low_rank(6, 5, 1, seed=3)
        op = gaussian_operator(6, 5, 20, seed=4)
        b = op @ truth.x.ravel()
        worse = float(b @ b) + 1.0
        etas = []

        def rising(x, grad, eta, *args):
            etas.append(eta)
            return None, None, None, None, worse

        monkeypatch.setattr(baselines, "_projected_step", rising)
        result = svp_recover(b, op, 6, 5, 1)
        assert result.converged is False
        assert result.iterations == 0
        assert result.objective_history == (float(b @ b),)
        assert np.array_equal(result.x_hat, np.zeros((6, 5)))
        assert 1 < len(etas) <= baselines.MAX_BACKOFFS + 1
        assert all(nxt == eta / baselines.BACKOFF for eta, nxt in zip(etas, etas[1:]))

    @pytest.mark.parametrize("where", ["b", "op"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, where, bad):
        truth = gen_low_rank(6, 5, 1, seed=3)
        op = np.array(gaussian_operator(6, 5, 20, seed=4))
        b = op @ truth.x.ravel()
        (b if where == "b" else op)[3] = bad
        message = {"b": "measurements must be finite", "op": "operator entries must be finite"}
        with pytest.raises(ValueError, match=message[where]):
            svp_recover(b, op, 6, 5, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_auto_and_safe_step_reach_same_estimate(self, seed):
        truth = gen_low_rank(20, 20, 2, seed=seed)
        op = gaussian_operator(20, 20, 160, seed=seed + 60)
        b = op @ truth.x.ravel()
        cfg = IterativeSolverConfig(max_iters=5000, tol=1e-12)
        auto = svp_recover(b, op, 20, 20, 2, cfg=cfg)
        fixed, history, _ = svp_oracle(b, op, 20, 20, 2, 5000, step=safe_step(op), tol=1e-12)
        assert auto.converged and len(history) <= 5000  # both tol rules fired
        assert np.linalg.norm(auto.x_hat - fixed) <= 1e-6 * np.linalg.norm(fixed)

    @pytest.mark.parametrize("seed", range(3))
    def test_auto_step_needs_a_third_of_the_iterations(self, seed):
        # 30 x 30, r = 2, k1 = k2 = 8: k1*n + k2*m = 480 measurements
        truth = gen_low_rank(30, 30, 2, seed=seed)
        op = gaussian_operator(30, 30, 480, seed=seed + 80)
        b = op @ truth.x.ravel()
        auto = svp_recover(b, op, 30, 30, 2)
        # the safe fixed step under the default stopping rule
        _, history, _ = svp_oracle(b, op, 30, 30, 2, 500, step=safe_step(op), tol=1e-8)
        fixed_iterations = len(history) - 1
        assert auto.converged and fixed_iterations < 500
        assert 3 * auto.iterations <= fixed_iterations

    def test_iterates_capped_at_rank(self):
        truth = gen_low_rank(8, 8, 4, seed=3)
        op = gaussian_operator(8, 8, 50, seed=4)
        b = op @ truth.x.ravel()
        result = svp_recover(b, op, 8, 8, 2)
        assert np.linalg.matrix_rank(result.x_hat, tol=1e-8) <= 2

    def test_nonconvergence_reported_not_raised(self):
        truth = gen_low_rank(10, 10, 3, seed=5)
        op = gaussian_operator(10, 10, 25, seed=6)  # far too few measurements
        b = op @ truth.x.ravel()
        result = svp_recover(b, op, 10, 10, 3, cfg=IterativeSolverConfig(max_iters=20))
        assert result.iterations == 20
        assert result.final_objective is not None
        assert result.converged is False

    def test_dimension_mismatch_rejected(self):
        op = gaussian_operator(4, 4, 10, seed=0)
        with pytest.raises(ValueError):
            svp_recover(np.zeros(9), op, 4, 4, 1)
        with pytest.raises(ValueError):
            svp_recover(np.zeros(10), op, 4, 5, 1)
        with pytest.raises(ValueError):
            svp_recover(np.zeros(10), op, 4, 4, 5)


class TestProjectedStep:
    """The guard that keeps a non-finite gradient step away from LAPACK's
    SVD, which does not return on infinite input."""

    def setup_method(self):
        truth = gen_low_rank(6, 5, 1, seed=3)
        self.op = gaussian_operator(6, 5, 20, seed=4)
        self.forward, _ = baselines._operator(self.op, 6, 5)
        self.b = self.op @ truth.x.ravel()
        self.grad = (self.op.T @ -self.b).reshape(6, 5)  # the gradient at X = 0

    @pytest.mark.parametrize(
        "eta, bad", [(1e300, None), (1.0, np.inf), (1.0, np.nan)],
        ids=["overflow", "inf", "nan"],
    )
    def test_non_finite_trial_skips_the_svd(self, monkeypatch, eta, bad):
        def refuse(*args, **kwargs):
            raise AssertionError("SVD called on a non-finite trial")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        grad = 1e10 * self.grad
        if bad is not None:
            grad[2, 3] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            trial = baselines._projected_step(np.zeros((6, 5)), grad, eta, self.forward, self.b, 1)
        assert trial == (None, None, None, None, math.inf)

    def test_finite_trial_is_the_truncated_step(self):
        eta = 1e-3
        left, right, x_new, resid, objective = baselines._projected_step(
            np.zeros((6, 5)), self.grad, eta, self.forward, self.b, 1
        )
        u, s, vt = np.linalg.svd(-eta * self.grad)
        assert np.allclose(x_new, s[0] * np.outer(u[:, 0], vt[0]), rtol=0, atol=1e-12)
        assert np.array_equal(x_new, left @ right.T)
        assert np.array_equal(resid, self.op @ x_new.ravel() - self.b)
        assert objective == float(resid @ resid)


def kron_refit_right(left, design, meas):
    """Slow oracle for ALS's R half-step: the minimum-norm least-squares R
    from one dense Kronecker system over its row-major vec, solved by
    ``lstsq``; the rows of both blocks are reordered so each stacks as a
    Kronecker product."""
    n, r = design.n, left.shape[1]
    g = design.rows(left)  # k1 x r
    d = np.vstack([np.kron(np.eye(n), g), np.kron(design.cols(np.eye(n)).T, left)])
    rhs = np.concatenate([meas.b_row.T.ravel(), meas.b_col.T.ravel()])
    sol, _, _, _ = np.linalg.lstsq(d, rhs, rcond=None)
    return sol.reshape(n, r)


def kron_refit_left(right, design, meas):
    """Slow oracle for ALS's L half-step, as :func:`kron_refit_right`."""
    m, r = design.m, right.shape[1]
    h = design.cols(right.T)  # r x k2
    d = np.vstack([np.kron(design.rows(np.eye(m)), right), np.kron(np.eye(m), h.T)])
    rhs = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
    sol, _, _, _ = np.linalg.lstsq(d, rhs, rcond=None)
    return sol.reshape(m, r)


def refit_operators(design):
    """LAPACK's thin SVDs of ``a_row.T`` and ``a_col``, the operators of
    ALS's refits, from the dense matrices the design stands for."""
    a_row, a_col = dense_operators(design)
    return (np.linalg.svd(a, full_matrices=False) for a in (a_row.T, a_col))


def assert_close(got, want, rtol=1e-10):
    """Relative Frobenius agreement; an all-zero ``want`` needs an exact zero."""
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


class TestAlsHalfSteps:
    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize(
        "m, n, r, k", [(12, 10, 2, 3), (9, 14, 3, 3), (10, 8, 1, 2)],
        ids=["m_neq_n", "k_eq_r", "r_1"],
    )
    @pytest.mark.parametrize("fixed", ["full_rank", "rank_1", "zero"])
    def test_half_steps_match_kronecker_oracles(self, kind, m, n, r, k, fixed):
        # One sweep's half-steps as ALS takes them: R is refit against L0,
        # then L against that R.  A rank-1 or zero L0 gives a fixed factor
        # of the same rank in both half-steps.
        design = gen_design(kind, m, n, k, k, seed=3)
        meas = measure(gen_low_rank(m, n, r, seed=4).x, design, 1e-2, noise_seed=5)
        rng = np.random.default_rng(6)
        left0 = rng.standard_normal((m, r))
        if fixed == "rank_1":
            left0 = np.outer(left0[:, 0], np.arange(1.0, r + 1))
        elif fixed == "zero":
            left0 = np.zeros((m, r))
        row_op, col_op = refit_operators(design)
        right = baselines._refit(left0, meas.b_row, meas.b_col, row_op, col_op)
        left = baselines._refit(right, meas.b_col.T, meas.b_row.T, col_op, row_op)
        assert_close(right, kron_refit_right(left0, design, meas))
        assert_close(left, kron_refit_left(right, design, meas))
        if fixed != "full_rank":
            assert np.linalg.matrix_rank(right) == {"rank_1": 1, "zero": 0}[fixed]

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_first_sweep_refits_the_svls_estimate(self, kind):
        design = gen_design(kind, 12, 10, 3, 3, seed=3)
        meas = measure(gen_low_rank(12, 10, 2, seed=4).x, design, 1e-2, noise_seed=5)
        start = svls_recover(meas, design, 2)
        row_op, col_op = refit_operators(design)
        right = baselines._refit(start.left, meas.b_row, meas.b_col, row_op, col_op)
        left = baselines._refit(right, meas.b_col.T, meas.b_row.T, col_op, row_op)
        result = als_recover(meas, design, 2, cfg=IterativeSolverConfig(max_iters=1))
        assert_close(result.right, right)
        assert_close(result.left, left)


class TestAlsRecover:
    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("sigma", [0.0, 1e-2])
    def test_starts_from_the_svls_pass(self, monkeypatch, kind, sigma):
        design = gen_design(kind, 12, 10, 3, 4, seed=3)
        meas = measure(gen_low_rank(12, 10, 2, seed=4), design, sigma, noise_seed=5)
        starts = []

        def spy(*args):
            starts.append(svls_recover(*args))
            return starts[-1]

        monkeypatch.setattr(baselines, "svls_recover", spy)
        result = als_recover(meas, design, 2, cfg=IterativeSolverConfig(max_iters=1))
        (start,) = starts
        first = start.row_residual * start.row_residual + start.col_residual * start.col_residual
        assert result.objective_history[0] == first
        row_res, col_res = block_residuals(result.left, result.right, design, meas)
        assert (result.row_residual, result.col_residual) == (row_res, col_res)
        assert result.final_objective == row_res * row_res + col_res * col_res
        assert len(result.objective_history) == 3

    def test_truth_initialization_converges_immediately(self):
        # noiseless at k1 = k2 = r, the svls start is the truth
        truth = gen_low_rank(12, 10, 2, seed=7)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 12, 10, 2, 2, seed=8)
        meas = measure(truth.x, design, 0.0, 0)
        result = als_recover(meas, design, 2, truth=truth.x)
        assert result.iterations == 1
        assert result.relative_error <= 1e-9
        assert result.converged is True

    def test_iteration_cap_reported_unconverged(self):
        truth = gen_low_rank(12, 10, 2, seed=7)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 12, 10, 3, 3, seed=8)
        meas = measure(truth.x, design, 0.05, 0)
        result = als_recover(meas, design, 2, cfg=IterativeSolverConfig(max_iters=1))
        assert result.iterations == 1
        assert result.converged is False

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

    @pytest.mark.parametrize("scale", [1e155, 1e-170])
    def test_scale_outside_the_normal_range(self, scale):
        # the step norms' sums of squares overflow (1e155) or vanish
        # (1e-170) unless rescaled; the stop then fires as at unit scale
        truth = gen_low_rank(30, 30, 2, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 30, 30, 4, 4, seed=2)
        unit = als_recover(measure(truth.x, design, 1e-3, noise_seed=3), design, 2)
        meas = measure(truth.x * scale, design, 1e-3 * scale, noise_seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = als_recover(meas, design, 2)
        assert unit.converged and unit.iterations > 10
        assert result.converged and result.iterations == unit.iterations
        want = recovery.relative_error(unit.left, unit.right, truth.x)
        got = recovery.relative_error(result.left / scale, result.right, truth.x)
        assert abs(got - want) <= 1e-8 * want

    def test_estimate_rank_capped(self):
        truth = gen_low_rank(10, 10, 2, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 10, 10, 4, 4, seed=2)
        meas = measure(truth.x, design, 0.0, 0)
        result = als_recover(meas, design, 2)
        assert np.linalg.matrix_rank(result.x_hat, tol=1e-8) <= 2

    def test_target_above_dense_operator_cap(self):
        # ALS solves structured half-steps, so the dense cap does not apply
        m, n = 400, 251
        assert m * n > baselines.MAX_TARGET_ENTRIES
        truth = gen_low_rank(m, n, 2, seed=1)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, m, n, 4, 4, seed=2)
        meas = measure(truth.x, design, 0.0, 0)
        result = als_recover(meas, design, 2, truth=truth.x)
        assert result.converged
        assert result.relative_error < 1e-8

    def test_tall_target_forms_no_square_identity(self):
        # np.eye(m) alone would take 128 MB here; the target takes 1.3 MB
        m, n = 4000, 40
        truth = gen_low_rank(m, n, 2, seed=1)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, m, n, 4, 4, seed=2)
        meas = measure(truth.x, design, 0.0, 0)
        tracemalloc.start()
        try:
            result = als_recover(meas, design, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert result.converged

    @pytest.mark.parametrize("m, n, r", [(30, 30, 2), (5, 40, 3), (3, 7, 2), (300, 251, 4)])
    def test_step_norms_match_product_norm(self, m, n, r):
        # one QR of [L, -L0] gives both norms; product_norm takes one QR
        # per norm, and the dense norms take neither
        rng = np.random.default_rng(m + n + r)
        left, prev_left = rng.standard_normal((m, r)), rng.standard_normal((m, r))
        right, prev_right = rng.standard_normal((n, r)), rng.standard_normal((n, r))
        step, size = map(float, recovery._factored_norms(left, right, prev_left, prev_right))
        want_step = product_norm(np.hstack([left, -prev_left]), np.hstack([right, prev_right]))
        want_size = product_norm(left, right)
        assert abs(step - want_step) <= 1e-12 * want_step
        assert abs(size - want_size) <= 1e-12 * want_size
        assert abs(step - np.linalg.norm(left @ right.T - prev_left @ prev_right.T)) <= 1e-12 * step
        assert abs(size - np.linalg.norm(left @ right.T)) <= 1e-12 * size

    def test_step_test_takes_one_qr_per_sweep(self, monkeypatch):
        truth = gen_low_rank(30, 30, 2, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 30, 30, 3, 3, seed=2)
        meas = measure(truth.x, design, 1e-3, 0)
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        result = als_recover(meas, design, 2)
        assert len(calls) == result.iterations

    def test_step_test_forms_no_dense_iterate(self):
        # One 2000 x 2000 iterate takes 32 MB; its factors take 64 kB
        m = n = 2000
        truth = gen_low_rank(m, n, 2, seed=1)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, m, n, 4, 4, seed=2)
        meas = measure(truth.x, design, 0.0, 0)
        tracemalloc.start()
        try:
            result = als_recover(meas, design, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert result.converged

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


def rowcol_instance(kind, m, n, r, k, sigma=0.0, seed=0):
    """A design, its measurements and SVP's ``b`` for them: ``b_row``
    then ``b_col``, raveled, as ``rowcol_operator_matrix`` orders them."""
    design = gen_design(kind, m, n, k, k, seed=seed + 10)
    meas = measure(gen_low_rank(m, n, r, seed=seed).x, design, sigma, noise_seed=seed + 20)
    return design, meas, np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])


class TestDesignOperator:
    """SVP on a design, applied through ``rows``, ``cols`` and ``adjoint``,
    against the same SVP on the design's Kronecker copy, the oracle
    ``rowcol_operator_matrix``."""

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_forward_and_adjoint_match_kronecker_oracle(self, kind):
        m, n = 9, 7
        design = gen_design(kind, m, n, 4, 3, seed=5)
        op = rowcol_operator_matrix(design)
        forward, adjoint = baselines._operator(design, m, n)
        rng = np.random.default_rng(6)
        x, res = rng.standard_normal((m, n)), rng.standard_normal(op.shape[0])
        assert_close(forward(x), op @ x.ravel(), rtol=1e-12)
        assert_close(adjoint(res), (op.T @ res).reshape(m, n), rtol=1e-12)
        if kind is DesignKind.ROW_COL_SAMPLE:  # gathers and a scatter-add: exact
            assert np.array_equal(forward(x), op @ x.ravel())
            assert np.array_equal(adjoint(res), (op.T @ res).reshape(m, n))
        # <A(X), R> = <X, A*(R)>
        gap = float(forward(x) @ res) - float(np.vdot(x, adjoint(res)))
        assert abs(gap) <= 1e-12 * np.linalg.norm(forward(x)) * np.linalg.norm(res)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_svp_on_a_sampling_design_is_the_kronecker_path(self, sigma):
        m, n, r = 20, 16, 2
        design, meas, b = rowcol_instance(DesignKind.ROW_COL_SAMPLE, m, n, r, 5, sigma)
        cfg = IterativeSolverConfig(max_iters=60)
        want = svp_recover(b, rowcol_operator_matrix(design), m, n, r, cfg=cfg)
        got = svp_recover(b, design, m, n, r, cfg=cfg)
        assert got.iterations == want.iterations
        assert got.objective_history == want.objective_history
        assert got.left.tobytes() == want.left.tobytes()
        assert got.right.tobytes() == want.right.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_svp_on_a_gaussian_design_agrees_with_the_kronecker_path(self, seed):
        m, n, r = 20, 16, 2
        design, meas, b = rowcol_instance(DesignKind.GAUSSIAN_AFFINE, m, n, r, 8, seed=seed)
        want = svp_recover(b, rowcol_operator_matrix(design), m, n, r)
        got = svp_recover(b, design, m, n, r)
        assert want.converged and got.converged
        assert_close(got.x_hat, want.x_hat, rtol=1e-6)

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_block_residuals_split_from_the_final_residual(self, kind):
        m, n, r = 20, 16, 2
        design, meas, b = rowcol_instance(kind, m, n, r, 5, sigma=0.05)
        result = svp_recover(b, design, m, n, r, cfg=IterativeSolverConfig(max_iters=30))
        want = block_residuals(result.left, result.right, design, meas)
        got = (result.row_residual, result.col_residual)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.linalg.norm(b))
        cfg = IterativeSolverConfig(max_iters=1)
        on_matrix = svp_recover(b, rowcol_operator_matrix(design), m, n, r, cfg=cfg)
        assert on_matrix.row_residual is None and on_matrix.col_residual is None

    def test_design_checked_like_an_operator(self):
        design, _, b = rowcol_instance(DesignKind.GAUSSIAN_AFFINE, 6, 5, 1, 2)
        with pytest.raises(ValueError, match="design inconsistent"):
            svp_recover(b, design, 5, 6, 1)
        stacked = gen_design(DesignKind.ROW_COL_SAMPLE, 6, 5, 2, 2, seed=(1, 2))
        with pytest.raises(ValueError, match="design inconsistent"):
            svp_recover(b, stacked, 6, 5, 1)
        with pytest.raises(ValueError, match="expected 22 measurements"):
            svp_recover(b[:-1], design, 6, 5, 1)


class TestSvpScale:
    """SVP commutes exactly with scaling ``b`` by a power of two: far
    outside float's normal range, where its sums of squares would overflow
    (2^515) or vanish (2^-565), it takes the unit-scale iterations."""

    @pytest.mark.parametrize("e", [515, -565])
    @pytest.mark.parametrize("on", ["gaussian", "rowcol", "operator"])
    def test_scaled_data_takes_the_unit_scale_iterations(self, on, e):
        m, n, r = 20, 20, 2
        if on == "operator":
            op = gaussian_operator(m, n, 240, seed=30)
            b = op @ gen_low_rank(m, n, r, seed=0).x.ravel()
        else:
            op, _, b = rowcol_instance(DesignKind(on), m, n, r, 6)
        unit = svp_recover(b, op, m, n, r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = svp_recover(b * 2.0**e, op, m, n, r)
        assert unit.converged and unit.iterations > 1
        assert (got.iterations, got.converged) == (unit.iterations, unit.converged)
        assert got.left.tobytes() == np.ldexp(unit.left, e).tobytes()
        assert got.right.tobytes() == unit.right.tobytes()
        with np.errstate(over="ignore"):  # above float max an objective reads inf
            want = np.ldexp(unit.objective_history, 2 * e).tolist()
        assert list(got.objective_history) == want
        if on != "operator":
            for got_res, unit_res in [(got.row_residual, unit.row_residual),
                                      (got.col_residual, unit.col_residual)]:
                assert got_res == np.ldexp(unit_res, e)


def dense_builders(m, n):
    """The one caller of the dense-size cap, on an m x n target."""
    return {"gaussian_operator": lambda: gaussian_operator(m, n, 2, seed=0)}


class TestDenseSizeCap:
    @pytest.mark.parametrize("name", sorted(dense_builders(1, 1)))
    def test_above_cap_rejected(self, name):
        m, n = 400, 251
        assert m * n > baselines.MAX_TARGET_ENTRIES
        with pytest.raises(ValueError, match="above the dense-operator cap"):
            dense_builders(m, n)[name]()

    @pytest.mark.parametrize("name", sorted(dense_builders(1, 1)))
    def test_cap_is_inclusive(self, monkeypatch, name):
        monkeypatch.setattr(baselines, "MAX_TARGET_ENTRIES", 30)
        dense_builders(5, 6)[name]()
        with pytest.raises(ValueError, match="35 entries"):
            dense_builders(5, 7)[name]()
        with pytest.raises(ValueError, match="31 entries"):
            dense_builders(1, 31)[name]()

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_svp_on_a_design_has_no_cap(self, kind):
        # the Kronecker copy of this design would be 2 604 x 100 400 (2.1 GB)
        m, n = 400, 251
        assert m * n > baselines.MAX_TARGET_ENTRIES
        design, _, b = rowcol_instance(kind, m, n, 2, 4)
        result = svp_recover(b, design, m, n, 2, cfg=IterativeSolverConfig(max_iters=2))
        assert result.iterations == 2
        assert result.final_objective < result.objective_history[0]


class TestIterativeSolverConfig:
    def test_defaults(self):
        cfg = IterativeSolverConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["max_iters", "tol"]
        assert cfg.max_iters == 500
        assert cfg.tol == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iters=0),
            dict(tol=0.0),
            dict(tol=-1e-3),
            dict(tol=float("nan")),
            dict(tol=float("inf")),
            dict(tol=True),
            dict(max_iters=2.5),
            dict(max_iters=True),
            dict(max_iters=np.float64(3.0)),
            dict(max_iters=-1),
            dict(max_iters="5"),
            dict(max_iters=None),
            dict(tol="1e-6"),
            dict(tol=10**400),  # an int above the float range
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            IterativeSolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_iters=1), dict(tol=1e-300), dict(tol=np.float64(1e-6)), dict(tol=1)],
    )
    def test_valid_settings_accepted(self, kwargs):
        (field, value), = kwargs.items()
        assert getattr(IterativeSolverConfig(**kwargs), field) == value

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iters=np.int64(5)),
            dict(max_iters=np.uint8(7)),
            dict(tol=np.float32(1e-6)),
            dict(tol=np.int32(1)),
        ],
    )
    def test_numpy_numbers_accepted(self, kwargs):
        (field, value), = kwargs.items()
        assert getattr(IterativeSolverConfig(**kwargs), field) == value

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iters=np.bool_(True)),
            dict(max_iters=np.int64(0)),
            dict(tol=np.bool_(True)),
            dict(tol=np.float32("nan")),
            dict(tol=np.float32("inf")),
            dict(tol=np.float64("-inf")),
        ],
    )
    def test_numpy_bools_and_non_finite_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            IterativeSolverConfig(**kwargs)
