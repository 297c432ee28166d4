import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (
    core_objective, dense_operators, product_norm, rowcol_operator_matrix, solve_core_bruteforce,
)

from svls import baselines, recovery
from svls.baselines import IterativeSolverConfig, als_recover, svp_recover
from svls.measurements import (
    DesignKind,
    GroundTruth,
    MeasurementDesign,
    MeasurementSet,
    gen_design,
    gen_low_rank,
    measure,
)
from svls.recovery import (
    SubspaceBasis,
    block_residuals,
    cur_recover,
    estimate_col_space,
    estimate_rank,
    estimate_row_space,
    relative_error,
    solve_core,
    svls_recover,
)


def dense_relative_error(x_hat, x_true):
    """The dense reference for relative_error: one m x n difference."""
    return float(np.linalg.norm(x_hat - x_true) / np.linalg.norm(x_true))


def dense_residuals(x_hat, design, meas):
    """The dense reference for block_residuals."""
    a_row, a_col = dense_operators(design)
    return (
        float(np.linalg.norm(a_row @ x_hat - meas.b_row)),
        float(np.linalg.norm(x_hat @ a_col - meas.b_col)),
    )


def recover_with(algo, truth, sigma=0.05):
    """Run ``algo`` on a noisy 18 x 15 rank-2 instance; returns the
    result with the design and measurements it used."""
    kind = DesignKind.ROW_COL_SAMPLE if algo == "cur" else DesignKind.GAUSSIAN_AFFINE
    design = gen_design(kind, 18, 15, 4, 4, seed=21)
    meas = measure(truth.x, design, sigma, noise_seed=22)
    if algo == "svls":
        result = svls_recover(meas, design, 2, truth=truth.x)
    elif algo == "cur":
        result = cur_recover(meas, design, truth=truth.x)
    elif algo == "als":
        result = als_recover(meas, design, 2, truth=truth.x)
    else:  # svp on the design itself
        b = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
        result = svp_recover(b, design, 18, 15, 2, truth=truth.x)
    return result, design, meas


def projector(basis):
    return basis @ basis.T


def top_subspace_projector_oracle(a, r):
    """Reference column-space projector from an eigendecomposition of the
    Gram matrix a @ a.T, independent of the SVD-based implementation."""
    evals, evecs = np.linalg.eigh(a @ a.T)
    top = evecs[:, np.argsort(evals)[::-1][:r]]
    return top @ top.T


def random_instance(rng, m, n, r, k1, k2, sigma):
    truth = gen_low_rank(m, n, r, seed=int(rng.integers(2**32)))
    design = gen_design(
        DesignKind.GAUSSIAN_AFFINE, m, n, k1, k2, seed=int(rng.integers(2**32))
    )
    meas = measure(truth.x, design, sigma, noise_seed=int(rng.integers(2**32)))
    u = estimate_col_space(meas.b_col, r)
    v = estimate_row_space(meas.b_row, r)
    return truth, design, meas, u, v


def make_meas(b_row, b_col, sigma=0.0):
    b_row = np.asarray(b_row, dtype=float)
    b_col = np.asarray(b_col, dtype=float)
    return MeasurementSet(
        b_row=b_row,
        b_col=b_col,
        sigma=sigma,
        noise_seed=0,
    )


class TestSubspaceEstimation:
    def test_axis_aligned_column_space(self):
        basis = estimate_col_space(np.array([[3.0, 0.0], [0.0, 0.0]]), 1)
        assert np.allclose(basis.basis, [[1.0], [0.0]])
        assert np.allclose(basis.singular_values, [3.0])

    def test_identity_gives_full_projector(self):
        basis = estimate_col_space(np.eye(2), 2)
        assert np.allclose(projector(basis.basis), np.eye(2), atol=1e-12)

    def test_axis_aligned_row_space(self):
        basis = estimate_row_space(np.array([[0.0, 5.0]]), 1)
        assert np.allclose(basis.basis, [[0.0], [1.0]])
        assert np.allclose(basis.singular_values, [5.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_projector_matches_gram_eigendecomposition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        b_col = rng.standard_normal((6, 3))
        basis = estimate_col_space(b_col, 2)
        oracle = top_subspace_projector_oracle(b_col, 2)
        assert np.linalg.norm(projector(basis.basis) - oracle) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_row_space_is_transposed_col_space(self, seed):
        rng = np.random.default_rng(seed)
        b_col = rng.standard_normal((3, 6))
        via_row = estimate_row_space(b_col.T, 2)
        via_col = estimate_col_space(b_col, 2)
        assert np.array_equal(via_row.basis, via_col.basis)
        assert np.array_equal(via_row.singular_values, via_col.singular_values)

    def test_tied_singular_values_still_match_oracle_projector(self):
        # the individual vectors of a tied pair are not unique, but the
        # spanned subspace (hence its projector) is, once r covers the tie
        rng = np.random.default_rng(17)
        qm, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        qn, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        b_col = qm[:, :4] @ np.diag([3.0, 3.0, 1.0, 0.2]) @ qn.T
        basis = estimate_col_space(b_col, 2)
        assert np.allclose(basis.singular_values, [3.0, 3.0])
        oracle = top_subspace_projector_oracle(b_col, 2)
        assert np.linalg.norm(projector(basis.basis) - oracle) <= 1e-9

    def test_basis_orthonormal_and_values_sorted(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((8, 5))
        basis = estimate_col_space(b, 3)
        gram = basis.basis.T @ basis.basis
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-10
        sv = basis.singular_values
        assert np.all(sv[:-1] >= sv[1:])

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((7, 4))
        basis = estimate_col_space(b, 3)
        # largest-magnitude entry of every column is positive
        peaks = basis.basis[np.argmax(np.abs(basis.basis), axis=0), np.arange(3)]
        assert np.all(peaks > 0)

    def test_rank_above_dims_rejected(self):
        with pytest.raises(ValueError):
            estimate_col_space(np.eye(3), 4)
        with pytest.raises(ValueError):
            estimate_row_space(np.ones((2, 5)), 3)

    @pytest.mark.parametrize("estimate, name", [(estimate_col_space, "b_col"),
                                                (estimate_row_space, "b_row")])
    def test_one_dimensional_block_rejected(self, estimate, name):
        with pytest.raises(ValueError, match=f"{name} must be a 2-d matrix or a stack of them"):
            estimate(np.ones(5), 1)


class TestSolveCore:
    def test_identity_designs_average_blocks(self):
        # a_row = I_m, a_col = I_n forces P = Q = I, so M = U.T (b_row + b_col)/2 V
        rng = np.random.default_rng(0)
        m = n = 5
        r = 2
        u = estimate_col_space(rng.standard_normal((m, 4)), r)
        v = estimate_col_space(rng.standard_normal((n, 4)), r)
        design = MeasurementDesign(
            kind=DesignKind.GAUSSIAN_AFFINE,
            m=m,
            n=n,
            seed=0,
            a_row=np.eye(m),
            a_col=np.eye(n),
        )
        b_row = rng.standard_normal((m, n))
        b_col = rng.standard_normal((m, n))
        meas = make_meas(b_row, b_col)
        core = solve_core(u, v, design, meas)
        expected = u.basis.T @ ((b_row + b_col) / 2.0) @ v.basis
        assert np.linalg.norm(core - expected) <= 1e-10

    def test_degenerate_sylvester_p_identity_q_zero(self):
        # zero a_col kills the column-side term: P M + M 0 = C, so M = C
        rng = np.random.default_rng(1)
        m, n, r, k2 = 4, 3, 2, 2
        u = estimate_col_space(rng.standard_normal((m, 3)), r)
        v = estimate_col_space(rng.standard_normal((n, 3)), r)
        design = MeasurementDesign(
            kind=DesignKind.GAUSSIAN_AFFINE,
            m=m,
            n=n,
            seed=0,
            a_row=np.eye(m),
            a_col=np.zeros((n, k2)),
        )
        b_row = rng.standard_normal((m, n))
        meas = make_meas(b_row, np.zeros((m, k2)))
        core = solve_core(u, v, design, meas)
        expected = u.basis.T @ b_row @ v.basis
        assert np.linalg.norm(core - expected) <= 1e-10

    def test_matches_bruteforce_on_generic_instance(self):
        rng = np.random.default_rng(7)
        _, design, meas, u, v = random_instance(rng, 8, 8, 2, 3, 3, 0.0)
        a = solve_core(u, v, design, meas)
        b = solve_core_bruteforce(u, v, design, meas)
        assert np.linalg.norm(a - b) <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_normal_equation_residual(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 4))
        m, n = int(rng.integers(r + 1, 10)), int(rng.integers(r + 1, 10))
        k1, k2 = int(rng.integers(r, 6)), int(rng.integers(r, 6))
        sigma = 0.0 if seed % 2 == 0 else 0.01
        _, design, meas, u, v = random_instance(rng, m, n, r, k1, k2, sigma)
        core = solve_core(u, v, design, meas)
        au = design.a_row @ u.basis
        va = v.basis.T @ design.a_col
        p = au.T @ au
        q = va @ va.T
        c = au.T @ meas.b_row @ v.basis + u.basis.T @ meas.b_col @ va.T
        resid = np.linalg.norm(p @ core + core @ q - c)
        assert resid <= 1e-8 * (1.0 + np.linalg.norm(c))

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_gradient_vanishes(self, seed):
        rng = np.random.default_rng(100 + seed)
        _, design, meas, u, v = random_instance(rng, 7, 6, 2, 4, 3, 0.01)
        core = solve_core(u, v, design, meas)
        obj = core_objective(core, u, v, design, meas)
        h = 1e-6
        grad = np.zeros_like(core)
        for i in range(core.shape[0]):
            for j in range(core.shape[1]):
                e = np.zeros_like(core)
                e[i, j] = h
                grad[i, j] = (
                    core_objective(core + e, u, v, design, meas)
                    - core_objective(core - e, u, v, design, meas)
                ) / (2 * h)
        assert np.linalg.norm(grad) <= 1e-4 * (1.0 + obj)

    @pytest.mark.parametrize("seed", range(5))
    def test_perturbations_never_improve(self, seed):
        rng = np.random.default_rng(200 + seed)
        _, design, meas, u, v = random_instance(rng, 6, 7, 2, 3, 4, 0.01)
        core = solve_core(u, v, design, meas)
        obj = core_objective(core, u, v, design, meas)
        for _ in range(10):
            delta = rng.standard_normal(core.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = core_objective(core + delta, u, v, design, meas)
            assert perturbed >= obj - 1e-10 * (1.0 + obj)

    def test_non_orthonormal_basis_rejected(self):
        rng = np.random.default_rng(3)
        _, design, meas, u, v = random_instance(rng, 5, 5, 2, 3, 3, 0.0)
        bad = SubspaceBasis(
            basis=u.basis * 1.5, singular_values=u.singular_values
        )
        with pytest.raises(ValueError):
            solve_core(bad, v, design, meas)
        with pytest.raises(ValueError):
            solve_core_bruteforce(bad, v, design, meas)

    def test_bases_of_unequal_rank_or_wrong_height_rejected(self):
        rng = np.random.default_rng(4)
        _, design, meas, u, v = random_instance(rng, 7, 5, 2, 3, 3, 0.0)
        thin = estimate_row_space(meas.b_row, 1)
        with pytest.raises(ValueError, match="u and v must have the same rank"):
            solve_core(u, thin, design, meas)
        # orthonormal bases of the other side's height: n rows for u, m for v
        for wrong in [(v, v), (u, u)]:
            with pytest.raises(ValueError, match="basis dimensions inconsistent with design"):
                solve_core(*wrong, design, meas)


def solve_core_eigen_reference(u, v, design, meas):
    """An independent copy of solve_core's eigen-solve, which solve_core
    must reproduce bit for bit: the svls rows of every sweep CSV depend
    on its bits."""
    ub, vb, au, va = recovery._core_inputs(u, v, design, meas)
    p = au.T @ au
    q = va @ va.T
    c = au.T @ meas.b_row @ vb + ub.T @ meas.b_col @ va.T
    lam, ep = np.linalg.eigh(p)
    mu, eq = np.linalg.eigh(q)
    c_t = ep.T @ c @ eq
    denom = lam[:, None] + mu[None, :]
    cutoff = recovery.CORE_EIG_RTOL * (lam.max() + mu.max())
    keep = denom > cutoff
    m_t = np.where(keep, c_t / np.where(keep, denom, 1.0), 0.0)
    return ep @ m_t @ eq.T


class TestSolveCoreBits:
    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("m, n, r, k", [(12, 10, 2, 3), (40, 30, 3, 5), (100, 100, 4, 6)])
    @pytest.mark.parametrize("sigma", [0.0, 1e-3])
    def test_bit_identical_to_reference(self, kind, m, n, r, k, sigma):
        truth = gen_low_rank(m, n, r, seed=m + r)
        design = gen_design(kind, m, n, k, k, seed=n + k)
        meas = measure(truth.x, design, sigma, noise_seed=7)
        u = estimate_col_space(meas.b_col, r)
        v = estimate_row_space(meas.b_row, r)
        core = solve_core(u, v, design, meas)
        assert np.array_equal(core, solve_core_eigen_reference(u, v, design, meas))


class TestSolvePsdSylvester:
    @pytest.mark.parametrize("k", [2, 5], ids=["thin_b", "square_b"])
    def test_matches_kronecker_pseudoinverse(self, k):
        # A has a two-dimensional null space and B one zero eigenvalue (and,
        # when E_b is thin, the complement of its columns), so both the
        # dropped coefficients and the complement term are exercised.
        rng = np.random.default_rng(k)
        p, n = 4, 5
        ea = np.linalg.qr(rng.standard_normal((p, p)))[0]
        eb = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]
        lam = np.array([0.0, 0.0, 1.5, 3.0])
        mu = np.linspace(0.0, 2.0, k)
        c = rng.standard_normal((p, n))
        a, b = (ea * lam) @ ea.T, (eb * mu) @ eb.T
        # row-major vec: A X is kron(A, I) and X B is kron(I, B), B symmetric
        op = np.kron(a, np.eye(n)) + np.kron(np.eye(p), b)
        want = np.linalg.lstsq(op, c.ravel(), rcond=1e-10)[0].reshape(p, n)
        got = recovery.solve_psd_sylvester((lam, ea), (mu, eb), c)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestSolveCoreBruteforce:
    def test_rank_one_closed_form(self):
        # r = 1 reduces to scalar least squares: ratio of inner products
        rng = np.random.default_rng(4)
        _, design, meas, u, v = random_instance(rng, 6, 5, 1, 2, 3, 0.05)
        au = design.a_row @ u.basis
        va = v.basis.T @ design.a_col
        d = np.concatenate(
            [np.kron(au, v.basis).ravel(), np.kron(u.basis, va.T).ravel()]
        )
        rhs = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
        expected = float(d @ rhs) / float(d @ d)
        core = solve_core_bruteforce(u, v, design, meas)
        assert core.shape == (1, 1)
        assert abs(core[0, 0] - expected) <= 1e-10

    def test_zero_measurements_give_zero_core(self):
        rng = np.random.default_rng(6)
        _, design, _, u, v = random_instance(rng, 5, 6, 2, 3, 3, 0.0)
        meas = make_meas(np.zeros((3, 6)), np.zeros((5, 3)))
        core = solve_core_bruteforce(u, v, design, meas)
        assert np.allclose(core, 0.0)
        assert np.allclose(solve_core(u, v, design, meas), 0.0)

    def test_too_large_system_rejected(self):
        rng = np.random.default_rng(8)
        _, design, meas, u, v = random_instance(rng, 9, 9, 2, 4, 4, 0.0)
        with pytest.raises(ValueError):
            solve_core_bruteforce(u, v, design, meas, max_rows=10)


class TestSvlsRecover:
    def test_all_ones_hand_example(self):
        x = np.full((2, 2), 1.0)
        design = MeasurementDesign(
            kind=DesignKind.ROW_COL_SAMPLE,
            m=2,
            n=2,
            seed=0,
            row_indices=np.array([0]),
            col_indices=np.array([0]),
        )
        meas = measure(x, design, 0.0, 0)
        result = svls_recover(meas, design, 1, truth=x)
        assert np.allclose(result.x_hat, x, atol=1e-12)
        assert result.core.shape == (1, 1)
        assert abs(result.core[0, 0] - 2.0) <= 1e-12
        assert result.relative_error <= 1e-12
        # brute-force oracle confirms the same core
        u = estimate_col_space(meas.b_col, 1)
        v = estimate_row_space(meas.b_row, 1)
        assert abs(solve_core_bruteforce(u, v, design, meas)[0, 0] - 2.0) <= 1e-10

    def test_zero_matrix_recovers_zero(self):
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, seed=1)
        meas = measure(np.zeros((4, 4)), design, 0.0, 0)
        result = svls_recover(meas, design, 2)
        assert np.allclose(result.x_hat, 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_noiseless_exactness_minimal_measurements(self, seed):
        truth = gen_low_rank(15, 12, 3, seed=seed)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 15, 12, 3, 3, seed=seed + 100)
        meas = measure(truth.x, design, 0.0, 0)
        result = svls_recover(meas, design, 3, truth=truth.x)
        assert result.relative_error <= 1e-8

    @pytest.mark.parametrize("scale", [0.5, 3.0, 40.0])
    def test_scale_equivariance(self, scale):
        truth = gen_low_rank(10, 9, 2, seed=11)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 10, 9, 3, 3, seed=12)
        base = svls_recover(measure(truth.x, design, 0.0, 0), design, 2)
        scaled = svls_recover(measure(scale * truth.x, design, 0.0, 0), design, 2)
        assert np.allclose(scaled.x_hat, scale * base.x_hat, atol=1e-9 * scale)

    def test_residual_diagnostics_recomputable(self):
        truth = gen_low_rank(9, 8, 2, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 9, 8, 4, 4, seed=2)
        meas = measure(truth.x, design, 0.05, 3)
        result = svls_recover(meas, design, 2)
        row = np.linalg.norm(design.a_row @ result.x_hat - meas.b_row)
        col = np.linalg.norm(result.x_hat @ design.a_col - meas.b_col)
        assert abs(result.row_residual - row) <= 1e-10
        assert abs(result.col_residual - col) <= 1e-10
        assert np.linalg.matrix_rank(result.x_hat, tol=1e-8) <= result.rank_used

    def test_rank_above_block_dims_rejected(self):
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 6, 6, 2, 2, seed=1)
        meas = measure(gen_low_rank(6, 6, 2, 1).x, design, 0.0, 0)
        with pytest.raises(ValueError):
            svls_recover(meas, design, 3)


class TestCurRecover:
    def test_rank_one_skeleton_identity(self):
        x = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]])
        design = MeasurementDesign(
            kind=DesignKind.ROW_COL_SAMPLE,
            m=3,
            n=3,
            seed=0,
            row_indices=np.array([0]),
            col_indices=np.array([0]),
        )
        meas = measure(x, design, 0.0, 0)
        result = cur_recover(meas, design, truth=x)
        assert np.allclose(result.x_hat, x, atol=1e-12)
        assert result.rank_used == 1

    def test_full_observation_of_identity(self):
        design = MeasurementDesign(
            kind=DesignKind.ROW_COL_SAMPLE,
            m=2,
            n=2,
            seed=0,
            row_indices=np.array([0, 1]),
            col_indices=np.array([0, 1]),
        )
        meas = measure(np.eye(2), design, 0.0, 0)
        result = cur_recover(meas, design)
        assert np.allclose(result.x_hat, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_at_minimal_sampling(self, seed):
        truth = gen_low_rank(12, 14, 2, seed=seed)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 12, 14, 2, 2, seed=seed + 7)
        meas = measure(truth.x, design, 0.0, 0)
        result = cur_recover(meas, design, truth=truth.x)
        assert result.relative_error <= 1e-10

    def test_rank_deficient_overlap_is_contained_failure(self):
        # rank-2 target whose second component vanishes on the sampled
        # rows, so the overlap block only sees rank 1
        rng = np.random.default_rng(3)
        u1, v1 = rng.standard_normal(6), rng.standard_normal(6)
        u2, v2 = rng.standard_normal(6), rng.standard_normal(6)
        rows = np.array([0, 1])
        cols = np.array([2, 3])
        u2[rows] = 0.0
        x = np.outer(u1, v1) + np.outer(u2, v2)
        assert np.linalg.matrix_rank(x) == 2
        design = MeasurementDesign(
            kind=DesignKind.ROW_COL_SAMPLE,
            m=6,
            n=6,
            seed=0,
            row_indices=rows,
            col_indices=cols,
        )
        meas = measure(x, design, 0.0, 0)
        result = cur_recover(meas, design, truth=x)
        assert result.rank_used == 1
        assert np.linalg.matrix_rank(result.x_hat, tol=1e-8) == 1
        assert result.relative_error > 0.0

    def test_overlap_copies_averaged(self):
        truth = gen_low_rank(10, 10, 2, seed=5)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 10, 10, 3, 3, seed=6)
        meas = measure(truth.x, design, 0.1, noise_seed=9)
        w_rows = meas.b_row[:, design.col_indices]
        w_cols = meas.b_col[design.row_indices, :]
        # the two noisy copies differ, so averaging is observable
        assert not np.allclose(w_rows, w_cols)
        result = cur_recover(meas, design)
        assert np.all(np.isfinite(result.x_hat))

    def test_wrong_design_rejected(self):
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 5, 5, 2, 2, seed=1)
        meas = measure(gen_low_rank(5, 5, 1, 1).x, design, 0.0, 0)
        with pytest.raises(ValueError):
            cur_recover(meas, design)


class TestBlockShapeCheck:
    @pytest.mark.parametrize("algo", ["svls", "cur", "als"])
    @pytest.mark.parametrize("blocks", ["b_row_3_of_4", "b_col_1_of_4"])
    def test_blocks_that_do_not_fit_the_design_rejected(self, algo, blocks):
        # one b_row too few; or one b_col, fewer columns than the rank
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 12, 10, 4, 4, seed=2)
        meas = measure(gen_low_rank(12, 10, 2, seed=1).x, design, 0.0, 0)
        if blocks == "b_row_3_of_4":
            meas = dataclasses.replace(meas, b_row=meas.b_row[:3])
        else:
            meas = dataclasses.replace(meas, b_col=meas.b_col[:, :1])
        solve = {
            "svls": lambda: svls_recover(meas, design, 2),
            "cur": lambda: cur_recover(meas, design),
            "als": lambda: als_recover(meas, design, 2),
        }[algo]
        with pytest.raises(ValueError, match="measurement block dimensions inconsistent"):
            solve()


class TestEstimateRank:
    def test_zero_blocks_give_zero(self):
        assert estimate_rank(np.zeros((3, 4)), np.zeros((4, 3)), 0.0) == 0

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, True, -1.0, "0.1", None])
    def test_bad_sigma_rejected(self, sigma):
        rng = np.random.default_rng(5)
        b_row, b_col = rng.standard_normal((5, 40)), rng.standard_normal((30, 5))
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            estimate_rank(b_row, b_col, sigma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("block", ["b_row", "b_col"])
    def test_non_finite_block_rejected(self, block, bad):
        rng = np.random.default_rng(6)
        blocks = {"b_row": rng.standard_normal((5, 40)), "b_col": rng.standard_normal((30, 5))}
        blocks[block][2, 3] = bad
        with pytest.raises(ValueError, match="b_row and b_col entries must be finite"):
            estimate_rank(blocks["b_row"], blocks["b_col"], 0.01)

    @pytest.mark.parametrize("b_row, b_col", [
        (np.ones(3), np.ones(4)),
        (np.ones((2, 3)), np.ones(4)),
        (np.ones((2, 3)), np.ones((2, 2, 4, 2))),
        (np.ones((2, 2, 3)), np.ones((3, 4, 2))),
    ], ids=["both_1d", "b_col_1d", "b_col_4d", "unlike_stacks"])
    def test_blocks_of_the_wrong_shape_rejected(self, b_row, b_col):
        with pytest.raises(ValueError, match="must be 2-d blocks, or stacks of them stacked alike"):
            estimate_rank(b_row, b_col, 0.0)

    @pytest.mark.parametrize("k", [3, 5])
    def test_noiseless_rank_three(self, k):
        truth = gen_low_rank(20, 20, 3, seed=2)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 20, 20, k, k, seed=3)
        meas = measure(truth.x, design, 0.0, 0)
        assert estimate_rank(meas.b_row, meas.b_col, 0.0) == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_small_noise_rank_three(self, seed):
        truth = gen_low_rank(50, 50, 3, seed=seed)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 50, 50, 6, 6, seed=seed + 30)
        meas = measure(truth.x, design, 1e-6, noise_seed=seed + 60)
        assert estimate_rank(meas.b_row, meas.b_col, 1e-6) == 3


@pytest.fixture
def no_svd(monkeypatch):
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)


@pytest.mark.usefixtures("no_svd")
class TestOneTrialCallsRefuseAStack:
    """svls_recover, cur_recover, als_recover, estimate_rank and
    block_residuals take one trial: a stacked design or measurement set is
    refused before any SVD or product."""

    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("stacked", ["both", "design", "blocks"])
    @pytest.mark.parametrize("name", ["svls_recover", "cur_recover", "als_recover"])
    def test_solver_refuses_a_stack(self, kind, stacked, name):
        one = gen_design(kind, 20, 16, 3, 3, seed=3)
        stack = gen_design(kind, 20, 16, 3, 3, seed=(3, 4))
        meas_one = measure(gen_low_rank(20, 16, 2, seed=1), one, 0.01, noise_seed=5)
        meas_stack = measure(gen_low_rank(20, 16, 2, seed=(1, 2)), stack, 0.01, noise_seed=(5, 6))
        meas = meas_one if stacked == "design" else meas_stack
        design = one if stacked == "blocks" else stack
        solve = {
            "svls_recover": lambda: svls_recover(meas, design, 2),
            "cur_recover": lambda: cur_recover(meas, design),
            "als_recover": lambda: als_recover(meas, design, 2),
        }[name]
        with pytest.raises(ValueError, match=f"^{name} takes one trial, not a stack$"):
            solve()

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_estimate_rank_refuses_a_stack(self, kind):
        stack = gen_design(kind, 20, 16, 3, 3, seed=(3, 4))
        meas = measure(gen_low_rank(20, 16, 2, seed=(1, 2)), stack, 0.01, noise_seed=(5, 6))
        with pytest.raises(ValueError, match="^estimate_rank takes one trial, not a stack$"):
            estimate_rank(meas.b_row, meas.b_col, meas.sigma)

    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("stacked", ["both", "design", "blocks"])
    def test_block_residuals_refuses_a_stack(self, kind, stacked):
        one = gen_design(kind, 20, 16, 3, 3, seed=3)
        stack = gen_design(kind, 20, 16, 3, 3, seed=(3, 4))
        truth = gen_low_rank(20, 16, 2, seed=(1, 2))  # its factors are a stacked estimate
        meas = measure(truth, stack, 0.01, noise_seed=(5, 6))
        if stacked == "design":
            meas = measure(gen_low_rank(20, 16, 2, seed=1), one, 0.01, noise_seed=5)
        design = one if stacked == "blocks" else stack
        with pytest.raises(ValueError, match="^block_residuals takes one trial, not a stack$"):
            block_residuals(truth.left_factor, truth.right_factor, design, meas)


class TestOneTrialThroughStackedSolvers:
    """The stacked solvers take one trial as they take a stack: its
    estimate has the bits of the same trial solved as a stack of one."""

    @pytest.mark.parametrize("sigma", [0.0, 1e-3])
    @pytest.mark.parametrize("solve, kind", [
        (recovery.svls_stack, DesignKind.GAUSSIAN_AFFINE),
        (recovery.svls_stack, DesignKind.ROW_COL_SAMPLE),
        (recovery.cur_stack, DesignKind.ROW_COL_SAMPLE),
    ])
    def test_one_trial_is_the_stack_of_one(self, solve, kind, sigma):
        truth = gen_low_rank(30, 24, 3, seed=12)
        design = gen_design(kind, 30, 24, 4, 5, seed=13)
        meas = measure(truth, design, sigma, noise_seed=14)
        stack = MeasurementSet(meas.b_row[None], meas.b_col[None], sigma, (14,))
        one, of_stack = solve(meas, design, 3), solve(stack, design, 3)
        svls = solve is recovery.svls_stack
        for name in ["left", "right", "core"] if svls else ["left", "right"]:
            got, want = getattr(one, name), getattr(of_stack, name)
            assert got.shape == want.shape[1:] and got.tobytes() == want[0].tobytes(), name
        assert svls or one.core is of_stack.core is None
        assert one.x_hat.tobytes() == of_stack.x_hat[0].tobytes()  # a stack's x_hat per trial
        assert type(one.rank_used) is int and one.rank_used == of_stack.rank_used[0] == 3
        assert one.row_residual is one.col_residual is one.relative_error is None


class TestFactoredResult:
    @pytest.mark.parametrize("seed", range(5))
    def test_svls_x_hat_is_dense_expression(self, seed):
        truth = gen_low_rank(60, 45, 3, seed=seed)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 60, 45, 6, 5, seed=seed + 50)
        meas = measure(truth.x, design, 0.01, noise_seed=seed + 90)
        result = svls_recover(meas, design, 3)
        u = estimate_col_space(meas.b_col, 3)
        v = estimate_row_space(meas.b_row, 3)
        core = solve_core(u, v, design, meas)
        assert np.array_equal(result.x_hat, u.basis @ core @ v.basis.T)

    @pytest.mark.parametrize("seed", range(5))
    def test_cur_x_hat_is_skeleton_expression(self, seed):
        truth = gen_low_rank(60, 45, 3, seed=seed)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 60, 45, 5, 4, seed=seed + 50)
        meas = measure(truth.x, design, 0.01, noise_seed=seed + 90)
        result = cur_recover(meas, design)
        w = 0.5 * (meas.b_row[:, design.col_indices] + meas.b_col[design.row_indices, :])
        uw, sw, vwt = np.linalg.svd(w, full_matrices=False)
        keep = sw > max(1e-10 * sw[0], 3.0 * meas.sigma)
        w_pinv = vwt[keep].T @ np.diag(1.0 / sw[keep]) @ uw[:, keep].T
        assert np.array_equal(result.x_hat, meas.b_col @ w_pinv @ meas.b_row)

    @pytest.mark.parametrize("algo", ["svls", "cur", "als", "svp"])
    def test_factors_and_cached_read_only_x_hat(self, algo):
        result, design, _ = recover_with(algo, gen_low_rank(18, 15, 2, seed=4))
        assert result.left.shape[0] == design.m
        assert result.right.shape[0] == design.n
        assert result.left.shape[1] == result.right.shape[1]
        assert not result.left.flags.writeable and not result.right.flags.writeable
        x_hat = result.x_hat
        assert x_hat is result.x_hat
        assert not x_hat.flags.writeable
        assert np.array_equal(x_hat, result.left @ result.right.T)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.x_hat = np.zeros_like(x_hat)

    def test_factors_do_not_alias_inputs(self):
        b_row = np.array([[1.0, 2.0, 3.0]])
        b_col = np.array([[1.0], [2.0], [3.0]])
        design = MeasurementDesign(
            kind=DesignKind.ROW_COL_SAMPLE,
            m=3,
            n=3,
            seed=0,
            row_indices=np.array([0]),
            col_indices=np.array([0]),
        )
        result = cur_recover(make_meas(b_row, b_col), design)
        b_row[0, 1] = 100.0
        assert np.array_equal(result.x_hat, np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("algo", ["svls", "cur", "als", "svp"])
    def test_factor_residuals_match_dense(self, algo):
        result, design, meas = recover_with(algo, gen_low_rank(18, 15, 2, seed=8))
        dense = dense_residuals(result.x_hat, design, meas)
        factored = block_residuals(result.left, result.right, design, meas)
        assert np.allclose(factored, dense, rtol=0, atol=1e-10)
        assert np.allclose((result.row_residual, result.col_residual), dense, rtol=0, atol=1e-10)


class TestGatherOracle:
    """A design's rows/cols against products with the dense matrices it
    stands for, at the shapes measure, block_residuals, core_objective
    and _core_inputs pass (a C-ordered target, thin factors in both
    memory orders, and transposed orthonormal bases)."""

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_rows_and_cols_equal_dense_products(self, kind):
        m, n, r = 9, 7, 2
        design = gen_design(kind, m, n, 4, 3, seed=5)
        a_row, a_col = dense_operators(design)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((m, n))
        left, right = rng.standard_normal((m, r)), rng.standard_normal((n, r))
        u = estimate_col_space(rng.standard_normal((m, 4)), r).basis
        v = estimate_col_space(rng.standard_normal((n, 4)), r).basis
        for y in (x, left, np.asfortranarray(left), u):
            assert np.array_equal(design.rows(y), a_row @ y)
        for y in (x, right.T, np.asfortranarray(right).T, v.T):
            assert np.array_equal(design.cols(y), y @ a_col)

    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("shape", [(9, 7, 4, 3), (5, 6, 5, 6), (8, 8, 1, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_refit_operators_are_the_dense_matrices_svds(self, kind, shape, seed):
        # LAPACK's own for a Gaussian design; for a sampling design, its
        # selected coordinate vectors, which are LAPACK's up to a signed
        # column permutation P, with unit singular values and zt = P.T.
        design = gen_design(kind, *shape, seed=seed)
        dense = dense_operators(design)
        for (v, s, zt), a in zip(baselines._refit_operators(design), (dense[0].T, dense[1])):
            want_v, want_s, want_zt = np.linalg.svd(a, full_matrices=False)
            perm = np.eye(len(s))
            if kind is DesignKind.ROW_COL_SAMPLE:
                assert np.array_equal((v * s) @ zt, a)
                perm = v.T @ want_v
                assert np.isin(perm, (-1.0, 0.0, 1.0)).all()
                for axis in (0, 1):
                    assert (np.abs(perm).sum(axis=axis) == 1).all()
            assert np.array_equal(v @ perm, want_v)
            assert np.array_equal(s, want_s)
            assert np.array_equal(perm.T @ zt, want_zt)

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_rowcol_operator_matrix_equals_kron_construction(self, kind):
        design = gen_design(kind, 6, 7, 3, 2, seed=10)
        a_row, a_col = dense_operators(design)
        want = np.vstack([np.kron(a_row, np.eye(7)), np.kron(np.eye(6), a_col.T)])
        assert np.array_equal(rowcol_operator_matrix(design), want)


class TestRelativeError:
    @pytest.mark.parametrize("algo", ["svls", "cur", "als", "svp"])
    def test_single_block_matches_dense_exactly(self, algo):
        truth = gen_low_rank(18, 15, 2, seed=3)
        result, _, _ = recover_with(algo, truth)
        assert result.relative_error == dense_relative_error(result.x_hat, truth.x)

    @pytest.mark.parametrize("shape", [(1100, 300), (3, 300_000)])
    def test_blocked_matches_dense(self, shape):
        m, n = shape
        assert m * n > recovery.ERROR_BLOCK_ENTRIES
        rng = np.random.default_rng(5)
        left, right = rng.standard_normal((m, 3)), rng.standard_normal((n, 3))
        x_true = left @ right.T + 1e-3 * rng.standard_normal((m, n))
        got = relative_error(left, right, x_true)
        want = dense_relative_error(left @ right.T, x_true)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("block", [1, 7, 40, 100, 1000])
    def test_block_size_does_not_change_value(self, monkeypatch, block):
        # 23 rows in blocks of max(1, block // 17) rows: 23, 23, 12 and 5
        # blocks, the last of the 12 and the 5 ragged, then one block.
        # ``right`` as svls and als return it (C order), as cur does (F
        # order), as svp does (a read-only transposed view), and rank 0.
        monkeypatch.setattr(recovery, "ERROR_BLOCK_ENTRIES", block)
        calls = []  # one np.matmul per row block
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or matmul(*a, **k))
        rng = np.random.default_rng(6)
        for layout in ["C", "F", "transposed view", "rank 0"]:
            q = 0 if layout == "rank 0" else 2
            left = rng.standard_normal((23, q))
            right = rng.standard_normal((17, q))
            if layout == "F":
                right = np.asfortranarray(right)
            elif layout == "transposed view":
                right = right.T.copy().T
                right.flags.writeable = False
            x_true = rng.standard_normal((23, 17))
            want = dense_relative_error(left @ right.T, x_true)
            calls.clear()
            assert abs(relative_error(left, right, x_true) - want) <= 1e-12 * want, layout
            assert len(calls) == math.ceil(23 / max(1, block // 17)), layout

    @pytest.mark.parametrize("block", [7, 100, recovery.ERROR_BLOCK_ENTRIES])
    def test_cur_with_every_singular_value_truncated(self, monkeypatch, block):
        # a 1 x 1 overlap block of size about 1 under noise of 100 falls
        # below cur's 3 * sigma cutoff
        truth = gen_low_rank(23, 17, 2, seed=4)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 23, 17, 1, 1, seed=5)
        meas = measure(truth.x, design, 100.0, noise_seed=6)
        monkeypatch.setattr(recovery, "ERROR_BLOCK_ENTRIES", block)
        result = cur_recover(meas, design, truth=truth.x)
        assert result.rank_used == 0
        want = dense_relative_error(result.x_hat, truth.x)
        assert abs(result.relative_error - want) <= 1e-12 * want

    def test_scratch_does_not_grow_with_the_truth(self):
        # The 2000 x 2000 truth takes 32 MB; the product scratch of one
        # block takes 512 kB and the contiguous right.T 160 kB.
        rng = np.random.default_rng(9)
        left, right = rng.standard_normal((2000, 10)), rng.standard_normal((2000, 10))
        x_true = rng.standard_normal((2000, 2000))
        tracemalloc.start()
        try:
            relative_error(left, right, x_true)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("algo", ["svls", "cur"])
    def test_one_large_trial_does_not_copy_its_truth(self, algo):
        # an 8 MB truth, above ERROR_BLOCK_ENTRIES: the call solves a stack
        # of one and takes the error in row blocks of the truth itself
        truth = gen_low_rank(1000, 1000, 3, seed=2)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 1000, 1000, 6, 6, seed=3)
        meas = measure(truth.x, design, 1e-3, noise_seed=4)
        recover = {"svls": lambda: svls_recover(meas, design, 3, truth=truth.x),
                   "cur": lambda: cur_recover(meas, design, truth=truth.x)}[algo]
        tracemalloc.start()
        try:
            result = recover()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert result.relative_error == relative_error(result.left, result.right, truth.x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("algo", ["svls", "cur", "als", "svp", "relative_error"])
    def test_non_finite_truth_rejected(self, algo, bad):
        truth = gen_low_rank(30, 30, 2, seed=7)
        kind = DesignKind.ROW_COL_SAMPLE if algo == "cur" else DesignKind.GAUSSIAN_AFFINE
        design = gen_design(kind, 30, 30, 4, 4, seed=8)
        meas = measure(truth.x, design, 0.01, noise_seed=9)
        b = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
        x = np.array(truth.x)
        x[12, 17] = bad
        run = {
            "svls": lambda: svls_recover(meas, design, 2, truth=x),
            "cur": lambda: cur_recover(meas, design, truth=x),
            "als": lambda: als_recover(meas, design, 2, truth=x),
            "svp": lambda: svp_recover(b, design, 30, 30, 2, truth=x),
            "relative_error": lambda: relative_error(truth.left_factor, truth.right_factor, x),
        }[algo]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="truth entries must be finite"):
                run()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_in_last_row_block_rejected(self, bad):
        m, n = 1100, 300
        assert m * n > recovery.ERROR_BLOCK_ENTRIES
        rng = np.random.default_rng(10)
        left, right = rng.standard_normal((m, 2)), rng.standard_normal((n, 2))
        x_true = left @ right.T
        x_true[-1, -1] = bad
        with pytest.raises(ValueError, match="truth entries must be finite"):
            relative_error(left, right, x_true)

    def test_one_bad_trial_of_a_stack_rejected(self):
        truth = gen_low_rank(20, 20, 2, (1, 2, 3))
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 20, 20, 4, 4, (4, 5, 6))
        meas = measure(truth, design, 0.0, (7, 8, 9))
        sol = recovery.svls_stack(meas, design, 2)
        assert max(relative_error(sol.left, sol.right, truth)) < 1e-10
        for bad in [np.nan, np.inf, -np.inf]:
            right = np.array(truth.right_factor)
            right[1, 3, 1] = bad
            bad_truth = GroundTruth(truth.left_factor, right, truth.seed)
            with pytest.raises(ValueError, match="truth entries must be finite"):
                relative_error(sol.left, sol.right, bad_truth)

    # at 1e-155 the truth's squared norm is normal and, 1e-3 off, the
    # difference's is subnormal, with about 35 bits
    SCALES = [1e150, 1e155, 1e-150, 1e-155, 1e-160, 1e-170]

    @staticmethod
    def estimate(off):
        """A 30 x 30 rank-2 truth and an estimate ``off`` from it, and the
        estimate's error at unit scale."""
        truth = gen_low_rank(30, 30, 2, seed=11)
        rng = np.random.default_rng(12)
        left = truth.left_factor + off * rng.standard_normal(truth.left_factor.shape)
        return truth, left, relative_error(left, truth.right_factor, truth.x)

    @pytest.mark.parametrize("off", [1e-3, 1.0])
    @pytest.mark.parametrize("scale", SCALES)
    def test_scale_outside_the_normal_range(self, scale, off):
        # the squares of entries above about 1e154 overflow, and those of
        # entries below about 1e-154 lose digits or vanish
        truth, left, want = self.estimate(off)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_error(left * scale, truth.right_factor, truth.x * scale)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("off", [1e-3, 1.0])
    @pytest.mark.parametrize("scale", SCALES)
    def test_scale_outside_the_normal_range_in_row_blocks(self, monkeypatch, scale, off):
        # each of the 10 row blocks of 3 rows is summed again on its own
        truth, left, want = self.estimate(off)
        monkeypatch.setattr(recovery, "ERROR_BLOCK_ENTRIES", 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_error(left * scale, truth.right_factor, truth.x * scale)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("scale", SCALES)
    def test_one_rescaled_trial_in_a_stack(self, scale):
        # a stacked GroundTruth's trials are scored apart
        truths, lefts, wants = zip(*(self.estimate(off) for off in (1e-3, 1.0, 0.1)))
        truth_left = np.stack([truth.left_factor for truth in truths])
        right = np.stack([truth.right_factor for truth in truths])
        left = np.stack(lefts)
        clean = relative_error(left, right, GroundTruth(truth_left, right, (11, 11, 11)))
        truth_left[1] *= scale
        left[1] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_error(left, right, GroundTruth(truth_left, right, (11, 11, 11)))
        assert abs(got[1] - wants[1]) <= 1e-12 * wants[1]
        assert (got[0], got[2]) == (clean[0], clean[2])  # the others keep their bits

    @pytest.mark.parametrize("scale", SCALES)
    def test_scale_outside_the_normal_range_through_svls(self, scale):
        # the error of the estimate svls gives at this scale, against that
        # of the same estimate brought back to unit scale
        truth = gen_low_rank(30, 30, 2, seed=11)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 30, 30, 4, 4, seed=12)
        x = truth.x * scale
        meas = measure(x, design, 1e-3 * scale, noise_seed=13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = svls_recover(meas, design, 2, truth=x)
        want = relative_error(result.left / scale, result.right, truth.x)
        assert 1e-5 < want < 1e-1
        assert abs(result.relative_error - want) <= 1e-12 * want

    def test_zero_truth(self):
        zeros = np.zeros((4, 1))
        assert relative_error(zeros, zeros[:3], np.zeros((4, 3))) == 0.0
        assert relative_error(np.ones((4, 1)), np.ones((3, 1)), np.zeros((4, 3))) == math.inf
        # an estimate whose squares underflow is still not zero
        tiny = np.full((4, 1), 1e-170)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert relative_error(tiny, np.ones((3, 1)), np.zeros((4, 3))) == math.inf

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            relative_error(np.ones((4, 1)), np.ones((3, 1)), np.ones((3, 4)))


class TestFactoredTruth:
    """A ``GroundTruth`` is measured and scored through its factors; the
    dense truth's paths are the oracle."""

    @pytest.mark.parametrize("sigma", [0.0, 1e-3])
    @pytest.mark.parametrize("algo", ["svls", "cur", "als", "svp"])
    def test_error_matches_dense(self, algo, sigma):
        truth = gen_low_rank(18, 15, 2, seed=3)
        result, _, _ = recover_with(algo, truth, sigma)
        want = result.relative_error  # the blocked pass over truth.x
        got = relative_error(result.left, result.right, truth)
        if want > 1e-8:
            assert abs(got - want) <= 1e-12 * want
        else:  # an exact recovery: both read rounding
            assert got < 1e-12 and want < 1e-12

    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("sigma", [0.0, 1e-3])
    def test_factored_trial_matches_dense(self, kind, sigma):
        # measured and scored through the factors, against both dense
        truth = gen_low_rank(40, 30, 3, seed=5)
        design = gen_design(kind, 40, 30, 5, 6, seed=6)
        factored = measure(truth, design, sigma, noise_seed=7)
        dense = measure(truth.x, design, sigma, noise_seed=7)
        for got, want in [(factored.b_row, dense.b_row), (factored.b_col, dense.b_col)]:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        for algo in ["svls", "cur"] if kind is DesignKind.ROW_COL_SAMPLE else ["svls"]:
            recover = {
                "svls": lambda meas, x: svls_recover(meas, design, 3, truth=x),
                "cur": lambda meas, x: cur_recover(meas, design, truth=x),
            }[algo]
            got = recover(factored, truth).relative_error
            want = recover(dense, truth.x).relative_error
            if want > 1e-8:
                assert abs(got - want) <= 1e-12 * want, algo
            else:
                assert got < 1e-12 and want < 1e-12, algo

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_stacked_errors_are_each_trials(self, kind):
        truth = gen_low_rank(20, 16, 2, (1, 2, 3))
        design = gen_design(kind, 20, 16, 4, 4, (4, 5, 6))
        meas = measure(truth, design, 1e-3, (7, 8, 9))
        sol = recovery.svls_stack(meas, design, 2)
        got = relative_error(sol.left, sol.right, truth)
        for t, seed in enumerate(truth.seed):
            alone = GroundTruth(truth.left_factor[t], truth.right_factor[t], seed)
            assert got[t] == relative_error(sol.left[t], sol.right[t], alone)
        assert "x" not in vars(truth)

    def test_dense_truth_refuses_a_stacked_estimate(self):
        truth = gen_low_rank(20, 16, 2, (1, 2))
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 20, 16, 4, 4, (4, 5))
        sol = recovery.svls_stack(measure(truth, design, 0.0, (7, 8)), design, 2)
        for x_true in (truth.x, truth.x[0]):
            with pytest.raises(ValueError, match="^a dense truth scores one trial, not a stacked"):
                relative_error(sol.left, sol.right, x_true)

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_large_trial_forms_no_dense_matrix(self, kind):
        # one 20000 x 20000 matrix takes 3.2 GB; the trial's factors,
        # design and blocks take a few MB
        m = n = 20_000
        tracemalloc.start()
        try:
            truth = gen_low_rank(m, n, 5, seed=1)
            design = gen_design(kind, m, n, 10, 10, seed=2)
            meas = measure(truth, design, 1e-3, noise_seed=3)
            result = svls_recover(meas, design, 5, truth=truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert result.relative_error < 1e-2
        assert "x" not in vars(truth)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("algo", ["svls", "cur", "als", "svp", "relative_error"])
    def test_non_finite_factor_rejected(self, algo, bad):
        truth = gen_low_rank(30, 30, 2, seed=7)
        kind = DesignKind.ROW_COL_SAMPLE if algo == "cur" else DesignKind.GAUSSIAN_AFFINE
        design = gen_design(kind, 30, 30, 4, 4, seed=8)
        meas = measure(truth, design, 0.01, noise_seed=9)
        b = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
        right = np.array(truth.right_factor)
        right[12, 1] = bad
        x = GroundTruth(truth.left_factor, right, truth.seed)
        run = {
            "svls": lambda: svls_recover(meas, design, 2, truth=x),
            "cur": lambda: cur_recover(meas, design, truth=x),
            "als": lambda: als_recover(meas, design, 2, truth=x),
            "svp": lambda: svp_recover(b, design, 30, 30, 2, truth=x),
            "relative_error": lambda: relative_error(truth.left_factor, truth.right_factor, x),
        }[algo]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="truth entries must be finite"):
                run()

    def test_factors_of_another_shape_rejected(self):
        truth = gen_low_rank(30, 20, 2, seed=7)
        with pytest.raises(ValueError, match="do not match"):
            relative_error(truth.left_factor[:-1], truth.right_factor, truth)

    @pytest.mark.parametrize("off", [1e-3, 1.0])
    @pytest.mark.parametrize("scale", TestRelativeError.SCALES)
    def test_scale_outside_the_normal_range(self, scale, off):
        truth, left, want = TestRelativeError.estimate(off)
        scaled = GroundTruth(truth.left_factor * scale, truth.right_factor, truth.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_error(left * scale, truth.right_factor, scaled)
        assert abs(got - want) <= 1e-12 * want

    def test_zero_truth(self):
        zero = GroundTruth(np.zeros((6, 2)), np.zeros((5, 2)), 0)
        rng = np.random.default_rng(3)
        left, right = rng.standard_normal((6, 2)), rng.standard_normal((5, 2))
        assert relative_error(left, right, zero) == math.inf
        assert relative_error(0 * left, right, zero) == 0.0


class TestResidualScale:
    """Each residual is a norm of the same power-of-two rescale: outside
    float's normal range it reads the unit-scale residual times the scale."""

    @pytest.mark.parametrize("scale", TestRelativeError.SCALES)
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_residuals_scale_with_the_data(self, kind, scale):
        # rank 2 on a rank-3 truth, so the residuals are far from zero
        truth = gen_low_rank(30, 30, 3, seed=11)
        design = gen_design(kind, 30, 30, 4, 4, seed=12)
        unit = svls_recover(measure(truth, design, 0.0, 13), design, 2)
        scaled = GroundTruth(truth.left_factor * scale, truth.right_factor, truth.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = svls_recover(measure(scaled, design, 0.0, 13), design, 2)
        for got, want in [(result.row_residual, unit.row_residual),
                          (result.col_residual, unit.col_residual)]:
            assert want > 1.0
            assert abs(got - want * scale) <= 1e-13 * want * scale

    def test_objective_above_float_max_reads_inf(self):
        # rank 2 on a rank-3 truth, so the residuals are far from zero
        truth = gen_low_rank(30, 30, 3, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 30, 30, 4, 4, seed=2)
        cfg = IterativeSolverConfig(max_iters=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit, huge = (
                als_recover(measure(scaled, design, 0.0, 3), design, 2, cfg)
                for scaled in (truth, GroundTruth(1e200 * truth.left_factor,
                                                  truth.right_factor, truth.seed))
            )
        assert all(0 < h < math.inf for h in unit.objective_history)
        assert math.isfinite(huge.row_residual) and math.isfinite(huge.col_residual)
        assert huge.objective_history == (math.inf,) * len(unit.objective_history)


class TestRankArgument:
    """A rank is an integer, Python's or numpy's, and not a bool, wherever
    it enters: the svls checks (so ALS's start), the subspace estimate,
    SVP and the truth generator."""

    @staticmethod
    def calls(r):
        truth = gen_low_rank(8, 7, 2, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 8, 7, 3, 3, seed=2)
        meas = measure(truth, design, 0.0, 3)
        b = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
        cfg = IterativeSolverConfig(max_iters=2)
        return {
            "svls": lambda: svls_recover(meas, design, r),
            "als": lambda: als_recover(meas, design, r, cfg),
            "svp": lambda: svp_recover(b, design, 8, 7, r, cfg),
            "estimate_col_space": lambda: estimate_col_space(meas.b_col, r),
            "gen_low_rank": lambda: gen_low_rank(8, 7, r, seed=4),
        }

    @pytest.mark.parametrize("call", ["svls", "als", "svp", "estimate_col_space", "gen_low_rank"])
    @pytest.mark.parametrize("r", [True, 2.0, 2.5], ids=repr)
    def test_non_integer_rank_rejected(self, call, r):
        with pytest.raises(ValueError, match="rank must be an integer"):
            self.calls(r)[call]()

    @pytest.mark.parametrize("call", ["svls", "als", "svp", "estimate_col_space", "gen_low_rank"])
    def test_numpy_integer_rank_accepted(self, call):
        got, want = self.calls(np.int64(2))[call](), self.calls(2)[call]()
        if call in ("svls", "als", "svp"):
            assert type(got.rank_used) is int and got.rank_used == 2
            got, want = got.x_hat, want.x_hat
        elif call == "estimate_col_space":
            got, want = got.basis, want.basis
        else:
            got, want = got.x, want.x
        assert np.array_equal(got, want)


class TestProductNorm:
    """``product_norm`` against the dense ``np.linalg.norm`` of the
    product it never forms."""

    @pytest.mark.parametrize("m, n, c", [(30, 20, 2), (5, 40, 4), (3, 2, 6), (300, 251, 4)])
    def test_matches_dense_norm(self, m, n, c):
        rng = np.random.default_rng(m + n + c)
        a, b = rng.standard_normal((m, c)), rng.standard_normal((n, c))
        want = np.linalg.norm(a @ b.T)
        assert abs(product_norm(a, b) - want) <= 1e-12 * want

    @pytest.mark.parametrize("seed", range(5))
    def test_difference_of_products_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        l0, r0 = rng.standard_normal((40, 2)), rng.standard_normal((30, 2))
        l1, r1 = rng.standard_normal((40, 2)), rng.standard_normal((30, 2))
        want = np.linalg.norm(l1 @ r1.T - l0 @ r0.T)
        got = product_norm(np.hstack([l1, -l0]), np.hstack([r1, r0]))
        assert abs(got - want) <= 1e-12 * want

    def test_equal_products_read_rounding_only(self):
        rng = np.random.default_rng(7)
        left, right = 1e3 * rng.standard_normal((50, 3)), rng.standard_normal((40, 3))
        got = product_norm(np.hstack([left, -left]), np.hstack([right, right]))
        scale = np.linalg.norm(left) * np.linalg.norm(right)
        assert got <= 10 * np.finfo(float).eps * scale

    def test_close_products_keep_their_digits(self):
        # The difference is 1e-8 of each product.  Expanding its squared
        # norm into Gram inner products loses every digit to cancellation;
        # the dense and factored norms each err by about eps * ||x||,
        # 1e-8 of the difference.
        rng = np.random.default_rng(8)
        l0, right = rng.standard_normal((60, 2)), rng.standard_normal((50, 2))
        l1 = l0 + 1e-8 * rng.standard_normal((60, 2))
        want = np.linalg.norm(l1 @ right.T - l0 @ right.T)
        got = product_norm(np.hstack([l1, -l0]), np.hstack([right, right]))
        assert abs(got - want) <= 1e-6 * want
