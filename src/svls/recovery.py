"""Recovery of a low-rank matrix from row/column affine measurements.

The main pipeline estimates the column space of ``X`` from ``b_col`` and
the row space from ``b_row`` by truncated SVD, then solves a small least
squares problem for the r x r core ``M`` linking the two bases, giving
``x_hat = U @ M @ V.T``.  For sampling designs, ``cur_recover`` instead
reconstructs directly from the sampled rows, columns, and their overlap
block (a skeleton decomposition), which is exact at the minimal
measurement count.

Estimates are returned as thin factors ``x_hat = left @ right.T``; the
residuals and the error against a dense truth are computed from the
factors, so no m x n matrix is formed unless ``RecoveryResult.x_hat`` is
read.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .measurements import (
    ERROR_BLOCK_ENTRIES,
    DesignKind,
    MeasurementDesign,
    MeasurementSet,
    _freeze,
)

# Relative eigenvalue cutoff for the rank-deficient core solve; the
# brute-force solver uses sqrt of this as its lstsq rcond so the two
# truncate consistently.
CORE_EIG_RTOL = 1e-12

ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis (d x r) with the singular values that ranked it."""

    basis: np.ndarray
    singular_values: np.ndarray


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Estimate plus diagnostics.

    The estimate is held as factors, ``left`` (m x q) and ``right``
    (n x q), with ``x_hat = left @ right.T``; the dense ``x_hat`` is
    built on first access and cached.  ``row_residual`` and
    ``col_residual`` are Frobenius-norm data misfits of the estimate
    against the two measurement blocks; they are None only for solvers
    that were not run against a row/column measurement set.
    ``iterations``, ``final_objective``, ``objective_history`` and
    ``converged`` are populated by the iterative baselines; ``converged``
    is True when the ``tol`` stopping rule fired and False when the
    solver stopped at ``max_iters`` or on a non-finite objective.
    """

    left: np.ndarray
    right: np.ndarray
    rank_used: int
    algorithm: str
    runtime_seconds: float
    core: np.ndarray | None = None
    row_residual: float | None = None
    col_residual: float | None = None
    relative_error: float | None = None
    iterations: int | None = None
    final_objective: float | None = None
    objective_history: tuple[float, ...] | None = None
    converged: bool | None = None

    @functools.cached_property
    def x_hat(self) -> np.ndarray:
        """The dense m x n estimate ``left @ right.T`` (read-only)."""
        return _freeze(self.left @ self.right.T)

    def to_json_dict(self, x_hat_ref: str | None = None) -> dict:
        """JSON-serializable summary; optional fields are omitted when absent."""
        out: dict = {
            "algorithm": self.algorithm,
            "rank_used": self.rank_used,
            "row_residual": self.row_residual,
            "col_residual": self.col_residual,
            "runtime_seconds": self.runtime_seconds,
        }
        if self.relative_error is not None:
            out["relative_error"] = self.relative_error
        if self.iterations is not None:
            out["iterations"] = self.iterations
        if self.final_objective is not None:
            out["final_objective"] = self.final_objective
        if self.converged is not None:
            out["converged"] = self.converged
        if x_hat_ref is not None:
            out["x_hat"] = x_hat_ref
        return out


def relative_error(left: np.ndarray, right: np.ndarray, x_true: np.ndarray) -> float:
    """Relative Frobenius error ``||left @ right.T - x_true||_F / ||x_true||_F``.

    Both squared norms are summed over row blocks of about
    ``ERROR_BLOCK_ENTRIES`` entries in one pass over ``x_true``, so no
    m x n temporary is formed.
    """
    x_true = np.asarray(x_true, dtype=np.float64)
    shape = (left.shape[0], right.shape[0])
    if x_true.shape != shape:
        raise ValueError(f"truth shape {x_true.shape} differs from estimate shape {shape}")
    rows = max(1, ERROR_BLOCK_ENTRIES // max(1, x_true.shape[1]))
    # one buffer holds every block's product and difference
    scratch = np.empty((min(rows, shape[0]), shape[1]))
    num_sq = denom_sq = 0.0
    for i in range(0, x_true.shape[0], rows):
        block = x_true[i : i + rows]
        diff = np.matmul(left[i : i + rows], right.T, out=scratch[: len(block)])
        diff -= block
        diff = diff.ravel()
        flat = block.ravel()
        num_sq += diff.dot(diff)
        denom_sq += flat.dot(flat)
    num, denom = math.sqrt(num_sq), math.sqrt(denom_sq)
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return float(num / denom)


def block_residuals(
    left: np.ndarray,
    right: np.ndarray,
    design: MeasurementDesign,
    meas: MeasurementSet,
) -> tuple[float, float]:
    """Frobenius misfits of ``left @ right.T`` against ``b_row`` and
    ``b_col``, computed through the thin factors."""
    row_res = float(np.linalg.norm((design.a_row @ left) @ right.T - meas.b_row))
    col_res = float(np.linalg.norm(left @ (right.T @ design.a_col) - meas.b_col))
    return row_res, col_res


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    # SVD is sign-ambiguous per column; make the largest-magnitude entry
    # of each column positive so outputs are deterministic.
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return basis * signs


def estimate_col_space(b_col: np.ndarray, r: int) -> SubspaceBasis:
    """Top-``r`` left singular vectors of ``b_col`` (the column-space
    estimate of the target), sign-normalized, with singular values."""
    b_col = np.asarray(b_col, dtype=np.float64)
    if b_col.ndim != 2:
        raise ValueError("b_col must be a 2-d matrix")
    if not 1 <= r <= min(b_col.shape):
        raise ValueError(f"rank {r} outside valid range [1, {min(b_col.shape)}]")
    u, s, _ = np.linalg.svd(b_col, full_matrices=False)
    return SubspaceBasis(
        basis=_freeze(_fix_signs(u[:, :r])),
        singular_values=_freeze(s[:r]),
    )


def estimate_row_space(b_row: np.ndarray, r: int) -> SubspaceBasis:
    """Top-``r`` right singular vectors of ``b_row``; equivalent to
    ``estimate_col_space(b_row.T, r)``."""
    b_row = np.asarray(b_row, dtype=np.float64)
    if b_row.ndim != 2:
        raise ValueError("b_row must be a 2-d matrix")
    return estimate_col_space(b_row.T, r)


def _check_basis(name: str, basis: np.ndarray) -> None:
    gram = basis.T @ basis
    if np.linalg.norm(gram - np.eye(basis.shape[1])) > ORTHONORMALITY_TOL:
        raise ValueError(f"{name} basis is not orthonormal")


def _core_inputs(
    u: SubspaceBasis,
    v: SubspaceBasis,
    design: MeasurementDesign,
    meas: MeasurementSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    ub, vb = u.basis, v.basis
    _check_basis("u", ub)
    _check_basis("v", vb)
    if ub.shape[0] != design.m or vb.shape[0] != design.n:
        raise ValueError("basis dimensions inconsistent with design")
    if ub.shape[1] != vb.shape[1]:
        raise ValueError("u and v must have the same rank")
    if meas.b_row.shape != (design.k1, design.n) or meas.b_col.shape != (
        design.m,
        design.k2,
    ):
        raise ValueError("measurement block dimensions inconsistent with design")
    au = design.a_row @ ub  # k1 x r
    va = vb.T @ design.a_col  # r x k2
    return ub, vb, au, va


def solve_core(
    u: SubspaceBasis,
    v: SubspaceBasis,
    design: MeasurementDesign,
    meas: MeasurementSet,
) -> np.ndarray:
    """Minimum-norm minimizer of the joint core least-squares objective

        ||a_row @ U @ M @ V.T - b_row||_F^2 + ||U @ M @ V.T @ a_col - b_col||_F^2

    obtained from its normal equation ``P @ M + M @ Q = C`` with
    ``P = (a_row U).T (a_row U)`` and ``Q = (V.T a_col)(V.T a_col).T``.
    Both P and Q are r x r PSD, so the Sylvester equation is solved
    exactly through their eigendecompositions, dropping coefficients
    whose eigenvalue sum is numerically zero (rank-deficient designs).
    """
    ub, vb, au, va = _core_inputs(u, v, design, meas)
    p = au.T @ au
    q = va @ va.T
    c = au.T @ meas.b_row @ vb + ub.T @ meas.b_col @ va.T
    lam, ep = np.linalg.eigh(p)
    mu, eq = np.linalg.eigh(q)
    c_t = ep.T @ c @ eq
    denom = lam[:, None] + mu[None, :]
    cutoff = CORE_EIG_RTOL * (lam.max() + mu.max())
    keep = denom > cutoff
    m_t = np.where(keep, c_t / np.where(keep, denom, 1.0), 0.0)
    return ep @ m_t @ eq.T


def solve_core_bruteforce(
    u: SubspaceBasis,
    v: SubspaceBasis,
    design: MeasurementDesign,
    meas: MeasurementSet,
    max_rows: int = 20000,
) -> np.ndarray:
    """Independent reference for :func:`solve_core`: materialize the
    stacked ``(k1*n + m*k2) x r^2`` linear system over the flattened core
    and solve it with a rank-revealing least-squares solve.

    Intended for small instances and tests; systems with more than
    ``max_rows`` rows are rejected.
    """
    ub, vb, au, va = _core_inputs(u, v, design, meas)
    r = ub.shape[1]
    rows = design.k1 * design.n + design.m * design.k2
    if rows > max_rows:
        raise ValueError(f"system has {rows} rows, above the cap of {max_rows}")
    # vec is row-major throughout: entry (i, j) of each block maps to row
    # i*ncols + j, and M_{pq} to column p*r + q.
    d = np.vstack([np.kron(au, vb), np.kron(ub, va.T)])
    rhs = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
    sol, _, _, _ = np.linalg.lstsq(d, rhs, rcond=math.sqrt(CORE_EIG_RTOL))
    return sol.reshape(r, r)


def core_objective(
    m_core: np.ndarray,
    u: SubspaceBasis,
    v: SubspaceBasis,
    design: MeasurementDesign,
    meas: MeasurementSet,
) -> float:
    """Value of the core least-squares objective at ``m_core``."""
    x = u.basis @ m_core @ v.basis.T
    return float(
        np.linalg.norm(design.a_row @ x - meas.b_row) ** 2
        + np.linalg.norm(x @ design.a_col - meas.b_col) ** 2
    )


def svls_recover(
    meas: MeasurementSet,
    design: MeasurementDesign,
    r: int,
    truth: np.ndarray | None = None,
) -> RecoveryResult:
    """Recover a rank-``r`` estimate by SVD subspace estimation plus the
    core least-squares solve.

    Parameters
    ----------
    meas : MeasurementSet
        Observed blocks.
    design : MeasurementDesign
        The design that produced them.
    r : int
        Target rank; must satisfy ``r <= min(k1, k2, m, n)``.
    truth : ndarray, optional
        Ground-truth matrix; when given, ``relative_error`` is filled in.

    In the noiseless case with ``k1 = k2 = r`` and generic inputs the
    estimate is exact up to floating-point error.
    """
    if not 1 <= r <= min(design.k1, design.k2, design.m, design.n):
        raise ValueError(
            f"rank {r} outside valid range [1, "
            f"{min(design.k1, design.k2, design.m, design.n)}]"
        )
    t0 = time.perf_counter()
    u = estimate_col_space(meas.b_col, r)
    v = estimate_row_space(meas.b_row, r)
    core = solve_core(u, v, design, meas)
    left = _freeze(u.basis @ core)
    right = v.basis
    runtime = time.perf_counter() - t0
    row_res, col_res = block_residuals(left, right, design, meas)
    return RecoveryResult(
        left=left,
        right=right,
        rank_used=r,
        algorithm="svls",
        runtime_seconds=runtime,
        core=_freeze(core),
        row_residual=row_res,
        col_residual=col_res,
        relative_error=None if truth is None else relative_error(left, right, truth),
    )


def cur_recover(
    meas: MeasurementSet,
    design: MeasurementDesign,
    truth: np.ndarray | None = None,
) -> RecoveryResult:
    """Skeleton reconstruction ``x_hat = b_col @ pinv(W) @ b_row`` for
    sampling designs, with ``W`` the k1 x k2 overlap block, held as the
    factors ``left = b_col @ pinv(W)`` and ``right = b_row.T``.

    The overlap block is observed twice (once in each measurement
    block); the two noisy copies are averaged before pseudo-inversion.
    Singular values of ``W`` below ``max(1e-10 * s1, 3 * sigma)`` are
    truncated, and the number retained is reported as ``rank_used``.
    For a rank-r target whose overlap block has rank r and
    ``k1 = k2 = r``, recovery is exact from ``r*(m+n-r)`` distinct
    scalar observations, the dimension of the rank-r matrix manifold.
    A rank-deficient overlap block is not an error: the estimate simply
    has the deficient rank.
    """
    if design.kind is not DesignKind.ROW_COL_SAMPLE:
        raise ValueError("cur_recover requires a row/column sampling design")
    if meas.b_row.shape != (design.k1, design.n) or meas.b_col.shape != (
        design.m,
        design.k2,
    ):
        raise ValueError("measurement block dimensions inconsistent with design")
    t0 = time.perf_counter()
    w = 0.5 * (
        meas.b_row[:, design.col_indices] + meas.b_col[design.row_indices, :]
    )
    uw, sw, vwt = np.linalg.svd(w, full_matrices=False)
    cutoff = max(1e-10 * sw[0], 3.0 * meas.sigma) if sw.size else 0.0
    keep = sw > cutoff
    rank_used = int(np.count_nonzero(keep))
    w_pinv = vwt[keep].T @ np.diag(1.0 / sw[keep]) @ uw[:, keep].T
    left = _freeze(meas.b_col @ w_pinv)
    # A column-major copy (b_row may be the caller's writable array), so
    # right.T is laid out like b_row and ``left @ right.T`` is the same
    # BLAS call, with the same bits, as ``left @ b_row``.
    right = meas.b_row.T.copy(order="K")
    right.flags.writeable = False
    runtime = time.perf_counter() - t0
    row_res, col_res = block_residuals(left, right, design, meas)
    return RecoveryResult(
        left=left,
        right=right,
        rank_used=rank_used,
        algorithm="cur",
        runtime_seconds=runtime,
        core=None,
        row_residual=row_res,
        col_residual=col_res,
        relative_error=None if truth is None else relative_error(left, right, truth),
    )


def estimate_rank(b_row: np.ndarray, b_col: np.ndarray, sigma: float) -> int:
    """Estimate the target rank from the two measurement blocks.

    Counts singular values above ``max(2 * sigma * sqrt(max block
    dimension), 1e-10 * s1)`` in each block and returns the smaller
    count.  Returns 0 for all-zero blocks; callers must treat 0 as
    degenerate.
    """

    def count(block: np.ndarray) -> int:
        block = np.asarray(block, dtype=np.float64)
        s = np.linalg.svd(block, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        thresh = max(2.0 * sigma * math.sqrt(max(block.shape)), 1e-10 * s[0])
        return int(np.count_nonzero(s > thresh))

    return min(count(b_row), count(b_col))


def theoretical_bound(
    design: MeasurementDesign,
    sigma: float,
    r: int,
    sing_vals: np.ndarray,
) -> float:
    """Model upper bound on the Frobenius reconstruction error at noise
    level ``sigma``.

    First-order noise propagation: per-scalar noise of size ``sigma``
    enters ``k1*n`` row measurements and ``k2*m`` column measurements,
    amplified by the conditioning ``s1/sr`` of the retained spectrum
    (the subspace estimates degrade as the r-th singular value shrinks).
    The bound is 0 exactly at ``sigma = 0`` and scales linearly with
    ``sigma``; its absolute constant is conservative rather than sharp.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    if sigma == 0.0:
        return 0.0
    sv = np.sort(np.abs(np.asarray(sing_vals, dtype=np.float64)))[::-1]
    if sv.size >= r and sv[r - 1] > 0:
        kappa = float(sv[0] / sv[r - 1])
    elif sv.size == 0:
        kappa = 1.0
    else:
        return math.inf
    spread = math.sqrt(design.k1 * design.n) + math.sqrt(design.k2 * design.m)
    return sigma * spread * (1.0 + 2.0 * kappa)
