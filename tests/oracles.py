"""Slow, independent references that the tests hold the fast paths to.

None of these runs in a sweep, the CLI or the benchmark, so they live
beside the tests rather than in the package.
"""

from __future__ import annotations

import math
import time

import numpy as np

from svls.measurements import DesignKind, MeasurementDesign, MeasurementSet, _freeze
from svls.recovery import (
    CORE_EIG_RTOL,
    RecoveryResult,
    SubspaceBasis,
    _check_blocks,
    _core_inputs,
    _factor_objective,
    block_residuals,
    estimate_col_space,
    estimate_row_space,
    relative_error,
    solve_core,
)


def svls_recover_oracle(
    meas: MeasurementSet,
    design: MeasurementDesign,
    r: int,
    truth: np.ndarray | None = None,
) -> RecoveryResult:
    """Independent reference for ``svls_stack``: ``svls_recover`` as it
    was before the stacked solvers, one trial per call, on unstacked
    blocks and the blocked ``relative_error``."""
    top = min(design.m, design.n, design.k1, design.k2)
    if not 1 <= r <= top:
        raise ValueError(f"rank {r} outside valid range [1, {top}]")
    _check_blocks(design, meas)
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


def cur_recover_oracle(
    meas: MeasurementSet,
    design: MeasurementDesign,
    truth: np.ndarray | None = None,
) -> RecoveryResult:
    """Independent reference for ``cur_stack``: ``cur_recover`` as it was
    before the stacked solvers, with W's kept singular values picked by a
    boolean mask rather than a prefix."""
    if design.kind is not DesignKind.ROW_COL_SAMPLE:
        raise ValueError("cur_recover requires a row/column sampling design")
    _check_blocks(design, meas)
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
        row_residual=row_res,
        col_residual=col_res,
        relative_error=None if truth is None else relative_error(left, right, truth),
    )


def solve_core_bruteforce(
    u: SubspaceBasis,
    v: SubspaceBasis,
    design: MeasurementDesign,
    meas: MeasurementSet,
    max_rows: int = 20000,
) -> np.ndarray:
    """Independent reference for ``solve_core``: materialize the stacked
    ``(k1*n + m*k2) x r^2`` linear system over the flattened core and
    solve it with a rank-revealing least-squares solve, whose rcond is
    ``sqrt(CORE_EIG_RTOL)`` so the two truncate consistently.

    Systems with more than ``max_rows`` rows are rejected.
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
    return _factor_objective(u.basis @ m_core, v.basis, design, meas)


def product_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of ``a @ b.T`` without forming it, in O((m+n) c^2)
    for c columns: with ``a = Q T`` its thin QR, it is ``||b @ T.T||_F``.

    A difference of products is one product of stacked factors,
    ``L1 R1.T - L0 R0.T = [L1, -L0] [R1, R0].T``.  The squared norm is
    not expanded into Gram inner products: near an exact match those
    terms cancel to 0.0, while the product with ``T`` keeps the digits.
    """
    return float(np.linalg.norm(b @ np.linalg.qr(a, mode="r").T))


def draw_oracle(
    kind: DesignKind,
    shape: tuple[int, int, int, int, int],
    sigma: float,
    seeds: tuple[int, int, int],
) -> dict[str, np.ndarray]:
    """Independent reference for one trial of ``gen_low_rank``,
    ``gen_design`` and ``measure``: the stream order that
    ``measurements`` documents, drawn with ``np.random.default_rng`` and
    shaped draws, one trial per call, and the design applied by plain
    indexing or products.  ``shape`` is ``(m, n, r, k1, k2)`` and
    ``seeds`` the truth, design and noise seeds."""
    m, n, r, k1, k2 = shape
    truth_seed, design_seed, noise_seed = seeds
    rng = np.random.default_rng(truth_seed)
    out = {"left_factor": rng.standard_normal((m, r)), "right_factor": rng.standard_normal((n, r))}
    x = out["x"] = out["left_factor"] @ out["right_factor"].T
    rng = np.random.default_rng(design_seed)
    if kind is DesignKind.GAUSSIAN_AFFINE:
        out["a_row"], out["a_col"] = rng.standard_normal((k1, m)), rng.standard_normal((n, k2))
        b_row, b_col = out["a_row"] @ x, x @ out["a_col"]
    else:
        out["row_indices"] = rng.choice(m, size=k1, replace=False)
        out["col_indices"] = rng.choice(n, size=k2, replace=False)
        b_row, b_col = x[out["row_indices"]], x[:, out["col_indices"]]
    if sigma > 0:
        rng = np.random.default_rng(noise_seed)
        b_row = b_row + sigma * rng.standard_normal(b_row.shape)
        b_col = b_col + sigma * rng.standard_normal(b_col.shape)
    out["b_row"], out["b_col"] = b_row, b_col
    return out


def rowcol_operator_matrix(design: MeasurementDesign) -> np.ndarray:
    """Flatten a row/column design into a dense ``(k1*n + k2*m) x (m*n)``
    Kronecker operator acting on the row-major vec of the target: the
    reference for the design's own forward map and ``adjoint``.

    Rows are ordered as ``b_row.ravel()`` followed by ``b_col.ravel()``,
    so ``op @ vec(X)`` equals the concatenated measurement blocks.
    """
    a_row, a_col = design.operators()
    top = np.kron(a_row, np.eye(design.n))
    bottom = np.kron(np.eye(design.m), a_col.T)
    return np.vstack([top, bottom])
