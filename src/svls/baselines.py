"""Iterative baselines used for speed/accuracy comparisons.

``svp_recover`` is singular value projection (iterative hard
thresholding) on a dense affine operator over the flattened target; it
is the standard-design baseline and, by the parity rule used in the
simulation harness, is allotted ``k1*n + k2*m`` scalar measurements to
match the row/column budget.  ``als_recover`` alternately refits the two
factors of ``X = L @ R.T`` against the row/column blocks, starting from
the one-shot SVD+LS estimate (so it isolates the value of iterative
refinement); random or user-supplied initialization is available for
fairness experiments.

Both solvers materialize dense systems and exist for desk-scale
comparison, not production sensing; targets are capped at 1e5 entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .measurements import MeasurementDesign, MeasurementSet, _freeze
from .recovery import (
    RecoveryResult,
    block_residuals,
    estimate_col_space,
    estimate_row_space,
    relative_error,
    solve_core,
)

MAX_TARGET_ENTRIES = 100_000


@dataclass(frozen=True)
class IterativeSolverConfig:
    """Stopping rule shared by the iterative solvers.

    ``tol`` is the relative change in the iterate between sweeps;
    ``step_size`` applies to SVP only ("auto" picks 1/sigma_max(op)^2,
    which makes the objective nonincreasing).
    """

    max_iters: int = 500
    tol: float = 1e-8
    step_size: float | str = "auto"

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.step_size != "auto" and float(self.step_size) <= 0:
            raise ValueError("step_size must be positive or 'auto'")


def gaussian_operator(m: int, n: int, k: int, seed: int) -> np.ndarray:
    """Draw a read-only k x (m*n) dense Gaussian sensing operator: row i is
    a flattened i.i.d. standard normal sensing matrix acting on the
    row-major vec of X."""
    if min(m, n, k) < 1:
        raise ValueError("operator dimensions must be positive")
    if m * n > MAX_TARGET_ENTRIES:
        raise ValueError(
            f"target has {m * n} entries, above the dense-operator cap of "
            f"{MAX_TARGET_ENTRIES}"
        )
    rng = np.random.default_rng(seed)
    return _freeze(rng.standard_normal((k, m * n)))


def apply_operator(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Measure ``x`` through the operator: ``op @ vec(x)`` (row-major vec)."""
    return op @ np.asarray(x, dtype=np.float64).ravel()


def _truncate_svd(x: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(left, right)`` of the best rank-r approximation
    ``left @ right.T`` of ``x``."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return u[:, :r] * s[:r], vt[:r].T


def svp_recover(
    b: np.ndarray,
    op: np.ndarray,
    m: int,
    n: int,
    r: int,
    cfg: IterativeSolverConfig | None = None,
    truth: np.ndarray | None = None,
) -> RecoveryResult:
    """Singular value projection: projected gradient descent on
    ``||op @ vec(X) - b||^2`` over the rank-r set, for a k x (m*n)
    operator ``op`` acting on the row-major vec of X.

    Iterates ``X <- TruncSVD_r(X - eta * reshape(op.T @ (op @ vec(X) - b)))``
    from ``X = 0``; with the automatic step ``eta = 1/sigma_max(op)^2``
    the objective is nonincreasing.  Nonconvergence is not an error: the
    result carries the iteration count and final objective either way.
    """
    cfg = cfg or IterativeSolverConfig()
    b = np.asarray(b, dtype=np.float64).ravel()
    if op.ndim != 2 or op.shape[1] != m * n:
        raise ValueError("operator shape inconsistent with target dimensions")
    k = op.shape[0]
    if b.shape[0] != k:
        raise ValueError(f"expected {k} measurements, got {b.shape[0]}")
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} outside valid range [1, {min(m, n)}]")
    t0 = time.perf_counter()
    if cfg.step_size == "auto":
        # sigma_max^2 via the smaller Gram matrix; exact and deterministic.
        gram = op @ op.T if k <= m * n else op.T @ op
        eta = 1.0 / float(np.linalg.eigvalsh(gram)[-1])
    else:
        eta = float(cfg.step_size)
    x = np.zeros((m, n))
    history = []
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        resid = op @ x.ravel() - b
        history.append(float(resid @ resid))
        grad = (op.T @ resid).reshape(m, n)
        left, right = _truncate_svd(x - eta * grad, r)
        x_new = left @ right.T
        step = np.linalg.norm(x_new - x)
        x = x_new
        if step <= cfg.tol * max(np.linalg.norm(x), 1e-300):
            break
    final_resid = op @ x.ravel() - b
    final_objective = float(final_resid @ final_resid)
    history.append(final_objective)
    runtime = time.perf_counter() - t0
    left = _freeze(left)
    right.flags.writeable = False  # a transposed view of this call's SVD output
    return RecoveryResult(
        left=left,
        right=right,
        rank_used=r,
        algorithm="svp",
        runtime_seconds=runtime,
        relative_error=None if truth is None else relative_error(left, right, truth),
        iterations=iterations,
        final_objective=final_objective,
        objective_history=tuple(history),
    )


def _factor_objective(
    left: np.ndarray,
    right: np.ndarray,
    design: MeasurementDesign,
    meas: MeasurementSet,
) -> float:
    x = left @ right.T
    return float(
        np.linalg.norm(design.a_row @ x - meas.b_row) ** 2
        + np.linalg.norm(x @ design.a_col - meas.b_col) ** 2
    )


def _solve_right(
    left: np.ndarray, design: MeasurementDesign, meas: MeasurementSet
) -> np.ndarray:
    # minimize over R (n x r), row-major vec: rows of both blocks are
    # reordered so each stacks as a Kronecker product.
    n, r = design.n, left.shape[1]
    g = design.a_row @ left  # k1 x r
    d = np.vstack([np.kron(np.eye(n), g), np.kron(design.a_col.T, left)])
    rhs = np.concatenate([meas.b_row.T.ravel(), meas.b_col.T.ravel()])
    sol, _, _, _ = np.linalg.lstsq(d, rhs, rcond=None)
    return sol.reshape(n, r)


def _solve_left(
    right: np.ndarray, design: MeasurementDesign, meas: MeasurementSet
) -> np.ndarray:
    m, r = design.m, right.shape[1]
    h = right.T @ design.a_col  # r x k2
    d = np.vstack([np.kron(design.a_row, right), np.kron(np.eye(m), h.T)])
    rhs = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
    sol, _, _, _ = np.linalg.lstsq(d, rhs, rcond=None)
    return sol.reshape(m, r)


def als_recover(
    meas: MeasurementSet,
    design: MeasurementDesign,
    r: int,
    cfg: IterativeSolverConfig | None = None,
    truth: np.ndarray | None = None,
    init: str | tuple[np.ndarray, np.ndarray] = "svls",
    init_seed: int = 0,
) -> RecoveryResult:
    """Alternating least squares on the factors of ``X = L @ R.T``.

    Each half-step solves an exact linear least-squares problem for one
    factor against both measurement blocks, so the objective is
    nonincreasing across half-steps.  ``init`` is ``"svls"`` (default:
    start from the one-shot SVD+LS estimate), ``"random"`` (seeded by
    ``init_seed``), or an explicit ``(L0, R0)`` pair.
    """
    cfg = cfg or IterativeSolverConfig()
    if not 1 <= r <= min(design.m, design.n, design.k1, design.k2):
        raise ValueError(
            f"rank {r} outside valid range [1, "
            f"{min(design.m, design.n, design.k1, design.k2)}]"
        )
    if design.m * design.n > MAX_TARGET_ENTRIES:
        raise ValueError(
            f"target has {design.m * design.n} entries, above the cap of "
            f"{MAX_TARGET_ENTRIES}"
        )
    t0 = time.perf_counter()
    if init == "svls":
        u = estimate_col_space(meas.b_col, r)
        v = estimate_row_space(meas.b_row, r)
        left = u.basis @ solve_core(u, v, design, meas)
        right = np.array(v.basis)
    elif init == "random":
        rng = np.random.default_rng(init_seed)
        left = rng.standard_normal((design.m, r))
        right = rng.standard_normal((design.n, r))
    else:
        left, right = (np.asarray(f, dtype=np.float64) for f in init)
        if left.shape != (design.m, r) or right.shape != (design.n, r):
            raise ValueError("initial factors have wrong shapes")
    history = [_factor_objective(left, right, design, meas)]
    x = left @ right.T
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        right = _solve_right(left, design, meas)
        history.append(_factor_objective(left, right, design, meas))
        left = _solve_left(right, design, meas)
        history.append(_factor_objective(left, right, design, meas))
        x_new = left @ right.T
        step = np.linalg.norm(x_new - x)
        x = x_new
        if step <= cfg.tol * max(np.linalg.norm(x), 1e-300):
            break
    runtime = time.perf_counter() - t0
    left, right = _freeze(left), _freeze(right)
    row_res, col_res = block_residuals(left, right, design, meas)
    return RecoveryResult(
        left=left,
        right=right,
        rank_used=r,
        algorithm="als",
        runtime_seconds=runtime,
        row_residual=row_res,
        col_residual=col_res,
        relative_error=None if truth is None else relative_error(left, right, truth),
        iterations=iterations,
        final_objective=history[-1],
        objective_history=tuple(history),
    )


def rowcol_operator_matrix(design: MeasurementDesign) -> np.ndarray:
    """Flatten a row/column design into a dense ``(k1*n + k2*m) x (m*n)``
    operator acting on the row-major vec of the target.

    Rows are ordered as ``b_row.ravel()`` followed by ``b_col.ravel()``,
    so ``op @ vec(X)`` equals the concatenated measurement blocks.
    """
    if design.m * design.n > MAX_TARGET_ENTRIES:
        raise ValueError(
            f"target has {design.m * design.n} entries, above the cap of "
            f"{MAX_TARGET_ENTRIES}"
        )
    top = np.kron(design.a_row, np.eye(design.n))
    bottom = np.kron(np.eye(design.m), design.a_col.T)
    return np.vstack([top, bottom])
