"""Iterative baselines used for speed/accuracy comparisons.

``svp_recover`` is singular value projection (iterative hard
thresholding) on a dense operator over the flattened target, the
standard-design baseline that the simulation harness allots
``k1*n + k2*m`` scalar measurements to match the row/column budget, or
on a row/column design through its ``rows``, ``cols`` and ``adjoint``.
Its one step rule is a Barzilai-Borwein (or, with no last update,
line-search) trial that is divided by 4 until the objective does not
rise, so it needs no bound on ``sigma_max(op)``.
``als_recover`` alternately refits the two factors of ``X = L @ R.T``
against the row/column blocks, starting from ``svls_recover``'s one
SVD+LS pass, so it measures what iterative refinement adds to that pass.
Both report ``converged``: whether the ``tol`` stopping rule fired
before ``max_iters``.  Both take one trial: ``svp_recover`` refuses a
stacked design, and ``als_recover`` a stacked design or measurement
set, through ``recovery._one_trial``, which scores it as it scores
``svls_recover`` and ``cur_recover``.

ALS's half-steps are PSD Sylvester equations, solved by ``solve_core``'s
solver through the thin SVDs of the design's operators: LAPACK's for a
Gaussian design, and for a sampling design its selected coordinate
vectors, read from its indices.  The cap of 1e5 target entries applies
only to the dense operator ``gaussian_operator`` draws.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .measurements import (
    GroundTruth, MeasurementDesign, MeasurementSet, _check_dims, _check_rank, _freeze,
    _is_finite_nonnegative, _is_int, _normal,
)
from .recovery import (
    CORE_EIG_RTOL,
    RecoveryResult,
    _exponent,
    _factored_norms,
    _norms,
    _one_trial,
    block_residuals,
    relative_error,
    solve_psd_sylvester,
    svls_recover,
)
# uncalled here: the benchmark's tracer patches these names (ROADMAP item 11)
from .recovery import estimate_col_space, estimate_row_space, solve_core  # noqa: F401

__all__ = ["IterativeSolverConfig", "als_recover", "gaussian_operator", "svp_recover"]

MAX_TARGET_ENTRIES = 100_000
# SVP divides a rejected trial step by BACKOFF, at most
# MAX_BACKOFFS times per iteration (4**-60 is about 1e-36).
BACKOFF = 4.0
MAX_BACKOFFS = 60


@dataclass(frozen=True)
class IterativeSolverConfig:
    """Stopping rule shared by the iterative solvers: at most
    ``max_iters`` iterations, stopping once the relative change in the
    iterate is at most ``tol``.  Bools are not numbers here."""

    max_iters: int = 500
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (_is_int(self.max_iters) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer of at least 1")
        if not (_is_finite_nonnegative(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")


def gaussian_operator(m: int, n: int, k: int, seed: int) -> np.ndarray:
    """Draw a read-only k x (m*n) dense Gaussian sensing operator: row i is
    a flattened i.i.d. standard normal sensing matrix acting on the
    row-major vec of X.  ``m``, ``n`` and ``k`` must be positive integers,
    Python's or numpy's, not bools, and targets above ``MAX_TARGET_ENTRIES``
    are refused (``ValueError``)."""
    _check_dims("operator", m, n, k)
    m, n = int(m), int(n)  # numpy's m * n would wrap past the cap
    if m * n > MAX_TARGET_ENTRIES:
        raise ValueError(
            f"target has {m * n} entries, above the dense-operator cap of "
            f"{MAX_TARGET_ENTRIES}"
        )
    # drawn as a one-seed stack, so that a tuple seed is refused, not stacked
    return _freeze(_normal((seed,), (k, m * n))[0][0])


def _operator(op: np.ndarray | MeasurementDesign, m: int, n: int) -> tuple:
    """SVP's operator on an m x n target, checked, as ``(k, forward, adjoint,
    split)``: its k measurements, ``X -> A(X)``, ``res -> A*(res)`` (m x n)
    and a residual's row-block length.  A finite k x (m*n) matrix acts on the
    row-major vec of X (split None); an unstacked design measures
    ``rows(X).ravel()`` then ``cols(X).ravel()`` (split ``k1*n``)."""
    _check_dims("target", m, n)
    if isinstance(op, MeasurementDesign):
        if (op.m, op.n) != (m, n) or op.trial_shape:  # nor a stacked design
            raise ValueError("design inconsistent with target dimensions")
        split = op.k1 * n
        return (
            op.total_measurements,
            lambda x: np.concatenate([op.rows(x).ravel(), op.cols(x).ravel()]),
            lambda res: op.adjoint(res[:split].reshape(-1, n), res[split:].reshape(m, -1)),
            split,
        )
    if op.ndim != 2 or op.shape[1] != m * n:
        raise ValueError("operator shape inconsistent with target dimensions")
    if not np.isfinite(op).all():
        raise ValueError("operator entries must be finite")
    return op.shape[0], (lambda x: op @ x.ravel()), (lambda res: (op.T @ res).reshape(m, n)), None


def _projected_step(
    x: np.ndarray, grad: np.ndarray, eta: float, forward, b: np.ndarray, r: int
) -> tuple:
    """One SVP update ``TruncSVD_r(x - eta * grad)`` as ``(left, right,
    x_new, resid, objective)``, with ``resid = forward(x_new) - b``; the
    objective is inf, and nothing else is computed, when the gradient
    step is not finite (LAPACK's SVD does not return on infinite input)."""
    y = x - eta * grad
    if not np.isfinite(y).all():
        return None, None, None, None, math.inf
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    left, right = u[:, :r] * s[:r], vt[:r].T
    x_new = left @ right.T
    resid = forward(x_new) - b
    return left, right, x_new, resid, float(resid @ resid)


def svp_recover(
    b: np.ndarray,
    op: np.ndarray | MeasurementDesign,
    m: int,
    n: int,
    r: int,
    cfg: IterativeSolverConfig | None = None,
    truth: np.ndarray | GroundTruth | None = None,
) -> RecoveryResult:
    """Singular value projection: projected gradient descent on
    ``||A(X) - b||^2`` over the rank-r set.  ``op`` is a k x (m*n) matrix,
    ``A(X) = op @ vec(X)`` on the row-major vec of X, or an unstacked
    design, ``A(X)`` its blocks ``rows(X)`` and ``cols(X)`` raveled in
    turn (as ``b`` holds ``b_row`` and ``b_col``) and ``A*`` its
    ``adjoint``; on a design the result carries both blocks' residuals.

    Iterates ``X <- TruncSVD_r(X - eta * A*(A(X) - b))`` from ``X = 0``.
    The step ``eta`` is the Barzilai-Borwein step ``||dX||^2 /
    ||A(dX)||^2`` of the last update or, with none (or one in the null
    space of ``A``), the line-search step ``||G||^2 / ||A(G)||^2`` along
    the gradient G, divided by ``BACKOFF`` while the projected trial
    would raise the objective.  Majorization forbids a rise once
    ``eta <= 1/sigma_max(A)^2``, so the objective is nonincreasing
    without that bound being computed; ``MAX_BACKOFFS`` caps the shrinks
    against rounding, and reaching it ends the iteration at the last
    accepted iterate, with ``converged=False``.

    SVP commutes exactly with scaling ``b`` by a power of two, so it runs
    on ``b`` times the power of two that brings its largest entry near 1
    and scales back ``left``, the residuals and the objectives: data far
    outside float's normal range takes the unit-scale iterations, and an
    objective above float max reads inf.

    Nonconvergence is not an error: the result carries the iteration
    count, the final objective and ``converged`` either way.  ``m``, ``n``
    and ``op`` are checked before ``b``; non-finite ``b`` or ``op`` entries
    raise ``ValueError``, a design's when it is built.
    """
    cfg = cfg or IterativeSolverConfig()
    k, forward, adjoint, split = _operator(op, m, n)
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.shape[0] != k:
        raise ValueError(f"expected {k} measurements, got {b.shape[0]}")
    _check_rank(r, min(m, n))
    if not np.isfinite(b).all():
        raise ValueError("measurements must be finite")
    shift = _exponent(b)
    b = np.ldexp(b, -shift)
    t0 = time.perf_counter()
    x = np.zeros((m, n))
    left, right = np.zeros((m, r)), np.zeros((n, r))
    resid = -b  # A(0) - b
    history = [float(resid @ resid)]
    bb = 0.0  # Barzilai-Borwein step of the last update; 0 means none
    iterations = 0
    converged = False
    # Overflow is caught below as a non-finite objective, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_iters):
            grad = adjoint(resid)
            if bb > 0:
                eta = bb
            else:  # exact line search along -grad
                g = forward(grad)
                g_sq = float(g @ g)
                # g = 0 only if grad = 0, when every eta gives the same iterate
                eta = float(np.vdot(grad, grad)) / g_sq if g_sq > 0 else 1.0
            trial = _projected_step(x, grad, eta, forward, b, r)
            backoffs = 0
            while not trial[-1] <= history[-1] and backoffs < MAX_BACKOFFS:
                eta /= BACKOFF
                backoffs += 1
                trial = _projected_step(x, grad, eta, forward, b, r)
            if not trial[-1] <= history[-1]:
                break
            left, right, x_new, resid_new, objective = trial
            iterations += 1
            history.append(objective)
            step = float(np.linalg.norm(x_new - x))
            dr = resid_new - resid  # A(x_new - x)
            dr_sq = float(dr @ dr)
            bb = step * step / dr_sq if dr_sq > 0 else 0.0
            x, resid = x_new, resid_new
            if step <= cfg.tol * max(np.linalg.norm(x), 1e-300):
                converged = True
                break
    runtime = time.perf_counter() - t0
    row_res = col_res = None
    with np.errstate(over="ignore"):  # back to b's scale, where a norm may read inf
        if split is not None:  # a design's two blocks of the final residual
            blocks = np.split(resid, [split])
            row_res, col_res = (float(np.ldexp(_norms(p[None]), shift)) for p in blocks)
        history = np.ldexp(history, 2 * shift).tolist()
        left = _freeze(np.ldexp(left, shift))
    right.flags.writeable = False  # a transposed view of this call's SVD output
    return RecoveryResult(
        left=left,
        right=right,
        rank_used=int(r),
        algorithm="svp",
        runtime_seconds=runtime,
        row_residual=row_res,
        col_residual=col_res,
        relative_error=None if truth is None else relative_error(left, right, truth),
        iterations=iterations,
        final_objective=history[-1],
        objective_history=tuple(history),
        converged=converged,
    )


def _refit(
    fixed: np.ndarray,
    b_row: np.ndarray,
    b_col: np.ndarray,
    row_op: tuple[np.ndarray, np.ndarray, np.ndarray],
    col_op: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Minimum-norm R (n x r) minimizing ``||a_row fixed R.T - b_row||^2 +
    ||fixed R.T a_col - b_col||^2``, given the thin SVDs ``(v, s, zt)`` of
    ``a_row.T`` and ``a_col``; the other factor's refit is this one on the
    transposed problem.

    The normal equation ``R G.T G + S R fixed.T fixed = C``, with
    ``G = a_row fixed`` and ``S = a_col a_col.T``, is whitened by
    ``fixed = U diag(w) W.T`` (w above ``sqrt(CORE_EIG_RTOL) * w_max``):
    ``Y = R W diag(w)`` solves ``(H.T H) Y.T + Y.T S = C'`` with
    ``H = a_row U``, and S's eigenpairs come from the SVD of ``a_col``.
    """
    u, w, wt = np.linalg.svd(fixed, full_matrices=False)
    keep = w > math.sqrt(CORE_EIG_RTOL) * w[0]
    if not keep.any():  # the objective does not depend on R
        return np.zeros((b_row.shape[1], fixed.shape[1]))
    u, w, wt = u[:, keep], w[keep], wt[keep]
    v_r, s_r, zt_r = row_op
    v_c, s_c, zt_c = col_op
    h = (zt_r.T * s_r) @ (v_r.T @ u)  # a_row @ u
    c = h.T @ b_row + ((u.T @ b_col) @ zt_c.T * s_c) @ v_c.T
    y_t = solve_psd_sylvester(np.linalg.eigh(h.T @ h), (s_c**2, v_c), c)
    return y_t.T @ (wt / w[:, None])


def _refit_operators(design: MeasurementDesign) -> tuple[tuple, tuple]:
    """The thin SVDs ``(v, s, zt)`` of ``a_row.T`` and ``a_col`` that
    :func:`_refit` takes: LAPACK's for a Gaussian design; for a sampling
    design, its selected coordinate vectors, with unit singular values
    and the identity, built from its indices in O(m*k1 + n*k2)."""
    if design.a_row is not None:
        return tuple(
            np.linalg.svd(a, full_matrices=False) for a in (design.a_row.T, design.a_col)
        )

    def selection(indices: np.ndarray, size: int) -> tuple:
        k = len(indices)
        v = np.zeros((size, k))
        v[indices, np.arange(k)] = 1.0
        return v, np.ones(k), np.eye(k)

    return selection(design.row_indices, design.m), selection(design.col_indices, design.n)


def als_recover(
    meas: MeasurementSet,
    design: MeasurementDesign,
    r: int,
    cfg: IterativeSolverConfig | None = None,
    truth: np.ndarray | GroundTruth | None = None,
) -> RecoveryResult:
    """Alternating least squares on the factors of ``X = L @ R.T``, from
    the estimate of :func:`svls_recover`, whose pass and checks it takes
    as its start.

    Each half-step solves an exact linear least-squares problem for one
    factor against both measurement blocks (its minimum-norm solution,
    see ``_refit``), so the objective is nonincreasing across
    half-steps and ends no higher than at the estimate it starts from.
    The error carries no such guarantee: where sigma_r nears the noise, ALS
    fits the noise, and its error can end above its start's.
    ``objective_history[0]`` is the start's squared residuals, and the
    residuals are those of the last half-step, scored as
    ``svls_recover``'s are.
    """
    cfg = cfg or IterativeSolverConfig()

    def sweeps(meas, design, r) -> RecoveryResult:  # the unscored estimate
        t0 = time.perf_counter()
        start = svls_recover(meas, design, r)
        left, right = start.left, start.right
        row_op, col_op = _refit_operators(design)
        b_row, b_col = meas.b_row, meas.b_col
        # the start's residuals, then each half-step's
        residuals = [(start.row_residual, start.col_residual)]
        converged = False
        for _ in range(cfg.max_iters):
            prev_left, prev_right = left, right
            right = _refit(left, b_row, b_col, row_op, col_op)
            residuals.append(block_residuals(left, right, design, meas))
            left = _refit(right, b_col.T, b_row.T, col_op, row_op)
            residuals.append(block_residuals(left, right, design, meas))
            step, size = map(float, _factored_norms(left, right, prev_left, prev_right))
            if step <= cfg.tol * max(size, 1e-300):
                converged = True
                break
        runtime = time.perf_counter() - t0
        history = tuple(row_res * row_res + col_res * col_res for row_res, col_res in residuals)
        return RecoveryResult(
            left=_freeze(left),
            right=_freeze(right),
            rank_used=start.rank_used,
            algorithm="als",
            runtime_seconds=runtime,
            iterations=len(history) // 2,  # the start, then two half-steps an iteration
            final_objective=history[-1],
            objective_history=history,
            converged=converged,
        )

    return _one_trial("als_recover", sweeps, meas, design, r, truth)
