"""Recovery of a low-rank matrix from row/column affine measurements.

The main pipeline estimates the column space of ``X`` from ``b_col`` and
the row space from ``b_row`` by truncated SVD, then solves a small least
squares problem for the r x r core ``M`` linking the two bases, giving
``x_hat = U @ M @ V.T``.  For sampling designs, ``cur_recover`` instead
reconstructs directly from the sampled rows, columns, and their overlap
block (a skeleton decomposition), which is exact at the minimal
measurement count.

Estimates are returned as thin factors ``x_hat = left @ right.T``; the
residuals and the error are computed from the factors, so no m x n
matrix is formed unless ``RecoveryResult.x_hat`` is read.  A truth is
given dense or as its ``GroundTruth``; against a ``GroundTruth``, one
or a stack, the error takes one thin QR (:func:`_factored_norms`), in
O((m + n) r^2), and against one dense truth one blocked pass over it.
Every norm of the module is summed again from a power-of-two rescale
when its sum of squares leaves float's normal range (:func:`_norms`).

``svls_stack`` and ``cur_stack`` solve one trial or a stack (designs
and blocks drawn as stacks by ``gen_design`` and ``measure``) in one
pass: numpy's ``svd``, ``eigh`` and ``matmul`` run over the leading
trial axis, one LAPACK or BLAS call per trial, so every trial of a stack
gets the bits it gets alone.  They only solve; ``relative_error``
scores one trial or a stack in one call.  The subspace and core helpers
take a leading trial axis or none.

``svls_recover``, ``cur_recover`` and ``baselines.als_recover`` take one
trial and are scored by one path, ``_one_trial``: it refuses a stacked
design or measurement set before the solve, then adds the trial's
residuals and error to the solver's estimate.  ``block_residuals`` and
``estimate_rank`` take one trial too; the generators and ``measure``
take stacks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .measurements import (
    ERROR_BLOCK_ENTRIES,
    DesignKind,
    GroundTruth,
    MeasurementDesign,
    MeasurementSet,
    _all_finite,
    _check_rank,
    _freeze,
)

# Relative eigenvalue cutoff for the rank-deficient core solve.
CORE_EIG_RTOL = 1e-12

ORTHONORMALITY_TOL = 1e-8

# float's normal range, where a sum of squares keeps every digit
_NORMAL_MIN, _NORMAL_MAX = np.finfo(np.float64).smallest_normal, np.finfo(np.float64).max


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis (d x r) with the singular values that ranked it."""

    basis: np.ndarray
    singular_values: np.ndarray


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Estimate plus diagnostics, of one trial or a stack.

    The estimate is held as factors, ``left`` (m x q) and ``right``
    (n x q), with ``x_hat = left @ right.T``; the dense ``x_hat`` is
    built on first access and cached.  ``row_residual`` and
    ``col_residual`` are Frobenius-norm data misfits of the estimate
    against the two measurement blocks; they are None only for solvers
    that were not run against a row/column measurement set, and, with
    ``relative_error``, for the stacked solvers' unscored estimates,
    which hold a stack's ``left``, ``right`` and ``core`` on a leading
    trial axis, its ``rank_used`` as an integer array, and give each
    trial the stack's solve time divided by its number of trials.
    ``iterations``, ``final_objective``, ``objective_history`` and
    ``converged`` are populated by the iterative baselines; ``converged``
    is True when the ``tol`` stopping rule fired and False when the
    solver stopped at ``max_iters`` or on a non-finite objective.
    ``runtime_seconds`` times the solve alone: the two subspace SVDs and
    the core solve for ``svls``, W's SVD and pseudo-inverse for ``cur``,
    the iterations for ``svp``, and for ``als`` its ``svls`` start, the
    refit operators' thin SVDs and the sweeps, whose residuals are its
    objective; it excludes ``relative_error`` and the other solvers'
    residuals.
    """

    left: np.ndarray
    right: np.ndarray
    rank_used: int | np.ndarray
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
        """The dense estimate ``left @ right.T``, per trial of a stack (read-only)."""
        return _freeze(self.left @ self.right.mT)

    def to_json_dict(self) -> dict:
        """JSON-serializable summary: every scalar field that is set."""
        return {
            f.name: value
            for f in dataclasses.fields(self)
            if (value := getattr(self, f.name)) is not None
            and not isinstance(value, (np.ndarray, tuple))
        }


def relative_error(
    left: np.ndarray, right: np.ndarray, x_true: np.ndarray | GroundTruth
) -> float | list[float]:
    """Relative Frobenius error ``||left @ right.T - x_true||_F / ||x_true||_F``
    of one estimate against one truth, dense or a ``GroundTruth``, or the
    list of each trial's error against a stacked ``GroundTruth``.

    A ``GroundTruth`` is scored from its factors (:func:`_factored_norms`),
    in O((m + n) r^2); a dense m x n truth scores one trial, in one blocked
    pass over it (:func:`_dense_norms`), with no m x n temporary.  A truth
    with a NaN or infinite entry (or factor entry) raises ``ValueError``; a
    finite dense truth costs no extra pass, as its squared norm comes out
    finite.  Against a zero truth it is 0.0 for a zero estimate, else inf.
    """
    if not isinstance(x_true, GroundTruth):
        if max(np.ndim(left), np.ndim(right)) > 2:
            raise ValueError("a dense truth scores one trial, not a stacked estimate")
        return _ratios(*_dense_norms(left, right, x_true)).tolist()
    factors = x_true.left_factor, x_true.right_factor
    if tuple(f.shape[:-1] for f in factors) != (left.shape[:-1], right.shape[:-1]):
        raise ValueError(
            f"truth factors {factors[0].shape} and {factors[1].shape} do not match "
            f"estimate factors {left.shape} and {right.shape}"
        )
    if not all(np.isfinite(f).all() for f in factors):
        raise ValueError("truth entries must be finite")
    return _ratios(*_factored_norms(*factors, left, right)).tolist()


def _exponent(a: np.ndarray) -> int:
    """The binary exponent of ``a``'s largest magnitude; for a zero ``a``,
    one below every float's."""
    top = max(a.max(initial=0.0), -a.min(initial=0.0))
    return int(np.frexp(top)[1]) if top else -2048


def _norms(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of the matrix ``a``, or of each matrix of a
    stack, from its sum of squares.  A matrix whose sum leaves float's
    normal range (entries above about 1e154 or below about 1e-154, or a
    zero matrix) is summed again from its entries times the power of two
    that brings its largest one near 1; a norm above float max reads inf."""
    flat = a.reshape(-1, a.shape[-2] * a.shape[-1])
    with np.errstate(over="ignore"):
        squares = np.vecdot(flat, flat)
        norms = np.sqrt(squares)
        for t, square in enumerate(squares.tolist()):
            if not _NORMAL_MIN <= square <= _NORMAL_MAX:  # nan included
                shift = _exponent(flat[t])
                scaled = np.ldexp(flat[t], -shift)
                norms[t] = np.ldexp(np.sqrt(scaled @ scaled), shift)
    return norms.reshape(a.shape[:-2])


def _factored_norms(
    left: np.ndarray, right: np.ndarray, left2: np.ndarray, right2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``||L R.T - L2 R2.T||_F = ||[R, R2] @ T.T||_F`` and ``||L R.T||_F``,
    of one pair of factorizations or of each trial of stacks, from one
    thin QR ``[L, -L2] = Q T``, whose leading block is the triangular
    factor of ``L``; neither m x n product is formed.  The norms of the
    two n-row products are :func:`_norms`'s."""
    p = left.shape[-1]
    t = np.linalg.qr(np.concatenate([left, -left2], axis=-1), mode="r")
    step = np.concatenate([right, right2], axis=-1) @ t.mT
    return _norms(step), _norms(right @ t[..., :p, :p].mT)


def block_residuals(
    left: np.ndarray,
    right: np.ndarray,
    design: MeasurementDesign,
    meas: MeasurementSet,
) -> tuple[float, float]:
    """Frobenius misfits of ``left @ right.T`` against ``b_row`` and
    ``b_col``, computed through the thin factors (:func:`_norms`), of one
    trial: a stacked design or measurement set raises ``ValueError``."""
    _check_one_trial("block_residuals", meas, design)
    row_res = float(_norms(design.rows(left) @ right.T - meas.b_row))
    col_res = float(_norms(left @ design.cols(right.T) - meas.b_col))
    return row_res, col_res


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    # SVD is sign-ambiguous per column; make the largest-magnitude entry
    # of each column positive so outputs are deterministic.
    idx = np.argmax(np.abs(basis), axis=-2)
    signs = np.sign(np.take_along_axis(basis, idx[..., None, :], axis=-2))
    signs[signs == 0] = 1.0
    return basis * signs


def estimate_col_space(b_col: np.ndarray, r: int) -> SubspaceBasis:
    """Top-``r`` left singular vectors of ``b_col`` (the column-space
    estimate of the target), sign-normalized, with singular values; over
    a stack of blocks, those of each block."""
    b_col = np.asarray(b_col, dtype=np.float64)
    if b_col.ndim not in (2, 3):
        raise ValueError("b_col must be a 2-d matrix or a stack of them")
    _check_rank(r, min(b_col.shape[-2:]))
    u, s, _ = np.linalg.svd(b_col, full_matrices=False)
    return SubspaceBasis(
        basis=_freeze(_fix_signs(u[..., :r])),
        singular_values=_freeze(s[..., :r]),
    )


def estimate_row_space(b_row: np.ndarray, r: int) -> SubspaceBasis:
    """Top-``r`` right singular vectors of ``b_row``; equivalent to
    ``estimate_col_space(b_row.T, r)``, trial by trial over a stack."""
    b_row = np.asarray(b_row, dtype=np.float64)
    if b_row.ndim not in (2, 3):
        raise ValueError("b_row must be a 2-d matrix or a stack of them")
    return estimate_col_space(b_row.mT, r)


def _check_blocks(design: MeasurementDesign, meas: MeasurementSet) -> None:
    blocks = ((design.k1, design.n), (design.m, design.k2))
    if (meas.b_row.shape[-2:], meas.b_col.shape[-2:]) != blocks:
        raise ValueError("measurement block dimensions inconsistent with design")


def _check_basis(name: str, basis: np.ndarray) -> None:
    gram = basis.mT @ basis
    off = np.linalg.norm(gram - np.eye(basis.shape[-1]), axis=(-2, -1))
    if np.any(off > ORTHONORMALITY_TOL):
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
    if ub.shape[-2] != design.m or vb.shape[-2] != design.n:
        raise ValueError("basis dimensions inconsistent with design")
    if ub.shape[-1] != vb.shape[-1]:
        raise ValueError("u and v must have the same rank")
    _check_blocks(design, meas)
    au = design.rows(ub)  # k1 x r
    va = design.cols(vb.mT)  # r x k2
    return ub, vb, au, va


def solve_psd_sylvester(
    a_eig: tuple[np.ndarray, np.ndarray],
    b_eig: tuple[np.ndarray, np.ndarray],
    c: np.ndarray,
) -> np.ndarray:
    """Minimum-norm X (p x n) with ``A @ X + X @ B = C``, for PSD A and B
    given as eigenpairs ``a_eig = (lam, E_a)`` and ``b_eig = (mu, E_b)``.

    The coefficients of X in the eigenbases whose eigenvalue sum
    ``lam_i + mu_j`` is at or below ``CORE_EIG_RTOL * (max lam + max mu)``
    are zero.  A thin ``E_b`` (n x k) means B is zero on the complement
    of its columns, where the equation is ``A @ X = C``.  Over a stack
    (a leading trial axis on every input), each trial is solved with its
    own cutoff.
    """
    lam, ea = a_eig
    mu, eb = b_eig
    ca = ea.mT @ c
    c_t = ca @ eb
    denom = lam[..., :, None] + mu[..., None, :]
    cutoff = CORE_EIG_RTOL * (lam.max(axis=-1, keepdims=True) + mu.max(axis=-1, keepdims=True))
    x_t = np.divide(c_t, denom, out=np.zeros_like(c_t), where=denom > cutoff[..., None])
    if eb.shape[-2] == eb.shape[-1]:
        return ea @ x_t @ eb.mT
    # thin E_b: add A^+ C (I - E_b E_b.T), the solution on the complement
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > cutoff)[..., :, None]
    return ea @ ((x_t - inv * c_t) @ eb.mT + inv * ca)


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
    exactly through their eigendecompositions by
    :func:`solve_psd_sylvester`, which drops coefficients whose
    eigenvalue sum is numerically zero (rank-deficient designs).
    """
    ub, vb, au, va = _core_inputs(u, v, design, meas)
    p = au.mT @ au
    q = va @ va.mT
    c = au.mT @ meas.b_row @ vb + ub.mT @ meas.b_col @ va.mT
    return solve_psd_sylvester(np.linalg.eigh(p), np.linalg.eigh(q), c)


def _ratios(num, denom) -> np.ndarray:
    """``num / denom``; against a zero truth, 0.0 for a zero estimate, else inf."""
    zero = np.where(num == 0.0, 0.0, math.inf)
    return np.divide(num, denom, out=zero, where=denom != 0.0)


def _dense_norms(left: np.ndarray, right: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """``||x - left @ right.T||_F`` and ``||x||_F`` for the dense m x n
    truth ``x``, summed over row blocks of about ``ERROR_BLOCK_ENTRIES``
    entries.  A sum of squares outside float's normal range is taken again
    block by block, from :func:`_norms`, joined by ``math.hypot``."""
    x = np.asarray(x, dtype=np.float64)
    m, n = left.shape[0], right.shape[0]
    if x.shape != (m, n):
        raise ValueError(f"truth shape {x.shape} differs from estimate shape {(m, n)}")
    rows = max(1, min(m, ERROR_BLOCK_ENTRIES // max(1, n)))
    # one contiguous right.T for every block; a single block keeps x_hat's bits
    right_t = right.T if rows == m else np.ascontiguousarray(right.T)
    scratch = np.empty((rows, n))  # every block's product and difference

    def blocks():
        for i in range(0, m, rows):
            block = x[i : i + rows]
            diff = np.matmul(left[i : i + rows], right_t, out=scratch[: len(block)])
            diff -= block
            yield diff, block

    num = denom = 0.0
    with np.errstate(over="ignore"):  # an overflowed sum is taken again below
        for diff, block in blocks():
            diff, block = diff.ravel(), block.ravel()
            num, denom = num + np.vecdot(diff, diff), denom + np.vecdot(block, block)
        if _NORMAL_MIN <= num <= _NORMAL_MAX and _NORMAL_MIN <= denom <= _NORMAL_MAX:
            return math.sqrt(num), math.sqrt(denom)
        # a truth's squared norm is finite unless an entry is, or the squares overflow
        if not (math.isfinite(denom) or _all_finite(x)):
            raise ValueError("truth entries must be finite")
        num = denom = 0.0
        for diff, block in blocks():
            num, denom = math.hypot(num, _norms(diff)), math.hypot(denom, _norms(block))
    return num, denom


def _check_svls(design: MeasurementDesign, meas: MeasurementSet, r: int) -> None:
    """What :func:`svls_stack` checks before it solves; it depends on the
    point (shapes and rank), not on a trial's draw."""
    _check_rank(r, min(design.m, design.n, design.k1, design.k2))
    _check_blocks(design, meas)


def _check_cur(design: MeasurementDesign, meas: MeasurementSet, r: int) -> None:
    """What :func:`cur_stack` checks before it solves (``r`` is unused)."""
    if design.kind is not DesignKind.ROW_COL_SAMPLE:
        raise ValueError("cur_recover requires a row/column sampling design")
    _check_blocks(design, meas)


def _unscored(algorithm: str, t0: float, left, right, core, rank_used) -> RecoveryResult:
    """The estimate, each trial given its share of the solve time since ``t0``."""
    seconds = (time.perf_counter() - t0) / max(1, math.prod(left.shape[:-2]))
    rank_used = int(rank_used) if np.ndim(rank_used) == 0 else rank_used
    return RecoveryResult(left, right, rank_used, algorithm, seconds, core)


def svls_stack(meas: MeasurementSet, design: MeasurementDesign, r: int) -> RecoveryResult:
    """:func:`svls_recover`'s unscored estimate of one trial or of every
    trial of a stack, in one pass."""
    _check_svls(design, meas, r)
    t0 = time.perf_counter()
    u = estimate_col_space(meas.b_col, r)
    v = estimate_row_space(meas.b_row, r)
    core = _freeze(solve_core(u, v, design, meas))
    left = _freeze(u.basis @ core)
    return _unscored("svls", t0, left, v.basis, core, np.full(left.shape[:-2], r))


def cur_stack(
    meas: MeasurementSet, design: MeasurementDesign, r: int | None = None
) -> RecoveryResult:
    """:func:`cur_recover`'s unscored estimate of one trial or of every
    trial of a stack, in one pass (``r`` is unused).  Every trial's
    pseudo-inverse of W is taken in one masked pass: W's singular values
    at or below the cutoff get a zero inverse."""
    _check_cur(design, meas, r)
    t0 = time.perf_counter()
    w = 0.5 * (design.cols(meas.b_row) + design.rows(meas.b_col))
    uw, sw, vwt = np.linalg.svd(w, full_matrices=False)
    keep = sw > np.maximum(1e-10 * sw[..., :1], 3.0 * meas.sigma)
    inv = np.divide(1.0, sw, out=np.zeros_like(sw), where=keep)
    w_pinv = (vwt.mT * inv[..., None, :]) @ uw.mT
    left = _freeze(meas.b_col @ w_pinv)
    # A copy (b_row may be the caller's writable array) laid out so that
    # right.T is laid out like b_row, and ``left @ right.T`` is the same
    # BLAS call, with the same bits, as ``left @ b_row``.
    right = meas.b_row.mT.copy(order="K")
    right.flags.writeable = False
    return _unscored("cur", t0, left, right, None, np.count_nonzero(keep, axis=-1))


def _check_one_trial(name, meas, design=None) -> None:
    """ValueError if ``meas`` or ``design``, if given, is a stack (its
    ``trial_shape`` is not ``()``): ``name`` takes one trial."""
    if meas.trial_shape or design is not None and design.trial_shape:
        raise ValueError(f"{name} takes one trial, not a stack")


def _one_trial(name, solve, meas, design, r, truth) -> RecoveryResult:
    """``solve`` on the one trial ``(meas, design)``, scored against
    ``truth``; a stack is refused, in the name of the public call ``name``,
    before the solve."""
    _check_one_trial(name, meas, design)
    sol = solve(meas, design, r)
    row_res, col_res = block_residuals(sol.left, sol.right, design, meas)
    error = None if truth is None else relative_error(sol.left, sol.right, truth)
    return dataclasses.replace(sol, row_residual=row_res, col_residual=col_res, relative_error=error)


def svls_recover(
    meas: MeasurementSet,
    design: MeasurementDesign,
    r: int,
    truth: np.ndarray | GroundTruth | None = None,
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
    truth : ndarray or GroundTruth, optional
        Ground truth, dense or as its factors; when given,
        ``relative_error`` is filled in (see :func:`relative_error`).
        Its entries must be finite (``ValueError``).

    In the noiseless case with ``k1 = k2 = r`` and generic inputs the
    estimate is exact up to floating-point error.  This is
    :func:`svls_stack` on the one trial, scored.
    """
    return _one_trial("svls_recover", svls_stack, meas, design, r, truth)


def cur_recover(
    meas: MeasurementSet,
    design: MeasurementDesign,
    truth: np.ndarray | GroundTruth | None = None,
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
    has the deficient rank.  This is :func:`cur_stack` on the one trial,
    scored.
    """
    return _one_trial("cur_recover", cur_stack, meas, design, None, truth)


def estimate_rank(b_row: np.ndarray, b_col: np.ndarray, sigma: float) -> int:
    """Estimate the target rank from the two measurement blocks.

    Counts singular values above ``max(2 * sigma * sqrt(max block
    dimension), 1e-10 * s1)`` in each block and returns the smaller
    count.  Returns 0 for all-zero blocks; callers must treat 0 as
    degenerate.  ``sigma`` must be a finite nonnegative number and the
    blocks' entries finite, as a ``MeasurementSet`` checks them, and the
    blocks one trial's, not stacks (``ValueError``).
    """
    blocks = (np.asarray(block, dtype=np.float64) for block in (b_row, b_col))
    meas = MeasurementSet(*blocks, sigma, noise_seed=None)  # its checks of sigma and the blocks
    _check_one_trial("estimate_rank", meas)

    def count(block: np.ndarray) -> int:
        s = np.linalg.svd(block, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        thresh = max(2.0 * sigma * math.sqrt(max(block.shape)), 1e-10 * s[0])
        return int(np.count_nonzero(s > thresh))

    return min(count(meas.b_row), count(meas.b_col))

