"""Ground-truth generation and row/column affine measurements.

A target matrix ``X`` (m x n) is observed through two blocks::

    b_row = a_row @ X + noise      (k1 x n, mixes entries within columns)
    b_col = X @ a_col + noise      (m x k2, mixes entries within rows)

Two designs are supported: dense i.i.d. standard-normal sensing matrices
(``GAUSSIAN_AFFINE``, unnormalized by convention) and 0/1 row/column
selection (``ROW_COL_SAMPLE``).

All randomness flows through numpy's PCG64 generator
(``numpy.random.default_rng``) with a fixed stream order, so every value
is reproducible bit for bit from its seed:

* ``gen_low_rank`` draws the left factor before the right factor, each
  filled in row-major order;
* ``gen_design`` draws ``a_row`` before ``a_col`` (Gaussian) and row
  indices before column indices (sampling);
* ``measure`` draws the noise for ``b_row`` before ``b_col``.

All returned arrays are marked read-only; values are safe to share
across threads.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

import numpy as np

# measure's finiteness check and recovery.relative_error visit an m x n
# matrix in row blocks of about this many entries (2 MB of float64), so
# their scratch memory does not grow with m*n.
ERROR_BLOCK_ENTRIES = 1 << 18


class DesignKind(str, enum.Enum):
    """Measurement design family."""

    GAUSSIAN_AFFINE = "gaussian"
    ROW_COL_SAMPLE = "rowcol"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _freeze_index(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


def _selection(indices: np.ndarray, size: int) -> np.ndarray:
    """0/1 matrix whose row i has its one 1 at column ``indices[i]``."""
    s = np.zeros((len(indices), size))
    s[np.arange(len(indices)), indices] = 1.0
    return s


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """A rank-``rank`` target ``x = left_factor @ right_factor.T``."""

    x: np.ndarray
    rank: int
    left_factor: np.ndarray
    right_factor: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        m, n = self.x.shape
        if self.left_factor.shape != (m, self.rank):
            raise ValueError("left_factor shape inconsistent with x and rank")
        if self.right_factor.shape != (n, self.rank):
            raise ValueError("right_factor shape inconsistent with x and rank")


@dataclass(frozen=True, eq=False)
class MeasurementDesign:
    """The sensing operator pair ``(a_row, a_col)`` plus its kind.

    For ``ROW_COL_SAMPLE`` designs, ``a_row`` has exactly one 1 per row
    (at ``row_indices[i]``) and ``a_col`` exactly one 1 per column (at
    ``col_indices[j]``); for Gaussian designs the index lists are None.
    """

    kind: DesignKind
    a_row: np.ndarray
    a_col: np.ndarray
    row_indices: np.ndarray | None
    col_indices: np.ndarray | None
    seed: int

    def __post_init__(self) -> None:
        if self.a_row.ndim != 2 or self.a_col.ndim != 2:
            raise ValueError("a_row and a_col must be 2-d matrices")
        if self.kind is DesignKind.ROW_COL_SAMPLE:
            if self.row_indices is None or self.col_indices is None:
                raise ValueError("sampling design requires row and column indices")
        else:
            if self.row_indices is not None or self.col_indices is not None:
                raise ValueError("Gaussian design must not carry index lists")

    @property
    def m(self) -> int:
        return self.a_row.shape[1]

    @property
    def n(self) -> int:
        return self.a_col.shape[0]

    @property
    def k1(self) -> int:
        return self.a_row.shape[0]

    @property
    def k2(self) -> int:
        return self.a_col.shape[1]


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Observed blocks ``b_row`` (k1 x n) and ``b_col`` (m x k2).

    ``total_measurements`` is ``k1*n + k2*m``.  For sampling designs the
    k1 x k2 overlap block is observed twice, so the number of distinct
    scalar observations ``k1*n + k2*m - k1*k2`` is recorded as well.
    """

    b_row: np.ndarray
    b_col: np.ndarray
    sigma: float
    design_seed: int
    noise_seed: int
    total_measurements: int
    distinct_measurements: int | None


def gen_low_rank(m: int, n: int, r: int, seed: int) -> GroundTruth:
    """Draw a random rank-``r`` matrix ``X = L @ R.T`` with standard
    normal factor entries.

    Deterministic for fixed ``(m, n, r, seed)``.
    """
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m}x{n}")
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} outside valid range [1, {min(m, n)}]")
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((m, r))
    right = rng.standard_normal((n, r))
    return GroundTruth(
        x=_freeze(left @ right.T),
        rank=r,
        left_factor=_freeze(left),
        right_factor=_freeze(right),
        seed=seed,
    )


def gen_design(
    kind: DesignKind, m: int, n: int, k1: int, k2: int, seed: int
) -> MeasurementDesign:
    """Draw a measurement design for an m x n target.

    Gaussian designs fill ``a_row`` (k1 x m) and ``a_col`` (n x k2) with
    i.i.d. standard normal entries.  Sampling designs draw k1 distinct
    row indices and k2 distinct column indices uniformly without
    replacement and build the 0/1 selection matrices.
    """
    kind = DesignKind(kind)
    if min(m, n, k1, k2) < 1:
        raise ValueError("design dimensions must be positive")
    rng = np.random.default_rng(seed)
    if kind is DesignKind.GAUSSIAN_AFFINE:
        a_row = rng.standard_normal((k1, m))
        a_col = rng.standard_normal((n, k2))
        row_indices = col_indices = None
    else:
        if k1 > m or k2 > n:
            raise ValueError(
                f"sampling design needs k1 <= m and k2 <= n, got "
                f"k1={k1}, m={m}, k2={k2}, n={n}"
            )
        row_indices = rng.choice(m, size=k1, replace=False)
        col_indices = rng.choice(n, size=k2, replace=False)
        a_row = _selection(row_indices, m)
        a_col = _selection(col_indices, n).T
    return MeasurementDesign(
        kind=kind,
        a_row=_freeze(a_row),
        a_col=_freeze(a_col),
        row_indices=None if row_indices is None else _freeze_index(row_indices),
        col_indices=None if col_indices is None else _freeze_index(col_indices),
        seed=seed,
    )


def measure(
    x: np.ndarray, design: MeasurementDesign, sigma: float, noise_seed: int
) -> MeasurementSet:
    """Apply the affine measurement operator, adding i.i.d. Gaussian
    noise of standard deviation ``sigma`` to every scalar observation.

    With ``sigma = 0`` the blocks equal ``a_row @ x`` and ``x @ a_col``
    exactly (no noise stream is consumed).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be a 2-d matrix")
    rows = max(1, ERROR_BLOCK_ENTRIES // max(1, x.shape[1]))
    for i in range(0, len(x), rows):
        if not np.isfinite(x[i : i + rows]).all():
            raise ValueError("x entries must be finite")
    if not 0 <= sigma <= sys.float_info.max:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if x.shape != (design.m, design.n):
        raise ValueError(
            f"design expects a {design.m}x{design.n} target, got {x.shape[0]}x{x.shape[1]}"
        )
    b_row = design.a_row @ x
    b_col = x @ design.a_col
    if sigma > 0:
        rng = np.random.default_rng(noise_seed)
        b_row = b_row + sigma * rng.standard_normal(b_row.shape)
        b_col = b_col + sigma * rng.standard_normal(b_col.shape)
    k1, k2 = design.k1, design.k2
    total = k1 * design.n + k2 * design.m
    distinct = None
    if design.kind is DesignKind.ROW_COL_SAMPLE:
        distinct = total - k1 * k2
    return MeasurementSet(
        b_row=_freeze(b_row),
        b_col=_freeze(b_col),
        sigma=float(sigma),
        design_seed=design.seed,
        noise_seed=noise_seed,
        total_measurements=total,
        distinct_measurements=distinct,
    )
