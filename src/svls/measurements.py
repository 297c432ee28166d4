"""Ground-truth generation and row/column affine measurements.

A target matrix ``X`` (m x n) is observed through two blocks::

    b_row = a_row @ X + noise      (k1 x n, mixes entries within columns)
    b_col = X @ a_col + noise      (m x k2, mixes entries within rows)

Two designs are supported: dense i.i.d. standard-normal sensing matrices
(``GAUSSIAN_AFFINE``, unnormalized by convention) and row/column
sampling (``ROW_COL_SAMPLE``), whose measurements are single entries of
X: that design is its two index vectors, applied by the gathers
``X[rows]`` and ``X[:, cols]``, which for finite input give the same
bits as products with 0/1 selection matrices.  ``MeasurementDesign.rows``
and ``cols`` are the only places a design is applied, and ``operators``
builds the dense matrices for the solvers that need them.  A ground truth is
held as its factors.  ``MeasurementDesign.stack`` and
``MeasurementSet.stack`` put the designs and blocks of several trials on
a leading trial axis, so the recovery solvers can take them in one call.

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
import functools
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# measure's finiteness check and recovery.relative_error visit an m x n
# matrix in row blocks of about this many entries (512 KB of float64), so
# their scratch memory does not grow with m*n.  relative_error is fastest
# at 2^15-2^16 entries: a truth block and its product scratch then fit in
# a 2 MB per-core L2 beside BLAS's packing buffers; larger blocks spill.
# A sweep's stack of trials holds truths of at most this many entries in
# all: at 50 x 50 a sweep was fastest at 2^16 (2^14-2^18 measured).
ERROR_BLOCK_ENTRIES = 1 << 16


class DesignKind(str, enum.Enum):
    """Measurement design family."""

    GAUSSIAN_AFFINE = "gaussian"
    ROW_COL_SAMPLE = "rowcol"


def _is_int(value) -> bool:
    """An integer, Python's or numpy's, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_nonnegative(value) -> bool:
    """A real number (not a bool), Python's or numpy's, in ``[0, float
    max]``; huge ints included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if isinstance(value, np.floating):  # a float32 would compare float max as inf
        value = float(value)
    return 0 <= value <= sys.float_info.max


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays on a new leading axis; one array is viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """A rank-``rank`` target held as its factors; the dense
    ``x = left_factor @ right_factor.T`` is built on first access and
    cached."""

    left_factor: np.ndarray
    right_factor: np.ndarray
    seed: int

    @property
    def rank(self) -> int:
        return self.left_factor.shape[1]

    @functools.cached_property
    def x(self) -> np.ndarray:
        """The dense m x n target (read-only)."""
        return _freeze(self.left_factor @ self.right_factor.T)


@dataclass(frozen=True, eq=False)
class MeasurementDesign:
    """A row/column measurement design for an m x n target.

    A Gaussian design holds the dense sensing matrices ``a_row``
    (k1 x m) and ``a_col`` (n x k2).  A ``ROW_COL_SAMPLE`` design holds
    only the sampled ``row_indices`` (k1) and ``col_indices`` (k2),
    checked to be distinct and in range and kept as read-only int64
    copies: its operators are gathers, applied by :meth:`rows` and
    :meth:`cols`.

    A stacked design (see :meth:`stack`) holds the same arrays with a
    leading trial axis, and a tuple of seeds; its :meth:`rows` and
    :meth:`cols` apply each trial's design to that trial's slice of a
    stack.  An unstacked design applies itself to every slice.
    """

    kind: DesignKind
    m: int
    n: int
    seed: int | tuple[int, ...]
    a_row: np.ndarray | None = None
    a_col: np.ndarray | None = None
    row_indices: np.ndarray | None = None
    col_indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        held, absent = (self.a_row, self.a_col), (self.row_indices, self.col_indices)
        if self.kind is DesignKind.ROW_COL_SAMPLE:
            held, absent = absent, held
        if any(a is None for a in held) or any(a is not None for a in absent):
            raise ValueError(
                "a Gaussian design holds a_row and a_col only, a sampling "
                "design row_indices and col_indices only"
            )
        if self.a_row is not None and not (
            self.a_row.ndim == self.a_col.ndim in (2, 3)
            and self.a_row.shape[:-2] == self.a_col.shape[:-2]
            and self.a_row.shape[-1] == self.m
            and self.a_col.shape[-2] == self.n
        ):
            raise ValueError("a_row must be k1 x m and a_col n x k2")
        if self.row_indices is None:
            return
        stacked = None  # the leading shape of row_indices
        for name, size in (("row_indices", self.m), ("col_indices", self.n)):
            idx = np.asarray(getattr(self, name))
            if idx.ndim not in (1, 2) or idx.size == 0 or idx.dtype.kind not in "iu":
                raise ValueError(
                    f"{name} must be a nonempty 1-d integer vector, or a stack of them"
                )
            if stacked not in (None, idx.shape[:-1]):
                raise ValueError(
                    f"{name} must be a nonempty 1-d integer vector, or a stack of "
                    "them, as row_indices is"
                )
            stacked = idx.shape[:-1]
            for entries in idx.reshape(-1, idx.shape[-1]).tolist():
                if min(entries) < 0 or max(entries) >= size:
                    raise ValueError(f"{name} has an entry outside [0, {size})")
                if len(set(entries)) != len(entries):
                    raise ValueError(f"{name} repeats an index")
            # a read-only copy, so the checked indices cannot change
            idx = idx.astype(np.int64)
            idx.flags.writeable = False
            object.__setattr__(self, name, idx)

    @classmethod
    def stack(cls, designs: list[MeasurementDesign]) -> MeasurementDesign:
        """One design for a stack of trials: the designs' sensing
        matrices, or index vectors, on a leading trial axis.  The designs
        must share kind and shapes."""
        first = designs[0]
        shape = (first.kind, first.m, first.n, first.k1, first.k2)
        if any((d.kind, d.m, d.n, d.k1, d.k2) != shape for d in designs):
            raise ValueError("stacked designs must share kind and shapes")
        names = ("a_row", "a_col") if first.a_row is not None else (
            "row_indices", "col_indices")
        arrays = {name: _stack([getattr(d, name) for d in designs]) for name in names}
        return cls(first.kind, first.m, first.n, tuple(d.seed for d in designs), **arrays)

    @property
    def k1(self) -> int:
        return self.row_indices.shape[-1] if self.a_row is None else self.a_row.shape[-2]

    @property
    def k2(self) -> int:
        return self.col_indices.shape[-1] if self.a_col is None else self.a_col.shape[-1]

    @property
    def total_measurements(self) -> int:
        """Scalar observations in both blocks, ``k1*n + k2*m``."""
        return self.k1 * self.n + self.k2 * self.m

    @property
    def distinct_measurements(self) -> int | None:
        """For sampling designs, the observations without the k1 x k2
        overlap block, which both blocks observe; None for Gaussian ones."""
        if self.kind is not DesignKind.ROW_COL_SAMPLE:
            return None
        return self.total_measurements - self.k1 * self.k2

    def rows(self, y: np.ndarray) -> np.ndarray:
        """``a_row @ y`` for an m x p ``y``, or a stack of them: the k1 row
        combinations."""
        if self.a_row is not None:
            return self.a_row @ y
        if self.row_indices.ndim == 1:
            return y[..., self.row_indices, :]
        return y[np.arange(len(y))[:, None], self.row_indices]

    def cols(self, y: np.ndarray) -> np.ndarray:
        """``y @ a_col`` for a p x n ``y``, or a stack of them: the k2
        column combinations."""
        if self.a_col is not None:
            return y @ self.a_col
        if self.col_indices.ndim == 1:
            return y[..., self.col_indices]
        # laid out as y[:, cols] lays out each trial's gather: column-major
        return y.mT[np.arange(len(y))[:, None], self.col_indices].mT

    def operators(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense ``(a_row, a_col)`` of an unstacked design, for the
        solvers that need them; a sampling design builds its 0/1
        selections in O(k1*m + n*k2)."""
        if self.a_row is not None:
            return self.a_row, self.a_col
        a_row = np.zeros((self.k1, self.m))
        a_row[np.arange(self.k1), self.row_indices] = 1.0
        a_col = np.zeros((self.n, self.k2))
        a_col[self.col_indices, np.arange(self.k2)] = 1.0
        return a_row, a_col


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Observed blocks ``b_row`` (k1 x n) and ``b_col`` (m x k2); the
    measurement counts are properties of the design."""

    b_row: np.ndarray
    b_col: np.ndarray
    sigma: float
    noise_seed: int | tuple[int, ...]

    @classmethod
    def stack(cls, sets: list[MeasurementSet]) -> MeasurementSet:
        """The blocks of a stack of trials, which share ``sigma``, on a
        leading trial axis, with a tuple of noise seeds."""
        if any(s.sigma != sets[0].sigma for s in sets):
            raise ValueError("stacked measurement sets must share sigma")
        return cls(
            b_row=_stack([s.b_row for s in sets]),
            b_col=_stack([s.b_col for s in sets]),
            sigma=sets[0].sigma,
            noise_seed=tuple(s.noise_seed for s in sets),
        )


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
        left_factor=_freeze(left), right_factor=_freeze(right), seed=seed
    )


def gen_design(
    kind: DesignKind, m: int, n: int, k1: int, k2: int, seed: int
) -> MeasurementDesign:
    """Draw a measurement design for an m x n target.

    Gaussian designs fill ``a_row`` (k1 x m) and ``a_col`` (n x k2) with
    i.i.d. standard normal entries.  Sampling designs draw k1 distinct
    row indices and k2 distinct column indices uniformly without
    replacement.
    """
    kind = DesignKind(kind)
    if min(m, n, k1, k2) < 1:
        raise ValueError("design dimensions must be positive")
    rng = np.random.default_rng(seed)
    if kind is DesignKind.GAUSSIAN_AFFINE:
        a_row = _freeze(rng.standard_normal((k1, m)))
        a_col = _freeze(rng.standard_normal((n, k2)))
        return MeasurementDesign(kind, m, n, seed, a_row=a_row, a_col=a_col)
    if k1 > m or k2 > n:
        raise ValueError(
            f"sampling design needs k1 <= m and k2 <= n, got "
            f"k1={k1}, m={m}, k2={k2}, n={n}"
        )
    rows = rng.choice(m, size=k1, replace=False)
    cols = rng.choice(n, size=k2, replace=False)
    return MeasurementDesign(kind, m, n, seed, row_indices=rows, col_indices=cols)


def measure(
    x: np.ndarray, design: MeasurementDesign, sigma: float, noise_seed: int
) -> MeasurementSet:
    """Apply the affine measurement operator, adding i.i.d. Gaussian
    noise of standard deviation ``sigma`` to every scalar observation.

    With ``sigma = 0`` the blocks equal ``design.rows(x)`` and
    ``design.cols(x)`` exactly (no noise stream is consumed).
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
    b_row = design.rows(x)
    b_col = design.cols(x)
    if sigma > 0:
        rng = np.random.default_rng(noise_seed)
        b_row = b_row + sigma * rng.standard_normal(b_row.shape)
        b_col = b_col + sigma * rng.standard_normal(b_col.shape)
    return MeasurementSet(
        b_row=_freeze(b_row),
        b_col=_freeze(b_col),
        sigma=float(sigma),
        noise_seed=noise_seed,
    )
