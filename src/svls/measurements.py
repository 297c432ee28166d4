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
and ``cols``, and their ``adjoint``, are the only places a design is
applied, and ``operators`` builds the dense matrices for the solvers
that need them.  A ground truth is held as its factors.  Given a tuple
of seeds, ``gen_low_rank``, ``gen_design`` and ``measure`` draw a stack
of trials, on a leading trial axis, for the stacked solvers of
``recovery``; one seed is the one-trial case of the same code.

All randomness flows through numpy's PCG64 generator (as
``numpy.random.default_rng`` builds it) with a fixed stream order, so
every value is reproducible bit for bit from its seed:

* ``gen_low_rank`` draws the left factor before the right factor, each
  filled in row-major order;
* ``gen_design`` draws ``a_row`` before ``a_col`` (Gaussian) and row
  indices before column indices (sampling);
* ``measure`` draws the noise for ``b_row`` before ``b_col``.

In a stack each trial draws, in that order, from its own generator
seeded by its entry of the tuple, into its slice of the stack, so its
values do not depend on the stack.  A seed is a nonnegative integer,
Python's or numpy's (not a bool); any other seed raises ``ValueError``.
A stack's generators are seeded in one pass: numpy's ``SeedSequence``
builds each seed's entropy pool, and the pools are hashed into PCG64
states together, as ``SeedSequence.generate_state`` hashes one, so
each generator is the one ``default_rng`` builds from its seed.  All
returned arrays, stacked ones included, are marked read-only; values are
safe to share across threads.
"""

from __future__ import annotations

import enum
import functools
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# _all_finite's fallback scan and recovery.relative_error visit an m x n
# matrix in row blocks of about this many entries (512 KB of float64), so
# their scratch memory does not grow with m*n.  relative_error is fastest
# at 2^15-2^16 entries: a truth block and its product scratch then fit in
# a 2 MB per-core L2 beside BLAS's packing buffers; larger blocks spill.
# It is also the memory bound on a sweep's stack of trials, which holds
# one dense stack of truths of at most this many entries (or one truth).
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


def _seeds(seed) -> tuple[tuple[int, ...], bool]:
    """The seeds of ``seed``, one or a tuple of them, and whether it was a
    tuple (a stack); ValueError unless each is a nonnegative integer."""
    stacked = isinstance(seed, tuple)
    seeds = seed if stacked else (seed,)
    for s in seeds:  # the exact type test spares most seeds the ABC check
        if not ((type(s) is int or _is_int(s)) and s >= 0):
            raise ValueError(f"a seed must be a nonnegative integer, got {s!r}")
    return seeds, stacked


# SeedSequence.generate_state's output hash, with numpy's INIT_B = 0x8B51F9DD
# and MULT_B = 0x58F38DED: word i of the state is pool word i % 4, XORed with
# INIT_B * MULT_B^i and multiplied by INIT_B * MULT_B^(i+1) (mod 2^32), then
# v ^= v >> 16.  A PCG64 takes 8 words.
_HASH_CONSTS = [0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) % (1 << 32) for i in range(9)]
_HASH_XOR = np.array(_HASH_CONSTS[:8], dtype=np.uint32)
_HASH_MUL = np.array(_HASH_CONSTS[1:], dtype=np.uint32)


@functools.cache
def _state_seed_sequence() -> type:
    """A seed sequence that hands a PCG64 its precomputed state; built on
    first use, so that importing this module does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeedSequence(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.state  # PCG64 asks for 4 uint64 words: the state

    return StateSeedSequence


def _generators(seed: int | tuple[int, ...]) -> tuple[list[np.random.Generator], bool]:
    """One generator per seed, each as ``np.random.default_rng`` builds it,
    and whether a tuple of seeds asked for a stack.

    numpy's ``SeedSequence`` mixes each seed into its entropy pool; the
    pools of all seeds are hashed into PCG64 states in one pass."""
    seeds, stacked = _seeds(seed)
    pools = np.empty((len(seeds), 2, 4), dtype="<u4")  # each pool twice: 8 words
    for pool, s in zip(pools, seeds):
        pool[...] = np.random.SeedSequence(s).pool
    words = pools.reshape(-1, 8)
    words ^= _HASH_XOR
    words *= _HASH_MUL
    words ^= words >> 16
    # two little-endian words per uint64, as generate_state(4, np.uint64) pairs them
    states = words.view("<u8").astype(np.uint64, copy=False)
    seeded = _state_seed_sequence()
    return [np.random.Generator(np.random.PCG64(seeded(s))) for s in states], stacked


def _generator(seed: int) -> np.random.Generator:
    """One seed's generator: the one ``np.random.default_rng(seed)`` builds."""
    return _generators((seed,))[0][0]


def _normal(seed: int | tuple[int, ...], *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Standard normal draws of each shape; for a tuple of seeds, a stack
    per shape, each trial's slices filled in order by its own generator."""
    rngs, stacked = _generators(seed)
    stacks = [np.empty((len(rngs), *shape)) for shape in shapes]
    for rng, *slices in zip(rngs, *stacks):
        for out in slices:  # the same values as rng.standard_normal(shape)
            rng.standard_normal(out=out)
    return [a if stacked else a[0] for a in stacks]


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the matrix, or stack of them, ``a`` is finite,
    with no m x n temporary.  Under IEEE arithmetic a NaN or infinite entry
    makes its column sum NaN or infinite, so one BLAS pass ``ones @ a``
    certifies a finite ``a``; only a sum that is not finite (a bad entry,
    or an overflow) falls back to a scan in row blocks."""
    flat = a.reshape(-1, a.shape[-1])
    with np.errstate(all="ignore"):
        if np.isfinite(np.ones(len(flat)) @ flat).all():
            return True
    rows = max(1, ERROR_BLOCK_ENTRIES // max(1, flat.shape[1]))
    return all(np.isfinite(flat[i : i + rows]).all() for i in range(0, len(flat), rows))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """A rank-``rank`` target held as its factors; the dense
    ``x = left_factor @ right_factor.T`` is built on first access and
    cached.  A stack of truths holds its factors on a leading trial axis,
    with a tuple of seeds, and its ``x`` is the stack of dense targets."""

    left_factor: np.ndarray
    right_factor: np.ndarray
    seed: int | tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.left_factor.shape[-1]

    @functools.cached_property
    def x(self) -> np.ndarray:
        """The dense m x n target, or stack of them (read-only)."""
        return _freeze(self.left_factor @ self.right_factor.mT)


@dataclass(frozen=True, eq=False)
class MeasurementDesign:
    """A row/column measurement design for an m x n target.

    A Gaussian design holds the dense sensing matrices ``a_row``
    (k1 x m) and ``a_col`` (n x k2), checked to be finite.  A
    ``ROW_COL_SAMPLE`` design holds only the sampled ``row_indices`` (k1)
    and ``col_indices`` (k2), checked to be distinct and in range and kept
    as read-only int64 copies: its operators are gathers, applied by
    :meth:`rows` and :meth:`cols`.

    A stacked design holds the same arrays with a leading trial axis,
    and a tuple of seeds; its :meth:`rows` and :meth:`cols` apply each
    trial's design to that trial's slice of a stack.  An unstacked design
    applies itself to every slice.
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
        if self.row_indices is None:  # a Gaussian design
            if not (
                self.a_row.ndim == self.a_col.ndim in (2, 3)
                and self.a_row.shape[:-2] == self.a_col.shape[:-2]
                and self.a_row.shape[-1] == self.m
                and self.a_col.shape[-2] == self.n
            ):
                raise ValueError("a_row must be k1 x m and a_col n x k2")
            if not (np.isfinite(self.a_row).all() and np.isfinite(self.a_col).all()):
                raise ValueError("a_row and a_col entries must be finite")
            return
        stacked = None  # the leading shape of row_indices
        for name, size in (("row_indices", self.m), ("col_indices", self.n)):
            idx = np.asarray(getattr(self, name))
            if idx.ndim not in (1, 2) or idx.shape[-1] == 0 or idx.dtype.kind not in "iu":
                raise ValueError(f"{name} must be a nonempty 1-d integer vector or stack of them")
            if stacked not in (None, idx.shape[:-1]):
                raise ValueError(f"{name} must be 1-d, or a stack, as row_indices is")
            stacked = idx.shape[:-1]
            # a read-only copy, so the checked indices cannot change
            idx = idx.astype(np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= size):  # a stack may be empty
                raise ValueError(f"{name} has an entry outside [0, {size})")
            ordered = np.sort(idx, axis=-1)
            if (ordered[..., 1:] == ordered[..., :-1]).any():
                raise ValueError(f"{name} repeats an index")
            idx.flags.writeable = False
            object.__setattr__(self, name, idx)

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
        column combinations.  A Gaussian design takes ``(a_col.T @ y.T).T``,
        the order in which OpenBLAS streams a row-major ``y`` fastest (27
        against 34-41 ms at 4000 x 4000, k2=20, one thread); every call
        takes it, so a trial's bits do not depend on its stack."""
        if self.a_col is not None:
            return (self.a_col.mT @ y.mT).mT
        if self.col_indices.ndim == 1:
            return y[..., self.col_indices]
        # laid out as y[:, cols] lays out each trial's gather: column-major
        return y.mT[np.arange(len(y))[:, None], self.col_indices].mT

    def adjoint(self, b_row: np.ndarray, b_col: np.ndarray) -> np.ndarray:
        """``a_row.T @ b_row + b_col @ a_col.T`` for an unstacked design:
        the m x n adjoint of :meth:`rows` and :meth:`cols` at a k1 x n
        ``b_row`` and an m x k2 ``b_col``.  A sampling design scatter-adds
        the blocks, which is exact because its indices are distinct."""
        if self.a_row is not None:
            return self.a_row.T @ b_row + b_col @ self.a_col.T
        out = np.zeros((self.m, self.n))
        out[self.row_indices] = b_row
        out[:, self.col_indices] += b_col
        return out

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
    """Observed blocks ``b_row`` (k1 x n) and ``b_col`` (m x k2), or stacks
    of them with a tuple of noise seeds; the design holds the measurement
    counts.  The blocks are checked to be finite, and ``sigma`` to be a
    finite nonnegative number."""

    b_row: np.ndarray
    b_col: np.ndarray
    sigma: float
    noise_seed: int | tuple[int, ...]

    def __post_init__(self) -> None:
        if not _is_finite_nonnegative(self.sigma):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if not (np.isfinite(self.b_row).all() and np.isfinite(self.b_col).all()):
            raise ValueError("b_row and b_col entries must be finite")


def gen_low_rank(m: int, n: int, r: int, seed: int | tuple[int, ...]) -> GroundTruth:
    """Draw a random rank-``r`` matrix ``X = L @ R.T`` with standard
    normal factor entries, or a stack of them, one per seed of a tuple.

    Deterministic for fixed ``(m, n, r, seed)``.
    """
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m}x{n}")
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} outside valid range [1, {min(m, n)}]")
    left, right = map(_freeze, _normal(seed, (m, r), (n, r)))
    return GroundTruth(left_factor=left, right_factor=right, seed=seed)


def gen_design(
    kind: DesignKind, m: int, n: int, k1: int, k2: int, seed: int | tuple[int, ...]
) -> MeasurementDesign:
    """Draw a measurement design for an m x n target; with a tuple of
    seeds, a stacked design, one trial per seed.

    Gaussian designs fill ``a_row`` (k1 x m) and ``a_col`` (n x k2) with
    i.i.d. standard normal entries.  Sampling designs draw k1 distinct
    row indices and k2 distinct column indices uniformly without
    replacement.
    """
    kind = DesignKind(kind)
    if min(m, n, k1, k2) < 1:
        raise ValueError("design dimensions must be positive")
    if kind is DesignKind.GAUSSIAN_AFFINE:
        names, arrays = ("a_row", "a_col"), map(_freeze, _normal(seed, (k1, m), (n, k2)))
    else:
        if k1 > m or k2 > n:
            raise ValueError(
                f"sampling design needs k1 <= m and k2 <= n, got "
                f"k1={k1}, m={m}, k2={k2}, n={n}"
            )
        names, (rngs, stacked) = ("row_indices", "col_indices"), _generators(seed)
        stacks = [np.empty((len(rngs), k), dtype=np.int64) for k in (k1, k2)]
        for rng, rows, cols in zip(rngs, *stacks):
            rows[:] = rng.choice(m, size=k1, replace=False)
            cols[:] = rng.choice(n, size=k2, replace=False)
        arrays = (a if stacked else a[0] for a in stacks)
    return MeasurementDesign(kind, m, n, seed, **dict(zip(names, arrays)))


def measure(
    x: np.ndarray, design: MeasurementDesign, sigma: float, noise_seed: int | tuple[int, ...]
) -> MeasurementSet:
    """Apply the affine measurement operator, adding i.i.d. Gaussian
    noise of standard deviation ``sigma`` to every scalar observation.

    With a tuple of noise seeds, ``x`` is a stack of targets and
    ``design`` a stacked design, one trial per seed, and each trial's
    noise is drawn from its own seed.  With ``sigma = 0`` the blocks
    equal ``design.rows(x)`` and ``design.cols(x)`` exactly (no noise
    stream is consumed).  ``sigma`` must be a finite nonnegative number,
    not a bool, and is checked before ``x``'s finiteness, which one BLAS
    pass of column sums certifies (:func:`_all_finite`).
    """
    seeds, stacked = _seeds(noise_seed)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 + stacked or stacked and len(x) != len(seeds):
        raise ValueError("x must be a 2-d matrix, or a stack of one per noise seed")
    if x.shape[-2:] != (design.m, design.n):
        raise ValueError(
            f"design expects a {design.m}x{design.n} target, got {x.shape[-2]}x{x.shape[-1]}"
        )
    held = design.row_indices[..., None] if design.a_row is None else design.a_row
    if held.shape[:-2] != x.shape[:-2]:  # the design's trials
        raise ValueError("x and design must be stacked alike, one target per trial")
    if not _is_finite_nonnegative(sigma):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    if not _all_finite(x):
        raise ValueError("x entries must be finite")
    b_row = np.ascontiguousarray(design.rows(x))
    b_col = np.ascontiguousarray(design.cols(x))
    if sigma > 0:
        noises = _normal(noise_seed, b_row.shape[-2:], b_col.shape[-2:])
        for block, noise in zip((b_row, b_col), noises):
            noise *= sigma
            block += noise
    return MeasurementSet(_freeze(b_row), _freeze(b_col), float(sigma), noise_seed)
