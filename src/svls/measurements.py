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
applied, and no dense selection matrix is built.  A ground truth is
held as its factors.  Given a tuple of seeds, ``gen_low_rank``,
``gen_design`` and ``measure`` draw a stack of trials, on a leading
trial axis, for the stacked solvers of ``recovery``; one seed is the
one-trial case of the same code.

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
A stack's generators are seeded in one numpy pass: each seed is mixed
into its entropy pool as ``SeedSequence`` mixes it, and the pools are
hashed into PCG64 states as ``SeedSequence.generate_state`` hashes one,
so each generator is the one ``default_rng`` builds from its seed.  All
returned arrays, stacked ones included, are marked read-only; values are
safe to share across threads.

``measure`` takes the target dense, or as its ``GroundTruth`` (stacked
or not), whose factors it measures without forming the m x n product:
``b_row = rows(L) @ R.T`` and ``b_col = L @ cols(R.T)``.
"""

from __future__ import annotations

import enum
import functools
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# _all_finite's fallback scan and recovery.relative_error against one
# dense m x n truth visit it in row blocks of about this many entries
# (512 KB of float64), so their scratch memory does not grow with m*n.
# relative_error is fastest at 2^15-2^16 entries: a truth block and its
# product scratch then fit in a 2 MB per-core L2 beside BLAS's packing
# buffers; larger blocks spill.  A sweep's stacks hold their truths as
# factors and are scored from them, with no dense pass; their size is
# bounded by simulate.STACK_ENTRIES.
ERROR_BLOCK_ENTRIES = 1 << 16


class DesignKind(str, enum.Enum):
    """Measurement design family."""

    GAUSSIAN_AFFINE = "gaussian"
    ROW_COL_SAMPLE = "rowcol"


def _is_int(value) -> bool:
    """An integer, Python's or numpy's, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_rank(r, top: int) -> None:
    """ValueError unless the rank ``r`` is an integer (not a bool) in ``[1, top]``."""
    if not _is_int(r):
        raise ValueError(f"rank must be an integer, got {r!r}")
    if not 1 <= r <= top:
        raise ValueError(f"rank {r} outside valid range [1, {top}]")


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


# numpy's SeedSequence, vectorized over seeds.  Its hashmix call j XORs a
# word with INIT_A * MULT_A^j and multiplies it by INIT_A * MULT_A^(j+1)
# (mod 2^32), then v ^= v >> 16; mix(x, y) is MIX_MULT_L * x -
# MIX_MULT_R * y (mod 2^32), then the same shift.  generate_state's output
# hash is hashmix with INIT_B and MULT_B.  The constants are numpy's.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_POOL = 4  # words in an entropy pool


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The XOR and multiplier constants of hashmix calls 0 to calls - 1."""
    c = [init * pow(mult, j, 1 << 32) % (1 << 32) for j in range(calls + 1)]
    return np.array(c[:-1], dtype=np.uint32), np.array(c[1:], dtype=np.uint32)


# mix_entropy hashes the first 4 words into the pool (calls 0-3), then
# in round src mixes hashmix(pool[src]) into every other pool word
# (calls 4-15, 3 a round), then mixes each further word into all 4 (4
# calls a word).  A round's constants are laid out by destination word;
# the source's own slot is unused.
def _by_destination(constants: np.ndarray) -> np.ndarray:
    """Rows src = 0-3: round src's constants in the slots of its destinations."""
    rounds = np.zeros((_POOL, _POOL), dtype=np.uint32)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        rounds[src, dst] = constants[_POOL + 3 * src : _POOL + 3 * src + 3]
    return rounds


_ENTROPY_XOR, _ENTROPY_MUL = _hash_constants(_INIT_A, _MULT_A, 16)
_ROUND_XOR, _ROUND_MUL = map(_by_destination, (_ENTROPY_XOR, _ENTROPY_MUL))
# generate_state's hash of a PCG64's 8 words: word i is pool word i % 4
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = v ^ xor
    v *= mul
    v ^= v >> _SHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mix(x, y); ``y`` is overwritten."""
    x = x * _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> _SHIFT
    return x


def _pools(seeds: tuple[int, ...]) -> np.ndarray:
    """Each seed's ``SeedSequence`` entropy pool (seeds x 4 words), as
    ``mix_entropy`` mixes it: the seed's 32-bit words, least significant
    first (one word for 0), zero-padded to the pool's 4."""
    ints = [int(s) for s in seeds]
    width = max(_POOL, (max(ints, default=0).bit_length() + 31) // 32)
    raw = b"".join(s.to_bytes(4 * width, "little") for s in ints)
    entropy = np.frombuffer(raw, dtype="<u4").reshape(len(ints), width)
    pool = _hashmix(entropy[:, :_POOL], _ENTROPY_XOR[:_POOL], _ENTROPY_MUL[:_POOL])
    for src in range(_POOL):
        mixed = _mix(pool, _hashmix(pool[:, src, None], _ROUND_XOR[src], _ROUND_MUL[src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    if width > _POOL:  # seeds of 2^128 and above: each word past the 4th
        words = np.array([max(1, (s.bit_length() + 31) // 32) for s in ints])
        xor, mul = _hash_constants(_INIT_A, _MULT_A, 16 + _POOL * (width - _POOL))
        for w in range(_POOL, width):
            more, j = words > w, 16 + _POOL * (w - _POOL)
            word = _hashmix(entropy[more, w, None], xor[j : j + _POOL], mul[j : j + _POOL])
            pool[more] = _mix(pool[more], word)
    return pool


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

    Every seed is mixed into its entropy pool, and the pools are hashed
    into PCG64 states, in one numpy pass (:func:`_pools`)."""
    seeds, stacked = _seeds(seed)
    if not seeds:  # a stack of no trials, as a sweep draws for a point's checks
        return [], stacked
    words = _hashmix(np.tile(_pools(seeds), 2), _STATE_XOR, _STATE_MUL)
    # two little-endian words per uint64, as generate_state(4, np.uint64) pairs them
    states = words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
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
    or an overflow) falls back to a scan in row blocks.  ``measure`` runs
    it on a sampling design's target, and on a Gaussian design's only
    when a block is not finite."""
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
    cached.  ``measure``, ``recovery.relative_error`` and every solver's
    ``truth=`` take the truth itself and use its factors, so ``x`` is
    never built on their paths.  A stack of truths holds its factors on a
    leading trial axis, with a tuple of seeds, and its ``x`` is the stack
    of dense targets."""

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
    _check_rank(r, min(m, n))
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
    x: np.ndarray | GroundTruth,
    design: MeasurementDesign,
    sigma: float,
    noise_seed: int | tuple[int, ...],
) -> MeasurementSet:
    """Apply the affine measurement operator, adding i.i.d. Gaussian
    noise of standard deviation ``sigma`` to every scalar observation.

    ``x`` is the dense target or its ``GroundTruth``, whose factors are
    measured as ``b_row = design.rows(L) @ R.T`` and ``b_col = L @
    design.cols(R.T)``, in O((m + n) r (k1 + k2)), with no m x n product.
    With a tuple of noise seeds, ``x`` is a stack of targets (or a stacked
    truth) and ``design`` a stacked design, one trial per seed, and each
    trial's noise is drawn from its own seed.  Each trial's noise, for
    ``b_row`` then ``b_col``, is added as it is drawn, so no stack of
    noise is held beside the blocks.  With ``sigma = 0`` the
    blocks are those products exactly (no noise stream is consumed).
    ``sigma`` must be a finite nonnegative number, not a bool, and is
    checked before ``x``'s finiteness, and both before any noise is
    drawn.  A Gaussian design's blocks touch every entry of ``x`` (or
    factor entry), and IEEE arithmetic carries a NaN or inf into them
    even through a zero design entry, so finite blocks certify ``x``.  A
    sampling design's gathers skip most entries, so its ``x`` (or the
    truth's factors) is certified by one BLAS pass of column sums
    (:func:`_all_finite`), which is also what tells a bad entry from
    products that overflow (``MeasurementSet`` refuses those) when a
    Gaussian design's block is not finite.
    """
    seeds, stacked = _seeds(noise_seed)
    factored = isinstance(x, GroundTruth)
    if factored:
        left, right = (np.asarray(f, dtype=np.float64) for f in (x.left_factor, x.right_factor))
        if not (
            left.ndim == right.ndim >= 2
            and (left.shape[:-2], left.shape[-1]) == (right.shape[:-2], right.shape[-1])
        ):
            raise ValueError("truth factors must be m x r and n x r, stacked alike")
        shape, arrays = (*left.shape[:-1], right.shape[-2]), (left, right)
    else:
        x = np.asarray(x, dtype=np.float64)
        shape, arrays = x.shape, (x,)
    if len(shape) != 2 + stacked or stacked and shape[0] != len(seeds):
        raise ValueError("x must be a 2-d matrix, or a stack of one per noise seed")
    if shape[-2:] != (design.m, design.n):
        raise ValueError(
            f"design expects a {design.m}x{design.n} target, got {shape[-2]}x{shape[-1]}"
        )
    held = design.row_indices[..., None] if design.a_row is None else design.a_row
    if held.shape[:-2] != shape[:-2]:  # the design's trials
        raise ValueError("x and design must be stacked alike, one target per trial")
    if not _is_finite_nonnegative(sigma):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    with np.errstate(all="ignore"):  # an overflow is MeasurementSet's to refuse
        if factored:
            b_row = design.rows(left) @ right.mT
            b_col = left @ design.cols(right.mT)
        else:
            b_row = np.ascontiguousarray(design.rows(x))
            b_col = np.ascontiguousarray(design.cols(x))
    # a Gaussian design's finite blocks certify x; a sampling design's gathers cannot
    certified = design.a_row is not None and np.isfinite(b_row).all() and np.isfinite(b_col).all()
    if not (certified or all(map(_all_finite, arrays))):
        raise ValueError("x entries must be finite")
    if sigma > 0:  # each trial's noise, b_row's then b_col's, added as it is drawn
        stacks = (b_row, b_col) if stacked else (b_row[None], b_col[None])
        for rng, *blocks in zip(_generators(noise_seed)[0], *stacks):
            for block in blocks:
                noise = rng.standard_normal(block.shape)
                noise *= sigma
                block += noise
    return MeasurementSet(_freeze(b_row), _freeze(b_col), float(sigma), noise_seed)
