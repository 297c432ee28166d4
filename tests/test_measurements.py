import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svls
from oracles import draw_oracle
from svls.measurements import (
    ERROR_BLOCK_ENTRIES,
    DesignKind,
    GroundTruth,
    MeasurementDesign,
    MeasurementSet,
    _all_finite,
    _generators,
    _pools,
    gen_design,
    gen_low_rank,
    measure,
)


def matmul_bruteforce(a, b):
    """Triple-loop matrix product, the reference for the measurement operator."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestGenLowRank:
    def test_smallest_case_is_product_of_two_scalars(self):
        t = gen_low_rank(1, 1, 1, seed=12)
        assert t.x.shape == (1, 1)
        assert t.x[0, 0] == t.left_factor[0, 0] * t.right_factor[0, 0]

    def test_rank_forced_by_construction(self):
        t = gen_low_rank(5, 4, 2, seed=7)
        s = np.linalg.svd(t.x, compute_uv=False)
        assert s[2] < 1e-10 * s[0]

    def test_deterministic(self):
        a = gen_low_rank(8, 8, 3, seed=1)
        b = gen_low_rank(8, 8, 3, seed=1)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.left_factor, b.left_factor)

    def test_truth_is_its_factors(self):
        t = gen_low_rank(9, 6, 3, seed=4)
        assert t.rank == 3
        assert "x" not in vars(t)  # the dense target is built on first access
        assert np.array_equal(t.x, t.left_factor @ t.right_factor.T)
        assert t.x is t.x
        # stream order: the left factor, then the right, each row-major
        rng = np.random.default_rng(4)
        assert np.array_equal(t.left_factor, rng.standard_normal((9, 3)))
        assert np.array_equal(t.right_factor, rng.standard_normal((6, 3)))

    def test_factorization_invariant(self):
        t = gen_low_rank(9, 6, 3, seed=4)
        rebuilt = t.left_factor @ t.right_factor.T
        assert np.linalg.norm(t.x - rebuilt) <= 1e-12 * np.linalg.norm(t.x)

    @pytest.mark.parametrize("m,n,r", [(3, 3, 4), (2, 5, 3), (1, 1, 2)])
    def test_invalid_rank_rejected(self, m, n, r):
        with pytest.raises(ValueError):
            gen_low_rank(m, n, r, seed=0)

    def test_entries_finite(self):
        t = gen_low_rank(20, 30, 5, seed=99)
        assert np.all(np.isfinite(t.x))


# each generator call with a dimension's position among its arguments
DIMENSIONS = [
    pytest.param(gen_low_rank, (4, 3, 1, 0), i, id=f"gen_low_rank-{name}")
    for i, name in enumerate(["m", "n"])
] + [
    pytest.param(gen_design, (kind, 4, 3, 1, 1, 0), i, id=f"gen_design-{kind.value}-{name}")
    for kind in DesignKind
    for i, name in enumerate(["m", "n", "k1", "k2"], start=1)
]


def with_argument(args, i, value):
    return (*args[:i], value, *args[i + 1 :])


class TestGeneratorDimensions:
    """A dimension, like a rank, is an integer, Python's or numpy's, not a bool."""

    @pytest.mark.parametrize("bad", [2.5, 4.0, np.float64(4.0), True, "4", None])
    @pytest.mark.parametrize("draw, args, i", DIMENSIONS)
    def test_non_integer_dimension_rejected(self, draw, args, i, bad):
        with pytest.raises(ValueError, match="dimensions .*must be positive integers"):
            draw(*with_argument(args, i, bad))

    @pytest.mark.parametrize("draw, args, i", DIMENSIONS)
    def test_numpy_integer_dimension_accepted(self, draw, args, i):
        want = draw(*args)
        got = draw(*with_argument(args, i, np.int64(args[i])))
        for field in dataclasses.fields(want):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name))


class TestGenDesign:
    def test_sampling_selection_structure(self):
        d = gen_design(DesignKind.ROW_COL_SAMPLE, 3, 3, 1, 1, seed=5)
        assert d.a_row is None and d.a_col is None  # the design is its indices
        assert (d.m, d.n, d.k1, d.k2) == (3, 3, 1, 1)
        # applied to the identity, the gathers give the 0/1 selections
        a_row, a_col = d.rows(np.eye(3)), d.cols(np.eye(3))
        assert a_row.shape == (1, 3)
        assert a_col.shape == (3, 1)
        assert np.count_nonzero(a_row) == 1
        assert np.count_nonzero(a_col) == 1
        assert a_row[0, d.row_indices[0]] == 1.0
        assert a_col[d.col_indices[0], 0] == 1.0

    def test_sampling_indices_distinct(self):
        d = gen_design(DesignKind.ROW_COL_SAMPLE, 10, 12, 7, 9, seed=3)
        assert len(set(d.row_indices.tolist())) == 7
        assert len(set(d.col_indices.tolist())) == 9
        # each row combination / column combination selects exactly one entry
        assert np.array_equal(d.rows(np.eye(10)).sum(axis=1), np.ones(7))
        assert np.array_equal(d.cols(np.eye(12)).sum(axis=0), np.ones(9))

    def test_gaussian_deterministic_and_dense(self):
        a = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, seed=3)
        b = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 4, 2, 2, seed=3)
        assert a.a_row.shape == (2, 4)
        assert np.array_equal(a.a_row, b.a_row)
        assert np.array_equal(a.a_col, b.a_col)
        assert a.row_indices is None and a.col_indices is None

    @pytest.mark.parametrize(
        "kind, operators",
        [
            (DesignKind.ROW_COL_SAMPLE, dict(a_row=np.eye(3)[:1], a_col=np.eye(3)[:, :1])),
            (DesignKind.ROW_COL_SAMPLE, dict(row_indices=np.array([0]))),
            (DesignKind.GAUSSIAN_AFFINE, dict(row_indices=[0], col_indices=[0])),
            (DesignKind.GAUSSIAN_AFFINE, dict(a_row=np.ones((1, 3)))),
            (DesignKind.GAUSSIAN_AFFINE, dict(a_row=np.ones((1, 4)), a_col=np.ones((3, 1)))),
            (DesignKind.GAUSSIAN_AFFINE, dict(a_row=np.ones(3), a_col=np.ones((3, 1)))),
        ],
        ids=["sampling_matrices", "sampling_one_list", "gaussian_lists",
             "gaussian_one_matrix", "gaussian_wrong_m", "gaussian_1d"],
    )
    def test_inconsistent_design_rejected(self, kind, operators):
        with pytest.raises(ValueError):
            MeasurementDesign(kind, 3, 3, 0, **operators)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([-1], "outside"),
            ([1, 1], "repeats"),
            ([4], "outside"),
            ([0.5], "integer"),
            ([], "nonempty"),
            ([[0]], "1-d"),
        ],
        ids=["negative", "repeated", "past_end", "float", "empty", "2d"],
    )
    def test_bad_sampling_indices_rejected(self, rows, message):
        # a gather would silently wrap -1 to row 3 and measure row 1 twice
        with pytest.raises(ValueError, match=message):
            MeasurementDesign(
                DesignKind.ROW_COL_SAMPLE, 4, 3, 0, row_indices=rows, col_indices=[0]
            )
        with pytest.raises(ValueError, match=f"col_indices .*{message}"):
            MeasurementDesign(
                DesignKind.ROW_COL_SAMPLE, 3, 4, 0, row_indices=[0], col_indices=rows
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["a_row", "a_col"])
    @pytest.mark.parametrize("seed", [0, (0, 1)], ids=["single", "stacked"])
    def test_non_finite_sensing_entry_rejected(self, bad, name, seed):
        # refused when built (replace builds anew), so no solver sees it
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 3, 2, 2, seed=seed)
        a = np.array(getattr(design, name))
        a[..., 1, 0] = bad
        with pytest.raises(ValueError, match="a_row and a_col entries must be finite"):
            dataclasses.replace(design, **{name: a})

    def test_sampling_k1_above_m_rejected(self):
        with pytest.raises(ValueError):
            gen_design(DesignKind.ROW_COL_SAMPLE, 2, 2, 3, 1, seed=0)

    def test_sampling_k2_above_n_rejected(self):
        with pytest.raises(ValueError):
            gen_design(DesignKind.ROW_COL_SAMPLE, 5, 2, 2, 3, seed=0)


class TestMeasure:
    def test_row_selection_of_identity(self):
        d = gen_design(DesignKind.ROW_COL_SAMPLE, 2, 2, 1, 1, seed=1)
        meas = measure(np.eye(2), d, 0.0, 0)
        i, j = d.row_indices[0], d.col_indices[0]
        assert np.array_equal(meas.b_row, np.eye(2)[[i], :])
        assert np.array_equal(meas.b_col, np.eye(2)[:, [j]])

    def test_matches_triple_loop_product(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 5))
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 6, 5, 3, 2, seed=2)
        meas = measure(x, d, 0.0, 0)
        assert np.allclose(meas.b_row, matmul_bruteforce(d.a_row, x), atol=1e-12)
        assert np.allclose(meas.b_col, matmul_bruteforce(x, d.a_col), atol=1e-12)

    def test_noiseless_blocks_bit_exact(self):
        x = gen_low_rank(7, 6, 2, seed=3).x
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 7, 6, 3, 3, seed=4)
        meas = measure(x, d, 0.0, 123)
        assert np.array_equal(meas.b_row, d.a_row @ x)
        assert np.array_equal(meas.b_col, x @ d.a_col)

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 4))
        alpha, beta = rng.standard_normal(2)
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 5, 4, 2, 3, seed=seed + 50)
        mixed = measure(alpha * x + beta * y, d, 0.0, 0)
        mx = measure(x, d, 0.0, 0)
        my = measure(y, d, 0.0, 0)
        assert np.allclose(
            mixed.b_row, alpha * mx.b_row + beta * my.b_row, atol=1e-12
        )
        assert np.allclose(
            mixed.b_col, alpha * mx.b_col + beta * my.b_col, atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_sampling_overlap_blocks_agree(self, seed):
        x = gen_low_rank(8, 9, 3, seed=seed).x
        d = gen_design(DesignKind.ROW_COL_SAMPLE, 8, 9, 4, 3, seed=seed + 10)
        meas = measure(x, d, 0.0, 0)
        from_rows = meas.b_row[:, d.col_indices]
        from_cols = meas.b_col[d.row_indices, :]
        expected = x[np.ix_(d.row_indices, d.col_indices)]
        assert np.array_equal(from_rows, from_cols)
        assert np.array_equal(from_rows, expected)

    def test_noise_deterministic_and_scaled(self):
        x = gen_low_rank(6, 6, 2, seed=1).x
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 6, 6, 3, 3, seed=2)
        a = measure(x, d, 0.5, noise_seed=77)
        b = measure(x, d, 0.5, noise_seed=77)
        assert np.array_equal(a.b_row, b.b_row)
        assert np.array_equal(a.b_col, b.b_col)
        clean = measure(x, d, 0.0, noise_seed=77)
        half = measure(x, d, 0.25, noise_seed=77)
        # same noise stream, half the amplitude
        assert np.allclose(
            a.b_row - clean.b_row, 2.0 * (half.b_row - clean.b_row), atol=1e-12
        )

    def test_measurement_counts(self):
        x = gen_low_rank(8, 9, 2, seed=1).x
        dg = gen_design(DesignKind.GAUSSIAN_AFFINE, 8, 9, 3, 4, seed=2)
        mg = measure(x, dg, 0.0, 0)
        assert mg.b_row.size + mg.b_col.size == dg.total_measurements == 3 * 9 + 4 * 8
        assert dg.distinct_measurements is None
        ds = gen_design(DesignKind.ROW_COL_SAMPLE, 8, 9, 3, 4, seed=2)
        ms = measure(x, ds, 0.0, 0)
        assert ms.b_row.size + ms.b_col.size == ds.total_measurements == 3 * 9 + 4 * 8
        assert ds.distinct_measurements == 3 * 9 + 4 * 8 - 3 * 4

    def test_shape_mismatch_rejected(self):
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 5, 4, 2, 2, seed=0)
        with pytest.raises(ValueError):
            measure(np.zeros((4, 5)), d, 0.0, 0)

    def test_negative_sigma_rejected(self):
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 3, 3, 2, 2, seed=0)
        with pytest.raises(ValueError):
            measure(np.zeros((3, 3)), d, -1.0, 0)

    @pytest.mark.parametrize(
        "sigma",
        [np.nan, np.inf, np.float32(np.inf), True, "0.1", None],
        ids=["nan", "inf", "float32_inf", "bool", "str", "none"],
    )
    def test_non_finite_sigma_rejected(self, sigma):
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 3, 3, 2, 2, seed=0)
        with pytest.raises(ValueError, match="sigma must be finite"):
            measure(np.zeros((3, 3)), d, sigma, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 3, 3, 2, 2, seed=0)
        x = np.ones((3, 3))
        x[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            measure(x, d, 0.0, 0)

    def test_non_finite_in_last_row_block_rejected(self):
        m, n = 1100, 300
        assert m * n > ERROR_BLOCK_ENTRIES
        x = np.ones((m, n))
        x[-1, -1] = np.nan
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, m, n, 2, 2, seed=0)
        with pytest.raises(ValueError, match="finite"):
            measure(x, d, 0.0, 0)

    def test_finiteness_check_makes_no_m_by_n_temporary(self):
        m = n = 2048
        x = np.random.default_rng(0).standard_normal((m, n))
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, m, n, 4, 4, seed=0)
        tracemalloc.start()
        try:
            measure(x, d, 0.0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a full np.isfinite(x) alone would allocate m*n bytes
        assert peak < m * n // 4

    def test_values_read_only(self):
        t = gen_low_rank(4, 4, 1, seed=0)
        with pytest.raises(ValueError):
            t.x[0, 0] = 1.0


class TestFactoredMeasure:
    """``measure`` on a ``GroundTruth`` applies the design to the factors;
    the dense target's measurement is the oracle."""

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_matches_dense(self, kind, sigma):
        truth = gen_low_rank(10, 12, 3, seed=1)
        design = gen_design(kind, 10, 12, 4, 5, seed=2)
        got = measure(truth, design, sigma, noise_seed=3)
        assert "x" not in vars(truth)  # no m x n product was formed
        want = measure(truth.x, design, sigma, noise_seed=3)
        for a, b in [(got.b_row, want.b_row), (got.b_col, want.b_col)]:
            assert not a.flags.writeable and a.shape == b.shape
            if kind is DesignKind.ROW_COL_SAMPLE:
                # gathers of the same dot products: the same bits (k >= 2;
                # a 1-row gather takes numpy's matrix-vector kernel)
                assert a.tobytes() == b.tobytes()
            else:
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_stack_slices_are_each_trials(self, kind):
        seeds = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
        truth = gen_low_rank(9, 7, 2, seeds[0])
        design = gen_design(kind, 9, 7, 3, 4, seeds[1])
        stack = measure(truth, design, 0.1, seeds[2])
        assert stack.b_row.shape == (3, 3, 7) and stack.b_col.shape == (3, 9, 4)
        for t, (s_truth, s_design, s_noise) in enumerate(zip(*seeds)):
            alone = measure(
                gen_low_rank(9, 7, 2, s_truth), gen_design(kind, 9, 7, 3, 4, s_design), 0.1,
                s_noise,
            )
            assert stack.b_row[t].tobytes() == alone.b_row.tobytes()
            assert stack.b_col[t].tobytes() == alone.b_col.tobytes()

    def test_checks(self):
        truth = gen_low_rank(6, 5, 2, seed=1)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 6, 5, 3, 3, seed=2)
        bad_rank = GroundTruth(truth.left_factor, truth.right_factor[:, :1], 1)
        with pytest.raises(ValueError, match="m x r and n x r, stacked alike"):
            measure(bad_rank, design, 0.1, 3)
        with pytest.raises(ValueError, match="design expects a 6x5 target, got 5x6"):
            measure(GroundTruth(truth.right_factor, truth.left_factor, 1), design, 0.1, 3)
        with pytest.raises(ValueError, match="stack of one per noise seed"):
            measure(truth, design, 0.1, (3,))
        with pytest.raises(ValueError, match="sigma must be finite"):
            measure(truth, design, math.inf, 3)
        left = np.array(truth.left_factor)
        left[2, 1] = np.nan
        with pytest.raises(ValueError, match="x entries must be finite"):
            measure(GroundTruth(left, truth.right_factor, 1), design, 0.1, 3)


class TestMeasureChecks:
    def test_shape_and_sigma_checked_before_finiteness(self):
        # a nan target must be refused for its shape, or for sigma, first:
        # those checks come before the O(m*n) finiteness scan
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 3, 3, 2, 2, seed=0)
        with pytest.raises(ValueError, match="design expects a 3x3 target, got 4x3"):
            measure(np.full((4, 3), np.nan), d, 0.0, 0)
        with pytest.raises(ValueError, match="sigma must be finite"):
            measure(np.full((3, 3), np.nan), d, -1.0, 0)

    def test_noise_overflow_rejected(self):
        # finite sigma, but sigma times a normal draw overflows to inf
        d = gen_design(DesignKind.GAUSSIAN_AFFINE, 3, 3, 2, 2, seed=0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="b_row and b_col"):
            measure(np.zeros((3, 3)), d, sys.float_info.max, 0)

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_stack_needs_one_target_per_seed(self, kind):
        x = gen_low_rank(4, 3, 1, (3, 4)).x
        d = gen_design(kind, 4, 3, 2, 2, seed=(1, 2))
        with pytest.raises(ValueError, match="2-d matrix, or a stack of one per noise seed"):
            measure(x, d, 0.1, (5,))
        with pytest.raises(ValueError, match="2-d matrix"):
            measure(x, d, 0.1, 5)
        for target, noise_seed, design in [
            (x[:1], (5,), d),  # a stack of two designs, one target
            (x[0], 5, d),  # a stack of designs, an unstacked target
            (x, (5, 6), gen_design(kind, 4, 3, 2, 2, seed=1)),  # one design, two targets
        ]:
            with pytest.raises(ValueError, match="stacked alike, one target per trial"):
                measure(target, design, 0.1, noise_seed)
        assert measure(x, d, 0.1, (5, 6)).b_row.shape == (2, 2, 3)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1], [1, 1]], "repeats"),
            ([[0, 1], [0, 4]], "outside"),
            ([[0, 1], [-1, 2]], "outside"),
        ],
        ids=["repeated", "past_end", "negative"],
    )
    def test_bad_row_of_a_stacked_design_rejected(self, rows, message):
        with pytest.raises(ValueError, match=f"row_indices .*{message}"):
            MeasurementDesign(
                DesignKind.ROW_COL_SAMPLE, 4, 3, (0, 1), row_indices=rows,
                col_indices=[[0], [1]],
            )


class TestFinitenessCertificate:
    """On a sampling design, measure certifies the target by one BLAS pass
    of column sums and scans it only when a sum is not finite.  On a
    Gaussian design the blocks certify it, since they touch every entry
    and factor entry, and the target is scanned only when a block is not
    finite.  ``np.isfinite`` of the whole array is the oracle."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_non_finite_entry_rejected(self, kind, stacked, where, bad):
        seeds = (1, 2, 3) if stacked else 1
        x = np.array(gen_low_rank(7, 5, 2, seeds).x)
        design = gen_design(kind, 7, 5, 3, 2, seeds)
        flat = x.reshape(-1)  # in a stack, the middle entry is the middle trial's
        flat[{"first": 0, "middle": flat.size // 2, "last": -1}[where]] = bad
        assert not _all_finite(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x entries must be finite"):
                measure(x, design, 0.1, (4, 5, 6) if stacked else 4)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_overflowing_column_sums_still_measure(self, kind, stacked):
        # every entry finite, but the column of 1e308 sums past float max:
        # a sampling design's certificate fails and the scan accepts the
        # target; a Gaussian design's finite blocks accept it
        seeds = (1, 2, 3) if stacked else 1
        x = np.ones((3, 6, 4) if stacked else (6, 4))
        x[..., 1] = 1e308
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.ones(6) @ x).all()
        design = gen_design(kind, 6, 4, 3, 2, seeds)
        if kind is DesignKind.GAUSSIAN_AFFINE:  # scaled so its products stay finite
            design = dataclasses.replace(design, a_row=design.a_row * 1e-3,
                                         a_col=design.a_col * 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            meas = measure(x, design, 0.0, (4, 5, 6) if stacked else 4)
        assert np.array_equal(meas.b_row, design.rows(x))
        assert np.array_equal(meas.b_col, design.cols(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("target", ["dense", "left", "right"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_bad_entry_reaches_blocks_through_zero_design_entries(
        self, monkeypatch, stacked, k, target, bad
    ):
        # column i of a_row and row j of a_col are zero, so every product
        # with x[i, j] (or with row i of L, or row j of R) is 0 * bad, which
        # is NaN: the blocks still certify the target, before any noise
        seeds = (1, 2, 3) if stacked else 1
        i, j = 4, 2
        truth = gen_low_rank(7, 5, 2, seeds)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 7, 5, k, k, seeds)
        a_row, a_col = np.array(design.a_row), np.array(design.a_col)
        a_row[..., :, i] = 0.0
        a_col[..., j, :] = 0.0
        design = dataclasses.replace(design, a_row=a_row, a_col=a_col)
        left, right = np.array(truth.left_factor), np.array(truth.right_factor)
        if target == "dense":
            x = np.array(truth.x)
            x[..., i, j] = bad
        elif target == "left":
            left[..., i, 0] = bad
            x = GroundTruth(left, right, seeds)
        else:
            right[..., j, 0] = bad
            x = GroundTruth(left, right, seeds)

        def no_noise(seed):
            raise AssertionError("noise drawn for a bad target")

        monkeypatch.setattr(svls.measurements, "_generators", no_noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x entries must be finite"):
                measure(x, design, 0.1, (4, 5, 6) if stacked else 4)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize(
        "kind, factored",
        [(DesignKind.GAUSSIAN_AFFINE, False), (DesignKind.GAUSSIAN_AFFINE, True),
         (DesignKind.ROW_COL_SAMPLE, True)],  # a sampling design's gathers do not overflow
        ids=["gaussian-dense", "gaussian-factored", "rowcol-factored"],
    )
    def test_overflowing_blocks_are_the_measurement_sets_error(self, kind, factored, stacked):
        # every entry finite, but a product passes float max: not the
        # target's error, and no RuntimeWarning escapes
        seeds = (1, 2, 3) if stacked else 1
        truth = gen_low_rank(6, 4, 2, seeds)
        left = np.array(truth.left_factor) * 1e200
        right = np.array(truth.right_factor) * 1e200
        x = GroundTruth(left, right, seeds) if factored else np.full(truth.x.shape, 1e308)
        design = gen_design(kind, 6, 4, 3, 2, seeds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="b_row and b_col entries must be finite"):
                measure(x, design, 0.0, (4, 5, 6) if stacked else 4)

    @pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_which_designs_scan_a_finite_target(self, monkeypatch, kind, factored):
        # a Gaussian design's finite blocks make the certificate's pass
        # redundant; a sampling design's gathers do not, so it keeps it
        scanned = []

        def all_finite(a):
            scanned.append(a.shape)
            return _all_finite(a)

        monkeypatch.setattr(svls.measurements, "_all_finite", all_finite)
        truth = gen_low_rank(8, 6, 2, seed=1)
        design = gen_design(kind, 8, 6, 3, 2, seed=2)
        measure(truth if factored else truth.x, design, 0.1, 3)
        if kind is DesignKind.GAUSSIAN_AFFINE:
            assert scanned == []
        else:
            assert scanned == ([(8, 2), (6, 2)] if factored else [(8, 6)])

    def test_matches_isfinite(self):
        rng = np.random.default_rng(3)
        cases = [rng.standard_normal((5, 4)), np.full((3, 2), 1e308), np.zeros((2, 0, 3)),
                 rng.standard_normal((4, 3, 2)).transpose(0, 2, 1)]
        for bad in (np.nan, np.inf, -np.inf):
            for a in (rng.standard_normal((9, 4)), np.full((9, 4), 1e308)):
                a[4, 2] = bad
                cases.append(a)
        both = np.ones((4, 3))
        both[0, 1], both[2, 1] = np.inf, -np.inf  # a column sum of NaN
        cases.append(both)
        for a in cases:
            assert _all_finite(a) == np.isfinite(a).all()


class TestColumnProductOrder:
    """A Gaussian design takes ``y @ a_col`` as ``(a_col.T @ y.T).T``: the
    same product to rounding, and in a stack the same bits as alone."""

    @pytest.mark.parametrize("m, n, k", [(12, 10, 3), (50, 50, 3), (50, 50, 4), (300, 251, 6)])
    def test_gaussian_cols_match_the_product(self, m, n, k):
        seeds = (1, 2, 3)
        stacked = gen_design(DesignKind.GAUSSIAN_AFFINE, m, n, 2, k, seeds)
        y = np.random.default_rng(m + k).standard_normal((len(seeds), m, n))
        got = stacked.cols(y)
        for t, seed in enumerate(seeds):
            alone = gen_design(DesignKind.GAUSSIAN_AFFINE, m, n, 2, k, seed)
            one = alone.cols(y[t])
            want = y[t] @ alone.a_col
            assert np.linalg.norm(one - want) <= 1e-13 * np.linalg.norm(want)
            assert np.array_equal(got[t], one)
            # an unstacked design applies itself to every slice of a stack
            assert np.array_equal(alone.cols(y)[t], one)


class TestBlocksBitForBit:
    """With ``sigma = 0`` measure's blocks are the design's products, bit
    for bit, row-major, stacked or not, whichever check certified the
    target."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("kind", list(DesignKind))
    @pytest.mark.parametrize("m, n, k", [(7, 5, 1), (12, 10, 3), (50, 50, 3), (50, 50, 4),
                                         (300, 251, 6)])
    def test_blocks_are_the_products(self, m, n, k, kind, stacked):
        seeds = (1, 2, 3) if stacked else 1
        truth = gen_low_rank(m, n, 2, seeds)
        design = gen_design(kind, m, n, k, k, seeds)
        left, right = truth.left_factor, truth.right_factor
        for x, b_row, b_col in [
            (truth.x, design.rows(truth.x), design.cols(truth.x)),
            (truth, design.rows(left) @ right.mT, left @ design.cols(right.mT)),
        ]:
            meas = measure(x, design, 0.0, (4, 5, 6) if stacked else 4)
            for got, want in [(meas.b_row, b_row), (meas.b_col, b_col)]:
                assert got.flags.c_contiguous and not got.flags.writeable
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestMeasurementSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["b_row", "b_col"])
    def test_non_finite_block_rejected(self, bad, name):
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 3, 2, 2, seed=0)
        meas = measure(np.ones((4, 3)), design, 0.0, 0)
        block = np.array(getattr(meas, name))
        block[1, 1] = bad
        with pytest.raises(ValueError, match="b_row and b_col entries must be finite"):
            dataclasses.replace(meas, **{name: block})

    @pytest.mark.parametrize(
        "sigma",
        [np.nan, np.inf, -1e-3, np.float32(np.inf), True, "0.1", None],
        ids=["nan", "inf", "negative", "float32_inf", "bool", "str", "none"],
    )
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            MeasurementSet(np.ones((2, 3)), np.ones((4, 2)), sigma, 0)

    @pytest.mark.parametrize("sigma", [0, 0.0, np.float32(0.5), np.int64(2), 1e300])
    def test_good_sigma_accepted(self, sigma):
        assert MeasurementSet(np.ones((2, 3)), np.ones((4, 2)), sigma, 0).sigma == sigma

    @pytest.mark.parametrize("b_row, b_col", [
        (np.ones(3), np.ones((2, 2, 2, 2))),
        (np.ones(3), np.ones((4, 2))),
        (np.ones((2, 3)), np.ones(4)),
        (np.ones((2, 3)), np.ones((1, 4, 2))),
        (np.ones((2, 2, 3)), np.ones((3, 4, 2))),
        (np.ones((1, 2, 2, 3)), np.ones((1, 2, 4, 2))),
    ], ids=["1d_and_4d", "b_row_1d", "b_col_1d", "one_stacked", "unlike_stacks", "two_axes"])
    def test_blocks_of_the_wrong_shape_rejected(self, b_row, b_col):
        with pytest.raises(ValueError, match="must be 2-d blocks, or stacks of them stacked alike"):
            MeasurementSet(b_row, b_col, 0.0, 0)

    @pytest.mark.parametrize("seed, want", [(4, ()), ((4, 5, 6), (3,)), ((), (0,))])
    def test_trial_shape(self, seed, want):
        truth = gen_low_rank(5, 4, 1, seed)
        design = gen_design(DesignKind.ROW_COL_SAMPLE, 5, 4, 2, 2, seed)
        meas = measure(truth, design, 0.0, seed)
        assert meas.trial_shape == design.trial_shape == want


STACK_FUZZ = settings(derandomize=True, max_examples=80, deadline=None, database=None)
SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def stacked_draws(draw):
    """A design kind, ``(m, n, r, k1, k2)``, sigma, and per-trial seeds
    ``(truth, design, noise)`` for a stack of one to five trials."""
    kind = draw(st.sampled_from(list(DesignKind)))
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    r = draw(st.integers(1, min(m, n)))
    top = (m, n) if kind is DesignKind.ROW_COL_SAMPLE else (6, 6)
    k1, k2 = draw(st.integers(1, top[0])), draw(st.integers(1, top[1]))
    sigma = draw(st.sampled_from([0.0, 0.1]))
    trials = draw(st.lists(st.tuples(SEEDS, SEEDS, SEEDS), min_size=1, max_size=5))
    return kind, (m, n, r, k1, k2), sigma, trials


class TestStackedDraws:
    """A tuple of seeds draws a stack: every trial's slice must be, bit
    for bit, what its own seeds draw alone, and what the independent
    per-trial oracle draws."""

    @STACK_FUZZ
    @given(case=stacked_draws())
    def test_stack_equals_per_seed_calls_and_oracle(self, case):
        kind, (m, n, r, k1, k2), sigma, trials = case
        truth_seeds, design_seeds, noise_seeds = map(tuple, zip(*trials))
        truth = gen_low_rank(m, n, r, truth_seeds)
        design = gen_design(kind, m, n, k1, k2, design_seeds)
        meas = measure(truth.x, design, sigma, noise_seeds)
        assert truth.seed == truth_seeds and design.seed == design_seeds
        assert meas.noise_seed == noise_seeds
        assert (truth.rank, design.k1, design.k2, meas.sigma) == (r, k1, k2, sigma)
        stacks = {"left_factor": truth.left_factor, "right_factor": truth.right_factor,
                  "x": truth.x, "b_row": meas.b_row, "b_col": meas.b_col}
        names = ("a_row", "a_col") if kind is DesignKind.GAUSSIAN_AFFINE else (
            "row_indices", "col_indices")
        stacks.update((name, getattr(design, name)) for name in names)
        for name, stack in stacks.items():
            assert len(stack) == len(trials) and not stack.flags.writeable, name
        for j, seeds in enumerate(trials):
            one_truth = gen_low_rank(m, n, r, seeds[0])
            one_design = gen_design(kind, m, n, k1, k2, seeds[1])
            one_meas = measure(one_truth.x, one_design, sigma, seeds[2])
            alone = {"left_factor": one_truth.left_factor, "right_factor": one_truth.right_factor,
                     "x": one_truth.x, "b_row": one_meas.b_row, "b_col": one_meas.b_col}
            alone.update((name, getattr(one_design, name)) for name in names)
            oracle = draw_oracle(kind, (m, n, r, k1, k2), sigma, seeds)
            for name, stack in stacks.items():
                assert not alone[name].flags.writeable, name
                assert stack[j].shape == alone[name].shape == oracle[name].shape, name
                assert stack[j].tobytes() == alone[name].tobytes() == oracle[name].tobytes(), name

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_stack_of_no_trials(self, kind):
        # what a sweep draws to make a point's checks before any trial
        truth = gen_low_rank(5, 4, 2, ())
        design = gen_design(kind, 5, 4, 3, 2, ())
        meas = measure(truth.x, design, 0.1, ())
        assert truth.x.shape == (0, 5, 4) and (design.k1, design.k2) == (3, 2)
        assert meas.b_row.shape == (0, 3, 4) and meas.b_col.shape == (0, 5, 2)

    def test_noise_added_as_it_is_drawn(self):
        # 52 trials at 50 x 50, k = 8: the blocks take 333 KB.  Each
        # trial's noise is added as it is drawn, which peaked at 381 KB;
        # both noise stacks drawn before either was added peaked at 708 KB.
        truth = gen_low_rank(50, 50, 3, tuple(range(52)))
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 50, 50, 8, 8, tuple(range(100, 152)))
        seeds = tuple(range(200, 252))
        measure(truth, design, 1e-3, seeds)  # lazy imports and caches
        tracemalloc.start()
        try:
            measure(truth, design, 1e-3, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5e5


# one to seven 32-bit words of entropy, the pool's 4 and past it
POOL_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5, 2**200]


class TestPoolPass:
    """The one numpy pass that mixes seeds into their entropy pools and
    hashes those into PCG64 states, against numpy's ``SeedSequence``."""

    @pytest.mark.parametrize("seed", POOL_SEEDS, ids=repr)
    def test_seed_alone_and_in_a_stack(self, seed):
        want = np.random.default_rng(seed).bit_generator.state
        ((alone,), stacked) = _generators(seed)
        assert not stacked and alone.bit_generator.state == want
        rngs, _ = _generators(tuple(POOL_SEEDS))
        assert rngs[POOL_SEEDS.index(seed)].bit_generator.state == want
        assert np.array_equal(_pools((seed,))[0], np.random.SeedSequence(seed).pool)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of([st.integers(0, 2**bits - 1) for bits in (32, 64, 128, 300)]),
            max_size=8,
        )
    )
    def test_any_seeds(self, seeds):
        rngs, stacked = _generators(tuple(seeds))
        assert stacked and len(rngs) == len(seeds)
        for rng, seed in zip(rngs, seeds):
            want = np.random.default_rng(seed).bit_generator.state
            assert rng.bit_generator.state == want
            assert _generators(seed)[0][0].bit_generator.state == want


# every width of entropy numpy's SeedSequence takes from an integer
GOOD_SEEDS = [0, 1, 2**32, 2**64 - 1, 2**130 + 3, np.int64(2**63 - 1), np.uint64(2**64 - 1)]
BAD_SEEDS = [
    None, True, np.bool_(True), -1, np.int64(-1), 1.5, np.float64(2.0), "7", [1, 2],
    np.array(3), (1, None), ((1, 2),), (True,),
]


def assert_same_stream(rng, seed):
    """``rng`` is the generator ``np.random.default_rng(seed)`` builds: the
    same state, and the same draws of each kind the package makes."""
    ref = np.random.default_rng(seed)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes()
    assert np.array_equal(rng.choice(50, 9, replace=False), ref.choice(50, 9, replace=False))
    assert rng.bit_generator.state == ref.bit_generator.state


class TestSeeds:
    """A stack's generators are seeded in one pass, and must be those
    ``default_rng`` builds; seeds are checked where the library takes them."""

    @pytest.mark.parametrize("seed", GOOD_SEEDS, ids=repr)
    def test_one_seed_draws_default_rng_stream(self, seed):
        rngs, stacked = _generators(seed)
        assert not stacked and len(rngs) == 1
        assert_same_stream(rngs[0], seed)

    def test_stack_draws_default_rng_stream_per_seed(self):
        rngs, stacked = _generators(tuple(GOOD_SEEDS))
        assert stacked and len(rngs) == len(GOOD_SEEDS)
        for rng, seed in zip(rngs, GOOD_SEEDS):
            assert_same_stream(rng, seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_bad_seed_rejected(self, seed):
        x = np.ones((4, 3))
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 3, 2, 2, seed=0)
        calls = [
            lambda: gen_low_rank(4, 3, 1, seed),
            lambda: gen_design(DesignKind.GAUSSIAN_AFFINE, 4, 3, 2, 2, seed),
            lambda: gen_design(DesignKind.ROW_COL_SAMPLE, 4, 3, 2, 2, seed),
            lambda: measure(x, design, 0.1, seed),
            lambda: measure(x, design, 0.0, seed),  # draws no noise, checks the seed
        ]
        for call in calls:
            with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
                call()

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random loads on the first draw, not with the package
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(svls.__file__)))
        code = "import sys, svls; print('numpy.random' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
