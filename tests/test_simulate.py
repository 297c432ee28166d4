import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import cur_recover_oracle, run_trial_oracle

from svls import simulate
from svls.measurements import DesignKind
from svls.simulate import (
    ALGORITHMS,
    ExperimentConfig,
    TrialPoint,
    aggregate,
    read_records_csv,
    run_trial,
    sweep,
    trial_seed,
    write_records_csv,
    write_summary_csv,
)


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # nan and infinities included, as Python's json reads them
    st.text(max_size=8),
    st.sampled_from(["gaussian", "rowcol", *ALGORITHMS]),
)


JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def point(**overrides):
    base = dict(
        m=15,
        n=15,
        rank=2,
        design=DesignKind.GAUSSIAN_AFFINE,
        k1=2,
        k2=2,
        sigma=0.0,
        algorithm="svls",
    )
    base.update(overrides)
    return TrialPoint(**base)


def small_config(**overrides):
    base = dict(
        m=12,
        n=12,
        ranks=(2,),
        design_kinds=(DesignKind.GAUSSIAN_AFFINE,),
        k_values=((2, 2), (3, 3)),
        sigmas=(0.0,),
        algorithms=("svls",),
        trials=3,
        base_seed=77,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunTrial:
    def test_noiseless_svls_succeeds(self):
        rec = run_trial(point(), seed=5)
        assert rec.success
        assert rec.relative_error <= 1e-8
        assert rec.error == ""
        assert rec.iterations == 0

    def test_deterministic_records(self):
        a = run_trial(point(sigma=1e-3), seed=9)
        b = run_trial(point(sigma=1e-3), seed=9)
        assert a == b  # runtime excluded from comparison by design

    def test_cur_on_gaussian_design_contained(self):
        rec = run_trial(point(algorithm="cur"), seed=1)
        assert not rec.success
        assert rec.error.startswith("ValueError")
        assert math.isnan(rec.relative_error)

    def test_rank_above_budget_contained(self):
        rec = run_trial(point(rank=3, k1=2, k2=2), seed=1)
        assert not rec.success
        assert rec.error != ""

    def test_svp_uses_budget_parity(self):
        rec = run_trial(point(algorithm="svp", rank=1, k1=2, k2=2), seed=3)
        assert rec.error == ""
        assert rec.iterations > 0

    def test_als_reports_iterations(self):
        rec = run_trial(point(algorithm="als"), seed=4)
        assert rec.iterations >= 1
        assert rec.success

    def test_cur_rank_deficient_overlap_fails_without_error(self):
        # k1 = k2 = 1 < rank forces a rank-deficient overlap block: the
        # skeleton estimate is computed (no exception) but cannot succeed
        rec = run_trial(
            point(design=DesignKind.ROW_COL_SAMPLE, algorithm="cur", rank=2, k1=1, k2=1),
            seed=6,
        )
        assert rec.error == ""
        assert not rec.success
        assert rec.relative_error > 1e-4

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_string_design_matches_member(self, kind):
        by_member = run_trial(point(design=kind), seed=7)
        by_string = run_trial(point(design=kind.value), seed=7)
        assert by_string == by_member
        assert by_string.design == kind.value
        assert by_string.error == ""

    def test_unknown_algorithm_contained(self):
        rec = run_trial(point(algorithm="nope"), seed=7)
        assert rec.algorithm == "nope"
        assert rec.error == "ValueError: unknown algorithm 'nope'"
        assert not rec.success
        assert math.isnan(rec.relative_error)

    def test_unknown_design_contained(self):
        rec = run_trial(point(design="bogus"), seed=7)
        assert rec.design == "bogus"
        assert rec.error.startswith("ValueError")
        assert not rec.success
        assert math.isnan(rec.relative_error)


class TestSweep:
    def test_cartesian_cardinality(self):
        cfg = small_config(ranks=(1, 2), k_values=((2, 2), (3, 3), (4, 4)), trials=10)
        records = sweep(cfg)
        assert len(records) == 2 * 3 * 10

    def test_repeat_runs_identical(self):
        cfg = small_config()
        assert sweep(cfg) == sweep(cfg)

    def test_parallelism_invariant(self):
        cfg = small_config(trials=4)
        assert sweep(cfg, jobs=1) == sweep(cfg, jobs=4)

    @pytest.mark.parametrize("jobs", [0, -3, True, 2.5, "2", None])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be an integer of at least 1"):
            sweep(small_config(), jobs=jobs)

    def test_numpy_integer_jobs_accepted(self):
        cfg = small_config()
        assert sweep(cfg, jobs=np.int64(2)) == sweep(cfg)

    def test_failed_trials_do_not_abort(self):
        cfg = small_config(algorithms=("svls", "cur"), trials=2)
        records = sweep(cfg)
        assert len(records) == 2 * 2 * 2
        failed = [r for r in records if r.error]
        ok = [r for r in records if not r.error]
        assert failed and ok

    def test_canonical_record_order(self):
        cfg = small_config(trials=2)
        records = sweep(cfg)
        keys = [(r.k1, r.trial_index) for r in records]
        assert keys == sorted(keys)

    def test_trial_seeds_distinct(self):
        cfg = small_config(trials=5)
        seeds = {r.seed for r in sweep(cfg)}
        assert len(seeds) == 10

    def test_seed_derivation_stable(self):
        # frozen value: the seed schedule is part of the reproducibility
        # contract, so a refactor that changes it must fail loudly
        assert trial_seed(77, point(), 0) == 1543507526266491094
        assert trial_seed(77, point(), 0) != trial_seed(78, point(), 0)
        assert trial_seed(77, point(), 0) != trial_seed(77, point(sigma=0.1), 0)


VALID_CONFIG = {
    "m": 10,
    "n": 10,
    "ranks": [2],
    "design_kinds": ["gaussian"],
    "k_values": [[2, 2]],
    "sigmas": [0.0],
    "algorithms": ["svls"],
    "trials": 2,
    "base_seed": 0,
}


class TestExperimentConfig:
    def test_from_json_dict_round_trip(self):
        payload = {
            "m": 10,
            "n": 12,
            "ranks": [1, 2],
            "design_kinds": ["gaussian", "rowcol"],
            "k_values": [[2, 2]],
            "sigmas": [0.0, 0.01],
            "algorithms": ["svls", "cur"],
            "trials": 2,
            "base_seed": 3,
        }
        cfg = ExperimentConfig.from_json_dict(payload)
        assert cfg.design_kinds == (
            DesignKind.GAUSSIAN_AFFINE,
            DesignKind.ROW_COL_SAMPLE,
        )
        assert cfg.success_threshold == 1e-4

    @pytest.mark.parametrize(
        "bad",
        [
            {"trials": 0},
            {"ranks": []},
            {"algorithms": ["bogus"]},
            {"sigmas": []},
            {"success_threshold": 0.0},
            {"m": None},
            {"ranks": 5},
            {"k_values": [3]},
            {"success_threshold": None},
            {"trials": 1.5},
            {"m": True},
            {"sigmas": [math.nan]},
            {"sigmas": [math.inf]},
            {"m": 0},
        ],
    )
    def test_invalid_config_rejected(self, bad):
        payload = dict(VALID_CONFIG, **bad)
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_dict(payload)

    @pytest.mark.parametrize("payload", [5, None])
    def test_non_object_config_rejected(self, payload):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_json_dict(payload)

    @pytest.mark.parametrize(
        "bad",
        [{"sigmas": (math.nan,)}, {"sigmas": (-1.0,)}, {"success_threshold": math.inf},
         {"design_kinds": ("gaussian",)}],
    )
    def test_direct_construction_checked(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_dict({"m": 3, "bogus": 1})

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(
        payload=st.one_of(
            JSON_VALUES,
            # the valid config with one field, or the one entry of a list
            # field, replaced by any JSON value
            st.tuples(
                st.sampled_from([*VALID_CONFIG, "success_threshold"]), JSON_VALUES
            ).map(lambda item: dict(VALID_CONFIG, **{item[0]: item[1]})),
            st.tuples(
                st.sampled_from([k for k, v in VALID_CONFIG.items() if type(v) is list]),
                JSON_VALUES,
            ).map(lambda item: dict(VALID_CONFIG, **{item[0]: [item[1]]})),
        )
    )
    def test_any_json_gives_config_or_value_error(self, payload):
        try:
            cfg = ExperimentConfig.from_json_dict(payload)
        except ValueError:
            return
        assert cfg.m >= 1 and cfg.trials >= 1
        assert all(0 <= s < math.inf for s in cfg.sigmas)


class TestAggregate:
    def test_single_record_group(self):
        cfg = small_config(trials=1, k_values=((2, 2),))
        records = sweep(cfg)
        rows = aggregate(records)
        assert len(rows) == 1
        assert rows[0].trials == 1
        assert rows[0].mean_relative_error == records[0].relative_error
        assert rows[0].median_relative_error == records[0].relative_error

    def test_all_success_group_has_rate_one(self):
        cfg = small_config(trials=4, k_values=((3, 3),))
        rows = aggregate(sweep(cfg))
        assert rows[0].success_rate == 1.0

    def test_failed_trials_counted_in_rate_not_errors(self):
        cfg = small_config(algorithms=("cur",), trials=3, k_values=((2, 2),))
        rows = aggregate(sweep(cfg))
        assert rows[0].success_rate == 0.0
        assert math.isnan(rows[0].mean_relative_error)

    def test_group_ordering_canonical(self):
        cfg = small_config(k_values=((4, 4), (2, 2), (3, 3)), trials=1)
        rows = aggregate(sweep(cfg))
        assert [r.k1 for r in rows] == [2, 3, 4]


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        cfg = small_config(algorithms=("svls", "cur"), trials=2)
        records = sweep(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        loaded = read_records_csv(path)
        assert loaded == records

    def test_record_equality_is_the_csv_row(self):
        # runtime_seconds is left out and nan equals nan, so equal records hash alike
        records = [run_trial(point(algorithm=algo), seed=5) for algo in ("svls", "nope")]
        assert math.isnan(records[1].relative_error)
        for rec in records:
            other = dataclasses.replace(rec, runtime_seconds=rec.runtime_seconds + 1.0)
            assert other == rec and hash(other) == hash(rec)
            assert rec.__eq__(rec.seed) is NotImplemented and rec != rec.seed
            assert dataclasses.replace(rec, seed=rec.seed + 1) != rec

    def test_byte_identical_rewrites(self, tmp_path):
        cfg = small_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(a, sweep(cfg))
        write_records_csv(b, sweep(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_timing_column_optional(self, tmp_path):
        cfg = small_config(trials=1, k_values=((2, 2),))
        records = sweep(cfg)
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        write_records_csv(plain, records)
        write_records_csv(timed, records, include_runtime=True)
        assert "runtime_seconds" not in plain.read_text().splitlines()[0]
        header, row = timed.read_text().splitlines()[:2]
        assert header.endswith("runtime_seconds")
        assert not row.endswith("nan")
        loaded = read_records_csv(timed)
        assert not math.isnan(loaded[0].runtime_seconds)

    def test_newline_endings_and_17_digits(self, tmp_path):
        cfg = small_config(sigmas=(0.1,), trials=1, k_values=((3, 3),))
        path = tmp_path / "records.csv"
        write_records_csv(path, sweep(cfg))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"0.10000000000000001" in raw  # 17 significant digits

    def test_timed_csv_round_trip(self, tmp_path):
        cfg = small_config(algorithms=("svls", "cur"), trials=2)
        records = sweep(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(a, records, include_runtime=True)
        loaded = read_records_csv(a)
        assert loaded == records
        # 17 digits round-trip every runtime exactly; repr makes nan == nan
        assert [repr(r.runtime_seconds) for r in loaded] == [
            repr(r.runtime_seconds) for r in records
        ]
        write_records_csv(b, loaded, include_runtime=True)
        assert a.read_bytes() == b.read_bytes()

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(path, sweep(small_config(trials=1)))
        path.write_text(path.read_text() + "1,2,3\n")
        with pytest.raises(ValueError, match="fields"):
            read_records_csv(path)

    def test_undecodable_byte_names_its_file_offset(self, tmp_path):
        # past the decoder's first 8 KB chunk: the position counts from the
        # file's start, as the whole-text reader gave it
        path = tmp_path / "records.csv"
        write_records_csv(path, sweep(small_config(trials=1)))
        header, *rows = path.read_bytes().splitlines(keepends=True)
        head = header + b"".join(rows) * 100
        path.write_bytes(head + b"\xff\n")
        assert len(head) > 8192
        message = f"{path}: 'utf-8' codec can't decode byte 0xff in position {len(head)}: "
        with pytest.raises(ValueError, match=re.escape(message) + "invalid start byte$"):
            read_records_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,n\n1,2\n")
        with pytest.raises(ValueError):
            read_records_csv(path)

    def test_summary_csv_written(self, tmp_path):
        cfg = small_config(trials=2)
        rows = aggregate(sweep(cfg))
        path = tmp_path / "summary.csv"
        write_summary_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("m,n,rank,design,k1,k2,sigma,algorithm,trials")
        assert len(lines) == 1 + len(rows)


GOLDEN = Path(__file__).parent / "data"


def assert_matches_golden(data: bytes, name: str) -> None:
    """Byte-for-byte comparison with ``tests/data/<name>``; a mismatch
    reports the first line that differs."""
    want = (GOLDEN / name).read_bytes()
    if data == want:
        return
    got_lines, want_lines = data.splitlines(), want.splitlines()
    i = next(
        (i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
        min(len(got_lines), len(want_lines)),
    )
    got_line = got_lines[i].decode() if i < len(got_lines) else "<end of output>"
    want_line = want_lines[i].decode() if i < len(want_lines) else "<end of file>"
    pytest.fail(f"{name} differs at line {i + 1}:\n got: {got_line}\nwant: {want_line}")


class TestGoldenOutputs:
    """The harness output for a small sweep that covers both designs, all
    four algorithms, noise and contained errors, against the checked-in
    CSVs in ``tests/data``.  They pin numpy 2.4 with OpenBLAS 0.3 on
    x86-64; on another numerical stack they must be retaken from a
    harness whose output is known to be right, and diffed against the old
    files before they replace them."""

    def test_records_and_summary_bytes(self, tmp_path):
        cfg = small_config(
            n=10,
            design_kinds=tuple(DesignKind),
            k_values=((1, 1), (3, 3)),
            sigmas=(0.0, 1e-3),
            algorithms=ALGORITHMS,
            trials=1,
            base_seed=2024,
        )
        records = sweep(cfg)
        assert any(r.error for r in records) and any(r.success for r in records)
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        assert_matches_golden(path.read_bytes(), "golden_records.csv")
        write_summary_csv(path, aggregate(records))
        # mean_runtime_seconds, the last column, is wall-clock time
        lines = path.read_text().splitlines()
        text = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
        assert_matches_golden(text.encode(), "golden_summary.csv")


class TestExactnessProbability:
    def test_success_probability_at_minimal_budget(self):
        cfg = ExperimentConfig(
            m=50,
            n=50,
            ranks=(3,),
            design_kinds=(DesignKind.GAUSSIAN_AFFINE,),
            k_values=((3, 3),),
            sigmas=(0.0,),
            algorithms=("svls",),
            trials=100,
            base_seed=55,
        )
        rows = aggregate(sweep(cfg, jobs=4))
        assert rows[0].success_rate >= 0.99


class TestTrendMonotonicity:
    def test_success_probability_nondecreasing_in_k(self):
        # compact version of the phase-transition sweep: 50 trials per
        # point at m = n = 20, r = 2
        cfg = ExperimentConfig(
            m=20,
            n=20,
            ranks=(2,),
            design_kinds=(DesignKind.GAUSSIAN_AFFINE,),
            k_values=tuple((k, k) for k in range(1, 5)),
            sigmas=(0.0,),
            algorithms=("svls",),
            trials=50,
            base_seed=1234,
        )
        rates = [row.success_rate for row in aggregate(sweep(cfg, jobs=4))]
        inversions = [
            max(0.0, rates[i] - rates[i + 1]) for i in range(len(rates) - 1)
        ]
        assert sum(1 for inv in inversions if inv > 0) <= 1
        assert all(inv <= 0.05 for inv in inversions)
        assert rates[0] < 0.05  # k = 1 < r
        assert rates[-1] > 0.95  # k = 4 > r


def record_point(rec):
    return TrialPoint(**{name: getattr(rec, name) for name in POINT_FIELDS})


def oracle_records(records, success_threshold=1e-4):
    """Each record's trial rerun alone through ``run_trial_oracle``."""
    return [
        run_trial_oracle(record_point(rec), rec.seed, rec.trial_index, success_threshold)
        for rec in records
    ]


def cur_rank(rec):
    """The oracle's kept rank of W on a ``cur`` record's trial."""
    _, design, meas = simulate._draw(record_point(rec), rec.seed)
    return cur_recover_oracle(meas, design).rank_used


def stack_sizes(monkeypatch):
    """Record the number of trials in every stack a sweep solves."""
    sizes = []
    for algo, (check, solve) in list(simulate._STACKED.items()):
        def counted(meas, design, r, solve=solve):
            sizes.append(len(meas.b_row))
            return solve(meas, design, r)

        monkeypatch.setitem(simulate._STACKED, algo, (check, counted))
    return sizes


POINT_FIELDS = [f.name for f in dataclasses.fields(TrialPoint)]


class TestStackedPoints:
    """``svls`` and ``cur`` points run in stacks; every record must be the
    one the per-trial oracles give."""

    # 60 x 45 truths, whose stacks are sized in the test to 24 trials at
    # k = (8, 10), so its 30 trials are a full stack and a partial one.
    # k = 2 < r fails svls at the point; at k = (8, 10) with noise, cur
    # keeps 3 or 4 singular values of W from trial to trial.
    CONFIG = dict(
        m=60,
        n=45,
        ranks=(3,),
        design_kinds=tuple(DesignKind),
        k_values=((2, 2), (3, 3), (8, 10)),
        sigmas=(0.0, 1e-3),
        algorithms=("svls", "cur"),
        trials=30,
        base_seed=404,
    )

    # (m + n)(r + k1 + k2) entries a trial: 24 trials at k = (8, 10)
    PER_STACK = 24
    STACK_ENTRIES = PER_STACK * (60 + 45) * (3 + 8 + 10)

    def test_records_equal_the_per_trial_oracles(self, monkeypatch):
        sizes = stack_sizes(monkeypatch)
        monkeypatch.setattr(simulate, "STACK_ENTRIES", self.STACK_ENTRIES)
        records = sweep(small_config(**self.CONFIG))
        monkeypatch.undo()
        per_stack = self.PER_STACK
        full = [per_stack, 30 - per_stack]
        # 24 points, of which 4 fail svls's rank check and 6 cur's design
        # check.  In point order, at both sigmas: Gaussian svls at k = 3 and
        # (8, 10), then rowcol cur at k = 2, svls and cur at k = 3, and svls
        # and cur at (8, 10); a point at (8, 10) takes a full and a partial
        # stack, the others, with fewer entries a trial, one stack of 30
        assert sizes == [30, 30] + full * 2 + [30, 30] + [30] * 4 + full * 4
        want = oracle_records(records)
        assert len(records) == len(want) == 2 * 3 * 2 * 2 * 30
        for got, ref in zip(records, want):
            assert got.error == ref.error
            assert got.relative_error == ref.relative_error or (
                math.isnan(got.relative_error) and math.isnan(ref.relative_error)
            )
            assert got == ref
        # the point-level svls failure, and cur's kept rank varying inside a stack
        assert any(r.error.startswith("ValueError: rank 3") for r in records)
        first_stack = [
            cur_rank(r)
            for r in records
            if (r.algorithm, r.design, r.k1, r.sigma) == ("cur", "rowcol", 8, 1e-3)
            and r.trial_index < per_stack
        ]
        assert len(set(first_stack)) > 1

    def test_parallel_records_equal_serial(self):
        cfg = small_config(**dict(self.CONFIG, trials=25))
        assert sweep(cfg, jobs=3) == sweep(cfg, jobs=1)

    def test_large_trials_run_one_at_a_time(self, monkeypatch):
        sizes = stack_sizes(monkeypatch)
        monkeypatch.setattr(simulate, "STACK_ENTRIES", 100)
        cfg = small_config(k_values=((3, 3),), algorithms=("svls", "cur"),
                           design_kinds=(DesignKind.ROW_COL_SAMPLE,))
        records = sweep(cfg)
        assert sizes == [1] * 6
        assert records == oracle_records(records)

    def test_each_stack_drawn_in_one_call_of_each_generator(self, monkeypatch):
        # 24 trials a stack at k = (3, 3)
        monkeypatch.setattr(simulate, "STACK_ENTRIES", 24 * (60 + 45) * (3 + 3 + 3))
        labels = {"gen_low_rank": "truth", "gen_design": "design", "measure": "noise"}
        calls = {name: [] for name in labels}
        for name, seen in calls.items():
            fn = getattr(simulate, name)
            monkeypatch.setattr(
                simulate, name, lambda *args, fn=fn, seen=seen: seen.append(args[-1]) or fn(*args)
            )
        cfg = small_config(**dict(self.CONFIG, design_kinds=(DesignKind.ROW_COL_SAMPLE,),
                                  k_values=((3, 3),), sigmas=(1e-3,), algorithms=("svls",)))
        records = sweep(cfg)
        monkeypatch.undo()
        # no trial, for the point's checks, then a full and a partial
        # stack, each trial with its own seeds
        for name, seen in calls.items():
            subseeds = [simulate._subseed(rec.seed, labels[name]) for rec in records]
            assert seen == [(), tuple(subseeds[:24]), tuple(subseeds[24:])], name
        assert records == oracle_records(records)


class TestSingleTrialPoints:
    """``als`` and ``svp`` points take the sweep's point path too, each
    trial a stack of one; every record must be the one the per-trial
    oracle gives."""

    # k = 1 < r fails ALS's rank check in every trial of its point, where
    # SVP runs under-measured; at k = 6 both converge
    CONFIG = dict(
        m=10,
        n=10,
        ranks=(2,),
        design_kinds=tuple(DesignKind),
        k_values=((1, 1), (6, 6)),
        sigmas=(0.0, 1e-3),
        algorithms=("als", "svp"),
        trials=3,
        base_seed=21,
    )

    def test_records_equal_the_per_trial_oracle(self):
        records = sweep(small_config(**self.CONFIG))
        assert len(records) == 2 * 2 * 2 * 2 * 3
        assert records == oracle_records(records)
        assert records == [run_trial(record_point(r), r.seed, r.trial_index) for r in records]
        failed = [r for r in records if r.error]
        assert {(r.algorithm, r.k1) for r in failed} == {("als", 1)}
        assert len(failed) == 2 * 2 * 3
        assert {r.error for r in failed} == {"ValueError: rank 2 outside valid range [1, 1]"}
        assert all(r.iterations >= 1 for r in records if not r.error)

    def test_parallel_records_equal_serial(self):
        cfg = small_config(**self.CONFIG)
        assert sweep(cfg, jobs=3) == sweep(cfg, jobs=1)

    def test_one_task_per_point(self, monkeypatch):
        tasks = []
        run_point = simulate._run_point

        def counted(point, trials, success_threshold):
            tasks.append((point.algorithm, [t for t, _ in trials]))
            return run_point(point, trials, success_threshold)

        monkeypatch.setattr(simulate, "_run_point", counted)
        sweep(small_config(**dict(self.CONFIG, algorithms=("svls", "cur", "als", "svp"))))
        assert tasks == [(algo, [0, 1, 2]) for algo in ("svls", "cur", "als", "svp")] * 8


class TestStackWorkingSet:
    """A point's 52 trials at 50 x 50, r = 3, k = 8 run as one stack, which
    holds its truths as factors (125 KB), its blocks (333 KB) and, for a
    Gaussian design, the design (333 KB); with the noise and the solver's
    temporaries, and the scoring QR's once the design and blocks are let
    go, it peaked at 0.93-1.25 MB.  The 52 dense truths would add 1.04 MB."""

    BOUND = 1.3e6

    @pytest.mark.parametrize(
        "kind, algo",
        [(DesignKind.GAUSSIAN_AFFINE, "svls"), (DesignKind.ROW_COL_SAMPLE, "svls"),
         (DesignKind.ROW_COL_SAMPLE, "cur")],
    )
    def test_one_point_peak_allocation(self, kind, algo):
        assert simulate.STACK_ENTRIES // ((50 + 50) * (3 + 8 + 8)) >= 52  # one stack
        point = TrialPoint(50, 50, 3, kind, 8, 8, 1e-3, algo)
        trials = [(t, trial_seed(611, point, t)) for t in range(52)]
        simulate._run_point(point, trials, 1e-4)  # lazy imports and caches
        tracemalloc.start()
        try:
            records = simulate._run_point(point, trials, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(rec.error for rec in records)
        assert peak < self.BOUND


class TestStackContainment:
    @pytest.fixture(autouse=True)
    def stacks_of_26(self, monkeypatch):
        # (m + n)(r + k1 + k2) entries a trial: each point's 30 trials take
        # a stack of 26 and one of 4
        monkeypatch.setattr(simulate, "STACK_ENTRIES", 26 * (50 + 50) * (3 + 4 + 4))

    CONFIG = dict(
        m=50,
        n=50,
        ranks=(3,),
        design_kinds=(DesignKind.ROW_COL_SAMPLE,),
        k_values=((4, 4),),
        sigmas=(1e-3,),
        algorithms=("svls", "cur"),
        trials=30,
        base_seed=5,
    )

    # The points each failing test runs, and the trials it fails: a cur
    # trial in its point's first stack and an svls one in its second; or
    # an als and an svp trial, each a stack of one.
    POINTS = {
        "stacked": ({}, [7, 30 + 27]),
        "single": (dict(m=10, n=10, ranks=(2,), k_values=((6, 6),), algorithms=("als", "svp"),
                        trials=3), [1, 3 + 2]),
    }

    @pytest.mark.parametrize("failure", ["draw", "solve"])
    @pytest.mark.parametrize("points", list(POINTS))
    def test_one_failing_trial_is_contained(self, monkeypatch, failure, points):
        overrides, targets = self.POINTS[points]
        cfg = small_config(**dict(self.CONFIG, **overrides))
        clean = sweep(cfg)
        seeds = {
            simulate._subseed(clean[i].seed, label)
            for i in targets
            for label in ("truth", "design", "noise")
        }

        def hit(seed):
            # a stack's seeds, or one trial's
            return not seeds.isdisjoint(seed if isinstance(seed, tuple) else (seed,))

        if failure == "draw":
            # a trial's last draw: its blocks, or the svp baseline's operator
            for name in ("measure", "gaussian_operator"):
                def faulty(*args, draw=getattr(simulate, name)):
                    if hit(args[-1]):
                        raise RuntimeError("no measurement")
                    return draw(*args)

                monkeypatch.setattr(simulate, name, faulty)
        else:
            # a set holding a nan is refused when built, so the target
            # trial's solve fails as a nan's SVD would: in a stack, alone,
            # and in the oracle
            def failing(solve):
                def wrapped(data, *args, **kwargs):
                    # a stack's or a trial's blocks, or svp's data and truth
                    seed = data.noise_seed if hasattr(data, "noise_seed") else kwargs["truth"].seed
                    if hit(seed):
                        raise np.linalg.LinAlgError("SVD did not converge")
                    return solve(data, *args, **kwargs)
                return wrapped

            for algo, (check, solve) in simulate._STACKED.items():
                monkeypatch.setitem(simulate._STACKED, algo, (check, failing(solve)))
                name = f"{algo}_recover_oracle"
                monkeypatch.setattr(oracles, name, failing(getattr(oracles, name)))
            for name in ("als_recover", "svp_recover"):
                monkeypatch.setattr(simulate, name, failing(getattr(simulate, name)))
        records = sweep(cfg)
        assert [i for i, rec in enumerate(records) if rec.error] == targets
        for i in targets:
            point, seed, t = record_point(clean[i]), clean[i].seed, clean[i].trial_index
            alone = run_trial_oracle(point, seed, t)
            assert alone.error == {
                "draw": "RuntimeError: no measurement",
                "solve": "LinAlgError: SVD did not converge",
            }[failure]
            assert records[i] == alone == run_trial(point, seed, t)
        rest = [i for i in range(len(clean)) if i not in targets]
        assert [records[i] for i in rest] == [clean[i] for i in rest]

    def test_one_failing_score_is_contained(self, monkeypatch):
        cfg = small_config(**self.CONFIG)
        clean = sweep(cfg)
        # a cur trial in its point's first stack, an svls one in its second
        targets = [7, 30 + 27]
        bad = []  # the targets' truths' left factors
        for i in targets:
            bad.append(simulate._draw(record_point(clean[i]), clean[i].seed)[0].left_factor)
        errors = simulate.relative_error

        def faulty(left, right, truths):
            if any(np.array_equal(x, f) for x in bad for f in truths.left_factor):
                raise FloatingPointError("no score")
            return errors(left, right, truths)

        monkeypatch.setattr(simulate, "relative_error", faulty)
        records = sweep(cfg)
        assert [i for i, rec in enumerate(records) if rec.error] == targets
        for i in targets:
            assert records[i].error == "FloatingPointError: no score"
            assert math.isnan(records[i].relative_error) and not records[i].success
            assert records[i].seed == clean[i].seed
        rest = [i for i in range(len(clean)) if i not in targets]
        assert [records[i] for i in rest] == [clean[i] for i in rest]

    @pytest.mark.parametrize(
        "overrides, tag",
        [
            (
                dict(design_kinds=(DesignKind.GAUSSIAN_AFFINE,), k_values=((2, 2),),
                     algorithms=("svls",)),
                "ValueError: rank 3 outside valid range [1, 2]",
            ),
            (
                dict(design_kinds=(DesignKind.GAUSSIAN_AFFINE,), algorithms=("cur",)),
                "ValueError: cur_recover requires a row/column sampling design",
            ),
            (
                dict(k_values=((60, 60),)),
                "ValueError: sampling design needs k1 <= m and k2 <= n, got "
                "k1=60, m=50, k2=60, n=50",
            ),
        ],
        ids=["rank_above_k", "cur_on_gaussian", "rowcol_k_above_m"],
    )
    def test_point_level_failures(self, monkeypatch, overrides, tag):
        cfg = small_config(**dict(self.CONFIG, **overrides))
        draws = []
        gen = simulate.gen_low_rank
        monkeypatch.setattr(
            simulate, "gen_low_rank", lambda *args: draws.append(args) or gen(*args)
        )
        records = sweep(cfg)
        assert {rec.error for rec in records} == {tag}
        points = len(records) // cfg.trials
        assert len(draws) == points  # the stack of no trials, which sufficed
        monkeypatch.undo()
        assert records == oracle_records(records)
