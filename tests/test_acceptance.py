"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import statistics
import time

import numpy as np
import pytest
from oracles import core_objective, solve_core_bruteforce

from svls.baselines import gaussian_operator, svp_recover
from svls.measurements import DesignKind, gen_design, gen_low_rank, measure
from svls.recovery import (
    cur_recover,
    estimate_col_space,
    estimate_row_space,
    solve_core,
    svls_recover,
)
from svls.simulate import (
    ExperimentConfig,
    aggregate,
    sweep,
    write_records_csv,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_noiseless_exactness():
    """m=n=50, r=3, Gaussian design, k1=k2=3, sigma=0: exact recovery in
    at least 99 of 100 seeds, each trial under a second."""
    hits = 0
    max_runtime = 0.0
    for seed in range(100):
        truth = gen_low_rank(50, 50, 3, seed=seed)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, 50, 50, 3, 3, seed=20_000 + seed)
        meas = measure(truth.x, design, 0.0, 0)
        result = svls_recover(meas, design, 3, truth=truth.x)
        hits += result.relative_error <= 1e-8
        max_runtime = max(max_runtime, result.runtime_seconds)
    report(
        "1 noiseless exactness",
        hits >= 99 and max_runtime < 1.0,
        f"{hits}/100 exact, max trial runtime {max_runtime:.4f}s",
    )


def test_criterion_2_minimal_measurement_scheme():
    """Sampling design with k1=k2=r: skeleton recovery exact to 1e-10,
    from exactly r(m+n-r) distinct scalar observations."""
    m = n = 40
    worst = 0.0
    counts_ok = True
    for r in (1, 2, 5):
        for seed in range(50):
            truth = gen_low_rank(m, n, r, seed=seed)
            design = gen_design(DesignKind.ROW_COL_SAMPLE, m, n, r, r, seed=10_000 + seed)
            meas = measure(truth.x, design, 0.0, 0)
            result = cur_recover(meas, design, truth=truth.x)
            worst = max(worst, result.relative_error)
            counts_ok &= design.distinct_measurements == r * (m + n - r)
    report(
        "2 minimal-measurement exactness",
        worst <= 1e-10 and counts_ok,
        f"worst relative error {worst:.3e}, distinct counts r(m+n-r): {counts_ok}",
    )


def _random_core_instance(rng):
    r = int(rng.integers(1, 4))
    m = int(rng.integers(max(r, 2), 11))
    n = int(rng.integers(max(r, 2), 11))
    k1 = int(rng.integers(r, 6))
    k2 = int(rng.integers(r, 6))
    sigma = 0.0 if rng.integers(2) == 0 else 0.01
    truth = gen_low_rank(m, n, r, seed=int(rng.integers(2**32)))
    design = gen_design(
        DesignKind.GAUSSIAN_AFFINE, m, n, k1, k2, seed=int(rng.integers(2**32))
    )
    meas = measure(truth.x, design, sigma, noise_seed=int(rng.integers(2**32)))
    u = estimate_col_space(meas.b_col, r)
    v = estimate_row_space(meas.b_row, r)
    return design, meas, u, v


def test_criterion_3_oracle_equivalence():
    """solve_core agrees with the materialized least-squares oracle to
    1e-8 Frobenius on 100 random small instances, in under 10 seconds."""
    rng = np.random.default_rng(31)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        design, meas, u, v = _random_core_instance(rng)
        fast = solve_core(u, v, design, meas)
        slow = solve_core_bruteforce(u, v, design, meas)
        worst = max(worst, float(np.linalg.norm(fast - slow)))
    elapsed = time.perf_counter() - t0
    report(
        "3 oracle equivalence",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst disagreement {worst:.3e}, total runtime {elapsed:.2f}s",
    )


def test_criterion_4_gradient_and_optimality():
    """On 50 random instances: normal-equation residual, vanishing
    finite-difference gradient, and non-improving perturbations."""
    rng = np.random.default_rng(41)
    residual_ok = gradient_ok = perturbation_ok = True
    for _ in range(50):
        design, meas, u, v = _random_core_instance(rng)
        core = solve_core(u, v, design, meas)

        au = design.a_row @ u.basis
        va = v.basis.T @ design.a_col
        p, q = au.T @ au, va @ va.T
        c = au.T @ meas.b_row @ v.basis + u.basis.T @ meas.b_col @ va.T
        resid = float(np.linalg.norm(p @ core + core @ q - c))
        residual_ok &= resid <= 1e-8 * (1.0 + np.linalg.norm(c))

        obj = core_objective(core, u, v, design, meas)
        h = 1e-6
        grad = np.zeros_like(core)
        for i in range(core.shape[0]):
            for j in range(core.shape[1]):
                e = np.zeros_like(core)
                e[i, j] = h
                grad[i, j] = (
                    core_objective(core + e, u, v, design, meas)
                    - core_objective(core - e, u, v, design, meas)
                ) / (2 * h)
        gradient_ok &= float(np.linalg.norm(grad)) <= 1e-4 * (1.0 + obj)

        for _ in range(10):
            delta = rng.standard_normal(core.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = core_objective(core + delta, u, v, design, meas)
            perturbation_ok &= perturbed >= obj - 1e-10 * (1.0 + obj)
    report(
        "4 gradient/optimality suite",
        residual_ok and gradient_ok and perturbation_ok,
        f"residual {residual_ok}, gradient {gradient_ok}, perturbations {perturbation_ok}",
    )


def test_criterion_5_noise_scaling():
    """Mean error at sigma in {1e-3, 1e-2, 1e-1} grows roughly linearly:
    both decade ratios inside [5, 20]."""

    def mean_error(sigma: float) -> float:
        errs = []
        for seed in range(50):
            truth = gen_low_rank(50, 50, 3, seed=1000 + seed)
            design = gen_design(
                DesignKind.GAUSSIAN_AFFINE, 50, 50, 6, 6, seed=2000 + seed
            )
            meas = measure(truth.x, design, sigma, noise_seed=3000 + seed)
            errs.append(svls_recover(meas, design, 3, truth=truth.x).relative_error)
        return float(np.mean(errs))

    e_lo, e_mid, e_hi = mean_error(1e-3), mean_error(1e-2), mean_error(1e-1)
    r1, r2 = e_mid / e_lo, e_hi / e_mid
    report(
        "5 noise scaling",
        5.0 <= r1 <= 20.0 and 5.0 <= r2 <= 20.0,
        f"mean errors {e_lo:.2e}/{e_mid:.2e}/{e_hi:.2e}, ratios {r1:.2f}, {r2:.2f}",
    )


def test_criterion_6_speed_comparison():
    """At m=n=100, r=3, with matched measurement budgets, the one-shot
    method beats the projection baseline on median wall-clock."""
    m = n = 100
    r = 3
    k = r * n + r * m  # budget parity
    svls_times, svp_times = [], []
    for seed in range(10):
        truth = gen_low_rank(m, n, r, seed=seed)
        design = gen_design(DesignKind.GAUSSIAN_AFFINE, m, n, r, r, seed=500 + seed)
        meas = measure(truth.x, design, 0.0, 0)
        svls_times.append(svls_recover(meas, design, r).runtime_seconds)
        op = gaussian_operator(m, n, k, seed=900 + seed)
        b = op @ truth.x.ravel()
        svp_times.append(svp_recover(b, op, m, n, r).runtime_seconds)
    med_svls = statistics.median(svls_times)
    med_svp = statistics.median(svp_times)
    report(
        "6 speed comparison",
        med_svls < med_svp,
        f"median svls {med_svls:.4f}s vs svp {med_svp:.4f}s at k={k}",
    )


def test_criterion_7_phase_transition():
    """Success probability vs k1=k2 in 1..8 at r=3, sigma=0: essentially
    zero below k=3, essentially one at k>=3, monotone up to one small
    inversion."""
    cfg = ExperimentConfig(
        m=40,
        n=40,
        ranks=(3,),
        design_kinds=(DesignKind.GAUSSIAN_AFFINE,),
        k_values=tuple((k, k) for k in range(1, 9)),
        sigmas=(0.0,),
        algorithms=("svls",),
        trials=50,
        base_seed=20260809,
    )
    rates = [row.success_rate for row in aggregate(sweep(cfg, jobs=4))]
    inversions = [max(0.0, rates[i] - rates[i + 1]) for i in range(len(rates) - 1)]
    ok = (
        sum(1 for inv in inversions if inv > 0) <= 1
        and all(inv <= 0.05 for inv in inversions)
        and all(rate < 0.05 for rate in rates[:2])
        and all(rate > 0.95 for rate in rates[2:])
    )
    report(
        "7 phase transition",
        ok,
        "rates " + "/".join(f"{rate:.2f}" for rate in rates),
    )


def test_criterion_8_determinism_and_containment(tmp_path):
    """Sweep CSVs are byte-identical across runs and parallelism levels,
    and a trial that always fails never aborts the sweep."""
    cfg = ExperimentConfig(
        m=15,
        n=15,
        ranks=(2,),
        design_kinds=(DesignKind.GAUSSIAN_AFFINE,),
        k_values=((2, 2), (3, 3)),
        sigmas=(0.0, 1e-2),
        algorithms=("svls", "cur"),  # cur fails on the Gaussian design
        trials=5,
        base_seed=88,
    )
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    write_records_csv(paths[0], sweep(cfg, jobs=1))
    write_records_csv(paths[1], sweep(cfg, jobs=1))
    write_records_csv(paths[2], sweep(cfg, jobs=4))
    identical = (
        paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    )
    records = sweep(cfg)
    expected = 2 * 2 * 2 * 5
    failed = sum(1 for rec in records if rec.error)
    contained = len(records) == expected and failed == expected // 2
    report(
        "8 determinism & containment",
        identical and contained,
        f"byte-identical {identical}, {failed} contained failures in "
        f"{len(records)} records",
    )


def test_criterion_9_bound_domination():
    """Gated: no error bound is proven in the repo yet, so the
    domination check stays off until one is (ROADMAP item 5)."""
    pytest.skip(
        "gated: no error bound is proven in the repo yet; the empirical "
        "domination check waits for a proven bound (ROADMAP item 5)"
    )
