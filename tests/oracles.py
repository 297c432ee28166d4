"""Slow, independent references that the tests hold the fast paths to.

None of these runs in a sweep, the CLI or the benchmark, so they live
beside the tests rather than in the package.
"""

from __future__ import annotations

import math

import numpy as np

from svls.measurements import MeasurementDesign, MeasurementSet
from svls.recovery import CORE_EIG_RTOL, SubspaceBasis, _core_inputs, _factor_objective


def solve_core_bruteforce(
    u: SubspaceBasis,
    v: SubspaceBasis,
    design: MeasurementDesign,
    meas: MeasurementSet,
    max_rows: int = 20000,
) -> np.ndarray:
    """Independent reference for ``solve_core``: materialize the stacked
    ``(k1*n + m*k2) x r^2`` linear system over the flattened core and
    solve it with a rank-revealing least-squares solve, whose rcond is
    ``sqrt(CORE_EIG_RTOL)`` so the two truncate consistently.

    Systems with more than ``max_rows`` rows are rejected.
    """
    ub, vb, au, va = _core_inputs(u, v, design, meas)
    r = ub.shape[1]
    rows = design.k1 * design.n + design.m * design.k2
    if rows > max_rows:
        raise ValueError(f"system has {rows} rows, above the cap of {max_rows}")
    # vec is row-major throughout: entry (i, j) of each block maps to row
    # i*ncols + j, and M_{pq} to column p*r + q.
    d = np.vstack([np.kron(au, vb), np.kron(ub, va.T)])
    rhs = np.concatenate([meas.b_row.ravel(), meas.b_col.ravel()])
    sol, _, _, _ = np.linalg.lstsq(d, rhs, rcond=math.sqrt(CORE_EIG_RTOL))
    return sol.reshape(r, r)


def core_objective(
    m_core: np.ndarray,
    u: SubspaceBasis,
    v: SubspaceBasis,
    design: MeasurementDesign,
    meas: MeasurementSet,
) -> float:
    """Value of the core least-squares objective at ``m_core``."""
    return _factor_objective(u.basis @ m_core, v.basis, design, meas)


def product_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of ``a @ b.T`` without forming it, in O((m+n) c^2)
    for c columns: with ``a = Q T`` its thin QR, it is ``||b @ T.T||_F``.

    A difference of products is one product of stacked factors,
    ``L1 R1.T - L0 R0.T = [L1, -L0] [R1, R0].T``.  The squared norm is
    not expanded into Gram inner products: near an exact match those
    terms cancel to 0.0, while the product with ``T`` keeps the digits.
    """
    return float(np.linalg.norm(b @ np.linalg.qr(a, mode="r").T))
