"""Fixed pieces of work that measure how fast the machine is right now.

The host this benchmark was written on runs the same code at speeds up
to 2x apart within half a minute, with nothing else running in the
machine: a run that falls in a slow phase reads 30-40 % slower than one
that does not.  The run therefore times a kernel before and after every
op and reports op times in units of it (the ``*_rel_*`` metrics), which
cancels most of that swing.  The kernels touch no svls code, so a change
to the program moves the op time and not the unit.

A kernel tracks an op only when it does the same kind of work: a kernel
of interpreter work made the spread of ``large_svls`` worse, and one of
large-array work cut it from 0.13 to 0.02.  So each workload names its
kind in the ``calibration`` attribute of its class in ``workloads.py``:

- ``interp``: dicts, strings, small SVDs and float formatting, as in the
  thousands of tiny sweep trials;
- ``solver``: 30 x 30 SVDs, a 480 x 900 operator product and small
  least-squares solves, as in the SVP and ALS iterations;
- ``text``: 17-digit CSV written to and read back from a file, as in
  ``svls.matio``;
- ``dense``: a fresh 2000 x 2000 rank-10 product, a subtraction and a
  norm, as in the large dense recovery.

Each takes about 30-60 ms, ``solver`` about 100 ms.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

import numpy as np


class Calibration:
    """``calibration()`` runs the kernel of one kind once and returns its
    seconds."""

    def __init__(self, kind: str, work: Path) -> None:
        self.kernel = KERNELS[kind](work)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = self.kernel()
        seconds = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise RuntimeError("calibration kernel produced a non-finite sum")
        return seconds


def _interp(work: Path) -> Callable[[], float]:
    rng = np.random.default_rng(0)
    small = rng.standard_normal((40, 40))
    square = rng.standard_normal((300, 300))
    product = np.empty_like(square)
    vector = rng.standard_normal(1_000_000)
    buffer = np.empty_like(vector)

    def kernel() -> float:
        acc = 0.0
        names = {}
        for i in range(2000):
            acc += (i * 7919) % 13
            names[i % 97] = str(acc)
            if i % 25 == 0:
                acc += float(np.linalg.svd(small)[1][0])
                text = ",".join(f"{v:.17g}" for v in small[i % 40])
                acc += sum(float(v) for v in text.split(","))
        # Preallocated outputs: temporaries of this size moved the
        # process's peak RSS by up to 10 MB from run to run.
        for _ in range(3):
            acc += float(np.matmul(square, square, out=product)[0, 0])
            np.multiply(vector, vector, out=buffer)
            np.add(buffer, vector, out=buffer)
            acc += float(buffer.sum())
        return acc

    return kernel


def _text(work: Path) -> Callable[[], float]:
    table = np.random.default_rng(0).standard_normal((128, 128))
    work.mkdir(parents=True, exist_ok=True)
    path = work / "calibration.csv"

    def kernel() -> float:
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in table)
        path.write_text(text + "\n")
        back = np.array([[float(v) for v in line.split(",")]
                         for line in path.read_text().splitlines()])
        return float(np.abs(back - table).sum())

    return kernel


def _solver(work: Path) -> Callable[[], float]:
    rng = np.random.default_rng(0)
    small = rng.standard_normal((30, 30))
    operator = rng.standard_normal((480, 900))
    vector = rng.standard_normal(900)
    design = rng.standard_normal((240, 60))
    rhs = rng.standard_normal(240)

    def kernel() -> float:
        acc = 0.0
        for i in range(150):
            acc += float(np.linalg.svd(small + i * 1e-3)[1][0])
            acc += float((operator @ vector)[0])
            if i % 5 == 0:
                acc += float(np.linalg.lstsq(design, rhs, rcond=None)[0][0])
        return acc

    return kernel


def _dense(work: Path) -> Callable[[], float]:
    def kernel() -> float:
        rng = np.random.default_rng(1)
        left = rng.standard_normal((2000, 10))
        x = left @ rng.standard_normal((10, 2000))
        y = x - 0.5 * x
        return float(np.linalg.norm(y)) + float((left.T @ y).sum())

    return kernel


KERNELS = {"interp": _interp, "solver": _solver, "text": _text, "dense": _dense}
