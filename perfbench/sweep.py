#!/usr/bin/env python3
"""Scaling sweep of the classical solve; informative only, no bound applies.

    python3 perfbench/sweep.py

Three one-factor sweeps of ``solve_interpolation`` with the seasonal operator
s = 12: grid 2^12 .. 2^18 at N = 100, N in {10, 100, 400} at grid 2^14, and
dimension T in {1, 2, 4} at grid 2^14 and N = 25.  Each point is one traced
solve; the table gives its wall time and the self time of the row-polynomial
evaluation and of the linear solve (which holds the condition number).
The 2^18 point holds an n x K complex phase matrix of about 0.5 GB.
"""

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREADS = "1"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from gmi import classical  # noqa: E402
from gmi.classical import FunctionalSpec  # noqa: E402
from gmi.increments import GMIncrementSpec  # noqa: E402
from gmi.spectra import DensityGrid, DensityModel, FrequencyGrid  # noqa: E402


def point(n_grid: int, N: int, T: int) -> tuple:
    rng = np.random.default_rng(0)
    grid = FrequencyGrid(n_grid)
    h0 = 0.3 * rng.standard_normal((T, T)) + 2.0 * np.eye(T)
    h1 = 0.3 * rng.standard_normal((T, T))
    f = DensityModel("matrix_ma", {"coefficients": [h0.tolist(), h1.tolist()]}).evaluate(grid)
    g = DensityGrid.constant(grid, 0.5 * np.eye(T))
    fspec = FunctionalSpec(N=N, a=rng.standard_normal((N + 1, T)))
    spec = GMIncrementSpec(s=(12,), mu=(1,), d=(1,))
    tracer = spans.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        classical.solve_interpolation(spec, f, g, fspec)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    layers = spans.self_times(tracer.spans)
    return (wall, layers.get("classical.row_polynomial", [0, 0.0])[1],
            layers.get("classical.solve_system", [0, 0.0])[1])


def main() -> None:
    plan = ([(2 ** k, 100, 1) for k in range(12, 19)]
            + [(2 ** 14, N, 1) for N in (10, 100, 400)]
            + [(2 ** 14, 25, T) for T in (1, 2, 4)])
    print(f"threads={THREADS} numpy={np.__version__}")
    print("| grid | N | T | solve s | row polynomial s | solve_system s |")
    print("|---|---|---|---|---|---|")
    for n_grid, N, T in plan:
        wall, rows, system = point(n_grid, N, T)
        print(f"| 2^{n_grid.bit_length() - 1} | {N} | {T} | {wall:.3f} | {rows:.3f} | {system:.4f} |",
              flush=True)


if __name__ == "__main__":
    main()
