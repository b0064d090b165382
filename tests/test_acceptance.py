"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is asserted, not just reported.
"""

import time

import numpy as np
import pytest

from brute import two_atom_search
from conftest import constant_density, matrix_ma_density, pchi_one_density, rational_density
from gmi.classical import (
    FunctionalSpec,
    PeriodicFunctionalSpec,
    Problem,
    fourier_blocks,
    lift_periodic,
    padded_b,
    solve_interpolation,
    solve_system,
    transform_b,
    coeffs_a_mu,
)
from gmi.increments import (
    FMIncrementSpec,
    GMIncrementSpec,
    SeasonalFactor,
    classify_stationarity,
    expand_operator,
    frequency_set,
    gegenbauer,
    gm_series,
    inverse_series,
)
from gmi.minimax import (
    DensityClassSpec,
    FClassSpec,
    GClassSpec,
    MinimaxOptions,
    solve_minimax,
)
from gmi.oracle import convergence_table
from gmi.spectra import DensityGrid, DensityModel, FrequencyGrid


def report(n, detail):
    print(f"[acceptance] criterion {n}: PASS - {detail}")


def random_gm_spec(rng):
    r = int(rng.integers(1, 4))
    s = tuple(int(x) for x in rng.integers(1, 13, size=r))
    mu = tuple(int(x) for x in rng.integers(1, 5, size=r))
    d = tuple(int(x) for x in rng.integers(0, 4, size=r))
    if all(x == 0 for x in d):
        d = d[:-1] + (1,)
    return GMIncrementSpec(s=s, mu=mu, d=d)


def test_criterion_1_coefficient_identities():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    for _ in range(50):
        spec = random_gm_spec(rng)
        e = expand_operator(spec)
        d_mu = inverse_series(spec, 64)
        for k in range(65):
            acc = sum(e[l] * d_mu[k - l] for l in range(min(k, len(e) - 1) + 1))
            assert acc == (1 if k == 0 else 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"50 random specs, exact identity on 0..64 in {elapsed:.2f}s")


EXAMPLE_OPERATORS = [
    FMIncrementSpec(R0=0, D0=0.40, factors=(SeasonalFactor(2, 0, 0.45),)),
    FMIncrementSpec(R0=0, D0=0.0,
                    factors=(SeasonalFactor(2, 0, 0.45), SeasonalFactor(3, 0, 0.40))),
    FMIncrementSpec(R0=0, D0=0.0,
                    factors=(SeasonalFactor(2, 0, 0.45), SeasonalFactor(4, 0, 0.45))),
]


def test_criterion_2_gegenbauer_identity():
    for spec in EXAMPLE_OPERATORS:
        fset = frequency_set(spec)
        assert max(abs(e.d_tilde) for e in fset.entries) <= 0.45
        plus = gm_series(fset, "plus", 512)
        minus = gm_series(fset, "minus", 512)
        conv = np.convolve(plus, minus)[:513]
        assert abs(conv[0] - 1.0) <= 1e-6
        assert np.max(np.abs(conv[1:])) <= 1e-6
    worst = 0.0
    z = 0.3
    for d in (-0.45, -0.2, 0.2, 0.45):
        for u in (-0.9, -0.5, 0.0, 0.5, 0.9):
            partial = sum(gegenbauer(d, u, n) * z ** n for n in range(61))
            worst = max(worst, abs(partial - (1 - 2 * u * z + z * z) ** (-d)))
    assert worst <= 1e-8
    report(2, f"series inverse residual <= 1e-6 at truncation 512; "
              f"generating-function error {worst:.1e}")


def test_criterion_3_classifier_verbatim():
    specs = [
        FMIncrementSpec(R0=1, D0=0.1, factors=(SeasonalFactor(2, 1, 0.1),)),
        FMIncrementSpec(R0=0, D0=0.0,
                        factors=(SeasonalFactor(2, 1, 0.1), SeasonalFactor(3, 0, 0.1))),
        FMIncrementSpec(R0=0, D0=0.0,
                        factors=(SeasonalFactor(2, 1, 0.1), SeasonalFactor(4, 0, 0.1))),
    ]
    expected = [
        ("|D0+D1| < 1/2", "|D1| < 1/2"),
        ("|D1+D2| < 1/2", "|D2| < 1/2", "|D1| < 1/2"),
        ("|D1+D2| < 1/2", "|D2| < 1/2"),
    ]
    for spec, conds in zip(specs, expected):
        rep = classify_stationarity(spec)
        assert set(rep.conditions) == set(conds)
        assert len(rep.conditions) == len(conds)
    report(3, "all three seasonal-operator condition sets reproduced verbatim")


def test_criterion_4_closed_form_collapse():
    start = time.perf_counter()
    grid = FrequencyGrid(2 ** 12)
    specs = [
        GMIncrementSpec((1,), (1,), (1,)),
        GMIncrementSpec((2,), (1,), (2,)),
        GMIncrementSpec((2, 3), (1, 1), (1, 1)),
    ]
    rng = np.random.default_rng(99)
    for spec in specs:
        f = pchi_one_density(spec, grid)
        g = DensityGrid.zero(grid, 1)
        ng = spec.n_gamma()
        for N in (0, 1, 3):
            fspec = FunctionalSpec(N=N, a=rng.standard_normal((N + 1, 1)))
            blocks = fourier_blocks(Problem(spec, fspec, grid), f, g)
            size = N + ng + 1
            assert np.max(np.abs(blocks.P - np.eye(size))) <= 1e-8
            b = transform_b(spec, fspec)
            sol = solve_system(blocks, b, coeffs_a_mu(spec, fspec))
            assert np.max(np.abs(sol.c.reshape(-1) - padded_b(b, ng))) <= 1e-8
            full = solve_interpolation(spec, f, g, fspec)
            assert abs(full.delta - float(np.sum(b ** 2))) <= 1e-8 * max(1.0, np.sum(b ** 2))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"P=I, c=[Da]+, delta=||Da||^2 for 3 specs x N in (0,1,3) in {elapsed:.1f}s")


def _random_scalar_fixture(rng, grid):
    spec = [GMIncrementSpec((1,), (1,), (1,)),
            GMIncrementSpec((1,), (1,), (2,)),
            GMIncrementSpec((2,), (1,), (1,)),
            GMIncrementSpec((2, 3), (1, 1), (1, 1))][int(rng.integers(0, 4))]
    f = rational_density(grid, [1.0, float(rng.uniform(-0.6, 0.6))],
                         [1.0, float(rng.uniform(-0.6, 0.6))],
                         scale=float(rng.uniform(0.5, 2.0)))
    g = constant_density(grid, float(rng.uniform(0.1, 1.0)))
    N = int(rng.integers(0, 3))
    fspec = FunctionalSpec(N=N, a=rng.standard_normal((N + 1, 1)))
    return spec, f, g, fspec


def _random_matrix_fixture(rng, grid):
    spec = GMIncrementSpec((1,), (1,), (1,)) if rng.integers(0, 2) == 0 \
        else GMIncrementSpec((2,), (1,), (1,))
    a0 = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    a1 = 0.5 * rng.standard_normal((2, 2))
    f = matrix_ma_density(grid, [a0, a1])
    gmat = rng.standard_normal((2, 2))
    g = constant_density(grid, 0.2 * gmat @ gmat.T + 0.3 * np.eye(2))
    N = int(rng.integers(0, 3))
    fspec = FunctionalSpec(N=N, a=rng.standard_normal((N + 1, 2)))
    return spec, f, g, fspec


def test_criterion_5_dual_route_mse():
    grid = FrequencyGrid(2 ** 14)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        if i < 10:
            spec, f, g, fspec = _random_scalar_fixture(rng, grid)
        else:
            spec, f, g, fspec = _random_matrix_fixture(rng, grid)
        sol = solve_interpolation(spec, f, g, fspec)
        rel = abs(sol.delta - sol.delta_spectral) / max(abs(sol.delta), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-6
    report(5, f"20 fixtures at grid 2^14, worst relative route disagreement {worst:.1e}")


ORACLE_FIXTURES = [
    ("AR signal",
     GMIncrementSpec((1,), (1,), (1,)), ([1.0], [1.0, -0.5], 1.0), 0.5),
    ("MA signal",
     GMIncrementSpec((1,), (1,), (1,)), ([1.0, 0.4], [1.0], 1.0), 1.0),
    ("ARMA signal, d=2",
     GMIncrementSpec((1,), (1,), (2,)), ([1.0, 0.3], [1.0, -0.4], 1.0), 0.2),
    ("seasonal s=2",
     GMIncrementSpec((2,), (1,), (1,)), ([1.0], [1.0, -0.5], 1.0), 0.5),
    ("constant signal, d=2, no noise",
     GMIncrementSpec((1,), (1,), (2,)), ([1.0], [1.0], 1.5), 0.0),
]


def test_criterion_6_oracle_convergence():
    grid = FrequencyGrid(2 ** 13)
    fspec = FunctionalSpec(N=1, a=np.array([[1.0], [0.7]]))
    for label, spec, (num, den, scale), g_level in ORACLE_FIXTURES:
        start = time.perf_counter()
        f = rational_density(grid, num, den, scale)
        g = constant_density(grid, g_level) if g_level else DensityGrid.zero(grid, 1)
        sol = solve_interpolation(spec, f, g, fspec)
        rows = convergence_table(spec, f, g, fspec)
        deltas = [d for _, d in rows]
        for a, b in zip(deltas, deltas[1:]):
            assert b <= a + 1e-10, label
        for d in deltas:
            assert d >= sol.delta - 1e-6, label
        gap = abs(deltas[-1] - sol.delta) / sol.delta
        assert gap <= 0.02, (label, gap)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, label
    report(6, "5 fixtures: monotone window error, lower-bounded, L=200 gap <= 2%")


def test_criterion_7_periodic_lifting():
    grid = FrequencyGrid(2 ** 12)
    spec = GMIncrementSpec((1,), (1,), (1,))
    rng = np.random.default_rng(31)
    for T in (2, 3):
        for M in (3, 5, 8, 11):
            a_scalar = rng.standard_normal(M + 1)
            lifted = lift_periodic(PeriodicFunctionalSpec(M=M, T=T, a_scalar=a_scalar))
            N = M // T
            a = np.zeros((N + 1, T))
            for k in range(M + 1):
                a[k // T, k % T] = a_scalar[k]
            direct = FunctionalSpec(N=N, a=a)
            h0 = rng.standard_normal((T, T)) + 2.0 * np.eye(T)
            f = matrix_ma_density(grid, [h0, 0.4 * rng.standard_normal((T, T))])
            gmat = rng.standard_normal((T, T))
            g = constant_density(grid, 0.2 * gmat @ gmat.T + 0.2 * np.eye(T))
            dl = solve_interpolation(spec, f, g, lifted).delta
            dd = solve_interpolation(spec, f, g, direct).delta
            assert abs(dl - dd) <= 1e-10 * max(1.0, abs(dd))
    report(7, "scalar periodic problems (T=2,3; M<=11) match hand-blocked solves to 1e-10")


def test_criterion_8_minimax_scalar_suite():
    grid = FrequencyGrid(2 ** 12)
    spec = GMIncrementSpec((1,), (1,), (1,))
    fspec = FunctionalSpec(N=0, a=np.array([[1.0]]))

    # budget class with no noise: analytic least favorable value = p |a0|^2
    start = time.perf_counter()
    budget = 1.5
    cls_a = DensityClassSpec(FClassSpec("D0_2", {"p": budget}), GClassSpec("zero"))
    res_a = solve_minimax(cls_a, fspec, spec, grid,
                          MinimaxOptions(saddle_samples=100, seed=3))
    assert res_a.converged
    assert abs(res_a.delta0 - budget) <= 1e-3
    brute_a = two_atom_search(cls_a, fspec, spec, grid, n_positions=32)
    assert abs(res_a.delta0 - brute_a["delta"]) <= 1e-3
    assert res_a.saddle_report["max_violation"] <= 1e-6 * res_a.delta0
    assert res_a.saddle_report["left_min_margin"] >= -1e-10
    assert res_a.residual_report["f"]["budget_residual"] <= 1e-8
    elapsed_a = time.perf_counter() - start
    assert elapsed_a < 300.0

    # perturbation-ball signal class against a banded-noise class
    start = time.perf_counter()
    f1 = rational_density(grid, [1.0], [1.0, -0.4])
    cls_c = DensityClassSpec(
        FClassSpec("D1delta_2", {"f1": f1, "delta_k": [0.1]}),
        GClassSpec("DVU_2", {"V": constant_density(grid, 0.2),
                             "U": constant_density(grid, 0.6), "q": 0.35}),
    )
    res_c = solve_minimax(cls_c, fspec, spec, grid,
                          MinimaxOptions(saddle_samples=100, seed=11))
    assert res_c.converged
    deltas = [t["delta"] for t in res_c.trace]
    assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
    # two-sided bracket: brute-force lower bound and concavity-gap upper bound
    brute_c = two_atom_search(cls_c, fspec, spec, grid, n_positions=48, rounds=2)
    assert brute_c["delta"] <= res_c.delta0 + 1e-3
    assert res_c.residual_report["ascent_gap"] <= 1e-3
    assert res_c.saddle_report["max_violation"] <= 1e-6 * res_c.delta0
    assert res_c.residual_report["f"]["budget_residual"] <= 1e-8
    assert res_c.residual_report["g"]["budget_residual"] <= 1e-8
    elapsed_c = time.perf_counter() - start
    assert elapsed_c < 300.0
    report(8, f"budget fixture delta0={res_a.delta0:.6f} (analytic 1.5), "
              f"ball-box fixture delta0={res_c.delta0:.6f} "
              f"(certificate gap {res_c.residual_report['ascent_gap']:.1e}); "
              f"runtimes {elapsed_a:.0f}s / {elapsed_c:.0f}s")


def _fixture_deltas(n_grid):
    grid = FrequencyGrid(n_grid)
    rng = np.random.default_rng(77)
    deltas_bounded = []
    fspec = FunctionalSpec(N=1, a=np.array([[1.0], [0.7]]))
    for label, spec, (num, den, scale), g_level in ORACLE_FIXTURES:
        f = rational_density(grid, num, den, scale)
        g = constant_density(grid, g_level) if g_level else DensityGrid.zero(grid, 1)
        deltas_bounded.append(solve_interpolation(spec, f, g, fspec).delta)
    a0 = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    f = matrix_ma_density(grid, [a0, 0.5 * rng.standard_normal((2, 2))])
    gmat = rng.standard_normal((2, 2))
    g = constant_density(grid, 0.2 * gmat @ gmat.T + 0.3 * np.eye(2))
    deltas_bounded.append(
        solve_interpolation(GMIncrementSpec((1,), (1,), (1,)), f, g,
                            FunctionalSpec(N=1, a=rng.standard_normal((2, 2)))).delta)

    deltas_lm = []
    lm_fixtures = [
        (FMIncrementSpec(R0=1, D0=0.2, factors=(SeasonalFactor(2, 0, 0.2),)),
         GMIncrementSpec((1,), (1,), (1,))),
        (FMIncrementSpec(R0=1, D0=0.15,
                         factors=(SeasonalFactor(2, 1, 0.2), SeasonalFactor(3, 0, 0.1))),
         GMIncrementSpec((1, 2), (1, 1), (1, 1))),
    ]
    for fm_spec, gm_spec in lm_fixtures:
        assert max(abs(e.d_tilde) for e in frequency_set(fm_spec).entries) <= 0.3
        f = DensityModel("fm", {"spec": fm_spec,
                                "base": DensityModel("constant", {"matrix": [[1.0]]})}
                         ).evaluate(grid)
        g = constant_density(grid, 0.3)
        deltas_lm.append(solve_interpolation(gm_spec, f, g, fspec).delta)
    return deltas_bounded, deltas_lm


def test_criterion_9_quadrature_stability():
    coarse_b, coarse_lm = _fixture_deltas(2 ** 13)
    fine_b, fine_lm = _fixture_deltas(2 ** 14)
    worst_b = max(abs(a - b) / abs(b) for a, b in zip(coarse_b, fine_b))
    worst_lm = max(abs(a - b) / abs(b) for a, b in zip(coarse_lm, fine_lm))
    assert worst_b < 0.005
    assert worst_lm < 0.02
    report(9, f"grid doubling 2^13 -> 2^14: bounded fixtures {worst_b:.2e} (< 0.5%), "
              f"long-memory fixtures {worst_lm:.2e} (< 2%)")
