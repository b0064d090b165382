import tracemalloc

import numpy as np
import pytest

from brute import (
    combine,
    convergence_loop,
    gram_loop,
    pinv_table,
    quadrature_covariance,
    scalar_values,
    simulate_path,
    structural_function,
    window_indices,
)
from conftest import constant_density, matrix_ma_density, rational_density
from gmi.classical import FunctionalSpec, Problem, solve_interpolation
from gmi.errors import NumericalError
from gmi.increments import GMIncrementSpec
from gmi.oracle import (
    ObservationWindow,
    convergence_table,
    gram_covariances,
    projection_mse,
)
from gmi.spectra import DensityGrid, _chi_beta

SPEC11 = GMIncrementSpec((1,), (1,), (1,))
SPEC21 = GMIncrementSpec((2,), (1,), (1,))


def problem_of_dim(grid, T):
    """(f, g, fspec) with a T x T signal density and a block of N = 1."""
    if T == 1:
        f = rational_density(grid, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid, 0.5)
    else:
        f = matrix_ma_density(grid, [[[2.0, 0.3], [0.1, 1.8]], [[0.4, 0.0], [0.2, 0.3]]])
        g = constant_density(grid, [[0.4, 0.1], [0.1, 0.5]])
    a = np.random.default_rng(T).standard_normal((2, T))
    return f, g, FunctionalSpec(N=1, a=a)


@pytest.fixture(scope="module")
def scalar_fixture(grid2k):
    f = rational_density(grid2k, [1.0, 0.4], [1.0, -0.5])
    g = constant_density(grid2k, 0.5)
    fs = FunctionalSpec(N=1, a=np.array([[1.0], [0.7]]))
    return f, g, fs


class TestWindow:
    def test_indices(self):
        idx = window_indices(ObservationWindow(3), N=1, n_gamma=1)
        assert idx.tolist() == [-3, -2, -1, 3, 4, 5]

    def test_disjoint_from_block(self):
        idx = window_indices(ObservationWindow(5), N=2, n_gamma=2)
        assert not set(idx) & set(range(0, 5))

    def test_gap_order(self):
        idx = ObservationWindow(3).gap_order(N=1, n_gamma=1)
        assert idx.tolist() == [-1, 3, -2, 4, -3, 5]


def gap_permutation(natural: np.ndarray, gap: np.ndarray, dim: int) -> np.ndarray:
    """Row permutation taking a naturally ordered Gram into the order ``gap``."""
    pos = np.array([natural.tolist().index(k) for k in gap], dtype=int)
    return (pos[:, None] * dim + np.arange(dim)).reshape(-1)


class TestGram:
    def test_diagonal_matches_structural_function(self, grid2k, scalar_fixture):
        f, g, fs = scalar_fixture
        gs = gram_covariances(Problem(SPEC11, fs, f.grid), f, g, ObservationWindow(4))
        p = combine(f, g, SPEC11)
        expected = structural_function(SPEC11, p, 0)[0, 0]
        for i in range(len(gs.indices)):
            assert gs.gram[i, i] == pytest.approx(expected, abs=1e-10)

    def test_zero_noise_cross_is_pure_signal_integral(self, grid2k):
        f = rational_density(grid2k, [1.0, 0.4], [1.0, -0.5])
        g = DensityGrid.zero(grid2k, 1)
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        gs = gram_covariances(Problem(SPEC11, fs, f.grid), f, g, ObservationWindow(3))
        # direct: E[H conj(w(j))] with H = chi zeta(0) and only the f part alive
        lam = grid2k.nodes
        chi, beta = _chi_beta((1,), (1,), (1,), lam)
        weight = np.abs(chi) ** 2 / np.abs(beta) ** 2 * scalar_values(f)
        for pos, j in enumerate(gs.indices):
            direct = np.mean(weight * np.exp(-1j * j * lam))
            assert gs.cross[pos] == pytest.approx(np.conj(direct), abs=1e-12)

    @pytest.mark.parametrize("L", [0, 1, 7])
    @pytest.mark.parametrize("T", [1, 2])
    def test_matches_loop(self, grid1k, T, L):
        f, g, fs = problem_of_dim(grid1k, T)
        window = ObservationWindow(L)
        gs = gram_covariances(Problem(SPEC21, fs, f.grid), f, g, window)
        loop = gram_loop(SPEC21, f, g, fs, window)
        # the covariances of a real sequence are real: the loop's imaginary parts are rounding
        assert np.max(np.abs(loop.imag), initial=0.0) <= \
            1e-15 * np.max(np.abs(loop), initial=0.0)
        natural = window_indices(window, fs.N, SPEC21.n_gamma())
        perm = gap_permutation(natural, gs.indices, T)
        assert np.array_equal(gs.gram, loop.real[np.ix_(perm, perm)])

    @pytest.mark.parametrize("T", [1, 2])
    def test_real_symmetric_in_gap_order(self, grid1k, T):
        f, g, fs = problem_of_dim(grid1k, T)
        window = ObservationWindow(9)
        gs = gram_covariances(Problem(SPEC21, fs, f.grid), f, g, window)
        assert gs.gram.dtype == np.float64 and gs.cross.dtype == np.float64
        assert np.array_equal(gs.gram, gs.gram.T)
        assert np.array_equal(gs.indices, window.gap_order(fs.N, SPEC21.n_gamma()))

    def test_symbols_are_sampled_once(self, grid1k, monkeypatch):
        import gmi.classical
        import gmi.spectra

        calls = []
        original = gmi.spectra._chi_beta

        def counted(*args):
            calls.append(1)
            return original(*args)

        for module in (gmi.spectra, gmi.classical):
            monkeypatch.setattr(module, "_chi_beta", counted)
        f, g, fs = problem_of_dim(grid1k, 2)
        gram_covariances(Problem(SPEC21, fs, f.grid), f, g, ObservationWindow(5))
        assert len(calls) == 1

    def test_ma_one_gram_is_tridiagonal(self, grid2k):
        c = 0.8
        _, beta = _chi_beta((1,), (1,), (1,), grid2k.nodes)
        f = DensityGrid.from_scalar_samples(grid2k, c * np.abs(beta) ** 2)
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        gs = gram_covariances(Problem(SPEC11, fs, f.grid), f, DensityGrid.zero(grid2k, 1),
                              ObservationWindow(3))
        idx = gs.indices
        for i, ki in enumerate(idx):
            for j, kj in enumerate(idx):
                lag = abs(ki - kj)
                expected = 2 * c if lag == 0 else (-c if lag == 1 else 0.0)
                assert gs.gram[i, j].real == pytest.approx(expected, abs=1e-9)


class TestProjection:
    def test_empty_window_returns_target_variance(self, grid2k, scalar_fixture):
        f, g, fs = scalar_fixture
        gs = gram_covariances(Problem(SPEC11, fs, f.grid), f, g, ObservationWindow(0))
        assert projection_mse(gs) == pytest.approx(gs.target_var)

    @pytest.mark.parametrize("T", [1, 2])
    def test_matches_pinv(self, grid1k, T):
        f, g, fs = problem_of_dim(grid1k, T)
        gs = gram_covariances(Problem(SPEC21, fs, f.grid), f, g, ObservationWindow(30))
        pinv = np.linalg.pinv(gs.gram, 1e-10, hermitian=True)
        expected = gs.target_var - np.vdot(gs.cross, pinv @ gs.cross).real
        assert projection_mse(gs) == pytest.approx(expected, rel=1e-12)

    def test_negative_density_node_is_not_psd(self, grid2k, scalar_fixture):
        f, g, fs = scalar_fixture
        values = f.values.copy()
        values[700] = -200.0
        bad = DensityGrid(grid2k, values, validate=False)
        with pytest.raises(NumericalError, match="not PSD"):
            convergence_table(SPEC11, bad, g, fs, schedule=(1, 50))

    def test_monotone_in_window(self, grid2k, scalar_fixture):
        f, g, fs = scalar_fixture
        rows = convergence_table(SPEC11, f, g, fs, schedule=(1, 2, 5, 10, 50, 100, 200))
        deltas = [d for _, d in rows]
        for a, b in zip(deltas, deltas[1:]):
            assert b <= a + 1e-10

    def test_bounds_and_convergence(self, grid2k, scalar_fixture):
        f, g, fs = scalar_fixture
        sol = solve_interpolation(SPEC11, f, g, fs)
        rows = convergence_table(SPEC11, f, g, fs)
        for _, dL in rows:
            assert dL >= sol.delta - 1e-6
        final = rows[-1][1]
        assert abs(final - sol.delta) / sol.delta <= 0.02


def counted_projections(monkeypatch) -> list:
    """Patch gmi.oracle.projection_mse to record one entry per call."""
    import gmi.oracle

    calls = []
    original = gmi.oracle.projection_mse

    def counted(gs):
        calls.append(1)
        return original(gs)

    monkeypatch.setattr(gmi.oracle, "projection_mse", counted)
    return calls


def rank_one_problem(grid):
    """T = 2 constant signal density [[1, 1], [1, 1]] with zero noise."""
    f = constant_density(grid, [[1.0, 1.0], [1.0, 1.0]])
    a = np.random.default_rng(5).standard_normal((2, 2))
    return f, DensityGrid.zero(grid, 2), FunctionalSpec(N=1, a=a)


class TestNestedRoute:
    @pytest.mark.parametrize("case", ["T1", "T2", "rank_one", "aliased"])
    def test_matches_complex_pinv(self, grid1k, case):
        if case == "rank_one":
            (f, g, fs), schedule = rank_one_problem(grid1k), (0, 1, 5, 20)
        elif case == "aliased":
            (f, g, fs), schedule = problem_of_dim(grid1k, 1), (1, 600)
        else:
            (f, g, fs), schedule = problem_of_dim(grid1k, int(case[1])), (0, 1, 3, 10, 40)
        certified = case in ("T1", "T2")
        gs = gram_covariances(Problem(SPEC21, fs, f.grid), f, g, ObservationWindow(max(schedule)))
        assert (gs.eig_floor is not None) == certified
        rows = convergence_table(SPEC21, f, g, fs, schedule)
        expected = pinv_table(SPEC21, f, g, fs, schedule)
        assert [L for L, _ in rows] == list(schedule)
        for (_, got), (_, want) in zip(rows, expected):
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("T", [1, 2])
    def test_matches_window_loop(self, grid1k, T):
        f, g, fs = problem_of_dim(grid1k, T)
        schedule = (0, 1, 3, 10, 40)
        gs = gram_covariances(Problem(SPEC21, fs, f.grid), f, g, ObservationWindow(40))
        assert gs.eig_floor is not None
        rows = convergence_table(SPEC21, f, g, fs, schedule)
        expected = convergence_loop(SPEC21, f, g, fs, schedule)
        assert [L for L, _ in rows] == list(schedule)
        for (_, got), (_, want) in zip(rows, expected):
            assert got == pytest.approx(want, rel=1e-12)

    def test_gram_is_the_leading_block_of_the_bordered_buffer(self, grid1k):
        f, g, fs = problem_of_dim(grid1k, 2)
        gs = gram_covariances(Problem(SPEC21, fs, f.grid), f, g, ObservationWindow(40))
        size = len(gs.cross)
        assert gs.bordered.shape == (size + 1, size + 1)
        assert np.shares_memory(gs.gram, gs.bordered)
        assert np.array_equal(gs.gram, gs.bordered[:size, :size])

    def test_table_peak_is_two_bordered_grams(self, grid1k):
        # the bordered Gram and its Cholesky factor; no third copy of the Gram
        f, g, fs = problem_of_dim(grid1k, 2)
        schedule = (1, 200)
        convergence_table(SPEC21, f, g, fs, schedule)
        tracemalloc.start()
        try:
            convergence_table(SPEC21, f, g, fs, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = 2 * max(schedule) * 2 + 1
        assert peak < 2.25 * rows * rows * 8

    @pytest.mark.parametrize("T", [1, 2])
    def test_floor_bounds_gram_spectrum(self, grid1k, T):
        f, g, fs = problem_of_dim(grid1k, T)
        gs = gram_covariances(Problem(SPEC21, fs, f.grid), f, g, ObservationWindow(40))
        assert np.linalg.eigvalsh(gs.gram)[0] >= gs.eig_floor * (1 - 1e-10)

    def test_certified_problem_skips_projection(self, grid1k, monkeypatch):
        f, g, fs = problem_of_dim(grid1k, 2)
        calls = counted_projections(monkeypatch)
        convergence_table(SPEC21, f, g, fs, schedule=(1, 5, 20))
        assert len(calls) == 0

    @pytest.mark.parametrize("case", ["rank_one", "aliased"])
    def test_uncertified_problem_projects_each_window(self, grid1k, monkeypatch, case):
        if case == "rank_one":
            (f, g, fs), schedule = rank_one_problem(grid1k), (0, 1, 5, 20)
        else:
            # the largest window spans more than the 1024 grid nodes
            (f, g, fs), schedule = problem_of_dim(grid1k, 1), (1, 600)
        gs = gram_covariances(Problem(SPEC21, fs, f.grid), f, g, ObservationWindow(max(schedule)))
        assert gs.eig_floor is None
        expected = convergence_loop(SPEC21, f, g, fs, schedule)
        calls = counted_projections(monkeypatch)
        rows = convergence_table(SPEC21, f, g, fs, schedule)
        assert len(calls) == len(schedule)
        for (L, got), (L_ref, want) in zip(rows, expected):
            assert L == L_ref
            assert got == pytest.approx(want, rel=1e-12)


class TestSimulate:
    def test_deterministic_per_seed(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        a = simulate_path(SPEC11, f, g, length=8, seed=42)
        b = simulate_path(SPEC11, f, g, length=8, seed=42)
        c = simulate_path(SPEC11, f, g, length=8, seed=43)
        assert np.array_equal(a.increments, b.increments)
        assert np.array_equal(a.noise, b.noise)
        assert not np.array_equal(a.increments, c.increments)

    def test_moment_checks(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        n_samples = 10_000
        path = simulate_path(SPEC11, f, g, length=4, seed=7, n_samples=n_samples)
        x0 = path.increments[0, 0, :]
        var0 = quadrature_covariance(SPEC11, f, g, 0)[0, 0].real
        assert abs(np.mean(x0)) <= 4 * np.sqrt(var0 / n_samples)
        emp = np.mean(x0 * x0)
        se = np.std(x0 * x0) / np.sqrt(n_samples)
        assert abs(emp - var0) <= 5 * se

    def test_lag_one_covariance(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        n_samples = 10_000
        path = simulate_path(SPEC11, f, g, length=4, seed=11, n_samples=n_samples)
        x0 = path.increments[0, 0, :]
        x1 = path.increments[1, 0, :]
        cov_ref = quadrature_covariance(SPEC11, f, g, 1)[0, 0].real
        emp = np.mean(x0 * x1)
        se = np.std(x0 * x1) / np.sqrt(n_samples)
        assert abs(emp - cov_ref) <= 5 * se

    def test_length_cap(self, grid1k):
        f = constant_density(grid1k, 1.0)
        g = DensityGrid.zero(grid1k, 1)
        with pytest.raises(Exception):
            simulate_path(SPEC11, f, g, length=grid1k.n_grid // 2, seed=0)
