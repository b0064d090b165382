import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    characteristic_split,
    coeffs_a_mu_loop,
    fourier_blocks_loop,
    scalar_values,
    transform_b_loop,
    v_coeffs_loop,
)
from conftest import (
    bits,
    constant_density,
    count_calls,
    ma_pair,
    matrix_ma_density,
    pchi_one_density,
    rational_density,
)
from gmi import classical, spectra
from gmi.classical import (
    FunctionalSpec,
    PeriodicFunctionalSpec,
    Problem,
    _algebraic_mse,
    _block_toeplitz,
    _characteristic,
    _nodewise,
    _row_polynomial,
    _solve,
    coeffs_a_mu,
    fourier_blocks,
    lift_periodic,
    mse_of_characteristic,
    padded_b,
    solve_interpolation,
    solve_system,
    spectral_characteristic,
    transform_b,
    v_coeffs,
)
from gmi.errors import NumericalError
from gmi.increments import GMIncrementSpec
from gmi.spectra import DensityGrid, FrequencyGrid, _chi_beta, _combine

SPEC11 = GMIncrementSpec((1,), (1,), (1,))


def blocks_of(spec, f, g, N):
    """The blocks of a problem with an N + 1 block of zero weights (weights do not enter)."""
    fs = FunctionalSpec(N=N, a=np.zeros((N + 1, f.dim)))
    return fourier_blocks(Problem(spec, fs, f.grid), f, g)


class TestLiftPeriodic:
    def test_padding_rule(self):
        p = PeriodicFunctionalSpec(M=4, T=2, a_scalar=[1.0, 2.0, 3.0, 4.0, 5.0])
        fs = lift_periodic(p)
        assert fs.N == 2
        assert fs.a.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]]

    def test_trivial_period(self):
        p = PeriodicFunctionalSpec(M=3, T=1, a_scalar=[1.0, 2.0, 3.0, 4.0])
        fs = lift_periodic(p)
        assert fs.N == 3
        assert fs.a.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_single_padded_block(self):
        p = PeriodicFunctionalSpec(M=2, T=4, a_scalar=[1.0, 2.0, 3.0])
        fs = lift_periodic(p)
        assert fs.N == 0
        assert fs.a.tolist() == [[1.0, 2.0, 3.0, 0.0]]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 12), st.integers(0, 10_000))
    def test_lift_preserves_weights(self, T, M, seed):
        rng = np.random.default_rng(seed)
        a_scalar = rng.standard_normal(M + 1)
        fs = lift_periodic(PeriodicFunctionalSpec(M=M, T=T, a_scalar=a_scalar))
        assert fs.N == M // T
        assert fs.a.shape == (fs.N + 1, T)
        flat = fs.a.ravel()
        assert np.allclose(flat[: M + 1], a_scalar)
        assert np.all(flat[M + 1:] == 0.0)


class TestWeightTransforms:
    def test_cumulative_sums_for_first_difference(self):
        fs = FunctionalSpec(N=2, a=np.array([[1.0], [2.0], [3.0]]))
        b = transform_b(SPEC11, fs)
        assert b.ravel().tolist() == [6.0, 5.0, 3.0]

    def test_order_two_weights(self):
        spec = GMIncrementSpec((1,), (1,), (2,))
        fs = FunctionalSpec(N=2, a=np.array([[1.0], [1.0], [1.0]]))
        b = transform_b(spec, fs)
        # b(k) = sum_{m>=k} (m-k+1) a(m)
        assert b.ravel().tolist() == [6.0, 3.0, 1.0]

    def test_single_point(self):
        spec = GMIncrementSpec((2, 3), (1, 2), (1, 1))
        fs = FunctionalSpec(N=0, a=np.array([[2.5]]))
        assert transform_b(spec, fs).ravel().tolist() == [2.5]

    def test_a_mu_hand_convolution(self):
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [2.0]]))
        out = coeffs_a_mu(SPEC11, fs)
        assert out.ravel().tolist() == [-1.0, -1.0, 2.0]

    def test_a_mu_zero_weights(self):
        fs = FunctionalSpec(N=1, a=np.zeros((2, 1)))
        assert np.all(coeffs_a_mu(SPEC11, fs) == 0)

    def test_a_mu_annihilates_constants(self):
        spec = GMIncrementSpec((2, 3), (1, 1), (1, 1))
        fs = FunctionalSpec(N=3, a=np.random.default_rng(0).standard_normal((4, 1)))
        out = coeffs_a_mu(spec, fs)
        assert abs(np.sum(out)) < 1e-12

    def test_v_first_difference(self):
        fs = FunctionalSpec(N=0, a=np.array([[1.5]]))
        b = transform_b(SPEC11, fs)
        v = v_coeffs(SPEC11, b)
        assert v.ravel().tolist() == [-1.5]

    def test_v_with_step_two(self):
        spec = GMIncrementSpec((1,), (2,), (1,))  # expansion [1, 0, -1]
        fs = FunctionalSpec(N=0, a=np.array([[1.5]]))
        v = v_coeffs(spec, transform_b(spec, fs))
        # rows are k = -1, -2
        assert v.ravel().tolist() == [0.0, -1.5]

    def test_v_zero_weights(self):
        fs = FunctionalSpec(N=2, a=np.zeros((3, 1)))
        v = v_coeffs(SPEC11, transform_b(SPEC11, fs))
        assert np.all(v == 0)

    @pytest.mark.parametrize("T", [1, 2])
    @pytest.mark.parametrize("N", [0, 1, 5, 100])
    @pytest.mark.parametrize("mu", [2, 3])
    def test_matches_loops(self, mu, N, T):
        spec = GMIncrementSpec((1, 12), (mu, mu), (2, 2))
        fs = FunctionalSpec(N=N, a=np.random.default_rng(N + 10 * T).standard_normal((N + 1, T)))
        b = transform_b_loop(spec, fs)
        pairs = [(transform_b(spec, fs), b),
                 (coeffs_a_mu(spec, fs), coeffs_a_mu_loop(spec, fs)),
                 (v_coeffs(spec, b), v_coeffs_loop(spec, b))]
        for new, ref in pairs:
            assert new.shape == ref.shape
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (3, 2, 2)]),
           st.integers(0, 4), st.integers(0, 10_000))
    def test_target_decomposition_identity(self, sml, N, seed):
        # sum_k b(k)^T (chi zeta)(k) = sum_k a(k)^T zeta(k) + sum_{k<0} v(k)^T zeta(k)
        # for arbitrary sequences zeta, which pins b and v jointly
        from gmi.increments import expand_operator

        s, mu, d = sml
        spec = GMIncrementSpec((s,), (mu,), (d,))
        ng = spec.n_gamma()
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 3))
        fs = FunctionalSpec(N=N, a=rng.standard_normal((N + 1, T)))
        b = transform_b(spec, fs)
        v = v_coeffs(spec, b)
        e = np.asarray(expand_operator(spec), dtype=float)
        zeta = {k: rng.standard_normal(T) for k in range(-ng, N + 1)}

        lhs = 0.0
        for k in range(N + 1):
            diff_k = sum(e[l] * zeta[k - l] for l in range(ng + 1))
            lhs += float(b[k] @ diff_k)
        rhs = sum(float(fs.a[k] @ zeta[k]) for k in range(N + 1))
        rhs += sum(float(v[i] @ zeta[-(i + 1)]) for i in range(ng))
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))


class TestFourierBlocks:
    @staticmethod
    def noiseless(grid, T):
        """A problem with T = 1 or 2 and its f, with the f of ``ma_pair``."""
        fs = FunctionalSpec(N=2, a=np.random.default_rng(T).standard_normal((3, T)))
        return Problem(GMIncrementSpec((2,), (1,), (1,)), fs, grid), ma_pair(grid, T)[0]

    @pytest.mark.parametrize("T", [1, 2])
    def test_zero_noise_kills_t_and_q(self, monkeypatch, grid1k, T):
        # g is a factor of the T and Q kernels, so a noiseless solve forms and transforms
        # P alone; the loop's T and Q are zeros too, some of them signed
        prob, f = self.noiseless(grid1k, T)
        g = DensityGrid.zero(grid1k, T)
        want = fourier_blocks_loop(prob, f, g)
        transforms = count_calls(monkeypatch, FrequencyGrid, "fourier")
        products = count_calls(monkeypatch, classical, "_nodewise")
        blocks = fourier_blocks(prob, f, g)
        assert (len(transforms), len(products)) == (1, 0)
        assert blocks.P.tobytes() == want[0].tobytes()
        for got, loop in zip((blocks.T, blocks.Q), want[1:]):
            assert got.dtype == loop.dtype and np.array_equal(got, loop)
            assert not got.any()

    @pytest.mark.parametrize("T", [1, 2])
    def test_zero_noise_solve_keeps_its_bits(self, grid1k, T):
        # T a_mu and <Q a, a> are zeros on both sides: c = c1 - 0 and delta = x + 0
        prob, f = self.noiseless(grid1k, T)
        blocks = fourier_blocks(prob, f, DensityGrid.zero(grid1k, T))
        P, T_, Q = fourier_blocks_loop(prob, f, DensityGrid.zero(grid1k, T))
        found = []
        for side in (blocks, dataclasses.replace(blocks, P=P, T=T_, Q=Q)):
            sol = solve_system(side, prob.b, prob.a_mu)
            found.append(bits(sol.c, sol.rhs, np.float64(_algebraic_mse(side, sol, prob.fspec.a))))
        assert found[0] == found[1]

    @pytest.mark.parametrize("T", [1, 2])
    def test_noise_at_one_node_pair_forms_every_kernel(self, monkeypatch, grid1k, T):
        # one mirrored pair of nonzero nodes is noise: all three kernels, the loop's bits
        prob, f = self.noiseless(grid1k, T)
        vals = np.zeros((grid1k.n_grid, T, T), dtype=complex)
        vals[[100, grid1k.n_grid - 101]] = 0.3 * np.eye(T) + 0.05
        g = DensityGrid(grid1k, vals)
        want = fourier_blocks_loop(prob, f, g)
        transforms = count_calls(monkeypatch, FrequencyGrid, "fourier")
        blocks = fourier_blocks(prob, f, g)
        assert len(transforms) == 3
        assert bits(blocks.P, blocks.T, blocks.Q) == bits(*want)
        assert blocks.T.any() and blocks.Q.any()

    def test_whitened_gives_identity(self, grid1k):
        f = pchi_one_density(SPEC11, grid1k)
        blocks = blocks_of(SPEC11, f, DensityGrid.zero(grid1k, 1), N=1)
        assert np.allclose(blocks.P, np.eye(3), atol=1e-10)

    def test_grid_self_convergence(self):
        coarse, fine = FrequencyGrid(4096), FrequencyGrid(16384)
        vals = []
        for grid in (coarse, fine):
            f = constant_density(grid, 1.0)
            g = constant_density(grid, 0.5)
            vals.append(blocks_of(SPEC11, f, g, N=1).P)
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-6

    def test_hermitian_p(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.3)
        blocks = blocks_of(SPEC11, f, g, N=2)
        assert np.allclose(blocks.P, blocks.P.conj().T, atol=1e-12)
        assert np.allclose(blocks.Q, blocks.Q.conj().T, atol=1e-12)


class TestKernelBuffer:
    """The three kernels take one buffer in turn, each checked and transformed in place.  The
    ``*_in_passes`` forms run the per-node stages in passes of one node each."""

    BLOCK_CASES = [((1,), 0, 1), ((2,), 2, 1), ((12,), 3, 1), ((1,), 2, 2), ((3,), 1, 3)]

    @staticmethod
    def one_node_per_pass(monkeypatch):
        monkeypatch.setattr(spectra, "_BLOCK_BYTES", 1)

    @pytest.mark.parametrize("s, N, T", BLOCK_CASES)
    def test_blocks_match_one_kernel_at_a_time(self, grid1k, s, N, T):
        spec = GMIncrementSpec(s, (1,), (1,))
        if T == 1:
            f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
            g = constant_density(grid1k, 0.3)
        else:
            h = np.random.default_rng(T).standard_normal((2, T, T))
            f = matrix_ma_density(grid1k, [(np.eye(T) + 0.2 * h[0]).tolist(),
                                           (0.3 * h[1]).tolist()])
            g = constant_density(grid1k, 0.4 * np.eye(T) + 0.05)
        prob = Problem(spec, FunctionalSpec(N=N, a=np.ones((N + 1, T))), grid1k)
        blocks = fourier_blocks(prob, f, g)
        for got, want in zip((blocks.P, blocks.T, blocks.Q), fourier_blocks_loop(prob, f, g)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s, N, T", BLOCK_CASES)
    def test_blocks_match_one_kernel_at_a_time_in_passes(self, monkeypatch, grid1k, s, N, T):
        self.one_node_per_pass(monkeypatch)
        self.test_blocks_match_one_kernel_at_a_time(grid1k, s, N, T)

    @staticmethod
    def t4_peak(grid: FrequencyGrid) -> int:
        """``tracemalloc`` peak of a warm T = 4 ``fourier_blocks`` on the grid."""
        T = 4
        rng = np.random.default_rng(4)
        f = matrix_ma_density(grid, [(np.eye(T) + 0.1 * rng.standard_normal((T, T))).tolist(),
                                     (0.2 * rng.standard_normal((T, T))).tolist()])
        g = constant_density(grid, 0.5 * np.eye(T))
        prob = Problem(SPEC11, FunctionalSpec(N=2, a=np.ones((3, T))), grid)
        fourier_blocks(prob, f, g)
        tracemalloc.start()
        try:
            fourier_blocks(prob, f, g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_p_its_inverse_and_the_buffer(self):
        # p, p^{-1} and the one-kernel buffer are three kernel sizes, and a
        # 1 MiB node block of Q's f p^{-1} is half of one here; three kernels
        # in one buffer read 5.19, and a second kernel of any kind reaches four
        T, grid = 4, FrequencyGrid(2 ** 13)
        peak = self.t4_peak(grid)
        assert peak < 4 * grid.n_grid * T * T * 16

    @pytest.mark.parametrize("fit", [1, 2])
    def test_peak_in_passes_is_p_its_inverse_and_two_kernels(self, monkeypatch, fit):
        # with passes of fit kernel sizes the whole stack is one pass, so Q's
        # f p^{-1} g takes a whole kernel beside the buffer: no stage may hold
        # more than p, p^{-1} and two kernels
        T, grid = 4, FrequencyGrid(2 ** 13)
        monkeypatch.setattr(spectra, "_BLOCK_BYTES", fit * grid.n_grid * T * T * 16)
        peak = self.t4_peak(grid)
        assert peak < 4.5 * grid.n_grid * T * T * 16

    def test_scalar_nodewise_is_matmul_bitwise(self):
        # densities and their inverses are nonnegative, so no zero changes sign
        rng = np.random.default_rng(8)
        a, b = (rng.uniform(0.0, 3.0, (4096, 1, 1)).astype(complex) for _ in range(2))
        a[::7] = 0.0
        assert _nodewise(a, b).tobytes() == np.matmul(a, b).tobytes()

    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_matrices_take_matmul(self, monkeypatch, T):
        calls, original = [], np.matmul
        monkeypatch.setattr(np, "matmul",
                            lambda *args, **kw: calls.append(1) or original(*args, **kw))
        rng = np.random.default_rng(T)
        a, b = (rng.standard_normal((64, T, T)) + 1j * rng.standard_normal((64, T, T))
                for _ in range(2))
        out = np.empty((64, T, T), dtype=complex)
        assert _nodewise(a, b, out=out) is out
        assert np.array_equal(out, original(a, b) if T > 1 else a * b)
        assert len(calls) == (T > 1)

    @staticmethod
    def densities(grid, T, side, value):
        """(f, g) with value at entry (0, 0) of nodes 700 and 900 on one side."""
        vals = np.broadcast_to(0.5 * np.eye(T), (grid.n_grid, T, T)).astype(complex)
        vals[[700, 900], 0, 0] = value
        bad, good = DensityGrid(grid, vals, validate=False), constant_density(grid, np.eye(T))
        return (bad, good) if side == "f" else (good, bad)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("T, value, kernel", [(1, np.nan, "P"), (2, np.inf, "Q")])
    def test_first_bad_kernel_and_node_are_named(self, grid1k, T, value, kernel):
        f, g = self.densities(grid1k, T, "f", value)
        prob = Problem(SPEC11, FunctionalSpec(N=1, a=np.ones((2, T))), grid1k)
        message = f"non-finite {kernel} integrand at node 700 (lambda=1.156622)"
        with pytest.raises(NumericalError, match=re.escape(message)):
            fourier_blocks(prob, f, g)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_noise_names_the_t_kernel(self, monkeypatch, grid1k):
        # an infinite g also makes p non-finite (P fails first), so the
        # observed density is taken from the finite g it replaced
        f, g = self.densities(grid1k, 1, "g", np.inf)
        prob = Problem(SPEC11, FunctionalSpec(N=1, a=np.ones((2, 1))), grid1k)
        finite = _combine(f, constant_density(grid1k, 0.5), prob.beta2)
        monkeypatch.setattr(classical, "_combine", lambda *args: finite)
        message = "non-finite T integrand at node 700 (lambda=1.156622)"
        with pytest.raises(NumericalError, match=re.escape(message)):
            fourier_blocks(prob, f, g)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("T, value, kernel", [(1, np.nan, "P"), (2, np.inf, "Q")])
    def test_first_bad_kernel_and_node_are_named_in_passes(self, monkeypatch, grid1k, T, value,
                                                           kernel):
        self.one_node_per_pass(monkeypatch)
        self.test_first_bad_kernel_and_node_are_named(grid1k, T, value, kernel)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_noise_names_the_t_kernel_in_passes(self, monkeypatch, grid1k):
        self.one_node_per_pass(monkeypatch)
        self.test_infinite_noise_names_the_t_kernel(monkeypatch, grid1k)


class TestSolveSystem:
    def test_identity_system(self, grid1k):
        f = pchi_one_density(SPEC11, grid1k)
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [1.0]]))
        blocks = fourier_blocks(Problem(SPEC11, fs, grid1k), f, DensityGrid.zero(grid1k, 1))
        b = transform_b(SPEC11, fs)
        sol = solve_system(blocks, b, coeffs_a_mu(SPEC11, fs))
        assert np.allclose(sol.c.reshape(-1), padded_b(b, 1), atol=1e-10)

    def test_zero_weights(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        fs = FunctionalSpec(N=1, a=np.zeros((2, 1)))
        blocks = fourier_blocks(Problem(SPEC11, fs, grid1k), f, g)
        sol = solve_system(blocks, transform_b(SPEC11, fs), coeffs_a_mu(SPEC11, fs))
        assert np.allclose(sol.c, 0.0)

    def test_residual_small(self, grid1k):
        f = constant_density(grid1k, 1.0)
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [1.0]]))
        blocks = fourier_blocks(Problem(SPEC11, fs, grid1k), f, DensityGrid.zero(grid1k, 1))
        b = transform_b(SPEC11, fs)
        sol = solve_system(blocks, b, coeffs_a_mu(SPEC11, fs))
        rhs = padded_b(b, 1)
        assert np.linalg.norm(blocks.P @ sol.c.reshape(-1) - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("T", [1, 2])
    def test_condition_number_matches_cond(self, grid1k, T):
        if T == 1:
            f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
            g = constant_density(grid1k, 0.3)
        else:
            f = matrix_ma_density(grid1k, [[[2.0, 0.3], [0.1, 1.8]], [[0.4, 0.0], [0.2, 0.3]]])
            g = constant_density(grid1k, [[0.4, 0.1], [0.1, 0.5]])
        fs = FunctionalSpec(N=3, a=np.random.default_rng(T).standard_normal((4, T)))
        blocks = fourier_blocks(Problem(SPEC11, fs, grid1k), f, g)
        sol = solve_system(blocks, transform_b(SPEC11, fs), coeffs_a_mu(SPEC11, fs))
        assert sol.condition_number == pytest.approx(np.linalg.cond(blocks.P), rel=1e-9)

    def test_singular_p_raises(self, grid1k):
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [1.0]]))
        blocks = fourier_blocks(Problem(SPEC11, fs, grid1k), constant_density(grid1k, 1.0),
                                DensityGrid.zero(grid1k, 1))
        singular = dataclasses.replace(blocks, P=np.zeros_like(blocks.P))
        with pytest.raises(NumericalError, match="singular"):
            solve_system(singular, transform_b(SPEC11, fs), coeffs_a_mu(SPEC11, fs))


class TestSpectralCharacteristic:
    def test_zero_weights_zero_h(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        fs = FunctionalSpec(N=1, a=np.zeros((2, 1)))
        h = spectral_characteristic(Problem(SPEC11, fs, grid1k), f, g, np.zeros((3, 1)))
        assert np.max(np.abs(h)) < 1e-14

    def test_split_identity(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [0.7]]))
        prob = Problem(SPEC11, fs, grid1k)
        blocks, sol = _solve(prob, f, g)
        h = _characteristic(prob, g.values, blocks.p_inv, sol.c)
        h1, h2 = characteristic_split(prob, g.values, blocks.p_inv, sol)
        assert np.max(np.abs(h1 - h2 - h)) < 1e-12 * max(1.0, np.max(np.abs(h)))

    @pytest.mark.parametrize("T", [1, 2])
    def test_matches_the_solved_split(self, grid1k, T):
        # spectral_characteristic forms h from c as the pipeline does, bit for bit; the
        # paper's split of the solved system differs from it by rounding only
        if T == 1:
            spec = GMIncrementSpec((2,), (1,), (1,))
            f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
            g = constant_density(grid1k, 0.5)
        else:
            spec = SPEC11
            f = matrix_ma_density(grid1k, [[[2.0, 0.3], [0.1, 1.8]], [[0.4, 0.0], [0.2, 0.3]]])
            g = constant_density(grid1k, [[0.4, 0.1], [0.1, 0.5]])
        fs = FunctionalSpec(N=2, a=np.random.default_rng(T).standard_normal((3, T)))
        sol = solve_interpolation(spec, f, g, fs)
        prob = Problem(spec, fs, grid1k)
        h = spectral_characteristic(prob, f, g, sol.c)
        assert h.tobytes() == sol.h.tobytes()
        blocks, system = _solve(prob, f, g)
        h1, h2 = characteristic_split(prob, g.values, blocks.p_inv, system)
        assert np.max(np.abs(h1 - h2 - sol.h)) <= 1e-12 * np.max(np.abs(sol.h))

    def test_zero_noise_reduction(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = DensityGrid.zero(grid1k, 1)
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [0.7]]))
        sol = solve_interpolation(SPEC11, f, g, fs)
        # direct evaluation of the reduced zero-noise formula
        lam = grid1k.nodes
        chi, beta = _chi_beta((1,), (1,), (1,), lam)
        b = transform_b(SPEC11, fs)
        B = np.exp(1j * np.outer(lam, np.arange(2))) @ b.astype(complex)
        C = np.exp(1j * np.outer(lam, np.arange(3))) @ sol.c.astype(complex)
        expected = B * (chi / beta)[:, None] - C * (np.conj(beta) / np.conj(chi))[:, None] \
            / scalar_values(f)[:, None]
        assert np.max(np.abs(sol.h - expected)) < 1e-10 * np.max(np.abs(expected))


class TestNodeBlocks:
    """The solve's per-node products give the same bits when every node block holds one node;
    the 1024-node stacks here fit in one block otherwise."""

    @pytest.mark.parametrize("T", [1, 2, 4])
    @pytest.mark.parametrize("loop", [False, True], ids=["one buffer", "one kernel a pass"])
    def test_blocks_and_characteristic_match_in_one_node_blocks(self, monkeypatch, grid1k, T,
                                                                loop):
        # the whole-stack kernels are the solve's own, or brute's transformed one a pass
        f, g = ma_pair(grid1k, T)
        fs = FunctionalSpec(N=3, a=np.random.default_rng(T).standard_normal((4, T)))
        prob = Problem(GMIncrementSpec((2,), (1,), (1,)), fs, grid1k)
        blocks, sol = _solve(prob, f, g)

        def stages():
            again = fourier_blocks(prob, f, g)
            h = _characteristic(prob, g.values, blocks.p_inv, sol.c)
            return bits(again.P, again.T, again.Q, again.p_inv, h)

        whole = stages()
        kernels = fourier_blocks_loop(prob, f, g) if loop else (blocks.P, blocks.T, blocks.Q)
        assert whole[:3] == bits(*kernels)
        monkeypatch.setattr(spectra, "_BLOCK_BYTES", 1)
        assert stages() == whole


class TestMse:
    def test_zero_weights(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        fs = FunctionalSpec(N=1, a=np.zeros((2, 1)))
        sol = solve_interpolation(SPEC11, f, g, fs)
        assert sol.delta == pytest.approx(0.0, abs=1e-14)

    def test_whitened_collapse(self, grid1k):
        f = pchi_one_density(SPEC11, grid1k)
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [1.0]]))
        sol = solve_interpolation(SPEC11, f, DensityGrid.zero(grid1k, 1), fs)
        b = transform_b(SPEC11, fs)
        assert sol.delta == pytest.approx(float(np.sum(b ** 2)), rel=1e-10)

    def test_dual_route_agreement(self, grid2k):
        f = rational_density(grid2k, [1.0], [1.0, -0.5])
        g = constant_density(grid2k, 0.5)
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [1.0]]))
        sol = solve_interpolation(SPEC11, f, g, fs)
        assert abs(sol.delta - sol.delta_spectral) <= 1e-6 * abs(sol.delta)

    @pytest.mark.parametrize("alpha", [-1.0, 2.0, 10.0])
    def test_scaling_equivariance(self, grid1k, alpha):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        a = np.array([[1.0], [0.7]])
        base = solve_interpolation(SPEC11, f, g, FunctionalSpec(N=1, a=a))
        scaled = solve_interpolation(SPEC11, f, g, FunctionalSpec(N=1, a=alpha * a))
        assert np.allclose(scaled.c, alpha * base.c, rtol=1e-9, atol=1e-12)
        assert np.allclose(scaled.v, alpha * base.v, rtol=1e-9, atol=1e-12)
        assert np.allclose(scaled.h, alpha * base.h, rtol=1e-9, atol=1e-10)
        assert scaled.delta == pytest.approx(alpha ** 2 * base.delta, rel=1e-9)

    def test_orthogonality_coefficients_vanish(self, grid1k):
        spec = GMIncrementSpec((2,), (1,), (1,))
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [0.7]]))
        sol = solve_interpolation(spec, f, g, fs)
        lam = grid1k.nodes
        chi, beta = _chi_beta(spec.s, spec.mu, spec.d, lam)
        psi = sol.h * (beta / chi)[:, None]
        ng = spec.n_gamma()
        # int psi e^{-i j l} dl = 0 for j = 0 .. N + n_gamma
        residual = grid1k.fourier(psi, [-j for j in range(0, fs.N + ng + 1)])
        scale = max(float(np.max(np.abs(sol.b))), 1.0)
        assert np.max(np.abs(residual)) <= 1e-6 * scale

    def test_delta_below_target_variance(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [0.7]]))
        sol = solve_interpolation(SPEC11, f, g, fs)
        target_var = mse_of_characteristic(Problem(SPEC11, fs, grid1k), f, g, np.zeros((1024, 1)))
        assert 0.0 <= sol.delta <= target_var + 1e-12

    def test_matrix_case_dual_route(self, grid2k):
        rng = np.random.default_rng(5)
        f = matrix_ma_density(grid2k, [rng.standard_normal((2, 2)) + 2 * np.eye(2),
                                       0.5 * rng.standard_normal((2, 2))])
        gm = rng.standard_normal((2, 2))
        g = constant_density(grid2k, 0.2 * gm @ gm.T + 0.3 * np.eye(2))
        fs = FunctionalSpec(N=1, a=rng.standard_normal((2, 2)))
        sol = solve_interpolation(SPEC11, f, g, fs)
        assert abs(sol.delta - sol.delta_spectral) <= 1e-6 * sol.delta


class TestBookkeeping:
    def test_solution_dimensions(self, grid1k):
        spec = GMIncrementSpec((2, 3), (1, 1), (1, 1))
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid1k, 0.5)
        fs = FunctionalSpec(N=2, a=np.ones((3, 1)))
        sol = solve_interpolation(spec, f, g, fs)
        ng = spec.n_gamma()
        assert sol.c.shape == (fs.N + ng + 1, 1)
        assert sol.b.shape == (fs.N + 1, 1)
        assert sol.a_mu.shape == (fs.N + ng + 1, 1)
        assert sol.v.shape == (ng, 1)
        assert sol.h.shape == (grid1k.n_grid, 1)
        assert sol.delta >= 0

    def test_matrix_structural_toeplitz_psd(self, grid1k):
        from brute import structural_function

        rng = np.random.default_rng(3)
        f = matrix_ma_density(grid1k, [rng.standard_normal((2, 2)) + 2 * np.eye(2),
                                       0.3 * rng.standard_normal((2, 2))])
        lags = [structural_function(SPEC11, f, m) for m in range(6)]
        big = np.empty((12, 12), dtype=complex)
        for i in range(6):
            for j in range(6):
                blk = lags[i - j] if i >= j else lags[j - i].conj().T
                big[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk
        assert np.min(np.linalg.eigvalsh(0.5 * (big + big.conj().T))) > -1e-8


class TestPeriodicLifting:
    @pytest.mark.parametrize("T,M", [(2, 5), (3, 5), (2, 11), (3, 8)])
    def test_lift_matches_hand_blocking(self, grid1k, T, M):
        rng = np.random.default_rng(T * 100 + M)
        a_scalar = rng.standard_normal(M + 1)
        lifted = lift_periodic(PeriodicFunctionalSpec(M=M, T=T, a_scalar=a_scalar))

        # hand blocking, written independently of lift_periodic
        N = M // T
        a = np.zeros((N + 1, T))
        for m in range(N + 1):
            for p in range(1, T + 1):
                k = m * T + p - 1
                if k <= M:
                    a[m, p - 1] = a_scalar[k]
        direct = FunctionalSpec(N=N, a=a)

        rng2 = np.random.default_rng(1)
        h0 = rng2.standard_normal((T, T)) + 2 * np.eye(T)
        f = matrix_ma_density(grid1k, [h0, 0.4 * rng2.standard_normal((T, T))])
        gmat = rng2.standard_normal((T, T))
        g = constant_density(grid1k, 0.2 * gmat @ gmat.T + 0.2 * np.eye(T))

        sol_lift = solve_interpolation(SPEC11, f, g, lifted)
        sol_direct = solve_interpolation(SPEC11, f, g, direct)
        assert sol_lift.delta == pytest.approx(sol_direct.delta, abs=1e-10)


def dense_row_polynomial(coeffs, nodes, chunk=512):
    """sum_k coeffs[k] e^{i k lambda} by explicit phases, a chunk of k at a time."""
    out = np.zeros((len(nodes), coeffs.shape[1]), dtype=complex)
    for start in range(0, coeffs.shape[0], chunk):
        k = np.arange(start, min(start + chunk, coeffs.shape[0]))
        out += np.exp(1j * np.outer(nodes, k)) @ coeffs[k].astype(complex)
    return out


class TestRowPolynomial:
    @pytest.mark.parametrize("n_grid", [1024, 4096])
    @pytest.mark.parametrize("T", [1, 2, 4])
    @pytest.mark.parametrize("extra", [-1000, 0, 123])  # K = n + extra; K > n folds
    def test_fft_matches_dense_phases(self, n_grid, T, extra):
        grid = FrequencyGrid(n_grid)
        K = n_grid + extra
        rng = np.random.default_rng(n_grid + 10 * T + extra)
        coeffs = rng.standard_normal((K, T)) + 1j * rng.standard_normal((K, T))
        got = _row_polynomial(coeffs, grid)
        assert got.shape == (n_grid, T)
        expected = dense_row_polynomial(coeffs, grid.nodes)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.sum(np.abs(coeffs))

    def test_real_short_coefficients(self, grid1k):
        coeffs = np.array([[1.0, 0.0], [0.5, -2.0], [0.0, 3.0]])
        got = _row_polynomial(coeffs, grid1k)
        expected = dense_row_polynomial(coeffs, grid1k.nodes)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.sum(np.abs(coeffs))


def block_toeplitz_loop(coeffs, size, dim, index):
    """Block-by-block assembly, the reference for the index-array gather."""
    out = np.empty((size * dim, size * dim), dtype=complex)
    for j in range(size):
        for k in range(size):
            out[j * dim:(j + 1) * dim, k * dim:(k + 1) * dim] = coeffs[index(j, k) + size - 1]
    return out


class TestBlockToeplitz:
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("index", [lambda j, k: k - j, lambda j, k: j - k],
                             ids=["k-j", "j-k"])
    @pytest.mark.parametrize("size", [1, 6])
    def test_matches_loop(self, dim, index, size):
        rng = np.random.default_rng(dim * 10 + size)
        coeffs = (rng.standard_normal((2 * size - 1, dim, dim))
                  + 1j * rng.standard_normal((2 * size - 1, dim, dim)))
        got = _block_toeplitz(coeffs, size, dim, index)
        assert np.array_equal(got, block_toeplitz_loop(coeffs, size, dim, index))
