import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from brute import (
    chi_beta_power,
    combine,
    inverse_by_eigenvalues,
    refined_min_modulus,
    refined_minimality_one_pass,
    structural_function,
    validate_by_eigenvalues,
)
from conftest import constant_density, matrix_ma_density, pchi_one_density, rational_density
from gmi.errors import SingularDensityError, ValidationError
from gmi.increments import FMIncrementSpec, GMIncrementSpec, SeasonalFactor
from gmi.spectra import (
    INVERTIBILITY_FLOOR,
    PSD_TOL,
    DensityGrid,
    FrequencyGrid,
    _check_unit_circle_roots,
    _chi_beta,
    _minimality,
    fm_density,
    hermitian_eigenvalues,
    inverse_density,
    minimality_value,
    observed_spectrum,
    symbols,
)

SPEC11 = GMIncrementSpec((1,), (1,), (1,))


class TestFrequencyGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            FrequencyGrid(1000)
        with pytest.raises(ValidationError):
            FrequencyGrid(512)

    def test_midpoint_pairing(self, grid1k):
        nodes = grid1k.nodes
        assert nodes[0] == pytest.approx(-np.pi + np.pi / 1024)
        assert np.allclose(nodes[::-1], -nodes)

    def test_nodes_avoid_seasonal_frequencies(self, grid1k):
        nodes = grid1k.nodes
        for s in range(1, 13):
            for k in range(-(s // 2), s // 2 + 1):
                nu = 2 * np.pi * k / s
                assert np.min(np.abs(nodes - nu)) > 1e-6

    def test_fourier_of_pure_harmonics(self, grid1k):
        lam = grid1k.nodes
        values = 2.0 * np.cos(3 * lam) + 1.0
        coeffs = grid1k.fourier(values, [-3, 0, 3, 5])
        assert coeffs[0] == pytest.approx(1.0)
        assert coeffs[1] == pytest.approx(1.0)
        assert coeffs[2] == pytest.approx(1.0)
        assert abs(coeffs[3]) < 1e-14

    def test_in_place_fourier_overwrites_a_view_and_allocates_nothing(self):
        grid = FrequencyGrid(2 ** 13)
        rng = np.random.default_rng(11)
        shape = (3, grid.n_grid, 2, 2)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ms = np.arange(-9, 10)
        expected = grid.fourier(values.transpose(1, 0, 2, 3), ms)
        transform = np.fft.ifft(values, axis=1)
        tracemalloc.start()
        try:
            got = grid.fourier(values.transpose(1, 0, 2, 3), ms, in_place=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == expected.tobytes()
        assert values.tobytes() == transform.tobytes()
        assert peak < 0.05 * values.nbytes

    def test_declared_numpy_floor_has_the_fft_out_argument(self):
        # fourier passes ``out`` to numpy.fft on every call; NumPy 2.0 added it
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert int(re.search(r'"numpy>=(\d+)', pyproject).group(1)) >= 2


class TestSymbols:
    def test_first_difference_at_pi(self):
        chi, beta = symbols(SPEC11, np.pi - 1e-15)
        assert chi == pytest.approx(2.0, abs=1e-12)
        assert beta == pytest.approx(1j * np.pi, abs=1e-12)

    def test_ratio_limit_at_zero(self):
        lam = 1e-5
        chi, beta = symbols(SPEC11, lam)
        assert abs(beta) ** 2 / abs(chi) ** 2 == pytest.approx(1.0, rel=1e-8)

    def test_seasonal_ratio_limit(self):
        spec = GMIncrementSpec((2,), (1,), (1,))
        lam = 1e-4
        chi, beta = symbols(spec, lam)
        ratio = abs(beta) ** 2 / abs(chi) ** 2
        direct = abs(lam * (lam - np.pi) * (lam + np.pi)) ** 2 / abs(1 - np.exp(-2j * lam)) ** 2
        assert ratio == pytest.approx(direct, rel=1e-12)
        assert ratio == pytest.approx(np.pi ** 4 / 4.0, rel=1e-6)


    @pytest.mark.parametrize("d", [1, 2, 0.3])
    def test_matches_power_form_bitwise(self, grid4k, d):
        chi, beta = _chi_beta((1, 12), (1, 1), (d, d), grid4k.nodes)
        chi_ref, beta_ref = chi_beta_power((1, 12), (1, 1), (d, d), grid4k.nodes)
        assert np.array_equal(chi, chi_ref)
        assert np.array_equal(beta, beta_ref)


class TestDensityGrid:
    def test_rejects_non_hermitian(self, grid1k):
        vals = np.zeros((1024, 2, 2), dtype=complex)
        vals[:, 0, 1] = 1.0
        with pytest.raises(ValidationError):
            DensityGrid(grid1k, vals)

    def test_rejects_asymmetric_in_frequency(self, grid1k):
        vals = np.zeros((1024, 2, 2), dtype=complex)
        vals[:, 0, 0] = 1.0 + np.sin(grid1k.nodes)  # odd part breaks the pairing
        vals[:, 1, 1] = 1.0
        with pytest.raises(ValidationError):
            DensityGrid(grid1k, vals)

    def test_rejects_negative(self, grid1k):
        with pytest.raises(ValidationError):
            DensityGrid.constant(grid1k, [[-1.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_node(self, grid1k, value):
        # NaN fails every comparison, so the Hermitian, symmetry and PSD checks alone pass it
        vals = np.ones((1024, 1, 1), dtype=complex)
        vals[7] = vals[1024 - 1 - 7] = value
        with pytest.raises(ValidationError, match="non-finite"):
            DensityGrid(grid1k, vals)

    @pytest.mark.parametrize("diagonal", [(1e308, -1e308), (1e308, 1e308)])
    def test_rejects_a_hermitian_part_that_overflows(self, grid1k, diagonal):
        # v + v^H is inf there, and the NaN eigenvalues of an inf matrix pass the PSD test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="Hermitian part that overflows"):
                DensityGrid.constant(grid1k, np.diag(diagonal))
            with pytest.raises(ValidationError, match="Hermitian part that overflows"):
                DensityGrid(grid1k, np.broadcast_to(np.diag(diagonal), (1024, 2, 2)))

    def test_an_overflowing_hermitian_error_is_refused_without_a_warning(self, grid1k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"not Hermitian \(error inf\)"):
                DensityGrid.constant(grid1k, [[1.0, 1e308], [-1e308, 1.0]])

    def test_large_entries_with_a_finite_hermitian_part_reach_the_psd_test(self, grid1k):
        big = 8e307 + 8e307j  # |big| is above half the largest double, big + big is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DensityGrid.constant(grid1k, np.diag((8.9e307, 1.0)))
            with pytest.raises(ValidationError, match="eigenvalue"):
                DensityGrid(grid1k, _mirrored(np.broadcast_to(
                    np.array([[1.0, big], [np.conj(big), 1.0]]), (512, 2, 2))))

    def test_rational_unit_circle_root(self, grid1k):
        with pytest.raises(ValidationError):
            rational_density(grid1k, [1.0], [1.0, -1.0])


def _outcome(run):
    """The bytes of run()'s array (b"" for None), or the class and message of what it raised."""
    try:
        out = run()
    except (ValidationError, SingularDensityError, ArithmeticError, np.linalg.LinAlgError,
            RuntimeWarning) as exc:
        return type(exc), str(exc)
    return "ok", b"" if out is None else out.tobytes()


def _mirrored(half: np.ndarray) -> np.ndarray:
    """Nodes whose second half is the first's transposes in reverse: value(-l) = value(l)^T."""
    return np.concatenate([half, half[::-1].transpose(0, 2, 1)])


def _certificate_stacks(T: int, seed: int) -> dict:
    """1024-node T x T stacks, each with the outcome that the eigenvalues give both checks."""
    rng = np.random.default_rng(seed)

    def cnormal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = cnormal(512, T, T)
    pd = a @ a.conj().transpose(0, 2, 1) / T + 0.1 * np.eye(T)
    low = cnormal(512, T, T - 1)
    stacks = {
        "positive definite": (_mirrored(pd), "ok", "ok"),
        "rank deficient": (_mirrored(low @ low.conj().transpose(0, 2, 1)), "ok", "singular"),
        "all zero": (np.zeros((1024, T, T), dtype=complex), "ok", "singular"),
    }
    small = 0.5 * pd / np.max(np.abs(pd))  # max|value| stays below 1, so the scale is 1
    q = np.linalg.qr(cnormal(T, T))[0]
    for label, threshold in (("PSD", -PSD_TOL), ("floor", INVERTIBILITY_FLOOR)):
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            half = small.copy()
            half[5] = q @ np.diag([factor * threshold] + [0.5] * (T - 1)) @ q.conj().T
            below = factor * threshold < threshold
            psd = "bad" if label == "PSD" and below else "ok"
            inverse = "singular" if label == "PSD" or below else "ok"
            stacks[f"{label} x {factor}"] = (_mirrored(half), psd, inverse)
    skew = cnormal(512, T, T)
    skew = 0.2 * PSD_TOL * (skew - skew.conj().transpose(0, 2, 1)) / np.max(np.abs(skew))
    stacks["non-Hermitian within PSD_TOL"] = (_mirrored(pd + skew), "ok", "ok")
    huge = np.zeros((512, T, T), dtype=complex)  # indefinite; its factor overflows to NaN
    huge[:, 0, 0] = huge[:, 1, 1] = 1.0
    huge[:, 0, 1], huge[:, 1, 0] = 8e307 + 8e307j, 8e307 - 8e307j
    stacks["indefinite near the largest double"] = (_mirrored(huge), "bad", "singular")
    for bad in (np.nan, np.inf):
        values = _mirrored(pd)
        values[7, 0, T - 1] = bad
        stacks[f"one {bad} entry"] = (values, "bad", None)  # the inverse is what inv makes of it
    return stacks


class TestCholeskyCertificate:
    """The factor certificate decides as the eigenvalues do, and words every rejection alike."""

    @pytest.mark.parametrize("T", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_checks_match_the_eigenvalue_forms(self, grid1k, T, seed):
        for name, (values, psd, inverse) in _certificate_stacks(T, seed).items():
            got = _outcome(lambda: DensityGrid.zero(grid1k, T)._validate(values))
            assert got == _outcome(lambda: validate_by_eigenvalues(values)), name
            assert (got[0] == "ok") == (psd == "ok"), name
            p = DensityGrid(grid1k, values, validate=False)
            got = _outcome(lambda: inverse_density(p))
            assert got == _outcome(lambda: inverse_by_eigenvalues(values)), name
            if inverse is not None:
                assert got[0] == ("ok" if inverse == "ok" else SingularDensityError), name

    def test_an_accepted_stack_computes_no_eigenvalues(self, grid1k, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(1) or eigvalsh(x))
        stacks = _certificate_stacks(4, 0)
        p = DensityGrid(grid1k, stacks["positive definite"][0])
        inverse_density(p)
        assert calls == []
        singular = DensityGrid(grid1k, stacks["rank deficient"][0])  # PSD: certified too
        assert calls == []
        with pytest.raises(SingularDensityError):
            inverse_density(singular)
        assert calls == [1]


@pytest.mark.parametrize("matrix", [
    [[0.3]], 2.0, [[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    [[-1.0]], [[1.0, 0.0], [0.0, -1e-3]], [[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.5j], [-0.5j, 1.0]],
    [[np.nan]], [[1.0, np.inf], [np.inf, 1.0]], [[1.0, 2.0, 3.0]],
], ids=["scalar", "bare scalar", "positive definite", "rank deficient", "negative",
        "negative eigenvalue", "non-Hermitian", "not its transpose", "nan", "inf", "not square"])
def test_constant_density_validates_as_its_copies(grid1k, matrix):
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))

    def copies():
        return DensityGrid(grid1k, np.broadcast_to(m, (1024,) + m.shape).copy()).values

    assert _outcome(lambda: DensityGrid.constant(grid1k, matrix).values) == _outcome(copies)


def test_hermitian_eigenvalues_equal_eigvalsh_of_the_hermitian_part_bitwise():
    rng = np.random.default_rng(4)
    real = np.concatenate([[-0.0, 0.0, 5e-324, -5e-324, -2.5e-310, -9.9e306, 3.3],
                           rng.uniform(-1e300, 1e300, 5)])
    imag = np.concatenate([[1.0, -2.0, 3e-300, -1e306, 7.0, 1e306, -1e-300],
                           rng.uniform(-1e300, 1e300, 5)])
    scalar = (real + 1j * imag).reshape(-1, 1, 1)  # finite, |z| < 1e307
    stacks = [scalar, scalar[0], scalar.reshape(3, 4, 1, 1)]
    for T in (2, 3):
        x = rng.standard_normal((6, T, T)) + 1j * rng.standard_normal((6, T, T))
        stacks += [x, x[0], x.reshape(2, 3, T, T)]
    for x in stacks:  # x[0] is a (T, T) matrix, as _Floor.start passes to _Matrix.below
        want = np.linalg.eigvalsh(0.5 * (x + np.conj(np.swapaxes(x, -1, -2))))
        got = hermitian_eigenvalues(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestUnitCircleRootCheck:
    DENOMINATORS = ([1.0, -0.4], [1.0, 0.9], [1.0, -0.5, 0.3], [1.0, -1.8, 0.95],
                    [2.0, 0.3, -0.4, 0.1, 0.05])

    @pytest.mark.parametrize("log2_grid", [10, 12, 14, 15, 17])
    def test_blocked_minimum_equals_one_pass(self, log2_grid):
        grid = FrequencyGrid(1 << log2_grid)
        for den in map(np.array, self.DENOMINATORS):
            assert _check_unit_circle_roots(den, grid) == refined_min_modulus(den, grid)

    def test_memory_stays_within_a_few_blocks(self):
        grid, den = FrequencyGrid(1 << 16), np.array([1.0, -0.4])  # 2^20 refined points
        tracemalloc.start()
        try:
            _check_unit_circle_roots(den, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (1 << 13) * 16  # eight complex blocks; one pass takes about 56 MB


class TestFmDensity:
    def test_zero_fractional_part_equals_gm_weight(self, grid1k):
        spec = FMIncrementSpec(R0=1, D0=0.0, factors=(SeasonalFactor(2, 1, 0.0),))
        base = constant_density(grid1k, 2.0)
        out = fm_density(spec, base, grid1k)
        chi, beta = _chi_beta((1, 2), (1, 1), (1, 1), grid1k.nodes)
        expected = np.abs(beta) ** 2 / np.abs(chi) ** 2 * 2.0
        assert np.allclose(out.scalar(), expected, rtol=1e-12)

    def test_pure_fractional_difference_identity(self, grid1k):
        D = 0.3
        spec = FMIncrementSpec(R0=0, D0=D, factors=())
        out = fm_density(spec, constant_density(grid1k, 1.0), grid1k)
        expected = np.abs(1 - np.exp(-1j * grid1k.nodes)) ** (-2 * D)
        assert np.allclose(out.scalar(), expected, rtol=1e-10)

    def test_interior_singularity_slope(self, grid4k):
        # at an interior frequency the log-log slope is -2 * Dtilde
        spec = FMIncrementSpec(R0=0, D0=0.0,
                               factors=(SeasonalFactor(2, 0, 0.1), SeasonalFactor(3, 0, 0.2)))
        out = fm_density(spec, constant_density(grid4k, 1.0), grid4k)
        nu = 2 * np.pi / 3
        lam = grid4k.nodes
        mask = (np.abs(lam - nu) < 0.1) & (np.abs(lam - nu) > 1e-12)
        x = np.log(np.abs(lam[mask] - nu))
        y = np.log(out.scalar()[mask])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-2 * 0.2, abs=0.05)

    def test_rejects_nonstationary(self, grid1k):
        spec = FMIncrementSpec(R0=0, D0=0.4, factors=(SeasonalFactor(2, 0, 0.2),))
        with pytest.raises(ValidationError):
            fm_density(spec, constant_density(grid1k, 1.0), grid1k)

    def test_base_bounds_enforced(self, grid1k):
        spec = FMIncrementSpec(R0=0, D0=0.2, factors=())
        with pytest.raises(ValidationError) as err:
            fm_density(spec, constant_density(grid1k, 1e-8), grid1k)
        assert "bounds" in str(err.value)

    def test_output_symmetry(self, grid1k):
        spec = FMIncrementSpec(R0=1, D0=0.2, factors=(SeasonalFactor(2, 0, 0.1),))
        out = fm_density(spec, constant_density(grid1k, 1.0), grid1k)
        vals = out.values
        assert np.max(np.abs(vals[::-1] - vals.transpose(0, 2, 1))) < 1e-10 * np.max(np.abs(vals))


class TestCombine:
    def test_zero_noise(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.3], [1.0])
        p = combine(f, DensityGrid.zero(grid1k, 1), SPEC11)
        assert np.allclose(p.values, f.values)

    def test_pure_noise_first_difference(self, grid1k):
        f = DensityGrid.zero(grid1k, 1)
        g = constant_density(grid1k, 1.0)
        p = combine(f, g, SPEC11)
        assert np.allclose(p.scalar(), grid1k.nodes ** 2, rtol=1e-12)

    def test_seasonal_weight(self, grid1k):
        spec = GMIncrementSpec((2,), (1,), (1,))
        f = constant_density(grid1k, 0.7)
        g = constant_density(grid1k, 0.4)
        p = combine(f, g, spec)
        lam = grid1k.nodes
        expected = 0.7 + np.abs(lam * (lam - np.pi) * (lam + np.pi)) ** 2 * 0.4
        assert np.allclose(p.scalar(), expected, rtol=1e-12)


class TestStructuralFunction:
    def test_ma_one_pattern(self, grid1k):
        c = 0.7
        _, beta = _chi_beta((1,), (1,), (1,), grid1k.nodes)
        f = DensityGrid.from_scalar_samples(grid1k, c * np.abs(beta) ** 2)
        assert structural_function(SPEC11, f, 0)[0, 0].real == pytest.approx(2 * c, rel=1e-12)
        assert structural_function(SPEC11, f, 1)[0, 0].real == pytest.approx(-c, rel=1e-12)
        assert abs(structural_function(SPEC11, f, 3)[0, 0]) < 1e-10

    def test_lag_zero_psd_and_toeplitz_psd(self, grid1k):
        f = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        lags = [structural_function(SPEC11, f, m)[0, 0] for m in range(11)]
        assert lags[0].real > 0
        toeplitz = np.empty((11, 11), dtype=complex)
        for i in range(11):
            for j in range(11):
                m = i - j
                toeplitz[i, j] = lags[abs(m)] if m >= 0 else np.conj(lags[abs(m)])
        assert np.min(np.linalg.eigvalsh(0.5 * (toeplitz + toeplitz.conj().T))) > -1e-8

    def test_refinement_stability(self, grid1k, grid2k):
        f1 = rational_density(grid1k, [1.0, 0.4], [1.0, -0.5])
        f2 = rational_density(grid2k, [1.0, 0.4], [1.0, -0.5])
        for m in (0, 1, 2):
            a = structural_function(SPEC11, f1, m)[0, 0]
            b = structural_function(SPEC11, f2, m)[0, 0]
            assert abs(a - b) < 0.005 * abs(b)


class TestMinimality:
    def test_bracketed_value(self, grid1k):
        report = minimality_value(SPEC11, constant_density(grid1k, 1.0),
                                  DensityGrid.zero(grid1k, 1))
        assert 1.0 <= report.value <= np.pi ** 2 / 4.0
        assert report.is_minimal

    def test_whitened_value_is_one(self, grid1k):
        f = pchi_one_density(SPEC11, grid1k)
        report = minimality_value(SPEC11, f, DensityGrid.zero(grid1k, 1))
        assert report.value == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_rejected(self, grid1k):
        with pytest.raises(SingularDensityError) as err:
            minimality_value(SPEC11, DensityGrid.zero(grid1k, 1), DensityGrid.zero(grid1k, 1))
        assert "minimality violated (singular density)" in str(err.value)

    def test_divergent_configuration_flagged(self, grid2k):
        spec = GMIncrementSpec((1,), (2,), (1,))
        f = rational_density(grid2k, [1.0, 0.4], [1.0, -0.5])
        g = constant_density(grid2k, 0.5)
        report = minimality_value(spec, f, g)
        assert not report.is_minimal

    @staticmethod
    def _inputs(grid, dim):
        """(weight function, observed spectrum) of an MA signal in white noise."""
        rng = np.random.default_rng(dim)
        f = matrix_ma_density(grid, [np.eye(dim) + 0.2 * rng.standard_normal((dim, dim)),
                                     0.3 * rng.standard_normal((dim, dim))])
        beta2 = np.abs(_chi_beta(SPEC11.s, SPEC11.mu, SPEC11.d, grid.nodes)[1]) ** 2

        def weight_of(lam):
            chi, beta = _chi_beta(SPEC11.s, SPEC11.mu, SPEC11.d, lam)
            return np.abs(beta) ** 2 / np.abs(chi) ** 2

        return weight_of, observed_spectrum(f, constant_density(grid, 0.3 * np.eye(dim)), beta2)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_refined_value_equals_one_pass(self, grid1k, dim):
        weight_of, obs = self._inputs(grid1k, dim)
        report = _minimality(SPEC11, weight_of(grid1k.nodes), obs)
        assert report.refined_value == refined_minimality_one_pass(weight_of, obs)

    def test_refined_value_inverts_one_half_at_a_time(self):
        grid = FrequencyGrid(1 << 13)
        weight_of, obs = self._inputs(grid, 4)
        weight = weight_of(grid.nodes)
        tracemalloc.start()
        try:
            _minimality(SPEC11, weight, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # kernel size: one (n, 4, 4) complex array; the one-pass form reads 6.6
        assert peak < 3.5 * grid.n_grid * 16 * 16

    def test_refinement_stability(self, grid1k, grid2k):
        for grid_pair in [(grid1k, grid2k)]:
            vals = []
            for grid in grid_pair:
                f = rational_density(grid, [1.0, 0.4], [1.0, -0.5])
                g = constant_density(grid, 0.5)
                vals.append(minimality_value(SPEC11, f, g).value)
            assert abs(vals[0] - vals[1]) < 0.005 * abs(vals[1])
