"""Frequency-domain objects: grids, symbols, and matrix spectral densities.

All integrals use the convention (1/2pi) * integral over [-pi, pi), which on
the midpoint grid reduces to a plain average over nodes.  The midpoint grid
never touches 0, +-pi or any seasonal frequency, so integrable singularities
of fractional densities are handled by ordinary averaging.  ``_combine`` forms the
observed density p = f + |beta|^2 g and ``inverse_density`` p^{-1}; a solve keeps both
on its ``classical.FourierBlocks``, and ``minimality_value`` forms its own pair.

At T > 1 one Cholesky factor of a stack's Hermitian part, shifted by PSD_TOL / 2 or by
-2 INVERTIBILITY_FLOOR times max|value|, certifies PSD or invertibility; the margins dwarf
its rounding, and only a stack that does not factor, or whose factor is not finite, is
decided by eigenvalues.  Every tolerance is relative to the stack's own max|value|, so a
stack scaled by a power of two gets the same verdict.

Each per-node stage of an (n, T, T) stack runs in ``node_blocks`` of ``_BLOCK_BYTES``
(1 MiB), so its temporaries are a block's; node-wise arithmetic, per-matrix LAPACK and
BLAS calls, max, min and all do not depend on the block.  ``_combine`` needs none, as
numpy elides its sum into its product.  Sums and means over nodes, FFTs and ``_chi_beta``
stay whole: numpy elides temporaries of 256 KiB or more, which reorders a complex product.
``classical.fourier_blocks`` transforms its three kernels whole, one at a time, in one
reused buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SingularDensityError, ValidationError
from .increments import FMIncrementSpec, GMIncrementSpec, classify_stationarity, frequency_set

#: eigenvalue tolerance below which a sampled density is rejected as non-PSD
PSD_TOL = 1e-10
#: smallest admissible eigenvalue of p(lambda) before it counts as singular
INVERTIBILITY_FLOOR = 1e-12
#: enforced bounds for base densities entering the fractional product form
BASE_DENSITY_BOUNDS = (1e-6, 1e6)
#: stack bytes of one node block of a per-node stage
_BLOCK_BYTES = 2 ** 20


def node_blocks(n: int, node_bytes: int) -> list[slice]:
    """Slices covering nodes 0 .. n-1 in order, each of as many nodes as fit in
    _BLOCK_BYTES at node_bytes a node, and at least one."""
    step = max(1, _BLOCK_BYTES // node_bytes)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric midpoint grid lambda_j = -pi + (j + 1/2) * 2pi / n.

    ``n_grid`` must be a power of two >= 1024.  Node j pairs with node
    n_grid - 1 - j under lambda -> -lambda.
    """

    n_grid: int

    def __post_init__(self):
        n = self.n_grid
        if n < 1024 or (n & (n - 1)) != 0:
            raise ValidationError("grid size must be a power of two >= 1024")

    @property
    def nodes(self) -> np.ndarray:
        j = np.arange(self.n_grid)
        return -np.pi + (j + 0.5) * (2.0 * np.pi / self.n_grid)

    def fourier(self, values: np.ndarray, ms: Sequence[int], in_place: bool = False) -> np.ndarray:
        """Fourier coefficients (1/2pi) int values(l) e^{i m l} dl for each m.

        One FFT over the node axis; the midpoint offset enters as a phase.  With
        ``in_place``, ``values`` must be a complex ndarray (a view will do): the
        FFT overwrites it and allocates no array of its size.
        """
        n = self.n_grid
        ms = np.asarray(ms, dtype=int)
        values = np.asarray(values, dtype=complex)
        base = np.fft.ifft(values, axis=0, out=values if in_place else None)
        phase = np.exp(1j * ms * (-np.pi + np.pi / n))
        picked = base[np.mod(ms, n)]
        return picked * phase.reshape((len(ms),) + (1,) * (picked.ndim - 1))


def hermitian_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of each T x T matrix in a stack of any
    leading shape; at T = 1 the real part, which is what eigvalsh returns there."""
    values = np.asarray(values)
    if values.shape[-1] == 1:
        return values[..., 0].real
    return np.linalg.eigvalsh(0.5 * (values + np.conj(np.swapaxes(values, -1, -2))))


def _factors(values: np.ndarray, shift: float) -> bool:
    """Whether cholesky(H - shift I) completes with a finite diagonal for each matrix; H is
    the Hermitian part.  NaN, or a product that overflows, factors without error, and any
    NaN or inf in the factor reaches its diagonal."""
    if not np.isfinite(shift):  # a non-finite entry makes one
        return False
    for nodes in node_blocks(len(values), values[0].nbytes):
        h = 0.5 * (values[nodes] + np.conj(np.swapaxes(values[nodes], -1, -2)))
        h -= shift * np.eye(values.shape[-1])
        try:
            factor = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(np.diagonal(factor, axis1=-2, axis2=-1))):
            return False
    return True


def _chi_beta(
    s: Sequence[int], mu: Sequence[int], d: Sequence[int], lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the lag symbol and its polynomial weight on frequencies.

    chi(l) = prod_j (1 - e^{-i l mu_j s_j})^{d_j}
    beta(l) = prod_j prod_{k=-[s_j/2]}^{[s_j/2]} (i l - 2 pi i k / s_j)^{d_j}

    Zero orders contribute empty products, so the R-part of a fractional
    operator with some R_j = 0 evaluates to 1.
    """
    lam = np.asarray(lam, dtype=float)
    chi = np.ones_like(lam, dtype=complex)
    beta = np.ones_like(lam, dtype=complex)
    for sj, mj, dj in zip(s, mu, d):
        if dj == 0:
            continue
        chi = chi * _power(1.0 - np.exp(-1j * lam * mj * sj), dj)
        for k in range(-(sj // 2), sj // 2 + 1):
            beta = beta * _power(1j * lam - 2j * np.pi * k / sj, dj)
    return chi, beta


def _power(z: np.ndarray, d) -> np.ndarray:
    """z ** d, skipping the complex power (bitwise z anyway) when d == 1."""
    return z if d == 1 else z ** d


def symbols(spec: GMIncrementSpec, lam) -> tuple[np.ndarray, np.ndarray]:
    """Operator symbol chi(e^{-i lambda}) and weight beta(i lambda).

    Accepts a scalar or an array of frequencies in [-pi, pi).
    """
    scalar = np.isscalar(lam)
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, np.atleast_1d(lam))
    if scalar:
        return complex(chi[0]), complex(beta[0])
    return chi, beta


class DensityGrid:
    """Matrix spectral density sampled on a frequency grid.

    values[j] is the finite T x T Hermitian PSD matrix at node j; the sampled
    function must satisfy value(-lambda) = value(lambda)^T up to 1e-10
    (relative), the frequency-domain footprint of a real sequence.
    """

    def __init__(self, grid: FrequencyGrid, values: np.ndarray, validate: bool = True):
        values = np.ascontiguousarray(values, dtype=complex)
        if values.ndim == 1:
            values = values.reshape(-1, 1, 1)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValidationError("density values must have shape (n_grid, T, T)")
        if values.shape[0] != grid.n_grid:
            raise ValidationError("density values do not match the grid size")
        self.grid = grid
        self.values = values
        if validate:
            self._validate()

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def _validate(self, values=None):
        values = self.values if values is None else values
        n, blocks = len(values), node_blocks(len(values), values[0].nbytes)
        top = float(np.max([np.max(np.abs(values[nodes])) for nodes in blocks]))
        if not np.isfinite(top):  # NaN, and inf - inf, fail every comparison below
            raise ValidationError("density has a non-finite value")
        herm_err, sym_err, herm_finite = 0.0, 0.0, True
        with np.errstate(over="ignore"):  # near the largest double a difference or sum is inf
            for nodes in blocks:  # the mirror of the block pairs node j with n - 1 - j
                block, mirror = values[nodes], values[n - nodes.stop:n - nodes.start][::-1]
                herm_err = max(herm_err, np.max(np.abs(block - block.conj().transpose(0, 2, 1))))
                sym_err = max(sym_err, np.max(np.abs(mirror - block.transpose(0, 2, 1))))
                herm_finite = herm_finite and (
                    values.shape[-1] == 1 or top <= np.finfo(float).max / 2
                    or np.all(np.isfinite(block + np.conj(np.swapaxes(block, -1, -2)))))
        if herm_err > PSD_TOL * top:
            raise ValidationError(f"density is not Hermitian (error {herm_err:.3e})")
        if sym_err > PSD_TOL * top:
            raise ValidationError(
                f"density violates value(-l) = value(l)^T (error {sym_err:.3e})"
            )
        if not herm_finite:  # eigvalsh gives NaN for it, and NaN passes the PSD test
            raise ValidationError("density has a Hermitian part that overflows")
        if values.shape[-1] == 1 or not _factors(values, -0.5 * PSD_TOL * top):
            min_eig = float(np.min([np.min(hermitian_eigenvalues(values[nodes]))
                                    for nodes in blocks]))
            if min_eig < -PSD_TOL * top:
                raise ValidationError(f"density has eigenvalue {min_eig:.3e} below tolerance")

    @classmethod
    def constant(cls, grid: FrequencyGrid, matrix) -> "DensityGrid":
        """n_grid copies of one matrix, validated once: equal copies have one copy's maxima."""
        matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
        values = np.broadcast_to(matrix, (grid.n_grid,) + matrix.shape).copy()
        density = cls(grid, values, validate=False)
        density._validate(density.values[:1])
        return density

    @classmethod
    def from_scalar_samples(cls, grid: FrequencyGrid, samples: np.ndarray) -> "DensityGrid":
        return cls(grid, np.asarray(samples, dtype=complex).reshape(-1, 1, 1))

    @classmethod
    def zero(cls, grid: FrequencyGrid, dim: int) -> "DensityGrid":
        return cls(grid, np.zeros((grid.n_grid, dim, dim), dtype=complex), validate=False)


@dataclass(frozen=True)
class DensityModel:
    """Closed-form density that can be sampled on any grid.

    kind 'constant': params {'matrix': (T,T)}
    kind 'rational': scalar ratio scale * |num(e^{-il})|^2 / |den(e^{-il})|^2,
        params {'numerator': [...], 'denominator': [...], 'scale': float};
        the denominator must have no roots on the unit circle.
    kind 'fm': fractional seasonal product form applied to a base model,
        params {'spec': FMIncrementSpec, 'base': DensityModel}.
    kind 'matrix_ma': H(e^{-il}) H(e^{-il})^* for a matrix polynomial H with
        real coefficient matrices, params {'coefficients': [(T,T), ...]}.
    kind 'zero': params {'dim': T}.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def evaluate(self, grid: FrequencyGrid) -> DensityGrid:
        if self.kind == "constant":
            return DensityGrid.constant(grid, self.params["matrix"])
        if self.kind == "zero":
            return DensityGrid.zero(grid, int(self.params.get("dim", 1)))
        if self.kind == "rational":
            num = np.asarray(self.params.get("numerator", [1.0]), dtype=float)
            den = np.asarray(self.params.get("denominator", [1.0]), dtype=float)
            scale = float(self.params.get("scale", 1.0))
            if scale < 0:
                raise ValidationError("rational density scale must be >= 0")
            _check_unit_circle_roots(den, grid)
            z = np.exp(-1j * grid.nodes)
            num_v = np.polyval(num[::-1], z)
            den_v = np.polyval(den[::-1], z)
            with np.errstate(over="ignore"):  # an overflow is refused as non-finite
                vals = scale * np.abs(num_v) ** 2 / np.abs(den_v) ** 2
            return DensityGrid.from_scalar_samples(grid, vals)
        if self.kind == "fm":
            base = self.params["base"].evaluate(grid)
            return fm_density(self.params["spec"], base, grid)
        if self.kind == "matrix_ma":
            coeffs = [np.atleast_2d(np.asarray(c, dtype=float))
                      for c in self.params["coefficients"]]
            z = np.exp(-1j * grid.nodes)
            T = coeffs[0].shape[0]
            if any(c.shape != (T, T) for c in coeffs):
                raise ValidationError("matrix_ma coefficients must be square and of one size")
            values = np.empty((grid.n_grid, T, T), dtype=complex)
            for nodes in node_blocks(grid.n_grid, values[0].nbytes):
                H = sum((z[nodes] ** k)[:, None, None] * ck for k, ck in enumerate(coeffs))
                np.matmul(H, H.conj().transpose(0, 2, 1), out=values[nodes])
            return DensityGrid(grid, values)
        raise ValidationError(f"unknown density model kind {self.kind!r}")


def _check_unit_circle_roots(den: np.ndarray, grid: FrequencyGrid):
    """Reject denominators with roots on the unit circle.

    The refined-grid modulus check alone misses roots sitting exactly at
    seasonal frequencies (midpoint grids dodge them), so the companion
    matrix roots are checked as well.  The smallest modulus on the refined
    grid, which it returns, is compared with sum|den|, a bound of |den| on the
    circle; the points go in node blocks, at about eight complex temporaries a point.
    """
    n, smallest = min(16 * grid.n_grid, 1 << 20), np.inf
    for points in node_blocks(n, 8 * 16):
        lam = -np.pi + (np.arange(points.start, points.stop) + 0.5) * (2 * np.pi / n)
        smallest = min(smallest, float(np.min(np.abs(np.polyval(den[::-1], np.exp(-1j * lam))))))
    if smallest <= 1e-8 * float(np.sum(np.abs(den))):
        raise ValidationError("rational density denominator has a root on the unit circle")
    if len(den) > 1 and np.any(den[1:] != 0):
        roots = np.roots(den[::-1])
        if roots.size and float(np.min(np.abs(np.abs(roots) - 1.0))) <= 1e-6:
            raise ValidationError("rational density denominator has a root on the unit circle")
    return smallest


def fm_density(spec: FMIncrementSpec, base: DensityGrid, grid: FrequencyGrid) -> DensityGrid:
    """Density of the integer-differenced sequence under a fractional model.

    f(l) = |beta_R(il)|^2 |chi_R(e^{-il})|^{-2}
           * prod_nu |(e^{-i nu} - e^{il})(e^{i nu} - e^{il})|^{-2 Dtilde_nu}
           * base(l)

    The fractional part must be stationary; base eigenvalues must stay
    inside BASE_DENSITY_BOUNDS on the grid.
    """
    report = classify_stationarity(spec)
    if not report.stationary:
        bad = [f"D_nu={p.d_nu:+.3f} at nu={p.nu:.6f}" for p in report.per_nu if not p.stationary]
        raise ValidationError("fractional spec is not stationary: " + "; ".join(bad))
    if base.grid is not grid and base.grid.n_grid != grid.n_grid:
        raise ValidationError("base density grid does not match the target grid")

    eigs = hermitian_eigenvalues(base.values)
    eig_min, eig_max = float(np.min(eigs)), float(np.max(eigs))
    lo, hi = BASE_DENSITY_BOUNDS
    if eig_min < lo or eig_max > hi:
        raise ValidationError(
            f"base density eigenvalues [{eig_min:.3e}, {eig_max:.3e}] leave the "
            f"enforced bounds [{lo:.0e}, {hi:.0e}]"
        )

    lam = grid.nodes
    s_int, r_int = spec.integer_orders()
    chi_r, beta_r = _chi_beta(s_int, (1,) * len(s_int), r_int, lam)
    log_weight = np.zeros_like(lam)
    if any(r > 0 for r in r_int):
        log_weight += 2.0 * np.log(np.abs(beta_r)) - 2.0 * np.log(np.abs(chi_r))
    for entry in frequency_set(spec).entries:
        if entry.d_tilde == 0.0:
            continue
        factor = np.abs((np.exp(-1j * entry.nu) - np.exp(1j * lam)) *
                        (np.exp(1j * entry.nu) - np.exp(1j * lam)))
        log_weight -= 2.0 * entry.d_tilde * np.log(factor)
    weight = np.exp(log_weight)
    values = weight[:, None, None] * base.values
    return DensityGrid(grid, values)


def _combine(f: DensityGrid, g: DensityGrid, beta2: np.ndarray) -> DensityGrid:
    if f.dim != g.dim or f.grid.n_grid != g.grid.n_grid:
        raise ValidationError("signal and noise densities have mismatched dimensions")
    values = f.values + beta2[:, None, None] * g.values
    return DensityGrid(f.grid, values, validate=False)


@dataclass(frozen=True)
class MinimalityReport:
    value: float
    refined_value: float
    is_minimal: bool


def inverse_density(p: DensityGrid) -> np.ndarray:
    """Nodewise inverse of p with a singularity check."""
    vals = p.values
    scale = float(np.max(np.abs(vals)))
    if p.dim == 1 or not _factors(vals, 2.0 * INVERTIBILITY_FLOOR * scale):
        eigs = hermitian_eigenvalues(vals)
        if float(np.min(eigs)) <= INVERTIBILITY_FLOOR * scale:
            raise SingularDensityError("minimality violated (singular density)")
        if p.dim == 1:
            return (1.0 / eigs)[..., None].astype(complex)
    return np.linalg.inv(vals)


def minimality_value(spec: GMIncrementSpec, f: DensityGrid, g: DensityGrid) -> MinimalityReport:
    """Weighted-trace integral whose finiteness keeps interpolation nontrivial.

    value = (1/2pi) int Tr[ |beta|^2 / |chi|^2 * (f + |beta|^2 g)^{-1} ] dl

    Divergence signature: the integral is re-evaluated on the doubled grid,
    with the weight recomputed exactly and p carried over by periodic linear
    interpolation (the weight owns the poles, p is smooth at that scale).
    A > 5% gap between the two values flags a non-minimal configuration.
    """
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, f.grid.nodes)
    beta2 = np.abs(beta) ** 2
    p = _combine(f, g, beta2)
    return _minimality(spec, beta2 / np.abs(chi) ** 2, p, inverse_density(p))


def _minimality(spec: GMIncrementSpec, weight: np.ndarray, p: DensityGrid,
                p_inv: np.ndarray) -> MinimalityReport:
    """The minimality report for the weight |beta|^2 / |chi|^2 sampled on the grid of p."""
    lam = p.grid.nodes
    integrand = weight * np.trace(p_inv, axis1=1, axis2=2).real
    value = float(np.mean(integrand))

    # refined point j sits at -Delta/4 from node j and point n + j at +Delta/4; each
    # weighs its node by 3/4 and the neighbour on its side by 1/4
    n, delta = p.grid.n_grid, 2.0 * np.pi / p.grid.n_grid
    lam_fine = (lam + [[-delta / 4.0], [delta / 4.0]]).ravel()
    chi_f, beta_f = _chi_beta(spec.s, spec.mu, spec.d, lam_fine)
    trace_inv = np.empty(2 * n)
    for points in node_blocks(2 * n, p.values[0].nbytes):
        i = np.arange(points.start, points.stop)
        half = 0.75 * p.values.take(i, 0, mode="wrap") \
            + 0.25 * p.values.take(i + np.where(i < n, -1, 1), 0, mode="wrap")
        trace_inv[points] = (1.0 / half[:, 0, 0].real if p.dim == 1
                             else np.trace(np.linalg.inv(half), axis1=1, axis2=2).real)
    fine = float(np.mean(np.abs(beta_f) ** 2 / np.abs(chi_f) ** 2 * trace_inv))

    is_minimal = abs(fine - value) <= 0.05 * max(abs(value), abs(fine))
    return MinimalityReport(value=value, refined_value=fine, is_minimal=is_minimal)
