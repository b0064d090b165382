"""Mean-square optimal interpolation with exactly known spectral densities.

Pipeline: lift periodic scalar problems to vector form, transform the target
weights, assemble the block Fourier matrices of the projection equations,
solve for the polynomial coefficients c, form the spectral characteristic h
on the grid from c (as every minimax ascent step does), and compute the
error by two independent routes (a quadratic form in the solved system, and
direct quadrature of the error spectra).
``fourier_blocks`` forms the observed density p = f + |beta|^2 g and p^{-1}
once per pair and keeps them on its ``FourierBlocks`` for the later stages,
and transforms the three kernels one at a time in one reused buffer, so that no large
transient raises the allocator's mmap threshold; with zero noise it transforms P alone.
Q's f p^{-1} g and h's noise term go in ``spectra.node_blocks``; sums and FFTs stay whole.

Row/column convention: the projection equations are naturally row-vector
equations; the stacked linear system stores their transposes, so the P and T
kernels are transposed at block placement.  P stays Hermitian.
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from .errors import MseInconsistencyError, NumericalError, ValidationError, WeightScaleError
from .increments import GMIncrementSpec, expand_operator, inverse_series
from .spectra import (
    DensityGrid,
    FrequencyGrid,
    MinimalityReport,
    _chi_beta,
    _combine,
    _minimality,
    inverse_density,
    node_blocks,
)

CONDITION_WARN_THRESHOLD = 1e12
MSE_CONSISTENCY_RTOL = 1e-6


class FunctionalSpec:
    """Target functional sum_k a(k)^T xi(k) over the unobserved block 0..N."""

    def __init__(self, N: int, a):
        self.N = N
        self.a = a = np.atleast_2d(np.asarray(a, dtype=float))  # (N+1, T)
        if N < 0 or a.shape[0] != N + 1:
            raise ValidationError("weight list must have N+1 entries")

    @property
    def dim(self) -> int:
        return self.a.shape[1]


class PeriodicFunctionalSpec:
    """Scalar functional sum_{k=0}^{M} a_scalar(k) theta(k) with period T."""

    def __init__(self, M: int, T: int, a_scalar):
        self.M, self.T = M, T
        self.a_scalar = a = np.asarray(a_scalar, dtype=float).reshape(-1)
        if M < 0 or T < 1:
            raise ValidationError("require M >= 0 and T >= 1")
        if a.shape[0] != M + 1:
            raise ValidationError("scalar weights must have M+1 entries")


def lift_periodic(p: PeriodicFunctionalSpec) -> FunctionalSpec:
    """Block a scalar periodic problem into vector weights (zero-padded tail)."""
    N = p.M // p.T
    a = np.zeros((N + 1, p.T))
    for k in range(p.M + 1):
        a[k // p.T, k % p.T] = p.a_scalar[k]
    return FunctionalSpec(N=N, a=a)


def transform_b(spec: GMIncrementSpec, fspec: FunctionalSpec) -> np.ndarray:
    """Differenced-target weights b(k) = sum_{m>=k} d_mu(m-k) a(m), which must be finite."""
    d_mu = np.asarray(inverse_series(spec, fspec.N), dtype=float)
    k = np.arange(fspec.N + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.triu(d_mu[np.abs(k[None, :] - k[:, None])]) @ fspec.a
    if not np.all(np.isfinite(b)):
        raise WeightScaleError("the differenced target weights overflow")
    return b


def _operator_correlation(spec: GMIncrementSpec, x: np.ndarray) -> np.ndarray:
    """Correlation sum_{0 <= l-m <= n_gamma} e(l-m) x(l) of the operator e with x.

    x(l), l = 0 .. N, are the rows of ``x``; row m + n_gamma of the result
    holds m = -n_gamma .. N.
    """
    e = np.asarray(expand_operator(spec), dtype=float)
    ng = spec.n_gamma()
    lag = np.arange(x.shape[0])[None, :] - np.arange(-ng, x.shape[0])[:, None]
    inside = (lag >= 0) & (lag <= ng)
    return np.where(inside, e[np.clip(lag, 0, ng)], 0.0) @ x


def coeffs_a_mu(spec: GMIncrementSpec, fspec: FunctionalSpec) -> np.ndarray:
    """Shifted convolution of the weights with the reversed operator expansion.

    a_minus(m) = sum_{l=max(m,0)}^{min(m+n_gamma, N)} e(l-m) a(l) for
    m = -n_gamma .. N, returned shifted to indices 0 .. N+n_gamma.
    """
    return _operator_correlation(spec, fspec.a)


def v_coeffs(spec: GMIncrementSpec, b: np.ndarray) -> np.ndarray:
    """Initial-value weights v(k) = sum_{l=0}^{min(N, k+n_gamma)} e(l-k) b(l).

    Row i of the result is v(-(i+1)), i.e. ordered k = -1, -2, ..., -n_gamma.
    """
    return _operator_correlation(spec, b)[spec.n_gamma() - 1::-1]


class Problem:
    """What the densities of an interpolation problem (spec, fspec) never change.

    chi, beta and beta2 = |beta|^2 are the operator symbol, its weight and the
    weight of g in p on the grid; b the differenced-target weights, A and B the
    row polynomials of a and b, a_mu the noise-side weights.  Each is built
    once here and read by every solve, oracle table and minimax step.
    """

    def __init__(self, spec: GMIncrementSpec, fspec: FunctionalSpec, grid: FrequencyGrid):
        self.spec, self.fspec, self.grid = spec, fspec, grid
        self.chi, self.beta = _chi_beta(spec.s, spec.mu, spec.d, grid.nodes)
        self.beta2 = np.abs(self.beta) ** 2
        self.b = transform_b(spec, fspec)
        self.A, self.B = _row_polynomial(fspec.a, grid), _row_polynomial(self.b, grid)
        self.a_mu = coeffs_a_mu(spec, fspec)

    # each weight ratio is formed as written: the reciprocal of the other rounds differently

    @cached_property
    def w(self) -> np.ndarray:
        """|chi|^2 / |beta|^2: weighs the observed density and every f-side budget."""
        return np.abs(self.chi) ** 2 / self.beta2

    @cached_property
    def w_inv(self) -> np.ndarray:
        """|beta|^2 / |chi|^2: weighs the P and T kernels and the minimality integral."""
        return self.beta2 / np.abs(self.chi) ** 2


class FourierBlocks:
    """Stacked blocks of the projection equations and their densities; T = Q = 0 if g is 0."""

    def __init__(self, P: np.ndarray, T: np.ndarray, Q: np.ndarray, p: DensityGrid,
                 p_inv: np.ndarray):
        self.P = P  # ((N+ng+1)T, (N+ng+1)T) Hermitian
        self.T = T  # ((N+ng+1)T, (N+ng+1)T)
        self.Q = Q  # ((N+1)T, (N+1)T) Hermitian
        self.p = p  # observed density f + |beta|^2 g
        self.p_inv = p_inv  # (n_grid, T, T), p^{-1} node by node


def _block_toeplitz(coeffs: np.ndarray, size: int, dim: int, index,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Assemble a (size*dim)^2 matrix of the dtype of ``coeffs`` from per-offset T x T blocks.

    ``coeffs`` maps offsets -(size-1)..(size-1) (offset m at position
    m + size - 1); ``index(j, k)`` gives the offset used for block (j, k)
    and is evaluated once on a column and a row of block indices.  The
    matrix is written into ``out`` when given (any 2-D view, such as the
    leading block of a larger buffer), one entry (a, b) of every block at a
    time, so no (size*dim)^2 temporary is made.
    """
    coeffs = np.asarray(coeffs)
    if out is None:
        out = np.empty((size * dim, size * dim), dtype=coeffs.dtype)
    blocks = np.arange(size)
    offsets = index(blocks[:, None], blocks[None, :]) + size - 1
    grid = out.reshape(size, dim, size, dim)
    for a in range(dim):
        for b in range(dim):
            grid[:, a, :, b] = coeffs[:, a, b].take(offsets)
    return out


def _nodewise(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b node by node; a plain product when the values are 1 x 1."""
    return (np.multiply if a.shape[1:] == b.shape[1:] == (1, 1) else np.matmul)(a, b, out=out)


def fourier_blocks(prob: Problem, f: DensityGrid, g: DensityGrid) -> FourierBlocks:
    """Fourier-coefficient block matrices P, T, Q of the linear system.

    Kernels (before the row-to-column transpose):
        P: (|beta|^2 / |chi|^2) p^{-1}
        T: (-1)^{sum d} (|beta|^2 / |chi|^2) g p^{-1}
        Q: f p^{-1} g
    Each is sampled nodewise into one (n, T, T) buffer in P, T, Q order,
    checked for finite values and transformed by one FFT in place; the
    coefficients are a copy, so the buffer takes the next kernel.  g is a factor
    of T and Q: if no value of g is nonzero (NaN and inf are), both are zero blocks
    and P is the only kernel.  Blocks depend on the index offset only.  No transient
    outgrows a kernel: one large transient, once freed, would raise glibc's mmap
    threshold and keep every later array below it on the heap.  The symbols come
    from the problem; p and p^{-1} are kept on the result for the later stages.
    """
    grid, spec, N = f.grid, prob.spec, prob.fspec.N
    ng = spec.n_gamma()
    dim = f.dim
    size = N + ng + 1
    p = _combine(f, g, prob.beta2)
    p_inv = inverse_density(p)
    w = prob.w_inv[:, None, None]
    sign = -1.0 if spec.total_order() % 2 else 1.0
    offsets = np.arange(-(size - 1), size)
    kern = np.empty(p_inv.shape, dtype=complex)

    def transform(name: str) -> np.ndarray:
        if not np.all(np.isfinite(kern)):
            bad = np.argwhere(~np.isfinite(kern))[0][0]
            raise NumericalError(f"non-finite {name} integrand at node {bad} "
                                 f"(lambda={grid.nodes[bad]:.6f})")
        return grid.fourier(kern, offsets, in_place=True)

    np.multiply(w, p_inv, out=kern)
    P = _block_toeplitz(transform("P").transpose(0, 2, 1), size, dim, lambda j, k: k - j)
    if not g.values.any():  # g is a factor of both kernels; NaN and inf count as nonzero
        Q = np.zeros(((N + 1) * dim,) * 2, dtype=complex)
        return FourierBlocks(P=P, T=np.zeros_like(P), Q=Q, p=p, p_inv=p_inv)
    _nodewise(g.values, p_inv, out=kern)
    kern *= sign * w
    T = _block_toeplitz(transform("T").transpose(0, 2, 1), size, dim, lambda j, k: k - j)
    for nodes in node_blocks(len(p_inv), p_inv[0].nbytes):  # numpy buffers an overlapping out
        fp = _nodewise(f.values[nodes], p_inv[nodes], out=kern[nodes])
        _nodewise(fp, g.values[nodes], out=fp)
    Q = _block_toeplitz(transform("Q")[ng:len(offsets) - ng], N + 1, dim, lambda j, k: j - k)
    return FourierBlocks(P=P, T=T, Q=Q, p=p, p_inv=p_inv)


def padded_b(b: np.ndarray, n_gamma: int) -> np.ndarray:
    """b extended by n_gamma zero vectors, flattened for the stacked system."""
    dim = b.shape[1]
    out = np.zeros(((b.shape[0] + n_gamma) * dim,), dtype=complex)
    out[: b.size] = b.reshape(-1)
    return out


class SystemSolution:
    def __init__(self, c: np.ndarray, rhs: np.ndarray, condition_number: float,
                 residual: float):
        self.c = c      # (N+ng+1, T), the coefficients of h's C-term
        self.rhs = rhs  # stacked right-hand side [b]_+ - T a_mu
        self.condition_number = condition_number
        self.residual = residual


def solve_system(blocks: FourierBlocks, b: np.ndarray, a_mu: np.ndarray) -> SystemSolution:
    """Solve P c = [b]_+ - T a_mu; reports conditioning and residual."""
    parts = np.stack([padded_b(b, len(a_mu) - len(b)),
                      blocks.T @ a_mu.reshape(-1).astype(complex)], axis=1)
    rhs = parts[:, 0] - parts[:, 1]
    # P is Hermitian: its singular values are the moduli of its eigenvalues
    moduli = np.abs(np.linalg.eigvalsh(blocks.P))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = float(moduli.max() / moduli.min())
    if not np.isfinite(cond):
        raise NumericalError("singular projection matrix P")
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"projection matrix condition number {cond:.3e} exceeds 1e12",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        # two right-hand sides, differenced after the solve: c keeps the bits of
        # P^{-1}[b]_+ - P^{-1} T a_mu, on which every pinned result rests
        c12 = np.linalg.solve(blocks.P, parts)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular projection matrix P") from exc
    c_flat = c12[:, 0] - c12[:, 1]
    residual = float(np.linalg.norm(blocks.P @ c_flat - rhs))
    return SystemSolution(c=c_flat.reshape(a_mu.shape), rhs=rhs, condition_number=cond,
                          residual=residual)


def _row_polynomial(coeffs: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Evaluate sum_k coeffs[k] e^{i k lambda_j} on the grid nodes -> (n, T).

    On the midpoint grid lambda_j = -pi + (j + 1/2) 2pi/n the sum is
    n * ifft(coeffs[k] e^{ik(-pi + pi/n)})[j], one zero-padded FFT per
    column.  Twiddled coefficients beyond n fold onto k mod n, which is
    exact because the remaining factor e^{2pi i kj/n} has period n in k.
    """
    n = grid.n_grid
    coeffs = np.asarray(coeffs)
    k = np.arange(coeffs.shape[0])
    twiddled = coeffs * np.exp(1j * k * (-np.pi + np.pi / n))[:, None]
    if len(k) > n:
        folds = -(-len(k) // n)
        padded = np.zeros((folds * n, coeffs.shape[1]), dtype=complex)
        padded[: len(k)] = twiddled
        twiddled = padded.reshape(folds, n, -1).sum(axis=0)
    return n * np.fft.ifft(twiddled, n=n, axis=0)


def _solve(prob: Problem, f: DensityGrid, g: DensityGrid) -> tuple[FourierBlocks, SystemSolution]:
    """The blocks of the densities (f, g) and the solved system."""
    blocks = fourier_blocks(prob, f, g)
    return blocks, solve_system(blocks, prob.b, prob.a_mu)


def _characteristic(prob: Problem, g_vals: np.ndarray, p_inv: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
    """Frequency response h of the optimal estimate, from the solved coefficients c.

    h^T = B^T chi/beta - A^T g conj(beta) p^{-1}
          - C^T (conj(beta)/conj(chi)) p^{-1}
    """
    target_term = prob.B * (prob.chi / prob.beta)[:, None]
    noise_term = np.empty(prob.A.shape, dtype=complex)
    for nodes in node_blocks(len(p_inv), p_inv[0].nbytes):
        np.einsum("nt,nts->ns", prob.A[nodes], _nodewise(g_vals[nodes], p_inv[nodes]),
                  out=noise_term[nodes])
    noise_term *= np.conj(prob.beta)[:, None]
    # a named weight: numpy multiplies a large temporary in place, with the complex
    # operands swapped, and a swapped product can round differently in the last bit
    c_weight = (np.conj(prob.beta) / np.conj(prob.chi))[:, None]
    c_term = np.einsum("nt,nts->ns", _row_polynomial(c, prob.grid), p_inv) * c_weight
    return target_term - noise_term - c_term


def spectral_characteristic(prob: Problem, f: DensityGrid, g: DensityGrid,
                            c: np.ndarray) -> np.ndarray:
    """``_characteristic`` of the densities (f, g) with the coefficients c."""
    return _characteristic(prob, g.values, fourier_blocks(prob, f, g).p_inv, c)


def _error_rows(prob: Problem, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error responses r_f = B^T chi/beta - h^T and r_g = B^T chi - A^T - beta h^T."""
    h = np.asarray(h, dtype=complex)
    r_f = prob.B * (prob.chi / prob.beta)[:, None] - h
    r_g = prob.B * prob.chi[:, None] - prob.A - prob.beta[:, None] * h
    return r_f, r_g


def mse_of_characteristic(prob: Problem, f: DensityGrid, g: DensityGrid, h: np.ndarray) -> float:
    """Error energy of an arbitrary frequency response h against (f, g).

    (1/2pi) int r_f f r_f^H + (1/2pi) int r_g g r_g^H with
    r_f = B^T chi/beta - h^T and r_g = B^T chi - A^T - beta h^T.
    Linear in (f, g); h = 0 gives the raw variance of the target.
    """
    return _error_energy(_error_rows(prob, h), f.values, g.values)


def _error_energy(rows, f_vals: np.ndarray, g_vals: np.ndarray) -> float:
    """``mse_of_characteristic`` on the error rows (r_f, r_g) of its h."""
    r_f, r_g = rows
    term_f = np.einsum("nt,nts,ns->n", r_f, f_vals, np.conj(r_f))
    term_g = np.einsum("nt,nts,ns->n", r_g, g_vals, np.conj(r_g))
    total = np.mean(term_f + term_g)
    if abs(total.imag) > 1e-8 * abs(total.real):
        raise NumericalError(f"error energy has non-negligible imaginary part {total.imag:.3e}")
    return float(total.real)


def _check_weight_scale(prob: Problem, f: DensityGrid, g: DensityGrid) -> None:
    """Refuse weights whose squares underflow, or whose error energy on (f, g) at h = 0 (the
    target's variance) overflows or is subnormal.  These two underflow bounds are the only
    absolute ones of the checks: below the smallest normal double an error loses its digits.
    A zero energy is left to the solve, which calls zero densities singular."""
    top = float(np.max(np.abs(prob.fspec.a)))
    if 0 < top and top * top < np.finfo(float).tiny:
        raise WeightScaleError("the squares of the weights underflow")
    with np.errstate(over="ignore", invalid="ignore"):
        energy = mse_of_characteristic(prob, f, g, 0.0)
    if not np.isfinite(energy):
        raise WeightScaleError("the error energy of the weights overflows")
    if 0 < energy < np.finfo(float).tiny:
        raise WeightScaleError("the error energy of the weights underflows")


def _algebraic_mse(blocks: FourierBlocks, sol: SystemSolution, a: np.ndarray) -> float:
    """Error read off the solved system: <rhs, c> + <Q a, a>."""
    a_flat = a.reshape(-1).astype(complex)
    return float((np.vdot(sol.c.reshape(-1).astype(complex), sol.rhs)
                  + np.vdot(a_flat, blocks.Q @ a_flat)).real)


class InterpolationSolution:
    """Everything the exact interpolation produces for one problem."""

    def __init__(self, spec: GMIncrementSpec, fspec: FunctionalSpec, c, v, h, delta: float,
                 delta_spectral: float, b, a_mu, condition_number: float, residual: float,
                 minimality: MinimalityReport, grid: FrequencyGrid | None = None):
        self.spec = spec
        self.fspec = fspec
        self.c = c        # (N+ng+1, T)
        self.v = v        # (ng, T), rows are k = -1 .. -ng
        self.h = h        # (n_grid, T)
        self.delta = delta
        self.delta_spectral = delta_spectral
        self.b = b        # (N+1, T)
        self.a_mu = a_mu  # (N+ng+1, T)
        self.condition_number = condition_number
        self.residual = residual
        self.minimality = minimality
        self.grid = grid


def solve_interpolation(
    spec: GMIncrementSpec,
    f: DensityGrid,
    g: DensityGrid,
    fspec: FunctionalSpec,
) -> InterpolationSolution:
    """Run the full pipeline for known densities (f, g)."""
    return _interpolate(Problem(spec, fspec, f.grid), f, g)


def _interpolate(prob: Problem, f: DensityGrid, g: DensityGrid) -> InterpolationSolution:
    """``solve_interpolation`` on a problem whose quantities are built already."""
    spec, fspec = prob.spec, prob.fspec
    if f.dim != fspec.dim:
        raise ValidationError("functional dimension does not match the densities")
    _check_weight_scale(prob, f, g)
    blocks, sol = _solve(prob, f, g)
    minimality = _minimality(spec, prob.w_inv, blocks.p, blocks.p_inv)
    h = _characteristic(prob, g.values, blocks.p_inv, sol.c)
    # the algebraic error next to the spectral one: they must agree to 1e-6 relative
    spectral = mse_of_characteristic(prob, f, g, h)
    delta_alg = _algebraic_mse(blocks, sol, fspec.a)
    scale, difference = max(abs(delta_alg), abs(spectral), 1e-300), abs(delta_alg - spectral)
    if difference > MSE_CONSISTENCY_RTOL * scale:
        raise MseInconsistencyError(
            f"MSE routes disagree: algebraic {delta_alg!r} vs spectral {spectral!r}")
    if delta_alg < -1e-10 * scale:
        raise NumericalError(f"negative interpolation error {delta_alg!r}")
    return InterpolationSolution(
        spec=spec,
        fspec=fspec,
        c=sol.c,
        v=v_coeffs(spec, prob.b),
        h=h,
        delta=max(delta_alg, 0.0),
        delta_spectral=spectral,
        b=prob.b,
        a_mu=prob.a_mu,
        condition_number=sol.condition_number,
        residual=sol.residual,
        minimality=minimality,
        grid=f.grid,
    )
