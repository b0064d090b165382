"""Brute-force ground truth by finite-window covariance projection.

The closed-form error is checked against an independent route: build the
covariance matrix of finitely many observed differenced values, project the
target on their span with a pseudo-inverse, and watch the truncated error
converge from above as the window grows.  A seeded spectral sampler provides
Monte-Carlo sanity checks of the covariances themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import FunctionalSpec, _target, mse_of_characteristic
from .errors import NumericalError, ValidationError
from .increments import GMIncrementSpec
from .spectra import DensityGrid, _chi_beta, combine, structural_function

PINV_RCOND = 1e-10
DEFAULT_SCHEDULE = (1, 5, 10, 50, 100, 200)


@dataclass(frozen=True)
class ObservationWindow:
    """Observed increment indices [-L, -1] and [N+ng+1, N+ng+L]."""

    L: int

    def __post_init__(self):
        if self.L < 0:
            raise ValidationError("window half-length must be >= 0")

    def indices(self, N: int, n_gamma: int) -> np.ndarray:
        left = np.arange(-self.L, 0)
        right = np.arange(N + n_gamma + 1, N + n_gamma + 1 + self.L)
        return np.concatenate([left, right])


@dataclass
class GramSystem:
    gram: np.ndarray        # (|J| T, |J| T) Hermitian PSD
    cross: np.ndarray       # (|J| T,) covariance of observations with the target
    target_var: float
    indices: np.ndarray


def gram_covariances(
    spec: GMIncrementSpec,
    f: DensityGrid,
    g: DensityGrid,
    fspec: FunctionalSpec,
    window: ObservationWindow,
) -> GramSystem:
    """Second moments among windowed observations and against the target.

    Observation blocks are the structural function of the combined density
    p = f + |beta|^2 g at the index differences; cross terms integrate the
    target's differenced and noise parts against each observation.
    """
    grid = f.grid
    ng = spec.n_gamma()
    idx = window.indices(fspec.N, ng)
    dim = f.dim
    p = combine(f, g, spec)

    # R(m) for all occurring differences, one FFT pass
    if len(idx) > 0:
        span = int(idx.max() - idx.min())
        ms = np.arange(-span, span + 1)
        chi, beta = _chi_beta(spec.s, spec.mu, spec.d, grid.nodes)
        weight = (np.abs(chi) ** 2 / np.abs(beta) ** 2)[:, None, None]
        r_coeffs = grid.fourier(weight * p.values, ms)

        def R(m: int) -> np.ndarray:
            return r_coeffs[m + span]

        gram = np.empty((len(idx) * dim, len(idx) * dim), dtype=complex)
        for i, ki in enumerate(idx):
            for j, kj in enumerate(idx):
                gram[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = R(ki - kj)
        gram = 0.5 * (gram + gram.conj().T)
        scale = max(1.0, float(np.max(np.abs(gram))))
        min_eig = float(np.min(np.linalg.eigvalsh(gram)))
        if min_eig < -1e-8 * scale:
            raise NumericalError(
                f"observation covariance not PSD (min eigenvalue {min_eig:.3e}); "
                "quadrature too coarse"
            )

        # cross_j = E[target conj(obs_j)] as rows, stacked conjugated for columns
        t = _target(spec, fspec, grid, chi, beta)
        u1 = np.einsum("nt,nts->ns", t.B, f.values) * (np.abs(chi) ** 2 / np.abs(beta) ** 2)[:, None]
        u2 = np.einsum("nt,nts->ns", t.B * chi[:, None] - t.A, g.values) * np.conj(chi)[:, None]
        kappa = grid.fourier(u1 + u2, -idx)   # (|J|, T) rows E[H w(j)^H]
        cross = np.conj(kappa).reshape(-1)
    else:
        gram = np.zeros((0, 0), dtype=complex)
        cross = np.zeros((0,), dtype=complex)

    target_var = mse_of_characteristic(spec, f, g, fspec, np.zeros((grid.n_grid, dim)))
    return GramSystem(gram=gram, cross=cross, target_var=target_var, indices=idx)


def projection_mse(gs: GramSystem) -> float:
    """Truncated projection error target_var - cross^H gram^+ cross."""
    if gs.gram.shape[0] == 0:
        return gs.target_var
    pinv = np.linalg.pinv(gs.gram, rcond=PINV_RCOND, hermitian=True)
    reduction = np.vdot(gs.cross, pinv @ gs.cross).real
    return float(gs.target_var - reduction)


def convergence_table(
    spec: GMIncrementSpec,
    f: DensityGrid,
    g: DensityGrid,
    fspec: FunctionalSpec,
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE,
) -> list[tuple[int, float]]:
    """Projection error per window size, reusing one max-window Gram.

    The windows are nested, so sub-Grams are extracted by index selection.
    """
    if len(schedule) == 0:
        return []
    l_max = max(schedule)
    gs = gram_covariances(spec, f, g, fspec, ObservationWindow(l_max))
    dim = f.dim
    right_start = fspec.N + spec.n_gamma() + 1
    rows = []
    for L in schedule:
        keep_pos = [i for i, k in enumerate(gs.indices)
                    if (-L <= k <= -1) or (right_start <= k < right_start + L)]
        sel = np.concatenate([np.arange(i * dim, (i + 1) * dim) for i in keep_pos]) \
            if keep_pos else np.zeros((0,), dtype=int)
        sub = GramSystem(
            gram=gs.gram[np.ix_(sel, sel)],
            cross=gs.cross[sel],
            target_var=gs.target_var,
            indices=gs.indices[keep_pos],
        )
        rows.append((L, projection_mse(sub)))
    return rows


@dataclass
class SimulatedPath:
    increments: np.ndarray  # (length, T) observed differenced values chi zeta(k)
    noise: np.ndarray       # (length, T) noise values eta(k)


def _matrix_sqrt_psd(mats: np.ndarray) -> np.ndarray:
    """Hermitian square roots with eigenvalue clipping at zero."""
    vals, vecs = np.linalg.eigh(0.5 * (mats + mats.conj().transpose(0, 2, 1)))
    vals = np.clip(vals, 0.0, None)
    return vecs @ (np.sqrt(vals)[..., None] * vecs.conj().transpose(0, 2, 1))


def simulate_path(
    spec: GMIncrementSpec,
    f: DensityGrid,
    g: DensityGrid,
    length: int,
    seed: int,
    n_samples: int = 1,
) -> SimulatedPath:
    """Sample the observed differenced sequence and the noise jointly.

    Independent circular complex Gaussians on the half grid (conjugate
    pairing keeps time samples real) reproduce the grid-quadrature
    covariances exactly in expectation.  Deterministic per seed.

    With ``n_samples > 1`` the arrays gain a trailing sample axis.
    """
    grid = f.grid
    n = grid.n_grid
    if length > n // 4:
        raise ValidationError("path length must be at most n_grid / 4")
    rng = np.random.default_rng(seed)
    dim = f.dim
    half = n // 2
    nodes = grid.nodes[:half]
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, nodes)

    sqrt_f = _matrix_sqrt_psd(f.values[:half] / n)
    sqrt_g = _matrix_sqrt_psd(g.values[:half] / n)

    shape = (half, dim, n_samples)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    z_f = sqrt_f @ z
    z_g = sqrt_g @ w

    ks = np.arange(length)
    phases = np.exp(1j * np.outer(ks, nodes))                    # (length, half)
    v_obs = (chi / beta)[:, None, None] * z_f + chi[:, None, None] * z_g
    increments = 2.0 * np.real(np.einsum("kn,nts->kts", phases, v_obs))
    noise = 2.0 * np.real(np.einsum("kn,nts->kts", phases, z_g))
    if n_samples == 1:
        return SimulatedPath(increments=increments[..., 0], noise=noise[..., 0])
    return SimulatedPath(increments=increments, noise=noise)


def quadrature_covariance(
    spec: GMIncrementSpec, f: DensityGrid, g: DensityGrid, m: int
) -> np.ndarray:
    """Covariance of the observed differenced sequence at lag m."""
    return structural_function(spec, combine(f, g, spec), m)
