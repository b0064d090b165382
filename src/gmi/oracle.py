"""Brute-force ground truth by finite-window covariance projection.

The closed-form error is checked against an independent route: build the
covariance matrix of finitely many observed differenced values, project the
target on their span with a pseudo-inverse, and watch the truncated error
converge from above as the window grows.

The Gram matrix is the grid quadrature (1/n) sum_j u_j u_j^H (x) phi_j of the
observed density samples phi_j = (|chi|^2/|beta|^2) p at the n nodes, with
u_j = (e^{i k lambda_j})_k over the observed indices k.  When the indices
span less than the grid, no two of them alias, the matrix with columns
u_j / sqrt(n) has orthonormal rows, and by interlacing the eigenvalues of
every window lie in [min_j eigmin(phi_j), max_j eigmax(phi_j)].  If that
floor is above the pseudo-inverse cutoff times the ceiling, every window is
positive definite and the cutoff drops nothing, so the whole error table
comes from one Cholesky factor of the largest window.  Any other input is
projected window by window through an eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import FunctionalSpec, Problem, _block_toeplitz, mse_of_characteristic
from .errors import NumericalError, ValidationError
from .increments import GMIncrementSpec
from .spectra import DensityGrid, _combine

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
    # lower bound on the eigenvalues of the Gram and of every window inside it,
    # certified above PINV_RCOND times their upper bound; None when not certified
    eig_floor: float | None = None


def _certified_floor(phi: np.ndarray, span: int, n_grid: int) -> float | None:
    """min_j eigmin(phi_j) when it bounds every window away from the cutoff.

    Needs span < n_grid (no aliasing, so interlacing applies) and
    min_j eigmin(phi_j) > PINV_RCOND * max_j eigmax(phi_j); otherwise None.
    """
    if span >= n_grid:
        return None
    if phi.shape[1] == 1:
        vals = phi[:, 0, 0].real
    else:
        vals = np.linalg.eigvalsh(0.5 * (phi + phi.conj().transpose(0, 2, 1)))
    lo, hi = float(np.min(vals)), float(np.max(vals))
    return lo if lo > PINV_RCOND * hi else None


def gram_covariances(prob: Problem, f: DensityGrid, g: DensityGrid,
                     window: ObservationWindow) -> GramSystem:
    """Second moments among windowed observations and against the target.

    Observation blocks are the structural function of the combined density
    p = f + |beta|^2 g at the index differences; cross terms integrate the
    target's differenced and noise parts against each observation.
    """
    grid, chi, w = f.grid, prob.chi, prob.w
    idx = window.indices(prob.fspec.N, prob.spec.n_gamma())

    # R(m) for every difference m = idx[j] - idx[k], one FFT pass
    span = int(idx[-1] - idx[0]) if len(idx) else 0
    phi = w[:, None, None] * _combine(f, g, prob.beta).values
    r_coeffs = grid.fourier(phi, np.arange(-span, span + 1))
    shift = span - (len(idx) - 1)
    gram = _block_toeplitz(r_coeffs, len(idx), f.dim, lambda j, k: idx[j] - idx[k] + shift)
    gram = 0.5 * (gram + gram.conj().T)

    # cross_j = E[target conj(obs_j)] as rows, stacked conjugated for columns
    u1 = np.einsum("nt,nts->ns", prob.B, f.values) * w[:, None]
    u2 = np.einsum("nt,nts->ns", prob.B * chi[:, None] - prob.A, g.values) * np.conj(chi)[:, None]
    cross = np.conj(grid.fourier(u1 + u2, -idx)).reshape(-1)
    return GramSystem(gram=gram, cross=cross, target_var=mse_of_characteristic(prob, f, g, 0),
                      indices=idx, eig_floor=_certified_floor(phi, span, grid.n_grid))


def projection_mse(gs: GramSystem) -> float:
    """Truncated projection error target_var - cross^H gram^+ cross.

    One eigendecomposition gram = U diag(s) U^H checks that the Gram is PSD
    and gives the reduction sum_k |u_k^H cross|^2 / s_k over the eigenvalues
    with |s_k| > PINV_RCOND * max|s|, the cutoff of pinv(hermitian=True).
    """
    if gs.gram.shape[0] == 0:
        return gs.target_var
    s, u = np.linalg.eigh(gs.gram)
    scale = max(1.0, float(np.max(np.abs(gs.gram))))
    if s[0] < -1e-8 * scale:
        raise NumericalError(
            f"observation covariance not PSD (min eigenvalue {s[0]:.3e}); "
            "quadrature too coarse"
        )
    keep = np.abs(s) > PINV_RCOND * np.max(np.abs(s))
    coef = np.conj(gs.cross) @ u  # conj(u_k^H cross), same modulus
    reduction = np.sum(np.abs(coef[keep]) ** 2 / s[keep])
    return float(gs.target_var - reduction)


def convergence_table(
    spec: GMIncrementSpec,
    f: DensityGrid,
    g: DensityGrid,
    fspec: FunctionalSpec,
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE,
) -> list[tuple[int, float]]:
    """Projection error per window size, reusing one max-window Gram.

    The windows are nested.  When the Gram carries a certified eigenvalue
    floor (see the module docstring), the observations are ordered by
    distance from the gap, so that window L is the leading 2 L T rows.  The
    Cholesky factor of the Gram bordered by the cross vector,
    [[G, c], [c^H, t]] with t > |c|^2 / floor, has y^H in its last row,
    where C y = c and C is the factor of G; the factor of a leading block is
    the leading block of C, so the error of window L is target_var minus the
    sum of |y|^2 over the first 2 L T entries.  Otherwise each window's
    sub-Gram is selected by index and projected with ``projection_mse``.
    """
    return _table(Problem(spec, fspec, f.grid), f, g, schedule)


def _table(prob: Problem, f: DensityGrid, g: DensityGrid,
           schedule: tuple[int, ...]) -> list[tuple[int, float]]:
    """``convergence_table`` on a problem whose quantities are built already."""
    if len(schedule) == 0:
        return []
    gs = gram_covariances(prob, f, g, ObservationWindow(max(schedule)))
    if gs.eig_floor is not None:
        return _nested_rows(gs, schedule, f.dim)
    idx = gs.indices
    right_start = prob.fspec.N + prob.spec.n_gamma() + 1
    rows = []
    for L in schedule:
        keep = ((-L <= idx) & (idx <= -1)) | ((right_start <= idx) & (idx < right_start + L))
        sel = np.repeat(keep, f.dim)
        sub = GramSystem(gram=gs.gram[np.ix_(sel, sel)], cross=gs.cross[sel],
                         target_var=gs.target_var, indices=idx[keep])
        rows.append((L, projection_mse(sub)))
    return rows


def _nested_rows(gs: GramSystem, schedule: tuple[int, ...], dim: int) -> list[tuple[int, float]]:
    """Every window's error from one Cholesky factor of the bordered Gram."""
    L_max = len(gs.indices) // 2
    k = np.arange(1, L_max + 1)
    # positions of -k and of N+ng+k in [-L..-1, N+ng+1..N+ng+L], nearest first
    pos = np.stack([L_max - k, L_max + k - 1], axis=1).reshape(-1)
    perm = (pos[:, None] * dim + np.arange(dim)).reshape(-1)
    c = gs.cross[perm]
    c_norm2 = float(np.vdot(c, c).real)
    size = len(perm)
    bordered = np.empty((size + 1, size + 1), dtype=complex)
    bordered[:size, :size] = gs.gram[np.ix_(perm, perm)]
    bordered[:size, size] = c
    bordered[size, :size] = np.conj(c)
    bordered[size, size] = 2.0 * c_norm2 / gs.eig_floor + 1.0
    y_conj = np.linalg.cholesky(bordered)[size, :size]
    reduction = np.concatenate([[0.0], np.cumsum(np.abs(y_conj) ** 2)])
    return [(L, float(gs.target_var - reduction[2 * L * dim])) for L in schedule]
