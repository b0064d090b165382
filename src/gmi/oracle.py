"""Brute-force ground truth by finite-window covariance projection.

The closed-form error is checked against an independent route: build the
covariance matrix of finitely many observed differenced values, project the
target on their span with a pseudo-inverse, and watch the truncated error
converge from above as the window grows.

The Gram matrix is the grid quadrature (1/n) sum_j u_j u_j^H (x) phi_j of the
observed density samples phi_j = (|chi|^2/|beta|^2) p at the n nodes, with
u_j = (e^{i k lambda_j})_k over the observed indices k.  The observed
sequence is real, so the densities satisfy phi(-lambda) = conj(phi(lambda))
on the symmetric grid and every covariance is real: the Gram and the cross
vector are real, and the Gram is real symmetric.  Its rows are in gap order,
nearest first (-1, N+ng+1, -2, N+ng+2, ...), so the window of half-length L
is the leading 2 L T rows.  When the indices span less than the grid, no two
of them alias, the matrix with columns u_j / sqrt(n) has orthonormal rows,
and by interlacing the eigenvalues of every window lie in
[min_j eigmin(phi_j), max_j eigmax(phi_j)].  If that floor is above the
pseudo-inverse cutoff times the ceiling, every window is positive definite
and the cutoff drops nothing, so the whole error table comes from one
Cholesky factor of the largest window.  Any other input is projected window
by window through an eigendecomposition.
"""

from __future__ import annotations

import numpy as np

from .classical import FunctionalSpec, Problem, _block_toeplitz, mse_of_characteristic
from .errors import NumericalError, ValidationError
from .increments import GMIncrementSpec
from .spectra import DensityGrid, _combine, hermitian_eigenvalues

PINV_RCOND = 1e-10
DEFAULT_SCHEDULE = (1, 5, 10, 50, 100, 200)


class ObservationWindow:
    """Observed increment indices [-L, -1] and [N+ng+1, N+ng+L]."""

    def __init__(self, L: int):
        if L < 0:
            raise ValidationError("window half-length must be >= 0")
        self.L = L

    def gap_order(self, N: int, n_gamma: int) -> np.ndarray:
        """The indices nearest the gap first: -1, N+ng+1, -2, N+ng+2, ..."""
        k = np.arange(1, self.L + 1)
        return np.stack([-k, N + n_gamma + k], axis=1).reshape(-1)


class GramSystem:
    def __init__(self, gram: np.ndarray, cross: np.ndarray, target_var: float,
                 indices: np.ndarray, eig_floor: float | None = None,
                 bordered: np.ndarray | None = None):
        self.gram = gram        # (|J| T, |J| T) real symmetric PSD, rows in gap order
        self.cross = cross      # (|J| T,) real covariance of each observation with the target
        self.target_var = target_var
        self.indices = indices  # observed indices in gap order, one per T rows
        # lower bound on the eigenvalues of the Gram and of every window inside it,
        # certified above PINV_RCOND times their upper bound; None when not certified
        self.eig_floor = eig_floor
        # (|J| T + 1)^2 buffer whose leading block is ``gram`` (a view); its last
        # row and column are left for the cross vector of ``_nested_rows``
        self.bordered = bordered


def _certified_floor(phi: np.ndarray, span: int, n_grid: int) -> float | None:
    """min_j eigmin(phi_j) when it bounds every window away from the cutoff.

    Needs span < n_grid (no aliasing, so interlacing applies) and
    min_j eigmin(phi_j) > PINV_RCOND * max_j eigmax(phi_j); otherwise None.
    """
    if span >= n_grid:
        return None
    vals = hermitian_eigenvalues(phi)
    lo, hi = float(np.min(vals)), float(np.max(vals))
    return lo if lo > PINV_RCOND * hi else None


def gram_covariances(prob: Problem, f: DensityGrid, g: DensityGrid,
                     window: ObservationWindow) -> GramSystem:
    """Second moments among windowed observations and against the target.

    Observation blocks are the lag covariances R(m) of the combined density
    p = f + |beta|^2 g at the index differences; cross terms integrate the
    target's differenced and noise parts against each observation.  Both
    are real (see the module docstring), and the Gram is gathered once,
    in gap order, from the blocks 0.5 (R(m) + R(-m)^T), straight into the
    leading block of the buffer that ``_nested_rows`` borders.
    """
    grid, chi, w = f.grid, prob.chi, prob.w
    idx = window.gap_order(prob.fspec.N, prob.spec.n_gamma())

    # R(m) for every difference m = idx[j] - idx[k], one FFT pass
    span = int(np.ptp(idx)) if len(idx) else 0
    phi = w[:, None, None] * _combine(f, g, prob.beta2).values
    r_coeffs = grid.fourier(phi, np.arange(-span, span + 1)).real
    r_coeffs = 0.5 * (r_coeffs + r_coeffs[::-1].transpose(0, 2, 1))
    shift = span - (len(idx) - 1)
    size = len(idx) * f.dim
    bordered = np.empty((size + 1, size + 1))
    gram = _block_toeplitz(r_coeffs, len(idx), f.dim, lambda j, k: idx[j] - idx[k] + shift,
                           out=bordered[:size, :size])

    # cross_j = E[target obs_j], the real part of the target's row against each observation
    u1 = np.einsum("nt,nts->ns", prob.B, f.values) * w[:, None]
    u2 = np.einsum("nt,nts->ns", prob.B * chi[:, None] - prob.A, g.values) * np.conj(chi)[:, None]
    cross = grid.fourier(u1 + u2, -idx).real.reshape(-1)
    return GramSystem(gram=gram, cross=cross, target_var=mse_of_characteristic(prob, f, g, 0),
                      indices=idx, eig_floor=_certified_floor(phi, span, grid.n_grid),
                      bordered=bordered)


def projection_mse(gs: GramSystem) -> float:
    """Truncated projection error target_var - cross^T gram^+ cross.

    One eigendecomposition gram = U diag(s) U^T checks that the Gram is PSD
    and gives the reduction sum_k (u_k^T cross)^2 / s_k over the eigenvalues
    with |s_k| > PINV_RCOND * max|s|, the cutoff of pinv(hermitian=True).
    """
    if gs.gram.shape[0] == 0:
        return gs.target_var
    s, u = np.linalg.eigh(gs.gram)
    if s[0] < -1e-8 * float(np.max(np.abs(gs.gram))):
        raise NumericalError(
            f"observation covariance not PSD (min eigenvalue {s[0]:.3e}); "
            "quadrature too coarse"
        )
    keep = np.abs(s) > PINV_RCOND * np.max(np.abs(s))
    coef = gs.cross @ u
    reduction = np.sum(coef[keep] ** 2 / s[keep])
    return float(gs.target_var - reduction)


def convergence_table(
    spec: GMIncrementSpec,
    f: DensityGrid,
    g: DensityGrid,
    fspec: FunctionalSpec,
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE,
) -> list[tuple[int, float]]:
    """Projection error per window size, reusing one max-window Gram.

    The windows are nested, and the Gram's gap order makes window L its
    leading 2 L T rows.  When the Gram carries a certified eigenvalue floor
    (see the module docstring), the Cholesky factor of the Gram bordered by
    the cross vector, [[G, c], [c^T, t]] with t > |c|^2 / floor, has y^T in
    its last row, where C y = c and C is the factor of G; the factor of a
    leading block is the leading block of C, so the error of window L is
    target_var minus the sum of y^2 over the first 2 L T entries.
    Otherwise each window's leading block is projected with
    ``projection_mse``.
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
    rows = []
    for L in schedule:
        n = 2 * L * f.dim
        sub = GramSystem(gram=gs.gram[:n, :n], cross=gs.cross[:n],
                         target_var=gs.target_var, indices=gs.indices[:2 * L])
        rows.append((L, projection_mse(sub)))
    return rows


def _nested_rows(gs: GramSystem, schedule: tuple[int, ...], dim: int) -> list[tuple[int, float]]:
    """Every window's error from one real Cholesky factor of the bordered Gram."""
    c = gs.cross
    size = len(c)
    bordered = gs.bordered
    bordered[:size, size] = bordered[size, :size] = c
    with np.errstate(over="ignore"):  # an inf corner still bounds |y|^2; y does not read it
        bordered[size, size] = 2.0 * float(c @ c) / gs.eig_floor + 1.0
    y = np.linalg.cholesky(bordered)[size, :size]
    reduction = np.concatenate([[0.0], np.cumsum(y ** 2)])
    return [(L, float(gs.target_var - reduction[2 * L * dim])) for L in schedule]
