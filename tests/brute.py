"""Brute-force references for the tests: loop forms of vectorized code, the
observed indices of a window in natural order, the values of a scalar
density, the combined density and its lag covariances, a seeded spectral
sampler, the paper's two-part split of the spectral characteristic, the error
functional of a fixed characteristic, a least favorable
search, the plain extremal-equation bisection, the stable-sort box shift,
the per-sample saddle check, the value-by-value JSON emitter, and the
density checks decided by eigenvalues alone."""

from dataclasses import dataclass

import numpy as np

from gmi.classical import (
    FunctionalSpec,
    Problem,
    SystemSolution,
    _block_toeplitz,
    _error_energy,
    _error_rows,
    _row_polynomial,
    mse_of_characteristic,
    padded_b,
    solve_interpolation,
)
from gmi.errors import NumericalError, SingularDensityError, ValidationError
from gmi.increments import GMIncrementSpec, expand_operator, inverse_series
from gmi.io import _format_float
from gmi.minimax import (
    _blend,
    _delta_core,
    _gradient_kernels,
    _lp_g,
    _Problem,
    _project_f,
    _project_g,
    feasibility_report,
    feasible_start,
)
from gmi.oracle import GramSystem, ObservationWindow, gram_covariances, projection_mse
from gmi.spectra import (
    INVERTIBILITY_FLOOR,
    PSD_TOL,
    DensityGrid,
    FrequencyGrid,
    _chi_beta,
    _combine,
    hermitian_eigenvalues,
    inverse_density,
)


def window_indices(window: ObservationWindow, N: int, n_gamma: int) -> np.ndarray:
    """The observed indices [-L, -1] and [N+ng+1, N+ng+L] of a window, in natural order."""
    left = np.arange(-window.L, 0)
    right = np.arange(N + n_gamma + 1, N + n_gamma + 1 + window.L)
    return np.concatenate([left, right])


def gram_loop(spec, f, g, fspec, window) -> np.ndarray:
    """The oracle Gram matrix assembled block by block in a double loop."""
    grid = f.grid
    idx = window_indices(window, fspec.N, spec.n_gamma())
    dim = f.dim
    if len(idx) == 0:
        return np.zeros((0, 0), dtype=complex)
    p = combine(f, g, spec)
    span = int(idx.max() - idx.min())
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, grid.nodes)
    weight = (np.abs(chi) ** 2 / np.abs(beta) ** 2)[:, None, None]
    r_coeffs = grid.fourier(weight * p.values, np.arange(-span, span + 1))
    gram = np.empty((len(idx) * dim, len(idx) * dim), dtype=complex)
    for i, ki in enumerate(idx):
        for j, kj in enumerate(idx):
            gram[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = r_coeffs[ki - kj + span]
    return 0.5 * (gram + gram.conj().T)


def pinv_table(spec, f, g, fspec, schedule) -> list:
    """Projection error per window in complex arithmetic and natural order.

    The Gram is ``gram_loop``'s, the cross vector is integrated node by node
    for each observed index, and each window is reduced with
    ``np.linalg.pinv`` at the oracle's cutoff; ``gram_covariances`` is not
    used.
    """
    prob = Problem(spec, fspec, f.grid)
    window = ObservationWindow(max(schedule))
    idx = window_indices(window, fspec.N, spec.n_gamma())
    gram = gram_loop(spec, f, g, fspec, window)
    chi, lam = prob.chi, f.grid.nodes
    weight = np.abs(chi) ** 2 / np.abs(prob.beta) ** 2
    row = (np.einsum("nt,nts->ns", prob.B, f.values) * weight[:, None]
           + np.einsum("nt,nts->ns", prob.B * chi[:, None] - prob.A, g.values)
           * np.conj(chi)[:, None])
    cross = np.concatenate([np.conj(np.mean(row * np.exp(-1j * k * lam)[:, None], axis=0))
                            for k in idx]) if len(idx) else np.zeros(0, dtype=complex)
    target_var = mse_of_characteristic(prob, f, g, 0)
    rows = []
    for L in schedule:
        sel = np.repeat(np.isin(idx, window_indices(ObservationWindow(L), fspec.N,
                                                    spec.n_gamma())), f.dim)
        pinv = np.linalg.pinv(gram[np.ix_(sel, sel)], rcond=1e-10, hermitian=True)
        rows.append((L, target_var - np.vdot(cross[sel], pinv @ cross[sel]).real))
    return rows


def convergence_loop(spec, f, g, fspec, schedule) -> list:
    """Projection error per window: each sub-Gram of the largest window
    selected by index and projected on its own with ``projection_mse``."""
    gs = gram_covariances(Problem(spec, fspec, f.grid), f, g, ObservationWindow(max(schedule)))
    rows = []
    for L in schedule:
        idx = window_indices(ObservationWindow(L), fspec.N, spec.n_gamma())
        sel = np.repeat(np.isin(gs.indices, idx), f.dim)
        sub = GramSystem(gram=gs.gram[np.ix_(sel, sel)], cross=gs.cross[sel],
                         target_var=gs.target_var, indices=idx)
        rows.append((L, projection_mse(sub)))
    return rows


def chi_beta_power(s, mu, d, lam):
    """chi and beta with every factor raised to ** d_j, d_j = 1 included."""
    lam = np.asarray(lam, dtype=float)
    chi = np.ones_like(lam, dtype=complex)
    beta = np.ones_like(lam, dtype=complex)
    for sj, mj, dj in zip(s, mu, d):
        if dj == 0:
            continue
        chi = chi * (1.0 - np.exp(-1j * lam * mj * sj)) ** dj
        for k in range(-(sj // 2), sj // 2 + 1):
            beta = beta * (1j * lam - 2j * np.pi * k / sj) ** dj
    return chi, beta


def transform_b_loop(spec, fspec) -> np.ndarray:
    """b(k) = sum_{m>=k} d_mu(m-k) a(m), one dot product per k."""
    d_mu = np.asarray(inverse_series(spec, fspec.N), dtype=float)
    N = fspec.N
    b = np.zeros_like(fspec.a)
    for k in range(N + 1):
        b[k] = d_mu[: N - k + 1] @ fspec.a[k:]
    return b


def coeffs_a_mu_loop(spec, fspec) -> np.ndarray:
    """a_mu(m) = sum_{l=max(m,0)}^{min(m+n_gamma, N)} e(l-m) a(l), term by term."""
    e = np.asarray(expand_operator(spec), dtype=float)
    ng = spec.n_gamma()
    N = fspec.N
    out = np.zeros((N + ng + 1, fspec.dim))
    for m in range(-ng, N + 1):
        for l in range(max(m, 0), min(m + ng, N) + 1):
            out[m + ng] += e[l - m] * fspec.a[l]
    return out


def v_coeffs_loop(spec, b) -> np.ndarray:
    """v(k) = sum_{l=0}^{min(N, k+n_gamma)} e(l-k) b(l) for k = -1 .. -n_gamma, term by term."""
    e = np.asarray(expand_operator(spec), dtype=float)
    ng = spec.n_gamma()
    N = b.shape[0] - 1
    v = np.zeros((ng, b.shape[1]))
    for i in range(ng):
        k = -(i + 1)
        for l in range(0, min(N, k + ng) + 1):
            v[i] += e[l - k] * b[l]
    return v


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


def scalar_values(density: DensityGrid) -> np.ndarray:
    """The real values of a 1x1 density, node by node."""
    assert density.dim == 1
    return density.values[:, 0, 0].real


def combine(f: DensityGrid, g: DensityGrid, spec: GMIncrementSpec) -> DensityGrid:
    """Observed-sequence density p(l) = f(l) + |beta(il)|^2 g(l)."""
    _, beta = _chi_beta(spec.s, spec.mu, spec.d, f.grid.nodes)
    return _combine(f, g, np.abs(beta) ** 2)


def _p_and_t_loop(prob: Problem, g_vals: np.ndarray, p_inv: np.ndarray):
    """(P, T) of ``classical.fourier_blocks`` with each kernel formed and transformed alone."""
    size = prob.fspec.N + prob.spec.n_gamma() + 1
    offsets = np.arange(-(size - 1), size)
    w = prob.w_inv[:, None, None]
    sign = -1.0 if prob.spec.total_order() % 2 else 1.0
    return tuple(_block_toeplitz(prob.grid.fourier(kern, offsets).transpose(0, 2, 1), size,
                                 p_inv.shape[1], lambda j, k: k - j)
                 for kern in (w * p_inv, sign * w * (g_vals @ p_inv)))


def fourier_blocks_loop(prob: Problem, f: DensityGrid, g: DensityGrid):
    """(P, T, Q) of ``classical.fourier_blocks`` with each kernel formed and transformed alone."""
    N = prob.fspec.N
    p_inv = inverse_density(_combine(f, g, prob.beta2))
    Q = _block_toeplitz(f.grid.fourier(f.values @ p_inv @ g.values, np.arange(-N, N + 1)),
                        N + 1, f.dim, lambda j, k: j - k)
    return (*_p_and_t_loop(prob, g.values, p_inv), Q)


def characteristic_split(prob: Problem, g_vals: np.ndarray, p_inv: np.ndarray,
                         sol: SystemSolution) -> tuple[np.ndarray, np.ndarray]:
    """The paper's split h = h1 - h2 of the spectral characteristic of the solved sol.

    h1^T = B^T chi/beta - C1^T (conj(beta)/conj(chi)) p^{-1} with c1 = P^{-1} [b]_+, the
    differenced-target part; h2^T = A^T g conj(beta) p^{-1} - C2^T (conj(beta)/conj(chi))
    p^{-1} with c2 = P^{-1} T a_mu, the noise part.  P and T are formed here from p^{-1}
    and g, each kernel transformed alone; c1 - c2 must be the solved c.
    """
    P, T = _p_and_t_loop(prob, g_vals, p_inv)
    rhs = np.stack([padded_b(prob.b, prob.spec.n_gamma()),
                    T @ prob.a_mu.reshape(-1).astype(complex)], axis=1)
    c1, c2 = np.linalg.solve(P, rhs).T.reshape(2, *prob.a_mu.shape)
    scale = np.max(np.abs(sol.c))
    assert np.max(np.abs(c1 - c2 - sol.c)) <= 1e-10 * scale, "the split is of another system"
    weight = (np.conj(prob.beta) / np.conj(prob.chi))[:, None]
    c_term1, c_term2 = (np.einsum("nt,nts->ns", _row_polynomial(cc, prob.grid), p_inv) * weight
                        for cc in (c1, c2))
    noise = np.einsum("nt,nts->ns", prob.A, g_vals @ p_inv) * np.conj(prob.beta)[:, None]
    return prob.B * (prob.chi / prob.beta)[:, None] - c_term1, noise - c_term2


def refined_min_modulus(den: np.ndarray, grid: FrequencyGrid) -> float:
    """The smallest |den(e^{-il})| on the refined grid of ``spectra._check_unit_circle_roots``,
    evaluated in one pass."""
    n = min(16 * grid.n_grid, 1 << 20)
    lam = -np.pi + (np.arange(n) + 0.5) * (2 * np.pi / n)
    return float(np.min(np.abs(np.polyval(den[::-1], np.exp(-1j * lam)))))


def refined_minimality_one_pass(weight_of, p: DensityGrid) -> float:
    """The refined value of ``spectra._minimality`` on the observed density p, with both
    halves of the refined grid formed and inverted in one pass; weight_of(lam) is
    |beta|^2 / |chi|^2."""
    lam, delta = p.grid.nodes, 2.0 * np.pi / p.grid.n_grid
    p_fine = np.concatenate([0.75 * p.values + 0.25 * np.roll(p.values, shift, axis=0)
                             for shift in (1, -1)])
    if p.dim == 1:
        trace_inv = 1.0 / p_fine[:, 0, 0].real
    else:
        trace_inv = np.trace(np.linalg.inv(p_fine), axis1=1, axis2=2).real
    return float(np.mean(weight_of(np.concatenate([lam - delta / 4.0, lam + delta / 4.0]))
                         * trace_inv))


def structural_function(spec: GMIncrementSpec, f: DensityGrid, m: int) -> np.ndarray:
    """Covariance of differenced values at lag m:
    (1/2pi) int e^{i l m} |chi(e^{-il})|^2 |beta(il)|^{-2} f(l) dl."""
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, f.grid.nodes)
    weight = chi * np.conj(chi) / np.abs(beta) ** 2
    return f.grid.fourier(weight[:, None, None] * f.values, [m])[0]


def quadrature_covariance(
    spec: GMIncrementSpec, f: DensityGrid, g: DensityGrid, m: int
) -> np.ndarray:
    """Covariance of the observed differenced sequence at lag m."""
    return structural_function(spec, combine(f, g, spec), m)


def budget_weight(spec: GMIncrementSpec, grid: FrequencyGrid) -> np.ndarray:
    """|chi|^2 / |beta|^2; every f-side budget integrates against it."""
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, grid.nodes)
    return np.abs(chi) ** 2 / np.abs(beta) ** 2


def mse_functional(f0: DensityGrid, g0: DensityGrid, f: DensityGrid, g: DensityGrid,
                   fspec: FunctionalSpec, spec: GMIncrementSpec) -> float:
    """Error of the characteristic solved at (f0, g0) when (f, g) are true (linear in f, g)."""
    sol = solve_interpolation(spec, f0, g0, fspec)
    return mse_of_characteristic(Problem(spec, fspec, f.grid), f, g, sol.h)


def _pair_atom(values: np.ndarray, j: int, mass: float) -> None:
    """Add a scalar atom at node j and at its mirror node."""
    values[j] += mass
    values[values.shape[0] - 1 - j] += mass


def two_atom_search(class_spec, fspec, spec, grid, n_positions: int = 96, rounds: int = 3) -> dict:
    """Independent coordinate grid search over symmetric-pair densities.

    f-side: enumerate one- and two-pair placements of the perturbation /
    budget mass over a subgrid of node pairs, solving the exact problem for
    each candidate.  g-side (box classes): grid search over the blend toward
    the inner LP vertex, once per round.  Returns the best pair found.
    """
    if fspec.dim != 1:
        raise ValidationError("two_atom_search supports scalar problems only")
    n = grid.n_grid
    positions = np.unique(np.linspace(0, n // 2 - 1, n_positions).astype(int))
    ctx = _Problem(class_spec, spec, fspec, grid)
    f, g = feasible_start(ctx)
    w = ctx.w
    kf = class_spec.f.kind

    def delta_at(f_vals, g_vals):
        try:
            return _delta_core(ctx, f_vals, g_vals)[0]
        except (NumericalError, np.linalg.LinAlgError):
            return -np.inf

    def f_candidates():
        if kf == "fixed":
            yield f.values, "fixed"
            return
        budget = ctx.f.scalar_budget
        if kf.startswith("D0"):
            for j in positions:
                vals = np.zeros((n, 1, 1), dtype=complex)
                _pair_atom(vals, int(j), budget * n / (2.0 * w[j]))
                yield vals, f"pair@{j}"
            # smooth family around the flat-in-weighted-trace density
            flat = (budget / w).reshape(-1, 1, 1).astype(complex)
            lam = grid.nodes
            for t1 in np.linspace(-0.6, 0.6, 7):
                for t2 in np.linspace(-0.6, 0.6, 7):
                    shape = 1.0 + t1 * np.cos(lam) + t2 * np.cos(2 * lam)
                    if np.min(shape) <= 1e-3:
                        continue
                    vals = flat * shape.reshape(-1, 1, 1)
                    vals *= budget / float(np.mean(w * vals[:, 0, 0].real))
                    yield vals, f"smooth({t1:.2f},{t2:.2f})"
            return
        # D1delta: one and two symmetric pairs on top of f1
        for j in positions:
            vals = f.values.copy()
            _pair_atom(vals, int(j), budget * n / (2.0 * w[j]))
            yield vals, f"one@{j}"
        coarse = positions[:: max(len(positions) // 24, 1)]
        for i, j1 in enumerate(coarse):
            for j2 in coarse[i + 1:]:
                for share in (0.25, 0.5, 0.75):
                    vals = f.values.copy()
                    _pair_atom(vals, int(j1), share * budget * n / (2.0 * w[j1]))
                    _pair_atom(vals, int(j2), (1 - share) * budget * n / (2.0 * w[j2]))
                    yield vals, f"two@{j1},{j2},{share}"

    best = {"delta": -np.inf, "f": f.values, "g": g.values, "label": "start"}
    g_vals = g.values
    for _ in range(rounds):
        for cand, label in f_candidates():
            val = delta_at(cand, g_vals)
            if val > best["delta"]:
                best = {"delta": val, "f": cand, "g": g_vals, "label": label}
        if class_spec.g.kind in ("zero", "fixed"):
            break
        # refine g by the blend toward the inner LP vertex at the current best f
        _, blocks, sol = _delta_core(ctx, best["f"], g_vals)
        gv = _lp_g(ctx, _gradient_kernels(ctx, g_vals, blocks, sol)[1])
        for eta in np.linspace(0.0, 1.0, 21):
            cand_g = _blend(g_vals, gv, eta)
            val = delta_at(best["f"], cand_g)
            if val > best["delta"]:
                best = {"delta": val, "f": best["f"], "g": cand_g,
                        "label": best["label"] + f"+g(eta={eta:.2f})"}
        g_vals = best["g"]
    return best


def bisect_decreasing_loop(fun, target, lo, hi, iters=200):
    """Geometric bisection of fun(x) = target for decreasing fun, one call of fun per step."""
    for _ in range(iters):
        mid = np.sqrt(lo * hi)
        if not lo < mid < hi:
            return mid
        if fun(mid) > target:
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


def shift_clip_stable(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, mean: float) -> np.ndarray:
    """The box shift of one row with its knots in stable-sort order."""
    x = np.clip(x, lo, hi)
    knots = np.concatenate([lo - x, hi - x])
    order = np.argsort(knots, kind="stable")
    knots, slope = knots[order], np.cumsum(np.repeat([1.0, -1.0], len(x))[order])
    sums = np.sum(lo) + np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(knots))])
    return np.clip(x + np.interp(mean * len(x), sums, knots), lo, hi)


def saddle_check_loop(result, n_samples: int, seed: int = 0) -> dict:
    """The saddle check with one draw, projection and energy per sample."""
    if n_samples <= 0:
        return {"n_samples": 0, "pass": False}
    rng = np.random.default_rng(seed)
    ctx, f0, g0, h0, delta0 = result.problem, result.f0, result.g0, result.h0, result.delta0
    n = ctx.grid.n_grid

    max_violation, skipped, rows = -np.inf, 0, _error_rows(ctx, h0)
    for _ in range(n_samples):
        jf, jg = (1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=n) for _ in range(2))
        f_vals = _project_f(ctx, 0.5 * (jf + jf[::-1])[:, None, None] * f0.values)
        g_vals = _project_g(ctx, 0.5 * (jg + jg[::-1])[:, None, None] * g0.values)
        if feasibility_report(ctx, f_vals, g_vals)["max_residual"] > 1e-6:
            skipped += 1
            continue
        max_violation = max(max_violation, _error_energy(rows, f_vals, g_vals) - delta0)
    if not np.isfinite(max_violation):
        max_violation = 0.0

    ng = ctx.spec.n_gamma()
    band = list(range(-4 - ng, 0)) + list(range(ctx.fspec.N + ng + 1, ctx.fspec.N + ng + 5))
    left_min = np.inf
    scale = float(np.max(np.abs(h0))) or 1.0
    waves = [np.exp(1j * k * ctx.grid.nodes)[:, None] for k in band]
    for _ in range(10):
        theta = 0.1 * scale * rng.standard_normal((len(band), f0.dim))
        poly = sum(wave * theta[i] for i, wave in enumerate(waves))
        h_alt = h0 + poly * (ctx.chi / ctx.beta)[:, None]
        left_min = min(left_min, mse_of_characteristic(ctx, f0, g0, h_alt) - delta0)
    passed = skipped < n_samples and max_violation <= 1e-6 * max(delta0, 1e-300) \
        and left_min >= -1e-10
    return {"n_samples": n_samples, "skipped_samples": skipped, "pass": bool(passed),
            "max_violation": float(max_violation), "left_min_margin": float(left_min)}


def canonical_json_loop(obj) -> str:
    """``canonical_json`` with every array value formatted on its own."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list[str]):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit([float(obj.real), float(obj.imag)], out)
    elif isinstance(obj, str):
        import json as _json

        out.append(_json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _emit(str(key), out)
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 0:
        _emit(obj.item(), out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        out.append("[")
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")


def validate_by_eigenvalues(values: np.ndarray) -> None:
    """``DensityGrid._validate`` with its PSD test decided by the eigenvalues alone."""
    top = float(np.max(np.abs(values)))
    if not np.isfinite(top):
        raise ValidationError("density has a non-finite value")
    herm_err = np.max(np.abs(values - values.conj().transpose(0, 2, 1)))
    if herm_err > PSD_TOL * top:
        raise ValidationError(f"density is not Hermitian (error {herm_err:.3e})")
    sym_err = np.max(np.abs(values[::-1] - values.transpose(0, 2, 1)))
    if sym_err > PSD_TOL * top:
        raise ValidationError(
            f"density violates value(-l) = value(l)^T (error {sym_err:.3e})"
        )
    min_eig = float(np.min(hermitian_eigenvalues(values)))
    if min_eig < -PSD_TOL * top:
        raise ValidationError(f"density has eigenvalue {min_eig:.3e} below tolerance")


def inverse_by_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """``inverse_density`` with its singularity test decided by the eigenvalues alone."""
    scale = float(np.max(np.abs(vals)))
    eigs = hermitian_eigenvalues(vals)
    if float(np.min(eigs)) <= INVERTIBILITY_FLOOR * scale:
        raise SingularDensityError("minimality violated (singular density)")
    if vals.shape[-1] == 1:
        return (1.0 / eigs)[..., None].astype(complex)
    return np.linalg.inv(vals)
