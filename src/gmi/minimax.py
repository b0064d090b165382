"""Least favorable spectral densities over uncertainty classes.

The worst-case pair maximizes the optimal-estimate error, a concave
functional of the densities (a pointwise minimum of functionals linear in
(f, g)).  The solver is a monotone projected ascent: at the current pair it
solves the exact interpolation problem, linearizes the error in (f, g)
through the fixed characteristic, solves the inner linear program over the
class exactly (mass transport to the best symmetric node pair for budget
constraints, bang-bang waterfilling for boxes), and line-searches the
blend.  Budget-type classes get an extra candidate from the extremal
equation fixed point, which accelerates the tail of the ascent.

Class ids follow the f-side / g-side split: D0_1..4 and D1delta_1..4
constrain the signal density, Deps_1..4 and DVU_1..4 the noise density;
'fixed' pins a side, 'zero' pins the noise at zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .classical import (
    FunctionalSpec,
    InterpolationSolution,
    _error_rows,
    _row_polynomial,
    _target,
    coeffs_a_mu,
    fourier_blocks,
    mse_of_characteristic,
    padded_b,
    solve_interpolation,
    spectral_characteristic,
    transform_b,
)
from .errors import NumericalError, ValidationError
from .increments import GMIncrementSpec
from .spectra import DensityGrid, FrequencyGrid, _chi_beta

FEASIBILITY_TOL = 1e-8

#: class kind -> the parameters it requires
F_CLASS_PARAMS = {
    "fixed": ("f1",),
    "D0_1": ("P",), "D0_2": ("p",), "D0_3": ("p_k",), "D0_4": ("B1", "p"),
    "D1delta_1": ("f1", "delta"), "D1delta_2": ("f1", "delta_k"),
    "D1delta_3": ("f1", "B1", "delta"), "D1delta_4": ("f1", "delta_ij"),
}
G_CLASS_PARAMS = {
    "zero": (), "fixed": ("g1",),
    "Deps_1": ("eps", "g1", "q"), "Deps_2": ("eps", "g1", "q_k"),
    "Deps_3": ("eps", "g1", "B2", "q"), "Deps_4": ("eps", "g1", "Q"),
    "DVU_1": ("V", "U", "Q"), "DVU_2": ("V", "U", "q"),
    "DVU_3": ("V", "U", "q_k"), "DVU_4": ("V", "U", "B2", "q"),
}


def _check_class(side: str, kind: str, params: dict, required: dict) -> None:
    if kind not in required:
        raise ValidationError(f"unknown {side}-class {kind!r}")
    missing = [key for key in required[kind] if key not in params]
    if missing:
        raise ValidationError(
            f"{side}-class {kind} requires parameter(s) {', '.join(missing)}")


@dataclass(frozen=True)
class FClassSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_class("f", self.kind, self.params, F_CLASS_PARAMS)


@dataclass(frozen=True)
class GClassSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_class("g", self.kind, self.params, G_CLASS_PARAMS)


@dataclass(frozen=True)
class DensityClassSpec:
    f: FClassSpec
    g: GClassSpec


@dataclass
class MinimaxOptions:
    tol: float = 1e-7
    max_iter: int = 500
    line_search_evals: int = 16
    saddle_samples: int = 50
    seed: int = 0


@dataclass
class MinimaxResult:
    f0: DensityGrid
    g0: DensityGrid
    h0: np.ndarray
    delta0: float
    multipliers: dict
    residual_report: dict
    saddle_report: dict
    trace: list
    converged: bool
    solution: InterpolationSolution


# ---------------------------------------------------------------------------
# weights, budgets, feasibility

def budget_weight(spec: GMIncrementSpec, grid: FrequencyGrid) -> np.ndarray:
    """|chi|^2 / |beta|^2; every f-side budget integrates against it."""
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, grid.nodes)
    return np.abs(chi) ** 2 / np.abs(beta) ** 2


def _pair_index(n: int, j: int) -> int:
    return n - 1 - j


def _sym_value(x: np.ndarray) -> np.ndarray:
    """Symmetrize samples so that value(-l) = value(l)^T holds exactly."""
    return 0.5 * (x + x[::-1].transpose(0, 2, 1))


def _f_budget_used(kind: str, params: dict, w: np.ndarray, f: DensityGrid):
    vals = f.values
    if kind == "D0_1":
        return np.mean(w[:, None, None] * vals, axis=0)
    if kind == "D0_2":
        return float(np.mean(w * np.trace(vals, axis1=1, axis2=2).real))
    if kind == "D0_3":
        return np.mean(w[:, None] * np.diagonal(vals, axis1=1, axis2=2).real, axis=0)
    if kind == "D0_4":
        b1 = np.atleast_2d(np.asarray(params["B1"]))
        return float(np.mean(w * np.einsum("ts,nst->n", b1, vals).real))
    raise ValidationError(kind)


def _l1_budget_used(kind: str, params: dict, w: np.ndarray, f: DensityGrid):
    e = f.values - params["f1"].values
    if kind == "D1delta_1":
        return float(np.mean(w * np.abs(np.trace(e, axis1=1, axis2=2))))
    if kind == "D1delta_2":
        return np.mean(w[:, None] * np.abs(np.diagonal(e, axis1=1, axis2=2)), axis=0)
    if kind == "D1delta_3":
        b1 = np.atleast_2d(np.asarray(params["B1"]))
        return float(np.mean(w * np.abs(np.einsum("ts,nst->n", b1, e))))
    if kind == "D1delta_4":
        return np.mean(w[:, None, None] * np.abs(e), axis=0)
    raise ValidationError(kind)


def _g_traces(g: DensityGrid) -> np.ndarray:
    return np.trace(g.values, axis1=1, axis2=2).real


def feasibility_report(class_spec: DensityClassSpec, spec: GMIncrementSpec,
                       f: DensityGrid, g: DensityGrid) -> dict:
    """Signed constraint residuals for the pair (f, g); 0 means feasible."""
    w = budget_weight(spec, f.grid)
    rep_f: dict = {"kind": class_spec.f.kind}
    kf, pf = class_spec.f.kind, class_spec.f.params
    if kf == "fixed":
        rep_f["residual"] = float(np.max(np.abs(f.values - pf["f1"].values)))
    elif kf.startswith("D0"):
        used = _f_budget_used(kf, pf, w, f)
        target = {"D0_1": lambda: np.atleast_2d(np.asarray(pf["P"])),
                  "D0_2": lambda: pf["p"],
                  "D0_3": lambda: np.asarray(pf["p_k"], dtype=float),
                  "D0_4": lambda: pf["p"]}[kf]()
        rep_f["residual"] = float(np.max(np.abs(np.asarray(used) - np.asarray(target))))
    else:
        used = _l1_budget_used(kf, pf, w, f)
        bound = {"D1delta_1": lambda: pf["delta"],
                 "D1delta_2": lambda: np.asarray(pf["delta_k"], dtype=float),
                 "D1delta_3": lambda: pf["delta"],
                 "D1delta_4": lambda: np.asarray(pf["delta_ij"], dtype=float)}[kf]()
        over = np.asarray(used) - np.asarray(bound)
        rep_f["residual"] = float(max(np.max(over), 0.0))
        rep_f["budget_used"] = used if np.isscalar(used) else np.asarray(used)

    rep_g: dict = {"kind": class_spec.g.kind}
    kg, pg = class_spec.g.kind, class_spec.g.params
    if kg == "zero":
        rep_g["residual"] = float(np.max(np.abs(g.values)))
    elif kg == "fixed":
        rep_g["residual"] = float(np.max(np.abs(g.values - pg["g1"].values)))
    elif kg.startswith("Deps"):
        eps = float(pg["eps"])
        g1 = pg["g1"]
        if kg == "Deps_1":
            floor = (1.0 - eps) * _g_traces(g1)
            below = np.max(np.maximum(floor - _g_traces(g), 0.0))
            bud = abs(float(np.mean(_g_traces(g))) - float(pg["q"]))
        elif kg == "Deps_2":
            floor = (1.0 - eps) * np.diagonal(g1.values, axis1=1, axis2=2).real
            diag = np.diagonal(g.values, axis1=1, axis2=2).real
            below = np.max(np.maximum(floor - diag, 0.0))
            bud = float(np.max(np.abs(np.mean(diag, axis=0) - np.asarray(pg["q_k"], dtype=float))))
        elif kg == "Deps_3":
            b2 = np.atleast_2d(np.asarray(pg["B2"]))
            val = np.einsum("ts,nst->n", b2, g.values).real
            val1 = np.einsum("ts,nst->n", b2, g1.values).real
            below = np.max(np.maximum((1.0 - eps) * val1 - val, 0.0))
            bud = abs(float(np.mean(val)) - float(pg["q"]))
        else:  # Deps_4, PSD-order floor
            diff = g.values - (1.0 - eps) * g1.values
            herm = 0.5 * (diff + diff.conj().transpose(0, 2, 1))
            below = max(-float(np.min(np.linalg.eigvalsh(herm))), 0.0)
            bud = float(np.max(np.abs(np.mean(g.values, axis=0)
                                      - np.atleast_2d(np.asarray(pg["Q"])))))
        rep_g["residual"] = float(max(below, bud))
    else:  # DVU
        if kg == "DVU_1":
            lo = g.values - pg["V"].values
            hi = pg["U"].values - g.values
            viol = 0.0
            for m in (lo, hi):
                herm = 0.5 * (m + m.conj().transpose(0, 2, 1))
                viol = max(viol, max(-float(np.min(np.linalg.eigvalsh(herm))), 0.0))
            bud = float(np.max(np.abs(np.mean(g.values, axis=0)
                                      - np.atleast_2d(np.asarray(pg["Q"])))))
        elif kg == "DVU_2":
            t = _g_traces(g)
            viol = float(max(np.max(np.maximum(_g_traces(pg["V"]) - t, 0.0)),
                             np.max(np.maximum(t - _g_traces(pg["U"]), 0.0))))
            bud = abs(float(np.mean(t)) - float(pg["q"]))
        elif kg == "DVU_3":
            diag = np.diagonal(g.values, axis1=1, axis2=2).real
            dv = np.diagonal(pg["V"].values, axis1=1, axis2=2).real
            du = np.diagonal(pg["U"].values, axis1=1, axis2=2).real
            viol = float(max(np.max(np.maximum(dv - diag, 0.0)),
                             np.max(np.maximum(diag - du, 0.0))))
            bud = float(np.max(np.abs(np.mean(diag, axis=0) - np.asarray(pg["q_k"], dtype=float))))
        else:  # DVU_4
            b2 = np.atleast_2d(np.asarray(pg["B2"]))
            val = np.einsum("ts,nst->n", b2, g.values).real
            vv = np.einsum("ts,nst->n", b2, pg["V"].values).real
            vu = np.einsum("ts,nst->n", b2, pg["U"].values).real
            viol = float(max(np.max(np.maximum(vv - val, 0.0)),
                             np.max(np.maximum(val - vu, 0.0))))
            bud = abs(float(np.mean(val)) - float(pg["q"]))
        rep_g["residual"] = float(max(viol, bud))
    return {"f": rep_f, "g": rep_g,
            "max_residual": max(rep_f["residual"], rep_g["residual"])}


# ---------------------------------------------------------------------------
# feasible starting points

def _require_hpd(name: str, matrix) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(m)))):
        raise ValidationError(f"class parameter {name} must be Hermitian")
    if float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))) <= 0:
        raise ValidationError(f"class parameter {name} must be positive definite")


def validate_class_spec(class_spec: DensityClassSpec) -> None:
    """Enforce the structural constraints on the class parameters."""
    pf = class_spec.f.params
    for key in ("P", "B1"):
        if key in pf:
            _require_hpd(key, pf[key])
    for key in ("delta", "delta_k", "delta_ij"):
        if key in pf and np.min(np.asarray(pf[key], dtype=float)) <= 0:
            raise ValidationError(f"class parameter {key} must be positive")
    pg = class_spec.g.params
    for key in ("Q", "B2"):
        if key in pg:
            _require_hpd(key, pg[key])
    if "eps" in pg and not 0.0 <= float(pg["eps"]) <= 1.0:
        raise ValidationError("contamination level eps must lie in [0, 1]")
    if "V" in pg and "U" in pg:
        diff = pg["U"].values - pg["V"].values
        herm = 0.5 * (diff + diff.conj().transpose(0, 2, 1))
        scale = max(float(np.max(np.abs(pg["U"].values))), 1.0)
        if float(np.min(np.linalg.eigvalsh(herm))) < -1e-10 * scale:
            raise ValidationError("box bounds require V <= U in the PSD order pointwise")


def feasible_start(class_spec: DensityClassSpec, spec: GMIncrementSpec,
                   grid: FrequencyGrid, dim: int) -> tuple[DensityGrid, DensityGrid]:
    validate_class_spec(class_spec)
    w = budget_weight(spec, grid)
    kf, pf = class_spec.f.kind, class_spec.f.params
    n = grid.n_grid
    eye = np.eye(dim)

    if kf == "fixed":
        f = DensityGrid(grid, pf["f1"].values.copy(), validate=False)
    elif kf == "D0_1":
        target = np.atleast_2d(np.asarray(pf["P"], dtype=complex))
        f = DensityGrid(grid, np.broadcast_to(target / np.mean(w), (n, dim, dim)).copy(),
                        validate=False)
    elif kf == "D0_2":
        c = float(pf["p"]) / (dim * float(np.mean(w)))
        f = DensityGrid(grid, np.broadcast_to(c * eye, (n, dim, dim)).copy(), validate=False)
    elif kf == "D0_3":
        diag = np.asarray(pf["p_k"], dtype=float) / np.mean(w)
        f = DensityGrid(grid, np.broadcast_to(np.diag(diag), (n, dim, dim)).astype(complex).copy(),
                        validate=False)
    elif kf == "D0_4":
        b1 = np.atleast_2d(np.asarray(pf["B1"]))
        c = float(pf["p"]) / (float(np.mean(w)) * float(np.trace(b1).real))
        f = DensityGrid(grid, np.broadcast_to(c * eye, (n, dim, dim)).copy(), validate=False)
    else:
        f = DensityGrid(grid, pf["f1"].values.copy(), validate=False)

    kg, pg = class_spec.g.kind, class_spec.g.params
    if kg == "zero":
        g = DensityGrid.zero(grid, dim)
    elif kg == "fixed":
        g = DensityGrid(grid, pg["g1"].values.copy(), validate=False)
    elif kg.startswith("Deps"):
        eps = float(pg["eps"])
        g1 = pg["g1"]
        floor = (1.0 - eps) * g1.values
        if kg in ("Deps_1", "Deps_3"):
            have = float(np.mean(_g_traces(g1))) * (1.0 - eps)
            q = float(pg["q"]) if kg == "Deps_1" else None
            if kg == "Deps_3":
                b2 = np.atleast_2d(np.asarray(pg["B2"]))
                have = (1.0 - eps) * float(np.mean(np.einsum("ts,nst->n", b2, g1.values).real))
                scale = float(np.trace(b2).real)
                free = (float(pg["q"]) - have) / scale
            else:
                free = float(pg["q"]) - have
            if free < -FEASIBILITY_TOL:
                raise ValidationError("infeasible noise class: budget below the floor mass")
            g = DensityGrid(grid, floor + max(free, 0.0) / dim * np.broadcast_to(
                np.eye(dim), (n, dim, dim)), validate=False)
        elif kg == "Deps_2":
            qk = np.asarray(pg["q_k"], dtype=float).reshape(-1)
            diag1 = np.diagonal(g1.values, axis1=1, axis2=2).real
            free = qk - (1.0 - eps) * np.mean(diag1, axis=0)
            if np.min(free) < -FEASIBILITY_TOL:
                raise ValidationError("infeasible noise class: budget below the floor mass")
            g = DensityGrid(grid, floor + np.broadcast_to(
                np.diag(np.maximum(free, 0.0)), (n, dim, dim)).astype(complex), validate=False)
        else:  # Deps_4
            q_mat = np.atleast_2d(np.asarray(pg["Q"], dtype=complex))
            w_mat = (q_mat - (1.0 - eps) * np.mean(g1.values, axis=0)) / eps
            if float(np.min(np.linalg.eigvalsh(0.5 * (w_mat + w_mat.conj().T)))) < -FEASIBILITY_TOL:
                raise ValidationError("infeasible noise class: residual budget not PSD")
            g = DensityGrid(grid, floor + eps * np.broadcast_to(w_mat, (n, dim, dim)),
                            validate=False)
    else:  # DVU
        V, U = pg["V"], pg["U"]
        if kg == "DVU_2":
            q = float(pg["q"])
            tv, tu = _g_traces(V), _g_traces(U)
            if not (np.mean(tv) - FEASIBILITY_TOL <= q <= np.mean(tu) + FEASIBILITY_TOL):
                raise ValidationError("infeasible noise class: budget outside the box range")
            theta = 0.0 if np.allclose(tu, tv) else (q - np.mean(tv)) / (np.mean(tu) - np.mean(tv))
            g = DensityGrid(grid, V.values + theta * (U.values - V.values), validate=False)
        else:
            # linear interpolation meets every entrywise/trace/weighted budget
            if kg == "DVU_1":
                lo = np.mean(V.values, axis=0)
                hi = np.mean(U.values, axis=0)
                target = np.atleast_2d(np.asarray(pg["Q"], dtype=complex))
                denom = float(np.max(np.abs(hi - lo)))
                theta = 0.0 if denom == 0 else float(
                    np.real(np.sum((target - lo) * np.conj(hi - lo))) /
                    max(np.sum(np.abs(hi - lo) ** 2), 1e-300))
            elif kg == "DVU_3":
                qk = np.asarray(pg["q_k"], dtype=float).reshape(-1)
                lo = np.mean(np.diagonal(V.values, axis1=1, axis2=2).real, axis=0)
                hi = np.mean(np.diagonal(U.values, axis1=1, axis2=2).real, axis=0)
                theta = float(np.sum(qk - lo) / max(np.sum(hi - lo), 1e-300))
            else:
                b2 = np.atleast_2d(np.asarray(pg["B2"]))
                lo = float(np.mean(np.einsum("ts,nst->n", b2, V.values).real))
                hi = float(np.mean(np.einsum("ts,nst->n", b2, U.values).real))
                theta = (float(pg["q"]) - lo) / max(hi - lo, 1e-300)
            if not -FEASIBILITY_TOL <= theta <= 1.0 + FEASIBILITY_TOL:
                raise ValidationError("infeasible noise class: budget outside the box range")
            theta = min(max(theta, 0.0), 1.0)
            g = DensityGrid(grid, V.values + theta * (U.values - V.values), validate=False)

    rep = feasibility_report(class_spec, spec, f, g)
    if rep["max_residual"] > 1e-6:
        raise ValidationError(f"could not construct a feasible starting pair: {rep}")
    return f, g


# ---------------------------------------------------------------------------
# the linearized objective and the inner linear program

def mse_functional(f0: DensityGrid, g0: DensityGrid, f: DensityGrid, g: DensityGrid,
                   fspec: FunctionalSpec, spec: GMIncrementSpec) -> float:
    """Error of the characteristic solved at (f0, g0) when (f, g) are true.

    Linear in (f, g); equals the exact error at (f, g) = (f0, g0).
    """
    sol = solve_interpolation(spec, f0, g0, fspec)
    return mse_of_characteristic(spec, f, g, fspec, sol.h)


def _gradient_kernels(spec, fspec, f, g, h):
    """Pointwise PSD kernels M_f, M_g with Delta(h; f, g) = mean Tr[f M_f] + mean Tr[g M_g]."""
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, f.grid.nodes)
    r_f, r_g = _error_rows(_target(spec, fspec, f.grid, chi, beta), h)
    M_f = np.einsum("nt,ns->nst", r_f, np.conj(r_f))
    M_g = np.einsum("nt,ns->nst", r_g, np.conj(r_g))
    return M_f, M_g


def _top_dir(block: np.ndarray) -> tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
    return float(vals[-1]), vecs[:, -1]


def _pair_atom(values: np.ndarray, j: int, block: np.ndarray):
    """Place block at node j and its transpose at the mirror node."""
    n = values.shape[0]
    values[j] += block
    values[_pair_index(n, j)] += block.T


def _lp_f(class_spec, spec, grid, dim, M_f) -> np.ndarray | None:
    """Exact inner LP vertex for the f side (None if the side is pinned)."""
    kf, pf = class_spec.f.kind, class_spec.f.params
    if kf == "fixed":
        return None
    n = grid.n_grid
    w = budget_weight(spec, grid)
    half = n // 2

    if kf.startswith("D0"):
        if kf == "D0_2":
            rate = np.array([_top_dir(M_f[j])[0] for j in range(half)]) / w[:half]
            j = int(np.argmax(rate))
            _, u = _top_dir(M_f[j])
            vals = np.zeros((n, dim, dim), dtype=complex)
            mass = float(pf["p"]) * n / (2.0 * w[j])
            _pair_atom(vals, j, mass * np.outer(u, np.conj(u)))
            return vals
        if kf == "D0_3":
            pk = np.asarray(pf["p_k"], dtype=float).reshape(-1)
            vals = np.zeros((n, dim, dim), dtype=complex)
            for k in range(dim):
                rate = M_f[:half, k, k].real / w[:half]
                j = int(np.argmax(rate))
                mass = pk[k] * n / (2.0 * w[j])
                blk = np.zeros((dim, dim), dtype=complex)
                blk[k, k] = mass
                _pair_atom(vals, j, blk)
            return vals
        if kf == "D0_4":
            b1 = np.atleast_2d(np.asarray(pf["B1"], dtype=complex))
            evals, evecs = np.linalg.eigh(b1)
            b1_inv_half = evecs @ np.diag(1.0 / np.sqrt(np.clip(evals, 1e-15, None))) @ evecs.conj().T
            best = (-np.inf, 0, None)
            for j in range(half):
                lam, u = _top_dir(b1_inv_half @ M_f[j] @ b1_inv_half)
                if lam / w[j] > best[0]:
                    best = (lam / w[j], j, b1_inv_half @ u)
            _, j, u = best
            u = u / np.sqrt(np.real(np.vdot(u, b1 @ u)))
            vals = np.zeros((n, dim, dim), dtype=complex)
            mass = float(pf["p"]) * n / (2.0 * w[j])
            _pair_atom(vals, j, mass * np.outer(u, np.conj(u)))
            return vals
        # D0_1: entrywise matrix budget; scalar case coincides with D0_2
        target = np.atleast_2d(np.asarray(pf["P"], dtype=complex))
        if dim == 1:
            rate = M_f[:half, 0, 0].real / w[:half]
            j = int(np.argmax(rate))
            vals = np.zeros((n, 1, 1), dtype=complex)
            mass = float(target[0, 0].real) * n / (2.0 * w[j])
            _pair_atom(vals, j, np.array([[mass]], dtype=complex))
            return vals
        # T > 1: top-eigendirection step preserving the entrywise budget
        rate = np.array([_top_dir(M_f[j])[0] for j in range(half)]) / w[:half]
        j = int(np.argmax(rate))
        vals = np.zeros((n, dim, dim), dtype=complex)
        _pair_atom(vals, j, target * n / (2.0 * w[j]))
        return vals

    # D1delta: add the full perturbation budget at the best pair
    f1 = pf["f1"].values
    vals = f1.copy()
    if kf in ("D1delta_1", "D1delta_3"):
        bound = float(pf["delta"])
        rate = np.array([_top_dir(M_f[j])[0] for j in range(half)]) / w[:half]
        j = int(np.argmax(rate))
        _, u = _top_dir(M_f[j])
        if kf == "D1delta_1":
            mass = bound * n / (2.0 * w[j])
        else:
            b1 = np.atleast_2d(np.asarray(pf["B1"], dtype=complex))
            cost = float(np.real(np.vdot(u, b1 @ u)))
            mass = bound * n / (2.0 * w[j] * cost)
        _pair_atom(vals, j, mass * np.outer(u, np.conj(u)))
        return vals
    if kf == "D1delta_2":
        dk = np.asarray(pf["delta_k"], dtype=float).reshape(-1)
        for k in range(dim):
            rate = M_f[:half, k, k].real / w[:half]
            j = int(np.argmax(rate))
            mass = dk[k] * n / (2.0 * w[j])
            blk = np.zeros((dim, dim), dtype=complex)
            blk[k, k] = mass
            _pair_atom(vals, j, blk)
        return vals
    # D1delta_4, diagonal budget use (off-diagonal budgets left unspent)
    dij = np.asarray(pf["delta_ij"], dtype=float)
    dij = np.atleast_2d(dij)
    for k in range(dim):
        rate = M_f[:half, k, k].real / w[:half]
        j = int(np.argmax(rate))
        mass = float(dij[k, k]) * n / (2.0 * w[j])
        blk = np.zeros((dim, dim), dtype=complex)
        blk[k, k] = mass
        _pair_atom(vals, j, blk)
    return vals


def _waterfill_traces(rate: np.ndarray, lo: np.ndarray, hi: np.ndarray, budget_mean: float):
    """Maximize mean(rate * t) over lo <= t <= hi with mean(t) = budget.

    Bang-bang by rate with one partial node; exact for the trace LP.
    """
    n = len(rate)
    order = np.argsort(-rate)
    t = lo.astype(float).copy()
    remaining = budget_mean * n - float(np.sum(lo))
    if remaining < -1e-9 * max(abs(budget_mean) * n, 1.0):
        raise ValidationError("infeasible box budget")
    for j in order:
        room = hi[j] - lo[j]
        take = min(room, remaining)
        t[j] += take
        remaining -= take
        if remaining <= 0:
            break
    return t


def _lp_g(class_spec, spec, grid, dim, M_g) -> np.ndarray | None:
    kg, pg = class_spec.g.kind, class_spec.g.params
    if kg in ("zero", "fixed"):
        return None
    n = grid.n_grid
    half = n // 2

    if kg.startswith("Deps"):
        eps = float(pg["eps"])
        g1 = pg["g1"].values
        floor = (1.0 - eps) * g1
        vals = floor.copy()
        if kg in ("Deps_1", "Deps_3", "Deps_4"):
            if kg == "Deps_1":
                free = float(pg["q"]) - (1.0 - eps) * float(np.mean(np.trace(g1, axis1=1, axis2=2).real))
                rate = np.array([_top_dir(M_g[j])[0] for j in range(half)])
                j = int(np.argmax(rate))
                _, u = _top_dir(M_g[j])
                _pair_atom(vals, j, max(free, 0.0) * n / 2.0 * np.outer(u, np.conj(u)))
            elif kg == "Deps_3":
                b2 = np.atleast_2d(np.asarray(pg["B2"], dtype=complex))
                have = (1.0 - eps) * float(np.mean(np.einsum("ts,nst->n", b2, g1).real))
                free = float(pg["q"]) - have
                evals, evecs = np.linalg.eigh(b2)
                b2_inv_half = evecs @ np.diag(1.0 / np.sqrt(np.clip(evals, 1e-15, None))) @ evecs.conj().T
                best = (-np.inf, 0, None)
                for j in range(half):
                    lam, u = _top_dir(b2_inv_half @ M_g[j] @ b2_inv_half)
                    if lam > best[0]:
                        best = (lam, j, b2_inv_half @ u)
                _, j, u = best
                u = u / np.sqrt(np.real(np.vdot(u, b2 @ u)))
                _pair_atom(vals, j, max(free, 0.0) * n / 2.0 * np.outer(u, np.conj(u)))
            else:  # Deps_4: entrywise budget, move the free mass to the best pair
                q_mat = np.atleast_2d(np.asarray(pg["Q"], dtype=complex))
                w_mat = q_mat - (1.0 - eps) * np.mean(g1, axis=0)
                rate = np.array([_top_dir(M_g[j])[0] for j in range(half)])
                j = int(np.argmax(rate))
                _pair_atom(vals, j, w_mat * n / 2.0)
            return vals
        # Deps_2: per-component floors and budgets
        qk = np.asarray(pg["q_k"], dtype=float).reshape(-1)
        diag1 = np.diagonal(g1, axis1=1, axis2=2).real
        for k in range(dim):
            free = qk[k] - (1.0 - eps) * float(np.mean(diag1[:, k]))
            rate = M_g[:half, k, k].real
            j = int(np.argmax(rate))
            blk = np.zeros((dim, dim), dtype=complex)
            blk[k, k] = max(free, 0.0) * n / 2.0
            _pair_atom(vals, j, blk)
        return vals

    V, U = pg["V"].values, pg["U"].values
    if kg == "DVU_2":
        rate_half = np.array([_top_dir(M_g[j])[0] for j in range(half)])
        rate = np.concatenate([rate_half, rate_half[::-1]])
        lo = np.trace(V, axis1=1, axis2=2).real
        hi = np.trace(U, axis1=1, axis2=2).real
        t = _waterfill_traces(rate, lo, hi, float(pg["q"]))
        t = 0.5 * (t + t[::-1])
        if dim == 1:
            return t.reshape(-1, 1, 1).astype(complex)
        vals = np.zeros((n, dim, dim), dtype=complex)
        for j in range(half):
            _, u = _top_dir(M_g[j])
            blk = t[j] * np.outer(u, np.conj(u))
            vals[j] = blk
            vals[_pair_index(n, j)] = blk.T
        return vals
    if kg == "DVU_3":
        vals = np.zeros((n, dim, dim), dtype=complex)
        dv = np.diagonal(V, axis1=1, axis2=2).real
        du = np.diagonal(U, axis1=1, axis2=2).real
        qk = np.asarray(pg["q_k"], dtype=float).reshape(-1)
        diag = np.zeros((n, dim))
        for k in range(dim):
            rate_half = M_g[:half, k, k].real
            rate = np.concatenate([rate_half, rate_half[::-1]])
            t = _waterfill_traces(rate, dv[:, k], du[:, k], qk[k])
            diag[:, k] = 0.5 * (t + t[::-1])
        for k in range(dim):
            vals[:, k, k] = diag[:, k]
        return vals
    if kg == "DVU_4":
        b2 = np.atleast_2d(np.asarray(pg["B2"], dtype=complex))
        vv = np.einsum("ts,nst->n", b2, V).real
        vu = np.einsum("ts,nst->n", b2, U).real
        span = np.where(vu - vv > 0, vu - vv, 1.0)
        rate_half = np.array([float(np.real(np.trace(
            (U[j] - V[j]) @ M_g[j]))) for j in range(half)]) / span[:half]
        rate = np.concatenate([rate_half, rate_half[::-1]])
        t = _waterfill_traces(rate, vv, vu, float(pg["q"]))
        theta = (t - vv) / span
        theta = 0.5 * (theta + theta[::-1])
        return V + theta[:, None, None] * (U - V)
    # DVU_1: PSD box with entrywise budget; interpolate bang-bang along V..U
    rate_half = np.array([float(np.real(np.trace((U[j] - V[j]) @ M_g[j]))) for j in range(half)])
    rate = np.concatenate([rate_half, rate_half[::-1]])
    lo = np.zeros(n)
    hi = np.ones(n)
    target = np.atleast_2d(np.asarray(pg["Q"], dtype=complex))
    lo_mean = np.mean(V, axis=0)
    hi_mean = np.mean(U, axis=0)
    denom = float(np.real(np.sum((hi_mean - lo_mean) * np.conj(hi_mean - lo_mean))))
    budget_theta = float(np.real(np.sum((target - lo_mean) * np.conj(hi_mean - lo_mean)))) / \
        max(denom, 1e-300)
    theta = _waterfill_traces(rate, lo, hi, budget_theta)
    theta = 0.5 * (theta + theta[::-1])
    return V + theta[:, None, None] * (U - V)


# ---------------------------------------------------------------------------
# the ascent

def _delta_core(spec, f, g, fspec) -> tuple[float, np.ndarray]:
    """Interpolation error and solved coefficients, no extras."""
    b = transform_b(spec, fspec)
    a_mu = coeffs_a_mu(spec, fspec)
    blocks = fourier_blocks(spec, f, g, fspec.N)
    rhs = padded_b(b, blocks.n_gamma) - blocks.T @ a_mu.reshape(-1).astype(complex)
    c = np.linalg.solve(blocks.P, rhs)
    a_flat = fspec.a.reshape(-1).astype(complex)
    delta = float((np.vdot(c, rhs) + np.vdot(a_flat, blocks.Q @ a_flat)).real)
    size = blocks.N + blocks.n_gamma + 1
    return delta, c.reshape(size, blocks.dim)


def _blend(x: np.ndarray, v: np.ndarray, eta: float) -> np.ndarray:
    return (1.0 - eta) * x + eta * v


def _line_search(spec, fspec, f_vals, g_vals, fv_vals, gv_vals, grid, evals: int):
    """Concave 1-D maximization along the segment toward the vertex pair."""

    def value(eta: float) -> float:
        f = DensityGrid(grid, _blend(f_vals, fv_vals, eta), validate=False)
        g = DensityGrid(grid, _blend(g_vals, gv_vals, eta), validate=False)
        try:
            return _delta_core(spec, f, g, fspec)[0]
        except (NumericalError, np.linalg.LinAlgError):
            return -np.inf

    lo, hi = 0.0, 1.0
    best_eta, best_val = 0.0, value(0.0)
    end_val = value(1.0)
    if end_val > best_val:
        best_eta, best_val = 1.0, end_val
    for _ in range(max(evals - 2, 0)):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        v1, v2 = value(m1), value(m2)
        if v1 > best_val:
            best_eta, best_val = m1, v1
        if v2 > best_val:
            best_eta, best_val = m2, v2
        if v1 < v2:
            lo = m1
        else:
            hi = m2
    return best_eta, best_val


def _ee_shapes(spec, fspec, grid, f, g, c):
    """|C^{f0}| and |C^{g0}| shapes entering the scalar extremal equations."""
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, grid.nodes)
    w = np.abs(chi) ** 2 / np.abs(beta) ** 2
    A_row = _row_polynomial(fspec.a, grid)
    C_row = _row_polynomial(np.asarray(c), grid)
    cf0 = np.conj(chi)[:, None] * np.einsum("nt,nts->ns", A_row, g.values) + C_row
    cg0 = chi[:, None] * C_row - w[:, None] * np.einsum("nt,nts->ns", A_row, f.values)
    sf = np.abs(cf0[:, 0])
    sg = np.abs(cg0[:, 0])
    return 0.5 * (sf + sf[::-1]), 0.5 * (sg + sg[::-1]), w, np.abs(beta) ** 2


def _bisect_decreasing(fun, target, lo, hi, iters=200):
    """Solve fun(x) = target for decreasing fun on a log-bracketed interval."""
    for _ in range(iters):
        mid = np.sqrt(lo * hi)
        if fun(mid) > target:
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


def _ee_candidate_f(class_spec, spec, fspec, grid, f, g, c):
    """Extremal-equation fixed-point candidate for scalar f-classes.

    Lifts the combined weighted density toward |C^{f0}| / multiplier above a
    floor (zero for budget classes, f1 for perturbation-ball classes), with
    the multiplier bisected to spend the class budget exactly.
    """
    kf, pf = class_spec.f.kind, class_spec.f.params
    if f.dim != 1 or kf == "fixed":
        return None
    shape, _, w, beta2 = _ee_shapes(spec, fspec, grid, f, g, c)
    g_part = w * beta2 * g.values[:, 0, 0].real

    if kf.startswith("D0"):
        floor = np.zeros(grid.n_grid)
        budget = {"D0_2": lambda: float(pf["p"]),
                  "D0_4": lambda: float(pf["p"]) /
                  float(np.atleast_2d(np.asarray(pf["B1"]))[0, 0].real),
                  "D0_1": lambda: float(np.atleast_2d(np.asarray(pf["P"]))[0, 0].real),
                  "D0_3": lambda: float(np.asarray(pf["p_k"]).reshape(-1)[0])}[kf]()
    else:
        floor = pf["f1"].values[:, 0, 0].real
        budget = {"D1delta_1": lambda: float(pf["delta"]),
                  "D1delta_2": lambda: float(np.asarray(pf["delta_k"]).reshape(-1)[0]),
                  "D1delta_3": lambda: float(pf["delta"]) /
                  float(np.atleast_2d(np.asarray(pf["B1"]))[0, 0].real),
                  "D1delta_4": lambda: float(np.atleast_2d(np.asarray(pf["delta_ij"]))[0, 0])}[kf]()
    if budget <= 0:
        return None
    base = w * floor + g_part  # weighted combined density at the floor

    def used(alpha):
        return float(np.mean(np.maximum(shape / alpha - base, 0.0)))

    scale = max(float(np.max(shape)), 1e-300)
    alpha = _bisect_decreasing(used, budget, scale * 1e-12, scale * 1e12 / max(budget, 1e-300))
    lift = np.maximum(shape / alpha - base, 0.0)
    use = float(np.mean(lift))
    if use <= 0:
        return None
    lift *= budget / use
    f_vals = (floor + lift / w).reshape(-1, 1, 1).astype(complex)
    return f_vals


def _ee_candidate_g(class_spec, spec, fspec, grid, f, g, c):
    """Extremal-equation waterfill candidate for scalar g-classes.

    Sets g so the combined weighted density tracks |C^{g0}| / multiplier,
    clipped to the class box or floor, multiplier bisected onto the trace
    budget.  Bang-bang clipping emerges when the box binds.
    """
    kg, pg = class_spec.g.kind, class_spec.g.params
    if g.dim != 1 or kg in ("zero", "fixed"):
        return None
    _, shape, w, beta2 = _ee_shapes(spec, fspec, grid, f, g, c)
    f_part = f.values[:, 0, 0].real
    denom = w * beta2

    if kg.startswith("DVU"):
        lo = pg["V"].values[:, 0, 0].real
        hi = pg["U"].values[:, 0, 0].real
        q = {"DVU_1": lambda: float(np.atleast_2d(np.asarray(pg["Q"]))[0, 0].real),
             "DVU_2": lambda: float(pg["q"]),
             "DVU_3": lambda: float(np.asarray(pg["q_k"]).reshape(-1)[0]),
             "DVU_4": lambda: float(pg["q"]) /
             float(np.atleast_2d(np.asarray(pg["B2"]))[0, 0].real)}[kg]()
    else:
        eps = float(pg["eps"])
        lo = (1.0 - eps) * pg["g1"].values[:, 0, 0].real
        hi = np.full(grid.n_grid, np.inf)
        q = {"Deps_1": lambda: float(pg["q"]),
             "Deps_2": lambda: float(np.asarray(pg["q_k"]).reshape(-1)[0]),
             "Deps_3": lambda: float(pg["q"]) /
             float(np.atleast_2d(np.asarray(pg["B2"]))[0, 0].real),
             "Deps_4": lambda: float(np.atleast_2d(np.asarray(pg["Q"]))[0, 0].real)}[kg]()

    def g_of(mult):
        return np.clip((shape / mult - w * f_part) / denom, lo, hi)

    def used(mult):
        return float(np.mean(g_of(mult)))

    scale = max(float(np.max(shape)), 1e-300)
    mult = _bisect_decreasing(used, q, scale * 1e-14, scale * 1e14 / max(q, 1e-300))
    g_new = g_of(mult)
    if not np.all(np.isfinite(g_new)):
        return None
    return g_new.reshape(-1, 1, 1).astype(complex)


def solve_minimax(class_spec: DensityClassSpec, fspec: FunctionalSpec,
                  spec: GMIncrementSpec, grid: FrequencyGrid,
                  options: MinimaxOptions | None = None) -> MinimaxResult:
    """Ascend the optimal-estimate error over the admissible class.

    Alternates exact interpolation solves with exact inner linear programs
    over the discretized class, accepting the best line-searched candidate;
    stops when the relative error change drops below options.tol.
    """
    options = options or MinimaxOptions()
    dim = fspec.dim
    f, g = feasible_start(class_spec, spec, grid, dim)

    trace = []
    converged = False
    delta, c = _delta_core(spec, f, g, fspec)
    worst_feas = feasibility_report(class_spec, spec, f, g)["max_residual"]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for it in range(options.max_iter):
            sol_h, _, _ = spectral_characteristic(spec, f, g, c, fspec)
            M_f, M_g = _gradient_kernels(spec, fspec, f, g, sol_h)

            fv = _lp_f(class_spec, spec, grid, dim, M_f)
            gv = _lp_g(class_spec, spec, grid, dim, M_g)
            fv_vals = f.values if fv is None else fv
            gv_vals = g.values if gv is None else gv

            gap = float(np.mean(np.einsum("nts,nst->n", fv_vals, M_f).real)
                        + np.mean(np.einsum("nts,nst->n", gv_vals, M_g).real)) - delta

            eta, val = _line_search(spec, fspec, f.values, g.values, fv_vals, gv_vals,
                                    grid, options.line_search_evals)
            candidates = [("line", _blend(f.values, fv_vals, eta),
                           _blend(g.values, gv_vals, eta), val)]

            fe = _ee_candidate_f(class_spec, spec, fspec, grid, f, g, c)
            ge = _ee_candidate_g(class_spec, spec, fspec, grid, f, g, c)
            for kind, fc, gc in (("ee_f", fe, g.values), ("ee_g", f.values, ge),
                                 ("ee_fg", fe, ge)):
                if fc is None or gc is None:
                    continue
                try:
                    d_ee, _ = _delta_core(spec, DensityGrid(grid, fc, validate=False),
                                          DensityGrid(grid, gc, validate=False), fspec)
                except (NumericalError, np.linalg.LinAlgError):
                    continue
                candidates.append((kind, fc, gc, d_ee))

            kind, f_new, g_new, val = max(candidates, key=lambda t: t[3])
            if val <= delta * (1.0 + 1e-15):
                converged = True
                trace.append({"iter": it, "delta": delta, "step": "stall",
                              "eta": 0.0, "gap": gap})
                break

            f = DensityGrid(grid, _sym_value(np.ascontiguousarray(f_new)), validate=False)
            g = DensityGrid(grid, _sym_value(np.ascontiguousarray(g_new)), validate=False)
            new_delta, c = _delta_core(spec, f, g, fspec)
            worst_feas = max(worst_feas,
                             feasibility_report(class_spec, spec, f, g)["max_residual"])
            trace.append({"iter": it, "delta": new_delta, "step": kind,
                          "eta": eta if kind == "line" else 1.0, "gap": gap})
            change = abs(new_delta - delta)
            delta = new_delta
            if change <= options.tol * max(1.0, abs(delta)):
                converged = True
                break

    solution = solve_interpolation(spec, f, g, fspec)
    # certificate: by concavity, max over the class <= delta0 + final gap
    M_f, M_g = _gradient_kernels(spec, fspec, f, g, solution.h)
    fv = _lp_f(class_spec, spec, grid, dim, M_f)
    gv = _lp_g(class_spec, spec, grid, dim, M_g)
    fv_vals = f.values if fv is None else fv
    gv_vals = g.values if gv is None else gv
    final_gap = float(np.mean(np.einsum("nts,nst->n", fv_vals, M_f).real)
                      + np.mean(np.einsum("nts,nst->n", gv_vals, M_g).real)) - solution.delta
    result = MinimaxResult(
        f0=f, g0=g, h0=solution.h, delta0=solution.delta,
        multipliers={}, residual_report={}, saddle_report={},
        trace=trace, converged=converged, solution=solution,
    )
    result.residual_report = extremal_residuals(result, class_spec, fspec, spec)
    result.residual_report["worst_iterate_feasibility"] = worst_feas
    result.residual_report["ascent_gap"] = final_gap
    result.multipliers = result.residual_report.get("multipliers", {})
    result.saddle_report = saddle_check(result, class_spec, fspec, spec,
                                        options.saddle_samples, options.seed)
    return result


# ---------------------------------------------------------------------------
# extremal equations and saddle verification

def _extremal_functions(spec, fspec, f0, g0, c):
    grid = f0.grid
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, grid.nodes)
    w = np.abs(chi) ** 2 / np.abs(beta) ** 2
    A_row = _row_polynomial(fspec.a, grid)
    C_row = _row_polynomial(np.asarray(c), grid)
    cf0 = np.conj(chi)[:, None] * np.einsum("nt,nts->ns", A_row, g0.values) + C_row
    cg0 = chi[:, None] * C_row - w[:, None] * np.einsum("nt,nts->ns", A_row, f0.values)
    p_vals = f0.values + (np.abs(beta) ** 2)[:, None, None] * g0.values
    p_chi = w[:, None, None] * p_vals
    e_f = np.einsum("nt,ns->nst", cf0, np.conj(cf0))
    e_g = np.einsum("nt,ns->nst", cg0, np.conj(cg0))
    return e_f, e_g, p_chi, w


def _fit_scale(lhs: np.ndarray, rhs_shape: np.ndarray, mask: np.ndarray) -> float:
    num = float(np.sum(lhs[mask] * rhs_shape[mask]))
    den = float(np.sum(rhs_shape[mask] ** 2))
    return num / den if den > 0 else 0.0


def extremal_residuals(result: MinimaxResult, class_spec: DensityClassSpec,
                       fspec: FunctionalSpec, spec: GMIncrementSpec) -> dict:
    """Residuals of the class's extremal equation pair at the solved point.

    Multipliers are least-squares fitted on the active sets, slack
    functions are zero there by complementary slackness, and the report
    carries sup-norm relative residuals plus budget residuals.
    """
    f0, g0 = result.f0, result.g0
    e_f, e_g, p_chi, w = _extremal_functions(spec, fspec, f0, g0, result.solution.c)
    report: dict = {"multipliers": {}}
    scalar = f0.dim == 1

    kf, pf = class_spec.f.kind, class_spec.f.params
    if kf != "fixed":
        lhs = np.einsum("ntt->n", e_f).real if not scalar else e_f[:, 0, 0].real
        pc = p_chi[:, 0, 0].real if scalar else np.einsum("ntt->n", p_chi).real
        shape = pc ** 2
        if kf.startswith("D0"):
            fdiag = np.trace(f0.values, axis1=1, axis2=2).real
            active = fdiag > 1e-6 * max(float(np.max(fdiag)), 1e-300)
            alpha2 = _fit_scale(lhs, shape, active)
            resid = np.abs(lhs - alpha2 * shape)
            denom = max(float(np.max(np.abs(lhs[active]))), 1e-300)
            report["f"] = {
                "kind": kf,
                "relative_residual": float(np.max(resid[active])) / denom,
                "active_fraction": float(np.mean(active)),
            }
            report["multipliers"]["alpha2"] = alpha2
            used = _f_budget_used(kf if kf != "D0_1" or not scalar else "D0_2",
                                  pf if kf != "D0_1" or not scalar else
                                  {"p": float(np.atleast_2d(np.asarray(pf["P"]))[0, 0].real)},
                                  w, f0)
            target = {"D0_1": lambda: float(np.atleast_2d(np.asarray(pf["P"]))[0, 0].real)
                      if scalar else np.atleast_2d(np.asarray(pf["P"])),
                      "D0_2": lambda: pf["p"],
                      "D0_3": lambda: np.asarray(pf["p_k"], dtype=float),
                      "D0_4": lambda: pf["p"]}[kf]()
            report["f"]["budget_residual"] = float(
                np.max(np.abs(np.asarray(used) - np.asarray(target))))
        else:
            moved = np.abs(np.trace(f0.values - pf["f1"].values, axis1=1, axis2=2)) > \
                1e-9 * max(float(np.max(np.abs(f0.values))), 1e-300)
            if np.any(moved):
                beta2 = _fit_scale(lhs, shape, moved)
                denom = max(float(np.max(np.abs(lhs[moved]))), 1e-300)
                rel = float(np.max(np.abs(lhs[moved] - beta2 * shape[moved]))) / denom
            else:
                beta2, rel = 0.0, 0.0
            inactive = ~moved
            viol = float(np.max(np.maximum(lhs[inactive] - beta2 * shape[inactive], 0.0))) \
                if np.any(inactive) and beta2 > 0 else 0.0
            used = _l1_budget_used(kf, pf, w, f0)
            bound = {"D1delta_1": lambda: pf["delta"],
                     "D1delta_2": lambda: np.asarray(pf["delta_k"], dtype=float),
                     "D1delta_3": lambda: pf["delta"],
                     "D1delta_4": lambda: np.asarray(pf["delta_ij"], dtype=float)}[kf]()
            report["f"] = {
                "kind": kf,
                "relative_residual": rel,
                "moved_fraction": float(np.mean(moved)),
                "inactive_overshoot": viol / max(float(np.max(lhs)), 1e-300),
                "budget_residual": float(np.max(np.abs(np.asarray(used) - np.asarray(bound)))),
            }
            report["multipliers"]["beta2"] = beta2

    kg, pg = class_spec.g.kind, class_spec.g.params
    if kg not in ("zero", "fixed"):
        lhs = e_g[:, 0, 0].real if scalar else np.einsum("ntt->n", e_g).real
        pc = p_chi[:, 0, 0].real if scalar else np.einsum("ntt->n", p_chi).real
        shape = pc ** 2
        if kg.startswith("Deps"):
            eps = float(pg["eps"])
            g1v = pg["g1"].values
            floor = (1.0 - eps) * np.trace(g1v, axis1=1, axis2=2).real
            tr = np.trace(g0.values, axis1=1, axis2=2).real
            free = tr > floor + 1e-8 * max(float(np.max(tr)), 1e-300)
            alpha2 = _fit_scale(lhs, shape, free) if np.any(free) else 0.0
            rel = (float(np.max(np.abs(lhs[free] - alpha2 * shape[free])))
                   / max(float(np.max(np.abs(lhs[free]))), 1e-300)) if np.any(free) else 0.0
            clamped = ~free
            viol = float(np.max(np.maximum(lhs[clamped] - alpha2 * shape[clamped], 0.0))) \
                if np.any(clamped) else 0.0
            report["g"] = {
                "kind": kg,
                "relative_residual": rel,
                "free_fraction": float(np.mean(free)),
                "clamped_overshoot": viol / max(float(np.max(lhs)), 1e-300),
            }
            report["multipliers"]["g_alpha2"] = alpha2
        else:
            tv = np.trace(pg["V"].values, axis1=1, axis2=2).real
            tu = np.trace(pg["U"].values, axis1=1, axis2=2).real
            tr = np.trace(g0.values, axis1=1, axis2=2).real
            span = max(float(np.max(tu - tv)), 1e-300)
            interior = (tr > tv + 1e-6 * span) & (tr < tu - 1e-6 * span)
            beta2 = _fit_scale(lhs, shape, interior) if np.any(interior) else 0.0
            rel = (float(np.max(np.abs(lhs[interior] - beta2 * shape[interior])))
                   / max(float(np.max(np.abs(lhs[interior]))), 1e-300)) if np.any(interior) else 0.0
            at_lo = tr <= tv + 1e-6 * span
            at_hi = tr >= tu - 1e-6 * span
            viol_lo = float(np.max(np.maximum(lhs[at_lo] - beta2 * shape[at_lo], 0.0))) \
                if np.any(at_lo) and np.any(interior) else 0.0
            viol_hi = float(np.max(np.maximum(beta2 * shape[at_hi] - lhs[at_hi], 0.0))) \
                if np.any(at_hi) and np.any(interior) else 0.0
            report["g"] = {
                "kind": kg,
                "relative_residual": rel,
                "interior_fraction": float(np.mean(interior)),
                "lower_overshoot": viol_lo / max(float(np.max(lhs)), 1e-300),
                "upper_overshoot": viol_hi / max(float(np.max(lhs)), 1e-300),
            }
            report["multipliers"]["g_beta2"] = beta2
        feas = feasibility_report(class_spec, spec, f0, g0)
        report["g"]["budget_residual"] = feas["g"]["residual"]
    if kf == "D0_1" and not scalar:
        report.setdefault("notes", []).append("D0_1 matrix budget enforced entrywise")
    return report


def _project_f(class_spec, spec, grid, f_vals):
    kf, pf = class_spec.f.kind, class_spec.f.params
    w = budget_weight(spec, grid)
    vals = _sym_value(np.ascontiguousarray(f_vals))
    if vals.shape[1] == 1:
        vals = np.maximum(vals.real, 0.0).astype(complex)
    if kf == "fixed":
        return pf["f1"].values.copy()
    f = DensityGrid(grid, vals, validate=False)
    if kf.startswith("D0"):
        used = _f_budget_used(kf, pf, w, f)
        if kf == "D0_2":
            scale = float(pf["p"]) / max(float(used), 1e-300)
        elif kf == "D0_4":
            scale = float(pf["p"]) / max(float(used), 1e-300)
        elif kf == "D0_3":
            target = np.asarray(pf["p_k"], dtype=float)
            scale = np.min(target / np.maximum(np.asarray(used), 1e-300))
        else:
            target = np.atleast_2d(np.asarray(pf["P"]))
            scale = float(np.real(np.trace(target)) /
                          max(np.real(np.trace(np.atleast_2d(used))), 1e-300))
        return vals * scale
    used = _l1_budget_used(kf, pf, w, f)
    bound = {"D1delta_1": lambda: pf["delta"],
             "D1delta_2": lambda: np.max(np.asarray(pf["delta_k"], dtype=float)),
             "D1delta_3": lambda: pf["delta"],
             "D1delta_4": lambda: np.max(np.asarray(pf["delta_ij"], dtype=float))}[kf]()
    used_max = float(np.max(np.asarray(used)))
    if used_max <= bound:
        return vals
    shrink = bound / used_max
    return pf["f1"].values + shrink * (vals - pf["f1"].values)


def _project_g(class_spec, spec, grid, g_vals):
    kg, pg = class_spec.g.kind, class_spec.g.params
    vals = _sym_value(np.ascontiguousarray(g_vals))
    if vals.shape[1] == 1:
        vals = np.maximum(vals.real, 0.0).astype(complex)
    if kg == "zero":
        return np.zeros_like(vals)
    if kg == "fixed":
        return pg["g1"].values.copy()
    if kg.startswith("Deps"):
        eps = float(pg["eps"])
        floor = (1.0 - eps) * pg["g1"].values
        free = vals - floor
        if free.shape[1] == 1:
            free = np.maximum(free.real, 0.0).astype(complex)
        if kg == "Deps_2":
            qk = np.asarray(pg["q_k"], dtype=float).reshape(-1)
            target = qk - (1.0 - eps) * np.mean(
                np.diagonal(pg["g1"].values, axis1=1, axis2=2).real, axis=0)
            have = np.mean(np.diagonal(free, axis1=1, axis2=2).real, axis=0)
            scale = target / np.maximum(have, 1e-300)
            free = free * scale[None, None, :] ** 0.5 * scale[None, :, None] ** 0.5
        else:
            q = float(pg["q"]) if "q" in pg else float(
                np.real(np.trace(np.atleast_2d(np.asarray(pg["Q"])))))
            have_floor = float(np.mean(np.trace(floor, axis1=1, axis2=2).real))
            have_free = float(np.mean(np.trace(free, axis1=1, axis2=2).real))
            free = free * (q - have_floor) / max(have_free, 1e-300)
        return floor + free
    V, U = pg["V"].values, pg["U"].values
    if kg == "DVU_2" and vals.shape[1] == 1:
        tv, tu = V[:, 0, 0].real, U[:, 0, 0].real
        x = np.clip(vals[:, 0, 0].real, tv, tu)
        q = float(pg["q"])
        lo_s, hi_s = float(np.min(tv - x)), float(np.max(tu - x))
        for _ in range(200):
            mid = 0.5 * (lo_s + hi_s)
            if float(np.mean(np.clip(x + mid, tv, tu))) < q:
                lo_s = mid
            else:
                hi_s = mid
        x = np.clip(x + 0.5 * (lo_s + hi_s), tv, tu)
        return x.reshape(-1, 1, 1).astype(complex)
    # generic box: blend toward the feasible interpolation point
    theta_vals = V + 0.5 * (U - V)
    best = vals
    for t in np.linspace(0.0, 1.0, 21):
        cand = (1.0 - t) * vals + t * theta_vals
        g = DensityGrid(grid, cand, validate=False)
        class_only = DensityClassSpec(FClassSpec("fixed", {"f1": g}), class_spec.g)
        rep = feasibility_report(class_only, spec, g, g)["g"]["residual"]
        if rep <= FEASIBILITY_TOL:
            best = cand
            break
    return best


def saddle_check(result: MinimaxResult, class_spec: DensityClassSpec,
                 fspec: FunctionalSpec, spec: GMIncrementSpec,
                 n_samples: int, seed: int = 0) -> dict:
    """Verify both saddle inequalities at the solved pair.

    Right side: the fixed characteristic against sampled admissible pairs
    (random 10% node jitter projected back onto the class) must not beat
    delta0.  Left side: alternative valid characteristics (observation-band
    perturbations of h0) must not do better at the least favorable pair.
    """
    if n_samples <= 0:
        return {"n_samples": 0, "max_violation": 0.0, "pass": True,
                "left_min_margin": 0.0}
    rng = np.random.default_rng(seed)
    grid = result.f0.grid
    f0, g0, h0 = result.f0, result.g0, result.h0
    delta0 = result.delta0
    n = grid.n_grid
    dim = f0.dim

    max_violation = -np.inf
    skipped = 0
    for _ in range(n_samples):
        jitter_f = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=n)
        jitter_g = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=n)
        jitter_f = 0.5 * (jitter_f + jitter_f[::-1])
        jitter_g = 0.5 * (jitter_g + jitter_g[::-1])
        f_vals = _project_f(class_spec, spec, grid, jitter_f[:, None, None] * f0.values)
        g_vals = _project_g(class_spec, spec, grid, jitter_g[:, None, None] * g0.values)
        f_s = DensityGrid(grid, f_vals, validate=False)
        g_s = DensityGrid(grid, g_vals, validate=False)
        # matrix-class projections are approximate; only admissible samples count
        if feasibility_report(class_spec, spec, f_s, g_s)["max_residual"] > 1e-6:
            skipped += 1
            continue
        val = mse_of_characteristic(spec, f_s, g_s, fspec, h0)
        max_violation = max(max_violation, val - delta0)
    if not np.isfinite(max_violation):
        max_violation = 0.0

    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, grid.nodes)
    ng = spec.n_gamma()
    band = list(range(-4 - ng, 0)) + list(range(fspec.N + ng + 1, fspec.N + ng + 5))
    left_min = np.inf
    scale = float(np.max(np.abs(h0))) or 1.0
    for _ in range(10):
        theta = 0.1 * scale * rng.standard_normal((len(band), dim))
        poly = np.zeros((n, dim), dtype=complex)
        for i, k in enumerate(band):
            poly += np.exp(1j * k * grid.nodes)[:, None] * theta[i]
        h_alt = h0 + poly * (chi / beta)[:, None]
        val = mse_of_characteristic(spec, f0, g0, fspec, h_alt)
        left_min = min(left_min, val - delta0)
    return {
        "n_samples": n_samples,
        "skipped_samples": skipped,
        "max_violation": float(max_violation),
        "left_min_margin": float(left_min),
        "pass": bool(max_violation <= 1e-6 * max(delta0, 1e-300) and left_min >= -1e-10),
    }


# ---------------------------------------------------------------------------
# brute-force references for tests

def two_atom_search(class_spec: DensityClassSpec, fspec: FunctionalSpec,
                    spec: GMIncrementSpec, grid: FrequencyGrid,
                    n_positions: int = 96, rounds: int = 3) -> dict:
    """Independent coordinate grid search over symmetric-pair densities.

    f-side: enumerate one- and two-pair placements of the perturbation /
    budget mass over a subgrid of node pairs, solving the exact problem for
    each candidate.  g-side (box classes): golden-section over a one-degree
    waterfill family per round.  Returns the best pair found.
    """
    dim = fspec.dim
    if dim != 1:
        raise ValidationError("two_atom_search supports scalar problems only")
    n = grid.n_grid
    half = n // 2
    positions = np.unique(np.linspace(0, half - 1, n_positions).astype(int))
    f, g = feasible_start(class_spec, spec, grid, dim)
    w = budget_weight(spec, grid)
    kf, pf = class_spec.f.kind, class_spec.f.params

    def delta_at(f_vals, g_vals):
        try:
            return _delta_core(spec, DensityGrid(grid, f_vals, validate=False),
                               DensityGrid(grid, g_vals, validate=False), fspec)[0]
        except (NumericalError, np.linalg.LinAlgError):
            return -np.inf

    def f_candidates():
        if kf == "fixed":
            yield pf["f1"].values, "fixed"
            return
        if kf.startswith("D0"):
            budget = float(pf["p"]) if kf in ("D0_2", "D0_4") else (
                float(np.atleast_2d(np.asarray(pf["P"]))[0, 0].real) if kf == "D0_1"
                else float(np.asarray(pf["p_k"]).reshape(-1)[0]))
            base = np.zeros((n, 1, 1), dtype=complex)
            for j in positions:
                vals = base.copy()
                _pair_atom(vals, int(j), np.array([[budget * n / (2.0 * w[j])]], complex))
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
        f1 = pf["f1"].values
        bound = float(pf["delta"]) if kf in ("D1delta_1", "D1delta_3") else (
            float(np.asarray(pf["delta_k"]).reshape(-1)[0]) if kf == "D1delta_2"
            else float(np.atleast_2d(np.asarray(pf["delta_ij"]))[0, 0]))
        for j in positions:
            vals = f1.copy()
            _pair_atom(vals, int(j), np.array([[bound * n / (2.0 * w[j])]], complex))
            yield vals, f"one@{j}"
        coarse = positions[:: max(len(positions) // 24, 1)]
        for i, j1 in enumerate(coarse):
            for j2 in coarse[i + 1:]:
                for share in (0.25, 0.5, 0.75):
                    vals = f1.copy()
                    _pair_atom(vals, int(j1),
                               np.array([[share * bound * n / (2.0 * w[j1])]], complex))
                    _pair_atom(vals, int(j2),
                               np.array([[(1 - share) * bound * n / (2.0 * w[j2])]], complex))
                    yield vals, f"two@{j1},{j2},{share}"

    best = {"delta": -np.inf, "f": f.values, "g": g.values, "label": "start"}
    g_vals = g.values
    for _ in range(rounds):
        for cand, label in f_candidates():
            val = delta_at(cand, g_vals)
            if val > best["delta"]:
                best = {"delta": val, "f": cand, "g": g_vals, "label": label}
        kg, pg = class_spec.g.kind, class_spec.g.params
        if kg in ("zero", "fixed"):
            break
        # refine g by the waterfill family at the current best f
        f_best = DensityGrid(grid, best["f"], validate=False)
        _, c = _delta_core(spec, f_best, DensityGrid(grid, g_vals, validate=False), fspec)
        h, _, _ = spectral_characteristic(spec, f_best,
                                          DensityGrid(grid, g_vals, validate=False), c, fspec)
        _, M_g = _gradient_kernels(spec, fspec, f_best,
                                   DensityGrid(grid, g_vals, validate=False), h)
        gv = _lp_g(class_spec, spec, grid, dim, M_g)
        if gv is None:
            break
        for eta in np.linspace(0.0, 1.0, 21):
            cand_g = _blend(g_vals, gv, eta)
            val = delta_at(best["f"], cand_g)
            if val > best["delta"]:
                best = {"delta": val, "f": best["f"], "g": cand_g,
                        "label": best["label"] + f"+g(eta={eta:.2f})"}
        g_vals = best["g"]
    return best
