"""Least favorable spectral densities over uncertainty classes.

A monotone projected ascent of the optimal-estimate error, which is concave
in (f, g): linearize through the error rows r_f, r_g (rank-one gradient
kernels conj(r) r^T) and line-search the blend toward a class vertex, but at
T = 1 only when no extremal-equation fixed point improves.  Each class kind
is one family read through one measure (CLASS_TABLE).  Every vertex is exact
at T = 1; at T > 1 only D0_2, D0_4 and DVU_2 are, and the other kinds are
listed in residual_report["approximate"] and never converge.
"""

from __future__ import annotations

import warnings

import numpy as np

from .classical import (
    FunctionalSpec,
    InterpolationSolution,
    Problem,
    _algebraic_mse,
    _characteristic,
    _check_weight_scale,
    _error_energy,
    _error_rows,
    _interpolate,
    _row_polynomial,
    _solve,
    mse_of_characteristic,
)
from .errors import NumericalError, ValidationError, WeightScaleError
from .increments import GMIncrementSpec
from .spectra import DensityGrid, FrequencyGrid, hermitian_eigenvalues

FEASIBILITY_TOL = 1e-8
#: a stopped ascent is converged only if its certificate gap is below this share of delta0
GAP_RTOL = 1e-3
#: the line search runs LINE_SEARCH_EVALS - 2 ternary rounds (at T = 1 only if
#: no extremal-equation candidate improves)
LINE_SEARCH_EVALS = 16


def _norm2(r: np.ndarray) -> np.ndarray:
    return np.sum(r.real ** 2 + r.imag ** 2, axis=1)


def _rank_one(v: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """v v^H / norm per node; the last basis vector where v vanishes, as eigh gives."""
    zero = norm <= 0
    v = np.where(zero[:, None], np.eye(v.shape[1])[-1], v)
    return np.einsum("nt,ns->nts", v, np.conj(v)) / np.where(zero, 1.0, norm)[:, None, None]


def _worst(x, floor: float) -> float:
    return max(float(np.max(x)), floor)


def _psd_violation(y: np.ndarray) -> float:
    return _worst(-hermitian_eigenvalues(y), 0.0)


class _Measure:
    """How a class reads a T x T value x.  components(r, budget) gives (rate,
    block) pairs: block[j] at node j raises r^T x conj(r) by rate[j]."""

    parse = staticmethod(float)

    def __init__(self, name: str, dim: int, B=None):
        self.name, self.dim = name, dim
        self.B = np.eye(dim) if B is None else np.atleast_2d(np.asarray(B, dtype=complex))

    def below(self, y):  # largest violation of y >= 0
        return _worst(-y, 0.0)

    def rescale(self, x, target, have):  # move the measure of x from have to target
        return x * (target / np.maximum(have, 1e-300))


class _Trace(_Measure):
    """Tr[B x] (B = I for "trace"); a budget goes along B^{-1} conj(r)."""

    def of(self, x):
        return np.einsum("ts,...st->...", self.B, x).real

    def flat(self, y):
        return y / float(np.trace(self.B).real) * np.eye(self.dim)

    def components(self, r, budget, whiten=True):
        v = np.conj(r) @ np.linalg.inv(self.B).T if whiten else np.conj(r)
        norm = np.einsum("nt,ts,ns->n", np.conj(v), self.B, v).real
        return [(norm if whiten else _norm2(r), budget * _rank_one(v, norm))]


class _Diag(_Measure):
    """diag x; budget k goes on e_k e_k^T at its own best node."""

    parse = staticmethod(lambda value: np.asarray(value, dtype=float).reshape(-1))
    of = staticmethod(lambda x: np.diagonal(x, axis1=-2, axis2=-1).real)
    flat = staticmethod(np.diag)

    def rescale(self, x, target, have):
        s = np.sqrt(target / np.maximum(have, 1e-300))
        return x * s * s[:, None]

    def components(self, r, budget, whiten=True):
        unit = np.eye(self.dim)
        return [(_norm2(r[:, [k]]), np.broadcast_to(budget[k] * np.diag(unit[k]),
                                                    (len(r),) + unit.shape))
                for k in range(self.dim)]


class _Matrix(_Measure):
    """x itself, entrywise; a budget matrix moves as one block."""

    parse = staticmethod(np.atleast_2d)
    of = flat = staticmethod(lambda x: x)
    below = staticmethod(_psd_violation)

    def rescale(self, x, target, have):
        return x * (np.trace(target).real / np.maximum(np.trace(have).real, 1e-300))

    def components(self, r, budget, whiten=True):
        return [(_norm2(r), np.broadcast_to(budget, (len(r),) + budget.shape))]


_MEASURES = {"trace": _Trace, "btrace": _Trace, "diag": _Diag, "matrix": _Matrix}


def _traces(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=1, axis2=2).real


class _Pinned:
    """'fixed' pins a side at its reference density; 'zero' pins the noise at 0."""

    bounds = None  # no extremal-equation candidate
    approximate = False

    def __init__(self, kind, values):
        self.kind, self.values = kind, values

    def start(self):
        return self.values.copy()

    def project(self, vals):  # every value projects onto the pinned density
        return self.values

    vertex = staticmethod(lambda r: None)

    def residual(self, vals):
        return float(np.max(np.abs(vals - self.values)))


class _Family:
    """A class family read through a measure: start, vertex(r), project,
    residual; bounds = (floor, ceiling or None) feed the scalar
    extremal-equation candidates and the active sets of the report."""

    base: tuple = ()     # parameters besides the measure's
    budgets: dict = {}   # measure -> budget parameter
    b_param = ""         # the metric B of the weighted trace
    exact: tuple = ()    # measures whose vertex is exact at T > 1
    names: tuple = ()    # report keys: active share, lower / upper overshoot, multiplier
    bound_tol = 1e-6     # a node sits on a bound within this share of max Tr or box span

    def __init__(self, kind, m, params, w):
        self.kind, self.m, self.w, self.n, self.dim = kind, m, w, len(w), m.dim
        self.budget = m.parse(params[self.budgets[m.name]])
        self.approximate = self.dim > 1 and m.name not in self.exact
        if self.dim == 1:  # the budget in density units
            self.scalar_budget = float(np.real(np.ravel(self.budget)[0]
                                               / np.ravel(m.of(np.eye(1)))[0]))

    @classmethod
    def params(cls, measure: str) -> tuple:
        return cls.base + ((cls.b_param,) if measure == "btrace" else ()) + (cls.budgets[measure],)

    def weighted_mean(self, y):  # over the nodes, the first axis of y
        return np.mean(self.w.reshape((-1,) + (1,) * (y.ndim - 1)) * y, axis=0)

    def place(self, vals, components, scale):
        """Add each component's block at its best node pair with mass n / (2 scale_j)."""
        for rate, block in components:
            j = int(np.argmax(rate[: self.n // 2] / scale[: self.n // 2]))
            with np.errstate(over="ignore", invalid="ignore"):
                atom = block[j] * (self.n / (2.0 * scale[j]))
            if not np.all(np.isfinite(atom)):
                raise ValidationError(f"{'g' if self.b_param == 'B2' else 'f'}_class."
                                      f"{self.budgets[self.m.name]}: too large, a vertex overflows")
            vals[j] += atom
            vals[self.n - 1 - j] += atom.T
        return vals

    def residual(self, vals):
        """Noise families: the larger of the bound violations and the budget miss."""
        got, (lo, hi) = self.m.of(vals), self.bounds
        worst = _worst(np.abs(np.mean(got, axis=0) - self.budget),
                       self.m.below(got - self.m.of(lo)))
        return worst if hi is None else max(worst, self.m.below(self.m.of(hi) - got))

    def budget_residual(self, vals):
        return self.residual(vals)

    def extremal(self, lhs, shape, vals):
        """Multiplier fitted on the active nodes; overshoots where the density sits on a bound."""
        lo, hi = self.bounds
        tr = _traces(vals)
        tol = self.bound_tol * max(float(np.max(tr if hi is None else _traces(hi - lo))), 1e-300)
        at_lo = tr <= _traces(lo) + tol
        at_hi = np.zeros_like(at_lo) if hi is None else tr >= _traces(hi) - tol
        active = ~at_lo & ~at_hi
        scale, rel = 0.0, 0.0  # least-squares fit of shape onto lhs over the active nodes
        if np.any(active):
            den = float(np.sum(shape[active] ** 2))
            scale = float(np.sum(lhs[active] * shape[active])) / den if den > 0 else 0.0
            rel = float(np.max(np.abs(lhs[active] - scale * shape[active]))) / \
                max(float(np.max(np.abs(lhs[active]))), 1e-300)
        top = max(float(np.max(lhs)), 1e-300)
        rep = {"relative_residual": rel, self.names[0]: float(np.mean(active)),
               "budget_residual": self.budget_residual(vals)}
        for key, mask, excess in ((self.names[1], at_lo, lhs - scale * shape),
                                  (self.names[2], at_hi, scale * shape - lhs)):
            if key:
                rep[key] = float(np.max(np.maximum(excess[mask], 0.0))) / top \
                    if np.any(mask) and np.any(active) else 0.0
        return rep, {self.names[3]: scale}


class _Budget(_Family):
    """D0: mean(w m(f)) = budget; the vertex puts it all at the best node pair."""

    budgets = {"matrix": "P", "trace": "p", "diag": "p_k", "btrace": "p"}
    b_param, exact, names = "B1", ("trace", "btrace"), ("active_fraction", None, None, "alpha2")

    def __init__(self, *args):
        super().__init__(*args)
        self.bounds = (np.zeros((self.n, 1, 1)), None)

    def budget_used(self, vals):
        return self.weighted_mean(self.m.of(vals))

    def start(self):
        flat = self.m.flat(self.budget) / np.mean(self.w)
        return np.broadcast_to(flat, (self.n, self.dim, self.dim)).astype(complex)

    def residual(self, vals):
        return float(np.max(np.abs(self.budget_used(vals) - self.budget)))

    def vertex(self, r):
        zeros = np.zeros((self.n, self.dim, self.dim), dtype=complex)
        return self.place(zeros, self.m.components(r, self.budget), self.w)

    def project(self, vals):
        return self.m.rescale(vals, self.budget, self.budget_used(vals))


class _Ball(_Family):
    """D1delta: mean(w |m(f - f1)|) <= delta; the vertex adds delta at the best
    pair, ranked by |r|^2 / w (not in the metric B); an entrywise ball spends
    only its diagonal budgets."""

    base = ("f1",)
    budgets = {"trace": "delta", "diag": "delta_k", "btrace": "delta", "matrix": "delta_ij"}
    b_param, names, bound_tol = "B1", ("moved_fraction", "inactive_overshoot", None, "beta2"), 1e-9

    def __init__(self, kind, m, params, w):
        super().__init__(kind, m, params, w)
        self.f1 = params["f1"].values
        self.bounds = (self.f1, None)

    def budget_used(self, vals):
        return self.weighted_mean(np.abs(self.m.of(vals - self.f1)))

    def start(self):
        return self.f1.copy()

    def residual(self, vals):
        return _worst(self.budget_used(vals) - self.budget, 0.0)

    def budget_residual(self, vals):
        return float(np.max(np.abs(self.budget_used(vals) - self.budget)))

    def vertex(self, r):
        m, budget = self.m, self.budget
        if m.name == "matrix":
            m, budget = _Diag("diag", self.dim), np.diagonal(budget)
        return self.place(self.f1.copy(), m.components(r, budget, whiten=False), self.w)

    def project(self, vals):
        used, bound = float(np.max(self.budget_used(vals))), float(np.max(self.budget))
        return vals if used <= bound else self.f1 + bound / used * (vals - self.f1)


class _Floor(_Family):
    """Deps: m(g) >= (1 - eps) m(g1), mean m(g) = q; the vertex adds the free
    budget at the best pair."""

    base = ("eps", "g1")
    budgets = {"trace": "q", "diag": "q_k", "btrace": "q", "matrix": "Q"}
    b_param, names, bound_tol = "B2", ("free_fraction", "clamped_overshoot", None, "g_alpha2"), 1e-8

    def __init__(self, kind, m, params, w):
        super().__init__(kind, m, params, w)
        self.floor = (1.0 - float(params["eps"])) * params["g1"].values
        self.bounds = (self.floor, None)
        self.free = self.budget - m.of(np.mean(self.floor, axis=0))
        # what the vertex spends; a matrix budget moves as it is
        self.spend = self.free if m.name == "matrix" else np.maximum(self.free, 0.0)

    def start(self):
        if self.m.below(self.free) > FEASIBILITY_TOL * float(np.max(np.abs(self.budget))):
            raise ValidationError("infeasible noise class: budget below the floor mass")
        return self.floor + self.m.flat(self.spend)

    def vertex(self, r):
        return self.place(self.floor.copy(), self.m.components(r, self.spend), np.ones(self.n))

    def project(self, vals):
        free = vals - self.floor
        if self.dim == 1:
            free = np.maximum(free.real, 0.0).astype(complex)
        return self.floor + self.m.rescale(free, self.free, self.m.of(np.mean(free, axis=0)))


class _Box(_Family):
    """DVU: m(V) <= m(g) <= m(U), mean m(g) = q.  Trace and diagonal boxes
    waterfill node by node, the others along the segment V + theta (U - V)."""

    base = ("V", "U")
    budgets = {"matrix": "Q", "trace": "q", "diag": "q_k", "btrace": "q"}
    b_param, exact = "B2", ("trace",)
    names = ("interior_fraction", "lower_overshoot", "upper_overshoot", "g_beta2")

    def __init__(self, kind, m, params, w):
        super().__init__(kind, m, params, w)
        self.V, self.U = params["V"].values, params["U"].values
        self.bounds = (self.V, self.U)
        lo, hi = (np.mean(m.of(x), axis=0) for x in (self.V, self.U))
        span = float(np.sum(np.abs(hi - lo) ** 2))
        # the segment point whose mean measure is nearest the budget
        self.theta = 0.0 if span == 0 else \
            float(np.real(np.sum((self.budget - lo) * np.conj(hi - lo)))) / span

    def start(self):
        if not -FEASIBILITY_TOL <= self.theta <= 1.0 + FEASIBILITY_TOL:
            raise ValidationError("infeasible noise class: budget outside the box range")
        return self.V + min(max(self.theta, 0.0), 1.0) * (self.U - self.V)

    def vertex(self, r):
        n, half = self.n, self.n // 2

        def mirrored(rate):  # the rates of the first half, mirrored onto the second
            return np.concatenate([rate[:half], rate[:half][::-1]])

        if self.m.name in ("trace", "diag"):
            lo, hi = (self.m.of(x).reshape(n, -1) for x in (self.V, self.U))
            budget = np.reshape(self.budget, -1)
            vals = np.zeros((n, self.dim, self.dim), dtype=complex)
            for k, (rate, block) in enumerate(self.m.components(r, np.ones_like(self.budget))):
                t = _waterfill_traces(mirrored(rate), lo[:, k], hi[:, k], budget[k])
                vals += 0.5 * (t + t[::-1])[:, None, None] * block
            vals[half:] = vals[:half][::-1].transpose(0, 2, 1)
            return vals
        if self.m.name == "matrix":
            lo, hi, budget = np.zeros(n), np.ones(n), self.theta
        else:
            lo, hi, budget = self.m.of(self.V), self.m.of(self.U), self.budget
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        rate = np.einsum("nt,nts,ns->n", r, self.U - self.V, np.conj(r)).real / span
        theta = (_waterfill_traces(mirrored(rate), lo, hi, budget) - lo) / span
        return self.V + (0.5 * (theta + theta[::-1]))[:, None, None] * (self.U - self.V)

    def project(self, vals):
        if self.dim == 1:
            x = _shift_clip(vals[:, 0, 0].real, self.V[:, 0, 0].real, self.U[:, 0, 0].real,
                            self.scalar_budget)
            return x[:, None, None].astype(complex)
        if self.m.name == "matrix":  # blend toward the feasible start until admissible
            start, ts = self.start(), np.linspace(0.0, 1.0, 21)
            return next((c for c in ((1.0 - t) * vals + t * start for t in ts)
                         if self.residual(c) <= FEASIBILITY_TOL), vals)
        # shift each measured component into the box, then rescale every node to it
        got, lo, hi = (self.m.of(x).reshape(self.n, -1) for x in (vals, self.V, self.U))
        t = np.stack([_shift_clip(got[:, k], lo[:, k], hi[:, k], b)
                      for k, b in enumerate(np.reshape(self.budget, -1))], axis=-1)
        s = np.sqrt(t / np.maximum(got, 1e-300))
        return vals * s[:, None, :] * s[:, :, None]


#: class kind -> (family, measure): the suffixes _1.._4 differ only in the measure
CLASS_TABLE = {
    "D0_1": (_Budget, "matrix"), "D0_2": (_Budget, "trace"),
    "D0_3": (_Budget, "diag"), "D0_4": (_Budget, "btrace"),
    "D1delta_1": (_Ball, "trace"), "D1delta_2": (_Ball, "diag"),
    "D1delta_3": (_Ball, "btrace"), "D1delta_4": (_Ball, "matrix"),
    "Deps_1": (_Floor, "trace"), "Deps_2": (_Floor, "diag"),
    "Deps_3": (_Floor, "btrace"), "Deps_4": (_Floor, "matrix"),
    "DVU_1": (_Box, "matrix"), "DVU_2": (_Box, "trace"),
    "DVU_3": (_Box, "diag"), "DVU_4": (_Box, "btrace"),
}

#: class kind -> the parameters it requires
F_CLASS_PARAMS = {"fixed": ("f1",), **{
    kind: fam.params(m) for kind, (fam, m) in CLASS_TABLE.items() if fam.b_param == "B1"}}
G_CLASS_PARAMS = {"zero": (), "fixed": ("g1",), **{
    kind: fam.params(m) for kind, (fam, m) in CLASS_TABLE.items() if fam.b_param == "B2"}}

#: class parameter -> (rank at dimension T, condition); a density has T x T values
#: and is checked when it is built.  V <= U is the one rule across parameters.
CLASS_PARAMS = {
    **dict.fromkeys(("p", "delta"), (0, "positive")), "q": (0, None), "eps": (0, "in [0, 1]"),
    **dict.fromkeys(("p_k", "delta_k"), (1, "positive")), "q_k": (1, None),
    "delta_ij": (2, "positive"),
    **dict.fromkeys(("P", "Q", "B1", "B2"), (2, "Hermitian positive definite")),
    **dict.fromkeys(("f1", "g1", "V", "U"), (2, "density")),
}


def _hermitian_pd(value) -> bool:
    m = np.asarray(value, dtype=complex)
    return np.max(np.abs(m - m.conj().T)) <= 1e-10 * float(np.max(np.abs(m))) \
        and float(np.min(hermitian_eigenvalues(m))) > 0


_CONDITIONS = {"positive": lambda x: np.min(np.asarray(x, dtype=float)) > 0,
               "in [0, 1]": lambda x: 0.0 <= float(x) <= 1.0,
               "Hermitian positive definite": _hermitian_pd}


class _ClassSpec:
    def __init__(self, kind: str, params: dict | None = None):
        params = {} if params is None else params
        self.kind, self.params = kind, params
        if kind not in self.table:
            raise ValidationError(f"unknown {self.side}-class {kind!r}")
        missing = [key for key in self.table[kind] if key not in params]
        if missing:
            raise ValidationError(
                f"{self.side}-class {kind} requires parameter(s) {', '.join(missing)}")


class FClassSpec(_ClassSpec):
    side, table = "f", F_CLASS_PARAMS


class GClassSpec(_ClassSpec):
    side, table = "g", G_CLASS_PARAMS


class DensityClassSpec:
    def __init__(self, f: FClassSpec, g: GClassSpec):
        self.f, self.g = f, g


class MinimaxOptions:
    def __init__(self, tol: float = 1e-7, max_iter: int = 500, saddle_samples: int = 50,
                 seed: int = 0):
        self.tol, self.max_iter = tol, max_iter
        self.saddle_samples, self.seed = saddle_samples, seed


class MinimaxResult:
    def __init__(self, f0: DensityGrid, g0: DensityGrid, h0: np.ndarray, delta0: float,
                 multipliers: dict, residual_report: dict, saddle_report: dict, trace: list,
                 converged: bool, solution: InterpolationSolution, problem: _Problem):
        self.f0, self.g0, self.h0, self.delta0 = f0, g0, h0, delta0
        self.multipliers, self.residual_report, self.saddle_report = (
            multipliers, residual_report, saddle_report)
        self.trace, self.converged, self.solution = trace, converged, solution
        self.problem = problem  # the run's problem and class families


def _family(side: _ClassSpec, w: np.ndarray, dim: int):
    if side.kind == "zero":
        return _Pinned("zero", np.zeros((len(w), dim, dim), dtype=complex))
    if side.kind == "fixed":
        return _Pinned("fixed", side.params[side.side + "1"].values)
    family, measure = CLASS_TABLE[side.kind]
    metric = side.params.get(family.b_param) if measure == "btrace" else None
    return family(side.kind, _MEASURES[measure](measure, dim, metric), side.params, w)


class _Problem(Problem):
    """A problem with the two families of a validated class: what one run never changes."""

    def __init__(self, class_spec: DensityClassSpec, spec: GMIncrementSpec,
                 fspec: FunctionalSpec, grid: FrequencyGrid):
        validate_class_spec(class_spec, fspec.dim)
        super().__init__(spec, fspec, grid)
        self.f, self.g = (_family(side, self.w, fspec.dim) for side in (class_spec.f, class_spec.g))
        wb = self.w * self.beta2  # |chi|^2, which keeps every ee fill free of NaN if > 0 and finite
        self.wb = wb if np.all(np.isfinite(wb) & (wb > 0)) else None


def _sym_value(x: np.ndarray, clip: bool = False) -> np.ndarray:
    """Symmetrize so that value(-l) = value(l)^T holds exactly; clip scalar values at 0."""
    x = x + np.swapaxes(x[::-1], 1, 2)
    x *= 0.5
    return np.maximum(x.real, 0.0).astype(complex) if clip and x.shape[-1] == 1 else x


def feasibility_report(ctx: _Problem, f_vals: np.ndarray, g_vals: np.ndarray) -> dict:
    """Signed constraint residuals of the pair (f, g); 0 means feasible."""
    F, G = ctx.f, ctx.g
    rf, rg = F.residual(f_vals), G.residual(g_vals)
    return {"f": {"kind": F.kind, "residual": rf}, "g": {"kind": G.kind, "residual": rg},
            "max_residual": max(rf, rg)}


def validate_class_spec(class_spec: DensityClassSpec, dim: int) -> None:
    """Enforce the shape and condition of each class parameter at dimension dim."""
    for side in (class_spec.f, class_spec.g):
        for key in side.table[side.kind]:
            (rank, condition), value = CLASS_PARAMS[key], side.params[key]
            shape = value.values.shape[1:] if condition == "density" else np.shape(value)
            if shape != (dim,) * rank:
                raise ValidationError(f"{side.side}_class.{key}: must have shape {(dim,) * rank}")
            if condition in _CONDITIONS and not _CONDITIONS[condition](value):
                raise ValidationError(f"{side.side}_class.{key}: must be {condition}")
    pg = class_spec.g.params
    if "V" in pg and "U" in pg and _psd_violation(pg["U"].values - pg["V"].values) > \
            1e-10 * float(np.max(np.abs(pg["U"].values))):
        raise ValidationError("box bounds require V <= U in the PSD order pointwise")


def feasible_start(ctx: _Problem) -> tuple[DensityGrid, DensityGrid]:
    """The starting pair of the run's class; raises if it is not feasible."""
    f_vals, g_vals = ctx.f.start(), ctx.g.start()
    rep = feasibility_report(ctx, f_vals, g_vals)
    if rep["max_residual"] > 1e-6 * max(float(np.max(np.abs(x))) for x in (f_vals, g_vals)):
        raise ValidationError(f"could not construct a feasible starting pair: {rep}")
    return (DensityGrid(ctx.grid, f_vals, validate=False),
            DensityGrid(ctx.grid, g_vals, validate=False))


def _gradient_kernels(ctx: _Problem, g_vals, blocks, sol) -> tuple[np.ndarray, np.ndarray]:
    """Error rows r_f, r_g; the gradient kernels conj(r) r^T of the error are rank one."""
    return _error_rows(ctx, _characteristic(ctx, g_vals, blocks.p_inv, sol.c))


def _lp_f(ctx: _Problem, r_f: np.ndarray) -> np.ndarray | None:
    """Inner LP vertex for the f side (None if the side is pinned)."""
    return ctx.f.vertex(r_f)


def _lp_g(ctx: _Problem, r_g: np.ndarray) -> np.ndarray | None:
    return ctx.g.vertex(r_g)


def _vertex_pair(ctx, f_vals, g_vals, rows, delta):
    """Vertex pair of the linearized problem and the duality gap it certifies."""
    fv, gv = _lp_f(ctx, rows[0]), _lp_g(ctx, rows[1])
    fv = f_vals if fv is None else fv
    gv = g_vals if gv is None else gv
    gain = sum(float(np.mean(np.einsum("nt,nts,ns->n", r, x, np.conj(r)).real))
               for r, x in zip(rows, (fv, gv)))
    return fv, gv, gain - delta


def _waterfill_traces(rate: np.ndarray, lo: np.ndarray, hi: np.ndarray, budget_mean: float):
    """Maximize mean(rate * t) over lo <= t <= hi with mean(t) = budget: bang-bang by rate."""
    remaining = budget_mean * len(rate) - float(np.sum(lo))
    if remaining < -1e-9 * abs(budget_mean) * len(rate):
        raise ValidationError("infeasible box budget")
    order = np.argsort(-rate)
    room = (hi - lo)[order]
    t = lo.astype(float).copy()
    t[order] += np.clip(remaining - (np.cumsum(room) - room), 0.0, room)
    return t


def _shift_clip(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, mean: float) -> np.ndarray:
    """clip(x + s, lo, hi) for the row x clipped to the box, with the s giving the mean.

    The sum is piecewise linear in s: its slope rises by one where a node
    leaves lo (s = lo - x) and falls by one where it reaches hi (s = hi - x).
    The sort may leave tied knots in any order: their diff is 0, so a slope
    inside a tie adds an exact 0 to the sums, the slope after it is the same
    sum of exact integers, and the knots are the same values, so knots, sums
    and the np.interp result do not depend on the order.
    """
    x = np.clip(x, lo, hi)
    knots = np.concatenate([lo - x, hi - x])
    sums = np.repeat([1.0, -1.0], len(x))[np.argsort(knots)]  # slope steps, sorted
    knots.sort()
    step = np.diff(knots)
    step *= np.cumsum(sums, out=sums)[:-1]  # times the slope
    sums[0], sums[1:] = 0.0, np.cumsum(step, out=step)
    sums += np.sum(lo)
    return np.clip(x + np.interp(mean * len(x), sums, knots), lo, hi)


# ---------------------------------------------------------------------------
# the ascent

def _delta_core(ctx: _Problem, f_vals: np.ndarray, g_vals: np.ndarray):
    """Interpolation error of the pair with its blocks and solved system."""
    f = DensityGrid(ctx.grid, f_vals, validate=False)
    g = DensityGrid(ctx.grid, g_vals, validate=False)
    blocks, sol = _solve(ctx, f, g)
    return _algebraic_mse(blocks, sol, ctx.fspec.a), blocks, sol


def _delta_or_inf(ctx: _Problem, f_vals: np.ndarray, g_vals: np.ndarray) -> float:
    """The error of the pair, or -inf where its system cannot be solved."""
    try:
        return _delta_core(ctx, f_vals, g_vals)[0]
    except (NumericalError, np.linalg.LinAlgError):
        return -np.inf


def _blend(x: np.ndarray, v: np.ndarray, eta: float) -> np.ndarray:
    return (1.0 - eta) * x + eta * v


def _line_search(ctx, f_vals, g_vals, fv_vals, gv_vals, delta: float):
    """Concave 1-D maximization toward the vertex pair; delta is the value at eta = 0."""

    def value(eta: float) -> float:
        return _delta_or_inf(ctx, _blend(f_vals, fv_vals, eta), _blend(g_vals, gv_vals, eta))

    lo, hi = 0.0, 1.0
    best = max([(delta, 0.0), (value(1.0), 1.0)], key=lambda p: p[0])  # ties keep eta = 0
    for _ in range(LINE_SEARCH_EVALS - 2):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        v1, v2 = value(m1), value(m2)
        best = max([best, (v1, m1), (v2, m2)], key=lambda p: p[0])
        lo, hi = (m1, hi) if v1 < v2 else (lo, m2)
    return best[1], best[0]


def _extremal_functions(ctx: _Problem, f_vals, g_vals, c):
    """Rows C^{f0} = conj(chi) A^T g + C^T and C^{g0} = chi C^T - w A^T f."""
    C_row = _row_polynomial(np.asarray(c), ctx.grid)
    cf0 = np.conj(ctx.chi)[:, None] * np.einsum("nt,nts->ns", ctx.A, g_vals) + C_row
    cg0 = ctx.chi[:, None] * C_row - ctx.w[:, None] * np.einsum("nt,nts->ns", ctx.A, f_vals)
    return cf0, cg0


def _ee_shapes(ctx: _Problem, f_vals, g_vals, c):
    """|C^{f0}| and |C^{g0}| shapes entering the scalar extremal equations."""
    cf0, cg0 = _extremal_functions(ctx, f_vals, g_vals, c)
    sf, sg = np.abs(cf0[:, 0]), np.abs(cg0[:, 0])
    return 0.5 * (sf + sf[::-1]), 0.5 * (sg + sg[::-1])


def _bisect_decreasing(fun, target, lo, hi, iters=200):
    """Solve fun(x) = target for decreasing fun; stops once the bracket collapses to rounding.

    Replays the geometric bisection of [lo, hi] bit for bit, if fun never rises with x
    and is never NaN: as the mean ee fills, made only when ``_Problem.wb`` = w |beta|^2
    is positive and finite, since shape / m (shape >= 0), - base, / wb, clip, maximum,
    numpy's fixed pairwise sum and / n each keep order under round-to-nearest.  Each
    branch is then fixed by the float where fun drops to target, so fun is called only
    for probes strictly between the largest x seen above target and the smallest seen
    at or below it, after Illinois regula falsi in u = 1/x has pinned these two
    whenever they are within a factor 2 (stepping a doubling number of ulps inside when
    it lands on one).  A NaN reruns the plain loop.
    """
    end = {True: [0.0, 0.0], False: [np.inf, 0.0]}  # fun(x) > target -> [x, |fun(x) - target|]

    def above(x):
        k, last = 1.0, None
        for _ in range(iters):
            (a, da), (b, db) = end[True], end[False]
            if not a < x < b:
                return x <= a
            y, t = x, db / (da + db or 1.0)
            if 2.0 * a >= b:  # probe the regula falsi estimate instead of x
                y = a / (t + (1.0 - t) * (a / b))
                if not a < y < b:
                    y, k = a + k * np.spacing(a) if y <= a else b - k * np.spacing(b), 2.0 * k
                    y = y if a < y < b else np.sqrt(a * b)
            v = fun(y)
            if v != v:
                raise FloatingPointError("fun is NaN")
            if (v > target) == last:  # Illinois: halve the distance of the end kept twice
                end[not last][1] *= 0.5
            end[v > target], last = [y, abs(v - target)], v > target
        return fun(x) > target

    def bisect(above, lo=lo, hi=hi):
        for _ in range(iters):
            mid = np.sqrt(lo * hi)
            if not lo < mid < hi:
                return mid
            lo, hi = (mid, hi) if above(mid) else (lo, mid)
        return np.sqrt(lo * hi)

    try:
        return bisect(above)
    except FloatingPointError:
        return bisect(lambda x: fun(x) > target)


def _ee_fill(fill, shape, target: float, lo: float, hi: float) -> np.ndarray:
    """fill(m) at the multiplier m whose mean fill is target, bisected in
    max(shape) / target * [lo, hi]: the multiplier has the units of shape / target, so
    the bracket scales with the weights and not with the densities."""
    scale = max(float(np.max(shape)), 1e-300) / max(target, 1e-300)
    return fill(_bisect_decreasing(lambda m: float(np.mean(fill(m))), target,
                                   scale * lo, scale * hi))


def _ee_candidate_f(ctx: _Problem, g_vals, shape):
    """Scalar f-class: lift w (f + |beta|^2 g) toward |C^{f0}| / multiplier above the floor."""
    F, w = ctx.f, ctx.w
    if F.bounds is None or F.scalar_budget <= 0 or ctx.wb is None:
        return None
    budget, floor = F.scalar_budget, F.bounds[0][:, 0, 0].real
    base = w * floor + ctx.wb * g_vals[:, 0, 0].real

    lift = _ee_fill(lambda alpha: np.maximum(shape / alpha - base, 0.0), shape, budget,
                    1e-12, 1e12)
    use = float(np.mean(lift))
    if use <= 0:
        return None
    return (floor + lift * (budget / use) / w).reshape(-1, 1, 1).astype(complex)


def _ee_candidate_g(ctx: _Problem, f_vals, shape):
    """Scalar g-class: w (f + |beta|^2 g) tracks |C^{g0}| / multiplier within the bounds."""
    G, w = ctx.g, ctx.w
    if G.bounds is None or ctx.wb is None:
        return None
    lo, q = G.bounds[0][:, 0, 0].real, G.scalar_budget
    hi = np.full(len(lo), np.inf) if G.bounds[1] is None else G.bounds[1][:, 0, 0].real
    base, wb = w * f_vals[:, 0, 0].real, ctx.wb

    g_new = _ee_fill(lambda mult: np.clip((shape / mult - base) / wb, lo, hi), shape, q,
                     1e-14, 1e14)
    return g_new.reshape(-1, 1, 1).astype(complex) if np.all(np.isfinite(g_new)) else None


def solve_minimax(class_spec: DensityClassSpec, fspec: FunctionalSpec,
                  spec: GMIncrementSpec, grid: FrequencyGrid,
                  options: MinimaxOptions | None = None) -> MinimaxResult:
    """Ascend the optimal-estimate error over the admissible class.

    At T = 1 the line search runs only when no extremal-equation candidate improves.
    A stop (no improving candidate, or a relative change below options.tol)
    is converged only if the final certificate gap is below GAP_RTOL * delta0
    and the class's vertices are exact at this dimension.
    """
    options = options or MinimaxOptions()
    ctx = _Problem(class_spec, spec, fspec, grid)
    f, g = feasible_start(ctx)
    _check_weight_scale(ctx, f, g)
    f_vals, g_vals = f.values, g.values
    trace, stopped = [], False
    scalar = fspec.dim == 1 and (ctx.f.bounds is not None or ctx.g.bounds is not None)
    delta, blocks, sol = _delta_core(ctx, f_vals, g_vals)
    worst_feas = feasibility_report(ctx, f_vals, g_vals)["max_residual"]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for it in range(options.max_iter):
            rows = _gradient_kernels(ctx, g_vals, blocks, sol)
            fv_vals, gv_vals, gap = _vertex_pair(ctx, f_vals, g_vals, rows, delta)
            candidates, bar = [], delta * (1.0 + 1e-15)
            if scalar:  # extremal-equation candidates
                sf, sg = _ee_shapes(ctx, f_vals, g_vals, sol.c)
                fe, ge = _ee_candidate_f(ctx, g_vals, sf), _ee_candidate_g(ctx, f_vals, sg)
                candidates = [(kind, fc, gc, _delta_or_inf(ctx, fc, gc)) for kind, fc, gc in (
                    ("ee_f", fe, g_vals), ("ee_g", f_vals, ge), ("ee_fg", fe, ge))
                    if fc is not None and gc is not None]
            if not any(c[3] > bar for c in candidates):  # the line heads the list: it wins ties
                eta, val = _line_search(ctx, f_vals, g_vals, fv_vals, gv_vals, delta)
                candidates.insert(0, ("line", _blend(f_vals, fv_vals, eta),
                                      _blend(g_vals, gv_vals, eta), val))

            kind, f_new, g_new, val = max(candidates, key=lambda t: t[3])
            if val <= bar:
                stopped = True
                trace.append({"iter": it, "delta": delta, "step": "stall", "eta": 0.0, "gap": gap})
                break

            f_vals, g_vals = _sym_value(f_new), _sym_value(g_new)
            new_delta, blocks, sol = _delta_core(ctx, f_vals, g_vals)
            worst_feas = max(worst_feas, feasibility_report(ctx, f_vals, g_vals)["max_residual"])
            trace.append({"iter": it, "delta": new_delta, "step": kind,
                          "eta": eta if kind == "line" else 1.0, "gap": gap})
            change, delta = abs(new_delta - delta), new_delta
            if change <= options.tol * abs(delta):
                stopped = True
                break

    f, g = DensityGrid(grid, f_vals, validate=False), DensityGrid(grid, g_vals, validate=False)
    solution = _interpolate(ctx, f, g)
    # certificate: by concavity, max over the class <= delta0 + final gap
    final_gap = _vertex_pair(ctx, f_vals, g_vals, _error_rows(ctx, solution.h),
                             solution.delta)[2]
    exact = not (ctx.f.approximate or ctx.g.approximate)
    result = MinimaxResult(f0=f, g0=g, h0=solution.h, delta0=solution.delta, multipliers={},
                           residual_report={}, saddle_report={}, trace=trace, solution=solution,
                           converged=stopped and exact and final_gap <= GAP_RTOL * solution.delta,
                           problem=ctx)
    result.residual_report = extremal_residuals(result)
    result.residual_report["worst_iterate_feasibility"] = worst_feas
    result.residual_report["ascent_gap"] = final_gap
    result.multipliers = result.residual_report.get("multipliers", {})
    result.saddle_report = saddle_check(result, options.saddle_samples, options.seed)
    return result


# ---------------------------------------------------------------------------
# extremal equations and saddle verification

def extremal_residuals(result: MinimaxResult) -> dict:
    """Residuals of the class's extremal equations at the solved point.

    Multipliers are least-squares fits on the active sets; the report also
    lists the kinds whose vertex is approximate at this dimension.
    """
    ctx, f0, g0 = result.problem, result.f0, result.g0
    rows = _extremal_functions(ctx, f0.values, g0.values, result.solution.c)
    shape = _traces(ctx.w[:, None, None] * (f0.values + ctx.beta2[:, None, None] * g0.values)) ** 2
    report: dict = {"multipliers": {}}
    for side, fam, row, vals in zip("fg", (ctx.f, ctx.g), rows, (f0.values, g0.values)):
        if fam.bounds is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
                rep, multipliers = fam.extremal(_norm2(row), shape, vals)
            if not np.all(np.isfinite([*rep.values(), *multipliers.values()])):
                raise WeightScaleError("the extremal equations overflow at these weights")
            report[side] = {"kind": fam.kind, **rep}
            report["multipliers"].update(multipliers)
    report["approximate"] = [fam.kind for fam in (ctx.f, ctx.g) if fam.approximate]
    return report


def _project_f(ctx: _Problem, f_vals: np.ndarray) -> np.ndarray:
    """The f values of a sample, symmetrized and projected onto the class (as in _project_g)."""
    return ctx.f.project(_sym_value(f_vals, clip=True))


def _project_g(ctx: _Problem, g_vals: np.ndarray) -> np.ndarray:
    return ctx.g.project(_sym_value(g_vals, clip=True))


def saddle_check(result: MinimaxResult, n_samples: int, seed: int = 0) -> dict:
    """Verify both saddle inequalities at the solved pair.

    Right side: the fixed characteristic against sampled admissible pairs
    (random 10% node jitter projected back onto the class) must not beat
    delta0.  Left side: alternative valid characteristics (observation-band
    perturbations of h0) must not do better at the least favorable pair.
    A pass needs an admissible sample; with no samples nothing is checked, and
    the report says only that it does not pass.

    Each sample is drawn, projected, checked and scored on its own: one
    (2, n) uniform draw jitters f and g, and only (n, T, T) values are held.
    """
    if n_samples <= 0:
        return {"n_samples": 0, "pass": False}
    rng = np.random.default_rng(seed)
    ctx, f0, g0, h0, delta0 = result.problem, result.f0, result.g0, result.h0, result.delta0
    n = ctx.grid.n_grid

    max_violation, skipped, rows = -np.inf, 0, _error_rows(ctx, h0)
    for _ in range(n_samples):
        j = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(2, n, 1, 1))
        j = 0.5 * (j + j[:, ::-1])
        f_vals, g_vals = _project_f(ctx, j[0] * f0.values), _project_g(ctx, j[1] * g0.values)
        # matrix-class projections are approximate; only admissible samples count
        if feasibility_report(ctx, f_vals, g_vals)["max_residual"] > 1e-6:
            skipped += 1
        else:
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
