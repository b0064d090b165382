"""The four workloads: inputs made from the seed, operations and their checks.

Every workload is a closed loop with one client: the runner executes the
operations of a round one after another, and every run executes whole
rounds, so the share of failed operations is the same in every run.  An
operation's ``run`` is the timed program work; its ``check`` runs after the
timed phase and returns the problems found.  ``known_fault`` marks an
operation that fails every time because of a fault in the program; it is
counted as failed instead of making the run incorrect.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gmi import classical
from gmi import io as gmi_io
from gmi.classical import FunctionalSpec, PeriodicFunctionalSpec
from gmi.increments import FMIncrementSpec, GMIncrementSpec, SeasonalFactor
from gmi.spectra import DensityGrid, DensityModel, FrequencyGrid

import checks
import spans

# The program is called through its module attributes, never through names
# bound here, so that the tracer's patched functions are the ones called.


@dataclass
class Op:
    name: str
    run: Callable[[Path], Any]
    check: Callable[[Any, dict], list]
    known_fault: str = ""


class Workload:
    """Inputs and operations of one workload; ``tracer`` is set while traced."""

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.root = root
        self.seed = seed
        self.tiny = tiny
        self.tracer: spans.Tracer | None = None
        self.ops: list[Op] = []

    def setup(self, scratch: Path) -> None:
        """Generate the inputs and warm every code path up."""
        raise NotImplementedError

    def before_checks(self, rounds: list, scratch: Path) -> None:
        """Hook run once after the timed phase, before the checks."""


def _lapack_warmup() -> None:
    # The first LAPACK call of a process sometimes stalls for about a
    # second; it must land in set-up, never in an operation.
    m = np.eye(8) + 0.1
    np.linalg.solve(m, np.ones(8))
    np.linalg.eigh(m)
    np.linalg.svd(m)


# ---------------------------------------------------------------------------
# classical-large


@dataclass
class ClassicalProblem:
    name: str
    spec: GMIncrementSpec
    grid: FrequencyGrid
    f: DensityGrid
    g: DensityGrid
    fspec: FunctionalSpec


def _write_solution(p: ClassicalProblem, out: Path) -> dict:
    sol = classical.solve_interpolation(p.spec, p.f, p.g, p.fspec)
    gmi_io.write_json(out / "solution.json", gmi_io.solution_to_dict(sol))
    gmi_io.write_characteristic_csv(out / "spectral_characteristic.csv", p.grid.nodes, sol.h)
    return {"delta": sol.delta, "delta_spectral": sol.delta_spectral,
            "out": out, "n_grid": p.grid.n_grid}


def _check_written(result: dict) -> list:
    problems = checks.routes_agree(result["delta"], result["delta_spectral"])
    doc = json.loads((result["out"] / "solution.json").read_text())
    csv = (result["out"] / "spectral_characteristic.csv").read_bytes()
    return problems + checks.written_solution(doc, result["delta"], csv.count(b"\n"),
                                              result["n_grid"])


class ClassicalLarge(Workload):
    """Long blocks on big grids: one solve plus its artifacts per operation."""

    def setup(self, scratch: Path) -> None:
        for op in self._build(shrink=3):
            op.run(scratch)
        _lapack_warmup()
        self.ops = self._build(shrink=1 if self.tiny else 0)

    def _build(self, shrink: int) -> list[Op]:
        """Operations with grid exponents lowered by ``shrink``; 0 is full size."""
        rng = np.random.default_rng(self.seed)
        tiny = shrink > 0
        n_long = 10 if tiny else 100
        rational = DensityModel("rational", {
            "numerator": [1.0, float(rng.uniform(-0.5, 0.5))],
            "denominator": [1.0, -float(rng.uniform(0.2, 0.6))],
            "scale": float(rng.uniform(0.5, 2.0))})
        noise = DensityModel("constant", {"matrix": [[float(rng.uniform(0.2, 1.0))]]})
        a_long = rng.standard_normal((n_long + 1, 1))
        seasonal = GMIncrementSpec(s=(12,), mu=(1,), d=(1,))
        ops: list[Op] = []

        def problem(name, spec, n_grid, f_model, g_model, fspec):
            grid = FrequencyGrid(n_grid)
            f = f_model.evaluate(grid) if isinstance(f_model, DensityModel) else f_model(grid)
            g = g_model.evaluate(grid)
            return ClassicalProblem(name, spec, grid, f, g, fspec)

        def add(p: ClassicalProblem, extra=None):
            def check(result, round_results):
                problems = _check_written(result)
                return problems + (extra(result, round_results) if extra else [])
            ops.append(Op(p.name, lambda out: _write_solution(p, out), check))

        # one seasonal problem at two grids, one the double of the other
        coarse = problem("s12-long-g15", seasonal, 2 ** (15 - shrink), rational, noise,
                         FunctionalSpec(N=n_long, a=a_long))
        add(coarse)
        fine = problem("s12-long-g16", seasonal, 2 ** (16 - shrink), rational, noise,
                       FunctionalSpec(N=n_long, a=a_long))

        def doubling(result, round_results):
            partner = round_results.get(coarse.name)
            if not isinstance(partner, dict):
                return ["coarse-grid partner of the grid-doubling pair failed"]
            return checks.grid_pair(partner["delta"], result["delta"])

        add(fine, doubling)

        # whitened two-factor operator: delta must equal ||b||^2
        s2, mu2, d2 = (1, 12), (1, 1), (1, 1)
        n_white = 6 if tiny else 40
        a_white = rng.standard_normal((n_white + 1, 1))
        b_white = checks.differenced_weights(s2, mu2, d2, a_white)
        white = problem(
            "s1x12-whitened-g17", GMIncrementSpec(s=s2, mu=mu2, d=d2), 2 ** (17 - shrink),
            lambda grid: DensityGrid.from_scalar_samples(
                grid, checks.whitened_symbol_ratio(s2, mu2, d2, grid.nodes)),
            DensityModel("zero", {"dim": 1}), FunctionalSpec(N=n_white, a=a_white))
        add(white, lambda result, _: checks.whitened(result["delta"], b_white))

        # periodic scalar functionals lifted to T = 2 and T = 4
        walk = GMIncrementSpec(s=(1,), mu=(1,), d=(1,))
        for T, M in ((2, 21 if tiny else 101), (4, 19 if tiny else 99)):
            h0 = 0.3 * rng.standard_normal((T, T)) + 2.0 * np.eye(T)
            h1 = 0.3 * rng.standard_normal((T, T))
            gm = rng.standard_normal((T, T))
            a_scalar = rng.standard_normal(M + 1)
            lifted = problem(
                f"T{T}-lifted-g15", walk, 2 ** (15 - shrink),
                DensityModel("matrix_ma", {"coefficients": [h0.tolist(), h1.tolist()]}),
                DensityModel("constant", {"matrix": (0.2 * gm @ gm.T + 0.3 * np.eye(T)).tolist()}),
                classical.lift_periodic(PeriodicFunctionalSpec(M=M, T=T, a_scalar=a_scalar)))
            if T == 2:
                add(lifted, self._lift_check(lifted, a_scalar, T))
            else:
                add(lifted)

        # fractional long-memory signal density
        fm = FMIncrementSpec(R0=1, D0=float(rng.uniform(0.1, 0.25)),
                             factors=(SeasonalFactor(12, 0, float(rng.uniform(0.05, 0.2))),))
        long_memory = problem(
            "fm-long-g15", walk, 2 ** (15 - shrink),
            DensityModel("fm", {"spec": fm, "base": DensityModel("constant", {"matrix": [[1.0]]})}),
            DensityModel("constant", {"matrix": [[float(rng.uniform(0.2, 0.6))]]}),
            FunctionalSpec(N=n_long, a=rng.standard_normal((n_long + 1, 1))))
        add(long_memory)
        return ops

    @staticmethod
    def _lift_check(p: ClassicalProblem, a_scalar: np.ndarray, T: int):
        a = checks.hand_blocked(a_scalar, T)
        blocked = functools.cache(lambda: classical.solve_interpolation(
            p.spec, p.f, p.g, FunctionalSpec(N=a.shape[0] - 1, a=a)).delta)
        return lambda result, _: checks.lift_matches(result["delta"], blocked())


# ---------------------------------------------------------------------------
# minimax-classes

T2_FAULT = ("T=2 D0_2 x zero: the stall test in solve_minimax sets converged "
            "whatever the gap, so the ascent stops after one iteration")


class MinimaxClasses(Workload):
    """Least favorable pairs on four scalar classes and one T=2 class.

    The class parameters are fixed: the number of ascent iterations swings
    from 17 to 90 when a density coefficient moves by 10%, so a seed that
    changed them would change the work per operation.  The seed drives the
    saddle-check sampling of every scalar class instead.
    """

    def setup(self, scratch: Path) -> None:
        warm = {op.name: op for op in self._build(1024, 10)}
        warm["budget-zero"].run(scratch)
        _lapack_warmup()
        self.ops = self._build(4096, 10 if self.tiny else 100)

    def _build(self, n_grid: int, samples: int) -> list[Op]:
        from gmi import minimax
        from gmi.minimax import DensityClassSpec, FClassSpec, GClassSpec, MinimaxOptions

        grid = FrequencyGrid(n_grid)
        walk = GMIncrementSpec(s=(1,), mu=(1,), d=(1,))
        f1 = DensityModel("rational", {"numerator": [1.0], "denominator": [1.0, -0.4],
                                       "scale": 1.0}).evaluate(grid)
        box = {"V": DensityGrid.constant(grid, [[0.2]]),
               "U": DensityGrid.constant(grid, [[0.6]]), "q": 0.35}
        ball_box = DensityClassSpec(FClassSpec("D1delta_2", {"f1": f1, "delta_k": [0.1]}),
                                    GClassSpec("DVU_2", box))
        p = 1.5
        g1 = DensityGrid.constant(grid, [[0.5]])
        flat_q = DensityGrid.constant(grid, [[0.35]])
        whitened_f = DensityGrid.from_scalar_samples(
            grid, p * checks.whitened_symbol_ratio((1,), (1,), (1,), grid.nodes))
        ops: list[Op] = []

        def add(name, cls, fspec, op_grid, op_seed, references, fault=""):
            options = MinimaxOptions(saddle_samples=samples, seed=op_seed)

            def run(_out):
                r = minimax.solve_minimax(cls, fspec, walk, op_grid, options)
                return {"delta0": r.delta0, "converged": r.converged,
                        "gap": r.residual_report["ascent_gap"]}

            def check(result, _):
                problems = checks.certificate(result["converged"], result["gap"])
                for reference in references:
                    problems += reference(result["delta0"])
                return problems

            ops.append(Op(name, run, check, fault))

        def admissible(f, g, fspec):
            # solved once, in the check phase, and shared by every round
            delta = functools.cache(lambda: classical.solve_interpolation(walk, f, g, fspec).delta)
            return lambda delta0: checks.above_admissible(delta0, delta())

        seeds = [self.seed * 8 + k for k in range(4)]
        scalar = FunctionalSpec(N=0, a=np.array([[1.0]]))
        add("ball-box-N0", ball_box, scalar, grid, seeds[0],
            [admissible(f1, flat_q, scalar)])
        add("budget-zero", DensityClassSpec(FClassSpec("D0_2", {"p": p}), GClassSpec("zero")),
            scalar, grid, seeds[1], [lambda d0: checks.budget_zero(d0, p, 1.0)])
        eps_class = DensityClassSpec(FClassSpec("D0_2", {"p": p}),
                                     GClassSpec("Deps_1", {"eps": 0.2, "g1": g1, "q": 0.6}))
        add("budget-eps", eps_class, scalar, grid, seeds[2],
            [admissible(whitened_f, DensityGrid.constant(grid, [[0.6]]), scalar)])
        block = FunctionalSpec(N=2, a=np.array([[1.0], [0.6], [0.3]]))
        add("ball-box-N2", ball_box, block, grid, seeds[3], [admissible(f1, flat_q, block)])

        # T = 2, grid 2048, a = [1, 0.5], p = 1.5: the whitened pair
        # f = p I |beta|^2 / (T |chi|^2), g = 0 is admissible with error
        # p ||a||^2 / T = 0.9375; the stalled ascent stops at 0.906.
        a_t2 = np.array([[1.0, 0.5]])
        add("T2-budget-zero",
            DensityClassSpec(FClassSpec("D0_2", {"p": p}), GClassSpec("zero")),
            FunctionalSpec(N=0, a=a_t2), FrequencyGrid(2048), 0,
            [lambda d0: checks.above_admissible(d0, p * float(np.sum(a_t2 ** 2)) / 2)],
            fault=T2_FAULT)
        return ops


# ---------------------------------------------------------------------------
# oracle-window


class OracleWindow(Workload):
    """Brute-force covariance projection with windows up to L = 400."""

    def setup(self, scratch: Path) -> None:
        for op in self._build(tiny=True):
            op.run(scratch)
        _lapack_warmup()
        self.ops = self._build(tiny=self.tiny)

    def _build(self, tiny: bool) -> list[Op]:
        from gmi import oracle

        rng = np.random.default_rng(self.seed)
        schedule = (1, 5, 10, 50) if tiny else (1, 5, 10, 50, 100, 200, 400)
        ops: list[Op] = []

        def add(name, spec, f, g, fspec):
            def run(_out):
                sol = classical.solve_interpolation(spec, f, g, fspec)
                rows = oracle.convergence_table(spec, f, g, fspec, schedule)
                return {"delta": sol.delta, "rows": rows}

            ops.append(Op(name, run, lambda r, _: checks.oracle_rows(r["rows"], r["delta"])))

        # five scalar fixtures of equal cost, so that the median operation
        # is the middle one of these in every run
        grid = FrequencyGrid(2 ** 12 if tiny else 2 ** 13)
        for tag in "abcde":
            f = DensityModel("rational", {
                "numerator": [1.0, float(rng.uniform(-0.4, 0.4))],
                "denominator": [1.0, -float(rng.uniform(0.3, 0.6))]}).evaluate(grid)
            g = DensityGrid.constant(grid, [[float(rng.uniform(0.3, 0.8))]])
            add(f"s2-g13-{tag}", GMIncrementSpec(s=(2,), mu=(1,), d=(1,)), f, g,
                FunctionalSpec(N=1, a=np.array([[1.0], [float(rng.uniform(0.4, 0.9))]])))

        grid = FrequencyGrid(2 ** 12 if tiny else 2 ** 14)
        h0 = 0.3 * rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        h1 = 0.3 * rng.standard_normal((2, 2))
        gm = rng.standard_normal((2, 2))
        f = DensityModel("matrix_ma", {"coefficients": [h0.tolist(), h1.tolist()]}).evaluate(grid)
        g = DensityGrid.constant(grid, 0.2 * gm @ gm.T + 0.3 * np.eye(2))
        add("T2-g14", GMIncrementSpec(s=(1,), mu=(1,), d=(1,)), f, g,
            FunctionalSpec(N=1, a=rng.standard_normal((2, 2))))
        return ops


# ---------------------------------------------------------------------------
# cli-configs

#: modules each command imports, loaded by the traced child inside cli.import
_BASE_MODULES = ("numpy", "jsonschema", "gmi.cli", "gmi.errors", "gmi.increments",
                 "gmi.spectra", "gmi.classical", "gmi.io")
_EXTRA_MODULES = {"oracle-verify": ("gmi.oracle",), "minimax": ("gmi.minimax",)}

NO_F1_FAULT = ("minimax on a config without f1: the catch-all in cli.main maps "
               "the KeyError to exit 3 where a bad config must exit 2")


def _hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


class CliConfigs(Workload):
    """Every command on the shipped configs it is meant for, one child each."""

    def setup(self, scratch: Path) -> None:
        configs = self.root / "configs"
        bad = json.loads((configs / "minimax.json").read_text())
        del bad["minimax"]["f_class"]["f1"]
        bad_path = scratch / "minimax_without_f1.json"
        bad_path.write_text(json.dumps(bad))
        subprocess.run(
            [sys.executable, "-c",
             "import gmi.cli, gmi.io, gmi.oracle, gmi.minimax, jsonschema, numpy; "
             "numpy.linalg.solve(numpy.eye(8) + 0.1, numpy.ones(8))"],
            env=self.env(), cwd=self.root, check=True, timeout=120)
        shipped = ("interpolate", "periodic", "minimax", "classify", "coeffs")
        # classify and coeffs run on every config (classify rejects integer
        # orders with exit 2); the heavy commands run on the configs made
        # for them.  Twelve of the sixteen children are short, so the median
        # lies inside that group rather than at the edge between groups.
        plan = [
            ("interpolate", configs / "interpolate.json", 0, ""),
            ("interpolate", configs / "periodic.json", 0, ""),
            ("oracle-verify", configs / "interpolate.json", 0, ""),
            ("oracle-verify", configs / "periodic.json", 0, ""),
            ("minimax", configs / "minimax.json", 0, ""),
            ("minimax", bad_path, 2, NO_F1_FAULT),
            *[("classify", configs / f"{c}.json", 0 if c == "classify" else 2, "")
              for c in shipped],
            *[("coeffs", configs / f"{c}.json", 0, "") for c in shipped],
        ]
        self.reference: dict[str, dict] = {}
        self.ops = [self._op(*entry) for entry in plan]

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def _op(self, command: str, config: Path, expected: int, fault: str) -> Op:
        name = f"{command}:{config.stem}"
        doc = json.loads(config.read_text())
        args = [command, "--config", str(config), "--seed", str(self.seed), "--quiet"]

        def run(out: Path):
            argv = args + ["--output-dir", str(out)]
            if self.tracer is None:
                proc = subprocess.run([sys.executable, "-m", "gmi.cli", *argv], env=self.env(),
                                      cwd=self.root, capture_output=True, timeout=150)
            else:
                proc = self._run_traced(command, argv, out)
            return {"code": proc.returncode, "stderr": proc.stderr, "out": out}

        def check(result, _):
            problems = checks.exit_code(result["code"], expected)
            if expected != 0 or problems:
                return problems
            problems += checks.identical(self.reference[name], _hashes(result["out"]))
            return problems + self._content(command, doc, result["out"])

        return Op(name, run, check, fault)

    def _run_traced(self, command: str, argv: list, out: Path):
        span_file = out.parent / (out.name + ".spans.json")
        modules = ",".join(_BASE_MODULES + _EXTRA_MODULES.get(command, ()))
        child = Path(__file__).with_name("cli_child.py")
        sid = self.tracer.begin("cli.process")
        try:
            proc = subprocess.run([sys.executable, str(child), str(span_file), modules, *argv],
                                  env=self.env(), cwd=self.root, capture_output=True,
                                  timeout=150)
        finally:
            self.tracer.end(sid)
        dump = json.loads(span_file.read_text())
        span_file.unlink()
        base = len(self.tracer.spans)
        for name, parent, t0, t1 in dump["spans"]:
            self.tracer.spans.append([name, sid if parent < 0 else parent + base, t0, t1])
        for key, value in dump["counters"].items():
            self.tracer.count(key, value)
        return proc

    def before_checks(self, rounds: list, scratch: Path) -> None:
        """Take each command's first artifacts as the reference of the run.

        With a single round every command is run once more, untimed, so that
        each execution has a second one to be compared with.
        """
        first = rounds[0]
        if len(rounds) == 1:
            tracer, self.tracer = self.tracer, None
            for k, op in enumerate(self.ops):
                out = scratch / f"repeat-{k}"
                out.mkdir()
                op.run(out)
                self.reference[op.name] = _hashes(out)
            self.tracer = tracer
            return
        for op, _, result in first:
            if isinstance(result, dict):
                self.reference[op.name] = _hashes(result["out"])

    @staticmethod
    def _content(command: str, config: dict, out: Path) -> list:
        def load(name):
            return json.loads((out / name).read_text())

        if command == "interpolate":
            doc = load("solution.json")
            routes = doc["mse_routes"]
            csv_lines = (out / "spectral_characteristic.csv").read_bytes().count(b"\n")
            return (checks.routes_agree(routes["algebraic"], routes["spectral"])
                    + checks.written_solution(doc, doc["mse_routes"]["algebraic"], csv_lines,
                                              config["problem"].get("grid", 4096)))
        if command == "oracle-verify":
            doc = load("convergence.json")
            rows = [(r["L"], r["delta_L"]) for r in doc["rows"]]
            return checks.oracle_rows(rows, doc["delta_classical"], doc["tolerance"])
        if command == "minimax":
            doc = load("minimax.json")
            return checks.certificate(doc["converged"], doc["residual_report"]["ascent_gap"])
        if command == "classify":
            return checks.classify_matches(load("classification.json"),
                                           config["problem"]["increment"])
        return checks.coeffs_identity(load("coefficients.json"))


WORKLOADS = {
    "classical-large": ClassicalLarge,
    "minimax-classes": MinimaxClasses,
    "oracle-window": OracleWindow,
    "cli-configs": CliConfigs,
}
