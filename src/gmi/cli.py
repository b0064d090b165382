"""Config-driven command line entry point.

Commands: interpolate, oracle-verify, minimax, classify, coeffs.  Every
command reads one JSON config (schema_version 1), writes machine-readable
artifacts into --output-dir, and reports errors as a JSON envelope on
stderr.  Exit codes: 0 success, 2 validation error (a missing or malformed
config value, named with its section, e.g. ``problem.functional.a``),
3 numerical failure on valid input, 4 verification failure.  A command reads
each key it uses once, through ``io._get``; defaults stay with their owners.

Importing this module applies GMI_THREADS (it sets each unset BLAS/OpenMP
thread variable to its value) and loads the gmi modules errors, increments
and io, but not numpy: classify, coeffs on a GM increment and --help never
load it.  interpolate loads numpy, classical, spectra and _floatfmt;
oracle-verify adds oracle to those, and minimax adds minimax.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")

if os.environ.get("GMI_THREADS"):  # numpy reads them when a command first imports it
    for _var in _THREAD_VARS:
        os.environ.setdefault(_var, os.environ["GMI_THREADS"])

from . import io
from .errors import GmiError, ValidationError, VerificationError, WeightScaleError
from .increments import (FMIncrementSpec, GMIncrementSpec, classify_stationarity,
                         expand_operator, frequency_set, gm_series, inverse_series)
from .io import (REQUIRED, _count, _get, _int, _list, _must, _named, _nonnegative, _object,
                 _one_of, _present, _real, _reals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gmi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("interpolate", "oracle-verify", "minimax", "classify", "coeffs"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--output-dir", type=Path, default=Path("."))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        code = _dispatch(args)
    except WeightScaleError as exc:  # the weights a over- or underflow
        _emit_error(exc.code, f"problem.functional.a: {exc}")
        return exc.exit_code
    except GmiError as exc:
        _emit_error(exc.code, str(exc))
        return exc.exit_code
    except _numerical_errors() as exc:  # numerical library failures
        _emit_error("numerical_error", f"{type(exc).__name__}: {exc}")
        return 3
    return code


def _numerical_errors() -> tuple:
    """ArithmeticError, and numpy's LinAlgError once numpy is loaded: none exists before."""
    linalg = sys.modules.get("numpy.linalg")
    return (ArithmeticError,) if linalg is None else (ArithmeticError, linalg.LinAlgError)


def _emit_error(code: str, message: str):
    sys.stderr.write(json.dumps({"code": code, "message": message}) + "\n")


def _say(args, text: str):
    if not args.quiet:
        print(text)


def _load_config(args) -> dict:
    try:
        config = json.loads(Path(args.config).read_text())
        args.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # the config file or the output directory
        raise ValidationError(f"{exc.strerror}: {exc.filename}") from exc
    except ValueError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError("the config must be a JSON object")
    _get(config, "schema_version", "", lambda v: _must(_int(v) == 1, v, "1"))
    problem = _get(config, "problem", "", _object)
    for key in ("grid", "seed"):
        if getattr(args, key) is not None:
            problem[key] = getattr(args, key)
    return config


def _density_model(data: dict, where: str, dim=None):
    """The DensityModel of a density object; ``dim`` sizes a zero density without one."""
    from .spectra import DensityModel

    kind = _get(data, "kind", where, _one_of(("constant", "rational", "matrix_ma", "zero", "fm")))
    if kind == "constant":
        params = {"matrix": _get(data, "matrix", where, _reals())}
    elif kind == "rational":
        params = _present(data, where, numerator=_reals(1), denominator=_reals(1), scale=_real)
    elif kind == "matrix_ma":
        params = {"coefficients": _get(data, "coefficients", where, _reals(1, 3))}
    elif kind == "zero":
        dim = _get(data, "dim", where, _count, dim)
        params = {} if dim is None else {"dim": dim}
    else:
        spec = {**_get(data, "spec", where, _object), "type": "fm"}
        params = {"spec": io.increment_from_dict(spec, f"{where}.spec"),
                  "base": _density_model(_get(data, "base", where, _object), f"{where}.base")}
    return DensityModel(kind, params)


def _density(section: dict, key: str, where: str, grid, dim=None, default=None):
    """The density object ``section[key]`` (or ``default``) evaluated on the grid."""
    at = f"{where}.{key}"
    model = _density_model(_get(section, key, where, _object, default or REQUIRED), at, dim)
    return _named(at, model.evaluate, grid)


def _integer_part(spec):
    """GM operator of the positive integer orders of a fractional increment, or None."""
    keep = [(s, r) for s, r in zip(*spec.integer_orders()) if r > 0]
    if not keep:
        return None
    s, d = zip(*keep)
    return GMIncrementSpec(s=s, mu=(1,) * len(keep), d=d)


def _increment(config):
    return io.increment_from_dict(_get(config["problem"], "increment", "problem", _object),
                                  "problem.increment")


def _gm_spec(config):
    spec = _increment(config)
    gm = spec if isinstance(spec, GMIncrementSpec) else _integer_part(spec)
    if gm is None:
        raise ValidationError(
            "fractional increment has no integer-order part; interpolation needs one")
    return gm


def _functional(config):
    from .classical import FunctionalSpec, PeriodicFunctionalSpec, lift_periodic

    where = "problem.functional"
    data = _get(config["problem"], "functional", "problem", _object)
    if _get(data, "type", where, _one_of(("vector", "periodic")), "vector") == "periodic":
        return lift_periodic(_named(
            where, PeriodicFunctionalSpec, M=_get(data, "M", where, _count),
            T=_get(data, "T", where, _count), a_scalar=_get(data, "a", where, _reals(1))))
    a = _get(data, "a", where, _reals(1, 2))
    return FunctionalSpec(N=a.shape[0] - 1, a=a.reshape(a.shape[0], -1))


def _densities(config, grid):
    """Signal and noise densities; no noise, or a zero one without dim, has the signal's size."""
    problem = config["problem"]
    f = _density(problem, "signal_density", "problem", grid)
    return f, _density(problem, "noise_density", "problem", grid, f.dim, {"kind": "zero"})


def _problem(config):
    """Grid, increment and functional of the config's problem."""
    from .spectra import FrequencyGrid

    grid = _get(config["problem"], "grid", "problem", lambda n: _must(
        2 ** 10 <= _int(n) <= 2 ** 20 and not n & (n - 1), n, "a power of two in [2^10, 2^20]"),
        4096)
    return FrequencyGrid(grid), _gm_spec(config), _functional(config)


def _dispatch(args) -> int:
    config = _load_config(args)
    return {"interpolate": _cmd_interpolate, "oracle-verify": _cmd_oracle,
            "minimax": _cmd_minimax, "classify": _cmd_classify,
            "coeffs": _cmd_coeffs}[args.command](args, config)


def _cmd_interpolate(args, config) -> int:
    from .classical import solve_interpolation

    grid, spec, fspec = _problem(config)
    f, g = _densities(config, grid)
    sol = solve_interpolation(spec, f, g, fspec)
    io.write_json(args.output_dir / "solution.json", io.solution_to_dict(sol))
    io.write_characteristic_csv(args.output_dir / "spectral_characteristic.csv",
                                f.grid.nodes, sol.h)
    _say(args, f"interpolate: delta={sol.delta:.12g} "
               f"(routes differ by {abs(sol.delta - sol.delta_spectral):.3g}), "
               f"cond={sol.condition_number:.3g}")
    return 0


def _cmd_oracle(args, config) -> int:
    from .classical import Problem, _interpolate
    from .oracle import DEFAULT_SCHEDULE, _table

    grid, spec, fspec = _problem(config)
    f, g = _densities(config, grid)
    opts = _get(config, "oracle", "", _object, {})
    schedule = _get(opts, "schedule", "oracle", _list(_count), DEFAULT_SCHEDULE)
    if not schedule:
        raise ValidationError("oracle.schedule must not be empty")
    tolerance = _get(opts, "tolerance", "oracle", _nonnegative, 0.02)
    prob = Problem(spec, fspec, f.grid)
    sol = _interpolate(prob, f, g)
    if not sol.delta:  # every gap of the table is relative to it
        raise ValidationError("problem.functional.a: the weights give a classical error of 0")
    rows = _table(prob, f, g, schedule)
    gap = abs(rows[-1][1] - sol.delta) / sol.delta
    payload = {
        "schema_version": 1,
        "kind": "oracle_convergence",
        "delta_classical": sol.delta,
        "tolerance": tolerance,
        "rows": [{"L": int(L), "delta_L": dL,
                  "relative_gap": (dL - sol.delta) / sol.delta} for L, dL in rows],
        "final_relative_gap": gap,
        "pass": gap <= tolerance,
    }
    io.write_json(args.output_dir / "convergence.json", payload)
    io.write_convergence_csv(args.output_dir / "convergence.csv", rows, sol.delta)
    _say(args, f"oracle-verify: delta={sol.delta:.12g}, L={rows[-1][0]} "
               f"gap={gap:.3e}, tolerance={tolerance:g}")
    if gap > tolerance:
        raise VerificationError(
            f"projection oracle gap {gap:.3e} exceeds tolerance {tolerance:g}")
    return 0


def _class_spec(data: dict, grid):
    """Both sides of the minimax class: the densities of CLASS_PARAMS, and reals."""
    from .minimax import (CLASS_PARAMS, F_CLASS_PARAMS, G_CLASS_PARAMS, DensityClassSpec,
                          FClassSpec, GClassSpec)

    sides = []
    for key, table, default, side in (
            ("f_class", F_CLASS_PARAMS, REQUIRED, FClassSpec),
            ("g_class", G_CLASS_PARAMS, {"kind": "zero"}, GClassSpec)):
        where = f"minimax.{key}"
        spec = _get(data, key, "minimax", _object, default)
        kind = _get(spec, "kind", where, _one_of(table))
        sides.append(side(kind, {
            name: _density(spec, name, where, grid) if CLASS_PARAMS[name][1] == "density"
            else _get(spec, name, where, _reals()) for name in table[kind]}))
    return DensityClassSpec(*sides)


def _cmd_minimax(args, config) -> int:
    from .minimax import MinimaxOptions, solve_minimax

    grid, spec, fspec = _problem(config)
    data = _get(config, "minimax", "", _object, {})
    options = MinimaxOptions(**_present(data, "minimax", tol=_nonnegative, max_iter=_count,
                                        saddle_samples=_count),
                             **_present(config["problem"], "problem", seed=_count))
    result = solve_minimax(_class_spec(data, grid), fspec, spec, grid, options)
    payload = {
        "schema_version": 1,
        "kind": "minimax_result",
        "delta0": result.delta0,
        "converged": result.converged,
        "f0": io.complex_array(result.f0.values),
        "g0": io.complex_array(result.g0.values),
        "h0": io.complex_array(result.h0),
        "multipliers": result.multipliers,
        "residual_report": _plain(result.residual_report),
        "saddle_report": _plain(result.saddle_report),
        "trace": _plain(result.trace),
    }
    io.write_json(args.output_dir / "minimax.json", payload)
    io.write_density_csv(args.output_dir / "least_favorable_signal.csv", result.f0)
    io.write_density_csv(args.output_dir / "least_favorable_noise.csv", result.g0)
    report = result.saddle_report
    saddle = (f"saddle_violation={report['max_violation']:.3e}" if report["n_samples"]
              else "saddle=not checked")
    _say(args, f"minimax: delta0={result.delta0:.12g} converged={result.converged} "
               f"iterations={len(result.trace)} {saddle}")
    return 0


def _plain(obj):
    import numpy as np
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def _cmd_classify(args, config) -> int:
    spec = _increment(config)
    if not isinstance(spec, FMIncrementSpec):
        raise ValidationError("classify requires a fractional ('fm') increment")
    report = classify_stationarity(spec)
    # frequencies with one condition share their contributors, hence D_nu and the verdict
    conditions = {p.condition: p.stationary for p in report.per_nu}
    payload = {
        "schema_version": 1,
        "kind": "stationarity_report",
        "stationary": report.stationary,
        "long_memory": report.long_memory,
        "invertible": report.invertible,
        "conditions": [{"condition": c, "satisfied": ok} for c, ok in conditions.items()],
        "per_frequency": [
            {"nu": p.nu, "D_nu": p.d_nu, "stationary": p.stationary,
             "long_memory": p.long_memory, "invertible": p.invertible,
             "contributors": list(p.contributors)}
            for p in report.per_nu
        ],
        "invertible_frequencies": list(report.invertible_frequencies),
    }
    io.write_json(args.output_dir / "classification.json", payload)
    verdict = "stationary" if report.stationary else "NOT stationary"
    _say(args, f"classify: {verdict}; conditions: " + "; ".join(
        f"{c['condition']} [{'pass' if c['satisfied'] else 'fail'}]"
        for c in payload["conditions"]))
    return 0


def _cmd_coeffs(args, config) -> int:
    spec = _increment(config)
    length = _get(_get(config, "coeffs", "", _object, {}), "length", "coeffs", _count, 32)
    payload = {"schema_version": 1, "kind": "coefficient_dump", "length": length}
    gm = spec if isinstance(spec, GMIncrementSpec) else _integer_part(spec)
    if gm is not spec:
        fset = frequency_set(spec)
        payload["frequencies"] = [
            {"nu": e.nu, "D_nu": e.d_nu, "D_tilde": e.d_tilde} for e in fset.entries]
        payload["series_plus"] = [float(x) for x in gm_series(fset, "plus", length)]
        payload["series_minus"] = [float(x) for x in gm_series(fset, "minus", length)]
    if gm is not None:
        payload["expansion"] = expand_operator(gm)
        payload["inverse_series"] = inverse_series(gm, length)
    io.write_json(args.output_dir / "coefficients.json", payload)
    _say(args, "coeffs: written coefficients.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
