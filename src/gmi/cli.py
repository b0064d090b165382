"""Config-driven command line entry point.

Commands: interpolate, oracle-verify, minimax, classify, coeffs.  Every
command reads one JSON config (schema_version 1), writes machine-readable
artifacts into --output-dir, and reports errors as a JSON envelope on
stderr.  Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _apply_thread_cap():
    cap = os.environ.get("GMI_THREADS")
    if cap:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, cap)


def main(argv=None) -> int:
    _apply_thread_cap()
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

    from .errors import GmiError

    try:
        code = _dispatch(args)
    except GmiError as exc:
        _emit_error(exc.code, str(exc))
        return exc.exit_code
    except Exception as exc:  # numerical library failures map to 3
        _emit_error("numerical_error", f"{type(exc).__name__}: {exc}")
        return 3
    return code


def _emit_error(code: str, message: str):
    sys.stderr.write(json.dumps({"code": code, "message": message}) + "\n")


def _say(args, text: str):
    if not args.quiet:
        print(text)


def _load_config(args) -> dict:
    from .errors import ValidationError

    try:
        config = json.loads(Path(args.config).read_text())
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {args.config}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    _check_config(config)
    problem = config["problem"]
    if args.grid is not None:
        problem["grid"] = args.grid
    if args.seed is not None:
        problem["seed"] = args.seed
    grid_n = problem.get("grid", 4096)
    if grid_n < 2 ** 10 or grid_n > 2 ** 20 or grid_n & (grid_n - 1):
        raise ValidationError("grid size must be a power of two in [2^10, 2^20]")
    return config


def _check_config(config) -> None:
    """Top-level shape: schema_version 1, the increment type, section and integer types."""
    from .errors import ValidationError

    def require(ok: bool, what: str):
        if not ok:
            raise ValidationError(f"config schema violation: {what}")

    require(isinstance(config, dict), "the config must be an object")
    version = config.get("schema_version")
    require(version == 1 and not isinstance(version, bool), "schema_version must be 1")
    problem = config.get("problem")
    require(isinstance(problem, dict), "problem must be an object")
    increment = problem.get("increment")
    require(isinstance(increment, dict), "problem.increment must be an object")
    require(increment.get("type") in ("gm", "fm"), "problem.increment.type must be 'gm' or 'fm'")
    sections = [(problem, "problem.", key)
                for key in ("signal_density", "noise_density", "functional")]
    sections += [(config, "", key) for key in ("oracle", "minimax", "coeffs")]
    for owner, prefix, key in sections:
        require(key not in owner or isinstance(owner[key], dict),
                f"{prefix}{key} must be an object")
    for key in ("grid", "seed"):
        require(key not in problem or type(problem[key]) is int,
                f"problem.{key} must be an integer")


@contextmanager
def _config_keys():
    """Report a key missing from the config as a validation error."""
    from .errors import ValidationError

    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"config is missing key {exc.args[0]!r}") from exc


def _build_grid(config):
    from .spectra import FrequencyGrid

    return FrequencyGrid(config["problem"].get("grid", 4096))


def _density_model(data: dict):
    from .errors import ValidationError
    from .io import increment_from_dict
    from .spectra import DensityModel

    if data is None:
        raise ValidationError("missing density description")
    kind = data.get("kind")
    if kind == "constant":
        matrix = data.get("matrix", data.get("value"))
        return DensityModel("constant", {"matrix": matrix})
    if kind == "rational":
        return DensityModel("rational", {
            "numerator": data.get("numerator", [1.0]),
            "denominator": data.get("denominator", [1.0]),
            "scale": data.get("scale", 1.0)})
    if kind == "matrix_ma":
        return DensityModel("matrix_ma", {"coefficients": data["coefficients"]})
    if kind == "zero":
        return DensityModel("zero", {"dim": data.get("dim", 1)})
    if kind == "fm":
        base = _density_model(data["base"])
        fm_spec = increment_from_dict({"type": "fm", **data["spec"]})
        return DensityModel("fm", {"spec": fm_spec, "base": base})
    raise ValidationError(f"unknown density kind {kind!r}")


def _integer_part(spec):
    """GM operator of the positive integer orders of a fractional increment, or None."""
    from .increments import GMIncrementSpec

    keep = [(s, r) for s, r in zip(*spec.integer_orders()) if r > 0]
    if not keep:
        return None
    s, d = zip(*keep)
    return GMIncrementSpec(s=s, mu=(1,) * len(keep), d=d)


def _gm_spec(config):
    from .errors import ValidationError
    from .increments import GMIncrementSpec
    from .io import increment_from_dict

    spec = increment_from_dict(config["problem"]["increment"])
    if isinstance(spec, GMIncrementSpec):
        return spec
    gm = _integer_part(spec)
    if gm is None:
        raise ValidationError(
            "fractional increment has no integer-order part; interpolation needs one")
    return gm


def _functional(config):
    from .classical import FunctionalSpec, PeriodicFunctionalSpec, lift_periodic
    from .errors import ValidationError

    data = config["problem"].get("functional")
    if data is None:
        raise ValidationError("problem.functional is required for this command")
    if data.get("type") == "periodic":
        p = PeriodicFunctionalSpec(M=int(data["M"]), T=int(data["T"]),
                                   a_scalar=data["a"])
        return lift_periodic(p)
    if data.get("type", "vector") == "vector":
        import numpy as np

        a = np.asarray(data["a"], dtype=float)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        return FunctionalSpec(N=a.shape[0] - 1, a=a)
    raise ValidationError("functional type must be 'vector' or 'periodic'")


def _densities(config, grid, dim_hint=None):
    from .errors import ValidationError
    from .spectra import DensityModel

    problem = config["problem"]
    if "signal_density" not in problem:
        raise ValidationError("problem.signal_density is required for this command")
    f = _density_model(problem["signal_density"]).evaluate(grid)
    noise = problem.get("noise_density")
    if noise is None:
        g = DensityModel("zero", {"dim": f.dim}).evaluate(grid)
    else:
        if noise.get("kind") == "zero" and "dim" not in noise:
            noise = {"kind": "zero", "dim": f.dim}
        g = _density_model(noise).evaluate(grid)
    return f, g


def _problem(config):
    """Increment, functional and densities (on the config's grid) of a problem."""
    with _config_keys():
        grid = _build_grid(config)
        spec = _gm_spec(config)
        fspec = _functional(config)
        return spec, fspec, *_densities(config, grid)


def _dispatch(args) -> int:
    config = _load_config(args)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    command = args.command
    if command == "interpolate":
        return _cmd_interpolate(args, config)
    if command == "oracle-verify":
        return _cmd_oracle(args, config)
    if command == "minimax":
        return _cmd_minimax(args, config)
    if command == "classify":
        return _cmd_classify(args, config)
    return _cmd_coeffs(args, config)


def _cmd_interpolate(args, config) -> int:
    from .classical import solve_interpolation
    from .io import solution_to_dict, write_characteristic_csv, write_json

    spec, fspec, f, g = _problem(config)
    sol = solve_interpolation(spec, f, g, fspec)
    write_json(args.output_dir / "solution.json", solution_to_dict(sol))
    write_characteristic_csv(args.output_dir / "spectral_characteristic.csv",
                             f.grid.nodes, sol.h)
    _say(args, f"interpolate: delta={sol.delta:.12g} "
               f"(routes differ by {abs(sol.delta - sol.delta_spectral):.3g}), "
               f"cond={sol.condition_number:.3g}")
    return 0


def _cmd_oracle(args, config) -> int:
    from .classical import Problem, _interpolate
    from .errors import VerificationError
    from .io import write_convergence_csv, write_json
    from .oracle import DEFAULT_SCHEDULE, _table

    spec, fspec, f, g = _problem(config)
    opts = config.get("oracle", {})
    schedule = tuple(int(x) for x in opts.get("schedule", DEFAULT_SCHEDULE))
    tolerance = float(opts.get("tolerance", 0.02))
    prob = Problem(spec, fspec, f.grid)
    sol = _interpolate(prob, f, g)
    rows = _table(prob, f, g, schedule)
    gap = abs(rows[-1][1] - sol.delta) / sol.delta if sol.delta else float("inf")
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
    write_json(args.output_dir / "convergence.json", payload)
    write_convergence_csv(args.output_dir / "convergence.csv", rows, sol.delta)
    _say(args, f"oracle-verify: delta={sol.delta:.12g}, L={rows[-1][0]} "
               f"gap={gap:.3e}, tolerance={tolerance:g}")
    if gap > tolerance:
        raise VerificationError(
            f"projection oracle gap {gap:.3e} exceeds tolerance {tolerance:g}")
    return 0


def _class_spec(config, grid):
    from .errors import ValidationError
    from .minimax import DensityClassSpec, FClassSpec, GClassSpec

    data = config.get("minimax", {})
    fdata = dict(data.get("f_class", {}))
    gdata = dict(data.get("g_class", {"kind": "zero"}))
    fkind = fdata.pop("kind", None)
    gkind = gdata.pop("kind", None)
    if fkind is None or gkind is None:
        raise ValidationError("minimax.f_class.kind and minimax.g_class.kind are required")
    for key in ("f1",):
        if key in fdata:
            fdata[key] = _density_model(fdata[key]).evaluate(grid)
    for key in ("g1", "V", "U"):
        if key in gdata:
            gdata[key] = _density_model(gdata[key]).evaluate(grid)
    return DensityClassSpec(FClassSpec(fkind, fdata), GClassSpec(gkind, gdata))


def _cmd_minimax(args, config) -> int:
    from .io import complex_array, write_density_csv, write_json
    from .minimax import MinimaxOptions, solve_minimax

    with _config_keys():
        grid = _build_grid(config)
        spec = _gm_spec(config)
        fspec = _functional(config)
        opts_data = config.get("minimax", {})
        options = MinimaxOptions(
            tol=float(opts_data.get("tol", 1e-7)),
            max_iter=int(opts_data.get("max_iter", 500)),
            saddle_samples=int(opts_data.get("saddle_samples", 50)),
            seed=int(config["problem"].get("seed", 0)),
        )
        class_spec = _class_spec(config, grid)
    result = solve_minimax(class_spec, fspec, spec, grid, options)
    payload = {
        "schema_version": 1,
        "kind": "minimax_result",
        "delta0": result.delta0,
        "converged": result.converged,
        "f0": complex_array(result.f0.values),
        "g0": complex_array(result.g0.values),
        "h0": complex_array(result.h0),
        "multipliers": result.multipliers,
        "residual_report": _plain(result.residual_report),
        "saddle_report": _plain(result.saddle_report),
        "trace": _plain(result.trace),
    }
    write_json(args.output_dir / "minimax.json", payload)
    write_density_csv(args.output_dir / "least_favorable_signal.csv", result.f0)
    write_density_csv(args.output_dir / "least_favorable_noise.csv", result.g0)
    _say(args, f"minimax: delta0={result.delta0:.12g} converged={result.converged} "
               f"iterations={len(result.trace)} "
               f"saddle_violation={result.saddle_report.get('max_violation', 0.0):.3e}")
    return 0


def _plain(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _cmd_classify(args, config) -> int:
    from .errors import ValidationError
    from .increments import FMIncrementSpec, classify_stationarity
    from .io import increment_from_dict, write_json

    with _config_keys():
        spec = increment_from_dict(config["problem"]["increment"])
    if not isinstance(spec, FMIncrementSpec):
        raise ValidationError("classify requires a fractional ('fm') increment")
    report = classify_stationarity(spec)
    conditions: dict[str, bool] = {}
    for p in report.per_nu:
        cond = "|" + "+".join(f"D{j}" for j in p.contributors) + "| < 1/2"
        conditions.setdefault(cond, p.stationary)
    payload = {
        "schema_version": 1,
        "kind": "stationarity_report",
        "stationary": report.stationary,
        "long_memory": report.long_memory,
        "invertible": report.invertible,
        "conditions": [
            {"condition": cond, "satisfied": ok} for cond, ok in conditions.items()
        ],
        "per_frequency": [
            {"nu": p.nu, "D_nu": p.d_nu, "stationary": p.stationary,
             "long_memory": p.long_memory, "invertible": p.invertible,
             "contributors": list(p.contributors)}
            for p in report.per_nu
        ],
        "invertible_frequencies": list(report.invertible_frequencies),
    }
    write_json(args.output_dir / "classification.json", payload)
    verdict = "stationary" if report.stationary else "NOT stationary"
    _say(args, f"classify: {verdict}; conditions: " + "; ".join(
        f"{c['condition']} [{'pass' if c['satisfied'] else 'fail'}]"
        for c in payload["conditions"]))
    return 0


def _cmd_coeffs(args, config) -> int:
    from .increments import (GMIncrementSpec, expand_operator, frequency_set, gm_series,
                             inverse_series)
    from .io import increment_from_dict, write_json

    with _config_keys():
        spec = increment_from_dict(config["problem"]["increment"])
        length = int(config.get("coeffs", {}).get("length", 32))
    payload = {"schema_version": 1, "kind": "coefficient_dump", "length": length}
    if isinstance(spec, GMIncrementSpec):
        payload["expansion"] = [int(x) for x in expand_operator(spec)]
        payload["inverse_series"] = [int(x) for x in inverse_series(spec, length)]
    else:
        fset = frequency_set(spec)
        payload["frequencies"] = [
            {"nu": e.nu, "D_nu": e.d_nu, "D_tilde": e.d_tilde} for e in fset.entries]
        payload["series_plus"] = [float(x) for x in gm_series(fset, "plus", length)]
        payload["series_minus"] = [float(x) for x in gm_series(fset, "minus", length)]
        gm = _integer_part(spec)
        if gm is not None:
            payload["expansion"] = [int(x) for x in expand_operator(gm)]
            payload["inverse_series"] = [int(x) for x in inverse_series(gm, length)]
    write_json(args.output_dir / "coefficients.json", payload)
    _say(args, "coeffs: written coefficients.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
