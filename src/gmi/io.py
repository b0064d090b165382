"""Canonical JSON / CSV output and increment specs to and from dicts.

Floats are always emitted with 17 significant digits, which round-trips
doubles exactly and keeps repeated runs byte-identical.  Complex values are
two-element [re, im] arrays in JSON and paired Re/Im columns in CSV.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .classical import InterpolationSolution
from .errors import ValidationError
from .increments import FMIncrementSpec, GMIncrementSpec, SeasonalFactor
from .spectra import DensityGrid


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"refusing to serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0  # normalize negative zero
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Serialize with sorted keys and fixed float formatting."""
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


def write_json(path: Path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n")


def complex_array(values: np.ndarray) -> list:
    """Nested [re, im] pairs for a complex array."""
    arr = np.asarray(values, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def increment_to_dict(spec) -> dict:
    if isinstance(spec, GMIncrementSpec):
        return {"type": "gm", "s": list(spec.s), "mu": list(spec.mu), "d": list(spec.d)}
    if isinstance(spec, FMIncrementSpec):
        return {
            "type": "fm",
            "R0": spec.R0,
            "D0": spec.D0,
            "factors": [{"s": f.s, "R": f.R, "D": f.D} for f in spec.factors],
        }
    raise ValidationError("unknown increment spec")


def increment_from_dict(data: dict):
    if data.get("type") == "gm":
        return GMIncrementSpec(s=tuple(data["s"]), mu=tuple(data["mu"]), d=tuple(data["d"]))
    if data.get("type") == "fm":
        return FMIncrementSpec(
            R0=int(data.get("R0", 0)),
            D0=float(data.get("D0", 0.0)),
            factors=tuple(SeasonalFactor(int(f["s"]), int(f.get("R", 0)), float(f.get("D", 0.0)))
                          for f in data.get("factors", [])),
        )
    raise ValidationError("increment type must be 'gm' or 'fm'")


def solution_to_dict(sol: InterpolationSolution) -> dict:
    return {
        "schema_version": 1,
        "kind": "interpolation_solution",
        "increment": increment_to_dict(sol.spec),
        "functional": {"N": sol.fspec.N, "a": sol.fspec.a.tolist()},
        "grid": sol.grid.n_grid,
        "c": complex_array(sol.c),
        "v": sol.v.tolist(),
        "b": sol.b.tolist(),
        "a_mu": sol.a_mu.tolist(),
        "delta": sol.delta,
        "mse_routes": {
            "algebraic": sol.delta,
            "spectral": sol.delta_spectral,
            "difference": abs(sol.delta - sol.delta_spectral),
        },
        "condition_number": sol.condition_number,
        "system_residual": sol.residual,
        "minimality": {
            "value": sol.minimality.value,
            "refined_value": sol.minimality.refined_value,
            "is_minimal": sol.minimality.is_minimal,
        },
    }


def _write_table(path: Path, header: list, table: np.ndarray) -> None:
    """CSV of a real table, every value in the ``_format_float`` form."""
    bad = ~np.isfinite(table)
    if np.any(bad):
        _format_float(float(table[bad][0]))  # raises ValidationError
    table = table + 0.0  # normalize negative zero
    template = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header)] + [template % tuple(row) for row in table.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_characteristic_csv(path: Path, grid_nodes: np.ndarray, h: np.ndarray) -> None:
    h = np.asarray(h, dtype=complex)
    dim = h.shape[1]
    header = ["lambda"]
    for p in range(dim):
        header += [f"h{p}_re", f"h{p}_im"]
    table = np.empty((h.shape[0], 1 + 2 * dim))
    table[:, 0] = grid_nodes
    table[:, 1::2] = h.real
    table[:, 2::2] = h.imag
    _write_table(path, header, table)


def write_density_csv(path: Path, density: DensityGrid) -> None:
    dim = density.dim
    header = ["lambda"]
    for i in range(dim):
        for j in range(dim):
            header += [f"f{i}{j}_re", f"f{i}{j}_im"]
    values = density.values.reshape(density.grid.n_grid, dim * dim)
    table = np.empty((density.grid.n_grid, 1 + 2 * dim * dim))
    table[:, 0] = density.grid.nodes
    table[:, 1::2] = values.real
    table[:, 2::2] = values.imag
    _write_table(path, header, table)


def write_convergence_csv(path: Path, rows: list, delta_classical: float) -> None:
    lines = ["L,delta_L,relative_gap"]
    for L, dL in rows:
        gap = (dL - delta_classical) / delta_classical if delta_classical else math.inf
        lines.append(",".join([str(int(L)), _format_float(float(dL)), _format_float(float(gap))]))
    Path(path).write_text("\n".join(lines) + "\n")
