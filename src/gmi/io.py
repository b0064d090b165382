"""Canonical JSON / CSV output, config readers and increment specs from dicts.

Floats are always written as ``"%.17g"`` writes them, with negative zero as
``0``: 17 significant digits round-trip doubles exactly and keep repeated
runs byte-identical.  Complex values are two-element [re, im] arrays in
JSON and paired Re/Im columns in CSV.

Float arrays (every CSV table, a block of rows at a time, and every float or
complex ndarray in a JSON document) are written by one vectorized kernel,
``_floatfmt``, exact by construction.  It forms the 17 digits D = round(|x| 10^(16-k)),
k = floor(log10 |x|) corrected once, in double-double arithmetic (10^q as
a rounded hi + lo pair, Dekker's two-product) with an absolute error below
2^-46, and it writes a value only where that certifies the rounding: the
fraction is farther than 2^-30 from 1/2 and D is in [10^16, 10^17].
Zeros are written as ``0``.  Every other value (ties and near ties,
subnormals, |x| > 1e290) goes to ``_format_float`` on its own.  The full
argument is in the ``_floatfmt`` module docstring.  numpy and that module
are imported inside the functions that use them, and this module imports
neither ``classical`` nor ``spectra``, so ``classify`` loads none of them
and ``coeffs`` loads numpy only for a fractional increment's float series.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ValidationError
from .increments import FMIncrementSpec, GMIncrementSpec, SeasonalFactor


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"refusing to serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0  # normalize negative zero
    return format(x, ".17g")


# --- JSON -------------------------------------------------------------------


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
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, complex):
        _emit([float(obj.real), float(obj.imag)], out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _emit(str(key), out)
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:  # only a document that holds a numpy value loads numpy
        import numpy as np
        if isinstance(obj, np.ndarray) and obj.dtype.kind in "fc" and obj.size and obj.ndim:
            out.append(_json_array(obj))
        elif isinstance(obj, np.ndarray):  # of a 0-d array, tolist() is its item
            _emit(obj.tolist(), out)
        elif isinstance(obj, np.number):  # numpy's integer, float and complex scalars
            _emit({"f": float, "c": complex}.get(obj.dtype.kind, int)(obj), out)
        else:
            raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _json_array(arr: np.ndarray) -> str:
    """Nested JSON lists of a non-empty float or complex array: the kernel's blocks, joined.

    A value whose c innermost indices are all last closes c lists and opens
    c again after its comma; the last value's tail is cut back to one "]"
    less than the dimension count, and the outer "]" closes the array.
    """
    import numpy as np
    from ._floatfmt import format_blocks

    if arr.dtype.kind == "c":
        arr = complex_array(arr)
    inner = arr.shape[1:]
    cols = math.prod(inner)
    closes = np.zeros(cols, dtype=int)
    stride = 1
    for size in reversed(inner):
        stride *= size
        closes += np.arange(cols) % stride == stride - 1
    tails = np.zeros((cols, 2 * len(inner) + 1), np.uint8)
    for col, c in enumerate(closes):
        text = b"]" * c + b"," + b"[" * c
        tails[col, :len(text)] = np.frombuffer(text, np.uint8)
    body = b"".join(format_blocks(arr.reshape(arr.shape[0], cols), tails))
    return "[" * arr.ndim + body[:-arr.ndim].decode() + "]"


def write_json(path: Path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n")


def complex_array(values: np.ndarray) -> np.ndarray:
    """Stacked (..., 2) [re, im] pairs of a complex array."""
    import numpy as np
    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1)


# --- config values ----------------------------------------------------------

REQUIRED = object()  # the default of a key that must be present


def _get(section: dict, key: str, where: str, read=None, default=REQUIRED):
    """``read(section[key])``, or ``default`` when absent.  A missing required key,
    or a value ``read`` refuses, raises a ValidationError naming ``where``.key."""
    if key not in section:
        if default is REQUIRED:
            raise ValidationError(f"{where or 'config'} is missing key {key!r}")
        return default
    try:
        return section[key] if read is None else read(section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where + '.' if where else ''}{key}: {exc}") from exc


def _present(section: dict, where: str, **readers) -> dict:
    """The keys of ``readers`` that ``section`` has, read; the owner defaults the others."""
    return {key: _get(section, key, where, read) for key, read in readers.items() if key in section}


def _must(ok: bool, value, what: str):
    """``value`` if ``ok``, else the ValueError that ``_get`` turns into a named message."""
    if not ok:
        raise ValueError(f"must be {what}, not {value!r}")
    return value


def _object(value) -> dict:
    return _must(isinstance(value, dict), value, "an object")


def _int(value) -> int:  # an exact JSON integer: no bool, no 2.5, no "2"
    return _must(type(value) is int, value, "an integer")


def _count(value) -> int:
    return _must(_int(value) >= 0, value, "a non-negative integer")


def _real(value) -> float:
    ok = type(value) in (int, float) and math.isfinite(value)
    return float(_must(ok, value, "a finite real number"))


def _nonnegative(value) -> float:
    return float(_must(_real(value) >= 0, value, "a non-negative real number"))


def _list(read):
    """Converter of a list whose items pass ``read``, to a tuple."""
    return lambda value: tuple(map(read, _must(isinstance(value, list), value, "a list")))


def _one_of(choices):
    return lambda value: _must(isinstance(value, str) and value in choices, value,
                               "one of " + ", ".join(map(repr, choices)))


def _reals(*ndims):
    """Converter to a non-empty float array of finite reals, of a rank in ``ndims`` if given."""
    def read(value) -> np.ndarray:
        import numpy as np
        arr = np.asarray(value)
        rank = f" (rank {' or '.join(map(str, ndims))})" if ndims else ""
        _must(arr.dtype.kind in "iuf" and arr.size and (not ndims or arr.ndim in ndims)
              and np.all(np.isfinite(arr)), value, f"a non-empty array{rank} of finite reals")
        return arr.astype(float)
    return read


def _named(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValidationError it raises gets ``where`` in front."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def increment_from_dict(data: dict, where: str = "increment"):
    """The increment spec of a ``{"type": "gm" | "fm", ...}`` object."""
    if _get(data, "type", where, _one_of(("gm", "fm"))) == "gm":
        return _named(where, GMIncrementSpec,
                      *(_get(data, key, where, _list(_count)) for key in ("s", "mu", "d")))
    factors = []
    for k, factor in enumerate(_get(data, "factors", where, _list(_object), ())):
        at = f"{where}.factors[{k}]"
        factors.append(_named(at, SeasonalFactor, _get(factor, "s", at, _int),
                              _get(factor, "R", at, _count, 0), _get(factor, "D", at, _real, 0.0)))
    return _named(where, FMIncrementSpec, R0=_get(data, "R0", where, _count, 0),
                  D0=_get(data, "D0", where, _real, 0.0), factors=tuple(factors))


def solution_to_dict(sol) -> dict:
    """The JSON document of a ``classical.InterpolationSolution``, whose spec is a GM one."""
    spec = sol.spec
    return {
        "schema_version": 1,
        "kind": "interpolation_solution",
        "increment": {"type": "gm", "s": list(spec.s), "mu": list(spec.mu), "d": list(spec.d)},
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
    """CSV of a real table, every value in the ``_format_float`` form, one block at a time."""
    import numpy as np
    from ._floatfmt import format_blocks

    tails = np.full((table.shape[1], 1), ord(","), np.uint8)
    tails[-1] = ord("\n")
    blocks = format_blocks(table, tails)  # raises on a non-finite value before the file opens
    with open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode())
        out.writelines(blocks)


def _write_complex_table(path: Path, nodes: np.ndarray, values: np.ndarray, names) -> None:
    """CSV of the nodes as ``lambda`` and of each complex column as its Re/Im pair."""
    import numpy as np
    header = ["lambda"] + [f"{name}_{part}" for name in names for part in ("re", "im")]
    table = np.empty((values.shape[0], 1 + 2 * values.shape[1]))
    table[:, 0] = nodes
    table[:, 1::2] = values.real
    table[:, 2::2] = values.imag
    _write_table(path, header, table)


def write_characteristic_csv(path: Path, grid_nodes: np.ndarray, h: np.ndarray) -> None:
    _write_complex_table(path, grid_nodes, h, [f"h{p}" for p in range(h.shape[1])])


def write_density_csv(path: Path, density) -> None:
    """CSV of a ``spectra.DensityGrid``, one Re/Im pair per matrix entry."""
    n, dim = density.grid.n_grid, density.dim
    _write_complex_table(path, density.grid.nodes, density.values.reshape(n, dim * dim),
                         [f"f{i}{j}" for i in range(dim) for j in range(dim)])


def write_convergence_csv(path: Path, rows: list, delta_classical: float) -> None:
    import numpy as np
    table = np.array(rows, dtype=float).reshape(-1, 2)
    if delta_classical:
        gap = (table[:, 1] - delta_classical) / delta_classical
    else:
        gap = np.full(len(table), math.inf)  # rejected as non-finite
    _write_table(path, ["L", "delta_L", "relative_gap"], np.column_stack([table, gap]))
