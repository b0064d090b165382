"""Every command rescales exactly when the weights or the densities are scaled by 2^e.

The error is a quadratic form in the functional's weights a and linear in the densities
(f, g), and the optimal h does not depend on (f, g).  A power of two multiplies exactly in
floating point, so under a -> 2^k a or (f, g) -> 2^j (f, g) each written number of degree
(p, q) in a and in (f, g) must be 2^(p k + q j) times the unscaled one, bit for bit, and
the exit code, the error code, every flag and every verdict must stay the same.  Each
``gmi`` command runs in-process on each shipped config, as ``scripts/same_outputs.py``
lists them.
"""

import contextlib
import copy
import functools
import importlib.util
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest

from gmi.cli import main
from gmi.minimax import CLASS_PARAMS

ROOT = Path(__file__).resolve().parents[1]


def _runs() -> list[tuple[str, str]]:
    """(command, config name) of each gmi run that scripts/same_outputs.py compares."""
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    todo = same_outputs.runs(sorted((ROOT / "configs").glob("*.json")))
    return [(args[2], Path(args[4]).name) for args in todo.values()
            if args[:2] == ["-m", "gmi.cli"]]


RUNS = _runs()
#: ("a", k) scales the weights by 2^k, ("fg", j) every density and budget by 2^j
SCALINGS = [("a", k) for k in (-300, -10, 10, 100)] + [("fg", j) for j in (-40, -20, 20, 40)]

#: degree (p, q) in a and in (f, g) of the numbers at each key path (list indices dropped;
#: a path also covers the paths below it) or CSV column (its index and _re/_im dropped);
#: every other number has degree (0, 0), so it must not change at all
DEGREES = {
    "solution.json": {
        "functional.a": (1, 0), "c": (1, 1), "v": (1, 0), "b": (1, 0), "a_mu": (1, 0),
        "delta": (2, 1), "mse_routes": (2, 1), "system_residual": (1, 0),
        "minimality.value": (0, -1), "minimality.refined_value": (0, -1)},
    "spectral_characteristic.csv": {"h": (1, 0)},
    "convergence.json": {"delta_classical": (2, 1), "rows.delta_L": (2, 1)},
    "convergence.csv": {"delta_L": (2, 1)},
    "minimax.json": {
        "delta0": (2, 1), "f0": (0, 1), "g0": (0, 1), "h0": (1, 0), "multipliers": (2, 0),
        "residual_report.multipliers": (2, 0), "residual_report.f.budget_residual": (0, 1),
        "residual_report.g.budget_residual": (0, 1),
        "residual_report.worst_iterate_feasibility": (0, 1),
        "residual_report.ascent_gap": (2, 1), "saddle_report.max_violation": (2, 1),
        "saddle_report.left_min_margin": (2, 1), "trace.delta": (2, 1), "trace.gap": (2, 1)},
    "least_favorable_signal.csv": {"f": (0, 1)},
    "least_favorable_noise.csv": {"f": (0, 1)},
    "classification.json": {}, "coefficients.json": {},
}
#: class parameters that are neither densities nor budgets
DIMENSIONLESS = ("eps", "B1", "B2")


def _times(value, e: int):
    """Every number of a nested list times 2^e."""
    return [_times(x, e) for x in value] if isinstance(value, list) else math.ldexp(value, e)


def _scale_density(density: dict, j: int) -> None:
    kind = density["kind"]
    if kind == "constant":
        density["matrix"] = _times(density["matrix"], j)
    elif kind == "rational":
        density["scale"] = _times(density.get("scale", 1.0), j)
    elif kind == "matrix_ma":  # the density is the square of the coefficients; j is even
        density["coefficients"] = _times(density["coefficients"], j // 2)
    else:
        assert kind == "zero", kind


def _scaled(config: dict, kind: str, e: int) -> dict:
    config = copy.deepcopy(config)
    problem = config["problem"]
    if kind == "a":
        if "functional" in problem:
            problem["functional"]["a"] = _times(problem["functional"]["a"], e)
        return config
    for key in ("signal_density", "noise_density"):
        if key in problem:
            _scale_density(problem[key], e)
    for side in ("f_class", "g_class"):
        for name, value in config.get("minimax", {}).get(side, {}).items():
            if CLASS_PARAMS.get(name, (0, ""))[1] == "density":
                _scale_density(value, e)
            elif name != "kind" and name not in DIMENSIONLESS:
                config["minimax"][side][name] = _times(value, e)
    return config


def _read(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, *lines = path.read_text().splitlines()
    columns = header.split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines]
    return {name: [row[i] for row in rows] for i, name in enumerate(columns)}


@functools.cache
def _outcome(command: str, name: str, kind: str | None = None, e: int = 0):
    """Exit code, error code and parsed artifacts of one run, its config scaled by 2^e."""
    config = json.loads((ROOT / "configs" / name).read_text())
    if kind is not None:
        config = _scaled(config, kind, e)
    with tempfile.TemporaryDirectory() as tmp:
        path, out, err = Path(tmp) / "config.json", Path(tmp) / "out", io.StringIO()
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--output-dir", str(out)])
        files = {p.name: _read(p) for p in sorted(out.iterdir())}
    error = json.loads(err.getvalue())["code"] if code else err.getvalue()
    return code, error, files


def _degree(file: str, path: str) -> tuple[int, int]:
    if file.endswith(".csv"):
        path = re.sub(r"\d*_(re|im)$", "", path)
    return next((degree for key, degree in DEGREES[file].items()
                 if path == key or path.startswith(key + ".")), (0, 0))


def _mismatches(file: str, path: str, got, want, k: int, j: int, keep) -> list[str]:
    """Key paths of file where got is not want rescaled, among those that keep(path) takes."""
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{file} {path}: keys {sorted(got)} != {sorted(want)}"]
        return [line for key in want for line in _mismatches(
            file, f"{path}.{key}".lstrip("."), got[key], want[key], k, j, keep)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{file} {path}: length differs"]
        return [line for g, w in zip(got, want)
                for line in _mismatches(file, path, g, w, k, j, keep)][:1]
    if not keep(path):
        return []
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        p, q = _degree(file, path)
        want = math.ldexp(want, p * k + q * j)
    same = got == want and isinstance(got, bool) == isinstance(want, bool)
    return [] if same else [f"{file} {path}: {got!r} != {want!r} rescaled"]


def _compare(command: str, name: str, kind: str, e: int, keep) -> list[str]:
    """What differs between the unscaled run and the scaled one, rescaled back."""
    k, j = (e, 0) if kind == "a" else (0, e)
    want_code, want_error, want_files = _outcome(command, name)
    code, error, files = _outcome(command, name, kind, e)
    assert (code, error) == (want_code, want_error)
    assert sorted(files) == sorted(want_files)
    return [line for file in want_files
            for line in _mismatches(file, "", files[file], want_files[file], k, j, keep)]


@pytest.mark.parametrize("kind, e", SCALINGS, ids=[f"{kind}*2^{e}" for kind, e in SCALINGS])
@pytest.mark.parametrize("command, name", RUNS, ids=[f"{c}-{n}" for c, n in RUNS])
def test_outputs_rescale_exactly(command, name, kind, e):
    assert _compare(command, name, kind, e,
                    lambda path: not path.startswith("saddle_report")) == []


SADDLE_SCALINGS = [pytest.param(kind, e, marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: the saddle check admits a sample by an absolute "
                        "residual (1e-6), which most samples miss at densities x 2^40"))
    if (kind, e) == ("fg", 40) else (kind, e) for kind, e in SCALINGS]


@pytest.mark.parametrize("kind, e", SADDLE_SCALINGS, ids=[f"{k}*2^{e}" for k, e in SCALINGS])
def test_saddle_report_rescales_exactly(kind, e):
    runs = [(command, name) for command, name in RUNS if command == "minimax"]
    assert runs and any(_outcome(*run)[0] == 0 for run in runs)
    assert [line for run in runs for line in _compare(
        *run, kind, e, lambda path: path.startswith("saddle_report"))] == []
