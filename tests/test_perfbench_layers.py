"""Every function the benchmark's span tracer wraps must exist in gmi.

The tracer in perfbench/spans.py raises on a missing name, and only a traced
benchmark run would show it; this test reads its layer table without running
the benchmark.  The minimax and density layers must also still be reached: a
traced name that the program no longer calls would read 0 in every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from conftest import constant_density, count_calls, matrix_ma_density, rational_density
from gmi import minimax, spectra
from gmi.classical import FunctionalSpec, solve_interpolation
from gmi.increments import GMIncrementSpec


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _resolves(key: str) -> bool:
    module_name, qualname = key.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = _spans()
    assert len(spans.LAYERS) > 0
    assert [key for key in spans.LAYERS if not _resolves(key)] == []


MINIMAX_LAYERS = {
    "_bisect_decreasing": "minimax.ee_candidates", "_ee_candidate_f": "minimax.ee_candidates",
    "_ee_candidate_g": "minimax.ee_candidates", "saddle_check": "minimax.saddle",
    "_project_f": "minimax.saddle", "_project_g": "minimax.saddle",
    "feasibility_report": "minimax.feasibility",
}


def test_minimax_layers_are_called_in_a_scalar_run(grid1k, monkeypatch):
    spans = _spans()
    assert {name: spans.LAYERS[f"gmi.minimax:{name}"] for name in MINIMAX_LAYERS} == MINIMAX_LAYERS
    calls = {name: count_calls(monkeypatch, minimax, name) for name in MINIMAX_LAYERS}
    box = {"V": constant_density(grid1k, 0.2), "U": constant_density(grid1k, 0.6), "q": 0.35}
    cls = minimax.DensityClassSpec(
        minimax.FClassSpec("D1delta_2", {"f1": rational_density(grid1k, [1.0], [1.0, -0.4]),
                                         "delta_k": [0.1]}),
        minimax.GClassSpec("DVU_2", box))
    minimax.solve_minimax(cls, FunctionalSpec(N=0, a=np.array([[1.0]])),
                          GMIncrementSpec((1,), (1,), (1,)), grid1k,
                          minimax.MinimaxOptions(max_iter=2, saddle_samples=3))
    assert [name for name, seen in calls.items() if not seen] == []


def test_density_layers_are_called_in_a_matrix_solve(grid1k, monkeypatch):
    layers = _spans().LAYERS
    assert layers["gmi.spectra:DensityGrid._validate"] == "spectra.density_eval"
    assert layers["gmi.spectra:inverse_density"] == "spectra.inverse_density"
    calls = {"_validate": count_calls(monkeypatch, spectra.DensityGrid, "_validate"),
             "inverse_density": count_calls(monkeypatch, spectra, "inverse_density")}
    f = matrix_ma_density(grid1k, [[[1.0, 0.2], [0.1, 0.8]], [[0.3, 0.0], [0.1, 0.2]]])
    g = constant_density(grid1k, [[0.4, 0.1], [0.1, 0.3]])
    solve_interpolation(GMIncrementSpec((1,), (1,), (1,)), f, g,
                        FunctionalSpec(N=1, a=np.array([[1.0, 0.5], [0.3, -0.2]])))
    assert {name: len(c) for name, c in calls.items()} == {"_validate": 2, "inverse_density": 1}
