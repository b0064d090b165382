"""In-memory spans around the program's layer functions.

The tracer wraps module-level functions (and a few methods) of ``gmi`` from
the outside: each wrapped call records one span ``[layer, parent, start,
end]``.  A function is replaced in every module that holds it under a name,
so ``from .classical import _row_polynomial`` inside ``gmi.minimax`` and
``gmi.oracle`` is traced too.  Nothing under ``src/gmi`` changes.

Tiny helpers that run thousands of times per call of their caller (for
example ``minimax._top_dir``) are not wrapped; their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time

#: modules whose attributes are patched
MODULES = ("gmi.increments", "gmi.spectra", "gmi.classical", "gmi.oracle",
           "gmi.minimax", "gmi.io", "gmi.cli")

#: "module:qualified name" of each traced function -> layer name
LAYERS = {
    **{f"gmi.increments:{name}": "increments" for name in (
        "expand_operator", "inverse_series", "gegenbauer", "gegenbauer_series",
        "frequency_set", "gm_series", "classify_stationarity")},
    "gmi.spectra:_chi_beta": "spectra.chi_beta",
    "gmi.spectra:symbols": "spectra.chi_beta",
    "gmi.spectra:FrequencyGrid.fourier": "spectra.fourier",
    "gmi.spectra:DensityModel.evaluate": "spectra.density_eval",
    "gmi.spectra:fm_density": "spectra.density_eval",
    "gmi.spectra:_check_unit_circle_roots": "spectra.density_eval",
    "gmi.spectra:DensityGrid._validate": "spectra.density_eval",
    "gmi.spectra:inverse_density": "spectra.inverse_density",
    "gmi.spectra:minimality_value": "spectra.minimality",
    "gmi.classical:solve_interpolation": "classical.solve",
    "gmi.classical:fourier_blocks": "classical.fourier_blocks",
    "gmi.classical:_block_toeplitz": "classical.block_toeplitz",
    "gmi.classical:solve_system": "classical.solve_system",
    **{f"gmi.classical:{name}": "classical.weights" for name in (
        "transform_b", "coeffs_a_mu", "v_coeffs", "padded_b", "lift_periodic")},
    "gmi.classical:_row_polynomial": "classical.row_polynomial",
    "gmi.classical:spectral_characteristic": "classical.characteristic",
    "gmi.classical:mse_of_characteristic": "classical.mse_spectral",
    "gmi.oracle:gram_covariances": "oracle.gram",
    "gmi.oracle:projection_mse": "oracle.projection",
    "gmi.oracle:convergence_table": "oracle.table",
    "gmi.minimax:solve_minimax": "minimax.ascent",
    "gmi.minimax:_delta_core": "minimax.delta_core",
    "gmi.minimax:_line_search": "minimax.line_search",
    **{f"gmi.minimax:{name}": "minimax.lp" for name in (
        "_lp_f", "_lp_g", "_waterfill_traces")},
    "gmi.minimax:_gradient_kernels": "minimax.gradient_kernels",
    **{f"gmi.minimax:{name}": "minimax.ee_candidates" for name in (
        "_ee_candidate_f", "_ee_candidate_g", "_ee_shapes", "_bisect_decreasing")},
    **{f"gmi.minimax:{name}": "minimax.feasibility" for name in (
        "feasibility_report", "feasible_start", "validate_class_spec")},
    **{f"gmi.minimax:{name}": "minimax.residuals" for name in (
        "extremal_residuals", "_extremal_functions")},
    **{f"gmi.minimax:{name}": "minimax.saddle" for name in (
        "saddle_check", "_project_f", "_project_g")},
    **{f"gmi.io:{name}": "io.write" for name in (
        "write_json", "write_characteristic_csv", "write_density_csv",
        "write_convergence_csv", "solution_to_dict")},
    "gmi.cli:_load_config": "cli.load_config",
    **{f"gmi.cli:{name}": "cli.command" for name in (
        "main", "_dispatch", "_cmd_interpolate", "_cmd_oracle", "_cmd_minimax",
        "_cmd_classify", "_cmd_coeffs", "_density_model", "_gm_spec", "_functional",
        "_densities", "_class_spec", "_plain")},
}

#: the root span of one operation; its self time is the untraced remainder
OP = "bench.op"

_WRITERS = ("write_json", "write_characteristic_csv", "write_density_csv",
            "write_convergence_csv")


class Tracer:
    """Collects spans and counters in memory; install() patches the program."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, layer: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(args, out)
            return out

        return traced

    def _after_hook(self, name: str):
        if name == "saddle_check":
            def saddle(args, report):
                attempted = report.get("n_samples", 0)
                self.count("saddle.attempted", attempted)
                self.count("saddle.admissible", attempted - report.get("skipped_samples", 0))
            return saddle
        if name in _WRITERS:
            return lambda args, out: self.count("io.bytes_written", os.path.getsize(args[0]))
        return None

    def install(self) -> None:
        """Replace every traced function wherever a loaded module holds it.

        Modules that are not imported yet stay unloaded, so tracing a CLI
        child adds no imports beyond those its command makes.
        """
        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        for key, layer in LAYERS.items():
            mod_name, qual = key.split(":")
            owner = sys.modules.get(mod_name)
            if owner is None:
                continue
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, layer))
                continue
            original = getattr(owner, qual)
            wrapped = self._wrap(original, layer, self._after_hook(qual))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def self_times(spans: list[list]) -> dict[str, list[float]]:
    """Layer -> [calls, self seconds]; self = duration minus child durations."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, list[float]] = {}
    for (name, parent, t0, t1), inner in zip(spans, child):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (t1 - t0) - inner
    return out
