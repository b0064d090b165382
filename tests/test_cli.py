import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls
from gmi import classical
from gmi.cli import main
from gmi.io import canonical_json, complex_array
from readback import parse_complex_array, solution_from_dict

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

BASE_CONFIG = {
    "schema_version": 1,
    "problem": {
        "increment": {"type": "gm", "s": [1], "mu": [1], "d": [1]},
        "signal_density": {"kind": "rational", "numerator": [1.0, 0.4],
                           "denominator": [1.0, -0.5], "scale": 1.0},
        "noise_density": {"kind": "constant", "matrix": [[0.5]]},
        "functional": {"type": "vector", "a": [[1.0], [0.7]]},
        "grid": 1024,
        "seed": 7,
    },
    "oracle": {"schedule": [1, 5, 10, 50], "tolerance": 0.02},
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def _raising(error):
    """A stand-in for a library call that raises ``error``."""
    def fail(*args, **kwargs):
        raise error("the solve failed")
    return fail


class TestInterpolate:
    def test_writes_solution_and_csv(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(["interpolate", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 0
        data = json.loads((tmp_path / "solution.json").read_text())
        assert data["kind"] == "interpolation_solution"
        assert data["delta"] > 0
        csv_lines = (tmp_path / "spectral_characteristic.csv").read_text().splitlines()
        assert csv_lines[0] == "lambda,h0_re,h0_im"
        assert len(csv_lines) == 1 + 1024

    def test_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        main(["interpolate", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
        data = json.loads((tmp_path / "solution.json").read_text())
        parsed = solution_from_dict(data)
        assert parsed["increment"].s == (1,)
        assert parsed["functional"].N == 1
        assert parsed["c"].shape == (3, 1)
        assert parsed["delta"] == data["delta"]

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["interpolate", "--config", str(cfg), "--output-dir", str(out1), "--quiet"])
        main(["interpolate", "--config", str(cfg), "--output-dir", str(out2), "--quiet"])
        assert (out1 / "solution.json").read_bytes() == (out2 / "solution.json").read_bytes()
        assert (out1 / "spectral_characteristic.csv").read_bytes() == \
            (out2 / "spectral_characteristic.csv").read_bytes()


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, capsys):
        bad = dict(BASE_CONFIG, schema_version=1)
        bad = json.loads(json.dumps(bad))
        bad["problem"]["grid"] = 1000  # not a power of two
        cfg = write_config(tmp_path, bad)
        code = main(["interpolate", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 2
        envelope = json.loads(capsys.readouterr().err.strip())
        assert envelope["code"] == "validation_error"
        assert "grid" in envelope["message"]

    def test_missing_config_is_2(self, tmp_path):
        code = main(["interpolate", "--config", str(tmp_path / "nope.json"),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 2

    def test_numerical_error_is_3(self, tmp_path, capsys):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["problem"]["signal_density"] = {"kind": "zero", "dim": 1}
        bad["problem"]["noise_density"] = {"kind": "zero", "dim": 1}
        cfg = write_config(tmp_path, bad)
        code = main(["interpolate", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 3
        envelope = json.loads(capsys.readouterr().err.strip())
        assert "singular" in envelope["message"]

    def test_linalg_error_is_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(classical, "solve_system", _raising(np.linalg.LinAlgError))
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(["interpolate", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # the envelope alone, no traceback
        assert json.loads(err) == {"code": "numerical_error",
                                   "message": "LinAlgError: the solve failed"}

    def test_value_error_is_not_a_numerical_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(classical, "solve_system", _raising(ValueError))
        cfg = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(ValueError, match="the solve failed"):
            main(["interpolate", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])

    def test_minimax_missing_class_parameter_is_2(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "minimax.json").read_text())
        del config["minimax"]["f_class"]["f1"]
        cfg = write_config(tmp_path, config)
        code = main(["minimax", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 2
        envelope = json.loads(capsys.readouterr().err.strip())
        assert envelope["code"] == "validation_error"
        assert "f1" in envelope["message"]

    def test_oracle_without_signal_density_is_2(self, tmp_path, capsys):
        code = main(["oracle-verify", "--config", str(CONFIGS / "minimax.json"),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 2
        envelope = json.loads(capsys.readouterr().err.strip())
        assert envelope["code"] == "validation_error"
        assert "signal_density" in envelope["message"]

    def test_verification_failure_is_4(self, tmp_path, capsys):
        strict = json.loads(json.dumps(BASE_CONFIG))
        strict["oracle"] = {"schedule": [1], "tolerance": 1e-9}
        cfg = write_config(tmp_path, strict)
        code = main(["oracle-verify", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 4
        envelope = json.loads(capsys.readouterr().err.strip())
        assert envelope["code"] == "verification_failure"

    def test_oracle_pass_is_0(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = main(["oracle-verify", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 0
        table = json.loads((tmp_path / "convergence.json").read_text())
        assert table["pass"] is True
        assert [row["L"] for row in table["rows"]] == [1, 5, 10, 50]

    def test_fractional_increment_without_integer_part_is_2(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["problem"]["increment"] = {"type": "fm", "R0": 0, "D0": 0.2, "factors": []}
        cfg = write_config(tmp_path, config)
        code = main(["interpolate", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
        assert code == 2
        envelope = json.loads(capsys.readouterr().err.strip())
        assert envelope["code"] == "validation_error"
        assert "integer-order part" in envelope["message"]


def test_oracle_builds_the_problem_once(tmp_path, monkeypatch):
    import gmi.classical
    import gmi.oracle  # noqa: F401  (loaded, so that its names are counted too)
    import gmi.spectra

    calls = {name: count_calls(monkeypatch, owner, name) for owner, name in (
        (gmi.classical, "transform_b"), (gmi.spectra, "_chi_beta"),
        (gmi.classical, "_row_polynomial"))}
    code = main(["oracle-verify", "--config", str(CONFIGS / "interpolate.json"),
                 "--output-dir", str(tmp_path), "--quiet"])
    assert code == 0
    # symbols: the problem and the minimality check's refined grid;
    # row polynomials: A, B and the solved c
    assert {name: len(c) for name, c in calls.items()} == \
        {"transform_b": 1, "_chi_beta": 2, "_row_polynomial": 3}


@pytest.mark.parametrize("config", ["interpolate.json", "periodic.json"])
def test_oracle_verify_is_byte_identical_across_runs(tmp_path, config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["oracle-verify", "--config", str(CONFIGS / config),
                     "--output-dir", str(out), "--quiet"]) == 0
    for name in ("convergence.json", "convergence.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_minimax_is_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["minimax", "--config", str(CONFIGS / "minimax.json"),
                     "--output-dir", str(out), "--quiet"]) == 0
    for name in ("minimax.json", "least_favorable_signal.csv", "least_favorable_noise.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_minimax_without_saddle_samples_says_not_checked(tmp_path, capsys):
    config = json.loads((CONFIGS / "minimax.json").read_text())
    config["minimax"]["saddle_samples"] = 0
    assert main(["minimax", "--config", str(write_config(tmp_path, config)),
                 "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" saddle=not checked")
    report = json.loads((tmp_path / "minimax.json").read_text())["saddle_report"]
    assert report == {"n_samples": 0, "pass": False}


def _fm_signal_without_spec(config):
    config["problem"]["signal_density"] = {"kind": "fm",
                                           "base": {"kind": "constant", "matrix": [[1.0]]}}


def _float_grid(config):
    config["problem"]["grid"] = 1024.0


def _subnormal_error(config):
    """Weights whose squares are normal, on densities times 2^-40: the error is subnormal."""
    problem = config["problem"]
    problem["functional"]["a"] = [[1e-150], [5e-151], [2.5e-151]]
    problem["signal_density"]["scale"] = 2.0 ** -40
    problem["noise_density"]["matrix"] = [[0.5 * 2.0 ** -40]]


def _setting(*path):
    """An edit that sets the value path[-1] at the key path path[:-1]."""
    *keys, last, value = path

    def edit(config):
        for key in keys:
            config = config[key]
        config[last] = value

    return edit


# (command, shipped config, edit, name the message must contain)
BAD_CONFIGS = {
    "matrix_ma_without_coefficients": (
        "interpolate", "periodic",
        lambda c: c["problem"]["signal_density"].pop("coefficients"), "coefficients"),
    "periodic_functional_without_M": (
        "interpolate", "periodic", lambda c: c["problem"]["functional"].pop("M"), "'M'"),
    "gm_increment_without_d": (
        "coeffs", "coeffs", lambda c: c["problem"]["increment"].pop("d"), "'d'"),
    "vector_functional_without_a": (
        "interpolate", "interpolate", lambda c: c["problem"]["functional"].pop("a"), "'a'"),
    "fm_density_without_spec": ("interpolate", "interpolate", _fm_signal_without_spec, "spec"),
    "float_grid": ("interpolate", "interpolate", _float_grid, "grid"),
    "string_weights": (
        "interpolate", "interpolate", _setting("problem", "functional", "a", "foo"),
        "functional.a"),
    "string_numerator": (
        "interpolate", "interpolate", _setting("problem", "signal_density", "numerator", "x"),
        "signal_density.numerator"),
    "string_scale": (
        "interpolate", "interpolate", _setting("problem", "signal_density", "scale", "x"),
        "signal_density.scale"),
    "string_matrix": (
        "interpolate", "interpolate", _setting("problem", "noise_density", "matrix", "x"),
        "noise_density.matrix"),
    "scalar_periods": ("interpolate", "interpolate", _setting("problem", "increment", "s", 2),
                       "increment.s"),
    "fractional_period": (
        "interpolate", "interpolate", _setting("problem", "increment", "s", [2.5]),
        "increment.s"),
    "string_period_count": (
        "interpolate", "periodic", _setting("problem", "functional", "T", "2"), "functional.T"),
    "empty_schedule": ("oracle-verify", "interpolate", _setting("oracle", "schedule", []),
                       "oracle.schedule"),
    "string_schedule": ("oracle-verify", "interpolate", _setting("oracle", "schedule", "x"),
                        "oracle.schedule"),
    "string_tolerance": ("oracle-verify", "interpolate", _setting("oracle", "tolerance", "x"),
                         "oracle.tolerance"),
    "nan_tolerance": ("oracle-verify", "interpolate",
                      _setting("oracle", "tolerance", float("nan")), "oracle.tolerance"),
    "negative_tolerance": ("oracle-verify", "interpolate", _setting("oracle", "tolerance", -1),
                           "oracle.tolerance"),
    **{f"zero_weights_oracle_{name}": (
        "oracle-verify", name, lambda c: c["problem"]["functional"].update(
            a=np.zeros_like(c["problem"]["functional"]["a"]).tolist()),
        "problem.functional.a") for name in ("interpolate", "periodic")},
    "empty_coefficients": (
        "interpolate", "periodic", _setting("problem", "signal_density", "coefficients", []),
        "signal_density.coefficients"),
    "null_tol": ("minimax", "minimax", _setting("minimax", "tol", None), "minimax.tol"),
    "negative_tol": ("minimax", "minimax", _setting("minimax", "tol", -1), "minimax.tol"),
    "string_max_iter": ("minimax", "minimax", _setting("minimax", "max_iter", "x"),
                        "minimax.max_iter"),
    "negative_saddle_samples": (
        "minimax", "minimax", _setting("minimax", "saddle_samples", -3),
        "minimax.saddle_samples"),
    "number_f1": ("minimax", "minimax", _setting("minimax", "f_class", "f1", 3), "f_class.f1"),
    "string_delta_k": ("minimax", "minimax", _setting("minimax", "f_class", "delta_k", "x"),
                       "f_class.delta_k"),
    "string_q": ("minimax", "minimax", _setting("minimax", "g_class", "q", "x"), "g_class.q"),
    "string_factors": ("classify", "classify", _setting("problem", "increment", "factors", "x"),
                       "increment.factors"),
    "string_R0": ("classify", "classify", _setting("problem", "increment", "R0", "x"),
                  "increment.R0"),
    "string_coeffs_length": ("coeffs", "coeffs", _setting("coeffs", "length", "x"),
                             "coeffs.length"),
    "constant_density_without_matrix": (
        "interpolate", "interpolate", lambda c: c["problem"]["noise_density"].pop("matrix"),
        "'matrix'"),
    "infinite_noise": (
        "interpolate", "interpolate",
        _setting("problem", "noise_density", "matrix", [[float("inf")]]), "noise_density"),
    "overflowing_scale": (
        "interpolate", "interpolate", _setting("problem", "signal_density", "scale", 1e308),
        "signal_density"),
    "zero_period": ("interpolate", "interpolate", _setting("problem", "increment", "s", [0]),
                    "problem.increment"),
    "unequal_increment_lengths": (
        "interpolate", "interpolate", _setting("problem", "increment", "mu", [1, 1]),
        "problem.increment"),
    "zero_periodic_T": ("interpolate", "periodic", _setting("problem", "functional", "T", 0),
                        "problem.functional"),
    "matrix_f1": ("minimax", "minimax", _setting("minimax", "f_class", "f1", {
        "kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}), "f_class.f1"),
    "matrix_U": ("minimax", "minimax", _setting("minimax", "g_class", "U", {
        "kind": "constant", "matrix": [[0.6, 0.0], [0.0, 0.6]]}), "g_class.U"),
    "negative_P": ("minimax", "minimax",
                   _setting("minimax", "f_class", {"kind": "D0_1", "P": [[-1.0]]}), "f_class.P"),
    "eps_above_one": ("minimax", "minimax", _setting("minimax", "g_class", {
        "kind": "Deps_1", "g1": {"kind": "constant", "matrix": [[0.4]]}, "eps": 2.0, "q": 0.5}),
        "g_class.eps"),
    "overflowing_class_budget": ("minimax", "minimax",
                                 _setting("minimax", "f_class", "delta_k", [1e308]),
                                 "f_class.delta_k"),
    "overflowing_hermitian_part": (
        "interpolate", "interpolate", _setting("problem", "signal_density", {
            "kind": "constant", "matrix": [[1e308, 0.0], [0.0, -1e308]]}),
        "problem.signal_density"),
    "extremal_overflow_minimax_1e+152": (
        "minimax", "minimax", _setting("problem", "functional", "a", [[1e152]]),
        "problem.functional.a"),
    "overflowing_functional": ("interpolate", "interpolate",
                               _setting("problem", "functional", "a", [[1e308]] * 3),
                               "problem.functional.a"),
    **{f"energy_overflow_{command}_{a:.0e}": (
        command, command, _setting("problem", "functional", "a", [[a]] * rows),
        "problem.functional.a")
       for command, rows, sizes in (("minimax", 1, (1e154, 1e200, 1e308)),
                                    ("interpolate", 3, (1e154, 1e200)))
       for a in sizes},
    **{f"energy_underflow_{command}_{a:.0e}": (
        command, name, _setting("problem", "functional", "a", [[a]] * rows),
        "problem.functional.a")
       for command, name, rows in (("interpolate", "interpolate", 3),
                                   ("oracle-verify", "interpolate", 3), ("minimax", "minimax", 1))
       for a in (1e-160, 1e-200)},
    **{f"energy_underflow_{command}_subnormal_error": (
        command, "interpolate", _subnormal_error, "problem.functional.a")
       for command in ("interpolate", "oracle-verify")},
}


#: the oracle table of configs/interpolate.json with signal_density.scale 1e200, as
#: written before its Gram corner was formed without an overflow warning
HUGE_SCALE_TABLE = [1.4076477484348978e+199, 1.2204099011787396e+199, 1.218951414733805e+199,
                    1.2188859587591473e+199, 1.2188856450548215e+199, 1.2188856061767036e+199]


def test_oracle_on_huge_densities_warns_nothing(tmp_path, capsys):
    config = json.loads((CONFIGS / "interpolate.json").read_text())
    config["problem"]["signal_density"]["scale"] = 1e200
    cfg = write_config(tmp_path, config)
    code = main(["oracle-verify", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert (code, capsys.readouterr().err) == (0, "")
    rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
    assert [row["delta_L"] for row in rows] == HUGE_SCALE_TABLE


@pytest.mark.parametrize("command", ["interpolate", "minimax"])
def test_weights_of_1e150_still_run(command, tmp_path, capsys):
    config = json.loads((CONFIGS / f"{command}.json").read_text())
    rows = len(config["problem"]["functional"]["a"])
    config["problem"]["functional"]["a"] = [[1e150]] * rows
    code = main([command, "--config", str(write_config(tmp_path, config)),
                 "--output-dir", str(tmp_path), "--quiet"])
    assert (code, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_validation_error(case, tmp_path, capsys):
    command, name, edit, key = BAD_CONFIGS[case]
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    edit(config)
    cfg = write_config(tmp_path, config)
    code = main([command, "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert code == 2
    envelope = json.loads(capsys.readouterr().err.strip())
    assert envelope["code"] == "validation_error"
    assert key in envelope["message"]
    assert [path.name for path in tmp_path.iterdir()] == [cfg.name]  # no artifact written


def _python(tmp_path, *args: str, **env_vars: str | None) -> str:
    """The stdout of ``python *args`` run on ``src`` in a fresh interpreter.

    A keyword sets (a string) or unsets (None) an environment variable.
    """
    env = dict(os.environ)
    for key, value in env_vars.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    return done.stdout


#: the gmi modules, and numpy if it is loaded, of a command on a config (command, config name)
BASE_MODULES = {"gmi", "gmi.cli", "gmi.errors", "gmi.increments", "gmi.io"}
SOLVER_MODULES = BASE_MODULES | {"numpy", "gmi.classical", "gmi.spectra", "gmi._floatfmt"}
COMMAND_MODULES = {
    ("classify", "classify"): BASE_MODULES,
    ("coeffs", "coeffs"): BASE_MODULES,
    ("coeffs", "classify"): BASE_MODULES | {"numpy"},  # np.convolve of the fractional series
    ("interpolate", "interpolate"): SOLVER_MODULES,
    ("oracle-verify", "interpolate"): SOLVER_MODULES | {"gmi.oracle"},
    ("minimax", "minimax"): SOLVER_MODULES | {"gmi.minimax"},
}


def test_commands_do_not_import_jsonschema(tmp_path):
    for (command, name), expected in COMMAND_MODULES.items():
        script = (
            "import sys\n"
            "from gmi.cli import main\n"
            f"code = main([{command!r}, '--config', {str(CONFIGS / f'{name}.json')!r},\n"
            f"             '--output-dir', {str(tmp_path)!r}, '--quiet'])\n"
            "assert code == 0, code\n"
            "assert 'jsonschema' not in sys.modules\n"
            "print(' '.join(sorted(m for m in sys.modules\n"
            "                      if m.split('.')[0] == 'gmi' or m == 'numpy')))\n"
        )
        assert set(_python(tmp_path, "-c", script).split()) == expected, (command, name)


def test_classify_coeffs_and_help_do_not_load_numpy(tmp_path):
    """classify on every shipped config, coeffs on the GM ones and --help, in one process."""
    shipped = ("interpolate", "periodic", "minimax", "classify", "coeffs")
    runs = [[command, "--config", str(CONFIGS / f"{name}.json"), "--output-dir", str(tmp_path),
             "--quiet"] for command in ("classify", "coeffs") for name in shipped
            if (command, name) != ("coeffs", "classify")] + [["--help"]]
    script = (
        "import contextlib, sys\n"
        "from gmi.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(sys.stderr):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(argv[0], code, 'numpy' in sys.modules)\n"
    )
    codes = [2, 2, 2, 0, 2] + [0] * 4 + [0]  # classify refuses a GM increment
    expected = [f"{argv[0]} {code} False" for argv, code in zip(runs, codes)]
    assert _python(tmp_path, "-c", script).splitlines() == expected


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: a sitecustomize that prints the thread variables as numpy is first imported
THREAD_SPY = f"""\
import os
import sys


class Spy:
    seen = False

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not Spy.seen:
            Spy.seen = True
            print(*(f"{{var}}={{os.environ.get(var)}}" for var in {THREAD_VARS!r}))


sys.meta_path.insert(0, Spy())
"""


@pytest.mark.parametrize("preset", [None, "5"])
@pytest.mark.parametrize("launch", ["main", "-m"])
def test_gmi_threads_is_applied_before_numpy_loads(tmp_path, launch, preset):
    """With GMI_THREADS=3, numpy first loads with each unset thread variable at 3."""
    (tmp_path / "spy").mkdir()
    (tmp_path / "spy" / "sitecustomize.py").write_text(THREAD_SPY)
    # coeffs on a fractional increment is the lightest run that loads numpy
    argv = ["coeffs", "--config", str(CONFIGS / "classify.json"), "--output-dir", str(tmp_path),
            "--quiet"]
    args = ["-c", f"import sys\nfrom gmi.cli import main\nsys.exit(main({argv!r}))"] \
        if launch == "main" else ["-m", "gmi.cli", *argv]
    spy_path = os.pathsep.join([str(tmp_path / "spy"), os.environ.get("PYTHONPATH", "")])
    env = {var: None for var in THREAD_VARS}
    env.update(GMI_THREADS="3", OMP_NUM_THREADS=preset, PYTHONPATH=spy_path)
    expected = {var: "3" for var in THREAD_VARS}
    expected["OMP_NUM_THREADS"] = preset or "3"
    assert _python(tmp_path, *args, **env).split() == [f"{k}={v}" for k, v in expected.items()]


class TestClassify:
    def test_example_conditions(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "problem": {"increment": {
                "type": "fm", "R0": 1, "D0": 0.2,
                "factors": [{"s": 2, "R": 0, "D": 0.2}]}},
        })
        code = main(["classify", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "classification.json").read_text())
        conds = {c["condition"]: c["satisfied"] for c in report["conditions"]}
        assert conds == {"|D0+D1| < 1/2": True, "|D1| < 1/2": True}
        assert report["stationary"] and report["long_memory"]


class TestCoeffs:
    def test_expansion_dump(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "problem": {"increment": {"type": "gm", "s": [2, 3],
                                      "mu": [1, 1], "d": [1, 1]}},
            "coeffs": {"length": 7},
        })
        code = main(["coeffs", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 0
        dump = json.loads((tmp_path / "coefficients.json").read_text())
        assert dump["expansion"] == [1, 0, -1, -1, 0, 1]
        assert dump["inverse_series"] == [1, 0, 1, 1, 1, 1, 2, 1]

    def test_fractional_dump(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "problem": {"increment": {
                "type": "fm", "R0": 0, "D0": 0.3, "factors": []}},
            "coeffs": {"length": 4},
        })
        code = main(["coeffs", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 0
        dump = json.loads((tmp_path / "coefficients.json").read_text())
        assert dump["series_minus"][1] == pytest.approx(-0.3)
        assert dump["series_plus"][1] == pytest.approx(0.3)

    def test_fractional_dump_with_integer_part(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "problem": {"increment": {
                "type": "fm", "R0": 1, "D0": 0.2, "factors": [{"s": 2, "R": 1, "D": 0.1}]}},
            "coeffs": {"length": 4},
        })
        code = main(["coeffs", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 0
        dump = json.loads((tmp_path / "coefficients.json").read_text())
        # (1 - B)(1 - B^2) and its inverse series
        assert dump["expansion"] == [1, -1, -1, 1]
        assert dump["inverse_series"] == [1, 1, 2, 2, 3]


class TestCanonicalJson:
    def test_float_formatting_round_trips(self):
        values = [0.1, 1 / 3, 1e-17, 123456.789, np.pi]
        text = canonical_json({"x": values})
        parsed = json.loads(text)
        assert parsed["x"] == values

    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_complex_arrays(self):
        arr = np.array([[1 + 2j, 3 - 4j]])
        again = parse_complex_array(complex_array(arr))
        assert np.array_equal(arr, again)


class TestMinimaxCommand:
    def test_runs_and_reports(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "problem": {
                "increment": {"type": "gm", "s": [1], "mu": [1], "d": [1]},
                "functional": {"type": "vector", "a": [[1.0]]},
                "grid": 1024,
                "seed": 3,
            },
            "minimax": {"f_class": {"kind": "D0_2", "p": 1.5},
                        "g_class": {"kind": "zero"},
                        "saddle_samples": 10},
        })
        code = main(["minimax", "--config", str(cfg),
                     "--output-dir", str(tmp_path), "--quiet"])
        assert code == 0
        result = json.loads((tmp_path / "minimax.json").read_text())
        assert result["converged"] is True
        assert result["delta0"] == pytest.approx(1.5, abs=1e-3)
        assert len(result["f0"]) == 1024
        from readback import minimax_result_from_dict

        parsed = minimax_result_from_dict(result)
        assert parsed["f0"].shape == (1024, 1, 1)
        assert np.all(parsed["f0"].real >= 0)
        signal_csv = (tmp_path / "least_favorable_signal.csv").read_text().splitlines()
        assert signal_csv[0] == "lambda,f00_re,f00_im"
        assert len(signal_csv) == 1 + 1024
