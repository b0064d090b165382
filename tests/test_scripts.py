"""The demo scripts run end to end, and the output-identity script names what differs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["interpolation_demo.py", "minimax_study.py"])
def test_script_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    return same_outputs


def test_same_outputs_names_each_difference():
    same_outputs = _same_outputs()
    parent = {"exit code": b"0", "stdout": b"delta=1\n", "file out/a.csv": b"1\n"}
    assert same_outputs.differences(parent, dict(parent)) == []
    change = {"exit code": b"0", "stdout": b"delta=2\n", "file out/b.csv": b"1\n"}
    assert same_outputs.differences(parent, change) == [
        "file out/a.csv: only in the parent", "file out/b.csv: only in the change",
        "stdout: differs (8 and 8 bytes)"]
    # a JSON or CSV file of one shape on both sides: its largest number differences and keys
    parent = {"file minimax.json": b'{"h0":[[1.0,2.0]],"n":3,"report":{"gap":0.5,"pass":true}}',
              "file h.csv": b"lambda,h0_re,h0_im\n0.5,1,-4\n1.5,2,8\n"}
    change = {"file minimax.json": b'{"h0":[[1.0,2.5]],"n":3,"report":{"gap":0.5,"pass":false}}',
              "file h.csv": b"lambda,h0_re,h0_im\n0.5,1,-4\n1.5,2,6\n"}
    assert same_outputs.differences(parent, change) == [
        "file h.csv: differs (36 and 36 bytes); numbers differ by up to 2 absolute, "
        "0.25 relative; columns h0_im",
        "file minimax.json: differs (57 and 58 bytes); numbers differ by up to 0.5 absolute, "
        "0.2 relative; keys h0, report.pass"]
    # a change of shape, or a file that does not parse, keeps the plain line
    change = {"file minimax.json": b'{"h0":[[1.0]],"n":3,"report":{"gap":0.5,"pass":true}}',
              "file h.csv": b"\xff"}
    assert same_outputs.differences(parent, change) == [
        "file h.csv: differs (36 and 1 bytes)", "file minimax.json: differs (57 and 53 bytes)"]
    configs = [ROOT / "configs" / name for name in ("a.json", "b.json")]
    assert len(same_outputs.runs(configs)) == (2 * len(same_outputs.COMMANDS) + 1
                                               + 2 * len(same_outputs.SEEDS))


def test_same_outputs_caps_the_blas_threads_of_every_run(tmp_path, monkeypatch):
    same_outputs = _same_outputs()
    for var in same_outputs.THREAD_VARS:
        monkeypatch.setenv(var, "2")
    show = "import os; print([os.environ.get(v) for v in ('GMI_THREADS', 'OMP_NUM_THREADS', " \
           "'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')])"
    result = same_outputs.outcome(ROOT, ["-c", show], tmp_path / "run")
    assert result["stdout"] == b"['1', '1', '1', '1']\n"


def test_same_outputs_runs_every_classical_large_operation(tmp_path):
    same_outputs = _same_outputs()
    todo = same_outputs.runs([])
    assert [name for name in todo if name.startswith("classical-large")] == [
        "classical-large seed 107", "classical-large seed 311"]
    result = same_outputs.outcome(ROOT, todo["classical-large seed 107"], tmp_path / "run")
    assert result["exit code"] == b"0", result["stderr"].decode()
    operations = ["T2-lifted-g15", "T4-lifted-g15", "fm-long-g15", "s12-long-g15",
                  "s12-long-g16", "s1x12-whitened-g17"]
    assert sorted(key for key in result if key.startswith("file ")) == sorted(
        f"file {op}/{name}" for op in operations
        for name in ("solution.json", "spectral_characteristic.csv"))


def test_same_outputs_runs_every_minimax_classes_operation(tmp_path):
    same_outputs = _same_outputs()
    todo = same_outputs.runs([])
    assert [name for name in todo if name.startswith("minimax-classes")] == [
        "minimax-classes seed 107", "minimax-classes seed 311"]
    result = same_outputs.outcome(ROOT, todo["minimax-classes seed 107"], tmp_path / "run")
    assert result["exit code"] == b"0", result["stderr"].decode()
    lines = result["stdout"].decode().splitlines()
    assert [line.split()[0] for line in lines] == [
        "ball-box-N0", "budget-zero", "budget-eps", "ball-box-N2", "T2-budget-zero"]
    for line in lines:  # delta0, converged and the gap in full, then the saddle report
        _, delta0, converged, gap, report = line.split(" ", 4)
        assert repr(float(delta0)) == delta0 and converged in ("True", "False")
        assert repr(float(gap)) == gap and report.startswith("{'n_samples': 100, ")
