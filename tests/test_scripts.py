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


def test_same_outputs_names_each_difference():
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    parent = {"exit code": b"0", "stdout": b"delta=1\n", "file out/a.csv": b"1\n"}
    assert same_outputs.differences(parent, dict(parent)) == []
    change = {"exit code": b"0", "stdout": b"delta=2\n", "file out/b.csv": b"1\n"}
    assert same_outputs.differences(parent, change) == [
        "file out/a.csv: only in the parent", "file out/b.csv: only in the change",
        "stdout: differs (8 and 8 bytes)"]
    configs = [ROOT / "configs" / name for name in ("a.json", "b.json")]
    assert len(same_outputs.runs(configs)) == 2 * len(same_outputs.COMMANDS) + 1
