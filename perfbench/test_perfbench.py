"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

A smoke run of every workload at the tiny size, untraced and traced, must
print every metric of BENCHMARK.json with its unit; and every correctness
check must pass on the right value and fail on a perturbed one.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: known-fault operations per round, and the round size, per workload
FAULT_SHARE = {"classical-large": (0, 6), "minimax-classes": (1, 5),
               "oracle-window": (0, 6), "cli-configs": (1, 16)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    faults, size = FAULT_SHARE[workload]
    assert result["attempted"] % size == 0
    assert result["failed"] * size == faults * result["attempted"]
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-window", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_routes_and_written_solution():
    assert checks.routes_agree(2.0, 2.0 + 1e-9) == []
    assert checks.routes_agree(2.0, 2.0 * 1.01)
    doc = {"kind": "interpolation_solution", "delta": 2.0}
    assert checks.written_solution(doc, 2.0, 1025, 1024) == []
    assert checks.written_solution(doc, 2.0 * 1.01, 1025, 1024)
    assert checks.written_solution(doc, 2.0, 1024, 1024)


def test_operator_algebra_of_the_benchmark():
    assert checks.operator_poly((1, 12), (1, 1), (1, 1)) == \
        [1, -1] + [0] * 10 + [-1, 1]
    e = checks.operator_poly((2, 3), (1, 1), (1, 1))
    inv = checks.series_inverse(e, 20)
    assert np.convolve(e, inv)[:21].tolist() == [1] + [0] * 20


def test_whitened_closed_form():
    b = checks.differenced_weights((1,), (1,), (1,), np.array([[1.0], [0.5]]))
    assert b[:, 0].tolist() == [1.5, 0.5]
    delta = float(np.sum(b ** 2))
    assert checks.whitened(delta, b) == []
    assert checks.whitened(delta * 1.01, b)


def test_grid_pair_and_lift():
    assert checks.grid_pair(1.0, 1.001) == []
    assert checks.grid_pair(1.0, 1.01)
    assert checks.lift_matches(3.0, 3.0) == []
    assert checks.lift_matches(3.0 * 1.01, 3.0)
    assert checks.hand_blocked(np.arange(5.0), 2).tolist() == [[0, 1], [2, 3], [4, 0]]


def test_oracle_rows():
    rows = [(1, 1.5), (5, 1.2), (10, 1.01), (50, 1.001)]
    assert checks.oracle_rows(rows, 1.0) == []
    assert checks.oracle_rows(rows, 1.0 * 0.97)           # final gap above 2%
    assert checks.oracle_rows(rows, 1.0 * 1.01)           # window error below delta
    rising = rows[:-1] + [(50, 1.01 * 1.01)]
    assert checks.oracle_rows(rising, 1.0)


def test_minimax_checks():
    assert checks.budget_zero(1.5, 1.5, 1.0) == []
    assert checks.budget_zero(1.5 * 1.01, 1.5, 1.0)
    assert checks.above_admissible(0.94, 0.9375) == []
    assert checks.above_admissible(0.9375 / 1.01, 0.9375)
    assert checks.certificate(True, 1e-4) == []
    assert checks.certificate(False, 3.3) == []
    assert checks.certificate(True, 3.3)


def test_cli_checks():
    assert checks.exit_code(2, 2) == []
    assert checks.exit_code(3, 2)
    assert checks.identical({"a": "1"}, {"a": "1"}) == []
    assert checks.identical({"a": "1"}, {"a": "2"})
    e = checks.operator_poly((2, 3), (1, 1), (1, 1))
    doc = {"length": 16, "expansion": e, "inverse_series": checks.series_inverse(e, 16)}
    assert checks.coeffs_identity(doc) == []
    doc["inverse_series"] = doc["inverse_series"][:5] + [doc["inverse_series"][5] + 1] + \
        doc["inverse_series"][6:]
    assert checks.coeffs_identity(doc)


def test_classify_conditions():
    increment = {"type": "fm", "R0": 1, "D0": 0.1, "factors": [{"s": 2, "R": 1, "D": 0.1}]}
    expect = checks.expected_conditions(increment)
    assert expect == {"|D0+D1| < 1/2": True, "|D1| < 1/2": True}
    doc = {"stationary": True,
           "conditions": [{"condition": c, "satisfied": ok} for c, ok in expect.items()]}
    assert checks.classify_matches(doc, increment) == []
    doc["conditions"][0]["satisfied"] = False
    assert checks.classify_matches(doc, increment)
    three = {"type": "fm", "R0": 0, "D0": 0.0,
             "factors": [{"s": 2, "R": 1, "D": 0.1}, {"s": 3, "R": 0, "D": 0.1}]}
    assert set(checks.expected_conditions(three)) == {"|D1+D2| < 1/2", "|D2| < 1/2",
                                                       "|D1| < 1/2"}
