#!/usr/bin/env python3
"""Check that this checkout gives the same outputs as another, byte for byte.

Usage: python scripts/same_outputs.py PARENT_DIR

Runs every ``gmi`` command (interpolate, oracle-verify, minimax, classify,
coeffs) on every config in this checkout's ``configs/``, then
``scripts/minimax_study.py``, then the six ``classical-large`` operations of
this checkout's ``perfbench/workloads.py`` at seeds 107 and 311, each of
which writes its ``solution.json`` and ``spectral_characteristic.csv`` (no
shipped config reaches their grids, where the solve's stacks span several
node blocks).  Every run goes once from PARENT_DIR and once from this
checkout.  Each side runs in a fresh interpreter with its own ``src`` first
on PYTHONPATH and the BLAS threads capped at one (THREAD_VARS, as
``perfbench/run.py`` caps them, so no artifact depends on the caller's
setting), in its own empty working directory, and both sides read the
same config files and workload definitions.  The exit code, stdout,
stderr and every file a run writes are compared; each difference is printed,
and the exit status is 1 if there is any, 0 otherwise.  A ``.json`` or
``.csv`` file that differs but parses to the same shape on both sides also
gets the largest absolute and relative difference among its numbers, and
the keys that differ: dotted object keys for JSON (a list adds no key),
header names for CSV.  After the summary
line comes the line count of ``src/gmi`` in both checkouts and its change,
which does not affect the exit status.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("interpolate", "oracle-verify", "minimax", "classify", "coeffs")
STUDY = "scripts/minimax_study.py"
SEEDS = (107, 311)
THREAD_VARS = ("GMI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# argv: the perfbench directory and a seed; one directory of artifacts per operation
CLASSICAL_LARGE = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
for op in workloads.ClassicalLarge(Path(), int(sys.argv[2]), tiny=False)._build(shrink=0):
    Path(op.name).mkdir()
    op.run(Path(op.name))
"""


def runs(configs: list[Path]) -> dict[str, list[str]]:
    """The argument list of each run after the interpreter, by name; ``{checkout}``
    stands for the checkout that runs it."""
    out = {f"{command} {config.name}": ["-m", "gmi.cli", command, "--config", str(config),
                                        "--output-dir", "out"]
           for command in COMMANDS for config in configs}
    out[STUDY] = [f"{{checkout}}/{STUDY}"]
    for seed in SEEDS:
        out[f"classical-large seed {seed}"] = ["-c", CLASSICAL_LARGE, str(ROOT / "perfbench"),
                                               str(seed)]
    return out


def outcome(checkout: Path, args: list[str], work: Path) -> dict[str, bytes]:
    """Exit code, stdout, stderr and the bytes of every file written, of one run in work."""
    work.mkdir(parents=True)
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable] + [a.format(checkout=checkout) for a in args],
                          cwd=work, env=env, capture_output=True, timeout=600)
    result = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
              "stderr": done.stderr}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        result[f"file {path.relative_to(work)}"] = path.read_bytes()
    return result


def leaves(name: str, data: bytes) -> list | None:
    """(position, key, value) of every value of a JSON or CSV file, in order, or None if
    the file is neither or does not parse.  A CSV cell that reads as a number is one."""
    try:
        if name.endswith(".json"):
            out = []

            def walk(obj, position, key):
                if isinstance(obj, dict):
                    for k, value in obj.items():
                        walk(value, position + (k,), key + (k,))
                elif isinstance(obj, list):
                    for i, value in enumerate(obj):
                        walk(value, position + (i,), key)
                else:
                    out.append((position, ".".join(key), obj))

            walk(json.loads(data), (), ())
            return out
        if name.endswith(".csv"):
            rows = list(csv.reader(io.StringIO(data.decode())))
            header = rows[0] if rows else []
            return [((i, j), header[j] if j < len(header) else str(j), _number(cell))
                    for i, row in enumerate(rows) for j, cell in enumerate(row)]
    except (UnicodeDecodeError, ValueError, csv.Error):
        return None
    return None


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def numeric_summary(name: str, parent: bytes, change: bytes) -> str:
    """How the numbers of a JSON or CSV file of the same shape on both sides differ, and
    under which keys; empty if the file is neither, does not parse, or changed shape."""
    sides = [leaves(name, data) for data in (parent, change)]
    if None in sides or [p for p, _, _ in sides[0]] != [p for p, _, _ in sides[1]]:
        return ""
    absolute = relative = 0.0
    keys = {}
    for (_, key, a), (_, _, b) in zip(*sides):
        if a != b:
            keys[key] = None
            if {type(a), type(b)} <= {int, float}:  # not bool: true and 1 are not one value
                absolute = max(absolute, abs(a - b))
                relative = max(relative, abs(a - b) / max(abs(a), abs(b)))
    label = "columns" if name.endswith(".csv") else "keys"
    return (f"; numbers differ by up to {absolute:.3g} absolute, {relative:.3g} relative; "
            f"{label} {', '.join(keys)}")


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """What differs between two outcomes of one run, one line each."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in change:
            lines.append(f"{key}: only in the parent")
        elif key not in parent:
            lines.append(f"{key}: only in the change")
        elif parent[key] != change[key]:
            lines.append(f"{key}: differs ({len(parent[key])} and {len(change[key])} bytes)"
                         + numeric_summary(key, parent[key], change[key]))
    return lines


def source_lines(checkout: Path) -> int:
    """Lines of the Python files under the checkout's ``src/gmi``."""
    return sum(len(path.read_bytes().splitlines())
               for path in (checkout / "src" / "gmi").rglob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "gmi").is_dir():
        print("usage: python scripts/same_outputs.py PARENT_DIR", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    todo = runs(sorted((ROOT / "configs").glob("*.json")))
    found = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, args) in enumerate(todo.items()):
            sides = [outcome(checkout, args, Path(tmp) / side / str(k))
                     for side, checkout in (("parent", parent), ("change", ROOT))]
            lines = differences(*sides)
            found += bool(lines)
            status = "differs" if lines else "same"
            print(f"{name}: {status} (exit {sides[1]['exit code'].decode()}, "
                  f"{sum(key.startswith('file ') for key in sides[1])} files)")
            for line in lines:
                print(f"  {line}")
    print(f"{found} of {len(todo)} runs differ")
    before, after = source_lines(parent), source_lines(ROOT)
    print(f"src/gmi lines: {before} in the parent, {after} here ({after - before:+d})")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
