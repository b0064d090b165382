#!/usr/bin/env python3
"""Check that this checkout gives the same outputs as another, byte for byte.

Usage: python scripts/same_outputs.py PARENT_DIR

Runs every ``gmi`` command (interpolate, oracle-verify, minimax, classify,
coeffs) on every config in this checkout's ``configs/``, then
``scripts/minimax_study.py``, then the six ``classical-large`` operations of
this checkout's ``perfbench/workloads.py`` at seeds 107 and 311, each of
which writes its ``solution.json`` and ``spectral_characteristic.csv`` (no
shipped config reaches their T = 4 grid, where the solve's kernels are
transformed in passes).  Every run goes once from PARENT_DIR and once from
this checkout.  Each side runs in a fresh interpreter with its own ``src``
first on PYTHONPATH, in its own empty working directory, and both sides read
the same config files and workload definitions.  The exit code, stdout,
stderr and every file a run writes are compared; each difference is printed,
and the exit status is 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("interpolate", "oracle-verify", "minimax", "classify", "coeffs")
STUDY = "scripts/minimax_study.py"
SEEDS = (107, 311)
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable] + [a.format(checkout=checkout) for a in args],
                          cwd=work, env=env, capture_output=True, timeout=600)
    result = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
              "stderr": done.stderr}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        result[f"file {path.relative_to(work)}"] = path.read_bytes()
    return result


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """What differs between two outcomes of one run, one line each."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in change:
            lines.append(f"{key}: only in the parent")
        elif key not in parent:
            lines.append(f"{key}: only in the change")
        elif parent[key] != change[key]:
            lines.append(f"{key}: differs ({len(parent[key])} and {len(change[key])} bytes)")
    return lines


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
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
