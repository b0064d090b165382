#!/usr/bin/env python3
"""Benchmark of gmi: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The run sets up (imports, inputs made from the seed, warm-up)
three times and reports the median, then executes whole rounds of the
workload's operations, one at a time, until S seconds have passed, checks
every output, and prints one JSON object as the last line of standard
output.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs one untraced round and then traced rounds and reports
the per-layer metrics.  ``--size tiny`` shrinks the inputs for the
benchmark's own tests.  BLAS threads are capped at THREADS.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 1
SETUP_REPEATS = 3
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "GMI_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except Exception:  # older numpy has no dict form; the version stays unknown
        pass
    return {"threads": THREADS, "nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": blas, "python": sys.version.split()[0]}


def _run_round(wl, work: Path, tracer, op_prefix: str) -> list:
    from spans import OP

    executed = []
    for k, op in enumerate(wl.ops):
        out = work / f"{op_prefix}-{k}"
        out.mkdir()
        sid = tracer.begin(OP) if tracer is not None else None
        start = time.perf_counter()
        try:
            result = op.run(out)
        except Exception as exc:  # counted against the operation, never fatal
            result = exc
        elapsed = time.perf_counter() - start
        if sid is not None:
            tracer.end(sid)
        executed.append((op, elapsed, result))
    return executed


def _run_rounds(wl, work: Path, seconds: float, tracer, tag: str) -> list:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(_run_round(wl, work, tracer, f"{tag}{len(rounds)}"))
    return rounds


def _check(rounds: list) -> tuple[int, int, list, list]:
    attempted = failed = 0
    faults, wrong = set(), []
    for executed in rounds:
        by_name = {op.name: result for op, _, result in executed}
        for op, _, result in executed:
            attempted += 1
            if isinstance(result, Exception):
                problems = [f"raised {type(result).__name__}: {result}"]
            else:
                try:
                    problems = op.check(result, by_name)
                except Exception as exc:  # a check that cannot read the output fails it
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if not problems:
                continue
            failed += 1
            if op.known_fault:
                faults.add(f"{op.name}: {problems[0]}")
            else:
                wrong.append((op.name, problems))
    return attempted, failed, sorted(faults), wrong


def _layer_values(specs: list, tracer, traced_rounds: int, overhead: float,
                  setup_density: float) -> dict:
    from spans import OP, self_times

    per_layer = self_times(tracer.spans)
    counters = tracer.counters
    op_wall = sum(t1 - t0 for name, _, t0, t1 in tracer.spans if name == OP)

    def layer(name, field):
        return per_layer.get(name, [0, 0.0])[field]

    values = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace.overhead":
            value = overhead
        elif name == "setup.density_eval.s":
            value = setup_density
        elif name == "minimax.saddle.admissible_ratio":
            attempted = counters.get("saddle.attempted", 0.0)
            value = counters.get("saddle.admissible", 0.0) / attempted if attempted else 0.0
        elif name == "minimax.iterations":
            value = layer("minimax.line_search", 0) / traced_rounds
        elif name == "io.bytes_written":
            value = counters.get("io.bytes_written", 0.0) / traced_rounds
        elif name == "bench.op_wall.s":
            value = op_wall / traced_rounds
        elif name == "bench.untraced.s":
            value = (layer(OP, 1) + layer("cli.child", 1)) / traced_rounds
        elif name.endswith(".calls"):
            value = layer(name[: -len(".calls")], 0) / traced_rounds
        elif name.endswith(".s"):
            value = layer(name[: -len(".s")], 1) / traced_rounds
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
        values[name] = {"value": float(value), "unit": spec["unit"]}

    reported = {s["name"][: -len(".s")] for s in specs if s["name"].endswith(".s")}
    missing = set(per_layer) - reported - {OP, "cli.child"}
    if missing:
        raise KeyError(f"spans without a per-layer metric: {sorted(missing)}")
    remainder = layer(OP, 1) + layer("cli.child", 1)
    covered = sum(entry[1] for entry in per_layer.values()) - remainder
    print(f"layer self times {covered:.4f} s + untraced remainder {remainder:.4f} s "
          f"= {covered + remainder:.4f} s of {op_wall:.4f} s traced operation wall time")
    return values


def _setup(wl, work: Path) -> list:
    times = []
    for k in range(SETUP_REPEATS):
        scratch = work / f"setup-{k}"
        scratch.mkdir()
        start = time.perf_counter()
        wl.setup(scratch)
        times.append(time.perf_counter() - start)
    return times


def _traced(wl, work: Path, seconds: float):
    """One untraced round, then traced rounds; also traces one more set-up."""
    import spans

    setup_tracer = spans.Tracer()
    setup_tracer.install()
    scratch = work / "setup-traced"
    scratch.mkdir()
    wl.setup(scratch)
    setup_tracer.uninstall()
    setup_density = spans.self_times(setup_tracer.spans).get("spectra.density_eval", [0, 0.0])[1]

    baseline = _run_round(wl, work, None, "base")
    tracer = spans.Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        rounds = _run_rounds(wl, work, seconds, tracer, "traced")
    finally:
        tracer.uninstall()
        wl.tracer = None
    untraced = sum(t for _, t, _ in baseline)
    traced = sum(t for executed in rounds for _, t, _ in executed) / len(rounds)
    overhead = traced / untraced - 1.0
    print(f"trace overhead: {overhead:+.2%} (traced {traced:.3f} s per round, "
          f"untraced {untraced:.3f} s)")
    return baseline, rounds, tracer, overhead, setup_density


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "gmi" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.stderr.write(f"perfbench: no gmi sources under {ROOT}; run inside a checkout\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    import_s = time.perf_counter() - T_START
    env = _environment()
    print("environment: " + json.dumps(env))
    runs = ROOT / ".perfbench_runs"
    work = runs / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.size == "tiny")
        setup_times = _setup(wl, work)
        print(f"setup: imports {import_s:.3f} s, repeats "
              + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
        if args.trace:
            baseline, rounds, tracer, overhead, setup_density = _traced(wl, work, args.seconds)
            all_rounds = [baseline] + rounds
        else:
            start = time.perf_counter()
            rounds = _run_rounds(wl, work, args.seconds, None, "round")
            timed_s = time.perf_counter() - start
            all_rounds = rounds
            # read before the checks, which may start more children
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-configs" else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

        checks_dir = work / "checks"
        checks_dir.mkdir()
        wl.before_checks(rounds, checks_dir)
        attempted, failed, faults, wrong = _check(all_rounds)
        for line in faults:
            print(f"known fault, counted as failed: {line}")
        for name, problems in wrong:
            print(f"WRONG {name}: {'; '.join(problems)}")
        durations = [t for executed in all_rounds for _, t, _ in executed]
        for k, op in enumerate(wl.ops):
            times = " ".join(f"{executed[k][1]:.4f}" for executed in all_rounds)
            print(f"operation {op.name}: {times} s")
        print(f"{args.workload}: {len(all_rounds)} rounds of {len(wl.ops)} operations, "
              f"{attempted} attempted, {failed} failed, median {statistics.median(durations):.4f} s")

        if args.trace:
            metrics = _layer_values(bench["per_layer"], tracer, len(rounds), overhead,
                                    setup_density)
            trace_file = runs / f"spans-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"environment": env, **tracer.dump()}))
        else:
            values = {
                "setup_s": import_s + statistics.median(setup_times),
                "op_p50_s": statistics.median(durations),
                "ops_per_s": len(durations) / timed_s,
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                       for m in bench["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
