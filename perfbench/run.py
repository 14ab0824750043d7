#!/usr/bin/env python3
"""Benchmark of the tetherpick command line, driven in-process.

Run from the root of a tetherpick checkout:

    python3 perfbench/run.py --workload plan_shipped --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics and
the tracing overhead.  Outputs go to ``.perfbench/<workload>/`` in the
checkout.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  README.md explains the workloads
and metrics.

BLAS and OpenMP thread variables are recorded as found and never set:
default threading is part of what cpu_s and the sweep measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import tracer as tracing
import workloads

SETUP_REPEATS = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import tetherpick.cli"
END_TO_END = {"setup_s": "s", "verb_s": "s", "cpu_s": "s"}


@dataclass
class Sample:
    kind: str
    wall: float
    cpu: float
    units: int
    outcome: workloads.Outcome


def _cpu_seconds() -> float:
    """CPU time of this process, all its threads, and its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def environment() -> dict:
    import numpy
    import scipy
    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    env.update({name: os.environ.get(name) for name in THREAD_VARIABLES})
    return env


def load_cli(src: Path):
    """Import tetherpick.cli from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    cli = importlib.import_module("tetherpick.cli")
    where = Path(cli.__file__).resolve().parent
    if where != (src / "tetherpick").resolve():
        raise ImportError(f"tetherpick imported from {where}, not {src}")
    return cli


def set_up(workload, seed, repo, work, jobs):
    """Time SETUP_REPEATS fresh imports plus input generation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(repo / "src")],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        calls = workloads.prepare(workload, seed, repo, work, jobs)
        samples.append(perf_counter() - start)
    return samples, calls


def run_call(cli, call, tracer) -> Sample:
    for path in call.outputs:
        path.unlink(missing_ok=True)
    gc.collect()
    sink = io.StringIO()
    traced = tracer.verb(call.kind) if tracer else contextlib.nullcontext()
    cpu0, start = _cpu_seconds(), perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink), traced:
            code = cli.run(call.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed operation, not a failed run
        code = "crash: " + traceback.format_exc(limit=3)
    wall, cpu = perf_counter() - start, _cpu_seconds() - cpu0
    if code == 0:
        outcome = call.check()
    else:
        tail = sink.getvalue().strip().splitlines()[-1:]
        outcome = workloads.Outcome([f"{call.kind} exit {code} {tail}"],
                                    call.units)
    return Sample(call.kind, wall, cpu, call.units, outcome)


def install(tracer) -> None:
    for module_name, attr in layers.WRAPPED:
        name = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(f"tetherpick.{module_name}")
        except ModuleNotFoundError:
            tracer.missing.add(name)
            continue
        tracer.install(module, attr, name)


def measure(cli, calls, seconds, trace):
    """Run rounds until the next one would end after ``seconds``.

    With ``trace`` rounds alternate untraced and traced, starting untraced.
    Returns [(traced, [Sample])] and the tracer.
    """
    tracer = tracing.Tracer() if trace else None
    rounds, lengths = [], {False: [], True: []}
    begin = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        done = len(rounds) >= (2 if trace else 1)
        typical = lengths[traced] or lengths[not traced]
        if done and perf_counter() - begin + statistics.median(typical) \
                > seconds:
            break
        start = perf_counter()
        if traced:
            install(tracer)
        try:
            samples = [run_call(cli, call, tracer if traced else None)
                       for call in calls]
        finally:
            if traced:
                tracer.uninstall()
        lengths[traced].append(perf_counter() - start)
        rounds.append((traced, samples))
    return rounds, tracer


def _median_spread(values):
    """(median, highest percentile with at least ten samples beyond it)."""
    median = statistics.median(values)
    n = len(values)
    if n <= 20:
        return median, None
    pct = (100 * (n - 10)) // n
    return median, (pct, statistics.quantiles(values, n=100)[pct - 1])


def _round_median(rounds, field):
    """Median over rounds of the round's per-call mean of ``field``."""
    return statistics.median(
        sum(getattr(s, field) for s in samples) / len(samples)
        for _, samples in rounds)


def summarize(rounds, setup):
    """End-to-end timings from the untraced rounds; failures from all."""
    plain = [r for r in rounds if not r[0]]
    samples = [s for _, round_samples in rounds for s in round_samples]
    units = sum(s.units for s in samples)
    failed_units = sum(s.outcome.failed_units for s in samples)
    costs = [c for s in plain[-1][1] for c in s.outcome.facts.get(
        "plan_cost", [])]
    by_kind = {}
    for _, round_samples in plain:
        for s in round_samples:
            by_kind.setdefault(s.kind, []).append(s.wall)
    report = {
        "setup_s": ("s", *_median_spread(setup), len(setup)),
        "verb_s": ("s", _round_median(plain, "wall"), None, len(plain)),
        "cpu_s": ("s", _round_median(plain, "cpu"), None, len(plain)),
    }
    for kind, walls in by_kind.items():
        if kind == "sweep":
            rates = [workloads.GRID_SIZE / w for w in walls]
            report["sweep_points_per_s"] = ("1/s", *_median_spread(rates),
                                            len(rates))
        else:
            report[f"{kind}_s"] = ("s", *_median_spread(walls), len(walls))
    if costs:
        report["plan_cost"] = ("J", sum(costs) / len(costs), None, len(costs))
    report["failed_share"] = ("ratio", failed_units / units, None, units)
    return report


def overhead(rounds):
    """kind -> (untraced median wall, traced median wall)."""
    walls = {}
    for traced, samples in rounds:
        for s in samples:
            walls.setdefault(s.kind, ([], []))[traced].append(s.wall)
    return {kind: (statistics.median(u), statistics.median(t))
            for kind, (u, t) in walls.items() if u and t}


def layer_report(rounds, tracer):
    facts = {}
    for traced, samples in rounds:
        if traced:
            for s in samples:
                for key, values in s.outcome.facts.items():
                    facts.setdefault(key, []).extend(values)
    profile = tracing.Profile(tracer.spans)
    out = layers.layer_metrics(profile, facts, tracer.missing)
    verb_untraced = _round_median([r for r in rounds if not r[0]], "wall")
    verb_traced = _round_median([r for r in rounds if r[0]], "wall")
    out["trace.overhead_share"] = (verb_traced / verb_untraced - 1.0,
                                   "ratio", "")
    return out


def run_workload(workload, args, repo, env):
    work = repo / ".perfbench" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup, calls = set_up(workload, args.seed, repo, work, env["nproc"])
    cli = load_cli(repo / "src")
    rounds, tracer = measure(cli, calls, args.seconds, args.trace)

    samples = [s for _, round_samples in rounds for s in round_samples]
    problems = [p for s in samples for p in s.outcome.problems]
    e2e = summarize(rounds, setup)
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller, {len(rounds)} rounds of {len(calls)} "
          f"verb calls")
    print("environment " + json.dumps(env, sort_keys=True))
    print("end to end (untraced rounds): name value unit [samples]")
    for name, (unit, value, pct, n) in e2e.items():
        extra = f"  p{pct[0]} {pct[1]:.6g}" if pct else ""
        print(f"  {name:20s} {value:.6g} {unit}  [{n}]{extra}")
    for problem in problems[:10]:
        print(f"  check failed: {problem}")

    result = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "end_to_end": e2e, "problems": problems}
    if args.trace:
        layer = layer_report(rounds, tracer)
        print("per layer (traced rounds): name value unit")
        for name, (value, unit, note) in layer.items():
            shown = "-" if value is None else f"{value:.6g}"
            print(f"  {name:34s} {shown} {unit}  {note}".rstrip())
        for kind, (plain, traced) in overhead(rounds).items():
            print(f"  tracing overhead on {kind}_s: {traced - plain:+.4f} s "
                  f"({traced / plain - 1.0:+.1%}), untraced {plain:.4f} s")
        tracer.write(work / "spans.csv")
        result["per_layer"] = layer
        metrics = {name: {"value": value if value is not None else 0,
                          "unit": unit}
                   for name, (value, unit, _) in layer.items()}
    else:
        metrics = {name: {"value": e2e[name][1], "unit": unit}
                   for name, unit in END_TO_END.items()}
    (work / "result.json").write_text(json.dumps(result, indent=1,
                                                 default=str))
    return {"correct": not problems, "attempted": len(samples),
            "failed": sum(1 for s in samples if s.outcome.problems),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repo = Path.cwd()
    if not (repo / "src" / "tetherpick" / "__init__.py").is_file():
        print("error: run from the root of a tetherpick checkout "
              "(src/tetherpick not found)", file=sys.stderr)
        return 2
    env = environment()
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = {name: run_workload(name, args, repo, env) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for result in results.values():
            print(json.dumps(result))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value
                             for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
