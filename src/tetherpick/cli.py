"""Command-line harness.

Four verbs cover the toolkit's workflow::

    tetherpick plan     --scenario pickup.yaml --out results/
    tetherpick simulate --scenario pickup.yaml --out results/ --retrieve
    tetherpick sweep    --scenario pickup.yaml --grid "scenario.goal_position_m[2]=0:2:0.25"
    tetherpick check    --scenario pickup.yaml

Exit codes: 0 success, 1 failed diagnostics (check), 2 parse or validation
problem, 3 optimization failure, 4 corridor violation.  ``plan`` exits 0
only when a dense corridor re-check (``--dense-check-factor`` times the
planning sample count) stays inside the feasible cable-length corridor.

All outputs are plain CSV with fixed headers and 9-significant-digit,
locale-independent numbers; rerunning a verb on identical inputs and seed
reproduces the files byte for byte (the sweep's wall-time column is the one
deliberate exception).
"""

import argparse
import copy
import csv
import itertools
import re
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .checks import run_checks
from .errors import ParseError, TetherpickError, ValidationError
from .optimizer import (
    VIOLATION_TOL,
    WinchSchedule,
    corridor_profile,
    corridor_violation,
    optimize,
)
from .scenario import Scenario, load_document, load_scenario, parse_scenario
from .simulation import TELEMETRY_COLUMNS, simulate_pickup, simulate_retrieval
from .trajectory import Trajectory

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_OPTIMIZATION = 3
EXIT_CORRIDOR = 4

COEFFICIENT_HEADER = ("segment", "axis", "c0", "c1", "c2", "c3", "c4", "c5",
                      "dT", "N")
_AXES = ("x", "y", "z")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_matrix(path: Path, header, matrix: np.ndarray) -> None:
    """_write_csv for a float matrix, one row format per line.

    ``'%.9g' % x`` and ``format(x, '.9g')`` spell every float the same way,
    so the bytes match _write_csv's.
    """
    line = ",".join(["%.9g"] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(header)
        handle.writelines(line % tuple(row) for row in matrix.tolist())


def write_trajectory_artifact(path: Path, traj: Trajectory) -> None:
    """Segment-coefficient CSV, the durable form of a plan."""
    rows = []
    for seg in range(traj.segment_count):
        for axis, label in enumerate(_AXES):
            rows.append([seg, label, *traj.coefficients[seg, :, axis],
                         traj.segment_duration, traj.segment_count])
    _write_csv(path, COEFFICIENT_HEADER, rows)


def read_trajectory_artifact(path: Path) -> Trajectory:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except OSError as exc:
        raise ParseError(f"cannot read trajectory artifact {path}: {exc}") \
            from None
    if not rows or tuple(rows[0]) != COEFFICIENT_HEADER:
        raise ParseError(
            f"{path} is not a trajectory artifact "
            f"(expected header {','.join(COEFFICIENT_HEADER)})")
    body = rows[1:]
    if not body:
        raise ParseError(f"{path} has no coefficient rows")
    try:
        n = int(body[0][9])
        dt = float(body[0][8])
        coeffs = np.full((n, 6, 3), np.nan)
        for row in body:
            seg = int(row[0])
            axis = _AXES.index(row[1])
            if int(row[9]) != n or float(row[8]) != dt:
                raise ParseError(f"{path} mixes segment counts or durations")
            coeffs[seg, :, axis] = [float(v) for v in row[2:8]]
    except (ValueError, IndexError):
        raise ParseError(f"{path} has malformed coefficient rows") from None
    if np.any(np.isnan(coeffs)):
        raise ParseError(f"{path} is missing segment/axis rows")
    return Trajectory(coefficients=coeffs, segment_duration=dt)


def _plan_outputs(out: Path, sc: Scenario, traj: Trajectory, dense_kappa: int):
    """Write the three plan CSVs; returns the dense corridor violation."""
    ts, l_min, l_now, l_max = corridor_profile(traj, sc.planning, dense_kappa)
    pos = traj.evaluate_batch(ts, 0)
    vel = traj.evaluate_batch(ts, 1)
    acc = traj.evaluate_batch(ts, 2)
    _write_matrix(out / f"{sc.name}_trajectory.csv",
                  ("t", "x", "y", "z", "vx", "vy", "vz", "ax", "ay", "az"),
                  np.column_stack([ts, pos, vel, acc]))
    _write_matrix(out / f"{sc.name}_corridor.csv",
                  ("t", "L_min", "L_now", "L_max"),
                  np.column_stack([ts, l_min, l_now, l_max]))
    write_trajectory_artifact(out / f"{sc.name}_coefficients.csv", traj)
    return corridor_violation(l_min, l_now, l_max)


def cmd_plan(args) -> int:
    sc = load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = optimize(sc.planning, fixed_duration=args.fixed_duration)
    traj = result.trajectory
    dense_kappa = args.dense_check_factor * sc.planning.limits.samples
    violation = _plan_outputs(out, sc, traj, dense_kappa)

    b = result.breakdown
    summary = [
        ("smoothness", b.smoothness), ("time", b.time),
        ("velocity", b.velocity), ("acceleration", b.acceleration),
        ("jerk", b.jerk), ("thrust", b.thrust), ("obstacle", b.obstacle),
        ("cable", b.cable), ("total", b.total),
        ("duration_s", traj.duration), ("iterations", result.iterations),
        ("status", result.status), ("penalties_ok", result.penalties_ok),
        ("max_violation", result.max_violation),
        ("dense_corridor_violation_m2", violation),
        ("seed", args.seed),
    ]
    _write_csv(out / f"{sc.name}_breakdown.csv", ("metric", "value"), summary)

    print(f"plan {sc.name}: total cost {b.total:.6g}, "
          f"duration {traj.duration:.3f} s, {result.iterations} iterations "
          f"({result.status})")
    for name, value in summary[:9]:
        print(f"  {name:12s} {value:.6g}")
    if not result.penalties_ok:
        print(f"  note: penalties not settled "
              f"(worst hinge argument {result.max_violation:.3g})")
    if violation >= VIOLATION_TOL:
        print(f"corridor violation: dense re-check at kappa={dense_kappa} "
              f"exceeds the feasible band by {violation:.3g} m^2")
        return EXIT_CORRIDOR
    print(f"corridor: clean at kappa={dense_kappa} "
          f"(worst excursion {violation:.3g} m^2)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    retrieval_winch = sc.planning.winch
    if not args.retrieve_only:
        artifact = Path(args.trajectory) if args.trajectory \
            else out / f"{sc.name}_coefficients.csv"
        traj = read_trajectory_artifact(artifact)
        log = simulate_pickup(traj, sc.planning, sc.drone, sc.timestep)
        _write_matrix(out / f"{sc.name}_telemetry.csv", TELEMETRY_COLUMNS,
                      log.as_matrix())
        planned = traj.evaluate_batch(
            np.clip(log.time, 0.0, traj.duration), 0)
        tracking = float(np.max(np.linalg.norm(log.position - planned,
                                               axis=1)))
        print(f"simulate {sc.name}: {log.time[-1]:.3f} s of flight")
        print(f"  max tracking error   {tracking:.6g} m")
        print(f"  corridor violations  "
              f"{'none' if log.corridor_ok else f'{log.corridor_violation:.3g} m^2'}")
        print(f"  peak tether tension  {float(np.max(log.tension)):.6g} N")
        released = sc.planning.winch.length_at(traj.duration)
        retrieval_winch = WinchSchedule(
            initial_length=float(released),
            payout_speed=sc.planning.winch.payout_speed,
            capacity=sc.planning.winch.capacity)

    if args.retrieve or args.retrieve_only:
        if sc.retrieval is None and args.attach_mass is None:
            raise ValidationError(
                "retrieval needs sim.retrieval in the scenario "
                "or --attach-mass")
        mass = args.attach_mass if args.attach_mass is not None \
            else sc.retrieval.attach_mass
        stow = sc.retrieval.stow_length if sc.retrieval is not None else 0.2
        speed = retrieval_winch.payout_speed
        reel = -abs(speed) if speed != 0.0 else -0.2
        winch = WinchSchedule(retrieval_winch.initial_length, reel,
                              retrieval_winch.capacity)
        rlog = simulate_retrieval(
            sc.planning.anchor_position, winch, mass, sc.planning.cable,
            sc.drone, sc.timestep, stow_length=stow)
        _write_matrix(out / f"{sc.name}_retrieval.csv", TELEMETRY_COLUMNS,
                      rlog.as_matrix())
        print(f"retrieve {sc.name}: {rlog.time[-1]:.3f} s to reach "
              f"stow length {stow:g} m")
        print(f"  peak tether tension  {float(np.max(rlog.tension)):.6g} N")
    return EXIT_OK


_GRID_TOKEN = re.compile(r"^([A-Za-z0-9_]+)(?:\[(\d+)\])?$")


def _parse_grid(spec: str):
    """'dotted.path=a,b,c' or 'dotted.path=start:stop:step' (inclusive)."""
    path, sep, rhs = spec.partition("=")
    if not sep or not path or not rhs:
        raise ParseError(f"grid spec {spec!r} must look like path=values")
    if ":" in rhs:
        pieces = rhs.split(":")
        if len(pieces) != 3:
            raise ParseError(f"grid range {rhs!r} must be start:stop:step")
        try:
            start, stop, step = (float(x) for x in pieces)
        except ValueError:
            raise ParseError(f"grid range {rhs!r} is not numeric") from None
        if step <= 0.0 or stop < start:
            raise ParseError(f"grid range {rhs!r} must ascend")
        values = list(np.arange(start, stop + 0.5 * step, step))
    else:
        values = []
        for piece in rhs.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                values.append(float(piece))
            except ValueError:
                values.append(piece)
    if not values:
        raise ParseError(f"grid spec {spec!r} has no values")
    return path, values


def _apply_override(document, dotted: str, value) -> None:
    node = document
    tokens = dotted.split(".")
    for i, token in enumerate(tokens):
        match = _GRID_TOKEN.match(token)
        if match is None:
            raise ParseError(f"bad grid path component {token!r} in {dotted}")
        key, index = match.group(1), match.group(2)
        last = i == len(tokens) - 1
        if index is None:
            if last:
                node[key] = value
            else:
                node = node.setdefault(key, {})
                if not isinstance(node, dict):
                    raise ParseError(f"{dotted}: {key} is not a section")
        else:
            seq = node.get(key)
            if not isinstance(seq, list) or int(index) >= len(seq):
                raise ParseError(f"{dotted}: no element {key}[{index}]")
            if last:
                seq[int(index)] = value
            else:
                raise ParseError(f"{dotted}: cannot descend into an element")


SWEEP_FIXED_COLUMNS = ("success", "status", "iterations", "duration_s",
                       "smoothness", "time", "velocity", "acceleration",
                       "jerk", "thrust", "obstacle", "cable", "total",
                       "corridor_margin_m", "wall_time_s", "error")


def _sweep_worker(task):
    """One grid point: plan, dense-check, summarize.  Runs in a subprocess
    when --jobs asks for it, so everything in and out must pickle."""
    document, overrides, fixed_duration, dense_factor = task
    started = time.perf_counter()
    try:
        doc = copy.deepcopy(document)
        for dotted, value in overrides:
            _apply_override(doc, dotted, value)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sc = parse_scenario(doc, name_fallback="sweep")
        result = optimize(sc.planning, fixed_duration=fixed_duration)
        traj = result.trajectory
        kappa = dense_factor * sc.planning.limits.samples
        _, l_min, l_now, l_max = corridor_profile(traj, sc.planning, kappa)
        margin = float(np.min(np.minimum(l_now - l_min, l_max - l_now)))
        b = result.breakdown
        ok = result.penalties_ok and margin >= 0.0
        row = {
            "success": int(ok), "status": result.status,
            "iterations": result.iterations, "duration_s": traj.duration,
            "smoothness": b.smoothness, "time": b.time,
            "velocity": b.velocity, "acceleration": b.acceleration,
            "jerk": b.jerk, "thrust": b.thrust, "obstacle": b.obstacle,
            "cable": b.cable, "total": b.total,
            "corridor_margin_m": margin, "error": "",
        }
    except TetherpickError as exc:
        row = {key: "" for key in SWEEP_FIXED_COLUMNS}
        row.update(success=0, status="error", error=str(exc))
    row["wall_time_s"] = time.perf_counter() - started
    return row


def cmd_sweep(args) -> int:
    if not args.grid:
        raise ParseError("sweep requires at least one --grid path=values")
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, got {args.jobs}")
    document = load_document(args.scenario)
    sc = load_scenario(args.scenario)  # validate the template up front
    axes = [_parse_grid(spec) for spec in args.grid]
    combos = list(itertools.product(*(values for _, values in axes)))
    paths = [path for path, _ in axes]
    tasks = [
        (document, tuple(zip(paths, combo)), args.fixed_duration,
         args.dense_check_factor)
        for combo in combos
    ]
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(task) for task in tasks]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = (*paths, *SWEEP_FIXED_COLUMNS)
    rows = [
        [*combo, *(row[key] for key in SWEEP_FIXED_COLUMNS)]
        for combo, row in zip(combos, results)
    ]
    _write_csv(out / f"{sc.name}_sweep.csv", header, rows)
    good = sum(row["success"] == 1 for row in results)
    print(f"sweep {sc.name}: {good}/{len(results)} grid points succeeded "
          f"-> {out / f'{sc.name}_sweep.csv'}")
    return EXIT_OK


def cmd_check(args) -> int:
    kappa = 16
    if args.scenario:
        sc = load_scenario(args.scenario)
        kappa = sc.planning.limits.samples
        print(f"scenario {sc.name}: loads and validates")
    results = run_checks(seed=args.seed, kappa=kappa)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:{width}s}  {'PASS' if r.passed else 'FAIL'}  "
              f"{r.detail}")
    if all(r.passed for r in results):
        return EXIT_OK
    return EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetherpick",
        description="Plan and simulate cable-suspended aerial pickups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        p.add_argument("--scenario", required=scenario_required,
                       help="scenario YAML file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed recorded in outputs")

    plan = sub.add_parser("plan", help="optimize a trajectory and export it")
    common(plan)
    plan.add_argument("--fixed-duration", type=float, default=None,
                      help="pin the total duration instead of optimizing it")
    plan.add_argument("--dense-check-factor", type=int, default=10,
                      help="corridor re-check density, in multiples of the "
                           "planning sample count")

    simulate = sub.add_parser("simulate",
                              help="fly a planned trajectory in simulation")
    common(simulate)
    simulate.add_argument("--trajectory", default=None,
                          help="trajectory artifact CSV (default: the one "
                               "plan wrote next to --out)")
    simulate.add_argument("--retrieve", action="store_true",
                          help="wind the payload up after the pickup")
    simulate.add_argument("--retrieve-only", action="store_true",
                          help="skip the pickup and only simulate retrieval")
    simulate.add_argument("--attach-mass", type=float, default=None,
                          help="payload mass for retrieval (overrides the "
                               "scenario's sim.retrieval block)")

    sweep = sub.add_parser("sweep", help="plan across a parameter grid")
    common(sweep)
    sweep.add_argument("--grid", action="append", default=[],
                       metavar="PATH=VALUES",
                       help="dotted document path with values "
                            "'a,b,c' or 'start:stop:step'; repeat for a "
                            "full factorial grid")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="parallel workers")
    sweep.add_argument("--fixed-duration", type=float, default=None)
    sweep.add_argument("--dense-check-factor", type=int, default=10)

    check = sub.add_parser("check", help="run the numerical self-checks")
    common(check, scenario_required=False)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"plan": cmd_plan, "simulate": cmd_simulate,
                "sweep": cmd_sweep, "check": cmd_check}
    try:
        return handlers[args.command](args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TetherpickError as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZATION


if __name__ == "__main__":
    sys.exit(run())
