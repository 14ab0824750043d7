"""Workload inputs, the verb calls of one round, and the checks on their
outputs.

Every workload is a closed loop with one caller: a round runs its verb calls
back to back, each one starting when the previous one has returned.  Seed 0
hands the program the shipped scenario files unchanged; any other seed
writes perturbed copies (see :func:`_scenario_text`).  Either way the
program reads only the files written here.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

SCENARIOS = ("pickup_level", "pickup_mid", "pickup_high")
# the known failing point (z = 2 m, sag 0.05 m) stays in the grid on purpose
GRID = {"scenario.goal_position_m[2]": (0.0, 1.0, 2.0),
        "cable.sag_limit_m": (0.05, 0.2)}
GRID_SIZE = math.prod(len(values) for values in GRID.values())
# the flight artifact is fixed so that planner changes cannot move fly_s
ARTIFACT = Path(__file__).resolve().with_name("pickup_level_coefficients.csv")
# worst squared-length corridor excursion a clean plan or flight may show
CORRIDOR_TOL_M2 = 1e-3

WORKLOADS = ("plan_shipped", "fly_retrieve", "sweep_grid")


@dataclass
class Outcome:
    """What the checks found in one verb call's outputs.

    ``problems`` makes the call a failed operation.  ``failed_units`` counts
    the plans, simulations or grid points that failed, for failed_share.
    """

    problems: list
    failed_units: int
    facts: dict = field(default_factory=dict)


@dataclass
class Call:
    kind: str                     # plan, fly, retrieve or sweep
    argv: list
    outputs: list                 # files removed before the call
    check: Callable[[], Outcome]  # run after a zero exit
    units: int = 1


def _scenario_text(name: str, repo: Path, rng) -> str:
    """A shipped scenario file, perturbed when ``rng`` is given.

    The planner's iteration count is chaotic in the goal position today: a
    1 mm goal offset turns pickup_high from 500 iterations into a false
    convergence that fails its hinge check.  So a seed perturbs only fields
    that leave the planning problem and the step counts unchanged: the drone
    mass and the retrieval attach mass.
    """
    text = (repo / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8")
    if rng is None:
        return text
    doc = yaml.safe_load(text)
    sim = doc.setdefault("sim", {})
    sim["drone_mass_kg"] = round(rng.uniform(0.55, 0.65), 4)
    sim.setdefault("retrieval", {})["attach_mass_kg"] = \
        round(rng.uniform(1.5, 2.5), 4)
    return yaml.safe_dump(doc, sort_keys=False)


def _write_scenario(name: str, repo: Path, inputs: Path, rng) -> Path:
    path = inputs / f"{name}.yaml"
    path.write_text(_scenario_text(name, repo, rng), encoding="utf-8")
    return path


def _csv_rows(path: Path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _problem(units: int, message: str) -> Outcome:
    return Outcome([message], units)


def _check_plan(out: Path, name: str) -> Outcome:
    path = out / f"{name}_breakdown.csv"
    if not path.is_file():
        return _problem(1, f"{path.name} missing")
    rows = dict(row for row in _csv_rows(path) if len(row) == 2)
    problems = []
    if rows.get("penalties_ok") != "True":
        problems.append(f"{name}: penalties_ok is {rows.get('penalties_ok')}")
    dense = float(rows.get("dense_corridor_violation_m2", "nan"))
    if not dense < CORRIDOR_TOL_M2:
        problems.append(f"{name}: dense corridor violation {dense:g} m^2")
    facts = {"plan_cost": [float(rows["total"])],
             "plan_iterations": [int(rows["iterations"])],
             "plan_status": [rows["status"]]}
    return Outcome(problems, 1 if problems else 0, facts)


def _telemetry(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_fly(out: Path, scenario: dict, artifact: Path) -> Outcome:
    path = out / "pickup_level_telemetry.csv"
    if not path.is_file():
        return _problem(1, f"{path.name} missing")
    body = _csv_rows(artifact)[1:]
    duration = float(body[0][8]) * int(body[0][9])
    dt = float(scenario.get("sim", {}).get("timestep_s", 1e-3))
    expected = max(int(round(duration / dt)), 1) + 1
    data = _telemetry(path)
    problems = []
    if data.shape[0] != expected:
        problems.append(f"flight telemetry has {data.shape[0]} rows, "
                        f"expected one per step ({expected})")
    l_min, l_now, l_max = data[:, 10], data[:, 11], data[:, 12]
    worst = float(np.max(np.maximum(l_min ** 2 - l_now ** 2,
                                    l_now ** 2 - l_max ** 2)))
    if not worst < CORRIDOR_TOL_M2:
        problems.append(f"flight leaves the corridor by {worst:g} m^2")
    return Outcome(problems, 1 if problems else 0)


def _retrieval_steps(scenario: dict) -> tuple[int, float]:
    """Rows the retrieval should log, by the CLI's reel-in rule, and the
    stow length: one row per step up to the first at or below stow."""
    winch = scenario["winch"]
    start = float(winch["initial_length_m"])
    speed = float(winch.get("payout_speed_m_s", 0.0))
    capacity = float(winch.get("capacity_m", float("inf")))
    sim = scenario.get("sim", {})
    dt = float(sim.get("timestep_s", 1e-3))
    stow = float(sim.get("retrieval", {}).get("stow_length_m", 0.2))
    reel = -abs(speed) if speed != 0.0 else -0.2
    i = 0
    while min(max(start + reel * (i * dt), 0.0), capacity) > stow:
        i += 1
    return i + 1, stow


def _check_retrieve(out: Path, scenario: dict) -> Outcome:
    path = out / "pickup_level_retrieval.csv"
    if not path.is_file():
        return _problem(1, f"{path.name} missing")
    expected, stow = _retrieval_steps(scenario)
    data = _telemetry(path)
    problems = []
    if data.shape[0] != expected:
        problems.append(f"retrieval telemetry has {data.shape[0]} rows, "
                        f"expected one per step ({expected})")
    if not data[-1, 11] <= stow + 1e-9:
        problems.append(f"retrieval ends at {data[-1, 11]:g} m, "
                        f"above the stow length {stow:g} m")
    return Outcome(problems, 1 if problems else 0)


def _check_sweep(out: Path) -> Outcome:
    path = out / "pickup_level_sweep.csv"
    if not path.is_file():
        return _problem(GRID_SIZE, f"{path.name} missing")
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    expected = list(itertools.product(*GRID.values()))
    found = [tuple(float(row[key]) for key in GRID) for row in rows]
    if found != expected:
        return _problem(GRID_SIZE, f"sweep rows {found} do not match the "
                                   f"grid {expected}")
    failed = [row for row in rows
              if row["success"] != "1" or row["status"] == "error"]
    facts = {
        "plan_cost": [float(row["total"]) for row in rows if row["total"]],
        "sweep_point_s": [float(row["wall_time_s"]) for row in rows],
        "sweep_iterations": [int(row["iterations"]) for row in rows
                             if row["iterations"]],
        "sweep_status": [row["status"] for row in rows],
    }
    return Outcome([], len(failed), facts)


def prepare(workload: str, seed: int, repo: Path, work: Path,
            jobs: int) -> list[Call]:
    """Write the workload's inputs under ``work`` and return one round."""
    inputs, out = work / "inputs", work / "out"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed) if seed != 0 else None
    common = ["--out", str(out), "--seed", str(seed)]

    if workload == "plan_shipped":
        order = list(SCENARIOS)
        if rng is not None:
            rng.shuffle(order)
        paths = {name: _write_scenario(name, repo, inputs, rng)
                 for name in order}
        return [
            Call("plan", ["plan", "--scenario", str(paths[name]), *common],
                 [out / f"{name}_{kind}.csv" for kind in
                  ("trajectory", "corridor", "coefficients", "breakdown")],
                 lambda name=name: _check_plan(out, name))
            for name in order]

    if workload == "fly_retrieve":
        path = _write_scenario("pickup_level", repo, inputs, rng)
        scenario = yaml.safe_load(path.read_text(encoding="utf-8"))
        artifact = inputs / ARTIFACT.name
        shutil.copyfile(ARTIFACT, artifact)
        base = ["simulate", "--scenario", str(path), *common]
        return [
            Call("fly", [*base, "--trajectory", str(artifact)],
                 [out / "pickup_level_telemetry.csv"],
                 lambda: _check_fly(out, scenario, artifact)),
            Call("retrieve", [*base, "--retrieve-only"],
                 [out / "pickup_level_retrieval.csv"],
                 lambda: _check_retrieve(out, scenario)),
        ]

    if workload == "sweep_grid":
        path = _write_scenario("pickup_level", repo, inputs, rng)
        grid = []
        for key, values in GRID.items():
            grid += ["--grid", f"{key}={','.join(f'{v:g}' for v in values)}"]
        return [Call("sweep", ["sweep", "--scenario", str(path), *common,
                               "--jobs", str(jobs), *grid],
                     [out / "pickup_level_sweep.csv"],
                     lambda: _check_sweep(out), units=GRID_SIZE)]

    raise ValueError(f"unknown workload {workload!r}")
