"""End-to-end acceptance suite: each test pins one release gate.

The unit suites cover internals; these tests state the user-facing
guarantees of the toolkit with their tolerances and runtime budgets, one
pass/fail line apiece.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from test_optimizer import make_traj, make_scenario, only
from test_trajectory import dense_construct, planner_like_problem

from tetherpick.cable import (
    CableProperties,
    PlanarConfiguration,
    solve_catenary,
)
from tetherpick.cli import run
from tetherpick.optimizer import (
    Limits,
    ObstaclePlane,
    PlanningScenario,
    PenaltyWeights,
    WinchSchedule,
    optimize,
    total_cost,
)
from tetherpick.simulation import DroneParams, simulate_pickup, simulate_retrieval
from tetherpick.trajectory import BoundaryState, construct

SHIPPED = ("pickup_level", "pickup_mid", "pickup_high")


def test_shipped_scenarios_plan_inside_the_cable_corridor(
        shipped_scenario_dir, tmp_path):
    """All three shipped pickups plan cleanly; the dense corridor re-check
    stays below 1e-3 m^2 and the whole batch takes under five seconds."""
    started = time.perf_counter()
    for name in SHIPPED:
        code = run(["plan",
                    "--scenario", str(shipped_scenario_dir / f"{name}.yaml"),
                    "--out", str(tmp_path)])
        assert code == 0, name
    elapsed = time.perf_counter() - started
    for name in SHIPPED:
        import csv
        with open(tmp_path / f"{name}_breakdown.csv", newline="") as handle:
            metrics = dict(list(csv.reader(handle))[1:])
        assert float(metrics["dense_corridor_violation_m2"]) < 1e-3, name
        assert metrics["penalties_ok"] == "True", name
    assert elapsed < 5.0, f"planning batch took {elapsed:.2f} s"


def test_catenary_lengths_residuals_and_taut_limit():
    """100 random solves: quadrature agreement 1e-6, endpoint residuals
    1e-9, and sag decays monotonically as the length descends to the
    chord.  Budget: one second."""
    rng = np.random.default_rng(20260819)
    props = CableProperties()
    started = time.perf_counter()
    for _ in range(100):
        p = rng.uniform(0.1, 5.0)
        H = rng.uniform(-2.0, 2.0)
        cfg = PlanarConfiguration(p=p, H=H)
        gap = rng.uniform(1e-3, 3.0)
        length = cfg.chord + gap
        sol = solve_catenary(cfg, length, props)

        arc, _ = quad(lambda x: math.cosh(x / sol.scale), sol.x_a, sol.x_b)
        assert abs(arc - length) < 1e-6 * length

        half_sum = 0.5 * (sol.x_a + sol.x_b) / sol.scale
        half_gap = 0.5 * p / sol.scale
        h_res = 2.0 * sol.scale * math.sinh(half_sum) * math.sinh(half_gap) - H
        l_res = 2.0 * sol.scale * math.cosh(half_sum) * math.sinh(half_gap) \
            - length
        assert abs(h_res) < 1e-9 and abs(l_res) < 1e-9

        sags = []
        for k in range(10):
            l_k = cfg.chord + gap * 0.3 ** k
            sol_k = solve_catenary(cfg, l_k, props)
            a = sol_k.scale
            z_ends = min(math.cosh(sol_k.x_a / a), math.cosh(sol_k.x_b / a))
            x_low = min(max(0.0, sol_k.x_a), sol_k.x_b)
            sags.append(a * (z_ends - math.cosh(x_low / a)))
        diffs = np.diff(sags)
        assert np.all(diffs <= 1e-12)
        assert sags[-1] < 0.1 * sags[0] + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"catenary batch took {elapsed:.2f} s"


def test_objective_gradients_match_central_differences():
    """Analytic (dJ/dq, dJ/dT) against step-1e-6 central differences on 50
    random four-segment problems, 1e-4 relative, under ten seconds."""
    rng = np.random.default_rng(31337)
    started = time.perf_counter()
    worst = 0.0
    actives = 0
    for _ in range(50):
        anchor = np.array([rng.uniform(-2.0, -0.5), rng.uniform(-0.5, 0.5),
                           rng.uniform(2.5, 3.5)])
        goal = np.array([rng.uniform(1.0, 2.5), rng.uniform(-0.8, 0.8),
                         rng.uniform(0.0, 1.2)])
        scenario = PlanningScenario(
            start_state=BoundaryState.at_rest([0.0, 0.0, 0.0]),
            goal_position=goal,
            goal_velocity=[0.0, 0.0, 0.0],
            anchor_position=anchor,
            winch=WinchSchedule(float(np.linalg.norm(anchor))
                                + rng.uniform(0.02, 0.25),
                                rng.uniform(0.0, 0.3)),
            limits=Limits(v_max=rng.uniform(0.8, 1.5), samples=16),
            segment_count=4,
        )
        duration = rng.uniform(1.2, 2.5)  # short on purpose: hinges bite
        fractions = np.arange(1, 4)[:, None] / 4.0
        waypoints = (fractions * goal[None, :]
                     + rng.uniform(-0.2, 0.2, (3, 3)))

        def cost_at(q, t):
            traj = construct(q, t, scenario.start_state,
                             scenario.goal_position, scenario.goal_velocity)
            return total_cost(traj, scenario)[:3]

        breakdown, grad_q, grad_t = cost_at(waypoints, duration)
        value = breakdown.total
        if breakdown.total - breakdown.smoothness - breakdown.time > 0.0:
            actives += 1

        step = 1e-6
        flat = waypoints.reshape(-1)
        for idx in range(flat.size):
            bump = np.zeros_like(flat)
            bump[idx] = step
            up, _, _ = cost_at((flat + bump).reshape(-1, 3), duration)
            dn, _, _ = cost_at((flat - bump).reshape(-1, 3), duration)
            fd = (up.total - dn.total) / (2.0 * step)
            ref = max(1.0, abs(fd), abs(value))
            worst = max(worst, abs(grad_q.reshape(-1)[idx] - fd) / ref)
        up, _, _ = cost_at(waypoints, duration + step)
        dn, _, _ = cost_at(waypoints, duration - step)
        fd = (up.total - dn.total) / (2.0 * step)
        worst = max(worst, abs(grad_t - fd) / max(1.0, abs(fd), abs(value)))
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
    assert actives >= 25, "random problems failed to activate the hinges"
    assert elapsed < 10.0, f"gradient batch took {elapsed:.2f} s"


def test_hinge_penalty_unit_identities():
    """The three hand-computable single-sample penalties: 1, 8, 0.008,
    each read from total_cost's breakdown with only its own weight, 1."""
    traj = make_traj([{1: [2.0, 1.0, 0.0], 2: [-1.0, -0.5, 0.0]}], 1.0)
    scenario = make_scenario(limits=Limits(samples=4),
                             weights=only(velocity=1.0))
    breakdown = total_cost(traj, scenario)[0]
    assert breakdown.velocity == pytest.approx(1.0, abs=1e-12)

    traj = make_traj([{1: [0.0, 0.0, -1.44], 2: [0.0, 0.0, 0.96]}], 1.0)
    scenario = make_scenario(anchor_position=[0.0, 0.0, 2.0],
                             winch=WinchSchedule(math.sqrt(6.41), 0.0),
                             limits=Limits(samples=2),
                             weights=only(cable=1.0),
                             segment_count=1)
    breakdown = total_cost(traj, scenario)[0]
    assert breakdown.cable == pytest.approx(8.0, abs=1e-12)

    traj = make_traj([{0: [0.0, 0.0, 0.1], 1: [0.0, 0.0, 3.0]}], 1.0)
    plane = ObstaclePlane(point=[0, 0, 0], normal=[0, 0, 1])
    scenario = make_scenario(obstacles=(plane,),
                             limits=Limits(samples=2, obstacle_margin=0.3),
                             weights=only(obstacle=1.0))
    breakdown = total_cost(traj, scenario)[0]
    assert breakdown.obstacle == pytest.approx(0.008, abs=1e-12)


def test_trajectory_construction_matches_dense_oracle():
    """Banded construction equals the stacked dense solve to 1e-9 on 20
    random instances of up to eight segments; interpolation to 1e-9 and
    joint continuity through order four to 1e-10."""
    rng = np.random.default_rng(1234)
    for _ in range(20):
        wp, total_time, start, gp, gv = planner_like_problem(rng,
                                                             max_segments=8)
        traj = construct(wp, total_time, start, gp, gv)
        expected, dt = dense_construct(wp, total_time, start, gp, gv)
        assert np.max(np.abs(traj.coefficients - expected)) < 1e-9

        for i, q in enumerate(np.asarray(wp).reshape(-1, 3), start=1):
            np.testing.assert_allclose(traj.evaluate(i * dt), q, atol=1e-9)
        for i in range(1, traj.segment_count):
            for order in range(5):
                left = traj.evaluate_segment(i - 1, dt, order)
                right = traj.evaluate_segment(i, 0.0, order)
                assert np.max(np.abs(left - right)) < 1e-10


def test_flatness_round_trip_tracks_the_plan():
    """Feeding the planned flat outputs through input recovery and the
    rigid-body stepper reproduces the plan within 5 cm at dt = 1 ms."""
    scenario = PlanningScenario(
        start_state=BoundaryState.at_rest([0.0, 0.0, 0.0]),
        goal_position=[2.0, 0.0, 0.0],
        goal_velocity=[0.0, 0.0, 0.0],
        anchor_position=[-2.0, 0.0, 3.0],
        winch=WinchSchedule(3.7, 0.2, 10.0),
        limits=Limits(samples=16, corridor_margin=0.02),
        weights=PenaltyWeights(cable=3.0e7),
        segment_count=4,
    )
    result = optimize(scenario)
    assert result.penalties_ok, "round-trip premise: plan must be feasible"
    traj = result.trajectory

    log = simulate_pickup(traj, scenario, DroneParams(), dt=1e-3)
    reference = traj.evaluate_batch(np.minimum(log.time, traj.duration), 0)
    error = np.linalg.norm(log.position - reference, axis=1)
    assert float(np.max(error)) < 0.05


def test_passive_retrieval_schedule_and_tension():
    """Reeling two meters at 0.2 m/s finishes in 10 s (within two steps)
    and the settled tension reads the hanging weight within 2%."""
    props = CableProperties()
    dt = 1e-3
    log = simulate_retrieval([0.0, 0.0, 3.0], WinchSchedule(2.2, -0.2),
                             attach_mass=2.0, props=props, dt=dt)
    assert log.duration == pytest.approx(10.0, abs=2 * dt)

    settled = (log.time > 1.0) & (log.time < 9.0)
    hanging = (2.0 + props.mass_per_length * log.l_now[settled]) \
        * props.gravity
    deviation = np.abs(log.tension[settled] - hanging) / hanging
    assert float(np.max(deviation)) < 0.02


def test_planning_is_byte_deterministic(shipped_scenario_dir, tmp_path):
    """Two identical plan invocations write byte-identical CSVs."""
    scenario = shipped_scenario_dir / "pickup_level.yaml"
    for sub in ("first", "second"):
        code = run(["plan", "--scenario", str(scenario),
                    "--out", str(tmp_path / sub), "--seed", "11"])
        assert code == 0
    for suffix in ("trajectory", "corridor", "coefficients", "breakdown"):
        first = (tmp_path / "first" / f"pickup_level_{suffix}.csv").read_bytes()
        second = (tmp_path / "second" / f"pickup_level_{suffix}.csv").read_bytes()
        assert first == second, suffix
