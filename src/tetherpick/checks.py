"""Fast self-diagnostics over the numerical core.

Each check re-derives a property the library is supposed to guarantee and
reports pass/fail with a measured worst case, so a broken build (or a
miscompiled dependency) is caught in well under a second without running
the full test suite.  The ``check`` CLI verb prints these as a table.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cable import CableProperties, PlanarConfiguration, solve_catenary
from .cable import corridor_bounds_batch
from .optimizer import (
    Limits,
    PenaltyWeights,
    PlanningScenario,
    WinchSchedule,
    _hinge_parts,
    total_cost,
)
from .trajectory import BoundaryState, construct

GradientOverride = Callable[[np.ndarray, float], tuple[np.ndarray, float]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, worst: float, tol: float, what: str) -> CheckResult:
    return CheckResult(name, bool(worst <= tol),
                       f"worst {what} {worst:.3e} (tol {tol:.0e})")


def check_catenary_residuals(rng: np.random.Generator,
                             count: int = 25) -> CheckResult:
    """Solved curves must satisfy both endpoint equations to 1e-9."""
    worst = 0.0
    props = CableProperties()
    for _ in range(count):
        p = rng.uniform(0.3, 5.0)
        h = rng.uniform(-2.5, 2.5)
        chord = float(np.hypot(p, h))
        cfg = PlanarConfiguration(p=p, H=h)
        sol = solve_catenary(cfg, chord * rng.uniform(1.001, 1.6), props)
        half_sum = 0.5 * (sol.x_a + sol.x_b) / sol.scale
        half_gap = np.sinh(0.5 * p / sol.scale)
        h_res = 2.0 * sol.scale * np.sinh(half_sum) * half_gap - h
        l_res = 2.0 * sol.scale * np.cosh(half_sum) * half_gap - sol.length
        worst = max(worst,
                    abs(h_res) / max(1.0, abs(h)),
                    abs(l_res) / max(1.0, sol.length))
    return _result("catenary residuals", worst, 1e-9, "relative residual")


def check_corridor_order(rng: np.random.Generator,
                         count: int = 200) -> CheckResult:
    """l_min <= l_max everywhere, and l_max grows with the sag allowance."""
    anchor = np.array([0.0, 0.0, 3.0])
    attach = rng.uniform([-4, -1, -1], [4, 1, 2.5], size=(count, 3))
    tight = CableProperties(sag_limit=0.05)
    loose = CableProperties(sag_limit=0.2)
    l_min, l_max_tight = corridor_bounds_batch(attach, anchor, tight)
    _, l_max_loose = corridor_bounds_batch(attach, anchor, loose)
    worst = max(float(np.max(l_min - l_max_tight)),
                float(np.max(l_max_tight - l_max_loose)))
    return _result("corridor ordering", worst, 1e-12, "ordering gap")


def check_hinge_continuity() -> CheckResult:
    """The cubic hinge and its slope vanish smoothly at the boundary."""
    eps = 1e-5
    hinge, slope = _hinge_parts(np.array([1.0, 2.0, 0.2, -eps, eps]))
    worst = max(
        abs(hinge[0] - 1.0), abs(hinge[1] - 8.0), abs(hinge[2] - 0.008),
        float(hinge[3]), float(slope[3]),
        float(hinge[4]),    # ~1e-15, C0
        float(slope[4]),    # ~1e-10, C1
    )
    return _result("hinge continuity", worst, 1e-9, "deviation")


def check_interpolation(rng: np.random.Generator) -> CheckResult:
    """Constructed splines pass through their waypoints and endpoints."""
    start = BoundaryState.at_rest(rng.uniform(-1, 1, 3))
    goal = rng.uniform(-1, 1, 3) + np.array([3.0, 0.0, 0.0])
    waypoints = np.linspace(start.position, goal, 7)[1:-1]
    waypoints = waypoints + rng.uniform(-0.2, 0.2, waypoints.shape)
    traj = construct(waypoints, 4.0, start, goal, np.zeros(3))
    knots = np.arange(1, 6) * traj.segment_duration
    hit = traj.evaluate_batch(knots, 0)
    ends = traj.evaluate_batch(np.array([0.0, traj.duration]), 0)
    worst = max(float(np.max(np.abs(hit - waypoints))),
                float(np.max(np.abs(ends[0] - start.position))),
                float(np.max(np.abs(ends[1] - goal))))
    return _result("spline interpolation", worst, 1e-9, "waypoint miss")


def _check_scenario(kappa: int) -> PlanningScenario:
    return PlanningScenario(
        start_state=BoundaryState.at_rest([0.0, 0.0, 0.0]),
        goal_position=[2.0, 0.0, 0.5],
        goal_velocity=[0.0, 0.0, 0.0],
        anchor_position=[-1.0, 0.0, 3.0],
        winch=WinchSchedule(3.3, 0.2),
        cable=CableProperties(),
        obstacles=(),
        limits=Limits(samples=kappa),
        weights=PenaltyWeights(),
        segment_count=4,
    )


def check_gradients(rng: np.random.Generator, kappa: int = 16,
                    gradient_override: Optional[GradientOverride] = None,
                    probes: int = 12) -> CheckResult:
    """Analytic objective gradient versus central differences.

    ``gradient_override`` lets a test inject a corrupted gradient to prove
    the check actually trips; production callers leave it unset.
    """
    scenario = _check_scenario(kappa)
    n_wp = scenario.segment_count - 1
    waypoints = (np.linspace(scenario.start_state.position,
                             scenario.goal_position, n_wp + 2)[1:-1]
                 + rng.uniform(-0.15, 0.15, (n_wp, 3)))
    duration = 4.0

    def cost_at(q, t):
        traj = construct(q, t, scenario.start_state,
                         scenario.goal_position, scenario.goal_velocity)
        breakdown, dq, dt, _ = total_cost(traj, scenario)
        return breakdown.total, dq, dt

    value, grad_q, grad_t = cost_at(waypoints, duration)
    if gradient_override is not None:
        grad_q, grad_t = gradient_override(grad_q, grad_t)

    step = 1e-6
    worst = 0.0
    flat = waypoints.reshape(-1)
    picks = rng.permutation(flat.size)[:min(probes, flat.size)]
    for idx in picks:
        bump = np.zeros_like(flat)
        bump[idx] = step
        up, _, _ = cost_at((flat + bump).reshape(-1, 3), duration)
        dn, _, _ = cost_at((flat - bump).reshape(-1, 3), duration)
        fd = (up - dn) / (2.0 * step)
        ref = max(1.0, abs(fd), abs(value))
        worst = max(worst, abs(grad_q.reshape(-1)[idx] - fd) / ref)
    up, _, _ = cost_at(waypoints, duration + step)
    dn, _, _ = cost_at(waypoints, duration - step)
    fd = (up - dn) / (2.0 * step)
    worst = max(worst, abs(grad_t - fd) / max(1.0, abs(fd), abs(value)))
    return _result("objective gradients", worst, 1e-4, "relative error")


def run_checks(seed: int = 0, kappa: int = 16,
               gradient_override: Optional[GradientOverride] = None
               ) -> list[CheckResult]:
    """All diagnostics; independent RNG streams so they cannot interact."""
    seq = np.random.SeedSequence(seed).spawn(4)
    return [
        check_catenary_residuals(np.random.default_rng(seq[0])),
        check_corridor_order(np.random.default_rng(seq[1])),
        check_hinge_continuity(),
        check_interpolation(np.random.default_rng(seq[2])),
        check_gradients(np.random.default_rng(seq[3]), kappa=kappa,
                        gradient_override=gradient_override),
    ]
