"""Tests for the penalty objective and the planner loop."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetherpick import cable, optimizer
from tetherpick.cable import CableProperties
from tetherpick.errors import ValidationError
from tetherpick.scenario import load_document, parse_scenario
from tetherpick.optimizer import (
    CostBreakdown,
    Limits,
    Minimum,
    ObstaclePlane,
    OptimizeResult,
    PenaltyWeights,
    PlanningScenario,
    WinchSchedule,
    _direction,
    _hinge_table,
    _jerk_hessian,
    _line_search,
    _rhs,
    _sample_grid,
    _shift_update,
    corridor_profile,
    corridor_violation,
    initial_guess,
    minimize,
    optimize,
    sample_times,
    total_cost,
)
from tetherpick.trajectory import (BoundaryState, Trajectory,
                                  FALLING, NCOEF, _JERK_GRAM,
                                  _unit_inverse, basis_rows_upto,
                                  construct, rhs_columns, time_powers)


def make_traj(coeffs, dt):
    arr = np.zeros((len(coeffs), 6, 3))
    for i, seg in enumerate(coeffs):
        for k, c in seg.items():
            arr[i, k] = c
    return Trajectory(coefficients=arr, segment_duration=dt)


def make_scenario(**kw):
    defaults = dict(
        start_state=BoundaryState.at_rest([0.0, 0.0, 0.0]),
        goal_position=[2.0, 0.0, 0.0],
        goal_velocity=[0.0, 0.0, 0.0],
        anchor_position=[0.0, 0.0, 3.0],
        winch=WinchSchedule(3.0, 0.0),
        cable=CableProperties(),
        obstacles=(),
        limits=Limits(),
        weights=PenaltyWeights(),
        segment_count=4,
    )
    defaults.update(kw)
    return PlanningScenario(**defaults)


def one_segment(coeffs, duration=1.0, **kw):
    """(waypoints, duration, scenario) of the one-segment plan whose quintic
    has the coefficients ``coeffs`` (power: value): its six boundary rows,
    the start's position to jerk and the goal's position and velocity, fix
    it."""
    traj = make_traj([coeffs], duration)
    start = [traj.evaluate_batch([0.0], o)[0] for o in range(4)]
    goal = [traj.evaluate_batch([duration], o)[0] for o in range(2)]
    scenario = make_scenario(start_state=BoundaryState(*start),
                             goal_position=goal[0], goal_velocity=goal[1],
                             segment_count=1, **kw)
    return np.zeros((0, 3)), duration, scenario


def plan_at(point, scenario):
    """The trajectory of a (waypoints, duration) point of ``scenario``."""
    return construct(*point, scenario.start_state, scenario.goal_position,
                     scenario.goal_velocity)


def record_construct(monkeypatch):
    """Every (waypoints, duration) the planner builds a trajectory at."""
    points = []
    real_construct = optimizer.construct

    def recorded(waypoints, duration, *boundary):
        points.append((np.array(waypoints), duration))
        return real_construct(waypoints, duration, *boundary)

    monkeypatch.setattr(optimizer, "construct", recorded)
    return points


def only(**weights):
    """PenaltyWeights with every weight 0 except the ones named."""
    zero = dict.fromkeys(("velocity", "accel_jerk", "thrust", "cable",
                          "obstacle"), 0.0)
    return PenaltyWeights(**{**zero, **weights})


def dense_violation(traj, scenario, kappa):
    """Margin-free corridor violation of a plan, as the CLI checks it."""
    return corridor_violation(*corridor_profile(traj, scenario, kappa)[1:])


class TestTypes:
    def test_limits_validation(self):
        with pytest.raises(ValidationError):
            Limits(tau_min=5.0, tau_max=5.0)
        with pytest.raises(ValidationError):
            Limits(samples=1)
        with pytest.raises(ValidationError):
            Limits(v_max=0.0)
        with pytest.raises(ValidationError):
            Limits(corridor_margin=-0.01)

    @pytest.mark.parametrize("samples", [32.5, 16.0, True])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValidationError, match="limits.samples"):
            Limits(samples=samples)

    @pytest.mark.parametrize("count", [True, 2.0, 6.5])
    def test_segment_count_must_be_an_integer(self, count):
        with pytest.raises(ValidationError, match="segment_count"):
            make_scenario(segment_count=count)

    def test_winch_cannot_start_beyond_its_capacity(self):
        with pytest.raises(ValidationError, match="capacity"):
            WinchSchedule(5.0, -0.2, capacity=3.0)
        assert WinchSchedule(3.0, -0.2, capacity=3.0).length_at(0.0) == 3.0

    def test_weights_validation(self):
        with pytest.raises(ValidationError):
            PenaltyWeights(cable=-1.0)
        PenaltyWeights(velocity=0.0)  # zero is allowed

    def test_obstacle_plane(self):
        ObstaclePlane(point=[0, 0, 0], normal=[0, 0, 1])
        with pytest.raises(ValidationError):
            ObstaclePlane(point=[0, 0, 0], normal=[0, 0, 2])

    def test_winch_schedule_clipping(self):
        winch = WinchSchedule(1.0, -0.5, capacity=1.2)
        ts = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(winch.length_at(ts), [1.0, 0.5, 0.0])
        np.testing.assert_allclose(winch.rate_at(ts), [-0.5, -0.5, 0.0])
        grow = WinchSchedule(1.0, 0.5, capacity=1.2)
        np.testing.assert_allclose(grow.length_at(ts), [1.0, 1.2, 1.2])
        assert grow.rate_at(2.0) == 0.0

    def test_scenario_validation(self):
        with pytest.raises(ValidationError):
            make_scenario(goal_position=[np.nan, 0, 0])
        with pytest.raises(ValidationError):
            make_scenario(segment_count=0)
        with pytest.raises(ValidationError):
            make_scenario(yaw=4.0)
        sc = make_scenario()
        np.testing.assert_allclose(sc.gravity_vector, [0, 0, -9.81])


class TestSampleTimes:
    def test_three_point_grid(self):
        np.testing.assert_array_equal(sample_times(0.0, 1.0, 2), [0.0, 0.5, 1.0])

    def test_endpoints_exact(self):
        ts = sample_times(0.0, 2.7, 32)
        assert ts[0] == 0.0 and ts[-1] == 2.7
        assert ts.size == 33


class TestHingeIdentities:
    """Single-active-sample constructions with hand-computable values."""

    def test_velocity_hinge_exact_one(self):
        # v(t) = (2, 1, 0) * (1 - t): only the t = 0 sample exceeds v_max = 2,
        # with |v|^2 - v_max^2 = 5 - 4 = 1 and contribution 1^3.
        breakdown = total_cost(*one_segment(
            {1: [2.0, 1.0, 0.0], 2: [-1.0, -0.5, 0.0]},
            limits=Limits(samples=4), weights=only(velocity=1.0)))[0]
        assert breakdown.velocity == pytest.approx(1.0, abs=1e-12)

    def test_cable_hinge_exact_eight(self):
        # Droid starts directly below the anchor (p = 0, gap 2 m), so the
        # sag-limited bound is exactly 2 + 2 * 0.1 = 2.2 m.  The released
        # length is sqrt(6.84), making the squared-length excess exactly 2
        # at t = 0.
        # The droid then descends 0.48 m, which widens the corridor enough
        # to deactivate both hinges at the later samples.
        breakdown = total_cost(*one_segment(
            {1: [0.0, 0.0, -1.44], 2: [0.0, 0.0, 0.96]},
            anchor_position=[0.0, 0.0, 2.0],
            winch=WinchSchedule(math.sqrt(6.84), 0.0),
            limits=Limits(samples=2), weights=only(cable=1.0)))[0]
        assert breakdown.cable == pytest.approx(8.0, abs=1e-12)

    def test_obstacle_hinge_exact(self):
        # distance 0.1 against margin 0.3 at the first sample only
        plane = ObstaclePlane(point=[0, 0, 0], normal=[0, 0, 1])
        breakdown = total_cost(*one_segment(
            {0: [0.0, 0.0, 0.1], 1: [0.0, 0.0, 3.0]}, obstacles=(plane,),
            limits=Limits(samples=2, obstacle_margin=0.3),
            weights=only(obstacle=1.0)))[0]
        assert breakdown.obstacle == pytest.approx(0.2 ** 3, abs=1e-12)

    def test_thrust_free_fall_and_hover(self):
        g_half = np.array([0.0, 0.0, -9.81]) / 2.0
        kw = dict(limits=Limits(samples=2), weights=only(thrust=1.0))
        breakdown = total_cost(*one_segment({2: g_half}, **kw))[0]
        assert breakdown.thrust == pytest.approx(3 * (2.0 ** 2) ** 3,
                                                 abs=1e-12)
        hover = one_segment({0: [1.0, 0.0, 1.0]}, **kw)
        assert total_cost(*hover)[0].thrust == 0.0

    def test_inactive_hinges_contribute_zero(self):
        # three slow segments: the feasibility hinges leave the value, the
        # gradient and the worst hinge report exactly as without them
        cruise = dict(start_state=BoundaryState([0, 0, 0], [0.1, 0, 0],
                                                [0, 0, 0], [0, 0, 0]),
                      goal_position=[0.3, 0.0, 0.0],
                      goal_velocity=[0.1, 0.0, 0.0], segment_count=3,
                      limits=Limits(samples=8))
        weighed = make_scenario(weights=only(velocity=1.0, accel_jerk=1.0),
                                **cruise)
        unweighed = make_scenario(weights=only(), **cruise)
        waypoints = [[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]
        breakdown, dj_dq, dj_dt, worst = total_cost(waypoints, 3.0, weighed)
        base, base_dq, base_dt, _ = total_cost(waypoints, 3.0, unweighed)
        assert breakdown.velocity == breakdown.acceleration \
            == breakdown.jerk == 0.0
        assert worst["velocity"] == worst["acceleration"] \
            == worst["jerk"] == 0.0
        assert breakdown == base
        assert dj_dq.shape == (2, 3)
        assert dj_dq.tobytes() == base_dq.tobytes() and dj_dt == base_dt


class TestBreakdown:
    def test_fields_sum_to_total(self):
        b = CostBreakdown(smoothness=1.25, time=2.0, velocity=0.5,
                          acceleration=0.25, jerk=0.125, thrust=3.0,
                          obstacle=0.0625, cable=4.0)
        assert b.total == pytest.approx(sum(dataclasses.astuple(b)),
                                        abs=1e-12)

    def test_zero_weights_leave_smoothness_plus_time(self):
        scenario = make_scenario(
            weights=PenaltyWeights(0.0, 0.0, 0.0, 0.0, 0.0))
        waypoints = [[0.5, 0.2, 0.1], [1.0, -0.2, 0.3], [1.5, 0.1, 0.2]]
        breakdown = total_cost(waypoints, 2.0, scenario)[0]
        assert breakdown.velocity == 0.0 and breakdown.cable == 0.0
        assert breakdown.total == pytest.approx(
            breakdown.smoothness + scenario.limits.time_weight * 2.0,
            rel=1e-12)

    def test_weights_scale_contributions_linearly(self):
        lim = Limits(v_max=0.3)
        base = make_scenario(limits=lim,
                             weights=PenaltyWeights(velocity=1.0))
        scaled = make_scenario(limits=lim,
                               weights=PenaltyWeights(velocity=1e4))
        waypoints = [[0.5, 0.0, 0.4], [1.0, 0.3, 0.0], [1.5, 0.0, 0.1]]
        b0 = total_cost(waypoints, 2.0, base)[0]
        b1 = total_cost(waypoints, 2.0, scaled)[0]
        assert b0.velocity > 0.0
        assert b1.velocity == pytest.approx(1e4 * b0.velocity, rel=1e-12)


def random_scenario(rng):
    """Scenario with tight limits so several hinges are active."""
    anchor = np.array([-2.0, 0.0, 2.5]) + 0.3 * rng.standard_normal(3)
    anchor[1] = 0.0
    start = BoundaryState(
        position=0.2 * rng.standard_normal(3),
        velocity=0.2 * rng.standard_normal(3),
        acceleration=0.3 * rng.standard_normal(3),
        jerk=0.3 * rng.standard_normal(3),
    )
    goal = np.array([2.0, 0.0, 1.0]) + 0.4 * rng.standard_normal(3)
    plane = ObstaclePlane(point=[0.0, 0.0, -0.3 + 0.1 * rng.random()],
                          normal=[0.0, 0.0, 1.0])
    return make_scenario(
        start_state=start,
        goal_position=goal,
        goal_velocity=0.2 * rng.standard_normal(3),
        anchor_position=anchor,
        winch=WinchSchedule(float(rng.uniform(2.0, 3.5)),
                            float(rng.uniform(-0.3, 0.3))),
        obstacles=(plane,),
        limits=Limits(v_max=0.8, a_max=2.5, j_max=8.0,
                      tau_min=9.0, tau_max=10.5, samples=16,
                      corridor_margin=0.02),
        weights=PenaltyWeights(velocity=10.0, accel_jerk=10.0, thrust=10.0,
                               cable=100.0, obstacle=100.0),
        segment_count=4,
    )


def random_waypoints(scenario, rng):
    n = scenario.segment_count
    fractions = np.arange(1, n)[:, None] / n
    line = scenario.start_state.position + fractions * (
        scenario.goal_position - scenario.start_state.position)
    return line + 0.5 * rng.standard_normal(line.shape)


class ReferenceSamples:
    """The samples as the planner reads them before its hinge table: the
    trajectory, the sample times, derivative orders 0..4 at every sample
    through the sampling operator, each sample's fraction of its segment
    and its place along the grid in segments."""

    def __init__(self, waypoints, duration, scenario):
        kappa = scenario.limits.samples
        self.traj = plan_at((waypoints, duration), scenario)
        n_seg = self.traj.segment_count
        self.ts = np.linspace(0.0, duration, kappa + 1)
        operator, self.time_motion = _sample_grid(n_seg, kappa)
        index = np.arange(kappa + 1)
        seg = np.minimum(index * n_seg // kappa, n_seg - 1)
        self.tau_motion = (index * n_seg - seg * kappa) / kappa
        powers = time_powers(duration / n_seg)
        self.deriv = (operator @ _rhs(waypoints, duration, scenario)
                      ).reshape(5, kappa + 1, 3) / powers[:5, None, None]


def reference_pullback(traj, dj_dcoef, dj_ddt):
    """(dJ/dq, dJ/dT) from the partials of J over the coefficients at fixed
    dT and over dT at fixed coefficients, by the adjoint of the
    construction, as the planner once pulled its slopes back: mu =
    M(1)^-T (g / dT^k), and the closed-form motion of M(dT) and of the
    boundary rows with dT."""
    n_seg = traj.segment_count
    n_wp = n_seg - 1
    dt = traj.segment_duration
    powers = time_powers(dt)
    mu = rhs_columns(n_seg).T @ (dj_dcoef / powers[:, None]).reshape(-1, 3)
    c = traj.coefficients
    first = c[0] * powers[:, None]
    last = FALLING[1] @ (c[-1] * powers[:, None])
    boundary = float(mu[n_wp + 1] @ first[1] + 4.0 * (mu[n_wp + 2] @ first[2])
                     + 18.0 * (mu[n_wp + 3] @ first[3]) + mu[-1] @ last)
    moved = float(np.sum(dj_dcoef * (np.arange(NCOEF)[:, None] * c)))
    return mu[:n_wp], (dj_ddt - (moved - boundary) / dt) / n_seg


def reference_hinge(args, shift):
    """max(args + shift, 0)^3 and its slope, without the planner's helper."""
    clamped = np.maximum(args if shift is None else args + shift, 0.0)
    return clamped ** 3, 3.0 * clamped ** 2


def reference_window_term(samples, order, low_sq, high_sq, offset=None,
                          shift=None):
    """One window hinge term, pulled back on its own, as the planner once
    computed it.  ``shift`` holds the term's rows of the shift table:
    (over) for a limit, (under, over) for a band."""
    d = samples.deriv[order]
    if offset is not None:
        d = d - offset
    nsq = np.sum(d * d, axis=1)
    slope = np.zeros_like(nsq)
    value = 0.0
    over = nsq - high_sq
    under = None if low_sq is None else low_sq - nsq
    shift_over = None if shift is None else shift[-1]
    hinge, hinge_slope = reference_hinge(over, shift_over)
    value += float(np.sum(hinge))
    slope += hinge_slope
    worst = float(np.max(over))
    if under is not None:
        hinge, hinge_slope = reference_hinge(
            under, None if shift is None else shift[0])
        value += float(np.sum(hinge))
        slope -= hinge_slope
        worst = float(np.max(np.maximum(under, over)))
    gvec = 2.0 * d * slope[:, None]
    grad_c = np.zeros_like(samples.traj.coefficients)
    reference_accumulate(samples, grad_c, order, gvec)
    grad_ddt = float(np.sum(np.sum(gvec * samples.deriv[order + 1], axis=1)
                            * samples.tau_motion))
    return value, grad_c, grad_ddt, worst


# The planner's pullback and corridor hinge as they stood before the
# sampling operator and its hinge table, kept verbatim but for the sample
# grid and the shifts: each sample's basis row in tau, on its segment, one
# np.add.at per term.  Values and worst arguments must match bit for bit,
# gradients to 1e-12 of their largest entry.
def reference_accumulate(samples, grad_c, order, gvec):
    """Add each sample's (basis x gvec) outer product to its segment."""
    n_seg = samples.traj.segment_count
    kappa = samples.ts.size - 1
    seg = np.minimum(np.arange(kappa + 1) * n_seg // kappa, n_seg - 1)
    basis = basis_rows_upto(
        samples.tau_motion * samples.traj.segment_duration, order)[order]
    np.add.at(grad_c, seg, basis[:, :, None] * gvec[:, None, :])


def reference_ddt_from_motion(samples, order, gvec):
    """Direct dT contribution of an order-``order`` sampled penalty."""
    return float(np.add.reduce(
        np.add.reduce(gvec * samples.deriv[order + 1], axis=1)
        * samples.tau_motion))


def reference_cable_penalty(samples, scenario, shift=None):
    """(value, grad_c, grad_ddt, worst squared-length excess)."""
    margin = scenario.limits.corridor_margin
    l_min, l_max, dlmin_dp, dlmax_dp = cable.corridor_bounds_and_gradient(
        samples.deriv[0], scenario.anchor_position, scenario.cable)
    l_min_eff = l_min + margin
    l_max_eff = l_max - margin
    l_now = scenario.winch.length_at(samples.ts)
    rate = scenario.winch.rate_at(samples.ts)

    under = l_min_eff ** 2 - l_now ** 2
    over = l_now ** 2 - l_max_eff ** 2
    hinge_under, slope_under = reference_hinge(
        under, None if shift is None else shift[0])
    hinge_over, slope_over = reference_hinge(
        over, None if shift is None else shift[1])
    value = float(np.add.reduce(hinge_under) + np.add.reduce(hinge_over))

    gvec = (2.0 * l_min_eff * slope_under)[:, None] * dlmin_dp \
        - (2.0 * l_max_eff * slope_over)[:, None] * dlmax_dp
    grad_c = np.zeros_like(samples.traj.coefficients)
    reference_accumulate(samples, grad_c, 0, gvec)
    grad_ddt = reference_ddt_from_motion(samples, 0, gvec)
    # the winch schedule is a function of absolute time, which scales with T
    lnow_sens = 2.0 * l_now * rate * (slope_over - slope_under)
    grad_ddt += float(np.add.reduce(lnow_sens * samples.time_motion))
    return value, grad_c, grad_ddt, float(np.max(np.maximum(under, over)))


def reference_obstacle_term(samples, obstacles, margin, shift=None):
    """(value, grad_c, grad_ddt, worst) of the obstacle hinges."""
    pos = samples.deriv[0]
    value = 0.0
    worst = -math.inf
    gvec = np.zeros_like(pos)
    for k, plane in enumerate(obstacles):
        dist = (pos - plane.point) @ plane.normal
        short = margin - dist
        hinge, slope = reference_hinge(short,
                                       None if shift is None else shift[k])
        value += float(np.add.reduce(hinge))
        gvec -= np.outer(slope, plane.normal)
        worst = max(worst, float(np.max(short)))
    grad_c = np.zeros_like(samples.traj.coefficients)
    reference_accumulate(samples, grad_c, 0, gvec)
    return value, grad_c, reference_ddt_from_motion(samples, 0, gvec), worst


def reference_total_cost(waypoints, duration, scenario, shifts=None):
    """total_cost built from the reference terms above, on the planner's
    smoothness and time terms (total_cost with every weight 0).
    ``shifts`` is laid out as the hinge table: velocity, acceleration,
    jerk, thrust under and over, one row per obstacle plane when obstacles
    are weighted, corridor under and over when the cable is weighted."""
    weights = scenario.weights
    limits = scenario.limits

    def rows(first, count):
        return None if shifts is None else shifts[first:first + count]

    base, grad_q, grad_t, _ = total_cost(
        waypoints, duration, dataclasses.replace(scenario, weights=only()))
    samples = ReferenceSamples(waypoints, duration, scenario)
    grad_c = np.zeros_like(samples.traj.coefficients)
    grad_ddt = 0.0
    terms = [
        ("velocity", weights.velocity,
         reference_window_term(samples, 1, None, limits.v_max ** 2,
                               shift=rows(0, 1))),
        ("acceleration", weights.accel_jerk,
         reference_window_term(samples, 2, None, limits.a_max ** 2,
                               shift=rows(1, 1))),
        ("jerk", weights.accel_jerk,
         reference_window_term(samples, 3, None, limits.j_max ** 2,
                               shift=rows(2, 1))),
        ("thrust", weights.thrust,
         reference_window_term(samples, 2, limits.tau_min ** 2,
                               limits.tau_max ** 2, scenario.gravity_vector,
                               shift=rows(3, 2)))]
    parts = {"obstacle": 0.0, "cable": 0.0}
    worst = {"obstacle": 0.0, "cable": 0.0}
    planes = 0
    if scenario.obstacles and weights.obstacle != 0.0:
        planes = len(scenario.obstacles)
        terms.append(("obstacle", weights.obstacle, reference_obstacle_term(
            samples, scenario.obstacles, limits.obstacle_margin,
            rows(5, planes))))
    if weights.cable != 0.0:
        terms.append(("cable", weights.cable, reference_cable_penalty(
            samples, scenario, rows(5 + planes, 2))))

    for name, weight, (value, gc, ddt, peak) in terms:
        parts[name] = weight * value
        worst[name] = max(peak, 0.0) if weight > 0.0 else 0.0
        if weight != 0.0:
            grad_c = grad_c + weight * gc
            grad_ddt += weight * ddt

    breakdown = CostBreakdown(smoothness=base.smoothness, time=base.time,
                              **parts)
    dj_dq, dj_dt = reference_pullback(samples.traj, grad_c, grad_ddt)
    # the report lists the terms in the breakdown's order
    order = ("velocity", "acceleration", "jerk", "thrust", "obstacle",
             "cable")
    # dJ/dT sums the two parts, which can nearly cancel: their size sets
    # the rounding a comparison of it must allow
    return breakdown, grad_q + dj_dq, grad_t + dj_dt, \
        {name: worst[name] for name in order}, abs(grad_t) + abs(dj_dt)


def assert_close_gradient(got, want):
    """got within 1e-12 of want's largest entry (of its absolute value, for
    a scalar)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) \
        <= 1e-12 * np.max(np.abs(want), initial=0.0)


def drawn_plan(seed, kappa, duration, planes=1, **limits):
    """A random_scenario with ``kappa`` samples and ``planes`` obstacle
    planes (the second one a tilted wall), and random waypoints and the
    duration on it: (scenario, waypoints, duration)."""
    rng = np.random.default_rng(seed)
    scenario = random_scenario(rng)
    obstacles = scenario.obstacles + (
        ObstaclePlane(point=[1.5 + 0.2 * rng.random(), 0.0, 0.0],
                      normal=[-0.6, 0.0, 0.8]),)
    scenario = dataclasses.replace(
        scenario, obstacles=obstacles[:planes],
        limits=dataclasses.replace(scenario.limits, samples=kappa, **limits))
    return scenario, random_waypoints(scenario, rng), duration


def assert_same_cost(got, want):
    assert repr(dataclasses.astuple(got[0])) == \
        repr(dataclasses.astuple(want[0]))
    assert got[1].tobytes() == want[1].tobytes()
    assert repr(got[2]) == repr(want[2])
    assert repr(got[3]) == repr(want[3])


def assert_close_cost(got, want):
    """Bit-equal breakdown and worst arguments against the reference, dJ/dq
    to 1e-12 of its largest entry and dJ/dT to 1e-12 of the size of the
    two parts the reference sums it from."""
    assert repr(dataclasses.astuple(got[0])) == \
        repr(dataclasses.astuple(want[0]))
    assert_close_gradient(got[1], want[1])
    assert abs(got[2] - want[2]) <= 1e-12 * want[4]
    assert repr(got[3]) == repr(want[3])


def assert_term_matches_reference(scenario, waypoints, duration, **weights):
    """total_cost with only the named weights matches the reference."""
    alone = dataclasses.replace(scenario, weights=only(**weights))
    assert_close_cost(total_cost(waypoints, duration, alone),
                      reference_total_cost(waypoints, duration, alone))


plans = dict(seed=st.integers(0, 2 ** 32 - 1), kappa=st.integers(2, 64),
             duration=st.floats(0.5, 8.0))


class TestWindowTerms:
    @given(**plans)
    @settings(max_examples=40, deadline=None)
    def test_limit_and_thrust_terms_match_reference(
            self, seed, kappa, duration):
        plan = drawn_plan(seed, kappa, duration)
        for weights in ({"velocity": 1.0}, {"accel_jerk": 1.0},
                        {"thrust": 1.0}):
            assert_term_matches_reference(*plan, **weights)


class TestPullback:
    @given(**plans, margin=st.sampled_from([0.0, 0.02, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_cable_term_matches_reference(self, seed, kappa, duration,
                                          margin):
        plan = drawn_plan(seed, kappa, duration, corridor_margin=margin)
        assert_term_matches_reference(*plan, cable=1.0)

    @given(**plans, planes=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_obstacle_term_matches_reference_pullback(self, seed, kappa,
                                                      duration, planes):
        plan = drawn_plan(seed, kappa, duration, planes)
        assert_term_matches_reference(*plan, obstacle=1.0)

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_corridor_violation_matches_reference(self, seed, size):
        rng = np.random.default_rng(seed)
        l_min = rng.uniform(0.0, 4.0, size)
        l_max = l_min + rng.uniform(0.0, 1.0, size)
        l_now = rng.uniform(0.0, 5.0, size)
        want = np.maximum(l_min ** 2 - l_now ** 2, l_now ** 2 - l_max ** 2)
        assert repr(corridor_violation(l_min, l_now, l_max)) == \
            repr(max(float(np.max(want)), 0.0))


WEIGHTS = ("velocity", "accel_jerk", "thrust", "cable", "obstacle")


class TestShifts:
    @given(**plans, margin=st.sampled_from([0.0, 0.02, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_zero_shifts_leave_total_cost_bit_identical(
            self, seed, kappa, duration, margin):
        plan = drawn_plan(seed, kappa, duration, corridor_margin=margin)
        plain = total_cost(*plan[1:], plan[0])
        assert_close_cost(plain, reference_total_cost(*plan[1:], plan[0]))
        zero = np.zeros_like(_shift_update(*plan[1:], plan[0], None))
        assert_same_cost(total_cost(*plan[1:], plan[0], zero), plain)

    @given(**plans, planes=st.integers(0, 2),
           zeroed=st.sets(st.sampled_from(WEIGHTS)),
           shift_seed=st.integers(0, 2 ** 32 - 1),
           margin=st.sampled_from([0.0, 0.02]))
    @settings(max_examples=60, deadline=None)
    def test_shifted_cost_matches_reference(self, seed, kappa, duration,
                                            planes, zeroed, shift_seed,
                                            margin):
        """Nonzero shifts, up to two obstacle planes and any set of zeroed
        weights: bit-equal breakdown and worst, gradients to 1e-12."""
        scenario, waypoints, duration = drawn_plan(
            seed, kappa, duration, planes, corridor_margin=margin)
        scenario = dataclasses.replace(scenario, weights=dataclasses.replace(
            scenario.weights, **dict.fromkeys(zeroed, 0.0)))
        rng = np.random.default_rng(shift_seed)
        table = _shift_update(waypoints, duration, scenario, None)
        # a spread of shifts, a quarter of them exactly 0, scaled to each
        # row's arguments so that they move hinges in and out
        scale = np.abs(_hinge_table(_rhs(waypoints, duration, scenario),
                                    duration, scenario)[1]).max(
            axis=1, keepdims=True)
        shifts = scale * rng.uniform(0.0, 1.0, table.shape) \
            * (rng.random(table.shape) > 0.25)
        assert_close_cost(
            total_cost(waypoints, duration, scenario, shifts),
            reference_total_cost(waypoints, duration, scenario, shifts))

    def test_shift_update_on_one_hinge(self):
        # v(t) = (2, 1, 0) * (1 - t) on 5 samples: the hinge arguments
        # |v|^2 - 4 are 1 at t = 0 and negative after it
        plan = one_segment({1: [2.0, 1.0, 0.0], 2: [-1.0, -0.5, 0.0]},
                           limits=Limits(samples=4),
                           weights=only(velocity=2.0))
        args = 5.0 * (1.0 - np.linspace(0.0, 1.0, 5)) ** 2 - 4.0
        shifts = _shift_update(*plan, None)
        # velocity, acceleration, jerk, thrust under and over; no obstacle
        # or corridor rows without their weights
        assert shifts.shape == (5, 5)
        np.testing.assert_array_equal(shifts[0], np.maximum(args, 0.0))
        # Powell's update adds the arguments to the shifts, floored at 0
        start = np.zeros((5, 5))
        start[0] = 0.5
        shifts = _shift_update(*plan, start)
        np.testing.assert_allclose(shifts[0], np.maximum(args + 0.5, 0.0),
                                   rtol=1e-15)
        # the shifted hinge prices max(g + s, 0)^3; worst stays unshifted
        breakdown, _, _, worst = total_cost(*plan, shifts)
        assert breakdown.velocity == pytest.approx(
            2.0 * np.sum(np.maximum(args + shifts[0], 0.0) ** 3),
            rel=1e-12)
        assert worst["velocity"] == pytest.approx(1.0, rel=1e-12)


class TestJerkHessian:
    @given(segments=st.integers(2, 10), dt=st.floats(0.1, 5.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scales_as_dt_to_the_minus_five(self, segments, dt, seed):
        """The waypoint block of H dT^-5 is the Hessian probed at any
        boundary values and any base waypoints, on every axis."""
        rng = np.random.default_rng(seed)
        goal, goal_velocity = rng.standard_normal((2, 3))
        scenario = make_scenario(
            start_state=BoundaryState(*rng.standard_normal((4, 3))),
            goal_position=goal, goal_velocity=goal_velocity,
            segment_count=segments, weights=only())
        base = rng.standard_normal((segments - 1, 3))

        def gradient(q):
            return total_cost(q, segments * dt, scenario)[1]

        n_wp = segments - 1
        expected = _jerk_hessian(segments)[0][:n_wp, :n_wp] * dt ** -5
        scale = np.max(np.abs(expected))
        at_base = gradient(base)
        for i in range(segments - 1):
            bumped = base.copy()
            bumped[i] += 1.0
            column = gradient(bumped) - at_base
            assert np.max(np.abs(column - expected[:, i, None])) \
                <= 1e-11 * scale

    @pytest.mark.parametrize("segments", [1, 2, 6, 10])
    def test_whitening_makes_the_hessian_the_identity(self, segments):
        hessian, whitening = _jerk_hessian(segments)
        n_wp = segments - 1
        np.testing.assert_allclose(
            whitening.T @ hessian[:n_wp, :n_wp] @ whitening, np.eye(n_wp),
            atol=1e-6)


class TestGradients:
    def evaluate(self, scenario, waypoints, duration):
        return total_cost(waypoints, duration, scenario)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(9000 + seed)
        scenario = random_scenario(rng)
        waypoints = random_waypoints(scenario, rng)
        duration = float(rng.uniform(2.0, 4.0))

        breakdown, dj_dq, dj_dt, _ = self.evaluate(scenario, waypoints,
                                                   duration)
        penalty_total = breakdown.total - breakdown.smoothness - breakdown.time
        assert penalty_total > 0.0, "scenario draw produced no active hinge"

        step = 1e-6
        for i in range(waypoints.size):
            bumped = waypoints.copy().ravel()
            bumped[i] += step
            plus = self.evaluate(scenario, bumped.reshape(-1, 3), duration)[0]
            bumped[i] -= 2 * step
            minus = self.evaluate(scenario, bumped.reshape(-1, 3), duration)[0]
            fd = (plus.total - minus.total) / (2 * step)
            assert dj_dq.ravel()[i] == pytest.approx(
                fd, rel=1e-4, abs=1e-5 * max(1.0, abs(fd)))

        plus = self.evaluate(scenario, waypoints, duration + step)[0]
        minus = self.evaluate(scenario, waypoints, duration - step)[0]
        fd_t = (plus.total - minus.total) / (2 * step)
        assert dj_dt == pytest.approx(fd_t, rel=1e-4,
                                      abs=1e-5 * max(1.0, abs(fd_t)))

    def test_duration_gradient_sees_winch_schedule(self):
        # A pure time shift changes the released length at each sample,
        # which the corridor hinge must feel even for a frozen path shape.
        rng = np.random.default_rng(77)
        scenario = make_scenario(
            winch=WinchSchedule(2.4, 0.4),
            limits=Limits(corridor_margin=0.0, samples=8),
            weights=PenaltyWeights(velocity=0.0, accel_jerk=0.0, thrust=0.0,
                                   cable=1.0, obstacle=0.0),
        )
        waypoints = random_waypoints(scenario, rng)
        duration = 3.0
        dj_dt = self.evaluate(scenario, waypoints, duration)[2]
        step = 1e-6
        plus = self.evaluate(scenario, waypoints, duration + step)[0]
        minus = self.evaluate(scenario, waypoints, duration - step)[0]
        fd_t = (plus.total - minus.total) / (2 * step)
        assert abs(fd_t) > 1e-6
        assert dj_dt == pytest.approx(fd_t, rel=1e-4)


class TestViolationsAndCorridor:
    def test_clean_trajectory_reports_zero(self):
        # hover with the released length strictly inside the corridor:
        # every hinge argument is negative, so every report is exactly zero
        start = np.array([0.5, 0.0, 0.0])
        scenario = make_scenario(start_state=BoundaryState.at_rest(start),
                                 goal_position=start,
                                 winch=WinchSchedule(3.25, 0.0))
        waypoints = np.tile(start, (3, 1))
        violations = total_cost(waypoints, 3.0, scenario)[3]
        assert set(violations) == {"velocity", "acceleration", "jerk",
                                   "thrust", "obstacle", "cable"}
        assert all(v == 0.0 for v in violations.values())
        assert dense_violation(plan_at((waypoints, 3.0), scenario),
                               scenario, 320) == 0.0

    def test_violating_speed_is_measured(self):
        violations = total_cost(*one_segment(
            {1: [3.0, 0.0, 0.0]}, winch=WinchSchedule(3.2, 0.0),
            limits=Limits(samples=4)))[3]
        assert violations["velocity"] == pytest.approx(9.0 - 4.0, rel=1e-12)

    def test_corridor_profile_and_violation(self):
        scenario = make_scenario(anchor_position=[0.0, 0.0, 0.0],
                                 winch=WinchSchedule(10.0, 0.0),
                                 segment_count=1)
        traj = make_traj([{0: [2.0, 0.0, 1.0]}], 1.0)
        ts, l_min, l_now, l_max = corridor_profile(traj, scenario, 4)
        assert ts.size == 5
        np.testing.assert_allclose(l_min, math.hypot(2.0, 1.0), rtol=1e-12)
        np.testing.assert_allclose(l_now, 10.0)
        worst = corridor_violation(l_min, l_now, l_max)
        assert worst == pytest.approx(100.0 - float(l_max[0]) ** 2, rel=1e-9)

    def test_margin_tightens_planning_hinges_only(self):
        # l_now sits exactly on the chord: fine for the true corridor,
        # flagged once a margin is requested.
        hover = dict(anchor_position=[0.0, 0.0, 0.0],
                     winch=WinchSchedule(math.hypot(2, 1), 0.0))
        plan = one_segment({0: [2.0, 0.0, 1.0]}, **hover)
        tight = one_segment({0: [2.0, 0.0, 1.0]},
                            limits=Limits(corridor_margin=0.05), **hover)
        traj = make_traj([{0: [2.0, 0.0, 1.0]}], 1.0)
        assert dense_violation(traj, plan[2], 8) == 0.0
        assert total_cost(*plan)[3]["cable"] == pytest.approx(0.0, abs=1e-9)
        assert total_cost(*tight)[3]["cable"] > 0.0


class TestOnePass:
    @pytest.mark.parametrize("cable_weight, solves", [(1e5, 1), (0.0, 0)])
    def test_one_sag_solve_per_evaluation(self, monkeypatch, cable_weight,
                                          solves):
        calls = []
        real_solve = cable._sag_solve_batch

        def counted(*args, **kwargs):
            calls.append(args)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cable, "_sag_solve_batch", counted)
        scenario = random_scenario(np.random.default_rng(5))
        scenario = make_scenario(
            anchor_position=scenario.anchor_position,
            winch=scenario.winch, obstacles=scenario.obstacles,
            limits=scenario.limits,
            weights=PenaltyWeights(cable=cable_weight))
        total_cost(random_waypoints(scenario, np.random.default_rng(6)),
                   3.0, scenario)
        assert len(calls) == solves

    def test_one_inversion_per_segment_count(self, monkeypatch):
        """An evaluation at a segment count seen before inverts nothing: it
        multiplies by the cached operators.  Cold caches invert once."""
        scenario = random_scenario(np.random.default_rng(5))
        waypoints = random_waypoints(scenario, np.random.default_rng(6))

        def evaluate():
            total_cost(waypoints, 3.0, scenario)

        evaluate()
        calls = []
        real_inv = np.linalg.inv

        def counted(matrix):
            calls.append(matrix.shape)
            return real_inv(matrix)

        monkeypatch.setattr(np.linalg, "inv", counted)
        evaluate()
        assert calls == []
        for cache in (_unit_inverse, _sample_grid, _jerk_hessian):
            cache.cache_clear()
        evaluate()
        assert calls == [(6 * scenario.segment_count,) * 2]

    def test_optimize_reports_its_final_evaluation(self, monkeypatch):
        """The plan is built once, at the point whose evaluation the
        result reports."""
        scenario = random_scenario(np.random.default_rng(11))
        points = record_construct(monkeypatch)
        result = optimize(scenario, max_iterations=15)
        assert len(points) == 1
        assert result.trajectory.coefficients.tobytes() \
            == plan_at(points[0], scenario).coefficients.tobytes()
        breakdown, _, _, worst = total_cost(*points[0], scenario)
        assert result.breakdown == breakdown
        assert result.max_violation == max(worst.values())
        assert result.penalties_ok == (result.max_violation
                                       < optimizer.VIOLATION_TOL)


class TestSampleGrid:
    @given(segments=st.integers(1, 10), kappa=st.integers(2, 64),
           duration=st.floats(0.1, 50.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_operator_samples_match_evaluate_batch(self, segments, kappa,
                                                   duration, seed):
        """Orders 0..4 at the sample times, to 1e-10 of the largest sum of
        absolute terms; at a joint the two read either side's limit."""
        rng = np.random.default_rng(seed)
        waypoints = rng.standard_normal((segments - 1, 3))
        goal, goal_velocity = rng.standard_normal((2, 3))
        scenario = make_scenario(
            start_state=BoundaryState(*rng.standard_normal((4, 3))),
            goal_position=goal, goal_velocity=goal_velocity,
            segment_count=segments, limits=Limits(samples=kappa),
            weights=only())
        traj = plan_at((waypoints, duration), scenario)
        deriv = _hinge_table(_rhs(waypoints, duration, scenario), duration,
                             scenario)[2]
        ts = sample_times(0.0, traj.duration, kappa)
        bound = Trajectory(np.abs(traj.coefficients), traj.segment_duration)
        for order in range(5):
            want = traj.evaluate_batch(ts, order)
            scale = np.max(np.abs(bound.evaluate_batch(ts, order)))
            assert np.max(np.abs(deriv[order] - want)) <= 1e-10 * scale

    def test_cleared_caches_give_byte_identical_plans(self):
        scenario = make_scenario(winch=WinchSchedule(3.7, 0.1))
        first = optimize(scenario, max_iterations=30)
        for cache in (_unit_inverse, _sample_grid, _jerk_hessian):
            cache.cache_clear()
        second = optimize(scenario, max_iterations=30)
        assert first.trajectory.coefficients.tobytes() \
            == second.trajectory.coefficients.tobytes()
        assert first.trajectory.duration == second.trajectory.duration
        assert first.iterations == second.iterations
        assert first.breakdown == second.breakdown

    @pytest.mark.parametrize("segments, kappa", [(1, 2), (6, 32), (10, 64)])
    def test_cached_arrays_are_read_only(self, segments, kappa):
        arrays = [_unit_inverse(segments), *_sample_grid(segments, kappa),
                  _JERK_GRAM]
        if segments > 1:
            arrays += _jerk_hessian(segments)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1
            with pytest.raises(ValueError, match="read-only"):
                array += 1


class TestInitialGuess:
    @pytest.mark.parametrize("segments", [2, 4, 6, 10])
    def test_waypoints_minimize_the_jerk_energy(self, segments):
        rng = np.random.default_rng(segments)
        scenario = make_scenario(
            segment_count=segments,
            start_state=BoundaryState(*rng.standard_normal((4, 3))),
            goal_velocity=rng.standard_normal(3),
            winch=WinchSchedule(3.0, 0.2))
        waypoints, duration = initial_guess(scenario)
        assert duration > 0.0

        unweighted = dataclasses.replace(scenario, weights=only())

        def jerk_gradient(q):
            return total_cost(q, duration, unweighted)[1]

        # the gradient at the seed is rounding noise next to the one at
        # the straight line through start and goal
        fractions = np.arange(1, segments)[:, None] / segments
        line = scenario.start_state.position + fractions * (
            scenario.goal_position - scenario.start_state.position)
        assert np.max(np.abs(jerk_gradient(waypoints))) <= \
            1e-9 * np.max(np.abs(jerk_gradient(line)))

    def test_duration_matches_winch_when_possible(self):
        # corridor at the goal runs from the sqrt(13) chord up to the
        # sag-limited 4.10243304100011; paying out from 3.0 at 0.2 m/s
        # reaches the midpoint after (center - 3) / 0.2 seconds
        scenario = make_scenario(winch=WinchSchedule(3.0, 0.2))
        _, duration = initial_guess(scenario)
        center = 0.5 * (math.sqrt(13.0) + 4.10243304100011)
        assert duration == pytest.approx((center - 3.0) / 0.2)

    def test_falls_back_to_cruise_estimate(self):
        scenario = make_scenario(winch=WinchSchedule(3.0, 0.0))
        _, duration = initial_guess(scenario)
        assert duration == pytest.approx(1.5 * 2.0 / 2.0)

    def test_single_segment_guess_is_empty(self):
        scenario = make_scenario(segment_count=1)
        waypoints, _ = initial_guess(scenario)
        assert waypoints.shape == (0, 3)


class TestOptimize:
    def oracle_scenario(self):
        # Obstacle-free, limits loose, cable penalty disabled: the optimum
        # is the classic rest-to-rest minimum-jerk quintic with the duration
        # balancing smoothness against the time weight.
        return make_scenario(
            segment_count=6,
            weights=PenaltyWeights(cable=0.0, obstacle=0.0),
        )

    @pytest.mark.parametrize("segments", [4, 6])
    def test_between_variational_bounds(self, segments):
        # The start state pins jerk to zero, so the classic rest-to-rest
        # quintic (energy 720 d^2 / T^5) is reachable but suboptimal here;
        # the variational infimum with a free goal acceleration and the
        # natural end condition is 320 d^2 / T^5, approached only as the
        # segment count grows.  The optimizer must land between the two
        # time-balanced optima.
        scenario = make_scenario(
            segment_count=segments,
            weights=PenaltyWeights(cable=0.0, obstacle=0.0))
        result = optimize(scenario)
        d = 2.0
        rho = scenario.limits.time_weight
        lower = min(320.0 * d * d / t ** 5 + rho * t
                    for t in np.linspace(1.0, 5.0, 4001))
        t_upper = (5 * 720.0 * d * d / rho) ** (1.0 / 6.0)
        upper = 720.0 * d * d / t_upper ** 5 + rho * t_upper
        assert result.status in ("converged", "max_iterations",
                                 "line_search_failure")
        assert lower * (1 - 1e-9) <= result.breakdown.total <= upper
        assert 2.0 < result.trajectory.duration < 3.2
        assert result.breakdown.velocity == 0.0
        assert result.penalties_ok

    def test_fixed_duration_is_respected(self):
        scenario = self.oracle_scenario()
        result = optimize(scenario, fixed_duration=3.0)
        assert result.trajectory.duration == pytest.approx(3.0, abs=1e-12)
        # smoothness at the pinned duration sits between the variational
        # infimum and the classic quintic energy (see the bounds test)
        assert 320.0 * 4.0 / 3.0 ** 5 * (1 - 1e-9) \
            <= result.breakdown.smoothness <= 720.0 * 4.0 / 3.0 ** 5
        with pytest.raises(ValidationError):
            optimize(scenario, fixed_duration=-1.0)

    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_budget_below_one_iteration_is_rejected(self, max_iterations):
        with pytest.raises(ValidationError, match="max_iterations"):
            optimize(make_scenario(), max_iterations=max_iterations)

    def test_goal_equals_start_degenerates_gracefully(self):
        scenario = make_scenario(
            goal_position=[0.0, 0.0, 0.0],
            winch=WinchSchedule(3.05, 0.0),
            weights=PenaltyWeights(obstacle=0.0),
            segment_count=2,
        )
        result = optimize(scenario, max_iterations=200)
        assert np.all(np.isfinite(result.trajectory.coefficients))
        assert result.trajectory.duration < 1.0
        assert result.breakdown.smoothness < 1e-6
        assert result.penalties_ok

    def test_cable_corridor_shapes_the_plan(self):
        # Paying out at 0.2 m/s from slightly above the start chord forces
        # the plan to take long enough that the goal chord fits.
        scenario = make_scenario(
            anchor_position=[-2.0, 0.0, 3.0],
            winch=WinchSchedule(3.7, 0.2),
            goal_position=[2.0, 0.0, 0.0],
            segment_count=6,
            limits=Limits(samples=32, corridor_margin=0.05),
            weights=PenaltyWeights(cable=3e7),
        )
        result = optimize(scenario)
        assert result.penalties_ok, f"violations {result.max_violation}"
        assert dense_violation(result.trajectory, scenario, 320) < 1e-3
        # the goal chord is 5 m; the schedule must have released at least
        # that much, which takes (5 - 3.7) / 0.2 = 6.5 seconds
        assert result.trajectory.duration > 6.0


def minpack_search(phi, f0, g0, stp):
    """The trial steps and the accepted step (or None) of scipy's port of
    MINPACK-2's dcsrch, driven as L-BFGS-B drives it: its constants, at
    most 20 evaluations, and a warning exit accepting the step it ends at."""
    dcsrch = pytest.importorskip("scipy.optimize._dcsrch")
    search = dcsrch.DCSRCH(None, None, 1e-3, 0.9, 0.1, 0.0, 1e10)
    stp, f, g, task = search._iterate(stp, f0, g0, b"START")
    trials = []
    while task[:2] == b"FG" and len(trials) < 20:
        trials.append(stp)
        f, g = phi(stp)
        stp, f, g, task = search._iterate(stp, f, g, task)
    return trials, stp if task[:4] in (b"CONV", b"WARN") else None


def quadratic(scales, target):
    """0.5 sum scales (x - target)^2, its gradient and, as info, the index
    of the evaluation, recording every x."""
    points = []

    def fun(x):
        points.append(x.copy())
        r = x - target
        return 0.5 * float(np.sum(scales * r * r)), scales * r, \
            len(points) - 1

    return fun, points


def rosenbrock(x):
    """The n-dimensional Rosenbrock function, its gradient and, as info,
    its value."""
    a, b = x[:-1], x[1:]
    value = float(np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2))
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    grad[1:] += 200.0 * (b - a * a)
    return value, grad, value


class TestMinimize:
    @settings(max_examples=300, deadline=None)
    @given(slope=st.floats(-3.0, 3.0), bend=st.floats(-3.0, 2.0),
           wiggle=st.floats(-3.0, 1.0), period=st.floats(-1.0, 2.0),
           wall=st.floats(-2.0, 8.0), edge=st.floats(-3.0, 1.0),
           start=st.floats(-4.0, 2.0), curved=st.booleans(),
           wavy=st.booleans())
    def test_line_search_matches_minpack_dcsrch(
            self, slope, bend, wiggle, period, wall, edge, start, curved,
            wavy):
        """Every trial step and the accepted step equal those of MINPACK-2's
        dcsrch, on lines of any scale with wiggles and a cubic hinge wall
        (exponents of ten drawn for each coefficient)."""
        d, c = -10.0 ** slope, 10.0 ** bend * curved
        a, k = 10.0 ** wiggle * wavy, 10.0 ** period
        w, t0 = 10.0 ** wall, 10.0 ** edge

        def phi(t):
            h = max(t - t0, 0.0)
            return (d * t + c * t * t + a * (1.0 - math.cos(k * t))
                    + w * h ** 3,
                    d + 2.0 * c * t + a * k * math.sin(k * t)
                    + 3.0 * w * h * h)

        trials = []

        def recorded(t):
            trials.append(t)
            return phi(t)

        accepted = _line_search(recorded, 0.0, d, 10.0 ** start)
        assert (trials, accepted) == minpack_search(phi, 0.0, d, 10.0 ** start)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 8))
    def test_direction_is_the_bfgs_inverse_update(self, seed, count):
        """The two-loop recursion gives -H g for H built from H0 = (s.y /
        y.y) I of the newest pair by the dense BFGS update, oldest pair
        first."""
        rng = np.random.default_rng(seed)
        n = 6
        root = rng.standard_normal((n, n))
        hessian = root @ root.T + np.eye(n)
        pairs = []
        for _ in range(count):
            s = rng.standard_normal(n)
            y = hessian @ s
            pairs.append((s, y, 1.0 / float(s @ y)))
        inverse = np.eye(n)
        if pairs:
            s, y, rho = pairs[-1]
            inverse *= 1.0 / (rho * float(y @ y))
        for s, y, rho in pairs:
            left = np.eye(n) - rho * np.outer(s, y)
            inverse = left @ inverse @ left.T + rho * np.outer(s, s)
        g = rng.standard_normal(n)
        np.testing.assert_allclose(_direction(g, pairs), -inverse @ g,
                                   rtol=1e-10, atol=1e-12)

    def test_first_search_starts_at_the_first_move(self):
        """A run's first trial point lies _FIRST_MOVE from its start along
        -g; the run then converges to the minimizer by a stop test."""
        scales = np.array([1.0, 10.0, 100.0, 1000.0])
        target = np.array([1.0, -2.0, 3.0, -4.0])
        fun, points = quadratic(scales, target)
        result = minimize(fun, np.zeros(4), 200)
        step = points[1] - points[0]
        gradient = -scales * target
        assert np.linalg.norm(step) == pytest.approx(optimizer._FIRST_MOVE,
                                                     rel=1e-12)
        assert step @ gradient == pytest.approx(
            -np.linalg.norm(step) * np.linalg.norm(gradient), rel=1e-12)
        assert result.status == 0 and result.nit < 200
        np.testing.assert_allclose(result.x, target, atol=1e-6)

    def test_halt_stops_where_the_iteration_limit_does(self):
        """A halt test true at iteration 3 gives the trial points, x and
        status of a run limited to 3 iterations; it is asked once per
        iteration about the iterate just accepted, and no longer once a
        stop test has passed."""
        scales = np.array([1.0, 10.0, 100.0, 1000.0])
        target = np.array([1.0, -2.0, 3.0, -4.0])
        fun, limited_points = quadratic(scales, target)
        limited = minimize(fun, np.zeros(4), 3)
        fun, points = quadratic(scales, target)
        asked = []

        def halt(iterations, info):
            asked.append((iterations, info))
            return iterations == 3

        halted = minimize(fun, np.zeros(4), 200, halt)
        assert limited.status == halted.status == 1
        assert limited.nit == halted.nit == 3
        assert halted.x.tobytes() == limited.x.tobytes()
        assert np.array(points).tobytes() == np.array(limited_points).tobytes()
        # each iteration accepts the last point its search evaluated
        assert [n for n, _ in asked] == [1, 2, 3]
        assert asked[-1][1] == halted.info == len(points) - 1

        fun, _ = quadratic(scales, target)
        asked.clear()
        converged = minimize(fun, np.zeros(4), 200,
                             lambda n, info: asked.append(n))
        assert converged.status == 0 and converged.nit > 3
        assert asked == list(range(1, converged.nit))

    def test_step_without_curvature_is_not_stored(self, monkeypatch):
        """On a plane the gradient does not change, so a step stores no
        pair, even where rounding gives the step s.g > 0: from x0 = 1e16
        a move of 0.5 along d = (-1, 1e-3) keeps only its second part."""
        def line_search(phi, f0, slope0, stp):
            phi(0.5)
            return 0.5

        monkeypatch.setattr(optimizer, "_direction",
                            lambda g, pairs: np.array([-1.0, 1e-3]))
        monkeypatch.setattr(optimizer, "_line_search", line_search)
        result = minimize(lambda x: (float(x[0] + x[1]), np.ones(2), None),
                          [1e16, 0.0], 10)
        assert result.x.tolist() == [1e16, 5e-4]
        assert (result.nit, result.status) == (1, 0)

    @pytest.mark.parametrize("start", [[-1.2, 1.0, -1.2, 1.0],
                                       [0.0, 0.0, 0.0, 0.0],
                                       [2.0, -1.0, 0.5, 3.0]],
                             ids=["classic", "origin", "far"])
    def test_value_at_accepted_iterates_never_rises(self, start):
        """On Rosenbrock's valley every accepted iterate's value is at most
        the one before, from the start to the last iterate."""
        values = [rosenbrock(np.array(start))[0]]

        def halt(iterations, value):
            values.append(value)
            return False

        result = minimize(rosenbrock, start, 500, halt)
        values.append(result.fun)
        assert result.nit >= 5 and len(values) == result.nit + 1
        assert np.all(np.diff(values) <= 0.0)


class TestFalseStopGuard:
    """A status-0 stop with a large gradient restarts L-BFGS from where it
    stopped, re-whitened."""

    @staticmethod
    def scripted_minimize(monkeypatch, legs):
        """Replace minimize by one that plays back (status, nit, max |jac|)
        legs, each reporting J = 100 one step of 0.01 past its start, and
        records every call's start, iteration limit and objective there
        and at its end."""
        calls = []
        legs = iter(legs)

        def minimize(fun, x0, maxiter, halt=None):
            status, nit, jac = next(legs)
            x = x0 + 0.01
            begin = fun(x0)[0]
            end, _, info = fun(x)
            calls.append((x0.copy(), maxiter, begin, end))
            return Minimum(x=x, fun=100.0, jac=np.full(x.shape, jac),
                           nit=nit, status=status, message="scripted",
                           info=info)

        monkeypatch.setattr(optimizer, "minimize", minimize)
        return calls

    @staticmethod
    def unweighted():
        """No hinge can bind, so no shift round follows a converged leg."""
        return make_scenario(weights=only())

    @pytest.mark.parametrize("legs, iterations, status", [
        # false stops restart until a genuine one
        ([(0, 40, 1e5), (0, 25, 1e5), (0, 10, 1e-3)], 75, "converged"),
        # the shared budget runs out
        ([(0, 40, 1e5), (0, 40, 1e5), (0, 20, 1e5)], 100, "max_iterations"),
        ([(0, 40, 1e5), (1, 60, 1e5)], 100, "max_iterations"),
        # a leg that cannot take a step ends the loop
        ([(0, 30, 1e5), (0, 0, 1e5)], 30, "line_search_failure"),
        ([(0, 30, 1e5), (2, 3, 1e5)], 33, "line_search_failure"),
        # a search that fails at a stationary point has converged
        ([(0, 30, 1e5), (2, 3, 1e-3)], 33, "converged"),
        ([(2, 7, 1e-3)], 7, "converged"),
    ])
    def test_restarts_share_the_iteration_budget(self, monkeypatch, legs,
                                                 iterations, status):
        calls = self.scripted_minimize(monkeypatch, legs)
        result = optimize(self.unweighted(), max_iterations=100)
        assert len(calls) == len(legs)
        assert result.iterations == iterations
        assert result.status == status
        assert result.multiplier_updates == 0
        budget = 100
        for (start, maxiter, _, _), (_, nit, _) in zip(calls, legs):
            assert maxiter == budget
            budget -= nit
            # every leg starts at the origin of its whitened coordinates
            assert not start.any()
        # each leg starts where the previous one stopped
        for (_, _, begin, _), (_, _, _, end) in zip(calls[1:], calls):
            assert repr(begin) == repr(end)

    def test_small_gradient_stop_is_converged(self, monkeypatch):
        # 0.5 is within 1e-2 of J = 100
        calls = self.scripted_minimize(monkeypatch, [(0, 12, 0.5)])
        result = optimize(self.unweighted(), max_iterations=100)
        assert len(calls) == 1
        assert (result.iterations, result.status) == (12, "converged")

    def test_stationary_search_failure_keeps_its_message_and_shifts(
            self, monkeypatch):
        """A converged search failure still above VIOLATION_TOL takes a
        shift round, like any converged leg."""
        calls = self.scripted_minimize(monkeypatch,
                                       [(2, 5, 1e-3), (0, 5, 1e-3)])
        scenario = make_scenario(limits=Limits(v_max=0.1),
                                 weights=only(velocity=1.0))
        result = optimize(scenario, max_iterations=100)
        assert len(calls) == 2
        assert result.multiplier_updates == 1
        assert (result.status, result.message) == ("converged", "scripted")

    # the six-segment oracle converges in 33 iterations, so a cap of 20
    # ends its only leg
    @pytest.mark.parametrize("segments, max_iterations, status", [
        (6, 20, "max_iterations"), (1, 500, "converged")])
    def test_unguarded_run_is_one_plain_leg(self, monkeypatch, segments,
                                            max_iterations, status):
        """Where neither restart fires, optimize is one L-BFGS call with the
        whole iteration budget, and reports that call's result."""
        legs = []
        real_minimize = optimizer.minimize

        def minimize(fun, x0, maxiter, halt=None):
            legs.append((maxiter, real_minimize(fun, x0, maxiter, halt)))
            return legs[-1][1]

        monkeypatch.setattr(optimizer, "minimize", minimize)
        scenario = make_scenario(
            segment_count=segments,
            weights=PenaltyWeights(cable=0.0, obstacle=0.0))
        points = record_construct(monkeypatch)
        result = optimize(scenario, max_iterations=max_iterations)
        assert len(legs) == 1
        maxiter, leg = legs[0]
        assert maxiter == max_iterations
        assert result.iterations == leg.nit
        assert result.breakdown.total == leg.fun
        assert total_cost(*points[0], scenario)[0] == result.breakdown
        assert result.status == status

    def test_known_false_stop_no_longer_reports_converged(
            self, shipped_scenario_dir):
        """pickup_level with its goal at z = 2 m and a 0.05 m sag limit
        once stopped on ftol with failing hinges; it now converges, and
        one shift round brings its hinges inside VIOLATION_TOL."""
        result = optimize(z2_sag005(shipped_scenario_dir))
        assert result.iterations <= 500
        assert result.status == "converged"
        assert result.penalties_ok


def z2_sag005(shipped_scenario_dir):
    """pickup_level with its goal at z = 2 m and a 0.05 m sag limit, the
    sweep_grid point whose velocity hinge binds at the penalty minimum."""
    document = load_document(shipped_scenario_dir / "pickup_level.yaml")
    document["scenario"]["goal_position_m"][2] = 2.0
    document["cable"]["sag_limit_m"] = 0.05
    return parse_scenario(document).planning


def moved_by_ulps(x, rng):
    """x with every entry moved by k ulps, k uniform in {-2, ..., 2}."""
    x = np.array(x, dtype=float)
    steps = rng.integers(-2, 3, x.shape)
    for k in (1, 2):
        x = np.where(steps >= k, np.nextafter(x, np.inf), x)
        x = np.where(steps <= -k, np.nextafter(x, -np.inf), x)
    return x


class TestConvergence:
    @pytest.mark.parametrize("seed", range(3))
    def test_robust_to_gradient_rounding(self, monkeypatch,
                                         shipped_scenario_dir, seed):
        """The grid point converges with clean hinges and a clean dense
        re-check when every gradient entry moves by up to 2 ulps."""
        rng = np.random.default_rng(seed)
        real_cost = optimizer.total_cost

        def rounded(waypoints, duration, scenario, shifts=None):
            breakdown, dj_dq, dj_dt, worst = real_cost(waypoints, duration,
                                                       scenario, shifts)
            return (breakdown, moved_by_ulps(dj_dq, rng),
                    float(moved_by_ulps(dj_dt, rng)), worst)

        monkeypatch.setattr(optimizer, "total_cost", rounded)
        scenario = z2_sag005(shipped_scenario_dir)
        result = optimize(scenario)
        assert result.status == "converged"
        assert result.penalties_ok
        assert dense_violation(result.trajectory, scenario, 320) < 1e-3

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_worsening_shift_round_is_cut_short(self, monkeypatch, seed):
        """random_scenario(1), (3) and (7) are infeasible: each shift round
        raises the worst hinge, so it ends at its first worsening check,
        _WORSENING_CHECK_PERIOD iterations after the first round, and is
        dropped, and the first round's plan comes back."""
        rounds = []
        calls = []
        real_update = optimizer._shift_update
        real_minimize = optimizer.minimize

        def recorded(waypoints, duration, scenario, shifts):
            rounds.append((waypoints, duration))
            return real_update(waypoints, duration, scenario, shifts)

        def counted(*args, **kwargs):
            calls.append(real_minimize(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(optimizer, "_shift_update", recorded)
        monkeypatch.setattr(optimizer, "minimize", counted)
        scenario = random_scenario(np.random.default_rng(seed))
        result = optimize(scenario)
        assert len(rounds) == result.multiplier_updates == 1
        assert result.iterations - calls[0].nit \
            == optimizer._WORSENING_CHECK_PERIOD
        assert result.trajectory.coefficients.tobytes() \
            == plan_at(rounds[0], scenario).coefficients.tobytes()
        assert result.status == "converged" and not result.penalties_ok

    def test_infeasible_problem_keeps_its_penalty_minimum(self):
        """random_scenario(6) cannot meet its limits; the planner reached J
        19414.41 on it when it ran on raw coordinates from a straight line.
        A shift round that does not halve the worst hinge is dropped."""
        result = optimize(random_scenario(np.random.default_rng(6)))
        assert not result.penalties_ok
        assert result.breakdown.total <= 19414.410531034486

    @staticmethod
    def plan_recording_rounds(monkeypatch, scenario):
        """optimize's result and the plan each shift round started from."""
        rounds = []
        real_update = optimizer._shift_update

        def recorded(waypoints, duration, scenario, shifts):
            rounds.append((waypoints, duration))
            return real_update(waypoints, duration, scenario, shifts)

        monkeypatch.setattr(optimizer, "_shift_update", recorded)
        return optimize(scenario), rounds

    @staticmethod
    def assert_dropped_round_returns_the_one_before(result, rounds,
                                                    scenario):
        """A dropped last round gives back the plan it started from, with
        that plan's unshifted J and worst hinge; a kept one has at least
        halved that worst hinge.  Returns whether the round was dropped."""
        assert len(rounds) == result.multiplier_updates
        if not rounds:
            return False
        breakdown, _, _, worst = total_cost(*rounds[-1], scenario)
        start_worst = max(worst.values())
        dropped = result.trajectory.coefficients.tobytes() \
            == plan_at(rounds[-1], scenario).coefficients.tobytes()
        if dropped:
            assert result.breakdown.total == breakdown.total
            assert result.max_violation == start_worst
        else:
            assert result.max_violation <= 0.5 * start_worst
        return dropped

    def test_infeasible_problem_keeps_the_round_before_a_dropped_one(
            self, monkeypatch):
        """random_scenario(6) stops at the iteration cap before any shift
        round: the property holds with nothing to drop."""
        scenario = random_scenario(np.random.default_rng(6))
        result, rounds = self.plan_recording_rounds(monkeypatch, scenario)
        self.assert_dropped_round_returns_the_one_before(result, rounds,
                                                         scenario)
        assert not result.penalties_ok

    def test_goal_beyond_the_winch_drops_its_shift_round(self, monkeypatch):
        """The winch cannot release the 3.61 m chord at the goal, so no
        shift round can halve the corridor hinge: it is dropped, and the
        plan it started from comes back unchanged."""
        scenario = make_scenario(winch=WinchSchedule(3.0, 0.0, capacity=3.2))
        result, rounds = self.plan_recording_rounds(monkeypatch, scenario)
        assert self.assert_dropped_round_returns_the_one_before(
            result, rounds, scenario)
        assert not result.penalties_ok

    def test_reports_its_evaluations_and_shift_rounds(
            self, monkeypatch, shipped_scenario_dir):
        calls = []
        real_cost = optimizer.total_cost

        def counted(*args, **kwargs):
            calls.append(args)
            return real_cost(*args, **kwargs)

        monkeypatch.setattr(optimizer, "total_cost", counted)
        result = optimize(z2_sag005(shipped_scenario_dir))
        assert result.evaluations == len(calls)
        assert result.multiplier_updates == 1


class TestHingeSmoothness:
    def test_penalty_is_c2_across_activation(self):
        # sweep a trajectory family through hinge activation and check the
        # second difference of the penalty stays continuous
        scales = np.linspace(0.9, 1.1, 81)
        values = []
        for s in scales:
            values.append(total_cost(*one_segment(
                {1: [float(s), 0.0, 0.0]},
                limits=Limits(v_max=1.0, samples=2),
                weights=only(velocity=1.0)))[0].velocity)
        values = np.array(values)
        h = scales[1] - scales[0]
        second = np.diff(values, 2) / h ** 2
        # a C1 kink would make this jump by O(1/h); C2 keeps it O(h)
        assert np.max(np.abs(np.diff(second))) < 1.0
