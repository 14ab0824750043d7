"""Tests for the penalty objective and the planner loop."""

import _ctypes
import ctypes
import math

import numpy as np
import pytest
from scipy.optimize import _lbfgsb
from hypothesis import given, settings
from hypothesis import strategies as st

from tetherpick import cable, optimizer
from tetherpick.cable import CableProperties
from tetherpick.errors import ValidationError
from tetherpick.optimizer import (
    CostBreakdown,
    Limits,
    ObstaclePlane,
    OptimizeResult,
    PenaltyWeights,
    PlanningScenario,
    WinchSchedule,
    _Samples,
    _window_terms,
    corridor_profile,
    corridor_violation,
    initial_guess,
    optimize,
    sample_times,
    total_cost,
)
from tetherpick.trajectory import BoundaryState, Trajectory, construct, jerk_energy


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

    def test_weights_validation(self):
        with pytest.raises(ValidationError):
            PenaltyWeights(cable=-1.0)
        PenaltyWeights(velocity=0.0)  # zero is allowed

    def test_obstacle_plane(self):
        plane = ObstaclePlane(point=[0, 0, 0], normal=[0, 0, 1])
        assert plane.signed_distance([1.0, 2.0, 0.5]) == pytest.approx(0.5)
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
        traj = make_traj([{1: [2.0, 1.0, 0.0], 2: [-1.0, -0.5, 0.0]}], 1.0)
        scenario = make_scenario(limits=Limits(samples=4),
                                 weights=only(velocity=1.0))
        breakdown = total_cost(traj, scenario)[0]
        assert breakdown.velocity == pytest.approx(1.0, abs=1e-12)

    def test_cable_hinge_exact_eight(self):
        # Droid starts directly below the anchor (p = 0, gap 2 m), so the
        # sag-limited bound is exactly 2.1 m.  The released length is
        # sqrt(6.41), making the squared-length excess exactly 2 at t = 0.
        # The droid then descends 0.48 m, which widens the corridor enough
        # to deactivate both hinges at the later samples.
        traj = make_traj(
            [{1: [0.0, 0.0, -1.44], 2: [0.0, 0.0, 0.96]}], 1.0)
        scenario = make_scenario(anchor_position=[0.0, 0.0, 2.0],
                                 winch=WinchSchedule(math.sqrt(6.41), 0.0),
                                 limits=Limits(samples=2),
                                 weights=only(cable=1.0),
                                 segment_count=1)
        breakdown = total_cost(traj, scenario)[0]
        assert breakdown.cable == pytest.approx(8.0, abs=1e-12)

    def test_obstacle_hinge_exact(self):
        # distance 0.1 against margin 0.3 at the first sample only
        traj = make_traj([{0: [0.0, 0.0, 0.1], 1: [0.0, 0.0, 3.0]}], 1.0)
        plane = ObstaclePlane(point=[0, 0, 0], normal=[0, 0, 1])
        scenario = make_scenario(obstacles=(plane,),
                                 limits=Limits(samples=2, obstacle_margin=0.3),
                                 weights=only(obstacle=1.0))
        breakdown = total_cost(traj, scenario)[0]
        assert breakdown.obstacle == pytest.approx(0.2 ** 3, abs=1e-12)

    def test_thrust_free_fall_and_hover(self):
        g_half = np.array([0.0, 0.0, -9.81]) / 2.0
        falling = make_traj([{2: g_half}], 1.0)
        scenario = make_scenario(limits=Limits(samples=2),
                                 weights=only(thrust=1.0))
        breakdown = total_cost(falling, scenario)[0]
        assert breakdown.thrust == pytest.approx(3 * (2.0 ** 2) ** 3,
                                                 abs=1e-12)
        hover = make_traj([{0: [1.0, 0.0, 1.0]}], 1.0)
        assert total_cost(hover, scenario)[0].thrust == 0.0

    def test_inactive_hinges_contribute_zero(self):
        # three slow segments: the feasibility hinges leave the value, the
        # gradient and the worst hinge report exactly as without them
        traj = make_traj([{1: [0.1, 0.0, 0.0]}] * 3, 1.0)
        weighed = make_scenario(limits=Limits(samples=8),
                                weights=only(velocity=1.0, accel_jerk=1.0))
        unweighed = make_scenario(limits=Limits(samples=8), weights=only())
        breakdown, dj_dq, dj_dt, worst = total_cost(traj, weighed)
        base, base_dq, base_dt, _ = total_cost(traj, unweighed)
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
        assert b.total == pytest.approx(sum(v for k, v in b.as_dict().items()
                                            if k != "total"), abs=1e-12)

    def test_zero_weights_leave_smoothness_plus_time(self):
        scenario = make_scenario(
            weights=PenaltyWeights(0.0, 0.0, 0.0, 0.0, 0.0))
        traj = construct([[0.5, 0.2, 0.1], [1.0, -0.2, 0.3], [1.5, 0.1, 0.2]],
                         2.0, scenario.start_state, scenario.goal_position,
                         scenario.goal_velocity)
        breakdown = total_cost(traj, scenario)[0]
        smooth = jerk_energy(traj)
        assert breakdown.velocity == 0.0 and breakdown.cable == 0.0
        assert breakdown.total == pytest.approx(
            smooth + scenario.limits.time_weight * traj.duration, rel=1e-12)

    def test_weights_scale_contributions_linearly(self):
        lim = Limits(v_max=0.3)
        base = make_scenario(limits=lim,
                             weights=PenaltyWeights(velocity=1.0))
        scaled = make_scenario(limits=lim,
                               weights=PenaltyWeights(velocity=1e4))
        traj = construct([[0.5, 0.0, 0.4], [1.0, 0.3, 0.0], [1.5, 0.0, 0.1]],
                         2.0, base.start_state, base.goal_position,
                         base.goal_velocity)
        b0 = total_cost(traj, base)[0]
        b1 = total_cost(traj, scaled)[0]
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


def reference_window_term(samples, order, low_sq, high_sq, offset=None):
    """One window hinge term, one term at a time, as the planner computed
    it before the terms were batched; the planner is chaotic in these bits,
    so the batched form must reproduce them exactly."""
    d = samples.deriv[order]
    if offset is not None:
        d = d - offset
    nsq = np.sum(d * d, axis=1)
    slope = np.zeros_like(nsq)
    value = 0.0
    if high_sq is not None:
        over = nsq - high_sq
        value += float(np.sum(np.maximum(over, 0.0) ** 3))
        slope += 3.0 * np.maximum(over, 0.0) ** 2
        worst = float(np.max(over))
    if low_sq is not None:
        under = low_sq - nsq
        value += float(np.sum(np.maximum(under, 0.0) ** 3))
        slope -= 3.0 * np.maximum(under, 0.0) ** 2
        worst = float(np.max(np.maximum(under, over)))
    gvec = 2.0 * d * slope[:, None]
    grad_c = np.zeros_like(samples.traj.coefficients)
    np.add.at(grad_c, samples.seg,
              samples.basis[order][:, :, None] * gvec[:, None, :])
    grad_ddt = float(np.sum(np.sum(gvec * samples.deriv[order + 1], axis=1)
                            * samples.tau_motion))
    return value, grad_c, grad_ddt, worst


class TestWindowTerms:
    @given(seed=st.integers(0, 2 ** 32 - 1), kappa=st.integers(2, 64),
           duration=st.floats(0.5, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_batched_terms_match_reference_bit_for_bit(self, seed, kappa,
                                                       duration):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng)
        traj = construct(random_waypoints(scenario, rng), duration,
                         scenario.start_state, scenario.goal_position,
                         scenario.goal_velocity)
        samples = _Samples(traj, kappa)
        lim = scenario.limits
        terms = [(1, None, lim.v_max ** 2, None),
                 (2, None, lim.a_max ** 2, None),
                 (3, None, lim.j_max ** 2, None),
                 (2, lim.tau_min ** 2, lim.tau_max ** 2,
                  scenario.gravity_vector)]
        batched = _window_terms(samples, terms)
        for term, together in zip(terms, batched):
            want = reference_window_term(samples, *term)
            [alone] = _window_terms(samples, [term])
            for got in (together, alone):
                assert repr(got[0]) == repr(want[0])
                assert got[1].tobytes() == want[1].tobytes()
                assert repr(got[2]) == repr(want[2])
                assert repr(got[3]) == repr(want[3])


class TestGradients:
    def evaluate(self, scenario, waypoints, duration):
        traj = construct(waypoints, duration, scenario.start_state,
                         scenario.goal_position, scenario.goal_velocity)
        return total_cost(traj, scenario)

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
        traj = construct(waypoints, 3.0, scenario.start_state,
                         scenario.goal_position, scenario.goal_velocity)
        violations = total_cost(traj, scenario)[3]
        assert set(violations) == {"velocity", "acceleration", "jerk",
                                   "thrust", "obstacle", "cable"}
        assert all(v == 0.0 for v in violations.values())
        assert dense_violation(traj, scenario, 320) == 0.0

    def test_violating_speed_is_measured(self):
        traj = make_traj([{1: [3.0, 0.0, 0.0]}], 1.0)
        scenario = make_scenario(segment_count=1,
                                 winch=WinchSchedule(3.2, 0.0),
                                 limits=Limits(samples=4))
        violations = total_cost(traj, scenario)[3]
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
        scenario = make_scenario(anchor_position=[0.0, 0.0, 0.0],
                                 winch=WinchSchedule(math.hypot(2, 1), 0.0),
                                 segment_count=1)
        tight = make_scenario(anchor_position=[0.0, 0.0, 0.0],
                              winch=WinchSchedule(math.hypot(2, 1), 0.0),
                              segment_count=1,
                              limits=Limits(corridor_margin=0.05))
        traj = make_traj([{0: [2.0, 0.0, 1.0]}], 1.0)
        assert dense_violation(traj, scenario, 8) == 0.0
        assert total_cost(traj, scenario)[3]["cable"] == pytest.approx(
            0.0, abs=1e-9)
        assert total_cost(traj, tight)[3]["cable"] > 0.0


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
        traj = construct(random_waypoints(scenario, np.random.default_rng(6)),
                         3.0, scenario.start_state, scenario.goal_position,
                         scenario.goal_velocity)
        total_cost(traj, scenario)
        assert len(calls) == solves

    def test_optimize_reports_its_final_evaluation(self):
        scenario = random_scenario(np.random.default_rng(11))
        result = optimize(scenario, max_iterations=15)
        breakdown, _, _, worst = total_cost(result.trajectory, scenario)
        assert result.breakdown == breakdown
        assert result.max_violation == max(worst.values())
        assert result.penalties_ok == (result.max_violation
                                       < optimizer.VIOLATION_TOL)


class TestInitialGuess:
    def test_waypoints_on_the_straight_line(self):
        scenario = make_scenario(segment_count=4)
        waypoints, duration = initial_guess(scenario)
        np.testing.assert_allclose(waypoints[:, 0], [0.5, 1.0, 1.5])
        assert duration > 0.0

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

    def test_history_is_monotone_nonincreasing(self):
        scenario = self.oracle_scenario()
        result = optimize(scenario)
        totals = [b.total for b in result.history]
        assert len(totals) >= 5
        diffs = np.diff(totals)
        assert np.all(diffs <= 1e-8 * max(1.0, totals[0]))

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


_SCIPY_BLAS = ctypes.CDLL(_lbfgsb.__file__)


@pytest.mark.skipif(
    not hasattr(_SCIPY_BLAS, "scipy_openblas_get_num_threads"),
    reason="this scipy build does not export its OpenBLAS thread controls")
class TestBlasThreads:
    CALLER_THREADS = 3

    @pytest.fixture(autouse=True)
    def caller_threads(self):
        before = _SCIPY_BLAS.scipy_openblas_get_num_threads()
        _SCIPY_BLAS.scipy_openblas_set_num_threads(self.CALLER_THREADS)
        yield
        _SCIPY_BLAS.scipy_openblas_set_num_threads(before)

    @staticmethod
    def spy_on_objective(monkeypatch, fail_at=None):
        """Record scipy's BLAS thread count at every objective call."""
        seen = []
        real_minimize = optimizer.minimize

        def minimize(fun, *args, **kwargs):
            def spy(x):
                seen.append(_SCIPY_BLAS.scipy_openblas_get_num_threads())
                if len(seen) == fail_at:
                    raise RuntimeError("objective failed")
                return fun(x)
            return real_minimize(spy, *args, **kwargs)

        monkeypatch.setattr(optimizer, "minimize", minimize)
        return seen

    def test_objective_runs_on_one_thread_and_caller_count_returns(
            self, monkeypatch):
        seen = self.spy_on_objective(monkeypatch)
        optimize(make_scenario(), max_iterations=5)
        assert seen and set(seen) == {1}
        assert _SCIPY_BLAS.scipy_openblas_get_num_threads() \
            == self.CALLER_THREADS

    def test_caller_count_returns_when_the_objective_raises(
            self, monkeypatch):
        seen = self.spy_on_objective(monkeypatch, fail_at=3)
        with pytest.raises(RuntimeError, match="objective failed"):
            optimize(make_scenario(), max_iterations=5)
        assert seen == [1, 1, 1]
        assert _SCIPY_BLAS.scipy_openblas_get_num_threads() \
            == self.CALLER_THREADS

    def test_pin_leaves_the_plan_bit_identical(self, monkeypatch):
        scenario = make_scenario(winch=WinchSchedule(3.7, 0.1))
        pinned = optimize(scenario, max_iterations=30)
        monkeypatch.setattr(optimizer, "_BLAS_THREADS", None)
        free = optimize(scenario, max_iterations=30)
        assert pinned.trajectory.coefficients.tobytes() \
            == free.trajectory.coefficients.tobytes()
        assert pinned.trajectory.duration == free.trajectory.duration
        assert pinned.iterations == free.iterations
        assert pinned.breakdown == free.breakdown
        assert pinned.history == free.history

    def test_build_without_the_symbols_runs_unpinned(self, monkeypatch):
        controls = optimizer._blas_thread_controls(_ctypes.__file__)
        assert controls is None
        monkeypatch.setattr(optimizer, "_BLAS_THREADS", controls)
        seen = self.spy_on_objective(monkeypatch)
        result = optimize(make_scenario(), max_iterations=5)
        assert result.iterations > 0
        assert seen and set(seen) == {self.CALLER_THREADS}


class TestHingeSmoothness:
    def test_penalty_is_c2_across_activation(self):
        # sweep a trajectory family through hinge activation and check the
        # second difference of the penalty stays continuous
        scenario = make_scenario(limits=Limits(v_max=1.0, samples=2),
                                 weights=only(velocity=1.0))
        scales = np.linspace(0.9, 1.1, 81)
        values = []
        for s in scales:
            traj = make_traj([{1: [float(s), 0.0, 0.0]}], 1.0)
            values.append(total_cost(traj, scenario)[0].velocity)
        values = np.array(values)
        h = scales[1] - scales[0]
        second = np.diff(values, 2) / h ** 2
        # a C1 kink would make this jump by O(1/h); C2 keeps it O(h)
        assert np.max(np.abs(np.diff(second))) < 1.0
