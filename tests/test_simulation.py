"""Tests for the cable force model and the closed-loop simulators."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.spatial.transform import Rotation

from tetherpick.cable import EPS_P, CableProperties, _catenary
from tetherpick.errors import DegenerateThrust, NoConvergence, ValidationError
from tetherpick.optimizer import (
    Limits,
    PenaltyWeights,
    PlanningScenario,
    WinchSchedule,
    optimize,
)
from tetherpick.simulation import (
    DEFAULT_TIMESTEP,
    DroneParams,
    TelemetryLog,
    TELEMETRY_COLUMNS,
    TETHER_STIFFNESS,
    _advance,
    _cable_forces,
    _flat_inputs,
    simulate_pickup,
    simulate_retrieval,
)
from tetherpick.trajectory import BoundaryState

PROPS = CableProperties()
MU = PROPS.weight_per_length
IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
ZERO3 = (0.0, 0.0, 0.0)
GRAVITY = np.array([0.0, 0.0, -PROPS.gravity])


def advance(pos, vel, rot, thrust, rates, force, params, dt=1e-3):
    """_advance with any 3x3 rotation; returns arrays, the rotation 3x3."""
    position, velocity, rotation, acceleration = _advance(
        pos, vel, np.ravel(rot).tolist(), thrust, rates, force,
        params.mass, PROPS.gravity, dt)
    return (np.array(position), np.array(velocity),
            np.reshape(rotation, (3, 3)), np.array(acceleration))


class TestTetherForce:
    def test_taut_spring_pull(self):
        droid_x, droid_z, anchor_x, anchor_z, tension, taut = _cable_forces(
            0.0, -2.0, 0.0, 0.0, 1.9, 0.0, PROPS, 0.0)
        assert taut
        pull = TETHER_STIFFNESS * 0.1
        np.testing.assert_allclose((droid_x, droid_z),
                                   [0.0, -pull - MU * 1.9 / 2], rtol=1e-12)
        np.testing.assert_allclose((anchor_x, anchor_z),
                                   [0.0, pull - MU * 1.9 / 2], rtol=1e-12)
        assert tension == pytest.approx(pull + MU * 0.95, rel=1e-9)

    def test_taut_damping_and_one_sided_clamp(self):
        # closing endpoints at 1 m/s: the damper sees a shrinking chord
        droid_x, droid_z, _, _, _, taut = _cable_forces(
            0.0, -2.0, 0.0, 1.0, 1.999, 0.0, PROPS, 200.0)
        pull = TETHER_STIFFNESS * 0.001 - 200.0 * 1.0
        assert pull < 0.0
        assert taut
        np.testing.assert_allclose((droid_x, droid_z),
                                   [0.0, -MU * 1.999 / 2], rtol=1e-12)
        # separating endpoints add damper tension on top of the spring
        tension = _cable_forces(0.0, -2.0, 0.0, -1.0, 1.9, 0.0, PROPS,
                                200.0)[4]
        assert tension > TETHER_STIFFNESS * 0.1

    def test_payout_rate_feeds_the_damper(self):
        # paying out while taut relaxes the stretch at the payout rate
        tension = _cable_forces(0.0, -2.0, 0.0, 0.0, 1.9, 0.5, PROPS,
                                100.0)[4]
        spring_only = TETHER_STIFFNESS * 0.1
        assert tension == pytest.approx(
            spring_only - 100.0 * 0.5 + MU * 0.95, rel=1e-9)

    def test_slack_symmetric_span(self):
        vertex_tension = MU * _catenary(2.0, 0.0, 2.5)[0]
        droid_x, droid_z, _, _, _, taut = _cable_forces(
            2.0, 0.0, 0.0, 0.0, 2.5, 0.0, PROPS, 0.0)
        assert not taut
        np.testing.assert_allclose(
            (droid_x, droid_z), [vertex_tension, -MU * 1.25], rtol=1e-9)
        # mirrored anchor flips the horizontal pull
        mirrored = _cable_forces(-2.0, 0.0, 0.0, 0.0, 2.5, 0.0, PROPS, 0.0)
        np.testing.assert_allclose(
            mirrored[:2], [-vertex_tension, -MU * 1.25], rtol=1e-9)

    def test_slack_lower_end_is_pulled_upward(self):
        # droid well below the anchor on a nearly taut cable: the tangent at
        # the droid end points up toward the anchor
        chord = math.hypot(1.0, 2.0)
        droid_x, droid_z, _, _, _, taut = _cable_forces(
            1.0, 2.0, 0.0, 0.0, chord + 1e-3, 0.0, PROPS, 0.0)
        assert not taut
        assert droid_z > 0.0
        assert droid_x > 0.0

    def test_newton_identity_across_regimes(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            attach = rng.uniform([-2, 0, 0], [2, 0, 3])
            anchor = rng.uniform([-2, 0, 0], [2, 0, 3])
            dx, dz = anchor[0] - attach[0], anchor[2] - attach[2]
            length = math.hypot(dx, dz) * float(rng.uniform(0.8, 1.6)) + 1e-6
            droid_x, droid_z, anchor_x, anchor_z, _, _ = _cable_forces(
                dx, dz, 0.0, 0.0, length, 0.0, PROPS, 0.0)
            np.testing.assert_allclose(
                (droid_x + anchor_x, droid_z + anchor_z), [0.0, -MU * length],
                atol=1e-9 * max(1.0, MU * length))

    @settings(max_examples=500, deadline=None)
    @given(p=st.floats(EPS_P, 1e-4, exclude_min=True, exclude_max=True),
           right=st.booleans(), H=st.floats(-3.0, 3.0),
           log_excess=st.floats(-12.0, -1.0))
    def test_near_vertical_slack_is_the_solved_catenary(self, p, right, H,
                                                        log_excess):
        """From EPS_P up a slack span's end forces are the catenary's:
        the horizontal tension mu a, the vertical component along the
        tangent at the droid end, and the tension there."""
        dx = p if right else -p
        length = math.hypot(p, H) * (1.0 + 10.0 ** log_excess)
        a, x_a = _catenary(p, H, length)
        droid_x, droid_z, anchor_x, anchor_z, tension, taut = _cable_forces(
            dx, H, 0.0, 0.0, length, 0.0, PROPS, 0.0)
        assert not taut
        horizontal = MU * a
        droid_tension = horizontal * math.cosh(x_a / a)
        expected = (math.copysign(horizontal, dx),
                    horizontal * math.sinh(x_a / a))
        scale = MU * length + droid_tension
        np.testing.assert_allclose((droid_x, droid_z), expected, rtol=0.0,
                                   atol=1e-12 * scale)
        np.testing.assert_allclose(
            (anchor_x, anchor_z), (-expected[0], -expected[1] - MU * length),
            rtol=0.0, atol=1e-12 * scale)
        assert tension == pytest.approx(droid_tension, rel=1e-12)

    @settings(max_examples=1000, deadline=None)
    @given(p=st.one_of(st.just(0.0), st.floats(0.0, 2.0 * EPS_P),
                       st.floats(0.0, 0.05), st.floats(0.0, 5.0)),
           right=st.booleans(), H=st.floats(-3.0, 3.0),
           log_excess=st.floats(-16.0, -1.0))
    # a scale above the catenary's bracket raised instead of going taut
    @example(p=2.0, right=True, H=0.0, log_excess=-13.0)
    def test_slack_spans_never_raise_and_carry_the_cable_weight(
            self, p, right, H, log_excess):
        """Slack spans from vertical to 5 m, down to the taut limit
        (catenary, doubled strand and taut regime alike), give finite end
        forces that sum to the cable's weight."""
        chord = math.hypot(p, H)
        assume(chord > 0.0)
        length = chord * (1.0 + 10.0 ** log_excess)
        droid_x, droid_z, anchor_x, anchor_z, tension, _ = _cable_forces(
            p if right else -p, H, 0.0, 0.0, length, 0.0, PROPS, 0.0)
        forces = (droid_x, droid_z, anchor_x, anchor_z, tension)
        assert all(math.isfinite(f) for f in forces)
        # below the normal range rounding comes in subnormal steps
        tolerance = 1e-12 * (MU * length + max(abs(f) for f in forces)) \
            + 4 * math.ulp(0.0)
        assert abs(droid_x + anchor_x) <= tolerance
        assert abs(droid_z + anchor_z + MU * length) <= tolerance

    def test_vertical_bight_split(self):
        droid_x, droid_z, anchor_x, anchor_z, tension, taut = _cable_forces(
            0.0, -2.0, 0.0, 0.0, 4.0, 0.0, PROPS, 0.0)
        assert not taut
        np.testing.assert_allclose((droid_x, droid_z), [0.0, -MU * 3.0],
                                   rtol=1e-12)
        np.testing.assert_allclose((anchor_x, anchor_z), [0.0, -MU * 1.0],
                                   rtol=1e-12)
        assert tension == pytest.approx(MU * 3.0, rel=1e-12)


class TestFlatToInputs:
    def test_hover_identity(self):
        params = DroneParams()
        thrust, rotation, rates = _flat_inputs(
            ZERO3, ZERO3, (1.0, 0.0), 0.0, ZERO3, params.mass, PROPS.gravity)
        assert thrust == pytest.approx(params.mass * PROPS.gravity, rel=1e-12)
        np.testing.assert_allclose(rotation, IDENTITY, atol=1e-12)
        np.testing.assert_allclose(rates, 0.0, atol=1e-12)

    def test_tether_pull_increases_thrust(self):
        params = DroneParams()
        thrust, _, _ = _flat_inputs(ZERO3, ZERO3, (1.0, 0.0), 0.0,
                                    (0.0, 0.0, -5.0), params.mass,
                                    PROPS.gravity)
        assert thrust == pytest.approx(params.mass * PROPS.gravity + 5.0,
                                       rel=1e-12)

    def test_lateral_acceleration_tilts_body_z(self):
        params = DroneParams()
        _, rotation, _ = _flat_inputs((1.0, 0.0, 0.0), ZERO3, (1.0, 0.0),
                                      0.0, ZERO3, params.mass, PROPS.gravity)
        expected = np.array([1.0, 0.0, PROPS.gravity])
        expected /= np.linalg.norm(expected)
        # body z is the rotation's third column
        np.testing.assert_allclose(rotation[2::3], expected, rtol=1e-12)

    def test_yaw_sets_heading(self):
        params = DroneParams()
        heading = (math.cos(math.pi / 2), math.sin(math.pi / 2))
        _, rotation, _ = _flat_inputs(ZERO3, ZERO3, heading, 0.0, ZERO3,
                                      params.mass, PROPS.gravity)
        # body x is the rotation's first column
        np.testing.assert_allclose(rotation[0::3], [0.0, 1.0, 0.0],
                                   atol=1e-12)

    def test_rates_follow_jerk(self):
        params = DroneParams()
        _, _, rates = _flat_inputs(ZERO3, (2.0, 0.0, 0.0), (1.0, 0.0), 0.0,
                                   ZERO3, params.mass, PROPS.gravity)
        assert rates[1] == pytest.approx(2.0 / PROPS.gravity, rel=1e-12)
        assert rates[0] == pytest.approx(0.0, abs=1e-15)

    def test_free_fall_is_degenerate(self):
        params = DroneParams()
        with pytest.raises(DegenerateThrust):
            _flat_inputs(GRAVITY, ZERO3, (1.0, 0.0), 0.0,
                         ZERO3, params.mass, PROPS.gravity)


class TestStep:
    def test_free_fall_velocity_increment(self):
        params = DroneParams()
        position, velocity, _, accel = advance(
            (0.0, 0.0, 10.0), ZERO3, IDENTITY, 0.0, ZERO3, ZERO3, params)
        np.testing.assert_allclose(accel, GRAVITY, rtol=1e-15)
        assert velocity[2] == pytest.approx(-PROPS.gravity * 1e-3, rel=1e-15)
        assert position[2] == pytest.approx(
            10.0 - PROPS.gravity * 1e-6, rel=1e-12)

    def test_hover_is_an_exact_fixed_point(self):
        params = DroneParams()
        start = (1.0, 2.0, 3.0)
        thrust = params.mass * PROPS.gravity
        position, _, _, accel = advance(start, ZERO3, IDENTITY, thrust, ZERO3,
                                        ZERO3, params)
        np.testing.assert_array_equal(accel, 0.0)
        np.testing.assert_array_equal(position, start)

    def test_constant_acceleration_closed_form(self):
        params = DroneParams(mass=1.0)
        push = tuple(np.array([0.5, 0.0, 0.0]) - GRAVITY)
        dt = 1e-3
        n = 1000
        pos, vel, rot = ZERO3, ZERO3, IDENTITY
        for _ in range(n):
            pos, vel, rot, _ = _advance(pos, vel, rot, 0.0, ZERO3, push,
                                        params.mass, PROPS.gravity, dt)
        # semi-implicit Euler: p_n = a dt^2 n(n+1)/2
        expected = 0.5 * dt * dt * n * (n + 1) / 2
        assert pos[0] == pytest.approx(expected, rel=1e-9)

    def test_rotation_stays_orthonormal(self):
        params = DroneParams()
        rates = (0.3, -0.2, 0.1)
        thrust = params.mass * PROPS.gravity
        pos, vel, rot = ZERO3, ZERO3, IDENTITY
        for _ in range(20000):
            pos, vel, rot, _ = _advance(pos, vel, rot, thrust, rates, ZERO3,
                                        params.mass, PROPS.gravity, 1e-3)
        rotation = np.reshape(rot, (3, 3))
        gram = rotation.T @ rotation
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10
        assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-10)


@pytest.fixture(scope="module")
def planned():
    scenario = PlanningScenario(
        start_state=BoundaryState.at_rest([0.0, 0.0, 0.0]),
        goal_position=[2.0, 0.0, 0.0],
        goal_velocity=[0.0, 0.0, 0.0],
        anchor_position=[-2.0, 0.0, 3.0],
        winch=WinchSchedule(3.7, 0.2),
        cable=PROPS,
        limits=Limits(samples=32, corridor_margin=0.05),
        weights=PenaltyWeights(cable=3e7),
        segment_count=6,
    )
    result = optimize(scenario)
    assert result.penalties_ok
    return scenario, result.trajectory


class TestSimulatePickup:
    def test_open_loop_flatness_round_trip(self, planned):
        scenario, traj = planned
        log = simulate_pickup(traj, scenario, DroneParams(kp=0.0, kd=0.0))
        reference = traj.evaluate_batch(log.time, 0)
        error = np.linalg.norm(log.position - reference, axis=1)
        assert float(np.max(error)) < 0.05

    def test_closed_loop_stays_close(self, planned):
        # attitude follows the rate feedforward, so the PD terms act along
        # the thrust axis only; expect the same order of drift as open loop
        scenario, traj = planned
        log = simulate_pickup(traj, scenario, DroneParams())
        reference = traj.evaluate_batch(log.time, 0)
        error = np.linalg.norm(log.position - reference, axis=1)
        assert float(np.max(error)) < 0.02

    def test_corridor_columns_and_flag(self, planned):
        scenario, traj = planned
        log = simulate_pickup(traj, scenario, DroneParams())
        assert log.corridor_ok, f"violation {log.corridor_violation}"
        assert log.as_matrix().shape == (log.time.size, 15)
        assert TELEMETRY_COLUMNS[0] == "t" and len(TELEMETRY_COLUMNS) == 15
        assert np.all(np.diff(log.time) > 0)
        # released length follows the schedule
        np.testing.assert_allclose(
            log.l_now, scenario.winch.length_at(log.time), rtol=1e-12)

    def test_duration_matches_plan(self, planned):
        scenario, traj = planned
        log = simulate_pickup(traj, scenario, DroneParams())
        assert log.time[-1] == pytest.approx(traj.duration, abs=2e-3)


@pytest.fixture(scope="module")
def retrieval_log():
    return simulate_retrieval([0.0, 0.0, 3.0],
                              WinchSchedule(2.2, -0.2), 2.0, PROPS)


class TestSimulateRetrieval:
    def test_completes_on_schedule(self, retrieval_log):
        # 2 m of cable at 0.2 m/s, down to the 0.2 m stow length
        assert retrieval_log.time[-1] == pytest.approx(10.0, abs=2e-3)

    def test_tension_reads_hanging_weight(self, retrieval_log):
        log = retrieval_log
        settled = (log.time > 1.0) & (log.time < 9.0)
        expected = (2.0 + PROPS.mass_per_length * log.l_now[settled]) \
            * PROPS.gravity
        deviation = np.abs(log.tension[settled] - expected) / expected
        assert float(np.max(deviation)) < 0.02

    def test_thrust_carries_droid_plus_load(self, retrieval_log):
        log = retrieval_log
        params = DroneParams()
        settled = (log.time > 1.0) & (log.time < 9.0)
        expected = params.mass * PROPS.gravity + log.tension[settled]
        deviation = np.abs(log.thrust[settled] - expected) / expected
        assert float(np.max(deviation)) < 0.02

    def test_droid_holds_station(self, retrieval_log):
        drift = np.linalg.norm(
            retrieval_log.position - np.array([0.0, 0.0, 3.0]), axis=1)
        assert float(np.max(drift)) < 0.02

    def test_validation(self):
        with pytest.raises(ValidationError):
            simulate_retrieval([0, 0, 3], WinchSchedule(2.2, -0.2), 0.0)
        with pytest.raises(ValidationError):
            simulate_retrieval([0, 0, 3], WinchSchedule(0.1, -0.2), 2.0)

    @pytest.mark.parametrize("payout, max_time", [
        (-0.5, 2.0),  # stows at 1.6 s
        (0.0, 0.5), (0.2, 0.5)])  # never stows
    def test_log_ends_at_the_first_stowed_step(self, payout, max_time):
        winch = WinchSchedule(1.0, payout)
        log = simulate_retrieval([0.0, 0.0, 3.0], winch, 2.0, PROPS,
                                 stow_length=0.2, max_time=max_time)
        steps = round(max_time / DEFAULT_TIMESTEP) + 1
        lengths = winch.length_at(np.arange(steps) * DEFAULT_TIMESTEP)
        stowed = np.flatnonzero(lengths <= 0.2)
        assert (stowed.size > 0) == (payout < 0)
        assert len(log.time) == (stowed[0] + 1 if stowed.size else steps)
        np.testing.assert_array_equal(log.l_now, lengths[:len(log.time)])


NOT_POSITIVE_AND_FINITE = (0.0, -1e-3, -math.inf, math.nan, math.inf)


@pytest.mark.parametrize("verb, dt, max_time", [
    *(("pickup", dt, None) for dt in NOT_POSITIVE_AND_FINITE),
    *(("retrieval", dt, 120.0) for dt in NOT_POSITIVE_AND_FINITE),
    *(("retrieval", 1e-3, t) for t in NOT_POSITIVE_AND_FINITE)])
def test_time_step_and_max_time_must_be_positive_and_finite(
        planned, verb, dt, max_time):
    scenario, traj = planned
    with pytest.raises(ValidationError, match="positive and finite"):
        if verb == "pickup":
            simulate_pickup(traj, scenario, DroneParams(), dt)
        else:
            simulate_retrieval([0.0, 0.0, 3.0], WinchSchedule(2.2, -0.2),
                               2.0, PROPS, dt=dt, max_time=max_time)


def swing_angle(positions, pivot):
    rel = positions - pivot
    return np.arctan2(rel[:, 0], -rel[:, 2])


class TestPendulumPhysics:
    """The tether force model must reproduce pendulum mechanics."""

    def simulate_point_mass(self, pivot, start, length_of, mass, damping,
                            props, dt, t_end):
        position = np.asarray(start, dtype=float)
        velocity = np.zeros(3)
        g_vec = np.array([0.0, 0.0, -props.gravity])
        ts = np.arange(int(round(t_end / dt)) + 1) * dt
        trace = np.empty((ts.size, 3))
        stretches = np.empty(ts.size)
        for i, t in enumerate(ts):
            length = length_of(t)
            rate = (length_of(t + 1e-6) - length_of(t - 1e-6)) / 2e-6
            _, _, anchor_x, anchor_z, _, _ = _cable_forces(
                position[0] - pivot[0], position[2] - pivot[2], velocity[0],
                velocity[2], length, rate, props, damping)
            accel = np.array([anchor_x, 0.0, anchor_z]) / mass + g_vec
            velocity = velocity + accel * dt
            position = position + velocity * dt
            trace[i] = position
            chord = math.hypot(position[0] - pivot[0],
                               position[2] - pivot[2])
            stretches[i] = max(chord - length, 0.0)
        return ts, trace, stretches

    def test_energy_conserved_without_damping(self):
        props = CableProperties(mass_per_length=1e-12)
        pivot = np.array([0.0, 0.0, 2.0])
        length = 2.0
        theta0 = 0.5
        start = pivot + length * np.array([math.sin(theta0), 0.0,
                                           -math.cos(theta0)])
        mass = 1.0
        dt = 1e-3
        ts, trace, stretches = self.simulate_point_mass(
            pivot, start, lambda t: length, mass, 0.0, props, dt, 10.0)
        velocity = np.gradient(trace, dt, axis=0)
        kinetic = 0.5 * mass * np.sum(velocity ** 2, axis=1)
        potential = mass * props.gravity * trace[:, 2]
        spring = 0.5 * TETHER_STIFFNESS * stretches ** 2
        energy = kinetic + potential + spring
        scale = mass * props.gravity * length
        drift = (np.max(energy[5:-5]) - np.min(energy[5:-5])) / scale
        assert drift < 0.005

    def test_small_angle_oracle_with_reel_in(self):
        # theta'' = -(g/L) theta - 2 (L'/L) theta' is the textbook
        # varying-length pendulum; the spring surrogate must follow it
        props = CableProperties(mass_per_length=1e-12)
        pivot = np.array([0.0, 0.0, 2.0])
        mass = 1.0
        damping = 2.0 * math.sqrt(TETHER_STIFFNESS * mass)
        theta0 = 0.05
        length0, rate = 2.0, -0.2

        def length_of(t):
            return length0 + rate * min(t, 5.0)

        stretch0 = mass * props.gravity * math.cos(theta0) / TETHER_STIFFNESS
        r0 = length0 + stretch0
        start = pivot + r0 * np.array([math.sin(theta0), 0.0,
                                       -math.cos(theta0)])
        ts, trace, _ = self.simulate_point_mass(
            pivot, start, length_of, mass, damping, props, 1e-3, 5.0)
        theta_sim = swing_angle(trace, pivot)

        def rhs(t, y):
            length = length_of(t)
            return [y[1], -props.gravity / length * y[0]
                    - 2.0 * rate / length * y[1]]

        oracle = solve_ivp(rhs, (0.0, 5.0), [theta0, 0.0], t_eval=ts,
                           rtol=1e-10, atol=1e-12)
        error = np.abs(theta_sim - oracle.y[0])
        assert float(np.max(error)) < 0.05 * theta0


# ---------------------------------------------------------------------------
# The scalar kernels against array references.  The references below are the
# numpy/scipy formulations the kernels replaced; the kernels may differ from
# them only by rounding, so every comparison allows 1e-12 relative to the
# scale of the quantity (times the attitude's conditioning where a direction
# is normalised).

REL = 1e-12


def reference_tether_force(attach, anchor, length, props, attach_velocity,
                           anchor_velocity, payout_rate, stiffness, damping):
    attach = np.asarray(attach, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    mu = props.weight_per_length
    dx = anchor[0] - attach[0]
    dz = anchor[2] - attach[2]
    chord = math.hypot(dx, dz)
    if length > chord and abs(dx) < EPS_P:
        droid_strand = min(max(0.5 * (length - dz), 0.0), length)
        return (np.array([0.0, 0.0, -mu * droid_strand]),
                np.array([0.0, 0.0, -mu * (length - droid_strand)]),
                mu * droid_strand, False)
    span = _catenary(abs(dx), dz, length) if length > chord else None
    if span is not None:
        scale, x_a = span
        vertex_tension = mu * scale
        vertical = vertex_tension * math.sinh(x_a / scale)
        on_droid = np.array([math.copysign(vertex_tension, dx), 0.0,
                             vertical])
        return (on_droid, -on_droid + np.array([0.0, 0.0, -mu * length]),
                vertex_tension * math.cosh(x_a / scale), False)
    direction = np.array([dx, 0.0, dz]) / chord
    stretch_rate = -payout_rate + float(
        direction @ (np.asarray(anchor_velocity, dtype=float)
                     - np.asarray(attach_velocity, dtype=float)))
    pull = max(stiffness * (chord - length) + damping * stretch_rate, 0.0)
    half_weight = np.array([0.0, 0.0, -0.5 * mu * length])
    on_droid = pull * direction + half_weight
    return (on_droid, -pull * direction + half_weight,
            float(np.linalg.norm(on_droid)), True)


def reference_flat_to_inputs(acceleration, jerk, yaw, yaw_rate, pull, params):
    h = params.mass * (np.asarray(acceleration) - GRAVITY) \
        - np.asarray(pull)
    thrust = float(np.linalg.norm(h))
    if thrust < 1e-6:
        raise DegenerateThrust("net rotor force vanishes")
    zb = h / thrust
    yb_raw = np.cross(zb, [math.cos(yaw), math.sin(yaw), 0.0])
    norm = float(np.linalg.norm(yb_raw))
    if norm < 1e-9:
        raise DegenerateThrust("thrust axis is parallel to the heading")
    yb = yb_raw / norm
    xb = np.cross(yb, zb)
    h_dot = params.mass * np.asarray(jerk)
    rates = np.array([-float(yb @ h_dot) / thrust, float(xb @ h_dot) / thrust,
                      yaw_rate * float(zb[2])])
    return thrust, np.column_stack([xb, yb, zb]), rates, norm


def vectors(bound):
    return st.lists(st.floats(-bound, bound), min_size=3, max_size=3)


QUATERNIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4) \
    .filter(lambda q: sum(x * x for x in q) > 1e-3)


class TestScalarKernels:
    @settings(max_examples=300, deadline=None)
    @given(acc=vectors(30.0), jerk=vectors(100.0), yaw=st.floats(-4.0, 4.0),
           yaw_rate=st.floats(-3.0, 3.0), pull=vectors(20.0),
           mass=st.floats(0.1, 5.0))
    def test_flat_to_inputs_matches_cross_product_reference(
            self, acc, jerk, yaw, yaw_rate, pull, mass):
        params = DroneParams(mass=mass)
        args = (acc, jerk, (math.cos(yaw), math.sin(yaw)), yaw_rate, pull,
                params.mass, PROPS.gravity)
        try:
            ref = reference_flat_to_inputs(acc, jerk, yaw, yaw_rate, pull,
                                           params)
        except DegenerateThrust:
            with pytest.raises(DegenerateThrust):
                _flat_inputs(*args)
            return
        thrust_ref, rotation_ref, rates_ref, norm = ref
        thrust, rotation, rates = _flat_inputs(*args)
        assert abs(thrust - thrust_ref) <= REL * thrust_ref
        # normalising z_b x heading amplifies rounding by 1 / |z_b x heading|
        condition = 1.0 / norm
        np.testing.assert_allclose(rotation, rotation_ref.ravel(), rtol=0.0,
                                   atol=REL * condition)
        # hypot keeps a tiny jerk's scale from underflowing to zero, and
        # below the normal range rounding comes in subnormal steps
        rate_scale = mass * math.hypot(*jerk) / thrust_ref \
            * condition + abs(yaw_rate)
        np.testing.assert_allclose(rates, rates_ref, rtol=0.0,
                                   atol=REL * rate_scale + 16 * math.ulp(0.0))

    @settings(max_examples=300, deadline=None)
    @given(quaternion=QUATERNIONS,
           rates=st.one_of(vectors(20.0), vectors(1e-3)),
           dt=st.floats(1e-4, 2e-2))
    def test_attitude_step_matches_rotvec_reference(self, quaternion, rates,
                                                    dt):
        start = Rotation.from_quat(quaternion).as_matrix()
        _, _, rotation, _ = advance(ZERO3, ZERO3, start, 3.0, rates,
                                    (0.1, -0.2, 0.3), DroneParams(), dt)
        expected = start @ Rotation.from_rotvec(np.asarray(rates) * dt) \
            .as_matrix()
        np.testing.assert_allclose(rotation, expected, rtol=0.0, atol=REL)

    @settings(max_examples=300, deadline=None)
    @given(quaternion=QUATERNIONS, pos=vectors(10.0), vel=vectors(5.0),
           thrust=st.floats(0.0, 50.0), force=vectors(20.0),
           mass=st.floats(0.1, 5.0), dt=st.floats(1e-4, 2e-2),
           rates=st.lists(st.sampled_from((0.0, -0.0, math.ulp(0.0))),
                          min_size=3, max_size=3))
    def test_zero_rate_increment_is_the_identity_product(
            self, quaternion, pos, vel, thrust, force, mass, dt, rates):
        """An increment that is zero on every axis, the smallest subnormal
        rate times dt included, gives the product R E with E = I and the
        step's translation, bit for bit."""
        rot = tuple(Rotation.from_quat(quaternion).as_matrix().ravel()
                    .tolist())
        ax = (thrust * rot[2] + force[0]) / mass
        ay = (thrust * rot[5] + force[1]) / mass
        az = (thrust * rot[8] + force[2] - mass * PROPS.gravity) / mass
        velocity = (vel[0] + ax * dt, vel[1] + ay * dt, vel[2] + az * dt)
        position = tuple(p + v * dt for p, v in zip(pos, velocity))
        identity_product = tuple(
            rot[3 * i] * IDENTITY[j] + rot[3 * i + 1] * IDENTITY[3 + j]
            + rot[3 * i + 2] * IDENTITY[6 + j]
            for i in range(3) for j in range(3))
        assert _advance(pos, vel, rot, thrust, rates, force, mass,
                        PROPS.gravity, dt) == (
            position, velocity, identity_product, (ax, ay, az))

    @settings(max_examples=300, deadline=None)
    @given(axis=st.integers(0, 2), rate=st.one_of(
               st.floats(1e-300, 1e-150), st.floats(1e-150, 20.0)),
           negative=st.booleans(), dt=st.floats(1e-4, 2e-2))
    def test_one_axis_increment_takes_the_exponential_map(self, axis, rate,
                                                          negative, dt):
        """From the identity the step's rotation is exp([phi]x), whose
        skew part holds the increment, even where its square underflows."""
        rates = [0.0, 0.0, 0.0]
        rates[axis] = -rate if negative else rate
        increment = rates[axis] * dt
        assume(increment != 0.0)
        _, _, rotation, _ = _advance(ZERO3, ZERO3, IDENTITY, 0.0, rates,
                                     ZERO3, 1.0, PROPS.gravity, dt)
        # entries (i, j) and (j, i) of [phi]x for this axis
        i, j = ((2, 1), (0, 2), (1, 0))[axis]
        assert rotation[3 * i + j] != 0.0
        assert rotation[3 * i + j] == -rotation[3 * j + i]
        assert math.copysign(1.0, rotation[3 * i + j]) == \
            math.copysign(1.0, increment)

    @settings(max_examples=300, deadline=None)
    @given(attach=vectors(3.0), offset=vectors(3.0),
           ratio=st.floats(0.5, 2.0), regime=st.sampled_from(
               ("taut", "slack", "vertical")),
           attach_velocity=vectors(2.0), anchor_velocity=vectors(2.0),
           payout_rate=st.floats(-1.0, 1.0), damping=st.floats(0.0, 200.0))
    def test_tether_force_matches_array_reference(
            self, attach, offset, ratio, regime, attach_velocity,
            anchor_velocity, payout_rate, damping):
        if regime == "vertical":
            offset[0] = offset[0] * 1e-5
        anchor = np.add(attach, offset)
        chord = math.hypot(offset[0], offset[2])
        assume(chord > 1e-3)
        length = chord * (min(ratio, 1.0) if regime == "taut"
                          else max(ratio, 1.0 + 1e-9))
        args = (attach, anchor, length, PROPS, attach_velocity,
                anchor_velocity, payout_rate, TETHER_STIFFNESS, damping)
        kernel_args = (anchor[0] - attach[0], anchor[2] - attach[2],
                       anchor_velocity[0] - attach_velocity[0],
                       anchor_velocity[2] - attach_velocity[2], length,
                       payout_rate, PROPS, damping)
        try:
            on_droid, on_anchor, tension, taut = reference_tether_force(*args)
        except NoConvergence:
            with pytest.raises(NoConvergence):
                _cable_forces(*kernel_args)
            return
        droid_x, droid_z, anchor_x, anchor_z, out_tension, out_taut = \
            _cable_forces(*kernel_args)
        assert out_taut == taut
        # spring and damper may cancel, so scale by the terms, not the sum
        closing = float(np.linalg.norm(np.subtract(anchor_velocity,
                                                   attach_velocity)))
        scale = MU * length + float(np.linalg.norm(on_droid)) + (
            TETHER_STIFFNESS * abs(chord - length)
            + damping * (abs(payout_rate) + closing) if taut else 0.0)
        # the kernel's forces are the x and z components
        np.testing.assert_allclose((droid_x, droid_z), on_droid[::2],
                                   rtol=0.0, atol=REL * scale)
        np.testing.assert_allclose((anchor_x, anchor_z), on_anchor[::2],
                                   rtol=0.0, atol=REL * scale)
        assert abs(out_tension - tension) <= REL * scale

    @settings(max_examples=50, deadline=None)
    @given(initial=st.floats(0.0, 10.0), speed=st.floats(-1.0, 1.0),
           capacity=st.floats(0.5, 20.0), dt=st.floats(1e-4, 1e-2))
    def test_winch_arrays_equal_per_step_evaluation(self, initial, speed,
                                                    capacity, dt):
        # the simulators evaluate the schedule once on i * dt; each entry
        # must be the very float the per-step call would give
        assume(initial <= capacity)
        winch = WinchSchedule(initial, speed, capacity)
        ts = np.arange(2001) * dt
        lengths = winch.length_at(ts).tolist()
        rates = winch.rate_at(ts).tolist()
        for i in range(ts.size):
            assert lengths[i] == float(winch.length_at(i * dt))
            assert rates[i] == float(winch.rate_at(i * dt))
