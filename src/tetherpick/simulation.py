"""Quasi-static closed-loop simulation of the tethered pickup.

The droid is a rigid body driven by collective thrust along its body z-axis
and commanded body rates; attitude is integrated on the rotation group with
the exponential map, translation with a semi-implicit Euler step.  The
cable applies forces at both ends from one of three regimes:

* slack: a catenary solve gives the exact end tensions,
* taut: a stiff one-sided spring along the chord, with the cable's own
  weight split between the ends (a slack span at the taut limit too),
* vertical slack (horizontal separation below ``cable.EPS_P``, the
  corridor's vertical threshold too): the doubled-strand (bight) limit,
  where each end simply carries the strand hanging from it.

In every regime the two end forces sum to the cable weight, so momentum
bookkeeping stays consistent across regime switches.

Controllers are differential-flatness feedforward plus PD position
feedback; the feedforward inverts desired acceleration, jerk, and the
measured tether force into thrust, attitude, and body rates.

One closed loop flies both phases.  The pickup tracks the planned
trajectory with the cable's far end fixed at the anchor; the retrieval
holds position while the far end is a point-mass carrier moved by the cable
and gravity.  The physics lives in three scalar kernels (cable forces,
flatness inversion, one integration step) that work on floats and tuples
and build no objects, so the per-step loop pays no array overhead; a step
with zero body rates keeps its attitude instead of multiplying by exp(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cable import EPS_P, CableProperties, _catenary, corridor_bounds_batch
from .errors import DegenerateThrust, ValidationError
from .optimizer import VIOLATION_TOL, WinchSchedule, corridor_violation
from .trajectory import Trajectory

# Surrogate spring for the taut regime.  Stiff enough that the sag under a
# few kilograms is millimetric, soft enough for stable 1 kHz integration.
TETHER_STIFFNESS = 5e3

DEFAULT_TIMESTEP = 1e-3

# Below this squared rotation angle per step the exponential map's
# coefficients use their Taylor series; the first dropped term is O(1e-18).
_SMALL_ANGLE_SQ = 1e-8


@dataclass(frozen=True)
class DroneParams:
    """Droid mass and tracking gains; gravity is the cable's."""

    mass: float = 0.6
    kp: float = 16.0
    kd: float = 8.0

    def __post_init__(self) -> None:
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValidationError("drone mass must be positive and finite")
        for gain in (self.kp, self.kd):
            if not (gain >= 0 and math.isfinite(gain)):
                raise ValidationError("gains must be nonnegative and finite")


def _cable_forces(dx: float, dz: float, dvx: float, dvz: float,
                  length: float, payout_rate: float, props: CableProperties,
                  damping: float):
    """Cable end forces for the current endpoint placement and length, in
    the x-z plane.

    ``dx``, ``dz`` run from the droid-side end to the anchor and ``dvx``,
    ``dvz`` are the anchor's velocity relative to that end.  Velocities,
    the payout rate and ``damping`` only matter in the taut regime, where
    the tension follows a one-sided ``TETHER_STIFFNESS`` spring on the
    chord excess plus a damper on its rate.  A slack cable is a solved
    catenary from |dx| = EPS_P up, taut at the catenary's taut limit, and
    the doubled strand below EPS_P.
    Returns ``(droid_x, droid_z, anchor_x, anchor_z, tension, taut)``;
    the end forces have no y component in any regime.
    """
    mu = props.weight_per_length
    chord = math.hypot(dx, dz)

    if length > chord:
        if abs(dx) < EPS_P:
            # doubled strand: each end carries the piece hanging from it
            droid_strand = min(max(0.5 * (length - dz), 0.0), length)
            return (0.0, -mu * droid_strand, 0.0,
                    -mu * (length - droid_strand), mu * droid_strand, False)
        if (span := _catenary(abs(dx), dz, length)) is not None:
            scale, x_a = span
            vertex_tension = mu * scale
            horizontal = math.copysign(vertex_tension, dx)
            vertical = vertex_tension * math.sinh(x_a / scale)
            return (horizontal, vertical, -horizontal, -vertical - mu * length,
                    vertex_tension * math.cosh(x_a / scale), False)

    # taut, or slack at the taut limit (a scale above the bracket)
    ux = dx / chord
    uz = dz / chord
    stretch_rate = -payout_rate + (ux * dvx + uz * dvz)
    pull = max(TETHER_STIFFNESS * (chord - length)
               + damping * stretch_rate, 0.0)
    half_weight = -0.5 * mu * length
    droid_x = pull * ux
    droid_z = pull * uz + half_weight
    return (droid_x, droid_z, -droid_x, -pull * uz + half_weight,
            math.sqrt(droid_x * droid_x + droid_z * droid_z), True)


def _flat_inputs(acc, jerk, heading, yaw_rate: float, pull,
                 mass: float, gravity: float):
    """Invert flat outputs into (thrust, attitude, body rates).

    The rotor force must supply the desired acceleration against gravity
    and the measured cable pull.  Its direction fixes the body z-axis; the
    yaw angle picks the heading; body rates follow from the force-vector
    rate, approximated by the mass-scaled jerk (the cable force variation
    is dropped, consistent with the quasi-static cable model).

    ``acc``, ``jerk`` and ``pull`` are 3-tuples and ``heading`` is
    (cos yaw, sin yaw).  Returns ``(thrust, rotation, rates)`` with the
    rotation as a row-major 9-tuple whose columns are the body axes.
    """
    hx = mass * acc[0] - pull[0]
    hy = mass * acc[1] - pull[1]
    hz = mass * (acc[2] + gravity) - pull[2]
    thrust = math.sqrt(hx * hx + hy * hy + hz * hz)
    if thrust < 1e-6:
        raise DegenerateThrust(
            "net rotor force vanishes; attitude is undefined")
    zx, zy, zz = hx / thrust, hy / thrust, hz / thrust
    cos_yaw, sin_yaw = heading
    # y_b = z_b x heading, with heading = (cos yaw, sin yaw, 0)
    yx, yy, yz = -zz * sin_yaw, zz * cos_yaw, zx * sin_yaw - zy * cos_yaw
    norm = math.sqrt(yx * yx + yy * yy + yz * yz)
    if norm < 1e-9:
        raise DegenerateThrust("thrust axis is parallel to the heading")
    yx, yy, yz = yx / norm, yy / norm, yz / norm
    # x_b = y_b x z_b
    xx = yy * zz - yz * zy
    xy = yz * zx - yx * zz
    xz = yx * zy - yy * zx

    jx, jy, jz = mass * jerk[0], mass * jerk[1], mass * jerk[2]
    roll_rate = -(yx * jx + yy * jy + yz * jz) / thrust
    pitch_rate = (xx * jx + xy * jy + xz * jz) / thrust
    return (thrust, (xx, yx, zx, xy, yy, zy, xz, yz, zz),
            (roll_rate, pitch_rate, yaw_rate * zz))


def _advance(pos, vel, rot, thrust: float, rates, force,
             mass: float, gravity: float, dt: float):
    """One integration step, with the rotor force along the body z-axis.

    Semi-implicit Euler for the translation, then R exp([w]x dt) by
    Rodrigues' formula for the attitude.  Vectors are 3-tuples and ``rot``
    a row-major 9-tuple; returns ``(position, velocity, rotation,
    acceleration)`` in the same forms.
    """
    ax = (thrust * rot[2] + force[0]) / mass
    ay = (thrust * rot[5] + force[1]) / mass
    az = (thrust * rot[8] + force[2] - mass * gravity) / mass
    vx = vel[0] + ax * dt
    vy = vel[1] + ay * dt
    vz = vel[2] + az * dt
    position = (pos[0] + vx * dt, pos[1] + vy * dt, pos[2] + vz * dt)
    px, py, pz = rates[0] * dt, rates[1] * dt, rates[2] * dt
    if px == 0.0 and py == 0.0 and pz == 0.0:
        # exp(0) = I; theta_sq == 0 would skip tiny increments that still rotate
        return position, (vx, vy, vz), rot, (ax, ay, az)

    # exp([phi]x) = I + A [phi]x + B [phi]x^2, with
    # A = sin(theta)/theta and B = (1 - cos(theta))/theta^2
    theta_sq = px * px + py * py + pz * pz
    if theta_sq < _SMALL_ANGLE_SQ:
        a = 1.0 - theta_sq / 6.0
        b = 0.5 - theta_sq / 24.0
    else:
        theta = math.sqrt(theta_sq)
        half = 0.5 * theta
        a = math.sin(theta) / theta
        b = 0.5 * (math.sin(half) / half) ** 2
    e00 = 1.0 - b * (py * py + pz * pz)
    e11 = 1.0 - b * (px * px + pz * pz)
    e22 = 1.0 - b * (px * px + py * py)
    bxy, bxz, byz = b * px * py, b * px * pz, b * py * pz
    apx, apy, apz = a * px, a * py, a * pz
    e01, e10 = bxy - apz, bxy + apz
    e02, e20 = bxz + apy, bxz - apy
    e12, e21 = byz - apx, byz + apx
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = rot
    rotation = (
        r00 * e00 + r01 * e10 + r02 * e20,
        r00 * e01 + r01 * e11 + r02 * e21,
        r00 * e02 + r01 * e12 + r02 * e22,
        r10 * e00 + r11 * e10 + r12 * e20,
        r10 * e01 + r11 * e11 + r12 * e21,
        r10 * e02 + r11 * e12 + r12 * e22,
        r20 * e00 + r21 * e10 + r22 * e20,
        r20 * e01 + r21 * e11 + r22 * e21,
        r20 * e02 + r21 * e12 + r22 * e22,
    )
    return position, (vx, vy, vz), rotation, (ax, ay, az)


TELEMETRY_COLUMNS = ("t", "x", "y", "z", "vx", "vy", "vz",
                     "ax", "ay", "az", "l_min", "l_now", "l_max",
                     "tension", "thrust")


@dataclass
class TelemetryLog:
    """Per-step simulation record plus the corridor post-check."""

    time: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    l_min: np.ndarray
    l_now: np.ndarray
    l_max: np.ndarray
    tension: np.ndarray
    thrust: np.ndarray
    corridor_ok: bool = True
    corridor_violation: float = 0.0

    def as_matrix(self) -> np.ndarray:
        return np.column_stack([
            self.time, self.position, self.velocity, self.acceleration,
            self.l_min, self.l_now, self.l_max, self.tension, self.thrust])


def _track(ts: np.ndarray, reference, winch: WinchSchedule, heading,
           far_end, props: CableProperties, params: DroneParams, dt: float,
           carrier_mass: float | None = None) -> TelemetryLog:
    """Track ``reference`` (per-step position, velocity, acceleration and
    jerk at ``ts``) against the cable, then post-check the corridor.

    The cable's far end stays at ``far_end`` (the anchor) unless a
    ``carrier_mass`` is given; then it is a point mass moved by the cable
    and gravity, and the taut spring is damped for that mass, not the
    droid's.  ``heading`` is (cos yaw, sin yaw).
    """
    offset = props.attachment_offset
    mass, gravity, kp, kd = params.mass, props.gravity, params.kp, params.kd
    moving = carrier_mass is not None
    damping = 2.0 * math.sqrt(TETHER_STIFFNESS
                              * (carrier_mass if moving else mass))
    lengths = winch.length_at(ts).tolist()
    rates = winch.rate_at(ts).tolist()

    pos, vel, rot = reference[0][0], reference[1][0], None
    # the far end only moves in x-z: the cable's end forces have no y part
    end_x, end_y, end_z = far_end
    end_vx = end_vz = 0.0
    rows = []
    for t, rp, rv, ra, rj, l_now, rate in zip(ts.tolist(), *reference,
                                               lengths, rates):
        px, py, pz = pos
        vx, vy, vz = vel
        droid_x, droid_z, end_fx, end_fz, tension, _ = _cable_forces(
            end_x - px, end_z - (pz + offset), end_vx - vx, end_vz - vz,
            l_now, rate, props, damping)
        pull = (droid_x, 0.0, droid_z)
        command = (ra[0] + kp * (rp[0] - px) + kd * (rv[0] - vx),
                   ra[1] + kp * (rp[1] - py) + kd * (rv[1] - vy),
                   ra[2] + kp * (rp[2] - pz) + kd * (rv[2] - vz))
        thrust, attitude, body_rates = _flat_inputs(
            command, rj, heading, 0.0, pull, mass, gravity)
        if rot is None:
            rot = attitude
        pos, vel, rot, acc = _advance(pos, vel, rot, thrust, body_rates,
                                      pull, mass, gravity, dt)
        if moving:
            end_vx += end_fx / carrier_mass * dt
            end_vz += (end_fz / carrier_mass - gravity) * dt
            end_x += end_vx * dt
            end_z += end_vz * dt
        rows.append((t, px, py, pz, vx, vy, vz, *acc, l_now, tension,
                     thrust, end_x, end_y, end_z))

    rows = np.array(rows)
    position = rows[:, 1:4]
    l_min, l_max = corridor_bounds_batch(position, rows[:, 13:], props)
    l_now = rows[:, 10]
    # a taut carrier sits below the slack corridor on purpose, so only the
    # sag-limited upper bound is meaningful when the far end moves
    violation = corridor_violation(0.0 if moving else l_min, l_now, l_max)
    return TelemetryLog(
        time=rows[:, 0], position=position, velocity=rows[:, 4:7],
        acceleration=rows[:, 7:10], l_min=l_min, l_now=l_now, l_max=l_max,
        tension=rows[:, 11], thrust=rows[:, 12],
        corridor_ok=violation < VIOLATION_TOL,
        corridor_violation=violation)


def simulate_pickup(traj: Trajectory, scenario,
                    params: DroneParams = DroneParams(),
                    dt: float = DEFAULT_TIMESTEP) -> TelemetryLog:
    """Fly the planned trajectory against the cable model.

    ``scenario`` provides the anchor, winch schedule, cable properties
    (gravity included), and yaw (a PlanningScenario or anything shaped like
    one).  Feedback gains live in ``params``; zeroing them gives the
    open-loop flatness replay.
    """
    if not 0.0 < dt < math.inf:
        raise ValidationError("dt must be positive and finite")
    n_steps = max(int(round(traj.duration / dt)), 1)
    ts = np.minimum(np.arange(n_steps + 1) * dt, traj.duration)
    reference = [traj.evaluate_batch(ts, order).tolist()
                 for order in range(4)]
    heading = (math.cos(scenario.yaw), math.sin(scenario.yaw))
    anchor = np.asarray(scenario.anchor_position, dtype=float).tolist()
    return _track(ts, reference, scenario.winch, heading, anchor,
                  scenario.cable, params, dt)


def simulate_retrieval(droid_position, winch: WinchSchedule,
                       attach_mass: float,
                       props: CableProperties = CableProperties(),
                       params: DroneParams = DroneParams(),
                       dt: float = DEFAULT_TIMESTEP,
                       stow_length: float = 0.2,
                       max_time: float = 120.0) -> TelemetryLog:
    """Hold position while reeling a hanging carrier up to the stow length.

    The carrier is a point mass on the cable end below the droid; the winch
    follows its schedule (payout negative when reeling in) and the run ends
    at the first step whose released length is at or below ``stow_length``,
    or at ``max_time``.
    """
    if not 0.0 < attach_mass < math.inf:
        raise ValidationError("attach mass must be finite and positive")
    if not (0.0 < dt < math.inf and 0.0 < max_time < math.inf):
        raise ValidationError("dt and max_time must be positive and finite")
    if winch.initial_length <= stow_length:
        raise ValidationError("winch starts at or below the stow length")
    hold = tuple(np.asarray(droid_position, dtype=float).reshape(3).tolist())
    ts = np.arange(int(round(max_time / dt)) + 1) * dt
    stowed = winch.length_at(ts) <= stow_length
    if stowed.any():
        ts = ts[:stowed.argmax() + 1]
    still = [(0.0, 0.0, 0.0)] * len(ts)
    carrier = (hold[0], hold[1],
               hold[2] + props.attachment_offset - winch.initial_length)
    return _track(ts, ([hold] * len(ts), still, still, still), winch,
                  (1.0, 0.0), carrier, props, params, dt,
                  carrier_mass=attach_mass)
