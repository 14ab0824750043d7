"""Soft-penalty planning objective and its quasi-Newton minimization.

The planner's decision variables are the interior waypoints of a uniform
piecewise-quintic trajectory plus (optionally) the total duration.  The
objective is

    J = smoothness + rho * T + sum_i  w_i * penalty_i

where every constraint (velocity, acceleration, jerk, thrust window,
obstacle clearance, cable-length corridor) enters as a cubic hinge
max(violation, 0)^3 sampled at kappa+1 equally spaced times.  Cubic hinges
are C2, so a limited-memory quasi-Newton method with Wolfe line search
handles them well.

``total_cost`` is one pass: it samples the trajectory once (``_Samples``),
runs the corridor's root find once, and returns the weighted breakdown,
the exact gradient and the worst raw hinge argument of each term from the
same arrays.  The samples sit at fixed fractions of a segment, so one
read-only operator per (segment count, kappa) (``_sample_grid``) reads
derivative orders 0..4 at every sample off the time-normalized
coefficients c dT^k.  Every sampled hinge is built by one of two helpers:
``_limit`` caps the squared magnitude of one derivative (velocity,
acceleration, jerk), and ``_band`` keeps a value inside [low, high]
(thrust, the cable corridor, and the dense ``corridor_violation`` check).
Obstacles are one-sided per plane.  Each term hands back its slope per
sample; ``total_cost`` adds the weighted slopes up per derivative order
and pulls them back onto the coefficient array and the duration with one
transposed product (``_Samples.gradient``); the duration also moves the
matrix of the trajectory construction (see trajectory.propagate_gradients).
The corridor's upper bound comes from one Newton solve per sample, and its
positional derivative from a closed form at the solved scale
(cable.corridor_bounds_and_gradient).

``optimize`` runs scipy's L-BFGS-B on conditioned coordinates:

- *Seed.*  The waypoints start at the minimum of the jerk energy for the
  seed duration.  That energy is quadratic in the waypoints, with one
  per-axis Hessian H1 * dT^-5 (``_jerk_hessian``, cached per segment count).
- *Whitening.*  Each leg runs on z with q = q0 + dT^(5/2) L^-T z per axis,
  where H1 = L L^T and q0, dT are the leg's start, so the jerk part has unit
  curvature there.  The softplus duration variable theta is scaled by
  |d2J/dtheta2|^(-1/2) from a central difference, clipped to [0.1, 10].
- *Restarts.*  A status-0 stop whose gradient is still large (a false ftol
  stop) does not end the plan: the next leg starts from that point,
  re-whitened there.
- *Shifts.*  A converged plan whose worst hinge is not below VIOLATION_TOL
  gets one shift s >= 0 per sample and hinge side, inside the hinge:
  w * max(g + s, 0)^3, updated as s <- max(s + g, 0) (Powell's multiplier
  update; the multiplier is 3 w s^2), and is solved again from where it
  stopped.  A round that does not halve the worst hinge is dropped: the
  problem is infeasible, and the round before it is returned.  A round
  whose worst hinge is not below the last round's at one of its 25-iteration
  checks is cut short there, and dropped the same way.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cable import (
    CableProperties,
    corridor_bounds_and_gradient,
    corridor_bounds_batch,
)
from .errors import ValidationError
from .trajectory import (
    NCOEF,
    BoundaryState,
    Trajectory,
    basis_rows_upto,
    construct,
    jerk_energy,
    propagate_gradients,
    time_powers,
)

# Shortest admissible plan duration; the optimizer's duration variable is
# T = MIN_DURATION + softplus(theta), which keeps T positive without bounds.
MIN_DURATION = 0.1

# A plan counts as feasible when no sampled hinge argument exceeds this.
VIOLATION_TOL = 1e-3

# L-BFGS-B's ftol test can fire on one tiny line step far from a minimum.
# A status-0 stop counts as converged only when max |dJ/dz| over the
# whitened coordinates is at most this fraction of max(|J|, 1).  On the
# shipped scenarios, the six sweep_grid points and ten random test problems,
# genuine stops measured 3e-9 to 1.6e-5 of J, and the false stops (two grid
# points, after 2 iterations each) 0.22 and 0.87.
_STOP_GRADIENT_RTOL = 1e-2

# The duration variable theta is scaled by |d2J/dtheta2|^(-1/2), taken from
# a central difference of dJ/dtheta with this step and clipped to this band.
_THETA_STEP = 1e-3
_THETA_SCALE_CLIP = (0.1, 10.0)

# Every this many iterations a shift round checks that it is not worsening.
_WORSENING_CHECK_PERIOD = 25


def _blas_thread_controls(library: str):
    """(getter, setter) of scipy's OpenBLAS thread count, or None.

    dlsym on the handle of ``library``, a scipy extension, also searches
    the BLAS it links; a build without the symbols yields None.
    """
    try:
        lib = ctypes.CDLL(library)
        return (lib.scipy_openblas_get_num_threads,
                lib.scipy_openblas_set_num_threads)
    except (OSError, AttributeError):
        return None


# L-BFGS-B calls LAPACK every iteration, which wakes an OpenBLAS worker
# thread that then spins between iterations: a second core per planner.
@contextlib.contextmanager
def _single_blas_thread():
    """Pin scipy's BLAS to one thread, then restore the caller's count."""
    from scipy.optimize import _lbfgsb
    controls = _blas_thread_controls(_lbfgsb.__file__)
    if controls is None:
        yield
        return
    get_threads, set_threads = controls
    caller_threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(caller_threads)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first plan, not at load."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


@dataclass(frozen=True)
class Limits:
    """Kinodynamic limits, sampling resolution, and time weighting."""

    v_max: float = 2.0
    a_max: float = 6.0
    j_max: float = 30.0
    tau_min: float = 2.0
    tau_max: float = 20.0
    samples: int = 32
    obstacle_margin: float = 0.3
    time_weight: float = 20.0
    corridor_margin: float = 0.0

    def __post_init__(self) -> None:
        for name in ("v_max", "a_max", "j_max", "tau_min", "tau_max",
                     "obstacle_margin", "time_weight"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"limits.{name} must be positive")
        if not self.tau_min < self.tau_max:
            raise ValidationError("limits require tau_min < tau_max")
        if self.samples < 2:
            raise ValidationError("limits.samples must be at least 2")
        if self.corridor_margin < 0:
            raise ValidationError("limits.corridor_margin must be nonnegative")


@dataclass(frozen=True)
class PenaltyWeights:
    velocity: float = 1e4
    accel_jerk: float = 1e4
    thrust: float = 1e4
    cable: float = 1e5
    obstacle: float = 1e5

    def __post_init__(self) -> None:
        for name in ("velocity", "accel_jerk", "thrust", "cable", "obstacle"):
            if getattr(self, name) < 0:
                raise ValidationError(f"weights.{name} must be nonnegative")


@dataclass(frozen=True)
class ObstaclePlane:
    """Half-space obstacle: free space lies on the +normal side of point."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self) -> None:
        point = np.asarray(self.point, dtype=float).reshape(3)
        normal = np.asarray(self.normal, dtype=float).reshape(3)
        norm = float(np.linalg.norm(normal))
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-6:
            raise ValidationError("obstacle normal must be unit length")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "normal", normal / norm)


@dataclass(frozen=True)
class WinchSchedule:
    """Kinematic released-length schedule L(t) = L0 + payout_speed * t."""

    initial_length: float
    payout_speed: float = 0.0
    capacity: float = math.inf

    def __post_init__(self) -> None:
        if not (self.initial_length >= 0 and math.isfinite(self.initial_length)):
            raise ValidationError("winch initial_length must be nonnegative")
        if not math.isfinite(self.payout_speed):
            raise ValidationError("winch payout_speed must be finite")
        if not self.capacity > 0:
            raise ValidationError("winch capacity must be positive")

    def length_at(self, t):
        raw = self.initial_length + self.payout_speed * np.asarray(t, dtype=float)
        return np.clip(raw, 0.0, self.capacity)

    def rate_at(self, t):
        """d length / dt, zero wherever the schedule is clipped."""
        raw = self.initial_length + self.payout_speed * np.asarray(t, dtype=float)
        inside = (raw > 0.0) & (raw < self.capacity)
        return np.where(inside, self.payout_speed, 0.0)


@dataclass(frozen=True)
class PlanningScenario:
    """Everything the planner needs to know about one pickup problem."""

    start_state: BoundaryState
    goal_position: np.ndarray
    goal_velocity: np.ndarray
    anchor_position: np.ndarray
    winch: WinchSchedule
    cable: CableProperties = CableProperties()
    obstacles: tuple = ()
    limits: Limits = Limits()
    weights: PenaltyWeights = PenaltyWeights()
    segment_count: int = 6
    yaw: float = 0.0

    def __post_init__(self) -> None:
        for name in ("goal_position", "goal_velocity", "anchor_position"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"scenario {name} must be finite")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.segment_count < 1:
            raise ValidationError("segment_count must be at least 1")
        if not (-math.pi < self.yaw <= math.pi):
            raise ValidationError("yaw must lie in (-pi, pi]")

    @property
    def gravity_vector(self) -> np.ndarray:
        return np.array([0.0, 0.0, -self.cable.gravity])


@dataclass(frozen=True)
class CostBreakdown:
    """Weighted cost contributions; fields sum to total."""

    smoothness: float = 0.0
    time: float = 0.0
    velocity: float = 0.0
    acceleration: float = 0.0
    jerk: float = 0.0
    thrust: float = 0.0
    obstacle: float = 0.0
    cable: float = 0.0

    @property
    def total(self) -> float:
        return (self.smoothness + self.time + self.velocity + self.acceleration
                + self.jerk + self.thrust + self.obstacle + self.cable)


@dataclass
class OptimizeResult:
    trajectory: Trajectory
    breakdown: CostBreakdown
    iterations: int
    status: str
    penalties_ok: bool
    max_violation: float
    evaluations: int = 0
    multiplier_updates: int = 0
    history: list = field(default_factory=list)
    message: str = ""


def sample_times(t0: float, t_end: float, kappa: int) -> np.ndarray:
    """kappa+1 equally spaced sample times from t0 to t_end inclusive."""
    return np.linspace(t0, t_end, kappa + 1)


def _hinge_parts(x: np.ndarray, shift=None) -> tuple[np.ndarray, np.ndarray]:
    """The cubic hinge max(x + shift, 0)^3 and its slope, from one clamp."""
    clamped = np.maximum(x if shift is None else x + shift, 0.0)
    return clamped ** 3, 3.0 * clamped ** 2


@functools.lru_cache(maxsize=None)
def _sample_grid(n_seg: int, kappa: int):
    """(operator, fraction, position) of the kappa+1 samples on N segments.

    Sample i sits i N / kappa segments from the start, ``position``: in
    segment min(i N // kappa, N - 1), at ``fraction`` of its length.  The
    operator, shape (5 (kappa+1), 6N), maps the time-normalized coefficients
    c dT^k, flattened, to dT^o times the order-o derivative at every sample,
    orders 0..4 stacked in that order.
    """
    index = np.arange(kappa + 1)
    seg = np.minimum(index * n_seg // kappa, n_seg - 1)
    fraction = (index * n_seg - seg * kappa) / kappa
    operator = np.zeros((5, kappa + 1, n_seg, NCOEF))
    operator[:, index, seg] = basis_rows_upto(fraction, 4)
    operator = operator.reshape(5 * (kappa + 1), NCOEF * n_seg)
    position = index * n_seg / kappa
    # the cache hands these arrays to every caller
    for array in (operator, fraction, position):
        array.flags.writeable = False
    return operator, fraction, position


class _Samples:
    """Shared per-sample data for all sampled penalty terms."""

    def __init__(self, traj: Trajectory, kappa: int):
        self.traj = traj
        self.ts = sample_times(0.0, traj.duration, kappa)
        # d tau_i / d dT and d t_i / d dT for the moving sample grid
        self.operator, self.tau_motion, self.time_motion = \
            _sample_grid(traj.segment_count, kappa)
        self.powers = time_powers(traj.segment_duration)
        normalized = traj.coefficients * self.powers[:, None]
        # deriv[o] is the order-o derivative at every sample, o = 0..4
        self.deriv = (self.operator @ normalized.reshape(-1, 3)).reshape(
            5, kappa + 1, 3) / self.powers[:5, None, None]

    def gradient(self, slopes):
        """(dJ/dcoefficients, dJ/ddT) of a sampled cost whose slope with
        respect to the order-o derivative at sample i is slopes[o, i].

        One transposed product with the operator carries every order onto
        the coefficient array; the dT part comes from the samples sliding
        along the moving grid.
        """
        orders = slopes.shape[0]
        scaled = slopes / self.powers[:orders, None, None]
        rows = orders * self.ts.size
        grad_c = (self.operator[:rows].T @ scaled.reshape(rows, 3)).reshape(
            self.traj.coefficients.shape) * self.powers[:, None]
        ddt = float(np.add.reduce(
            np.einsum("oix,oix->i", slopes, self.deriv[1:orders + 1])
            * self.tau_motion))
        return grad_c, ddt


def _band(x, low, high, shift=None):
    """Cubic hinges keeping x inside [low, high].

    Returns (value, slope_low, slope_high, args): the hinge sum, the two
    sides' slopes with respect to their shifted arguments, and the unshifted
    arguments stacked as rows (low - x, x - high).  ``shift`` has the shape
    of ``args``.
    """
    args = np.stack([low - x, x - high])
    hinge, slope = _hinge_parts(args, shift)
    value = float(np.add.reduce(hinge[0])) + float(np.add.reduce(hinge[1]))
    return value, slope[0], slope[1], args


# Every sampled term returns (value, order, gvec, direct_ddt, args): its
# hinge sum, the derivative order 0..3 its slope gvec is taken against,
# any dT dependence the samples' motion does not carry,
# and its raw hinge arguments, one row per side or plane.  ``shift``, of the
# shape of args, moves every argument inside its hinge.
def _limit(samples: _Samples, order: int, limit: float, shift=None):
    """Cubic hinge on the squared magnitude of one derivative against
    limit ** 2: velocity, acceleration or jerk."""
    d = samples.deriv[order]
    over = np.add.reduce(d * d, axis=1) - limit ** 2
    hinge, slope = _hinge_parts(over, shift)
    return (float(np.add.reduce(hinge)), order, 2.0 * d * slope[:, None],
            0.0, over)


def _thrust_penalty(samples: _Samples, scenario: PlanningScenario,
                    shift=None):
    """Band on the squared specific thrust |a - g|^2 between the squared
    limits tau_min and tau_max."""
    limits = scenario.limits
    d = samples.deriv[2] - scenario.gravity_vector
    value, slope_low, slope_high, args = _band(
        np.add.reduce(d * d, axis=1), limits.tau_min ** 2,
        limits.tau_max ** 2, shift)
    return value, 2, 2.0 * d * (slope_high - slope_low)[:, None], 0.0, args


def _obstacle_penalty(samples: _Samples, obstacles, margin: float,
                      shift=None):
    """Hinge on clearance from every half-space obstacle at every sample;
    the arguments are shortfalls in meters, one row per plane."""
    pos = samples.deriv[0]
    value = 0.0
    gvec = np.zeros_like(pos)
    args = np.empty((len(obstacles), pos.shape[0]))
    for k, plane in enumerate(obstacles):
        args[k] = margin - (pos - plane.point) @ plane.normal
        hinge, slope = _hinge_parts(args[k],
                                    None if shift is None else shift[k])
        value += float(np.add.reduce(hinge))
        gvec -= np.outer(slope, plane.normal)
    return value, 0, gvec, 0.0, args


def _cable_penalty(samples: _Samples, scenario: PlanningScenario,
                   shift=None):
    """Hinges keeping the released length inside the feasible corridor.

    Gradient with respect to the droid position flows through both corridor
    edges (cable.corridor_bounds_and_gradient).  The released length follows
    the winch schedule, so the sampled times' dependence on T contributes as
    well, as the term's direct_ddt.  The arguments are in squared meters.
    """
    margin = scenario.limits.corridor_margin
    l_min, l_max, dlmin_dp, dlmax_dp = corridor_bounds_and_gradient(
        samples.deriv[0], scenario.anchor_position, scenario.cable)
    l_min_eff = l_min + margin
    l_max_eff = l_max - margin
    l_now = scenario.winch.length_at(samples.ts)
    rate = scenario.winch.rate_at(samples.ts)

    value, slope_under, slope_over, args = _band(
        l_now ** 2, l_min_eff ** 2, l_max_eff ** 2, shift)
    gvec = (2.0 * l_min_eff * slope_under)[:, None] * dlmin_dp \
        - (2.0 * l_max_eff * slope_over)[:, None] * dlmax_dp
    # the winch schedule is a function of absolute time, which scales with T
    lnow_sens = 2.0 * l_now * rate * (slope_over - slope_under)
    return (value, 0, gvec,
            float(np.add.reduce(lnow_sens * samples.time_motion)), args)


def _terms(samples: _Samples, scenario: PlanningScenario, shifts=None):
    """(name, weight, term) of every sampled penalty; ``shifts`` maps a
    term's name to the shifts of its hinge arguments."""
    weights = scenario.weights
    limits = scenario.limits
    shifts = shifts or {}
    terms = [
        ("velocity", weights.velocity,
         _limit(samples, 1, limits.v_max, shifts.get("velocity"))),
        ("acceleration", weights.accel_jerk,
         _limit(samples, 2, limits.a_max, shifts.get("acceleration"))),
        ("jerk", weights.accel_jerk,
         _limit(samples, 3, limits.j_max, shifts.get("jerk"))),
        ("thrust", weights.thrust,
         _thrust_penalty(samples, scenario, shifts.get("thrust")))]
    if scenario.obstacles and weights.obstacle != 0.0:
        terms.append(("obstacle", weights.obstacle, _obstacle_penalty(
            samples, scenario.obstacles, limits.obstacle_margin,
            shifts.get("obstacle"))))
    if weights.cable != 0.0:
        terms.append(("cable", weights.cable,
                      _cable_penalty(samples, scenario, shifts.get("cable"))))
    return terms


def total_cost(traj: Trajectory, scenario: PlanningScenario, shifts=None):
    """One evaluation of the full objective.

    Returns (CostBreakdown, dJ/dq, dJ/dT, worst).  ``worst`` maps each
    penalty term to its largest raw hinge argument over the samples,
    floored at 0, and to 0 when the scenario gives the term no weight.
    Units match each hinge: squared speed/acceleration/jerk/thrust for the
    limit and thrust terms, meters for obstacles, squared meters for the
    corridor.  ``shifts`` (see ``_shift_update``) moves hinge arguments
    inside their hinges: the breakdown and the gradient are then those of
    the shifted objective, while ``worst`` stays unshifted.
    """
    limits = scenario.limits

    smooth, grad_c, grad_ddt = jerk_energy(traj)
    time_cost = limits.time_weight * traj.duration
    grad_ddt += limits.time_weight * traj.segment_count

    samples = _Samples(traj, limits.samples)
    # the weighted slopes of all terms, per derivative order 0..3
    slopes = np.zeros((4,) + samples.ts.shape + (3,))
    parts = {"obstacle": 0.0, "cable": 0.0}
    worst = {"obstacle": 0.0, "cable": 0.0}
    for name, weight, (value, order, gvec, direct_ddt, args) in \
            _terms(samples, scenario, shifts):
        parts[name] = weight * value
        worst[name] = max(float(np.max(args)), 0.0) if weight > 0.0 else 0.0
        if weight != 0.0:
            slopes[order] += weight * gvec
            grad_ddt += weight * direct_ddt
    sampled_c, sampled_ddt = samples.gradient(slopes)

    breakdown = CostBreakdown(smoothness=smooth, time=time_cost, **parts)
    dj_dq, dj_dt = propagate_gradients(traj, grad_c + sampled_c,
                                       grad_ddt + sampled_ddt)
    return breakdown, dj_dq, dj_dt, worst


def _shift_update(traj: Trajectory, scenario: PlanningScenario, shifts):
    """Powell's update s <- max(s + g, 0) of every weighted hinge's shifts,
    from the unshifted arguments g at ``traj``; the multiplier a shift
    stands for is 3 w s^2."""
    shifts = shifts or {}
    return {name: np.maximum(args + shifts.get(name, 0.0), 0.0)
            for name, weight, (*_, args) in _terms(
                _Samples(traj, scenario.limits.samples), scenario)
            if weight > 0.0}


def corridor_profile(traj: Trajectory, scenario: PlanningScenario,
                     kappa: int):
    """(t, l_min, l_now, l_max) sampled along the plan, margin-free."""
    ts = sample_times(0.0, traj.duration, kappa)
    l_min, l_max = corridor_bounds_batch(
        traj.evaluate_batch(ts, 0), scenario.anchor_position, scenario.cable)
    return ts, l_min, scenario.winch.length_at(ts), l_max


def corridor_violation(l_min, l_now, l_max) -> float:
    """Worst squared-length excess of l_now outside [l_min, l_max], or 0."""
    return max(float(np.max(_band(l_now ** 2, l_min ** 2, l_max ** 2)[3])),
               0.0)


def _softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _softplus_inverse(y: float) -> float:
    if y <= 0:
        raise ValueError("softplus inverse needs a positive argument")
    if y > 30.0:
        return y
    return math.log(math.expm1(y))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


@functools.lru_cache(maxsize=None)
def _jerk_hessian(n_seg: int) -> tuple[np.ndarray, np.ndarray]:
    """(H1, W): the per-axis Hessian of the jerk energy over the waypoints
    at dT = 1, and the whitening W = L^-T of its factor H1 = L L^T.

    Jerk energy is quadratic in the waypoints, the axes decouple, and the
    boundary values only shift its gradient, so one gradient probe per
    waypoint of the all-zero problem gives H1 exactly.  Time scaling gives
    H(dT) = H1 * dT^-5, so dT^(5/2) W whitens every duration.
    """
    n_wp = n_seg - 1
    rest = BoundaryState.at_rest(np.zeros(3))
    hessian = np.empty((n_wp, n_wp))
    for i in range(n_wp):
        probe = np.zeros((n_wp, 3))
        probe[i] = 1.0
        traj = construct(probe, float(n_seg), rest, np.zeros(3), np.zeros(3))
        slope = propagate_gradients(traj, jerk_energy(traj)[1])[0]
        hessian[:, i] = slope[:, 0]
    hessian = 0.5 * (hessian + hessian.T)
    whitening = np.linalg.solve(np.linalg.cholesky(hessian), np.eye(n_wp)).T
    # the cache hands these arrays to every caller
    hessian.flags.writeable = whitening.flags.writeable = False
    return hessian, whitening


def _min_jerk_waypoints(scenario: PlanningScenario, duration: float):
    """The waypoints of least jerk energy at ``duration``: -H^-1 b, with b
    the jerk gradient at zero waypoints."""
    n_seg = scenario.segment_count
    zero = np.zeros((n_seg - 1, 3))
    traj = construct(zero, duration, scenario.start_state,
                     scenario.goal_position, scenario.goal_velocity)
    slope = propagate_gradients(traj, jerk_energy(traj)[1])[0]
    whitening = _jerk_hessian(n_seg)[1]
    return -traj.segment_duration ** 5 * (whitening @ (whitening.T @ slope))


def initial_guess(scenario: PlanningScenario):
    """Min-jerk waypoints plus a duration consistent with the winch.

    The duration seed makes the released length land mid-corridor at
    arrival, which leaves the most slack on both cable edges; seeding at
    the taut chord instead starts the search pinned against the lower edge
    and can strand a narrow-corridor problem in an infeasible stationary
    point.  When the payout direction cannot reach the corridor at all,
    fall back to a cruise-speed estimate.  The waypoints minimize the jerk
    energy at that duration.
    """
    start = scenario.start_state.position
    goal = scenario.goal_position
    l_min, l_max = corridor_bounds_batch(goal[None, :],
                                         scenario.anchor_position,
                                         scenario.cable)
    target = 0.5 * float(l_min[0] + l_max[0])
    duration = 0.0
    if scenario.winch.payout_speed != 0.0:
        duration = (target - scenario.winch.initial_length) \
            / scenario.winch.payout_speed
    if not (duration > 0.0 and math.isfinite(duration)):
        distance = float(np.linalg.norm(goal - start))
        duration = max(1.5 * distance / scenario.limits.v_max, 1.0)
    duration = max(duration, MIN_DURATION + 0.5)
    return _min_jerk_waypoints(scenario, duration), duration


def optimize(scenario: PlanningScenario, fixed_duration: float | None = None,
             max_iterations: int = 500) -> OptimizeResult:
    """Minimize the penalty objective over waypoints (and duration).

    Returns the end of the last shift round, or of the round before it when
    its shifts did not halve the worst hinge; ``status`` distinguishes clean
    convergence from hitting the iteration cap or a stalled line search, and
    ``penalties_ok`` reports whether every sampled hinge is essentially
    inactive at the returned plan.  The breakdown and hinge report are
    unshifted.  Every leg, restart and shift round counts its iterations
    against ``max_iterations``.
    """
    if fixed_duration is None:
        waypoints, duration0 = initial_guess(scenario)
    else:
        if not 0.0 < fixed_duration < math.inf:
            raise ValidationError("fixed duration must be finite and positive")
        duration0 = fixed_duration
        waypoints = _min_jerk_waypoints(scenario, duration0)
    n_seg = scenario.segment_count
    n_wp = n_seg - 1
    optimize_time = fixed_duration is None
    whitening = _jerk_hessian(n_seg)[1]
    history = []
    evaluations = 0
    shifts = None

    def duration_at(theta):
        return MIN_DURATION + _softplus(theta) if optimize_time else duration0

    def evaluate(q, theta, shifted=True):
        """(trajectory, breakdown, dJ/dq, dJ/dtheta, worst), under the
        current shifts unless ``shifted`` is false."""
        nonlocal evaluations
        evaluations += 1
        traj = construct(q, duration_at(theta), scenario.start_state,
                         scenario.goal_position, scenario.goal_velocity)
        breakdown, dj_dq, dj_dt, worst = total_cost(
            traj, scenario, shifts if shifted else None)
        return traj, breakdown, dj_dq, dj_dt * _sigmoid(theta), worst

    def theta_scale(q, theta):
        """|d2J/dtheta2|^(-1/2) from a central difference, clipped."""
        if not optimize_time:
            return 1.0
        up = evaluate(q, theta + _THETA_STEP)[3]
        down = evaluate(q, theta - _THETA_STEP)[3]
        curvature = abs(up - down) / (2.0 * _THETA_STEP)
        scale = 1.0 / math.sqrt(curvature) if curvature > 0.0 else math.inf
        return min(max(scale, _THETA_SCALE_CLIP[0]), _THETA_SCALE_CLIP[1])

    def leg(q0, theta0, budget):
        """One L-BFGS-B run from z = 0, where q = q0 + dT^(5/2) W z per axis
        and theta = theta0 + s_T z[-1].  Returns (result, q, theta)."""
        basis = (duration_at(theta0) / n_seg) ** 2.5 * whitening
        scale = theta_scale(q0, theta0)
        latest = [None, None]

        def point(z):
            q = q0 + basis @ z[:3 * n_wp].reshape(n_wp, 3)
            return q, theta0 + scale * float(z[-1]) if optimize_time \
                else theta0

        def objective(z):
            _, breakdown, dj_dq, dj_dtheta, worst = evaluate(*point(z))
            grad = np.empty(z.shape)
            grad[:3 * n_wp] = (basis.T @ dj_dq).ravel()
            if optimize_time:
                grad[-1] = scale * dj_dtheta
            latest[:] = breakdown, worst
            return breakdown.total, grad

        def record(z):
            nonlocal worsening
            # L-BFGS-B reports each iterate right after evaluating it
            history.append(latest[0])
            if (len(history) - first) % _WORSENING_CHECK_PERIOD:
                return
            # a shift round whose unshifted worst hinge is not below the
            # last round's is making things worse: end it, to be dropped
            if previous is not None \
                    and max(latest[1].values()) >= previous[2]:
                worsening = True
                raise StopIteration

        first = len(history)
        result = minimize(objective, np.zeros(3 * n_wp + optimize_time),
                          jac=True, method="L-BFGS-B", callback=record,
                          options={"maxiter": budget, "maxcor": 8,
                                   "ftol": 1e-12, "gtol": 1e-6})
        return (result, *point(result.x))

    theta = _softplus_inverse(duration0 - MIN_DURATION) if optimize_time \
        else 0.0
    iterations = updates = 0
    previous = None
    worsening = False
    with _single_blas_thread():
        while True:
            # each leg starts where the last one ended; a restart runs
            # another leg, anything else ends the shift round
            result, waypoints, theta = leg(waypoints, theta,
                                           max_iterations - iterations)
            iterations += int(result.nit)
            false_stop = result.status == 0 and \
                np.max(np.abs(result.jac), initial=0.0) > \
                _STOP_GRADIENT_RTOL * max(abs(result.fun), 1.0)
            out_of_budget = iterations >= max_iterations
            if false_stop and result.nit > 0 and not out_of_budget:
                continue
            if result.status == 0 and not false_stop:
                status = "converged"
            elif result.status == 1 or (false_stop and out_of_budget):
                status = "max_iterations"
            else:
                status = "line_search_failure"
            message = str(result.message)
            traj, breakdown, _, _, violations = evaluate(waypoints, theta,
                                                         shifted=False)
            worst = max(violations.values())
            if worst < VIOLATION_TOL:
                break
            # a round cut short for worsening fails this test as well
            if previous is not None and worst > 0.5 * previous[2]:
                traj, breakdown, worst, status, message = previous
                break
            if status != "converged" or out_of_budget:
                break
            previous = traj, breakdown, worst, status, message
            shifts = _shift_update(traj, scenario, shifts)
            updates += 1

    return OptimizeResult(trajectory=traj, breakdown=breakdown,
                          iterations=iterations, status=status,
                          penalties_ok=worst < VIOLATION_TOL,
                          max_violation=worst, evaluations=evaluations,
                          multiplier_updates=updates, history=history,
                          message=message)
