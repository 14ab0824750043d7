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
same arrays.  Every sampled hinge is built by one of two helpers:
``_limit`` caps the squared magnitude of one derivative (velocity,
acceleration, jerk), and ``_band`` keeps a value inside [low, high] (thrust,
the cable corridor, and the dense ``corridor_violation`` check).  Obstacles
are one-sided per plane.  Each term hands back its slope per sample, and
one loop in ``total_cost`` pulls every weighted slope back through
``_Samples.pullback`` onto the coefficient array and the duration; the
duration also moves the matrix of the trajectory construction (see
trajectory.propagate_gradients).  The corridor's upper bound comes from
one Newton solve per sample, and its positional derivative from a closed
form at the solved scale (cable.corridor_bounds_and_gradient).
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import _lbfgsb, minimize

from .cable import (
    CableProperties,
    corridor_bounds_and_gradient,
    corridor_bounds_batch,
)
from .errors import ValidationError
from .trajectory import (
    BoundaryState,
    Trajectory,
    basis_rows_upto,
    construct,
    jerk_energy,
    propagate_gradients,
)

# Shortest admissible plan duration; the optimizer's duration variable is
# T = MIN_DURATION + softplus(theta), which keeps T positive without bounds.
MIN_DURATION = 0.1

# A plan counts as feasible when no sampled hinge argument exceeds this.
VIOLATION_TOL = 1e-3

# L-BFGS-B's ftol test can fire on one tiny line step far from a minimum.
# A status-0 stop counts as converged only when max |dJ/dx| is at most this
# fraction of max(|J|, 1).  Runs of the shipped scenarios left to converge
# stopped at 1.0e-3 to 1.5e-3 of J; the false stops seen measured 1.8e2 to
# 3.3e2 of J.
_STOP_GRADIENT_RTOL = 1e-2


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
_BLAS_THREADS = _blas_thread_controls(_lbfgsb.__file__)


@contextlib.contextmanager
def _single_blas_thread():
    """Pin scipy's BLAS to one thread, then restore the caller's count."""
    if _BLAS_THREADS is None:
        yield
        return
    get_threads, set_threads = _BLAS_THREADS
    caller_threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(caller_threads)


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
    history: list = field(default_factory=list)
    message: str = ""


def sample_times(t0: float, t_end: float, kappa: int) -> np.ndarray:
    """kappa+1 equally spaced sample times from t0 to t_end inclusive."""
    return np.linspace(t0, t_end, kappa + 1)


def _hinge_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cubic hinge max(x, 0)^3 and its slope, from one clamp."""
    clamped = np.maximum(x, 0.0)
    return clamped ** 3, 3.0 * clamped ** 2


class _Samples:
    """Shared per-sample data for all sampled penalty terms."""

    def __init__(self, traj: Trajectory, kappa: int):
        self.traj = traj
        n = traj.segment_count
        dt = traj.segment_duration
        total = n * dt
        ts = sample_times(0.0, total, kappa)
        seg = np.minimum((ts / dt).astype(int), n - 1)
        tau = ts - seg * dt
        self.ts = ts
        self.seg = seg
        # each sample's entries of the flattened coefficient array
        width = traj.coefficients[0].size
        self.flat = (seg[:, None] * width + np.arange(width)).ravel()
        self.basis = basis_rows_upto(tau, 4)
        coeffs = traj.coefficients[seg]
        self.deriv = [np.einsum("sk,skx->sx", self.basis[o], coeffs)
                      for o in range(5)]
        # d tau_i / d dT and d t_i / d dT for the moving sample grid
        self.time_motion = ts * n / total
        self.tau_motion = self.time_motion - seg

    def pullback(self, order, gvec):
        """(dJ/dcoefficients, dJ/ddT) of a sampled penalty whose slope with
        respect to the order-``order`` derivative at each sample is gvec.

        Each sample's basis row times its slope lands on its segment; the
        dT part comes from the samples sliding along the moving grid.
        np.add.at runs its fast path on one-dimensional operands, and each
        entry still sums its samples in sample order from 0.  grad_c is
        C-ordered, unlike the coefficients, so reshape(-1) is a view of it.
        """
        grad_c = np.zeros(self.traj.coefficients.shape)
        np.add.at(grad_c.reshape(-1), self.flat,
                  (self.basis[order][:, :, None] * gvec[:, None, :]).ravel())
        ddt = float(np.add.reduce(
            np.add.reduce(gvec * self.deriv[order + 1], axis=1)
            * self.tau_motion))
        return grad_c, ddt


def _band(x, low, high):
    """Cubic hinges keeping x inside [low, high].

    Returns (value, slope_low, slope_high, worst): the hinge sum, the two
    sides' slopes with respect to their arguments low - x and x - high, and
    the largest of those arguments.
    """
    under = low - x
    over = x - high
    hinge_low, slope_low = _hinge_parts(under)
    hinge_high, slope_high = _hinge_parts(over)
    value = float(np.add.reduce(hinge_low)) + float(np.add.reduce(hinge_high))
    return value, slope_low, slope_high, float(np.max(np.maximum(under, over)))


# Every sampled term returns (value, order, gvec, direct_ddt, worst):
# its hinge sum, the derivative order its slope gvec is taken against (for
# _Samples.pullback), any dT dependence the samples' motion does not carry,
# and its largest raw hinge argument.
def _limit(samples: _Samples, order: int, limit: float):
    """Cubic hinge on the squared magnitude of one derivative against
    limit ** 2: velocity, acceleration or jerk."""
    d = samples.deriv[order]
    over = np.add.reduce(d * d, axis=1) - limit ** 2
    hinge, slope = _hinge_parts(over)
    return (float(np.add.reduce(hinge)), order, 2.0 * d * slope[:, None],
            0.0, float(np.max(over)))


def _thrust_penalty(samples: _Samples, scenario: PlanningScenario):
    """Band on the squared specific thrust |a - g|^2 between the squared
    limits tau_min and tau_max."""
    limits = scenario.limits
    d = samples.deriv[2] - scenario.gravity_vector
    value, slope_low, slope_high, worst = _band(
        np.add.reduce(d * d, axis=1), limits.tau_min ** 2,
        limits.tau_max ** 2)
    return value, 2, 2.0 * d * (slope_high - slope_low)[:, None], 0.0, worst


def _obstacle_penalty(samples: _Samples, obstacles, margin: float):
    """Hinge on clearance from every half-space obstacle at every sample;
    ``worst`` is the largest shortfall in meters."""
    pos = samples.deriv[0]
    value = 0.0
    worst = -math.inf
    gvec = np.zeros_like(pos)
    for plane in obstacles:
        dist = (pos - plane.point) @ plane.normal
        short = margin - dist
        hinge, slope = _hinge_parts(short)
        value += float(np.add.reduce(hinge))
        gvec -= np.outer(slope, plane.normal)
        worst = max(worst, float(np.max(short)))
    return value, 0, gvec, 0.0, worst


def _attach_points(positions, cable: CableProperties):
    """Cable attachment points of droid reference positions."""
    return positions + np.array([0.0, 0.0, cable.attachment_offset])


def _cable_penalty(samples: _Samples, scenario: PlanningScenario):
    """Hinges keeping the released length inside the feasible corridor.

    Gradient with respect to the droid position flows through both corridor
    edges (cable.corridor_bounds_and_gradient).  The released length follows
    the winch schedule, so the sampled times' dependence on T contributes as
    well, as the term's direct_ddt.  ``worst`` is in squared meters.
    """
    margin = scenario.limits.corridor_margin
    l_min, l_max, dlmin_dp, dlmax_dp = corridor_bounds_and_gradient(
        _attach_points(samples.deriv[0], scenario.cable),
        scenario.anchor_position, scenario.cable)
    l_min_eff = l_min + margin
    l_max_eff = l_max - margin
    l_now = scenario.winch.length_at(samples.ts)
    rate = scenario.winch.rate_at(samples.ts)

    value, slope_under, slope_over, worst = _band(
        l_now ** 2, l_min_eff ** 2, l_max_eff ** 2)
    gvec = (2.0 * l_min_eff * slope_under)[:, None] * dlmin_dp \
        - (2.0 * l_max_eff * slope_over)[:, None] * dlmax_dp
    # the winch schedule is a function of absolute time, which scales with T
    lnow_sens = 2.0 * l_now * rate * (slope_over - slope_under)
    return (value, 0, gvec,
            float(np.add.reduce(lnow_sens * samples.time_motion)), worst)


def total_cost(traj: Trajectory, scenario: PlanningScenario):
    """One evaluation of the full objective.

    Returns (CostBreakdown, dJ/dq, dJ/dT, worst).  ``worst`` maps each
    penalty term to its largest raw hinge argument over the samples,
    floored at 0, and to 0 when the scenario gives the term no weight.
    Units match each hinge: squared speed/acceleration/jerk/thrust for the
    limit and thrust terms, meters for obstacles, squared meters for the
    corridor.
    """
    weights = scenario.weights
    limits = scenario.limits

    smooth, grad_c, grad_ddt = jerk_energy(traj)
    time_cost = limits.time_weight * traj.duration
    grad_ddt += limits.time_weight * traj.segment_count

    samples = _Samples(traj, limits.samples)
    terms = [
        ("velocity", weights.velocity, _limit(samples, 1, limits.v_max)),
        ("acceleration", weights.accel_jerk, _limit(samples, 2, limits.a_max)),
        ("jerk", weights.accel_jerk, _limit(samples, 3, limits.j_max)),
        ("thrust", weights.thrust, _thrust_penalty(samples, scenario))]
    parts = {"obstacle": 0.0, "cable": 0.0}
    worst = {"obstacle": 0.0, "cable": 0.0}
    if scenario.obstacles and weights.obstacle != 0.0:
        terms.append(("obstacle", weights.obstacle, _obstacle_penalty(
            samples, scenario.obstacles, limits.obstacle_margin)))
    if weights.cable != 0.0:
        terms.append(("cable", weights.cable,
                      _cable_penalty(samples, scenario)))

    for name, weight, (value, order, gvec, direct_ddt, peak) in terms:
        parts[name] = weight * value
        worst[name] = max(peak, 0.0) if weight > 0.0 else 0.0
        if weight != 0.0:
            gc, ddt = samples.pullback(order, gvec)
            grad_c = grad_c + weight * gc
            grad_ddt += weight * (ddt + direct_ddt)

    breakdown = CostBreakdown(smoothness=smooth, time=time_cost, **parts)
    dj_dq, dj_dt = propagate_gradients(traj, grad_c, grad_ddt)
    return breakdown, dj_dq, dj_dt, worst


def corridor_profile(traj: Trajectory, scenario: PlanningScenario,
                     kappa: int):
    """(t, l_min, l_now, l_max) sampled along the plan, margin-free."""
    ts = sample_times(0.0, traj.duration, kappa)
    l_min, l_max = corridor_bounds_batch(
        _attach_points(traj.evaluate_batch(ts, 0), scenario.cable),
        scenario.anchor_position, scenario.cable)
    return ts, l_min, scenario.winch.length_at(ts), l_max


def corridor_violation(l_min, l_now, l_max) -> float:
    """Worst squared-length excess of l_now outside [l_min, l_max], or 0."""
    return max(_band(l_now ** 2, l_min ** 2, l_max ** 2)[3], 0.0)


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


def initial_guess(scenario: PlanningScenario):
    """Straight-line waypoints plus a duration consistent with the winch.

    The duration seed makes the released length land mid-corridor at
    arrival, which leaves the most slack on both cable edges; seeding at
    the taut chord instead starts the search pinned against the lower edge
    and can strand a narrow-corridor problem in an infeasible stationary
    point.  When the payout direction cannot reach the corridor at all,
    fall back to a cruise-speed estimate.
    """
    start = scenario.start_state.position
    goal = scenario.goal_position
    n = scenario.segment_count
    fractions = np.arange(1, n)[:, None] / n
    waypoints = start + fractions * (goal - start)

    attach = goal + np.array([0.0, 0.0, scenario.cable.attachment_offset])
    l_min, l_max = corridor_bounds_batch(attach[None, :],
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
    return waypoints, max(duration, MIN_DURATION + 0.5)


def optimize(scenario: PlanningScenario, fixed_duration: float | None = None,
             max_iterations: int = 500) -> OptimizeResult:
    """Minimize the penalty objective over waypoints (and duration).

    Always returns the best iterate seen; ``status`` distinguishes clean
    convergence from hitting the iteration cap or a stalled line search, and
    ``penalties_ok`` reports whether every sampled hinge is essentially
    inactive at the returned plan.  A convergence stop whose gradient is
    still large is not clean: L-BFGS-B restarts from it, and the iterations
    of all restarts count against ``max_iterations``.
    """
    waypoints0, duration0 = initial_guess(scenario)
    if fixed_duration is not None:
        if not 0.0 < fixed_duration < math.inf:
            raise ValidationError("fixed duration must be finite and positive")
        duration0 = fixed_duration
    n_wp = scenario.segment_count - 1
    optimize_time = fixed_duration is None

    def unpack(x):
        q = x[:3 * n_wp].reshape(n_wp, 3)
        if optimize_time:
            duration = MIN_DURATION + _softplus(float(x[-1]))
        else:
            duration = duration0
        return q, duration

    def build(x):
        q, duration = unpack(x)
        return construct(q, duration, scenario.start_state,
                         scenario.goal_position, scenario.goal_velocity)

    cache = {}

    def objective(x):
        traj = build(x)
        breakdown, dj_dq, dj_dt, worst = total_cost(traj, scenario)
        grad = np.empty(x.shape)
        grad[:3 * n_wp] = dj_dq.ravel()
        if optimize_time:
            grad[-1] = dj_dt * _sigmoid(float(x[-1]))
        cache[x.tobytes()] = breakdown, worst
        if len(cache) > 8:
            cache.pop(next(iter(cache)))
        return breakdown.total, grad

    def summary(x):
        """(breakdown, worst hinge arguments) at x; recent ones are kept."""
        hit = cache.get(x.tobytes())
        if hit is None:
            breakdown, _, _, worst = total_cost(build(x), scenario)
            hit = breakdown, worst
        return hit

    history = []

    def record(xk):
        history.append(summary(xk)[0])

    x0 = np.empty(3 * n_wp + (1 if optimize_time else 0))
    x0[:3 * n_wp] = waypoints0.ravel()
    if optimize_time:
        x0[-1] = _softplus_inverse(duration0 - MIN_DURATION)

    # A false stop restarts L-BFGS-B from where it stopped, with fresh
    # curvature pairs, on what is left of the iteration budget.
    iterations = 0
    x = x0
    with _single_blas_thread():
        while True:
            result = minimize(objective, x, jac=True, method="L-BFGS-B",
                              callback=record,
                              options={"maxiter": max_iterations - iterations,
                                       "maxcor": 8, "ftol": 1e-12,
                                       "gtol": 1e-6})
            iterations += int(result.nit)
            x = result.x
            false_stop = result.status == 0 and \
                np.max(np.abs(result.jac)) > \
                _STOP_GRADIENT_RTOL * max(abs(result.fun), 1.0)
            if not false_stop or result.nit == 0 or \
                    iterations >= max_iterations:
                break

    traj = build(x)
    breakdown, violations = summary(x)
    if result.status == 0 and not false_stop:
        status = "converged"
    elif result.status == 1 or (false_stop and iterations >= max_iterations):
        status = "max_iterations"
    else:
        status = "line_search_failure"
    worst = max(violations.values())
    return OptimizeResult(trajectory=traj, breakdown=breakdown,
                          iterations=iterations, status=status,
                          penalties_ok=worst < VIOLATION_TOL,
                          max_violation=worst, history=history,
                          message=str(result.message))
