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

``total_cost`` prices a point (waypoints q, duration T) without building a
trajectory.  It is one pass: it samples once, runs the corridor's root
find once, and returns the weighted breakdown, the exact gradient and the
worst raw hinge argument of each term from the same arrays.  The samples
sit at fixed fractions of a segment, so one read-only operator per
(segment count, kappa) (``_sample_grid``) reads dT^o times the derivative
of order 0..4 at every sample off the construction's right-hand side r =
[q; b(dT)] (trajectory.normalized_rhs), and the jerk energy is dT^-5
r.H r / 2 with one Hessian H per segment count (``_jerk_hessian``).
Every hinge argument goes into one table, a row per hinge side and a
column per sample (``_hinge_table``): the squared velocity, acceleration
and jerk against their squared limits, the squared thrust against both
ends of its window, each obstacle plane's clearance, and the squared
released length against both corridor edges.  One clamp and one cube of
the table give every hinge, one row sum every term's value and one row
max every worst argument.  Each term's slope per sample goes to the
derivative order it was taken against; ``total_cost`` pulls them all
back onto r with one transposed product.  dT enters only as powers (the
dT^o of each boundary row and sampled derivative, the energy's dT^-5)
and through the winch's sample times, so dJ/dT is closed-form.  A
trajectory is built only for the plan ``optimize`` returns.  The
corridor's upper bound comes from one Newton solve per sample, and its
positional derivative from a closed form at the solved scale
(cable.corridor_bounds_and_gradient).

``minimize`` is an unconstrained L-BFGS (Liu & Nocedal, Math. Prog. 45,
1989) that behaves as L-BFGS-B does without bounds: the two-loop recursion
over the last 8 steps, Moré & Thuente's line search (ACM TOMS 20(3), 1994;
MINPACK-2's dcsrch and dcstep) with L-BFGS-B's constants, a first step of
0.15 / |g|, and L-BFGS-B's stop tests.  ``optimize`` runs it on conditioned
coordinates:

- *Seed.*  The waypoints start at the minimum of the jerk energy for the
  seed duration.  That energy is quadratic in the waypoints, with one
  per-axis Hessian H1 * dT^-5, the waypoint block of ``_jerk_hessian``.
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
  checks is cut short there, and dropped the same way.  The legs, restarts
  and rounds are plain control flow in ``optimize``'s one loop, one L-BFGS
  call per leg; a shift round hands that call a halt test, true at every
  25th iteration whose worst hinge is not below the last round's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cable import (
    CableProperties,
    corridor_bounds_and_gradient,
    corridor_bounds_batch,
)
from .errors import ValidationError
from .trajectory import (
    _JERK_GRAM,
    BOUNDARY_ORDERS,
    NCOEF,
    BoundaryState,
    Trajectory,
    basis_rows_upto,
    construct,
    normalized_rhs,
    rhs_columns,
    time_powers,
)

# Shortest admissible plan duration; the optimizer's duration variable is
# T = MIN_DURATION + softplus(theta), which keeps T positive without bounds.
MIN_DURATION = 0.1

# A plan counts as feasible when no sampled hinge argument exceeds this.
VIOLATION_TOL = 1e-3

# L-BFGS's ftol test can fire on one tiny line step far from a minimum.
# A status-0 stop counts as converged only when max |dJ/dz| over the
# whitened coordinates is at most this fraction of max(|J|, 1), and a
# status-2 stop (no search from steepest descent lowered J) that passes this
# test counts as converged too; one fuzzed pickup_mid plan failed its search
# at 8e-7 of J, the J scipy's L-BFGS-B reached by its ftol test.  On the
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


# L-BFGS's memory (steps kept) and its stop tests: a relative reduction
# of J below _STOP_FTOL in one iteration, or max |g| below _STOP_GTOL.
_MEMORY = 8
_STOP_FTOL = 1e-12
_STOP_GTOL = 1e-6

# L-BFGS-B's line search parameters (Moré & Thuente's ftol, gtol, xtol),
# its largest step for unbounded problems, and its evaluations per search.
_SEARCH_FTOL = 1e-3
_SEARCH_GTOL = 0.9
_SEARCH_XTOL = 0.1
_SEARCH_STEP_MAX = 1e10
_SEARCH_EVALUATIONS = 20
_EPS = float(np.finfo(float).eps)

# A run's first search starts at a move of this length along -g, where
# L-BFGS-B moves 1.  Where that search lands sets the rest of the run: of
# the moves tried, 0.15 gave the fewest evaluations on the three shipped
# scenarios and six sweep_grid points together (1,395 against 1,621).
_FIRST_MOVE = 0.15


def _cubic_gamma(theta: float, s: float, da: float, db: float) -> float:
    """s sqrt((theta/s)^2 - (da/s)(db/s)), floored at 0 under the root."""
    return s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, stpmin, stpmax):
    """One safeguarded step of Moré & Thuente's search (MINPACK-2 dcstep).

    (stx, fx, dx) is the best step so far with its value and slope, (sty,
    fy, dy) the other end of the interval, (stp, fp, dp) the trial step.
    Returns the updated (stx, fx, dx, sty, fy, dy), the next trial step
    and whether a minimizer is bracketed.
    """
    sgnd = dp * math.copysign(1.0, dx)
    if fp > fx:
        # a higher value: the minimum is bracketed; take the cubic step if
        # it is closer to stx than the quadratic one, else their average
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = _cubic_gamma(theta, s, dx, dp)
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        if abs(stpc - stx) < abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        bracketed = True
    elif sgnd < 0.0:
        # a lower value and slopes of opposite sign: bracketed; take the
        # cubic step if it is farther from stp than the secant step
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = _cubic_gamma(theta, s, dx, dp)
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):
        # a lower value, slopes of the same sign, the slope shrinking: the
        # cubic step only if the cubic tends to infinity in the direction
        # of the step or its minimum lies beyond stp, else the secant step
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = _cubic_gamma(theta, s, dx, dp)
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if bracketed:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif bracketed:
        # a lower value, slopes of the same sign, the slope not shrinking:
        # the cubic step between stp and sty once bracketed
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = _cubic_gamma(theta, s, dy, dp)
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        # ... else the end of the allowed interval
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, bracketed


def _line_search(phi, f0: float, g0: float, stp: float):
    """The step Moré & Thuente's search (MINPACK-2 dcsrch) accepts, as
    L-BFGS-B runs it, or None when it needs more evaluations than
    L-BFGS-B allows.

    ``phi(stp)`` evaluates the objective at that step along the search
    direction and returns (value, slope); ``f0`` and ``g0 < 0`` are those
    at step 0.  The search ends at a step with sufficient decrease and a
    slope at most _SEARCH_GTOL of |g0|, and also, as in L-BFGS-B, where
    its interval collapses or rounding stops progress; the step it ends at
    is always the last one evaluated.
    """
    stpmin, stpmax = 0.0, _SEARCH_STEP_MAX
    bracketed = False
    stage = 1
    gtest = _SEARCH_FTOL * g0
    width = stpmax - stpmin
    width1 = 2.0 * width
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = g0
    stmin, stmax = 0.0, stp + 4.0 * stp
    for _ in range(_SEARCH_EVALUATIONS):
        f, g = phi(stp)
        ftest = f0 + stp * gtest
        if stage == 1 and f <= ftest and g >= 0.0:
            stage = 2
        if (bracketed and (stp <= stmin or stp >= stmax
                           or stmax - stmin <= _SEARCH_XTOL * stmax)
                or (stp == stpmax and f <= ftest and g <= gtest)
                or (stp == stpmin and (f > ftest or g >= gtest))
                or (f <= ftest and abs(g) <= _SEARCH_GTOL * -g0)):
            return stp
        if stage == 1 and fx >= f > ftest:
            # a lower value without sufficient decrease: step on the
            # function less its sufficient-decrease line
            stx, fxm, gxm, sty, fym, gym, stp, bracketed = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest,
                gy - gtest, stp, f - stp * gtest, g - gtest, bracketed,
                stmin, stmax)
            fx, gx = fxm + stx * gtest, gxm + gtest
            fy, gy = fym + sty * gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, bracketed = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, bracketed, stmin,
                stmax)
        if bracketed:
            # bisect when the interval does not shrink fast enough
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, stpmin), stpmax)
        # no further progress is possible: end at the best step so far
        if bracketed and (stp <= stmin or stp >= stmax
                          or stmax - stmin <= _SEARCH_XTOL * stmax):
            stp = stx
    return None


@dataclass
class Minimum:
    """Where a run of ``minimize`` stopped.

    ``status`` is 0 when a stop test passed, 1 at the iteration limit or
    where ``halt`` stopped the run, and 2 when no line search could make
    progress.  ``info`` is what the objective returned with its value and
    gradient at ``x``.
    """

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int = 0
    status: int = 0
    message: str = ""
    info: object = None


def _direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g by the two-loop recursion (Nocedal & Wright, Alg. 7.4) over the
    stored (s, y, 1 / s.y), oldest first, with H0 = (s.y / y.y) I from the
    newest pair, or the identity without one."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q


def _largest(g: np.ndarray) -> float:
    """max |g|, or 0 for an empty g."""
    return float(np.maximum.reduce(np.abs(g), initial=0.0))


def minimize(fun, x0, maxiter: int, halt=None) -> Minimum:
    """Unconstrained L-BFGS with L-BFGS-B's line search and stop tests.

    ``fun(x)`` returns (value, gradient, info), where info is anything the
    caller wants back about x.  Every iteration steps along the two-loop
    direction over the last _MEMORY steps, with the step Moré & Thuente's
    search accepts; the first step starts its search at _FIRST_MOVE / |g|,
    and every later one at 1.  A step whose curvature s.y is not positive
    beyond rounding is not stored.  The run stops when max |g| <=
    _STOP_GTOL, when one iteration lowers the value by at most _STOP_FTOL *
    max(|f_old|, |f|, 1), or after ``maxiter`` iterations; when none of
    these tests passes, ``halt(iterations, info)``, if given, is asked
    about the new iterate and stops the run with status 1 when true.  A
    failed search drops the memory and tries again from steepest descent;
    from steepest descent it ends the run.
    """
    x = np.array(x0, dtype=float)
    f, g, info = fun(x)
    if not _largest(g) > _STOP_GTOL:
        return Minimum(x, f, g, 0, 0, "gradient below gtol", info)
    pairs = []
    nit = 0
    while True:
        d = _direction(g, pairs)
        slope0 = float(d @ g)
        trial = []

        def phi(stp):
            x_new = x + stp * d
            f_new, g_new, info_new = fun(x_new)
            trial[:] = x_new, f_new, g_new, info_new
            return f_new, float(g_new @ d)

        stp = None
        if slope0 < 0.0:
            start_step = _FIRST_MOVE / math.sqrt(float(d @ d)) if nit == 0 \
                else 1.0
            stp = _line_search(phi, f, slope0, start_step)
        if stp is None:
            if pairs:
                pairs = []
                continue
            status, message = 2, "line search cannot make progress"
            break
        x_old, f_old, g_old = x, f, g
        x, f, g, info = trial
        nit += 1
        s = x - x_old
        y = g - g_old
        curvature = float(s @ y)
        # against the step along d, as L-BFGS-B does: the rounded s can
        # have s.g >= 0, and a pair of curvature 0 would divide by 0
        if curvature > _EPS * -stp * slope0:
            pairs = (pairs + [(s, y, 1.0 / curvature)])[-_MEMORY:]
        if not _largest(g) > _STOP_GTOL:
            status, message = 0, "gradient below gtol"
        elif f_old - f <= _STOP_FTOL * max(abs(f_old), abs(f), 1.0):
            status, message = 0, "relative reduction of J below ftol"
        elif nit >= maxiter:
            status, message = 1, "iteration limit reached"
        elif halt is not None and halt(nit, info):
            status, message = 1, "halt test passed"
        else:
            continue
        break
    return Minimum(x, f, g, nit, status, message, info)


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
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(
                    f"limits.{name} must be positive and finite")
        if not self.tau_min < self.tau_max:
            raise ValidationError("limits require tau_min < tau_max")
        # type() is int: neither a bool nor a float with an integer value
        if not (type(self.samples) is int and self.samples >= 2):
            raise ValidationError(
                "limits.samples must be an integer of at least 2")
        if not (self.corridor_margin >= 0
                and math.isfinite(self.corridor_margin)):
            raise ValidationError(
                "limits.corridor_margin must be nonnegative and finite")


@dataclass(frozen=True)
class PenaltyWeights:
    velocity: float = 1e4
    accel_jerk: float = 1e4
    thrust: float = 1e4
    cable: float = 1e5
    obstacle: float = 1e5

    def __post_init__(self) -> None:
        for name in ("velocity", "accel_jerk", "thrust", "cable", "obstacle"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValidationError(
                    f"weights.{name} must be nonnegative and finite")


@dataclass(frozen=True)
class ObstaclePlane:
    """Half-space obstacle: free space lies on the +normal side of point."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self) -> None:
        point = np.asarray(self.point, dtype=float).reshape(3)
        normal = np.asarray(self.normal, dtype=float).reshape(3)
        if not np.all(np.isfinite(point)):
            raise ValidationError("obstacle point must be finite")
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
        if not self.initial_length <= self.capacity:
            raise ValidationError(
                "winch initial_length must not exceed its capacity")

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
        if not (type(self.segment_count) is int and self.segment_count >= 1):
            raise ValidationError(
                "segment_count must be an integer of at least 1")
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
    """(operator, position) of the kappa+1 samples on N segments.

    Sample i sits ``position`` = i N / kappa segments from the start: in
    segment min(i N // kappa, N - 1), at a fixed fraction of its length.
    The operator, shape (5 (kappa+1), N + 5), maps the right-hand side of
    ``normalized_rhs`` to dT^o times the order-o derivative at every
    sample, orders 0..4 stacked in that order: the basis rows at the
    samples times ``rhs_columns(N)``.
    """
    index = np.arange(kappa + 1)
    seg = np.minimum(index * n_seg // kappa, n_seg - 1)
    rows = np.zeros((5, kappa + 1, n_seg, NCOEF))
    rows[:, index, seg] = basis_rows_upto(
        (index * n_seg - seg * kappa) / kappa, 4)
    operator = rows.reshape(5 * (kappa + 1), NCOEF * n_seg) \
        @ rhs_columns(n_seg)
    position = index * n_seg / kappa
    # the cache hands these arrays to every caller
    operator.flags.writeable = position.flags.writeable = False
    return operator, position


# Each term of the hinge table, in row order, and the PenaltyWeights field
# that weighs it.
_TERMS = (("velocity", "velocity"), ("acceleration", "accel_jerk"),
          ("jerk", "accel_jerk"), ("thrust", "thrust"),
          ("obstacle", "obstacle"), ("cable", "cable"))


def _term_rows(scenario: PlanningScenario):
    """(name, weight, first row, row count) of every term in the table."""
    weights = scenario.weights
    planes = len(scenario.obstacles) if weights.obstacle != 0.0 else 0
    counts = (1, 1, 1, 2, planes, 2 if weights.cable != 0.0 else 0)
    first = 0
    rows = []
    for (name, field_name), count in zip(_TERMS, counts):
        rows.append((name, getattr(weights, field_name), first, count))
        first += count
    return rows


def _rhs(waypoints, duration: float, scenario: PlanningScenario):
    """``normalized_rhs`` of the scenario's boundary states."""
    return normalized_rhs(waypoints, duration, scenario.start_state,
                          scenario.goal_position, scenario.goal_velocity)


def _hinge_table(rhs: np.ndarray, duration: float,
                 scenario: PlanningScenario):
    """(rows, table, deriv, vectors, corridor) at the samples of the plan
    with right-hand side ``rhs`` (``_rhs``) and total ``duration``.

    ``table`` holds the raw hinge argument of every penalty, one row per
    hinge side and one column per sample; ``rows`` (``_term_rows``) says
    which rows belong to which term.  The rows are the squared velocity,
    acceleration and jerk less their squared limits; tau_min^2 less the
    squared specific thrust |a - g|^2, and that less tau_max^2; the
    shortfall from every obstacle plane's margin, in meters; and the
    squared released length under the squared lower corridor edge and over
    the upper one.  An unweighted obstacle or cable term has no rows, so it
    costs no work.  ``deriv[o]`` is the order-o derivative at every sample,
    o = 0..4, read off ``rhs`` by the operator of ``_sample_grid``;
    ``vectors`` holds velocity, acceleration, jerk and specific thrust;
    ``corridor`` holds what the corridor rows' slopes need, or None without
    them.
    """
    limits = scenario.limits
    kappa = limits.samples
    n_seg = rhs.shape[0] - 5
    operator = _sample_grid(n_seg, kappa)[0]
    powers = time_powers(duration / n_seg)
    deriv = (operator @ rhs).reshape(5, kappa + 1, 3) \
        / powers[:5, None, None]
    vectors = np.empty((4, kappa + 1, 3))
    vectors[:3] = deriv[1:4]
    np.subtract(deriv[2], scenario.gravity_vector, out=vectors[3])
    squared = np.add.reduce(vectors * vectors, axis=2)

    rows = _term_rows(scenario)
    table = np.empty((rows[-1][2] + rows[-1][3], kappa + 1))
    np.subtract(squared[:3], np.array(
        [[limits.v_max ** 2], [limits.a_max ** 2], [limits.j_max ** 2]]),
        out=table[:3])
    np.subtract(limits.tau_min ** 2, squared[3], out=table[3])
    np.subtract(squared[3], limits.tau_max ** 2, out=table[4])
    _, _, first, planes = rows[4]
    for k, plane in enumerate(scenario.obstacles[:planes]):
        np.subtract(limits.obstacle_margin,
                    (deriv[0] - plane.point) @ plane.normal,
                    out=table[first + k])
    corridor = None
    if rows[5][3]:
        margin = limits.corridor_margin
        l_min, l_max, dlmin_dp, dlmax_dp = corridor_bounds_and_gradient(
            deriv[0], scenario.anchor_position, scenario.cable)
        l_min_eff = l_min + margin
        l_max_eff = l_max - margin
        ts = sample_times(0.0, duration, kappa)
        l_now = scenario.winch.length_at(ts)
        now_sq = l_now ** 2
        np.subtract(l_min_eff ** 2, now_sq, out=table[-2])
        np.subtract(now_sq, l_max_eff ** 2, out=table[-1])
        corridor = (l_min_eff, l_max_eff, dlmin_dp, dlmax_dp, l_now,
                    scenario.winch.rate_at(ts))
    return rows, table, deriv, vectors, corridor


def total_cost(waypoints, duration: float, scenario: PlanningScenario,
               shifts=None):
    """One evaluation of the full objective at the N - 1 ``waypoints`` and
    the total ``duration``, N = len(waypoints) + 1.

    Returns (CostBreakdown, dJ/dq, dJ/dT, worst).  ``worst`` maps each
    penalty term to its largest raw hinge argument over the samples,
    floored at 0, and to 0 when the scenario gives the term no weight.
    Units match each hinge: squared speed/acceleration/jerk/thrust for the
    limit and thrust terms, meters for obstacles, squared meters for the
    corridor.  ``shifts`` (see ``_shift_update``), of the hinge table's
    shape, moves hinge arguments inside their hinges: the breakdown and the
    gradient are then those of the shifted objective, while ``worst``
    stays unshifted.

    Every hinge is w max(g + s, 0)^3 of one entry g of the table.  Each
    term hands its slope per sample to the derivative order it was taken
    against; the slopes of all terms are pulled back onto the right-hand
    side r with one transposed product of the sampling operator, and the
    jerk energy dT^-5 r.H r / 2 adds dT^-5 H r.
    """
    limits = scenario.limits
    weights = scenario.weights
    kappa = limits.samples
    rhs = _rhs(waypoints, duration, scenario)
    n_seg = rhs.shape[0] - 5
    dt = duration / n_seg
    operator, position = _sample_grid(n_seg, kappa)

    rows, table, deriv, vectors, corridor = _hinge_table(rhs, duration,
                                                         scenario)
    hinge, slope = _hinge_parts(table, shifts)
    sums = np.add.reduce(hinge, axis=1).tolist()
    peaks = np.maximum.reduce(table, axis=1).tolist()
    parts = {}
    worst = {}
    for name, weight, first, count in rows:
        value = 0.0
        for row in range(first, first + count):
            value += sums[row]
        parts[name] = weight * value
        worst[name] = max(max(peaks[first:first + count]), 0.0) \
            if count and weight > 0.0 else 0.0

    # the weighted slopes of all terms, per derivative order 0..3
    slopes = np.zeros((4, kappa + 1, 3))
    slopes[1:] += np.array([weights.velocity, weights.accel_jerk,
                            weights.accel_jerk])[:, None, None] \
        * (2.0 * vectors[:3] * slope[:3, :, None])
    if weights.thrust != 0.0:
        slopes[2] += weights.thrust * (
            2.0 * vectors[3] * (slope[4] - slope[3])[:, None])
    _, weight, first, planes = rows[4]
    if planes:
        gvec = np.zeros((kappa + 1, 3))
        for k, plane in enumerate(scenario.obstacles):
            gvec -= np.outer(slope[first + k], plane.normal)
        slopes[0] += weight * gvec
    grad_ddt = limits.time_weight * n_seg
    if corridor is not None:
        l_min_eff, l_max_eff, dlmin_dp, dlmax_dp, l_now, rate = corridor
        slope_under, slope_over = slope[-2], slope[-1]
        gvec = (2.0 * l_min_eff * slope_under)[:, None] * dlmin_dp \
            - (2.0 * l_max_eff * slope_over)[:, None] * dlmax_dp
        slopes[0] += weights.cable * gvec
        # the winch schedule is a function of absolute time, which scales
        # with T
        lnow_sens = 2.0 * l_now * rate * (slope_over - slope_under)
        grad_ddt += weights.cable * float(np.add.reduce(lnow_sens * position))

    energy_scale = dt ** -5
    weighted = _jerk_hessian(n_seg)[0] @ rhs
    smooth = 0.5 * energy_scale * float(np.add.reduce(rhs * weighted,
                                                      axis=None))
    size = 4 * (kappa + 1)
    scaled = slopes / time_powers(dt)[:4, None, None]
    grad = energy_scale * weighted \
        + operator[:size].T @ scaled.reshape(size, 3)
    # d(dT^p)/ddT = p dT^p / dT for the boundary rows (p = o), the sampled
    # derivatives (p = -o) and the energy (p = -5)
    grad_ddt += (float(np.add.reduce(
        BOUNDARY_ORDERS[:, None] * grad[-6:] * rhs[-6:], axis=None))
        - float(np.add.reduce(np.arange(1.0, 4.0)[:, None, None]
                              * slopes[1:] * deriv[1:4], axis=None))
        - 5.0 * smooth) / dt

    breakdown = CostBreakdown(smoothness=smooth,
                              time=limits.time_weight * duration, **parts)
    return breakdown, grad[:-6], grad_ddt / n_seg, worst


def _shift_update(waypoints, duration: float, scenario: PlanningScenario,
                  shifts):
    """Powell's update s <- max(s + g, 0) of every hinge's shift, from the
    unshifted hinge table g at the plan; the multiplier a shift stands for
    is 3 w s^2."""
    table = _hinge_table(_rhs(waypoints, duration, scenario), duration,
                         scenario)[1]
    return np.maximum(table if shifts is None else table + shifts, 0.0)


def corridor_profile(traj: Trajectory, scenario: PlanningScenario,
                     kappa: int):
    """(t, l_min, l_now, l_max) sampled along the plan, margin-free."""
    ts = sample_times(0.0, traj.duration, kappa)
    l_min, l_max = corridor_bounds_batch(
        traj.evaluate_batch(ts, 0), scenario.anchor_position, scenario.cable)
    return ts, l_min, scenario.winch.length_at(ts), l_max


def corridor_violation(l_min, l_now, l_max) -> float:
    """Worst squared-length excess of l_now outside [l_min, l_max], or 0."""
    now_sq = l_now ** 2
    return max(float(np.max(np.maximum(l_min ** 2 - now_sq,
                                       now_sq - l_max ** 2))), 0.0)


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
    """(H, W): the per-axis Hessian of the jerk energy over the right-hand
    side of ``normalized_rhs`` at dT = 1, and the whitening W = L^-T of its
    waypoint block H_qq = L L^T.

    Segment s has energy c_s.G c_s, G = _JERK_GRAM, over its normalized
    coefficients c_s = U_s r (U = ``rhs_columns(N)``), so H = 2 sum_s
    U_s^T G U_s.  It is dT^-5 H at any dT, so dT^(5/2) W whitens there.
    """
    blocks = rhs_columns(n_seg).reshape(n_seg, NCOEF, n_seg + 5)
    hessian = 2.0 * np.einsum("skm,kl,sln->mn", blocks, _JERK_GRAM, blocks)
    hessian = 0.5 * (hessian + hessian.T)
    n_wp = n_seg - 1
    whitening = np.linalg.solve(np.linalg.cholesky(hessian[:n_wp, :n_wp]),
                                np.eye(n_wp)).T
    # the cache hands these arrays to every caller
    hessian.flags.writeable = whitening.flags.writeable = False
    return hessian, whitening


def _min_jerk_waypoints(scenario: PlanningScenario, duration: float):
    """The waypoints of least jerk energy at ``duration``: -H_qq^-1 H_qb b
    over the boundary rows b of the right-hand side."""
    n_wp = scenario.segment_count - 1
    boundary = _rhs(np.zeros((n_wp, 3)), duration, scenario)[n_wp:]
    hessian, whitening = _jerk_hessian(scenario.segment_count)
    return -whitening @ (whitening.T @ (hessian[:n_wp, n_wp:] @ boundary))


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
    convergence from hitting the iteration cap or a line search stalled away
    from a stationary point, and ``penalties_ok`` reports whether every
    sampled hinge is essentially inactive at the returned plan.  The
    breakdown and hinge report are unshifted.  Every leg, restart and shift
    round counts its iterations against ``max_iterations``.
    """
    if not (isinstance(max_iterations, int) and max_iterations >= 1):
        raise ValidationError("max_iterations must be an integer >= 1")
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
    evaluations = 0
    shifts = None

    def duration_at(theta):
        return MIN_DURATION + _softplus(theta) if optimize_time else duration0

    def evaluate(q, theta, shifted=True):
        """(breakdown, dJ/dq, dJ/dtheta, worst), under the current shifts
        unless ``shifted`` is false."""
        nonlocal evaluations
        evaluations += 1
        breakdown, dj_dq, dj_dt, worst = total_cost(
            q, duration_at(theta), scenario, shifts if shifted else None)
        return breakdown, dj_dq, dj_dt * _sigmoid(theta), worst

    def theta_scale(q, theta):
        """|d2J/dtheta2|^(-1/2) from a central difference, clipped."""
        if not optimize_time:
            return 1.0
        up = evaluate(q, theta + _THETA_STEP)[2]
        down = evaluate(q, theta - _THETA_STEP)[2]
        curvature = abs(up - down) / (2.0 * _THETA_STEP)
        scale = 1.0 / math.sqrt(curvature) if curvature > 0.0 else math.inf
        return min(max(scale, _THETA_SCALE_CLIP[0]), _THETA_SCALE_CLIP[1])

    def leg(q0, theta0, budget):
        """One L-BFGS run from z = 0, where q = q0 + dT^(5/2) W z per axis
        and theta = theta0 + s_T z[-1].  Returns (result, q, theta); the
        result's info is the (breakdown, worst) of its last iterate.

        A shift round checks every _WORSENING_CHECK_PERIOD iterations that
        its unshifted worst hinge is below the last round's, and halts there
        if not, to be dropped.
        """
        basis = (duration_at(theta0) / n_seg) ** 2.5 * whitening
        scale = theta_scale(q0, theta0)

        def point(z):
            q = q0 + basis @ z[:3 * n_wp].reshape(n_wp, 3)
            return q, theta0 + scale * float(z[-1]) if optimize_time \
                else theta0

        def objective(z):
            breakdown, dj_dq, dj_dtheta, worst = evaluate(*point(z))
            grad = np.empty(z.shape)
            grad[:3 * n_wp] = (basis.T @ dj_dq).ravel()
            if optimize_time:
                grad[-1] = scale * dj_dtheta
            return breakdown.total, grad, (breakdown, worst)

        def worsening(iterations, info):
            return iterations % _WORSENING_CHECK_PERIOD == 0 \
                and max(info[1].values()) >= previous[3]

        result = minimize(objective, np.zeros(3 * n_wp + optimize_time),
                          budget, None if previous is None else worsening)
        return (result, *point(result.x))

    theta = _softplus_inverse(duration0 - MIN_DURATION) if optimize_time \
        else 0.0
    iterations = updates = 0
    previous = None
    while True:
        # each leg starts where the last one ended; a restart runs another
        # leg, anything else ends the shift round
        result, waypoints, theta = leg(waypoints, theta,
                                       max_iterations - iterations)
        iterations += result.nit
        # a stop test can pass on one tiny step far from a minimum, and a
        # search from steepest descent can fail at a stationary point
        large_gradient = np.max(np.abs(result.jac), initial=0.0) > \
            _STOP_GRADIENT_RTOL * max(abs(result.fun), 1.0)
        false_stop = result.status == 0 and large_gradient
        out_of_budget = iterations >= max_iterations
        if false_stop and result.nit > 0 and not out_of_budget:
            continue
        if result.status != 1 and not large_gradient:
            status = "converged"
        elif result.status == 1 or (false_stop and out_of_budget):
            status = "max_iterations"
        else:
            status = "line_search_failure"
        message = result.message
        # the breakdown and hinge report are unshifted
        if shifts is None:
            breakdown, violations = result.info
        else:
            breakdown, _, _, violations = evaluate(waypoints, theta,
                                                   shifted=False)
        worst = max(violations.values())
        if worst < VIOLATION_TOL:
            break
        # a round cut short for worsening fails this test as well
        if previous is not None and worst > 0.5 * previous[3]:
            waypoints, theta, breakdown, worst, status, message = previous
            break
        if status != "converged" or out_of_budget:
            break
        previous = waypoints, theta, breakdown, worst, status, message
        shifts = _shift_update(waypoints, duration_at(theta), scenario,
                               shifts)
        updates += 1

    traj = construct(waypoints, duration_at(theta), scenario.start_state,
                     scenario.goal_position, scenario.goal_velocity)
    return OptimizeResult(trajectory=traj, breakdown=breakdown,
                          iterations=iterations, status=status,
                          penalties_ok=worst < VIOLATION_TOL,
                          max_violation=worst, evaluations=evaluations,
                          multiplier_updates=updates, message=message)
