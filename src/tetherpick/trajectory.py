"""Uniform piecewise-quintic trajectories and their parameter gradients.

A trajectory with N segments of equal duration dT is described per axis by
6N polynomial coefficients c.  Construction solves the square linear system
M(dT) c = b:

    rows 0..3                position, velocity, acceleration, jerk at t = 0
    per interior joint i     left-limit position  = waypoint i
                             right-limit position = waypoint i
                             continuity of derivative orders 1..4
    last two rows            position and velocity at t = T

Each row takes a derivative of some order o at tau = 0 or tau = dT, and
each column multiplies a power tau^k, so the system is a diagonal scaling
of the one at dT = 1:

    M(dT) = diag(dT^-o) M(1) diag(dT^k).

M(1) depends only on N.  Its dense inverse is formed once per segment
count and cached, and every construction is one product of it with the
right-hand side scaled by dT^o, which gives the time-normalized
coefficients c dT^k.  Gradients of a scalar cost with respect to the
waypoints and the total duration come from one product with its
transpose, and the scaling gives the duration's part in closed form.
This is the time-normalized parameterization of MINCO (Wang et al.,
"Geometrically Constrained Trajectory Optimization for Multicopters",
IEEE T-RO 2022).

The inverse costs memory and time quadratic in N where a banded LU would
be linear.  That is the cheaper side at the sizes that can be planned:
plans use N = 6, where the two products take about half the time of two
banded LAPACK solves, and the banded solve only wins somewhere between
N = 40 and N = 64, where cond M(1) is already above 1e16.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, SingularSystem

DEGREE = 5
NCOEF = DEGREE + 1
CONTINUITY_ORDER = 4

# FALLING[o, k] = k!/(k-o)!, the coefficient of tau^(k-o) in d^o/dtau^o tau^k.
FALLING = np.zeros((NCOEF + 2, NCOEF))
for _o in range(NCOEF + 2):
    for _k in range(NCOEF):
        if _k >= _o:
            FALLING[_o, _k] = math.factorial(_k) // math.factorial(_k - _o)

# the power k of tau that each coefficient multiplies
_EXPONENTS = np.arange(NCOEF, dtype=float)


def time_powers(dt: float) -> np.ndarray:
    """dT^k for k = 0..5: the time-normalized coefficients are c dT^k."""
    return dt ** _EXPONENTS


def _powers(taus: np.ndarray, count: int) -> np.ndarray:
    """powers[..., j] = taus ** j for j < count."""
    stacked = np.array([taus ** j for j in range(count)])
    return stacked.transpose(tuple(range(1, stacked.ndim)) + (0,))


def _rows_from_powers(powers: np.ndarray, order: int) -> np.ndarray:
    rows = np.zeros(powers.shape[:-1] + (NCOEF,))
    rows[..., order:] = FALLING[order, order:] * powers[..., :NCOEF - order]
    return rows


def basis_rows_upto(taus: np.ndarray, max_order: int) -> list[np.ndarray]:
    """Basis rows of orders 0..max_order at in-segment times taus."""
    powers = _powers(np.asarray(taus, dtype=float), NCOEF)
    return [_rows_from_powers(powers, o) for o in range(max_order + 1)]


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(3)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class BoundaryState:
    """Full kinematic state at the start of a trajectory."""

    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    jerk: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", _as_vec3(self.position, "position"))
        object.__setattr__(self, "velocity", _as_vec3(self.velocity, "velocity"))
        object.__setattr__(self, "acceleration",
                           _as_vec3(self.acceleration, "acceleration"))
        object.__setattr__(self, "jerk", _as_vec3(self.jerk, "jerk"))

    @classmethod
    def at_rest(cls, position) -> "BoundaryState":
        zero = np.zeros(3)
        return cls(position=position, velocity=zero, acceleration=zero, jerk=zero)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise quintic with shape (segments, 6 coefficients, 3 axes)."""

    coefficients: np.ndarray
    segment_duration: float

    @property
    def segment_count(self) -> int:
        return self.coefficients.shape[0]

    @property
    def duration(self) -> float:
        return self.segment_count * self.segment_duration

    def evaluate_batch(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """Order-th time derivative at ts, shape (n,) -> (n, 3); right
        limit at joints."""
        ts = np.asarray(ts, dtype=float)
        total = self.duration
        tol = 1e-9 * max(1.0, total)
        if np.any(ts < -tol) or np.any(ts > total + tol):
            raise OutOfDomain("batch times outside trajectory domain")
        clipped = np.clip(ts, 0.0, total)
        seg = np.minimum((clipped / self.segment_duration).astype(int),
                         self.segment_count - 1)
        taus = clipped - seg * self.segment_duration
        # every order past the degree has the all-zero rows of order NCOEF
        rows = _rows_from_powers(_powers(taus, NCOEF), min(order, NCOEF))
        return np.einsum("nk,nkx->nx", rows, self.coefficients[seg])


@functools.lru_cache(maxsize=None)
def _unit_inverse(n_seg: int) -> np.ndarray:
    """The inverse of the system at dT = 1, read-only: the cache hands it
    to every caller."""
    unit = np.zeros((NCOEF * n_seg, NCOEF * n_seg))
    # FALLING[o] is the order-o row at tau = 1, FALLING[o, o] the one at 0
    for o in range(4):
        unit[o, o] = FALLING[o, o]
    row = 4
    for i in range(1, n_seg):
        left, right = NCOEF * (i - 1), NCOEF * i
        unit[row, left:right] = 1.0
        unit[row + 1, right] = 1.0
        for o in range(1, CONTINUITY_ORDER + 1):
            unit[row + 1 + o, left:right] = FALLING[o]
            unit[row + 1 + o, right + o] = -FALLING[o, o]
        row += NCOEF
    unit[row:, -NCOEF:] = FALLING[:2]
    # M(1) is nonsingular for every N: the quintic through the rows is unique
    inverse = np.linalg.inv(unit)
    inverse.flags.writeable = False
    return inverse


def construct(waypoints, total_duration: float, start: BoundaryState,
              goal_position, goal_velocity) -> Trajectory:
    """Build the trajectory through the waypoints in the given total time.

    ``waypoints`` are the N-1 interior positions visited at the segment
    joints; an empty sequence gives a single segment.
    """
    q = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    n_seg = q.shape[0] + 1
    if not (total_duration > 0.0 and math.isfinite(total_duration)):
        raise SingularSystem(f"total duration must be positive, got {total_duration!r}")
    dt = total_duration / n_seg
    goal_position = _as_vec3(goal_position, "goal_position")
    goal_velocity = _as_vec3(goal_velocity, "goal_velocity")
    if not np.isfinite(q).all():
        raise ValueError("waypoints must be finite")

    # the right-hand side scaled by dT^o, row by row; a dT whose powers
    # overflow is rejected just below, so numpy need not warn about it
    with np.errstate(over="ignore"):
        powers = time_powers(dt)
    if not np.isfinite(powers).all():
        raise SingularSystem(f"segment duration {dt!r} overflows dT^5")
    size = NCOEF * n_seg
    rhs = np.zeros((size, 3))
    rhs[0] = start.position
    rhs[1] = start.velocity * powers[1]
    rhs[2] = start.acceleration * powers[2]
    rhs[3] = start.jerk * powers[3]
    # each joint's left- and right-limit position rows
    rhs[4:size - 2:NCOEF] = q
    rhs[5:size - 2:NCOEF] = q
    rhs[-2] = goal_position
    rhs[-1] = goal_velocity * powers[1]

    if not np.isfinite(rhs).all():
        raise SingularSystem("right-hand side must be finite")
    normalized = _unit_inverse(n_seg) @ rhs
    sol = normalized.reshape(n_seg, NCOEF, 3) / powers[:, None]
    if not np.isfinite(sol).all():
        raise SingularSystem("coefficient solve produced non-finite values")
    return Trajectory(coefficients=sol, segment_duration=dt)


def propagate_gradients(traj: Trajectory, dj_dcoef: np.ndarray,
                        dj_ddt: float = 0.0):
    """Pull a coefficient-space gradient back onto waypoints and duration.

    ``dj_dcoef`` is the partial of the cost with respect to the coefficient
    array (same shape), holding dT fixed; ``dj_ddt`` is the direct partial
    with respect to dT holding the coefficients fixed.  Returns (dJ/dq with
    shape (N-1, 3), dJ/dT) where T is the total duration.
    """
    n_seg = traj.segment_count
    dt = traj.segment_duration
    size = NCOEF * n_seg
    powers = time_powers(dt)
    grad = np.asarray(dj_dcoef, dtype=float).reshape(n_seg, NCOEF, 3)

    # the adjoint lam = M(dT)^-T g is diag(dT^o) times mu below
    scaled = (grad / powers[:, None]).reshape(size, 3)
    if not np.isfinite(scaled).all():
        raise ValueError("coefficient gradient must be finite")
    mu = _unit_inverse(n_seg).T @ scaled

    # each waypoint feeds the left- and right-limit position rows of its
    # joint, both of order 0, where lam = mu
    dj_dq = mu[4:size - 2:NCOEF] + mu[5:size - 2:NCOEF]

    # dM/ddT = (M diag(k) - diag(o) M) / dT, so lam . (dM/ddT) c is
    # (g . (k c) - sum over rows of o lam b) / dT.  Of the rows of order
    # o > 0 only the start's velocity, acceleration and jerk and the goal
    # velocity have b != 0; the coefficients give back their values, and
    # o lam b is o FALLING[o, o] mu c dT^o in the start's rows.
    c = traj.coefficients
    first = c[0] * powers[:, None]
    last = FALLING[1] @ (c[-1] * powers[:, None])
    boundary = float(mu[1] @ first[1] + 4.0 * (mu[2] @ first[2])
                     + 18.0 * (mu[3] @ first[3]) + mu[-1] @ last)
    moved = float(np.add.reduce(grad * (_EXPONENTS[:, None] * c), axis=None))
    return dj_dq, (dj_ddt - (moved - boundary) / dt) / n_seg


# _JERK_GRAM[m, n] is the integral over s in [0, 1] of the third
# derivatives of s^m and s^n.  Over a segment of length dT the Gram matrix
# of the coefficients c is dT^-5 diag(dT^k) _JERK_GRAM diag(dT^k).
_JERK_GRAM = np.zeros((NCOEF, NCOEF))
_JERK_GRAM[3:, 3:] = np.outer(FALLING[3, 3:], FALLING[3, 3:]) / (
    np.add.outer(np.arange(3, NCOEF), np.arange(3, NCOEF)) - 5)
_JERK_GRAM.flags.writeable = False


def jerk_energy(traj: Trajectory):
    """Integral of the squared jerk magnitude over the whole trajectory.

    Returns (value, dJ/dcoefficients, direct dJ/ddT) from the one Gram
    matrix at dT = 1, on the time-normalized coefficients.
    """
    dt = traj.segment_duration
    powers = time_powers(dt)
    normalized = traj.coefficients * powers[:, None]
    weighted = _JERK_GRAM @ normalized
    scale = dt ** -5
    value = scale * float(np.add.reduce(normalized * weighted, axis=None))
    # dT^3 times the jerk at each segment's end
    end_jerk = FALLING[3] @ normalized
    return (value, (2.0 * scale) * weighted * powers[:, None],
            scale / dt * float(np.add.reduce(end_jerk * end_jerk, axis=None)))
