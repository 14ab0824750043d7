"""Uniform piecewise-quintic trajectories.

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
coefficients c dT^k.  That right-hand side has N + 5 distinct nonzero rows
per axis (``normalized_rhs``): the waypoints and the six boundary values,
each times dT^o.  The planner never builds the coefficients: it composes
the inverse's columns for those rows (``rhs_columns``) with its sampling
operator and the jerk energy's Gram matrix once per segment count, and
works on the N + 5 rows directly.  This is the time-normalized
parameterization of MINCO (Wang et al., "Geometrically Constrained
Trajectory Optimization for Multicopters", IEEE T-RO 2022).

The inverse costs memory and time quadratic in N where a banded LU would
be linear.  That is the cheaper side at the sizes that can be planned:
plans use N = 6, and the banded solve only wins somewhere between N = 40
and N = 64, where cond M(1) is already above 1e16.
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


# The derivative order o of each boundary row of the right-hand side: the
# start's position, velocity, acceleration and jerk, then the goal's
# position and velocity.
BOUNDARY_ORDERS = np.array([0, 1, 2, 3, 0, 1])


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


def rhs_columns(n_seg: int) -> np.ndarray:
    """The columns of the inverse at dT = 1 that the rows of
    ``normalized_rhs`` multiply, shape (6N, N + 5): the time-normalized
    coefficients c dT^k are this times that right-hand side."""
    inverse = _unit_inverse(n_seg)
    size = NCOEF * n_seg
    return np.hstack([inverse[:, 4:size - 2:NCOEF]
                      + inverse[:, 5:size - 2:NCOEF],
                      inverse[:, :4], inverse[:, -2:]])


def normalized_rhs(waypoints, total_duration: float, start: BoundaryState,
                   goal_position, goal_velocity) -> np.ndarray:
    """The right-hand side at dT = 1, shape (N + 5, 3), with its zero rows
    dropped and each joint's two position rows, which both hold its
    waypoint, merged into one.

    Its rows are the N - 1 waypoints, then the start's position, velocity,
    acceleration and jerk and the goal's position and velocity, each times
    dT^o for its derivative order o (BOUNDARY_ORDERS).
    """
    q = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    if not (total_duration > 0.0 and math.isfinite(total_duration)):
        raise SingularSystem(f"total duration must be positive, got {total_duration!r}")
    if not np.isfinite(q).all():
        raise ValueError("waypoints must be finite")
    dt = total_duration / (q.shape[0] + 1)
    # a dT whose powers overflow is rejected just below, so numpy need not
    # warn about it
    with np.errstate(over="ignore"):
        powers = time_powers(dt)
    if not np.isfinite(powers).all():
        raise SingularSystem(f"segment duration {dt!r} overflows dT^5")
    rhs = np.empty((q.shape[0] + 6, 3))
    rhs[:-6] = q
    rhs[-6:] = (start.position, start.velocity, start.acceleration,
                start.jerk, goal_position, goal_velocity)
    rhs[-6:] *= powers[BOUNDARY_ORDERS, None]
    if not np.isfinite(rhs).all():
        raise SingularSystem("right-hand side must be finite")
    return rhs


def construct(waypoints, total_duration: float, start: BoundaryState,
              goal_position, goal_velocity) -> Trajectory:
    """Build the trajectory through the waypoints in the given total time.

    ``waypoints`` are the N-1 interior positions visited at the segment
    joints; an empty sequence gives a single segment.
    """
    rows = normalized_rhs(waypoints, total_duration, start,
                          _as_vec3(goal_position, "goal_position"),
                          _as_vec3(goal_velocity, "goal_velocity"))
    n_seg = rows.shape[0] - 5
    size = NCOEF * n_seg
    rhs = np.zeros((size, 3))
    rhs[:4] = rows[-6:-2]
    # each joint's left- and right-limit position rows
    rhs[4:size - 2:NCOEF] = rhs[5:size - 2:NCOEF] = rows[:-6]
    rhs[-2:] = rows[-2:]
    dt = total_duration / n_seg
    sol = (_unit_inverse(n_seg) @ rhs).reshape(n_seg, NCOEF, 3) \
        / time_powers(dt)[:, None]
    if not np.isfinite(sol).all():
        raise SingularSystem("coefficient solve produced non-finite values")
    return Trajectory(coefficients=sol, segment_duration=dt)


# _JERK_GRAM[m, n] is the integral over s in [0, 1] of the third
# derivatives of s^m and s^n.  Over a segment of length dT the Gram matrix
# of the coefficients c is dT^-5 diag(dT^k) _JERK_GRAM diag(dT^k).
_JERK_GRAM = np.zeros((NCOEF, NCOEF))
_JERK_GRAM[3:, 3:] = np.outer(FALLING[3, 3:], FALLING[3, 3:]) / (
    np.add.outer(np.arange(3, NCOEF), np.arange(3, NCOEF)) - 5)
_JERK_GRAM.flags.writeable = False
