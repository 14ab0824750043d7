"""Uniform piecewise-quintic trajectories and their parameter gradients.

A trajectory with N segments of equal duration dT is described per axis by
6N polynomial coefficients.  Construction solves the square linear system

    rows 0..3                position, velocity, acceleration, jerk at t = 0
    per interior joint i     left-limit position  = waypoint i
                             right-limit position = waypoint i
                             continuity of derivative orders 1..4
    last two rows            position and velocity at t = T

The system matrix depends only on (N, dT) and is banded, so the solve cost
is linear in N.  Gradients of a scalar cost with respect to the waypoints
and the total duration come out of a transposed solve against the same
matrix, which is how the planner backpropagates its sampled penalties.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


# _BASIS_EXPONENTS[o, k] = max(k - o, 0): the power of tau that basis order
# o pairs with FALLING[o, k], which is zero wherever k < o
_BASIS_EXPONENTS = np.maximum(
    np.arange(NCOEF)[None, :] - np.arange(NCOEF + 2)[:, None], 0)


# Scalar tau takes Python's float ** and arrays of taus numpy's array **;
# the two round differently for some taus, so they stay separate paths.
def _basis_table(tau: float, first: int, last: int) -> np.ndarray:
    """Rows b with b[k] = d^o/dtau^o tau^k for first <= o <= last."""
    powers = np.array([tau ** j for j in range(NCOEF - first)])
    return FALLING[first:last + 1] * powers[_BASIS_EXPONENTS[first:last + 1]]


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


class _Pattern(NamedTuple):
    src: np.ndarray
    eval_rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    # (n_lower, n_upper, band_row, column) of each nonzero in LAPACK's
    # banded layout, for the system and for its transpose
    normal: tuple
    transposed: tuple


@functools.lru_cache(maxsize=None)
def _system_pattern(n_seg: int) -> _Pattern:
    """Sparsity pattern of the coefficient system for ``n_seg`` segments.

    Nonzero j takes its value from slot src[j] of the table built by
    _system_values.  eval_rows holds (row, segment, order) arrays for every
    row that evaluates a basis at tau = dT; those are the only entries that
    move when dT changes, and d(entry)/d(dT) is the order+1 basis row.
    """
    rows, cols, src = [], [], []
    eval_rows = []

    def put(row, col, slot):
        rows.append(row)
        cols.append(col)
        src.append(slot)

    # slots: entry (o, k) of the basis table at dT at o*NCOEF + k for
    # o <= CONTINUITY_ORDER, then the constants of _SYSTEM_CONSTANTS
    const = (CONTINUITY_ORDER + 1) * NCOEF
    for o in range(4):
        put(o, o, const + o)
    row = 4
    for i in range(1, n_seg):
        left = NCOEF * (i - 1)
        right = NCOEF * i
        for k in range(NCOEF):
            put(row, left + k, k)
        eval_rows.append((row, i - 1, 0))
        row += 1
        put(row, right, const + 4)
        row += 1
        for o in range(1, CONTINUITY_ORDER + 1):
            for k in range(o, NCOEF):
                put(row, left + k, o * NCOEF + k)
            put(row, right + o, const + 4 + o)
            eval_rows.append((row, i - 1, o))
            row += 1
    last = NCOEF * (n_seg - 1)
    for o in range(2):
        for k in range(o, NCOEF):
            put(row, last + k, o * NCOEF + k)
        eval_rows.append((row, n_seg - 1, o))
        row += 1
    rows, cols = np.array(rows), np.array(cols)
    lower = int(np.max(rows - cols))
    upper = int(np.max(cols - rows))
    # LAPACK keeps A[i, j] at band row n_lower + n_upper + i - j, below
    # n_lower rows of fill-in space
    pattern = _Pattern(
        src=np.array(src),
        eval_rows=tuple(np.array(column) for column in zip(*eval_rows)),
        normal=(lower, upper, lower + upper + rows - cols, cols),
        transposed=(upper, lower, lower + upper + cols - rows, rows))
    # the cache hands these arrays to every caller
    for array in (pattern.src, *pattern.eval_rows, *pattern.normal[2:],
                  *pattern.transposed[2:]):
        array.flags.writeable = False
    return pattern


# FALLING[o, o] for the start rows, the joint's right-limit position, and
# the negated right-hand continuity entries
_SYSTEM_CONSTANTS = np.array(
    [float(FALLING[o, o]) for o in range(4)] + [1.0]
    + [-float(FALLING[o, o]) for o in range(1, CONTINUITY_ORDER + 1)])


def _system_values(dt: float) -> np.ndarray:
    """Value table indexed by _system_pattern's ``src``."""
    basis = _basis_table(dt, 0, CONTINUITY_ORDER)
    return np.concatenate([basis.ravel(), _SYSTEM_CONSTANTS])


def _solve_system(n_seg: int, dt: float, rhs: np.ndarray,
                  transpose: bool = False) -> np.ndarray:
    """Solve the coefficient system, or its transpose, for (size, 3) rhs.

    Fills LAPACK's banded layout directly and makes the dgbsv call that
    scipy.linalg.solve_banded would make, with the same errors: ValueError
    for a non-finite right-hand side, LinAlgError for a singular matrix.
    """
    from scipy.linalg.lapack import dgbsv  # here, so simulate never loads it
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    pat = _system_pattern(n_seg)
    n_lower, n_upper, band_row, column = \
        pat.transposed if transpose else pat.normal
    ab = np.zeros((2 * n_lower + n_upper + 1, NCOEF * n_seg))
    ab[band_row, column] = _system_values(dt)[pat.src]
    _, _, x, info = dgbsv(n_lower, n_upper, ab, rhs, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of gbsv")
    return x


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

    size = NCOEF * n_seg
    rhs = np.zeros((size, 3))
    rhs[0] = start.position
    rhs[1] = start.velocity
    rhs[2] = start.acceleration
    rhs[3] = start.jerk
    # each joint's left- and right-limit position rows
    rhs[4:size - 2:NCOEF] = q
    rhs[5:size - 2:NCOEF] = q
    rhs[-2] = goal_position
    rhs[-1] = goal_velocity

    try:
        sol = _solve_system(n_seg, dt, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    except ValueError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.isfinite(sol).all():
        raise SingularSystem("coefficient solve produced non-finite values")
    return Trajectory(coefficients=sol.reshape(n_seg, NCOEF, 3),
                      segment_duration=dt)


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
    grad_flat = np.asarray(dj_dcoef, dtype=float).reshape(size, 3)

    lam = _solve_system(n_seg, dt, grad_flat, transpose=True)

    # each waypoint feeds the left- and right-limit position rows of its joint
    joint = 4 + NCOEF * np.arange(n_seg - 1)
    dj_dq = lam[joint] + lam[joint + 1]

    # The matrix moves with dT only in rows that evaluate a basis at tau=dT,
    # and row-wise d(M)/d(dT) c = basis(dT, order+1) @ c_segment.
    rows, segs, orders = _system_pattern(n_seg).eval_rows
    moved = _basis_table(dt, 1, CONTINUITY_ORDER + 1)
    mprime_c = np.zeros((size, 3))
    mprime_c[rows] = np.matmul(moved[orders][:, None, :],
                               traj.coefficients[segs])[:, 0, :]
    chain = float(np.add.reduce(lam * mprime_c, axis=None))
    return dj_dq, (dj_ddt - chain) / n_seg


# entry (m, n) of the jerk Gram matrix for m, n >= 3 is
# FALLING[3, m] * FALLING[3, n] * dT**k / k with k = m + n - 5
_JERK_PRODUCTS = np.outer(FALLING[3, 3:], FALLING[3, 3:])
_JERK_EXPONENTS = np.add.outer(np.arange(3, NCOEF), np.arange(3, NCOEF)) - 5


def _jerk_gram(dt: float) -> np.ndarray:
    """Gram matrix of third-derivative basis products over one segment."""
    powers = np.array([dt ** k for k in range(_JERK_EXPONENTS.max() + 1)])
    g = np.zeros((NCOEF, NCOEF))
    g[3:, 3:] = (_JERK_PRODUCTS * powers[_JERK_EXPONENTS]
                 / _JERK_EXPONENTS)
    return g


def jerk_energy(traj: Trajectory):
    """Integral of the squared jerk magnitude over the whole trajectory.

    Returns (value, dJ/dcoefficients, direct dJ/ddT) from one Gram matrix.
    """
    dt = traj.segment_duration
    c = traj.coefficients
    g = _jerk_gram(dt)
    value = float(np.einsum("skx,km,smx->", c, g, c))
    end_jerk = np.einsum("k,skx->sx", _basis_table(dt, 3, 3)[0], c)
    return (value, 2.0 * np.einsum("km,smx->skx", g, c),
            float(np.add.reduce(end_jerk * end_jerk, axis=None)))
