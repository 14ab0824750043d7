"""Planar catenary statics for the pickup tether.

The cable hangs in the vertical plane spanned by its two attachment points:
endpoint A on the droid side and endpoint B at the carrier winch.  All
geometry here lives in the x-z plane; the y coordinate of world positions is
carried through the rest of the toolkit but ignored by the cable model.

In the vertex-origin frame the cable follows

    z(x) = a * (cosh(x / a) - 1)

where ``a`` is the catenary scale parameter.  Horizontal tension is constant
along the cable and equals ``mu * a`` with ``mu`` the weight per unit length,
and the tension magnitude at abscissa x is ``mu * a * cosh(x / a)``.

``_catenary`` is the one slack-span solve, shared by the simulator and the
``check`` verb.  It recovers the curve through both endpoints with a given
arc length by Newton's method on u = p / (2a), using the identities

    sqrt(L^2 - H^2) = 2 a sinh(p / (2a))
    x_A = a atanh(H / L) - p / 2

which follow from the sum-to-product forms of the endpoint equations.

``corridor_bounds_and_gradient`` gives the released-length corridor
[l_min, l_max] at a batch of droid positions: l_min is the chord and l_max
the longest cable whose vertex sits exactly ``sag_limit`` below the lower
attachment point.  With the vertex depth pinned, both the span and the
length are explicit in ``a``, so Newton's method on the logarithm of the
span recovers ``a`` and the length follows.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence

# Below this horizontal separation the scale parameter is unidentifiable and
# the degenerate vertical rules apply: the corridor's |H| + 2 sag and its
# gradient, and the simulator's doubled strand.  At and above it the
# catenary is solved.
EPS_P = 1e-6

_BRACKET_HI = 1e6
_MAX_NEWTON = 100
_NEWTON_RTOL = 4e-16
_RESIDUAL_RTOL = 1e-12
# Where a slack span's excess rhs - p is below this share of p, rhs's own
# rounding (half an ulp, 1.1e-16 of rhs) is over 1e-12 of the excess, so
# the scale solve adds it back.  The shipped flights' smallest excess is
# 0.025 m, far above it.
_TAUT_EXCESS = 1e-4
# Newton rounds of the sag-limited solve: from its seed every row settles
# to within a few ulps of log(scale) in 5.
_SAG_ROUNDS = 5
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class CableProperties:
    """Physical cable constants.

    ``mass_per_length`` is in kg/m.  The weight per unit length used by the
    statics is derived as ``mass_per_length * gravity`` so the two can never
    drift apart.  ``attachment_offset`` is the vertical protrusion of the
    droid-side hook above the droid reference position; the corridor adds
    it to the droid positions it is given.
    """

    mass_per_length: float = 1.4e-4
    gravity: float = 9.81
    sag_limit: float = 0.1
    attachment_offset: float = 0.0

    def __post_init__(self) -> None:
        if not (self.mass_per_length > 0 and math.isfinite(self.mass_per_length)):
            raise ValueError("mass_per_length must be positive and finite")
        if not (self.gravity > 0 and math.isfinite(self.gravity)):
            raise ValueError("gravity must be positive and finite")
        if not (self.sag_limit >= 0 and math.isfinite(self.sag_limit)):
            raise ValueError("sag_limit must be nonnegative and finite")
        if not math.isfinite(self.attachment_offset):
            raise ValueError("attachment_offset must be finite")

    @property
    def weight_per_length(self) -> float:
        """Cable weight per meter in N/m."""
        return self.mass_per_length * self.gravity


def _log_sinhc(u: float) -> tuple[float, float]:
    """log(sinh(u) / u) and its derivative coth(u) - 1/u, for u > 0.

    Both lose every digit to cancellation as u -> 0, so small arguments
    use Taylor series (sinh(u)/u - 1 in powers of u^2, and the Bernoulli
    series of coth(u) - 1/u); large ones avoid overflowing sinh.
    """
    if u < 0.5:
        w = u * u
        excess = w * (1.0 / 6.0 + w * (1.0 / 120.0 + w * (
            1.0 / 5040.0 + w * (1.0 / 362880.0 + w * (
                1.0 / 39916800.0 + w * (1.0 / 6227020800.0
                                        + w / 1307674368000.0))))))
        slope = u * (1.0 / 3.0 - w * (1.0 / 45.0 - w * (
            2.0 / 945.0 - w * (1.0 / 4725.0 - w * (
                2.0 / 93555.0 - w * 1382.0 / 638512875.0)))))
        return math.log1p(excess), slope
    if u > 20.0:
        return u - math.log(2.0 * u) + math.log1p(-math.exp(-2.0 * u)), \
            1.0 / math.tanh(u) - 1.0 / u
    return math.log(math.sinh(u) / u), 1.0 / math.tanh(u) - 1.0 / u


def _square_parts(x: float) -> list[float]:
    """Three floats that sum exactly to x * x (Veltkamp's split of x)."""
    c = 134217729.0 * x
    hi = c - (c - x)
    lo = x - hi
    return [hi * hi, 2.0 * hi * lo, lo * lo]


def _solve_scale(p: float, rhs: float,
                 correction: float = 0.0) -> tuple[float, float] | None:
    """Root of 2 a sinh(p/(2a)) = rhs + correction for rhs > p, by Newton's
    method, and the equation's target; ``correction`` is what rounding
    took off rhs, where known.

    With u = p/(2a) the equation reads
    log(sinh(u)/u) = log1p((rhs - p + correction)/p), the target.
    The left-hand side is convex and increasing in u, so from any start
    Newton lands at or right of the root after one step and then decreases
    monotonically onto it; the loop ends after the first step that moves
    u down by no more than rounding noise.  The target goes through log1p so
    that excess lengths down to rounding level keep their digits.  A root
    above the scale bracket's upper end counts as the taut limit and
    gives None.
    """
    target = math.log1p((rhs - p + correction) / p)
    if not target > 0.0 or \
            2.0 * _BRACKET_HI * math.sinh(0.5 * p / _BRACKET_HI) > rhs:
        return None
    # leading terms of log(sinh(u)/u): u^2/6 for small u, u - log(2u) large
    u = math.sqrt(6.0 * target) if target < 1.0 \
        else target + math.log(2.0 * target) + 1.0
    for iteration in range(_MAX_NEWTON):
        value, slope = _log_sinhc(u)
        step = (value - target) / slope
        u -= step
        # past the first step every step is downhill; one within rounding
        # noise of log(sinh(u)/u) means u has settled, and taking it costs
        # no further evaluation
        if iteration > 0 and not step > _NEWTON_RTOL * u:
            break
    else:
        raise NoConvergence(f"catenary scale Newton did not settle for p={p!r}")
    return 0.5 * p / u, target


def _catenary(p: float, H: float,
              length: float) -> tuple[float, float] | None:
    """(scale, x_a) of the span p, rise H from A to B and arc ``length``
    (x_b = x_a + p).  Callers guarantee p >= EPS_P and a finite length
    beyond the chord.  A scale above the bracket is the taut limit and
    gives None; an unsettled or uncertified scale raises NoConvergence.
    """
    rhs = math.sqrt((length - H) * (length + H))
    # rhs's rounding is a large share of a nearly taut span's excess: add
    # back sqrt(L^2 - H^2) - rhs, to first order (L^2 - H^2 - rhs^2) / (2 rhs)
    # with the squares summed exactly
    correction = 0.0
    if rhs - p < _TAUT_EXCESS * p:
        minus = [-t for t in _square_parts(H) + _square_parts(rhs)]
        correction = math.fsum(_square_parts(length) + minus) / (2.0 * rhs)
    if (solved := _solve_scale(p, rhs, correction)) is None:
        return None
    a, target = solved
    # Certify the root on the scale equation in u = p / (2a), relative to
    # its target: both sides keep their relative digits at any slope and
    # any excess length, and a relative error e in the scale moves the
    # residual by at least e.
    residual = _log_sinhc(0.5 * p / a)[0] - target
    if not abs(residual) <= _RESIDUAL_RTOL * target:
        raise NoConvergence(
            f"catenary scale residual too large: {residual!r} of {target!r}")
    return a, a * math.atanh(H / length) - 0.5 * p


def _sag_solve_batch(p: np.ndarray, H: np.ndarray, sag_limit: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized longest-cable solve for many planar configurations.

    For each (p, H) pair, finds the catenary through both endpoints whose
    vertex sits exactly s = sag_limit below the lower endpoint and
    k = s + |H| below the upper one, on either side of it, so at scale a

        p(a) = a [acosh(1 + s/a) + acosh(1 + k/a)]
        l(a) = sqrt(s^2 + 2 a s) + sqrt(k^2 + 2 a k).

    p(a) increases with a, and d log p / d log a lies between 1/2 (large
    a) and 1 (small a), so Newton's method on log p(e^b) = log p in
    b = log a takes well-scaled steps.  Entries with p < EPS_P use the
    degenerate vertical rule |H| + 2 sag_limit, the catenary's limit as
    p -> 0 (a bight hanging sag_limit below the lower end), with gradient
    (dl/dp, dl/d|H|) = (0, 1).

    Returns ``(length, dl_dp, dl_dh)``: the length and its derivatives
    over p and over |H|.  Rows whose catenary comes out no longer than the
    chord, such as level rows with sag_limit = 0 (k = 0 parks at the
    bracket), take the chord and the chord's gradient (the taut-chord
    clamp); every other row from EPS_P up takes the closed-form gradient.
    Every row is computed on its own, so its result does not depend on the
    rest of the batch.
    """
    p = np.asarray(p, dtype=float)
    habs = np.abs(np.asarray(H, dtype=float))
    vertical = p < EPS_P
    if not vertical.any():
        return _sag_scale_solve(p, habs, sag_limit)
    length = habs + 2.0 * sag_limit
    dl_dp = np.zeros(p.shape)
    dl_dh = np.ones(p.shape)
    solve = ~vertical
    length[solve], dl_dp[solve], dl_dh[solve] = _sag_scale_solve(
        p[solve], habs[solve], sag_limit)
    return length, dl_dp, dl_dh


def _quiet(needed: bool):
    """numpy's error state ignoring division by zero and invalid results,
    or no change when not ``needed``."""
    return np.errstate(divide="ignore", invalid="ignore") if needed \
        else contextlib.nullcontext()


def _sag_scale_solve(p: np.ndarray, habs: np.ndarray, sag_limit: float):
    """``_sag_solve_batch`` on rows that all have p >= EPS_P (or NaN)."""
    # A sag limit of at least _TINY * _BRACKET_HI keeps every depth ratio
    # w = depth / a at or above _TINY, so no row can divide by zero below
    # and numpy's error state need not be touched.
    tiny_sag = sag_limit < _TINY * _BRACKET_HI
    # row 0 holds s, row 1 holds k
    depths = np.empty((2,) + p.shape)
    depths[0] = sag_limit
    np.add(sag_limit, habs, out=depths[1])
    log_p = np.log(p)
    # Seed at the large-a asymptote: acosh(1 + w) <= sqrt(2 w) gives the
    # lower bound a = p^2 / (sqrt(2 s) + sqrt(2 k))^2 of the root; with
    # k = 0 it is +inf, which the bracket clamps.
    with _quiet(tiny_sag):
        b = 2.0 * (log_p - np.log(np.add.reduce(np.sqrt(2.0 * depths))))
    b_hi = math.log(_BRACKET_HI)
    for rounds_left in range(_SAG_ROUNDS, -1, -1):
        # A scale above the bracket counts as the taut limit: the row
        # parks there and the chord clamp below supplies its answer.
        np.minimum(b, b_hi, out=b)
        a = np.exp(b)
        w = depths / a
        w2 = w + 2.0
        # acosh(1 + w) through log1p keeps the digits of small w;
        # sqrt(w / (w + 2)) = -a d/da acosh(1 + depth / a) is 0 at w = 0
        acosh_w = np.log1p(w + np.sqrt(w * w2))
        slope_w = np.sqrt(w / w2)
        span = acosh_w[0] + acosh_w[1]
        l_a = slope_w[0] + slope_w[1]
        if not rounds_left:
            break
        # d log p / d b = 1 - l_a / span; the floor keeps a parked row
        # stepping up when both depth ratios underflow to 0
        floored = np.maximum(span, _TINY)
        b -= (b + np.log(floored) - log_p) * floored / (floored - l_a)

    solved = np.add.reduce(np.sqrt(depths * (depths + 2.0 * a)))
    # Closed-form gradient at the solved scale.  l_a = dl/da and
    # p_a = dp/da = span - l_a, so dl/dp = l_a / p_a and, with s fixed,
    # dl/dk = (dl/dk at fixed a) - l_a (dp/dk at fixed a) / p_a.
    with _quiet(tiny_sag):
        slope_p = l_a / (span - l_a)
        slope_h = (1.0 + w[1] - slope_p) / np.sqrt(w[1] * w2[1])
    chord = np.hypot(p, habs)
    taut = chord >= solved
    if taut.any():
        np.copyto(solved, chord, where=taut)
        np.copyto(slope_p, p / chord, where=taut)
        np.copyto(slope_h, habs / chord, where=taut)
    return solved, slope_p, slope_h


def corridor_bounds_batch(droid: np.ndarray, anchor,
                          props: CableProperties) -> tuple[np.ndarray, np.ndarray]:
    """(l_min, l_max) arrays for a batch of droid positions.

    The first two outputs of corridor_bounds_and_gradient, for the
    planner's seed, the loader's reachability warning, the dense corridor
    re-check, the self-checks and telemetry post-processing.
    """
    return corridor_bounds_and_gradient(droid, anchor, props)[:2]


def corridor_bounds_and_gradient(droid: np.ndarray, anchor,
                                 props: CableProperties):
    """(l_min, l_max, dl_min/d droid, dl_max/d droid) from one root find.

    ``droid`` has shape (n, 3); ``anchor`` is a single world position or a
    matching (n, 3) batch of positions.  The cable attaches
    ``props.attachment_offset`` above each droid position.  The gradients
    are (n, 3) arrays over the droid's world coordinates (the y column
    stays zero).  l_min's gradient is the unit chord direction in the x-z
    plane; l_max's is the sag-limited solve's closed form, the chord's on
    rows decided by the taut-chord clamp and the vertical rule's below
    EPS_P.
    """
    droid = np.asarray(droid, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    dx = droid[:, 0] - (anchor[0] if anchor.ndim == 1 else anchor[:, 0])
    dz = (droid[:, 2] + props.attachment_offset) \
        - (anchor[2] if anchor.ndim == 1 else anchor[:, 2])
    H = -dz
    l_min = np.hypot(dx, dz)
    length, dl_dp, dl_dh = _sag_solve_batch(np.abs(dx), H, props.sag_limit)

    apart = l_min > 1e-12
    safe = np.ones_like(l_min)
    np.copyto(safe, l_min, where=apart)
    dlmin = np.zeros(dx.shape + (3,))
    np.copyto(dlmin[:, 0], dx / safe, where=apart)
    np.copyto(dlmin[:, 2], dz / safe, where=apart)

    dlmax = np.zeros_like(dlmin)
    dlmax[:, 0] = dl_dp * np.sign(dx)
    # H grows as the attachment point sinks
    dlmax[:, 2] = -(np.sign(H) * dl_dh)
    return l_min, np.maximum(length, l_min), dlmin, dlmax
