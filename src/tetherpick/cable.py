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

Two solvers live here.  ``solve_catenary`` recovers the curve through both
endpoints with a prescribed arc length; ``max_length`` finds the longest
cable whose vertex sits exactly ``sag_limit`` below the lower attachment
point.  Both solve for ``a`` using the identities

    sqrt(L^2 - H^2) = 2 a sinh(p / (2a))
    x_A = a atanh(H / L) - p / 2

which follow from the sum-to-product forms of the endpoint equations:
``solve_catenary`` by Newton's method on u = p / (2a), ``max_length`` by a
bracketed false-position search polished by Newton steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthTooShort, NoConvergence, OutOfDomain

# Below this horizontal separation the scale parameter is unidentifiable and
# the degenerate vertical rules apply.
EPS_P = 1e-6

_BRACKET_LO = 1e-6
_BRACKET_HI = 1e6
_MAX_NEWTON = 100
_NEWTON_RTOL = 4e-16
_RESIDUAL_RTOL = 1e-9

# selects the low end (row 0) of a stacked (low, high) bracket
_LOW_END = np.array([[True], [False]])


class CableState(enum.Enum):
    """Whether the vertex of the solved curve lies between the endpoints."""

    TAUT = "taut"
    SLACK = "slack"


@dataclass(frozen=True)
class CableProperties:
    """Physical cable constants.

    ``mass_per_length`` is in kg/m.  The weight per unit length used by the
    statics is derived as ``mass_per_length * gravity`` so the two can never
    drift apart.  ``attachment_offset`` is the vertical protrusion of the
    droid-side hook above the droid reference position; callers add it to
    droid positions before calling the geometric operations here.
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


@dataclass(frozen=True)
class PlanarConfiguration:
    """Relative placement of the two attachment points in the cable plane.

    ``p`` is the horizontal separation (nonnegative) and ``H`` the signed
    vertical separation; H > 0 means endpoint B (the winch side) sits above
    endpoint A (the droid side).
    """

    p: float
    H: float

    def __post_init__(self) -> None:
        if not (self.p >= 0 and math.isfinite(self.p)):
            raise ValueError("horizontal separation p must be nonnegative and finite")
        if not math.isfinite(self.H):
            raise ValueError("vertical separation H must be finite")
        if self.chord <= 0:
            raise ValueError("attachment points must not coincide")

    @property
    def chord(self) -> float:
        return math.hypot(self.p, self.H)

    @classmethod
    def from_points(cls, attach_a, anchor_b) -> "PlanarConfiguration":
        """Build the planar configuration from two world positions.

        Positions are (x, y, z) triples; the model uses the x-z plane only.
        """
        return cls(p=abs(float(anchor_b[0]) - float(attach_a[0])),
                   H=float(anchor_b[2]) - float(attach_a[2]))


@dataclass(frozen=True)
class CatenarySolution:
    """A solved cable curve in its vertex-origin frame.

    ``x_a`` and ``x_b`` are the endpoint abscissae (x_a < x_b and
    x_b - x_a = p).  ``vertex_tension`` is the horizontal tension component,
    constant along the cable.
    """

    scale: float
    vertex_tension: float
    x_a: float
    x_b: float
    length: float
    state: CableState


@dataclass(frozen=True)
class CableBounds:
    """Feasible released-length corridor at one droid/anchor placement."""

    l_min: float
    l_max: float
    l_now: float

    @property
    def satisfied(self) -> bool:
        return self.l_min <= self.l_now <= self.l_max

    @property
    def margin(self) -> float:
        """Distance of l_now from the nearest corridor edge (negative if outside)."""
        return min(self.l_now - self.l_min, self.l_max - self.l_now)


def min_length(p_droid, p_anchor) -> float:
    """Shortest admissible cable: the x-z plane distance between endpoints."""
    dx = float(p_droid[0]) - float(p_anchor[0])
    dz = float(p_droid[2]) - float(p_anchor[2])
    return math.hypot(dx, dz)


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


def _solve_scale(p: float, rhs: float) -> float:
    """Root of 2 a sinh(p/(2a)) = rhs for rhs > p, by Newton's method.

    With u = p/(2a) the equation reads log(sinh(u)/u) = log1p((rhs - p)/p).
    The left-hand side is convex and increasing in u, so from any start
    Newton lands at or right of the root after one step and then decreases
    monotonically onto it; the loop ends when a step no longer moves u
    down by more than rounding noise.  The target goes through log1p so
    that excess lengths down to rounding level keep their digits.  A root
    above the scale bracket's upper end counts as the taut limit and
    raises NoConvergence.
    """
    target = math.log1p((rhs - p) / p)
    if not target > 0.0 or \
            2.0 * _BRACKET_HI * math.sinh(0.5 * p / _BRACKET_HI) > rhs:
        raise NoConvergence(
            "catenary scale above bracket (cable is at the taut limit); "
            f"p={p!r}, excess length {rhs - p!r}")
    # leading terms of log(sinh(u)/u): u^2/6 for small u, u - log(2u) large
    u = math.sqrt(6.0 * target) if target < 1.0 \
        else target + math.log(2.0 * target) + 1.0
    for iteration in range(_MAX_NEWTON):
        value, slope = _log_sinhc(u)
        step = (value - target) / slope
        # past the first step every step is downhill; one within rounding
        # noise of log(sinh(u)/u) means u has settled
        if iteration > 0 and not step > _NEWTON_RTOL * u:
            break
        u -= step
    else:
        raise NoConvergence(f"catenary scale Newton did not settle for p={p!r}")
    return 0.5 * p / u


def solve_catenary(cfg: PlanarConfiguration, length: float,
                   props: CableProperties) -> CatenarySolution:
    """Solve for the catenary through both endpoints with the given arc length.

    Raises LengthTooShort if ``length`` does not exceed the chord (callers
    should treat that as the taut straight-line limit), and NoConvergence if
    the scale cannot be bracketed, which includes the degenerate vertical
    configuration p < EPS_P where no planar catenary exists.
    """
    chord = cfg.chord
    if not math.isfinite(length):
        raise ValueError("length must be finite")
    if length <= chord:
        raise LengthTooShort(
            f"cable length {length!r} does not exceed chord {chord!r}")
    if cfg.p < EPS_P:
        raise NoConvergence(
            "horizontal separation below EPS_P: catenary scale unidentifiable")

    rhs = math.sqrt(length * length - cfg.H * cfg.H)
    a = _solve_scale(cfg.p, rhs)
    x_a = a * math.atanh(cfg.H / length) - 0.5 * cfg.p
    x_b = x_a + cfg.p

    # Residuals of the endpoint equations, in sum-to-product form to avoid
    # cancellation.  These certify the Newton result.  Both inherit the
    # rounding of H / L and of L^2 - H^2 magnified by L^2 / (L^2 - H^2),
    # which is large on near-vertical spans, so the bound grows with it.
    half_sum = 0.5 * (x_a + x_b) / a
    sinh_half_gap = math.sinh(0.5 * cfg.p / a)
    h_res = 2.0 * a * math.sinh(half_sum) * sinh_half_gap - cfg.H
    l_res = 2.0 * a * math.cosh(half_sum) * sinh_half_gap - length
    tol = _RESIDUAL_RTOL * (length / rhs) ** 2
    if abs(h_res) > tol * max(1.0, abs(cfg.H)) or \
            abs(l_res) > tol * max(1.0, length):
        raise NoConvergence(
            f"catenary residuals too large: dH={h_res!r}, dL={l_res!r}")

    state = CableState.SLACK if (x_a < 0.0 < x_b) else CableState.TAUT
    return CatenarySolution(scale=a,
                            vertex_tension=props.weight_per_length * a,
                            x_a=x_a, x_b=x_b, length=length, state=state)


def _sag_solve_batch(p: np.ndarray, H: np.ndarray, sag_limit: float,
                     iterations: int = 100
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized longest-cable solve for many planar configurations.

    For each (p, H) pair, finds the catenary through both endpoints whose
    vertex lies exactly ``sag_limit`` below the lower endpoint.  Entries
    with p < EPS_P use the degenerate vertical rule |H| + sag_limit.  With
    sag_limit = 0 and H = 0 the answer is the chord.

    Returns ``(length, scale, chord_ruled)``.  ``scale`` is the solved
    catenary scale, NaN on rows that never entered the root find.
    ``chord_ruled`` marks rows whose length came from the taut-chord clamp
    rather than the catenary; the analytic gradient follows the same branch.
    """
    p = np.asarray(p, dtype=float)
    H = np.asarray(H, dtype=float)
    habs = np.abs(H)
    out = np.full(p.shape, np.nan)
    scale = np.full(p.shape, np.nan)
    chord_ruled = np.zeros(p.shape, dtype=bool)

    vertical = p < EPS_P
    if vertical.any():
        out[vertical] = habs[vertical] + sag_limit
    solve = ~vertical

    if sag_limit == 0.0:
        level_zero_sag = solve & (habs == 0.0)
        out[level_zero_sag] = p[level_zero_sag]
        chord_ruled[level_zero_sag] = True
        solve &= ~level_zero_sag
    if not solve.any():
        return out, scale, chord_ruled

    ps = p[solve]
    hs = habs[solve]
    wide_lo = np.minimum(_BRACKET_LO, 1e-4 * ps)

    # Vertex depth is pinned at sag_limit below the lower endpoint, so only
    # the vertical-gap equation remains:
    #   f(a) = 2 a sinh((u_a + u_b)/2) sinh(p/(2a)) - |H| = 0
    # with u_a = -acosh(1 + sag_limit/a) and u_b = u_a + p/a.  The solve
    # runs the Illinois variant of false position on g(b) = asinh(f(e^b)):
    # the asinh damps f's overflow plateau at small scales into a gentle
    # log slope so secants stay informative, and the log abscissa makes one
    # absolute tolerance cover the whole bracket.  g decreases through the
    # root; a row whose secant falls outside its bracket bisects instead.
    half_ps = 0.5 * ps

    def g_of(b: np.ndarray) -> np.ndarray:
        # callers ignore overflow and invalid values around this
        a = np.exp(b)
        half_gap = half_ps / a
        mid = half_gap - np.arccosh(1.0 + sag_limit / a)
        f = 2.0 * a * np.sinh(mid) * np.sinh(half_gap) - hs
        return np.minimum(np.maximum(np.arcsinh(f), -720.0), 720.0)

    # Seed a tight bracket from two closed-form regimes.  Shallow spans:
    # both endpoint offsets are quadratic in their half-spans, giving
    # a = p^2 / (sqrt(2 sag) + sqrt(2 (sag + |H|)))^2.  Deep, nearly
    # vertical spans: with tau = p/a, the balance reduces to
    # tau - 2 ln tau = ln(4 sag |H| / p^2), a contraction solvable by a few
    # fixed-point sweeps.  The envelope of the two guesses, widened by 4x
    # either way, almost always straddles the root; rows where a sign check
    # disagrees fall back to the matching half of the wide bracket.
    with np.errstate(divide="ignore", invalid="ignore"):
        p_sq = ps ** 2
        a_sh = p_sq / (math.sqrt(2.0 * sag_limit)
                       + np.sqrt(2.0 * (sag_limit + hs))) ** 2
        ratio = np.log(4.0 * sag_limit * hs / p_sq)
    deep = ratio > 2.0
    low = high = a_sh
    if deep.any():
        tau = np.where(deep, np.maximum(ratio, 3.0), 3.0)
        for _ in range(3):
            tau = np.where(deep, ratio + 2.0 * np.log(tau), tau)
        a_dp = np.where(deep, ps / tau, a_sh)
        low, high = np.minimum(a_sh, a_dp), np.maximum(a_sh, a_dp)
    lo_c = np.clip(low / 4.0, wide_lo, _BRACKET_HI)
    hi_c = np.clip(4.0 * high, wide_lo, _BRACKET_HI)

    lo_cb = np.log(lo_c)
    hi_cb = np.log(hi_c)
    wide_lob = np.log(wide_lo)
    wide_hib = np.full_like(ps, math.log(_BRACKET_HI))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g1, g2, g_wide = g_of(np.array([lo_cb, hi_cb, wide_hib]))
        # Row 0 of ends/g_ends is the low end of each bracket, row 1 the
        # high end.  The arrays are updated in place with np.copyto, which
        # costs about half of an np.where on arrays this small.
        ends = np.array([lo_cb, hi_cb])
        g_ends = np.array([g1, g2])
        # f blows up positive at the wide lower endpoint, so its g is the cap
        left = g1 <= 0.0
        right = (~left) & (g2 >= 0.0)
        np.copyto(ends, np.array([hi_cb, wide_hib]), where=right)
        np.copyto(g_ends, np.array([g2, g_wide]), where=right)
        np.copyto(ends, np.array([wide_lob, lo_cb]), where=left)
        np.copyto(g_ends[0], 720.0, where=left)
        np.copyto(g_ends[1], g1, where=left)
        # rows whose root lies beyond the wide bracket (near-zero sag and
        # |H|) collapse onto it; the chord clamp below supplies the answer
        beyond = g_ends[1] > 0.0
        np.copyto(ends[0], ends[1], where=beyond)
        np.copyto(g_ends[0], g_ends[1], where=beyond)

        # ``last`` marks the end the previous round replaced (neither
        # before the first)
        last = np.zeros(ends.shape, dtype=bool)
        best_b = 0.5 * (ends[0] + ends[1])
        # the bracketed phase only needs to land within ~1e-6 of the root;
        # the Newton polish below is quadratic from there and reaches
        # rounding accuracy in two steps, skipping the bracket's slow endgame
        done = (ends[1] - ends[0]) <= 1e-6
        for _ in range(iterations):
            if np.count_nonzero(done) == done.size:
                break
            cross = ends * g_ends[::-1]
            secant = (cross[0] - cross[1]) / (g_ends[1] - g_ends[0])
            # rows whose secant leaves the bracket bisect; NaN and infinite
            # secants fail the strict test too
            b = 0.5 * (ends[0] + ends[1])
            np.copyto(b, secant, where=(secant > ends[0]) & (secant < ends[1]))
            g_b = g_of(b)
            step_small = np.abs(b - best_b) <= 1e-6
            np.copyto(best_b, b, where=~done)
            # g decreases through the root: g_b > 0 replaces the low end
            replaced = (g_b > 0.0) == _LOW_END
            # Illinois anti-stall: halve the retained end's value whenever
            # the same end is replaced twice in a row, so the stale end
            # cannot pin the bracket open
            np.copyto(g_ends, 0.5 * g_ends, where=last[::-1])
            np.copyto(g_ends, g_b, where=replaced)
            np.copyto(ends, b, where=replaced)
            last = replaced
            done = done | step_small | (ends[1] - ends[0] <= 1e-6)
        for _ in range(2):
            a_n = np.exp(best_b)
            y = sag_limit / a_n
            q = half_ps / a_n
            m = q - np.arccosh(1.0 + y)
            sm, sq = np.sinh(m), np.sinh(q)
            f = 2.0 * a_n * sm * sq - hs
            q_a = -q / a_n
            m_a = q_a + np.sqrt(y / (2.0 + y)) / a_n
            f_a = 2.0 * (sm * sq + a_n * (np.cosh(m) * m_a * sq
                                          + sm * np.cosh(q) * q_a))
            step = f / (f_a * a_n)
            np.copyto(best_b, best_b - step, where=np.isfinite(step))
    # the root never leaves the bracket, so neither may the polish
    a = np.exp(best_b.clip(ends[0], ends[1]))
    with np.errstate(over="ignore"):
        u_a = -np.arccosh(1.0 + sag_limit / a)
        mid = u_a + half_ps / a
        length = 2.0 * a * np.cosh(mid) * np.sinh(half_ps / a)
    chord = np.hypot(ps, hs)
    scale[solve] = a
    out[solve] = np.maximum(length, chord)
    chord_ruled[solve] = chord >= length
    return out, scale, chord_ruled


_solve_memo: dict[tuple[bytes, bytes, float],
                  tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _sag_solve_cached(p: np.ndarray, H: np.ndarray,
                      sag_limit: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-slot memo over the batch solve.

    The corridor bounds and their gradient are evaluated back to back on
    identical inputs once per objective evaluation; remembering the last
    solve halves the planner's cable cost.
    """
    key = (p.tobytes(), H.tobytes(), float(sag_limit))
    hit = _solve_memo.get(key)
    if hit is None:
        hit = _sag_solve_batch(p, H, sag_limit)
        _solve_memo.clear()
        _solve_memo[key] = hit
    return hit


def max_length(cfg: PlanarConfiguration, props: CableProperties) -> float:
    """Longest cable whose sag stays within ``props.sag_limit``.

    The limiting curve has its vertex exactly ``sag_limit`` below the lower
    attachment point.  For p < EPS_P the scale is unidentifiable and the
    degenerate vertical rule |H| + sag_limit applies.
    """
    result = float(_sag_solve_batch(np.array([cfg.p]), np.array([cfg.H]),
                                    props.sag_limit)[0][0])
    if not math.isfinite(result):
        raise NoConvergence(f"sag-limited length solve failed for {cfg!r}")
    return result


def tension_at(sol: CatenarySolution, x: float) -> float:
    """Tension magnitude at abscissa x of a solved curve."""
    tol = 1e-9 * (abs(sol.x_a) + abs(sol.x_b) + 1.0)
    if x < sol.x_a - tol or x > sol.x_b + tol:
        raise OutOfDomain(
            f"abscissa {x!r} outside cable span [{sol.x_a!r}, {sol.x_b!r}]")
    return sol.vertex_tension * math.cosh(x / sol.scale)


def cable_bounds(p_droid, p_anchor, l_now: float,
                 props: CableProperties) -> CableBounds:
    """Feasible corridor for the released length at one placement.

    ``p_droid`` must already be the cable attachment point (droid position
    plus attachment offset, when the scenario uses one).
    """
    cfg = PlanarConfiguration.from_points(p_droid, p_anchor)
    return CableBounds(l_min=min_length(p_droid, p_anchor),
                       l_max=max_length(cfg, props),
                       l_now=float(l_now))


def corridor_bounds_batch(attach: np.ndarray, anchor,
                          props: CableProperties) -> tuple[np.ndarray, np.ndarray]:
    """(l_min, l_max) arrays for a batch of attachment points.

    ``attach`` has shape (n, 3); ``anchor`` is a single world position or a
    matching (n, 3) batch of positions.  Used by the planner penalty, the
    dense corridor re-check, and telemetry post-processing, so all of them
    see bitwise-identical bounds.
    """
    attach = np.asarray(attach, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    anchor_x = anchor[0] if anchor.ndim == 1 else anchor[:, 0]
    anchor_z = anchor[2] if anchor.ndim == 1 else anchor[:, 2]
    dx = attach[:, 0] - anchor_x
    dz = attach[:, 2] - anchor_z
    l_min = np.hypot(dx, dz)
    l_max = _sag_solve_cached(np.abs(dx), -dz, props.sag_limit)[0]
    return l_min, np.maximum(l_max, l_min)


def sag_length_gradient_batch(p: np.ndarray, H: np.ndarray,
                              props: CableProperties,
                              step: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the sag-limited length in (p, H).

    Differentiates the root condition implicitly at the solved scale, so
    the gradient is exact at the returned length and costs no extra root
    finds.  Rows decided by the taut-chord clamp follow the chord's
    gradient.  Near the degenerate vertical configuration the analytic
    limit of the |H| + sag rule applies; ``step`` only sets how wide that
    guard band is, mirroring the finite-difference interface it replaced.
    """
    p = np.asarray(p, dtype=float)
    H = np.asarray(H, dtype=float)
    _, a, chord_ruled = _sag_solve_cached(p, H, props.sag_limit)
    hs = np.abs(H)
    # Implicit differentiation of f(a, p, h) = 2 a sinh(m) sinh(q) - h = 0
    # with q = p/(2a) and m = q - acosh(1 + sag/a), around the solved a.
    # The length is l = 2 a cosh(m) sinh(q); the sum-angle identities
    # collapse the explicit partials to df/dp = sinh(m+q), dl/dp = cosh(m+q).
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        q = 0.5 * p / a
        y = props.sag_limit / a
        m = q - np.arccosh(1.0 + y)
        sq, cq = np.sinh(q), np.cosh(q)
        sm, cm = np.sinh(m), np.cosh(m)
        q_a = -q / a
        m_a = q_a + np.sqrt(y / (2.0 + y)) / a
        f_a = 2.0 * (sm * sq + a * (cm * m_a * sq + sm * cq * q_a))
        l_a = 2.0 * (cm * sq + a * (sm * m_a * sq + cm * cq * q_a))
        dl_dp = np.asarray(np.cosh(m + q) - l_a * np.sinh(m + q) / f_a)
        dl_dh = np.asarray(l_a / f_a)
        chord = np.hypot(p, hs)
        np.copyto(dl_dp, p / chord, where=chord_ruled)
        np.copyto(dl_dh, hs / chord, where=chord_ruled)
    near_vertical = p < max(10.0 * step, EPS_P)
    np.copyto(dl_dp, 0.0, where=near_vertical)
    np.copyto(dl_dh, 1.0, where=near_vertical)
    return dl_dp, np.sign(H) * dl_dh


def sample_shape(sol: CatenarySolution, n: int, world_a=None) -> np.ndarray:
    """Sample n points along the solved curve, endpoint A to endpoint B.

    Returns an (n, 2) array of (x, z) pairs in the vertex-origin frame.  If
    ``world_a`` is given as the planar world position of endpoint A, the
    samples are translated so the first point lands on it.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    xs = np.linspace(sol.x_a, sol.x_b, n)
    zs = sol.scale * (np.cosh(xs / sol.scale) - 1.0)
    pts = np.column_stack([xs, zs])
    if world_a is not None:
        pts = pts - pts[0] + np.asarray(world_a, dtype=float)
    return pts
