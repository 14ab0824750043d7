"""Catenary statics tests.

Frozen expected values were produced by an independent oracle: scipy.brentq
on the raw endpoint equations (vertex-depth parameterization for the sag
solve) plus adaptive quadrature of the arc-length integrand, certified to
residuals below 1e-15 before freezing.
"""

import math
import warnings
from typing import NamedTuple
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from tetherpick import cable
from tetherpick.cable import (
    EPS_P,
    CableProperties,
    corridor_bounds_and_gradient,
    corridor_bounds_batch,
    _catenary,
    _sag_solve_batch,
    _solve_scale,
)
from tetherpick.errors import NoConvergence
from tetherpick.simulation import _cable_forces

PROPS = CableProperties()
MU = PROPS.weight_per_length

# Frozen oracle values (independent brentq on raw equations, 1e-15 residuals).
A_SYM_L2P5 = 0.845504697713374          # scale for p=2, H=0, L=2.5
SAG_SYM_L2P5 = 0.663593772849559        # vertex depth below endpoints
A_P2_H1_L2P4 = 1.37237333200868         # scale for p=2, H=1, L=2.4
XA_P2_H1_L2P4 = -0.391144378887332
MAXLEN_P2_H0_D0P1 = 2.01327169258395
MAXLEN_P2_H3_D0P1 = 4.10243304100011
MAXLEN_P2_H2P5_D0P1 = 3.65485698682795


def oracle_scale(p, H, L):
    """Independent root find for the scale parameter (scipy brentq)."""
    rhs = math.sqrt(L * L - H * H)

    def gap(a):
        try:
            return 2 * a * math.sinh(0.5 * p / a) - rhs
        except OverflowError:
            return 1e300

    return brentq(gap, 1e-8, 1e5, xtol=1e-15, rtol=8.9e-16)


def corridor_at(droid, anchor, props=PROPS):
    """(l_min, l_max) of the corridor at one droid position."""
    l_min, l_max = corridor_bounds_batch(np.array([droid], dtype=float),
                                         anchor, props)
    return float(l_min[0]), float(l_max[0])


def sag_length(p, H, props=PROPS):
    """The corridor's l_max for span p and rise H: the droid at (p, 0, -H)
    below an anchor at the origin."""
    return corridor_at((p, 0.0, -H), np.zeros(3), props)[1]


class Span(NamedTuple):
    """A solved curve in its vertex-origin frame."""

    scale: float
    x_a: float
    x_b: float
    length: float

    @property
    def vertex_tension(self):
        return MU * self.scale


def solve(p, H, length):
    """_catenary's scale and x_a, with x_b = x_a + p."""
    scale, x_a = _catenary(p, H, length)
    return Span(scale, x_a, x_a + p, length)


def tension(sol, x):
    """Tension magnitude at abscissa x of a solved curve."""
    return sol.vertex_tension * math.cosh(x / sol.scale)


def raw_residuals(sol, H):
    """Residuals of the raw endpoint equations, no sum-to-product rewrite."""
    a = sol.scale
    h_res = a * (math.cosh(sol.x_b / a) - math.cosh(sol.x_a / a)) - H
    l_res = a * (math.sinh(sol.x_b / a) - math.sinh(sol.x_a / a)) - sol.length
    return h_res, l_res


class TestChordAndMinLength:
    def test_min_length_axis_aligned(self):
        assert corridor_at((2, 0, 0), (0, 0, 0))[0] == 2.0

    def test_min_length_diagonal(self):
        assert corridor_at((2, 0, 2), (0, 0, 0))[0] == pytest.approx(
            2 * math.sqrt(2), rel=1e-12)

    def test_min_length_ignores_y(self):
        assert corridor_at((0, 5, 0), (0, 0, 0))[0] == 0.0

    def test_from_points_projects_to_xz(self):
        """The corridor reads the x-z plane only: its chord is that of the
        span p = |dx| and rise H = dz."""
        l_min, l_max = corridor_at((2, 7, 0), (0, -3, 2.5))
        assert l_min == math.hypot(2.0, 2.5)
        assert l_max == sag_length(2.0, 2.5)


class TestCableProperties:
    def test_weight_is_exact_product(self):
        props = CableProperties(mass_per_length=1.4e-4, gravity=9.81)
        assert props.weight_per_length == 1.4e-4 * 9.81

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CableProperties(mass_per_length=0.0)
        with pytest.raises(ValueError):
            CableProperties(gravity=-1.0)
        with pytest.raises(ValueError):
            CableProperties(sag_limit=-0.1)


class TestSolveCatenary:
    def test_taut_limit_has_negligible_sag(self):
        sol = solve(2.0, 0.0, 2.0000001)
        sag = sol.scale * (math.cosh(sol.x_a / sol.scale) - 1.0)
        assert sag < 1e-3

    def test_symmetric_slack_case(self):
        sol = solve(2.0, 0.0, 2.5)
        assert sol.scale == pytest.approx(A_SYM_L2P5, rel=1e-12)
        assert sol.scale == pytest.approx(oracle_scale(2, 0, 2.5), rel=1e-12)
        assert sol.x_a == pytest.approx(-1.0, abs=1e-12)
        assert sol.x_b == pytest.approx(1.0, abs=1e-12)
        assert sol.x_a < 0.0 < sol.x_b
        sag = sol.scale * (math.cosh(sol.x_a / sol.scale) - 1.0)
        assert sag == pytest.approx(SAG_SYM_L2P5, rel=1e-12)

    def test_symmetric_case_quadrature_oracle(self):
        """Arc length by quadrature of sqrt(1 + z'(x)^2) reproduces L."""
        sol = solve(2.0, 0.0, 2.5)
        a = sol.scale
        arc, _ = quad(lambda x: math.sqrt(1.0 + math.sinh(x / a) ** 2),
                      sol.x_a, sol.x_b, epsabs=1e-12, epsrel=1e-12)
        assert arc == pytest.approx(2.5, rel=1e-6)

    def test_asymmetric_case_raw_equation_residuals(self):
        sol = solve(2.0, 1.0, 2.4)
        assert sol.scale == pytest.approx(A_P2_H1_L2P4, rel=1e-12)
        assert sol.x_a == pytest.approx(XA_P2_H1_L2P4, rel=1e-10)
        h_res, l_res = raw_residuals(sol, 1.0)
        assert abs(h_res) < 1e-9
        assert abs(l_res) < 1e-9
        assert sol.x_a < 0.0 < sol.x_b

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(1.5e-4, 1.9e-4), H=st.floats(-3.0, 3.0),
           log_excess=st.floats(-10.0, math.log10(5e-8)))
    def test_near_vertical_scale_matches_exact_root(self, p, H, log_excess):
        """L^2 - H^2 formed as (L - H)(L + H) keeps the scale's digits on
        near-vertical slack spans, where L * L - H * H cancels."""
        assert scale_error(p, H, math.hypot(p, H) + 10.0 ** log_excess) \
            <= 1e-10

    @settings(max_examples=500, deadline=None)
    @given(p=st.floats(1.5e-4, 1.9e-4), H=st.floats(-1e-6, 1e-6),
           excess=st.one_of(
               st.just(1e-10),
               st.floats(-10.0, math.log10(5e-8)).map(lambda e: 10.0 ** e)))
    # both exceeded the bound before rhs's rounding was added back
    @example(p=0.00017595279727188049, H=-3.3882424520425713e-07,
             excess=1e-10)
    @example(p=0.00018154919072829943, H=9.138954443157299e-07,
             excess=1e-10)
    def test_nearly_taut_scale_matches_exact_root(self, p, H, excess):
        """At an excess near 1e-10 m over a 0.17 mm span, one rounding of
        rhs is up to 1.4e-10 of rhs - p; the solve adds it back."""
        assert scale_error(p, H, math.hypot(p, H) + excess) <= 1e-10

    def test_ultra_taut_beyond_bracket_is_the_taut_limit(self):
        # excess lengths so small the scale root would exceed the bracket
        for excess in (1e-14, 1e-13, 3e-13):
            assert _catenary(2.0, 0.0, 2.0 + excess) is None
        assert _catenary(2.0, 0.0, 2.0 + 1e-12) is not None

    def test_vertex_tension_is_exact_product(self):
        # the simulator's horizontal pull on a slack span is mu * scale
        scale = _catenary(2.0, 0.0, 2.5)[0]
        assert _cable_forces(2.0, 0.0, 0.0, 0.0, 2.5, 0.0, PROPS,
                             0.0)[0] == MU * scale

    def test_taut_state_when_vertex_outside_span(self):
        # Steep geometry, length near the chord: both endpoints on one branch.
        sol = solve(0.5, 3.0, math.hypot(0.5, 3.0) + 1e-4)
        assert sol.x_a > 0

    def test_randomized_residual_and_quadrature_invariants(self):
        """100 random (p, H, L): residuals < 1e-9, quadrature matches 1e-6."""
        rng = np.random.default_rng(20240814)
        for _ in range(100):
            p = rng.uniform(0.2, 8.0)
            H = rng.uniform(-4.0, 4.0)
            chord = math.hypot(p, H)
            L = chord * (1.0 + 10 ** rng.uniform(-6, 0.5))
            sol = solve(p, H, L)
            h_res, l_res = raw_residuals(sol, H)
            assert abs(h_res) <= 1e-9 * max(1.0, abs(H))
            assert abs(l_res) <= 1e-9 * max(1.0, L)
            assert sol.length >= chord
            assert sol.x_b - sol.x_a == pytest.approx(p, rel=1e-12)
            a = sol.scale
            arc, _ = quad(lambda x: math.sqrt(1.0 + math.sinh(x / a) ** 2),
                          sol.x_a, sol.x_b, epsabs=1e-10, epsrel=1e-10)
            assert arc == pytest.approx(L, rel=1e-6)

    def test_state_matches_sag_below_lower_endpoint(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            p = rng.uniform(0.2, 5.0)
            H = rng.uniform(-3.0, 3.0)
            L = math.hypot(p, H) * (1.0 + 10 ** rng.uniform(-5, 0.3))
            sol = solve(p, H, L)
            x_lower = sol.x_a if H >= 0 else sol.x_b
            sag_below_lower = sol.scale * (math.cosh(x_lower / sol.scale) - 1.0)
            if sol.x_a < 0 < sol.x_b:
                assert sag_below_lower > 0

    def test_taut_limit_sag_decreases_monotonically(self):
        xs = np.linspace(0, 1, 64)
        chord = math.hypot(2.0, 1.0)
        last = math.inf
        for excess in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            sol = solve(2.0, 1.0, chord + excess)
            sample_x = sol.x_a + xs * 2.0
            curve_z = sol.scale * (np.cosh(sample_x / sol.scale) - 1.0)
            z_a = sol.scale * (math.cosh(sol.x_a / sol.scale) - 1.0)
            chord_z = z_a + xs * 1.0
            sag_below_chord = float(np.max(chord_z - curve_z))
            assert sag_below_chord < last
            last = sag_below_chord
        assert last < 1e-3


class TestMaxLength:
    def test_degenerate_vertical_rule(self):
        assert sag_length(0.0, 3.0) == pytest.approx(3.2, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(H=st.floats(-3.0, 3.0), sag=st.floats(0.0, 3.0))
    def test_continuous_across_the_vertical_rule(self, H, sag):
        """At p = EPS_P the vertical rule meets the catenary's p -> 0
        limit |H| + 2 sag, so l_max does not jump there."""
        props = CableProperties(sag_limit=sag)
        below = sag_length(EPS_P * (1 - 1e-9), H, props)
        above = sag_length(EPS_P * (1 + 1e-9), H, props)
        assert abs(above - below) <= 2e-6

    def test_zero_sag_forces_chord(self):
        props = CableProperties(sag_limit=0.0)
        assert sag_length(2.0, 0.0, props) == 2.0

    def test_symmetric_sag_case(self):
        got = sag_length(2.0, 0.0)
        assert got == pytest.approx(MAXLEN_P2_H0_D0P1, rel=1e-10)
        # independent symmetric oracle: a (cosh(1/a) - 1) = d
        def depth_gap(a):
            try:
                return a * (math.cosh(1.0 / a) - 1.0) - 0.1
            except OverflowError:
                return 1e300

        a = brentq(depth_gap, 1e-3, 1e3, xtol=1e-15, rtol=8.9e-16)
        assert got == pytest.approx(2 * a * math.sinh(1.0 / a), rel=1e-10)

    def test_tall_asymmetric_case(self):
        got = sag_length(2.0, 3.0)
        assert got == pytest.approx(MAXLEN_P2_H3_D0P1, rel=1e-10)

    def test_sag_case_quadrature_oracle(self):
        """Recover the limiting curve and check its arc length by quadrature."""
        L = sag_length(2.0, 3.0)
        sol = solve(2.0, 3.0, L)
        # the vertex must sit sag_limit below the lower endpoint
        z_a = sol.scale * (math.cosh(sol.x_a / sol.scale) - 1.0)
        assert z_a == pytest.approx(PROPS.sag_limit, abs=1e-8)
        a = sol.scale
        arc, _ = quad(lambda x: math.sqrt(1.0 + math.sinh(x / a) ** 2),
                      sol.x_a, sol.x_b, epsabs=1e-12, epsrel=1e-12)
        assert arc == pytest.approx(L, rel=1e-6)

    def test_nondecreasing_in_sag_limit(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            p = rng.uniform(0.3, 6.0)
            H = rng.uniform(-3.0, 3.0)
            lengths = [sag_length(p, H, CableProperties(sag_limit=d))
                       for d in (0.0, 0.05, 0.1, 0.3, 1.0)]
            assert all(b >= a - 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_always_at_least_chord(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(0.0, 6.0)
            H = rng.uniform(-4.0, 4.0)
            if math.hypot(p, H) < 1e-9:
                continue
            assert sag_length(p, H) >= math.hypot(p, H) - 1e-12

    def test_mirror_symmetry_in_h(self):
        up = sag_length(2.0, 3.0)
        down = sag_length(2.0, -3.0)
        assert up == pytest.approx(down, rel=1e-12)


class TestTensionAt:
    def setup_method(self):
        self.sol = solve(2.0, 0.0, 2.5)

    def test_vertex_tension(self):
        assert tension(self.sol, 0.0) == self.sol.vertex_tension

    def test_unit_slope_point(self):
        # tan(theta) = sinh(x/a) = 1 there, so T = T0 * sqrt(2)
        x = self.sol.scale * math.asinh(1.0)
        assert x <= self.sol.x_b
        assert tension(self.sol, x) == pytest.approx(
            self.sol.vertex_tension * math.sqrt(2), rel=1e-12)

    def test_vertical_force_balance(self):
        """End tensions' vertical components support the full cable weight."""
        sol = self.sol
        theta_a = math.atan(math.sinh(sol.x_a / sol.scale))
        theta_b = math.atan(math.sinh(sol.x_b / sol.scale))
        vertical = (tension(sol, sol.x_b) * math.sin(theta_b)
                    - tension(sol, sol.x_a) * math.sin(theta_a))
        assert vertical == pytest.approx(MU * sol.length, rel=1e-9)

    def test_horizontal_tension_constant(self):
        sol = self.sol
        for x in np.linspace(sol.x_a, sol.x_b, 11):
            theta = math.atan(math.sinh(x / sol.scale))
            assert tension(sol, x) * math.cos(theta) == pytest.approx(
                sol.vertex_tension, rel=1e-12)


class TestCableBounds:
    def test_offset_anchor_corridor(self):
        l_min, l_max = corridor_at((2, 0, 0), (0, 0, 2.5))
        assert l_min == pytest.approx(math.sqrt(10.25), rel=1e-12)
        assert l_max == pytest.approx(MAXLEN_P2_H2P5_D0P1, rel=1e-10)
        assert l_min <= 3.3 <= l_max

    def test_directly_below_anchor(self):
        l_min, l_max = corridor_at((0, 0, 0), (0, 0, 2))
        assert l_min == pytest.approx(2.0, abs=1e-12)
        assert l_max == pytest.approx(2.2, abs=1e-12)
        assert l_min <= 2.05 <= l_max

    @settings(max_examples=300, deadline=None)
    @given(droid=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                    st.floats(-1.0, 1.0),
                                    st.floats(-3.0, 3.0)),
                          min_size=1, max_size=20),
           offset=st.floats(-0.5, 0.5),
           sag=st.sampled_from([0.0, 0.05, 0.1, 1.0]))
    def test_offset_is_the_droid_shifted_in_z(self, droid, offset, sag):
        """The attachment offset o gives, bit for bit, the corridor and
        gradient of offset 0 at droid positions raised by o."""
        anchor = np.array([0.5, 0.0, 2.5])
        droid = np.array(droid)
        raised = droid.copy()
        raised[:, 2] += offset
        got = corridor_bounds_and_gradient(
            droid, anchor, CableProperties(sag_limit=sag,
                                           attachment_offset=offset))
        want = corridor_bounds_and_gradient(
            raised, anchor, CableProperties(sag_limit=sag))
        for mine, theirs in zip(got, want):
            assert mine.tobytes() == theirs.tobytes()


class TestBatchedHelpers:
    def test_batch_matches_scalar_solves(self):
        """Each row is the one-row corridor, and l_min the planar chord."""
        rng = np.random.default_rng(11)
        attach = rng.uniform(-3, 3, size=(40, 3))
        anchor = np.array([0.5, 0.0, 2.5])
        l_min, l_max = corridor_bounds_batch(attach, anchor, PROPS)
        for i in range(attach.shape[0]):
            assert (l_min[i], l_max[i]) == corridor_at(attach[i], anchor)
            chord = math.hypot(anchor[0] - attach[i, 0],
                               anchor[2] - attach[i, 2])
            assert l_min[i] == pytest.approx(chord, rel=1e-12)

    def test_batch_lmax_clamped_to_lmin(self):
        l_min, l_max = corridor_bounds_batch(
            np.array([[0.0, 0.0, 0.0]]), (0.0, 0.0, 2.0), PROPS)
        assert np.all(l_max >= l_min)

    @staticmethod
    def planar_gradient(p, H):
        """(l_min, l_max, dl_max/dp, dl_max/dH, dl_min/d attach) with the
        anchor at the origin and the attachment point at (p, 0, -H)."""
        attach = np.column_stack([p, np.zeros_like(p), -H])
        l_min, l_max, dlmin, dlmax = corridor_bounds_and_gradient(
            attach, np.zeros(3), PROPS)
        # H grows as the attachment point sinks
        return l_min, l_max, dlmax[:, 0], -dlmax[:, 2], dlmin

    def test_gradient_matches_direct_differences(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.5, 5.0, size=12)
        H = rng.uniform(-3.0, 3.0, size=12)
        l_min, l_max, dl_dp, dl_dh, dlmin = self.planar_gradient(p, H)
        np.testing.assert_allclose(dlmin, np.column_stack(
            [p, np.zeros_like(p), -H]) / l_min[:, None], rtol=1e-15)
        eps = 1e-5
        for i in range(p.size):
            assert l_max[i] == pytest.approx(sag_length(p[i], H[i]),
                                             rel=1e-10)
            up = sag_length(p[i] + eps, H[i])
            dn = sag_length(p[i] - eps, H[i])
            assert dl_dp[i] == pytest.approx((up - dn) / (2 * eps), abs=2e-4)
            up = sag_length(p[i], H[i] + eps)
            dn = sag_length(p[i], H[i] - eps)
            assert dl_dh[i] == pytest.approx((up - dn) / (2 * eps), abs=2e-4)

    def test_gradient_degenerate_vertical(self):
        l_min, l_max, dl_dp, dl_dh, dlmin = self.planar_gradient(
            np.array([0.0]), np.array([2.0]))
        assert l_min[0] == 2.0 and l_max[0] == 2.2
        assert dl_dp[0] == 0.0
        assert dl_dh[0] == 1.0
        assert dlmin[0].tolist() == [0.0, 0.0, -1.0]

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 1e-5), st.floats(1e-5, 5.0)),
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
        st.booleans()), min_size=1, max_size=40),
        anchor=st.tuples(st.floats(-3.0, 3.0), st.floats(-1.0, 1.0),
                         st.floats(0.0, 4.0)),
        sag=st.sampled_from([0.0, 0.05, 0.1, 1.0]))
    def test_gradient_entry_gives_the_corridor_bit_for_bit(self, rows, anchor,
                                                           sag):
        """Vertical (p below EPS_P), level (H = 0) and general rows."""
        props = CableProperties(sag_limit=sag)
        anchor = np.array(anchor)
        attach = np.array([[anchor[0] + (p if right else -p), 0.3,
                            anchor[2] - H] for p, H, right in rows])
        want_min, want_max = corridor_bounds_batch(attach, anchor, props)
        l_min, l_max, _, dlmax = corridor_bounds_and_gradient(attach, anchor,
                                                              props)
        assert l_min.tobytes() == want_min.tobytes()
        assert l_max.tobytes() == want_max.tobytes()
        p = np.abs(attach[:, 0] - anchor[0])
        vertical = p < EPS_P
        assert np.all(dlmax[vertical, 0] == 0.0)
        assert np.all(np.abs(dlmax[vertical, 2]) <= 1.0)
        assert np.all(dlmax[:, 1] == 0.0)


# ---------------------------------------------------------------------------
# The Newton scale solve against the bracketed bisection it replaced, kept
# here verbatim as a reference.

_REF_BRACKET_LO = 1e-6
_REF_BRACKET_HI = 1e6


def _reference_arc_gap(a, p):
    try:
        return 2.0 * a * math.sinh(0.5 * p / a)
    except OverflowError:
        return math.inf


def scale_error(p, H, length):
    """_catenary's relative scale error against a 50-digit root of
    2 a sinh(p/(2a)) = sqrt(L^2 - H^2), with L and H taken exactly."""
    scale = _catenary(p, H, length)[0]
    with mpmath.workdps(50):
        rhs = mpmath.sqrt(mpmath.mpf(length) ** 2 - mpmath.mpf(H) ** 2)
        target = mpmath.log(rhs / p)
        u = mpmath.findroot(
            lambda u: mpmath.log(mpmath.sinh(u) / u) - target,
            mpmath.mpf(0.5 * p / scale))
        return abs(scale / (0.5 * p / u) - 1)


def reference_solve_scale(p, rhs):
    lo = min(_REF_BRACKET_LO, 1e-4 * p)
    hi = _REF_BRACKET_HI
    if _reference_arc_gap(hi, p) - rhs > 0.0:
        raise NoConvergence("catenary scale above bracket")
    if not _reference_arc_gap(lo, p) - rhs > 0.0:
        raise NoConvergence("catenary scale bracket lost")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _reference_arc_gap(mid, p) - rhs > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def reference_resolution(p, rhs, a):
    """How far the bisection's answer may sit from the true root.

    It stops on a 1e-12 bracket, and it cannot rank scales whose computed
    2 a sinh(p/(2a)) lies within its rounding error of rhs: that error is
    about (4 + 2u) ulps of rhs with u = p/(2a), and the band it spans in a
    is that error over |d/da 2 a sinh(p/(2a))| = 2 (u cosh u - sinh u).
    """
    u = 0.5 * p / a
    if u < 0.1:
        slope = 2.0 * u ** 3 / 3.0 * (1.0 + u * u / 10.0)
    else:
        slope = 2.0 * (u * math.cosh(u) - math.sinh(u))
    return 1e-12 + (4.0 + 2.0 * u) * math.ulp(rhs) / slope


class TestNewtonScale:
    @settings(max_examples=2000, deadline=None)
    @given(p=st.floats(EPS_P, 10.0), H=st.floats(-3.0, 3.0),
           ratio=st.floats(1e-12, 3.0))
    # a Newton loop that stopped before its last computed step left this
    # scale 5 ulps of residual above the bisection's
    @example(p=1.5, H=2.693424243045574, ratio=1.280124011160086)
    def test_matches_bisection_wherever_it_succeeds(self, p, H, ratio):
        chord = math.hypot(p, H)
        length = chord + ratio * chord
        rhs = math.sqrt(length * length - H * H)
        try:
            expected = reference_solve_scale(p, rhs)
        except NoConvergence:
            return
        scale = _solve_scale(p, rhs)[0]
        tolerance = 1e-9 * expected + reference_resolution(p, rhs, expected)
        assert abs(scale - expected) <= tolerance
        # and it solves the equation at least as well as the bisection
        assert abs(_reference_arc_gap(scale, p) - rhs) <= \
            abs(_reference_arc_gap(expected, p) - rhs) + 4.0 * math.ulp(rhs)

    @settings(max_examples=1000, deadline=None)
    @given(p=st.floats(EPS_P, 2.5e-2), H=st.floats(-3.0, 3.0),
           log_excess=st.floats(-12.0, 0.0))
    def test_near_vertical_slack_spans_certify(self, p, H, log_excess):
        """An exact scale passes the residual check on near-vertical spans,
        down to EPS_P where the simulator's doubled-strand regime begins.

        "Exact" means within 1e-12 of a 40-digit root of the equation the
        scale solve is given.
        """
        length = math.hypot(p, H) + 10.0 ** log_excess
        rhs = math.sqrt(length * length - H * H)
        scale = _solve_scale(p, rhs)[0]
        with mpmath.workdps(40):
            target = mpmath.log(mpmath.mpf(rhs) / p)
            u = mpmath.findroot(
                lambda u: mpmath.log(mpmath.sinh(u) / u) - target,
                mpmath.mpf(0.5 * p / scale))
            exact = abs(scale / (0.5 * p / u) - 1) <= 1e-12
        if exact:
            _catenary(p, H, length)

    @settings(max_examples=1000, deadline=None)
    @given(p=st.one_of(st.floats(EPS_P, 1e-4), st.floats(0.3, 5.0)),
           H=st.floats(-3.0, 3.0), log_excess=st.floats(-9.0, 0.0))
    def test_a_corrupted_scale_fails_the_certificate(self, p, H, log_excess):
        """A root off by 1e-6 relative is rejected on every span.

        The scale equation's residual relative to its target moves by at
        least the scale's relative error, whatever the slope or excess.
        """
        length = math.hypot(p, H) * (1.0 + 10.0 ** log_excess)
        _catenary(p, H, length)

        def corrupted(p, rhs, correction):
            scale, target = _solve_scale(p, rhs, correction)
            return scale * (1.0 + 1e-6), target

        with mock.patch.object(cable, "_solve_scale", corrupted):
            with pytest.raises(NoConvergence, match="residual"):
                _catenary(p, H, length)

    def test_well_conditioned_spans_match_to_1e9(self):
        # excess lengths of a millimetre and up leave the bisection's
        # rounding band far below 1e-9 of the scale
        rng = np.random.default_rng(7)
        for _ in range(500):
            p = float(rng.uniform(1e-2, 10.0))
            H = float(rng.uniform(-3.0, 3.0))
            chord = math.hypot(p, H)
            length = chord * (1.0 + float(rng.uniform(1e-3, 3.0)))
            rhs = math.sqrt(length * length - H * H)
            expected = reference_solve_scale(p, rhs)
            assert _solve_scale(p, rhs)[0] == pytest.approx(expected,
                                                            rel=1e-9)


def mp_sag_length(p, habs, s):
    """Sag-limited length at mpmath's working precision: the root of the
    span equation a [acosh(1 + s/a) + acosh(1 + k/a)] = p, with k = s + |H|,
    found in b = log a, then sqrt(s^2 + 2as) + sqrt(k^2 + 2ak)."""
    k = s + habs

    def log_span_gap(b):
        a = mpmath.exp(b)
        return mpmath.log(a * (mpmath.acosh(1 + s / a)
                               + mpmath.acosh(1 + k / a))) - mpmath.log(p)

    a = mpmath.exp(mpmath.findroot(log_span_gap, mpmath.mpf(0)))
    return mpmath.sqrt(s * s + 2 * a * s) + mpmath.sqrt(k * k + 2 * a * k)


def exact_sag_length(p, H, sag):
    """40-digit sag-limited length."""
    with mpmath.workdps(40):
        return mp_sag_length(mpmath.mpf(p), abs(mpmath.mpf(H)),
                             mpmath.mpf(sag))


def exact_sag_gradient(p, habs, sag):
    """(dl/dp, dl/d|H|) of the sag-limited length by 40-digit central
    differences, with steps 1e-12 p and 1e-12 m."""
    with mpmath.workdps(40):
        p, habs, s = mpmath.mpf(p), mpmath.mpf(habs), mpmath.mpf(sag)
        dp, dh = p * mpmath.mpf("1e-12"), mpmath.mpf("1e-12")
        return (float((mp_sag_length(p + dp, habs, s)
                       - mp_sag_length(p - dp, habs, s)) / (2 * dp)),
                float((mp_sag_length(p, habs + dh, s)
                       - mp_sag_length(p, habs - dh, s)) / (2 * dh)))


ROW = st.tuples(
    st.one_of(st.floats(0.0, 2e-6), st.floats(1e-6, 1e-3), st.floats(1e-3, 10.0)),
    st.one_of(st.just(0.0), st.floats(-5.0, 5.0), st.floats(-1e-4, 1e-4)))

# zero, subnormal, tiny and ordinary magnitudes
TINY_TO_LARGE = st.one_of(
    st.just(0.0), st.just(5e-324),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0, 1e-290), st.floats(0.0, 1e-6), st.floats(0.0, 10.0))


class TestSagSolveBatch:
    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(1e-4, 10.0), H=st.floats(-3.0, 3.0),
           sag=st.floats(1e-3, 1.0))
    def test_length_matches_a_40_digit_root(self, p, H, sag):
        """Within 2e-15 relative; the bracketed solve this replaced was off
        by up to 1.8e-14 on such rows."""
        length = _sag_solve_batch(np.array([p]), np.array([H]), sag)[0][0]
        assert length > math.hypot(p, H)
        assert abs(length / exact_sag_length(p, H, sag) - 1) <= 2e-15

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(EPS_P, 1e-5), H=st.floats(-3.0, 3.0),
           sag=st.floats(1e-3, 1.0))
    def test_gradient_matches_40_digits_down_to_eps_p(self, p, H, sag):
        """The closed-form gradient holds from EPS_P up; the vertical
        rule's (0, 1) would miss dl/dp by about 0.06 here."""
        _, dl_dp, dl_dh = _sag_solve_batch(np.array([p]), np.array([H]), sag)
        want_dp, want_dh = exact_sag_gradient(p, abs(H), sag)
        assert abs(dl_dp[0] - want_dp) <= 1e-9
        assert abs(dl_dh[0] - want_dh) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(ROW, min_size=1, max_size=40),
           sag=st.sampled_from([0.0, 1e-6, 0.01, 0.1, 1.0, 3.0]))
    def test_each_row_equals_its_solo_solve_bit_for_bit(self, rows, sag):
        p = np.array([row[0] for row in rows])
        H = np.array([row[1] for row in rows])
        batch = _sag_solve_batch(p, H, sag)
        for i in range(p.size):
            solo = _sag_solve_batch(p[i:i + 1], H[i:i + 1], sag)
            for got, want in zip(batch, solo):
                assert got[i:i + 1].tobytes() == want.tobytes()

    @settings(max_examples=1000, deadline=None)
    @given(p=st.one_of(st.just(EPS_P), st.floats(EPS_P, 1e-5),
                       st.floats(EPS_P, 100.0)),
           H=TINY_TO_LARGE, sag=TINY_TO_LARGE, below=st.booleans())
    def test_edge_rows_give_a_finite_length_and_gradient(self, p, H, sag,
                                                         below):
        """Zero and subnormal sag and |H|: no warning, a finite length at
        least the chord, a finite gradient, and the chord's gradient
        wherever the taut-chord clamp decides the length."""
        H = -H if below else H
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            length, dl_dp, dl_dh = _sag_solve_batch(np.array([p]),
                                                    np.array([H]), sag)
        chord = math.hypot(p, H)
        assert math.isfinite(length[0]) and length[0] >= chord
        assert math.isfinite(dl_dp[0]) and math.isfinite(dl_dh[0])
        if length[0] == chord:
            assert (dl_dp[0], dl_dh[0]) == (p / chord, abs(H) / chord)

    @pytest.mark.parametrize("p, H, sag", [
        (1e-6, 5e-324, 0.0), (1.0, 1e-300, 0.0), (1.0, 1e-300, 1e-300)])
    def test_scale_beyond_the_bracket_takes_the_chord(self, p, H, sag):
        # the root scale here exceeds 1e6 or even overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            length, dl_dp, dl_dh = _sag_solve_batch(np.array([p]),
                                                    np.array([H]), sag)
        assert length[0] == math.hypot(p, H)
        assert math.isfinite(dl_dp[0]) and math.isfinite(dl_dh[0])

    def test_zero_sag_and_vertical_rules(self):
        p = np.array([2.0, 2.0, 0.0, 5e-7])
        H = np.array([0.0, 1.5, 3.0, -2.0])
        length, dl_dp, dl_dh = _sag_solve_batch(p, H, 0.0)
        # level zero-sag rows are the chord; a sloped zero-sag row hangs
        # with its vertex at the lower end and is longer than the chord
        assert length[0] == 2.0 and (dl_dp[0], dl_dh[0]) == (1.0, 0.0)
        assert length[1] > 2.5
        assert abs(length[1] / exact_sag_length(2.0, 1.5, 0.0) - 1) <= 2e-15
        # below EPS_P the vertical rule |H| + 2 sag applies
        assert length[2:].tolist() == [3.0, 2.0]
        assert dl_dp[2:].tolist() == [0.0, 0.0]
        assert dl_dh[2:].tolist() == [1.0, 1.0]
