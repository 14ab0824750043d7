"""Catenary statics tests.

Frozen expected values were produced by an independent oracle: scipy.brentq
on the raw endpoint equations (vertex-depth parameterization for the sag
solve) plus adaptive quadrature of the arc-length integrand, certified to
residuals below 1e-15 before freezing.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from tetherpick.cable import (
    EPS_P,
    CableBounds,
    CableProperties,
    CableState,
    CatenarySolution,
    PlanarConfiguration,
    cable_bounds,
    corridor_bounds_batch,
    max_length,
    min_length,
    sag_length_gradient_batch,
    sample_shape,
    solve_catenary,
    tension_at,
    _sag_solve_batch,
    _solve_scale,
)
from tetherpick.errors import LengthTooShort, NoConvergence, OutOfDomain

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


def raw_residuals(sol, cfg):
    """Residuals of the raw endpoint equations, no sum-to-product rewrite."""
    a = sol.scale
    h_res = a * (math.cosh(sol.x_b / a) - math.cosh(sol.x_a / a)) - cfg.H
    l_res = a * (math.sinh(sol.x_b / a) - math.sinh(sol.x_a / a)) - sol.length
    return h_res, l_res


class TestChordAndMinLength:
    def test_chord_examples(self):
        assert PlanarConfiguration(2, 0).chord == 2.0
        assert PlanarConfiguration(0, 3).chord == 3.0
        assert PlanarConfiguration(2, 1).chord == pytest.approx(math.sqrt(5), rel=1e-12)

    def test_min_length_axis_aligned(self):
        assert min_length((2, 0, 0), (0, 0, 0)) == 2.0

    def test_min_length_diagonal(self):
        assert min_length((2, 0, 2), (0, 0, 0)) == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_min_length_ignores_y(self):
        assert min_length((0, 5, 0), (0, 0, 0)) == 0.0

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            PlanarConfiguration(0, 0)

    def test_from_points_projects_to_xz(self):
        cfg = PlanarConfiguration.from_points((2, 7, 0), (0, -3, 2.5))
        assert cfg.p == 2.0
        assert cfg.H == 2.5


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
        sol = solve_catenary(PlanarConfiguration(2, 0), 2.0000001, PROPS)
        sag = sol.scale * (math.cosh(sol.x_a / sol.scale) - 1.0)
        assert sag < 1e-3

    def test_symmetric_slack_case(self):
        sol = solve_catenary(PlanarConfiguration(2, 0), 2.5, PROPS)
        assert sol.scale == pytest.approx(A_SYM_L2P5, rel=1e-12)
        assert sol.scale == pytest.approx(oracle_scale(2, 0, 2.5), rel=1e-12)
        assert sol.x_a == pytest.approx(-1.0, abs=1e-12)
        assert sol.x_b == pytest.approx(1.0, abs=1e-12)
        assert sol.state is CableState.SLACK
        sag = sol.scale * (math.cosh(sol.x_a / sol.scale) - 1.0)
        assert sag == pytest.approx(SAG_SYM_L2P5, rel=1e-12)

    def test_symmetric_case_quadrature_oracle(self):
        """Arc length by quadrature of sqrt(1 + z'(x)^2) reproduces L."""
        sol = solve_catenary(PlanarConfiguration(2, 0), 2.5, PROPS)
        a = sol.scale
        arc, _ = quad(lambda x: math.sqrt(1.0 + math.sinh(x / a) ** 2),
                      sol.x_a, sol.x_b, epsabs=1e-12, epsrel=1e-12)
        assert arc == pytest.approx(2.5, rel=1e-6)

    def test_asymmetric_case_raw_equation_residuals(self):
        cfg = PlanarConfiguration(2, 1)
        sol = solve_catenary(cfg, 2.4, PROPS)
        assert sol.scale == pytest.approx(A_P2_H1_L2P4, rel=1e-12)
        assert sol.x_a == pytest.approx(XA_P2_H1_L2P4, rel=1e-10)
        h_res, l_res = raw_residuals(sol, cfg)
        assert abs(h_res) < 1e-9
        assert abs(l_res) < 1e-9
        assert sol.state is CableState.SLACK

    def test_length_at_or_below_chord_rejected(self):
        cfg = PlanarConfiguration(2, 1)
        with pytest.raises(LengthTooShort):
            solve_catenary(cfg, cfg.chord, PROPS)
        with pytest.raises(LengthTooShort):
            solve_catenary(cfg, 1.0, PROPS)

    def test_degenerate_vertical_raises(self):
        with pytest.raises(NoConvergence):
            solve_catenary(PlanarConfiguration(0, 2), 2.5, PROPS)

    def test_ultra_taut_beyond_bracket_raises(self):
        # Excess length so small the scale root would exceed the bracket.
        with pytest.raises(NoConvergence):
            solve_catenary(PlanarConfiguration(2, 0), 2.0 + 1e-14, PROPS)

    def test_vertex_tension_is_exact_product(self):
        sol = solve_catenary(PlanarConfiguration(2, 0), 2.5, PROPS)
        assert sol.vertex_tension == MU * sol.scale

    def test_taut_state_when_vertex_outside_span(self):
        # Steep geometry, length near the chord: both endpoints on one branch.
        cfg = PlanarConfiguration(0.5, 3)
        sol = solve_catenary(cfg, cfg.chord + 1e-4, PROPS)
        assert sol.x_a > 0
        assert sol.state is CableState.TAUT

    def test_randomized_residual_and_quadrature_invariants(self):
        """100 random (p, H, L): residuals < 1e-9, quadrature matches 1e-6."""
        rng = np.random.default_rng(20240814)
        for _ in range(100):
            p = rng.uniform(0.2, 8.0)
            H = rng.uniform(-4.0, 4.0)
            chord = math.hypot(p, H)
            L = chord * (1.0 + 10 ** rng.uniform(-6, 0.5))
            cfg = PlanarConfiguration(p, H)
            sol = solve_catenary(cfg, L, PROPS)
            h_res, l_res = raw_residuals(sol, cfg)
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
            cfg = PlanarConfiguration(p, H)
            L = cfg.chord * (1.0 + 10 ** rng.uniform(-5, 0.3))
            sol = solve_catenary(cfg, L, PROPS)
            x_lower = sol.x_a if H >= 0 else sol.x_b
            sag_below_lower = sol.scale * (math.cosh(x_lower / sol.scale) - 1.0)
            slack = sol.x_a < 0 < sol.x_b
            assert (sol.state is CableState.SLACK) == slack
            if slack:
                assert sag_below_lower > 0

    def test_taut_limit_sag_decreases_monotonically(self):
        cfg = PlanarConfiguration(2, 1)
        xs = np.linspace(0, 1, 64)
        chord = cfg.chord
        last = math.inf
        for excess in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            sol = solve_catenary(cfg, chord + excess, PROPS)
            sample_x = sol.x_a + xs * cfg.p
            curve_z = sol.scale * (np.cosh(sample_x / sol.scale) - 1.0)
            z_a = sol.scale * (math.cosh(sol.x_a / sol.scale) - 1.0)
            chord_z = z_a + xs * cfg.H
            sag_below_chord = float(np.max(chord_z - curve_z))
            assert sag_below_chord < last
            last = sag_below_chord
        assert last < 1e-3


class TestMaxLength:
    def test_degenerate_vertical_rule(self):
        assert max_length(PlanarConfiguration(0, 3), PROPS) == pytest.approx(3.1, rel=1e-12)

    def test_zero_sag_forces_chord(self):
        props = CableProperties(sag_limit=0.0)
        assert max_length(PlanarConfiguration(2, 0), props) == 2.0

    def test_symmetric_sag_case(self):
        got = max_length(PlanarConfiguration(2, 0), PROPS)
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
        got = max_length(PlanarConfiguration(2, 3), PROPS)
        assert got == pytest.approx(MAXLEN_P2_H3_D0P1, rel=1e-10)

    def test_sag_case_quadrature_oracle(self):
        """Recover the limiting curve and check its arc length by quadrature."""
        L = max_length(PlanarConfiguration(2, 3), PROPS)
        sol = solve_catenary(PlanarConfiguration(2, 3), L, PROPS)
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
            cfg = PlanarConfiguration(p, H)
            lengths = [max_length(cfg, CableProperties(sag_limit=d))
                       for d in (0.0, 0.05, 0.1, 0.3, 1.0)]
            assert all(b >= a - 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_always_at_least_chord(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(0.0, 6.0)
            H = rng.uniform(-4.0, 4.0)
            if math.hypot(p, H) < 1e-9:
                continue
            cfg = PlanarConfiguration(p, H)
            assert max_length(cfg, PROPS) >= cfg.chord - 1e-12

    def test_mirror_symmetry_in_h(self):
        up = max_length(PlanarConfiguration(2, 3), PROPS)
        down = max_length(PlanarConfiguration(2, -3), PROPS)
        assert up == pytest.approx(down, rel=1e-12)


class TestTensionAt:
    def setup_method(self):
        self.sol = solve_catenary(PlanarConfiguration(2, 0), 2.5, PROPS)

    def test_vertex_tension(self):
        assert tension_at(self.sol, 0.0) == pytest.approx(self.sol.vertex_tension, rel=1e-12)

    def test_unit_slope_point(self):
        # tan(theta) = sinh(x/a) = 1 there, so T = T0 * sqrt(2)
        x = self.sol.scale * math.asinh(1.0)
        assert x <= self.sol.x_b
        assert tension_at(self.sol, x) == pytest.approx(
            self.sol.vertex_tension * math.sqrt(2), rel=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            tension_at(self.sol, self.sol.x_b + 0.1)
        with pytest.raises(OutOfDomain):
            tension_at(self.sol, self.sol.x_a - 0.1)

    def test_vertical_force_balance(self):
        """End tensions' vertical components support the full cable weight."""
        sol = self.sol
        theta_a = math.atan(math.sinh(sol.x_a / sol.scale))
        theta_b = math.atan(math.sinh(sol.x_b / sol.scale))
        vertical = (tension_at(sol, sol.x_b) * math.sin(theta_b)
                    - tension_at(sol, sol.x_a) * math.sin(theta_a))
        assert vertical == pytest.approx(MU * sol.length, rel=1e-9)

    def test_horizontal_tension_constant(self):
        sol = self.sol
        for x in np.linspace(sol.x_a, sol.x_b, 11):
            theta = math.atan(math.sinh(x / sol.scale))
            assert tension_at(sol, x) * math.cos(theta) == pytest.approx(
                sol.vertex_tension, rel=1e-12)


class TestCableBounds:
    def test_offset_anchor_corridor(self):
        bounds = cable_bounds((2, 0, 0), (0, 0, 2.5), 3.3, PROPS)
        assert bounds.l_min == pytest.approx(math.sqrt(10.25), rel=1e-12)
        assert bounds.l_max == pytest.approx(MAXLEN_P2_H2P5_D0P1, rel=1e-10)
        assert bounds.satisfied

    def test_directly_below_anchor(self):
        bounds = cable_bounds((0, 0, 0), (0, 0, 2), 2.05, PROPS)
        assert bounds.l_min == pytest.approx(2.0, abs=1e-12)
        assert bounds.l_max == pytest.approx(2.1, abs=1e-12)
        assert bounds.satisfied

    def test_over_taut_violation(self):
        bounds = cable_bounds((3, 0, 0), (0, 0, 0), 2.9, PROPS)
        assert not bounds.satisfied
        assert bounds.margin < 0

    def test_margin_sign(self):
        assert CableBounds(1.0, 2.0, 1.5).margin == pytest.approx(0.5)
        assert CableBounds(1.0, 2.0, 2.2).margin == pytest.approx(-0.2)


class TestSampleShape:
    def test_two_samples_are_endpoints(self):
        sol = solve_catenary(PlanarConfiguration(2, 1), 2.4, PROPS)
        pts = sample_shape(sol, 2)
        assert pts.shape == (2, 2)
        np.testing.assert_allclose(pts[0, 0], sol.x_a, rtol=1e-12)
        np.testing.assert_allclose(pts[1, 0], sol.x_b, rtol=1e-12)
        for x, z in pts:
            assert z == pytest.approx(sol.scale * (math.cosh(x / sol.scale) - 1.0), rel=1e-12)

    def test_symmetric_midpoint_is_vertex(self):
        sol = solve_catenary(PlanarConfiguration(2, 0), 2.5, PROPS)
        pts = sample_shape(sol, 3)
        assert pts[1, 0] == pytest.approx(0.0, abs=1e-12)
        assert pts[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_refinement_converges_to_arc_length(self):
        sol = solve_catenary(PlanarConfiguration(2, 1), 2.4, PROPS)
        pts = sample_shape(sol, 10_000)
        seg = np.diff(pts, axis=0)
        poly_len = float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))
        assert poly_len == pytest.approx(sol.length, rel=1e-5)

    def test_world_translation(self):
        sol = solve_catenary(PlanarConfiguration(2, 0), 2.5, PROPS)
        pts = sample_shape(sol, 5, world_a=(10.0, 3.0))
        np.testing.assert_allclose(pts[0], [10.0, 3.0], rtol=1e-12)

    def test_rejects_single_sample(self):
        sol = solve_catenary(PlanarConfiguration(2, 0), 2.5, PROPS)
        with pytest.raises(ValueError):
            sample_shape(sol, 1)


class TestBatchedHelpers:
    def test_batch_matches_scalar_solves(self):
        rng = np.random.default_rng(11)
        attach = rng.uniform(-3, 3, size=(40, 3))
        anchor = np.array([0.5, 0.0, 2.5])
        l_min, l_max = corridor_bounds_batch(attach, anchor, PROPS)
        for i in range(attach.shape[0]):
            b = cable_bounds(attach[i], anchor, 0.0, PROPS)
            assert l_min[i] == pytest.approx(b.l_min, rel=1e-12)
            assert l_max[i] == pytest.approx(b.l_max, rel=1e-10)

    def test_batch_lmax_clamped_to_lmin(self):
        l_min, l_max = corridor_bounds_batch(
            np.array([[0.0, 0.0, 0.0]]), (0.0, 0.0, 2.0), PROPS)
        assert np.all(l_max >= l_min)

    def test_gradient_matches_direct_differences(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.5, 5.0, size=12)
        H = rng.uniform(-3.0, 3.0, size=12)
        dl_dp, dl_dh = sag_length_gradient_batch(p, H, PROPS)
        eps = 1e-5
        for i in range(p.size):
            up = max_length(PlanarConfiguration(p[i] + eps, H[i]), PROPS)
            dn = max_length(PlanarConfiguration(p[i] - eps, H[i]), PROPS)
            assert dl_dp[i] == pytest.approx((up - dn) / (2 * eps), abs=2e-4)
            up = max_length(PlanarConfiguration(p[i], H[i] + eps), PROPS)
            dn = max_length(PlanarConfiguration(p[i], H[i] - eps), PROPS)
            assert dl_dh[i] == pytest.approx((up - dn) / (2 * eps), abs=2e-4)

    def test_gradient_degenerate_vertical(self):
        dl_dp, dl_dh = sag_length_gradient_batch(
            np.array([0.0]), np.array([2.0]), PROPS)
        assert dl_dp[0] == 0.0
        assert dl_dh[0] == 1.0


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
    def test_matches_bisection_wherever_it_succeeds(self, p, H, ratio):
        chord = math.hypot(p, H)
        length = chord + ratio * chord
        rhs = math.sqrt(length * length - H * H)
        try:
            expected = reference_solve_scale(p, rhs)
        except NoConvergence:
            return
        scale = _solve_scale(p, rhs)
        tolerance = 1e-9 * expected + reference_resolution(p, rhs, expected)
        assert abs(scale - expected) <= tolerance
        # and it solves the equation at least as well as the bisection
        assert abs(_reference_arc_gap(scale, p) - rhs) <= \
            abs(_reference_arc_gap(expected, p) - rhs) + 4.0 * math.ulp(rhs)

    @settings(max_examples=1000, deadline=None)
    @given(p=st.floats(1e-4, 2.5e-2), H=st.floats(-3.0, 3.0),
           log_excess=st.floats(-12.0, 0.0))
    def test_near_vertical_slack_spans_certify(self, p, H, log_excess):
        """An exact scale passes the residual check on near-vertical spans.

        The residuals carry the rounding of H / L and of L^2 - H^2,
        magnified by L^2 / (L^2 - H^2).  "Exact" means within 1e-12 of a
        40-digit root of the equation the scale solve is given.
        """
        cfg = PlanarConfiguration(p, H)
        length = cfg.chord + 10.0 ** log_excess
        rhs = math.sqrt(length * length - H * H)
        scale = _solve_scale(p, rhs)
        with mpmath.workdps(40):
            target = mpmath.log(mpmath.mpf(rhs) / p)
            u = mpmath.findroot(
                lambda u: mpmath.log(mpmath.sinh(u) / u) - target,
                mpmath.mpf(0.5 * p / scale))
            exact = abs(scale / (0.5 * p / u) - 1) <= 1e-12
        if exact:
            solve_catenary(cfg, length, PROPS)

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
            assert _solve_scale(p, rhs) == pytest.approx(expected, rel=1e-9)


# The sag-limited batch solve as it stood before its bracket ends were
# stacked into one array, kept here verbatim (comments aside) as the
# reference: the planner is chaotic in these bits, so the rewrite must
# reproduce them exactly, not to a tolerance.

def reference_sag_solve_batch(p, H, sag_limit, iterations=100):
    p = np.asarray(p, dtype=float)
    H = np.asarray(H, dtype=float)
    habs = np.abs(H)
    out = np.full(p.shape, np.nan)
    scale = np.full(p.shape, np.nan)
    chord_ruled = np.zeros(p.shape, dtype=bool)

    vertical = p < EPS_P
    out[vertical] = habs[vertical] + sag_limit

    level_zero_sag = (~vertical) & (sag_limit == 0.0) & (habs == 0.0)
    out[level_zero_sag] = p[level_zero_sag]
    chord_ruled[level_zero_sag] = True

    solve = ~(vertical | level_zero_sag)
    if not np.any(solve):
        return out, scale, chord_ruled

    ps = p[solve]
    hs = habs[solve]
    wide_lo = np.minimum(_REF_BRACKET_LO, 1e-4 * ps)

    def g_of(b: np.ndarray) -> np.ndarray:
        a = np.exp(b)
        with np.errstate(over="ignore", invalid="ignore"):
            u_a = -np.arccosh(1.0 + sag_limit / a)
            mid = u_a + 0.5 * ps / a
            f = 2.0 * a * np.sinh(mid) * np.sinh(0.5 * ps / a) - hs
            return np.clip(np.arcsinh(f), -720.0, 720.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        a_sh = ps ** 2 / (math.sqrt(2.0 * sag_limit)
                          + np.sqrt(2.0 * (sag_limit + hs))) ** 2
        ratio = np.log(4.0 * sag_limit * hs / ps ** 2)
    deep = ratio > 2.0
    tau = np.where(deep, np.maximum(ratio, 3.0), 3.0)
    for _ in range(3):
        tau = np.where(deep, ratio + 2.0 * np.log(tau), tau)
    a_dp = np.where(deep, ps / tau, a_sh)
    lo_c = np.clip(np.minimum(a_sh, a_dp) / 4.0, wide_lo, _REF_BRACKET_HI)
    hi_c = np.clip(4.0 * np.maximum(a_sh, a_dp), wide_lo, _REF_BRACKET_HI)

    lo_cb = np.log(lo_c)
    hi_cb = np.log(hi_c)
    wide_lob = np.log(wide_lo)
    wide_hib = np.full_like(ps, math.log(_REF_BRACKET_HI))
    g1 = g_of(lo_cb)
    g2 = g_of(hi_cb)
    g_wide = g_of(wide_hib)
    left = g1 <= 0.0
    right = (~left) & (g2 >= 0.0)
    lo_b = np.where(left, wide_lob, np.where(right, hi_cb, lo_cb))
    g_lo = np.where(left, 720.0, np.where(right, g2, g1))
    hi_b = np.where(left, lo_cb, np.where(right, wide_hib, hi_cb))
    g_hi = np.where(left, g1, np.where(right, g_wide, g2))
    beyond = g_hi > 0.0
    lo_b = np.where(beyond, hi_b, lo_b)
    g_lo = np.where(beyond, g_hi, g_lo)

    side = np.zeros(ps.shape, dtype=int)
    best_b = 0.5 * (lo_b + hi_b)
    done = (hi_b - lo_b) <= 1e-6
    for _ in range(iterations):
        if np.all(done):
            break
        with np.errstate(invalid="ignore", divide="ignore"):
            b = (lo_b * g_hi - hi_b * g_lo) / (g_hi - g_lo)
        secant_ok = np.isfinite(b) & (b > lo_b) & (b < hi_b)
        b = np.where(secant_ok, b, 0.5 * (lo_b + hi_b))
        g_b = g_of(b)
        step_small = np.abs(b - best_b) <= 1e-6
        best_b = np.where(done, best_b, b)
        replaces_lo = g_b > 0.0
        g_hi = np.where(replaces_lo & (side == 1), 0.5 * g_hi, g_hi)
        g_lo = np.where(~replaces_lo & (side == -1), 0.5 * g_lo, g_lo)
        lo_b = np.where(replaces_lo, b, lo_b)
        g_lo = np.where(replaces_lo, g_b, g_lo)
        hi_b = np.where(~replaces_lo, b, hi_b)
        g_hi = np.where(~replaces_lo, g_b, g_hi)
        side = np.where(replaces_lo, 1, -1)
        done = done | step_small | (hi_b - lo_b <= 1e-6)
    for _ in range(2):
        a_n = np.exp(best_b)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            y = sag_limit / a_n
            q = 0.5 * ps / a_n
            m = q - np.arccosh(1.0 + y)
            f = 2.0 * a_n * np.sinh(m) * np.sinh(q) - hs
            q_a = -q / a_n
            m_a = q_a + np.sqrt(y / (2.0 + y)) / a_n
            f_a = 2.0 * (np.sinh(m) * np.sinh(q)
                         + a_n * (np.cosh(m) * m_a * np.sinh(q)
                                  + np.sinh(m) * np.cosh(q) * q_a))
            step = f / (f_a * a_n)
        best_b = np.where(np.isfinite(step), best_b - step, best_b)
    a = np.exp(np.clip(best_b, lo_b, hi_b))
    with np.errstate(over="ignore"):
        u_a = -np.arccosh(1.0 + sag_limit / a)
        mid = u_a + 0.5 * ps / a
        length = 2.0 * a * np.cosh(mid) * np.sinh(0.5 * ps / a)
    chord = np.hypot(ps, hs)
    scale[solve] = a
    out[solve] = np.maximum(length, chord)
    chord_ruled[solve] = chord >= length
    return out, scale, chord_ruled


ROW = st.tuples(
    st.one_of(st.floats(0.0, 2e-6), st.floats(1e-6, 1e-3), st.floats(1e-3, 10.0)),
    st.one_of(st.just(0.0), st.floats(-5.0, 5.0), st.floats(-1e-4, 1e-4)))


class TestSagSolveBatch:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(ROW, min_size=1, max_size=40),
           sag=st.sampled_from([0.0, 1e-6, 0.01, 0.1, 1.0, 3.0]))
    def test_matches_reference_bit_for_bit(self, rows, sag):
        p = np.array([row[0] for row in rows])
        H = np.array([row[1] for row in rows])
        with np.errstate(over="ignore"):
            expected = reference_sag_solve_batch(p, H, sag)
        for got, want in zip(_sag_solve_batch(p, H, sag), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
