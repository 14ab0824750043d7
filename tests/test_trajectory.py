"""Trajectory construction, evaluation, and gradient-propagation tests.

The oracle here is a dense brute-force assembly of every constraint row
(including all structurally zero entries) solved with generic LU, plus
exact polynomial algebra for energies.  The rest-to-rest literals below
(5/16, -1/8, 3/16, 60) were derived by hand from the boundary conditions.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from tetherpick.errors import OutOfDomain, SingularSystem
from tetherpick.optimizer import _sample_grid
from tetherpick.trajectory import (
    BoundaryState,
    Trajectory,
    FALLING,
    NCOEF,
    _JERK_GRAM,
    basis_rows_upto,
    construct,
    jerk_energy,
    propagate_gradients,
    time_powers,
)


def basis_row(tau, order):
    """Row b with b[k] = d^order/dtau^order tau^k, one entry at a time.

    The bit-for-bit reference for the library's basis tables: each entry
    is FALLING times a Python scalar power, exactly as they compute it.
    """
    row = np.zeros(NCOEF)
    if order < NCOEF:
        for k in range(order, NCOEF):
            row[k] = FALLING[order, k] * tau ** (k - order)
    return row


def evaluate_segment(traj, seg, tau, order=0):
    """One segment's polynomial at tau, for one-sided limits at joints."""
    return basis_row(tau, order) @ traj.coefficients[seg]


def brow(tau, order, ncoef=6):
    out = np.zeros(ncoef)
    for k in range(order, ncoef):
        out[k] = math.factorial(k) / math.factorial(k - order) * tau ** (k - order)
    return out


def dense_construct(waypoints, total_time, start, goal_pos, goal_vel):
    """Brute-force oracle: stack every constraint row, solve dense."""
    mat, rhs, n, dt = dense_system(waypoints, total_time, start, goal_pos,
                                   goal_vel)
    coeffs = np.linalg.solve(mat, rhs)
    return coeffs.reshape(n, 6, 3), dt


def dense_system(waypoints, total_time, start, goal_pos, goal_vel):
    """(matrix, rhs, segments, dT) with every constraint row stacked."""
    q = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    n = q.shape[0] + 1
    dt = total_time / n
    size = 6 * n
    mat = np.zeros((size, size))
    rhs = np.zeros((size, 3))
    for o, value in enumerate((start.position, start.velocity,
                               start.acceleration, start.jerk)):
        mat[o, 0:6] = brow(0.0, o)
        rhs[o] = value
    row = 4
    for i in range(1, n):
        mat[row, 6 * (i - 1):6 * i] = brow(dt, 0)
        rhs[row] = q[i - 1]
        row += 1
        mat[row, 6 * i:6 * (i + 1)] = brow(0.0, 0)
        rhs[row] = q[i - 1]
        row += 1
        for o in range(1, 5):
            mat[row, 6 * (i - 1):6 * i] = brow(dt, o)
            mat[row, 6 * i:6 * (i + 1)] = -brow(0.0, o)
            row += 1
    mat[row, -6:] = brow(dt, 0)
    rhs[row] = np.asarray(goal_pos, dtype=float)
    row += 1
    mat[row, -6:] = brow(dt, 1)
    rhs[row] = np.asarray(goal_vel, dtype=float)
    return mat, rhs, n, dt


def solve_40_digits(mat, rhs):
    """mat x = rhs, column by column, from one LU factorization in 40-digit
    arithmetic; the float entries convert exactly, and the solution is
    rounded once at the end."""
    ctx = mpmath.mp
    with mpmath.workdps(40):
        lu, perm = ctx.LU_decomp(mpmath.matrix(mat.tolist()))
        columns = [ctx.U_solve(lu, ctx.L_solve(lu, mpmath.matrix(col.tolist()),
                                               perm))
                   for col in rhs.T]
        return np.array([[float(col[i]) for col in columns]
                         for i in range(rhs.shape[0])])


def random_problem(rng, max_segments=6, min_dt=0.0):
    n_seg = int(rng.integers(1, max_segments + 1))
    total_time = float(rng.uniform(max(0.8, min_dt * n_seg), 4.0))
    start = BoundaryState(position=rng.normal(size=3),
                          velocity=rng.normal(size=3),
                          acceleration=rng.normal(size=3),
                          jerk=rng.normal(size=3))
    waypoints = rng.normal(size=(n_seg - 1, 3))
    goal_pos = rng.normal(size=3)
    goal_vel = rng.normal(size=3)
    return waypoints, total_time, start, goal_pos, goal_vel


def planner_like_problem(rng, max_segments=8):
    """Waypoints jittered around a straight path, like a planner's guess."""
    n_seg = int(rng.integers(1, max_segments + 1))
    total_time = float(rng.uniform(0.5 * n_seg, 4.0 + 0.5 * n_seg))
    start_pos = rng.uniform(-1, 1, size=3)
    goal_pos = start_pos + rng.uniform(-4, 4, size=3)
    start = BoundaryState(position=start_pos,
                          velocity=0.5 * rng.normal(size=3),
                          acceleration=0.5 * rng.normal(size=3),
                          jerk=0.5 * rng.normal(size=3))
    fractions = np.arange(1, n_seg)[:, None] / n_seg
    waypoints = (start_pos + fractions * (goal_pos - start_pos)
                 + 0.3 * rng.normal(size=(n_seg - 1, 3)))
    goal_vel = 0.5 * rng.normal(size=3)
    return waypoints, total_time, start, goal_pos, goal_vel


def rest_to_rest():
    return construct([], 2.0, BoundaryState.at_rest([0.0, 0.0, 0.0]),
                     [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])


class TestConstruct:
    def test_rest_to_rest_coefficients(self):
        traj = rest_to_rest()
        coeffs = traj.coefficients
        np.testing.assert_allclose(coeffs[0, :4, :], 0.0, atol=1e-12)
        assert coeffs[0, 4, 0] == pytest.approx(5.0 / 16.0, rel=1e-12)
        assert coeffs[0, 5, 0] == pytest.approx(-1.0 / 8.0, rel=1e-12)

    def test_rest_to_rest_midpoint(self):
        traj = rest_to_rest()
        mid = traj.evaluate_batch([1.0])[0]
        assert mid[0] == pytest.approx(3.0 / 16.0, rel=1e-12)
        np.testing.assert_allclose(mid[1:], 0.0, atol=1e-14)

    def test_start_state_exact(self):
        rng = np.random.default_rng(42)
        wp, total_time, start, gp, gv = random_problem(rng)
        traj = construct(wp, total_time, start, gp, gv)
        for order, want in enumerate((start.position, start.velocity,
                                      start.acceleration, start.jerk)):
            np.testing.assert_allclose(traj.evaluate_batch([0.0], order)[0],
                                       want, atol=1e-12)

    def test_terminal_constraints(self):
        rng = np.random.default_rng(43)
        wp, total_time, start, gp, gv = random_problem(rng)
        traj = construct(wp, total_time, start, gp, gv)
        np.testing.assert_allclose(traj.evaluate_batch([total_time], 0)[0],
                                   gp, atol=1e-11)
        np.testing.assert_allclose(traj.evaluate_batch([total_time], 1)[0],
                                   gv, atol=1e-11)

    def test_matches_dense_oracle(self):
        # instances shaped like real plans: waypoints jittered around a
        # straight path (white-noise waypoints at sub-second spacing drive
        # coefficients past 1e5, where abs-1e-9 is below the double floor)
        rng = np.random.default_rng(1234)
        for _ in range(20):
            wp, total_time, start, gp, gv = planner_like_problem(rng)
            traj = construct(wp, total_time, start, gp, gv)
            expected, dt = dense_construct(wp, total_time, start, gp, gv)
            assert traj.segment_duration == pytest.approx(dt, rel=1e-15)
            assert np.max(np.abs(traj.coefficients - expected)) < 1e-9

    def test_matches_dense_oracle_short_segments_relative(self):
        rng = np.random.default_rng(4321)
        for _ in range(10):
            wp, total_time, start, gp, gv = random_problem(rng, max_segments=8)
            traj = construct(wp, total_time, start, gp, gv)
            expected, _ = dense_construct(wp, total_time, start, gp, gv)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(traj.coefficients - expected)) < 1e-9 * scale

    def test_waypoint_interpolation(self):
        rng = np.random.default_rng(77)
        wp, total_time, start, gp, gv = random_problem(rng, max_segments=6)
        traj = construct(wp, total_time, start, gp, gv)
        dt = traj.segment_duration
        for i, q in enumerate(np.asarray(wp).reshape(-1, 3), start=1):
            np.testing.assert_allclose(traj.evaluate_batch([i * dt])[0], q,
                                       atol=1e-9)

    def test_joint_continuity_orders_0_to_4(self):
        rng = np.random.default_rng(8)
        wp, total_time, start, gp, gv = random_problem(rng, max_segments=5)
        if len(wp) == 0:
            wp = rng.normal(size=(2, 3))
        traj = construct(wp, total_time, start, gp, gv)
        dt = traj.segment_duration
        for i in range(1, traj.segment_count):
            for order in range(5):
                left = evaluate_segment(traj, i - 1, dt, order)
                right = evaluate_segment(traj, i, 0.0, order)
                assert np.max(np.abs(left - right)) < 1e-10

    def test_linear_in_waypoints_with_zero_boundaries(self):
        rng = np.random.default_rng(55)
        start = BoundaryState.at_rest([0.0, 0.0, 0.0])
        zero3 = [0.0, 0.0, 0.0]
        q1 = rng.normal(size=(3, 3))
        q2 = rng.normal(size=(3, 3))
        alpha, beta = 0.7, -1.3
        t1 = construct(q1, 2.5, start, zero3, zero3)
        t2 = construct(q2, 2.5, start, zero3, zero3)
        t3 = construct(alpha * q1 + beta * q2, 2.5, start, zero3, zero3)
        np.testing.assert_allclose(
            t3.coefficients,
            alpha * t1.coefficients + beta * t2.coefficients, atol=1e-10)

    def test_zero_duration_rejected(self):
        start = BoundaryState.at_rest([0, 0, 0])
        with pytest.raises(SingularSystem):
            construct([], 0.0, start, [1, 0, 0], [0, 0, 0])
        with pytest.raises(SingularSystem):
            construct([], -1.0, start, [1, 0, 0], [0, 0, 0])

    def test_nan_waypoint_rejected(self):
        start = BoundaryState.at_rest([0, 0, 0])
        with pytest.raises(ValueError):
            construct([[np.nan, 0, 0]], 2.0, start, [1, 0, 0], [0, 0, 0])


def row_orders(n_seg):
    """The derivative order of every row of the oracle's system."""
    return np.array([0, 1, 2, 3] + [0, 0, 1, 2, 3, 4] * (n_seg - 1) + [0, 1])


def drawn_problem(rng, segments, per_segment):
    start = BoundaryState(position=rng.normal(size=3),
                          velocity=rng.normal(size=3),
                          acceleration=rng.normal(size=3),
                          jerk=rng.normal(size=3))
    return (rng.normal(size=(segments - 1, 3)), segments * per_segment,
            start, rng.normal(size=3), rng.normal(size=3))


class TestUnitInverse:
    """The planner inverts the system at dT = 1 once per segment count.
    construct multiplies the inverse into the right-hand side scaled by
    dT^o, and propagate_gradients multiplies its transpose into the
    gradient scaled by dT^-k.  Both must agree with a 40-digit solve of
    the oracle's matrix at dT = 1, to 1e-12 of the solution's largest
    entry."""

    @pytest.mark.parametrize("segments", range(1, 11))
    def test_matches_a_40_digit_solve(self, segments):
        rng = np.random.default_rng(segments)
        # 0.05 to 5 s per segment
        problem = drawn_problem(rng, segments, 10.0 ** rng.uniform(-1.3, 0.7))
        mat, rhs, n, dt = dense_system(*problem)
        unit = dense_system(problem[0], float(segments), *problem[2:])[0]
        powers = time_powers(dt)

        # forward: the time-normalized coefficients c dT^k
        want = solve_40_digits(unit, rhs * powers[row_orders(n)][:, None])
        traj = construct(*problem)
        got = (traj.coefficients * powers[:, None]).reshape(want.shape)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        # adjoint: mu = M(1)^-T (g / dT^k), summed over each joint's two
        # position rows for the waypoint gradient
        grad = rng.normal(size=(n, 6, 3))
        mu = solve_40_digits(unit.T,
                             (grad / powers[:, None]).reshape(6 * n, 3))
        dq, d_t = propagate_gradients(traj, grad, 0.3)
        assert np.max(np.abs(dq - (mu[4:-2:6] + mu[5:-2:6])), initial=0.0) \
            <= 1e-12 * np.max(np.abs(mu))

        # the dT term against a dense transposed solve at dT and the rows
        # that move with dT, row by row as they were once written
        lam = np.linalg.solve(mat.T, grad.reshape(6 * n, 3))
        moved = np.zeros((6 * n, 3))
        for i in range(1, n):
            r = 4 + 6 * (i - 1)
            moved[r] = basis_row(dt, 1) @ traj.coefficients[i - 1]
            for o in range(1, 5):
                moved[r + 1 + o] = \
                    basis_row(dt, o + 1) @ traj.coefficients[i - 1]
        for o in range(2):
            moved[6 * n - 2 + o] = basis_row(dt, o + 1) @ traj.coefficients[-1]
        chain = float(np.sum(lam * moved))
        assert d_t == pytest.approx((0.3 - chain) / n, rel=1e-9,
                                    abs=1e-9 * float(np.sum(np.abs(lam * moved))))

    def test_non_finite_rhs_rejected(self):
        start = BoundaryState(position=[0, 0, 0], velocity=[0, 0, 0],
                              acceleration=[1, 0, 0], jerk=[0, 0, 0])
        # dT^2 overflows, so the scaled acceleration row is infinite
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SingularSystem):
            construct([[1, 0, 0]], 1e300, start, [2, 0, 0], [0, 0, 0])
        traj = construct([[1, 0, 0]], 2.0, start, [2, 0, 0], [0, 0, 0])
        for bad in (np.nan, np.inf):
            grad = np.zeros(traj.coefficients.shape)
            grad[1, 3, 1] = bad
            with pytest.raises(ValueError):
                propagate_gradients(traj, grad)

    def test_overflowing_duration_raises_without_a_warning(self):
        # dT^5 overflows at dT = 2e70; the SingularSystem says so alone
        start = BoundaryState.at_rest(np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="overflows"):
                construct([], 2e70, start, [1, 0, 0], [0, 0, 0])


class TestTimeNormalized:
    @given(segments=st.integers(1, 8), log_dt=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_construct_matches_the_dense_oracle(self, segments, log_dt,
                                                seed):
        """dT from 1e-2 to 1e2 s, at the oracle's relative tolerance."""
        problem = drawn_problem(np.random.default_rng(seed), segments,
                                10.0 ** log_dt)
        traj = construct(*problem)
        expected, _ = dense_construct(*problem)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(traj.coefficients - expected)) < 1e-9 * scale

    @given(segments=st.integers(1, 8), log_dt=st.floats(-3.0, 300.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(segments=1, log_dt=math.log10(2e70), seed=0)
    @settings(max_examples=100, deadline=None)
    def test_any_duration_is_rejected_or_meets_the_boundary(
            self, segments, log_dt, seed):
        """dT from 1e-3 to 1e300 s: SingularSystem, or every boundary row
        (start state, goal position and velocity) met in time-normalized
        form to the rounding of the normalized coefficients c dT^k."""
        wp, total, start, gp, gv = drawn_problem(
            np.random.default_rng(seed), segments, 10.0 ** log_dt)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                traj = construct(wp, total, start, gp, gv)
            except SingularSystem:
                return
            powers = time_powers(traj.segment_duration)
            scale = max(1.0, float(np.max(np.abs(
                traj.coefficients * powers[:, None]))))
            rows = [(0.0, o, want) for o, want in enumerate(
                (start.position, start.velocity, start.acceleration,
                 start.jerk))] + [(traj.duration, 0, gp),
                                  (traj.duration, 1, gv)]
            for t, order, want in rows:
                got = traj.evaluate_batch([t], order)[0]
                assert np.max(np.abs(got - want) * powers[order]) \
                    <= 1e-9 * scale, (t, order)

    @given(segments=st.integers(1, 8), per_segment=st.floats(0.1, 5.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_duration_term_matches_central_differences(self, segments,
                                                       per_segment, seed):
        """The closed-form dT term of the adjoint, on J = g . c."""
        rng = np.random.default_rng(seed)
        wp, total, start, gp, gv = drawn_problem(rng, segments, per_segment)
        traj = construct(wp, total, start, gp, gv)
        grad = rng.normal(size=traj.coefficients.shape)

        def cost(duration):
            return float(np.sum(grad * construct(wp, duration, start, gp,
                                                 gv).coefficients))

        step = 1e-5 * total
        fd = (cost(total + step) - cost(total - step)) / (2 * step)
        # the size of the terms the difference cancels
        size = float(np.sum(np.abs(grad * traj.coefficients))) / total
        assert propagate_gradients(traj, grad)[1] == pytest.approx(
            fd, rel=1e-5, abs=1e-6 * size)


class TestBasisRows:
    @given(taus=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_shared_powers_match_the_column_loop(self, taus):
        taus = np.array(taus)
        for order, rows in enumerate(basis_rows_upto(taus, 5)):
            want = np.zeros(taus.shape + (6,))
            for k in range(order, 6):
                want[..., k] = FALLING[order, k] * taus ** (k - order)
            assert rows.tobytes() == want.tobytes()

    @given(segments=st.integers(1, 10), kappa=st.integers(2, 64))
    @settings(max_examples=60, deadline=None)
    def test_table_rows_match_basis_row(self, segments, kappa):
        """The sampling operator holds, for every sample and order 0..4,
        the basis row at the sample's fraction of its segment, and zeros
        on every other segment."""
        operator, fraction, position = _sample_grid(segments, kappa)
        table = operator.reshape(5, kappa + 1, segments, 6)
        for i in range(kappa + 1):
            seg = min(i * segments // kappa, segments - 1)
            assert position[i] == pytest.approx(seg + fraction[i],
                                                rel=1e-15, abs=1e-15)
            assert 0.0 <= fraction[i] <= 1.0
            for order in range(5):
                # array and scalar powers may round apart by an ulp
                np.testing.assert_allclose(
                    table[order, i, seg],
                    basis_row(float(fraction[i]), order), rtol=1e-15, atol=0)
                others = np.delete(table[order, i], seg, axis=0)
                assert not others.any()

    def test_orders_beyond_degree_are_zero(self):
        assert np.array_equal(basis_rows_upto(np.array([0.5, 2.0]), 6)[6],
                              np.zeros((2, 6)))


class TestJerkGram:
    @given(dt=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_entry_loop(self, dt, seed):
        """The fixed Gram matrix is the entry loop at dT = 1, bit for bit,
        and jerk_energy at dT prices c with the entry loop at dT."""
        want = np.zeros((6, 6))
        for m in range(3, 6):
            for k in range(3, 6):
                want[m, k] = (FALLING[3, m] * FALLING[3, k]
                              * dt ** (m + k - 5) / (m + k - 5))
                assert _JERK_GRAM[m, k] == (FALLING[3, m] * FALLING[3, k]
                                            / (m + k - 5))
        assert not _JERK_GRAM[:3].any() and not _JERK_GRAM[:, :3].any()
        coefficients = np.random.default_rng(seed).normal(size=(3, 6, 3))
        value, grad, _ = jerk_energy(Trajectory(coefficients, dt))
        assert value == pytest.approx(
            np.einsum("skx,km,smx->", coefficients, want, coefficients),
            rel=1e-13)
        want_grad = 2.0 * np.einsum("km,smx->skx", want, coefficients)
        assert np.max(np.abs(grad - want_grad)) \
            <= 1e-13 * np.max(np.abs(want_grad))


class TestEvaluate:
    def test_out_of_domain(self):
        traj = rest_to_rest()
        with pytest.raises(OutOfDomain):
            traj.evaluate_batch([-0.5])
        with pytest.raises(OutOfDomain):
            traj.evaluate_batch([2.5])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        wp, total_time, start, gp, gv = random_problem(rng, max_segments=4)
        traj = construct(wp, total_time, start, gp, gv)
        ts = np.linspace(0.0, total_time, 37)
        dt = traj.segment_duration
        for order in range(5):
            batch = traj.evaluate_batch(ts, order)
            for j, t in enumerate(ts):
                seg = min(int(t / dt), traj.segment_count - 1)
                np.testing.assert_allclose(
                    batch[j], evaluate_segment(traj, seg, t - seg * dt, order),
                    atol=1e-12)

    def test_order_beyond_degree_is_zero(self):
        traj = rest_to_rest()
        for order in (6, 7, 9):
            np.testing.assert_allclose(traj.evaluate_batch([1.0], order), 0.0,
                                       atol=1e-15)

    def test_total_duration(self):
        traj = Trajectory(coefficients=np.zeros((4, 6, 3)), segment_duration=0.5)
        assert traj.duration == 2.0
        traj = Trajectory(coefficients=np.zeros((1, 6, 3)), segment_duration=3.0)
        assert traj.duration == 3.0
        built = construct(np.zeros((8, 3)), 2.7, BoundaryState.at_rest([0, 0, 0]),
                          [0, 0, 0], [0, 0, 0])
        assert built.duration == pytest.approx(2.7, abs=1e-12)


class TestJerkEnergy:
    def test_rest_to_rest_energy(self):
        assert jerk_energy(rest_to_rest())[0] == pytest.approx(60.0, rel=1e-12)

    def test_matches_polynomial_quadrature(self):
        """Exact polynomial integration of the squared third derivative."""
        rng = np.random.default_rng(21)
        wp, total_time, start, gp, gv = random_problem(rng, max_segments=5)
        traj = construct(wp, total_time, start, gp, gv)
        dt = traj.segment_duration
        total = 0.0
        for seg in range(traj.segment_count):
            for ax in range(3):
                c = traj.coefficients[seg, :, ax]
                third = np.polynomial.polynomial.polyder(c, 3)
                sq = np.polynomial.polynomial.polymul(third, third)
                integ = np.polynomial.polynomial.polyint(sq)
                total += np.polynomial.polynomial.polyval(dt, integ)
        assert jerk_energy(traj)[0] == pytest.approx(total, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        wp, total_time, start, gp, gv = random_problem(rng, max_segments=3)
        traj = construct(wp, total_time, start, gp, gv)
        _, grad_c, ddt_direct = jerk_energy(traj)
        h = 1e-6
        for _ in range(10):
            seg = rng.integers(traj.segment_count)
            k = rng.integers(6)
            ax = rng.integers(3)
            up = traj.coefficients.copy()
            dn = traj.coefficients.copy()
            up[seg, k, ax] += h
            dn[seg, k, ax] -= h
            fd = (jerk_energy(Trajectory(up, traj.segment_duration))[0]
                  - jerk_energy(Trajectory(dn, traj.segment_duration))[0]) / (2 * h)
            assert grad_c[seg, k, ax] == pytest.approx(fd, rel=1e-5, abs=1e-5)
        fd_dt = (jerk_energy(Trajectory(traj.coefficients, traj.segment_duration + h))[0]
                 - jerk_energy(Trajectory(traj.coefficients, traj.segment_duration - h))[0]) / (2 * h)
        assert ddt_direct == pytest.approx(fd_dt, rel=1e-5)


def build_orthogonal_perturbation(traj, rng, scale=0.3):
    """A perturbation vanishing wherever the construction is constrained.

    Zero position/velocity/acceleration/jerk at t=0, zero value at every
    joint, C2 across joints, zero position/velocity/acceleration at t=T.
    Returns per-segment degree-7 coefficient arrays, shape (N, 8, 3).
    """
    n_seg = traj.segment_count
    dt = traj.segment_duration
    eta = np.zeros((n_seg, 8, 3))

    def hermite(left, right):
        mat = np.zeros((6, 6))
        rhs = np.zeros((6, 3))
        for o in range(3):
            mat[o] = brow(0.0, o)
            mat[3 + o] = brow(dt, o)
            rhs[o] = left[o]
            rhs[3 + o] = right[o]
        return np.linalg.solve(mat, rhs)

    def first_segment(right):
        # degree 7, coefficients 0..3 zero; one free direction
        c7 = scale * rng.normal(size=3)
        mat = np.zeros((3, 3))
        rhs = np.zeros((3, 3))
        for o in range(3):
            for idx, k in enumerate((4, 5, 6)):
                mat[o, idx] = math.factorial(k) / math.factorial(k - o) * dt ** (k - o)
            rhs[o] = right[o] - math.factorial(7) / math.factorial(7 - o) * dt ** (7 - o) * c7
        c456 = np.linalg.solve(mat, rhs)
        out = np.zeros((8, 3))
        out[4:7] = c456
        out[7] = c7
        return out

    zero = np.zeros(3)
    if n_seg == 1:
        eta[0] = first_segment((zero, zero, zero))
        return eta
    w = scale * rng.normal(size=(n_seg - 1, 3))
    x = scale * rng.normal(size=(n_seg - 1, 3))
    eta[0] = first_segment((zero, w[0], x[0]))
    for j in range(1, n_seg - 1):
        eta[j, :6] = hermite((zero, w[j - 1], x[j - 1]), (zero, w[j], x[j]))
    eta[n_seg - 1, :6] = hermite((zero, w[-1], x[-1]), (zero, zero, zero))
    return eta


def poly_jerk_energy(coeff_per_seg, dt):
    """Exact squared-jerk integral for per-segment coefficient arrays."""
    total = 0.0
    for seg in range(coeff_per_seg.shape[0]):
        for ax in range(3):
            third = np.polynomial.polynomial.polyder(coeff_per_seg[seg, :, ax], 3)
            sq = np.polynomial.polynomial.polymul(third, third)
            total += np.polynomial.polynomial.polyval(
                dt, np.polynomial.polynomial.polyint(sq))
    return float(total)


class TestEnergyMinimality:
    def test_constructed_trajectory_minimizes_jerk_energy(self):
        """Any feasible perturbation raises the cost, exactly additively."""
        rng = np.random.default_rng(2024)
        for _ in range(15):
            wp, total_time, start, gp, gv = random_problem(rng, max_segments=5)
            traj = construct(wp, total_time, start, gp, gv)
            base = np.zeros((traj.segment_count, 8, 3))
            base[:, :6, :] = traj.coefficients
            j_base = poly_jerk_energy(base, traj.segment_duration)
            eta = build_orthogonal_perturbation(traj, rng)
            j_eta = poly_jerk_energy(eta, traj.segment_duration)
            j_sum = poly_jerk_energy(base + eta, traj.segment_duration)
            assert j_eta > 0.0
            assert j_sum >= j_base - 1e-10 * max(1.0, j_base)
            # orthogonality: energies add exactly, certifying minimality
            assert j_sum == pytest.approx(j_base + j_eta,
                                          rel=1e-8, abs=1e-8)

    def test_perturbation_is_feasible(self):
        """The competitor class really satisfies all construction constraints."""
        rng = np.random.default_rng(9)
        wp = rng.normal(size=(3, 3))
        start = BoundaryState(position=rng.normal(size=3),
                              velocity=rng.normal(size=3),
                              acceleration=rng.normal(size=3),
                              jerk=rng.normal(size=3))
        traj = construct(wp, 3.0, start, rng.normal(size=3), rng.normal(size=3))
        dt = traj.segment_duration
        eta = build_orthogonal_perturbation(traj, rng)

        def eval_eta(seg, tau, order):
            c = eta[seg, :, :]
            out = np.zeros(3)
            for ax in range(3):
                d = np.polynomial.polynomial.polyder(c[:, ax], order) if order else c[:, ax]
                out[ax] = np.polynomial.polynomial.polyval(tau, d)
            return out

        for o in range(4):
            np.testing.assert_allclose(eval_eta(0, 0.0, o), 0.0, atol=1e-12)
        for seg in range(eta.shape[0] - 1):
            np.testing.assert_allclose(eval_eta(seg, dt, 0), 0.0, atol=1e-9)
            for o in range(3):
                np.testing.assert_allclose(eval_eta(seg, dt, o),
                                           eval_eta(seg + 1, 0.0, o), atol=1e-9)
        for o in range(3):
            np.testing.assert_allclose(eval_eta(eta.shape[0] - 1, dt, o),
                                       0.0, atol=1e-9)


def midpoint_cost_and_gradients(traj):
    """J = |p(T/2)|^2 with its coefficient-space and dT partials."""
    n_seg = traj.segment_count
    dt = traj.segment_duration
    t_mid = 0.5 * n_seg * dt
    seg = min(int(t_mid / dt), n_seg - 1)
    tau = t_mid - seg * dt
    p = evaluate_segment(traj, seg, tau, 0)
    v = evaluate_segment(traj, seg, tau, 1)
    cost = float(p @ p)
    dj_dc = np.zeros_like(traj.coefficients)
    dj_dc[seg] = np.outer(basis_row(tau, 0), 2.0 * p)
    # the sample time t = T/2 itself moves with dT
    dj_ddt = float(2.0 * (p @ v) * (0.5 * n_seg - seg))
    return cost, dj_dc, dj_ddt


class TestPropagateGradients:
    def test_midpoint_cost_waypoint_gradient(self):
        rng = np.random.default_rng(101)
        wp, total_time, start, gp, gv = random_problem(rng, max_segments=5)
        if len(wp) == 0:
            wp = rng.normal(size=(2, 3))
        traj = construct(wp, total_time, start, gp, gv)
        _, dj_dc, dj_ddt = midpoint_cost_and_gradients(traj)
        dj_dq, dj_dtime = propagate_gradients(traj, dj_dc, dj_ddt)
        h = 1e-6
        wp = np.asarray(wp, dtype=float)
        for i in range(wp.shape[0]):
            for ax in range(3):
                up = wp.copy(); up[i, ax] += h
                dn = wp.copy(); dn[i, ax] -= h
                ju = midpoint_cost_and_gradients(construct(up, total_time, start, gp, gv))[0]
                jd = midpoint_cost_and_gradients(construct(dn, total_time, start, gp, gv))[0]
                fd = (ju - jd) / (2 * h)
                assert dj_dq[i, ax] == pytest.approx(fd, rel=1e-4, abs=1e-6)
        ju = midpoint_cost_and_gradients(construct(wp, total_time + h, start, gp, gv))[0]
        jd = midpoint_cost_and_gradients(construct(wp, total_time - h, start, gp, gv))[0]
        assert dj_dtime == pytest.approx((ju - jd) / (2 * h), rel=1e-4, abs=1e-6)

    def test_cost_independent_of_waypoints(self):
        traj = construct(np.zeros((3, 3)), 2.0, BoundaryState.at_rest([0, 0, 0]),
                         [1, 0, 0], [0, 0, 0])
        dj_dq, dj_dtime = propagate_gradients(traj, np.zeros_like(traj.coefficients),
                                              dj_ddt=float(traj.segment_count))
        np.testing.assert_array_equal(dj_dq, 0.0)
        assert dj_dtime == pytest.approx(1.0, rel=1e-12)

    def test_stationary_at_inner_optimum(self):
        """After optimizing waypoints, the propagated gradient vanishes."""
        start = BoundaryState.at_rest([0.0, 0.0, 0.0])
        goal = np.array([2.0, 0.0, 1.0])
        total_time = 3.0
        n_wp = 2

        def cost(flat):
            traj = construct(flat.reshape(n_wp, 3), total_time, start, goal,
                             [0, 0, 0])
            return jerk_energy(traj)[0]

        guess = np.linspace(0, 1, n_wp + 2)[1:-1, None] * goal
        res = minimize(cost, guess.ravel(), method="L-BFGS-B",
                       options={"ftol": 1e-15, "gtol": 1e-12})
        traj = construct(res.x.reshape(n_wp, 3), total_time, start, goal, [0, 0, 0])
        _, grad_c, ddt = jerk_energy(traj)
        dj_dq, _ = propagate_gradients(traj, grad_c, ddt)
        # compare against the gradient magnitude away from the optimum
        off = construct(res.x.reshape(n_wp, 3) + 0.5, total_time, start, goal,
                        [0, 0, 0])
        _, grad_off, ddt_off = jerk_energy(off)
        dj_dq_off, _ = propagate_gradients(off, grad_off, ddt_off)
        assert np.max(np.abs(dj_dq)) < 1e-3
        assert np.max(np.abs(dj_dq)) < 1e-4 * np.max(np.abs(dj_dq_off))

    def test_fifty_randomized_sampled_costs(self):
        """Sampled quadratic costs: propagated gradients match central FD."""
        rng = np.random.default_rng(650)
        for _ in range(50):
            wp, total_time, start, gp, gv = random_problem(rng, max_segments=6)
            n_seg = len(wp) + 1

            draws = []
            for _ in range(3):
                frac = float(rng.uniform(0.05, 0.95))
                if abs(frac * n_seg - round(frac * n_seg)) < 0.05:
                    frac = min(frac + 0.1 / n_seg, 0.97)
                draws.append((frac, int(rng.integers(0, 4))))

            def cost_terms(traj):
                dt = traj.segment_duration
                n = traj.segment_count
                total = 0.0
                dj_dc = np.zeros_like(traj.coefficients)
                dj_ddt = 0.0
                for frac, order in draws:
                    t = frac * n * dt
                    seg = min(int(t / dt), n - 1)
                    tau = t - seg * dt
                    d = evaluate_segment(traj, seg, tau, order)
                    d_next = evaluate_segment(traj, seg, tau, order + 1)
                    total += float(d @ d)
                    dj_dc[seg] += np.outer(basis_row(tau, order), 2.0 * d)
                    dj_ddt += float(2.0 * (d @ d_next) * (frac * n - seg))
                return total, dj_dc, dj_ddt

            traj = construct(wp, total_time, start, gp, gv)
            _, dj_dc, dj_ddt = cost_terms(traj)
            dj_dq, dj_dtime = propagate_gradients(traj, dj_dc, dj_ddt)

            h = 1e-6
            wp_arr = np.asarray(wp, dtype=float).reshape(-1, 3)
            if wp_arr.shape[0]:
                i = int(rng.integers(wp_arr.shape[0]))
                ax = int(rng.integers(3))
                up = wp_arr.copy(); up[i, ax] += h
                dn = wp_arr.copy(); dn[i, ax] -= h
                fd = (cost_terms(construct(up, total_time, start, gp, gv))[0]
                      - cost_terms(construct(dn, total_time, start, gp, gv))[0]) / (2 * h)
                assert dj_dq[i, ax] == pytest.approx(fd, rel=1e-4, abs=1e-5)
            fd_t = (cost_terms(construct(wp_arr, total_time + h, start, gp, gv))[0]
                    - cost_terms(construct(wp_arr, total_time - h, start, gp, gv))[0]) / (2 * h)
            assert dj_dtime == pytest.approx(fd_t, rel=1e-4, abs=1e-5)

