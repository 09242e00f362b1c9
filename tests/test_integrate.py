import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest

from blockstep.harness import STANDARD_DTS
from blockstep.integrate import (
    PROBLEM_NAMES,
    BlockState,
    NonFiniteReference,
    bootstrap,
    integrate,
    make_dahlquist,
    make_problem,
    measure_lte,
    problem,
    rk4_reference,
    step,
)
from blockstep.scheme import BUILTIN_NAMES, builtin, make_scheme

EPS = 2.0**-52


def _constant_problem(value=1.0):
    return make_problem(
        "const",
        1,
        lambda t, u: np.zeros_like(u),
        lambda t: np.full((1,) + np.shape(t), value),
        [value],
    )


def test_problem_registry():
    assert PROBLEM_NAMES == ("P1", "P2", "P3", "P4")
    p1 = problem("P1")
    assert p1.dim == 1 and p1.u0[0] == 1.0
    p2 = problem("P2")
    assert p2.dim == 2
    assert p2.exact is None
    assert np.array_equal(p2.u0, [2.0, 0.0])
    p4 = problem("P4")
    assert p4.exact(0.0)[0] == pytest.approx(1.0, abs=0)
    assert p4.exact(math.pi / 2)[0] == pytest.approx(math.e, rel=1e-15)
    with pytest.raises(ValueError, match="unknown problem"):
        problem("P9")


def test_exact_solutions_satisfy_their_odes():
    # finite-difference check of u' = rhs(t, u) along each exact solution
    h = 1e-6
    for name in ("P1", "P3", "P4"):
        prob = problem(name)
        for t in (0.0, 0.3, 0.9):
            du = (prob.exact(t + h) - prob.exact(t - h)) / (2 * h)
            assert np.allclose(du, prob.rhs(t, prob.exact(t)), atol=1e-7), name


def test_make_problem_rejects_inconsistent_anchor():
    with pytest.raises(ValueError, match=r"exact\(t0\) does not match u0"):
        make_problem("bad", 1, lambda t, u: u, lambda t: np.array([2.0]), [1.0])


@pytest.mark.parametrize(
    "dim, rhs, exact",
    [
        (1, lambda t, u: math.cos(t) * u, None),  # raises on a batch
        (1, lambda t, u: np.array([-u[0, 0] ** 2]), None),  # one column only
        (2, lambda t, u: u.T, None),  # transposed result
        (1, lambda t, u: -u, lambda t: np.array([math.exp(-t)])),  # exact not batched
        (1, lambda t, u: -u, lambda t: np.exp(-np.atleast_1d(t))),  # exact drops the axis
    ],
)
def test_make_problem_rejects_a_broken_batch_contract(dim, rhs, exact):
    with pytest.raises(ValueError, match="breaks the batch contract"):
        make_problem("unbatched", dim, rhs, exact, [1.0] * dim)


def test_step_rejects_a_wrapper_that_breaks_the_batch_contract():
    # dataclasses.replace bypasses make_problem's probe; step checks F.
    prob = problem("P2")
    bad = dataclasses.replace(prob, rhs=lambda t, u: prob.rhs(t, u).T)
    sch = builtin("S3A")  # s = 3 against dim = 2: the transpose shows
    state = bootstrap(sch, prob, 0.125)
    msg = r"batch contract: \(3, 2\) for \(2, 3\)"
    with pytest.raises(ValueError, match=msg):
        step(sch, bad, state, 0.125)
    bad = dataclasses.replace(prob, rhs=lambda t, u: prob.rhs(t, u)[:, :1])
    with pytest.raises(ValueError, match="batch contract"):
        step(sch, bad, state, 0.125)


def test_initial_value_is_read_only():
    with pytest.raises(ValueError):
        problem("P1").u0[0] = 3.0


def test_single_step_preserves_constants():
    prob = _constant_problem()
    for name in BUILTIN_NAMES:
        sch = builtin(name)
        state = bootstrap(sch, prob, 0.125)
        after = step(sch, prob, state, 0.125)
        assert np.max(np.abs(after.values - 1.0)) <= sch.s * EPS, name


def test_long_run_constancy_drift_stays_within_budget():
    prob = _constant_problem()
    n = 128
    for name in BUILTIN_NAMES:
        sch = builtin(name)
        traj = integrate(sch, prob, F(1, n), 1.0, final_only=True)
        drift = np.max(np.abs(traj.final.values - 1.0))
        assert drift <= n * sch.s * EPS, name


def test_batched_step_equals_a_per_row_rhs_evaluation():
    # One rhs call on the block's columns against s calls on its rows and
    # the @ combine: the same arithmetic, so bit-identical.  P2 is
    # autonomous; the forced oscillator also checks each row's time.
    forced = make_problem(
        "forced", 2, lambda t, u: np.array([t * u[1], -(1.0 + t * t) * u[0]]), None, [1.0, 0.0]
    )
    rng = np.random.default_rng(6)
    for prob in (problem("P2"), forced):
        for name in BUILTIN_NAMES:
            sch = builtin(name)
            A, B, c_in, _ = sch.float_tables
            for dt in (0.125, 1 / 3, 0.0078125):
                for n in range(20):
                    V = rng.uniform(-3.0, 3.0, size=(sch.s, 2))
                    state = bootstrap(sch, prob, dt) if n == 0 else BlockState(n, n * dt, V)
                    V = state.values
                    F_rows = np.array([prob.rhs(state.t + c * dt, v) for c, v in zip(c_in, V)])
                    oracle = A @ V + dt * (B @ F_rows)
                    after = step(sch, prob, state, dt).values
                    assert np.array_equal(after, oracle), (prob.name, name, dt, n)


def test_dahlquist_step_is_the_amplification_matrix():
    prob = make_dahlquist(-1.0)
    dt = 0.1
    for name in ("S2", "S3B"):
        sch = builtin(name)
        state = bootstrap(sch, prob, dt)
        after = step(sch, prob, state, dt)
        A = np.array([[float(x) for x in row] for row in sch.A])
        B = np.array([[float(x) for x in row] for row in sch.B])
        oracle = (A + dt * (-1.0) * B) @ state.values
        tol = 4 * np.spacing(np.abs(oracle))
        assert np.all(np.abs(after.values - oracle) <= tol), name


def test_step_matches_hand_rolled_arithmetic():
    sch = builtin("S2")
    prob = problem("P1")
    dt = 0.125
    state = bootstrap(sch, prob, dt)
    after = step(sch, prob, state, dt)
    v = [float(state.values[j, 0]) for j in range(2)]
    f = [-x * x for x in v]
    for i in range(2):
        Ai = [float(x) for x in sch.A[i]]
        Bi = [float(x) for x in sch.B[i]]
        hand = Ai[0] * v[0] + Ai[1] * v[1] + dt * (Bi[0] * f[0] + Bi[1] * f[1])
        assert after.values[i, 0] == pytest.approx(hand, abs=5 * np.spacing(abs(hand)))
    assert after.n == 1
    assert after.t == pytest.approx(dt, abs=0)


def test_step_flags_non_finite_immediately():
    prob = make_problem(
        "burst",
        1,
        lambda t, u: np.full_like(u, np.inf),
        lambda t: np.ones((1,) + np.shape(t)),
        [1.0],
    )
    sch = builtin("S2")
    state = bootstrap(sch, prob, 0.1)
    with pytest.raises(ValueError, match="non-finite state at step 1"):
        step(sch, prob, state, 0.1)


def test_blowup_reports_the_failing_step():
    prob = make_problem("pole", 1, lambda t, u: -u * u, None, [-1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"non-finite state at step \d+"):
            integrate(builtin("S2"), prob, F(1, 4), 4.0)


def test_bootstrap_uses_exact_rows_when_available():
    sch = builtin("S2")
    state = bootstrap(sch, problem("P1"), 0.1)
    assert state.values[0, 0] == pytest.approx(1.0 / 1.05, rel=1e-15)
    assert state.values[1, 0] == 1.0
    assert state.n == 0 and state.t == 0.0


def test_bootstrap_sweep_matches_exact_rows():
    # same right-hand side as P1 but with the exact solution withheld
    hidden = make_problem("P1h", 1, lambda t, u: -u * u, None, [1.0])
    for name in ("S2", "S3A"):
        sch = builtin(name)
        swept = bootstrap(sch, hidden, 0.1)
        known = bootstrap(sch, problem("P1"), 0.1)
        assert np.max(np.abs(swept.values - known.values)) < 1e-12, name


def test_bootstrap_sweep_is_internally_converged():
    sch = builtin("S3A")
    prob = problem("P2")
    rich = bootstrap(sch, prob, 0.1, n_sub=1000)
    half = bootstrap(sch, prob, 0.1, n_sub=500)
    assert np.max(np.abs(rich.values - half.values)) < 1e-12


def test_bootstrap_rejects_non_positive_step():
    with pytest.raises(ValueError, match="non-positive step"):
        bootstrap(builtin("S2"), problem("P1"), 0.0)
    with pytest.raises(ValueError, match="non-positive step"):
        bootstrap(builtin("S2"), problem("P1"), -0.1)


def test_bootstrap_rejects_non_positive_substep_count():
    for n_sub in (0, -5):
        with pytest.raises(ValueError, match="n_sub must be >= 1"):
            bootstrap(builtin("S2"), problem("P2"), 0.125, n_sub=n_sub)


def test_integrate_p1_reaches_the_target():
    traj = integrate(builtin("S2"), problem("P1"), F(1, 8), 1.0)
    assert len(traj.blocks) == 9
    assert traj.final.t == 1.0
    assert [b.n for b in traj.blocks] == list(range(9))
    err8 = abs(traj.final.values[-1, 0] - 0.5)
    assert err8 < 1e-3
    finer = integrate(builtin("S2"), problem("P1"), F(1, 16), 1.0)
    err16 = abs(finer.final.values[-1, 0] - 0.5)
    assert err16 < err8 / 6  # third-order scheme: halving dt cuts ~8x


def test_integrate_final_only_matches_full_run():
    full = integrate(builtin("S3C"), problem("P3"), F(1, 8), 1.0)
    last = integrate(builtin("S3C"), problem("P3"), F(1, 8), 1.0, final_only=True)
    assert len(last.blocks) == 1
    assert np.array_equal(full.final.values, last.final.values)
    assert abs(full.final.values[-1, 0] - math.exp(-1.0)) < 1e-3


def test_integrate_accepts_float_step_that_lands_on_target():
    traj = integrate(builtin("S2"), problem("P1"), 0.1, 1.0, final_only=True)
    assert traj.final.n == 10


def test_block_time_does_not_drift_over_many_steps():
    # summing dt = 0.1 ten thousand times would end at 1000.0000000001588
    traj = integrate(builtin("S2"), problem("P3"), 0.1, 1000.0, final_only=True)
    assert traj.final.n == 10_000
    assert traj.final.t == 1000.0


def test_integrate_rejects_misaligned_step():
    with pytest.raises(ValueError, match="T not reachable with this dt"):
        integrate(builtin("S2"), problem("P1"), F(3, 10), 1.0)
    with pytest.raises(ValueError, match="T not reachable with this dt"):
        integrate(builtin("S2"), problem("P1"), 0.3, 1.0)


def test_integrate_requires_marching_abscissae():
    sch = make_scheme(
        "stuck", [F(1, 2), 0], [2, 1], [[0, 1], [0, 1]], [[0, 0], [0, 0]]
    )
    with pytest.raises(ValueError, match="does not march"):
        integrate(sch, problem("P1"), F(1, 8), 1.0)


def test_linear_problem_equals_matrix_power():
    sch = builtin("S2")
    prob = make_dahlquist(-1.0)
    dt = 1.0 / 16
    traj = integrate(sch, prob, F(1, 16), 1.0, final_only=True)
    A = np.array([[float(x) for x in row] for row in sch.A])
    B = np.array([[float(x) for x in row] for row in sch.B])
    M = A + dt * (-1.0) * B
    oracle = np.linalg.matrix_power(M, 16) @ bootstrap(sch, prob, dt).values
    assert np.max(np.abs(traj.final.values - oracle)) < 1e-13


def test_rk4_reference_values():
    ref = rk4_reference(problem("P3"), 1.0, 2000)
    assert abs(ref[0] - math.exp(-1.0)) < 1e-12
    ref = rk4_reference(problem("P1"), 1.0, 2000)
    assert abs(ref[0] - 0.5) < 1e-12


def test_rk4_reference_rejects_unconverged_runs():
    with pytest.raises(ValueError, match="reference not converged"):
        rk4_reference(problem("P1"), 1.0, 1)
    with pytest.raises(ValueError, match="n_steps"):
        rk4_reference(problem("P1"), 1.0, 0)


def test_rk4_reference_serves_requested_times_like_separate_runs():
    # Off-grid times, t0, T, unsorted, with a duplicate: one sweep agrees
    # with a separate scalar reference per time.
    times = [0.61803, 1.0, 0.0, 0.37, 0.61803]
    for name in ("P1", "P2"):
        prob = problem(name)
        rows = rk4_reference(prob, 1.0, 2048, times=times)
        assert rows.shape == (len(times), prob.dim)
        for t, row in zip(times[:4], rows):
            alone = rk4_reference(prob, t, 2048)
            assert np.max(np.abs(row - alone)) < 1e-12, (name, t)
        assert np.array_equal(rows[0], rows[4])
        assert np.array_equal(rows[2], prob.u0)


def test_rk4_reference_grid_times_get_the_grid_value():
    # 0.5 is grid point 512 of 1024 (coarse) and 1024 of 2048 (fine): the
    # same march as a reference to 0.5 with half the steps, bit for bit,
    # and partial steps served on the way do not advance the march.
    prob = problem("P2")
    alone = rk4_reference(prob, 0.5, 512)
    rows = rk4_reference(prob, 1.0, 1024, times=[0.3, 0.5, 0.7])
    assert np.array_equal(rows[1], alone)
    assert np.array_equal(rk4_reference(prob, 1.0, 1024, times=[1.0])[0],
                          rk4_reference(prob, 1.0, 1024))


def test_rk4_reference_checks_every_requested_time():
    # u' = (t - 1/2)^5 is pure quadrature: RK4's error on each step is
    # proportional to the fourth derivative 120 (t - 1/2) at the step's
    # midpoint, so the errors cancel at T = 1 but not at t = 1/2.
    prob = make_problem("quintic", 1, lambda t, u: np.array([(t - 0.5) ** 5]), None, [0.0])
    assert abs(rk4_reference(prob, 1.0, 4)[0]) < 1e-15
    with pytest.raises(ValueError, match="reference not converged"):
        rk4_reference(prob, 1.0, 4, times=[1.0, 0.5])


def test_rk4_reference_rejects_a_non_finite_march():
    # u' = -u^2, u(0) = -1 has a pole at t = 1: the march overflows, and the
    # doubling test alone would pass it (NaN >= 1e-12 is False).
    prob = make_problem("pole", 1, lambda t, u: -u * u, None, [-1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteReference, match="non-finite RK4 reference"):
            rk4_reference(prob, 2.0, 8)
        with pytest.raises(NonFiniteReference):
            rk4_reference(prob, 2.0, 2048, times=[0.5, 1.5])
    assert issubclass(NonFiniteReference, ValueError)


def test_rk4_reference_rejects_times_outside_the_span():
    prob = problem("P1")
    for t in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="outside"):
            rk4_reference(prob, 1.0, 2048, times=[0.5, t])


def test_integrate_takes_given_start_rows():
    sch, prob = builtin("S3A"), problem("P1")
    rows = bootstrap(sch, prob, 0.125).values
    given = integrate(sch, prob, 0.125, 1.0, start=rows)
    booted = integrate(sch, prob, 0.125, 1.0)
    for a, b in zip(given.blocks, booted.blocks):
        assert np.array_equal(a.values, b.values)


def test_integrate_rejects_bad_start_rows():
    sch, prob = builtin("S2"), problem("P2")
    with pytest.raises(ValueError, match=r"start rows have shape \(3, 2\), need \(2, 2\)"):
        integrate(sch, prob, 0.125, 1.0, start=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="start rows have shape"):
        integrate(sch, prob, 0.125, 1.0, start=np.zeros(4))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite state at step 0"):
            integrate(sch, prob, 0.125, 1.0, start=[[bad, 0.0], [2.0, 0.0]])


def _measure_lte_rows(scheme, prob, dt, T):
    # The row-loop measure_lte the batched one replaced, kept as its oracle:
    # scalar exact and single-state rhs calls, one step at a time.  Returns
    # the per-component max |tau| and the largest |u| it saw.
    dtf = float(dt)
    A, B, c_in, c_out = scheme.float_tables
    worst, umax = np.zeros(scheme.s), 0.0
    for n in range(round((T - prob.t0) / dtf)):
        tn = prob.t0 + n * dtf
        U = np.array([prob.exact(tn + c * dtf) for c in c_in])
        U1 = np.array([prob.exact(tn + c * dtf) for c in c_out])
        F = np.array([prob.rhs(tn + c_in[j] * dtf, U[j]) for j in range(scheme.s)])
        tau = (U1 - A @ U - dtf * (B @ F)) / dtf
        worst = np.maximum(worst, np.abs(tau).max(axis=1))
        umax = max(umax, np.abs(U).max(), np.abs(U1).max())
    return worst, umax


@pytest.mark.parametrize("T", [1.0, 4.0])
@pytest.mark.parametrize("name", ["P1", "P3", "P4"])
def test_batched_lte_matches_the_row_loop(name, T):
    # Vectorised exp differs from math.exp by an ulp on some arguments, and
    # tau divides a cancellation by dt: bound 16 eps max|u| / dt, set from
    # the dtype (8 eps / dt was the largest difference seen).
    prob = problem(name)
    for sch_name in BUILTIN_NAMES:
        sch = builtin(sch_name)
        for dt in STANDARD_DTS:
            rows, umax = _measure_lte_rows(sch, prob, dt, T)
            batched = measure_lte(sch, prob, dt, T)
            assert batched.shape == (sch.s,)
            assert np.max(np.abs(batched - rows)) <= 16 * EPS * umax / dt, (sch_name, dt)


def test_lte_needs_an_exact_solution():
    with pytest.raises(ValueError, match="missing exact solution"):
        measure_lte(builtin("S3A"), problem("P2"), F(1, 16), 1.0)


def test_lte_is_negligible_for_constants():
    worst = measure_lte(builtin("S2"), _constant_problem(), F(1, 8), 1.0)
    assert np.max(worst) < 1e-13


def test_lte_component_ratios_follow_the_leading_residual():
    # S2 leading residual (161/576, 23/576): component ratio 7 to 1
    worst = measure_lte(builtin("S2"), problem("P1"), F(1, 64), 1.0)
    assert worst[0] / worst[1] == pytest.approx(7.0, rel=0.05)
    # S3A leading residual proportions 43699 : 12787 : 2227
    worst = measure_lte(builtin("S3A"), problem("P1"), F(1, 64), 1.0)
    assert worst[0] / worst[2] == pytest.approx(43699 / 2227, rel=0.10)
    assert worst[1] / worst[2] == pytest.approx(12787 / 2227, rel=0.10)


def test_lte_scales_one_order_below_global():
    coarse = measure_lte(builtin("S2"), problem("P1"), F(1, 32), 1.0)
    fine = measure_lte(builtin("S2"), problem("P1"), F(1, 64), 1.0)
    ratio = np.max(coarse) / np.max(fine)
    assert 3.6 < ratio < 4.4  # LTE order 2 for the third-order scheme
