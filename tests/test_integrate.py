import dataclasses
import functools
import math
import re
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from _oracle_util import rk4_step, rk4_sweep
from hypothesis import given, settings
from hypothesis import strategies as st

from blockstep import integrate as integrate_module
from blockstep.derive import assemble
from blockstep.harness import STANDARD_DTS
from blockstep.integrate import (
    PROBLEM_NAMES,
    _grid,
    bootstrap,
    integrate,
    make_problem,
    march,
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
        lambda t, u: np.zeros_like(u),
        lambda t: np.full((1,) + np.shape(t), value),
        [value],
    )


def _forced():
    # A non-autonomous oscillator: the march's grid times enter every stage.
    return make_problem(
        "forced", lambda t, u: np.array([t * u[1], -(1.0 + t * t) * u[0]]), None, [1.0, 0.0]
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


def test_problem_size_is_read_off_the_flattened_initial_value():
    prob = make_problem("pair", lambda t, u: -u, None, [[1.0], [2.0]])
    assert prob.u0.shape == (2,) and prob.dim == 2
    assert dataclasses.replace(prob, u0=np.zeros(3)).dim == 3
    assert [f.name for f in dataclasses.fields(prob)] == ["name", "rhs", "exact", "u0"]


def test_make_problem_rejects_inconsistent_anchor():
    with pytest.raises(ValueError, match=r"exact\(t0\) does not match u0"):
        make_problem("bad", lambda t, u: u, lambda t: np.array([2.0]), [1.0])


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
        make_problem("unbatched", rhs, exact, [1.0] * dim)


def test_step_rejects_a_wrapper_that_breaks_the_batch_contract():
    # dataclasses.replace bypasses make_problem's probe; step checks F.
    prob = problem("P2")
    bad = dataclasses.replace(prob, rhs=lambda t, u: prob.rhs(t, u).T)
    sch = builtin("S3A")  # s = 3 against dim = 2: the transpose shows
    V = bootstrap(sch, prob, 0.125)
    msg = r"batch contract: \(3, 2\) for \(2, 3\)"
    with pytest.raises(ValueError, match=msg):
        step(sch, bad, V, 0.125)
    bad = dataclasses.replace(prob, rhs=lambda t, u: prob.rhs(t, u)[:, :1])
    with pytest.raises(ValueError, match="batch contract"):
        step(sch, bad, V, 0.125)


def test_lte_rejects_a_wrapper_that_breaks_the_batch_contract():
    # u' = (u_1, -u_0), exact (cos t, -sin t).  A transposed rhs result has
    # the right size, so a reshape alone would measure a wrong residual.
    prob = make_problem(
        "rotation",
        lambda t, u: np.array([u[1], -u[0]]),
        lambda t: np.array([np.cos(t), -np.sin(t)]),
        [1.0, 0.0],
    )
    bad = dataclasses.replace(prob, rhs=lambda t, u: prob.rhs(t, u).T)
    for name, rows in (("S2", 16), ("S3A", 24)):
        sch = builtin(name)
        assert np.max(measure_lte(sch, prob, F(1, 8), 1)) < 1e-2
        msg = rf"^rhs breaks the batch contract: \({rows}, 2\) for \(2, {rows}\)$"
        with pytest.raises(ValueError, match=msg):
            measure_lte(sch, bad, F(1, 8), 1)
    # S2's one-lane rows are 2 x 2, square, so only S3A's march can tell.
    with pytest.raises(ValueError, match=r"^rhs breaks the batch contract: \(3, 2\) for \(2, 3\)$"):
        integrate(builtin("S3A"), bad, F(1, 8), 1)


def test_initial_value_is_read_only():
    with pytest.raises(ValueError):
        problem("P1").u0[0] = 3.0


def test_single_step_preserves_constants():
    prob = _constant_problem()
    for name in BUILTIN_NAMES:
        sch = builtin(name)
        after = step(sch, prob, bootstrap(sch, prob, 0.125), 0.125)
        assert np.max(np.abs(after - 1.0)) <= sch.s * EPS, name


def test_long_run_constancy_drift_stays_within_budget():
    prob = _constant_problem()
    n = 128
    for name in BUILTIN_NAMES:
        sch = builtin(name)
        final = integrate(sch, prob, F(1, n), 1.0)[-1]
        drift = np.max(np.abs(final - 1.0))
        assert drift <= n * sch.s * EPS, name


def test_batched_step_equals_a_per_row_rhs_evaluation():
    # One rhs call on the block's columns against s calls on its rows and
    # the @ combine: the same arithmetic, so bit-identical.  P2 is
    # autonomous; the forced oscillator also checks each row's time.
    forced = _forced()
    rng = np.random.default_rng(6)
    for prob in (problem("P2"), forced):
        for name in BUILTIN_NAMES:
            sch = builtin(name)
            A, B, c_in = sch.float_tables
            for dt in (0.125, 1 / 3, 0.0078125):
                for n in range(20):
                    V = rng.uniform(-3.0, 3.0, size=(sch.s, 2))
                    if n == 0:
                        V = bootstrap(sch, prob, dt)
                    F_rows = np.array([prob.rhs(n * dt + c * dt, v) for c, v in zip(c_in, V)])
                    oracle = A @ V + dt * (B @ F_rows)
                    after = step(sch, prob, V, dt, n)
                    assert np.array_equal(after, oracle), (prob.name, name, dt, n)


def test_dahlquist_step_is_the_amplification_matrix():
    prob = problem("P3")
    dt = 0.1
    for name in ("S2", "S3B"):
        sch = builtin(name)
        V = bootstrap(sch, prob, dt)
        after = step(sch, prob, V, dt)
        A = np.array([[float(x) for x in row] for row in sch.A])
        B = np.array([[float(x) for x in row] for row in sch.B])
        oracle = (A + dt * (-1.0) * B) @ V
        tol = 4 * np.spacing(np.abs(oracle))
        assert np.all(np.abs(after - oracle) <= tol), name


def test_step_matches_hand_rolled_arithmetic():
    sch = builtin("S2")
    prob = problem("P1")
    dt = 0.125
    V = bootstrap(sch, prob, dt)
    after = step(sch, prob, V, dt)
    v = [float(V[j, 0]) for j in range(2)]
    f = [-x * x for x in v]
    for i in range(2):
        Ai = [float(x) for x in sch.A[i]]
        Bi = [float(x) for x in sch.B[i]]
        hand = Ai[0] * v[0] + Ai[1] * v[1] + dt * (Bi[0] * f[0] + Bi[1] * f[1])
        assert after[i, 0] == pytest.approx(hand, abs=5 * np.spacing(abs(hand)))


def test_step_flags_non_finite_immediately():
    prob = make_problem(
        "burst",
        lambda t, u: np.full_like(u, np.inf),
        lambda t: np.ones((1,) + np.shape(t)),
        [1.0],
    )
    sch = builtin("S2")
    V = bootstrap(sch, prob, 0.1)
    with pytest.raises(ValueError, match="non-finite state at step 1"):
        step(sch, prob, V, 0.1)


def test_blowup_reports_the_failing_step():
    prob = make_problem("pole", lambda t, u: -u * u, None, [-1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"non-finite state at step \d+"):
            integrate(builtin("S2"), prob, F(1, 4), 4.0)


def test_bootstrap_uses_exact_rows_when_available():
    sch = builtin("S2")
    V = bootstrap(sch, problem("P1"), 0.1)
    assert V[0, 0] == pytest.approx(1.0 / 1.05, rel=1e-15)
    assert V[1, 0] == 1.0
    assert V.shape == (2, 1) and V.dtype == np.float64 and V.flags.c_contiguous


def test_bootstrap_sweep_matches_exact_rows():
    # same right-hand side as P1 but with the exact solution withheld
    hidden = make_problem("P1h", lambda t, u: -u * u, None, [1.0])
    for name in ("S2", "S3A"):
        sch = builtin(name)
        swept = bootstrap(sch, hidden, 0.1)
        known = bootstrap(sch, problem("P1"), 0.1)
        assert np.max(np.abs(swept - known)) < 1e-12, name


def test_bootstrap_sweep_is_internally_converged():
    sch = builtin("S3A")
    prob = problem("P2")
    rich = bootstrap(sch, prob, 0.1, n_sub=1000)
    half = bootstrap(sch, prob, 0.1, n_sub=500)
    assert np.max(np.abs(rich - half)) < 1e-12


def test_bootstrap_rejects_non_positive_step():
    with pytest.raises(ValueError, match="non-positive step"):
        bootstrap(builtin("S2"), problem("P1"), 0.0)
    with pytest.raises(ValueError, match="non-positive step"):
        bootstrap(builtin("S2"), problem("P1"), -0.1)


def test_bootstrap_takes_an_exact_step_as_its_double():
    for name in ("P1", "P2"):
        exact = bootstrap(builtin("S2"), problem(name), F(1, 16))
        double = bootstrap(builtin("S2"), problem(name), 0.0625)
        assert np.array_equal(exact, double), name
    with pytest.raises(ValueError, match="^dt rounds to 0.0 in double precision$"):
        bootstrap(builtin("S2"), problem("P1"), F(1, 10**400))


RUN_ENTRY_POINTS = {  # each run entry point of the library, called with one step size
    "bootstrap": lambda sch, prob, dt: bootstrap(sch, prob, dt),
    "step": lambda sch, prob, dt: step(sch, prob, bootstrap(sch, prob, 0.125), dt),
    "integrate": lambda sch, prob, dt: integrate(sch, prob, dt, 1.0),
    "march": lambda sch, prob, dt: march(sch, prob, [dt], 1.0, [bootstrap(sch, prob, 0.125)]),
    "measure_lte": lambda sch, prob, dt: measure_lte(sch, prob, dt, 1.0),
}


@pytest.mark.parametrize("dt, message", [
    (0, "non-positive step"),
    (-0.125, "non-positive step"),
    (math.nan, "dt is not a number"),
    (F(1, 10**400), "dt rounds to 0.0 in double precision"),
], ids=["zero", "negative", "nan", "underflow"])
@pytest.mark.parametrize("entry", RUN_ENTRY_POINTS)
def test_every_run_entry_point_checks_its_step_alike(entry, dt, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RUN_ENTRY_POINTS[entry](builtin("S2"), problem("P4"), dt)


def test_step_takes_an_exact_step_as_its_double():
    sch, prob = builtin("S2"), problem("P4")
    V = bootstrap(sch, prob, 0.125)
    for n in (0, 3):
        exact, double = step(sch, prob, V, F(1, 8), n), step(sch, prob, V, 0.125, n)
        assert exact.tobytes() == double.tobytes() and exact.shape == (2, 1), n


def test_bootstrap_rejects_non_positive_substep_count():
    for n_sub in (0, -5):
        with pytest.raises(ValueError, match="n_sub must be >= 1"):
            bootstrap(builtin("S2"), problem("P2"), 0.125, n_sub=n_sub)


def _bootstrap_substeps(scheme, prob, dt, n_sub):
    # The per-interval RK4 loop the single bootstrap march replaced, kept as
    # its oracle: n_sub substeps from each abscissa to the next, the step
    # count restarting at each row, each step on numpy arrays.
    c_in = scheme.float_tables[2].tolist()
    values = np.empty((scheme.s, prob.dim))
    u = values[-1] = prob.u0
    c_prev = 0.0
    for j in range(scheme.s - 2, -1, -1):
        t_start = c_prev * dt
        h = (c_in[j] - c_prev) * dt / n_sub
        for k in range(n_sub):
            u = rk4_step(prob.rhs, t_start + k * h, u, h)
        values[j] = u
        c_prev = c_in[j]
    return values


@pytest.mark.parametrize("n_sub", [1, 1000])
@pytest.mark.parametrize("dt", [0.125, 1 / 3, 0.1, 0.0078125])
def test_bootstrap_march_equals_the_per_interval_loop(dt, n_sub):
    # Evenly spaced abscissae: the march's step length and grid times are
    # the loop's, and its steps on floats are the loop's on arrays, so the
    # rows agree bit for bit.
    for prob in (problem("P2"), _forced()):
        for name in BUILTIN_NAMES:
            sch = builtin(name)
            rows = bootstrap(sch, prob, dt, n_sub=n_sub)
            oracle = _bootstrap_substeps(sch, prob, dt, n_sub)
            assert rows.tobytes() == oracle.tobytes(), (prob.name, name)


def test_bootstrap_march_on_uneven_abscissae_stays_within_rounding():
    # Unequal intervals: one step length for the whole march, a partial step
    # to the inner row.  Same RK4 accuracy, different rounding.
    sch = make_scheme("uneven", [F(3, 4), F(1, 5), 0], [F(7, 4), F(6, 5), 1],
                      [[0, 0, 1]] * 3, [[0, 0, 0]] * 3)
    for prob in (problem("P2"), _forced()):
        for dt in (0.125, 1 / 3, 0.1):
            rows = bootstrap(sch, prob, dt)
            oracle = _bootstrap_substeps(sch, prob, dt, 1000)
            assert np.max(np.abs(rows - oracle)) < 1e-13, (prob.name, dt)


def test_bootstrap_of_a_one_row_scheme_is_the_initial_value():
    euler = make_scheme("euler", [0], [1], [[1]], [[1]])
    prob = problem("P2")
    rows = bootstrap(euler, prob, 0.125)
    assert rows.shape == (1, 2) and np.array_equal(rows[0], prob.u0)


def test_integrate_p1_reaches_the_target():
    blocks = integrate(builtin("S2"), problem("P1"), F(1, 8), 1.0)
    assert blocks.shape == (9, 2, 1)  # block n at n * dt, from 0 to 8
    err8 = abs(blocks[-1][-1, 0] - 0.5)
    assert err8 < 1e-3
    finer = integrate(builtin("S2"), problem("P1"), F(1, 16), 1.0)
    err16 = abs(finer[-1][-1, 0] - 0.5)
    assert err16 < err8 / 6  # third-order scheme: halving dt cuts ~8x
    # Block 0 is the bootstrap rows, and the run ends near the solution.
    sch, prob = builtin("S3C"), problem("P3")
    blocks = integrate(sch, prob, F(1, 8), 1.0)
    assert np.array_equal(blocks[0], bootstrap(sch, prob, 0.125))
    assert abs(blocks[-1][-1, 0] - math.exp(-1.0)) < 1e-3


def _per_dt_runs(scheme, prob, dts, T, starts):
    # The per-dt loop the lockstep march replaced, kept as its oracle: each
    # dt steps alone from its given rows to T with step, one block at a
    # time, and keeps every block.
    runs = []
    for dt, start in zip(dts, starts):
        dt = float(dt)
        V = np.array(start, dtype=float)
        blocks = [V]
        for n in range(round(T / dt)):
            V = step(scheme, prob, V, dt, n)
            blocks.append(V)
        runs.append(np.array(blocks))
    return runs


LADDERS = [(STANDARD_DTS, T) for T in (1.0, 2.0, 4.0)] + [
    ((1 / 3, 1 / 5, 1 / 7, 1 / 10), 1.0),
    ((0.5, 0.25, 0.1, 0.04), 2.0),
    ((1 / 16, 1 / 4, 1 / 8, 1 / 4), 1.0),  # any order, repeats allowed
    # 1200, 1024, 600 and 12 levels: the row times of two chunk boundaries
    # (levels 512 and 1024), a lane leaving at one and two leaving mid-chunk.
    ((1 / 300, 1 / 256, 1 / 150, 1 / 3), 4.0),
]


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "forced"])
def test_march_equals_the_per_dt_loop(name):
    # Lanes of different dt share each rhs call and combine; every lane's
    # arithmetic is its own run's, so every block agrees bit for bit, on
    # non-dyadic dts and uneven step counts too, in the order of the ladder.
    prob = _forced() if name == "forced" else problem(name)
    for sch_name in BUILTIN_NAMES:
        sch = builtin(sch_name)
        for dts, T in LADDERS:
            starts = [bootstrap(sch, prob, dt, n_sub=1) for dt in dts]
            runs = march(sch, prob, dts, T, starts)
            assert len(runs) == len(dts)
            for dt, got, want in zip(dts, runs, _per_dt_runs(sch, prob, dts, T, starts)):
                assert got.shape == (round(T / dt) + 1, sch.s, prob.dim), (sch_name, T, dt)
                assert np.array_equal(got, want), (sch_name, T, dt)


def test_march_computes_row_times_once_per_chunk_of_levels(monkeypatch):
    # 1200 levels in chunks of 512 levels: three _row_times calls for the
    # march, not one per level, each for every lane still live at its start.
    calls, row_times = [], integrate_module._row_times

    def counted(c, n, dt):
        calls.append(np.broadcast(n, dt, c).shape)
        return row_times(c, n, dt)

    monkeypatch.setattr(integrate_module, "_row_times", counted)
    sch, prob = builtin("S3A"), problem("P4")
    dts, T = LADDERS[-1]
    starts = [bootstrap(sch, prob, dt, n_sub=1) for dt in dts]
    calls.clear()
    march(sch, prob, dts, T, starts)
    assert calls == [(512, 4, 3), (512, 3, 3), (176, 1, 3)]  # the 1024-level lane left at 1024


def test_march_keeps_each_run_in_one_contiguous_lane():
    # Storage is lane-major, so a run that reaches T early never touches
    # the tail of its lane.
    sch, prob = builtin("S3A"), problem("P1")
    starts = [bootstrap(sch, prob, dt) for dt in STANDARD_DTS]
    runs = march(sch, prob, STANDARD_DTS, 1.0, starts)
    for dt, run in zip(STANDARD_DTS, runs):
        assert run.shape == (round(1.0 / dt) + 1, sch.s, prob.dim), dt
        assert run.flags.c_contiguous, dt


def test_march_rejects_non_finite_start_rows():
    sch, dts = builtin("S2"), STANDARD_DTS[:3]
    for prob in (problem("P1"), problem("P2")):
        starts = np.array([bootstrap(sch, prob, dt, n_sub=1) for dt in dts])
        for bad in (np.nan, np.inf):
            given = starts.copy()
            given[1, 0, 0] = bad
            with pytest.raises(ValueError, match=r"^non-finite state at step 0$"):
                march(sch, prob, dts, 1.0, given)
        need = (3, 2, prob.dim)
        for given in (starts[:2], np.zeros((3, 3, prob.dim)), np.zeros(2 * prob.dim)):
            message = re.escape(f"start rows have shape {given.shape}, need {need}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                march(sch, prob, dts, 1.0, given)


def test_integrate_rejects_bad_start_rows():
    # Given starting rows enter a run only through march; one dt is one lane.
    sch, prob = builtin("S2"), problem("P2")
    with pytest.raises(ValueError, match=r"start rows have shape \(1, 3, 2\), need \(1, 2, 2\)"):
        march(sch, prob, [0.125], 1.0, [np.zeros((3, 2))])
    with pytest.raises(ValueError, match="start rows have shape"):
        march(sch, prob, [0.125], 1.0, [np.zeros(4)])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite state at step 0"):
            march(sch, prob, [0.125], 1.0, [[[bad, 0.0], [2.0, 0.0]]])


def test_march_fails_at_the_step_of_the_lane_that_blows_up():
    # u' = -u^2, u(0) = -1 has a pole at t = 1.  Run alone to T = 4, S2
    # overflows at step 12 with dt = 1/3, 13 with dt = 1/4 and 14 with
    # dt = 1/5, so the march stops at level 12, where only the coarsest lane
    # has blown up, and reports that lane's own step.
    pole = make_problem("pole", lambda t, u: -u * u, None, [-1.0])
    sch = builtin("S2")
    dts = [1 / 4, 1 / 3, 1 / 5]
    starts = [bootstrap(sch, pole, dt, n_sub=1) for dt in dts]
    with np.errstate(over="ignore", invalid="ignore"):
        alone = []
        for dt, start in zip(dts, starts):
            with pytest.raises(ValueError) as exc:
                _per_dt_runs(sch, pole, [dt], 4.0, [start])
            alone.append(str(exc.value))
        assert alone == [f"non-finite state at step {k}" for k in (13, 12, 14)]
        with pytest.raises(ValueError, match=r"^non-finite state at step 12$"):
            march(sch, pole, dts, 4.0, starts)
        with pytest.raises(ValueError, match=r"^non-finite state at step 13$"):
            march(sch, pole, dts[::2], 4.0, starts[::2])


def test_march_rejects_an_rhs_that_breaks_the_batch_contract_on_a_stack():
    # Good for one block of s = 2 rows, broken for more: integrate accepts
    # it, the stacked call of the march does not.
    prob = problem("P1")
    narrow = dataclasses.replace(prob, rhs=lambda t, u: prob.rhs(t, u)[:, :2])
    sch = builtin("S2")
    starts = [bootstrap(sch, prob, dt) for dt in STANDARD_DTS[:3]]
    _per_dt_runs(sch, narrow, STANDARD_DTS[:3], 1.0, starts)
    with pytest.raises(ValueError, match=r"batch contract: \(1, 2\) for \(1, 6\)"):
        march(sch, narrow, STANDARD_DTS[:3], 1.0, starts)


def test_step_counts_reject_values_beyond_double_range():
    sch, prob = builtin("S2"), problem("P1")
    with pytest.raises(ValueError, match=r"^dt rounds to 0.0 in double precision$"):
        integrate(sch, prob, F(1, 10**400), 1.0)
    with pytest.raises(ValueError, match=r"^T is too large for double precision$"):
        integrate(sch, prob, F(1, 8), F(10**400))
    with pytest.raises(ValueError, match=r"^dt rounds to 0.0 in double precision$"):
        march(sch, prob, [F(1, 10**400)], 1.0, [[[1.0], [1.0]]])


def test_a_nan_step_or_horizon_is_named_before_any_rhs_or_exact_call():
    sch, base = builtin("S2"), problem("P1")
    calls = []

    def logged(f):
        return lambda *args: calls.append(f) or f(*args)

    prob = dataclasses.replace(base, rhs=logged(base.rhs), exact=logged(base.exact))
    start = [bootstrap(sch, base, F(1, 8))]
    nan = math.nan
    for run, what in [
        (lambda: integrate(sch, prob, nan, 1.0), "dt"),
        (lambda: integrate(sch, prob, F(1, 8), nan), "T"),
        (lambda: march(sch, prob, [nan], 1.0, start), "dt"),
        (lambda: march(sch, prob, [F(1, 8)], nan, start), "T"),
        (lambda: measure_lte(sch, prob, nan, 1.0), "dt"),
        (lambda: measure_lte(sch, prob, F(1, 8), nan), "T"),
        (lambda: bootstrap(sch, prob, nan), "dt"),
    ]:
        with pytest.raises(ValueError, match=f"^{what} is not a number$"):
            run()
        assert calls == [], what


def test_integrate_accepts_float_step_that_lands_on_target():
    assert integrate(builtin("S2"), problem("P1"), 0.1, 1.0).shape == (11, 2, 1)


def test_block_time_does_not_drift_over_many_steps():
    # Summing dt = 0.1 ten thousand times would end at 1000.0000000001588;
    # block n sits at n * dt, which is exact here.
    n = len(integrate(builtin("S2"), problem("P3"), 0.1, 1000.0)) - 1
    assert n == 10_000
    assert n * 0.1 == 1000.0


def test_grid_decides_reachability_on_the_exact_values():
    # T = m dt in rationals is reachable even where the doubles of dt and T
    # disagree: float(5/3) / float(1/3) is not 5 to within half an ulp.
    for p in range(1, 4):
        for q in range(1, 13):
            dt = F(p, q)
            for m in range(1, 25):
                assert _grid(dt, m * dt) == (m, float(dt)), (dt, m)


def test_grid_names_a_negative_horizon():
    # Checked after dt, before reachability: T = -1 is a whole number of
    # steps of 1/8 backwards, and T = 0 is zero steps.
    for T in (-1.0, F(-1, 3), -0.3):
        with pytest.raises(ValueError, match=r"^T must be >= t0 = 0$"):
            _grid(0.125, T)
    with pytest.raises(ValueError, match="non-positive step"):
        _grid(-0.125, -1.0)
    assert _grid(0.125, 0) == (0, 0.125)
    assert _grid(0.125, -0.0) == (0, 0.125)
    # A positive T below one step is not zero steps: T/dt = 1e-17 rounds to
    # 0 within half an ulp of 1, and only T = 0 runs no step.
    for dt, T in ((1, 1e-17), (1.0, 5e-324), (0.125, 1e-18)):
        with pytest.raises(ValueError, match=r"^T not reachable with this dt$"):
            _grid(dt, T)
    with pytest.raises(ValueError, match=r"^T must be >= t0 = 0$"):
        measure_lte(builtin("S2"), problem("P1"), 0.125, -1.0)
    with pytest.raises(ValueError, match=r"^T must be >= t0 = 0$"):
        integrate(builtin("S2"), problem("P1"), 0.125, -1.0)
    assert integrate(builtin("S2"), problem("P1"), 0.125, 0).shape == (1, 2, 1)


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
    prob = problem("P3")
    dt = 1.0 / 16
    final = integrate(sch, prob, F(1, 16), 1.0)[-1]
    A = np.array([[float(x) for x in row] for row in sch.A])
    B = np.array([[float(x) for x in row] for row in sch.B])
    M = A + dt * (-1.0) * B
    oracle = np.linalg.matrix_power(M, 16) @ bootstrap(sch, prob, dt)
    assert np.max(np.abs(final - oracle)) < 1e-13


def _count_sweeps(monkeypatch):
    # The step count of every RK4 march rk4_reference makes, in order.
    sweeps, sweep = [], integrate_module._rk4_sweep

    def counted(prob, T, n, times):
        sweeps.append(n)
        return sweep(prob, T, n, times)

    monkeypatch.setattr(integrate_module, "_rk4_sweep", counted)
    return sweeps


def test_rk4_reference_values():
    ref, n = rk4_reference(problem("P3"), 1.0, [1.0])
    assert n == 512
    assert abs(ref[0, 0] - math.exp(-1.0)) < 1e-12
    ref, n = rk4_reference(problem("P1"), 1.0, [1.0])
    assert n == 512
    assert abs(ref[0, 0] - 0.5) < 1e-12


def test_rk4_reference_rejects_unconverged_runs(monkeypatch):
    # With the limit at 4, P1 from one step tries the pairs (1, 2), (2, 4)
    # and (4, 8); none agrees within 1e-12, and the last pair tried is
    # (limit, 2 limit).
    monkeypatch.setattr(integrate_module, "_REF_START", 1)
    monkeypatch.setattr(integrate_module, "_REF_LIMIT", 4)
    sweeps = _count_sweeps(monkeypatch)
    with pytest.raises(ValueError, match="reference not converged"):
        rk4_reference(problem("P1"), 1.0, [1.0])
    assert sweeps == [1, 2, 4, 8]


def test_rk4_reference_serves_requested_times_like_separate_runs():
    # Off-grid times, 0, T, unsorted, with a duplicate: one sweep agrees
    # with a separate reference ending at each time, which starts, and here
    # passes, at its own horizon's step count.
    times = [0.61803, 1.0, 0.0, 0.37, 0.61803]
    starts = {0.61803: 256, 1.0: 512, 0.0: 1, 0.37: 256}
    for name in ("P1", "P2"):
        prob = problem(name)
        rows, n = rk4_reference(prob, 1.0, times=times)
        assert n == 512
        assert rows.shape == (len(times), prob.dim)
        for t, row in zip(times[:4], rows):
            alone, n = rk4_reference(prob, t, [t])
            assert n == starts[t]
            assert np.max(np.abs(row - alone[0])) < 1e-12, (name, t)
        assert np.array_equal(rows[0], rows[4])
        assert np.array_equal(rows[2], prob.u0)


def test_rk4_reference_grid_times_get_the_grid_value():
    # The start scales with the horizon, so a reference to 0.5 takes half
    # the steps of one to 1: 0.5 is grid point 256 of 512 (coarse) and 512
    # of 1024 (fine), the same march as the reference to 0.5, bit for bit,
    # and partial steps served on the way do not advance the march.
    prob = problem("P2")
    alone, n = rk4_reference(prob, 0.5, [0.5])
    assert n == 256
    rows, n = rk4_reference(prob, 1.0, times=[0.3, 0.5, 0.7, 1.0])
    assert n == 512
    assert np.array_equal(rows[1], alone[0])
    end, n = rk4_reference(prob, 1.0, [1.0])
    assert n == 512
    assert np.array_equal(rows[3], end[0])


@pytest.mark.parametrize("n", [1, 3, 64])
@pytest.mark.parametrize("name", ["P1", "P2"])
def test_sweep_rows_do_not_depend_on_the_order_of_times(name, n):
    # The march serves its times in increasing order, so a shuffled list
    # gets, row for row and bit for bit, the rows of the same list sorted:
    # duplicates, 0, T, grid times (h = 1/3 is not dyadic) and off-grid ones.
    prob, h = problem(name), 1.0 / n
    times = [0.61803, 1.0, 0.0, (n // 2) * h, 0.37, h, 0.61803, 0.0, 0.9, 1.0]
    shuffled = [times[i] for i in (4, 9, 2, 6, 0, 8, 3, 7, 1, 5)]
    rows = integrate_module._rk4_sweep(prob, 1.0, n, shuffled)
    in_order = integrate_module._rk4_sweep(prob, 1.0, n, sorted(shuffled))
    assert rows[np.argsort(shuffled, kind="stable")].tobytes() == in_order.tobytes()


def test_a_zero_step_sweep_serves_the_initial_value():
    prob = problem("P2")
    rows = integrate_module._rk4_sweep(prob, 0.0, 0, [0.0, 0.0])
    assert rows.tobytes() == np.array([prob.u0, prob.u0]).tobytes()


def _linear3():
    # A dim-3 linear system with a rotation and a decay: no component is
    # another's copy, and M @ u serves both the batched and the scalar form.
    M = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.25, 0.0, -0.3]])
    return make_problem("linear3", lambda t, u: M @ u, None, [1.0, 0.0, 0.5])


@pytest.mark.parametrize("n", [1, 3, 64])
@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "forced", "linear3"])
def test_rk4_sweep_equals_the_array_march_bit_for_bit(name, n):
    # The march steps on Python floats; the oracle makes the same steps on
    # numpy arrays.  Off-grid times, grid times (h = 1/3 is not dyadic), a
    # duplicate, 0 and T itself get the same bytes.
    prob = {"forced": _forced, "linear3": _linear3}.get(name, lambda: problem(name))()
    h = 1.0 / n
    times = [0.61803, 0.0, (n // 2) * h, h, 0.37, 0.61803, 1.0, 0.9]
    rows = integrate_module._rk4_sweep(prob, 1.0, n, times)
    assert rows.tobytes() == rk4_sweep(prob, 1.0, n, times).tobytes()
    zero = integrate_module._rk4_sweep(prob, 0.0, 0, [0.0, 0.0])
    assert zero.tobytes() == rk4_sweep(prob, 0.0, 0, [0.0, 0.0]).tobytes()


def test_the_rk4_rhs_gets_a_fresh_float_array_at_a_float_time():
    calls = []

    def rhs(t, u):
        calls.append((t, u))
        return -u

    prob = make_problem("decay", rhs, None, [1.0, 2.0])
    calls.clear()  # drop make_problem's batched probe
    integrate_module._rk4_sweep(prob, 1.0, 4, [0.3, 1.0])
    assert len(calls) == 4 * 5  # four grid steps and one partial step
    assert all(type(t) is float for t, _ in calls)
    assert all(u.dtype == np.float64 and u.shape == (2,) for _, u in calls)
    assert len({id(u) for _, u in calls}) == len(calls)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_FINITE, _FINITE, _FINITE), min_size=1, max_size=4), st.data())
def test_p2_rhs_is_the_same_at_a_scalar_time_and_in_a_batch(states, data):
    # One state goes through Python floats, a batch through arrays, the RK4
    # march's float form takes and gives a list, and before any of them the
    # state went through numpy scalars: the same IEEE operations in the same
    # order, so the same bits, overflow included.
    rhs = problem("P2").rhs
    ts = np.array([t for t, _, _ in states])
    U = np.array([[x for _, x, _ in states], [y for _, _, y in states]])
    j = data.draw(st.integers(0, len(states) - 1))
    u = U[:, j].copy()
    with np.errstate(all="ignore"):
        batch = rhs(ts, U)
        old = np.array([u[1], 0.1 * (1.0 - u[0] * u[0]) * u[1] - u[0]])
    one = rhs(float(ts[j]), u)
    floats = rhs.on_floats(float(ts[j]), u.tolist())
    assert one.dtype == np.float64 and one.shape == (2,)
    assert type(floats) is list and [type(k) for k in floats] == [float, float]
    assert one.tobytes() == batch[:, j].tobytes() == old.tobytes() == np.array(floats).tobytes()


def test_p2_float_form_overflows_to_inf_without_a_warning():
    # Python floats overflow to inf silently, where numpy scalars warn (an
    # error under this suite's warning filter); the batch gives the same bits.
    rhs = problem("P2").rhs
    floats = rhs.on_floats(0.5, [1e200, 1e200])
    assert floats == [1e200, -math.inf]
    with np.errstate(all="ignore"):
        batch = rhs(np.array([0.5]), np.array([[1e200], [1e200]]))
    assert np.array(floats).tobytes() == batch[:, 0].tobytes()


def test_an_overflowing_p2_state_fails_the_reference_without_a_warning():
    # At a scalar t P2's rhs works on Python floats, which overflow to inf
    # without numpy's scalar RuntimeWarning (an error under this suite's
    # warning filter): the march turns non-finite and rk4_reference says so.
    prob = dataclasses.replace(problem("P2"), u0=np.array([1e200, 1e200]))
    with pytest.raises(ValueError, match="non-finite RK4 reference"):
        rk4_reference(prob, 1.0, [1.0])


@pytest.mark.parametrize("wrap", ["plain", "functools.wraps"])
def test_a_wrapped_p2_rhs_sees_every_rk4_evaluation(monkeypatch, wrap):
    # The float form lives on the built-in rhs, not on the Problem, so a
    # dataclasses.replace copy with a counting rhs (bench/spans.py's
    # count_rhs and the tests' recorders make such copies) takes the
    # adapter: four calls per RK4 step, each on a fresh (2,) float64 array
    # at a Python float t, and the same bytes as the built-in's float form.
    base = problem("P2")
    calls = []

    def counting(t, u):
        calls.append((t, u))
        return base.rhs(t, u)

    if wrap == "functools.wraps":  # which copies on_floats onto the wrapper
        counting = functools.wraps(base.rhs)(counting)
    prob = dataclasses.replace(base, rhs=counting)
    times = [0.3, 0.5, 1.0]  # one partial step per march, two grid times
    want, n = rk4_reference(base, 1.0, times)
    steps, step_for = [], integrate_module._rk4_step_for  # every RK4 step, grid and partial

    def counting_step_for(dim):
        one_step = step_for(dim)
        return lambda f, t, u, h: steps.append(h) or one_step(f, t, u, h)

    monkeypatch.setattr(integrate_module, "_rk4_step_for", counting_step_for)
    got, m = rk4_reference(prob, 1.0, times)
    assert m == n == 512
    assert len(steps) == n + 1 + 2 * n + 1
    assert len(calls) == 4 * len(steps)
    assert all(type(t) is float for t, _ in calls)
    assert all(type(u) is np.ndarray and u.dtype == np.float64 for _, u in calls)
    assert all(u.shape == (2,) for _, u in calls)
    assert len({id(u) for _, u in calls}) == len(calls)
    assert got.tobytes() == want.tobytes()


_SMALL = st.floats(-4.0, 4.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.data())
def test_the_generated_rk4_step_is_the_array_formula_bit_for_bit(dim, data):
    # The unrolled step of each dim against the oracle's numpy step: a
    # make_problem rhs through the adapter at any dim, and P2's own float
    # form at dim 2, for any t, state and step, the short partial steps
    # that serve an off-grid time included.
    t = data.draw(_SMALL)
    u = data.draw(st.lists(_SMALL, min_size=dim, max_size=dim))
    h = data.draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.floats(1e-300, 1e-12)))
    M = np.array(data.draw(st.lists(_SMALL, min_size=dim * dim, max_size=dim * dim)))
    M = M.reshape(dim, dim)
    prob = make_problem("mixed", lambda t, u: M @ u - np.sin(t) * u, None, u)
    one_step = integrate_module._rk4_step_for(dim)
    got = one_step(integrate_module._on_floats(prob.rhs, dim), t, u, h)
    assert np.array(got).tobytes() == rk4_step(prob.rhs, t, np.array(u), h).tobytes()
    vdp = problem("P2").rhs.on_floats
    x = u[:2] if dim >= 2 else u * 2
    got = integrate_module._rk4_step_for(2)(vdp, t, x, h)
    assert np.array(got).tobytes() == rk4_step(vdp, t, np.array(x), h).tobytes()


@pytest.mark.parametrize("name", ["P1", "linear3"])
def test_rk4_reference_equals_the_array_march_and_generates_its_step_once(name):
    # rk4_reference at dim 1 and dim 3 is the oracle's numpy march of the
    # passing pair's finer step count, bit for bit; a second reference of
    # the same dim reuses the step its first sweep generated.
    prob = _linear3() if name == "linear3" else problem(name)
    times = [0.61803, 0.0, 0.25, 1.0, 0.37]
    values, n = rk4_reference(prob, 1.0, times)
    assert values.tobytes() == rk4_sweep(prob, 1.0, 2 * n, times).tobytes()
    generated = integrate_module._rk4_step_for.cache_info().misses
    again, _ = rk4_reference(prob, 1.0, times)
    assert integrate_module._rk4_step_for.cache_info().misses == generated
    assert again.tobytes() == values.tobytes()


@pytest.mark.parametrize("components", [1, 3])
def test_rk4_rejects_a_float_form_of_the_wrong_length(components):
    # A float form that returns another number of components than dim is
    # refused by the step's unpacking; a zip over the state would drop the
    # missing component, and the row would broadcast the survivor.
    def rhs(t, u):
        return -u

    rhs.on_floats = lambda t, u: [-u[0]] * components
    prob = make_problem("short", rhs, None, [1.0, 2.0])
    with pytest.raises(ValueError, match="unpack"):
        rk4_reference(prob, 1.0, [0.5, 1.0])
    with pytest.raises(ValueError, match="unpack"):
        bootstrap(builtin("S3A"), prob, 0.125)


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), ()])
def test_rk4_rejects_an_rhs_result_of_the_wrong_shape_at_a_scalar_time(shape):
    # The batched form passes make_problem; at a scalar t the result has
    # another shape.  Broadcast on arrays, a (1,) result turned u' = -u0
    # from (1, 2) into rows like (0.368, 1.368); on floats zip would drop
    # components.  Both RK4 entry points refuse it.
    prob = make_problem(
        "narrow", lambda t, u: -u if np.ndim(t) else np.full(shape, -u[0]), None, [1.0, 2.0]
    )
    message = re.escape(f"rhs breaks the contract at a scalar t: {shape} for (2,)")
    with pytest.raises(ValueError, match=message):
        rk4_reference(prob, 1.0, [1.0])
    with pytest.raises(ValueError, match=message):
        bootstrap(builtin("S3A"), prob, 0.125)


def test_rk4_names_a_non_array_rhs_result_at_a_scalar_time():
    # A list has no shape: the adapter names it as make_problem's probe does,
    # not with an AttributeError.
    prob = make_problem("listed", lambda t, u: -u if np.ndim(t) else [-u[0]], None, [1.0])
    message = re.escape("rhs breaks the contract at a scalar t: a non-array for (1,)")
    with pytest.raises(ValueError, match=message):
        rk4_reference(prob, 1.0, [1.0])
    with pytest.raises(ValueError, match=message):
        bootstrap(builtin("S3A"), prob, 0.125)


def test_rk4_reference_checks_every_requested_time(monkeypatch):
    # u' = (t - 1/2)^5 is pure quadrature: RK4's error on each step is
    # proportional to the fourth derivative 120 (t - 1/2) at the step's
    # midpoint, so the errors cancel at T = 1 but not at t = 1/2.
    prob = make_problem("quintic", lambda t, u: np.array([(t - 0.5) ** 5]), None, [0.0])
    monkeypatch.setattr(integrate_module, "_REF_START", 4)
    values, n = rk4_reference(prob, 1.0, [1.0])
    assert n == 4 and abs(values[0, 0]) < 1e-15
    # Requesting 1/2 forces escalation, and each escalation costs one march:
    # the finer march of a failed pair is the coarse march of the next, so
    # k doublings make the k + 2 sweeps 4, 8, ..., n, 2n.
    sweeps = _count_sweeps(monkeypatch)
    values, n = rk4_reference(prob, 1.0, times=[1.0, 0.5])
    assert n > 4
    assert sweeps == [4 << i for i in range(len(sweeps))]
    assert sweeps[-2:] == [n, 2 * n]
    assert abs(values[1, 0] + 1 / 384) < 1e-12  # u(1/2) = -(1/2)^6 / 6


def test_rk4_reference_rejects_a_non_finite_march(monkeypatch):
    # u' = -u^2, u(0) = -1 has a pole at t = 1: the march overflows, and the
    # doubling test alone would double n on it up to the limit (NaN < 1e-12
    # is False).
    prob = make_problem("pole", lambda t, u: -u * u, None, [-1.0])
    sweeps = _count_sweeps(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite RK4 reference"):
            rk4_reference(prob, 2.0, times=[0.5, 1.5])
        monkeypatch.setattr(integrate_module, "_REF_START", 4)  # 8 steps to T = 2
        with pytest.raises(ValueError, match="non-finite RK4 reference"):
            rk4_reference(prob, 2.0, [2.0])
        assert sweeps == [1024, 8]
        # From one step the marches stay finite up to 4 steps; the first
        # non-finite one, the finer march of a pair, ends the escalation.
        sweeps.clear()
        monkeypatch.setattr(integrate_module, "_REF_START", 0.5)
        with pytest.raises(ValueError, match="non-finite RK4 reference"):
            rk4_reference(prob, 2.0, [2.0])
        assert sweeps == [1, 2, 4, 8]


def test_rk4_reference_start_is_set_by_the_horizon(monkeypatch):
    # About 512 steps per unit of T, rounded to a power of 2: P2 passes at
    # its first pair up to T = 4, and at T = 8 after one doubling.
    prob = problem("P2")
    sweeps = _count_sweeps(monkeypatch)
    expected = {
        1.0: [512, 1024],
        2.0: [1024, 2048],
        4.0: [2048, 4096],
        8.0: [4096, 8192, 16384],
    }
    for T, marches in expected.items():
        sweeps.clear()
        _, n = rk4_reference(prob, T, [T])
        assert sweeps == marches, T
        assert n == marches[-2]


def test_rk4_reference_refuses_a_start_beyond_the_limit(monkeypatch):
    # At T = 1e5 the start, 2^26 steps, is past the limit: no pair within
    # it can be tried, so the reference fails before any march instead of
    # marching for minutes.  The largest doubles do not overflow the start.
    prob = problem("P2")
    sweeps = _count_sweeps(monkeypatch)
    for T in (1e5, 1e300, sys.float_info.max):
        with pytest.raises(ValueError, match="reference not converged"):
            rk4_reference(prob, T, [T])
    assert sweeps == []


def test_rk4_reference_rejects_a_non_finite_horizon(monkeypatch):
    prob = problem("P2")
    sweeps = _count_sweeps(monkeypatch)
    for T in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            rk4_reference(prob, T, [1.0])
    assert sweeps == []


def test_rk4_reference_rejects_times_outside_the_span():
    prob = problem("P1")
    for t in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="outside"):
            rk4_reference(prob, 1.0, times=[0.5, t])


def _measure_lte_rows(scheme, prob, dt, T):
    # The row-loop measure_lte the batched one replaced, kept as its oracle:
    # scalar exact and single-state rhs calls, one step at a time.  Returns
    # the per-component max |tau| and the largest |u| it saw.
    dtf = float(dt)
    A, B, c_in = scheme.float_tables
    c_out = [float(c) for c in scheme.c_out]
    worst, umax = np.zeros(scheme.s), 0.0
    for n in range(round(T / dtf)):
        tn = n * dtf
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


def test_lte_names_the_first_time_the_exact_solution_is_not_finite():
    # u = 1/(1/2 - t) has its pole at the row time 1/2, where the residual
    # would be NaN and inf instead of an error.
    prob = make_problem(
        "pole", lambda t, u: u * u, lambda t: np.array([1.0 / (0.5 - t)]), [2.0]
    )
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match=r"non-finite exact solution at t = 0\.5$"):
            measure_lte(builtin("S2"), prob, 1 / 8, 1.0)


def test_bootstrap_names_a_start_row_where_the_exact_solution_is_not_finite():
    # u = 1/(1/16 - t) has its pole at S2's first start row, c_in[0] dt = 1/16.
    prob = make_problem(
        "pole", lambda t, u: u * u, lambda t: np.array([1.0 / (1 / 16 - t)]), [16.0]
    )
    with np.errstate(divide="ignore"):
        for run in (lambda: bootstrap(builtin("S2"), prob, 1 / 8),
                    lambda: integrate(builtin("S2"), prob, 1 / 8, 1)):
            with pytest.raises(ValueError, match=r"non-finite exact solution at t = 0\.0625$"):
                run()


def test_lte_refuses_a_scheme_that_does_not_march():
    # c_out = (7/4, 1) is not c_in + 1: the kernel cannot step it, so it
    # has no defect on the exact blocks to measure.
    sch = assemble([F(-2, 23), F(25, 23)], [F(1, 2), 0], [F(7, 4), 1])
    with pytest.raises(ValueError, match="^scheme does not march"):
        measure_lte(sch, problem("P1"), F(1, 8), 1.0)


def test_lte_raises_on_an_rhs_that_is_not_finite_on_the_exact_blocks():
    # The exact solution is finite; the rhs is NaN past t = 1/2.  The
    # kernel's finiteness check refuses it instead of returning NaN, and
    # names the step integrate names: k + 1 for the first bad block k, here
    # block 4, whose first row 4/8 + c_0/8 is past 1/2.
    prob = problem("P1")
    bad = dataclasses.replace(prob, rhs=lambda t, u: np.where(t > 0.5, np.nan, prob.rhs(t, u)))
    for name in ("S2", "S3A"):
        for run in (measure_lte, integrate):
            with pytest.raises(ValueError, match="^non-finite state at step 5$"):
                run(builtin(name), bad, F(1, 8), 1.0)


def test_lte_of_a_run_of_no_steps_is_zero():
    # T = 0 is zero steps: no defect to measure, and no rhs call to make.
    prob = problem("P1")
    calls = []
    quiet = dataclasses.replace(prob, rhs=lambda t, u: calls.append(t) or prob.rhs(t, u))
    for name in ("S2", "S3A"):
        assert measure_lte(builtin(name), quiet, F(1, 8), 0).tolist() == [0.0] * builtin(name).s
    assert calls == []


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
