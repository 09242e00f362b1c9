import dataclasses
import math
import shutil
import subprocess
from fractions import Fraction as F

import numpy as np
import pytest
from _oracle_util import gbs_solve

from blockstep.derive import assemble, search_s2
from blockstep.harness import (
    STANDARD_DTS,
    converge,
    emit_csv,
    emit_plot_script,
    fit_slope,
)
from blockstep import analysis, harness, integrate
from blockstep.integrate import make_problem, march, problem
from blockstep.scheme import BUILTIN_NAMES, builtin, make_scheme


def test_standard_ladder():
    assert STANDARD_DTS == (0.125, 0.0625, 0.03125, 0.015625, 0.0078125)


def test_fit_slope_recovers_exact_powers():
    pts = [(2.0**-k, (2.0**-k) ** 3) for k in (3, 4, 5, 6)]
    assert fit_slope(pts) == pytest.approx(3.0, abs=1e-12)
    pts = [(2.0**-k, 7.0) for k in (3, 4, 5)]
    assert fit_slope(pts) == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_mixed_orders_lands_between():
    pts = [(2.0**-k, (2.0**-k) ** 2 + (2.0**-k) ** 3) for k in (3, 4, 5, 6)]
    s = fit_slope(pts)
    assert 2.0 < s < 3.0


def test_fit_slope_needs_three_points():
    with pytest.raises(ValueError, match="need >=3 dt values"):
        fit_slope([(0.1, 1e-3), (0.05, 1e-4)])


def test_fit_slope_needs_two_distinct_dts():
    # Every dx would be 0, and the slope 0 / 0.
    with pytest.raises(ValueError, match="need >=2 distinct dt values"):
        fit_slope([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)])
    with pytest.warns(UserWarning, match="excluded 1 nonpositive"):
        with pytest.raises(ValueError, match="need >=2 distinct dt values"):
            fit_slope([(0.25, 0.0), (0.5, 1.0), (0.5, 2.0), (0.5, 3.0)])
    assert fit_slope([(0.25, 1.0), (0.5, 2.0), (0.5, 2.0)]) == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_drops_nonpositive_with_warning():
    pts = [(0.125, 1e-3), (0.0625, 1e-4), (0.03125, 1e-5), (0.015625, 0.0)]
    with pytest.warns(UserWarning, match="excluded 1 nonpositive"):
        s = fit_slope(pts)
    assert s == pytest.approx(fit_slope(pts[:3]), abs=1e-12)
    with pytest.warns(UserWarning, match="nonpositive"):
        with pytest.raises(ValueError, match="need >=3 dt values"):
            fit_slope([(0.1, 1e-3), (0.05, 1e-4), (0.025, -1.0)])


def test_converge_error_inhibiting_scheme_gains_an_order():
    rep = converge(builtin("S2"), problem("P1"))
    assert rep.q == 2
    assert rep.reference == "exact"
    assert rep.dts == sorted(rep.dts, reverse=True)
    for slope in rep.global_slopes:
        assert 2.8 <= slope <= 3.2
    for slope in rep.lte_slopes:
        assert 1.8 <= slope <= 2.2
    assert 2.8 <= rep.maxnorm_global_slope <= 3.2
    # the global orders sit one above the local truncation orders
    for gap in rep.global_slopes - rep.lte_slopes:
        assert 0.8 <= gap <= 1.2


def test_exact_eis_root_measures_one_order_more_than_its_off_family_twin():
    # search_s2 finds the error-inhibiting member on BUTCHER2's abscissae;
    # the exact verdict must show up as a measured extra order in floats
    c_in = (F(1), F(0))
    (root,) = search_s2(c_in)
    assert root.a == (F(1, 6), F(5, 6))
    candidate = assemble(root.a, c_in, name="candidate")
    for name in ("P1", "P4"):
        on = converge(candidate, problem(name)).maxnorm_global_slope
        off = converge(builtin("BUTCHER2"), problem(name)).maxnorm_global_slope
        assert 2.8 <= on <= 3.2, name
        assert 1.8 <= off <= 2.2, name


def test_converge_plain_scheme_shows_no_gain():
    rep = converge(builtin("BUTCHER2"), problem("P1"))
    for slope in rep.global_slopes:
        assert 1.8 <= slope <= 2.2
    for gap in rep.global_slopes - rep.lte_slopes:
        assert -0.2 <= gap <= 0.2


def test_converge_gap_holds_on_other_exact_problems():
    for pname in ("P3", "P4"):
        rep = converge(builtin("S2"), problem(pname))
        assert 2.8 <= rep.maxnorm_global_slope <= 3.2, pname
        assert 0.8 <= rep.maxnorm_global_slope - rep.maxnorm_lte_slope <= 1.2, pname


def test_converge_without_exact_uses_verified_reference():
    rep = converge(builtin("S3A"), problem("P2"), dts=(F(1, 8), F(1, 16), F(1, 32)))
    assert rep.lte is None and rep.lte_slopes is None
    assert rep.maxnorm_lte_slope is None
    assert rep.reference.startswith("rk4 (doubling-verified")
    assert 3.75 <= rep.maxnorm_global_slope <= 4.25
    again = converge(builtin("S3A"), problem("P2"), dts=(F(1, 8), F(1, 16), F(1, 32)))
    assert again.maxnorm_global_slope == rep.maxnorm_global_slope


def _bits(report):
    # Every field of a report, arrays as raw bytes: equal bits, not close values.
    return [
        v if v is None or isinstance(v, str) else np.asarray(v, dtype=float).tobytes()
        for v in (getattr(report, f.name) for f in dataclasses.fields(report))
    ]


def test_float_and_fraction_ladders_take_one_path():
    # Benchmarks pass doubles, the CLI passes Fractions: the same grid.
    fractions = [F(1, 2**k) for k in range(3, 8)]
    for name in ("P1", "P2", "P4"):
        for sch_name in ("S2", "S3A"):
            sch, prob = builtin(sch_name), problem(name)
            floats = converge(sch, prob, dts=STANDARD_DTS, T=1.0)
            exact = converge(sch, prob, dts=fractions, T=F(1))
            assert _bits(floats) == _bits(exact), (name, sch_name)


def test_references_are_read_off_the_grid_the_march_ran():
    # n dt misses T = 3/10 in doubles (3 * 0.1 is 0.30000000000000004): each
    # reference row sits at a row time of the final block, n dt + c_in dt.
    prob = problem("P3")
    dts, T = (F(1, 10), F(1, 20), F(1, 40)), F(3, 10)
    for sch_name in BUILTIN_NAMES:
        sch = builtin(sch_name)
        c_in = sch.float_tables[2]
        report = converge(sch, prob, dts=dts, T=T)
        starts = [prob.exact(c_in * float(dt)).T for dt in dts]
        for dt, blocks, err in zip(dts, march(sch, prob, dts, T, starts), report.global_err):
            rows = (len(blocks) - 1) * float(dt) + c_in * float(dt)
            want = np.abs(blocks[-1] - prob.exact(rows).T).max(axis=1)
            assert np.array_equal(err, want), (sch_name, dt)


def test_converge_rejects_duplicate_dts():
    with pytest.raises(ValueError, match="duplicate dt values"):
        converge(builtin("S2"), problem("P1"), dts=(0.125, 0.125, 0.0625))


def _recording(prob):
    # A copy of prob whose rhs and exact (when it has one) log the times of
    # every call, in call order.
    calls = []

    def rhs(t, u):
        calls.append(("rhs", np.array(t, dtype=float)))
        return prob.rhs(t, u)

    def exact(t):
        calls.append(("exact", np.array(t, dtype=float)))
        return prob.exact(t)

    recorded = dataclasses.replace(prob, rhs=rhs, exact=exact if prob.exact is not None else None)
    return recorded, calls


@pytest.mark.parametrize(
    "dts, T, message",
    [
        ((0.125, 0.0625), 1.0, "need >=3 dt values"),
        ((0.125, 0.0625, 0.03125), 0.0, "T must exceed t0"),
        ((0.125, 0.0625, 0.03125), -1.0, "T must exceed t0"),
        ((0.125, 0.0625, -0.03125), 1.0, "non-positive step"),
        ((0.125, 0.0625, 0.0), 1.0, "non-positive step"),
        ((0.125, 0.0625, 0.3), 1.0, "T not reachable with this dt"),
        ((F(1, 10**401), F(1, 10**402), F(1, 10**403)), 1.0, "dt rounds to 0.0"),
        ((0.125, 0.0625, 0.03125), F(1, 10**400), "T rounds to 0.0"),
        ((0.125, 0.0625, 0.03125), F(10**400), "T is too large"),
        ((1.0, 0.5, 0.25), 1e-17, "T not reachable with this dt"),
        # Past 2^53 steps float(n) != n, and two blocks would share a time.
        ((F(1, 8), F(1, 16), F(1, 32)), F(10**308), r"^T = 1e\+308 takes more than 2\^53 steps"),
        ((0.125, 0.0625, 0.03125), math.nan, r"^T is not a number$"),
        ((0.125, math.nan, 0.03125), 1.0, r"^dt is not a number$"),
    ],
)
def test_converge_checks_the_ladder_before_any_work(dts, T, message):
    for name in ("P1", "P2"):
        prob, calls = _recording(problem(name))
        with pytest.raises(ValueError, match=message):
            converge(builtin("S3A"), prob, dts=dts, T=T)
        assert calls == [], name


@pytest.mark.parametrize("sch_name", BUILTIN_NAMES)
def test_the_oracle_is_asked_at_the_kernels_own_row_times(sch_name):
    # On a non-dyadic ladder n dt + c dt rounds differently in another
    # layout or formula.  A closed-form study's one exact call holds the
    # row times of blocks 0..N of every run, run after run, largest dt
    # first: block k of a run is where march's level-k rhs call puts it
    # when that run goes one step past T, bit for bit.  The study's own
    # march starts at block 0 of each run, and its defect step is one rhs
    # call at every block but each run's last.
    sch = builtin(sch_name)
    prob, calls = _recording(problem("P4"))
    dts = (F(1, 3), F(1, 5), F(1, 7))  # largest first, as the table orders runs
    converge(sch, prob, dts=dts, T=1)
    (exact,) = [t for what, t in calls if what == "exact"]
    rhs = [t for what, t in calls if what == "rhs"]
    sizes = [dt.denominator + 1 for dt in dts]  # blocks 0..N, N steps to T = 1
    assert exact.shape == (sum(sizes), sch.s)
    runs = np.split(exact, np.cumsum(sizes)[:-1])
    assert sorted(map(bytes, rhs[0].reshape(len(dts), sch.s))) == sorted(bytes(r[0]) for r in runs)
    assert bytes(rhs[-1]) == bytes(np.concatenate([r[:-1] for r in runs]))
    for dt, blocks in zip(dts, runs):
        n = dt.denominator
        calls.clear()
        march(sch, prob, [dt], (n + 1) * dt, [problem("P4").exact(blocks[0]).T])
        level = [t for what, t in calls if what == "rhs"]
        assert [bytes(t) for t in level] == [bytes(row) for row in blocks], dt


@pytest.mark.parametrize("sch_name", BUILTIN_NAMES)
def test_measure_lte_is_asked_at_the_kernels_own_row_times(sch_name):
    # measure_lte's exact blocks sit where march's level-k rhs call puts
    # block k, bit for bit, on a non-dyadic ladder; its own rhs call is at
    # blocks 0..N-1 of the same times.
    sch = builtin(sch_name)
    prob, calls = _recording(problem("P4"))
    for dt in (F(1, 3), F(1, 5), F(1, 7)):
        n = dt.denominator  # steps to T = 1
        calls.clear()
        integrate.measure_lte(sch, prob, dt, 1)
        (_, exact), (_, lte_rhs) = calls
        calls.clear()
        march(sch, prob, [dt], (n + 1) * dt, [problem("P4").exact(exact[0]).T])
        rhs = [t for what, t in calls if what == "rhs"]
        assert exact.shape == (n + 1, sch.s) and len(rhs) == n + 1
        assert [bytes(row) for row in exact] == [bytes(t) for t in rhs], dt
        assert bytes(lte_rhs) == bytes(exact[:-1])


def test_converge_rejects_a_scheme_that_does_not_march_before_any_work():
    s2 = builtin("S2")
    stuck = make_scheme("stuck", s2.c_in, (F(2), F(1)), s2.A, s2.B)  # c_out[0] = c_in[0] + 3/2
    for name in ("P1", "P2"):
        prob, calls = _recording(problem(name))
        with pytest.raises(ValueError, match="scheme does not march"):
            converge(stuck, prob, dts=(0.125, 0.0625, 0.03125, 0.015625))
        assert calls == [], name


@pytest.mark.parametrize("scheme", ["S2", "S3A"])
@pytest.mark.parametrize("name", ["P1", "P3", "P4"])
def test_sweep_reference_matches_a_hidden_closed_form(scheme, name):
    # With its closed form hidden, a problem takes the RK4 sweep for both
    # references and starting rows; the errors must match the exact run.
    prob = problem(name)
    hidden = dataclasses.replace(prob, exact=None, name=name + "-hidden")
    known = converge(builtin(scheme), prob)
    swept = converge(builtin(scheme), hidden)
    assert swept.reference.startswith("rk4 (doubling-verified")
    for a, b in zip(known.global_err, swept.global_err):
        assert np.max(np.abs(a - b)) < 1e-12


def test_closed_form_study_makes_one_exact_call_for_references_and_starts():
    # One call serves every starting row, reference, run-max row and LTE
    # block: the kernel's row times n dt + c dt of blocks 0..N of every dt,
    # run after run, shape (sum(N + 1), s).
    prob = problem("P4")
    calls = []

    def exact(t):
        calls.append(np.array(t, dtype=float))
        return prob.exact(t)

    sch = builtin("S3A")
    dts = (0.125, 0.0625, 0.03125, 0.015625)
    converge(sch, dataclasses.replace(prob, exact=exact), dts=dts)
    (times,) = calls
    c_in = sch.float_tables[2]
    want = np.concatenate([np.arange(round(1 / dt) + 1)[:, None] * dt + c_in * dt for dt in dts])
    assert times.shape == want.shape == (sum(round(1 / dt) + 1 for dt in dts), 3)
    assert times.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["P1", "P3", "P4"])
def test_converge_lte_is_measure_lte_per_dt(name):
    # The study's one defect step over the whole ladder gives, per dt, the
    # bits of measure_lte's own run.
    prob = problem(name)
    for sch_name in BUILTIN_NAMES:
        sch = builtin(sch_name)
        for T in (1.0, 2.0):
            rep = converge(sch, prob, T=T)
            for dt, lte in zip(rep.dts, rep.lte):
                want = integrate.measure_lte(sch, prob, dt, T)
                assert lte.tobytes() == want.tobytes(), (sch_name, T, dt)


def test_run_max_is_the_largest_error_over_every_block_of_the_run():
    # Per dt and component, the max over every row of every block of
    # integrate's run against the closed form at that row's time; it
    # bounds the error at T.
    prob = problem("P4")
    for sch_name in BUILTIN_NAMES:
        sch = builtin(sch_name)
        c_in = sch.float_tables[2]
        rep = converge(sch, prob, dts=(0.25, 0.125, 0.0625), T=2.0)
        for dt, runmax, err in zip(rep.dts, rep.runmax, rep.global_err):
            blocks = integrate.integrate(sch, prob, dt, 2.0)
            n = np.arange(len(blocks))[:, None]
            exact = prob.exact(n * dt + c_in * dt).transpose(1, 2, 0)
            assert runmax.tobytes() == np.abs(blocks - exact).max(axis=(0, 2)).tobytes()
            assert (runmax >= err).all()


def test_every_slope_of_a_study_is_fit_slope_on_its_column():
    # The study fits all its columns against one log2(dt) vector; each
    # slope is still the bits fit_slope gives for that column alone.
    for name in ("P1", "P2", "P4"):
        for sch_name in BUILTIN_NAMES:
            rep = converge(builtin(sch_name), problem(name), T=2.0)
            for rows, per_component, maxnorm in (
                (rep.global_err, rep.global_slopes, rep.maxnorm_global_slope),
                (rep.lte, rep.lte_slopes, rep.maxnorm_lte_slope),
                (rep.runmax, rep.runmax_slopes, rep.maxnorm_runmax_slope),
            ):
                if rows is None:
                    continue
                errs = np.array(rows)
                want = [fit_slope(zip(rep.dts, col)) for col in errs.T]
                assert per_component.tolist() == want, (name, sch_name)
                assert maxnorm == fit_slope(zip(rep.dts, errs.max(axis=1))), (name, sch_name)


def test_a_nonpositive_error_goes_through_fit_slope_in_a_study():
    # One log2(dt) fit for a study's columns keeps fit_slope's rule: a
    # column with a zero error is fitted by fit_slope, which drops the
    # value with its warning; the other columns keep their bits.
    dts = [0.125, 0.0625, 0.03125, 0.015625]
    x = np.log2(dts)
    rows = [np.array(r) for r in ([1e-3, 2e-4], [1.2e-4, 0.0], [1.6e-5, 3e-6], [2e-6, 4e-7])]
    with pytest.warns(UserWarning, match="excluded 1 nonpositive"):
        per_component, maxnorm = harness._slopes(dts, x - x.mean(), rows)
        want = [fit_slope(zip(dts, col)) for col in np.array(rows).T]
    assert per_component.tolist() == want
    assert maxnorm == fit_slope(zip(dts, np.array(rows).max(axis=1)))


def test_run_max_is_absent_without_a_closed_form():
    rep = converge(builtin("S3A"), problem("P2"), dts=(0.125, 0.0625, 0.03125))
    assert (rep.runmax, rep.runmax_slopes, rep.maxnorm_runmax_slope) == (None, None, None)


def test_butcher2_run_max_slope_is_its_order_where_the_error_at_t_is_not():
    # At T = 3 the error at T sits near a zero of its leading term and reads
    # about 3.7 for a scheme that fails C4; over the whole run it reads 2.
    rep = converge(builtin("BUTCHER2"), problem("P4"), T=3.0)
    assert rep.maxnorm_global_slope > 3.5
    assert abs(rep.maxnorm_runmax_slope - 2) <= 0.2


@pytest.mark.parametrize("sch_name", BUILTIN_NAMES)
def test_run_max_slope_is_q_plus_one_for_eis_schemes_and_q_otherwise(sch_name):
    sch = builtin(sch_name)
    want = analysis.truncation_order(sch).q + (sch_name != "BUTCHER2")
    for name in ("P1", "P3", "P4"):
        for T in (1.0, 2.0, 3.0, 4.0):
            rep = converge(sch, problem(name), T=T)
            assert abs(rep.maxnorm_runmax_slope - want) <= 0.25, (name, T)


def test_a_scheme_that_does_not_march_is_refused_before_any_rhs_call():
    # converge, march and measure_lte each refuse it before the rhs or the
    # closed form is asked anything; whether it marches is decided once.
    s2 = builtin("S2")
    stuck = make_scheme("stuck", s2.c_in, (F(2), F(1)), s2.A, s2.B)  # c_out[0] = c_in[0] + 3/2
    prob, calls = _recording(problem("P1"))
    runs = {
        "converge": lambda: converge(stuck, prob, dts=(0.125, 0.0625, 0.03125)),
        "march": lambda: march(stuck, prob, [0.125], 1.0, [[[1.0], [1.0]]]),
        "measure_lte": lambda: integrate.measure_lte(stuck, prob, 0.125, 1.0),
    }
    for name, run in runs.items():
        with pytest.raises(ValueError, match="^scheme does not march"):
            run()
        assert calls == [], name
    assert vars(stuck)["marches"] is False


def _counted(monkeypatch, module, name):
    # The positional arguments of every call to module.name, in order.
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_converge_fails_on_a_non_finite_reference_after_one_sweep(monkeypatch):
    # The pole of u' = -u^2, u(0) = -1 at t = 1 lies before T = 2: doubling
    # the steps cannot help, so the first sweep's error ends the study.
    references = _counted(monkeypatch, harness, "rk4_reference")
    sweeps = _counted(monkeypatch, integrate, "_rk4_sweep")
    prob = make_problem("pole", lambda t, u: -u * u, None, [-1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite RK4 reference"):
            converge(builtin("S2"), prob, dts=(0.125, 0.0625, 0.03125), T=2.0)
    assert len(references) == 1
    assert [n for _, _, n, _ in sweeps] == [1024]


def test_converge_names_a_non_finite_closed_form_before_any_rhs_call():
    # u = 1/(1 - t) blows up at T = 1, a row time of every final block: the
    # study fails at its one oracle call, as the RK4 branch does, instead of
    # reporting an inf error and a NaN slope.
    prob, calls = _recording(
        make_problem("blow", lambda t, u: u * u, lambda t: np.array([1.0 / (1.0 - t)]), [1.0])
    )
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match=r"non-finite exact solution at t = 1\.0$"):
            converge(builtin("S2"), prob, dts=(1 / 8, 1 / 16, 1 / 32), T=1.0)
    assert [what for what, _ in calls] == ["exact"]


def test_rhs_error_ends_a_cold_study_after_one_sweep(monkeypatch):
    # An error raised by rhs is not a failed doubling check: it ends the
    # study in the first sweep, at its first step, instead of doubling n.
    def rhs(t, u):
        if np.max(t) > 0:
            math.sqrt(-1.0)
        return -u

    references = _counted(monkeypatch, harness, "rk4_reference")
    sweeps = _counted(monkeypatch, integrate, "_rk4_sweep")
    prob = make_problem("domain", rhs, None, [1.0])
    with pytest.raises(ValueError, match="math domain error"):
        converge(builtin("S2"), prob, dts=(0.125, 0.0625, 0.03125))
    assert len(references) == 1
    assert [n for _, _, n, _ in sweeps] == [512]


def test_escalated_reference_makes_one_march_per_doubling(monkeypatch):
    # At T = 8 the P2 reference starts at n = 4096 and passes only at
    # n = 8192: the pairs 4096 and 8192 share their march, three sweeps in all.
    references = _counted(monkeypatch, harness, "rk4_reference")
    sweeps = _counted(monkeypatch, integrate, "_rk4_sweep")
    report = converge(builtin("S2"), problem("P2"), dts=(0.125, 0.0625, 0.03125), T=8.0)
    assert report.reference == "rk4 (doubling-verified, n_steps up to 8192)"
    assert len(references) == 1
    assert [n for _, _, n, _ in sweeps] == [4096, 8192, 16384]


def test_gbs_oracle_matches_closed_forms():
    # Unsorted times with a repeat and 0, on the three problems with an
    # exact solution: well inside the 1e-12 that the P2 reference is held to
    # against this oracle below.
    times = [3.7, 0.1, 8.0, 0.0, 1.0, 3.7]
    for name in ("P1", "P3", "P4"):
        prob = problem(name)
        got = gbs_solve(prob.rhs, prob.u0, times)
        assert np.max(np.abs(got - prob.exact(np.array(times)).T)) < 2.5e-13, name


@pytest.mark.parametrize("dts", [STANDARD_DTS[:3], STANDARD_DTS[1:]])
@pytest.mark.parametrize("T", [1.0, 2.0, 4.0, 8.0])
def test_p2_reference_agrees_with_extrapolation(monkeypatch, T, dts):
    # The RK4 reference a P2 study requests, at every requested time, against
    # an independent Gragg-Bulirsch-Stoer solution.
    served, reference = [], harness.rk4_reference

    def recorded(prob, T, times):
        values, n = reference(prob, T, times)
        served.append((times, values))
        return values, n

    monkeypatch.setattr(harness, "rk4_reference", recorded)
    prob = problem("P2")
    converge(builtin("S3A"), prob, dts=dts, T=T)
    [(times, values)] = served
    assert len(times) == 2 * len(dts) * 3
    assert np.max(np.abs(values - gbs_solve(prob.rhs, prob.u0, times))) < 1e-12


def test_converge_slope_is_stable_under_refinement():
    base = converge(builtin("S2"), problem("P1"))
    refined = converge(
        builtin("S2"), problem("P1"), dts=STANDARD_DTS + (0.00390625,)
    )
    assert abs(refined.maxnorm_global_slope - base.maxnorm_global_slope) <= 0.1


def test_emit_csv_round_trips(tmp_path):
    rep = converge(builtin("S2"), problem("P1"), dts=(0.125, 0.0625, 0.03125))
    path = tmp_path / "conv.csv"
    emit_csv(rep, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == (
        "dt,global_err_comp_0,global_err_comp_1,lte_comp_0,lte_comp_1,runmax_comp_0,runmax_comp_1"
    )
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[0]) == rep.dts[i]
        for j in range(2):
            assert float(cells[1 + j]) == rep.global_err[i][j]
            assert float(cells[3 + j]) == rep.lte[i][j]
            assert float(cells[5 + j]) == rep.runmax[i][j]


def test_emit_csv_omits_lte_without_exact(tmp_path):
    rep = converge(builtin("S2"), problem("P2"), dts=(0.125, 0.0625, 0.03125))
    path = tmp_path / "p2.csv"
    emit_csv(rep, path)
    header = path.read_text().split("\n", 1)[0]
    assert header == "dt,global_err_comp_0,global_err_comp_1"


def test_emit_plot_script_structure(tmp_path):
    rep = converge(builtin("S2"), problem("P1"), dts=(0.125, 0.0625, 0.03125))
    path = tmp_path / "conv.gp"
    emit_plot_script(rep, path)
    text = path.read_text()
    assert "$DATA << EOD" in text
    assert "\nEOD\n" in text
    assert "set logscale xy" in text
    assert "set terminal pngcairo" in text
    assert "guide_q(x)" in text and "x**2" in text
    assert "guide_q1(x)" in text and "x**3" in text
    assert "linespoints" in text
    assert "set output 'conv.png'" in text


def test_emit_plot_script_quotes_names(tmp_path):
    # A ' in a scheme name or in the file stem is doubled inside gnuplot's
    # single-quoted strings; the script keeps the lines it has for S2.
    rep = converge(builtin("S2"), problem("P1"), dts=(0.125, 0.0625, 0.03125))
    emit_plot_script(rep, tmp_path / "conv.gp")
    plain = (tmp_path / "conv.gp").read_text().split("\n")
    rep.scheme_name = "O'Brien"
    emit_plot_script(rep, tmp_path / "it's.gp")
    quoted = (tmp_path / "it's.gp").read_text().split("\n")
    changed = [(a, b) for a, b in zip(plain, quoted) if a != b]
    assert len(quoted) == len(plain)
    assert changed == [
        ("# convergence of S2 on P1", "# convergence of O'Brien on P1"),
        ("set output 'conv.png'", "set output 'it''s.png'"),
        ("set title 'S2 on P1'", "set title 'O''Brien on P1'"),
    ]
    # A newline in the file stem cannot be quoted: nothing is written.
    path = tmp_path / "a\nprint 42\n#.gp"
    with pytest.raises(ValueError, match="cannot write .* into a gnuplot string"):
        emit_plot_script(rep, path)
    assert not path.exists()


def test_emit_plot_script_renders_if_gnuplot_present(tmp_path):
    if shutil.which("gnuplot") is None:
        pytest.skip("gnuplot not installed")
    rep = converge(builtin("S2"), problem("P1"), dts=(0.125, 0.0625, 0.03125))
    path = tmp_path / "conv.gp"
    emit_plot_script(rep, path)
    subprocess.run(["gnuplot", "conv.gp"], cwd=tmp_path, check=True, timeout=60)
    assert (tmp_path / "conv.png").stat().st_size > 0
