import dataclasses
import shutil
import subprocess
from fractions import Fraction as F

import numpy as np
import pytest

from blockstep.derive import assemble, search_s2
from blockstep.harness import (
    STANDARD_DTS,
    converge,
    emit_csv,
    emit_plot_script,
    fit_slope,
)
from blockstep import harness
from blockstep.integrate import NonFiniteReference, make_problem, problem
from blockstep.scheme import builtin, make_scheme


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


def test_converge_rejects_duplicate_dts():
    with pytest.raises(ValueError, match="duplicate dt values"):
        converge(builtin("S2"), problem("P1"), dts=(0.125, 0.125, 0.0625))


def _counting(prob):
    calls = []

    def rhs(t, u):
        calls.append(t)
        return prob.rhs(t, u)

    return dataclasses.replace(prob, rhs=rhs), calls


@pytest.mark.parametrize(
    "dts, T, message",
    [
        ((0.125, 0.0625), 1.0, "need >=3 dt values"),
        ((0.125, 0.0625, 0.03125), 0.0, "T must exceed t0"),
        ((0.125, 0.0625, 0.03125), -1.0, "T must exceed t0"),
        ((0.125, 0.0625, -0.03125), 1.0, "non-positive step"),
        ((0.125, 0.0625, 0.0), 1.0, "non-positive step"),
        ((0.125, 0.0625, 0.3), 1.0, "T not reachable with this dt"),
    ],
)
def test_converge_checks_the_ladder_before_any_work(dts, T, message):
    for name in ("P1", "P2"):
        prob, calls = _counting(problem(name))
        with pytest.raises(ValueError, match=message):
            converge(builtin("S3A"), prob, dts=dts, T=T)
        assert calls == [], name


def test_converge_rejects_a_scheme_that_does_not_march_before_any_work():
    s2 = builtin("S2")
    stuck = make_scheme("stuck", s2.c_in, (F(2), F(1)), s2.A, s2.B)  # c_out[0] = c_in[0] + 3/2
    for name in ("P1", "P2"):
        prob, calls = _counting(problem(name))
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
    # One call serves every reference and starting row; measure_lte makes
    # two per dt (one per block side).
    prob = problem("P4")
    calls = []

    def exact(t):
        calls.append(t)
        return prob.exact(t)

    dts = (0.125, 0.0625, 0.03125, 0.015625)
    converge(builtin("S3A"), dataclasses.replace(prob, exact=exact), dts=dts)
    assert len(calls) == 1 + 2 * len(dts)
    assert len(calls[0]) == 2 * 3 * len(dts)  # T + c dt and c dt, c in c_in


def test_converge_fails_on_a_non_finite_reference_after_one_sweep(monkeypatch):
    # The pole of u' = -u^2, u(0) = -1 at t = 1 lies before T = 2: doubling
    # the steps cannot help, so the first sweep's error ends the study.
    sweeps, sweep = [], harness.rk4_reference

    def counted(*args, **kwargs):
        sweeps.append(args[2])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(harness, "rk4_reference", counted)
    prob = make_problem("pole", lambda t, u: -u * u, None, [-1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteReference):
            converge(builtin("S2"), prob, dts=(0.125, 0.0625, 0.03125), T=2.0)
    assert sweeps == [2048]


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
    assert lines[0] == "dt,global_err_comp_0,global_err_comp_1,lte_comp_0,lte_comp_1"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[0]) == rep.dts[i]
        for j in range(2):
            assert float(cells[1 + j]) == rep.global_err[i][j]
            assert float(cells[3 + j]) == rep.lte[i][j]


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


def test_emit_plot_script_renders_if_gnuplot_present(tmp_path):
    if shutil.which("gnuplot") is None:
        pytest.skip("gnuplot not installed")
    rep = converge(builtin("S2"), problem("P1"), dts=(0.125, 0.0625, 0.03125))
    path = tmp_path / "conv.gp"
    emit_plot_script(rep, path)
    subprocess.run(["gnuplot", "conv.gp"], cwd=tmp_path, check=True, timeout=60)
    assert (tmp_path / "conv.png").stat().st_size > 0
