"""Convergence studies over a dt ladder.

For each step size the scheme is run to the horizon T and the final block is
compared per component against the exact solution (or a doubling-verified
RK4 reference when no closed form exists); when an exact solution is present
the local truncation error is measured as well.  Log-log slopes quantify the
orders: an error-inhibiting scheme shows a global slope one above its LTE
slope, a plain scheme shows equal slopes.

Each study makes one oracle call for every time it needs: the reference
values at T + c_j dt and the starting rows at c_j dt, for every dt of
the ladder.  The oracle is the closed form when there is one, otherwise one
doubling-verified RK4 sweep.  Nothing is kept between studies.  The ladder
is checked before any of that work starts.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis
from .integrate import NonFiniteReference, Problem, _check_marches, _step_count, measure_lte
from .integrate import integrate as run_integration, rk4_reference
from .scheme import Scheme

STANDARD_DTS = (
    0.125,
    0.0625,
    0.03125,
    0.015625,
    0.0078125,
)  # 1/8 .. 1/128: integer step counts at T = 1, errors well above rounding

_REF_START = 2048
_REF_LIMIT = 2**22


@dataclass
class ConvergenceReport:
    scheme_name: str
    problem_name: str
    q: int  # truncation order (LTE order) of the scheme
    dts: list[float]  # strictly decreasing
    global_err: list[np.ndarray]  # per dt, per block component
    lte: Optional[list[np.ndarray]]  # per dt, per component; None without exact
    global_slopes: np.ndarray  # per component
    lte_slopes: Optional[np.ndarray]
    maxnorm_global_slope: float  # slope of max-over-components error
    maxnorm_lte_slope: Optional[float]
    reference: str  # provenance: "exact" or the rk4 escalation summary


def fit_slope(points) -> float:
    """Least-squares slope of log2(err) against log2(dt).

    Nonpositive error values cannot enter the log fit; they are dropped with
    a warning, and fewer than three surviving points is an error.
    """
    pts = list(points)
    kept = [(d, e) for d, e in pts if e > 0]
    if len(kept) < len(pts):
        warnings.warn(
            f"fit_slope: excluded {len(pts) - len(kept)} nonpositive error value(s)",
            stacklevel=2,
        )
    if len(kept) < 3:
        raise ValueError("need >=3 dt values")
    x = np.log2([d for d, _ in kept])
    y = np.log2([e for _, e in kept])
    dx = x - x.mean()
    dy = y - y.mean()
    return float(dx @ dy / (dx @ dx))


def _oracle(prob, times):
    """(values, provenance) at each time, one row per time.

    A closed form is evaluated once on all times.  Otherwise one RK4 sweep up
    to the largest time serves them all, in any order and with repeats; its
    n_steps doubles from _REF_START until the doubling check passes at every
    time.
    """
    if prob.exact is not None:
        return np.asarray(prob.exact(np.array(times)), dtype=float).T, "exact"
    n = _REF_START
    while True:
        try:
            values = rk4_reference(prob, max(times), n, times=times)
            return values, f"rk4 (doubling-verified, n_steps up to {n})"
        except ValueError as exc:
            n *= 2
            if n > _REF_LIMIT or isinstance(exc, NonFiniteReference):
                raise


def _slopes(dts, rows):
    """Per-component and max-norm slopes of per-dt error rows; None for None."""
    if rows is None:
        return None, None
    errs = np.array(rows)  # (n_dt, s)
    per_component = np.array([fit_slope(zip(dts, col)) for col in errs.T])
    return per_component, fit_slope(zip(dts, errs.max(axis=1)))


def _check_ladder(scheme, dt_list, T):
    # Every cause a study would otherwise fail on after doing its work.
    _check_marches(scheme)
    if len(dt_list) < 3:
        raise ValueError("need >=3 dt values")
    if len(set(dt_list)) != len(dt_list):
        raise ValueError("duplicate dt values")
    if not float(T) > 0:
        raise ValueError("T must exceed t0 = 0")
    for dt in dt_list:
        _step_count(dt, T)


def converge(scheme: Scheme, prob: Problem, dts=STANDARD_DTS, T: float = 1.0) -> ConvergenceReport:
    """Run the dt ladder and fit per-component global and LTE slopes.

    The scheme must march and the ladder needs at least three distinct positive
    dts that each reach T > 0 in whole steps, checked before any work.  One
    oracle call gives the references and the starting rows of every run.
    """
    dt_list = sorted((float(d) for d in dts), reverse=True)
    _check_ladder(scheme, dt_list, T)
    c_in = scheme.float_tables[2].tolist()
    ends = [float(T) + c * dt for dt in dt_list for c in c_in]
    begins = [c * dt for dt in dt_list for c in c_in]
    values, reference = _oracle(prob, ends + begins)
    # per half, per dt, one row per abscissa
    refs, starts = values.reshape((2, len(dt_list), scheme.s, prob.dim))

    global_err = []
    for dt, ref, start in zip(dt_list, refs, starts):
        final = run_integration(scheme, prob, dt, T, final_only=True, start=start)[-1]
        global_err.append(np.abs(final.values - ref).max(axis=1))
    lte = [measure_lte(scheme, prob, dt, T) for dt in dt_list] if prob.exact is not None else None
    global_slopes, maxnorm_global = _slopes(dt_list, global_err)
    lte_slopes, maxnorm_lte = _slopes(dt_list, lte)

    return ConvergenceReport(
        scheme_name=scheme.name,
        problem_name=prob.name,
        q=analysis.truncation_order(scheme).q,
        dts=dt_list,
        global_err=global_err,
        lte=lte,
        global_slopes=global_slopes,
        lte_slopes=lte_slopes,
        maxnorm_global_slope=maxnorm_global,
        maxnorm_lte_slope=maxnorm_lte,
        reference=reference,
    )


def _g(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row of numbers, each in round-trip
    .17g, to path, or to stdout when there is no path."""
    text = "\n".join([",".join(header)] + [",".join(map(_g, row)) for row in rows]) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _rows(report: ConvergenceReport) -> list[tuple]:
    # Per dt: dt, the global errors, then the LTE values when measured.
    lte = report.lte if report.lte is not None else [()] * len(report.dts)
    return [(dt, *e, *v) for dt, e, v in zip(report.dts, report.global_err, lte)]


def emit_csv(report: ConvergenceReport, path) -> None:
    """Write the per-dt table; LTE columns appear only when measured."""
    s = len(report.global_err[0])
    cols = ["dt"] + [f"global_err_comp_{j}" for j in range(s)]
    if report.lte is not None:
        cols += [f"lte_comp_{j}" for j in range(s)]
    write_csv(path, cols, _rows(report))


def emit_plot_script(report: ConvergenceReport, path) -> None:
    """Write a standalone gnuplot script (data inlined) for the log-log plot.

    Guide lines with slopes q and q+1 are anchored at the coarsest dt so the
    measured curves can be read against the expected orders.
    """
    s = len(report.global_err[0])
    q = report.q
    stem = os.path.splitext(os.path.basename(str(path)))[0]

    dt0 = report.dts[0]
    e0 = float(np.max(report.global_err[0]))
    cq = e0 / dt0**q
    cq1 = e0 / dt0 ** (q + 1)

    lines = [
        f"# convergence of {report.scheme_name} on {report.problem_name}",
        f"# reference: {report.reference}",
        "set terminal pngcairo size 900,700",
        f"set output '{stem}.png'",
        "set logscale xy",
        "set format y '10^{%T}'",
        "set xlabel 'dt'",
        "set ylabel 'error at T'",
        "set key bottom right",
        f"set title '{report.scheme_name} on {report.problem_name}'",
        "$DATA << EOD",
    ]
    lines += [" ".join(map(_g, row)) for row in _rows(report)]
    lines.append("EOD")
    lines.append(f"guide_q(x) = {cq:.6g} * x**{q}")
    lines.append(f"guide_q1(x) = {cq1:.6g} * x**{q + 1}")
    plots = [
        f"$DATA using 1:{2 + j} with linespoints title 'global comp {j}'"
        for j in range(s)
    ]
    if report.lte is not None:
        plots += [
            f"$DATA using 1:{2 + s + j} with linespoints dashtype 2 title 'LTE comp {j}'"
            for j in range(s)
        ]
    plots.append(f"guide_q(x) with lines dashtype 3 title 'slope {q}'")
    plots.append(f"guide_q1(x) with lines dashtype 3 title 'slope {q + 1}'")
    lines.append("plot \\")
    lines.append(", \\\n".join("    " + p for p in plots))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
