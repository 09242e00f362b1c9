"""Convergence studies over a dt ladder.

For each step size the scheme is run to the horizon T and the final block is
compared per component against the exact solution (or a doubling-verified
RK4 reference when no closed form exists).  With an exact solution the
local truncation error is measured as well, and so is the run-max error:
the largest error over every row of every block of the run.  Log-log slopes
quantify the orders: an error-inhibiting scheme shows a global slope one
above its LTE slope, a plain scheme shows equal slopes.  The error at T
alone can sit near a zero of its leading term (BUTCHER2 on P4 at T = 3
reads 3.7 there, for a scheme of order 2); the run-max slope cannot.

A closed-form study makes one exact call, at the row times of blocks 0..N
of every dt (integrate._exact_table, from integrate._row_times like the
step kernel's own row times).  Block 0 of each run gives its starting rows,
block N its reference and every block its run-max error; one
integrate._defect step of every block but each run's last gives every LTE.
Without a closed form, one rk4_reference call at the row times of the first
block (the starting rows) and of the final block (the reference values) of
every dt serves the study; it doubles its own step count until two
successive RK4 marches agree.  Asking it at every row would cost about 42%
more RK4 steps, so such a study has no LTE and no run-max.  Every block of
every dt comes from one lockstep march (integrate.march, bound here as
run_integration), max N time levels for the whole ladder, and every slope
of a study is fitted against one log2(dt) vector.  Nothing is kept between
studies.  The ladder is checked before any of that work starts, its step
counts decided by integrate._grid on dt and T as given (0.1, 0.05, 0.025
reach T = 3/10).
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis
from .integrate import Problem, _check_marches, _defect, _exact_table, _grid, _row_times
from .integrate import measure_lte  # noqa: F401  (the benchmark tracer wraps this name)
from .integrate import march as run_integration, rk4_reference
from .scheme import Scheme

STANDARD_DTS = (
    0.125,
    0.0625,
    0.03125,
    0.015625,
    0.0078125,
)  # 1/8 .. 1/128: integer step counts at T = 1, errors well above rounding


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
    runmax: Optional[list[np.ndarray]]  # per dt, per component, max over the run; None without exact
    runmax_slopes: Optional[np.ndarray]
    maxnorm_runmax_slope: Optional[float]


def fit_slope(points) -> float:
    """Least-squares slope of log2(err) against log2(dt).

    Nonpositive error values cannot enter the log fit; they are dropped with
    a warning.  Fewer than three kept points or two distinct dts is an error.
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
    if len(set(x.tolist())) < 2:
        raise ValueError("need >=2 distinct dt values")
    return _fit(x - x.mean(), np.log2([[e for _, e in kept]]))[0]


def _fit(dx, y) -> list[float]:
    """The least-squares slope of each row of y, log2(err), against dx,
    log2(dt) less its mean."""
    dy = y - y.mean(axis=1, keepdims=True)
    return [float(dx @ row / (dx @ dx)) for row in dy]


def _slopes(dts, dx, rows):
    """Per-component and max-norm slopes of per-dt error rows; None for None.

    Each is fit_slope's for its column, bit for bit.  dx is log2(dts) less
    its mean, computed once per study, or None when fit_slope would refuse
    the dts; when it is None or a value is not positive, fit_slope fits
    each column itself.
    """
    if rows is None:
        return None, None
    errs = np.array(rows)  # (n_dt, s)
    # Every component, then the max-norm, each one C-contiguous row, as in
    # fit_slope: a strided dot product rounds differently.
    cols = np.array([*errs.T, errs.max(axis=1)])
    if dx is not None and (cols > 0).all():
        slopes = _fit(dx, np.log2(cols))
    else:
        slopes = [fit_slope(zip(dts, col)) for col in cols]
    return np.array(slopes[:-1]), slopes[-1]


def _check_ladder(scheme, dts, T):
    """(dt as given, step count, dt as a double) per dt, largest first, after
    checking every cause a study would otherwise fail on after doing its
    work.  _grid decides each step count once, on dt and T as given."""
    _check_marches(scheme)
    if T <= 0:  # a NaN T passes on to _grid, which names it
        raise ValueError("T must exceed t0 = 0")
    ladder = sorted(((dt, *_grid(dt, T)) for dt in dts), key=lambda rung: -rung[2])
    if len(ladder) < 3:
        raise ValueError("need >=3 dt values")
    if len({dtf for _, _, dtf in ladder}) != len(ladder):
        raise ValueError("duplicate dt values")
    return ladder


def _reference_errors(scheme, prob, given, steps, dt_list, T):
    """(global error per dt, provenance) against one rk4_reference call at
    the row times of the first block (the starting rows) and of the final
    block (the reference values) of every run."""
    n = np.outer([0, 1], steps)[:, :, None]
    times = _row_times(scheme.float_tables[2], n, np.array(dt_list)[:, None]).ravel()
    values, n_ref = rk4_reference(prob, times.max(), times=times)
    starts, refs = values.reshape((2, len(dt_list), scheme.s, prob.dim))  # per block, dt, row
    runs = run_integration(scheme, prob, given, T, starts)
    global_err = [np.abs(blocks[-1] - ref).max(axis=1) for blocks, ref in zip(runs, refs)]
    return global_err, f"rk4 (doubling-verified, n_steps up to {n_ref})"


def _exact_errors(scheme, prob, given, steps, dt_list, T):
    """(global error, LTE, run-max error), each per dt, from one exact table
    of blocks 0..N of every run: block 0 gives the starting rows, block N
    the reference, and every block the run-max and the defect."""
    table = _exact_table(scheme, prob, steps, dt_list)
    U = table[3]
    first = np.cumsum(steps) - steps + np.arange(len(steps))  # block 0 of each run
    runs = run_integration(scheme, prob, given, T, U[first])
    err = np.abs(np.concatenate(runs) - U).max(axis=2)  # per block and component
    lte = _defect(scheme, prob, steps, table)
    return list(err[first + steps]), list(lte), list(np.maximum.reduceat(err, first))


def converge(scheme: Scheme, prob: Problem, dts=STANDARD_DTS, T: float = 1.0) -> ConvergenceReport:
    """Run the dt ladder and fit per-component global, LTE and run-max slopes.

    The scheme must march and the ladder needs at least three distinct positive
    dts that each reach T > 0 in whole steps, checked before any work.  One
    oracle call gives the starting rows and the references of every run.
    """
    given, steps, dt_list = map(list, zip(*_check_ladder(scheme, dts, T)))
    if prob.exact is None:
        global_err, reference = _reference_errors(scheme, prob, given, steps, dt_list, T)
        lte = runmax = None
    else:
        global_err, lte, runmax = _exact_errors(scheme, prob, given, steps, dt_list, T)
        reference = "exact"
    x = np.log2(dt_list)
    dx = x - x.mean() if len(set(x.tolist())) > 1 else None
    global_slopes, maxnorm_global = _slopes(dt_list, dx, global_err)
    lte_slopes, maxnorm_lte = _slopes(dt_list, dx, lte)
    runmax_slopes, maxnorm_runmax = _slopes(dt_list, dx, runmax)

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
        runmax=runmax,
        runmax_slopes=runmax_slopes,
        maxnorm_runmax_slope=maxnorm_runmax,
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


def _series(report: ConvergenceReport) -> list[tuple[str, list]]:
    # (CSV name, per-dt rows) of each error series measured, in column order.
    series = (("global_err", report.global_err), ("lte", report.lte), ("runmax", report.runmax))
    return [(name, rows) for name, rows in series if rows is not None]


def _rows(report: ConvergenceReport) -> list[tuple]:
    # Per dt: dt, the global errors, then the LTE and run-max values when measured.
    per_dt = zip(report.dts, *(rows for _, rows in _series(report)))
    return [(dt, *(x for row in rows for x in row)) for dt, *rows in per_dt]


def emit_csv(report: ConvergenceReport, path) -> None:
    """Write the per-dt table; LTE and run-max columns appear only when measured."""
    s = len(report.global_err[0])
    cols = ["dt"] + [f"{name}_comp_{j}" for name, _ in _series(report) for j in range(s)]
    write_csv(path, cols, _rows(report))


def _gp_str(text: str) -> str:
    # A single-quoted gnuplot string; gnuplot reads '' inside it as one '.
    # A newline would end the string and start a command of its own.
    if not text.isprintable():
        raise ValueError(f"cannot write {text!r} into a gnuplot string")
    return "'" + text.replace("'", "''") + "'"


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
        f"set output {_gp_str(stem + '.png')}",
        "set logscale xy",
        "set format y '10^{%T}'",
        "set xlabel 'dt'",
        "set ylabel 'error at T'",
        "set key bottom right",
        f"set title {_gp_str(f'{report.scheme_name} on {report.problem_name}')}",
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
