"""Floating-point time stepping for block one-step schemes.

A block is an (s, dim) array of s solution rows, row j of block n
approximating u at n * dt + c_in[j] * dt.  One step maps the block to

    V_{n+1} = A V_n + dt * B * F(V_n)

where F evaluates the right-hand side on the whole block in one call (see
Problem).  The exact rational matrices are read through Scheme.float_tables,
rendered to double once per scheme, so runs are bitwise reproducible.

One kernel, _advance, makes that step, with both finiteness checks, for one
block (step), a stack of lanes (march) or the exact blocks of a ladder
(_defect), at the row times n dt + c_j dt that _row_times alone computes,
and builds the combine in place in one result array.  march is the one
stepping loop: it runs a dt ladder in lockstep, one rhs call and one combine
per time level, takes the row times of every lane for _CHUNK levels at a
time from one _row_times call, and keeps every block of every run, bit for
bit those of separate runs; integrate is march on one lane.  _grid decides
each run's step count, at most 2^53, on dt and T exactly as given (dt = 1/3
reaches T = 5/3), and is the one check of a step size (bootstrap and step
ask it with T = 0); march's core, _march, takes the decided (step count,
dt) pairs, so a caller that has decided them already (a convergence study,
integrate) asks _grid once per run.  exact.to_double renders each value to
double once, naming a value that leaves double range.

Also here: the built-in test problems P1-P4, starting-value bootstrap, a
doubling-verified RK4 reference oracle, and the local truncation error, the
kernel's defect on the exact blocks.  _exact_table evaluates the closed form
once at the row times of blocks 0..N of every run of a ladder, and _defect
steps every block of it but each run's last in one _advance call; a
closed-form convergence study reads its starts, references, run-max errors
and LTE off that one table, and measure_lte is the same pair on one run.

All classical RK4 work goes through one forward march, _rk4_sweep, which
serves any times in [0, T] in increasing order, each off its grid by one
partial RK4 step from the grid value before it; to T = 0 it takes no step.
bootstrap reads every starting row off one such march when there is no
exact solution.  rk4_reference starts from a step count set by its horizon,
about 512 steps per unit of time, and doubles it until two successive
marches agree, each doubling adding one march, so a convergence study takes
its reference values and its starting rows (passed to march as `starts`)
from one verified sweep.  Its state and stages are lists of Python floats,
stepped by one RK4 step unrolled over the components, generated once per
dim (_rk4_step_for), bit for bit the values of the numpy formula.  P2's rhs
carries its formula on floats (on_floats), which the march calls directly:
about 1.1 us a step, against 5.3 us through the adapter every other rhs
takes (a fresh array per stage, the shape check, tolist()) and 9 us on
arrays.  Every problem without a closed form here has dim <= 2, where the
adapter, too, beats arrays (about x2 at dim 2); they break even near dim
16, and above it arrays win (see _rk4_step_for).
P2's rhs evaluates one state on Python floats and a batch on arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .exact import to_double
from .scheme import Scheme


@dataclass(frozen=True, eq=False)
class Problem:
    """ODE initial-value problem u' = rhs(t, u), u(0) = u0, batched component
    axis first: rhs maps u of shape (dim,) at a scalar t, or (dim, k) at t of
    shape (k,), to an array of u's shape; exact(t) has shape (dim,) + np.shape(t)."""

    name: str
    rhs: Callable[[float | np.ndarray, np.ndarray], np.ndarray]
    exact: Optional[Callable[[float | np.ndarray], np.ndarray]]
    u0: np.ndarray

    @property
    def dim(self) -> int:
        return self.u0.shape[0]


def make_problem(name, rhs, exact, u0) -> Problem:
    """A Problem from u0 (flattened) at t = 0, checked against exact(0) and the batch contract."""
    u0 = np.array(u0, dtype=float).ravel()
    u0.setflags(write=False)
    dim = u0.shape[0]
    ts = np.zeros(dim + 1)  # never square: a transposed result cannot pass
    probes = {"rhs": lambda: rhs(ts, u0[:, None] + 0 * ts)}
    if exact is not None:
        err = float(np.max(np.abs(np.asarray(exact(0.0), dtype=float) - u0)))
        if err > 1e-14:
            raise ValueError(f"exact(t0) does not match u0 (difference {err:g})")
        probes["exact"] = lambda: exact(ts)
    for what, probe in probes.items():
        try:
            got = getattr(probe(), "shape", "a non-array")
        except (TypeError, ValueError, IndexError) as exc:
            got = f"{type(exc).__name__}: {exc}"
        if got != (dim, dim + 1):
            raise ValueError(f"{what} breaks the batch contract: got {got}, need {(dim, dim + 1)}")
    return Problem(name=name, rhs=rhs, exact=exact, u0=u0)


def _vdp_on_floats(t, u):
    # P2's formula, once: on a list [x, y] of floats, or on the rows of a batch.
    x, y = u
    return [y, 0.1 * (1.0 - x * x) * y - x]


def _vdp(t, u):
    # One state on Python floats, a batch on arrays: the same IEEE operations.
    return np.array(_vdp_on_floats(t, u.tolist() if u.ndim == 1 else u))


_vdp.on_floats = _vdp_on_floats  # the RK4 march's form of P2 (see _on_floats)


_PROBLEMS = {  # name: (rhs, exact or None, u0)
    # u' = -u^2, u(0) = 1, exact solution 1/(1+t).
    "P1": (lambda t, u: -u * u, lambda t: np.array([1.0 / (1.0 + t)]), [1.0]),
    # Van der Pol oscillator with mu = 0.1; no closed-form solution.
    "P2": (_vdp, None, [2.0, 0.0]),
    # u' = -u, exact exp(-t).
    "P3": (lambda t, u: -u, lambda t: np.array([np.exp(-t)]), [1.0]),
    # u' = cos(t) u, exact exp(sin t); a variable-coefficient linear test.
    "P4": (lambda t, u: np.cos(t) * u, lambda t: np.array([np.exp(np.sin(t))]), [1.0]),
}
PROBLEM_NAMES = tuple(_PROBLEMS)


def problem(name: str) -> Problem:
    """Return a built-in problem by name (P1-P4), checked by make_problem."""
    try:
        entry = _PROBLEMS[name]
    except KeyError:
        raise ValueError(f"unknown problem: {name!r}") from None
    return make_problem(name, *entry)


def _row_times(c, n, dt):
    """Time of the row at abscissa c of block n, step dt, broadcast; the only such formula."""
    return n * dt + c * dt


def _advance(scheme: Scheme, prob: Problem, n, V: np.ndarray, dt, times) -> np.ndarray:
    """The block step A V + dt B F(V) for blocks n, in one rhs call at their row times.

    V is one block (s, dim), or a stack (L, s, dim) with dt one double or
    of shape (L, 1, 1) or V's; times holds the row times of every row of
    the stack, in its order, as _row_times gives them.  n numbers the blocks, one int
    for the whole stack or one per block, and a finiteness error names the
    step n + 1 of the first block that fails.  Here alone the rhs shape is
    checked, and the combine made in place: dt B F, then + A V.
    """
    A, B, _ = scheme.float_tables
    rows = V.reshape(-1, V.shape[-1]).T  # every row of the stack as a column
    F = prob.rhs(times, rows)
    if F.shape != rows.shape:
        raise ValueError(f"rhs breaks the batch contract: {F.shape} for {rows.shape}")
    F = F.T.reshape(V.shape)
    if np.count_nonzero(np.isfinite(F)) < F.size:  # cheaper per level than .all()
        raise _non_finite(n, F)
    values = np.matmul(B, F)
    values *= dt
    values += np.matmul(A, V)
    if np.count_nonzero(np.isfinite(values)) < values.size:
        raise _non_finite(n, values)
    return values


def _non_finite(n, values):
    """The error naming the first block of values, numbered n (an int or one per block),
    that is not finite."""
    bad = ~np.isfinite(values).all(axis=(-2, -1))
    return ValueError(f"non-finite state at step {np.broadcast_to(n, bad.shape)[bad].min() + 1}")


def step(scheme: Scheme, prob: Problem, V: np.ndarray, dt, n: int = 0) -> np.ndarray:
    """Block n + 1 from block n, V, both (s, dim) arrays; dt, a float or an
    exact Fraction, is checked by _grid as every run's is and used as its double."""
    dt = _grid(dt, 0)[1]
    return _advance(scheme, prob, n, V, dt, _row_times(scheme.float_tables[2], n, dt))


@functools.cache
def _rk4_step_for(dim: int):
    """One classical RK4 step for states of dim components, generated once per dim.

    The step maps (f, t, u, h) to the state after one step of size h from
    (t, u), u and the result lists of floats, where f maps (t, list of
    floats) to a list of floats (see _on_floats).  The source below writes
    the formula unrolled over named components, x0, x1, ... and stages a0,
    b0, c0, d0, ...: the stage arguments x + h/2 k and the combine
    x + h/6 (k1 + 2 k2 + 2 k3 + k4) make, per component, the IEEE
    operations of numpy's elementwise ones, in the same order, so the
    result is bit for bit that of the same formula on arrays.  Unpacking
    u and each stage by name raises ValueError for a list of another
    length.

    Measured per step on x86-64, Python 3.11, numpy 2.4 (timeit, best of
    7): P2 takes 1.1-1.2 us on its own float form, 5.2-5.7 us through the
    adapter (a wrapper of its rhs) and 8.9-9.4 us as the same formula on
    arrays; P1 takes 5.2-5.5 us through the adapter, 9.8-10.6 us on arrays.
    With rhs = -u the adapter path beats arrays x2.0-2.2 at dim 1 and 2,
    x1.5-1.7 at dim 4 and x1.3 at dim 8, breaks even at dim 16 and loses
    above it (x0.75 at dim 24, x0.4 at dim 64).  Generating the step takes
    0.2-0.7 ms up to dim 16 and 2.4 ms at dim 64, once per process.  Every
    problem the RK4 path serves has dim <= 2.
    """
    def row(form):  # form once per component, with # standing for its index
        return ", ".join(form.replace("#", str(i)) for i in range(dim))

    source = f"""def rk4_step(f, t, u, h):
    [{row("x#")}] = u
    h2 = h / 2
    [{row("a#")}] = f(t, u)
    [{row("b#")}] = f(t + h2, [{row("x# + h2 * a#")}])
    [{row("c#")}] = f(t + h2, [{row("x# + h2 * b#")}])
    [{row("d#")}] = f(t + h, [{row("x# + h * c#")}])
    h6 = h / 6
    return [{row("x# + h6 * (a# + 2 * b# + 2 * c# + d#)")}]
"""
    namespace = {}
    exec(source, namespace)
    return namespace["rk4_step"]


def _on_floats(rhs, dim):
    """rhs as a function of (t, list of floats) to a list of floats, for the RK4 march.

    A built-in rhs carries that form as its on_floats attribute.  Any other
    rhs takes the adapter, a wrapper of a built-in one included (one made by
    functools.wraps has a copied on_floats, and __wrapped__), so the wrapper
    sees every call.  The adapter gives the rhs a fresh (dim,) float64 array
    at the Python float t and checks that its result has shape (dim,).
    """
    own = getattr(rhs, "on_floats", None)
    if own is not None and not hasattr(rhs, "__wrapped__"):
        return own
    shape = (dim,)

    def adapted(t, u):
        k = rhs(t, np.array(u))
        got = getattr(k, "shape", "a non-array")
        if got != shape:
            raise ValueError(f"rhs breaks the contract at a scalar t: {got} for {shape}")
        return k.tolist()

    return adapted


def bootstrap(scheme: Scheme, prob: Problem, dt, n_sub: int = 1000) -> np.ndarray:
    """Block 0, a C-contiguous (s, dim) array of starting rows at t = 0.

    Rows come from the exact solution when the problem has one.  Otherwise
    one classical RK4 march of (s - 1) * n_sub steps from 0 to c_in[0] * dt
    fills them, each row read off it at c_in[j] * dt; for evenly spaced
    abscissae that is n_sub steps per abscissa interval.  The starter error
    stays far below any order visible at these step sizes.  Row s - 1 sits
    at 0 and is u0 itself: a one-row scheme takes no RK4 step.  dt may be a
    float or an exact Fraction; _grid checks it, and the rows use its double.
    """
    dt = _grid(dt, 0)[1]
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    times = _row_times(scheme.float_tables[2], 0, dt)
    if prob.exact is not None:
        values = _closed_form(prob, times).T.copy()  # C order, (s, dim)
    else:
        times = times.tolist()  # Python floats: cheap scalar RK4 arithmetic
        values = _rk4_sweep(prob, times[0], (scheme.s - 1) * n_sub, times)
    if not np.isfinite(values).all():
        raise ValueError("non-finite state at step 0")
    return values


def _grid(dt, T) -> tuple[int, float]:
    """(number of steps from 0 to T, dt as a double); every run's grid is decided here.

    Accepts dt > 0 and T >= 0 when T/dt, on dt and T as given, is an integer
    in rational arithmetic, or within half an ulp of a positive integer in
    floating point (dt = 0.1 to T = 1.0); the caller adjusts dt otherwise.
    """
    dtf, Tf = to_double(dt, "dt"), to_double(T, "T")
    if dtf <= 0:
        raise ValueError("non-positive step")
    if Tf < 0:
        raise ValueError("T must be >= t0 = 0")
    ratio = Fraction(T) / Fraction(dt)
    x = Tf / dtf
    if x > 2**53 or ratio > 2**53:  # past 2^53 steps, two blocks would share a time
        raise ValueError(f"T = {Tf:g} takes more than 2^53 steps of dt = {dtf:g}")
    if ratio.denominator == 1:
        return int(ratio), dtf
    n = round(x)
    if n >= 1 and abs(x - n) <= 0.5 * math.ulp(max(1.0, x)):
        return n, dtf
    raise ValueError("T not reachable with this dt")


def _check_marches(scheme: Scheme) -> None:
    """Raise ValueError unless scheme.marches."""
    if not scheme.marches:
        raise ValueError("scheme does not march: c_out must equal c_in + 1")


def integrate(scheme: Scheme, prob: Problem, dt, T) -> np.ndarray:
    """Every block from the bootstrap rows to T, shape (N + 1, s, dim), block n
    at n * dt.  dt and T may be floats or exact Fractions; _grid decides N on
    them as given, and stepping uses dt's double.  The scheme must march."""
    _check_marches(scheme)
    grid = _grid(dt, T)  # T is checked before the bootstrap works
    return _march(scheme, prob, [grid], [bootstrap(scheme, prob, dt)])[0]


_CHUNK = 512  # time levels whose row times march computes in one _row_times call


def march(scheme: Scheme, prob: Problem, dts, T: float, starts) -> list[np.ndarray]:
    """Every block of stepping to T from the given starting rows, one (s, dim)
    array per dt, for every dt of a ladder, bit for bit, in the order of dts:
    run i is one C-contiguous lane of shape (N_i + 1, s, dim), block n at
    n * dt_i.

    Time level k makes one rhs call and one combine (_advance) for the stack
    of every run still short of T, each lane on its own row times.  Those
    times come from one _row_times call per _CHUNK levels, shape
    (levels, L, s), so the extra memory is at most _CHUNK * L * s doubles
    whatever N is.  Lanes are kept in decreasing order of step count, so a
    run that reaches T leaves from the end of the stack: max N levels of
    Python work, not sum N.  The storage is lane-major, (L, max N + 1, s,
    dim): a run that leaves early never touches the tail of its lane, so the
    memory touched is about sum N blocks.
    """
    _check_marches(scheme)
    return _march(scheme, prob, [_grid(dt, T) for dt in dts], starts)


def _march(scheme: Scheme, prob: Problem, grids, starts) -> list[np.ndarray]:
    """march on runs whose grids are decided: one (step count, dt as a double)
    pair per run, as _grid gives them, for a scheme that marches.  The start
    rows are checked here.  Each lane's step size is broadcast to its rows
    and components once, so a level's combine multiplies same-shape arrays.
    """
    V = np.array(starts, dtype=float)
    need = (len(grids), scheme.s, prob.dim)
    if V.shape != need:
        raise ValueError(f"start rows have shape {V.shape}, need {need}")
    if not np.isfinite(V).all():
        raise ValueError("non-finite state at step 0")
    order = sorted(range(len(grids)), key=lambda i: -grids[i][0])
    steps = [grids[i][0] for i in order]
    blocks = np.empty((len(steps), max(steps, default=0) + 1, *need[1:]))
    blocks[:, 0] = V = V[order]
    lane_dt = np.array([grids[i][1] for i in order])
    h = np.repeat(lane_dt, scheme.s * prob.dim).reshape(V.shape)  # each lane's dt, every entry
    c_in, live, levels = scheme.float_tables[2], len(steps), blocks.shape[1] - 1
    for k in range(levels):
        if steps[live - 1] == k:  # runs that reach T here leave the stack
            live = sum(n > k for n in steps)
            V, h = V[:live], h[:live]
        if k % _CHUNK == 0:  # row times of the next levels, every live lane
            ks = np.arange(k, min(k + _CHUNK, levels))[:, None, None]
            times = _row_times(c_in, ks, lane_dt[:live, None])
        level_times = times[k % _CHUNK, :live].ravel()
        blocks[:live, k + 1] = V = _advance(scheme, prob, k, V, h, level_times)
    return [blocks[lane, : n + 1] for (n, _), lane in zip(grids, np.argsort(order))]


def _rk4_sweep(prob: Problem, T: float, n: int, times) -> np.ndarray:
    # One forward march of n steps on the grid t_k = k*h, t_n = T, serving
    # the times in increasing order: it steps while the next grid point is
    # not past t, then serves the grid value when t_k == t, else one partial
    # step.  n = 0 only when T = 0: the march takes no step and serves u0.
    h = T / max(n, 1)

    def grid(k):
        return T if k == n else k * h

    f, rk4_step = _on_floats(prob.rhs, prob.dim), _rk4_step_for(prob.dim)
    out = np.empty((len(times), prob.dim))
    u = prob.u0.tolist()
    k = 0
    for t, i in sorted(zip(times, range(len(times)))):
        while k < n and grid(k + 1) <= t:
            u = rk4_step(f, k * h, u, h)
            k += 1
        tk = grid(k)
        out[i] = u if t == tk else rk4_step(f, tk, u, t - tk)
    return out


_REF_START = 512  # coarse steps per unit of T that rk4_reference starts from
_REF_LIMIT = 2**22  # the largest coarse step count rk4_reference tries


def rk4_reference(prob: Problem, T: float, times) -> tuple[np.ndarray, int]:
    """(values, n): the classical RK4 solution at each time in times, one row
    per time, verified by step doubling with n and 2n steps over [0, T].

    Each requested time lies in [0, T] and is served from the same march (see
    _rk4_sweep).  From n = 2^round(log2(_REF_START * T)), or 1 when
    _REF_START * T <= 1, while the two marches differ by 1e-12 or more at
    some time, n doubles and the finer march becomes the next coarse one;
    values is the finer march of the passing pair.  Raises for a T that is
    not finite, as soon as a march is not finite, and once n passes
    _REF_LIMIT, before any march when the start already does.
    """
    T = float(T)
    if not math.isfinite(T):
        raise ValueError(f"reference horizon T = {T!r} is not finite")
    ts = [float(t) for t in times]
    for t in ts:
        if not 0.0 <= t <= T:
            raise ValueError(f"reference time {t!r} outside [t0, T] = [0.0, {T!r}]")
    # log2(_REF_START * T), summed so that no finite T overflows it.
    n = 1 if _REF_START * T <= 1 else 2 ** round(math.log2(_REF_START) + math.log2(T))
    if n > _REF_LIMIT:
        raise ValueError("reference not converged")
    fine = _rk4_sweep(prob, T, n, ts)
    while np.isfinite(fine).all():
        if n > _REF_LIMIT:
            raise ValueError("reference not converged")
        coarse, fine = fine, _rk4_sweep(prob, T, 2 * n, ts)
        # A NaN or inf in the finer march fails this test, and then the loop's.
        if float(np.max(np.abs(coarse - fine), initial=0.0)) < 1e-12:
            return fine, n
        n *= 2
    raise ValueError("non-finite RK4 reference")


def _closed_form(prob: Problem, t: np.ndarray) -> np.ndarray:
    """prob.exact(t) as doubles; an error names the first time where it is not finite."""
    values = np.asarray(prob.exact(t), dtype=float)
    if not np.isfinite(values).all():
        bad = t[~np.isfinite(values).all(axis=0)]
        raise ValueError(f"non-finite exact solution at t = {float(bad.min())!r}")
    return values


def _exact_table(scheme: Scheme, prob: Problem, steps, dts):
    """(n, dt, times, U): the exact blocks 0..N of every run, run after run.

    Run i takes steps[i] steps of dts[i], a double.  Row m of the table is
    block n[m] of its run, with step dt[m] and the kernel's row times
    times[m] = n dt + c_in dt from _row_times, and U[m], shape (s, dim), is
    the closed form there, from one _closed_form call for the whole table.
    """
    sizes = np.add(steps, 1)
    n = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    dt = np.repeat(dts, sizes)
    times = _row_times(scheme.float_tables[2], n[:, None], dt[:, None])
    return n, dt, times, _closed_form(prob, times).transpose(1, 2, 0)


def _defect(scheme: Scheme, prob: Problem, steps, table) -> np.ndarray:
    """Max |tau_n| per run and block component, shape (runs, s), over every
    step of each run of an _exact_table; every run takes a step, or none does.

    tau_n = (U_{n+1} - A U_n - dt B F(U_n)) / dt, the kernel's defect on
    the exact blocks U_n: one _advance of every block but each run's last.
    As in march, a finiteness error names step k + 1 for the first block k
    that fails.
    """
    n, dt, times, U = table
    k = np.flatnonzero(n < np.repeat(steps, np.add(steps, 1)))  # all but each run's last block
    if not k.size:
        return np.zeros((len(steps), scheme.s))
    h = dt[k, None, None]
    tau = np.abs((U[k + 1] - _advance(scheme, prob, n[k], U[k], h, times[k].ravel())) / h)
    return np.maximum.reduceat(tau.max(axis=2), np.cumsum(steps) - steps)


def measure_lte(scheme: Scheme, prob: Problem, dt, T: float) -> np.ndarray:
    """Max |tau_n| per block component over all steps to T, the _defect of
    one run: one exact call at the kernel's row times n dt + c_in dt of
    blocks 0..N and one _advance of blocks 0..N-1.  The scheme must march,
    and the exact solution and the rhs on it must be finite; as in march,
    the error names step k + 1 for the first block k that is not.
    """
    _check_marches(scheme)
    if prob.exact is None:
        raise ValueError("missing exact solution")
    n_steps, dtf = _grid(dt, T)
    return _defect(scheme, prob, [n_steps], _exact_table(scheme, prob, [n_steps], [dtf]))[0]
