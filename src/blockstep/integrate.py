"""Floating-point time stepping for block one-step schemes.

A block state holds s solution rows, row j approximating u at
t_n + c_in[j] * dt.  One step maps the block to

    V_{n+1} = A V_n + dt * B * F(V_n)

where F evaluates the right-hand side on the whole block in one call (see
Problem).  The exact rational matrices are read through Scheme.float_tables,
rendered to double once per scheme, so runs are bitwise reproducible.

Also here: the built-in test problems P1-P4, starting-value bootstrap, a
doubling-verified RK4 reference oracle, and measurement of the local
truncation error of the exact solution under a scheme, over all steps at once.

All classical RK4 work goes through one march, _rk4_sweep.  It serves any
set of times in [0, T]: each time off its grid gets one partial RK4 step
from the grid value just before it.  bootstrap reads every starting row off
one such march when there is no exact solution, and rk4_reference checks two
of them against each other, so a convergence study takes its reference values
and its starting rows (passed to integrate as `start`) from one verified sweep.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

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


def make_p1() -> Problem:
    """u' = -u^2, u(0) = 1, exact solution 1/(1+t)."""
    return make_problem(
        "P1",
        lambda t, u: -u * u,
        lambda t: np.array([1.0 / (1.0 + t)]),
        [1.0],
    )


def make_vdp() -> Problem:
    """Van der Pol oscillator with mu = 0.1; no closed-form solution."""

    def rhs(t, u):
        return np.array([u[1], 0.1 * (1.0 - u[0] * u[0]) * u[1] - u[0]])

    return make_problem("P2", rhs, None, [2.0, 0.0])


def make_dahlquist() -> Problem:
    """u' = -u, exact exp(-t)."""
    return make_problem(
        "P3",
        lambda t, u: -u,
        lambda t: np.array([np.exp(-t)]),
        [1.0],
    )


def make_p4() -> Problem:
    """u' = cos(t) u, exact exp(sin t); a variable-coefficient linear test."""
    return make_problem(
        "P4",
        lambda t, u: np.cos(t) * u,
        lambda t: np.array([np.exp(np.sin(t))]),
        [1.0],
    )


_PROBLEM_BUILDERS = {"P1": make_p1, "P2": make_vdp, "P3": make_dahlquist, "P4": make_p4}
PROBLEM_NAMES = tuple(_PROBLEM_BUILDERS)


def problem(name: str) -> Problem:
    try:
        return _PROBLEM_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown problem: {name!r}") from None


@dataclass
class BlockState:
    n: int
    t: float
    values: np.ndarray  # shape (s, dim), row j at time t + c_in[j] * dt


def step(scheme: Scheme, prob: Problem, state: BlockState, dt: float) -> BlockState:
    """Advance one block step of size dt."""
    A, B, c_in, _ = scheme.float_tables
    F = prob.rhs(state.t + c_in * dt, state.values.T).T  # one call, rows as columns
    if F.shape != state.values.shape:
        raise ValueError(f"rhs breaks the batch contract: {F.T.shape} for {state.values.T.shape}")
    if not np.isfinite(F).all():
        raise ValueError(f"non-finite state at step {state.n + 1}")
    values = A.dot(state.values) + dt * B.dot(F)  # .dot: under half of @'s cost at this size
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite state at step {state.n + 1}")
    # Block time from the step count: summing dt would drift for non-dyadic dt.
    return BlockState(n=state.n + 1, t=(state.n + 1) * dt, values=values)


def _rk4_step(rhs, t, u, h):
    k1 = np.asarray(rhs(t, u), dtype=float)
    k2 = np.asarray(rhs(t + h / 2, u + (h / 2) * k1), dtype=float)
    k3 = np.asarray(rhs(t + h / 2, u + (h / 2) * k2), dtype=float)
    k4 = np.asarray(rhs(t + h, u + h * k3), dtype=float)
    return u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def bootstrap(scheme: Scheme, prob: Problem, dt: float, n_sub: int = 1000) -> BlockState:
    """Starting block at t = 0.

    Rows come from the exact solution when the problem has one.  Otherwise
    one classical RK4 march of (s - 1) * n_sub steps from 0 to c_in[0] * dt
    fills them, each row read off it at c_in[j] * dt; for evenly spaced
    abscissae that is n_sub steps per abscissa interval.  The starter error
    stays far below any order visible at these step sizes.  Row s - 1 sits
    at 0 and is u0 itself.
    """
    if dt <= 0:
        raise ValueError("non-positive step")
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    s = scheme.s
    times = scheme.float_tables[2] * dt
    if prob.exact is not None:
        values = prob.exact(times).T.copy()  # C order, (s, dim)
    elif s == 1:
        values = prob.u0[None, :].copy()
    else:
        times = times.tolist()  # Python floats: cheap scalar RK4 arithmetic
        values = _rk4_sweep(prob, times[0], (s - 1) * n_sub, times)
    if not np.isfinite(values).all():
        raise ValueError("non-finite state at step 0")
    return BlockState(n=0, t=0.0, values=values)


def _step_count(dt, T: float) -> int:
    # Accept dt when T/dt is an integer exactly in rational arithmetic or
    # within half an ulp in floating point; the caller adjusts dt otherwise.
    if float(dt) <= 0:
        raise ValueError("non-positive step")
    ratio = Fraction(float(T)) / Fraction(dt)
    if ratio.denominator == 1 and ratio >= 0:
        return int(ratio)
    x = float(T) / float(dt)
    n = round(x)
    if n >= 0 and abs(x - n) <= 0.5 * math.ulp(max(1.0, abs(x))):
        return n
    raise ValueError("T not reachable with this dt")


def _check_marches(scheme: Scheme) -> None:
    """Marching needs c_out = c_in + 1: each step moves the whole block by dt."""
    if any(o - i != 1 for i, o in zip(scheme.c_in, scheme.c_out)):
        raise ValueError("scheme does not march: c_out must equal c_in + 1")


def integrate(
    scheme: Scheme,
    prob: Problem,
    dt,
    T: float,
    final_only: bool = False,
    start: Optional[np.ndarray] = None,
) -> list[BlockState]:
    """March the block from 0 until the abscissa-0 row sits at time T.

    Returns every block, or with final_only just the last one, in a list.
    dt may be a float or an exact Fraction; stepping always uses its double
    rendering.  The scheme must march (_check_marches).  start, an (s, dim)
    array with row j at c_in[j] * dt, replaces the bootstrap.
    """
    _check_marches(scheme)
    n_steps = _step_count(dt, T)
    dtf = float(dt)
    if start is None:
        state = bootstrap(scheme, prob, dtf)
    else:
        values = np.array(start, dtype=float)
        if values.shape != (scheme.s, prob.dim):
            raise ValueError(
                f"start rows have shape {values.shape}, need {(scheme.s, prob.dim)}"
            )
        if not np.isfinite(values).all():
            raise ValueError("non-finite state at step 0")
        state = BlockState(n=0, t=0.0, values=values)
    blocks = [state]
    for _ in range(n_steps):
        state = step(scheme, prob, state, dtf)
        if final_only:
            blocks[0] = state
        else:
            blocks.append(state)
    return blocks


def _rk4_sweep(prob: Problem, T: float, n: int, times) -> np.ndarray:
    # One march of n steps on the grid t_k = k*h, with t_n = T.  Each time is
    # served from the last grid point t_k <= t: the grid value when t_k == t,
    # otherwise one partial step of length t - t_k.
    h = T / n

    def grid(k):
        return T if k == n else k * h

    bases = [bisect.bisect_right(range(n + 1), t, key=grid) - 1 for t in times]
    out = np.empty((len(times), prob.dim))
    u = prob.u0.copy()
    k = 0
    for i in sorted(range(len(times)), key=bases.__getitem__):
        while k < bases[i]:
            u = _rk4_step(prob.rhs, k * h, u, h)
            k += 1
        tk = grid(k)
        out[i] = u if times[i] == tk else _rk4_step(prob.rhs, tk, u, times[i] - tk)
    return out


class NonFiniteReference(ValueError):
    """An RK4 reference march produced a non-finite value."""


def rk4_reference(prob: Problem, T: float, n_steps: int, times) -> np.ndarray:
    """Classical RK4 solution at each time in times, one row per time,
    verified by step doubling.

    Marches n_steps and 2*n_steps over [0, T]; each requested time lies in
    [0, T] and is served from the same march (see _rk4_sweep).  If the two
    marches disagree by 1e-12 or more at any time the reference is rejected
    so the caller can raise n_steps; NonFiniteReference if either is not finite.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    T = float(T)
    ts = [float(t) for t in times]
    for t in ts:
        if not 0.0 <= t <= T:
            raise ValueError(f"reference time {t!r} outside [t0, T] = [0.0, {T!r}]")
    coarse = _rk4_sweep(prob, T, n_steps, ts)
    fine = _rk4_sweep(prob, T, 2 * n_steps, ts)
    if not (np.isfinite(coarse).all() and np.isfinite(fine).all()):
        raise NonFiniteReference("non-finite RK4 reference")
    if float(np.max(np.abs(coarse - fine), initial=0.0)) >= 1e-12:
        raise ValueError("reference not converged")
    return fine


def measure_lte(scheme: Scheme, prob: Problem, dt, T: float) -> np.ndarray:
    """Max |tau_n| per block component over all steps to T.

    tau_n = (U_{n+1} - A U_n - dt B F(U_n)) / dt with both blocks built from
    the exact solution; requires the problem to have one.
    """
    if prob.exact is None:
        raise ValueError("missing exact solution")
    n_steps = _step_count(dt, T)
    dtf = float(dt)
    A, B, c_in, c_out = scheme.float_tables
    tn = np.arange(n_steps)[:, None] * dtf  # one row per step
    U, U1 = prob.exact(tn + c_in * dtf), prob.exact(tn + c_out * dtf)  # (dim, N, s)
    F = prob.rhs((tn + c_in * dtf).ravel(), U.reshape(prob.dim, -1)).reshape(U.shape)
    tau = (U1 - U @ A.T - dtf * (F @ B.T)) / dtf
    return np.abs(tau).max(axis=(0, 1), initial=0.0)
