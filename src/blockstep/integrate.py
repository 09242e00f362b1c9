"""Floating-point time stepping for block one-step schemes.

A block state holds s solution rows, row j approximating u at
t_n + c_in[j] * dt.  One step maps the block to

    V_{n+1} = A V_n + dt * B * F(V_n)

where F evaluates the right-hand side on the whole block in one call (see
Problem).  The exact rational matrices are read through Scheme.float_tables,
rendered to double once per scheme, so runs are bitwise reproducible.

Also here: the built-in test problems P1-P4, starting-value bootstrap
(exact solution when available, otherwise a fine classical RK4 sweep), a
doubling-verified RK4 reference oracle, and measurement of the local
truncation error of the exact solution under a scheme, over all steps at once.

The reference oracle serves any set of times in [t0, T] from one march:
each time off the grid gets one partial RK4 step from the grid value just
before it.  A convergence study thus takes its reference values and its
starting rows (passed to integrate as `start`) from a single verified sweep.
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
    """ODE initial-value problem u' = rhs(t, u), u(t0) = u0, batched component
    axis first: rhs maps u of shape (dim,) at a scalar t, or (dim, k) at t of
    shape (k,), to an array of u's shape; exact(t) has shape (dim,) + np.shape(t)."""

    name: str
    dim: int
    rhs: Callable[[float | np.ndarray, np.ndarray], np.ndarray]
    exact: Optional[Callable[[float | np.ndarray], np.ndarray]]
    u0: np.ndarray
    t0: float = 0.0


def make_problem(name, dim, rhs, exact, u0, t0=0.0) -> Problem:
    """A Problem whose exact(t0) matches u0 and whose rhs and exact keep the batch contract."""
    u0 = np.array(u0, dtype=float).reshape(dim)
    u0.setflags(write=False)
    ts = np.full(dim + 1, float(t0))  # never square: a transposed result cannot pass
    probes = {"rhs": lambda: rhs(ts, u0[:, None] + 0 * ts)}
    if exact is not None:
        err = float(np.max(np.abs(np.asarray(exact(t0), dtype=float) - u0)))
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
    return Problem(name=name, dim=dim, rhs=rhs, exact=exact, u0=u0, t0=float(t0))


def make_p1() -> Problem:
    """u' = -u^2, u(0) = 1, exact solution 1/(1+t)."""
    return make_problem(
        "P1",
        1,
        lambda t, u: -u * u,
        lambda t: np.array([1.0 / (1.0 + t)]),
        [1.0],
    )


def make_vdp(mu: float = 0.1) -> Problem:
    """Van der Pol oscillator; no closed-form solution."""

    def rhs(t, u):
        return np.array([u[1], mu * (1.0 - u[0] * u[0]) * u[1] - u[0]])

    return make_problem("P2", 2, rhs, None, [2.0, 0.0])


def make_dahlquist(lam: float = -1.0) -> Problem:
    """u' = lam * u, exact exp(lam t) u0."""
    return make_problem(
        "P3",
        1,
        lambda t, u: lam * u,
        lambda t: np.array([np.exp(lam * t)]),
        [1.0],
    )


def make_p4() -> Problem:
    """u' = cos(t) u, exact exp(sin t); a variable-coefficient linear test."""
    return make_problem(
        "P4",
        1,
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


@dataclass
class Trajectory:
    dt: float
    blocks: list[BlockState]

    @property
    def final(self) -> BlockState:
        return self.blocks[-1]


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
    return BlockState(n=state.n + 1, t=prob.t0 + (state.n + 1) * dt, values=values)


def _rk4_step(rhs, t, u, h):
    k1 = np.asarray(rhs(t, u), dtype=float)
    k2 = np.asarray(rhs(t + h / 2, u + (h / 2) * k1), dtype=float)
    k3 = np.asarray(rhs(t + h / 2, u + (h / 2) * k2), dtype=float)
    k4 = np.asarray(rhs(t + h, u + h * k3), dtype=float)
    return u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def bootstrap(scheme: Scheme, prob: Problem, dt: float, n_sub: int = 1000) -> BlockState:
    """Starting block at t0.

    Rows come from the exact solution when the problem has one; otherwise a
    classical RK4 sweep with n_sub substeps per abscissa interval fills them,
    keeping the starter error far below any order visible at these step
    sizes.
    """
    if dt <= 0:
        raise ValueError("non-positive step")
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    s = scheme.s
    if prob.exact is not None:
        values = prob.exact(prob.t0 + scheme.float_tables[2] * dt).T.copy()  # C order, (s, dim)
    else:
        c_in = scheme.float_tables[2].tolist()  # Python floats: cheap scalar RK4 arithmetic
        values = np.empty((s, prob.dim))
        u = prob.u0.copy()
        values[s - 1] = u
        c_prev = 0.0
        for j in range(s - 2, -1, -1):
            c_next = c_in[j]
            t_start = prob.t0 + c_prev * dt
            h = (c_next - c_prev) * dt / n_sub
            for k in range(n_sub):
                u = _rk4_step(prob.rhs, t_start + k * h, u, h)
            values[j] = u
            c_prev = c_next
    if not np.isfinite(values).all():
        raise ValueError("non-finite state at step 0")
    return BlockState(n=0, t=prob.t0, values=values)


def _step_count(prob: Problem, dt, T: float) -> int:
    # Accept dt when (T - t0)/dt is an integer exactly in rational arithmetic
    # or within half an ulp in floating point; the caller adjusts dt otherwise.
    if float(dt) <= 0:
        raise ValueError("non-positive step")
    span = Fraction(float(T)) - Fraction(prob.t0)
    ratio = span / Fraction(dt)
    if ratio.denominator == 1 and ratio >= 0:
        return int(ratio)
    x = (float(T) - prob.t0) / float(dt)
    n = round(x)
    if n >= 0 and abs(x - n) <= 0.5 * math.ulp(max(1.0, abs(x))):
        return n
    raise ValueError("T not reachable with this dt")


def integrate(
    scheme: Scheme,
    prob: Problem,
    dt,
    T: float,
    final_only: bool = False,
    start: Optional[np.ndarray] = None,
) -> Trajectory:
    """March the block from t0 until the abscissa-0 row sits at time T.

    dt may be a float or an exact Fraction; stepping always uses its double
    rendering.  Marching requires c_out = c_in + 1 (each step advances the
    whole block by one dt), which all builtin schemes satisfy.  start, an
    (s, dim) array with row j at t0 + c_in[j] * dt, replaces the bootstrap.
    """
    if any(scheme.c_out[i] - scheme.c_in[i] != 1 for i in range(scheme.s)):
        raise ValueError("scheme does not march: c_out must equal c_in + 1")
    n_steps = _step_count(prob, dt, T)
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
        state = BlockState(n=0, t=prob.t0, values=values)
    blocks = [state]
    for _ in range(n_steps):
        state = step(scheme, prob, state, dtf)
        if final_only:
            blocks[0] = state
        else:
            blocks.append(state)
    return Trajectory(dt=dtf, blocks=blocks)


def _rk4_sweep(prob: Problem, T: float, n: int, times) -> np.ndarray:
    # One march of n steps on the grid t_k = t0 + k*h, with t_n = T.  Each
    # time is served from the last grid point t_k <= t: the grid value when
    # t_k == t, otherwise one partial step of length t - t_k.
    t0 = prob.t0
    h = (T - t0) / n

    def grid(k):
        return T if k == n else t0 + k * h

    bases = [bisect.bisect_right(range(n + 1), t, key=grid) - 1 for t in times]
    out = np.empty((len(times), prob.dim))
    u = prob.u0.copy()
    k = 0
    for i in sorted(range(len(times)), key=bases.__getitem__):
        while k < bases[i]:
            u = _rk4_step(prob.rhs, t0 + k * h, u, h)
            k += 1
        tk = grid(k)
        out[i] = u if times[i] == tk else _rk4_step(prob.rhs, tk, u, times[i] - tk)
    return out


class NonFiniteReference(ValueError):
    """An RK4 reference march produced a non-finite value."""


def rk4_reference(prob: Problem, T: float, n_steps: int, times=None) -> np.ndarray:
    """Classical RK4 solution at T, or one row per time in times, verified by
    step doubling.

    Marches n_steps and 2*n_steps over [t0, T]; each requested time lies in
    [t0, T] and is served from the same march (see _rk4_sweep).  If the two
    marches disagree by 1e-12 or more at any time the reference is rejected
    so the caller can raise n_steps; NonFiniteReference if either is not finite.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    T = float(T)
    ts = [T] if times is None else [float(t) for t in times]
    for t in ts:
        if not prob.t0 <= t <= T:
            raise ValueError(f"reference time {t!r} outside [t0, T] = [{prob.t0!r}, {T!r}]")
    coarse = _rk4_sweep(prob, T, n_steps, ts)
    fine = _rk4_sweep(prob, T, 2 * n_steps, ts)
    if not (np.isfinite(coarse).all() and np.isfinite(fine).all()):
        raise NonFiniteReference("non-finite RK4 reference")
    if float(np.max(np.abs(coarse - fine), initial=0.0)) >= 1e-12:
        raise ValueError("reference not converged")
    return fine[0] if times is None else fine


def measure_lte(scheme: Scheme, prob: Problem, dt, T: float) -> np.ndarray:
    """Max |tau_n| per block component over all steps to T.

    tau_n = (U_{n+1} - A U_n - dt B F(U_n)) / dt with both blocks built from
    the exact solution; requires the problem to have one.
    """
    if prob.exact is None:
        raise ValueError("missing exact solution")
    n_steps = _step_count(prob, dt, T)
    dtf = float(dt)
    A, B, c_in, c_out = scheme.float_tables
    tn = prob.t0 + np.arange(n_steps)[:, None] * dtf  # one row per step
    U, U1 = prob.exact(tn + c_in * dtf), prob.exact(tn + c_out * dtf)  # (dim, N, s)
    F = prob.rhs((tn + c_in * dtf).ravel(), U.reshape(prob.dim, -1)).reshape(U.shape)
    tau = (U1 - U @ A.T - dtf * (F @ B.T)) / dtf
    return np.abs(tau).max(axis=(0, 1), initial=0.0)
