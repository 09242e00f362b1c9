"""Truncation-residual analysis, error-inhibiting condition checks, stability.

The one-step residual of a smooth solution u under a block scheme expands as

    U_{n+1} - A U_n - dt * B * U'_n  =  sum_p d_p dt^p u^(p)(t_n)

with exact rational coefficient vectors

    d_p = c_out^p / p!  -  A c_in^p / p!  -  B c_in^(p-1) / (p-1)!

(elementwise powers).  The truncation order q is the largest k with d_p = 0
for all p <= k; the normalized local truncation error is then
tau_n = d_{q+1} dt^q u^(q+1) + O(dt^{q+1}).

Every valid scheme has q <= 2s - 1: w(t) = prod_j (t - c_in[j])^2 has degree
2s and w(0) = 0, so if d_1 .. d_2s all vanished its residual would vanish,
yet row 0 of that residual is w(c_out[0]) != 0 because w and w' vanish at
every input abscissa and c_out[0] exceeds them all.

A scheme is error inhibiting when the leading residual vector d_{q+1} lies in
the zero-eigenspace of A.  The checkable conditions are:

    C1  rank(A) = 1
    C2  A 1 = 1          (eigenvalue 1 with the all-ones eigenvector)
    C3  A diagonalizable  (follows from C1 and C2: A = 1 a^T with trace 1)
    C4  a^T d_{q+1} = 0   (leading residual annihilated by A)

Under C1-C2 every row of A equals the same vector a^T, so
A d_{q+1} = (a^T d_{q+1}) 1 and C4 is exactly the leading-order annihilation
statement.  Global error then converges one order beyond q.

Linear stability: rho(A + z B) is the largest eigenvalue modulus of the
double-precision Q(z), from numpy's LAPACK eigvals, for any block size s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import factorial
from typing import NamedTuple

import numpy as np

from .exact import ExactVector, matvec, rank
from .scheme import Scheme


def residual_vector(scheme: Scheme, p: int) -> ExactVector:
    """Exact residual coefficient vector d_p (p >= 0).

    d_0 = 1 - A 1 is the consistency-of-constants residual; it vanishes
    exactly when C2 holds.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    ones = tuple(Fraction(1) for _ in range(scheme.s))
    if p == 0:
        Aones = matvec(scheme.A, ones)
        return tuple(1 - x for x in Aones)
    fp = factorial(p)
    fq = factorial(p - 1)
    cin_p = tuple(c**p / fp for c in scheme.c_in)
    cin_q = tuple(c ** (p - 1) / fq for c in scheme.c_in)
    Acin = matvec(scheme.A, cin_p)
    Bcin = matvec(scheme.B, cin_q)
    return tuple(
        scheme.c_out[i] ** p / fp - Acin[i] - Bcin[i] for i in range(scheme.s)
    )


def residual_table(scheme: Scheme, p_max: int) -> dict[int, ExactVector]:
    """Residual vectors d_1 .. d_{p_max} keyed by order."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    return {p: residual_vector(scheme, p) for p in range(1, p_max + 1)}


class TruncationOrder(NamedTuple):
    q: int
    leading: ExactVector


def truncation_order(scheme: Scheme) -> TruncationOrder:
    """Largest q with d_p = 0 for all p <= q, plus the leading vector d_{q+1}.

    The walk over p = 1, 2, ... stops by p = 2s (see the module docstring).
    """
    for p in count(1):
        leading = residual_vector(scheme, p)
        if any(leading):
            return TruncationOrder(p - 1, leading)


@dataclass(frozen=True)
class ConditionRecord:
    """Outcome of one condition check.

    passed is None when the condition could not be evaluated (C3 and C4
    require the rank-1 row structure established by C1 and C2).
    """

    passed: bool | None
    witness: object

    @property
    def status(self) -> str:
        if self.passed is None:
            return "NOT EVALUATED"
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class VerificationReport:
    scheme_name: str
    conditions: dict[str, ConditionRecord]
    q: int
    leading: ExactVector
    a: ExactVector | None
    eis_residual: Fraction | None

    @property
    def all_pass(self) -> bool:
        return all(rec.passed for rec in self.conditions.values())


def verify_conditions(scheme: Scheme) -> VerificationReport:
    """Check C1-C4 exactly and report witnesses."""
    order = truncation_order(scheme)

    r = rank(scheme.A)
    c1 = ConditionRecord(r == 1, r)
    ones = tuple(Fraction(1) for _ in range(scheme.s))
    row_sums = matvec(scheme.A, ones)
    c2 = ConditionRecord(all(x == 1 for x in row_sums), row_sums)

    # C1 makes A = u v^T, and C2 (A 1 = 1) gives u_i (v^T 1) = 1 for every i:
    # u is constant, so all rows of A equal the first and a is that row.
    a = scheme.A[0] if (c1.passed and c2.passed) else None
    if a is None:
        c3 = ConditionRecord(None, None)
        c4 = ConditionRecord(None, None)
        eis = None
    else:
        # trace(A) = a^T 1 = 1 != 0, so the rank-1 A has eigenvalues
        # {1, 0, ..., 0} with independent eigenvectors: diagonalizable.
        trace = sum((a[i] for i in range(scheme.s)), Fraction(0))
        c3 = ConditionRecord(trace != 0, trace)
        eis = sum(
            (a[i] * order.leading[i] for i in range(scheme.s)), Fraction(0)
        )
        c4 = ConditionRecord(eis == 0, eis)

    return VerificationReport(
        scheme_name=scheme.name,
        conditions={"C1": c1, "C2": c2, "C3": c3, "C4": c4},
        q=order.q,
        leading=order.leading,
        a=a,
        eis_residual=eis,
    )


# ----- linear stability diagnostics ---------------------------------------


def amplification(scheme: Scheme, z: complex) -> np.ndarray:
    """Q(z) = A + z B in double precision (z = lambda * dt)."""
    A, B, _, _ = scheme.float_tables
    return A + complex(z) * B


def spectral_radius(scheme: Scheme, z: complex) -> float:
    """rho(A + z B): the largest modulus among the eigenvalues of Q(z)."""
    return float(np.abs(np.linalg.eigvals(amplification(scheme, z))).max())


def stability_scan(scheme, re_range, im_range, grid_n):
    """Spectral radius of Q(z) on a grid_n x grid_n grid of z values.

    Returns (re_vals, im_vals, rho) with rho[i][j] the radius at
    z = re_vals[j] + 1j * im_vals[i].  One batched eigvals call per grid
    row keeps memory linear in grid_n.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    re_vals = np.linspace(re_range[0], re_range[1], grid_n)
    im_vals = np.linspace(im_range[0], im_range[1], grid_n)
    A, B, _, _ = scheme.float_tables
    rho = np.empty((grid_n, grid_n))
    for i, y in enumerate(im_vals):
        Q = A + (re_vals + 1j * y)[:, None, None] * B
        rho[i] = np.abs(np.linalg.eigvals(Q)).max(axis=1)
    return re_vals, im_vals, rho
