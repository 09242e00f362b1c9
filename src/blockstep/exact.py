"""Exact rational arithmetic and small dense linear algebra.

All scheme algebra in this package is carried out over arbitrary-precision
rationals so that order conditions and eigenstructure checks are decided by
exact equality, never by floating-point tolerance.  The stdlib
:class:`fractions.Fraction` already provides a canonical rational (positive
denominator, reduced terms, exact arithmetic); this module adds the
vector/matrix layer on top of it.

Every exact dot product goes through dot, which reduces once: it sums the
integer numerators of the terms over the lcm of their denominators and builds
a single Fraction.  A plain sum of Fraction products normalises each product
and each partial sum with a gcd of its own, 2n reductions for n terms, and
those dominate the cost of the residual and constraint algebra.

over_lcm writes a rational vector as integer numerators over one common
denominator; elimination rows, residual vectors and the order system are all
scaled through it, so they build a Fraction only at the end.

Rank and linear solves use fraction-free (Bareiss) elimination on an integer
rescaling of the rows, which keeps intermediate entries as single big
integers instead of fractions with multiplied-out denominators.  Back
substitution stays in integers too, so each solution entry is reduced once.

to_double is the one way from a rational to a double: NaN, a value beyond
double range, or a nonzero one that rounds to 0.0, is an error that names it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import inf, isinf, isnan, lcm

ExactVector = tuple[Fraction, ...]
ExactMatrix = tuple[tuple[Fraction, ...], ...]


def rat_str(x: Fraction) -> str:
    """Serialize a rational as 'p/q', or just 'p' for integers."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def to_double(x, what: str) -> float:
    """x rounded to a double; ValueError naming `what` (a flag or an entry)
    when x is NaN, beyond double range, or nonzero and rounds to 0.0."""
    try:
        value = float(x)
    except OverflowError:
        value = inf
    if isnan(value):
        raise ValueError(f"{what} is not a number")
    if isinf(value):
        raise ValueError(f"{what} is too large for double precision")
    if value == 0 and x != 0:
        raise ValueError(f"{what} rounds to 0.0 in double precision")
    return value


def parse_rat(text: str) -> Fraction:
    """Fraction(text); OverflowError for a decimal exponent beyond sys.get_int_max_str_digits()."""
    digits = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    limit = sys.get_int_max_str_digits()
    if limit and digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise OverflowError(f"decimal exponent of {text!r} exceeds {limit} in magnitude")
    return Fraction(text)


def as_vector(entries) -> ExactVector:
    """Coerce an iterable of rational-like values to an ExactVector."""
    v = tuple(Fraction(x) for x in entries)
    if not v:
        raise ValueError("empty vector")
    return v


def as_matrix(rows) -> ExactMatrix:
    """Coerce nested iterables to a rectangular ExactMatrix."""
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if not m or not m[0]:
        raise ValueError("empty matrix")
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def matvec(M: ExactMatrix, v: ExactVector) -> ExactVector:
    """Exact matrix-vector product."""
    if any(len(row) != len(v) for row in M):
        raise ValueError(
            f"dimension mismatch: matrix has {len(M[0])} columns, vector has {len(v)}"
        )
    return tuple(dot(row, v) for row in M)


def dot(u, v) -> Fraction:
    """Exact sum of u_j * v_j over rationals or ints of equal length, reduced once."""
    terms = [(x.numerator * y.numerator, x.denominator * y.denominator)
             for x, y in zip(u, v, strict=True)]
    den = lcm(*(d for _, d in terms))
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def over_lcm(v) -> tuple[int, list[int]]:
    """(D, n) with D the lcm of the denominators of v (rationals or ints)
    and n_j = D v_j, so v = n / D with every n_j an integer."""
    D = lcm(*(x.denominator for x in v))
    return D, [x.numerator * (D // x.denominator) for x in v]


def _eliminate(rows, ncols: int) -> int:
    """Bareiss elimination of the integer rows in place; returns the rank.

    Pivots are taken from the first ncols columns only; any further columns
    (a right-hand side) are carried along.  When every column up to ncols
    has a pivot, row k holds its pivot in column k.
    """
    nr, width = len(rows), len(rows[0])
    r = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, nr) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[col]
        for i in range(r + 1, nr):
            row = rows[i]
            f = row[col]
            for j in range(col + 1, width):
                # Bareiss step: exact division by the previous pivot.
                row[j] = (p * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = p
        r += 1
        if r == nr:
            break
    return r


def rank(M: ExactMatrix) -> int:
    """Exact rank via fraction-free Gaussian elimination."""
    # Each row over the lcm of its denominators: the rank is unchanged.
    rows = [over_lcm(row)[1] for row in M]
    return _eliminate(rows, len(rows[0]))


def solve_linear(M: ExactMatrix, R: ExactMatrix) -> ExactMatrix:
    """Solve the square system M X = R exactly for the n x k matrix X.

    One elimination of M serves all k right-hand-side columns of R.
    Raises ValueError("singular system") when M has no unique solution.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("dimension mismatch: matrix not square")
    if len(R) != n or len({len(row) for row in R}) != 1:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, rhs is not an {n}-row matrix")
    k = len(R[0])
    # Each row of [M | R] over the lcm of its denominators: X is unchanged.
    rows = [over_lcm((*row, *rhs))[1] for row, rhs in zip(M, R)]
    if _eliminate(rows, n) < n:
        raise ValueError("singular system")
    # Back substitution in integers, all columns at once.  The last Bareiss
    # pivot D is the determinant of the scaled, row-permuted M, so D X is
    # integral (Cramer's rule) and each division below is exact: every entry
    # of X is reduced once, as Fraction(D x, D).
    D = rows[n - 1][n - 1]
    Y = [()] * n
    for i in range(n - 1, -1, -1):
        top = rows[i]
        Y[i] = [
            (D * top[n + c] - sum(top[j] * Y[j][c] for j in range(i + 1, n))) // top[i]
            for c in range(k)
        ]
    return tuple(tuple(Fraction(y, D) for y in row) for row in Y)
