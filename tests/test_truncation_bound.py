"""Property tests: every valid scheme has truncation order q <= 2s - 1, and
the bound is reached.

The Hermite-optimal scheme, whose rows annihilate t^p for p = 0 .. 2s - 1,
attains q = 2s - 1 for any abscissae.  Both claims are checked against the
independent oracle that applies a scheme to exact polynomial data.
"""

from fractions import Fraction as F
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle_util import random_scheme, scheme_residual_on_polynomial
from blockstep.analysis import truncation_order
from blockstep.exact import solve_linear
from blockstep.scheme import make_scheme

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

positive = st.fractions(min_value=F(1, 9), max_value=2, max_denominator=9)


@st.composite
def abscissae(draw):
    """(c_in, c_out) for s = 1..4: descending c_in ending at 0, c_out = c_in + shift."""
    s = draw(st.integers(1, 4))
    gaps = draw(st.lists(positive, min_size=s - 1, max_size=s - 1))
    c_in = tuple(sum(gaps[k:], F(0)) for k in range(s))
    shift = draw(positive)
    return c_in, tuple(c + shift for c in c_in)


def hermite_optimal(c_in, c_out):
    # Row i solves sum_j A_ij c_j^p + p B_ij c_j^(p-1) = c_out[i]^p, p = 0 .. 2s-1.
    s = len(c_in)
    M = [
        [c**p for c in c_in] + [p * c ** (p - 1) if p else F(0) for c in c_in]
        for p in range(2 * s)
    ]
    R = [[c**p for c in c_out] for p in range(2 * s)]
    rows = list(zip(*solve_linear(M, R)))
    return make_scheme("hermite", c_in, c_out, [r[:s] for r in rows], [r[s:] for r in rows])


def monomial(p):
    return [F(0)] * p + [F(1)]


def zero(s):
    return tuple(F(0) for _ in range(s))


@SETTINGS
@given(abscissae())
def test_hermite_optimal_scheme_reaches_the_bound(pair):
    sch = hermite_optimal(*pair)
    s = sch.s
    assert truncation_order(sch).q == 2 * s - 1
    for p in range(2 * s):
        assert scheme_residual_on_polynomial(sch, monomial(p), F(0), F(1)) == zero(s)
    assert scheme_residual_on_polynomial(sch, monomial(2 * s), F(0), F(1)) != zero(s)


@SETTINGS
@given(st.integers(1, 4), st.randoms(use_true_random=False))
def test_random_schemes_stay_below_the_bound(s, rng):
    sch = random_scheme(rng, s)
    order = truncation_order(sch)
    assert order.q <= 2 * s - 1
    # At t = 0, dt = 1 the residual on t^p is p! d_p for p >= 1.
    for p in range(1, order.q + 1):
        assert scheme_residual_on_polynomial(sch, monomial(p), F(0), F(1)) == zero(s)
    residual = scheme_residual_on_polynomial(sch, monomial(order.q + 1), F(0), F(1))
    assert order.leading == tuple(r / factorial(order.q + 1) for r in residual)
