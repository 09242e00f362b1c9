import random
import re
import sys
import time
from fractions import Fraction as F
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockstep.exact import (
    as_matrix,
    dot,
    parse_rat,
    rank,
    rat_str,
    solve_linear,
    to_double,
)

A_S2 = as_matrix([[F(-1, 6), F(7, 6)], [F(-1, 6), F(7, 6)]])
A_B2 = as_matrix([[F(7, 4), F(-3, 4)], [F(7, 4), F(-3, 4)]])


def identity(n):
    return as_matrix([[int(i == j) for j in range(n)] for i in range(n)])


def test_rat_str_formats():
    assert rat_str(F(3, 2)) == "3/2"
    assert rat_str(F(-3, 2)) == "-3/2"
    assert rat_str(F(5)) == "5"
    assert rat_str(F(0)) == "0"


@pytest.fixture
def digit_limit():
    # Python's limit on digits in int <-> str conversion, pinned for the test.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_parse_rat_reads_what_fraction_reads(digit_limit):
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat(" -2.5e-3 ") == F(-1, 400)
    assert parse_rat("1E+4_300") == 10**4300  # the limit itself is allowed
    assert parse_rat("1e-4300") == F(1, 10**4300)
    assert parse_rat("1e400") == 10**400
    with pytest.raises(ValueError, match="Invalid literal"):
        parse_rat("1e")
    with pytest.raises(ZeroDivisionError):
        parse_rat("1/0")


def test_parse_rat_refuses_a_decimal_exponent_beyond_the_digit_limit(digit_limit):
    # Fraction("1e5000000") alone builds 10**5000000 first, for seconds.
    t0 = time.perf_counter()
    for text in ("1e5000000", "1e-5000000", "-2.5E+4_301", "1e0004301", "1e" + "9" * 5000):
        message = f"^decimal exponent of {re.escape(repr(text))} exceeds 4300 in magnitude$"
        with pytest.raises(OverflowError, match=message):
            parse_rat(text)
    assert time.perf_counter() - t0 < 0.5
    sys.set_int_max_str_digits(0)  # no limit: parsed as before
    assert parse_rat("1e4301") == 10**4301


def test_to_double_names_what_leaves_double_range():
    assert to_double(F(1, 3), "x") == 1 / 3
    assert to_double(0, "x") == 0.0 and to_double(-0.5, "x") == -0.5
    for tiny in (F(1, 10**400), F(-1, 10**400)):
        with pytest.raises(ValueError, match=r"^--dt rounds to 0.0 in double precision$"):
            to_double(tiny, "--dt")
    for huge in (F(10**400), F(-(10**400)), float("inf")):
        with pytest.raises(ValueError, match=r"^A\[0\]\[1\] is too large for double precision$"):
            to_double(huge, "A[0][1]")
    for nan in (float("nan"), -float("nan")):
        with pytest.raises(ValueError, match=r"^T is not a number$"):
            to_double(nan, "T")


def matvec(M, v):
    return tuple(dot(row, v) for row in M)


def test_matvec_kills_the_zero_eigenvector():
    # (7, 1) spans the kernel of the rank-1 matrix with rows (-1/6, 7/6)
    assert matvec(A_S2, (F(7), F(1))) == (F(0), F(0))


def test_matvec_known_product():
    # a BUTCHER2 row against (23/48, 1/16) gives its eis residual 19/24
    assert matvec(A_B2, (F(23, 48), F(1, 16))) == (F(19, 24), F(19, 24))


def test_matvec_row_sums_give_ones():
    assert matvec(A_S2, (F(1), F(1))) == (F(1), F(1))


def test_rank_examples():
    assert rank(A_S2) == 1
    assert rank(identity(3)) == 3
    assert rank(as_matrix([[0, 0], [0, 0]])) == 0
    assert rank(as_matrix([[1, 2, 3]])) == 1
    assert rank(as_matrix([[1], [2], [3]])) == 1
    assert rank(as_matrix([[1, 2], [2, 4], [3, 6]])) == 1


def _rank_by_plain_elimination(M):
    """Textbook Gaussian elimination on Fractions, no pivot scaling tricks."""
    rows = [list(r) for r in M]
    n = len(rows)
    m = len(rows[0]) if n else 0
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, n):
            factor = rows[i][col] / rows[r][col]
            for j in range(col, m):
                rows[i][j] -= factor * rows[r][j]
        r += 1
    return r


def test_rank_matches_plain_elimination_on_random_matrices():
    rng = random.Random(20260817)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [
            [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)]
            for _ in range(n)
        ]
        # inject duplicate rows now and then so low rank actually shows up
        if n >= 2 and rng.random() < 0.4:
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        M = as_matrix(rows)
        assert rank(M) == _rank_by_plain_elimination(M)


def test_rank_invariant_under_row_swap_and_scale():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        rows = [
            [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        base = rank(as_matrix(rows))
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
        scale = F(rng.randint(1, 7), rng.randint(1, 3))
        rows[i] = [scale * x for x in rows[i]]
        assert rank(as_matrix(rows)) == base


def col(*entries):
    return tuple((F(x),) for x in entries)


def test_solve_linear_moment_system_row():
    # both rows of the two-step coefficient construction: column i of the
    # right-hand side yields row i of B, from one elimination
    V = as_matrix([[1, 1], [F(1, 2), 0]])
    R = ((F(19, 12), F(13, 12)), (F(55, 48), F(25, 48)))
    assert solve_linear(V, R) == ((F(55, 24), F(25, 24)), (F(-17, 24), F(1, 24)))
    assert solve_linear(V, col(F(19, 12), F(55, 48))) == col(F(55, 24), F(-17, 24))


def test_solve_linear_identity_and_zero():
    assert solve_linear(identity(3), col(4, F(-1, 2), 0)) == col(4, F(-1, 2), 0)
    M = as_matrix([[F(-1, 6), F(7, 6)], [0, 1]])
    assert solve_linear(M, col(0, 0)) == col(0, 0)


def test_solve_linear_singular():
    with pytest.raises(ValueError, match="singular system"):
        solve_linear(as_matrix([[1, 1], [2, 2]]), col(1, 1))


def test_solve_linear_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_linear(identity(2), col(1, 2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_linear(identity(2), ((F(1), F(2)), (F(3),)))


def test_solve_linear_roundtrip_property():
    rng = random.Random(404)
    done = 0
    while done < 50:
        n = rng.randint(1, 4)
        rows = [
            [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        M = as_matrix(rows)
        if rank(M) < n:
            continue
        k = rng.randint(1, 3)
        X = tuple(
            tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k))
            for _ in range(n)
        )
        R = tuple(tuple(oracle_dot(row, column) for column in zip(*X)) for row in M)
        assert solve_linear(M, R) == X
        done += 1


# ----- dot and solve_linear against a naive Fraction oracle ---------------

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Rationals with denominators up to 10^30, plain ints, and zero.
entries = st.one_of(
    st.fractions(max_denominator=10**30),
    st.integers(-(10**12), 10**12),
    st.just(0),
)


def oracle_dot(u, v):
    """Sum of Fraction products, one normalised Fraction per term and partial sum."""
    return sum((F(x) * F(y) for x, y in zip(u, v)), F(0))


def oracle_det(M):
    # Leibniz formula: no elimination, no pivots.
    n = len(M)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((F(M[i][perm[i]]) for i in range(n)), start=F(1))
    return total


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(0, 6))
    return tuple(draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(2))


@SETTINGS
@given(vector_pairs())
def test_dot_equals_the_naive_fraction_sum(uv):
    u, v = uv
    got, want = dot(u, v), oracle_dot(u, v)
    assert type(got) is F
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_dot_rejects_vectors_of_unequal_length():
    with pytest.raises(ValueError):
        dot((F(1), F(2)), (F(3),))


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    M = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    R = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(n)]
    return M, R


@SETTINGS
@given(square_systems())
# Bareiss pivots -3, then -7.
@example(([[-3, 1], [1, 2]], [[F(1, 3), 0], [-5, F(2, 10**30 + 1)]]))
# A row swap first, then Bareiss pivots -1, 2 and 9.
@example(([[0, -2, 1], [-1, 0, 3], [2, 5, -4]], [[1], [F(-7, 10**29)], [0]]))
def test_solve_linear_solutions_satisfy_the_system(MR):
    M, R = MR
    M, R = as_matrix(M), as_matrix(R)
    if oracle_det(M) == 0:
        with pytest.raises(ValueError, match="singular system"):
            solve_linear(M, R)
        return
    X = solve_linear(M, R)
    for c in range(len(R[0])):
        column = [X[j][c] for j in range(len(M))]
        assert [oracle_dot(row, column) for row in M] == [R[i][c] for i in range(len(M))]
