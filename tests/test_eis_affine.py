"""Property tests: the EIS constraint is affine on the hyperplane a^T 1 = 1.

Every row of d_{s+1} is kappa_i + lambda(a) with lambda linear and shared by
the rows, so eis_constraint(a) = w . a exactly, w being the constraint at the
unit vectors, and the searches can solve for their root on w instead of
searching for it.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockstep.analysis import verify_conditions
from blockstep.derive import _eis_row, assemble, eis_constraint, search_s2, search_s3_slice

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
WIDE = (-(10**6), 10**6)

positive = st.fractions(min_value=F(1, 9), max_value=2, max_denominator=9)
entries = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@st.composite
def members(draw, sizes=(2, 3, 4), shifted=st.booleans()):
    """(c_in, c_out, a): descending c_in ending at 0, descending c_out ahead
    of it (c_in + shift when `shifted` draws True, else with gaps of its
    own), and a on the hyperplane a^T 1 = 1."""
    s = draw(st.sampled_from(sizes))
    gaps = draw(st.lists(positive, min_size=s - 1, max_size=s - 1))
    c_in = tuple(sum(gaps[k:], F(0)) for k in range(s))
    if draw(shifted):
        shift = draw(positive)
        c_out = tuple(c + shift for c in c_in)
    else:
        c_out = [draw(positive)]
        for k in range(s - 2, -1, -1):
            c_out.insert(0, max(c_out[0], c_in[k]) + draw(positive))
        c_out = tuple(c_out)
    head = draw(st.lists(entries, min_size=s - 1, max_size=s - 1))
    return c_in, c_out, tuple(head) + (1 - sum(head, F(0)),)


def _dot(w, a):
    return sum((x * y for x, y in zip(w, a)), F(0))


def _line_root(g, lo, hi):
    """The root of the affine g in [lo, hi], as a list of at most one value,
    from g at 0, 1 and 2 (a constant g, zero included, yields [])."""
    if lo > hi:
        raise ValueError("empty search range")
    g0, g1 = g(F(0)), g(F(1))
    if g(F(2)) != 2 * g1 - g0:
        raise ArithmeticError("constraint is not affine in the slice parameter")
    if g1 == g0:
        return []
    r = -g0 / (g1 - g0)
    return [r] if lo <= r <= hi else []


def _slice_probe_roots(c_in, c_out, t_range, fixed=None):
    # The slice search the row solve replaced, kept as its oracle: walk the
    # slice (pinned component fixed = (index, value) for s = 3), probe the
    # constraint at t = 0, 1, 2 and take the affine root.  Returns
    # (param, a, exact) triples.
    lo, hi = F(t_range[0]), F(t_range[1])
    if fixed is None:
        def a_of(t):
            return (t, 1 - t)
    else:
        index, v = fixed
        i, j = (k for k in range(3) if k != index)

        def a_of(t):
            a = [F(0)] * 3
            a[index], a[i], a[j] = v, t, 1 - v - t
            return tuple(a)

    def g(t):
        return eis_constraint(a_of(t), c_in, c_out)

    return [(r, a_of(r), True) for r in _line_root(g, lo, hi)]


@SETTINGS
@given(members())
def test_eis_constraint_is_linear_on_the_hyperplane(member):
    c_in, c_out, a = member
    assert eis_constraint(a, c_in, c_out) == _dot(_eis_row(len(a), c_in, c_out), a)


@pytest.mark.parametrize("shifted", [True, False], ids=["shifted-c_out", "own-gaps-c_out"])
@SETTINGS
@given(data=st.data())
def test_one_elimination_row_is_the_constraint_at_the_unit_vectors(shifted, data):
    # eis_constraint assembles each scheme and reads a^T d_{s+1} off its
    # residual vector, so it checks the row's one-solve formula independently.
    c_in, c_out, a = data.draw(members(sizes=(2, 3, 4, 5), shifted=st.just(shifted)))
    s = len(a)
    w = list(_eis_row(s, c_in, c_out))
    assert w == [eis_constraint(tuple(int(i == k) for i in range(s)), c_in, c_out)
                 for k in range(s)]
    assert eis_constraint(a, c_in, c_out) == _dot(w, a)


@SETTINGS
@given(members(sizes=(2, 3)), st.integers(0, 2))
def test_search_roots_are_exact_error_inhibiting_members(member, fixed_index):
    c_in, c_out, a = member
    if len(a) == 2:
        roots = search_s2(c_in, c_out, WIDE)
    else:
        roots = search_s3_slice(fixed_index, a[fixed_index], WIDE, c_in, c_out)
    assert len(roots) <= 1
    for root in roots:
        assert root.exact
        assert eis_constraint(root.a, c_in, c_out) == 0
        assert verify_conditions(assemble(root.a, c_in, c_out)).all_pass


@SETTINGS
@given(members(sizes=(2, 3)), st.integers(0, 2), entries, entries, entries)
def test_row_solve_finds_the_slice_probe_roots(member, fixed_index, value, lo, hi):
    # Random pins and ranges, an empty range (lo > hi) included.
    c_in, c_out, _ = member
    if len(c_in) == 2:
        fixed = None

        def search(t_range):
            return search_s2(c_in, c_out, t_range)
    else:
        fixed = (fixed_index, value)

        def search(t_range):
            return search_s3_slice(fixed_index, value, t_range, c_in, c_out)

    for t_range in ((lo, hi), (-abs(lo) - 2, abs(hi) + 2)):
        if t_range[0] > t_range[1]:
            with pytest.raises(ValueError, match="^empty search range$"):
                search(t_range)
            with pytest.raises(ValueError, match="^empty search range$"):
                _slice_probe_roots(c_in, c_out, t_range, fixed)
            continue
        found = [(r.param, r.a, r.exact) for r in search(t_range)]
        assert found == _slice_probe_roots(c_in, c_out, t_range, fixed)
