import dataclasses
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from blockstep import analysis as analysis_module
from blockstep.analysis import (
    residual_table,
    residual_vector,
    spectral_radius,
    stability_scan,
    truncation_order,
    verify_conditions,
)
from blockstep.derive import assemble
from blockstep.scheme import BUILTIN_NAMES, builtin, load, make_scheme, save

from _oracle_util import (
    random_scheme,
    scheme_residual_on_polynomial,
    taylor_residual_on_polynomial,
)

# Taylor residual vectors, frozen from hand-checked evaluations of
# d_p = c_out^p/p! - A c_in^p/p! - B c_in^(p-1)/(p-1)!.
RESIDUALS = {
    "S2": {
        3: (F(161, 576), F(23, 576)),
        4: (F(377, 2304), F(47, 2304)),
        5: (F(881, 15360), F(29, 5120)),
    },
    "BUTCHER2": {
        3: (F(23, 48), F(1, 16)),
        4: (F(13, 32), F(1, 32)),
        5: (F(197, 960), F(3, 320)),
    },
    "S3A": {
        4: (F(43699, 373248), F(12787, 373248), F(2227, 373248)),
        5: (F(197159, 2799360), F(5647, 311040), F(7207, 2799360)),
    },
    "S3B": {
        4: (F(115733, 991440), F(33623, 991440), F(5573, 991440)),
        5: (F(116201, 1652400), F(268399, 14871600), F(36689, 14871600)),
    },
    "S3C": {
        4: (F(5303, 46656), F(1439, 46656), F(119, 46656)),
        5: (F(899, 12960), F(5981, 349920), F(529, 349920)),
    },
}

ORDERS = {"S2": 2, "BUTCHER2": 2, "S3A": 3, "S3B": 3, "S3C": 3}


def _s4_scheme():
    # A = 1 a^T with a = (1/4, ..., 1/4) and B from the order conditions.
    return assemble([F(1, 4)] * 4, [F(3, 4), F(1, 2), F(1, 4), F(0)], name="S4")


def test_zeroth_residual_vanishes_for_unit_row_sums():
    for name in BUILTIN_NAMES:
        sch = builtin(name)
        assert residual_vector(sch, 0) == tuple(F(0) for _ in range(sch.s))


def test_residuals_vanish_through_the_truncation_order():
    for name, q in ORDERS.items():
        sch = builtin(name)
        for p in range(1, q + 1):
            assert residual_vector(sch, p) == tuple(
                F(0) for _ in range(sch.s)
            ), f"{name} d_{p}"


def test_frozen_residual_tables():
    for name, table in RESIDUALS.items():
        sch = builtin(name)
        for p, expect in table.items():
            assert residual_vector(sch, p) == expect, f"{name} d_{p}"


def test_residual_table_collects_range():
    sch = builtin("S2")
    table = residual_table(sch, 5)
    assert sorted(table) == [1, 2, 3, 4, 5]
    assert table[3] == RESIDUALS["S2"][3]
    assert table[5] == RESIDUALS["S2"][5]


def test_truncation_order_builtins():
    for name, q in ORDERS.items():
        res = truncation_order(builtin(name))
        assert res.q == q
        assert res.leading == RESIDUALS[name][q + 1]


def test_residual_affine_in_derivative_matrix():
    rng = random.Random(9)
    for _ in range(20):
        base = random_scheme(rng, s=2)
        B2 = tuple(
            tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
            for _ in range(2)
        )
        zero = tuple(tuple(F(0) for _ in range(2)) for _ in range(2))
        both = tuple(
            tuple(base.B[i][j] + B2[i][j] for j in range(2)) for i in range(2)
        )
        def mk(B):
            return make_scheme("t", base.c_in, base.c_out, base.A, B)

        for p in range(1, 5):
            lhs = residual_vector(mk(both), p)
            d1 = residual_vector(mk(base.B), p)
            d2 = residual_vector(mk(B2), p)
            d0 = residual_vector(mk(zero), p)
            assert lhs == tuple(d1[i] + d2[i] - d0[i] for i in range(2))


def test_residuals_match_polynomial_bruteforce_oracle():
    """Applying a random scheme to exact polynomial data must reproduce
    sum_p d_p dt^p u^(p)(t) exactly, at every rational step size tried."""
    rng = random.Random(20260817)
    dts = [F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(2)]
    for trial in range(100):
        sch = random_scheme(rng, s=2)
        deg = rng.randint(0, 5)
        u = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
        t = F(rng.randint(-3, 3), rng.randint(1, 3))
        for dt in dts:
            left = scheme_residual_on_polynomial(sch, u, t, dt)
            right = taylor_residual_on_polynomial(sch, residual_vector, u, t, dt)
            assert left == right, f"trial {trial} dt={dt}"


def test_residuals_match_polynomial_bruteforce_oracle_s3():
    rng = random.Random(31)
    dts = [F(-1), F(1, 4), F(1), F(3, 2), F(-2, 3), F(2)]
    for _ in range(20):
        sch = random_scheme(rng, s=3)
        deg = rng.randint(0, 6)
        u = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg + 1)]
        t = F(rng.randint(-2, 2), rng.randint(1, 2))
        for dt in dts:
            left = scheme_residual_on_polynomial(sch, u, t, dt)
            right = taylor_residual_on_polynomial(sch, residual_vector, u, t, dt)
            assert left == right


def test_verify_error_inhibiting_builtins():
    for name in ("S2", "S3A", "S3B", "S3C"):
        rep = verify_conditions(builtin(name))
        assert rep.scheme_name == name
        for label in ("C1", "C2", "C3", "C4"):
            assert rep.conditions[label].status == "PASS", f"{name} {label}"
        assert rep.all_pass
        assert rep.q == ORDERS[name]
        assert rep.eis_residual == 0
        assert rep.a == builtin(name).A[0]
        assert sum(rep.a, F(0)) == 1


def test_verify_butcher2_fails_only_the_residual_condition():
    rep = verify_conditions(builtin("BUTCHER2"))
    assert rep.conditions["C1"].status == "PASS"
    assert rep.conditions["C1"].witness == 1
    assert rep.conditions["C2"].status == "PASS"
    assert rep.conditions["C3"].status == "PASS"
    assert rep.conditions["C4"].status == "FAIL"
    assert rep.eis_residual == F(19, 24)
    assert rep.conditions["C4"].witness == F(19, 24)
    assert not rep.all_pass
    assert rep.q == 2


def test_verify_skips_dependent_conditions_without_rank_one():
    sch = make_scheme(
        "ident",
        [F(1, 2), 0],
        [F(3, 2), 1],
        [[1, 0], [0, 1]],
        [[0, 0], [0, 0]],
    )
    rep = verify_conditions(sch)
    assert rep.conditions["C1"].status == "FAIL"
    assert rep.conditions["C1"].witness == 2
    assert rep.conditions["C2"].status == "PASS"
    assert rep.conditions["C3"].status == "NOT EVALUATED"
    assert rep.conditions["C4"].status == "NOT EVALUATED"
    assert rep.eis_residual is None
    assert rep.a is None
    assert not rep.all_pass


def test_verify_skips_dependent_conditions_without_unit_row_sums():
    sch = make_scheme(
        "lopsided",
        [F(1, 2), 0],
        [F(3, 2), 1],
        [[1, 1], [0, 0]],
        [[0, 0], [0, 0]],
    )
    rep = verify_conditions(sch)
    assert rep.conditions["C1"].status == "PASS"
    assert rep.conditions["C2"].status == "FAIL"
    assert rep.conditions["C2"].witness == (F(2), F(0))
    assert rep.conditions["C3"].status == "NOT EVALUATED"
    assert rep.conditions["C4"].status == "NOT EVALUATED"


def test_leading_residual_is_annihilated_up_to_the_scalar():
    # rank-1 A with unit row sums means A d = (a^T d) 1 for every vector d
    from blockstep.exact import dot

    for name in BUILTIN_NAMES:
        sch = builtin(name)
        rep = verify_conditions(sch)
        image = tuple(dot(row, rep.leading) for row in sch.A)
        assert image == tuple(rep.eis_residual for _ in range(sch.s))


def test_spectral_radius_at_origin_is_one():
    for name in BUILTIN_NAMES:
        assert abs(spectral_radius(builtin(name), 0.0) - 1.0) <= 1e-12


def test_spectral_radius_tracks_the_scalar_flow():
    s2 = builtin("S2")
    assert spectral_radius(s2, -0.1) < 1.0
    assert spectral_radius(s2, +0.1) > 1.0


def _charpoly(Q):
    # Faddeev-LeVerrier in exact rationals: coefficients of det(x I - Q),
    # leading first.
    n = len(Q)
    coeffs = [F(1)]
    M = [[F(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [
            [sum(Q[i][l] * M[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        trace = sum(sum(Q[i][l] * M[l][i] for l in range(n)) for i in range(n))
        coeffs.append(-trace / k)
    return coeffs


def test_spectral_radius_matches_exact_characteristic_polynomial():
    schemes = [builtin(name) for name in BUILTIN_NAMES] + [_s4_scheme()]
    for sch in schemes:
        for k in range(-24, 9):
            z = F(k, 8)
            Q = [[sch.A[i][j] + z * sch.B[i][j] for j in range(sch.s)] for i in range(sch.s)]
            roots = np.roots([float(c) for c in _charpoly(Q)])
            ref = float(np.max(np.abs(roots)))
            mine = spectral_radius(sch, float(z))
            assert abs(mine - ref) <= 1e-10 * max(1.0, ref), (sch.name, z)


def test_power_iteration_agrees_with_radius():
    s2 = builtin("S2")
    A, B, _ = s2.float_tables
    v = np.ones(2)
    decayed = np.linalg.matrix_power(A - 0.1 * B, 60) @ v
    grew = np.linalg.matrix_power(A + 0.1 * B, 60) @ v
    assert np.max(np.abs(decayed)) < 0.1
    assert np.max(np.abs(grew)) > 10.0
    assert spectral_radius(s2, -0.1) < 1.0 < spectral_radius(s2, 0.1)


def test_stability_scan_matches_pointwise_radius():
    sch = builtin("S3C")
    re_vals, im_vals, rho = stability_scan(sch, (-2.0, 0.5), (-1.0, 1.0), 5)
    assert rho.shape == (5, 5)
    assert len(re_vals) == len(im_vals) == 5
    for i, y in enumerate(im_vals):
        for j, x in enumerate(re_vals):
            assert rho[i, j] == pytest.approx(
                spectral_radius(sch, complex(x, y)), rel=1e-13, abs=1e-13
            )


def test_stability_scan_rejects_degenerate_grid():
    with pytest.raises(ValueError, match="grid_n"):
        stability_scan(builtin("S2"), (-1, 0), (-1, 1), 1)


@pytest.mark.parametrize("axis", ["re", "im"])
@pytest.mark.parametrize(
    "pair",
    [(float("nan"), 1.0), (-1.0, float("nan")), (float("-inf"), 0.0), (0.0, float("inf")),
     (-1e308, 1e308)],
    ids=["nan-lo", "nan-hi", "-inf", "+inf", "span-overflows"],
)
def test_stability_scan_rejects_a_box_without_a_finite_span(axis, pair):
    box = {"re": (-1.0, 0.0), "im": (-1.0, 1.0), axis: pair}
    with pytest.raises(ValueError, match="^" + re.escape(f"{axis} range {pair} ")):
        stability_scan(builtin("S2"), box["re"], box["im"], 3)


@pytest.mark.parametrize(
    "re_range, im_range",
    [((-1e308, 0.0), (-1.0, 1.0)), ((-1.0, 0.0), (0.0, 1e308))],
    ids=["re", "im"],
)
def test_stability_scan_rejects_a_box_on_which_q_overflows(re_range, im_range):
    # Each span is finite but |z| * max|B| is not: refused before any eigvals
    # call, with no overflow warning (pytest turns any warning into an error).
    message = f"A + z B overflows double precision on the box re {re_range}, im {im_range}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        stability_scan(builtin("S2"), re_range, im_range, 3)


@pytest.mark.parametrize(
    "im_range", [(-7.8e307, 7.8e307), (0.0, 7.8e307)], ids=["mirrored", "per-row"]
)
def test_stability_scan_rejects_a_box_on_which_the_radius_is_not_finite(im_range):
    # Q = A + z B is finite at every corner, but at the corners far from 0
    # its radius is NaN: refused after the scan, on the mirrored half-scan
    # of a symmetric box as on the per-row scan, with no warning.
    re_range = (-7.8e307, 0.0)
    message = f"spectral radius of A + z B is not finite on the box re {re_range}, im {im_range}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        stability_scan(builtin("S2"), re_range, im_range, 3)


STABILITY_SCHEMES = [*BUILTIN_NAMES, "S4"]


def _scheme(name):
    return _s4_scheme() if name == "S4" else builtin(name)


def _row_oracle(sch, re_vals, y):
    # rho on one grid row, computed directly with one eigvals call.
    A, B, _ = sch.float_tables
    return np.abs(np.linalg.eigvals(A + (re_vals + 1j * y)[:, None, None] * B)).max(axis=1)


@pytest.mark.parametrize("name", STABILITY_SCHEMES)
@pytest.mark.parametrize(
    "re_range, h, n",
    [
        ((-3.0, 1.0), 3.0, 9),
        ((-2.5, 0.25), 1.5, 8),
        ((-2.0, 0.5), 2.0, 41),
        ((-1.0, 0.0), 0.5, 2),
        ((-3.0, 1.0), 3.0, 101),  # 51 computed rows, two eigvals calls
    ],
    ids=["odd", "even", "h2-n41", "n2", "n101"],
)
def test_stability_scan_mirrors_a_box_symmetric_about_the_real_axis(name, re_range, h, n):
    # rho(conj z) = rho(z) for real A and B; the lower rows are copies.
    sch = _scheme(name)
    re_vals, im_vals, rho = stability_scan(sch, re_range, (-h, h), n)
    if n == 41:
        assert (im_vals != -im_vals[::-1]).any()  # linspace is not antisymmetric here
    for i in range(n // 2, n):
        assert np.array_equal(rho[i], _row_oracle(sch, re_vals, im_vals[i]))
    for i in range(n):
        assert np.array_equal(rho[i], rho[n - 1 - i])
        for j in range(n):
            want = spectral_radius(sch, complex(re_vals[j], im_vals[i]))
            assert abs(rho[i, j] - want) <= 1e-12 * max(1.0, want), (i, j)


@pytest.mark.parametrize(
    "name, n",
    [(name, 9) for name in STABILITY_SCHEMES] + [(name, 101) for name in STABILITY_SCHEMES],
    ids=[*STABILITY_SCHEMES, *(f"{name}-n101" for name in STABILITY_SCHEMES)],
)
def test_stability_scan_computes_each_row_of_an_asymmetric_box(name, n):
    # At n = 101 the 10,201 points take three eigvals calls, two of them
    # ending mid-row.
    sch = _scheme(name)
    re_vals, im_vals, rho = stability_scan(sch, (-2.0, 0.5), (-1.0, 3.0), n)
    for i, y in enumerate(im_vals):
        assert np.array_equal(rho[i], _row_oracle(sch, re_vals, y))


@pytest.mark.parametrize(
    "im_range, n, cap",
    [((-3.0, 3.0), 301, None), ((-1.0, 3.0), 9, 7)],
    ids=["S2-n301", "rows-longer-than-the-cap"],
)
def test_stability_scan_bounds_the_points_of_each_eigvals_call(monkeypatch, im_range, n, cap):
    # Each call gets at most the cap's matrices, and the calls together get
    # Q(z) at each computed point once, in row-major order.
    if cap is not None:
        monkeypatch.setattr(analysis_module, "_EIGVALS_POINTS", cap)
    cap = analysis_module._EIGVALS_POINTS
    stacks = []
    eigvals = np.linalg.eigvals

    def recording(Q):
        stacks.append(Q)
        return eigvals(Q)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    sch = builtin("S2")
    re_vals, im_vals, rho = stability_scan(sch, (-2.0, 0.5), im_range, n)
    monkeypatch.undo()
    half = n // 2 if im_range[0] == -im_range[1] else 0
    assert len(stacks) == -(-(n - half) * n // cap) > 1
    assert all(len(Q) <= cap for Q in stacks)
    A, B, _ = sch.float_tables
    want = [A + (re_vals + 1j * y)[:, None, None] * B for y in im_vals[half:]]
    assert np.array_equal(np.concatenate(stacks), np.concatenate(want))
    for i in range(half, n):
        assert np.array_equal(rho[i], _row_oracle(sch, re_vals, im_vals[i]))


@pytest.mark.parametrize("name", STABILITY_SCHEMES)
def test_stability_scan_mirrors_a_reversed_symmetric_box(name):
    sch = _scheme(name)
    n = 9
    re_vals, im_vals, rho = stability_scan(sch, (-2.0, 0.5), (3.0, -3.0), n)
    assert im_vals[0] == 3.0 and im_vals[-1] == -3.0
    for i in range(n):
        k = max(i, n - 1 - i)
        assert np.array_equal(rho[i], _row_oracle(sch, re_vals, im_vals[k]))


def test_stability_scans_block_size_four():
    c_in = [F(3, 4), F(1, 2), F(1, 4), F(0)]
    c_out = [c + 1 for c in c_in]
    A = [[F(1), F(0), F(0), F(0)] for _ in range(4)]
    B = [[F(0)] * 4 for _ in range(4)]
    wide = make_scheme("wide", c_in, c_out, A, B)
    _, _, rho = stability_scan(wide, (-3.0, 1.0), (-3.0, 3.0), 9)
    assert np.abs(rho - 1.0).max() <= 1e-12  # Q(z) = A for every z

    sch = _s4_scheme()
    assert abs(spectral_radius(sch, 0.0) - 1.0) <= 1e-12
    re_vals, im_vals, rho = stability_scan(sch, (-1.0, 1.0), (-1.0, 1.0), 5)
    assert re_vals[2] == im_vals[2] == 0.0
    assert abs(rho[2, 2] - 1.0) <= 1e-12
    assert np.isfinite(rho).all()


# ----- the per-scheme memo ---------------------------------------------------


def _fresh(sch):
    # A new Scheme with the same fields and an empty memo.
    return make_scheme(sch.name, sch.c_in, sch.c_out, sch.A, sch.B)


def _memo_cases():
    rng = random.Random(22)
    yield from (builtin(name) for name in BUILTIN_NAMES)
    yield _s4_scheme()
    yield from (random_scheme(rng, s) for s in (2, 3, 3))


@pytest.mark.parametrize("table_first", [False, True], ids=["order-first", "table-first"])
def test_a_filled_memo_answers_as_a_fresh_scheme_does(table_first):
    # Filled in either order (the table reaching past d_{q+1}, or the order
    # walk stopping there), every reader agrees with a scheme computed anew.
    for sch in _memo_cases():
        p_max = 2 * sch.s + 1
        if table_first:
            residual_table(sch, p_max)
        truncation_order(sch)
        for p in range(p_max + 1):
            assert residual_vector(sch, p) == residual_vector(_fresh(sch), p)
        assert residual_table(sch, p_max) == residual_table(_fresh(sch), p_max)
        assert truncation_order(sch) == truncation_order(_fresh(sch))
        assert verify_conditions(sch) == verify_conditions(_fresh(sch))


def test_a_replaced_twin_starts_its_own_memo():
    sch = builtin("S3A")
    assert truncation_order(sch).q == 3
    residual_table(sch, 7)
    B = [list(row) for row in sch.B]
    B[2][0] += F(1, 7)
    twin = dataclasses.replace(sch, B=tuple(map(tuple, B)))
    assert twin.exact_memo == {} and twin.exact_memo is not sch.exact_memo
    # d_1 gains -B 1 in row 2: the twin drops to q = 0 with that row as leading.
    assert truncation_order(twin) == truncation_order(_fresh(twin))
    assert truncation_order(twin) == (0, (F(0), F(0), F(-1, 7)))
    assert residual_table(twin, 7) == residual_table(_fresh(twin), 7)
    assert residual_table(twin, 7) != residual_table(sch, 7)
    assert verify_conditions(twin).leading == (F(0), F(0), F(-1, 7))
    assert truncation_order(sch).q == 3


def test_a_negative_order_raises_with_a_filled_memo():
    sch = builtin("S2")
    residual_table(sch, 5)
    with pytest.raises(ValueError, match="p must be nonnegative"):
        residual_vector(sch, -1)
    assert -1 not in sch.exact_memo


def test_the_memo_leaves_equality_and_roundtrip_alone(tmp_path):
    sch = builtin("S3A")
    assert verify_conditions(sch).all_pass  # fills the memo first
    assert sch.exact_memo
    assert sch == _fresh(sch) and hash(sch) == hash(_fresh(sch))
    path = tmp_path / "S3A.json"
    save(sch, path)
    back = load(path)
    assert back == sch and hash(back) == hash(sch)
    assert back.exact_memo == {}
    assert truncation_order(back) == truncation_order(sch)
