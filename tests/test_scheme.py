import dataclasses
import json
import sys
import time
from fractions import Fraction as F

import pytest

from blockstep.scheme import BUILTIN_NAMES, Scheme, builtin, load, make_scheme, save


def _scaled(den, rows):
    return tuple(tuple(F(x, den) for x in row) for row in rows)


def test_builtin_names():
    assert BUILTIN_NAMES == ("S2", "BUTCHER2", "S3A", "S3B", "S3C")


def test_s2_table():
    sch = builtin("S2")
    assert sch.s == 2
    assert sch.c_in == (F(1, 2), F(0))
    assert sch.c_out == (F(3, 2), F(1))
    assert sch.A == _scaled(6, [[-1, 7], [-1, 7]])
    assert sch.B == _scaled(24, [[55, -17], [25, 1]])


def test_butcher2_table():
    sch = builtin("BUTCHER2")
    assert sch.c_in == (F(1), F(0))
    assert sch.c_out == (F(2), F(1))
    assert sch.A == _scaled(4, [[7, -3], [7, -3]])
    assert sch.B == _scaled(8, [[9, -7], [-3, -3]])


def test_s3a_table():
    sch = builtin("S3A")
    assert sch.s == 3
    assert sch.c_in == (F(2, 3), F(1, 3), F(0))
    assert sch.c_out == (F(5, 3), F(4, 3), F(1))
    assert sch.A == _scaled(768, [[467, -1996, 2297]] * 3)
    assert sch.B == _scaled(
        1152,
        [[5439, -6046, 3058], [2399, -1694, 1362], [703, 354, 626]],
    )


def test_s3b_table():
    sch = builtin("S3B")
    assert sch.A == _scaled(1020, [[449, -1966, 2537]] * 3)
    assert sch.B == _scaled(
        6120,
        [[29123, -32576, 15789], [12973, -9456, 6779], [3963, 1424, 2869]],
    )


def test_s3c_table():
    sch = builtin("S3C")
    assert sch.A == tuple((F(-101, 96), F(97, 24), F(-191, 96)) for _ in range(3))
    assert sch.B == (
        (F(733, 144), F(-431, 72), F(23, 12)),
        (F(353, 144), F(-53, 24), F(4, 9)),
        (F(47, 48), F(-31, 72), F(-7, 36)),
    )


def test_every_builtin_free_matrix_has_unit_row_sums():
    for name in BUILTIN_NAMES:
        sch = builtin(name)
        for row in sch.A:
            assert sum(row, F(0)) == 1


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("S9")


def test_ascending_input_abscissae_rejected():
    with pytest.raises(ValueError, match=r"abscissae not descending \(c_in\)"):
        make_scheme("bad", [0, F(1, 2)], [1, F(3, 2)], [[1, 0], [0, 1]], [[0, 0], [0, 0]])


def test_ascending_output_abscissae_rejected():
    with pytest.raises(ValueError, match=r"abscissae not descending \(c_out\)"):
        make_scheme("bad", [F(1, 2), 0], [1, F(3, 2)], [[1, 0], [0, 1]], [[0, 0], [0, 0]])


def test_non_square_free_matrix_rejected():
    with pytest.raises(ValueError, match="A not square of size s"):
        make_scheme("bad", [F(1, 2), 0], [F(3, 2), 1], [[1, 0, 0], [0, 1, 0]], [[0, 0], [0, 0]])


def test_non_square_derivative_matrix_rejected():
    with pytest.raises(ValueError, match="B not square of size s"):
        make_scheme("bad", [F(1, 2), 0], [F(3, 2), 1], [[1, 0], [0, 1]], [[0], [0]])


def test_last_input_abscissa_must_anchor_at_zero():
    with pytest.raises(ValueError, match="last input abscissa must be 0"):
        make_scheme("bad", [1, F(1, 2)], [2, F(3, 2)], [[1, 0], [0, 1]], [[0, 0], [0, 0]])


def test_outputs_must_lie_ahead_of_inputs():
    with pytest.raises(ValueError, match="output abscissae must exceed input"):
        make_scheme("bad", [F(1, 2), 0], [F(1, 2), F(1, 4)], [[1, 0], [0, 1]], [[0, 0], [0, 0]])


def test_save_load_roundtrip_all_builtins(tmp_path):
    for name in BUILTIN_NAMES:
        sch = builtin(name)
        path = tmp_path / f"{name}.json"
        save(sch, path)
        back = load(path)
        assert back == sch


def test_load_reports_unknown_field(tmp_path):
    sch = builtin("S2")
    path = tmp_path / "s2.json"
    save(sch, path)
    doc = json.loads(path.read_text())
    doc["order"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown field: order"):
        load(path)


def test_load_reports_missing_field(tmp_path):
    sch = builtin("S2")
    path = tmp_path / "s2.json"
    save(sch, path)
    doc = json.loads(path.read_text())
    del doc["B"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="missing field: B"):
        load(path)


def test_load_refuses_a_decimal_exponent_beyond_the_digit_limit(tmp_path):
    # Refused before Fraction builds 10**99999999, which took seconds.
    path = tmp_path / "huge.json"
    save(builtin("S2"), path)
    doc = json.loads(path.read_text())
    doc["c_in"] = ["1e99999999", "0"]
    path.write_text(json.dumps(doc))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    t0 = time.perf_counter()
    try:
        with pytest.raises(ValueError) as exc:
            load(path)
    finally:
        sys.set_int_max_str_digits(old)
    assert time.perf_counter() - t0 < 0.5
    assert str(exc.value) == "c_in[0]: decimal exponent of '1e99999999' exceeds 4300 in magnitude"


def test_load_points_at_the_bad_rational(tmp_path):
    sch = builtin("S2")
    path = tmp_path / "s2.json"
    save(sch, path)
    doc = json.loads(path.read_text())
    doc["c_in"][1] = "1/0"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"c_in\[1\]: invalid rational"):
        load(path)
    doc["c_in"][1] = "0"
    doc["A"][0][1] = "seven sixths"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"A\[0\]\[1\]: invalid rational"):
        load(path)


def test_load_reports_json_syntax_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  oops\n}\n')
    with pytest.raises(ValueError, match="parse error at line 3"):
        load(path)


def test_load_checks_declared_size(tmp_path):
    sch = builtin("S2")
    path = tmp_path / "s2.json"
    save(sch, path)
    doc = json.loads(path.read_text())
    doc["s"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="declared 3"):
        load(path)


def test_load_rejects_a_boolean_size(tmp_path):
    # bool is an int subclass: "s": true would pass as 1 for a one-row scheme.
    path = tmp_path / "euler.json"
    save(make_scheme("euler", [0], [1], [[1]], [[1]]), path)
    doc = json.loads(path.read_text())
    for flag in (True, False):
        doc["s"] = flag
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^s: expected an integer$"):
            load(path)


def test_load_rejects_a_name_that_is_not_a_printable_string(tmp_path):
    # The name reaches printed tables and gnuplot scripts: a newline in it
    # would start a line of its own there.
    path = tmp_path / "s2.json"
    save(builtin("S2"), path)
    doc = json.loads(path.read_text())
    for name in ("S2'\nprint 'injected line'\n#", "tab\there", 2, None, ["S2"]):
        doc["name"] = name
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^name: expected a printable string$"):
            load(path)
    doc["name"] = "O'Brien"
    path.write_text(json.dumps(doc))
    assert load(path).name == "O'Brien"


def test_scheme_is_immutable():
    sch = builtin("S2")
    with pytest.raises(AttributeError):
        sch.c_in = (F(1), F(0))


def test_block_size_is_read_off_the_input_abscissae():
    sch = builtin("S3A")
    assert [f.name for f in dataclasses.fields(sch)] == ["name", "c_in", "c_out", "A", "B"]
    with pytest.raises(ValueError, match="abscissae must have length s=2"):
        make_scheme("bad", [F(1, 2), 0], [2, F(3, 2), 1], [[1, 0], [0, 1]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="s must be positive"):
        Scheme("empty", (), (), (), ())


def test_float_tables_are_cached_and_read_only():
    sch = builtin("S3A")
    A, B, c_in = first = sch.float_tables
    assert all(x is y for x, y in zip(sch.float_tables, first))
    assert A[0, 0] == 467 / 768 and c_in.tolist() == [2 / 3, 1 / 3, 0.0]
    for arr in first:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_float_tables_leave_equality_and_roundtrip_alone(tmp_path):
    sch = builtin("S2")
    assert sch.float_tables[1].shape == (2, 2)  # fills the instance cache first
    path = tmp_path / "S2.json"
    save(sch, path)
    back = load(path)
    assert back == sch and hash(back) == hash(sch)
    doubled = dataclasses.replace(sch, B=tuple(tuple(2 * x for x in row) for row in sch.B))
    assert (doubled.float_tables[1] == 2 * sch.float_tables[1]).all()
