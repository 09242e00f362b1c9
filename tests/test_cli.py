import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from blockstep.cli import main
from blockstep.scheme import builtin, load, make_scheme, save
from blockstep.analysis import verify_conditions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0].split() == ["name", "s", "q", "EIS", "abscissae"]
    by_name = {line.split()[0]: line for line in lines[1:]}
    assert set(by_name) == {"S2", "BUTCHER2", "S3A", "S3B", "S3C"}
    assert " yes " in by_name["S2"]
    assert " no " in by_name["BUTCHER2"]
    assert "(2/3, 1/3, 0) -> (5/3, 4/3, 1)" in by_name["S3A"]


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "S2")
    assert code == 0
    assert "scheme S2" in out
    assert "C1 PASS rank=1" in out
    assert "C2 PASS row_sums=(1, 1)" in out
    assert "C3 PASS trace=1" in out
    assert "C4 PASS eis_residual=0" in out
    assert "truncation order q=2, leading residual d_3 = (161/576, 23/576)" in out
    assert "error inhibiting: yes" in out


def test_verify_fail_is_reported_not_raised(capsys):
    code, out, err = run(capsys, "verify", "BUTCHER2")
    assert code == 0  # verification ran fine; failing C4 is the finding
    assert "C4 FAIL eis_residual=19/24" in out
    assert "error inhibiting: no" in out


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "BUTCHER2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scheme"] == "BUTCHER2"
    assert doc["q"] == 2
    assert doc["conditions"]["C1"]["status"] == "PASS"
    assert doc["conditions"]["C4"] == {"status": "FAIL", "witness": "19/24"}
    assert doc["a"] == ["7/4", "-3/4"]
    assert doc["leading"] == ["23/48", "1/16"]
    assert doc["eis_residual"] == "19/24"
    assert doc["error_inhibiting"] is False


def test_verify_scheme_file_with_skipped_conditions(tmp_path, capsys):
    sch = make_scheme(
        "ident", ["1/2", 0], ["3/2", 1], [[1, 0], [0, 1]], [[0, 0], [0, 0]]
    )
    path = tmp_path / "ident.json"
    save(sch, path)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0
    assert "C1 FAIL rank=2" in out
    assert "C3 NOT EVALUATED (requires C1 and C2)" in out
    assert "C4 NOT EVALUATED (requires C1 and C2)" in out


def test_truncation(capsys):
    code, out, err = run(capsys, "truncation", "S2", "--pmax", "4")
    assert code == 0
    assert "d_1 = (0, 0)" in out
    assert "d_2 = (0, 0)" in out
    assert "d_3 = (161/576, 23/576)" in out
    assert "d_4 = (377/2304, 47/2304)" in out
    assert "truncation order q=2" in out
    # --pmax only limits the printed table; the order is always resolved.
    code, out, err = run(capsys, "truncation", "S2", "--pmax", "1")
    assert code == 0 and err == ""
    assert out == "d_1 = (0, 0)\ntruncation order q=2\n"
    code, out, err = run(capsys, "truncation", "S3A", "--pmax", "2")
    assert code == 0
    assert "d_3" not in out
    assert "truncation order q=3" in out


def test_derive_prints_and_saves(tmp_path, capsys):
    out_path = tmp_path / "derived.json"
    code, out, err = run(
        capsys,
        "derive",
        "--a=-1/6,7/6",
        "--cin=1/2,0",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "a = (-1/6, 7/6)" in out
    assert "55/24" in out
    assert "achieved truncation order q=2" in out
    assert "eis_residual = 0" in out
    saved = load(out_path)
    ref = builtin("S2")
    assert (saved.c_in, saved.c_out, saved.A, saved.B) == (
        ref.c_in,
        ref.c_out,
        ref.A,
        ref.B,
    )


def test_derive_default_abscissae_follow_block_size(capsys):
    code, out, err = run(capsys, "derive", "--a=-1/6,7/6")
    assert code == 0
    assert "c_in = (1/2, 0), c_out = (3/2, 1)" in out


def test_derive_size_mismatch(capsys):
    code, out, err = run(capsys, "derive", "--a=-1/6,7/6", "--cin=2/3,1/3,0")
    assert code == 1
    assert err.startswith("error: dimension mismatch")


def test_search_s2_finds_the_known_root(tmp_path, capsys):
    code, out, err = run(capsys, "search", "--out-dir", str(tmp_path))
    assert code == 0
    assert "param=-1/6" in out
    assert "exact" in out
    assert "q=2" in out and "eis_residual=0" in out
    candidate = load(tmp_path / "candidate_s2_0.json")
    assert verify_conditions(candidate).all_pass


def test_search_s3_slice(capsys):
    code, out, err = run(capsys, "search", "--fix", "0=467/768", "--range", "-3:3")
    assert code == 0
    assert "param=-499/192" in out
    assert "q=3" in out


def test_search_empty_range(capsys):
    code, out, err = run(capsys, "search", "--range", "0:1")
    assert code == 0
    assert "no roots in range" in out


def test_integrate_writes_trajectory(tmp_path, capsys):
    csv = tmp_path / "p1.csv"
    code, out, err = run(
        capsys,
        "integrate",
        "--scheme",
        "S2",
        "--problem",
        "P1",
        "--dt",
        "1/8",
        "--T",
        "1",
        "--out",
        str(csv),
    )
    assert code == 0
    assert "final base time t=1 after 8 steps" in out
    assert "|error|=" in out
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "t,component_0"
    assert len(lines) == 10  # header + initial block + 8 steps
    t_last, u_last = (float(x) for x in lines[-1].split(","))
    assert t_last == 1.0
    assert abs(u_last - 0.5) < 1e-3


def test_integrate_misaligned_step(capsys):
    code, out, err = run(
        capsys, "integrate", "--scheme", "S2", "--problem", "P1",
        "--dt", "0.3", "--T", "1",
    )
    assert code == 1
    assert "error: T not reachable with this dt" in err


def test_unknown_scheme(capsys):
    code, out, err = run(capsys, "verify", "NOPE")
    assert code == 1
    assert "unknown scheme 'NOPE'" in err
    assert "builtins: S2, BUTCHER2, S3A, S3B, S3C" in err


def test_unknown_problem(capsys):
    code, out, err = run(
        capsys, "integrate", "--scheme", "S2", "--problem", "P7",
        "--dt", "1/8", "--T", "1",
    )
    assert code == 1
    assert "unknown problem" in err


def test_converge_outputs(tmp_path, capsys):
    csv = tmp_path / "conv.csv"
    plot = tmp_path / "conv.gp"
    code, out, err = run(
        capsys,
        "converge",
        "--scheme",
        "S2",
        "--problem",
        "P1",
        "--dts",
        "1/8,1/16,1/32",
        "--csv",
        str(csv),
        "--plot",
        str(plot),
    )
    assert code == 0
    assert "S2 on P1" in out
    assert "reference: exact" in out
    assert "global slopes:" in out and "max-norm:" in out
    assert "lte slopes:" in out
    header = csv.read_text().split("\n", 1)[0]
    assert header == "dt,global_err_comp_0,global_err_comp_1,lte_comp_0,lte_comp_1"
    assert "$DATA << EOD" in plot.read_text()


def test_stability_csv(tmp_path, capsys):
    out_path = tmp_path / "stab.csv"
    code, out, err = run(
        capsys,
        "stability",
        "--scheme",
        "S2",
        "--re",
        "0:0",
        "--im",
        "0:0",
        "--n",
        "2",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "re,im,rho"
    assert len(lines) == 5  # header + 2x2 grid
    for line in lines[1:]:
        re, im, rho = (float(x) for x in line.split(","))
        assert re == 0.0 and im == 0.0
        assert abs(rho - 1.0) < 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--scheme", "S2", "--problem", "P1", "--dt", "1/8", "--T", "1", "--out"],
        ["stability", "--scheme", "S2", "--n", "2", "--out"],
        ["converge", "--scheme", "S2", "--problem", "P1", "--dts", "1/8,1/16,1/32", "--csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_into_a_missing_directory_is_an_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert err.startswith("error: [Errno 2]") and str(path) in err and err.count("\n") == 1
    assert "wrote" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--scheme", "S2", "--problem", "P1", "--dt", "1/8", "--T", "1e400"],
        ["converge", "--scheme", "S2", "--problem", "P1", "--T", "1e400"],
        ["stability", "--scheme", "S2", "--re=-1e400:1", "--n", "3"],
        ["stability", "--scheme", "{big}", "--n", "3"],
    ],
    ids=["integrate-T", "converge-T", "stability-re", "stability-file"],
)
def test_values_beyond_double_range_are_an_error(tmp_path, capsys, argv):
    # Exact rationals parse any size; turning one into a double overflows.
    doc = {"name": "big", "s": 2, "c_in": ["1/2", "0"], "c_out": ["3/2", "1"],
           "A": [["1e400", "1"], ["-1/6", "7/6"]], "B": [["1", "0"], ["0", "1"]]}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(big=big) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform without SIGPIPE")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["list"], ["stability", "--scheme", "S2", "--n", "300"]],
                         ids=lambda argv: argv[0])
def test_closed_stdout_ends_quietly(argv, unbuffered):
    # A reader that has gone away (`blockstep list | head -0`): the CLI ends
    # on SIGPIPE like any POSIX tool, with nothing on stderr.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "blockstep.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (-signal.SIGPIPE, "")


def test_stability_stdout(capsys):
    code, out, err = run(capsys, "stability", "--scheme", "S3C", "--n", "2")
    assert code == 0
    assert out.startswith("re,im,rho")


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derive"])  # --a is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv, complaint in (
        (["truncation", "S2", "--pmax", "0"], "argument --pmax: must be >= 1, got 0"),
        (["truncation", "S2", "--pmax", "two"], "argument --pmax: not an integer: 'two'"),
        (["stability", "--scheme", "S2", "--n", "1"], "argument --n: must be >= 2, got 1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert complaint in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "blockstep" in capsys.readouterr().out

