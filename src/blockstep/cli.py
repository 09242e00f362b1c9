"""Command-line interface.

Subcommands: list, verify, truncation, derive, search, integrate, converge,
stability.  Exit code 0 on success, 1 on domain errors (unknown scheme,
unreachable horizon, bad input files, out of memory), 2 on usage errors.
A failed verification is a finding, not an error: `verify` exits 0 either way.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys
from fractions import Fraction

from . import __version__, analysis, derive, harness
from . import scheme as sch
from .exact import parse_rat, rat_str, to_double
from .integrate import _closed_form, _row_times, integrate as run_integration
from .integrate import problem as load_problem


def _rat(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except OverflowError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _int_at_least(k: int):
    """argparse type: an integer no smaller than k."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {value}")
        return value

    return parse


def _rat_list(text: str) -> list[Fraction]:
    return [_rat(tok) for tok in text.split(",") if tok.strip()]


def _range_pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return _rat(parts[0]), _rat(parts[1])


def _fix_pair(text: str) -> tuple[int, Fraction]:
    parts = text.split("=")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected index=value, got {text!r}")
    try:
        idx = int(parts[0])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad component index {parts[0]!r}") from None
    return idx, _rat(parts[1])


def _load_scheme(name: str) -> sch.Scheme:
    if name in sch.BUILTIN_NAMES:
        return sch.builtin(name)
    if os.path.exists(name):
        return sch.load(name)
    raise ValueError(
        f"unknown scheme {name!r}; builtins: {', '.join(sch.BUILTIN_NAMES)}"
    )


def _vec_str(v) -> str:
    return "(" + ", ".join(rat_str(x) for x in v) + ")"


def _print_matrix(label, M):
    print(f"{label} =")
    width = max(len(rat_str(x)) for row in M for x in row)
    for row in M:
        print("  [" + "  ".join(rat_str(x).rjust(width) for x in row) + "]")


# ----- subcommands ----------------------------------------------------------


def cmd_list(args) -> int:
    print(f"{'name':10s} {'s':>2s} {'q':>2s}  {'EIS':3s}  abscissae")
    for name in sch.BUILTIN_NAMES:
        scheme = sch.builtin(name)
        rep = analysis.verify_conditions(scheme)
        eis = "yes" if rep.all_pass else "no"
        print(
            f"{name:10s} {scheme.s:2d} {rep.q:2d}  {eis:3s}  "
            f"{_vec_str(scheme.c_in)} -> {_vec_str(scheme.c_out)}"
        )
    return 0


_WITNESS_NAMES = {"C1": "rank", "C2": "row_sums", "C3": "trace", "C4": "eis_residual"}


def _witness(w):
    if isinstance(w, tuple):
        return _vec_str(w)
    if isinstance(w, Fraction):
        return rat_str(w)
    return w


def cmd_verify(args) -> int:
    scheme = _load_scheme(args.scheme)
    rep = analysis.verify_conditions(scheme)
    if args.json:
        import json

        doc = {
            "scheme": rep.scheme_name,
            "conditions": {
                label: {"status": rec.status, "witness": _witness(rec.witness)}
                for label, rec in rep.conditions.items()
            },
            "q": rep.q,
            "leading": [rat_str(x) for x in rep.leading],
            "a": None if rep.a is None else [rat_str(x) for x in rep.a],
            "eis_residual": None if rep.eis_residual is None else rat_str(rep.eis_residual),
            "error_inhibiting": rep.all_pass,
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"scheme {rep.scheme_name}")
    for label, rec in rep.conditions.items():
        if rec.passed is None:
            print(f"{label} NOT EVALUATED (requires C1 and C2)")
        else:
            print(f"{label} {rec.status} {_WITNESS_NAMES[label]}={_witness(rec.witness)}")
    print(f"truncation order q={rep.q}, leading residual d_{rep.q + 1} = {_vec_str(rep.leading)}")
    print(f"error inhibiting: {'yes' if rep.all_pass else 'no'}")
    return 0


def cmd_truncation(args) -> int:
    scheme = _load_scheme(args.scheme)
    table = analysis.residual_table(scheme, args.pmax)
    for p in sorted(table):
        print(f"d_{p} = {_vec_str(table[p])}")
    print(f"truncation order q={analysis.truncation_order(scheme).q}")
    return 0


def cmd_derive(args) -> int:
    scheme = derive.assemble(args.a, args.cin, args.cout)
    rep = analysis.verify_conditions(scheme)
    print(f"a = {_vec_str(scheme.A[0])}")
    print(f"c_in = {_vec_str(scheme.c_in)}, c_out = {_vec_str(scheme.c_out)}")
    _print_matrix("B", scheme.B)
    print(f"achieved truncation order q={rep.q}")
    print(f"eis_residual = {rat_str(rep.eis_residual)}")
    if args.out:
        sch.save(scheme, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_search(args) -> int:
    lo, hi = args.range
    if args.fix is None:
        roots = derive.search_s2(args.cin, args.cout, (lo, hi))
    else:
        roots = derive.search_s3_slice(*args.fix, (lo, hi), args.cin, args.cout)
    if not roots:
        print("no roots in range")
        return 0
    for i, root in enumerate(roots):
        name = f"candidate_s{len(root.a)}_{i}"
        scheme = derive.assemble(root.a, args.cin, args.cout, name=name)
        rep = analysis.verify_conditions(scheme)
        print(
            f"root {i}: param={rat_str(root.param)} "
            f"({to_double(root.param, f'root {i} param'):.17g}, exact), "
            f"a={_vec_str(root.a)}, q={rep.q}, eis_residual={rat_str(rep.eis_residual)}"
        )
        if args.out_dir:
            path = os.path.join(args.out_dir, name + ".json")
            sch.save(scheme, path)
            print(f"  wrote {path}")
    return 0


def cmd_integrate(args) -> int:
    scheme = _load_scheme(args.scheme)
    prob = load_problem(args.problem)
    dt = to_double(args.dt, "--dt")
    to_double(args.T, "--T")
    # The exact --dt and --T: whether T is reachable is decided in rationals first.
    blocks = run_integration(scheme, prob, args.dt, args.T)
    if args.out:
        header = ["t"] + [f"component_{k}" for k in range(prob.dim)]
        harness.write_csv(args.out, header, ((n * dt, *b[-1]) for n, b in enumerate(blocks)))
        print(f"wrote {args.out}")
    n = len(blocks) - 1
    if prob.exact is not None:
        exact = _closed_form(prob, _row_times(scheme.float_tables[2], n, dt))
        errs = abs(blocks[-1] - exact.T).max(axis=1)
    print(f"final base time t={n * dt:.17g} after {n} steps of dt={dt:.17g}")
    for j, row in enumerate(blocks[-1]):
        vals = ", ".join(format(v, ".17g") for v in row)
        line = f"  c_in={rat_str(scheme.c_in[j])}: ({vals})"
        if prob.exact is not None:
            line += f"  |error|={errs[j]:.3e}"
        print(line)
    return 0


def cmd_converge(args) -> int:
    scheme = _load_scheme(args.scheme)
    prob = load_problem(args.problem)
    T = to_double(args.T, "--T")
    for d in args.dts:
        to_double(d, "--dts")
    report = harness.converge(scheme, prob, args.dts, args.T)
    print(f"{scheme.name} on {prob.name}, T={T:g}, reference: {report.reference}")
    labels = ["err"] + (["lte"] if report.lte is not None else [])
    cols = [f"{x}[{j}]" for x in labels for j in range(scheme.s)]
    print(f"{'dt':>12s} " + " ".join(f"{c:>12s}" for c in cols))
    for dt, *errs in harness._rows(report):
        print(f"{dt:12.6g} " + " ".join(f"{e:12.4e}" for e in errs))
    slopes = ", ".join(f"{x:.3f}" for x in report.global_slopes)
    print(f"global slopes: [{slopes}]  max-norm: {report.maxnorm_global_slope:.3f}")
    if report.lte_slopes is not None:
        slopes = ", ".join(f"{x:.3f}" for x in report.lte_slopes)
        print(f"lte slopes:    [{slopes}]  max-norm: {report.maxnorm_lte_slope:.3f}")
    if args.csv:
        harness.emit_csv(report, args.csv)
        print(f"wrote {args.csv}")
    if args.plot:
        harness.emit_plot_script(report, args.plot)
        print(f"wrote {args.plot}")
    return 0


def cmd_stability(args) -> int:
    scheme = _load_scheme(args.scheme)
    re_box = [to_double(x, "--re") for x in args.re]
    im_box = [to_double(x, "--im") for x in args.im]
    re_vals, im_vals, rho = analysis.stability_scan(scheme, re_box, im_box, args.n)
    rows = ((x, y, rho[i, j]) for i, y in enumerate(im_vals) for j, x in enumerate(re_vals))
    harness.write_csv(args.out, ["re", "im", "rho"], rows)
    if args.out:
        print(f"wrote {args.out} ({args.n}x{args.n} grid)")
    return 0


# ----- parser ---------------------------------------------------------------


def _allow_leading_minus(parser: argparse.ArgumentParser) -> None:
    # Values like -1/6,7/6 or -3:3 start with '-' but are data, not flags.
    # argparse only waves through plain negative numbers; widen its matcher
    # to anything that starts with a digit after the minus (no option of ours
    # does).  Falls back silently on interpreters without the attribute, where
    # the --flag=value form still works.
    if hasattr(parser, "_negative_number_matcher"):
        parser._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blockstep",
        description="Error-inhibiting explicit block one-step ODE schemes: "
        "verify conditions, derive candidates, run convergence studies.",
        epilog="Values starting with '-' can always be passed as --flag=value.",
    )
    _allow_leading_minus(p)
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    class _Sub(argparse.ArgumentParser):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            _allow_leading_minus(self)

    sub = p.add_subparsers(dest="command", required=True, metavar="command",
                           parser_class=_Sub)

    q = sub.add_parser("list", help="list builtin schemes")
    q.set_defaults(func=cmd_list)

    q = sub.add_parser("verify", help="check conditions C1-C4 for a scheme")
    q.add_argument("scheme", help="builtin name or scheme JSON file")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("truncation", help="print residual vectors d_p and the order")
    q.add_argument("scheme", help="builtin name or scheme JSON file")
    q.add_argument("--pmax", type=_int_at_least(1), default=6, help="highest order to print")
    q.set_defaults(func=cmd_truncation)

    q = sub.add_parser("derive", help="solve the order conditions for B given the row a")
    q.add_argument("--a", type=_rat_list, required=True, help="comma-separated rationals")
    q.add_argument("--cin", type=_rat_list, help="input abscissae (default (s-1)/s,...,0)")
    q.add_argument("--cout", type=_rat_list, help="output abscissae (default cin + 1)")
    q.add_argument("--out", help="write the assembled scheme JSON here")
    q.set_defaults(func=cmd_derive)

    q = sub.add_parser("search", help="find roots of the error-inhibiting constraint")
    q.add_argument("--range", type=_range_pair, default=(Fraction(-2), Fraction(2)),
                   metavar="LO:HI", help="slice parameter range (default -2:2)")
    q.add_argument("--fix", type=_fix_pair, metavar="K=V",
                   help="search the s=3 family with component K of a pinned to V "
                   "(default: the s=2 family)")
    q.add_argument("--cin", type=_rat_list)
    q.add_argument("--cout", type=_rat_list)
    q.add_argument("--out-dir", help="write candidate scheme JSON files here")
    q.set_defaults(func=cmd_search)

    q = sub.add_parser("integrate", help="run a scheme on a problem")
    q.add_argument("--scheme", required=True)
    q.add_argument("--problem", required=True, help="P1, P2, P3, or P4")
    q.add_argument("--dt", type=_rat, required=True, help="step size, p/q or decimal")
    q.add_argument("--T", type=_rat, required=True, help="final time")
    q.add_argument("--out", help="write trajectory CSV (abscissa-0 row per block)")
    q.set_defaults(func=cmd_integrate)

    q = sub.add_parser("converge", help="convergence study over a dt ladder")
    q.add_argument("--scheme", required=True)
    q.add_argument("--problem", required=True)
    q.add_argument("--dts", type=_rat_list, default=harness.STANDARD_DTS,
                   help="comma-separated step sizes (default 1/8,...,1/128)")
    q.add_argument("--T", type=_rat, default=Fraction(1))
    q.add_argument("--csv", help="write the error table here")
    q.add_argument("--plot", help="write a gnuplot script here")
    q.set_defaults(func=cmd_converge)

    q = sub.add_parser("stability", help="spectral radius of A + zB on a z grid")
    q.add_argument("--scheme", required=True)
    q.add_argument("--re", type=_range_pair, default=(Fraction(-3), Fraction(1)),
                   metavar="LO:HI")
    q.add_argument("--im", type=_range_pair, default=(Fraction(-3), Fraction(3)),
                   metavar="LO:HI")
    q.add_argument("--n", type=_int_at_least(2), default=41, help="grid points per axis")
    q.add_argument("--out", help="write re,im,rho CSV here (default stdout)")
    q.set_defaults(func=cmd_stability)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def app() -> None:
    # End silently, as POSIX tools do, when the reader of stdout goes away
    # (`blockstep list | head -1`): Python ignores SIGPIPE and would report
    # the broken pipe as an error instead.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    app()
