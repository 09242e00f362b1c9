#!/usr/bin/env python3
"""blockstep benchmark: seeded workloads, checked outputs, traced layer split.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload

Load is a closed loop: one process, one caller, the next op issued when the
previous one returns.  The seed makes one pass of ops (see workloads.py);
passes repeat until the ops have been busy for --seconds.  After each op a
calibration kernel (calibrate.py) measures the machine's current speed and
the op's output is checked, both outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice,
untraced and traced back to back, and reports the per-layer metrics,
including the tracing overhead; the busy time of both counts to --seconds.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full run record (machine,
seed, workload summary, all metrics, failures) goes to bench/out/.
"""

import os

# One thread per BLAS/OpenMP pool: the load is a single caller on a 2-core
# machine.  Set before numpy is imported; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("ladder-exact", "ladder-reference", "eis-design", "stability-map")
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
P90_MIN_OPS = 100  # p90 needs at least ten samples above it
# The end-to-end metrics BENCHMARK.json lists; the rest are printed and recorded.
BENCHMARK_END_TO_END = ("setup_s", "cal_ops_per_s", "cal_op_ms_p50", "peak_rss_mb")

# Spans reported with calls and self_s, in report order.
SPAN_METRICS = (
    "integrate.step", "integrate.measure_lte", "integrate.rk4_reference",
    "integrate.bootstrap", "integrate.integrate", "harness.converge",
    "harness.fit_slope", "derive.search_s2", "derive.search_s3_slice",
    "derive.solve_B", "derive.derive_scheme", "derive.assemble",
    "analysis.verify_conditions", "analysis.truncation_order",
    "analysis.residual_table", "analysis.stability_scan", "exact.rank",
    "exact.solve_linear", "bench.op",
)
COUNT_METRICS = ("derive.eis_constraint", "analysis.residual_vector")
RHS_METRICS = ("integrate.step", "integrate.rk4_reference", "integrate.bootstrap")


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _probe_setup(name, seed):
    """Set-up time of SETUP_PROBES fresh interpreters, plus the import split.

    Each probe's wall time is divided by the mean calibration kernel time
    just before and just after it and scaled to the kernel's reference time,
    as for the op latencies; setup_s is the median of these.
    """
    walls, ratios, splits = [], [], []
    last_cal = calibrate.kernel_seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(time.perf_counter() - t0)
        next_cal = calibrate.kernel_seconds()
        ratios.append(walls[-1] / ((last_cal + next_cal) / 2))
        last_cal = next_cal
        splits.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(ratios) * calibrate.REF_S,
        "wall_s": statistics.median(walls),
        "wall_s_samples": walls,
        **{k: statistics.median(s[k] for s in splits) for k in splits[0]},
    }


def _run_passes(wl, ops, variants, seconds, state):
    """Closed loop over the pass until the ops have been busy for seconds.

    variants maps a label to (runner, ctx); each op runs once per variant,
    back to back, in alternating order, so a traced and an untraced call of
    the same op see the same machine state.  The calibration kernel runs
    after every call, outside the timed region.  Returns, per label, each
    call's latency and the mean kernel time just before and just after it,
    in seconds, and the number of passes.
    """
    lat = {label: [] for label in variants}
    cal = {label: [] for label in variants}
    last_cal = calibrate.kernel_seconds()
    busy, done = 0.0, 0
    while done == 0 or busy < seconds:
        for i, op in enumerate(ops):
            order = list(variants.items())
            if (i + done) % 2:
                order.reverse()
            for label, (runner, ctx) in order:
                t0 = time.perf_counter()
                try:
                    out, err = runner(op, ctx), None
                except Exception as e:  # an op that raises is a counted failure
                    out, err = None, f"{type(e).__name__}: {e}"
                dt = time.perf_counter() - t0
                next_cal = calibrate.kernel_seconds()
                lat[label].append(dt)
                cal[label].append((last_cal + next_cal) / 2)
                last_cal = next_cal
                busy += dt
                msgs = [err] if err else wl.check(op, out, ctx)
                if not err:
                    fp = wl.fingerprint(out)
                    if state["fingerprints"].setdefault(i, fp) != fp:
                        msgs.append("output differs from the first run of this op")
                    if i not in state["outputs"]:
                        state["outputs"][i] = wl.outputs(op, out)
                if msgs:
                    state["failures"].append(
                        {"op": i, "pass": done, "variant": label, "why": msgs[:3]})
        done += 1
    return lat, cal, done


def _end_to_end(lat, cal, failed, setup):
    """Every end-to-end metric as (value, unit).

    The cal_* metrics divide each op's latency by the calibration kernel time
    measured next to it and scale back by the kernel's reference time: the
    op's latency at a fixed machine speed.  A shared machine's speed can
    drift by 1.5x over seconds to minutes; the plain median and rate follow
    that drift, the calibrated ones cancel most of it.
    """
    n = len(lat)
    ms = sorted(x * 1e3 for x in lat)
    ratio = [x / c for x, c in zip(lat, cal)]
    return {
        "setup_s": (setup["setup_s"], "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8] if n >= P90_MIN_OPS else None, "ms"),
        "fail_frac": (failed / n, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cal_ops_per_s": (n / (sum(ratio) * calibrate.REF_S), "1/s"),
        "cal_op_ms_p50": (statistics.median(ratio) * calibrate.REF_S * 1e3, "ms"),
    }


def _per_layer(tracer, setup, overhead):
    calls, self_s = tracer.aggregate()
    n_ref, retries, distinct = tracer.reference_work()
    points = tracer.points()
    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    n_step = calls["integrate.step"]
    m["integrate.step.us_per_call"] = (
        self_s["integrate.step"] * 1e6 / n_step if n_step else 0.0, "us")
    for name in RHS_METRICS:
        m[f"{name}.rhs_evals"] = (tracer.rhs_evals[name], "count")
    m["integrate.rk4_reference.retries"] = (retries, "count")
    m["integrate.rk4_reference.distinct_ratio"] = (distinct / n_ref if n_ref else 0.0, "ratio")
    for name in COUNT_METRICS:
        m[f"{name}.calls"] = (tracer.counts[name], "count")
    m["analysis.stability_scan.points"] = (points, "count")
    m["analysis.stability_scan.us_per_point"] = (
        self_s["analysis.stability_scan"] * 1e6 / points if points else 0.0, "us")
    m["cli.import_numpy_s"] = (setup["import_numpy_s"], "s")
    m["cli.import_blockstep_s"] = (setup["import_blockstep_s"], "s")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def _shares(tracer):
    """Share of traced op time in each module's and each function's own code."""
    _, self_s = tracer.aggregate()
    total = sum(self_s.values())
    by_module = {}
    for name, t in self_s.items():
        mod = name.split(".")[0]
        by_module[mod] = by_module.get(mod, 0.0) + t

    def ranked(d):
        return {k: v / total for k, v in sorted(d.items(), key=lambda kv: -kv[1])}

    return {"by_module": ranked(by_module), "by_function": ranked(self_s)}


def run_workload(name, seed, seconds, trace):
    sys.path.insert(0, str(SRC))
    import blockstep

    if Path(blockstep.__file__).resolve().parent != SRC / "blockstep":
        raise SystemExit(f"blockstep imported from {blockstep.__file__}, not {SRC}")
    from spans import Tracer
    from workloads import WORKLOADS, Context

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name]
    ops = wl.generate(random.Random(seed))
    setup = _probe_setup(name, seed)
    ctx = wl.prepare(ops)
    state = {"fingerprints": {}, "outputs": {}, "failures": []}
    fixed = wl.fixed_checks(ctx)

    variants = {"untraced": (wl.run, ctx)}
    if trace:
        tracer = Tracer()
        traced_ctx = Context(ctx.schemes, {k: tracer.count_rhs(p) for k, p in ctx.problems.items()})
        variants["traced"] = (tracer.op(wl.run), traced_ctx)
    lats, cals, passes = _run_passes(wl, ops, variants, seconds, state)
    lat = lats["untraced"]
    attempted = sum(len(v) for v in lats.values())
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": _metadata(),
        "load": "closed loop, one process, one caller",
        "workload_summary": {**wl.summary(ops), "passes": passes},
        "setup": setup,
    }
    e2e = _end_to_end(lat, cals["untraced"],
                      sum(f["variant"] == "untraced" for f in state["failures"]), setup)
    if trace:
        overhead = sum(lats["traced"]) / sum(lat) - 1.0
        metrics = _per_layer(tracer, setup, overhead)
        record["shares"] = _shares(tracer)
        tracer.write(OUT / f"{name}-seed{seed}.spans.csv")
    else:
        metrics = {k: e2e[k] for k in BENCHMARK_END_TO_END}
    failed = len(state["failures"])

    record.update({
        "attempted": attempted, "failed": failed,
        "fixed_check_failures": fixed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_outputs": [state["outputs"][i] for i in sorted(state["outputs"])],
        "latencies_ms": [round(x * 1e3, 4) for x in lat],
        "calibration_ms": [round(x * 1e3, 4) for x in cals["untraced"]],
        "failures": state["failures"][:50],
    })
    record_path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"== {name} seed {seed} trace {trace}: {len(lat)} ops in {passes} passes "
          f"of {len(ops)}, {failed} failed of {attempted} checked")
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh interpreters, at the calibration "
                        f"kernel's reference speed; as timed {setup['wall_s']:.4g} s",
             "op_ms_p50": f"n={len(lat)}", "fail_frac": f"of n={len(lat)}",
             "cal_ops_per_s": "at the calibration kernel's reference speed",
             "cal_op_ms_p50": f"n={len(lat)}, at the calibration kernel's reference speed",
             "op_ms_p90": f"n={len(lat)}" if len(lat) >= P90_MIN_OPS
             else f"not reported: n={len(lat)} < {P90_MIN_OPS}"}
    for k, (v, u) in e2e.items():
        shown = "-" if v is None else f"{v:.6g}"
        print(f"  {k:<14s} {shown:>12s} {u:<5s} {notes.get(k, '')}")
    if trace:
        for level, shares in record["shares"].items():
            print(f"  traced self-time share {level.replace('_', ' ')}: " + ", ".join(
                f"{k} {v:.1%}" for k, v in list(shares.items())[:6]))
        print(f"  tracing overhead: {overhead:+.1%} over the same ops untraced, "
              f"run back to back with them")
    for msg in fixed:
        print(f"  FIXED CHECK FAILED: {msg}")
    for f in state["failures"][:5]:
        print(f"  FAILED op {f['op']} pass {f['pass']} {f['variant']}: {'; '.join(f['why'])}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not fixed,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload; omit to run every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="busy time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "blockstep" / "__init__.py").is_file():
        print(f"error: no blockstep sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for name in WORKLOAD_NAMES:
        sys.stdout.flush()
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, timeout=600)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
