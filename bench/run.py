"""Benchmark of the ddvv toolkit: one workload, one seed, one JSON result.

    python3 bench/run.py --workload check-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, the input digest and the workload's named
figures.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a separate traced run.  See
``bench/README.md`` for how to read them.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import pace  # noqa: E402
from tracer import CHECKS, Tracer, gradient_flops, objective_flops, summarize  # noqa: E402

# workloads.py imports ddvv, so it is imported only after import_program().

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
# A fresh interpreter imports ddvv.cli and finishes one check call.
SETUP_CHILD = ("import sys, ddvv.cli\n"
               "sys.exit(ddvv.cli.main(['check', '--input', sys.argv[1], "
               "'--output', sys.argv[2]]))\n")


def import_program():
    """Import ddvv from this checkout's src/; raise ImportError otherwise."""
    sys.path.insert(0, str(SRC))
    import ddvv

    if not Path(ddvv.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ddvv was imported from {ddvv.__file__}, not from {SRC}")
    return ddvv


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def measure_setup(warm_doc, workdir):
    """Paced and raw median seconds for a fresh interpreter to import and check."""
    # no timer here: its samples would run beside the child, not between calls
    env = dict(os.environ, PYTHONPATH=str(SRC))
    paced, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = pace.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(warm_doc), str(workdir / "warm-report.json")],
            cwd=ROOT, env=env, capture_output=True, timeout=60)
        raw.append(time.perf_counter() - t0)
        paced.append(pace.paced(raw[-1], (before + pace.sample()) / 2))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return statistics.median(paced), statistics.median(raw)


def write_warm_doc(seed, workdir):
    """One random (3, 3) point for the set-up and warm-up calls."""
    from workloads import derived_seed

    rng = np.random.default_rng(derived_seed(seed, 0))
    g = rng.standard_normal((3, 3, 3))
    doc = {"n": 3, "m": 3, "ambient_c": 0.0,
           "shape_operators": ((g + g.transpose(0, 2, 1)) / 2).tolist()}
    path = workdir / "warm.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def warm_up(warm_doc, workdir):
    """One untimed call of each entry point, so lazy set-up is done."""
    from ddvv import cli, extremizer, fuzz

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check", "--input", str(warm_doc), "--output", str(workdir / "warm-report.json")])
    extremizer.multistart(extremizer.SearchConfig(n=3, m=3, restarts=1))
    fuzz.run_fuzz(3, 3, 2, 0)


def percentile(values, q):
    """The q-th percentile, or None unless at least ten values lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(wl, seconds):
    """Whole cycles over the workload's pool, in a closed loop, until the time
    inside the program reaches `seconds`.  One list of rounds per cycle;
    every round carries its program seconds and pace."""
    cycles, busy = [], 0.0
    with pace.Pacer() as pacer:
        while busy < seconds or not cycles:
            cycles.append([wl.round(k) for k in range(wl.size)])
            busy += sum(r.end - r.start for r in cycles[-1])
    pacer.attribute([r for cycle in cycles for r in cycle])
    return cycles


def entry_times(cycles):
    """Paced seconds of each pool entry: the median over its visits."""
    return [statistics.median(pace.paced(cycle[k].seconds, cycle[k].pace) for cycle in cycles)
            for k in range(len(cycles[0]))]


def best_times(cycles):
    """Raw seconds of each pool entry: the fastest of its visits."""
    return [min(cycle[k].seconds for cycle in cycles) for k in range(len(cycles[0]))]


def verdict(rounds):
    """(correct, attempted, failed); only known defects may fail in a correct run."""
    from workloads import KNOWN_DEFECTS

    failures = [kind for r in rounds for kind in r.failures]
    correct = all(kind in KNOWN_DEFECTS for kind in failures)
    return correct, sum(r.calls for r in rounds), len(failures)


def end_to_end(wl, cycles, setup):
    """Paced metrics; the raw figures and per-workload names go to `named`."""
    entries, best = entry_times(cycles), best_times(cycles)
    work = sum(r.work for r in cycles[0])
    visits = [r.seconds for cycle in cycles for r in cycle]
    _, calls, failed = verdict([r for cycle in cycles for r in cycle])
    metrics = {
        "setup_s": {"value": setup[0], "unit": "s"},
        "paced_work_per_s": {"value": work / sum(entries), "unit": "1/s"},
        "paced_round_ms_p50": {"value": 1e3 * statistics.median(entries), "unit": "ms"},
    }
    prefix = wl.name.split("-")[0]
    tails = {q: percentile(visits, q) for q in (90, 99)}
    named = {
        f"{prefix}.{wl.unit}s_per_s": work / sum(entries),
        f"{prefix}.round_ms_p50": 1e3 * statistics.median(entries),
        f"{prefix}.raw_{wl.unit}s_per_s_fastest_visits": work / sum(best),
        f"{prefix}.raw_{wl.unit}s_per_s_all_visits": work * len(cycles) / sum(visits),
        **{f"{prefix}.raw_round_ms_p{q}_all_visits": None if v is None else 1e3 * v
           for q, v in tails.items()},
        f"{prefix}.failed_ratio": failed / calls,
        "raw_setup_s": setup[1],
        "pool_rounds": wl.size,
        "cycles": len(cycles),
    }
    return metrics, named


def traced_run(wl, seconds):
    """Alternate untraced and traced cycles over the workload's pool.

    Every cycle does the same work, so counts repeat exactly between
    cycles and between runs with the same seed.  Returns the untraced
    cycles and one (tracer, cycle) pair per traced cycle.
    """
    untraced, passes, start = [], [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        untraced.append([wl.round(k) for k in range(wl.size)])
        tracer = Tracer()
        with tracer.patched():
            passes.append((tracer, [wl.round(k) for k in range(wl.size)]))
    return untraced, passes


def kernel_flops(spans, rounds):
    """Flops of the objective and gradient calls, computed from each search's (m, n)."""
    shapes = iter([(n, m) for r in rounds for (n, m, _) in r.details])
    owner, flops = {}, 0
    for sid, (name, _, _, parent) in enumerate(spans):
        if name == "extremizer.multistart":
            owner[sid] = next(shapes)
        elif name in ("extremizer.objective", "extremizer.gradient"):
            while parent >= 0 and parent not in owner:
                parent = spans[parent][3]
            if parent < 0:
                continue
            n, m = owner[parent]
            flops += (objective_flops if name.endswith("objective") else gradient_flops)(m, n)
    return flops


def layer_metrics(wl, untraced, passes):
    """Per-layer figures: counts and times from the fastest traced cycle.

    Also returns the counts and whether every traced cycle repeated them.
    """
    summaries = [summarize(tracer.spans) for tracer, _ in passes]
    fastest = min(range(len(passes)), key=lambda i: sum(r.seconds for r in passes[i][1]))
    calls, incl, self_s = summaries[fastest]
    rounds = passes[fastest][1]
    work = sum(r.work for r in rounds)
    points = work if wl.unit == "point" else 0
    samples = work if wl.unit == "sample" else 0

    def per(total, count, scale=1e3):
        return scale * total / count if count else 0.0

    def t(name, table=incl):
        return table.get(name, 0.0)

    restarts = [o for r in rounds for (_, _, outcomes) in r.details for o in outcomes]
    iterations = sum(o.iterations for o in restarts)
    # an iteration accepts a step unless the restart stopped in it
    accepted = sum(o.iterations - o.converged for o in restarts)
    line_search_evals = calls["extremizer.objective"] - calls["extremizer.ascend"]
    kernel_s = t("extremizer.objective") + t("extremizer.gradient")
    overhead = sum(best_times([c for _, c in passes])) / sum(best_times(untraced))
    ms, us, count, ratio = "ms", "us", "count", "ratio"
    figures = {
        "cli.read_input_ms_per_point": (per(t("cli.read_input_document"), points), ms),
        "cli.write_report_ms_per_point": (per(t("cli.write_json"), points), ms),
        "cli.cmd_check_self_ms_per_point": (per(t("cli.cmd_check", self_s), points), ms),
        "cli.main_self_ms_per_point": (per(t("cli.main", self_s), points), ms),
        "matrix_core.as_symmetric_calls_per_point": (
            per(calls["matrix_core.as_symmetric"], points, 1), count),
        "matrix_core.as_symmetric_ms_per_point": (per(t("matrix_core.as_symmetric"), points), ms),
        "matrix_core.random_orthogonal_ms_per_sample": (
            per(t("matrix_core.random_orthogonal"), samples), ms),
        "curvature.invariants_calls_per_point": (per(calls["curvature.invariants"], points, 1), count),
        "curvature.traceless_parts_calls_per_point": (
            per(calls["curvature.traceless_parts"], points, 1), count),
        "curvature.invariants_ms_per_point": (per(t("curvature.invariants"), points), ms),
        "curvature.oracle_routes_ms_per_sample": (
            per(t("curvature.rho_direct") + t("curvature.rho_perp_direct"), samples), ms),
        "inequalities.checks_ms_per_point": (per(sum(t(c) for c in CHECKS), points), ms),
        "inequalities.checks_ms_per_sample": (per(sum(t(c) for c in CHECKS), samples), ms),
        "lagrangian.symmetry_check_ms_per_point": (
            per(t("lagrangian.lagrangian_symmetry_check"), points), ms),
        "extremizer.iterations": (iterations, count),
        "extremizer.objective_calls": (calls["extremizer.objective"], count),
        "extremizer.gradient_calls": (calls["extremizer.gradient"], count),
        "extremizer.accept_ratio": (
            accepted / line_search_evals if line_search_evals else 0.0, ratio),
        "extremizer.us_per_iteration": (per(t("extremizer.ascend"), iterations, 1e6), us),
        "extremizer.objective_self_us_per_iteration": (
            per(t("extremizer.objective", self_s), iterations, 1e6), us),
        "extremizer.gradient_self_us_per_iteration": (
            per(t("extremizer.gradient", self_s), iterations, 1e6), us),
        "extremizer.normalize_self_us_per_iteration": (
            per(t("extremizer.normalize", self_s), iterations, 1e6), us),
        "extremizer.ascend_self_us_per_iteration": (
            per(t("extremizer.ascend", self_s), iterations, 1e6), us),
        "extremizer.kernel_gflops_computed": (
            kernel_flops(passes[fastest][0].spans, rounds) / 1e9 / kernel_s
            if kernel_s else 0.0, "GFLOP/s"),
        "fuzz.run_fuzz_self_ms_per_sample": (per(t("fuzz.run_fuzz", self_s), samples), ms),
        "trace.overhead_ratio": (overhead, ratio),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    counts = [dict(summary[0]) for summary in summaries]
    return metrics, counts[0], all(c == counts[0] for c in counts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as e:
        print(f"bench: cannot import the program: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        meta, result = run(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


def run(workload_cls, args, workdir):
    warm_doc = write_warm_doc(args.seed, workdir)
    setup = None if args.trace else measure_setup(warm_doc, workdir)
    wl = workload_cls(args.seed, workdir)
    warm_up(warm_doc, workdir)
    meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "inputs_sha256": wl.digest}
    traced_ok = True
    if args.trace:
        untraced, passes = traced_run(wl, args.seconds)
        metrics, counts, deterministic = layer_metrics(wl, untraced, passes)
        missing = passes[0][0].missing
        traced_ok = deterministic and not missing
        cycles = untraced + [cycle for _, cycle in passes]
        trace_file = WORK / f"trace-{wl.name}-seed{args.seed}.jsonl"
        passes[-1][0].write(trace_file)
        meta.update(traced_cycles=len(passes), pool_rounds=wl.size, counts=counts,
                    counts_repeat=deterministic, missing_functions=missing,
                    trace_file=str(trace_file.relative_to(ROOT)))
    else:
        cycles = timed_run(wl, args.seconds)
        metrics, meta["named"] = end_to_end(wl, cycles, setup)
    rounds = [r for cycle in cycles for r in cycle]
    correct, attempted, failed = verdict(rounds)
    failures = [kind for r in rounds for kind in r.failures]
    meta["failures"] = {kind: failures.count(kind) for kind in sorted(set(failures))}
    result = {"correct": correct and traced_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return meta, result


if __name__ == "__main__":
    sys.exit(main())
