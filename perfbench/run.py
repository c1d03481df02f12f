r"""telekf benchmark: one workload per process, timed end to end or traced
layer by layer.

    python3 perfbench/run.py --workload sweep_c11 --seed 1 --seconds 25 \
        --trace 0

Run from the root of a telekf checkout; the package is imported from its
``src`` directory.  The inputs are generated from ``--seed``; the run
repeats the workload's iteration for ``--seconds`` seconds, checks every
output, prints a report and, as its last line, a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced iterations alternate and the metrics are the per-layer
ones.  Raw samples and spans go to ``.perfbench_work/results``.  The exit
code is 0 when every operation succeeded and its output was correct, 1
when one failed, and 2 when the checkout has no telekf sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer, summarize
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh interpreters started per untraced run to time set-up.
SETUP_RUNS = 15
SETUP_CODE = "import telekf.cli as cli; cli.build_parser()"

# A shared host's speed can drift by half within a minute, and code that
# does not touch telekf slows down with it.  So every timed unit is
# bracketed by runs of a fixed calibration kernel, and a reported time is
# the median over units of (unit time / mean bracketing kernel time)
# * KERNEL_REF_S: seconds at the host speed where the kernel takes 10 ms
# (roughly its time on a 2-core Xeon VM).  Raw wall times are printed and
# saved alongside.
KERNEL_REF_S = 0.010

END_TO_END = (
    ("wall_ref_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("dataio.self_s", "s", "lower"),
    ("dataio.load_dataset.s", "s", "lower"),
    ("dataio.load_dataset.calls", "count", "lower"),
    ("dataio.load_dataset.bytes", "B", "lower"),
    ("dataio.normalize.s", "s", "lower"),
    ("dataio.build_hankel.s", "s", "lower"),
    ("dataio.build_hankel.bytes_computed", "B", "lower"),
    ("sysid.self_s", "s", "lower"),
    ("sysid.moesp_decompose.self_s", "s", "lower"),
    ("sysid.moesp_decompose.flops_computed", "flop", "lower"),
    ("sysid.realize.s", "s", "lower"),
    ("sysid.simulate.s", "s", "lower"),
    ("sysid.simulate.calls", "count", "lower"),
    ("sysid.simulate.steps", "count", "lower"),
    ("netsim.self_s", "s", "lower"),
    ("netsim.impair.s", "s", "lower"),
    ("netsim.impair.calls", "count", "lower"),
    ("netsim.rows_changed_frac", "frac", "higher"),
    ("netsim.lost_frac", "frac", "lower"),
    ("estimator.self_s", "s", "lower"),
    ("estimator.run_filter.s", "s", "lower"),
    ("estimator.run_filter.calls", "count", "lower"),
    ("estimator.run_filter.steps", "count", "lower"),
    ("estimator.run_filter.us_per_step", "us/step", "lower"),
    ("estimator.estimate_noise_empirical.self_s", "s", "lower"),
    ("estimator.estimate_noise_empirical.calls", "count", "lower"),
    ("estimator.white_frac", "frac", "higher"),
    ("metrics.self_s", "s", "lower"),
    ("metrics.report_run.s", "s", "lower"),
    ("metrics.fit_report.self_s", "s", "lower"),
    ("metrics.autocorrelations.s", "s", "lower"),
    ("metrics.acc_mean_pct", "%", "higher"),
    ("metrics.rmse_max", "1", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.cmd_identify.s", "s", "lower"),
    ("pipeline.cmd_identify.self_s", "s", "lower"),
    ("pipeline.cmd_sweep.s", "s", "lower"),
    ("pipeline.cmd_sweep.self_s", "s", "lower"),
    ("pipeline.cmd_validate.s", "s", "lower"),
    ("pipeline.cmd_validate.self_s", "s", "lower"),
    ("pipeline.bytes_written", "B", "lower"),
    ("pipeline.files_written", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unaccounted_frac", "frac", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="input size; 'tiny' is for the benchmark's own tests")
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def process_threads() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def machine_info(args, loadavg) -> dict:
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "loadavg_start": list(loadavg),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
    }


def make_kernel():
    """The calibration kernel: a small-matrix numpy loop, string-to-float
    parsing and a pure-Python loop.  Interpreted code is what slows when the
    host does; BLAS calls barely do, so the kernel has none."""
    A = 0.5 * np.eye(3)
    strings = [repr(v) for v in
               np.random.default_rng(0).standard_normal(8000).tolist()]

    def kernel() -> float:
        start = time.perf_counter()
        x, P = np.ones(3), np.eye(3)
        for _ in range(1200):
            x = A @ x + 0.1
            P = A @ P @ A.T + 0.01 * P
        [float(v) for v in strings]
        total = 0
        for i in range(30000):
            total += i * i
        return time.perf_counter() - start

    return kernel


def time_setup() -> tuple[float, bool]:
    """Seconds a fresh interpreter takes to import telekf.cli and build
    the parser, as every CLI call does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=60)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, False
    return time.perf_counter() - start, proc.returncode == 0


def describe(name, values, unit) -> str:
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it."""
    values = sorted(values)
    n = len(values)
    if n < 2:
        return f"{name}: {values[0]:.6g} {unit} (n={n})"
    q1, med, q3 = statistics.quantiles(values, n=4)
    line = f"{name}: median {med:.6g} {unit}, q1 {q1:.6g}, q3 {q3:.6g}"
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        line += f", p{pct} {values[min(n - 1, int(n * pct / 100))]:.6g}"
    return line + f", min {values[0]:.6g} (n={n})"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, traced_wall: list[float],
                  untraced_wall: list[float], written: list[tuple],
                  quality: dict) -> dict:
    names = summary["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0.0)

    out = {f"{layer}.self_s": sum(t["self_s"] for n, t in names.items()
                                  if n.startswith(layer + "."))
           for layer in LAYERS}
    for name, _, _ in PER_LAYER:
        fn, _, key = name.rpartition(".")
        if fn.count(".") == 1:
            out.setdefault(name, get(fn, key))
    impair, filt = "netsim.impair", "estimator.run_filter"
    wall = statistics.fmean(traced_wall)
    pairs = [t / u for t, u in zip(traced_wall, untraced_wall)]
    out.update({
        "netsim.rows_changed_frac": ratio(get(impair, "rows_changed"),
                                          get(impair, "rows")),
        "netsim.lost_frac": ratio(get(impair, "lost"), get(impair, "rows")),
        "estimator.run_filter.us_per_step": ratio(1e6 * get(filt, "s"),
                                                  get(filt, "steps")),
        "estimator.white_frac": quality.get("white_frac", 0.0),
        "metrics.acc_mean_pct": quality.get("acc_mean_pct", 0.0),
        "metrics.rmse_max": quality.get("rmse_max", 0.0),
        "pipeline.bytes_written": statistics.fmean(b for b, _ in written),
        "pipeline.files_written": statistics.fmean(f for _, f in written),
        "trace.wall_s": wall,
        "trace.unaccounted_frac": 1.0 - summary["root_s"] / wall,
        "trace_overhead_frac": statistics.median(pairs) - 1.0,
    })
    return out


def run(args, telekf, work: Path, report: dict) -> tuple[int, int, dict]:
    """Warm up, then iterate for args.seconds; return (attempted, failed,
    metrics) and fill ``report`` with the raw samples."""
    counts = {"attempted": 0, "failed": 0}
    failures: dict[str, int] = {}

    def record(fails, ops):
        counts["attempted"] += ops
        counts["failed"] += len(fails)
        for op in fails:
            failures[op] = failures.get(op, 0) + 1
        if fails and wl.last_log:
            print(f"failed {fails}: {wl.last_log.strip()[-500:]}")

    def written():
        out = getattr(wl, "out", None)
        files = [p for p in out.iterdir() if p.is_file()] if out else []
        return sum(p.stat().st_size for p in files), len(files)

    t_setup = time.perf_counter()
    wl = WORKLOADS[args.workload](telekf, work, args.seed, SIZES[args.size])
    for _ in range(wl.warmup_iterations):
        wl.iterate()
        record(wl.check(), len(wl.operations))
    report["bench_setup_s"] = time.perf_counter() - t_setup

    kernel = make_kernel()
    tracer = Tracer()
    n_setup = 0 if args.trace else SETUP_RUNS
    wall, wall_ref, cmd_ref, setup, setup_ref = [], [], [], [], []
    traced_wall, untraced_wall, sizes = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace and i % 2)
        if args.trace:
            if traced:
                tracer.iteration = i
                tracer.install()
            try:
                elapsed = wl.iterate()
            finally:
                tracer.uninstall()
            (traced_wall if traced else untraced_wall).append(elapsed)
            if traced:
                sizes.append(written())
        else:
            before = kernel()
            elapsed = wl.iterate()
            scale = KERNEL_REF_S / ((before + kernel()) / 2)
            wall.append(elapsed)
            wall_ref.append(elapsed * scale)
            cmd_ref.append([t * scale for t in
                            getattr(wl, "last_times", [elapsed])])
        record(wl.check(), len(wl.operations))
        i += 1
        now = time.perf_counter() - start
        while len(setup) < n_setup and (now >= args.seconds or
                                        len(setup) * args.seconds
                                        <= now * n_setup):
            before = kernel()
            seconds, ok = time_setup()
            setup.append(seconds)
            setup_ref.append(seconds * KERNEL_REF_S
                             / ((before + kernel()) / 2))
            record([] if ok else ["setup"], 1)
            now = time.perf_counter() - start
        if now >= args.seconds and len(setup) >= n_setup and \
                (not args.trace or len(traced_wall) >= 1):
            break

    report.update(wall_s=wall, wall_ref_s=wall_ref, command_ref_s=cmd_ref,
                  setup_s=setup, setup_ref_s=setup_ref,
                  traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
                  failures=failures, quality=wl.quality)
    if args.trace:
        report["spans_file"] = str(WORK / "results" /
                                   f"{report_stem(args)}-spans.jsonl")
        tracer.dump(report["spans_file"])
        summary = summarize(tracer.spans, len(traced_wall))
        metrics = layer_metrics(summary, traced_wall, untraced_wall,
                                sizes, wl.quality)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = {
            "wall_ref_s": statistics.median(wall_ref),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _ in END_TO_END}
        print(describe("wall_ref_s", wall_ref, "s"))
        for j, argv in enumerate(getattr(wl, "commands", [])):
            print(describe(f"{argv[0]}_ref_s",
                           [c[j] for c in cmd_ref if len(c) > j], "s"))
        print(describe("setup_s", setup_ref, "s"))
        print(describe("raw wall_s", wall, "s"))
        print(describe("raw setup_s", setup, "s"))
    return counts["attempted"], counts["failed"], {
        name: {"value": float(value), "unit": units[name]}
        for name, value in metrics.items()}


def report_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "telekf" / "cli.py").is_file():
        print(f"error: no telekf sources under {SRC}; run the benchmark "
              "from the root of a telekf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import telekf.cli
    import telekf.estimator
    import telekf.metrics
    import telekf.sysid
    if Path(telekf.__file__).resolve().parent != SRC / "telekf":
        print(f"error: telekf imported from {telekf.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    info = machine_info(args, loadavg)
    print("machine: " + json.dumps(info))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    report: dict = {"machine": info}
    try:
        attempted, failed, metrics = run(args, telekf, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["process_threads"] = process_threads()
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report["result"] = result
    with open(WORK / "results" / f"{report_stem(args)}.json", "w") as f:
        json.dump(report, f, indent=1)
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations); quality: {json.dumps(report['quality'])}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
