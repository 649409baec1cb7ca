"""qdsnet benchmark: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; qdsnet is imported from its ``src/``.  The op
sequence is fixed by the seed and by S (through each workload's nominal
op cost), so equal arguments give equal work.  Each op starts only when
the previous one returned, and its output is checked outside the timed
region.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1
timing wrappers are installed around the package's public functions and
the metrics are per layer (see README.md).  The lines before it form the
run record: versions, machine, counts, and the analysis's own R_S.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5  # set-ups measured per run; setup_s is their median


def _import_program() -> None:
    if not (SRC / "qdsnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qdsnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdsnet
    if Path(qdsnet.__file__).resolve().parent != SRC / "qdsnet":
        sys.exit(f"perfbench: imported qdsnet from {qdsnet.__file__}, "
                 f"not from {SRC}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile
    that leaves at least ten samples above it; with ten samples or fewer
    no percentile does, and the maximum is reported."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0, 0
    pct = 100.0 * (n - 10) / n
    return ordered[n - 11], pct, 10


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, n_ops: int, tracer=None) -> dict:
    """Drive the op sequence; returns latencies, CPU times, results and
    the peak RSS through the first op."""
    lat, cpu, results, failures = [], [], [], []
    first_op_rss = None
    for i in range(n_ops):
        if tracer is not None:
            tracer.op = i
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = workload.op(i)
        except Exception as exc:  # any raised op counts as failed
            result, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        t1, c1 = time.perf_counter(), time.process_time()
        if first_op_rss is None:
            first_op_rss = _peak_rss_mb()
        if tracer is not None:
            tracer.op = None  # output checks are not traced
        if reason is None:
            reason = workload.check(i, result)
        if reason is None and tracer is not None:
            reason = tracer.audit_failures.get(i)
        lat.append(t1 - t0)
        cpu.append(c1 - c0)
        results.append(result if reason is None else None)
        if reason is not None:
            failures.append(f"op {i}: {reason}")
    return {"lat": lat, "cpu": cpu, "results": results, "failures": failures,
            "first_op_rss_mb": first_op_rss}


def end_to_end(run: dict, setup_s: float) -> dict:
    ok = sum(1 for r in run["results"] if r is not None)
    tail_s, _, _ = tail(run["lat"])
    return {
        "ops_per_s": (ok / sum(run["lat"]), "1/s"),
        "ops_per_cpu_s": (ok / sum(run["cpu"]), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(run["lat"]), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (run["first_op_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time, exit")
    args = ap.parse_args(argv)

    _import_program()
    import numpy as np
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    n_ops = cls.op_count(args.seconds)
    workload = cls(args.seed, n_ops)
    setup = [time.perf_counter() - _T0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0]}))
        return 0
    setup += [_setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        run = run_ops(workload, n_ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures = run["failures"]
    failed = len(failures)
    e2e = end_to_end(run, statistics.median(setup))
    _, tail_pct, beyond = tail(run["lat"])
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "ops": n_ops, "failed_ratio": failed / n_ops,
        "op_tail": {"percentile": tail_pct, "samples": n_ops,
                    "samples_beyond": beyond},
        "setup_samples_s": setup,
        "peak_rss_run_mb": _peak_rss_mb(),
        "ops_per_s": e2e["ops_per_s"][0],
        **workload.record(run["results"]),
    }
    if tracer is not None:
        record["leakage_audit_failures"] = len(tracer.audit_failures)
        record["traced_end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = tracing.layer_metrics(tracer)
    else:
        metrics = e2e
    for reason in failures:
        print(f"FAILED {reason}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures, "attempted": n_ops, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
