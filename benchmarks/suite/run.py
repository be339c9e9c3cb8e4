"""Run one workload of the performance suite and print its metrics.

    python3 benchmarks/suite/run.py --workload proteins-fit --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead and writes a Chrome
trace to ``benchmarks/suite/out/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when a correctness check fails or the run breaks.

Each measured run is a forked child of a process that has only imported
the program, so every run starts from the same cold caches and its peak
RSS is its own.  Set-up runs in three such children, one before and one
after the measured run (which also sets up), and ``setup_s`` is their
median: spreading them over the run keeps one slow spell of a shared host
from setting it.  A traced run is preceded by an untraced one of the same
work; their difference is ``trace.overhead_pct``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Every run must end within 180 s; children share what is left of this.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment() -> int:
    """Fix what changes a timing before NumPy loads: BLAS threads equal
    the usable cores, and no ``REPRO_*`` override, so the program runs
    with its own defaults."""
    cores = len(os.sched_getaffinity(0))
    for key in BLAS_THREAD_VARS:
        os.environ[key] = str(cores)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    return cores


def run_forked(fn, *args, deadline: float):
    """``fn(*args)`` in a forked child; returns its :class:`Outcome`."""
    import multiprocessing
    import resource

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def child() -> None:
        try:
            outcome = fn(*args)
            outcome.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            sender.send(("ok", outcome))
        except BaseException:
            sender.send(("error", traceback.format_exc()))
        finally:
            sender.close()

    process = ctx.Process(target=child, daemon=True)
    process.start()
    sender.close()
    try:
        if not receiver.poll(max(1.0, deadline - time.monotonic())):
            raise TimeoutError("workload run exceeded the time limit")
        status, payload = receiver.recv()
    finally:
        receiver.close()
        process.join(10.0)
        if process.is_alive():
            process.kill()
            process.join()
    if status != "ok":
        raise RuntimeError(f"workload run failed:\n{payload}")
    return payload


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def end_to_end(outcomes, final) -> dict:
    return {
        "setup_s": statistics.median(o.setup_s for o in outcomes),
        "latency_ms_p50": statistics.median(final.unit_ms),
        "throughput_per_s": final.throughput,
        "accuracy": final.accuracy,
        "peak_rss_mb": final.peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    import repro
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from this checkout's src/")
    from repro.tensor import get_num_workers
    from benchmarks.suite.workloads import WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    shared = workload.prepare(args.seed)

    def run(mode: str, trace_path=None):
        return run_forked(workload.run, shared, args.seed, args.seconds,
                          mode, trace_path, deadline=deadline)

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        outcomes = [run("measure"), run("trace", str(trace_path))]
        base, final = outcomes
        values = {**base.plain, **final.traced}
        values["trace.overhead_pct"] = 100.0 * (
            final.overhead_basis_ms / base.overhead_basis_ms - 1.0)
        names = spec["per_layer"]
    else:
        outcomes = [run("setup"), run("measure"), run("setup")]
        final = outcomes[1]
        values = end_to_end(outcomes, final)
        names = spec["end_to_end"]

    checks = [check for outcome in outcomes for check in outcome.checks]
    prints = {outcome.fingerprint for outcome in outcomes}
    checks.append(("seeded_setup_repeats", len(prints) == 1,
                   f"{len(outcomes)} runs, {len(prints)} distinct "
                   f"set-up fingerprints"))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"  cpus {os.cpu_count()}  blas threads "
          f"{os.environ.get('OPENBLAS_NUM_THREADS')}  kernel workers "
          f"{get_num_workers()}")
    print(f"  {json.dumps(final.info)}")
    metrics = {}
    for entry in names:
        value = float(values.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<40} {value:>16.6f} {entry['unit']}")
    if not args.trace:
        print(f"  ({len(final.unit_ms)} latency samples, setup_s is the "
              f"median of {len(outcomes)} set-ups)")
    else:
        print(f"  chrome trace: {trace_path}")
    correct = all(passed for _, passed, _ in checks)
    for name, passed, detail in checks:
        print(f"  check {name:<22} {'ok' if passed else 'FAILED'}  {detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
