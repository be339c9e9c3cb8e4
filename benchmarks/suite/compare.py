"""Run, compare and check sets of performance-suite runs.

Runs are stored one per line (JSONL) as ``{"side", "workload", "seed",
"result"}``, where ``result`` is the JSON line ``run.py`` prints last.

    # ten interleaved parent/change pairs (which side runs first alternates)
    python3 benchmarks/suite/compare.py run --parent ../parent --change . \\
        --workload proteins-fit --pairs 10 --out runs.jsonl
    # medians, quartiles, win share and one verdict per metric
    python3 benchmarks/suite/compare.py report runs.jsonl
    # fail (exit 1) when a metric is worse than the recorded baseline by
    # more than its bound in BENCHMARK.json
    python3 benchmarks/suite/compare.py check runs.jsonl
    # write the medians of a set of runs as the new baseline
    python3 benchmarks/suite/compare.py record runs.jsonl

Verdicts follow the suite's rule: ``improved`` needs the change to win at
least nine tenths of the pairs and the medians to differ by more than the
parent's own quartile spread; ``regressed`` is a median worse than the
parent's by more than the metric's bound; a metric whose parent spread is
wider than its bound is ``unresolved`` unless every change run beats
every parent run; anything else is ``unchanged``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BASELINE = SUITE / "baseline.json"


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_runs(path) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: List[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` invocation in ``tree``; returns its result line."""
    command = [sys.executable, "benchmarks/suite/run.py", "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} failed:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def cmd_run(args) -> int:
    sides = [("parent", args.parent), ("change", args.change)]
    sides = [(name, Path(tree)) for name, tree in sides if tree]
    seconds = args.seconds or load_spec(sides[-1][1])["run_seconds"]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = sides if pair % 2 == 0 else sides[::-1]
            for side, tree in order:
                result = run_once(tree, args.workload, seed, seconds)
                out.write(json.dumps({"side": side, "workload": args.workload,
                                      "seed": seed, "result": result}) + "\n")
                out.flush()
                print(f"{args.workload} seed {seed} {side}: "
                      f"correct={result['correct']}", file=sys.stderr)
    return 0


def _series(runs: List[dict]) -> Dict[tuple, Dict[int, float]]:
    """(side, workload, metric) -> {seed: value}."""
    out: Dict[tuple, Dict[int, float]] = defaultdict(dict)
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            out[(run["side"], run["workload"], name)][run["seed"]] = \
                metric["value"]
    return out


def verdict(parent: Dict[int, float], change: Dict[int, float],
            better: str, bound: float) -> tuple:
    """(verdict, change win share) for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    share = wins / len(seeds) if seeds else 0.0
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    gain = sign * (cm - pm)
    if share >= 0.9 and gain > p3 - p1:
        return "improved", share
    if -gain > bound * abs(pm):
        return "regressed", share
    beats_all = (min(sign * v for v in change.values())
                 > max(sign * v for v in parent.values()))
    if (p3 - p1) > bound * abs(pm) and not beats_all:
        return "unresolved", share
    return "unchanged", share


def cmd_report(args) -> int:
    spec = load_spec()
    runs = load_runs(args.runs)
    series = _series(runs)
    sides = sorted({run["side"] for run in runs})
    workloads = sorted({run["workload"] for run in runs})
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    incorrect = [run for run in runs if not run["result"]["correct"]]
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<20} {'side':<7} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for name, meta in bounds.items():
            for side in sides:
                values = list(series.get((side, workload, name), {}).values())
                if not values:
                    continue
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / abs(median) if median else 0.0
                print(f"  {name:<20} {side:<7} {q1:>12.4f} {median:>12.4f} "
                      f"{q3:>12.4f} {spread:>7.3f} {meta['bound']:>6.2f}")
            parent = series.get(("parent", workload, name))
            change = series.get(("change", workload, name))
            if parent and change:
                result, share = verdict(parent, change, meta["better"],
                                        meta["bound"])
                print(f"  {name:<20} change wins {share:.0%} of "
                      f"{len(set(parent) & set(change))} pairs -> {result}")
    if incorrect:
        print(f"\n{len(incorrect)} runs reported correct=false")
    return 1 if incorrect else 0


def cmd_record(args) -> int:
    runs = load_runs(args.runs)
    series = _series(runs)
    baseline: Dict[str, Dict[str, dict]] = defaultdict(dict)
    for (side, workload, name), values in sorted(series.items()):
        q1, median, q3 = quartiles(list(values.values()))
        baseline[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                    "runs": len(values)}
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


def cmd_check(args) -> int:
    spec = load_spec()
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    runs = load_runs(args.runs)
    series = _series(runs)
    failures = [f"{run['workload']} seed {run['seed']}: incorrect"
                for run in runs if not run["result"]["correct"]]
    for workload in sorted({run["workload"] for run in runs}):
        for meta in spec["end_to_end"]:
            name = meta["name"]
            values = [v for (side, w, m), by_seed in series.items()
                      if w == workload and m == name
                      for v in by_seed.values()]
            recorded = baseline.get(workload, {}).get(name)
            if not values or recorded is None:
                continue
            median = statistics.median(values)
            sign = 1.0 if meta["better"] == "higher" else -1.0
            worse = sign * (recorded["median"] - median)
            status = "ok"
            if worse > meta["bound"] * abs(recorded["median"]):
                status = "REGRESSED"
                failures.append(f"{workload} {name}")
            print(f"{workload:<16} {name:<18} {median:>12.4f} vs "
                  f"{recorded['median']:>12.4f} (bound {meta['bound']:.0%}) "
                  f"{status}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run interleaved parent/change pairs")
    run.add_argument("--parent", help="checkout of the parent commit")
    run.add_argument("--change", help="checkout of the change")
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0,
                     help="run length (default: run_seconds)")
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)
    report = sub.add_parser("report", help="medians, quartiles, verdicts")
    report.add_argument("runs")
    report.set_defaults(func=cmd_report)
    record = sub.add_parser("record", help="write runs as the baseline")
    record.add_argument("runs")
    record.add_argument("--out", default=str(BASELINE))
    record.set_defaults(func=cmd_record)
    check = sub.add_parser("check", help="fail on a regression vs baseline")
    check.add_argument("runs")
    check.add_argument("--baseline", default=str(BASELINE))
    check.set_defaults(func=cmd_check)
    args = parser.parse_args(argv)
    if args.command == "run" and not (args.parent or args.change):
        parser.error("run needs --parent and/or --change")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
