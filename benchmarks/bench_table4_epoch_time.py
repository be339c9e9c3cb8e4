"""Table 4 — mean per-epoch training time of the graph-classification
pooling models on NCI1, NCI109 and PROTEINS.

Expected shape: the dense assignment methods (DiffPool, StructPool) pay the
O(n²) cost, TopKPool pays for its unpooling convolutions, SAGPool is the
cheapest, and AdamGNN sits in between — the sparse-design claim of the
paper's running-time analysis.

Absolute seconds are NumPy-on-CPU and not comparable to the paper's GPU
numbers; compare the *ordering* of the rows per column.

A second section times node-classification training (full-batch epochs on
the Table-2 graphs) — the regression guard for the segment-kernel /
structure-cache fast paths.

A third section sweeps data-parallel training (plain vs sharded, 1, 2 and
4 worker processes) on the steady PROTEINS epoch and writes it to
``BENCH_graph_epoch.json`` at the repo root.  No workload of the
performance suite (``benchmarks/suite/``) exercises data parallelism; the
suite's ``proteins-fit`` times the plain serial epoch.

Every section times the step ``fit`` runs: one fresh ``fit`` per figure,
whose steady figure is :func:`steady_epoch_ms` — the median of
``result.epoch_seconds`` after the cold epoch.  An epoch is the training
steps plus the validation pass.  The per-layer split of the same step
comes from the benchmark suite's tracer::

    python3 benchmarks/suite/run.py --workload proteins-fit --seed 1 \\
        --seconds 10 --trace 1
"""

import json
import os
import statistics
from pathlib import Path
from typing import Dict

import pytest

from repro.datasets import load_graph_dataset, load_node_dataset
from repro.training import TrainConfig
from repro.training.experiment import (make_graph_classifier,
                                       make_node_classifier)
from repro.training.graph_trainer import GraphClassificationTrainer
from repro.training.node_trainer import (NodeClassificationTrainer,
                                         prepare_node_features)

from .common import (PAPER_TABLE4, bench_environment, comparison_table,
                     current_commit, emit, is_smoke, output_path,
                     record_history)

MODELS = ("diffpool", "sagpool", "topkpool", "structpool", "adamgnn")
DATASETS = ("nci1", "nci109", "proteins")

NODE_MODELS = ("gcn", "gat", "adamgnn")
NODE_DATASETS = ("cora", "citeseer", "acm")


def steady_epoch_ms(trainer, model, data) -> float:
    """Median ms of ``fit``'s epochs after the cold first one.

    One ``fit`` of ``trainer.config.epochs`` epochs (configs set
    ``patience`` to the epoch count so early stopping cannot cut it).
    The cold epoch pays the one-off structure precomputation and cache
    builds.
    """
    result = trainer.fit(model, data)
    return statistics.median(result.epoch_seconds[1:]) * 1000.0


def generate_table4() -> str:
    datasets = ("nci1",) if is_smoke() else DATASETS
    epochs = 2 if is_smoke() else 4
    measured: Dict[str, Dict[str, float]] = {m: {} for m in MODELS}
    for dataset in datasets:
        data = load_graph_dataset(dataset, seed=0)
        for model_name in MODELS:
            trainer = GraphClassificationTrainer(TrainConfig(
                epochs=epochs, patience=epochs, batch_size=32))
            model = make_graph_classifier(model_name,
                                          data.num_features, 2, seed=0)
            ms = steady_epoch_ms(trainer, model, data)
            measured[model_name][dataset] = ms / 1000.0
    return comparison_table(measured, PAPER_TABLE4, MODELS, datasets,
                            fmt="{:.2f}")


def generate_node_epoch_times() -> str:
    """Per-epoch time (ms) of full-batch node-classification ``fit``.

    One fit per cell; the figure is :func:`steady_epoch_ms` (first epoch
    discarded: it pays the one-off structure-cache and segment-plan
    builds).  AdamGNN's epochs replay the training tape from the third on.
    """
    datasets = ("cora",) if is_smoke() else NODE_DATASETS
    epochs = 3 if is_smoke() else 8
    lines = ["model      " + "".join(f"{d:>12s}" for d in datasets)]
    for model_name in NODE_MODELS:
        row = [f"{model_name:<11s}"]
        for dataset_name in datasets:
            data = load_node_dataset(dataset_name, seed=0)
            features = prepare_node_features(data)
            model = make_node_classifier(model_name, features.shape[1],
                                         data.num_classes, seed=0)
            trainer = NodeClassificationTrainer(
                TrainConfig(epochs=epochs, patience=epochs))
            ms = steady_epoch_ms(trainer, model, data)
            row.append(f"{ms:10.1f}ms")
        lines.append("".join(row))
    lines.append("\nper-layer split: python3 benchmarks/suite/run.py "
                 "--workload cora-fit --seed 1 --seconds 10 --trace 1")
    return "\n".join(lines)


GRAPH_EPOCH_JSON = Path(__file__).resolve().parent.parent \
    / "BENCH_graph_epoch.json"


def _load_json() -> dict:
    """This scope's ``BENCH_graph_epoch.json`` (``{}`` when absent)."""
    path = output_path(GRAPH_EPOCH_JSON)
    return json.loads(path.read_text()) if path.exists() else {}


def generate_dp_scaling() -> str:
    """Interleaved data-parallel scaling sweep on the steady PROTEINS epoch.

    Arms: the plain serial trainer, and the sharded trainer at a fixed
    four-shard assignment with ``num_procs`` ∈ {1, 2, 4}.  Shard count is
    held constant across the dp arms because the run is a pure function of
    the assignment — worker count is packing — so the sweep isolates
    exactly the cost/benefit of processes.  Each arm runs a full ``fit``
    (fresh model and trainer) and its steady figure is the median of
    ``result.epoch_seconds`` with the cold first epoch excluded; rounds
    alternate through all arms so wall-clock drift hits them equally, and
    the paired per-round ratios are the headline figures.  Alongside the
    timings this records each dp arm's sharding record (mode, start
    method, comm segment bytes, chunk layout).  Results land in the
    ``dp_scaling`` section of ``BENCH_graph_epoch.json``.

    On a multi-core box the dp4 arm is the scaling claim; on a single
    core the sweep is still recorded and the meaningful figure is the
    dp1 overhead — what the lane writes, the f64 reduction and the
    ragged shard chunking cost relative to the plain trainer.
    """
    rounds = 1 if is_smoke() else 3
    epochs_per_fit = 2 if is_smoke() else 4
    procs_sweep = (1, 2) if is_smoke() else (1, 2, 4)
    num_shards = 4
    data = load_graph_dataset("proteins", seed=0)

    def run_arm(num_procs: int, shards: int):
        trainer = GraphClassificationTrainer(
            TrainConfig(epochs=epochs_per_fit, patience=4 * epochs_per_fit,
                        batch_size=32, seed=0, num_procs=num_procs,
                        num_shards=shards))
        model = make_graph_classifier("adamgnn", data.num_features, 2,
                                      seed=0)
        result = trainer.fit(model, data)
        steady = [s * 1000.0 for s in result.epoch_seconds[1:]]
        return statistics.median(steady), result

    arm_names = ["plain"] + [f"dp{p}" for p in procs_sweep]
    arms = {name: {"round_medians": []} for name in arm_names}
    sharding_records: Dict[str, dict] = {}
    for _ in range(rounds):
        median_ms, _ = run_arm(1, 1)
        arms["plain"]["round_medians"].append(median_ms)
        for procs in procs_sweep:
            median_ms, result = run_arm(procs, num_shards)
            arms[f"dp{procs}"]["round_medians"].append(median_ms)
            record = dict(result.sharding)
            assignment = record.pop("assignment", None) or {}
            record["chunks_per_shard"] = assignment.get("chunks_per_shard")
            record["steps_per_epoch"] = assignment.get("steps_per_epoch")
            sharding_records[f"dp{procs}"] = record

    medians = {name: statistics.median(arm["round_medians"])
               for name, arm in arms.items()}
    plain_rounds = arms["plain"]["round_medians"]
    paired_speedups = {
        f"dp{p}": [round(plain / dp, 2) for plain, dp in
                   zip(plain_rounds, arms[f"dp{p}"]["round_medians"])]
        for p in procs_sweep}
    overhead_rounds = [dp / plain for plain, dp in
                       zip(plain_rounds, arms["dp1"]["round_medians"])]
    dp1_overhead = statistics.median(overhead_rounds)
    dtype = TrainConfig(epochs=1, num_procs=1, num_shards=1).dtype

    payload = {
        "environment": bench_environment(dtype, num_shards=num_shards,
                                         procs_sweep=list(procs_sweep)),
        "protocol": (f"interleaved sweep, {rounds} rounds; each arm one "
                     f"fresh fit of {epochs_per_fit} epochs, steady "
                     f"figure = median with the cold epoch excluded; dp "
                     f"arms share a fixed {num_shards}-shard assignment "
                     f"(worker count is pure packing); "
                     f"smoke={is_smoke()}"),
        "round_medians_ms": {name: [round(v, 1) for v in
                                    arm["round_medians"]]
                             for name, arm in arms.items()},
        "median_ms": {name: round(v, 1) for name, v in medians.items()},
        "paired_speedup_vs_plain": paired_speedups,
        "speedup_vs_plain": {f"dp{p}": round(
            medians["plain"] / medians[f"dp{p}"], 2) for p in procs_sweep},
        "dp1_overhead_vs_plain": round(dp1_overhead, 3),
        "sharding": sharding_records,
    }
    # Extend the widest dp arm's history series: what a maximally
    # parallel epoch costs here.
    top = max(procs_sweep)
    contents = _load_json()
    contents["dp_scaling"] = payload
    record_history(contents.setdefault("history", {}), "dp_scaling",
                   {"workload": "proteins", "dtype": dtype,
                    "dp_procs": top, "timed": "fit_epoch"},
                   {"commit": current_commit(),
                    "median_epoch_ms": round(medians[f"dp{top}"], 1)})
    output_path(GRAPH_EPOCH_JSON).write_text(
        json.dumps(contents, indent=2) + "\n")

    lines = [f"plain serial:          {medians['plain']:8.1f} ms/epoch  "
             f"rounds {payload['round_medians_ms']['plain']}"]
    for procs in procs_sweep:
        name = f"dp{procs}"
        mode = sharding_records[name]["mode"]
        lines.append(
            f"{name} ({mode:>6s}/4sh):   {medians[name]:8.1f} ms/epoch  "
            f"{medians['plain'] / medians[name]:5.2f}x  "
            f"rounds {payload['round_medians_ms'][name]}")
    lines += [
        f"dp1 sharding overhead: {dp1_overhead:8.2f}x vs plain "
        f"(paired rounds {[round(r, 2) for r in overhead_rounds]})",
        f"comm segment: "
        f"{sharding_records[f'dp{top}'].get('comm_bytes', 0) / 1e6:.1f} MB, "
        f"start method {sharding_records[f'dp{top}'].get('start_method')}, "
        f"cpus: {os.cpu_count()}",
        f"\nmachine-readable copy: {GRAPH_EPOCH_JSON.name} (dp_scaling)",
    ]
    return "\n".join(lines)


@pytest.mark.benchmark(group="table4")
def test_graph_epoch_dp_scaling(benchmark):
    table = benchmark.pedantic(generate_dp_scaling, rounds=1, iterations=1)
    emit("Table 4 (supplement): data-parallel scaling sweep", table)
    assert table
    assert output_path(GRAPH_EPOCH_JSON).exists()
    section = _load_json()["dp_scaling"]
    assert section["sharding"]["dp2"]["comm_bytes"] > 0
    if not is_smoke():
        if (os.cpu_count() or 1) >= 4:
            # Multi-core: the scaling claim proper.
            assert section["speedup_vs_plain"]["dp4"] >= 1.5
        else:
            # Single core: processes cannot speed anything up; the gate
            # is that sharded serial execution stays within 10% of the
            # plain trainer (lane writes + f64 reduction are cheap).
            assert section["dp1_overhead_vs_plain"] <= 1.10


@pytest.mark.benchmark(group="table4")
def test_table4_epoch_time(benchmark):
    table = benchmark.pedantic(generate_table4, rounds=1, iterations=1)
    emit("Table 4: per-epoch training time (seconds)", table)
    assert table


@pytest.mark.benchmark(group="table4")
def test_table4_node_epoch_time(benchmark):
    table = benchmark.pedantic(generate_node_epoch_times, rounds=1,
                               iterations=1)
    emit("Table 4 (supplement): node-classification epoch time", table)
    assert table
