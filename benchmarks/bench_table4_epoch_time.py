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

A third section is the regression guard for the *minibatch* pipeline
(per-graph structure precomputation, block-diagonal composition, the
collated-batch cache and the fused training kernels): steady-state AdamGNN
epochs on the synthetic PROTEINS workload, first epoch excluded, with the
medians written machine-readably to ``BENCH_graph_epoch.json`` at the repo
root next to the recorded pre-optimisation baseline.

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
from typing import Dict, Tuple

import pytest

from repro.analysis import (assert_unpatched, sanitize, sanitizer_paused)
from repro.datasets import load_graph_dataset, load_node_dataset
from repro.tensor import Tensor
from repro.training import TrainConfig
from repro.training.experiment import (make_graph_classifier,
                                       make_node_classifier)
from repro.training.graph_trainer import GraphClassificationTrainer
from repro.training.node_trainer import (NodeClassificationTrainer,
                                         prepare_node_features)

from .common import (PAPER_TABLE4, bench_environment, comparison_table,
                     current_commit, emit, is_smoke, keyed_history,
                     output_path, record_history)

MODELS = ("diffpool", "sagpool", "topkpool", "structpool", "adamgnn")
DATASETS = ("nci1", "nci109", "proteins")

NODE_MODELS = ("gcn", "gat", "adamgnn")
NODE_DATASETS = ("cora", "citeseer", "acm")


def steady_epoch_ms(trainer, model, data, skip: int = 1,
                    ) -> Tuple[float, object]:
    """``(median ms of fit's epochs after the first skip, fit result)``.

    One ``fit`` of ``trainer.config.epochs`` epochs (configs set
    ``patience`` to the epoch count so early stopping cannot cut it).
    ``skip`` drops the cold epoch, which pays the one-off structure
    precomputation and cache builds.
    """
    result = trainer.fit(model, data)
    steady = result.epoch_seconds[skip:]
    return statistics.median(steady) * 1000.0, result


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
            ms, _ = steady_epoch_ms(trainer, model, data)
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
            ms, _ = steady_epoch_ms(trainer, model, data)
            row.append(f"{ms:10.1f}ms")
        lines.append("".join(row))
    lines.append("\nper-layer split: python3 benchmarks/suite/run.py "
                 "--workload cora-fit --seed 1 --seconds 10 --trace 1")
    return "\n".join(lines)


#: Recorded pre-optimisation baseline for the steady-epoch workload below
#: (commit f589428, the state before the minibatch structure-composition
#: and kernel-fusion work).  Measured on the same machine with the same
#: protocol, interleaved A/B against the optimised tree (three alternating
#: rounds, each the median of six steady epochs) because the box's
#: wall-clock throughput drifts by double-digit percentages between runs —
#: only interleaved rounds give a trustworthy ratio.
GRAPH_EPOCH_BASELINE = {
    "commit": "f589428",
    "median_epoch_ms": 371.5,
    "round_medians_ms": [389.7, 371.5, 363.2],
    "interleaved_current_ms": [285.8, 278.4, 280.6],
    "interleaved_speedup": 1.32,
    "protocol": ("interleaved A/B, 3 rounds, median of 6 steady epochs "
                 "per round (first epoch excluded); the paired "
                 "interleaved ratio is the trustworthy speedup figure — "
                 "a standalone re-run lands wherever the machine's "
                 "throughput happens to be that minute"),
}

GRAPH_EPOCH_JSON = Path(__file__).resolve().parent.parent \
    / "BENCH_graph_epoch.json"

# Shared with the other benches (serving/inference import these names
# from here): the canonical implementations live in ``common.py`` since
# the data-parallel extension, with the DP knobs recorded alongside the
# thread environment.
_environment = bench_environment
_current_commit = current_commit


def _load_json() -> dict:
    """This scope's ``BENCH_graph_epoch.json`` (``{}`` when absent)."""
    path = output_path(GRAPH_EPOCH_JSON)
    return json.loads(path.read_text()) if path.exists() else {}


def _save_json(contents: dict) -> None:
    output_path(GRAPH_EPOCH_JSON).write_text(
        json.dumps(contents, indent=2) + "\n")


def _merge_into_json(section: str, payload: dict) -> None:
    """Update one top-level section of ``BENCH_graph_epoch.json`` in place,
    preserving whatever the other benchmark sections recorded."""
    existing = _load_json()
    existing[section] = payload
    _save_json(existing)


def _record_history(section: str, config: Dict, median_ms: float) -> None:
    """Add this commit's figure to the (section, config) history series
    of ``BENCH_graph_epoch.json``."""
    contents = _load_json()
    history = keyed_history(contents.get("history", []))
    record_history(history, section, config,
                   {"commit": _current_commit(),
                    "median_epoch_ms": round(median_ms, 1)})
    contents["history"] = history
    _save_json(contents)


def generate_graph_epoch_benchmark() -> str:
    """Steady-state AdamGNN minibatch epoch time (graph classification).

    Synthetic PROTEINS workload, batch size 32, repo-default model
    configuration (hidden 64, three levels).  One ``fit``; its first
    epoch pays the one-off per-graph structure precomputation and cache
    builds and is excluded, and the reported figure is the median of the
    remaining epochs.  Alongside the wall-clock table this writes
    ``BENCH_graph_epoch.json`` with the measured medians, the cache
    counters, and the recorded pre-optimisation baseline.
    """
    epochs = 3 if is_smoke() else 7
    data = load_graph_dataset("proteins", seed=0)
    trainer = GraphClassificationTrainer(TrainConfig(
        epochs=epochs, patience=epochs, batch_size=32, seed=0))
    model = make_graph_classifier("adamgnn", data.num_features, 2, seed=0)
    median_ms, result = steady_epoch_ms(trainer, model, data)
    times = [s * 1000.0 for s in result.epoch_seconds]
    cache_stats = trainer.cache_stats(model)
    baseline_ms = GRAPH_EPOCH_BASELINE["median_epoch_ms"]

    payload = {
        "workload": {
            "dataset": "proteins (synthetic PROTEINS-like, seed 0)",
            "num_graphs": len(data.graphs),
            "train_graphs": int(data.train_index.shape[0]),
            "batch_size": 32,
            "model": "adamgnn (hidden 64, 3 levels, radius 1)",
            "protocol": (f"one fit of {epochs} epochs (training steps + "
                         f"validation pass), first excluded, median of "
                         f"the rest; the baseline timed training steps "
                         f"only; smoke={is_smoke()}"),
            "per_layer": ("python3 benchmarks/suite/run.py --workload "
                          "proteins-fit --seed 1 --seconds 10 --trace 1"),
        },
        "environment": _environment(trainer.config.dtype),
        "baseline": GRAPH_EPOCH_BASELINE,
        "current": {
            "median_epoch_ms": round(median_ms, 1),
            "first_epoch_ms": round(times[0], 1),
            "steady_epoch_ms": [round(t, 1) for t in times[1:]],
        },
        "speedup_vs_baseline": round(baseline_ms / median_ms, 2),
        "cache_stats": cache_stats,
    }
    # Keep the other sections and the per-(section, config) history; the
    # first run on a fresh file seeds the history with the baseline.
    prior = _load_json()
    for section in ("precision_ab", "sanitizer_ab", "capture_ab",
                    "dp_scaling"):
        if section in prior:
            payload[section] = prior[section]
    payload["history"] = prior.get("history", [
        {"commit": GRAPH_EPOCH_BASELINE["commit"],
         "median_epoch_ms": GRAPH_EPOCH_BASELINE["median_epoch_ms"],
         "dtype": "float64"}])
    _save_json(payload)
    _record_history("steady_state",
                    {"workload": "proteins", "dtype": trainer.config.dtype,
                     "timed": "fit_epoch"}, median_ms)

    lines = [
        f"baseline ({GRAPH_EPOCH_BASELINE['commit']}): "
        f"{baseline_ms:8.1f} ms/epoch",
        f"current:              {median_ms:8.1f} ms/epoch  "
        f"({baseline_ms / median_ms:.2f}x)",
        f"first epoch (cold):   {times[0]:8.1f} ms",
        "",
        "cache hit/miss counters:",
    ]
    lines += [f"    {name:<16s}hits {c['hits']:>6d}  misses "
              f"{c['misses']:>5d}  entries {c['entries']:>5d}"
              for name, c in cache_stats.items()]
    lines.append(f"\nper-layer split: {payload['workload']['per_layer']}")
    lines.append(f"machine-readable copy: {GRAPH_EPOCH_JSON.name}")
    return "\n".join(lines)


def generate_precision_ab() -> str:
    """Interleaved float32-vs-float64 A/B on the steady PROTEINS epoch.

    Both arms run the same seeded workload through the same kernels; only
    the compute dtype differs.  Each round runs one fresh ``fit`` per arm,
    alternating the two arms so the machine's wall-clock drift hits both
    equally, and the paired per-round ratio is the headline figure.
    Medians land in the ``precision_ab`` section of
    ``BENCH_graph_epoch.json``.
    """
    rounds = 1 if is_smoke() else 3
    epochs_per_fit = 3 if is_smoke() else 4
    data = load_graph_dataset("proteins", seed=0)
    round_medians: Dict[str, list] = {"float32": [], "float64": []}
    for _ in range(rounds):
        for dtype, medians in round_medians.items():
            trainer = GraphClassificationTrainer(TrainConfig(
                epochs=epochs_per_fit, patience=epochs_per_fit,
                batch_size=32, seed=0, dtype=dtype))
            model = make_graph_classifier("adamgnn", data.num_features, 2,
                                          seed=0)
            medians.append(steady_epoch_ms(trainer, model, data)[0])

    m32 = statistics.median(round_medians["float32"])
    m64 = statistics.median(round_medians["float64"])
    paired = [b / a for a, b in zip(round_medians["float32"],
                                    round_medians["float64"])]
    payload = {
        "environment": _environment("float32 vs float64"),
        "protocol": (f"interleaved A/B, {rounds} rounds, one fit of "
                     f"{epochs_per_fit} epochs per round per arm, median "
                     f"with the cold epoch excluded; smoke={is_smoke()}"),
        "float32_round_medians_ms": [round(v, 1) for v in
                                     round_medians["float32"]],
        "float64_round_medians_ms": [round(v, 1) for v in
                                     round_medians["float64"]],
        "float32_median_ms": round(m32, 1),
        "float64_median_ms": round(m64, 1),
        "paired_round_speedups": [round(r, 2) for r in paired],
        "float32_speedup": round(m64 / m32, 2),
    }
    _merge_into_json("precision_ab", payload)

    lines = [
        f"float64:         {m64:8.1f} ms/epoch  "
        f"rounds {payload['float64_round_medians_ms']}",
        f"float32:         {m32:8.1f} ms/epoch  "
        f"rounds {payload['float32_round_medians_ms']}",
        f"float32 speedup: {m64 / m32:8.2f}x  "
        f"(paired per round: {payload['paired_round_speedups']})",
        f"cpus: {os.cpu_count()}",
        f"\nmachine-readable copy: {GRAPH_EPOCH_JSON.name} (precision_ab)",
    ]
    return "\n".join(lines)


def generate_capture_ab() -> str:
    """Interleaved capture off/on A/B on full-batch AdamGNN Cora ``fit``.

    Full-batch node training revisits one (graph, dtype) key every
    epoch, so ``fit`` itself marks it in epoch 1, captures the autograd
    tape in epoch 2 and replays it, with gradient buffers drawn from the
    preallocated training arena, from epoch 3 on.  Each round runs one
    fresh fit per arm, alternating off/on so the machine's wall-clock
    drift hits both equally; an arm's figure is the median of its
    replayed epochs (the first two excluded in both arms), and the paired
    per-round ratio is the headline figure.  Alongside the timings this
    records the capture/arena counters of the last on-arm fit and the
    zero-steady-state-allocation evidence: the arena allocations the
    on-arm fit made after its capture epoch, i.e. its total minus that of
    a two-epoch fit with the same seed (seeded fits are bitwise
    repeatable, so the first two epochs allocate the same).  The arena
    still grows when the learned selection drifts across a size class:
    with seed 0 it adds 2 buffers by epoch 6 and 12 more by epoch 12, so
    the test's bound of 8 holds for fits of up to 11 epochs.  Medians
    land in the ``capture_ab`` section of ``BENCH_graph_epoch.json`` and
    the on-arm median extends its history series.
    """
    rounds = 1 if is_smoke() else 3
    epochs_per_fit = 6 if is_smoke() else 10
    skip = 2                                  # mark + capture epochs
    data = load_node_dataset("cora", seed=0)
    features = prepare_node_features(data)

    def arm(capture: bool, epochs: int):
        trainer = NodeClassificationTrainer(TrainConfig(
            epochs=epochs, patience=epochs, seed=0, capture=capture))
        model = make_node_classifier("adamgnn", features.shape[1],
                                     data.num_classes, seed=0)
        return trainer, model

    probe, model = arm(True, skip)
    probe.fit(model, data)
    allocs_at_capture = \
        probe.cache_stats()["training_tape"]["arena_allocations"]
    round_medians: Dict[str, list] = {"off": [], "on": []}
    for _ in range(rounds):
        for name, medians in round_medians.items():
            trainer, model = arm(name == "on", epochs_per_fit)
            medians.append(steady_epoch_ms(trainer, model, data,
                                           skip=skip)[0])
            if name == "on":
                stats = trainer.cache_stats()["training_tape"]
    assert stats["hits"] > 0, "replay did not engage"
    steady_allocs = stats["arena_allocations"] - allocs_at_capture

    off_ms = statistics.median(round_medians["off"])
    on_ms = statistics.median(round_medians["on"])
    paired = [off / on for off, on in zip(round_medians["off"],
                                          round_medians["on"])]
    dtype = TrainConfig(epochs=1).dtype
    payload = {
        "environment": _environment(dtype),
        "workload": "cora, full-batch adamgnn node classification",
        "protocol": (f"interleaved A/B, {rounds} rounds, one fit of "
                     f"{epochs_per_fit} epochs per round per arm, median "
                     f"of epochs {skip + 1}..{epochs_per_fit} (the "
                     f"replayed ones in the on arm); smoke={is_smoke()}"),
        "off_round_medians_ms": [round(v, 1) for v in round_medians["off"]],
        "on_round_medians_ms": [round(v, 1) for v in round_medians["on"]],
        "off_median_ms": round(off_ms, 1),
        "on_median_ms": round(on_ms, 1),
        "paired_round_speedups": [round(r, 2) for r in paired],
        "capture_speedup": round(off_ms / on_ms, 2),
        "capture_stats": stats,
        # Arena allocations across the replayed epochs: 0 means every
        # gradient/forward buffer came out of the preallocated arena.
        "steady_state_arena_allocations": steady_allocs,
    }
    _merge_into_json("capture_ab", payload)
    _record_history("capture_ab", {"workload": "cora", "dtype": dtype,
                                   "capture": True, "timed": "fit_epoch"},
                    on_ms)

    lines = [
        f"capture off:           {off_ms:8.1f} ms/epoch  "
        f"rounds {payload['off_round_medians_ms']}",
        f"capture on (replay):   {on_ms:8.1f} ms/epoch  "
        f"rounds {payload['on_round_medians_ms']}",
        f"capture speedup:       {off_ms / on_ms:8.2f}x  "
        f"(paired per round: {payload['paired_round_speedups']})",
        f"replay: {stats['hits']} hits, {stats['fallbacks']} fallbacks, "
        f"{stats['entries']} tapes, {stats['tape_nodes']} nodes, "
        f"grad arena {stats['grad_arena_bytes'] / 1e6:.1f} MB",
        f"steady-state arena allocations: {steady_allocs} "
        f"(0 = fully preallocated)",
        f"\nmachine-readable copy: {GRAPH_EPOCH_JSON.name} (capture_ab)",
    ]
    return "\n".join(lines)


def generate_sanitizer_ab() -> str:
    """Interleaved sanitizer on/off A/B on the steady PROTEINS epoch.

    Measures what ``REPRO_SANITIZE=1`` costs (NaN/Inf checks at every
    ``_make_child``, workspace slot poisoning at every generation advance,
    segment dtype contracts) and proves the off state costs nothing.  The
    off arm runs under ``sanitizer_paused()`` so the A/B is valid even when
    the whole process is sanitized, and it asserts the **zero-cost-off
    contract**: with sanitizers off, ``Tensor._make_child`` *is* the
    original function object — not a wrapper with a flag check — so the
    disabled path cannot differ from a tree without the sanitizer module.
    Each round runs one fresh ``fit`` per arm, alternating off/on so
    wall-clock drift hits both arms equally; the paired per-round ratio
    is the headline overhead figure.  Medians land in the
    ``sanitizer_ab`` section of ``BENCH_graph_epoch.json``.
    """
    rounds = 1 if is_smoke() else 3
    epochs_per_fit = 3 if is_smoke() else 4
    data = load_graph_dataset("proteins", seed=0)
    config = TrainConfig(epochs=epochs_per_fit, patience=epochs_per_fit,
                         batch_size=32, seed=0)

    def fit_ms() -> float:
        model = make_graph_classifier("adamgnn", data.num_features, 2,
                                      seed=0)
        return steady_epoch_ms(GraphClassificationTrainer(config), model,
                               data)[0]

    # Zero-cost-off contract, checked before any timing: the off arm runs
    # the exact original code objects.
    with sanitizer_paused():
        assert_unpatched()
        unpatched_make_child = Tensor._make_child

    off_medians, on_medians = [], []
    for _ in range(rounds):
        with sanitizer_paused():
            assert Tensor._make_child is unpatched_make_child
            off_medians.append(fit_ms())
        with sanitize():
            assert Tensor._make_child is not unpatched_make_child
            on_medians.append(fit_ms())
    with sanitizer_paused():
        assert_unpatched()

    off_ms = statistics.median(off_medians)
    on_ms = statistics.median(on_medians)
    paired = [on / off for off, on in zip(off_medians, on_medians)]
    payload = {
        "environment": _environment(config.dtype),
        "protocol": (f"interleaved A/B, {rounds} rounds, one fit of "
                     f"{epochs_per_fit} epochs per round per arm, median "
                     f"with the cold epoch excluded; off arm under "
                     f"sanitizer_paused(); smoke={is_smoke()}"),
        "off_round_medians_ms": [round(v, 1) for v in off_medians],
        "on_round_medians_ms": [round(v, 1) for v in on_medians],
        "off_median_ms": round(off_ms, 1),
        "on_median_ms": round(on_ms, 1),
        "paired_round_overheads": [round(r, 2) for r in paired],
        "sanitizer_overhead": round(on_ms / off_ms, 2),
        # assert_unpatched() passed in the off arm: the disabled hot path
        # is the original function object, i.e. literally zero cost off.
        "zero_cost_off": True,
    }
    _merge_into_json("sanitizer_ab", payload)

    lines = [
        f"sanitizers off:        {off_ms:8.1f} ms/epoch  "
        f"rounds {payload['off_round_medians_ms']}",
        f"sanitizers on:         {on_ms:8.1f} ms/epoch  "
        f"rounds {payload['on_round_medians_ms']}",
        f"sanitizer overhead:    {on_ms / off_ms:8.2f}x  "
        f"(paired per round: {payload['paired_round_overheads']})",
        "zero-cost-off: _make_child identity verified in the off arm",
        f"\nmachine-readable copy: {GRAPH_EPOCH_JSON.name} (sanitizer_ab)",
    ]
    return "\n".join(lines)


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
        "environment": _environment(dtype, num_shards=num_shards,
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
    _merge_into_json("dp_scaling", payload)

    # Extend the widest dp arm's history series: what a maximally
    # parallel epoch costs here.
    top = max(procs_sweep)
    _record_history("dp_scaling", {"workload": "proteins", "dtype": dtype,
                                   "dp_procs": top, "timed": "fit_epoch"},
                    medians[f"dp{top}"])

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
def test_graph_epoch_sanitizer_ab(benchmark):
    table = benchmark.pedantic(generate_sanitizer_ab, rounds=1,
                               iterations=1)
    emit("Table 4 (supplement): sanitizer on/off steady epoch", table)
    assert table
    assert output_path(GRAPH_EPOCH_JSON).exists()
    section = _load_json()["sanitizer_ab"]
    assert section["zero_cost_off"] is True


@pytest.mark.benchmark(group="table4")
def test_graph_epoch_capture_ab(benchmark):
    table = benchmark.pedantic(generate_capture_ab, rounds=1,
                               iterations=1)
    emit("Table 4 (supplement): capture off/on steady epoch", table)
    assert table
    assert output_path(GRAPH_EPOCH_JSON).exists()
    section = _load_json()["capture_ab"]
    assert section["capture_stats"]["fallbacks"] == 0
    # 0 in the common case; a selection-drift size-class crossing after
    # the settle loop may add O(1) buffers across all measured epochs.
    assert section["steady_state_arena_allocations"] <= 8


@pytest.mark.benchmark(group="table4")
def test_graph_epoch_precision_ab(benchmark):
    table = benchmark.pedantic(generate_precision_ab, rounds=1,
                               iterations=1)
    emit("Table 4 (supplement): float32 vs float64 steady epoch", table)
    assert table
    assert output_path(GRAPH_EPOCH_JSON).exists()


@pytest.mark.benchmark(group="table4")
def test_graph_epoch_steady_state(benchmark):
    table = benchmark.pedantic(generate_graph_epoch_benchmark, rounds=1,
                               iterations=1)
    emit("Table 4 (supplement): graph-classification steady epoch", table)
    assert table
    assert output_path(GRAPH_EPOCH_JSON).exists()


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
