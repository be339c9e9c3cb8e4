"""Node-count scaling: streamed SBM generation + sampled minibatch training.

The dense SBM sampler and the full-batch node trainer both hold whole-graph
state, which caps the substrate at a few tens of thousands of nodes.  This
bench sweeps the scaled configuration family
(:func:`~repro.datasets.sbm.scaled_sbm_config`, constant expected degree)
across two decades of graph size and records, per size:

* **generation** — wall-clock and peak RSS of the streamed block-pair
  sampler (``method="streaming"`` at every size so the numbers compare);
* **training** — sampled-minibatch GCN epochs over a CSC structure with a
  fixed optimiser-step budget (``max_steps_per_epoch``), reporting seconds
  per step and the run's peak RSS.

Two contrast arms anchor the sweep:

* **dense baseline** — the pre-streaming edge sampler with its O(n²)
  probability / uniform / mask intermediates, replicated here verbatim at
  the smallest sweep size, so the JSON carries the footprint the rewrite
  removed;
* **parity** — sampled vs full-batch training on the same graph at a size
  the full-batch path still handles, confirming the sampled path trades
  no measurable accuracy.

Every run is forked (:func:`benchmarks.common.run_isolated`), so each
arm's ``ru_maxrss`` is its own high-water mark, not the bench process's
history.  Results land in ``BENCH_node_scaling.json`` at the repo root
with a per-commit history entry, same protocol as ``BENCH_graph_epoch``.

Scope: ``REPRO_BENCH_SCOPE=smoke`` shrinks the sweep to {2e3, 1e4} nodes
with a two-epoch budget (seconds, used by CI); the full sweep covers
{1e4, 1e5, 1e6} and takes a few minutes, dominated by the 10^6-node arm.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import NodeDataset, NodeTaskSplits, split_nodes
from repro.datasets.sbm import generate_sbm_graph, scaled_sbm_config
from repro.training import TrainConfig
from repro.training.experiment import make_node_classifier
from repro.training.node_trainer import (NodeClassificationTrainer,
                                         prepare_node_features)

from .common import (bench_environment, current_commit, emit, is_smoke,
                     output_path, run_isolated)

NODE_SCALING_JSON = Path(__file__).resolve().parent.parent \
    / "BENCH_node_scaling.json"

SIZES_FULL = (10_000, 100_000, 1_000_000)
SIZES_SMOKE = (2_000, 10_000)

#: Validation/test indices are truncated to this many nodes in the timing
#: arms — evaluation cost is not what the sweep measures, and an untruncated
#: 10% split of a 10^6-node graph would spend more time evaluating than
#: training under the fixed step budget.
EVAL_CAP = 2048

_MB = 1024.0 * 1024.0


def _features_for(num_nodes: int) -> int:
    """Topic features up to 10^5 nodes; degree features (0) above.

    Keeps the 10^6-node arm's footprint dominated by the structures under
    test (edge list + CSC) rather than by a 10^6 × 64 float feature matrix.
    """
    return 64 if num_nodes <= 100_000 else 0


def _scaled_dataset(num_nodes: int, eval_cap: int = EVAL_CAP) -> NodeDataset:
    cfg = scaled_sbm_config(num_nodes,
                            num_features=_features_for(num_nodes))
    graph = generate_sbm_graph(cfg, seed=0)
    splits = split_nodes(graph.num_nodes, np.random.default_rng(4243))
    if eval_cap:
        splits = NodeTaskSplits(train=splits.train,
                                val=splits.val[:eval_cap],
                                test=splits.test[:eval_cap])
    return NodeDataset(name=f"sbm-{num_nodes}", graph=graph,
                       num_classes=cfg.num_classes, splits=splits)


# --------------------------------------------------------------------------
# Forked arms (module-level: results cross the pipe, so keep them dicts)
# --------------------------------------------------------------------------

def _generation_arm(num_nodes: int) -> dict:
    cfg = scaled_sbm_config(num_nodes,
                            num_features=_features_for(num_nodes))
    start = time.perf_counter()
    graph = generate_sbm_graph(cfg, seed=0, method="streaming")
    seconds = time.perf_counter() - start
    degrees = np.bincount(graph.edge_index[0], minlength=graph.num_nodes)
    return {
        "seconds": round(seconds, 3),
        "nodes": int(graph.num_nodes),
        "edges": int(graph.num_edges),
        "mean_degree": round(float(degrees.mean()), 2),
    }


def _dense_baseline_arm(num_nodes: int) -> dict:
    """The pre-streaming edge sampler, O(n²) intermediates and all.

    This is the removed implementation, kept here as the memory baseline
    the streamed sampler is judged against: a full (n, n) probability
    matrix, a full (n, n) uniform draw, and the boolean hit mask.
    """
    from repro.datasets.sbm import (_block_memberships, _block_prob_table,
                                    _degree_corrections)
    cfg = scaled_sbm_config(num_nodes,
                            num_features=_features_for(num_nodes))
    rng = np.random.default_rng(0)
    labels, communities, subs = _block_memberships(cfg, rng)
    theta = _degree_corrections(cfg, rng)
    table = _block_prob_table(cfg)
    start = time.perf_counter()
    n = cfg.num_nodes
    prob = table[subs[:, None], subs[None, :]]          # (n, n) float64
    prob *= theta[:, None] * theta[None, :]
    np.clip(prob, 0.0, 1.0, out=prob)
    hit = rng.random((n, n)) < prob                     # second (n, n)
    hit &= np.arange(n)[None, :] > np.arange(n)[:, None]
    src, dst = np.nonzero(hit)
    seconds = time.perf_counter() - start
    return {"seconds": round(seconds, 3), "nodes": n,
            "undirected_edges": int(src.shape[0])}


def _training_arm(num_nodes: int, epochs: int, max_steps: int,
                  batch_size: int) -> dict:
    dataset = _scaled_dataset(num_nodes)
    features = prepare_node_features(dataset)
    model = make_node_classifier("gcn", features.shape[1],
                                 dataset.num_classes, seed=0)
    config = TrainConfig(sampled=True, epochs=epochs, patience=epochs,
                         seed=0, node_batch_size=batch_size, fanout=10,
                         num_hops=2, max_steps_per_epoch=max_steps)
    trainer = NodeClassificationTrainer(config)
    result = trainer.fit(model, dataset)
    steps_total = result.epochs_run * result.steps_per_epoch
    sampler_stats = trainer.cache_stats(model)["sampler"]
    return {
        "seconds": round(result.seconds, 3),
        "epochs_run": result.epochs_run,
        "steps_per_epoch": result.steps_per_epoch,
        "seconds_per_step": round(result.seconds / max(1, steps_total), 4),
        "test_accuracy": round(result.test_accuracy, 4),
        "mean_batch_nodes": round(sampler_stats.get("mean_batch_nodes",
                                                    0.0), 1),
        "last_batch_edges": sampler_stats.get("last_batch_edges", 0),
    }


def _parity_arm(num_nodes: int, epochs: int) -> dict:
    """Sampled vs full-batch accuracy on the identical graph + splits."""
    dataset = _scaled_dataset(num_nodes, eval_cap=0)
    features = prepare_node_features(dataset)
    accs = {}
    for mode in ("full_batch", "sampled"):
        model = make_node_classifier("gcn", features.shape[1],
                                     dataset.num_classes, seed=0)
        config = TrainConfig(epochs=epochs, patience=epochs, seed=0,
                             sampled=(mode == "sampled"),
                             node_batch_size=512, fanout=10, num_hops=2)
        result = NodeClassificationTrainer(config).fit(model, dataset)
        accs[mode] = round(result.test_accuracy, 4)
    return accs


# --------------------------------------------------------------------------
# The sweep
# --------------------------------------------------------------------------

def generate_node_scaling() -> str:
    smoke = is_smoke()
    sizes = SIZES_SMOKE if smoke else SIZES_FULL
    epochs = 2 if smoke else 3
    max_steps = 4 if smoke else 8
    batch_size = 256 if smoke else 1024
    parity_nodes = sizes[0]
    parity_epochs = 10 if smoke else 30

    records = []
    for num_nodes in sizes:
        gen, gen_peak = run_isolated(_generation_arm, num_nodes)
        train, train_peak = run_isolated(_training_arm, num_nodes, epochs,
                                         max_steps, batch_size)
        gen["peak_rss_mb"] = round(gen_peak / _MB, 1)
        train["peak_rss_mb"] = round(train_peak / _MB, 1)
        records.append({"num_nodes": num_nodes, "generation": gen,
                        "training": train})

    dense, dense_peak = run_isolated(_dense_baseline_arm, sizes[0])
    dense["peak_rss_mb"] = round(dense_peak / _MB, 1)
    parity, _ = run_isolated(_parity_arm, parity_nodes, parity_epochs)

    payload = {
        "protocol": {
            "scope": "smoke" if smoke else "full",
            "model": "gcn (hidden 64, 2 layers)",
            "sampler": "uniform, fanout 10, 2 hops",
            "epochs": epochs,
            "max_steps_per_epoch": max_steps,
            "node_batch_size": batch_size,
            "eval_cap": EVAL_CAP,
            "note": ("every arm forked so peak_rss_mb is the arm's own "
                     "high-water mark; generation timed with "
                     "method='streaming' at every size"),
        },
        "environment": bench_environment("float32"),
        "sizes": records,
        "dense_baseline": {"num_nodes": sizes[0], **dense},
        "parity": {"num_nodes": parity_nodes, "epochs": parity_epochs,
                   **parity},
    }

    path = output_path(NODE_SCALING_JSON)
    history = []
    if path.exists():
        history = json.loads(path.read_text()).get("history", [])
    entry = {"commit": current_commit(),
             "scope": payload["protocol"]["scope"],
             "per_step_seconds": {
                 str(r["num_nodes"]): r["training"]["seconds_per_step"]
                 for r in records},
             "peak_rss_mb": {
                 str(r["num_nodes"]): r["training"]["peak_rss_mb"]
                 for r in records}}
    if history and history[-1].get("commit") == entry["commit"] \
            and history[-1].get("scope") == entry["scope"]:
        history[-1] = entry          # re-run on the same commit: refresh
    else:
        history.append(entry)
    payload["history"] = history
    path.write_text(json.dumps(payload, indent=2) + "\n")

    header = (f"{'nodes':>10} {'edges':>10} {'gen s':>8} {'gen MB':>8} "
              f"{'epoch s':>8} {'s/step':>8} {'train MB':>9} {'test acc':>9}")
    lines = [header, "-" * len(header)]
    for rec in records:
        g, t = rec["generation"], rec["training"]
        epoch_s = t["seconds"] / max(1, t["epochs_run"])
        lines.append(f"{rec['num_nodes']:>10,} {g['edges']:>10,} "
                     f"{g['seconds']:>8.2f} {g['peak_rss_mb']:>8.1f} "
                     f"{epoch_s:>8.2f} {t['seconds_per_step']:>8.3f} "
                     f"{t['peak_rss_mb']:>9.1f} {t['test_accuracy']:>9.4f}")
    lines.append("")
    lines.append(f"dense baseline @ {sizes[0]:,} nodes: "
                 f"{dense['seconds']:.2f} s, {dense['peak_rss_mb']:.1f} MB "
                 f"(streamed: {records[0]['generation']['seconds']:.2f} s, "
                 f"{records[0]['generation']['peak_rss_mb']:.1f} MB)")
    lines.append(f"parity @ {parity_nodes:,} nodes ({parity_epochs} ep): "
                 f"full-batch {parity['full_batch']:.4f}, "
                 f"sampled {parity['sampled']:.4f}")
    lines.append(f"\nmachine-readable copy: {NODE_SCALING_JSON.name}")
    return "\n".join(lines)


@pytest.mark.benchmark(group="node_scaling")
def test_node_scaling(benchmark):
    table = benchmark.pedantic(generate_node_scaling, rounds=1,
                               iterations=1)
    emit("Node scaling: streamed SBM + sampled minibatch training", table)
    assert table
    assert output_path(NODE_SCALING_JSON).exists()
    data = json.loads(output_path(NODE_SCALING_JSON).read_text())
    records = data["sizes"]

    # Epoch cost tracks the minibatch count, not the node count: per-step
    # seconds stay within a constant factor across the sweep even as the
    # graph grows 100x (the subgraph is capped by the fanout budget).
    per_step = [r["training"]["seconds_per_step"] for r in records]
    assert max(per_step) <= 25 * max(min(per_step), 1e-4)

    # Accuracy sanity: the sampled path actually learns the SBM's class
    # structure, at every scope (this is CI's sampled-training gate).
    parity = data["parity"]
    assert parity["sampled"] >= 0.5

    # The streamed sampler's footprint beats the O(n²) dense baseline at
    # the same size (full scope; at smoke sizes both arms are dominated
    # by the interpreter's own RSS, so only record).
    if not is_smoke():
        dense_mb = data["dense_baseline"]["peak_rss_mb"]
        streamed_mb = records[0]["generation"]["peak_rss_mb"]
        if dense_mb and streamed_mb:
            assert streamed_mb < dense_mb

        # Sampled training matches full-batch accuracy where both run.
        assert parity["sampled"] >= parity["full_batch"] - 0.10
