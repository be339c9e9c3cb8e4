"""Serving-style inference throughput: Predictor vs training-mode forward.

The serving scenario: a trained AdamGNN graph classifier answers repeated
requests over a fixed evaluation split (the PROTEINS val+test graphs).  The
A arm runs each request exactly as a training step's forward does —
``model.train()``, gradients on, a fresh autograd tape and fresh structural
derivation every time.  The B arm serves the same requests through
:class:`repro.inference.Predictor`: no-grad, per-batch workspace arenas
(buffers and the captured coarsening plan replayed), identical logits.

Rounds alternate between the two arms so the machine's wall-clock drift
hits both equally — the paired interleaved ratio is the headline figure,
same protocol as the epoch benchmark.  Results land in
``BENCH_inference.json`` at the repo root: per-request p50/p95 latency,
graphs/sec, the speedup, and the parity/zero-allocation checks the
acceptance cares about (bitwise-equal logits in float32 *and* in float64
under ``naive_kernels()``, and a frozen allocation counter once every
batch has had its capture pass).
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_graph_dataset
from repro.inference import Predictor
from repro.tensor import default_dtype, naive_kernels
from repro.training import TrainConfig
from repro.training.experiment import make_graph_classifier
from repro.training.graph_trainer import (GraphClassificationTrainer,
                                          _model_forward)

from .bench_table4_epoch_time import _current_commit, _environment
from .common import emit, is_smoke, output_path

INFERENCE_JSON = Path(__file__).resolve().parent.parent \
    / "BENCH_inference.json"

BATCH_SIZE = 32


def _eval_pairs(dtype: str):
    """The serving workload: collated (batch, structure) pairs of the
    PROTEINS evaluation split (val + test), plus the model that serves
    them.  Collation goes through the trainer's own structure pipeline so
    both arms consume the exact batches ``evaluate()`` would."""
    data = load_graph_dataset("proteins", seed=0)
    eval_index = np.concatenate([data.val_index, data.test_index])
    model = make_graph_classifier("adamgnn", data.num_features, 2, seed=0)
    trainer = GraphClassificationTrainer(
        TrainConfig(dtype=dtype, batch_size=BATCH_SIZE, seed=0))
    model.astype(dtype)
    structures = trainer._structures_for(model, data)
    pairs = list(trainer._batches(structures, data, eval_index))
    return model, pairs, int(eval_index.shape[0])


def _reference_logits(model, pairs, dtype):
    """Eval-mode grad-on forward — the trainer's pre-engine arithmetic."""
    model.eval()
    with default_dtype(dtype):
        out = [_model_forward(model, b, s)[0].data.copy() for b, s in pairs]
    return out


def _check_parity(dtype: str, naive: bool) -> bool:
    model, pairs, _ = _eval_pairs(dtype)
    if naive:
        with naive_kernels():
            reference = _reference_logits(model, pairs, dtype)
            predictor = Predictor(model)
            served = [predictor.predict_batch(b, s) for b, s in pairs]
            # Replay pass: captured plans and recycled buffers must not
            # move a single bit either.
            replayed = [predictor.predict_batch(b, s) for b, s in pairs]
    else:
        reference = _reference_logits(model, pairs, dtype)
        predictor = Predictor(model)
        served = [predictor.predict_batch(b, s) for b, s in pairs]
        replayed = [predictor.predict_batch(b, s) for b, s in pairs]
    return (all((a == b).all() for a, b in zip(reference, served))
            and all((a == b).all() for a, b in zip(reference, replayed)))


def generate_inference_benchmark() -> str:
    rounds = 2 if is_smoke() else 5
    requests_per_round = 4 if is_smoke() else 20
    dtype = "float32"

    model, pairs, num_graphs = _eval_pairs(dtype)
    predictor = Predictor(model)

    # --- correctness gates -------------------------------------------
    parity = {
        "float32_bitwise": _check_parity("float32", naive=False),
        "float64_naive_bitwise": _check_parity("float64", naive=True),
    }

    # Capture pass for every served batch, then freeze the counter: the
    # steady state must not allocate a single new arena buffer.
    for batch, structure in pairs:
        predictor.predict_batch(batch, structure)
    allocations_after_capture = predictor.allocations
    for _ in range(3):
        for batch, structure in pairs:
            predictor.predict_batch(batch, structure)
    steady_allocations = predictor.allocations - allocations_after_capture

    # --- interleaved A/B ---------------------------------------------
    def request_a():
        model.train()
        start = time.perf_counter()
        with default_dtype(dtype):
            for batch, structure in pairs:
                _model_forward(model, batch, structure)
        return (time.perf_counter() - start) * 1000.0

    def request_b():
        start = time.perf_counter()
        for batch, structure in pairs:
            predictor.predict_batch(batch, structure)
        return (time.perf_counter() - start) * 1000.0

    request_a(), request_b()                      # warm both arms
    lat_a, lat_b = [], []
    for _ in range(rounds):
        lat_a += [request_a() for _ in range(requests_per_round)]
        lat_b += [request_b() for _ in range(requests_per_round)]

    def summarise(samples):
        return {
            "p50_ms": round(float(np.percentile(samples, 50)), 2),
            "p95_ms": round(float(np.percentile(samples, 95)), 2),
            "mean_ms": round(statistics.fmean(samples), 2),
            "graphs_per_sec": round(
                num_graphs / (np.percentile(samples, 50) / 1000.0), 1),
        }

    a_summary = summarise(lat_a)
    b_summary = summarise(lat_b)
    speedup = round(a_summary["p50_ms"] / b_summary["p50_ms"], 2)

    payload = {
        "workload": {
            "dataset": "proteins (synthetic PROTEINS-like, seed 0)",
            "split": "val + test",
            "num_graphs": num_graphs,
            "batch_size": BATCH_SIZE,
            "num_batches": len(pairs),
            "model": "adamgnn (hidden 64, 3 levels, radius 1)",
        },
        "environment": _environment(dtype),
        "commit": _current_commit(),
        "protocol": (f"interleaved A/B, {rounds} rounds x "
                     f"{requests_per_round} requests per arm per round, "
                     f"request = one pass over the eval split; A = "
                     f"training-mode forward (grad on, fresh tape and "
                     f"structure), B = Predictor steady state; "
                     f"smoke={is_smoke()}"),
        "training_mode_forward": a_summary,
        "predictor": b_summary,
        "speedup": speedup,
        "parity": parity,
        "workspace": {
            "steady_state_new_allocations": int(steady_allocations),
            **predictor.stats(),
        },
    }
    output_path(INFERENCE_JSON).write_text(
        json.dumps(payload, indent=2) + "\n")

    lines = [
        f"training-mode forward: p50 {a_summary['p50_ms']:7.2f} ms   "
        f"p95 {a_summary['p95_ms']:7.2f} ms   "
        f"{a_summary['graphs_per_sec']:8.1f} graphs/s",
        f"predictor (no-grad):   p50 {b_summary['p50_ms']:7.2f} ms   "
        f"p95 {b_summary['p95_ms']:7.2f} ms   "
        f"{b_summary['graphs_per_sec']:8.1f} graphs/s",
        f"speedup (p50):         {speedup:.2f}x",
        "",
        f"bitwise parity  float32: {parity['float32_bitwise']}   "
        f"float64+naive kernels: {parity['float64_naive_bitwise']}",
        f"steady-state new allocations: {steady_allocations}  "
        f"(arena: {predictor.stats()['slots']} slots, "
        f"{predictor.stats()['nbytes'] / 1e6:.1f} MB, "
        f"{predictor.stats()['captured_structures']} captured structures)",
        f"\nmachine-readable copy: {INFERENCE_JSON.name}",
    ]
    return "\n".join(lines)


@pytest.mark.benchmark(group="inference")
def test_inference_throughput(benchmark):
    table = benchmark.pedantic(generate_inference_benchmark, rounds=1,
                               iterations=1)
    emit("Inference: serving throughput vs training-mode forward", table)
    assert table
    payload = json.loads(output_path(INFERENCE_JSON).read_text())
    assert payload["parity"]["float32_bitwise"] is True
    assert payload["parity"]["float64_naive_bitwise"] is True
    assert payload["workspace"]["steady_state_new_allocations"] == 0
    # The ratio itself is recorded, not asserted tightly: wall-clock on a
    # loaded CI box drifts, and the JSON is the reviewable artifact.
    assert payload["speedup"] > 1.0
