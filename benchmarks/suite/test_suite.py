"""Self-test of the performance suite at smoke size.

Slow-marked by ``benchmarks/conftest.py``; run it with
``PYTHONPATH=src python -m pytest benchmarks/suite -m ""``.
"""

import inspect
import json
import math
import time

import pytest

from repro.inference import Predictor
from repro.optim import Adam
from repro.serving import service

from benchmarks.suite import compare, run
from benchmarks.suite.instrument import (GLOBAL_SPANS, Instrumentation,
                                         layer_metrics, _resolve)
from benchmarks.suite.tracer import Tracer
from benchmarks.suite.workloads import WORKLOADS

SMOKE_SECONDS = 1
SPEC = run.load_spec()


def _run(capfd, workload, trace=0, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)])
    lines = capfd.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def _values(result):
    return {name: metric["value"] for name, metric in
            result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metrics_match_spec_and_checks_pass(capfd, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result, lines = _run(capfd, workload, trace)
        assert code == 0, "\n".join(lines)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {name: metric["unit"] for name, metric in
                result["metrics"].items()} == expected
        assert all(math.isfinite(metric["value"])
                   for metric in result["metrics"].values())
        if trace == 0:
            assert all(metric["value"] > 0
                       for metric in result["metrics"].values())
        else:
            layers = _values(result)
            assert layers["trace.unattributed_pct"] <= 5.0


def test_seeded_accuracy_repeats(capfd):
    first = _values(_run(capfd, "proteins-fit")[1])["accuracy"]
    second = _values(_run(capfd, "proteins-fit")[1])["accuracy"]
    assert first == second


def test_workloads_separate_their_mechanisms(capfd):
    layers = {name: _values(_run(capfd, name, trace=1)[1])
              for name in ("serve-repeat", "serve-unique", "cora-fit",
                           "proteins-fit")}
    assert layers["serve-repeat"]["serving.dedup_ratio"] > 0
    assert layers["serve-repeat"]["serving.collation_hit_ratio"] >= 0.9
    assert layers["serve-unique"]["serving.dedup_ratio"] == 0
    assert layers["serve-unique"]["serving.collation_hit_ratio"] < 0.05
    assert layers["cora-fit"]["training.capture.replay_ratio"] >= 0.9
    assert layers["proteins-fit"]["training.capture.replay_ratio"] == 0


def test_corrupted_served_label_fails_the_run(capfd, monkeypatch):
    real = service.ServedPrediction

    def corrupted(**fields):
        if fields["graph_id"] == 0:
            fields["label"] = 1 - fields["label"]
        return real(**fields)

    monkeypatch.setattr(service, "ServedPrediction", corrupted)
    code, result, lines = _run(capfd, "serve-repeat")
    assert code == 1 and not result["correct"]
    assert any("served_labels" in line and "FAILED" in line
               for line in lines)


def _targets(model):
    """(owner, attribute) of every hook the instrumentation installs."""
    targets = [_resolve(module, path) for module, path, _ in GLOBAL_SPANS]
    targets += [_resolve("repro.tensor.tape", "TrainingTape.backward"),
                _resolve("repro.training.samplers", "NeighborSampler.sample"),
                _resolve("repro.core.structure", "DatasetStructures.batch"),
                _resolve("repro.inference.predictor",
                         "Predictor.predict_batch"),
                _resolve("repro.inference.predictor", "use_workspace")]
    encoder = model.encoder
    targets += [(model, "forward"), (encoder, "forward"),
                (encoder.input_conv, "forward"), (encoder.flyback, "forward"),
                (model.head_hidden, "forward"), (model.head_out, "forward")]
    for pooler in encoder.poolers:
        targets += [(pooler, "forward"), (pooler.fitness, "pair_scores"),
                    (pooler.features, "forward")]
    targets += [(conv, "forward") for conv in encoder.level_convs]
    return [t for t in targets if t is not None]


def test_trace_restores_originals_and_spans_nest():
    workload = WORKLOADS["proteins-fit"]
    dataset = workload.generate(3)
    model, trainer, _ = workload.build(dataset, 3, 2)
    targets = _targets(model)
    before = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    with tracer:
        instrumentation.install()
        instrumentation.install_model(model)
        assert model.__dict__.get("forward") is not None
        with tracer.span("training.fit"):
            trainer.fit(model, dataset)
    assert instrumentation.missing == []
    after = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    assert all(a is b for a, b in zip(after, before))
    assert "forward" not in model.__dict__

    assert tracer.spans
    for span in tracer.spans:
        assert span.self_time >= -1e-9
        if span.parent is not None:
            assert span.parent.start <= span.start <= span.end \
                <= span.parent.end
            assert span.parent.tid == span.tid
    names = {span.name for span in tracer.spans}
    assert {"core.L1.fitness", "core.L2.egonet", "tensor.backward",
            "optim.step", "losses.recon", "structure.collate"} <= names
    metrics = layer_metrics(tracer, units=2)
    assert 0 <= metrics["trace.unattributed_pct"] <= 5.0
    events = tracer.chrome_trace()["traceEvents"]
    assert len(events) == len(tracer.spans)
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


def _slowed(original, extra):
    def slow(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        time.sleep(extra(time.perf_counter() - start))
        return result
    return slow


@pytest.mark.parametrize("workload,owner,attr", [
    ("proteins-fit", Adam, "step"),
    ("serve-repeat", Predictor, "predict_batch"),
])
def test_check_fails_on_an_injected_slowdown(capfd, monkeypatch, tmp_path,
                                             workload, owner, attr):
    runs, baseline = tmp_path / "runs.jsonl", tmp_path / "baseline.json"
    result = _run(capfd, workload)[1]
    runs.write_text(json.dumps({"side": "parent", "workload": workload,
                                "seed": 1, "result": result}) + "\n")
    assert compare.main(["record", str(runs), "--out", str(baseline)]) == 0
    capfd.readouterr()

    # Slow the end-to-end result by about half: well past the largest
    # bound (25%) even on a noisy host.
    if owner is Adam:
        # Half a steady epoch spread over its four optimizer steps.
        epoch_s = result["metrics"]["latency_ms_p50"]["value"] / 1000.0
        extra = lambda elapsed: 0.5 * epoch_s / 4   # noqa: E731
    else:
        extra = lambda elapsed: elapsed             # noqa: E731
    monkeypatch.setattr(owner, attr, _slowed(getattr(owner, attr), extra))
    slowed = _run(capfd, workload)[1]
    runs.write_text(json.dumps({"side": "change", "workload": workload,
                                "seed": 1, "result": slowed}) + "\n")
    assert compare.main(["check", str(runs), "--baseline",
                         str(baseline)]) == 1
    assert "REGRESSED" in capfd.readouterr().out
