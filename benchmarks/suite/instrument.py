"""Where the suite's tracer hooks into ``repro``, and the per-layer metrics.

Every hook wraps a name at the boundary of a layer, where its caller looks
it up, so the program itself carries no tracing code:

* module globals that a caller module imported (``repro.core.pooling
  .build_ego_networks`` is the ego-net stage as the AGP operator calls it);
* class attributes (``Adam.step``, ``Tensor.backward``, ``Predictor
  .predict_batch``), which every instance looks up;
* attributes of one model object (``encoder.poolers[k].forward``), which
  tie the work to AdamGNN level ``k``.

A hook whose target no longer exists is skipped and listed in
:attr:`Instrumentation.missing`; its metrics then read 0.

Per-layer ``*_ms`` metrics are self time per unit of work: per training
epoch for the fit workloads and per completed request for the serving
workloads.  Self times of the main thread add up to the traced ``fit``
call, so the share left in container spans (the fit loop itself and the
AGP operator's glue between its stages) is ``trace.unattributed_pct``.
"""

from __future__ import annotations

import bisect
import importlib
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tracer import Span, Tracer

LEVELS = (1, 2, 3)
STAGES = ("egonet", "fitness", "selection", "hyper_features", "connectivity",
          "conv", "unpool")

#: Spans whose self time is reported as a ``<name>_ms`` metric.
TIMED_SPANS = (
    tuple(f"core.L{k}.{stage}" for k in LEVELS for stage in STAGES)
    + ("core.L0.conv", "core.normalize", "core.flyback", "core.readout",
       "core.encoder", "model.forward", "losses.task", "losses.kl",
       "losses.recon", "tensor.backward", "optim.step", "optim.clip",
       "training.eval", "structure.collate", "samplers.sample",
       "inference.predict"))

#: Spans that only contain other spans; their self time is unattributed.
CONTAINER_SPANS = ("training.fit",) + tuple(f"core.L{k}.pool" for k in LEVELS)


def _level_stage(stage: str):
    """Span name for a stage function shared by every AGP level: the level
    comes from the enclosing ``core.L{k}.pool`` span.  Outside a level
    (per-graph precompute during collation) no span is opened, so the
    time stays with the caller."""
    def name(args, kwargs) -> Optional[str]:
        span = Tracer.current()
        if span is None or span.level is None:
            return None
        return f"core.L{span.level}.{stage}"
    return name


def _unpool_level(args, kwargs) -> str:
    # unpool(assignments[:k], h_k): the assignment chain is k levels long.
    return f"core.L{len(args[0])}.unpool"


#: (module, attribute path, span name) of every module- or class-level hook.
GLOBAL_SPANS = (
    ("repro.core.pooling", "build_ego_networks", _level_stage("egonet")),
    ("repro.core.pooling", "segment_mean", _level_stage("selection")),
    ("repro.core.pooling", "select_egos", _level_stage("selection")),
    ("repro.core.pooling", "build_assignment", _level_stage("selection")),
    ("repro.core.pooling", "hyper_graph_connectivity",
     _level_stage("connectivity")),
    ("repro.core.model", "normalize_edges", "core.normalize"),
    ("repro.graph.cache", "StructureCache.normalized_edges", "core.normalize"),
    ("repro.core.model", "unpool", _unpool_level),
    ("repro.core.model", "mean_max_readout", "core.readout"),
    ("repro.training.graph_trainer", "cross_entropy", "losses.task"),
    ("repro.training.node_trainer", "cross_entropy", "losses.task"),
    ("repro.training.graph_trainer", "self_optimisation_loss", "losses.kl"),
    ("repro.training.node_trainer", "self_optimisation_loss", "losses.kl"),
    ("repro.training.graph_trainer", "sampled_reconstruction_loss",
     "losses.recon"),
    ("repro.training.node_trainer", "sampled_reconstruction_loss",
     "losses.recon"),
    ("repro.training.graph_trainer", "clip_grad_norm", "optim.clip"),
    ("repro.training.node_trainer", "clip_grad_norm", "optim.clip"),
    ("repro.optim.adam", "Adam.step", "optim.step"),
    ("repro.tensor.tensor", "Tensor.backward", "tensor.backward"),
    ("repro.training.graph_trainer", "GraphClassificationTrainer.evaluate",
     "training.eval"),
    ("repro.training.node_trainer",
     "NodeClassificationTrainer._evaluate_sampled", "training.eval"),
    ("repro.training.early_stopping", "EarlyStopping.step", "training.eval"),
    ("repro.graph.csc", "CSCGraph.from_graph", "graph.csc_build"),
)


def _resolve(module: str, path: str) -> Optional[Tuple[object, str]]:
    """``(owner, attribute)`` for ``module:path``, or None when gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Instrumentation:
    """Installs the hooks on a :class:`Tracer` and reads the counts back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: List[str] = []
        #: id(collated batch) -> id shared by its collate and predict spans
        self._batch_group: Dict[int, int] = {}

    def _wrap(self, module: str, path: str, name, **hooks) -> None:
        target = _resolve(module, path)
        if target is None:
            self.missing.append(f"{module}.{path}")
            return
        self.tracer.wrap(*target, name, **hooks)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        for module, path, name in GLOBAL_SPANS:
            self._wrap(module, path, name)
        self._wrap("repro.tensor.tape", "TrainingTape.backward",
                   "tensor.backward", before=self._note_replay)
        self._wrap("repro.training.samplers", "NeighborSampler.sample",
                   "samplers.sample", on_result=self._note_sample)
        self._wrap("repro.core.structure", "DatasetStructures.batch",
                   "structure.collate", before=self._note_collate_start,
                   on_result=self._note_collate)
        self._wrap("repro.inference.predictor", "Predictor.predict_batch",
                   "inference.predict",
                   group=lambda args: self._batch_group.get(id(args[1])))
        target = _resolve("repro.inference.predictor", "use_workspace")
        if target is None:
            self.missing.append("repro.inference.predictor.use_workspace")
        else:
            self.tracer.patch(*target, self._arena_probe)

    def install_model(self, model) -> None:
        """Per-object hooks: AdamGNN levels, heads and the model forward."""
        tracer = self.tracer
        encoder = getattr(model, "encoder", None)
        if encoder is not None and hasattr(encoder, "poolers"):
            tracer.wrap(encoder, "forward", "core.encoder")
            tracer.wrap(encoder.input_conv, "forward", "core.L0.conv")
            for k, pooler in enumerate(encoder.poolers, 1):
                tracer.wrap(pooler, "forward", f"core.L{k}.pool", level=k,
                            on_result=self._note_level)
                tracer.wrap(pooler.fitness, "pair_scores",
                            f"core.L{k}.fitness")
                tracer.wrap(pooler.features, "forward",
                            f"core.L{k}.hyper_features")
            for k, conv in enumerate(encoder.level_convs, 1):
                tracer.wrap(conv, "forward", f"core.L{k}.conv")
            tracer.wrap(encoder.flyback, "forward", "core.flyback")
            for head in ("head", "head_hidden", "head_out"):
                if hasattr(model, head):
                    tracer.wrap(getattr(model, head), "forward",
                                "core.readout")
        tracer.patch(model, "forward", self._model_forward)

    def _model_forward(self, original):
        """The model forward; a grad-free forward made by the fit loop
        itself (full-batch validation) is also an evaluation span."""
        from repro.tensor import grad_enabled
        tracer = self.tracer

        def forward(*args, **kwargs):
            top = tracer.current()
            if top is not None and top.name == "training.fit" \
                    and not grad_enabled():
                with tracer.span("training.eval"), \
                        tracer.span("model.forward"):
                    return original(*args, **kwargs)
            with tracer.span("model.forward"):
                return original(*args, **kwargs)
        return forward

    def _arena_probe(self, original):
        """``use_workspace`` as the Predictor calls it, noting how many new
        buffers the forward allocated and whether it replayed a plan."""
        tracer = self.tracer

        class Probe:
            def __init__(self, manager, workspace):
                self.manager = manager
                self.workspace = workspace

            def __enter__(self):
                self.allocs = self.workspace.allocations
                self.replays = self.workspace.structure_hits
                return self.manager.__enter__()

            def __exit__(self, *exc):
                span = tracer.current()
                if span is not None:
                    ws = self.workspace
                    span.args["new_allocs"] = ws.allocations - self.allocs
                    span.args["replay"] = int(
                        ws.structure_hits > self.replays)
                return self.manager.__exit__(*exc)

        def use_workspace(workspace, *args, **kwargs):
            return Probe(original(workspace, *args, **kwargs), workspace)
        return use_workspace

    # ------------------------------------------------------------------
    # Count hooks
    # ------------------------------------------------------------------
    @staticmethod
    def _note_replay(span: Span, args) -> None:
        tape = args[0]
        span.args["replay"] = int(
            getattr(tape, "mode", None) == getattr(type(tape), "REPLAY", 0))

    @staticmethod
    def _note_level(span: Span, args, level) -> None:
        span.args["nodes_in"] = int(args[0].shape[0])
        span.args["hyper_nodes"] = int(level.num_hyper)

    @staticmethod
    def _note_sample(span: Span, args, sub) -> None:
        span.args["nodes"] = int(sub.num_nodes)
        span.args["edges"] = int(sub.num_edges)

    @staticmethod
    def _note_collate_start(span: Span, args) -> None:
        cache = getattr(args[0], "batch_cache", None)
        span.args["misses_before"] = getattr(cache, "misses", -1)

    def _note_collate(self, span: Span, args, result) -> None:
        structures, chunk = args[0], args[1]
        cache = getattr(structures, "batch_cache", None)
        span.args["hit"] = int(
            getattr(cache, "misses", -2) == span.args.pop("misses_before"))
        span.args["graphs"] = len(chunk)
        span.args["chunk"] = np.asarray(chunk, dtype=np.int64)
        batch = result[0] if isinstance(result, tuple) else result
        span.args["batch"] = id(batch)
        self._batch_group[id(batch)] = span.group


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, units: int) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans, per ``units`` of work."""
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    per_unit = 1000.0 / max(units, 1)
    out = {f"{name}_ms": per_unit * self_s.get(name, 0.0)
           for name in TIMED_SPANS}
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)

    for k in LEVELS:
        levels = by_name.get(f"core.L{k}.pool", [])
        out[f"core.L{k}.nodes_in"] = _mean(
            [s.args["nodes_in"] for s in levels if "nodes_in" in s.args])
        out[f"core.L{k}.hyper_nodes"] = _mean(
            [s.args["hyper_nodes"] for s in levels if "hyper_nodes" in s.args])

    collates = by_name.get("structure.collate", [])
    out["structure.collate_calls"] = len(collates) / max(units, 1)
    out["structure.collate_hit_ratio"] = _mean(
        [s.args.get("hit", 0) for s in collates])
    samples = by_name.get("samplers.sample", [])
    out["samplers.nodes_per_batch"] = _mean([s.args["nodes"] for s in samples])
    out["samplers.edges_per_batch"] = _mean([s.args["edges"] for s in samples])
    out["graph.csc_build_s"] = self_s.get("graph.csc_build", 0.0)
    predicts = by_name.get("inference.predict", [])
    out["inference.arena_new_allocs_per_batch"] = _mean(
        [s.args.get("new_allocs", 0) for s in predicts])
    out["inference.plan_replay_ratio"] = _mean(
        [s.args.get("replay", 0) for s in predicts])
    backward = by_name.get("tensor.backward", [])
    out["training.capture.replay_ratio"] = (
        sum(s.args.get("replay", 0) for s in backward)
        / max(calls.get("optim.step", 0), 1))

    fit_wall = sum(s.duration for s in by_name.get("training.fit", []))
    if fit_wall > 0:
        glue = sum(self_s.get(name, 0.0) for name in CONTAINER_SPANS)
        out["trace.unattributed_pct"] = 100.0 * glue / fit_wall
    return out


def request_breakdown(tracer: Tracer,
                      requests: Sequence[Tuple[object, float]],
                      ) -> Dict[str, np.ndarray]:
    """Split each served request's latency by timing it from outside.

    ``requests`` holds ``(handle, scheduled send time)``.  Queue wait runs
    from the handle's arrival to the start of the collate span whose chunk
    holds its graph id; collate is that span; handoff runs to the start
    of the ``Predictor.predict_batch`` span on the same batch object;
    compute is that span; deliver runs from its end to the handle's
    completion.  The matched collate span is the earliest one starting
    after the arrival whose predict span ends before the completion.
    """
    collates: Dict[int, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.name == "structure.collate" and "chunk" in span.args:
            for gid in span.args["chunk"].tolist():
                collates[gid].append(span)
    predicts: Dict[int, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.name == "inference.predict":
            predicts[span.group].append(span)
    for spans in list(collates.values()) + list(predicts.values()):
        spans.sort(key=lambda s: s.start)
    starts = {gid: [s.start for s in spans] for gid, spans in collates.items()}

    parts = defaultdict(list)
    for handle, scheduled in requests:
        done = handle.completed_at
        latency = done - scheduled
        candidates = collates.get(handle.graph_id, [])
        first = bisect.bisect_left(starts.get(handle.graph_id, []),
                                   handle.arrival)
        match = None
        for collate in candidates[first:]:
            if collate.start > done:
                break
            compute = next((p for p in predicts.get(collate.group, ())
                            if p.start >= collate.end), None)
            if compute is not None and compute.end <= done:
                match = (collate, compute)
                break
        parts["latency"].append(latency)
        if match is None:
            parts["unmatched"].append(latency)
            continue
        collate, compute = match
        parts["queue_wait"].append(collate.start - handle.arrival)
        parts["collate"].append(collate.duration)
        parts["handoff"].append(compute.start - collate.end)
        parts["compute"].append(compute.duration)
        parts["deliver"].append(done - compute.end)
    return {key: np.asarray(values) for key, values in parts.items()}

