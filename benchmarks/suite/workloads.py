"""The suite's five workloads, driven only through ``repro``'s public API.

Training workloads call ``fit`` once on freshly generated data.  One
*unit* of work is a training epoch (its training steps plus the
validation pass ``fit`` runs after them).  The epoch clock stamps the end
of every epoch where each trainer ends it: the early-stopping step that
follows validation.  The first epoch pays every lazy build (structure
caches, segment plans, the CSC index), so it belongs to set-up; the
remaining epochs are the steady samples.

Serving workloads answer requests through ``GraphServer.submit`` /
``submit_many`` from one client thread.  One unit is a request.  A closed
loop with 64 requests outstanding gives throughput; requests sent one at
a time give the latency of a request that finds the server idle; an open
loop at three fixed Poisson rates (latency counted from each request's
scheduled send time) gives latency under load, the highest rate that
meets the workload's latency limit, and the generator's own lateness.

Every workload sizes its work from ``seconds`` with fixed per-workload
rates, so a given ``(seed, seconds)`` always runs the same work and a
faster program simply finishes sooner.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import DatasetStructures
from repro.datasets import (GraphDataset, NodeDataset, NodeTaskSplits,
                            load_graph_dataset, load_node_dataset,
                            split_nodes)
from repro.datasets.proteins import PROTEIN_CONFIGS, generate_protein_dataset
from repro.datasets.sbm import generate_sbm_graph, scaled_sbm_config
from repro.inference import Predictor
from repro.serving import GraphServer, Overloaded, ServingConfig
from repro.training import EarlyStopping, TrainConfig
from repro.training.experiment import (make_graph_classifier,
                                       make_node_classifier)
from repro.training.graph_trainer import GraphClassificationTrainer
from repro.training.node_trainer import (NodeClassificationTrainer,
                                         prepare_node_features)

from .instrument import Instrumentation, layer_metrics, request_breakdown
from .tracer import Tracer, clock


@dataclass
class Outcome:
    """What one forked run reports back to the parent (picklable)."""

    setup_s: float
    #: digest of the seeded state after set-up; equal across set-up runs
    fingerprint: str
    #: steady unit times in ms: epochs, or one-at-a-time request latencies
    unit_ms: List[float] = field(default_factory=list)
    #: units of work done per second (samples trained, requests served)
    throughput: float = 0.0
    accuracy: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (check name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: per-layer metrics measured without the tracer
    plain: Dict[str, float] = field(default_factory=dict)
    #: per-layer metrics from the tracer's spans (traced runs only)
    traced: Dict[str, float] = field(default_factory=dict)
    #: the time the trace overhead is judged by (ms per unit)
    overhead_basis_ms: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)
    peak_rss_mb: float = 0.0


def _check(outcome: Outcome, name: str, passed: bool, detail: str) -> None:
    outcome.checks.append((name, bool(passed), detail))


def _digest(arrays: Sequence[np.ndarray]) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


class SetupDone(Exception):
    """Raised by the epoch clock to end a set-up-only run early."""


class EpochClock:
    """Stamps the end of each epoch at ``EarlyStopping.step``.

    Every trainer steps its early stopper once per epoch, right after
    validation, so the stamps delimit whole epochs.  The hook is one clock
    read per epoch and is removed (identity-checked) on exit.
    """

    def __init__(self, stop_after_first: bool = False,
                 tracer: Optional[Tracer] = None) -> None:
        self.stop_after_first = stop_after_first
        self.tracer = tracer
        self.stamps: List[float] = []
        self.first_state: Optional[dict] = None
        self._hooks = Tracer()

    def __enter__(self) -> "EpochClock":
        self._hooks.patch(EarlyStopping, "step", self._stamp)
        return self

    def _stamp(self, original):
        def step(stopper, value, model):
            result = original(stopper, value, model)
            self.stamps.append(clock())
            if self.tracer is not None:
                self.tracer.epoch = len(self.stamps)
            if len(self.stamps) == 1:
                self.first_state = getattr(stopper, "best_state", None) \
                    or {"value": np.float64(value)}
                if self.stop_after_first:
                    raise SetupDone
            return result
        return step

    def __exit__(self, *exc) -> bool:
        self._hooks.restore()
        return exc[0] is SetupDone

    def fingerprint(self) -> str:
        state = self.first_state or {}
        return _digest([np.asarray(state[key]) for key in sorted(state)])


class ChunkLog:
    """Records the graph ids of every batch the server collates, so each
    served label can be checked against a direct ``Predictor`` forward of
    the same batch.  AdamGNN stops pooling per batch, so a graph's logits
    can depend on which graphs share its batch."""

    def __init__(self) -> None:
        self.chunks: List[np.ndarray] = []
        self._hooks = Tracer()

    def __enter__(self) -> "ChunkLog":
        def record(original):
            def batch(structures, chunk):
                self.chunks.append(np.array(chunk, dtype=np.int64))
                return original(structures, chunk)
            return batch
        self._hooks.patch(DatasetStructures, "batch", record)
        return self

    def __exit__(self, *exc) -> None:
        self._hooks.restore()

    def reference_labels(self, model, pool: GraphDataset) -> Dict[int, set]:
        """graph id -> {(batch size, label)} from ``Predictor.predict`` on
        every distinct collated batch that held the graph."""
        predictor = Predictor(model, max_arenas=1)
        labels: Dict[int, set] = {}
        seen = set()
        for chunk in self.chunks:
            key = chunk.tobytes()
            if key in seen:
                continue
            seen.add(key)
            predicted = predictor.predict(pool, chunk, batch_size=chunk.size)
            for gid, label in zip(chunk.tolist(), predicted.tolist()):
                labels.setdefault(gid, set()).add((chunk.size, label))
        return labels


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FitWorkload:
    """One ``fit`` call on generated data, timed epoch by epoch.

    ``generate(seed)`` makes the dataset (timed as generation) and
    ``build(dataset, seed, epochs)`` returns ``(model, trainer, samples
    per epoch)``.
    """

    name: str
    generate: Callable[[int], object]
    build: Callable[[object, int, int], Tuple[object, object, int]]
    #: epochs per second of ``--seconds`` (fixed, sizes the epoch budget)
    epochs_per_second: float
    min_epochs: int
    accuracy_floor: float
    #: ``score(trainer, model, seed)``: accuracy of the trained model when
    #: the dataset's own test split is too small to repeat across seeds
    score: Optional[Callable[[object, object, int], float]] = None

    def epochs(self, seconds: float) -> int:
        return max(self.min_epochs, round(seconds * self.epochs_per_second))

    def prepare(self, seed: int):
        return None

    def run(self, shared, seed: int, seconds: float, mode: str,
            trace_path: Optional[str] = None) -> Outcome:
        epochs = self.epochs(seconds)
        tracer = Tracer() if mode == "trace" else None
        start = clock()
        dataset = self.generate(seed)
        generate_s = clock() - start
        model, trainer, samples = self.build(dataset, seed, epochs)
        result = None
        with EpochClock(stop_after_first=(mode == "setup"),
                        tracer=tracer) as epochs_clock:
            fit_start = clock()
            if tracer is None:
                result = trainer.fit(model, dataset)
            else:
                instrumentation = Instrumentation(tracer)
                with tracer:
                    instrumentation.install()
                    instrumentation.install_model(model)
                    with tracer.span("training.fit"):
                        result = trainer.fit(model, dataset)
        stamps = [fit_start] + epochs_clock.stamps
        outcome = Outcome(setup_s=stamps[1] - start,
                          fingerprint=epochs_clock.fingerprint())
        outcome.plain["datasets.generate_s"] = generate_s
        if mode == "setup":
            return outcome

        steady = np.diff(stamps)[1:] * 1000.0
        outcome.unit_ms = steady.tolist()
        outcome.throughput = samples / (np.median(steady) / 1000.0)
        outcome.plain["latency_ms_p90"] = float(np.percentile(steady, 90))
        outcome.accuracy = float(
            self.score(trainer, model, seed) if self.score is not None
            else result.test_accuracy)
        outcome.attempted = int(result.epochs_run)
        outcome.overhead_basis_ms = float(np.median(steady))
        outcome.info = {"epochs": int(result.epochs_run),
                        "steady_epochs": int(steady.size),
                        "samples_per_epoch": samples}
        capture = getattr(trainer, "_capture", None)
        outcome.plain["training.capture.fallbacks"] = float(
            getattr(capture, "fallbacks", 0))
        if tracer is not None:
            outcome.traced = layer_metrics(tracer, int(result.epochs_run))
            outcome.info["missing_hooks"] = instrumentation.missing
            if trace_path is not None:
                tracer.write_chrome_trace(trace_path)
        _check(outcome, "epochs_run", result.epochs_run == epochs,
               f"{result.epochs_run} of {epochs} epochs")
        _check(outcome, "epoch_clock", len(epochs_clock.stamps) == epochs,
               f"{len(epochs_clock.stamps)} epoch stamps")
        _check(outcome, "accuracy_floor",
               outcome.accuracy >= self.accuracy_floor,
               f"test accuracy {outcome.accuracy:.4f} "
               f">= {self.accuracy_floor}")
        return outcome


def _proteins(seed: int) -> GraphDataset:
    return load_graph_dataset("proteins", seed=seed)


def _build_proteins(dataset: GraphDataset, seed: int, epochs: int):
    model = make_graph_classifier("adamgnn", dataset.num_features,
                                  dataset.num_classes, seed=seed,
                                  hidden=64, num_levels=3)
    trainer = GraphClassificationTrainer(TrainConfig(
        epochs=epochs, patience=epochs, seed=seed, batch_size=32))
    return model, trainer, int(len(dataset.train_index))


#: PROTEINS has 16 test graphs, so its test accuracy moves in steps of
#: 1/16; the trained model is also scored on this many fresh graphs.
HELD_OUT_GRAPHS = 800


def _score_proteins(trainer, model, seed: int) -> float:
    cfg = replace(PROTEIN_CONFIGS["proteins"], num_graphs=HELD_OUT_GRAPHS)
    held_out = generate_protein_dataset("proteins-held-out", cfg,
                                        seed=5003 + seed)
    return trainer.evaluate(model, held_out, np.arange(HELD_OUT_GRAPHS))


def _cora(seed: int) -> NodeDataset:
    return load_node_dataset("cora", seed=seed)


def _build_cora(dataset: NodeDataset, seed: int, epochs: int):
    in_features = prepare_node_features(dataset).shape[1]
    model = make_node_classifier("adamgnn", in_features, dataset.num_classes,
                                 seed=seed, hidden=64, num_levels=3)
    trainer = NodeClassificationTrainer(TrainConfig(
        epochs=epochs, patience=epochs, seed=seed))
    return model, trainer, int(len(dataset.splits.train))


#: sbm100k-sampled: node count, seeds per step, steps per epoch, eval cap.
SBM_NODES = 100_000
SBM_BATCH = 1024
SBM_STEPS = 4
SBM_EVAL_CAP = 2048


def _sbm(seed: int) -> NodeDataset:
    cfg = scaled_sbm_config(SBM_NODES, num_features=64)
    graph = generate_sbm_graph(cfg, seed=seed)
    splits = split_nodes(graph.num_nodes, np.random.default_rng((seed, 4243)))
    splits = NodeTaskSplits(train=splits.train,
                            val=splits.val[:SBM_EVAL_CAP],
                            test=splits.test[:SBM_EVAL_CAP])
    return NodeDataset(name="sbm100k", graph=graph,
                       num_classes=cfg.num_classes, splits=splits)


def _build_sbm(dataset: NodeDataset, seed: int, epochs: int):
    model = make_node_classifier("gcn", dataset.graph.x.shape[1],
                                 dataset.num_classes, seed=seed)
    trainer = NodeClassificationTrainer(TrainConfig(
        sampled=True, epochs=epochs, patience=epochs, seed=seed,
        node_batch_size=SBM_BATCH, fanout=10, num_hops=2,
        max_steps_per_epoch=SBM_STEPS))
    return model, trainer, SBM_BATCH * SBM_STEPS


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------

#: One deployment for both serving workloads.  Coarse size bands put
#: similar graphs in one bucket; ``pad_to_bucket`` near zero promotes a
#: flush to its bucket's full member list whenever that list fits one
#: batch, which only a small universe allows.  ``max_pending`` is far
#: above the closed-loop window so the fixed rates never shed, and eight
#: arenas bound the buffer memory unique traffic pins.
SERVING_CONFIG = dict(max_batch=32, max_delay_ms=2.0, max_pending=1024,
                      workers=1, node_band=64, edge_band=512, max_arenas=8,
                      pad_to_bucket=1e-6)

#: The deployed model: AdamGNN trained briefly on PROTEINS with a fixed
#: seed, so serving numbers vary with the traffic, not with the model.
MODEL_SEED = 0
MODEL_EPOCHS = 8

WINDOW = 64            #: closed loop: requests kept outstanding
SLICES = 12            #: closed-loop throughput is the median of slices
CHUNK_SHARE = 0.1      #: share of send events that are 2-3 id chunks
CLOSED_SHARE = 0.35    #: shares of ``seconds`` for the closed loop,
UNLOADED_SHARE = 0.2   #: for single requests sent one after another,
RATE_SHARE = 0.15      #: and for each of the three open-loop rates
UNLOADED_RPS = 90.0    #: sizes the one-at-a-time phase (~11 ms each)
SLEEP_MIN_S = 5e-4     #: send back-to-back when the next is due sooner
RESULT_TIMEOUT_S = 60.0


def _event_sizes(rng: np.random.Generator, count: int) -> np.ndarray:
    chunk = rng.random(count) < CHUNK_SHARE
    return np.where(chunk, rng.integers(2, 4, count), 1)


@dataclass
class RequestPlan:
    """Seeded traffic for the three serving phases."""

    #: closed loop: send events (graph ids; 2-3 ids go as one chunk)
    closed: List[List[int]]
    #: one request at a time
    unloaded: List[int]
    #: per open-loop rate: (scheduled offset in s, graph ids) events
    open: List[List[Tuple[float, List[int]]]]
    num_ids: int


def make_plan(seed: int, unique: bool, universe: int, closed_ids: int,
              unloaded_ids: int, rates: Sequence[float],
              duration: float) -> RequestPlan:
    """Draw the traffic.  ``unique`` numbers the ids 0, 1, 2, ... so no
    graph repeats (the pool is generated to match); otherwise ids are
    drawn with replacement from ``range(universe)``."""
    rng = np.random.default_rng((seed, 6113))
    counter = iter(range(1 << 62))

    def ids(size: int) -> List[int]:
        if unique:
            return [next(counter) for _ in range(size)]
        return rng.integers(0, universe, size).tolist()

    mean_ids = 1.0 + CHUNK_SHARE * 1.5
    closed = [ids(int(size)) for size in
              _event_sizes(rng, int(np.ceil(closed_ids / mean_ids)))]
    unloaded = ids(unloaded_ids)
    schedules = []
    for rate in rates:
        gaps = rng.exponential(mean_ids / rate,
                               int(rate * duration / mean_ids * 1.5) + 16)
        times = np.cumsum(gaps)
        times = times[times < duration]
        sizes = _event_sizes(rng, times.size)
        schedules.append([(float(t), ids(int(size)))
                          for t, size in zip(times, sizes)])
    used = next(counter) if unique else universe
    return RequestPlan(closed, unloaded, schedules, used)


def _submit(server: GraphServer, ids: List[int]):
    if len(ids) == 1:
        return [server.submit(ids[0])]
    return server.submit_many(ids)


def _closed_loop(server: GraphServer, events: List[List[int]]):
    """Keep ``WINDOW`` requests outstanding; returns (handles, start)."""
    outstanding: deque = deque()
    handles = []
    start = clock()
    for ids in events:
        while len(outstanding) >= WINDOW:
            outstanding.popleft().exception(timeout=RESULT_TIMEOUT_S)
        sent = _submit(server, ids)
        outstanding.extend(sent)
        handles.extend(sent)
    for handle in handles:
        handle.exception(timeout=RESULT_TIMEOUT_S)
    return handles, start


def _one_at_a_time(server: GraphServer, ids: List[int]):
    handles = []
    for gid in ids:
        handle = server.submit(gid)
        handle.exception(timeout=RESULT_TIMEOUT_S)
        handles.append(handle)
    return handles


def _open_loop(server: GraphServer, schedule, duration: float):
    """Send on schedule; returns (sent (handle, due), shed, lateness in s,
    end of the schedule)."""
    sent: List[Tuple[object, float]] = []
    late: List[float] = []
    shed = 0
    start = clock()
    for offset, ids in schedule:
        due = start + offset
        delay = due - clock()
        if delay > SLEEP_MIN_S:
            time.sleep(delay)
        late.append(max(0.0, clock() - due))
        try:
            handles = _submit(server, ids)
        except Overloaded:
            shed += len(ids)
            continue
        sent.extend((handle, due) for handle in handles)
    for handle, _ in sent:
        handle.exception(timeout=RESULT_TIMEOUT_S)
    return sent, shed, late, start + duration


def _ok(handle) -> bool:
    return handle.exception(timeout=0) is None


def _sliced_rate(handles, start: float) -> float:
    """Median completions per second over ``SLICES`` equal-count slices of
    the closed loop (a burst of interference moves one slice, not all)."""
    ends = np.sort([h.completed_at for h in handles])
    cuts = np.linspace(0, ends.size, SLICES + 1).astype(int)
    bounds = np.concatenate([[start], ends[cuts[1:] - 1]])
    rates = np.diff(cuts) / np.maximum(np.diff(bounds), 1e-9)
    return float(np.median(rates))


@dataclass(frozen=True)
class ServeWorkload:
    """The trained model behind a ``GraphServer``, under seeded traffic.

    Three phases share ``seconds``: a closed loop of ``WINDOW`` requests
    outstanding (throughput), single requests sent one after another
    (latency of a request that finds the server idle), and an open loop
    at three fixed rates (latency under load, the highest rate within the
    latency limit, generator lateness).  Open-loop latency moves a lot
    between runs on a shared 2-core host, so it is a per-layer metric.
    """

    name: str
    unique: bool
    #: closed-loop requests per second of ``--seconds`` (sizes the loop)
    closed_rps: float
    #: the three open-loop rates (requests/s), about 1/4, 1/2 and 3/4 of
    #: the closed-loop throughput measured when the suite was defined
    rates: Tuple[float, float, float]
    #: p99 latency limit for ``serving.slo_rps``
    latency_limit_ms: float
    accuracy_floor: float

    def prepare(self, seed: int):
        """Train the deployed model (not timed; shared by every run)."""
        data = load_graph_dataset("proteins", seed=MODEL_SEED)
        model = make_graph_classifier("adamgnn", data.num_features,
                                      data.num_classes, seed=MODEL_SEED,
                                      hidden=64, num_levels=3)
        GraphClassificationTrainer(TrainConfig(
            epochs=MODEL_EPOCHS, patience=MODEL_EPOCHS,
            seed=MODEL_SEED)).fit(model, data)
        return model

    def _pool(self, seed: int, size: int) -> GraphDataset:
        if self.unique:
            cfg = replace(PROTEIN_CONFIGS["proteins"], num_graphs=size)
            return generate_protein_dataset("proteins-pool", cfg,
                                            seed=7919 + seed)
        data = load_graph_dataset("proteins", seed=MODEL_SEED)
        index = np.sort(np.concatenate([data.val_index, data.test_index]))
        return GraphDataset("proteins-eval", data.subset(index),
                            data.num_classes, data.num_features)

    def run(self, model, seed: int, seconds: float, mode: str,
            trace_path: Optional[str] = None) -> Outcome:
        duration = seconds * RATE_SHARE
        plan = make_plan(seed, self.unique, 0 if self.unique else 32,
                         round(seconds * CLOSED_SHARE * self.closed_rps),
                         round(seconds * UNLOADED_SHARE * UNLOADED_RPS),
                         self.rates, duration)
        # Set-up ends with one cold request, on a graph the traffic never
        # asks for again when it must stay unique.
        start = clock()
        pool = self._pool(seed, plan.num_ids + 1)
        generate_s = clock() - start
        server = GraphServer(model, pool, ServingConfig(**SERVING_CONFIG))
        server.submit(plan.num_ids if self.unique else 0).exception(
            timeout=RESULT_TIMEOUT_S)
        outcome = Outcome(setup_s=clock() - start,
                          fingerprint=_digest([pool.labels()] + [
                              g.edge_index for g in pool.graphs]))
        outcome.plain["datasets.generate_s"] = generate_s
        if mode == "setup":
            server.close()
            return outcome

        tracer = Tracer() if mode == "trace" else None
        instrumentation = None
        with ChunkLog() as chunk_log:
            try:
                if tracer is not None:
                    instrumentation = Instrumentation(tracer)
                    instrumentation.install()
                    instrumentation.install_model(model)
                closed, closed_start = _closed_loop(server, plan.closed)
                unloaded = _one_at_a_time(server, plan.unloaded)
                rounds = [_open_loop(server, schedule, duration)
                          for schedule in plan.open]
            finally:
                server.close()
                if tracer is not None:
                    tracer.restore()
        self._report(outcome, pool, chunk_log.reference_labels(model, pool),
                     closed, closed_start, unloaded, rounds, server.stats())
        if tracer is not None:
            self._report_traced(outcome, tracer, instrumentation, rounds)
            if trace_path is not None:
                tracer.write_chrome_trace(trace_path)
        return outcome

    def _report(self, outcome: Outcome, pool: GraphDataset,
                reference: Dict[int, set], closed, closed_start: float,
                unloaded, rounds, stats: dict) -> None:
        sent = closed + unloaded + [
            handle for round_ in rounds for handle, _ in round_[0]]
        shed = sum(round_[1] for round_ in rounds)
        offered = len(sent) + shed
        completed = [h.result() for h in sent if _ok(h)]
        outcome.attempted = offered
        outcome.failed = offered - len(completed)
        outcome.throughput = _sliced_rate(closed, closed_start)
        outcome.overhead_basis_ms = 1000.0 / outcome.throughput
        idle = np.array([h.latency_ms for h in unloaded if _ok(h)])
        outcome.unit_ms = idle.tolist()
        outcome.plain["latency_ms_p90"] = float(np.percentile(idle, 90))

        truth = pool.labels()
        outcome.accuracy = float(np.mean(
            [r.label == truth[r.graph_id] for r in completed]))
        # Correctness: every served label is the label a direct
        # Predictor.predict gives the graph in the batch it was served in.
        wrong = sum((r.batch_size, r.label) not in reference.get(
            r.graph_id, ()) for r in completed)
        _check(outcome, "served_labels", wrong == 0,
               f"{wrong} of {len(completed)} served labels differ from "
               f"Predictor.predict on the same batch")
        _check(outcome, "accounting",
               len(completed) + outcome.failed == offered,
               f"completed {len(completed)} + failed {outcome.failed} "
               f"== offered {offered}")
        _check(outcome, "accuracy_floor",
               outcome.accuracy >= self.accuracy_floor,
               f"served accuracy {outcome.accuracy:.4f} "
               f">= {self.accuracy_floor}")

        slo = 0.0
        late: List[float] = []
        loaded = []
        for rate, (round_sent, round_shed, round_late, end) in zip(
                self.rates, rounds):
            late.extend(round_late)
            done = np.array([(h.completed_at - due) * 1000.0
                             for h, due in round_sent if _ok(h)])
            loaded.append(done)
            failed = round_shed + len(round_sent) - done.size
            backlog = max(h.completed_at for h, _ in round_sent) \
                > end + self.latency_limit_ms / 1000.0
            if done.size and not failed and not backlog \
                    and np.percentile(done, 99) <= self.latency_limit_ms:
                slo = rate
        served_slots = sum(size * count for size, count in
                           stats["batch_size_hist"].items())
        collation = stats["collation"]
        outcome.plain.update({
            "serving.p50_ms": float(np.median(loaded[1])),
            "serving.p99_ms": float(np.percentile(loaded[1], 99)),
            "serving.slo_rps": slo,
            "serving.fail_rate": outcome.failed / offered,
            "serving.batch_size_mean": float(stats["mean_batch_size"]),
            "serving.dedup_ratio":
                stats["dedup_hits"] / max(stats["completed"], 1),
            "serving.padded_ratio":
                stats["padded_slots"] / max(served_slots, 1),
            "serving.collation_hit_ratio": collation["hits"] / max(
                collation["hits"] + collation["misses"], 1),
            "serving.shed_ratio": shed / offered,
            "serving.generator_late_ms_p99":
                1000.0 * float(np.percentile(late, 99)),
        })
        outcome.info = {
            "offered": offered, "completed": len(completed),
            "closed_loop_requests": len(closed),
            "one_at_a_time_requests": int(idle.size),
            "rates": list(self.rates),
            "rate_requests": [int(d.size) for d in loaded],
            "rate_p50_ms": [round(float(np.median(d)), 2) for d in loaded],
            "rate_p99_ms": [round(float(np.percentile(d, 99)), 2)
                            for d in loaded],
            "pool_graphs": len(pool)}

    def _report_traced(self, outcome: Outcome, tracer: Tracer,
                       instrumentation: Instrumentation, rounds) -> None:
        units = outcome.attempted - outcome.failed
        outcome.traced = layer_metrics(tracer, units)
        parts = request_breakdown(tracer, rounds[1][0])
        for key in ("queue_wait", "collate", "handoff", "compute",
                    "deliver"):
            values = parts.get(key, np.zeros(1))
            outcome.traced[f"serving.{key}_ms_p50"] = \
                1000.0 * float(np.median(values))
        outcome.traced["serving.queue_wait_ms_p99"] = 1000.0 * float(
            np.percentile(parts.get("queue_wait", np.zeros(1)), 99))
        latency = parts["latency"].sum()
        outcome.traced["trace.unattributed_pct"] = 100.0 * float(
            parts.get("unmatched", np.zeros(1)).sum()) / max(latency, 1e-12)
        outcome.info["missing_hooks"] = instrumentation.missing


#: Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, object] = {w.name: w for w in (
    FitWorkload(
        name="proteins-fit",
        generate=_proteins, build=_build_proteins,
        epochs_per_second=6.0, min_epochs=4, accuracy_floor=0.55,
        score=_score_proteins),
    FitWorkload(
        name="cora-fit",
        generate=_cora, build=_build_cora,
        epochs_per_second=25.0, min_epochs=4, accuracy_floor=0.7),
    FitWorkload(
        name="sbm100k-sampled",
        generate=_sbm, build=_build_sbm,
        epochs_per_second=0.7, min_epochs=3, accuracy_floor=0.6),
    ServeWorkload(
        name="serve-unique",
        unique=True, closed_rps=850.0, rates=(210.0, 425.0, 640.0),
        latency_limit_ms=100.0, accuracy_floor=0.6),
    ServeWorkload(
        name="serve-repeat",
        unique=False, closed_rps=6000.0, rates=(1500.0, 3000.0, 4500.0),
        latency_limit_ms=50.0, accuracy_floor=0.6),
)}
