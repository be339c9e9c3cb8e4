"""Sharded multi-process data-parallel training.

:class:`ShardedTrainer` runs the graph-classification training loop as
synchronous data-parallel SGD: the training index is partitioned into
fixed shards (``training/sharding.py``), every optimizer step collects
one minibatch chunk per shard, the per-shard gradients meet in
shared-memory reduction lanes (``tensor/_comm.py``), and the coordinator
takes a single Adam step on the master weights and broadcasts them back.
``TrainConfig(num_procs=N)`` (or ``REPRO_DP_PROCS=N``) routes
``GraphClassificationTrainer.fit`` here automatically.

Determinism contract
--------------------
The run is a pure function of ``(config, dataset, num_shards)`` — the
worker process count only decides which OS process executes a shard:

* the shard assignment is seeded and fixed for the run (recorded in the
  result's ``sharding`` field);
* each shard owns private sampler/dropout streams keyed on
  ``(seed, tag, shard)``, swapped onto the model before each of its
  steps, so mask and sampling draws never depend on worker packing;
* each shard writes its own reduction lane and the coordinator reduces
  lanes in ascending shard order with float64 accumulation, so the sum
  sees the identical operand sequence whether one process computed all
  lanes or four processes computed them concurrently;
* workers own contiguous shard-id ranges, so a single worker iterating
  its shards in order performs the same lane writes, in the same order,
  as N workers do collectively.

Consequently ``num_procs=2`` (or 4) is *bitwise identical* to
``num_procs=1`` of the same shard count — under every dtype and kernel
mode, property-tested in ``tests/training/test_dataparallel.py``.  With
``num_shards == 1`` the schedule degenerates to plain serial training
and the trainer delegates to the ordinary
:class:`~repro.training.GraphClassificationTrainer` loop, bitwise.

Worker processes
----------------
Workers are spawned once per ``fit`` (start method ``fork`` when
available, else the platform's first) and are persistent: each owns a
private model replica, its own :class:`~repro.core.DatasetStructures`
pipeline, step-capture registry and gradient arenas, and re-enters the
coordinator's kernel mode (``naive_kernels`` or not) so a shard computes
the same bits in any process.  The per-step protocol over each worker's
pipe is::

    coordinator                      worker
    ("epoch", e)  ────────────────▶  permute shards, build chunks
                                     run step t shards, write lanes
                  ◀────────────────  ("done", t)
    reduce lanes (fixed order),
    Adam step, publish weights
    ("params", t) ────────────────▶  load weights, next step
    ...                              ...
    ("stop", ...) ────────────────▶  close segments, exit

The grads segment is double-buffered by step parity: after ``("params",
t)`` releases the workers they may immediately write step ``t+1``'s
lanes into the other buffer while the coordinator is still free to read
buffer ``t`` (post-reduce bookkeeping, sanitizer sweeps) — the release
only has to wait for the reduce itself.

Fallback
--------
When ``num_procs == 1``, when shared memory is unavailable, or when no
start method works, the same shard schedule runs inline through
:class:`LocalFlatComm` — the identical write/reduce code on local
arrays — and the result records the typed reason
(:class:`~repro.tensor._comm.CommUnavailable`) in
``sharding["fallback"]``.  Training results are unaffected by
construction.
"""

from __future__ import annotations

import contextlib
import functools
import traceback
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..datasets import GraphDataset
from ..nn import Module
from ..optim import FlatParams, clip_grad_norm
from ..tensor import (ACCUM_DTYPE, default_dtype, fast_kernels_enabled,
                      naive_kernels)
from ..tensor import _comm
from ..tensor._comm import (CommUnavailable, LocalFlatComm, SharedFlatComm,
                            probe_shared_memory, publish_params,
                            reduce_lanes, write_lane)
from .config import TrainConfig
from .graph_trainer import (GraphClassificationTrainer, GraphTrainResult,
                            _merge_stat_sections)
from .loop import train_epochs
from .sharding import (ShardAssignment, make_shards, shard_dropout_rngs,
                       shard_sampler, worker_shards)

__all__ = ["ShardedTrainer"]


def _serial_config(cfg: TrainConfig) -> TrainConfig:
    """The plain single-process view of a DP config."""
    return replace(cfg, num_procs=1, num_shards=1)


def _kernel_runtime() -> Dict:
    """Snapshot of the process-global kernel switch to re-enter in a
    worker (fork inherits it; spawn starts from library defaults)."""
    return {"fast_kernels": fast_kernels_enabled()}


def _enter_runtime(runtime: Dict):
    return (contextlib.nullcontext() if runtime["fast_kernels"]
            else naive_kernels())


class _ShardRunner:
    """Executes the training steps of a set of shards.

    One per worker process (and one inline for the serial fallback).
    Owns a model replica, a private serial
    :class:`GraphClassificationTrainer` (collation pipeline, loss,
    step-capture registry), the shards' sampler/dropout streams and the
    flat-parameter map used for lane writes and weight loads.
    """

    def __init__(self, cfg: TrainConfig, model: Module,
                 dataset: GraphDataset, shard_ids: Sequence[int],
                 assignment: ShardAssignment,
                 trainer: Optional[GraphClassificationTrainer] = None,
                 ) -> None:
        self.cfg = cfg
        self.model = model
        self.dataset = dataset
        self.shard_ids = list(shard_ids)
        self.assignment = assignment
        # The serial-sharded mode passes the coordinator's own trainer so
        # training collation fills the same structure pipeline that
        # evaluation (and the user's ``cache_stats`` calls) read; worker
        # processes build a private one.
        self.trainer = (trainer if trainer is not None
                        else GraphClassificationTrainer(_serial_config(cfg)))
        self.flat = FlatParams(model.parameters())
        self.structures = self.trainer._structures_for(model, dataset)
        self.samplers = {s: shard_sampler(cfg.seed, s)
                         for s in self.shard_ids}
        self._rng_modules = [m for m in model.modules()
                             if isinstance(getattr(m, "rng", None),
                                           np.random.Generator)]
        self.dropout = {s: shard_dropout_rngs(cfg.seed, s,
                                              len(self._rng_modules))
                        for s in self.shard_ids}
        self._chunks: Dict[int, List[np.ndarray]] = {}

    def start_epoch(self) -> None:
        """Draw this epoch's chunk sequence for every owned shard."""
        bs = self.cfg.batch_size
        for s in self.shard_ids:
            perm = self.samplers[s].permutation(
                self.assignment.shard_index(s))
            self._chunks[s] = [perm[lo:lo + bs]
                               for lo in range(0, perm.shape[0], bs)]

    def run_step(self, t: int, lanes: np.ndarray) -> None:
        """Run step ``t`` of every owned shard and write its lane."""
        self.model.train()
        for s in self.shard_ids:
            lane = lanes[s]
            chunks = self._chunks[s]
            if t >= len(chunks):
                # Shard exhausted for this epoch: zero the lane so the
                # stale contents of this buffer slot (step t-2) cannot
                # leak into the reduction.
                _comm.clear_lane(lane)
                continue
            chunk = chunks[t]
            # The chunk is at most one batch long: one pass yields it.
            batch, structure = next(self.trainer._batches(
                self.structures, self.dataset, chunk))
            rng = self.samplers[s]
            dropout = self.dropout[s]
            for module, gen in zip(self._rng_modules, dropout):
                module.rng = gen
            self.model.zero_grad()
            self.trainer._train_step(self.model, batch, structure, rng,
                                     [rng] + dropout)
            write_lane(lane, self.flat.grads(), self.flat.sizes,
                       float(chunk.size))

    def load_params(self, flat: np.ndarray) -> None:
        self.flat.load_params(flat)


def _worker_main(conn, shard_ids: List[int], cfg: TrainConfig,
                 model: Module, dataset: GraphDataset,
                 assignment: ShardAssignment, comm_spec: Dict,
                 runtime: Dict) -> None:
    """Worker process entry point: attach segments, serve the protocol.

    On ``("stop", ...)`` the worker replies ``("stopped", report)`` where
    ``report`` carries its private cache counters so the coordinator can
    fold them into the run's stats — worker caches are otherwise
    invisible to the parent process.
    """
    comm = None
    try:
        comm = SharedFlatComm.attach(comm_spec)
        with _enter_runtime(runtime), default_dtype(cfg.dtype):
            runner = _ShardRunner(cfg, model, dataset, shard_ids,
                                  assignment)
            step = 0
            stopped = False
            while not stopped:
                msg = conn.recv()
                if msg[0] == "stop":
                    break
                if msg[0] != "epoch":  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unexpected message {msg[0]!r}")
                runner.start_epoch()
                for t in range(assignment.steps_per_epoch):
                    runner.run_step(t, comm.lanes(step))
                    conn.send(("done", t))
                    reply = conn.recv()
                    if reply[0] == "stop":
                        stopped = True
                        break
                    if reply[0] != "params":  # pragma: no cover
                        raise RuntimeError(
                            f"unexpected message {reply[0]!r}")
                    runner.load_params(comm.params)
                    step += 1
            conn.send(("stopped", {
                "cache_stats": runner.trainer.cache_stats(runner.model),
            }))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        if comm is not None:
            comm.close()
        conn.close()


class _WorkerGroup:
    """Coordinator-side handle on the worker processes."""

    def __init__(self, ctx, cfg: TrainConfig, model: Module,
                 dataset: GraphDataset, assignment: ShardAssignment,
                 comm: SharedFlatComm, num_procs: int,
                 start_method: str) -> None:
        self.procs = []
        self.conns = []
        runtime = _kernel_runtime()
        runtime["start_method"] = start_method
        for shard_ids in worker_shards(assignment.num_shards, num_procs):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, shard_ids, cfg, model, dataset, assignment,
                      comm.spec(), runtime),
                daemon=True)
            proc.start()
            child.close()
            self.procs.append(proc)
            self.conns.append(parent)

    def _recv(self, conn):
        try:
            msg = conn.recv()
        except EOFError:
            raise RuntimeError(
                "data-parallel worker exited unexpectedly (see stderr)")
        if msg[0] == "error":
            raise RuntimeError(
                f"data-parallel worker failed:\n{msg[1]}")
        return msg

    def start_epoch(self, epoch: int) -> None:
        for conn in self.conns:
            conn.send(("epoch", epoch))

    def collect(self, t: int) -> None:
        """Barrier: wait until every worker reports step ``t`` done."""
        for conn in self.conns:
            msg = self._recv(conn)
            if msg[0] != "done" or msg[1] != t:  # pragma: no cover
                raise RuntimeError(f"protocol desync: {msg!r}")

    def release(self, t: int) -> None:
        """Weights are published: let workers start the next step."""
        for conn in self.conns:
            conn.send(("params", t))

    def close(self) -> List[Dict]:
        """Stop workers; return their final ``("stopped", report)`` payloads.

        Pending ``("done", t)`` replies from an aborted step are drained
        on the way; a worker that died without reporting simply
        contributes nothing (its process is still joined/terminated).
        """
        reports: List[Dict] = []
        for conn in self.conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for conn in self.conns:
            try:
                while conn.poll(10):
                    msg = conn.recv()
                    if msg[0] == "stopped":
                        reports.append(msg[1])
                        break
            except (EOFError, OSError):  # pragma: no cover - dead worker
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            conn.close()
        return reports


class _SerialStepper:
    """Inline stand-in for :class:`_WorkerGroup`: one runner, same calls.

    ``collect`` *computes* the step (there is nothing to wait for), and
    ``release`` loads the published weights back — a same-value copy,
    since the runner's model is the master model, kept for path parity.
    """

    def __init__(self, runner: _ShardRunner, comm) -> None:
        self.runner = runner
        self.comm = comm
        self._step = 0

    def start_epoch(self, epoch: int) -> None:
        self.runner.start_epoch()

    def collect(self, t: int) -> None:
        self.runner.run_step(t, self.comm.lanes(self._step))
        self._step += 1

    def release(self, t: int) -> None:
        self.runner.load_params(self.comm.params)

    def close(self) -> List[Dict]:
        return []


def _resolve_start_method() -> str:
    """Pick the multiprocessing start method: ``fork`` when available."""
    import multiprocessing as mp
    available = mp.get_all_start_methods()
    return "fork" if "fork" in available else available[0]


class ShardedTrainer:
    """Data-parallel graph-classification training coordinator.

    Accepts the same :class:`TrainConfig` as
    :class:`GraphClassificationTrainer` and honours ``num_shards`` /
    ``num_procs``; ``fit`` returns a :class:`GraphTrainResult` whose
    ``sharding`` field records the assignment, the effective mode and
    any fallback reason.
    """

    def __init__(self, config: Optional[TrainConfig] = None,
                 inner: Optional[GraphClassificationTrainer] = None) -> None:
        self.config = config if config is not None else TrainConfig()
        #: serial trainer used for coordinator-side evaluation and (in
        #: serial-sharded mode) training collation.  When ``fit`` routed
        #: here from a :class:`GraphClassificationTrainer`, that trainer
        #: passes itself so its structure pipeline / capture registry /
        #: ``cache_stats`` reflect the run.
        self._inner = (inner if inner is not None
                       else GraphClassificationTrainer(
                           _serial_config(self.config)))

    # ------------------------------------------------------------------
    def evaluate(self, model: Module, dataset: GraphDataset,
                 index: np.ndarray) -> float:
        return self._inner.evaluate(model, dataset, index)

    # ------------------------------------------------------------------
    def fit(self, model: Module,
            dataset: GraphDataset) -> GraphTrainResult:
        cfg = self.config
        model.astype(cfg.dtype)
        assignment = make_shards(dataset.train_index, cfg.num_shards,
                                 cfg.seed, cfg.batch_size)
        record = {"requested_procs": cfg.num_procs,
                  "assignment": assignment.to_dict()}
        if assignment.num_shards == 1:
            # A single shard *is* plain serial training: one chunk per
            # step, unweighted, the plain sampler streams.  Delegate so
            # the result is bitwise-identical to the ordinary trainer
            # (``_fit_plain`` directly — the inner trainer's config may
            # still carry ``num_procs > 1``, and ``fit`` would dispatch
            # right back here).
            result = self._inner._fit_plain(model, dataset)
            result.sharding = dict(
                record, mode="plain", num_procs=1,
                fallback="single shard: plain fit is the schedule",
                start_method=None, comm_bytes=0)
            return result

        num_procs = min(cfg.num_procs, assignment.num_shards)
        fallback = None
        start_method = None
        if num_procs > 1:
            try:
                probe_shared_memory()
                start_method = _resolve_start_method()
            except CommUnavailable as exc:
                fallback = str(exc)
                num_procs = 1

        self._inner._dp_worker_stats = None
        flat = FlatParams(model.parameters())
        reduced = np.zeros(flat.total_size, dtype=ACCUM_DTYPE)
        comm = (SharedFlatComm if num_procs > 1 else LocalFlatComm)(
            flat.total_size, assignment.num_shards, cfg.dtype)
        # Publish initial weights before forking so replicas and segment
        # agree from step zero.
        publish_params(comm.params, flat)
        if num_procs > 1:
            import multiprocessing as mp
            stepper = _WorkerGroup(mp.get_context(start_method), cfg, model,
                                   dataset, assignment, comm, num_procs,
                                   start_method)
        else:
            # Share the coordinator's trainer: same process, so train
            # and eval collation flow through one structure pipeline.
            stepper = _SerialStepper(_ShardRunner(
                cfg, model, dataset, range(assignment.num_shards),
                assignment, trainer=self._inner), comm)

        def steps(epoch: int) -> Iterator[None]:
            """Collect → reduce → (driver clips and steps) → publish."""
            stepper.start_epoch(epoch)
            for t in range(assignment.steps_per_epoch):
                stepper.collect(t)
                # No name holds the lane view: SharedMemory refuses to
                # unmap at teardown while exported numpy views are alive.
                step = epoch * assignment.steps_per_epoch + t
                if reduce_lanes(comm.lanes(step), reduced) > 0.0:
                    flat.load_grads(reduced)
                    yield None
                publish_params(comm.params, flat)
                stepper.release(t)

        try:
            log = train_epochs(
                model, cfg, steps,
                lambda: self.evaluate(model, dataset, dataset.val_index),
                clip_grad_norm)
        finally:
            reports = stepper.close()
            comm_bytes = comm.nbytes
            comm.close()
            comm.unlink()

        # Fold the workers' private cache counters into the trainer's
        # view.  The serial mode has nothing to fold: its runner shared
        # the inner trainer directly.
        worker_stats = [r["cache_stats"] for r in reports
                        if r.get("cache_stats")]
        if worker_stats:
            self._inner._dp_worker_stats = functools.reduce(
                _merge_stat_sections, worker_stats, {})
        return self._inner._result(model, dataset, log, sharding=dict(
            record, mode="procs" if num_procs > 1 else "serial",
            num_procs=num_procs, fallback=fallback,
            start_method=start_method, comm_bytes=comm_bytes))
