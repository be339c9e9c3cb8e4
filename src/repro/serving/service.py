"""Async serving front end: queued requests → micro-batched Predictors.

:class:`GraphServer` turns the synchronous, one-caller
:class:`~repro.inference.Predictor` into a service.  Callers submit
single-graph (or small-chunk) classification requests and get a
:class:`PredictionHandle` back immediately; behind the queue a dispatcher
thread coalesces requests into size-bucketed micro-batches (see
:mod:`repro.serving.bucketing`) and a pool of warmed Predictor workers
serves them.  NumPy/SciPy kernels release the GIL on the hot path, so
workers overlap on multi-core hosts; on a single core the win is the
micro-batching itself — one collated forward amortises per-request
overhead across the whole batch, and duplicate requests for the same
graph in one flush share a single batch slot.

Robustness contract
-------------------
* **Admission control** — at most ``max_pending`` requests may be
  outstanding (queued + in flight).  Beyond that :meth:`GraphServer.submit`
  sheds synchronously with a typed :class:`Overloaded`, so overload turns
  into rejections instead of RSS growth and unbounded queueing delay.
* **Deadlines** — a request older than its deadline is completed with
  :class:`DeadlineExceeded` at the next dispatcher wakeup, never silently
  dropped.  Deadlines police *queueing* delay: once a request is
  dispatched into a batch, its (possibly late) result is delivered.
* **Flush timer** — a bucket flushes when it holds ``max_batch`` requests
  or when its oldest request has waited ``max_delay_ms``, whichever comes
  first, so light traffic is never held hostage to batch formation.
  Timer flushes are additionally gated on worker availability (adaptive
  batching): while every worker is busy a timer-due bucket keeps
  accumulating instead of being minted into a tiny batch that would only
  sit in the job queue — under saturation batches grow toward the
  bucket's canonical composition and throughput rises with load instead
  of collapsing into per-request overhead.
* **Drain/shutdown** — :meth:`GraphServer.close` stops admission, flushes
  every bucket, and joins the threads; every accepted request is completed
  (with a result or a timeout) before close returns.

Correctness
-----------
Collation goes through one shared :class:`~repro.core.DatasetStructures`
(owned by the dispatcher thread), so a served micro-batch is *the same*
``(GraphBatch, BatchStructure)`` object pair a direct
``Predictor.predict_batch`` call on that chunk would see — logits are
bitwise identical by construction, and the content-keyed collation cache
plus the per-(batch, structure) plan LRU let a recurring batch replay its
captured coarsening plan.  Each worker owns a private Predictor (plans
are single-threaded); the grad-mode/dtype/workspace contexts are thread-local
(see ``tensor/_grad_mode.py``), so worker forwards never leak serving
state into each other or into a training loop on the main thread.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets import GraphDataset
from ..inference import Predictor
from ..nn import Module
from .bucketing import BucketKey, SizeBucketPolicy


class Overloaded(RuntimeError):
    """Typed admission-control rejection: the pending-request bound is
    full (or the server is closed).  Clients should back off and retry."""


class DeadlineExceeded(TimeoutError):
    """The request's deadline expired while it was queued for dispatch."""


@dataclass(frozen=True)
class ServedPrediction:
    """One request's answer.

    ``logits`` is a private copy of the request's row of the micro-batch
    logits; ``batch_size`` records how many unique graphs shared the
    forward that produced it (observability, not semantics).
    """

    graph_id: int
    logits: np.ndarray
    label: int
    batch_size: int


class PredictionHandle(Future):
    """A :class:`~concurrent.futures.Future` resolving to
    :class:`ServedPrediction`, stamped with arrival/completion times
    (``time.monotonic()``) so callers can account latency without
    wrapping the result themselves."""

    def __init__(self, graph_id: int, arrival: float,
                 deadline: Optional[float]) -> None:
        super().__init__()
        self.graph_id = graph_id
        self.arrival = arrival
        self.deadline = deadline
        self.completed_at: Optional[float] = None

    @property
    def latency_ms(self) -> Optional[float]:
        """Arrival-to-completion latency, once completed."""
        if self.completed_at is None:
            return None
        return (self.completed_at - self.arrival) * 1000.0


@dataclass
class ServingConfig:
    """Tuning knobs for :class:`GraphServer`.

    Parameters
    ----------
    max_batch:
        Flush a bucket once it holds this many requests; flushed chunks
        are also sliced so no micro-batch exceeds this many unique graphs.
    max_delay_ms:
        Flush timer: the longest a request may wait for batch formation.
        This bounds the latency cost of coalescing at light load.
    max_pending:
        Admission bound on outstanding requests (queued + in flight);
        beyond it :meth:`GraphServer.submit` raises :class:`Overloaded`.
    workers:
        Predictor worker threads.  One is right for single-core hosts;
        the kernels release the GIL, so more helps on real machines.
    default_deadline_ms:
        Deadline applied when ``submit`` gets none (``None`` = no
        deadline).
    node_band / edge_band:
        Bucket quantisation, see :class:`SizeBucketPolicy`.
    max_arenas:
        Per-worker Predictor bound on captured structure plans.
    pad_to_bucket:
        Canonical-chunk promotion threshold.  When a flush's unique ids
        cover at least this fraction of the bucket's membership (and the
        membership fits ``max_batch``), the chunk is rounded up to the
        *full* sorted member list.  The few extra logits rows cost one
        replayed forward slot each, and in exchange every such flush
        collates to the same canonical chunk — a content-cache hit whose
        batch object replays its captured structure plan, which is what
        keeps the saturated steady state from rebuilding coarsening
        hierarchies (the serving analogue of shape-bucketed padding).  ``None`` disables promotion.
    """

    max_batch: int = 32
    max_delay_ms: float = 2.0
    max_pending: int = 256
    workers: int = 1
    default_deadline_ms: Optional[float] = None
    node_band: int = 16
    edge_band: int = 128
    max_arenas: int = 64
    pad_to_bucket: Optional[float] = 0.75

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_delay_ms < 0:
            raise ValueError(
                f"max_delay_ms must be >= 0, got {self.max_delay_ms}")
        if self.pad_to_bucket is not None and not 0 < self.pad_to_bucket <= 1:
            raise ValueError(
                f"pad_to_bucket must be in (0, 1] or None, "
                f"got {self.pad_to_bucket}")


def _complete(handle: PredictionHandle, result=None,
              exception: Optional[BaseException] = None) -> None:
    """Resolve a handle, tolerating a client-side ``cancel()`` race (a
    cancelled future rejects late results; the server's accounting still
    runs, it just stops reporting to a caller who gave up)."""
    try:
        if exception is not None:
            handle.set_exception(exception)
        else:
            handle.set_result(result)
    except Exception:
        pass


@dataclass
class _Bucket:
    """Pending requests of one size band, oldest first."""

    requests: List[PredictionHandle] = field(default_factory=list)

    @property
    def oldest_arrival(self) -> float:
        return self.requests[0].arrival


class GraphServer:
    """Queued, micro-batching front end over a pool of Predictors.

    Parameters
    ----------
    model:
        A trained graph-classification model (anything
        :class:`~repro.inference.Predictor` serves via
        ``predict_batch``).
    dataset:
        The graph universe requests index into.  Structures are built
        once (through worker 0's Predictor, so the weakly-keyed lifecycle
        rules apply) and shared by every micro-batch.
    config:
        :class:`ServingConfig`; defaults serve a laptop-scale workload.
    dtype:
        Serving precision, defaulting to the model's parameter dtype.

    Use as a context manager (``with GraphServer(...) as server:``) or
    call :meth:`close` explicitly; both drain in-flight work.
    """

    #: Attributes only the dispatcher thread may mutate after __init__.
    #: The collation caches behind them are read without a lock by the
    #: worker threads; sole-writer discipline is what makes that safe,
    #: and replint rule RL008 reads this declaration to enforce it.
    _DISPATCHER_OWNED = ("_structures", "_members", "_bucket_key")

    def __init__(self, model: Module, dataset: GraphDataset,
                 config: Optional[ServingConfig] = None, dtype=None):
        self.config = config or ServingConfig()
        self.dataset = dataset
        # Predictors are built serially here (construction astypes the
        # shared model — never safe concurrently with a forward).
        self._predictors = [
            Predictor(model, dtype=dtype, max_arenas=self.config.max_arenas)
            for _ in range(self.config.workers)]
        self.dtype = self._predictors[0].dtype
        self._structures = self._predictors[0]._structures_for(dataset)
        self.policy = SizeBucketPolicy(self.config.node_band,
                                       self.config.edge_band)
        self._bucket_key = self.policy.table(dataset.graphs)
        #: bucket key → sorted member graph ids (canonical composition).
        self._members: Dict[BucketKey, List[int]] = {}
        for gid, key in enumerate(self._bucket_key):
            self._members.setdefault(key, []).append(gid)

        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._buckets: Dict[BucketKey, _Bucket] = {}
        self._pending = 0          # queued + in flight, admission-bounded
        self._jobs_outstanding = 0  # micro-batches enqueued or computing
        self._closed = False

        # Counters (guarded by _mutex).
        self._submitted = 0
        self._shed = 0
        self._timed_out = 0
        self._completed = 0
        self._dedup_hits = 0       # requests that shared another's slot
        self._padded_slots = 0     # canonical-promotion rows nobody asked for
        self._batch_hist: Dict[int, int] = {}

        self._jobs: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        self._workers = [
            threading.Thread(target=self._worker_loop, args=(i,),
                             name=f"serve-worker-{i}", daemon=True)
            for i in range(self.config.workers)]
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="serve-dispatch",
                                            daemon=True)
        for t in self._workers:
            t.start()
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, graph_id: int,
               deadline_ms: Optional[float] = None) -> PredictionHandle:
        """Enqueue one graph-classification request.

        Raises :class:`Overloaded` (synchronously — the request is never
        accepted) when the server is at its pending bound or closed.
        """
        gid = int(graph_id)
        if not 0 <= gid < len(self._bucket_key):
            raise IndexError(
                f"graph_id {gid} outside dataset of {len(self._bucket_key)}")
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        now = time.monotonic()
        deadline = None if deadline_ms is None else now + deadline_ms / 1000.0
        handle = PredictionHandle(gid, now, deadline)
        with self._wakeup:
            if self._closed:
                raise Overloaded("server is closed")
            if self._pending >= self.config.max_pending:
                self._shed += 1
                raise Overloaded(
                    f"pending bound reached ({self.config.max_pending})")
            self._pending += 1
            self._submitted += 1
            bucket = self._buckets.get(self._bucket_key[gid])
            if bucket is None:
                bucket = _Bucket()
                self._buckets[self._bucket_key[gid]] = bucket
            bucket.requests.append(handle)
            self._wakeup.notify()
        return handle

    def submit_many(self, graph_ids: Sequence[int],
                    deadline_ms: Optional[float] = None,
                    ) -> List[PredictionHandle]:
        """Small-chunk request: one handle per graph id, coalesced
        independently into their size buckets.  Admission is atomic — if
        the chunk does not fit the pending bound, none of it is
        accepted."""
        ids = [int(g) for g in graph_ids]
        for gid in ids:
            if not 0 <= gid < len(self._bucket_key):
                raise IndexError(
                    f"graph_id {gid} outside dataset of "
                    f"{len(self._bucket_key)}")
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        now = time.monotonic()
        deadline = None if deadline_ms is None else now + deadline_ms / 1000.0
        handles = [PredictionHandle(gid, now, deadline) for gid in ids]
        with self._wakeup:
            if self._closed:
                raise Overloaded("server is closed")
            if self._pending + len(ids) > self.config.max_pending:
                self._shed += len(ids)
                raise Overloaded(
                    f"pending bound reached ({self.config.max_pending})")
            self._pending += len(ids)
            self._submitted += len(ids)
            for handle in handles:
                key = self._bucket_key[handle.graph_id]
                bucket = self._buckets.get(key)
                if bucket is None:
                    bucket = _Bucket()
                    self._buckets[key] = bucket
                bucket.requests.append(handle)
            self._wakeup.notify()
        return handles

    def stats(self) -> dict:
        """Counters + queue state + aggregated worker plan counters."""
        with self._mutex:
            queued = sum(len(b.requests) for b in self._buckets.values())
            batches = sum(self._batch_hist.values())
            served = sum(size * count
                         for size, count in self._batch_hist.items())
            snapshot = {
                "queued": queued,
                "pending": self._pending,
                "in_flight": self._pending - queued,
                "submitted": self._submitted,
                "completed": self._completed,
                "shed": self._shed,
                "timed_out": self._timed_out,
                "batches": batches,
                "mean_batch_size": (served / batches) if batches else 0.0,
                "batch_size_hist": dict(sorted(self._batch_hist.items())),
                "dedup_hits": self._dedup_hits,
                "padded_slots": self._padded_slots,
                "active_buckets": len(self._buckets),
            }
        snapshot["collation"] = self._structures.batch_cache.stats()
        arenas: Dict[str, float] = {}
        for predictor in self._predictors:
            for key, value in predictor.stats().items():
                arenas[key] = arenas.get(key, 0) + value
        snapshot["arenas"] = arenas
        return snapshot

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain and shut down: stops admission, flushes every queued
        request (result or :class:`DeadlineExceeded`), joins threads."""
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        self._dispatcher.join(timeout)
        for _ in self._workers:
            self._jobs.put(None)
        for t in self._workers:
            t.join(timeout)

    def __enter__(self) -> "GraphServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        max_delay = self.config.max_delay_ms / 1000.0
        while True:
            with self._wakeup:
                while True:
                    now = time.monotonic()
                    if self._closed:
                        break
                    due = self._next_event(now, max_delay)
                    if due is not None and due <= now:
                        break
                    self._wakeup.wait(
                        None if due is None else due - now)
                now = time.monotonic()
                closing = self._closed
                expired = self._take_expired(now)
                flushes = self._take_flushes(now, max_delay,
                                             flush_all=closing)
            for handle in expired:
                self._complete_timeout(handle)
            for handles in flushes:
                self._dispatch(handles)
            if closing:
                return

    def _next_event(self, now: float,
                    max_delay: float) -> Optional[float]:
        """Earliest instant requiring dispatcher action (flush or
        deadline), or None to sleep until a submit/finish arrives.

        Timer flushes are worker-gated (adaptive batching): while every
        worker is busy the flush timer is not an event — the bucket keeps
        accumulating and the dispatcher is woken by :meth:`_finish` when
        a slot frees.  Deadline expiries and full buckets always fire.
        """
        gated = self._jobs_outstanding >= self.config.workers
        due: Optional[float] = None
        for bucket in self._buckets.values():
            if (not gated
                    and len(bucket.requests) >= self.config.max_batch):
                return now
            t = None if gated else bucket.oldest_arrival + max_delay
            for handle in bucket.requests:
                if handle.deadline is not None and (t is None
                                                    or handle.deadline < t):
                    t = handle.deadline
            if t is not None:
                due = t if due is None else min(due, t)
        return due

    def _take_expired(self, now: float) -> List[PredictionHandle]:
        expired: List[PredictionHandle] = []
        for key in list(self._buckets):
            bucket = self._buckets[key]
            keep = []
            for handle in bucket.requests:
                if handle.deadline is not None and handle.deadline <= now:
                    expired.append(handle)
                else:
                    keep.append(handle)
            if keep:
                bucket.requests = keep
            else:
                del self._buckets[key]
        return expired

    def _take_flushes(self, now: float, max_delay: float,
                      flush_all: bool) -> List[List[PredictionHandle]]:
        flushes: List[List[PredictionHandle]] = []
        if flush_all:
            for key in list(self._buckets):
                flushes.append(self._buckets.pop(key).requests)
            return flushes
        # Ripe buckets (full, or oldest past the flush timer) flush
        # oldest-first, but only into free worker slots: with the pool
        # saturated a flush would just queue — freezing its composition
        # early — so the bucket keeps accumulating instead.  Duplicate
        # requests coalesce into the same batch slots, which is why held
        # batches raise throughput rather than queueing delay.  Fullness
        # only beats the *timer*, never the worker gate.
        slots = self.config.workers - self._jobs_outstanding
        if slots <= 0:
            return flushes
        ripe = sorted((bucket.oldest_arrival, key)
                      for key, bucket in self._buckets.items()
                      if (len(bucket.requests) >= self.config.max_batch
                          or now - bucket.oldest_arrival >= max_delay))
        for _, key in ripe[:slots]:
            flushes.append(self._buckets.pop(key).requests)
        return flushes

    def _dispatch(self, handles: List[PredictionHandle]) -> None:
        """Collate one bucket flush into micro-batches and enqueue them.

        Runs on the dispatcher thread only — it is the single writer of
        the shared DatasetStructures caches.  Chunks are sorted-unique so
        recurring request sets collate to recurring chunk keys.
        """
        unique = sorted({h.graph_id for h in handles})
        by_gid: Dict[int, List[PredictionHandle]] = {}
        for h in handles:
            by_gid.setdefault(h.graph_id, []).append(h)
        unique = self._promote_to_canonical(unique)
        dedup = sum(len(owners) - 1 for owners in by_gid.values())
        jobs = []
        for lo in range(0, len(unique), self.config.max_batch):
            ids = unique[lo:lo + self.config.max_batch]
            chunk = np.asarray(ids, dtype=np.int64)
            batch, structure = self._structures.batch(chunk)
            slice_handles: List[PredictionHandle] = []
            positions: List[int] = []
            for pos, gid in enumerate(ids):
                for owner in by_gid.get(gid, ()):
                    slice_handles.append(owner)
                    positions.append(pos)
            jobs.append((batch, structure, len(ids),
                         slice_handles, positions))
        with self._mutex:
            self._dedup_hits += dedup
            self._jobs_outstanding += len(jobs)
        for job in jobs:                # counted before visible to workers
            self._jobs.put(job)

    def _promote_to_canonical(self, unique: List[int]) -> List[int]:
        """Round a flush up to its bucket's full member list when coverage
        clears ``pad_to_bucket`` — recurring saturated flushes then share
        one canonical chunk (collation hit + captured-plan replay) instead
        of minting near-identical compositions.  A flush is all one bucket
        by construction, so one key lookup decides."""
        threshold = self.config.pad_to_bucket
        if threshold is None or not unique:
            return unique
        members = self._members[self._bucket_key[unique[0]]]
        if (len(members) <= self.config.max_batch
                and len(unique) < len(members)
                and len(unique) >= threshold * len(members)):
            with self._mutex:
                self._padded_slots += len(members) - len(unique)
            return members
        return unique

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        predictor = self._predictors[index]
        while True:
            job = self._jobs.get()
            if job is None:
                return
            batch, structure, size, handles, positions = job
            try:
                logits = predictor.predict_batch(batch, structure)
            except BaseException as exc:  # surface, never swallow
                now = time.monotonic()
                for handle in handles:
                    handle.completed_at = now
                    _complete(handle, exception=exc)
                self._finish(len(handles), batch_size=size)
                continue
            labels = logits.argmax(axis=-1)
            now = time.monotonic()
            for handle, pos in zip(handles, positions):
                handle.completed_at = now
                _complete(handle, result=ServedPrediction(
                    graph_id=handle.graph_id,
                    logits=logits[pos].copy(),
                    label=int(labels[pos]),
                    batch_size=size))
            self._finish(len(handles), batch_size=size)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _complete_timeout(self, handle: PredictionHandle) -> None:
        handle.completed_at = time.monotonic()
        _complete(handle, exception=DeadlineExceeded(
            f"deadline expired after {handle.latency_ms:.1f} ms in queue"))
        with self._mutex:
            self._pending -= 1
            self._timed_out += 1

    def _finish(self, count: int, batch_size: int) -> None:
        with self._wakeup:
            self._pending -= count
            self._completed += count
            self._jobs_outstanding -= 1
            self._batch_hist[batch_size] = \
                self._batch_hist.get(batch_size, 0) + 1
            # A worker slot just freed: timer-gated buckets may now flush.
            self._wakeup.notify()
