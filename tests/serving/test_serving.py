"""The serving front end: parity, coalescing, and the failure surface."""

import threading
import time

import numpy as np
import pytest

from repro.core import AdamGNNGraphClassifier
from repro.datasets import GraphDataset, load_graph_dataset, split_graphs
from repro.inference import Predictor
from repro.serving import (DeadlineExceeded, GraphServer, Overloaded,
                           ServingConfig, SizeBucketPolicy)

#: Long enough that nothing flushes on the timer while a test is still
#: queueing requests; tests then force flushes via max_batch or close().
HOLD_MS = 30_000.0


@pytest.fixture(scope="module")
def dataset():
    full = load_graph_dataset("mutag", seed=0)
    subset = full.graphs[:32]
    train, val, test = split_graphs(32, np.random.default_rng(0))
    return GraphDataset("mutag-mini", subset, 2, full.num_features,
                        train_index=train, val_index=val, test_index=test)


@pytest.fixture(scope="module")
def model(dataset):
    model = AdamGNNGraphClassifier(dataset.num_features, 2, hidden=16,
                                   num_levels=2,
                                   rng=np.random.default_rng(3))
    return model.astype("float32").eval()


def make_server(model, dataset, **overrides):
    defaults = dict(max_batch=32, max_delay_ms=20.0, max_pending=256,
                    workers=1)
    defaults.update(overrides)
    return GraphServer(model, dataset, ServingConfig(**defaults))


class TestBucketPolicy:
    def test_quantisation(self):
        policy = SizeBucketPolicy(node_band=10, edge_band=40)
        assert policy.key(9, 39) == (0, 0)
        assert policy.key(10, 39) == (1, 0)
        assert policy.key(25, 85) == (2, 2)

    def test_table_matches_graphs(self, dataset):
        policy = SizeBucketPolicy(node_band=8, edge_band=64)
        table = policy.table(dataset.graphs)
        assert len(table) == len(dataset.graphs)
        g7 = dataset.graphs[7]
        assert table[7] == policy.key(g7.num_nodes, g7.edge_index.shape[1])

    def test_invalid_bands_rejected(self):
        with pytest.raises(ValueError):
            SizeBucketPolicy(node_band=0)
        with pytest.raises(ValueError):
            SizeBucketPolicy(edge_band=-1)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [dict(max_batch=0),
                                     dict(max_pending=0),
                                     dict(workers=0),
                                     dict(max_delay_ms=-1.0)])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            ServingConfig(**bad)


class TestBitwiseParity:
    def test_micro_batched_logits_match_direct_predictor(self, model,
                                                         dataset):
        """A served response is bitwise a row of ``predict_batch`` on the
        same collated chunk the dispatcher formed."""
        all_ids = np.arange(len(dataset.graphs))
        with make_server(model, dataset, max_delay_ms=150.0) as server:
            handles = [server.submit(int(g), deadline_ms=HOLD_MS)
                       for g in all_ids]
            results = [h.result(timeout=30.0) for h in handles]
            structures = server._structures
            table = server._bucket_key
        predictor = Predictor(model)
        # Reconstruct the flushed chunks: per bucket, sorted unique ids
        # (every request was queued before the first timer flush).
        chunks = {}
        for gid in all_ids:
            chunks.setdefault(table[gid], []).append(int(gid))
        for ids in chunks.values():
            chunk = np.asarray(sorted(set(ids)), dtype=np.int64)
            batch, structure = structures.batch(chunk)
            direct = predictor.predict_batch(batch, structure)
            for pos, gid in enumerate(chunk):
                served = results[gid]
                assert served.batch_size == len(chunk)
                assert (served.logits == direct[pos]).all()
                assert served.label == int(direct[pos].argmax())

    def test_duplicate_requests_share_one_slot(self, model, dataset):
        with make_server(model, dataset, max_delay_ms=100.0) as server:
            handles = [server.submit(5, deadline_ms=HOLD_MS)
                       for _ in range(6)]
            others = server.submit_many([5, 5, 5], deadline_ms=HOLD_MS)
            results = [h.result(timeout=30.0) for h in handles + others]
            stats = server.stats()
        first = results[0]
        for r in results[1:]:
            assert (r.logits == first.logits).all()
        assert stats["dedup_hits"] == 8          # 9 requests, 1 slot
        assert stats["completed"] == 9
        # All nine rode one single-graph micro-batch.
        assert stats["batch_size_hist"] == {1: 1}


class TestDeadlines:
    def test_expired_requests_get_timeout_responses(self, model, dataset):
        with make_server(model, dataset, max_delay_ms=HOLD_MS) as server:
            doomed = [server.submit(i, deadline_ms=0.0) for i in range(3)]
            for handle in doomed:
                with pytest.raises(DeadlineExceeded):
                    handle.result(timeout=30.0)
                assert handle.completed_at is not None
                assert handle.latency_ms is not None
            stats = server.stats()
        assert stats["timed_out"] == 3
        assert stats["completed"] == 0
        assert stats["pending"] == 0            # accounting drained

    def test_live_requests_survive_expired_neighbours(self, model, dataset):
        with make_server(model, dataset, max_batch=4) as server:
            doomed = server.submit(0, deadline_ms=0.0)
            live = [server.submit(i, deadline_ms=HOLD_MS)
                    for i in range(1, 5)]   # hits max_batch => flush
            results = [h.result(timeout=30.0) for h in live]
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30.0)
        assert [r.graph_id for r in results] == [1, 2, 3, 4]


class TestAdmissionControl:
    def test_sheds_exactly_at_bound(self, model, dataset):
        with make_server(model, dataset, max_delay_ms=HOLD_MS,
                         max_pending=8) as server:
            accepted = [server.submit(i % 32, deadline_ms=HOLD_MS)
                        for i in range(8)]
            for extra in range(5):
                with pytest.raises(Overloaded):
                    server.submit(extra % 32)
            stats = server.stats()
            assert stats["shed"] == 5
            assert stats["pending"] == 8
            # submit_many admission is atomic: nothing partial.
            with pytest.raises(Overloaded):
                server.submit_many([1, 2, 3])
        for handle in accepted:                  # close() drained them
            assert handle.result(timeout=1.0)

    def test_capacity_frees_as_requests_complete(self, model, dataset):
        with make_server(model, dataset, max_pending=4,
                         max_delay_ms=1.0) as server:
            first = [server.submit(i, deadline_ms=HOLD_MS)
                     for i in range(4)]
            for handle in first:
                handle.result(timeout=30.0)
            second = [server.submit(i, deadline_ms=HOLD_MS)
                      for i in range(4)]
            for handle in second:
                assert handle.result(timeout=30.0).label in (0, 1)

    def test_submit_after_close_is_typed(self, model, dataset):
        server = make_server(model, dataset)
        server.close()
        with pytest.raises(Overloaded):
            server.submit(0)
        with pytest.raises(Overloaded):
            server.submit_many([0, 1])

    def test_unknown_graph_id_rejected(self, model, dataset):
        with make_server(model, dataset) as server:
            with pytest.raises(IndexError):
                server.submit(len(dataset.graphs))
            with pytest.raises(IndexError):
                server.submit_many([0, -1])


class TestDrain:
    def test_close_flushes_in_flight_batches(self, model, dataset):
        # Requests parked behind a huge flush timer: close() must flush
        # and answer every one of them, not strand or drop them.
        server = make_server(model, dataset, max_delay_ms=HOLD_MS)
        handles = [server.submit(int(g), deadline_ms=HOLD_MS)
                   for g in range(16)]
        assert server.stats()["queued"] == 16
        server.close()
        for handle in handles:
            assert handle.result(timeout=1.0).label in (0, 1)
        stats = server.stats()
        assert stats["completed"] == 16
        assert stats["pending"] == 0
        assert stats["queued"] == 0

    def test_close_is_idempotent_and_reentrant(self, model, dataset):
        server = make_server(model, dataset)
        server.close()
        server.close()

    def test_concurrent_submitters_all_answered(self, model, dataset):
        # Hammer the queue from several client threads; every accepted
        # request resolves to a result or a typed rejection/timeout.
        with make_server(model, dataset, max_delay_ms=2.0,
                         max_pending=64, workers=2) as server:
            outcomes = {"ok": 0, "shed": 0}
            lock = threading.Lock()

            def client(seed):
                rng = np.random.default_rng(seed)
                for _ in range(40):
                    try:
                        h = server.submit(int(rng.integers(0, 32)),
                                          deadline_ms=10_000.0)
                    except Overloaded:
                        with lock:
                            outcomes["shed"] += 1
                        continue
                    r = h.result(timeout=30.0)
                    with lock:
                        outcomes["ok"] += 1
                        assert r.label in (0, 1)

            threads = [threading.Thread(target=client, args=(s,))
                       for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
        assert outcomes["ok"] == stats["completed"] == 160 - outcomes["shed"]
        # Exact accounting: every offered request was completed or shed,
        # and none ran out its deadline.
        assert stats["completed"] + stats["shed"] == 160
        assert stats["shed"] == outcomes["shed"]
        assert stats["timed_out"] == 0
        assert stats["pending"] == 0


class TestAdaptiveBatching:
    def test_timer_flush_waits_for_free_worker(self, model, dataset):
        # While every worker is busy, a timer-due bucket accumulates
        # instead of being minted into a tiny queued batch.  White-box:
        # pretend the pool is saturated, then free it.
        with make_server(model, dataset, max_delay_ms=1.0) as server:
            with server._mutex:
                server._jobs_outstanding = server.config.workers
            handles = server.submit_many(list(range(6)),
                                         deadline_ms=HOLD_MS)
            time.sleep(0.15)                 # >> max_delay
            assert server.stats()["queued"] == 6
            with server._wakeup:
                server._jobs_outstanding = 0
                server._wakeup.notify()
            for handle in handles:
                assert handle.result(timeout=30.0).label in (0, 1)

    def test_deadlines_fire_even_while_gated(self, model, dataset):
        # Worker-gating must never delay deadline accounting.
        with make_server(model, dataset, max_delay_ms=1.0) as server:
            with server._mutex:
                server._jobs_outstanding = server.config.workers
            doomed = server.submit(0, deadline_ms=20.0)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30.0)
            with server._wakeup:
                server._jobs_outstanding = 0
                server._wakeup.notify()
        assert server.stats()["timed_out"] == 1


class TestObservability:
    def test_stats_surface(self, model, dataset):
        with make_server(model, dataset, max_batch=8) as server:
            handles = [server.submit(int(g)) for g in range(24)]
            for handle in handles:
                handle.result(timeout=30.0)
            stats = server.stats()
        for key in ("queued", "pending", "in_flight", "submitted",
                    "completed", "shed", "timed_out", "batches",
                    "mean_batch_size", "batch_size_hist", "dedup_hits",
                    "active_buckets", "collation", "arenas"):
            assert key in stats, key
        assert stats["submitted"] == stats["completed"] == 24
        assert stats["batches"] >= 1
        assert sum(size * n for size, n
                   in stats["batch_size_hist"].items()) >= 24 - 8
        assert stats["arenas"]["allocations"] > 0

    def test_canonical_promotion_pads_to_bucket_membership(self, model,
                                                           dataset):
        # One giant bucket (coarse bands): requesting >= 75% of its
        # membership is promoted to the full canonical chunk, so the
        # flush replays one recurring collation instead of minting a
        # near-identical composition per request set.
        coarse = dict(node_band=10_000, edge_band=100_000,
                      max_delay_ms=100.0)
        with make_server(model, dataset, **coarse) as server:
            assert len(server._members) == 1
            handles = server.submit_many(list(range(24)),
                                         deadline_ms=HOLD_MS)
            results = [h.result(timeout=30.0) for h in handles]
            stats = server.stats()
        assert all(r.batch_size == 32 for r in results)
        assert stats["padded_slots"] == 8
        assert stats["batch_size_hist"] == {32: 1}

    def test_promotion_disabled_serves_exact_chunk(self, model, dataset):
        coarse = dict(node_band=10_000, edge_band=100_000,
                      max_delay_ms=100.0, pad_to_bucket=None)
        with make_server(model, dataset, **coarse) as server:
            handles = server.submit_many(list(range(24)),
                                         deadline_ms=HOLD_MS)
            results = [h.result(timeout=30.0) for h in handles]
            stats = server.stats()
        assert all(r.batch_size == 24 for r in results)
        assert stats["padded_slots"] == 0

    def test_recurring_composition_replays_captured_plans(self, model,
                                                          dataset):
        # The steady-state story: the same request set twice => the same
        # sorted-unique chunk => collation cache hit => arena replay.
        ids = list(range(8))
        with make_server(model, dataset, max_delay_ms=50.0) as server:
            for handle in server.submit_many(ids, deadline_ms=HOLD_MS):
                handle.result(timeout=30.0)
            allocations = server.stats()["arenas"]["allocations"]
            for handle in server.submit_many(ids, deadline_ms=HOLD_MS):
                handle.result(timeout=30.0)
            stats = server.stats()
        assert stats["arenas"]["allocations"] == allocations
        assert stats["arenas"]["structure_hits"] > 0
        assert stats["collation"]["hits"] >= 1
