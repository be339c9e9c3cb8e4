"""Sharded data-parallel training: assignment properties and parity.

The contract under test (see ``training/dataparallel.py``): the run is a
pure function of ``(config, dataset, num_shards)`` — worker process
count is pure packing.  ``num_procs=2`` must reproduce ``num_procs=1``
of the same shard count *bitwise*, under float64/naive kernels and under
the default float32 fast kernels alike; ``num_shards=1`` must reproduce
the ordinary serial trainer bitwise; and the shard assignment must be a
deterministic, serializable partition that is recorded in the result.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdamGNNGraphClassifier
from repro.datasets import GraphDataset, load_graph_dataset, split_graphs
from repro.tensor import naive_kernels
from repro.training import (GraphClassificationTrainer, ShardedTrainer,
                            TrainConfig, make_shards, shard_sampler,
                            worker_shards)
from repro.training.dataparallel import CommUnavailable


@pytest.fixture(scope="module")
def dataset():
    full = load_graph_dataset("mutag", seed=0)
    subset = full.graphs[:48]
    train, val, test = split_graphs(48, np.random.default_rng(0))
    return GraphDataset("mutag-mini", subset, 2, full.num_features,
                        train_index=train, val_index=val, test_index=test)


def fit(dataset, **overrides):
    config = dict(epochs=2, patience=6, batch_size=16, seed=0,
                  num_procs=1, num_shards=1)
    config.update(overrides)
    model = AdamGNNGraphClassifier(dataset.num_features, 2, hidden=16,
                                   num_levels=2,
                                   rng=np.random.default_rng(0))
    trainer = GraphClassificationTrainer(TrainConfig(**config))
    result = trainer.fit(model, dataset)
    return model, result


def flat_of(model):
    return np.concatenate([p.data.reshape(-1) for p in model.parameters()])


# ---------------------------------------------------------------------------
# Shard assignment properties
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 200), shards=st.integers(1, 8),
       seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 17))
def test_make_shards_is_a_deterministic_partition(n, shards, seed, batch):
    index = np.arange(100, 100 + n, dtype=np.int64)
    a = make_shards(index, shards, seed, batch)
    b = make_shards(index, shards, seed, batch)
    assert a.shards == b.shards          # stable across calls/epochs
    assert a.num_shards == min(shards, n)  # clamped to the index size
    merged = sorted(g for shard in a.shards for g in shard)
    assert merged == list(index)         # exact partition, no dupes/drops
    assert all(len(s) > 0 for s in a.shards)
    assert a.steps_per_epoch == max(a.chunks_per_shard)
    assert a.chunks_per_shard == tuple(
        -(-len(s) // batch) for s in a.shards)


def test_make_shards_seed_changes_the_permutation():
    index = np.arange(40, dtype=np.int64)
    a = make_shards(index, 4, seed=0, batch_size=8)
    b = make_shards(index, 4, seed=1, batch_size=8)
    assert a.shards != b.shards


@settings(max_examples=50, deadline=None)
@given(shards=st.integers(1, 16), procs=st.integers(1, 16))
def test_worker_shards_cover_contiguous_ranges(shards, procs):
    procs = min(procs, shards)           # the trainer clamps the same way
    parts = worker_shards(shards, procs)
    assert len(parts) == procs
    merged = [s for part in parts for s in part]
    assert merged == list(range(shards))  # ascending, disjoint, complete
    assert all(len(part) > 0 for part in parts)


def test_shard_sampler_streams_are_keyed_and_reproducible():
    a = shard_sampler(0, 0).permutation(32)
    b = shard_sampler(0, 0).permutation(32)
    c = shard_sampler(0, 1).permutation(32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_assignment_serializes_to_json():
    assignment = make_shards(np.arange(10, dtype=np.int64), 3, 0, 3)
    payload = json.loads(json.dumps(assignment.to_dict()))
    assert payload["num_shards"] == 3
    assert sorted(g for s in payload["shards"] for g in s) == list(range(10))


# ---------------------------------------------------------------------------
# Parity: shard count decides, process count is packing
# ---------------------------------------------------------------------------
def test_single_shard_falls_back_to_plain_fit_bitwise(dataset):
    plain_model, plain = fit(dataset)
    dp_model, dp = fit(dataset, num_procs=2, num_shards=1)
    assert dp.sharding["mode"] == "plain"
    assert dp.sharding["fallback"]
    assert np.array_equal(flat_of(plain_model), flat_of(dp_model))
    assert plain.history == dp.history
    assert plain.sharding is None


def test_worker_count_is_pure_packing_float32(dataset):
    serial_model, serial = fit(dataset, num_procs=1, num_shards=4)
    procs_model, procs = fit(dataset, num_procs=2, num_shards=4)
    assert serial.sharding["mode"] == "serial"
    assert procs.sharding["mode"] == "procs"
    assert np.array_equal(flat_of(serial_model), flat_of(procs_model))
    assert serial.history == procs.history
    assert serial.epochs_run == procs.epochs_run


def test_procs_bitwise_under_float64_naive_kernels(dataset):
    with naive_kernels():
        serial_model, _ = fit(dataset, num_procs=1, num_shards=2,
                              dtype="float64")
        procs_model, _ = fit(dataset, num_procs=2, num_shards=2,
                             dtype="float64")
    assert np.array_equal(flat_of(serial_model), flat_of(procs_model))


def test_ragged_chunks_and_sat_out_shards(dataset):
    # Pick a shard count that does not divide the train split, then batch
    # by the smaller shard size: the larger shards get two chunks (the
    # second ragged) while the smaller ones get one — so some lanes sit
    # out the last step of every epoch (weight 0).
    n = len(dataset.train_index)
    shards = next(s for s in (5, 4, 3, 7) if n % s)
    serial_model, serial = fit(dataset, num_procs=1, num_shards=shards,
                               batch_size=n // shards)
    procs_model, procs = fit(dataset, num_procs=2, num_shards=shards,
                             batch_size=n // shards)
    chunks = serial.sharding["assignment"]["chunks_per_shard"]
    assert len(set(chunks)) > 1, "scenario must exercise sat-out lanes"
    assert np.array_equal(flat_of(serial_model), flat_of(procs_model))
    assert serial.history == procs.history


# ---------------------------------------------------------------------------
# Result records and fallbacks
# ---------------------------------------------------------------------------
def test_result_records_assignment_and_comm(dataset):
    _, result = fit(dataset, num_procs=2, num_shards=2)
    sharding = result.sharding
    assert sharding["mode"] == "procs"
    assert sharding["num_procs"] == 2
    assert sharding["requested_procs"] == 2
    assert sharding["fallback"] is None
    assert sharding["start_method"] in ("fork", "spawn", "forkserver")
    assert sharding["comm_bytes"] > 0
    expected = make_shards(dataset.train_index, 2, 0, 16)
    assert sharding["assignment"] == expected.to_dict()
    assert result.epoch_seconds and len(result.epoch_seconds) == \
        result.epochs_run
    json.dumps(sharding)                 # the record is serializable


def test_shm_unavailable_falls_back_serial_with_reason(dataset,
                                                       monkeypatch):
    from repro.training import dataparallel
    def refuse():
        raise CommUnavailable("probe refused for test")
    monkeypatch.setattr(dataparallel, "probe_shared_memory", refuse)
    fb_model, fb = fit(dataset, num_procs=4, num_shards=2)
    assert fb.sharding["mode"] == "serial"
    assert fb.sharding["num_procs"] == 1
    assert fb.sharding["requested_procs"] == 4
    assert "probe refused" in fb.sharding["fallback"]
    monkeypatch.undo()
    serial_model, _ = fit(dataset, num_procs=1, num_shards=2)
    assert np.array_equal(flat_of(fb_model), flat_of(serial_model))


def test_sharded_trainer_accepts_config_directly(dataset):
    config = TrainConfig(epochs=1, patience=6, batch_size=16, seed=0,
                         num_procs=1, num_shards=2)
    model = AdamGNNGraphClassifier(dataset.num_features, 2, hidden=16,
                                   num_levels=2,
                                   rng=np.random.default_rng(0))
    result = ShardedTrainer(config).fit(model, dataset)
    assert result.sharding["mode"] == "serial"
    assert result.sharding["assignment"]["num_shards"] == 2


def test_procs_resolve_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_DP_PROCS", "2")
    assert TrainConfig().num_procs == 2
    assert TrainConfig().num_shards == 2
    assert TrainConfig(num_procs=1).num_procs == 1   # explicit wins
    # The env var means what the field means: TrainConfig(num_procs=0)
    # raises, so REPRO_DP_PROCS=0 must not silently become 1.
    for malformed in ("0", "-3", "two", "1.5", ""):
        monkeypatch.setenv("REPRO_DP_PROCS", malformed)
        with pytest.raises(ValueError, match="REPRO_DP_PROCS"):
            TrainConfig()
    with pytest.raises(ValueError, match="num_procs"):
        TrainConfig(num_procs=0)
    monkeypatch.delenv("REPRO_DP_PROCS")
    assert TrainConfig().num_procs == 1               # default serial
