"""Seeded fits pinned by the sha256 of their final weights.

Every kernel runs unchunked on the calling thread, so a seeded float32 fit
must end with the same weight bits on any host, whatever its core count.
The 3,000-node graph puts more than 2,048 rows through ``affine``,
``leaky_relu_project`` and the CSR segment sums, where splitting the rows
into blocks would change the GEMM rounding and break the pins.

OpenBLAS partitions a GEMM by thread, so its thread count changes float32
rounding too, and by default it follows the core count.  The fits
therefore run in a child process (this file run as a script) with the
BLAS thread count fixed at the value the pins were recorded at.

The float64 link-prediction pin is the run ``LinkPredictionTrainer``
produced before it honoured ``TrainConfig.dtype`` (it trained in float64
whatever the config said), so asking for float64 changes no bit.

The sampled GCN fit computes each layer only on the rows a later layer
reads (``repro.graph.RowPlan``).  ``GCNConv`` picks its product order
from shapes, so the planned layer 1, with far fewer output rows than
input rows, aggregates first, while the full-row forward transforms
first; the two round differently in float32.  So the same fit with
planning switched off, every layer on every subgraph row, carries its
own pin.  Sampled GIN (BatchNorm pools every row) and sampled AdamGNN
(its Eq. 5-6 terms read every row) never plan.

The two graph-classification pins cover minibatched AdamGNN training:
one plain fit, and one with ``num_shards=2, num_procs=1``, which runs
the sharded schedule through the in-process coordinator.

Bitwise pins are specific to the NumPy/BLAS build and CPU kernels that
produced them; after a deliberate numerical change, print fresh ones with
``OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python
tests/training/test_fingerprint_pins.py``.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

ADAMGNN_PIN = \
    "fd525bfcc3a8d748ad05c40e82c8c89a4e683938704f8eb207d201afad2c5da2"
SAMPLED_GCN_PIN = \
    "a8b35ae08c89eb613c3a7f954741824e81383117bc668123be5395ba3f503037"
SAMPLED_GCN_FULL_ROWS_PIN = \
    "ae0ab045f91b80d0e1032cfaebca0929c6198820630a57d50f9f7cd743e11153"
SAMPLED_GIN_PIN = \
    "d3ae729c1fcd0d0567e8102d209e74b023053f7d3ea9c0a8799e1fe30f9042b7"
SAMPLED_ADAMGNN_PIN = \
    "46693c21a76dc98f6be1ff0f0207ed645f5a0a639be10f029dedf66c1579a712"
LINK_FLOAT64_PIN = \
    "efcabc01b4efb70423ce74f47ee71efd1db22a1ef61a4d2b30b592625a717f4c"
LINK_FLOAT64_TEST_AUC = 0.6016628873771731
GRAPH_ADAMGNN_PIN = \
    "03c911d31542cfeafa8d3dba5d46231004ca588fa0beed7475de78ffe2e821e1"
GRAPH_SHARDED_PIN = \
    "b472d7c85982ec8371e55caf83db9ae4d42b8cc3fdc0243c887fb9a2fa483643"

#: BLAS threads the pins were recorded at.
BLAS_THREADS = "2"


def _fingerprint(model) -> str:
    digest = hashlib.sha256()
    for param in model.parameters():
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def _node_fit(dataset, arch: str, full_rows: bool = False, **config):
    from repro.training import (NodeClassificationTrainer, TrainConfig,
                                prepare_node_features)
    from repro.training.experiment import make_node_classifier
    in_features = prepare_node_features(dataset).shape[1]
    model = make_node_classifier(arch, in_features, dataset.num_classes,
                                 seed=0)
    if full_rows:
        model.encoder.row_plan = lambda *args: None
    NodeClassificationTrainer(TrainConfig(seed=0, **config)).fit(
        model, dataset)
    return model


def _link_fit():
    from repro.core import AdamGNNLinkPredictor
    from repro.datasets import (NodeDataset, SBMConfig, generate_sbm_graph,
                                split_links, split_nodes)
    from repro.training import LinkPredictionTrainer, TrainConfig
    cfg = SBMConfig(num_nodes=90, num_classes=2, communities_per_class=1,
                    subs_per_community=1, p_sub=0.3, p_comm=0.3,
                    p_class=0.3, p_out=0.01, num_features=24,
                    words_per_node=12, topic_noise=0.2)
    graph = generate_sbm_graph(cfg, seed=0)
    dataset = NodeDataset("tiny", graph, 2, split_nodes(
        graph.num_nodes, np.random.default_rng(0)))
    splits = split_links(graph, np.random.default_rng(0))
    model = AdamGNNLinkPredictor(24, hidden=16, num_levels=2,
                                 rng=np.random.default_rng(0))
    result = LinkPredictionTrainer(TrainConfig(
        epochs=4, patience=4, seed=0, dtype="float64")).fit(
            model, dataset, splits)
    return model, result


def _graph_fit(**config):
    from repro.core import AdamGNNGraphClassifier
    from repro.datasets import (GraphDataset, load_graph_dataset,
                                split_graphs)
    from repro.training import GraphClassificationTrainer, TrainConfig
    full = load_graph_dataset("mutag", seed=0)
    train, val, test = split_graphs(48, np.random.default_rng(0))
    dataset = GraphDataset("mutag-48", full.graphs[:48], 2,
                           full.num_features, train_index=train,
                           val_index=val, test_index=test)
    model = AdamGNNGraphClassifier(dataset.num_features, 2, hidden=16,
                                   num_levels=2,
                                   rng=np.random.default_rng(0))
    GraphClassificationTrainer(TrainConfig(
        epochs=2, patience=2, batch_size=16, seed=0, num_procs=1,
        **config)).fit(model, dataset)
    return model


def _run_fits() -> dict:
    from repro.datasets import NodeDataset, split_nodes
    from repro.datasets.sbm import generate_sbm_graph, scaled_sbm_config
    cfg = scaled_sbm_config(3_000, num_features=32)
    graph = generate_sbm_graph(cfg, seed=0)
    dataset = NodeDataset("sbm-3000", graph, cfg.num_classes, split_nodes(
        graph.num_nodes, np.random.default_rng(0)))
    adamgnn = _node_fit(dataset, "adamgnn", epochs=2, patience=2)
    sampled_config = dict(sampled=True, epochs=1, patience=1,
                          node_batch_size=512, fanout=5, num_hops=2)
    sampled = _node_fit(dataset, "gcn", **sampled_config)
    full_rows = _node_fit(dataset, "gcn", full_rows=True, **sampled_config)
    sampled_gin = _node_fit(dataset, "gin", **sampled_config)
    sampled_adamgnn = _node_fit(dataset, "adamgnn", **sampled_config)
    link, link_result = _link_fit()
    graph = _graph_fit(num_shards=1)
    return {
        "adamgnn": _fingerprint(adamgnn),
        "adamgnn_dtype": str(adamgnn.parameters()[0].data.dtype),
        "sampled_gcn": _fingerprint(sampled),
        "sampled_gcn_full_rows": _fingerprint(full_rows),
        "sampled_gin": _fingerprint(sampled_gin),
        "sampled_adamgnn": _fingerprint(sampled_adamgnn),
        "link_float64": _fingerprint(link),
        "link_float64_test_auc": link_result.test_auc,
        "graph_adamgnn": _fingerprint(graph),
        "graph_adamgnn_dtype": str(graph.parameters()[0].data.dtype),
        "graph_sharded": _fingerprint(_graph_fit(num_shards=2)),
    }


@pytest.fixture(scope="module")
def fits():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS)
    proc = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_full_batch_adamgnn_fit_matches_pin(fits):
    assert fits["adamgnn_dtype"] == "float32"
    assert fits["adamgnn"] == ADAMGNN_PIN


def test_sampled_gcn_fit_matches_pin(fits):
    assert fits["sampled_gcn"] == SAMPLED_GCN_PIN


def test_full_row_sampled_gcn_fit_matches_pin(fits):
    assert fits["sampled_gcn_full_rows"] == SAMPLED_GCN_FULL_ROWS_PIN


def test_sampled_gin_and_adamgnn_fits_match_pins(fits):
    assert fits["sampled_gin"] == SAMPLED_GIN_PIN
    assert fits["sampled_adamgnn"] == SAMPLED_ADAMGNN_PIN


def test_float64_link_prediction_matches_pin(fits):
    assert fits["link_float64_test_auc"] == LINK_FLOAT64_TEST_AUC
    assert fits["link_float64"] == LINK_FLOAT64_PIN


def test_graph_adamgnn_fit_matches_pin(fits):
    assert fits["graph_adamgnn_dtype"] == "float32"
    assert fits["graph_adamgnn"] == GRAPH_ADAMGNN_PIN


def test_serial_sharded_graph_fit_matches_pin(fits):
    assert fits["graph_sharded"] == GRAPH_SHARDED_PIN


if __name__ == "__main__":
    print(json.dumps(_run_fits()))
