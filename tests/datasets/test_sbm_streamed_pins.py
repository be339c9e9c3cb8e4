"""The streamed SBM sampler's draws, pinned bit for bit.

``_weighted_distinct_pairs`` places θ-weighted endpoints from each
block's precomputed CDF instead of calling ``rng.choice(..., p=w)``; the
two must give the same nodes and leave the generator in the same state,
so every streamed graph keeps its bits.  The fingerprints below were
recorded with ``rng.choice``.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import generate_sbm_graph
from repro.datasets import sbm
from repro.datasets.sbm import scaled_sbm_config


def fingerprint(graph) -> str:
    h = hashlib.sha256()
    for array in (graph.edge_index, graph.x, graph.y):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("size,draws", [(1, 5), (2, 1), (97, 300),
                                        (4096, 10_000)])
@pytest.mark.parametrize("seed", [0, 1])
def test_cdf_draw_matches_choice(size, draws, seed):
    theta = np.random.default_rng(seed + 100).pareto(2.5, size) + 1.0
    weights = theta / theta.sum()
    members = np.random.default_rng(seed + 200).permutation(3 * size)[:size]
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = want_rng.choice(members, size=draws, p=weights)
    cdf = sbm._theta_cdf(weights)
    got = members[cdf.searchsorted(got_rng.random(draws), side="right")]
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("seed,pin", [(0, "545c5a9f46729910"),
                                      (1, "ab7d2bbc87d3be29")])
def test_streamed_fingerprint_pinned(seed, pin):
    graph = generate_sbm_graph(scaled_sbm_config(10_000), seed=seed,
                               method="streaming")
    assert fingerprint(graph) == pin


@pytest.mark.parametrize("num_nodes,reaches", [(3_000, False),
                                               (10_000, True)])
def test_pin_size_reaches_weighted_draws(monkeypatch, num_nodes, reaches):
    """10^4 nodes has block pairs past the exact-enumeration limit, so
    the pins above cover the weighted endpoint draws; 3,000 does not."""
    calls = []
    original = sbm._weighted_distinct_pairs

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(sbm, "_weighted_distinct_pairs", spy)
    generate_sbm_graph(scaled_sbm_config(num_nodes), seed=0,
                       method="streaming")
    assert bool(calls) is reaches
