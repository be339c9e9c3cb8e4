"""Serve graph-classification traffic through the async front end.

Stands up a :class:`~repro.serving.GraphServer` over a trained AdamGNN
classifier and pushes a burst of single-graph requests at it: responses
come back through :class:`~repro.serving.PredictionHandle` futures,
micro-batched behind the scenes into size-bucketed collated forwards.
Also demonstrates the failure surface — a tiny deadline produces
``DeadlineExceeded`` timeout responses, and a tiny pending bound produces
typed ``Overloaded`` sheds.

Run with::

    python examples/serving_frontend.py
"""

import numpy as np

from repro.datasets import load_graph_dataset
from repro.serving import (DeadlineExceeded, GraphServer, Overloaded,
                           ServingConfig)
from repro.training import TrainConfig
from repro.training.experiment import make_graph_classifier


def main() -> None:
    # 1. A trained model and the graph universe it serves.  (Training is
    #    skipped here — see molecule_classification.py — because serving
    #    behaviour is identical for any frozen weights.)
    dataset = load_graph_dataset("proteins", seed=0)
    model = make_graph_classifier("adamgnn", dataset.num_features, 2,
                                  seed=0)
    model.astype(TrainConfig().dtype)
    eval_ids = np.concatenate([dataset.val_index, dataset.test_index])

    # 2. Serve a burst of single-graph requests.  The server coalesces
    #    them into size-bucketed micro-batches; every response is bitwise
    #    what a direct Predictor call on the same collation returns.
    config = ServingConfig(max_batch=16, max_delay_ms=2.0, workers=1,
                           max_pending=256)
    with GraphServer(model, dataset, config) as server:
        handles = [server.submit(int(gid), deadline_ms=1000.0)
                   for gid in eval_ids]
        results = [h.result(timeout=30.0) for h in handles]
        stats = server.stats()

        # A second identical burst: the same request compositions collate
        # to the same cached chunks, whose batch objects replay their
        # captured structure plans — nothing new is captured.
        for handle in [server.submit(int(g), deadline_ms=1000.0)
                       for g in eval_ids]:
            handle.result(timeout=30.0)
        replay = server.stats()

    print(f"served {stats['completed']} requests in {stats['batches']} "
          f"micro-batches (mean size {stats['mean_batch_size']:.1f})")
    enzymes = sum(r.label for r in results)
    print(f"predicted enzyme for {enzymes}/{len(results)} graphs")
    arenas, again = stats["arenas"], replay["arenas"]
    print(f"burst 1: {arenas['captured_structures']:.0f} structure stages "
          f"captured, {arenas['structure_hits']:.0f} replayed")
    print(f"burst 2: "
          f"{again['captured_structures'] - arenas['captured_structures']:.0f}"
          f" new stages captured, "
          f"{again['structure_hits'] - arenas['structure_hits']:.0f} "
          f"replayed, "
          f"{replay['collation']['hits'] - stats['collation']['hits']:.0f} "
          f"collation cache hits")

    # 3. The failure surface: deadlines and admission control are typed,
    #    never silent.
    with GraphServer(model, dataset,
                     ServingConfig(max_batch=4, max_delay_ms=50.0,
                                   max_pending=4)) as server:
        strict = server.submit(int(eval_ids[0]), deadline_ms=0.0)
        try:
            strict.result(timeout=5.0)
        except DeadlineExceeded as exc:
            print(f"deadline response: {exc}")
        backlog = [server.submit(int(g), deadline_ms=1000.0)
                   for g in eval_ids[:4]]
        try:
            server.submit(int(eval_ids[4]))
        except Overloaded as exc:
            print(f"shed response: {exc}")
        for handle in backlog:
            handle.result(timeout=30.0)


if __name__ == "__main__":
    main()
