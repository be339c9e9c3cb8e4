"""Async serving front end with dynamic micro-batching.

The deployment story on top of :mod:`repro.inference`: a
:class:`GraphServer` accepts single-graph (and small-chunk) requests,
coalesces them into size-bucketed micro-batches, and dispatches them to a
pool of warmed :class:`~repro.inference.Predictor` workers.  Admission
control (:class:`Overloaded`), per-request deadlines
(:class:`DeadlineExceeded`), a max-delay flush timer, and a draining
``close()`` make it safe to put in front of real traffic; ``stats()``
exposes queue depth, batch-size histogram, shed/timeout counters, and the
workers' aggregated plan-capture counters.

Quickstart::

    from repro.serving import GraphServer, ServingConfig

    with GraphServer(model, dataset,
                     ServingConfig(max_batch=32, max_delay_ms=2.0)) as srv:
        handle = srv.submit(graph_id=7, deadline_ms=50.0)
        print(handle.result().label)
"""

from .bucketing import SizeBucketPolicy
from .service import (DeadlineExceeded, GraphServer, Overloaded,
                      PredictionHandle, ServedPrediction, ServingConfig)

__all__ = [
    "GraphServer", "ServingConfig", "SizeBucketPolicy",
    "PredictionHandle", "ServedPrediction",
    "Overloaded", "DeadlineExceeded",
]
