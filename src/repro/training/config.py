"""Training configuration shared by the three task trainers."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional


_FLAGS = {"0": False, "false": False, "off": False,
          "1": True, "true": True, "on": True}


def _from_env(name: str, default, parse, expected: str):
    """``parse`` of env var ``name``, or ``default`` when it is unset; a
    value ``parse`` maps to ``None`` raises ``ValueError`` naming it."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = parse(raw.strip().lower())
    if value is None:
        raise ValueError(f"{name} must be {expected}, got {raw!r}")
    return value


def _positive_int(raw: str) -> Optional[int]:
    return int(raw) if raw.isdecimal() and int(raw) > 0 else None


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run.

    Defaults follow Appendix A.4: Adam, d=64 (set on the model), loss
    weights γ=0.1 (L_KL) and δ=0.01 (L_R), early stopping on validation.
    """

    epochs: int = 100
    lr: float = 0.01
    weight_decay: float = 5e-4
    patience: int = 25
    gamma: float = 0.1        #: weight of L_KL (Eq. 7)
    delta: float = 0.01       #: weight of L_R (Eq. 7)
    batch_size: int = 32      #: graph-classification minibatch size
    grad_clip: float = 5.0    #: global gradient-norm ceiling (0 disables)
    use_kl: bool = True       #: include L_KL (ablation hook, Table 3)
    use_recon: bool = True    #: include L_R (ablation hook, Table 3)
    seed: int = 0
    verbose: bool = False
    #: Compute precision of the training run: "float32" (default) or
    #: "float64".  The trainer casts the model, the input graphs and all
    #: precomputed structure to this dtype and scopes the run in
    #: ``repro.tensor.default_dtype``; numerically sensitive scalar
    #: reductions (softmax normalisation, KL/BCE losses, Adam second
    #: moments) still accumulate in float64 regardless (see DESIGN.md).
    #: "float64" reproduces the pre-policy engine bit for bit under
    #: ``repro.tensor.naive_kernels``.
    dtype: str = "float32"
    #: Graph classification: collate minibatches through the per-dataset
    #: structure pipeline (per-graph precompute + block-diagonal
    #: composition + collated-batch cache).  Off = the original
    #: recompute-per-batch path; kept as an escape hatch and as the
    #: reference of ``test_batch_cache_equals_plain_collation``.
    batch_cache: bool = True
    #: Training-step plan capture: record the autograd tape once per
    #: recurring (batch, structure) pair and replay it (see DESIGN.md
    #: "Training plan capture").  ``None`` resolves from the
    #: ``REPRO_TRAIN_CAPTURE`` env var (``0``/``false``/``off`` or
    #: ``1``/``true``/``on``, else ``ValueError``) and defaults to on —
    #: replay is validated per step and falls back to the uncaptured path
    #: transparently, and it is bitwise-identical to capture-off training
    #: by construction.
    capture: Optional[bool] = None
    #: Data-parallel worker process count for the graph-classification
    #: trainer.  ``None`` resolves from the ``REPRO_DP_PROCS`` env var (a
    #: positive integer, else ``ValueError``) and defaults to 1 (plain
    #: in-process training).  Any value > 1 routes ``fit`` through
    #: :class:`~repro.training.ShardedTrainer`;
    #: the worker count is a pure packing decision — results depend only
    #: on ``num_shards`` (see ``training/sharding.py``).
    num_procs: Optional[int] = None
    #: Gradient shard count for data-parallel training.  ``None``
    #: defaults to ``num_procs``.  ``num_shards == 1`` is plain serial
    #: training (bitwise-identical to ``num_procs=1`` by fallback).
    num_shards: Optional[int] = None
    #: Node classification: train on sampled radius-λ ego-net minibatches
    #: extracted from a CSC structure instead of full-batch epochs (see
    #: DESIGN.md "Sampled minibatch training").  Epoch cost becomes
    #: O(minibatch count), independent of graph size — the path that
    #: opens the 10^5–10^6-node regime.
    sampled: bool = False
    #: Seed nodes per sampled minibatch.
    node_batch_size: int = 512
    #: Neighbours sampled per node per hop (``None`` = no sampling: the
    #: exact radius-λ ego-net, useful for parity checks).
    fanout: Optional[int] = 10
    #: Ego-net radius λ of each sampled minibatch; match the model's
    #: receptive field (2 for the 2-layer baselines).
    num_hops: int = 2
    #: Optional cap on optimizer steps per sampled epoch (``None`` = the
    #: full train-node permutation).  The scaling benchmark uses this to
    #: time fixed minibatch budgets on 10^6-node graphs.
    max_steps_per_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capture is None:
            self.capture = _from_env("REPRO_TRAIN_CAPTURE", True, _FLAGS.get,
                                     "0/false/off or 1/true/on")
        if self.num_procs is None:
            self.num_procs = _from_env("REPRO_DP_PROCS", 1, _positive_int,
                                       "a positive integer")
        if self.num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        if self.num_shards is None:
            self.num_shards = self.num_procs
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.lr:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        if self.node_batch_size < 1:
            raise ValueError("node_batch_size must be >= 1")
        if self.fanout is not None and self.fanout < 1:
            raise ValueError("fanout must be >= 1 or None")
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")
        if self.max_steps_per_epoch is not None \
                and self.max_steps_per_epoch < 1:
            raise ValueError("max_steps_per_epoch must be >= 1 or None")
