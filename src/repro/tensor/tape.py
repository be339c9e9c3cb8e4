"""Replayable autograd tape for plan-captured training steps.

Inference captures structural plans: under the frozen-structure contract
of the batch caches, a forward is the same kernel sequence every time, so
structural stages can be recorded once and replayed.  Training
has the same structure-stability (the coarsening hierarchy a batch induces
does not change between visits of the same cached batch) but not value
stability — weights move every step — so what *can* be captured is the
autograd graph itself: which tensors get created, in which order, and in
which order their backward closures fire.

A :class:`TrainingTape` exploits exactly that.  The forward **re-executes
in full on every step** (values must be recomputed); what replay removes is
the per-step Python graph bookkeeping around it:

* **Capture pass** — ops run normally; every grad-wired result tensor is
  appended to ``tape.nodes`` in creation order.  The backward pass runs the
  standard topological sweep but records which nodes fired, in firing
  order, into ``tape.order``.
* **Replay pass** — :meth:`Tensor._make_child` hands back the *stable node
  objects* recorded at capture, rebinding ``data``/``_backward`` and
  clearing ``grad``.  No parent tuples are built, no DAG is topologically
  sorted: backward simply fires the recorded ``tape.order``.  Because the
  firing order is the capture pass's own topological order, gradient
  *accumulation* order is identical, which keeps replayed training bitwise
  equal to the uncaptured path (float32 summation is order-sensitive).
* **Shape tolerance** — node *shapes* are allowed to drift between steps.
  AdamGNN's coarsening is data-dependent: the ego selection moves with the
  learned fitness, so pooled-level array sizes wobble by a few elements
  every step even though the op **sequence** — which kernels run, in which
  order, wired to which parents — is identical.  Replay therefore rebinds
  whatever data the re-executed forward produced and validates the things
  that actually certify sequence stability: per-node dtype and the total
  node count.

Replay is *validated*, never trusted: a dtype mismatch at any node or an
op sequence that runs long or short raises :class:`TapeInvalid`, and the
trainer falls back to the uncaptured path for that step after restoring
the step's RNG state (a partial forward has already consumed draws).

The tape hook lives at the single ``Tensor._make_child`` choke point — the
same gate the no-grad mode and the NaN sanitizer use — and costs one
thread-local read per grad-wired op when no tape is active.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional

import numpy as np

__all__ = ["TapeInvalid", "TrainingTape", "active_tape"]


class TapeInvalid(RuntimeError):
    """A replayed step diverged from its captured plan.

    Raised when the op sequence runs long or short, or a node's dtype no
    longer matches the recording.  Callers treat this as "drop the tape
    and run the step uncaptured", not as an error: the capture contract
    (stable batch, stable op sequence) is checked, not assumed.
    """


class TrainingTape:
    """Recorded autograd graph of one training step over one fixed batch.

    ``nodes``
        Every grad-wired tensor of the captured step, in creation order.
        On replay these exact objects are handed back to the running
        forward with their ``data`` rebound.
    ``order``
        The subset of ``nodes`` whose backward closures fired during the
        capture backward, in firing order (the capture pass's reverse
        topological order).  ``None`` until a capture completes — that is
        also the "has this tape captured yet?" flag.
    """

    __slots__ = ("nodes", "order", "cursor", "mode", "captures", "replays")

    #: not active / recording / handing back recorded nodes
    IDLE, CAPTURE, REPLAY = 0, 1, 2

    def __init__(self) -> None:
        self.nodes: List = []
        self.order: Optional[List] = None
        self.cursor: int = 0
        self.mode: int = TrainingTape.IDLE
        self.captures: int = 0
        self.replays: int = 0

    @property
    def captured(self) -> bool:
        return self.order is not None

    # ------------------------------------------------------------------
    # Hook entry points (called from Tensor._make_child)
    # ------------------------------------------------------------------
    def _replay_node(self, data, backward):
        """Rebind and return the next recorded node for a replayed op."""
        i = self.cursor
        nodes = self.nodes
        if i >= len(nodes):
            raise TapeInvalid(
                f"replayed step created more grad nodes than the captured "
                f"{len(nodes)} — op sequence is not stable for this batch")
        node = nodes[i]
        self.cursor = i + 1
        data = np.asarray(data)
        # Shapes may drift (adaptive pooling resizes with the learned
        # fitness); dtype may not — a dtype change means a different
        # compute configuration is running against this tape.
        if node.data.dtype != data.dtype:
            raise TapeInvalid(
                f"node {i} changed dtype from {node.data.dtype} to "
                f"{data.dtype} between capture and replay")
        node.data = data
        node.grad = None
        node._grad_owned = False
        node._backward = backward
        return node

    # ------------------------------------------------------------------
    # Pass management
    # ------------------------------------------------------------------
    @contextmanager
    def active_pass(self) -> Iterator["TrainingTape"]:
        """Install this tape for the current thread's ops.

        Capture mode until a capture has completed (``order`` recorded),
        replay mode afterwards.  A pass that exits without completing its
        backward (exception, :class:`TapeInvalid`) leaves the tape in a
        half-recorded state — callers must discard it, which the trainer's
        capture registry does on any failure.
        """
        if _state.active is not None:
            raise RuntimeError("training tapes do not nest")
        self.mode = (TrainingTape.REPLAY if self.order is not None
                     else TrainingTape.CAPTURE)
        if self.mode == TrainingTape.CAPTURE:
            self.nodes = []
        self.cursor = 0
        _state.active = self
        try:
            yield self
        finally:
            _state.active = None
            self.mode = TrainingTape.IDLE

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, loss) -> None:
        """Run the step's backward pass under this tape's active pass.

        Capture mode performs the exact :meth:`Tensor.backward` sweep —
        same topological order, same skip conditions — while recording the
        firing sequence.  Replay mode re-fires that recorded sequence:
        identical accumulation order, no DAG walk.  Closures are dropped
        after the pass either way (they retain forward intermediates).
        """
        if self.mode == TrainingTape.CAPTURE:
            loss._accumulate(np.ones_like(loss.data))
            order = loss._topological_order()
            fired: List = []
            for node in reversed(order):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
                    fired.append(node)
                node._backward = None
                node._parents = ()
            self.order = fired
            self.captures += 1
            return
        if self.mode != TrainingTape.REPLAY:
            raise RuntimeError("tape.backward() outside an active pass")
        if self.cursor != len(self.nodes):
            raise TapeInvalid(
                f"replayed step created {self.cursor} grad nodes where the "
                f"capture recorded {len(self.nodes)}")
        loss._accumulate(np.ones_like(loss.data))
        for node in self.order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        for node in self.nodes:
            node._backward = None
        self.replays += 1

    def stats(self) -> dict:
        return {"nodes": len(self.nodes),
                "fired": len(self.order) if self.order is not None else 0,
                "captures": self.captures, "replays": self.replays}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "captured" if self.captured else "blank"
        return (f"TrainingTape({state}, nodes={len(self.nodes)}, "
                f"replays={self.replays})")


class _TapeState(threading.local):
    """Per-thread active tape.  Thread-local for the same reason the
    workspace is: a serving or data-parallel worker must never record its
    ops onto another thread's step."""

    active: Optional[TrainingTape] = None


_state = _TapeState()


def active_tape() -> Optional[TrainingTape]:
    """The calling thread's active training tape (``None`` normally)."""
    return _state.active
