"""Structural plan capture for grad-free inference forwards.

AdamGNN derives a coarsening hierarchy for every batch it sees (pooled-level
ego-network pair lists, the ego-selection outcome, the detached
connectivity product).  For a **frozen** model these are pure functions of
the batch, so a :class:`Workspace` records them through
:meth:`Workspace.captured` on the first forward over a batch (the capture
pass) and every later forward over the same batch returns the recorded
objects without recomputation — the serving analogue of graph capture.
The stability of the recorded arrays is itself a speedup: every
identity-keyed cache downstream (segment plans, Â adjacencies) hits
instead of rotating.

Stages are matched by call order: :meth:`Workspace.begin` rewinds the plan
cursor, and stage *i* of a replay returns what stage *i* of the capture
pass built.  This is only sound when one workspace serves one fixed
(model, batch) pair — the :class:`~repro.inference.Predictor` guarantees
that by keying workspaces on batch identity and documenting the
frozen-model contract (its ``invalidate()`` drops captured plans after a
parameter update).

A workspace may only be activated under :func:`~repro.tensor.no_grad`: the
stages behind :func:`ws_captured` track the learned fitness, so every
training-mode forward must recompute them.  :func:`use_workspace` enforces
this at entry.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional

from ._grad_mode import grad_enabled

__all__ = ["Workspace", "use_workspace", "ws_captured"]


class Workspace:
    """Record/replay store for one batch's structural stage results.

    Counters:

    ``structure_hits``
        Stages served from the recorded plan instead of being rebuilt.
    ``allocations``
        Always 0: the workspace recycles no buffers.  Kept so callers that
        count per-forward allocations read a steady state.
    """

    __slots__ = ("_plan", "_plan_cursor", "structure_hits")

    allocations = 0

    def __init__(self) -> None:
        self._plan: List = []
        self._plan_cursor: int = 0
        self.structure_hits: int = 0

    def begin(self) -> None:
        """Rewind the plan cursor — call before each forward."""
        self._plan_cursor = 0

    def captured(self, builder):
        """Record ``builder()``'s result on the capture pass, replay after.

        The builder runs with the workspace deactivated, so a stage nested
        inside it is part of its recorded result rather than a plan entry
        of its own (which would land out of call order).
        """
        i = self._plan_cursor
        self._plan_cursor = i + 1
        if i < len(self._plan):
            self.structure_hits += 1
            return self._plan[i]
        previous = _state.active
        _state.active = None
        try:
            value = builder()
        finally:
            _state.active = previous
        self._plan.append(value)
        return value

    def stats(self) -> dict:
        return {"allocations": self.allocations,
                "captured_structures": len(self._plan),
                "structure_hits": self.structure_hits}


class _WorkspaceState(threading.local):
    """Per-thread active workspace.  Thread-local so each serving worker
    (see :mod:`repro.serving`) replays its own plan: one worker's cursor
    must never serve a forward running on another thread.  Fresh threads
    start with no workspace active."""

    active: Optional[Workspace] = None


_state = _WorkspaceState()


@contextmanager
def use_workspace(workspace: Workspace) -> Iterator[Workspace]:
    """Replay ``workspace``'s structural plan in this thread's forwards.

    Requires gradient mode to be off (see module docstring); rewinds the
    plan cursor on entry so each activation is one forward's replay.
    Re-entrant activations nest (the inner workspace wins), which keeps a
    Predictor-in-Predictor composition from interleaving plans.
    """
    if grad_enabled():
        raise RuntimeError(
            "use_workspace() requires no_grad(): captured structural "
            "stages track the learned fitness, so a grad-mode forward "
            "must recompute them")
    previous = _state.active
    workspace.begin()
    _state.active = workspace
    try:
        yield workspace
    finally:
        _state.active = previous


def ws_captured(builder):
    """Route a structural stage through the active workspace's plan.

    Transparent (just calls ``builder()``) when no workspace is active —
    the training path and plain no-grad evaluation always recompute.
    """
    ws = _state.active
    if ws is None:
        return builder()
    return ws.captured(builder)
