"""Per-(batch, structure) training-step capture registry.

Bridges the :class:`~repro.tensor.tape.TrainingTape` machinery to the trainers' step loops.  One :class:`StepCapture` lives on a
trainer and decides, per step, whether the step runs uncaptured, records a
new tape, or replays an existing one.

Capture key
-----------
``(identities of the pinned key objects, compute dtype)``.
The key objects are the batch and its composed structure (the node trainer
keys on the graph): the content-keyed :class:`~repro.graph.BatchStructureCache`
already guarantees that *the same object* comes back for a recurring chunk,
so object identity is exactly the frozen-structure contract — a structure-
cache miss produces a new object, hence a new key, hence a recapture.  The
dtype component invalidates on ``TrainConfig(dtype=...)`` changes (and the
``Module.astype`` the trainer performs with them).  Every registry entry
*pins* its key objects, which is what keeps ``id()`` comparisons sound: a
pinned object cannot be collected, so its id cannot be reused while the
entry lives.

Second-visit policy
-------------------
Capturing costs a tape's worth of pinned nodes per key, and under shuffled
minibatching most (batch, structure) pairs are never seen twice — ``fit``
draws new chunk permutations every epoch, so eagerly capturing every step
would fill the registry with tapes that never replay.  The registry
therefore only *marks* a key on first visit and captures on the second:
one recurrence is the cheapest available evidence that a key is stable
enough to recur again.  Full-batch node training reaches replay from the
third visit on; one-shot keys cost one bounded registry slot and nothing
else.

Fallback
--------
A replay that diverges (:class:`~repro.tensor.tape.TapeInvalid`: the op
sequence ran long or short, or a node changed dtype) falls back to the
uncaptured path for that step *after restoring the step's RNG state* —
the partial forward has already consumed draws (dropout masks, negative
sampling), and rerunning without the restore would silently desynchronise
the run from the uncaptured training it must match bitwise.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..tensor import TapeInvalid, TrainingTape

__all__ = ["StepCapture", "CaptureEntry", "model_rngs", "run_step"]


def model_rngs(model) -> list:
    """Every RNG stream a model's forward can consume (dropout masks).

    These must be snapshot alongside the trainer's sampler before a
    captured step attempt: a fallback rerun redraws its masks, and without
    restoring the streams the rerun would consume extra draws relative to
    an uncaptured run of the same schedule.
    """
    rngs = []
    for module in model.modules():
        rng = getattr(module, "rng", None)
        if isinstance(rng, np.random.Generator):
            rngs.append(rng)
    return rngs


def run_step(capture: Optional["StepCapture"], pins: Tuple, dtype, rngs,
             forward_loss):
    """Forward + loss + backward for one step: through ``capture`` when a
    trainer has one, plain otherwise.  Returns the loss tensor."""
    if capture is None:
        loss = forward_loss()
        loss.backward()
        return loss
    return capture.run_step(pins, dtype, rngs, forward_loss)


class CaptureEntry:
    """One captured step: the replayable tape plus its pinned key objects."""

    __slots__ = ("tape", "pins")

    def __init__(self, pins: Tuple) -> None:
        self.tape = TrainingTape()
        self.pins = pins


class StepCapture:
    """Second-visit capture policy over an LRU of tape entries.

    Only the autograd tape is captured: the structural stages behind
    ``ws_captured`` track the learned fitness (ego selection, S_k,
    connectivity) and must recompute every step.
    """

    def __init__(self, capacity: int = 32, seen_capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.seen_capacity = seen_capacity
        self._entries: "OrderedDict[Tuple, CaptureEntry]" = OrderedDict()
        self._seen: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self.captures = 0
        self.replays = 0
        self.invalidations = 0
        self.fallbacks = 0
        self.uncaptured_steps = 0

    # ------------------------------------------------------------------
    # Key / entry management
    # ------------------------------------------------------------------
    @staticmethod
    def _key(pins: Tuple, dtype) -> Tuple:
        return tuple(id(obj) for obj in pins), np.dtype(dtype).str

    def entry_for(self, pins: Tuple, dtype) -> Optional[CaptureEntry]:
        """The entry for this step, or ``None`` (run uncaptured).

        First visit of a key marks it; the second promotes it to a real
        entry whose next pass will capture.
        """
        key = self._key(pins, dtype)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        if key in self._seen:
            del self._seen[key]
            entry = CaptureEntry(tuple(pins))
            self._entries[key] = entry
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.invalidations += 1
            return entry
        # Mark: pin the key objects so the id-based key stays valid.
        self._seen[key] = tuple(pins)
        if len(self._seen) > self.seen_capacity:
            self._seen.popitem(last=False)
        return None

    def invalidate(self, pins: Tuple, dtype) -> None:
        """Drop the entry for this key (replay diverged or caller request)."""
        key = self._key(pins, dtype)
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1

    # ------------------------------------------------------------------
    # The step runner
    # ------------------------------------------------------------------
    def run_step(self, pins: Tuple, dtype, rngs, forward_loss):
        """Run forward + loss + backward for one step, captured if possible.

        ``forward_loss()`` performs the model forward and loss construction
        and returns the scalar loss tensor; this method owns the backward phase.  Returns the
        loss tensor.  On :class:`TapeInvalid` the entry is dropped, the
        states of ``rngs`` (every generator the step consumes: the
        trainer's sampler *and* the model's dropout streams) are restored
        to their pre-attempt snapshots, and the step reruns uncaptured —
        transparently to the caller.
        """
        entry = self.entry_for(pins, dtype)
        if entry is None:
            self.uncaptured_steps += 1
            loss = forward_loss()
            loss.backward()
            return loss
        replaying = entry.tape.captured
        rng_states = [g.bit_generator.state for g in rngs]
        try:
            with entry.tape.active_pass():
                loss = forward_loss()
                entry.tape.backward(loss)
        except TapeInvalid:
            self.invalidate(pins, dtype)
            self.fallbacks += 1
            for g, state in zip(rngs, rng_states):
                g.bit_generator.state = state
            self.uncaptured_steps += 1
            loss = forward_loss()
            loss.backward()
            return loss
        except BaseException:
            # A half-recorded (or half-replayed) tape must not be
            # replayed against later steps; drop it before propagating.
            self.invalidate(pins, dtype)
            raise
        if replaying:
            self.replays += 1
        else:
            self.captures += 1
        return loss

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters in the house cache-stats shape (hits/misses/entries).

        ``hits`` are replayed steps, ``misses`` are capture passes; the
        extra keys break down why steps ran uncaptured and what the
        tapes hold.
        """
        return {
            "hits": self.replays,
            "misses": self.captures,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "invalidations": self.invalidations,
            "fallbacks": self.fallbacks,
            "uncaptured_steps": self.uncaptured_steps,
            "marked_keys": len(self._seen),
            "tape_nodes": sum(len(e.tape.nodes)
                              for e in self._entries.values()),
        }
