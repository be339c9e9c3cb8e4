"""Grad-free serving engine: no-grad forwards with structural plan capture.

Training and serving want different things from the same forward pass.
Training builds an autograd tape; serving runs the identical arithmetic
but needs latency — no parent tracking, no ``_backward`` closures, and no
per-request rebuild of a frozen model's coarsening hierarchy.  This
subpackage provides the serving side:

:class:`Predictor`
    Wraps a trained model.  Forwards run under
    :func:`~repro.tensor.no_grad` with a per-batch
    :class:`~repro.tensor.Workspace`, so the first forward over a batch
    captures its structural plan (ego-networks, ego selection,
    connectivity) and every repeat replays it.  Logits are bitwise
    identical to the training-mode forward.
"""

from .predictor import Predictor

__all__ = ["Predictor"]
