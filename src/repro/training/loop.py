"""The epoch driver and the Eq. 7 loss shared by every trainer.

The benchmark suite's tracer wraps ``cross_entropy``,
``self_optimisation_loss``, ``sampled_reconstruction_loss`` and
``clip_grad_norm`` where the graph and node trainer modules import them.
Nothing here imports those names: the calling trainer passes its own
module globals on every call, so a wrapped global is the one that runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from ..core import AdamGNNOutput
from ..nn import Module
from ..optim import Adam
from ..tensor import Tensor, default_dtype, no_grad
from .config import TrainConfig
from .early_stopping import EarlyStopping


@dataclass
class EpochLog:
    """What :func:`train_epochs` records about one run; each task's result
    extends it with the task's metrics."""

    epochs_run: int
    #: wall seconds from the first epoch to the best-state restore
    seconds: float
    #: validation metric of each epoch, in epoch order
    history: List[float]
    #: wall seconds of each epoch (steps + validation), in epoch order
    epoch_seconds: List[float]


def adamgnn_loss(loss: Tensor, out, config: TrainConfig,
                 kl: Callable[..., Tensor],
                 recon: Optional[Callable[[Tensor], Tensor]] = None,
                 ) -> Tensor:
    """Eq. 7: ``L = L_task + γ·L_KL + δ·L_R`` on top of the task loss.

    ``out`` is the model's auxiliary output; anything other than an
    :class:`~repro.core.AdamGNNOutput` adds nothing.  ``kl`` is
    ``self_optimisation_loss`` (Eq. 5) and ``recon`` maps the node
    embeddings to ``L_R`` (Eq. 6); link prediction passes no ``recon``
    because ``L_R`` is already its task loss.  A term is skipped when its
    weight is 0, when its ``use_kl``/``use_recon`` flag is off, or, for
    ``L_KL``, when the forward selected no level-1 egos.
    """
    if not isinstance(out, AdamGNNOutput):
        return loss
    if config.use_kl and config.gamma:
        egos = out.level1_egos()
        if egos.size:
            loss = loss + kl(out.h, egos) * config.gamma
    if recon is not None and config.use_recon and config.delta:
        loss = loss + recon(out.h) * config.delta
    return loss


def train_epochs(model: Module, config: TrainConfig,
                 steps: Callable[[int], Iterator[Optional[Tensor]]],
                 validate: Callable[[], float],
                 clip: Callable) -> EpochLog:
    """Train ``model`` for up to ``config.epochs`` epochs.

    The trainer supplies only its batch iteration, task loss and metric.
    Each epoch puts the model in training mode and iterates
    ``steps(epoch)``: the generator zeroes the gradients, runs forward
    and backward, and yields the step's loss (or ``None``).  The driver
    then clips the gradients with ``clip`` (the trainer's
    ``clip_grad_norm``), takes the Adam step, and resumes the generator.
    After the epoch, ``validate()`` runs in eval mode without gradients
    and its value drives early stopping.  On return the model holds the
    weights of its best validation epoch and is in eval mode.
    """
    # Cast before Adam snapshots parameter shapes, so its moment buffers
    # are born at the compute precision.
    model.astype(config.dtype)
    optimizer = Adam(model.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)
    stopper = EarlyStopping(patience=config.patience, mode="max")
    history: List[float] = []
    epoch_seconds: List[float] = []
    start = time.perf_counter()
    with default_dtype(config.dtype):
        for epoch in range(config.epochs):
            epoch_start = time.perf_counter()
            model.train()
            loss = None
            for loss in steps(epoch):
                if config.grad_clip:
                    clip(model.parameters(), config.grad_clip)
                optimizer.step()
            model.eval()
            with no_grad():
                score = validate()
            history.append(score)
            epoch_seconds.append(time.perf_counter() - epoch_start)
            if config.verbose:
                shown = "" if loss is None else f"  loss {loss.item():.4f}"
                print(f"epoch {epoch:3d}{shown}  val {score:.4f}")
            if stopper.step(score, model):
                break
    stopper.restore(model)
    return EpochLog(epochs_run=len(history),
                    seconds=time.perf_counter() - start,
                    history=history, epoch_seconds=epoch_seconds)
