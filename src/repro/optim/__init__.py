"""Optimisers and gradient clipping."""

from .optimizer import Optimizer
from .adam import Adam, FlatParams
from .clip import clip_grad_norm, clip_grad_value

__all__ = ["Optimizer", "Adam", "FlatParams",
           "clip_grad_norm", "clip_grad_value"]
