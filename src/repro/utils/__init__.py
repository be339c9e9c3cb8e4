"""Utility helpers: checkpointing and timing."""

from .checkpoint import load_checkpoint, save_checkpoint
from .timing import Timer

__all__ = ["load_checkpoint", "save_checkpoint", "Timer"]
