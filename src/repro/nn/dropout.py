"""Dropout module with an explicit random stream."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor.random import make_rng

from ..tensor import Tensor, dropout
from .module import Module


class Dropout(Module):
    """Inverted dropout; active only in train mode.

    Parameters
    ----------
    p:
        Drop probability in ``[0, 1)``.
    rng:
        Random stream for the masks.  Each module owns its stream so that
        experiment seeds reproduce exactly.
    """

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else make_rng(0)

    def forward(self, x: Tensor, rows: Optional[np.ndarray] = None,
                num_rows: Optional[int] = None) -> Tensor:
        """``rows``/``num_rows``: see :func:`repro.tensor.dropout`."""
        return dropout(x, self.p, self.rng, training=self.training,
                       rows=rows, num_rows=num_rows)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
