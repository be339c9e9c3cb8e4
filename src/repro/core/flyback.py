"""Flyback aggregation (Eq. 4, Section 3.4).

``H = H_0 + Σ_k β_k Ĥ_k`` where the per-node, per-level attention

``β_k(v_i) = softmax_k( aᵀ σ( W Ĥ_k(v_i) ‖ H_0(v_i) ) )``

weighs the message each node received from each granularity level.  The β
matrix doubles as the model's explanation signal (Figure 2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..tensor.random import make_rng

from ..nn import Linear, Module, Parameter, init
from ..tensor import (Tensor, fast_kernels_enabled, leaky_relu,
                      leaky_relu_project, softmax, stack)


def _weighted_combine(h0: Tensor, messages: Sequence[Tensor],
                      beta: Tensor) -> Tensor:
    """``H = H_0 + Σ_k β_k ⊙ Ĥ_k`` as one autograd node.

    The compositional loop builds a getitem/reshape/mul/add chain per
    level (four graph nodes and three ``(n, d)`` temporaries each); the
    fused node accumulates in place and hands each parent its exact VJP:
    ``grad`` to ``H_0``, ``β_k·grad`` to message k, and the row-wise dot
    ``⟨grad, Ĥ_k⟩`` to row k of β.
    """
    out_data = h0.data.copy()
    for k, message in enumerate(messages):
        out_data += message.data * beta.data[k][:, None]

    def backward(grad: np.ndarray) -> None:
        if h0.requires_grad:
            h0._accumulate(grad)
        if beta.requires_grad:
            gb = np.empty_like(beta.data)
            for k, message in enumerate(messages):
                np.einsum("ij,ij->i", grad, message.data, out=gb[k])
            beta._accumulate(gb)
        for k, message in enumerate(messages):
            if message.requires_grad:
                message._accumulate(grad * beta.data[k][:, None])

    return h0._make_child(out_data, (h0, beta) + tuple(messages), backward)


class FlybackAggregator(Module):
    """Attention over per-level messages.

    Parameters
    ----------
    in_features:
        Dimension of the node representations.
    """

    def __init__(self, in_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else make_rng(0)
        self.transform = Linear(in_features, in_features, bias=False, rng=rng)
        self.attention = Parameter(
            init.glorot_uniform(rng, 2 * in_features, 1,
                                shape=(2 * in_features,)))

    def level_logits(self, h0: Tensor, messages: Sequence[Tensor]) -> Tensor:
        """``(K, n)`` attention logits, one row per granularity level."""
        d = h0.shape[-1]
        a_left = self.attention[:d]
        a_right = self.attention[d:]
        right = leaky_relu_project(h0, a_right)
        rows: List[Tensor] = []
        for message in messages:
            left = leaky_relu_project(self.transform(message), a_left)
            rows.append(left + right)
        return stack(rows, axis=0)

    def forward(self, h0: Tensor, messages: Sequence[Tensor]
                ) -> Tuple[Tensor, Tensor]:
        """Return ``(H, β)``.

        ``H`` is the flyback-enhanced representation of Eq. 4; ``β`` has
        shape ``(K, n)`` with columns summing to one — β[k, i] is node i's
        attention on the level-(k+1) message.
        """
        messages = list(messages)
        if not messages:
            return h0, Tensor(np.zeros((0, h0.shape[0]),
                                       dtype=h0.data.dtype),
                              dtype=h0.data.dtype)
        logits = self.level_logits(h0, messages)
        beta = softmax(logits, axis=0)
        if fast_kernels_enabled():
            return _weighted_combine(h0, messages, beta), beta
        combined = h0
        for k, message in enumerate(messages):
            combined = combined + message * beta[k].reshape(-1, 1)
        return combined, beta
