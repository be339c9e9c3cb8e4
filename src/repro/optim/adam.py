"""Adam.

Adam with lr=0.01 and weight_decay=5e-4 is the standard configuration for
the GCN/GAT family of baselines and is the default used by the experiment
harness, matching the reference implementation's settings.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..nn.module import Parameter
from ..tensor.precision import ACCUM_DTYPE
from .optimizer import Optimizer


class FlatParams:
    """Flat offset map over a parameter list for gradient/weight exchange.

    The data-parallel trainer moves gradients and weights between
    processes as single contiguous vectors (one shared-memory lane per
    shard, one weight segment — see ``repro/tensor/_comm.py``).  This
    class owns the parameter side of that exchange: the fixed parameter
    order and offsets, the flatten (parameters → segment) and the two
    load directions (segment → ``.data`` for a weight broadcast,
    segment → ``.grad`` for the reduced gradient).

    It lives in ``repro/optim`` deliberately: loading broadcast weights
    writes parameter storage in place, and the optimizer package is the
    one sanctioned location for that — at load time the previous
    step's backward has already consumed the tape, so no closure holds
    the buffer.

    The gradient buffers are preallocated per parameter and rebound onto
    ``.grad`` each step, so the steady-state reduce→step path allocates
    nothing.
    """

    def __init__(self, params: Iterable[Parameter]):
        self.params: List[Parameter] = list(params)
        self.offsets: List[int] = []
        self.sizes: List[int] = []
        total = 0
        for p in self.params:
            self.offsets.append(total)
            self.sizes.append(int(p.data.size))
            total += int(p.data.size)
        #: total flat element count across all parameters
        self.total_size = total
        self._grad_bufs = [np.empty_like(p.data) for p in self.params]

    def grads(self) -> List:
        """Current ``.grad`` arrays in parameter order (entries may be
        ``None`` for parameters the step never touched)."""
        return [p.grad for p in self.params]

    def write_params(self, out: np.ndarray) -> None:
        """Flatten every parameter's data into ``out`` (compute dtype)."""
        for p, lo in zip(self.params, self.offsets):
            out[lo:lo + p.data.size] = p.data.reshape(-1)

    def load_params(self, flat: np.ndarray) -> None:
        """Copy a flat weight vector back into parameter storage."""
        for p, lo in zip(self.params, self.offsets):
            np.copyto(p.data, flat[lo:lo + p.data.size]
                      .reshape(p.data.shape))

    def load_grads(self, flat: np.ndarray) -> None:
        """Bind the reduced flat gradient onto every ``.grad``.

        ``flat`` is the f64 reduction output; the element-wise copy into
        the per-parameter buffer casts once at the parameter dtype
        boundary (a no-op for float64 parameters), mirroring how the
        fused ops cast their ACCUM_DTYPE reductions.
        """
        for p, buf, lo in zip(self.params, self._grad_bufs,
                              self.offsets):
            buf[...] = flat[lo:lo + p.data.size].reshape(p.data.shape)
            p.grad = buf


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with optional coupled L2 weight decay."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        # Second moments always accumulate in ACCUM_DTYPE: v is a running
        # sum of squared gradients whose bias-corrected square root divides
        # the update, and float32 accumulation there visibly degrades late
        # training.  For float64 parameters this is np.zeros_like as before.
        self._v = [np.zeros(p.data.shape, dtype=ACCUM_DTYPE)
                   for p in self.params]
        # Per-parameter scratch (compute dtype + ACCUM dtype): the step
        # runs every training iteration, and the expression form allocated
        # seven temporaries per parameter per step.  The fused form below
        # writes through these two buffers and updates the parameter in
        # place — same operation sequence, same dtypes, bitwise-identical
        # values, zero steady-state allocations.
        self._scratch = [np.empty_like(p.data) for p in self.params]
        self._scratch2 = [np.empty_like(p.data) for p in self.params]
        self._scratch_accum = [np.empty(p.data.shape, dtype=ACCUM_DTYPE)
                               for p in self.params]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for param, m, v, s, s2, sa in zip(self.params, self._m, self._v,
                                          self._scratch, self._scratch2,
                                          self._scratch_accum):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                # grad + wd·param, formed in scratch (same evaluation
                # order as the expression it replaces).
                np.multiply(param.data, self.weight_decay, out=s)
                np.add(grad, s, out=s)
                grad = s
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=s2)
            m += s2
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=s2)
            s2 *= grad
            v += s2
            # step = lr·(m/bias1) / (sqrt(v/bias2) + eps); v/bias2 is
            # float64, so the division is formed in float64 and cast once
            # at the parameter boundary (a no-op for float64 parameters).
            # ``grad`` (possibly aliasing ``s``) is dead from here on.
            np.divide(v, bias2, out=sa)
            np.sqrt(sa, out=sa)
            sa += self.eps
            np.divide(m, bias1, out=s)
            np.multiply(s, self.lr, out=s)
            np.divide(s, sa, out=sa)
            np.copyto(s, sa, casting="unsafe")
            np.subtract(param.data, s, out=param.data)
