"""NumPy-backed autograd engine (the library's computational substrate)."""

from .tensor import DEFAULT_DTYPE, Tensor
from ._grad_mode import (enable_grad, grad_enabled, no_grad,
                         set_grad_enabled)
from .workspace import Workspace, use_workspace
from .tape import TapeInvalid, TrainingTape, active_tape
from .precision import (ACCUM_DTYPE, default_dtype, get_default_dtype,
                        resolve_dtype, set_default_dtype)
from .ops import (absolute, affine, clip, concat, dropout, elu, exp,
                  gather_rows, leaky_relu, leaky_relu_project, log,
                  log_softmax, matmul,
                  pair_dot, relu, rowwise_dot, sigmoid, softmax, sqrt,
                  square_norm, stack, tanh, where)
from .segment import (gather_scale_segment_sum, segment_count, segment_max,
                      segment_mean, segment_normalize, segment_softmax,
                      segment_sum)
from ._segment_plans import (SegmentReductionPlan, clear_plan_cache,
                             fast_kernels_enabled, naive_kernels,
                             plan_for, scatter_add_rows, segment_plan_stats)
from .gradcheck import (assert_gradients_close, check_gradients,
                        numeric_gradient, tolerances_for)
from .random import draw_normal, draw_uniform, make_rng, spawn

__all__ = [
    "DEFAULT_DTYPE", "Tensor",
    "enable_grad", "grad_enabled", "no_grad", "set_grad_enabled",
    "Workspace", "use_workspace",
    "TapeInvalid", "TrainingTape", "active_tape",
    "ACCUM_DTYPE", "default_dtype", "get_default_dtype", "resolve_dtype",
    "set_default_dtype",
    "absolute", "affine", "clip", "concat", "dropout", "elu", "exp",
    "gather_rows",
    "leaky_relu", "leaky_relu_project", "log", "log_softmax",
    "matmul", "pair_dot", "relu",
    "rowwise_dot", "sigmoid", "softmax", "sqrt", "square_norm", "stack",
    "tanh", "where",
    "gather_scale_segment_sum", "segment_count", "segment_max",
    "segment_mean", "segment_normalize", "segment_softmax", "segment_sum",
    "SegmentReductionPlan", "clear_plan_cache", "fast_kernels_enabled",
    "naive_kernels", "plan_for", "scatter_add_rows",
    "segment_plan_stats",
    "assert_gradients_close", "check_gradients", "numeric_gradient",
    "tolerances_for",
    "draw_normal", "draw_uniform", "make_rng", "spawn",
]


def get_num_workers() -> int:
    """Always 1: every kernel runs unchunked on the calling thread.

    Kept only because ``benchmarks/suite/run.py`` imports it and prints
    the value as "kernel workers"; nothing in the library calls it.
    """
    return 1
