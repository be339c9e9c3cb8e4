"""RL002 fixture corpus.  ``covered_op`` and ``relu`` are named inside
gradcheck calls; ``forward_only_op`` is only called forward, which must
not count.  (Deliberately not ``test_``-prefixed so pytest never collects
it — the linter only parses this directory.)"""

import fixture_ops as T
from fixture_ops import forward_only_op, relu


def check_covered_op_gradient(x):
    assert_gradients_close(lambda t: T.covered_op(t) * 2.0, [x])


def check_relu_gradient(x):
    ok, _ = check_gradients(relu, [x])
    assert ok


def check_forward_only_op_values(x):
    assert forward_only_op(x) is not None
