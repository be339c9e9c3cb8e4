"""RL002 fixture ops module.

``covered_op`` is named inside a gradcheck call of the fixture test
corpus; ``uncovered_op`` and ``elu`` are not (the corpus names ``relu``,
which must NOT satisfy ``elu``), and ``forward_only_op`` is only called
forward there.  Private functions and functions
without both a ``_make_child`` call and a local ``backward`` are out of
scope.
"""


def covered_op(x):
    def backward(grad):
        x._accumulate(grad)
    return x._make_child(x.data, (x,), backward)


def uncovered_op(x):
    def backward(grad):
        x._accumulate(grad * 2.0)
    return x._make_child(x.data, (x,), backward)


def forward_only_op(x):
    def backward(grad):
        x._accumulate(grad * 3.0)
    return x._make_child(x.data, (x,), backward)


def elu(x):
    def backward(grad):
        x._accumulate(grad)
    return x._make_child(x.data, (x,), backward)


def _private_op(x):
    def backward(grad):
        x._accumulate(grad)
    return x._make_child(x.data, (x,), backward)


def no_custom_backward(x):
    return x._make_child(x.data, (x,), None)


def helper_without_graph(x):
    def backward(grad):
        return grad
    return backward(x)
