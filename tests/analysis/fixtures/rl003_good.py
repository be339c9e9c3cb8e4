"""RL003 fixture: sanctioned workspace usage — zero findings."""

from repro.tensor.workspace import ws_empty


def _kernel_helper(shape, dtype):
    # Private helpers may hand slots to the kernel layer.
    return ws_empty(shape, dtype)


def consume_locally(shape, dtype):
    buf = ws_empty(shape, dtype)
    return float(buf.sum())

