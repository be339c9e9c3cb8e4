"""RL006 — comm-lane writes happen only inside a reduce window.

The shared-memory lanes of ``repro/tensor/_comm.py`` are written by
several processes under a protocol barrier: a lane is touched only
between a worker receiving its step token and sending "done" (and by the
coordinator only between collecting every "done" and releasing the
workers).  The code marks that discipline with the ``@reduce_window``
decorator.

This rule enforces the placement half statically, in files that are comm
modules (path contains ``repro/tensor/_comm``) or that reference
``reduce_window``: stores whose target names comm storage (the base
expression mentions ``lane``/``segment``/``_seg``/``shm``) must be
lexically inside a ``@reduce_window``-decorated function.  Covered
shapes: subscript assignment, augmented assignment, ``.fill(...)``,
``np.copyto(target, ...)`` and ufunc ``out=target``.  A writer with the
decorator removed still passes every parity test when run serially, so
no tier-1 test holds this.  (The accumulation dtype inside a window is
pinned by ``test_write_lane_forms_weighted_grad_in_float64``.)

Reads are never flagged, and ``out=`` on ordinary local arrays outside a
window is out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .base import Finding, Rule, SourceFile

#: Substrings of a store target's *base* expression that identify comm
#: storage.  Heuristic by design: the comm module names its views
#: consistently (``lane``, ``lanes[s]``, ``segment``, ``*_seg``, shm
#: buffers), and a miss only means the dynamic sanitizer catches it
#: instead.
_SEGMENT_MARKERS = ("lane", "segment", "_seg", "shm")


def _is_window_decorator(node: ast.AST) -> bool:
    """True for ``@reduce_window`` / ``@_comm.reduce_window``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr == "reduce_window"
    return isinstance(node, ast.Name) and node.id == "reduce_window"


def _base_text(node: ast.AST) -> Optional[str]:
    """Unparsed base of a store target, subscripts stripped.

    Only the base is matched against :data:`_SEGMENT_MARKERS` so an
    index that happens to mention a lane (``buf[lane_idx]``) does not
    implicate ``buf``.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return None


def _is_segment_target(node: ast.AST) -> bool:
    text = _base_text(node)
    return text is not None and any(m in text for m in _SEGMENT_MARKERS)


class CommReductionRule(Rule):
    id = "RL006"
    title = "comm-segment write outside a reduce window"

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        if ("repro/tensor/_comm" not in src.rel
                and "reduce_window" not in src.text):
            return
        yield from self._visit(src, src.tree, in_window=False)

    # ------------------------------------------------------------------
    def _visit(self, src: SourceFile, node: ast.AST,
               in_window: bool) -> Iterable[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_window = in_window or any(_is_window_decorator(d)
                                         for d in node.decorator_list)
        yield from self._check_node(src, node, in_window)
        for child in ast.iter_child_nodes(node):
            yield from self._visit(src, child, in_window)

    def _check_node(self, src: SourceFile, node: ast.AST,
                    in_window: bool) -> Iterable[Finding]:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and _is_segment_target(target)
                        and not in_window):
                    yield self._placement(src, node, target,
                                          "subscript store into")
        elif isinstance(node, ast.AugAssign):
            if _is_segment_target(node.target) and not in_window:
                yield self._placement(src, node, node.target,
                                      "augmented assignment on")
        elif isinstance(node, ast.Call):
            yield from self._check_call(src, node, in_window)

    def _check_call(self, src: SourceFile, node: ast.Call,
                    in_window: bool) -> Iterable[Finding]:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "fill"
                and _is_segment_target(func.value) and not in_window):
            yield self._placement(src, node, func.value, ".fill() on")
        if (isinstance(func, ast.Attribute) and func.attr == "copyto"
                and node.args and _is_segment_target(node.args[0])
                and not in_window):
            yield self._placement(src, node, node.args[0],
                                  "np.copyto into")
        for kw in node.keywords:
            if (kw.arg == "out" and _is_segment_target(kw.value)
                    and not in_window):
                yield self._placement(src, node, kw.value,
                                      "out= targeting")

    def _placement(self, src: SourceFile, node: ast.AST,
                   target: ast.AST, verb: str) -> Finding:
        name = _base_text(target) or "a comm segment"
        return self.finding(
            src, node,
            f"{verb} '{name}' outside a @reduce_window function — "
            f"process-shared comm storage may only be written inside the "
            f"barrier-guarded reduce window (wrap the writer in "
            f"@reduce_window)")
