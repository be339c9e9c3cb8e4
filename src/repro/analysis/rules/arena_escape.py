"""RL003 — workspace arena buffers must not escape a replay step.

``ws_empty``/``ws_zeros``/``ws_out`` hand out slots from the active
:class:`~repro.tensor.workspace.Workspace`; slot *i* of forward *n+1* is
the *same ndarray* as slot *i* of forward *n*.  A buffer that outlives the
forward that took it will be silently overwritten on the next replay —
the classic stale-arena bug the runtime poison sanitizer catches
dynamically.  This rule catches the two static escape shapes:

* a ws-buffer stored on ``self`` (``self.cache = ws_empty(...)``) — object
  state outlives every forward by construction;
* a ws-buffer returned from a module-level **public** function — the
  caller has no way to know the array is recyclable.

Since the call-graph upgrade the rule is **interprocedural**: taint
follows values through project helper calls in both directions (a private
helper that returns a slot taints its callers' bindings; a slot passed as
an argument taints the callee's parameter), so moving an allocation into
a helper no longer hides the escape.  Resolution and the taint fixpoint
live in :mod:`repro.analysis.callgraph`.

Scope note: *methods* returning slot buffers are deliberately out of
scope — the segment-plan kernels return slots into the op wrappers that
immediately wrap them in a ``Tensor`` via ``_make_child`` (the documented
workspace contract: returned tensors alias slots and callers copy what
they keep).  The arena's own accessors in ``repro/tensor/workspace.py``
are excluded for the same reason, and a call wrapped in a constructor
(``Tensor(ws_out(...))``) is not a tainted *return* — the wrapper owns
the aliasing contract.

The tracking is flow-insensitive on purpose: a name bound to a ws-call
(or to a taint-returning helper's result) anywhere in a function taints
every ``return <name>`` in that function.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .base import Finding, Rule, SourceFile, call_name

WS_ALLOCATORS = ("ws_empty", "ws_zeros", "ws_out")
EXCLUDED_PATHS = ("repro/tensor/workspace.py",)


def _is_ws_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and call_name(node) in WS_ALLOCATORS)


class ArenaEscapeRule(Rule):
    id = "RL003"
    title = "workspace buffer escaping its replay step"

    def check_graph(self, project) -> Iterable[Finding]:
        from ..callgraph import own_nodes
        taint = project.taint(WS_ALLOCATORS)
        for mod in project.modules.values():
            if any(fragment in mod.src.rel for fragment in EXCLUDED_PATHS):
                continue
            functions = list(mod.functions.values())
            for cls in mod.classes.values():
                functions.extend(cls.methods.values())
            for func in functions:
                names = taint.local_tainted(func)
                yield from self._check_self_stores(mod.src, func, taint,
                                                   names, own_nodes)
                if func.class_name is None and func.is_public:
                    yield from self._check_returns(mod.src, func, taint,
                                                   names, own_nodes)

    # ------------------------------------------------------------------
    def _check_self_stores(self, src: SourceFile, func, taint, names,
                           own_nodes) -> Iterable[Finding]:
        for node in own_nodes(func.node):
            if not isinstance(node, ast.Assign):
                continue
            if not taint.expr_tainted(func, node.value, names):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    yield self.finding(
                        src, node,
                        f"arena buffer from {self._origin(node.value)} "
                        f"stored on self.{target.attr} — object state "
                        f"outlives the replay step and the slot will "
                        f"be overwritten by the next forward")

    def _check_returns(self, src: SourceFile, func, taint, names,
                       own_nodes) -> Iterable[Finding]:
        for node in own_nodes(func.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if _is_ws_call(value):
                yield self.finding(
                    src, node,
                    f"public function '{func.name}' returns a "
                    f"{call_name(value)}() arena buffer — the caller "
                    f"cannot know the array is recycled on the next replay")
            elif isinstance(value, ast.Call) and taint.is_taint_call(
                    func, value):
                yield self.finding(
                    src, node,
                    f"public function '{func.name}' returns the result of "
                    f"'{call_name(value)}()', which bottoms out in a "
                    f"workspace arena slot — copy it or keep the "
                    f"escape private to the kernel layer")
            elif (isinstance(value, ast.Name)
                  and taint.expr_tainted(func, value, names)):
                yield self.finding(
                    src, node,
                    f"public function '{func.name}' returns '{value.id}', "
                    f"which aliases a workspace arena slot — copy it or "
                    f"keep the function private to the kernel layer")

    @staticmethod
    def _origin(value: ast.AST) -> str:
        if isinstance(value, ast.Call):
            name = call_name(value)
            if name:
                return f"{name}()"
        if isinstance(value, ast.Name):
            return f"'{value.id}'"
        return "a tainted expression"
