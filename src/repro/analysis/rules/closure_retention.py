"""RL005 — backward closures and tape records must not retain arena slots.

The training arena (:func:`~repro.tensor.workspace.use_training_workspace`)
recycles its slot buffers at the next step's ``begin()``: every buffer a
step's forward or backward takes is live for exactly one generation.  The
tape machinery enforces the dynamic half of that contract (closures are
dropped after each pass); this rule enforces the static half by flagging
the shapes that smuggle a slot reference past the generation boundary:

* a ``backward`` closure assigning a ws-tainted buffer to ``self.<attr>``
  or ``.append()``-ing one into any container — both outlive the closure,
  so the reference survives into the next generation where the buffer's
  contents are someone else's gradient;
* a ws-tainted buffer written to a ``global``/``nonlocal`` name from any
  function — module or enclosing-scope state persists across steps;
* a tape-record retention: a ws-tainted buffer passed to an ``append``
  on a ``nodes``/``order`` attribute (the
  :class:`~repro.tensor.tape.TrainingTape` record lists) from anywhere.

Taint is flow-insensitive, like RL003, and since the call-graph upgrade
it is **interprocedural**: a name bound to a ``ws_empty``/``ws_zeros``/
``ws_out``/``take`` call anywhere in a function (or its enclosing op
function), *or to a project helper that bottoms out in one*, taints every
use of that name in nested closures — wrapping the allocation in a
``_take_scratch()`` helper no longer hides the retention.  Resolution and
the taint fixpoint live in :mod:`repro.analysis.callgraph`.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from .base import Finding, Rule, SourceFile, call_name

WS_ALLOCATORS = ("ws_empty", "ws_zeros", "ws_out", "take")
#: the arena implementation itself manages slot lifetimes
EXCLUDED_PATHS = ("repro/tensor/workspace.py",)
#: attribute names whose .append() is a tape-record retention anywhere
TAPE_RECORD_ATTRS = ("nodes", "order")


def _is_ws_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and call_name(node) in WS_ALLOCATORS)


class ClosureRetentionRule(Rule):
    id = "RL005"
    title = "backward closure or tape record retaining an arena slot"

    def check_graph(self, project) -> Iterable[Finding]:
        from ..project import FunctionInfo
        taint = project.taint(WS_ALLOCATORS)
        for mod in project.modules.values():
            if any(fragment in mod.src.rel for fragment in EXCLUDED_PATHS):
                continue
            # Resolution context for nested scopes: calls inside closures
            # see the same module-level bindings as their enclosing defs.
            ctx = FunctionInfo(qualname=f"{mod.name}:<scope>",
                               module=mod.name, name="<scope>",
                               node=ast.parse("def _scope(): pass")
                               .body[0])
            self._taint = taint
            self._ctx = ctx
            self._project = project
            yield from self._check_scope(mod.src, mod.src.tree, set())

    def _is_tainted_call(self, node: ast.AST) -> bool:
        """Source allocator call, or a project helper whose return value
        bottoms out in one (interprocedural, via the taint engine)."""
        if _is_ws_call(node):
            return True
        return (isinstance(node, ast.Call)
                and self._taint.is_taint_call(self._ctx, node))

    def _tainted_names(self, func: ast.FunctionDef,
                       inherited: Set[str]) -> Set[str]:
        """Names bound to a ws allocation in ``func``'s own statements."""
        tainted = set(inherited)
        qual_func = self._project.functions.get(
            f"{self._ctx.module}:{func.name}")
        if qual_func is not None and qual_func.node is func:
            # module-level def: the engine already ran its fixpoint
            # (covers tainted parameters fed by other project callers)
            tainted |= self._taint.local_tainted(qual_func)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and self._is_tainted_call(
                    node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
            elif isinstance(node, ast.Assign) and isinstance(node.value,
                                                             ast.Name):
                # simple alias propagation: b = a where a is tainted
                if node.value.id in tainted:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tainted.add(target.id)
        return tainted

    def _check_scope(self, src: SourceFile, scope: ast.AST,
                     inherited: Set[str]) -> Iterable[Finding]:
        """Recurse through nested function scopes, carrying taint down."""
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                tainted = self._tainted_names(node, inherited)
                in_backward = node.name.startswith("backward")
                yield from self._check_function(src, node, tainted,
                                               in_backward)
                yield from self._check_scope(src, node, tainted)
            elif isinstance(node, (ast.ClassDef, ast.If, ast.Try,
                                   ast.With, ast.For, ast.While)):
                yield from self._check_scope(src, node, inherited)

    def _check_function(self, src: SourceFile, func: ast.FunctionDef,
                        tainted: Set[str],
                        in_backward: bool) -> Iterable[Finding]:
        declared: Set[str] = set()
        for node in func.body:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        # walk this function's own statements only; nested function
        # scopes are visited by _check_scope with their own taint sets
        stack = list(ast.iter_child_nodes(func))
        own_nodes = []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            own_nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
        for node in own_nodes:
            if isinstance(node, ast.Assign):
                value_tainted = (self._is_tainted_call(node.value)
                                 or (isinstance(node.value, ast.Name)
                                     and node.value.id in tainted))
                if not value_tainted:
                    continue
                for target in node.targets:
                    if (in_backward and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        yield self.finding(
                            src, node,
                            f"backward closure '{func.name}' stores an "
                            f"arena slot on self.{target.attr} — the "
                            f"buffer is recycled at the next generation "
                            f"and the retained reference goes stale")
                    elif (isinstance(target, ast.Name)
                          and target.id in declared):
                        yield self.finding(
                            src, node,
                            f"'{func.name}' writes an arena slot to "
                            f"{'/'.join(sorted(declared & {target.id}))} "
                            f"declared global/nonlocal — enclosing-scope "
                            f"state outlives the slot's generation")
            elif isinstance(node, ast.Call):
                yield from self._check_append(src, func, node, tainted,
                                             in_backward)

    def _check_append(self, src: SourceFile, func: ast.FunctionDef,
                      call: ast.Call, tainted: Set[str],
                      in_backward: bool) -> Iterable[Finding]:
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr == "append" and len(call.args) == 1):
            return
        arg = call.args[0]
        if not (isinstance(arg, ast.Name) and arg.id in tainted
                or self._is_tainted_call(arg)):
            return
        receiver = call.func.value
        is_tape_record = (isinstance(receiver, ast.Attribute)
                          and receiver.attr in TAPE_RECORD_ATTRS)
        if in_backward:
            yield self.finding(
                src, call,
                f"backward closure '{func.name}' appends an arena slot "
                f"to a container — anything that outlives the closure "
                f"sees the buffer recycled by the next training step")
        elif is_tape_record:
            yield self.finding(
                src, call,
                f"arena slot appended to a tape record "
                f"('.{receiver.attr}') — tape entries persist across "
                f"generations and must hold stable arrays, not "
                f"recyclable workspace buffers")
