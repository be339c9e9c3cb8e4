"""RL008 — dispatcher-owned server state has exactly one writing thread.

The serving front end (:class:`repro.serving.service.GraphServer`) runs
three thread populations: callers entering through ``submit`` /
``submit_many``, worker threads in ``_worker_loop``, and one dispatcher
in ``_dispatch_loop``.  The collation caches the dispatcher batches
through (``_structures``, ``_members``, ``_bucket_key``) are deliberately
*unlocked* — their memory-safety argument is sole-writer discipline, not
a mutex: only code on the dispatcher thread may mutate them.

This rule makes that argument static.  For every class that defines a
``_dispatch_loop`` method it computes the set of methods call-graph
reachable from the non-dispatcher entry points (``submit``,
``submit_many``, ``_worker_loop``) and flags any write to a protected
attribute from that set: plain/augmented/subscript assignment to
``self.<attr>``, or a mutating method call (``append``, ``update``,
``batch``, …) on ``self.<attr>``.  ``__init__`` is exempt — construction
happens before the threads exist.

The protected set defaults to the GraphServer trio and can be declared
in-code per class::

    class MyServer:
        _DISPATCHER_OWNED = ("_cache", "_cursor")

so the contract lives next to the state it covers and the linter reads
it from the AST.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from .base import Finding, Rule

DISPATCH_METHOD = "_dispatch_loop"
ENTRY_METHODS = ("submit", "submit_many", "_worker_loop")
#: protected attributes when a server class declares no _DISPATCHER_OWNED
DEFAULT_OWNED = ("_structures", "_members", "_bucket_key")
DECLARATION = "_DISPATCHER_OWNED"
#: method names that mutate their receiver in-place
MUTATORS = ("append", "extend", "insert", "add", "update", "setdefault",
            "pop", "popitem", "remove", "discard", "clear", "batch",
            "sort", "reverse")


def _self_attr(node: ast.AST):
    """``self.<attr>`` → attr name, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


class SoleWriterRule(Rule):
    id = "RL008"
    title = "dispatcher-owned state written off the dispatcher thread"

    def check_graph(self, project) -> Iterable[Finding]:
        from ..callgraph import own_nodes
        graph = project.callgraph()
        for mod in project.modules.values():
            for cls in mod.classes.values():
                if DISPATCH_METHOD not in cls.methods:
                    continue
                owned = frozenset(cls.declarations.get(DECLARATION,
                                                       DEFAULT_OWNED))
                entries = [cls.methods[name].qualname
                           for name in ENTRY_METHODS
                           if name in cls.methods]
                reachable = graph.reachable(entries)
                for method in cls.methods.values():
                    if method.name == "__init__":
                        continue
                    if method.qualname not in reachable:
                        continue
                    yield from self._check_method(mod.src, cls, method,
                                                  owned, own_nodes)

    # ------------------------------------------------------------------
    def _check_method(self, src, cls, method, owned: Set[str],
                      own_nodes) -> Iterable[Finding]:
        def flag(node, attr, how):
            return self.finding(
                src, node,
                f"'{cls.name}.{method.name}' is reachable from "
                f"submit/worker entry points but {how} dispatcher-owned "
                f"'self.{attr}' — only the {DISPATCH_METHOD} thread may "
                f"write it (sole-writer discipline is the only thing "
                f"making the unlocked reads safe)")

        for node in own_nodes(method.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    attr = _self_attr(target)
                    if attr in owned:
                        yield flag(node, attr, "assigns")
                    elif isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                        if attr in owned:
                            yield flag(node, attr, "writes a key of")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                    if attr in owned:
                        yield flag(node, attr, "deletes from")
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in MUTATORS):
                    attr = _self_attr(func.value)
                    if attr in owned:
                        yield flag(node, attr,
                                   f"calls .{func.attr}() on")
