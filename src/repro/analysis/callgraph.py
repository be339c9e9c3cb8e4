"""Static call graph over a :class:`~repro.analysis.project.ProjectIndex`.

:class:`CallGraph`, shared by the interprocedural rules (RL008, RL009):
    one node per project function (module-level defs and methods); one
    edge per statically-resolvable call site.  Resolution covers plain
    names, import aliases (including re-exports), ``self.method(...)`` /
    ``cls.method(...)`` with base-class lookup, module-alias attribute
    calls (``helpers.f(...)``) and constructor calls
    (``ClassName(...)`` → ``ClassName.__init__``).  Unresolvable calls
    (numpy, stdlib, dynamic dispatch) are recorded by terminal name, so
    rules can still pattern-match externals.  Cycles are ordinary —
    reachability is BFS over the edge set.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, Optional, Set, Union

from .project import ClassInfo, FunctionInfo, ProjectIndex

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(func: FuncNode) -> Iterable[ast.AST]:
    """Walk a function's own statements, skipping nested function/lambda
    subtrees (their scopes are analysed separately)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _NESTED):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def terminal_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class CallGraph:
    """Static call graph over every function the project index knows."""

    def __init__(self, project: ProjectIndex):
        self.project = project
        #: caller qualname -> set of callee qualnames
        self.edges: Dict[str, Set[str]] = {}
        #: caller qualname -> terminal names of unresolved calls
        self.external: Dict[str, Set[str]] = {}
        self._reverse: Dict[str, Set[str]] = {}
        for qual, func in project.functions.items():
            callees: Set[str] = set()
            external: Set[str] = set()
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                target = self.resolve_call(func, node)
                if target is not None:
                    callees.add(target.qualname)
                else:
                    name = terminal_name(node)
                    if name:
                        external.add(name)
            self.edges[qual] = callees
            self.external[qual] = external
            for callee in callees:
                self._reverse.setdefault(callee, set()).add(qual)

    # ------------------------------------------------------------------
    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> Optional[FunctionInfo]:
        """Project function a call site dispatches to, if statically
        resolvable."""
        project = self.project
        func = call.func
        if isinstance(func, ast.Name):
            target = project.resolve_symbol(caller.module, func.id)
            if isinstance(target, FunctionInfo):
                return target
            if isinstance(target, ClassInfo):
                return project.resolve_method(target, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                # self.method() / cls.method() with base-class lookup
                if base.id in ("self", "cls") and caller.is_method:
                    cls = project.class_of(caller)
                    if cls is not None:
                        return project.resolve_method(cls, func.attr)
                    return None
                # module_alias.func() / module_alias.Class()
                mod = project.resolve_module_alias(caller.module, base.id)
                if mod is not None:
                    target = project.resolve_symbol(mod.name, func.attr)
                    if isinstance(target, FunctionInfo):
                        return target
                    if isinstance(target, ClassInfo):
                        return project.resolve_method(target, "__init__")
                    return None
                # ClassName.method(instance, ...)
                target = project.resolve_symbol(caller.module, base.id)
                if isinstance(target, ClassInfo):
                    return project.resolve_method(target, func.attr)
        return None

    # ------------------------------------------------------------------
    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())

    def callers(self, qualname: str) -> Set[str]:
        return self._reverse.get(qualname, set())

    def reachable(self, entries: Iterable[str]) -> Set[str]:
        """Every function reachable from ``entries`` (inclusive), BFS —
        cycles terminate because the seen-set is monotone."""
        seen: Set[str] = set()
        queue = deque(q for q in entries if q in self.edges)
        seen.update(queue)
        while queue:
            node = queue.popleft()
            for callee in self.edges.get(node, ()):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return seen
