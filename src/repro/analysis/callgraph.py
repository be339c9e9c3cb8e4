"""Call graph + flow-insensitive interprocedural taint propagation.

Built on :class:`~repro.analysis.project.ProjectIndex`, two analyses the
interprocedural rules share:

:class:`CallGraph`
    One node per project function (module-level defs and methods); one
    edge per statically-resolvable call site.  Resolution covers plain
    names, import aliases (including re-exports), ``self.method(...)`` /
    ``cls.method(...)`` with base-class lookup, module-alias attribute
    calls (``helpers.f(...)``) and constructor calls
    (``ClassName(...)`` → ``ClassName.__init__``).  Unresolvable calls
    (numpy, stdlib, dynamic dispatch) are recorded by terminal name, so
    rules can still pattern-match externals.  Cycles are ordinary —
    reachability is BFS over the edge set.

:class:`TaintAnalysis`
    A fixpoint over the call graph answering "which values alias a taint
    source" *across* function boundaries, in both directions:

    * **returns-taint** — a function that returns a source call, a name
      bound to one, or the result of another taint-returning function is
      itself taint-returning (so ``buf = _helper()`` taints ``buf`` when
      ``_helper`` bottoms out in ``ws_empty``);
    * **parameter taint** — a tainted value passed as an argument taints
      the callee's parameter name inside the callee.

    The analysis is deliberately flow-insensitive (like the per-file
    rules it upgrades): a binding anywhere in a function taints the name
    everywhere in that function.  That over-approximates, which is the
    correct polarity for a lint — a false positive is fixed in the rule,
    a false negative is silent.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

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


class TaintAnalysis:
    """Interprocedural, flow-insensitive taint over the call graph.

    ``sources`` are callee *terminal names* whose results are tainted at
    the call site (e.g. the workspace allocators).  After construction:

    * :attr:`returns_taint` — qualnames of functions whose return value
      aliases a source;
    * :meth:`local_tainted` — tainted local names of a project function
      (parameters included);
    * :meth:`is_taint_call` / :meth:`expr_tainted` — per-expression
      queries for rules that walk nested scopes themselves.
    """

    def __init__(self, project: ProjectIndex, sources: Tuple[str, ...]):
        self.project = project
        self.sources = frozenset(sources)
        self.graph = project.callgraph()
        self.returns_taint: Set[str] = set()
        self.tainted_params: Dict[str, Set[str]] = {}
        self._local: Dict[str, Set[str]] = {}
        self._fixpoint()

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------
    def _fixpoint(self) -> None:
        functions = self.project.functions
        for _ in range(len(functions) + 2):   # monotone; bound is a guard
            changed = False
            for qual, func in functions.items():
                names = self._compute_local(func)
                if names != self._local.get(qual):
                    self._local[qual] = names
                    changed = True
                if qual not in self.returns_taint and any(
                        node.value is not None
                        and self._expr_tainted(func, node.value, names)
                        for node in own_nodes(func.node)
                        if isinstance(node, ast.Return)):
                    self.returns_taint.add(qual)
                    changed = True
                changed |= self._propagate_params(func, names)
            if not changed:
                return

    def _compute_local(self, func: FunctionInfo) -> Set[str]:
        """Tainted names in ``func``'s own scope: tainted parameters plus
        names (transitively re-)bound to tainted expressions."""
        names = set(self.tainted_params.get(func.qualname, ()))
        for _ in range(8):                     # alias chains a=b; c=a ...
            before = len(names)
            for node in own_nodes(func.node):
                if isinstance(node, ast.Assign):
                    if self._expr_tainted(func, node.value, names):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                names.add(target.id)
                elif isinstance(node, ast.AnnAssign):
                    if (node.value is not None
                            and isinstance(node.target, ast.Name)
                            and self._expr_tainted(func, node.value, names)):
                        names.add(node.target.id)
            if len(names) == before:
                break
        return names

    def _propagate_params(self, caller: FunctionInfo,
                          names: Set[str]) -> bool:
        """Mark callee parameters that receive tainted arguments."""
        changed = False
        for node in ast.walk(caller.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self.graph.resolve_call(caller, node)
            if callee is None:
                continue
            params = [a.arg for a in (callee.node.args.posonlyargs
                                      + callee.node.args.args)]
            # instance-style dispatch binds the receiver to param 0
            offset = 1 if (callee.is_method
                           and isinstance(node.func, ast.Attribute)) else 0
            bucket = self.tainted_params.setdefault(callee.qualname, set())
            for pos, arg in enumerate(node.args):
                idx = pos + offset
                if idx < len(params) and self._expr_tainted(
                        caller, arg, names) and params[idx] not in bucket:
                    bucket.add(params[idx])
                    changed = True
            for kw in node.keywords:
                if (kw.arg is not None and kw.arg in params
                        and self._expr_tainted(caller, kw.value, names)
                        and kw.arg not in bucket):
                    bucket.add(kw.arg)
                    changed = True
        return changed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _expr_tainted(self, scope: FunctionInfo, expr: ast.AST,
                      names: Set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.Call):
            return self.is_taint_call(scope, expr)
        if isinstance(expr, ast.IfExp):
            return (self._expr_tainted(scope, expr.body, names)
                    or self._expr_tainted(scope, expr.orelse, names))
        if isinstance(expr, ast.NamedExpr):
            return self._expr_tainted(scope, expr.value, names)
        return False

    def is_taint_call(self, scope: FunctionInfo, call: ast.Call) -> bool:
        """True when a call's result is tainted: a source allocator, or a
        project function whose returns are tainted."""
        if terminal_name(call) in self.sources:
            return True
        callee = self.graph.resolve_call(scope, call)
        return callee is not None and callee.qualname in self.returns_taint

    def local_tainted(self, func: FunctionInfo) -> Set[str]:
        """Tainted names of a project function at the fixpoint."""
        return self._local.get(func.qualname,
                               self._compute_local(func))

    def expr_tainted(self, scope: FunctionInfo, expr: ast.AST,
                     names: Set[str]) -> bool:
        """Public per-expression query for rules walking nested scopes
        (``names`` is the rule's own inherited-taint set)."""
        return self._expr_tainted(scope, expr, names)
