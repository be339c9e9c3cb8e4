"""RL009 — nondeterministic iteration order must not reach ordered sinks.

Python ``set`` iteration order depends on insertion history and hash
randomization; ``id()``-keyed dicts iterate in allocation-address order.
Both are harmless until the order *escapes* into something the repo
fingerprints: an RNG draw sequence (one extra draw reorders every
subsequent stream consumer), a concatenation axis, or serialized output.
Those are exactly the bitwise-reproducibility sinks the fingerprint tests
pin, and a hash-seed flip turns them into unreproducible-run bug reports.

Flagged shapes, per function:

* a ``for`` loop (or comprehension) over a set-valued expression — a
  ``set`` literal / ``set(...)`` / ``{...}`` comprehension / a name bound
  to one — or over an ``id()``-keyed dict, when the loop body consumes
  RNG (``rng.integers`` etc., or a project function that transitively
  does — resolved through the call graph);
* the same iteration feeding an ordered sink directly: the loop appends
  into a list later passed to ``np.concatenate``/``stack`` or to
  ``json``/``pickle`` serialization or ``.write()``;
* a set-valued expression passed straight into such a sink
  (``np.concatenate([f(x) for x in members])`` where ``members`` is a
  set).

``sorted(S)`` launders the order and is always sanctioned; iteration
whose effects stay order-free (membership counting, max/sum) is not
flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set, Tuple

from .base import Finding, Rule

#: np.random.Generator methods whose call consumes stream state
RNG_METHODS = ("integers", "random", "choice", "shuffle", "permutation",
               "normal", "standard_normal", "uniform", "exponential",
               "poisson", "binomial", "bytes", "spawn")
#: receiver names treated as generators for RNG-consumption detection
_CONCAT_FUNCS = ("concatenate", "stack", "hstack", "vstack",
                 "column_stack", "block")
_SERIAL_FUNCS = ("dump", "dumps")
_SERIAL_MODULES = ("json", "pickle")
_WRITE_METHODS = ("write", "writelines")


def _rng_receiver(name: str) -> bool:
    lowered = name.lower()
    return "rng" in lowered or lowered in ("gen", "generator")


def _is_rng_method_call(node: ast.Call) -> bool:
    func = node.func
    return (isinstance(func, ast.Attribute)
            and func.attr in RNG_METHODS
            and isinstance(func.value, ast.Name)
            and _rng_receiver(func.value.id))


def _sink_kind(node: ast.Call) -> Optional[str]:
    """Classify a call as an ordered sink: concat / serialize / write."""
    func = node.func
    if isinstance(func, ast.Attribute):
        if (func.attr in _CONCAT_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")):
            return f"np.{func.attr}"
        if (func.attr in _SERIAL_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id in _SERIAL_MODULES):
            return f"{func.value.id}.{func.attr}"
        if func.attr in _WRITE_METHODS:
            return f".{func.attr}()"
    return None


class NondetIterationRule(Rule):
    id = "RL009"
    title = "set/id-order iteration leaking into RNG or serialized output"

    def check_graph(self, project) -> Iterable[Finding]:
        from ..callgraph import own_nodes
        graph = project.callgraph()
        rng_consumers = self._rng_consumers(project, graph)
        for mod in project.modules.values():
            functions = list(mod.functions.values())
            for cls in mod.classes.values():
                functions.extend(cls.methods.values())
            for func in functions:
                yield from self._check_function(
                    mod.src, func, graph, rng_consumers, own_nodes)

    # ------------------------------------------------------------------
    @staticmethod
    def _rng_consumers(project, graph) -> Set[str]:
        """Project functions that (transitively) consume RNG stream
        state — direct generator-method callers, closed over callers."""
        consumers: Set[str] = set()
        for qual, func in project.functions.items():
            for node in ast.walk(func.node):
                if isinstance(node, ast.Call) and _is_rng_method_call(node):
                    consumers.add(qual)
                    break
        frontier = list(consumers)
        while frontier:
            callee = frontier.pop()
            for caller in graph.callers(callee):
                if caller not in consumers:
                    consumers.add(caller)
                    frontier.append(caller)
        return consumers

    # ------------------------------------------------------------------
    def _check_function(self, src, func, graph, rng_consumers,
                        own_nodes) -> Iterable[Finding]:
        nodes = list(own_nodes(func.node))
        set_names, idkeyed = self._collect_unordered(nodes)

        def nondet(expr: ast.AST) -> Optional[str]:
            """Describe why iterating ``expr`` is unordered, or None."""
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return "a set"
            if isinstance(expr, ast.Call):
                fn = expr.func
                if isinstance(fn, ast.Name) and fn.id == "set":
                    return "a set"
                if isinstance(fn, ast.Name) and fn.id == "sorted":
                    return None          # sorted(...) launders the order
                if (isinstance(fn, ast.Attribute)
                        and fn.attr in ("keys", "values", "items")
                        and isinstance(fn.value, ast.Name)):
                    if fn.value.id in idkeyed:
                        return f"id()-keyed dict '{fn.value.id}'"
                    if fn.value.id in set_names:
                        return f"set '{fn.value.id}'"
                return None
            if isinstance(expr, ast.Name):
                if expr.id in set_names:
                    return f"set '{expr.id}'"
                if expr.id in idkeyed:
                    return f"id()-keyed dict '{expr.id}'"
            return None

        # --- loops over unordered collections --------------------------
        sinkbound: Dict[str, Tuple[ast.For, str]] = {}
        for node in nodes:
            if not isinstance(node, ast.For):
                continue
            why = nondet(node.iter)
            if why is None:
                continue
            body_calls = [n for stmt in node.body
                          for n in ast.walk(stmt)
                          if isinstance(n, ast.Call)]
            for call in body_calls:
                if _is_rng_method_call(call) or (
                        (callee := graph.resolve_call(func, call))
                        is not None
                        and callee.qualname in rng_consumers):
                    yield self.finding(
                        src, node,
                        f"iterates {why} and consumes RNG inside the "
                        f"loop — draw order (and every stream consumer "
                        f"after it) now depends on hash randomization; "
                        f"iterate sorted(...) instead")
                    break
            for call in body_calls:
                kind = _sink_kind(call)
                if kind is not None:
                    yield self.finding(
                        src, node,
                        f"iterates {why} and feeds {kind} inside the "
                        f"loop — output order depends on hash "
                        f"randomization; iterate sorted(...) instead")
                    break
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr == "append"
                        and isinstance(call.func.value, ast.Name)):
                    sinkbound.setdefault(call.func.value.id,
                                         (node, why))

        # --- collected lists / set exprs reaching sinks ----------------
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            kind = _sink_kind(node)
            is_rng_sink = _is_rng_method_call(node)
            if kind is None and not is_rng_sink:
                continue
            label = kind if kind is not None else "an RNG draw"
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                finding = self._arg_order_leak(src, node, arg, label,
                                               nondet, sinkbound,
                                               set_names, idkeyed)
                if finding is not None:
                    yield finding

    # ------------------------------------------------------------------
    def _arg_order_leak(self, src, sink, arg, label, nondet, sinkbound,
                        set_names, idkeyed) -> Optional[Finding]:
        """First order leak inside one sink argument, if any.

        Walks the argument subtree, pruning anything under ``sorted(...)``
        (it launders the order), and reports at most one finding per
        argument so a comprehension and the set name inside it do not
        double-count."""
        stack = [arg]
        while stack:
            sub = stack.pop()
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "sorted"):
                continue
            if isinstance(sub, ast.Name) and sub.id in sinkbound:
                loop, why = sinkbound.pop(sub.id)
                return self.finding(
                    src, loop,
                    f"list '{sub.id}' is filled iterating {why} and "
                    f"later passed to {label} — the serialized/"
                    f"concatenated order depends on hash randomization; "
                    f"iterate sorted(...)")
            if isinstance(sub, (ast.ListComp, ast.GeneratorExp,
                                ast.SetComp)):
                for gen in sub.generators:
                    why = nondet(gen.iter)
                    if why is not None:
                        return self.finding(
                            src, sink,
                            f"{label} consumes a comprehension over "
                            f"{why} — element order depends on hash "
                            f"randomization; iterate sorted(...)")
            if isinstance(sub, ast.Call):
                fn = sub.func
                if (isinstance(fn, ast.Name) and fn.id in ("list", "tuple")
                        and sub.args):
                    why = nondet(sub.args[0])
                    if why is not None:
                        return self.finding(
                            src, sink,
                            f"{label} consumes {fn.id}() of {why} — "
                            f"element order depends on hash "
                            f"randomization; use sorted(...)")
            if isinstance(sub, ast.Name) and (sub.id in set_names
                                              or sub.id in idkeyed):
                return self.finding(
                    src, sink,
                    f"{label} consumes unordered collection '{sub.id}' "
                    f"directly — element order depends on hash "
                    f"randomization; use sorted(...)")
            stack.extend(ast.iter_child_nodes(sub))
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _collect_unordered(nodes) -> Tuple[Set[str], Set[str]]:
        set_names: Set[str] = set()
        idkeyed: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Assign):
                value = node.value
                is_set = (isinstance(value, (ast.Set, ast.SetComp))
                          or (isinstance(value, ast.Call)
                              and isinstance(value.func, ast.Name)
                              and value.func.id == "set"))
                if is_set:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            set_names.add(target.id)
                # d[id(x)] = ... marks d as id-keyed
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and isinstance(target.slice, ast.Call)
                            and isinstance(target.slice.func, ast.Name)
                            and target.slice.func.id == "id"):
                        idkeyed.add(target.value.id)
            elif isinstance(node, ast.Call):
                # s.add(x) / s.update(...) on a known set keeps it a set;
                # nothing to do — flow-insensitive binding is enough.
                pass
        return set_names, idkeyed
