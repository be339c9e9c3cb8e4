"""RL002 — every fused op with a custom backward needs a gradcheck.

The fused kernels in ``src/repro/tensor/ops.py`` carry *hand-derived*
vector-Jacobian products: a closure named ``backward`` wired into the graph
through ``Tensor._make_child``.  A wrong VJP does not crash — it trains to
a slightly worse model, which is the most expensive kind of bug to find.
The repo's defence is the finite-difference gradcheck suite under
``tests/tensor/``; this rule makes the correspondence mechanical: every
module-level public function in ``ops.py`` that (a) calls ``_make_child``
and (b) defines a local ``backward`` must be *named inside* a
``check_gradients``/``assert_gradients_close`` call somewhere in the
``tests/tensor`` corpus — as an argument or anywhere in a lambda passed to
it.  A forward-only mention (a parity test, a docstring) does not count,
and names are matched as identifiers, so ``relu`` does not satisfy
``elu``.

The rule is a project-level cross-reference: it runs once per lint
invocation when the ops file is inside the linted tree (or the project
root is known), not per file.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Set

from .base import Finding, Rule, SourceFile

OPS_RELPATH = "src/repro/tensor/ops.py"
TESTS_RELDIR = "tests/tensor"
GRADCHECKS = frozenset({"check_gradients", "assert_gradients_close"})


def fused_ops_with_custom_backward(tree: ast.AST) -> List[ast.FunctionDef]:
    """Module-level public functions calling ``_make_child`` with a local
    ``backward`` definition."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name.startswith("_"):
            continue
        calls_make_child = any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "_make_child"
            for sub in ast.walk(node))
        has_backward = any(
            isinstance(sub, ast.FunctionDef) and sub.name == "backward"
            for sub in ast.walk(node))
        if calls_make_child and has_backward:
            found.append(node)
    return found


def gradchecked_names(tree: ast.AST) -> Set[str]:
    """Every identifier (name or attribute) inside a gradcheck call."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = (func.id if isinstance(func, ast.Name) else
                  func.attr if isinstance(func, ast.Attribute) else None)
        if callee not in GRADCHECKS:
            continue
        for arg in node.args + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    return names


class VJPRegistryRule(Rule):
    id = "RL002"
    title = "fused op without a matching gradcheck in tests/tensor"

    def __init__(self, ops_relpath: str = OPS_RELPATH,
                 tests_reldir: str = TESTS_RELDIR):
        self.ops_relpath = ops_relpath
        self.tests_reldir = tests_reldir

    def check_project(self, root: Path, files: List[SourceFile]
                      ) -> Iterable[Finding]:
        ops_path = root / self.ops_relpath
        tests_dir = root / self.tests_reldir
        if not ops_path.exists() or not tests_dir.is_dir():
            return
        # Prefer the already-parsed SourceFile when ops.py was linted.
        src = next((f for f in files
                    if f.path.resolve() == ops_path.resolve()), None)
        if src is None:
            text = ops_path.read_text()
            src = SourceFile(ops_path, self.ops_relpath, text)
        covered: Set[str] = set()
        for path in sorted(tests_dir.glob("*.py")):
            covered |= gradchecked_names(ast.parse(path.read_text()))
        for node in fused_ops_with_custom_backward(src.tree):
            if node.name in covered:
                continue
            yield self.finding(
                src, node,
                f"fused op '{node.name}' wires a custom backward through "
                f"_make_child but no gradcheck call in "
                f"{self.tests_reldir}/ names it — add a finite-difference "
                f"gradcheck")
