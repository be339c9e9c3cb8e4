"""Shared infrastructure for replint rules.

A rule inspects Python source (as an ``ast`` tree plus raw lines) and emits
:class:`Finding` objects.  Three granularities exist:

* :meth:`Rule.check_file` — per-file AST checks (RL006);
* :meth:`Rule.check_project` — whole-repo cross-reference checks (RL002
  needs both ``src/repro/tensor/ops.py`` and the ``tests/tensor`` corpus);
* :meth:`Rule.check_graph` — interprocedural checks over the call graph
  (RL003, RL005, RL008, RL009).

There is no suppression mechanism: every finding fails the run, and a
false positive is fixed in the rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line.

    :attr:`key` is ``(rule, path, text)`` — the *stripped line text*
    rather than the line number — so code scanning, which tracks results
    by it (SARIF ``partialFingerprints``), follows a finding across
    edits that only shift lines.
    """

    rule: str
    path: str          # project-relative posix path
    line: int          # 1-based
    col: int           # 0-based
    message: str
    text: str          # stripped source line the finding anchors to

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.text)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class SourceFile:
    """A parsed source file handed to every rule.

    Parsing happens once per file; rules share the tree and the raw lines.
    """

    def __init__(self, path: Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: ast.AST = ast.parse(text, filename=str(path))

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class: subclasses set ``id``/``title`` and override a hook."""

    id: str = "RL000"
    title: str = ""

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        return ()

    def check_project(self, root: Path, files: List[SourceFile]
                      ) -> Iterable[Finding]:
        return ()

    def check_graph(self, project) -> Iterable[Finding]:
        """Interprocedural checks over the
        :class:`~repro.analysis.project.ProjectIndex` built once per lint
        run (symbol table + call graph + taint engine)."""
        return ()

    # ------------------------------------------------------------------
    def finding(self, src: SourceFile, node: ast.AST,
                message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=self.id, path=src.rel, line=lineno, col=col,
                       message=message, text=src.line_text(lineno))


def call_name(node: ast.Call) -> Optional[str]:
    """Terminal name of a call: ``foo(...)`` / ``mod.foo(...)`` → ``foo``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
