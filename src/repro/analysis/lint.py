"""replint — static invariant checker for the autograd/kernel stack.

The repo's load-bearing invariants are mostly held by tier-1 tests (the
dtype-stability parity tests, the weight-fingerprint pins, the parameter
gradient checks).  replint keeps a rule only where it is the sole catch
for its bug class:

========  ==========================================================
RL002     fused ops with custom VJPs lacking a gradcheck
RL003     workspace arena buffers escaping their replay step
RL005     backward closures / tape records retaining arena slots
          across training-arena generations
RL006     comm-lane writes outside a ``@reduce_window`` function
RL008     off-dispatcher writes to the server's sole-writer caches
RL009     set / ``id()``-dict iteration order reaching RNG draws,
          concatenation or serialized output
========  ==========================================================

Usage (library)::

    from repro.analysis import lint
    report = lint.lint_paths(["src/repro"])
    for f in report.findings:
        print(f.format())

Usage (CLI): ``python -m tools.replint src/repro`` — see ``tools/replint``.
Every finding fails the run; a false positive is fixed in the rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .project import ProjectIndex
from .rules import Finding, Rule, SourceFile, default_rules

PathLike = Union[str, Path]


def find_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the directory holding ``pyproject.toml``.

    Falls back to ``start`` itself (or its parent for files) so relative
    paths stay stable even outside a full checkout (fixture trees).
    """
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for candidate in (node, *node.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return node


def _collect_files(paths: Sequence[PathLike]) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(p for p in path.rglob("*.py")
                                if "__pycache__" not in p.parts))
        elif path.suffix == ".py":
            files.append(path)
    return files


@dataclass
class LintReport:
    """Findings plus the context needed to render them."""

    findings: List[Finding]
    root: Path
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: the parsed sources of this run
    sources: List[SourceFile] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        counter: Counter = Counter(f.rule for f in self.findings)
        return dict(sorted(counter.items()))


def lint_paths(paths: Sequence[PathLike],
               rules: Optional[Sequence[Rule]] = None,
               root: Optional[PathLike] = None) -> LintReport:
    """Lint files/directories and return a :class:`LintReport`.

    ``root`` anchors project-relative finding paths and the RL002
    cross-reference; when omitted it is auto-detected from the first
    linted path via ``pyproject.toml``.
    """
    rules = list(rules) if rules is not None else default_rules()
    files = _collect_files(paths)
    root_path = (Path(root).resolve() if root is not None
                 else find_project_root(files[0] if files
                                        else Path.cwd()))
    sources: List[SourceFile] = []
    parse_errors: List[Tuple[str, str]] = []
    for path in files:
        try:
            rel = path.resolve().relative_to(root_path).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            sources.append(SourceFile(path, rel, path.read_text()))
        except SyntaxError as exc:  # unparseable file is itself a finding
            parse_errors.append((rel, str(exc)))

    project = ProjectIndex(root_path, sources)
    findings: List[Finding] = []
    for rule in rules:
        for src in sources:
            findings.extend(rule.check_file(src))
        findings.extend(rule.check_project(root_path, sources))
        findings.extend(rule.check_graph(project))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintReport(findings=findings, root=root_path,
                      parse_errors=parse_errors, sources=list(sources))
