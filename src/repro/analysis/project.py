"""Project-level symbol table for the replint analysis engine.

:class:`ProjectIndex` turns the flat list of :class:`SourceFile` objects a
lint run parses into a *module* view: dotted module names, per-module
symbol tables (top-level functions, classes with their methods), and a
resolved import map (``import numpy as np``, ``from ..tensor import
make_rng``, relative imports, aliases).  The call graph
(:mod:`repro.analysis.callgraph`) and the interprocedural rules build on
this index; nothing here is rule-specific.

Module names are derived from project-relative paths: ``src/repro/x/y.py``
→ ``repro.x.y`` and ``pkg/__init__.py`` → ``pkg``.  Fixture trees linted
from their own root therefore index as flat top-level modules, so the
engine behaves identically on the real tree and on test fixtures.

Everything is computed once per lint run and shared by every rule; the
index never imports the analysed code — it is a pure AST structure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .rules.base import SourceFile


def module_name_for(rel: str) -> str:
    """Dotted module name for a project-relative posix path."""
    parts = Path(rel).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "__root__"


@dataclass(frozen=True)
class ImportedName:
    """One resolved import binding: local alias → (module, symbol).

    ``symbol`` is ``None`` for whole-module imports (``import x.y as z``
    binds ``z`` to module ``x.y``); otherwise the alias names one symbol
    from ``module`` (``from x import f as g`` binds ``g`` to ``x.f``).
    """

    module: str
    symbol: Optional[str] = None


@dataclass
class FunctionInfo:
    """One analysable function: a module-level def or a class method."""

    qualname: str              # "module:func" or "module:Class.method"
    module: str
    name: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class ClassInfo:
    """A class with its methods and (unresolved) base-name list."""

    qualname: str              # "module:Class"
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: class-level ``NAME = ("a", "b")`` string-tuple declarations —
    #: rules use these for in-code contracts (e.g. ``_DISPATCHER_OWNED``)
    declarations: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Symbol table of one module."""

    name: str
    src: SourceFile
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    imports: Dict[str, ImportedName] = field(default_factory=dict)


def _base_name(node: ast.AST) -> Optional[str]:
    """Terminal textual name of a base-class expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _string_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List)) and node.elts and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts):
        return tuple(e.value for e in node.elts)
    return None


class ProjectIndex:
    """Module symbol tables + import resolution over one lint run."""

    def __init__(self, root: Path, sources: Sequence[SourceFile]):
        self.root = root
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_rel: Dict[str, ModuleInfo] = {}
        for src in sources:
            info = self._index_module(src)
            self.modules[info.name] = info
            self.by_rel[src.rel] = info
        #: every function in the project, by qualified name
        self.functions: Dict[str, FunctionInfo] = {}
        for mod in self.modules.values():
            for func in mod.functions.values():
                self.functions[func.qualname] = func
            for cls in mod.classes.values():
                for method in cls.methods.values():
                    self.functions[method.qualname] = method
        self._callgraph = None

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_module(self, src: SourceFile) -> ModuleInfo:
        name = module_name_for(src.rel)
        is_package = Path(src.rel).name == "__init__.py"
        info = ModuleInfo(name=name, src=src)
        for node in ast.iter_child_nodes(src.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = FunctionInfo(
                    qualname=f"{name}:{node.name}", module=name,
                    name=node.name, node=node)
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(qualname=f"{name}:{node.name}", module=name,
                                name=node.name, node=node,
                                bases=[b for b in map(_base_name, node.bases)
                                       if b])
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        cls.methods[sub.name] = FunctionInfo(
                            qualname=f"{name}:{node.name}.{sub.name}",
                            module=name, name=sub.name, node=sub,
                            class_name=node.name)
                    elif isinstance(sub, ast.Assign):
                        value = _string_tuple(sub.value)
                        if value is not None:
                            for target in sub.targets:
                                if isinstance(target, ast.Name):
                                    cls.declarations[target.id] = value
                info.classes[node.name] = cls
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (alias.name if alias.asname
                              else alias.name.split(".")[0])
                    info.imports[local] = ImportedName(module=target)
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(name, node, is_package)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = ImportedName(module=base,
                                                       symbol=alias.name)
        return info

    @staticmethod
    def _resolve_from(module: str, node: ast.ImportFrom,
                      is_package: bool) -> str:
        """Absolute module targeted by a ``from ... import`` statement."""
        if not node.level:
            return node.module or ""
        parts = module.split(".")
        # level 1 = current package.  A plain module's package is its
        # name minus the leaf; an ``__init__`` module's name already IS
        # the package, so it drops one segment fewer.
        drop = node.level - 1 if is_package else node.level
        parts = parts[:len(parts) - drop] if drop else parts
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_symbol(self, module: str, name: str, _depth: int = 0
                       ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """Resolve ``name`` as seen from ``module`` to a project function
        or class, following import aliases (and package re-exports)
        transitively."""
        if _depth > 8:            # re-export cycles
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.functions:
            return info.functions[name]
        if name in info.classes:
            return info.classes[name]
        imp = info.imports.get(name)
        if imp is None:
            return None
        if imp.symbol is None:
            return None            # whole-module import: not a callable
        if imp.module in self.modules:
            return self.resolve_symbol(imp.module, imp.symbol, _depth + 1)
        return None

    def resolve_module_alias(self, module: str,
                             alias: str) -> Optional[ModuleInfo]:
        """Resolve a local name to a project *module* (``import a.b as c``
        or ``from pkg import mod``)."""
        info = self.modules.get(module)
        if info is None:
            return None
        imp = info.imports.get(alias)
        if imp is None:
            return None
        if imp.symbol is None:
            return self.modules.get(imp.module)
        return self.modules.get(f"{imp.module}.{imp.symbol}")

    def class_of(self, func: FunctionInfo) -> Optional[ClassInfo]:
        if func.class_name is None:
            return None
        mod = self.modules.get(func.module)
        return mod.classes.get(func.class_name) if mod else None

    def resolve_method(self, cls: ClassInfo, name: str,
                       _depth: int = 0) -> Optional[FunctionInfo]:
        """Find ``name`` on ``cls`` or (breadth-limited) its base classes."""
        if _depth > 8:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base_name in cls.bases:
            base = self.resolve_symbol(cls.module, base_name)
            if isinstance(base, ClassInfo):
                found = self.resolve_method(base, name, _depth + 1)
                if found is not None:
                    return found
        return None

    # ------------------------------------------------------------------
    # Derived analyses (built lazily, shared by every rule)
    # ------------------------------------------------------------------
    def callgraph(self):
        if self._callgraph is None:
            from .callgraph import CallGraph
            self._callgraph = CallGraph(self)
        return self._callgraph
