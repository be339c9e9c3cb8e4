"""Engine tests: project index and call-graph resolution over the
``callgraph_pkg`` fixture package (cycles, inheritance, aliased imports,
re-exports)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint
from repro.analysis.project import (ClassInfo, FunctionInfo, ProjectIndex,
                                    module_name_for)

FIXTURES = Path(__file__).parent / "fixtures"
PKG = FIXTURES / "callgraph_pkg"


def build_index():
    report = lint.lint_paths([PKG], rules=[], root=FIXTURES)
    assert not report.parse_errors
    return ProjectIndex(report.root, report.sources)


# ---------------------------------------------------------------------------
# Module naming and symbol tables
# ---------------------------------------------------------------------------
def test_module_name_derivation():
    assert module_name_for("src/repro/tensor/ops.py") == "repro.tensor.ops"
    assert module_name_for("callgraph_pkg/__init__.py") == "callgraph_pkg"
    assert module_name_for("callgraph_pkg/alpha.py") == "callgraph_pkg.alpha"


def test_index_modules_functions_and_methods():
    project = build_index()
    assert {"callgraph_pkg", "callgraph_pkg.alpha",
            "callgraph_pkg.beta"} <= set(project.modules)
    alpha = project.modules["callgraph_pkg.alpha"]
    assert set(alpha.functions) == {"entry", "ping_pong"}
    assert set(alpha.classes) == {"Base", "Helper"}
    assert set(alpha.classes["Helper"].methods) == {"__init__", "leaf",
                                                    "run"}
    # every function is registered under its qualified name
    assert "callgraph_pkg.alpha:Helper.run" in project.functions
    assert "callgraph_pkg.beta:pong" in project.functions


def test_symbol_resolution_follows_aliases_and_reexports():
    project = build_index()
    # from .beta import ping as remote_ping
    target = project.resolve_symbol("callgraph_pkg.alpha", "remote_ping")
    assert isinstance(target, FunctionInfo)
    assert target.qualname == "callgraph_pkg.beta:ping"
    # the package __init__ re-exports entry/Helper transitively
    entry = project.resolve_symbol("callgraph_pkg", "entry")
    assert isinstance(entry, FunctionInfo)
    assert entry.qualname == "callgraph_pkg.alpha:entry"
    helper = project.resolve_symbol("callgraph_pkg", "Helper")
    assert isinstance(helper, ClassInfo)
    # module alias: from . import beta as b
    mod = project.resolve_module_alias("callgraph_pkg.alpha", "b")
    assert mod is not None and mod.name == "callgraph_pkg.beta"


# ---------------------------------------------------------------------------
# Call-graph edges
# ---------------------------------------------------------------------------
def test_entry_edges_cover_every_resolution_shape():
    project = build_index()
    graph = project.callgraph()
    edges = graph.callees("callgraph_pkg.alpha:entry")
    assert edges == {
        "callgraph_pkg.alpha:Helper.__init__",   # constructor call
        "callgraph_pkg.beta:ping",               # aliased from-import
        "callgraph_pkg.beta:pong",               # module-alias attribute
        "callgraph_pkg.alpha:Helper.run",        # ClassName.method(...)
    }


def test_self_method_resolution_walks_base_classes():
    project = build_index()
    graph = project.callgraph()
    # Helper.run calls self.shared() — defined only on Base
    assert ("callgraph_pkg.alpha:Base.shared"
            in graph.callees("callgraph_pkg.alpha:Helper.run"))
    # Base.shared calls self.leaf() — Base's own leaf (static lookup,
    # not dynamic dispatch)
    assert ("callgraph_pkg.alpha:Base.leaf"
            in graph.callees("callgraph_pkg.alpha:Base.shared"))


def test_reachability_terminates_on_cycles():
    project = build_index()
    graph = project.callgraph()
    # ping → pong → ping_pong → ping is a 3-cycle across two modules
    reach = graph.reachable(["callgraph_pkg.beta:ping"])
    assert {"callgraph_pkg.beta:ping", "callgraph_pkg.beta:pong",
            "callgraph_pkg.alpha:ping_pong"} <= reach
    assert ("callgraph_pkg.beta:pong"
            in graph.callers("callgraph_pkg.beta:ping") or
            "callgraph_pkg.alpha:ping_pong"
            in graph.callers("callgraph_pkg.beta:ping"))


def test_unresolved_calls_recorded_as_external():
    project = build_index()
    graph = project.callgraph()
    assert "list" in graph.external["callgraph_pkg.beta:clean"]
