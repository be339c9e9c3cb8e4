"""replint rule tests: every rule against a known-good and a known-bad
fixture, and the acceptance gate that the real source tree stays clean."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.analysis import lint
from repro.analysis.rules import (ArenaEscapeRule, ClosureRetentionRule,
                                  CommReductionRule, NondetIterationRule,
                                  SoleWriterRule, SourceFile,
                                  VJPRegistryRule, default_rules)
from repro.analysis.rules.vjp_registry import fused_ops_with_custom_backward

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_rule(rule, filename):
    report = lint.lint_paths([FIXTURES / filename], rules=[rule],
                             root=FIXTURES)
    assert not report.parse_errors
    return report.findings


def real_tree_findings(src_tree_lint, rule_id):
    """One rule's findings on ``src/repro``, read from the shared
    whole-tree lint rather than a second full run."""
    return [f.format() for f in src_tree_lint.report.findings
            if f.rule == rule_id]


# ---------------------------------------------------------------------------
# RL002 — fused-op / gradcheck correspondence
# ---------------------------------------------------------------------------
def test_rl002_fixture_project():
    root = FIXTURES / "vjp_project"
    rule = VJPRegistryRule(ops_relpath="ops.py", tests_reldir="tests")
    report = lint.lint_paths([root / "ops.py"], rules=[rule], root=root)
    flagged = sorted(f.message.split("'")[1] for f in report.findings)
    # covered_op is named in the corpus; elu must NOT be satisfied by the
    # corpus's 'relu' (word-boundary matching); private/backward-less
    # functions are out of scope.
    assert flagged == ["elu", "uncovered_op"]


def test_rl002_op_extraction():
    root = FIXTURES / "vjp_project"
    src = SourceFile(root / "ops.py", "ops.py",
                     (root / "ops.py").read_text())
    names = sorted(n.name for n in fused_ops_with_custom_backward(src.tree))
    assert names == ["covered_op", "elu", "uncovered_op"]


def test_rl002_real_repo_every_fused_op_gradchecked():
    # The live acceptance property: all fused ops in repro/tensor/ops.py
    # are cross-referenced by the tests/tensor corpus.
    rule = VJPRegistryRule()
    report = lint.lint_paths([REPO_ROOT / "src" / "repro" / "tensor"],
                             rules=[rule], root=REPO_ROOT)
    assert report.findings == []
    # ... and the extraction actually sees the fused op set (guards against
    # the rule silently matching nothing).
    ops_path = REPO_ROOT / "src" / "repro" / "tensor" / "ops.py"
    src = SourceFile(ops_path, "src/repro/tensor/ops.py",
                     ops_path.read_text())
    names = {n.name for n in fused_ops_with_custom_backward(src.tree)}
    assert {"affine", "relu", "softmax", "pair_dot"} <= names
    assert len(names) >= 15


# ---------------------------------------------------------------------------
# RL003 — arena escapes
# ---------------------------------------------------------------------------
def test_rl003_flags_escape_shapes():
    findings = run_rule(ArenaEscapeRule(), "rl003_bad.py")
    assert len(findings) == 3
    messages = "\n".join(f.message for f in findings)
    assert "stored on self.buffer" in messages
    assert "returns a ws_zeros() arena buffer" in messages
    assert "aliases a workspace arena slot" in messages


def test_rl003_clean_on_sanctioned_usage():
    assert run_rule(ArenaEscapeRule(), "rl003_good.py") == []


def test_rl003_follows_taint_through_helper_calls():
    # The interprocedural upgrade: an allocation hidden behind two
    # private helper hops still taints the public function's return.
    report = lint.lint_paths([FIXTURES / "callgraph_pkg"],
                             rules=[ArenaEscapeRule()], root=FIXTURES)
    flagged = {(f.path, f.message.split("'")[1]) for f in report.findings}
    assert ("callgraph_pkg/taints.py", "escape") in flagged
    # the private helpers themselves are not findings
    assert all(name not in ("_alloc", "_wrap")
               for _, name in flagged)


# ---------------------------------------------------------------------------
# RL005 — cross-generation retention of arena slots
# ---------------------------------------------------------------------------
def test_rl005_flags_retention_shapes():
    findings = run_rule(ClosureRetentionRule(), "rl005_bad.py")
    assert len(findings) == 4
    assert {f.rule for f in findings} == {"RL005"}
    messages = "\n".join(f.message for f in findings)
    assert "stores an arena slot on self.last_grad" in messages
    assert "appends an arena slot to a container" in messages
    assert "declared global/nonlocal" in messages
    assert "tape record" in messages


def test_rl005_clean_on_sanctioned_usage():
    assert run_rule(ClosureRetentionRule(), "rl005_good.py") == []


def test_rl005_excludes_workspace_module():
    rule = ClosureRetentionRule()
    src = SourceFile(Path("workspace.py"), "repro/tensor/workspace.py",
                     "def backward(g):\n"
                     "    global _slot\n"
                     "    _slot = ws_empty((3,), float)\n")
    assert list(rule.check_file(src)) == []


def test_rl005_real_tree_is_clean(src_tree_lint):
    assert real_tree_findings(src_tree_lint, "RL005") == []


def test_rl005_follows_taint_through_helper_calls(tmp_path):
    # Hiding the allocation behind a private helper no longer hides the
    # retention: the taint engine resolves the helper's return.
    path = tmp_path / "wrapped.py"
    path.write_text(
        "from repro.tensor.workspace import ws_empty\n"
        "def _scratch(shape):\n"
        "    return ws_empty(shape, float)\n"
        "def apply(shape):\n"
        "    gact = _scratch(shape)\n"
        "    def backward(grad, sink):\n"
        "        sink.append(gact)\n"
        "    return backward\n")
    report = lint.lint_paths([path], rules=[ClosureRetentionRule()],
                             root=tmp_path)
    assert len(report.findings) == 1
    assert "appends an arena slot" in report.findings[0].message


# ---------------------------------------------------------------------------
# RL006 — comm-segment reduce-window placement
# ---------------------------------------------------------------------------
def test_rl006_flags_discipline_violations():
    findings = run_rule(CommReductionRule(), "rl006_bad.py")
    assert len(findings) == 4
    assert {f.rule for f in findings} == {"RL006"}
    messages = "\n".join(f.message for f in findings)
    assert "subscript store" in messages
    assert "augmented assignment" in messages
    assert ".fill() on" in messages
    assert "out= targeting" in messages


def test_rl006_clean_on_disciplined_usage():
    assert run_rule(CommReductionRule(), "rl006_good.py") == []


def test_rl006_inactive_outside_comm_files():
    # A file that neither lives under repro/tensor/_comm nor mentions
    # reduce_window is out of scope, whatever it writes.
    rule = CommReductionRule()
    src = SourceFile(Path("other.py"), "repro/nn/other.py",
                     "import numpy as np\n"
                     "def f(lane, g):\n"
                     "    lane[:] = g\n")
    assert list(rule.check_file(src)) == []


def test_rl006_real_comm_module_is_clean():
    report = lint.lint_paths(
        [REPO_ROOT / "src" / "repro" / "tensor" / "_comm.py"],
        rules=[CommReductionRule()], root=REPO_ROOT)
    assert report.findings == []


# ---------------------------------------------------------------------------
# RL008 — sole-writer thread discipline
# ---------------------------------------------------------------------------
def test_rl008_flags_offthread_writes():
    findings = run_rule(SoleWriterRule(), "rl008_bad.py")
    assert len(findings) == 4
    assert {f.rule for f in findings} == {"RL008"}
    messages = "\n".join(f.message for f in findings)
    assert "calls .setdefault() on dispatcher-owned 'self._members'" \
        in messages
    assert "'BadServer._refresh'" in messages            # via call graph
    assert "'BadServer._worker_loop'" in messages
    assert "'DeclaredServer.submit'" in messages         # _DISPATCHER_OWNED


def test_rl008_clean_on_disciplined_server():
    assert run_rule(SoleWriterRule(), "rl008_good.py") == []


def test_rl008_real_serving_module_is_clean(src_tree_lint):
    assert real_tree_findings(src_tree_lint, "RL008") == []


def test_rl008_reads_graphserver_declaration():
    # The contract is declared in-code; the index must see it.
    from repro.analysis.project import ProjectIndex
    report = lint.lint_paths(
        [REPO_ROOT / "src" / "repro" / "serving" / "service.py"],
        rules=[], root=REPO_ROOT)
    project = ProjectIndex(report.root, report.sources)
    cls = project.modules["repro.serving.service"].classes["GraphServer"]
    assert cls.declarations["_DISPATCHER_OWNED"] == (
        "_structures", "_members", "_bucket_key")


# ---------------------------------------------------------------------------
# RL009 — nondeterministic iteration order
# ---------------------------------------------------------------------------
def test_rl009_flags_order_leaks():
    findings = run_rule(NondetIterationRule(), "rl009_bad.py")
    assert len(findings) == 5
    assert {f.rule for f in findings} == {"RL009"}
    messages = "\n".join(f.message for f in findings)
    assert "consumes RNG inside the loop" in messages
    assert "later passed to np.concatenate" in messages
    assert "np.stack consumes a comprehension" in messages
    assert "id()-keyed dict 'registry'" in messages
    # finding 5 rides on call-graph propagation through _draw


def test_rl009_clean_on_sorted_or_order_free_code():
    assert run_rule(NondetIterationRule(), "rl009_good.py") == []


def test_rl009_real_tree_is_clean(src_tree_lint):
    assert real_tree_findings(src_tree_lint, "RL009") == []


def test_parse_error_is_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    report = lint.lint_paths([path], rules=default_rules(), root=tmp_path)
    assert report.findings == []
    assert len(report.parse_errors) == 1


# ---------------------------------------------------------------------------
# Acceptance gate: the shipped tree has no findings
# ---------------------------------------------------------------------------
def test_src_tree_has_no_findings(src_tree_lint):
    report = src_tree_lint.report
    assert not report.parse_errors
    assert report.findings == [], "\n".join(
        f.format() for f in report.findings)


def test_findings_key_is_line_number_independent():
    f1 = lint.Finding(rule="RL003", path="a.py", line=3, col=0,
                      message="m", text="return ws_empty(3)")
    f2 = lint.Finding(rule="RL003", path="a.py", line=30, col=4,
                      message="m2", text="return ws_empty(3)")
    assert f1.key == f2.key
    assert Counter([f1.key, f2.key])[f1.key] == 2
