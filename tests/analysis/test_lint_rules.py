"""replint rule tests: every rule against a known-good and a known-bad
fixture, the pragma/skip machinery, the baseline round-trip, and the
acceptance gate that the real source tree stays clean."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import lint
from repro.analysis.rules import (ArenaEscapeRule, ClosureRetentionRule,
                                  CommReductionRule, DtypeLiteralRule,
                                  InplaceMutationRule, NondetIterationRule,
                                  RngDisciplineRule, SoleWriterRule,
                                  SourceFile, VJPRegistryRule,
                                  default_rules)
from repro.analysis.rules.vjp_registry import fused_ops_with_custom_backward

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_rule(rule, filename):
    report = lint.lint_paths([FIXTURES / filename], rules=[rule],
                             root=FIXTURES)
    assert not report.parse_errors
    return report.findings


# ---------------------------------------------------------------------------
# RL001 — dtype literals
# ---------------------------------------------------------------------------
def test_rl001_flags_every_escape_shape():
    findings = run_rule(DtypeLiteralRule(), "rl001_bad.py")
    assert len(findings) == 8
    assert {f.rule for f in findings} == {"RL001"}
    messages = "\n".join(f.message for f in findings)
    assert "hard cast" in messages
    assert "np.dtype(<float literal>)" in messages
    assert "dtype=<float literal>" in messages
    assert "dtype-less np.empty" in messages
    assert "dtype-less np.full" in messages


def test_rl001_clean_on_policy_conforming_code():
    assert run_rule(DtypeLiteralRule(), "rl001_good.py") == []


def test_rl001_catches_the_diffpool_bug_shape(tmp_path):
    # Re-introducing the exact mask-cast this rule was built to catch must
    # fail the lint (the f32/f64 parity test catches it dynamically).
    snippet = tmp_path / "regression.py"
    snippet.write_text(
        "import numpy as np\n"
        "def forward(s, mask, Tensor):\n"
        "    return s * Tensor(mask[..., None].astype(np.float64))\n")
    report = lint.lint_paths([snippet], rules=[DtypeLiteralRule()],
                             root=tmp_path)
    assert len(report.findings) == 1
    assert report.findings[0].rule == "RL001"


def test_rl001_excludes_data_paths():
    rule = DtypeLiteralRule()
    src = SourceFile(Path("gen.py"), "repro/datasets/gen.py",
                     "import numpy as np\nx = np.zeros(3)\n")
    assert list(rule.check_file(src)) == []


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
# RL004 — in-place mutation
# ---------------------------------------------------------------------------
def test_rl004_flags_mutation_shapes():
    findings = run_rule(InplaceMutationRule(), "rl004_bad.py")
    assert len(findings) == 6
    messages = "\n".join(f.message for f in findings)
    assert "subscript store" in messages
    assert "augmented assignment" in messages
    assert "ufunc .at scatter" in messages
    assert "np.copyto" in messages
    assert "out= targeting" in messages


def test_rl004_clean_on_sanctioned_usage():
    assert run_rule(InplaceMutationRule(), "rl004_good.py") == []


def test_rl004_excludes_optimizers():
    rule = InplaceMutationRule()
    src = SourceFile(Path("sgd.py"), "repro/optim/sgd.py",
                     "def step(p, g):\n    p.data += g\n")
    assert list(rule.check_file(src)) == []


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


def test_rl005_real_tree_is_clean():
    report = lint.lint_paths([REPO_ROOT / "src" / "repro"],
                             rules=[ClosureRetentionRule()], root=REPO_ROOT)
    assert report.findings == []


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
# RL006 — comm-segment reduce-window discipline
# ---------------------------------------------------------------------------
def test_rl006_flags_discipline_violations():
    findings = run_rule(CommReductionRule(), "rl006_bad.py")
    assert len(findings) == 6
    assert {f.rule for f in findings} == {"RL006"}
    messages = "\n".join(f.message for f in findings)
    assert "subscript store" in messages
    assert "augmented assignment" in messages
    assert ".fill() on" in messages
    assert "out= targeting" in messages
    assert "lacks dtype=ACCUM_DTYPE" in messages


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
# RL007 — RNG-stream discipline
# ---------------------------------------------------------------------------
def test_rl007_flags_every_entropy_escape():
    findings = run_rule(RngDisciplineRule(), "rl007_bad.py")
    assert len(findings) == 6
    assert {f.rule for f in findings} == {"RL007"}
    messages = "\n".join(f.message for f in findings)
    assert "np.random.rand()" in messages
    assert "np.random.seed()" in messages
    assert "no seed draws OS entropy" in messages
    assert "unkeyed np.random.default_rng(seed)" in messages
    assert "generator-minting default argument" in messages
    assert "np.random.RandomState()" in messages


def test_rl007_clean_on_stream_tree_usage():
    assert run_rule(RngDisciplineRule(), "rl007_good.py") == []


def test_rl007_excludes_the_stream_tree_module():
    rule = RngDisciplineRule()
    src = SourceFile(Path("random.py"), "repro/tensor/random.py",
                     "import numpy as np\n"
                     "def make_rng(seed):\n"
                     "    return np.random.default_rng(seed)\n")
    assert list(rule.check_file(src)) == []


def test_rl007_real_tree_is_clean():
    report = lint.lint_paths([REPO_ROOT / "src" / "repro"],
                             rules=[RngDisciplineRule()], root=REPO_ROOT)
    assert report.findings == [], "\n".join(
        f.format() for f in report.findings)


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


def test_rl008_real_serving_module_is_clean():
    report = lint.lint_paths([REPO_ROOT / "src" / "repro"],
                             rules=[SoleWriterRule()], root=REPO_ROOT)
    assert report.findings == [], "\n".join(
        f.format() for f in report.findings)


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


def test_rl009_real_tree_is_clean():
    report = lint.lint_paths([REPO_ROOT / "src" / "repro"],
                             rules=[NondetIterationRule()], root=REPO_ROOT)
    assert report.findings == [], "\n".join(
        f.format() for f in report.findings)


# ---------------------------------------------------------------------------
# Pragmas and skip-file
# ---------------------------------------------------------------------------
def test_pragma_allows_multiple_rules(tmp_path):
    path = tmp_path / "multi.py"
    path.write_text(
        "import numpy as np\n"
        "def f(x):\n"
        "    x.data += np.zeros(3)  # replint: allow RL001, RL004 -- test\n")
    report = lint.lint_paths([path], rules=default_rules(), root=tmp_path)
    assert report.findings == []


def test_skip_file_pragma(tmp_path):
    path = tmp_path / "skipped.py"
    path.write_text("# replint: skip-file\n"
                    "import numpy as np\n"
                    "x = np.zeros(3)\n")
    report = lint.lint_paths([path], rules=default_rules(), root=tmp_path)
    assert report.findings == []


def test_stale_pragma_detection(tmp_path):
    path = tmp_path / "pragmas.py"
    path.write_text(
        "import numpy as np\n"
        # live: suppresses a real RL001 finding
        "a = np.zeros(3)  # replint: allow RL001 -- deliberate\n"
        # stale: nothing to suppress on this line
        "b = a.sum()  # replint: allow RL001 -- fixed long ago\n"
        # unknown rule id
        "c = 1  # replint: allow RL999 -- typo\n")
    report = lint.lint_paths([path], rules=default_rules(), root=tmp_path)
    stale = lint.stale_pragmas(report, default_rules())
    assert [(p.line, p.unused, p.unknown) for p in stale] == [
        (3, ("RL001",), ()),
        (4, (), ("RL999",)),
    ]
    assert "suppresses nothing" in stale[0].format()
    assert "unknown rule" in stale[1].format()


def test_docstring_pragma_mentions_are_not_pragmas(tmp_path):
    # Backtick-quoted pragma syntax in documentation must neither
    # suppress findings nor count as a stale pragma.
    path = tmp_path / "documented.py"
    path.write_text(
        '"""Suppress with ``# replint: allow RL001 -- <why>``."""\n'
        "import numpy as np\n"
        "x = np.zeros(3)\n")
    report = lint.lint_paths([path], rules=default_rules(), root=tmp_path)
    assert [f.rule for f in report.findings] == ["RL001"]
    assert lint.stale_pragmas(report, default_rules()) == []


def test_skip_file_pragmas_are_never_stale(tmp_path):
    path = tmp_path / "skipped.py"
    path.write_text("# replint: skip-file\n"
                    "x = 0  # replint: allow RL001 -- moot under skip\n")
    report = lint.lint_paths([path], rules=default_rules(), root=tmp_path)
    assert lint.stale_pragmas(report, default_rules()) == []


def test_real_tree_has_no_stale_pragmas(src_tree_lint):
    stale = lint.stale_pragmas(src_tree_lint.report, default_rules())
    assert stale == [], "\n".join(p.format() for p in stale)


def test_parse_error_is_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    report = lint.lint_paths([path], rules=default_rules(), root=tmp_path)
    assert report.findings == []
    assert len(report.parse_errors) == 1


# ---------------------------------------------------------------------------
# Baseline round-trip
# ---------------------------------------------------------------------------
def test_baseline_roundtrip_and_regressions(tmp_path):
    report = lint.lint_paths([FIXTURES / "rl001_bad.py"],
                             rules=[DtypeLiteralRule()], root=FIXTURES)
    assert report.findings
    baseline_path = tmp_path / "baseline.json"
    lint.write_baseline(report, baseline_path)
    baseline = lint.load_baseline(baseline_path)
    # Same findings replayed against their own baseline: no regressions,
    # nothing fixed.
    assert lint.regressions_against(report, baseline) == []
    assert lint.fixed_entries(report, baseline) == []
    # A brand-new finding is a regression.
    extra = report.findings[0]
    bumped = lint.LintReport(
        findings=report.findings + [type(extra)(
            rule=extra.rule, path="other.py", line=1, col=0,
            message=extra.message, text="np.zeros(9)")],
        root=report.root)
    fresh = lint.regressions_against(bumped, baseline)
    assert [f.path for f in fresh] == ["other.py"]
    # A fixed finding shows up as a shrink candidate.
    shrunk = lint.LintReport(findings=report.findings[1:], root=report.root)
    assert len(lint.fixed_entries(shrunk, baseline)) == 1


def test_baseline_counts_cap_same_line_reintroductions(tmp_path):
    # Two identical lines, baseline records one: the second is a regression.
    path = tmp_path / "dup.py"
    path.write_text("import numpy as np\n"
                    "a = np.zeros(3)\n")
    report_one = lint.lint_paths([path], rules=[DtypeLiteralRule()],
                                 root=tmp_path)
    baseline_path = tmp_path / "baseline.json"
    lint.write_baseline(report_one, baseline_path)
    path.write_text("import numpy as np\n"
                    "a = np.zeros(3)\n"
                    "b = np.zeros(3)\n")
    report_two = lint.lint_paths([path], rules=[DtypeLiteralRule()],
                                 root=tmp_path)
    fresh = lint.regressions_against(report_two,
                                     lint.load_baseline(baseline_path))
    assert len(fresh) == 1


def test_baseline_version_mismatch_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99, "findings": []}')
    with pytest.raises(ValueError, match="version"):
        lint.load_baseline(path)


# ---------------------------------------------------------------------------
# Acceptance gate: the shipped tree is clean against the shipped baseline
# ---------------------------------------------------------------------------
def test_src_tree_clean_against_checked_in_baseline(src_tree_lint):
    report = src_tree_lint.report
    assert not report.parse_errors
    baseline = lint.load_baseline(REPO_ROOT / "replint_baseline.json")
    fresh = lint.regressions_against(report, baseline)
    assert fresh == [], "\n".join(f.format() for f in fresh)


def test_findings_key_is_line_number_independent():
    f1 = lint.Finding(rule="RL001", path="a.py", line=3, col=0,
                      message="m", text="x = np.zeros(3)")
    f2 = lint.Finding(rule="RL001", path="a.py", line=30, col=4,
                      message="m2", text="x = np.zeros(3)")
    assert f1.key == f2.key
    assert Counter([f1.key, f2.key])[f1.key] == 2
