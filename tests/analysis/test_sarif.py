"""SARIF emission: structure, schema validation, CLI round-trip, and the
lint-runtime budget the CI job asserts."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint
from repro.analysis.rules import CommReductionRule, default_rules
from repro.analysis.sarif import (SARIF_SUBSET_SCHEMA, SarifValidationError,
                                  _structural_validate, sarif_report,
                                  validate_sarif)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _report():
    return lint.lint_paths([FIXTURES / "rl006_bad.py"],
                           rules=[CommReductionRule()], root=FIXTURES)


# ---------------------------------------------------------------------------
# Payload structure
# ---------------------------------------------------------------------------
def test_sarif_payload_structure():
    rules = default_rules()
    payload = sarif_report(_report(), rules)
    assert payload["version"] == "2.1.0"
    assert payload["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = payload["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "replint"
    assert [r["id"] for r in driver["rules"]] == sorted(
        rule.id for rule in rules)
    assert run["results"], "bad fixture must produce results"
    for result in run["results"]:
        assert result["level"] == "error"
        assert result["message"]["text"]
        (loc,) = result["locations"]
        region = loc["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1          # SARIF is 1-based
        assert loc["physicalLocation"]["artifactLocation"]["uri"] \
            == "rl006_bad.py"
    # ruleIndex points back into the descriptor array
    result = run["results"][0]
    assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]


def test_sarif_fingerprint_is_the_finding_key():
    report = _report()
    payload = sarif_report(report, default_rules())
    keys = {r["partialFingerprints"]["replintKey/v1"]
            for r in payload["runs"][0]["results"]}
    assert keys == {"|".join(f.key) for f in report.findings}


def test_sarif_parse_errors_become_results(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    report = lint.lint_paths([path], rules=default_rules(), root=tmp_path)
    payload = sarif_report(report, default_rules())
    results = payload["runs"][0]["results"]
    assert any("parse error" in r["message"]["text"] for r in results)
    validate_sarif(payload)


# ---------------------------------------------------------------------------
# Schema validation (jsonschema is available in the test environment)
# ---------------------------------------------------------------------------
def test_sarif_validates_against_vendored_schema():
    jsonschema = pytest.importorskip("jsonschema")
    payload = sarif_report(_report(), default_rules())
    jsonschema.validate(payload, SARIF_SUBSET_SCHEMA)   # raises on failure
    validate_sarif(payload)


@pytest.mark.parametrize("mutate", [
    lambda p: p.pop("version"),
    lambda p: p.update(version="3.0.0"),
    lambda p: p["runs"][0]["tool"].pop("driver"),
    lambda p: p["runs"][0]["results"][0].pop("message"),
    lambda p: p["runs"][0]["results"][0]["locations"][0]
    ["physicalLocation"]["region"].update(startLine=0),
])
def test_sarif_validation_rejects_malformed_payloads(mutate):
    payload = sarif_report(_report(), default_rules())
    mutate(payload)
    with pytest.raises(SarifValidationError):
        validate_sarif(payload)


def test_structural_fallback_matches_jsonschema_verdicts():
    payload = sarif_report(_report(), default_rules())
    _structural_validate(payload, SARIF_SUBSET_SCHEMA)  # accepts valid
    payload["runs"][0]["results"][0]["level"] = "fatal"
    with pytest.raises(SarifValidationError, match="level"):
        _structural_validate(payload, SARIF_SUBSET_SCHEMA)


# ---------------------------------------------------------------------------
# CLI round-trips
# ---------------------------------------------------------------------------
def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tools.replint", *args],
        cwd=REPO_ROOT, capture_output=True, text=True)


def test_cli_sarif_flag_writes_valid_log(tmp_path):
    out = tmp_path / "replint.sarif"
    proc = _run_cli(str(FIXTURES / "rl006_bad.py"), "--sarif", str(out))
    assert proc.returncode == 1          # bad fixture: findings present
    payload = json.loads(out.read_text())
    validate_sarif(payload)
    assert payload["runs"][0]["results"]


def test_cli_passes_clean_tree(src_tree_lint, monkeypatch, capsys):
    # In process, on the shared whole-tree lint fixture rather than a
    # second full lint; CI's replint job runs the real CLI end to end.
    from tools.replint import __main__ as cli
    monkeypatch.setattr(cli.lint, "lint_paths",
                        lambda *args, **kwargs: src_tree_lint.report)
    assert cli.main(["src/repro"]) == 0, capsys.readouterr().out


# ---------------------------------------------------------------------------
# Lint-runtime budget (mirrored by the CI job's `timeout 30`)
# ---------------------------------------------------------------------------
def test_full_tree_lint_fits_runtime_budget(src_tree_lint):
    report, elapsed = src_tree_lint
    assert not report.parse_errors
    # CI asserts <30s wall for the whole CLI; the library run on a shared
    # runner must come in well under that.
    assert elapsed < 30.0, f"full-tree lint took {elapsed:.1f}s"
