"""SARIF 2.1.0 emission for replint.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format code-scanning UIs ingest (GitHub code scanning
uploads it via ``codeql-action/upload-sarif``).  :func:`sarif_report`
renders a :class:`~repro.analysis.lint.LintReport` as one SARIF run —
tool metadata, one ``reportingDescriptor`` per rule, one ``result`` per
finding — without touching the plain-text output.  Each result carries
the finding's ``(rule, path, line-text)`` key as a partial fingerprint.

Because the container has no network, :data:`SARIF_SUBSET_SCHEMA` vendors
the load-bearing subset of the official 2.1.0 JSON schema (required
top-level shape, run/tool/result/location structure) and
:func:`validate_sarif` checks a payload against it — with ``jsonschema``
when available, falling back to a hand-rolled structural walk so the CLI
never needs the package.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

from .lint import LintReport
from .rules import Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")
TOOL_NAME = "replint"
TOOL_URI = "https://github.com/repro/repro"

#: The subset of the SARIF 2.1.0 schema this emitter promises to satisfy.
#: Field names, required sets and types mirror the official schema;
#: ``additionalProperties`` is left open everywhere, as in the original.
SARIF_SUBSET_SCHEMA: Dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "informationUri": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                    "properties": {
                                                        "text": {"type":
                                                                 "string"}}},
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer",
                                              "minimum": 0},
                                "level": {"enum": ["none", "note",
                                                   "warning", "error"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"}}},
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type":
                                                                "string"}}},
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type":
                                                                "integer",
                                                                "minimum":
                                                                1},
                                                            "startColumn": {
                                                                "type":
                                                                "integer",
                                                                "minimum":
                                                                1}}},
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "columnKind": {"enum": ["utf16CodeUnits",
                                            "unicodeCodePoints"]},
                    "originalUriBaseIds": {"type": "object"},
                },
            },
        },
    },
}


def sarif_report(report: LintReport, rules: Sequence[Rule],
                 version: str = "0") -> Dict:
    """Render a lint report as a SARIF 2.1.0 log (one run)."""
    ordered = sorted(rules, key=lambda r: r.id)
    rule_index = {rule.id: i for i, rule in enumerate(ordered)}
    descriptors = [
        {
            "id": rule.id,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.title or rule.id},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in ordered
    ]
    results: List[Dict] = []
    for finding in report.findings:
        result = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        # SARIF columns are 1-based; ast's are 0-based.
                        "startColumn": finding.col + 1,
                        "snippet": {"text": finding.text},
                    },
                },
            }],
            # the line-number-free finding key, so scanning UIs track
            # the finding across edits that only shift lines
            "partialFingerprints": {
                "replintKey/v1": "|".join(finding.key),
            },
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        results.append(result)
    for rel, message in report.parse_errors:
        results.append({
            "ruleId": "RL000",
            "level": "error",
            "message": {"text": f"parse error: {message}"},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": rel,
                                         "uriBaseId": "SRCROOT"},
                },
            }],
        })
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "informationUri": TOOL_URI,
                    "version": version,
                    "rules": descriptors,
                },
            },
            "results": results,
            "columnKind": "utf16CodeUnits",
            "originalUriBaseIds": {
                "SRCROOT": {"uri": Path(report.root).as_uri() + "/"},
            },
        }],
    }


class SarifValidationError(ValueError):
    """Raised when a payload does not satisfy the vendored subset schema."""


def _structural_validate(payload, schema, path="$"):
    """Minimal draft-07 walk covering the constructs the subset schema
    uses: type, required, properties, items, enum, minimum."""
    kind = schema.get("type")
    if kind:
        expected = {"object": dict, "array": list, "string": str,
                    "integer": int}[kind]
        if not isinstance(payload, expected) or (
                kind == "integer" and isinstance(payload, bool)):
            raise SarifValidationError(
                f"{path}: expected {kind}, got {type(payload).__name__}")
    if "enum" in schema and payload not in schema["enum"]:
        raise SarifValidationError(
            f"{path}: {payload!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(payload, int) \
            and payload < schema["minimum"]:
        raise SarifValidationError(
            f"{path}: {payload} below minimum {schema['minimum']}")
    if isinstance(payload, dict):
        for name in schema.get("required", ()):
            if name not in payload:
                raise SarifValidationError(
                    f"{path}: missing required property '{name}'")
        for name, sub in schema.get("properties", {}).items():
            if name in payload:
                _structural_validate(payload[name], sub,
                                     f"{path}.{name}")
    if isinstance(payload, list) and "items" in schema:
        for i, entry in enumerate(payload):
            _structural_validate(entry, schema["items"], f"{path}[{i}]")


def validate_sarif(payload: Dict) -> None:
    """Validate a SARIF payload against the vendored 2.1.0 subset schema.

    Uses ``jsonschema`` when importable (full draft-07 semantics),
    otherwise the structural fallback.  Raises
    :class:`SarifValidationError` on the first violation.
    """
    try:
        import jsonschema
    except ImportError:
        _structural_validate(payload, SARIF_SUBSET_SCHEMA)
        return
    try:
        jsonschema.validate(payload, SARIF_SUBSET_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise SarifValidationError(str(exc)) from exc
