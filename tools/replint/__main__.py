"""replint CLI.

Examples::

    python -m tools.replint src/repro
    python -m tools.replint src/repro --sarif replint.sarif

Exit status: 0 when there are no findings, 1 otherwise, 2 on unparseable
files.  ``--sarif PATH`` also writes the findings as a SARIF 2.1.0 log
for code-scanning upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import lint  # noqa: E402  (path bootstrap above)
from repro.analysis.rules import default_rules  # noqa: E402


def main(argv=None) -> int:
    rules = default_rules()
    parser = argparse.ArgumentParser(
        prog="python -m tools.replint",
        description="Static invariant checker for the repro autograd/kernel "
                    f"stack (rules {', '.join(rule.id for rule in rules)}).")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--sarif", type=Path, default=None, metavar="PATH",
                        help="also write findings as a SARIF 2.1.0 log")
    args = parser.parse_args(argv)

    paths = args.paths or [str(ROOT / "src" / "repro")]
    report = lint.lint_paths(paths, rules=rules, root=ROOT)

    for rel, message in report.parse_errors:
        print(f"{rel}: parse error: {message}", file=sys.stderr)
    for finding in report.findings:
        print(finding.format())
    summary = ", ".join(f"{rule_id}: {count}"
                        for rule_id, count in report.counts().items())
    print(f"replint: {len(report.findings)} finding(s) "
          f"({summary or 'no findings'})")

    if args.sarif is not None:
        from repro.analysis import sarif as sarif_mod
        payload = sarif_mod.sarif_report(report, rules)
        sarif_mod.validate_sarif(payload)
        args.sarif.parent.mkdir(parents=True, exist_ok=True)
        args.sarif.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"replint: wrote SARIF log ({len(report.findings)} "
              f"result(s)) to {args.sarif}")

    if report.parse_errors:
        return 2
    return 1 if report.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
