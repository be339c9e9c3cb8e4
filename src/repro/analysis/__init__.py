"""repro.analysis — static invariant checking + runtime sanitizers.

Two halves of one discipline:

* :mod:`repro.analysis.lint` (CLI: ``python -m tools.replint``) checks the
  source tree against the invariants no tier-1 test can hold —
  VJP/gradcheck correspondence (RL002), arena buffer lifetimes (RL003,
  RL005), comm-lane reduce windows (RL006), the server's sole-writer
  caches (RL008) and iteration-order leaks (RL009).
* :mod:`repro.analysis.sanitize` enforces the dynamic counterparts at run
  time when enabled via :func:`repro.sanitize` or ``REPRO_SANITIZE=1`` —
  NaN/Inf detection at the op choke point, workspace poison-on-release,
  segment-kernel dtype contracts.  Exactly zero-cost when off.
"""

from __future__ import annotations

from .lint import LintReport, find_project_root, lint_paths
from .rules import (ArenaEscapeRule, Finding, Rule, SourceFile,
                    VJPRegistryRule, default_rules)
from .sanitize import (SanitizerError, assert_unpatched, disable_sanitizer,
                       enable_sanitizer, env_requested, sanitize,
                       sanitizer_enabled, sanitizer_paused)

__all__ = [
    # lint
    "LintReport", "lint_paths", "find_project_root",
    # rules
    "Finding", "Rule", "SourceFile", "default_rules", "VJPRegistryRule",
    "ArenaEscapeRule",
    # sanitizers
    "SanitizerError", "sanitize", "enable_sanitizer", "disable_sanitizer",
    "sanitizer_enabled", "sanitizer_paused", "assert_unpatched",
    "env_requested",
]
