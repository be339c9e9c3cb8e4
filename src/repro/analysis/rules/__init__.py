"""replint rule registry.

Each rule module defines one ``RLxxx`` class; :func:`default_rules` is the
ordered set the CLI and CI run.  Adding a rule = adding a module here and
a fixture pair under ``tests/analysis/fixtures``.  A rule earns its place
only while it is the sole catch for its bug class (DESIGN.md, "Invariants
& how they're enforced", holds the mutation table that judged each one).
"""

from __future__ import annotations

from typing import List

from .base import Finding, Rule, SourceFile
from .vjp_registry import VJPRegistryRule
from .comm_reduction import CommReductionRule
from .sole_writer import SoleWriterRule
from .nondet_iteration import NondetIterationRule

__all__ = ["Finding", "Rule", "SourceFile", "VJPRegistryRule",
           "CommReductionRule", "SoleWriterRule", "NondetIterationRule",
           "default_rules"]


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule, in id order."""
    return [VJPRegistryRule(), CommReductionRule(), SoleWriterRule(),
            NondetIterationRule()]
