"""``repro lint``: determinism & correctness static analysis.

An AST-based rule engine that machine-enforces this reproduction's
determinism contract -- named RNG streams only, no wall-clock in the
simulated core, no unordered iteration feeding decisions, no silently
swallowed errors.  Two rule scopes share one registry:

* file-scope rules (``REP001``..``REP011``, :mod:`repro.lint.rules`)
  see one module at a time;
* project-scope rules (``REP101``..``REP106``,
  :mod:`repro.lint.rules_xmod`) see the whole-program
  :class:`~repro.lint.graph.ProjectGraph` -- symbol table, import
  graph, approximate call graph -- plus taint propagation
  (:mod:`repro.lint.taint`) over it.

The CLI (:mod:`repro.lint.cli`) adds SARIF 2.1.0 output
(:mod:`repro.lint.sarif`).

Typical library use::

    from repro.lint import LintEngine, load_config

    engine = LintEngine(load_config())
    violations = engine.lint_paths([Path("src")])
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintEngine, LintReport, lint_paths, lint_source
from repro.lint.graph import ProjectGraph
from repro.lint.rules import REGISTRY, Rule, Violation, all_rules

__all__ = [
    "LintConfig",
    "LintEngine",
    "LintReport",
    "ProjectGraph",
    "REGISTRY",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
    "lint_source",
    "load_config",
]
