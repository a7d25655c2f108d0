"""The lint engine: parse, build the project graph, run rules, suppress.

:class:`LintEngine` binds a :class:`~repro.lint.config.LintConfig` to
the rule registry and walks files/directories.  Two rule scopes run in
one pass:

* **file** rules (REP001..REP011) see one parsed module at a time;
* **project** rules (REP101..REP106, :mod:`repro.lint.rules_xmod`) see
  the whole-program :class:`~repro.lint.graph.ProjectGraph` -- symbol
  table, import graph, approximate call graph -- built from every file
  in the run.

Suppression is by inline comment on the offending line::

    x = rng or np.random.default_rng(0)  # repro: noqa[REP007]

``# repro: noqa`` without a bracket suppresses every code on that line,
for project-scope violations exactly as for file-scope ones.  Files
that fail to parse report the pseudo-code ``REP000`` so syntax errors
cannot hide real violations.

In the files listed by ``noqa-justify`` (the sanctioned wall-clock
funnels), every noqa must name its code(s) and carry a justification
after the bracket; violations report REP011 and are checked on the raw
source line *after* suppression filtering -- a noqa comment can never
silence the audit of itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.graph import ProjectGraph
from repro.lint.rules import (
    NOQA_RE,
    PARSE_ERROR_CODE,
    FileContext,
    Rule,
    Violation,
    all_rules,
    collect_aliases,
    noqa_suppressions,
    path_matches,
)

# the cross-module pack registers its rules on import
from repro.lint import rules_xmod  # noqa: F401  (registration side effect)

#: Engine-driven rule: unjustified/blanket noqa in audited files.
NOQA_JUSTIFY_CODE = "REP011"

#: ``None`` means "all codes suppressed on this line".
_Suppressions = Dict[int, Optional[FrozenSet[str]]]

#: Backwards-compatible alias (pre-graph engine exposed this here).
_suppressions = noqa_suppressions


@dataclass
class LintReport:
    """One lint run: sorted violations plus the files it covered."""

    violations: List[Violation]
    files: List[Path]


@dataclass
class _Entry:
    """One walked file, parsed (or its REP000 failure)."""

    path: Path
    posix: str
    source: str = ""
    tree: Optional[ast.AST] = None
    parse_violations: List[Violation] = field(default_factory=list)


class LintEngine:
    """Run the registered rules over sources, files, or trees."""

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config or LintConfig()

    def rules(self) -> List[Rule]:
        """The rules enabled by this engine's select/ignore config."""
        selected = []
        for rule in all_rules():
            if self.config.select and rule.code not in self.config.select:
                continue
            if rule.code in self.config.ignore:
                continue
            selected.append(rule)
        return selected

    def file_rules(self) -> List[Rule]:
        return [r for r in self.rules() if r.scope == "file"]

    def project_rules(self) -> List[Rule]:
        return [r for r in self.rules() if r.scope == "project"]

    # -- single-file front door -------------------------------------

    def lint_source(self, source: str, path: str = "<string>") -> List[Violation]:
        """Lint one in-memory module; ``path`` scopes path-gated rules.

        Project rules run over a one-module graph, so cross-module
        checks with purely local evidence (a duplicated literal, a
        worker-reachable global write when the entrypoint is local)
        still fire.
        """
        posix = Path(path).as_posix()
        try:
            tree = ast.parse(source, filename=posix)
        except SyntaxError as exc:
            return [
                Violation(
                    code=PARSE_ERROR_CODE,
                    message=f"syntax error: {exc.msg}",
                    path=posix,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                )
            ]
        found = self._file_scope(source, posix, tree)
        graph = ProjectGraph.build([(posix, source, tree)], self.config)
        found.extend(self._project_scope(graph))
        found.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return found

    # -- rule passes ------------------------------------------------

    def _file_scope(
        self, source: str, posix: str, tree: ast.AST
    ) -> List[Violation]:
        """File rules + suppression filtering + the REP011 audit."""
        ctx = FileContext(posix, self.config)
        ctx.aliases = collect_aliases(tree)
        found: List[Violation] = []
        for rule in self.file_rules():
            if not rule.applies_to(ctx):
                continue
            found.extend(rule.check(tree, ctx))
        kept = _apply_suppressions(found, noqa_suppressions(source))
        # REP011 runs after suppression filtering on purpose: the noqa
        # comments it audits must not be able to suppress it.
        kept.extend(self._noqa_violations(source, posix))
        return kept

    def _project_scope(self, graph: ProjectGraph) -> List[Violation]:
        """Project rules over the graph, suppressed per owning file."""
        suppressions: Dict[str, _Suppressions] = {
            mod.path: mod.suppressions for mod in graph.modules.values()
        }
        out: List[Violation] = []
        seen = set()
        for rule in self.project_rules():
            for v in rule.check_project(graph):
                codes = suppressions.get(v.path, {}).get(
                    v.line, frozenset()
                )
                if codes is None or v.code in codes:
                    continue
                key = (v.code, v.path, v.line, v.col)
                if key in seen:
                    continue
                seen.add(key)
                out.append(v)
        return out

    def _noqa_violations(self, source: str, posix: str) -> List[Violation]:
        """REP011: audit noqa comments in ``noqa-justify`` files."""
        if NOQA_JUSTIFY_CODE not in {r.code for r in self.rules()}:
            return []
        if not path_matches(posix, self.config.noqa_justify):
            return []
        out: List[Violation] = []
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = NOQA_RE.search(line)
            if not m:
                continue
            codes = m.group("codes")
            justification = line[m.end():].strip()
            if codes is None:
                out.append(
                    Violation(
                        code=NOQA_JUSTIFY_CODE,
                        message=(
                            "blanket '# repro: noqa' in an audited file "
                            "suppresses every rule; name the code(s) "
                            "(e.g. noqa[REP002]) and justify after the "
                            "bracket"
                        ),
                        path=posix,
                        line=lineno,
                        col=m.start(),
                    )
                )
            elif not justification:
                pretty = ",".join(
                    c.strip() for c in codes.split(",") if c.strip()
                )
                out.append(
                    Violation(
                        code=NOQA_JUSTIFY_CODE,
                        message=(
                            f"noqa[{pretty}] in an audited file needs a "
                            "justification after the bracket saying why "
                            "the exemption is sound"
                        ),
                        path=posix,
                        line=lineno,
                        col=m.start(),
                    )
                )
        return out

    # -- tree-walking front door ------------------------------------

    def lint_file(self, path: Path) -> List[Violation]:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return [
                Violation(
                    code=PARSE_ERROR_CODE,
                    message=f"cannot read file: {exc}",
                    path=path.as_posix(),
                    line=1,
                    col=0,
                )
            ]
        return self.lint_source(source, path=path.as_posix())

    def walk(self, paths: Iterable[Path]) -> List[Path]:
        """Expand directories into sorted ``.py`` files, minus excludes."""
        out: List[Path] = []
        for path in paths:
            if path.is_dir():
                candidates = sorted(path.rglob("*.py"))
            else:
                candidates = [path]
            for c in candidates:
                if path_matches(c.as_posix(), self.config.exclude):
                    continue
                out.append(c)
        return out

    def run(self, paths: Sequence[Path]) -> LintReport:
        """Lint files/trees in one whole-program pass.

        Every file is read and parsed once; the per-file rules run over
        each parsed module and the project rules over the graph built
        from all of them.
        """
        entries: List[_Entry] = []
        for path in self.walk(paths):
            entry = _Entry(path=path, posix=path.as_posix())
            try:
                entry.source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                entry.parse_violations = [
                    Violation(
                        code=PARSE_ERROR_CODE,
                        message=f"cannot read file: {exc}",
                        path=entry.posix,
                        line=1,
                        col=0,
                    )
                ]
                entries.append(entry)
                continue
            try:
                entry.tree = ast.parse(entry.source, filename=entry.posix)
            except SyntaxError as exc:
                entry.parse_violations = [
                    Violation(
                        code=PARSE_ERROR_CODE,
                        message=f"syntax error: {exc.msg}",
                        path=entry.posix,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                    )
                ]
            entries.append(entry)

        parsed = [e for e in entries if e.tree is not None]
        graph = ProjectGraph.build(
            [(e.posix, e.source, e.tree) for e in parsed], self.config
        )

        report = LintReport(violations=[], files=[e.path for e in entries])
        for entry in entries:
            if entry.tree is None:
                report.violations.extend(entry.parse_violations)
                continue
            report.violations.extend(
                self._file_scope(entry.source, entry.posix, entry.tree)
            )

        report.violations.extend(self._project_scope(graph))
        report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return report

    def lint_paths(self, paths: Sequence[Path]) -> List[Violation]:
        """Lint files and/or directory trees; results are sorted."""
        return self.run(paths).violations


def _apply_suppressions(
    found: Sequence[Violation], suppressed: _Suppressions
) -> List[Violation]:
    kept = []
    for v in found:
        codes = suppressed.get(v.line, frozenset())
        if codes is None or v.code in codes:
            continue
        kept.append(v)
    return kept


def lint_source(
    source: str, path: str = "<string>", config: Optional[LintConfig] = None
) -> List[Violation]:
    """Module-level convenience wrapper over :class:`LintEngine`."""
    return LintEngine(config).lint_source(source, path=path)


def lint_paths(
    paths: Sequence[Path], config: Optional[LintConfig] = None
) -> List[Violation]:
    """Lint files/trees with the given (or default) config."""
    return LintEngine(config).lint_paths(paths)
