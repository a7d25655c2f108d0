"""SARIF output, CLI additions, and docs sync."""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.cli import main
from repro.lint import LintEngine, all_rules, sarif
from repro.lint.config import LintConfig

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSarif:
    def test_clean_run_validates(self):
        doc = sarif.render([], LintEngine(LintConfig()).rules())
        assert sarif.validate(doc) == []
        assert doc["version"] == "2.1.0"

    def test_violations_round_trip(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        engine = LintEngine(LintConfig())
        violations = engine.lint_paths([tmp_path])
        assert violations
        doc = sarif.render(violations, engine.rules())
        assert sarif.validate(doc) == []
        results = doc["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {v.code for v in violations}
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_rule_catalogue_covers_every_result(self):
        engine = LintEngine(LintConfig())
        doc = sarif.render([], engine.rules())
        ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert {r.code for r in engine.rules()} <= ids
        assert "REP000" in ids  # parse failures resolve to a rule too

    def test_validator_catches_malformed_docs(self):
        assert sarif.validate([]) != []
        assert sarif.validate({"version": "2.1.0"}) != []
        doc = sarif.render([], [])
        doc["runs"][0]["results"] = [{"ruleId": 7}]
        assert sarif.validate(doc) != []

    def test_cli_sarif_output_parses_and_validates(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("x = y == 1.5\n")
        assert main(["lint", str(tmp_path), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert sarif.validate(doc) == []
        assert doc["runs"][0]["results"]


class TestCliAdditions:
    def test_epilogue_range_tracks_registry(self, capsys):
        from repro.lint.cli import _catalogue_range

        rng = _catalogue_range()
        assert rng.startswith("REP001")
        assert rng.endswith(max(r.code for r in all_rules()))

    def test_list_rules_includes_project_scope(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP106" in out and "project" in out


class TestDocsSync:
    """The README rule table stays in lock-step with the registry."""

    ROW = re.compile(
        r"^\|\s*(REP\d{3})\s*\|\s*([a-z0-9-]+)\s*\|", re.MULTILINE
    )

    def test_readme_table_matches_registry(self):
        text = (REPO_ROOT / "README.md").read_text()
        documented = {m.group(1): m.group(2) for m in self.ROW.finditer(text)}
        live = {r.code: r.name for r in all_rules()}
        assert documented == live, (
            "README 'Determinism enforcement' table out of sync with "
            "repro.lint REGISTRY"
        )

    def test_pyproject_comment_names_live_range(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "REP001..REP010" not in text
        codes = sorted(r.code for r in all_rules())
        file_codes = sorted(
            r.code for r in all_rules() if r.scope == "file"
        )
        project_codes = sorted(
            r.code for r in all_rules() if r.scope == "project"
        )
        assert f"{file_codes[0]}..{file_codes[-1]}" in text
        assert f"{project_codes[0]}..{project_codes[-1]}" in text
        assert codes  # registry is non-empty by construction

    def test_streams_manifest_covers_audited_call_sites(self):
        """Every statically-extractable stream in src/ is manifest-covered
        (the self-lint asserts this end to end; here we assert the
        manifest itself is non-trivial so REP102 runs in coverage mode)."""
        from repro.lint import load_config

        cfg = load_config(REPO_ROOT / "pyproject.toml")
        manifest = dict(cfg.streams)
        assert len(manifest) >= 10
        assert manifest["trial-clients"] == ("repro/placement/scenario.py",)
        assert "faults.worker.*" in manifest
