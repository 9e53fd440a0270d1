"""The ``python -m repro lint`` verb, including the committed-tree meta-test."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.exceptions import ConfigurationError
from repro.lint import lint_paths, validate_lint_document

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_MODULE = (
    "import random\n"
    "import numpy as np\n"
    "\n"
    "def kernel(data, path):\n"
    "    np.random.seed(0)\n"
    "    path.write_text(str(np.cumsum(data) + random.random()))\n"
)


@pytest.fixture
def bad_file(tmp_path):
    # Under a repro/fabric/ path, so RL007 (document validation) applies too.
    target = tmp_path / "repro" / "fabric" / "bad_module.py"
    target.parent.mkdir(parents=True)
    target.write_text(BAD_MODULE)
    return target


class TestCommittedTree:
    def test_lint_passes_on_the_committed_tree(self, capsys, monkeypatch):
        """Meta-test: the repo obeys its own contracts (the CI gate)."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "clean" in out


class TestFindingsOutput:
    def test_bad_file_fails_with_diagnostics(self, bad_file, capsys):
        assert main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "RL002" in out
        assert "RL007" in out
        assert "hint:" in out
        assert "failed" in out

    def test_rule_filter_restricts_the_run(self, bad_file, capsys):
        assert main(["lint", "--rule", "RL006", str(bad_file)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_json_document_validates_against_the_schema(self, bad_file, capsys):
        assert main(["lint", "--json", str(bad_file)]) == 1
        document = json.loads(capsys.readouterr().out)
        validate_lint_document(document)
        assert document["summary"]["files_checked"] == 1
        assert document["summary"]["findings"] >= 3
        assert {finding["rule"] for finding in document["findings"]} == {"RL002", "RL007"}
        assert "suppressed" not in document
        assert "stale_baseline_entries" not in document
        with pytest.raises(ConfigurationError, match="lint_schema_version"):
            validate_lint_document({**document, "lint_schema_version": 1})
        assert {rule["id"] for rule in document["rules"]} == {
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
        }

    def test_markdown_table_for_ci_summaries(self, bad_file, tmp_path, capsys):
        table = tmp_path / "summary.md"
        assert main(["lint", "--markdown", str(table), str(bad_file)]) == 1
        content = table.read_text()
        assert "| Rule | Location | Message |" in content
        assert "RL002" in content
        assert f"{bad_file.as_posix()}:5" in content

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL002", "RL003", "RL004", "RL005", "RL006", "RL007"):
            assert rule_id in out

    def test_unknown_rule_is_a_clean_error(self, capsys):
        assert main(["lint", "--rule", "RL999"]) == 1
        assert "unknown lint rule" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["docs", "notes.md"])
    def test_paths_without_python_files_are_an_error(self, target, tmp_path, capsys):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "index.md").write_text("# docs\n")
        (tmp_path / "notes.md").write_text("# notes\n")
        assert main(["lint", str(tmp_path / target)]) == 1
        assert "no Python files" in capsys.readouterr().err


class TestOneWayToExcuse:
    """A ``# lint-ok`` pragma is the only excuse; no file or flag can waive a finding."""

    @pytest.mark.parametrize(
        "flags",
        [["--baseline", "lint-baseline.json"], ["--write-baseline"], ["--check"]],
        ids=["baseline", "write-baseline", "check"],
    )
    def test_removed_baseline_flags_are_rejected(self, flags, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_a_baseline_file_in_the_working_directory_waives_nothing(self, bad_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        relative = bad_file.relative_to(tmp_path).as_posix()
        findings, _ = lint_paths([relative])
        entries = [
            {
                "fingerprint": hashlib.sha256(
                    f"{finding.rule}|{finding.path}|{finding.snippet}".encode()
                ).hexdigest()[:16],
                "rule": finding.rule,
                "path": finding.path,
                "snippet": finding.snippet,
                "count": 1,
                "note": "",
            }
            for finding in findings
        ]
        (tmp_path / "lint-baseline.json").write_text(json.dumps({"version": 1, "entries": entries}))
        assert main(["lint", relative]) == 1
        out = capsys.readouterr().out
        assert "RL002" in out
        assert "failed" in out
