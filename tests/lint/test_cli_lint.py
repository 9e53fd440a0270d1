"""The ``python -m repro lint`` verb, including the committed-tree meta-test."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.lint import validate_lint_document

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
    def test_lint_check_passes_on_the_committed_tree(self, capsys, monkeypatch):
        """Meta-test: the repo obeys its own contracts (the CI gate)."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--check"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "clean" in out

    def test_committed_baseline_is_empty(self):
        document = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert document == {"version": 1, "entries": []}


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


class TestBaselineWorkflow:
    def test_write_then_check_round_trip(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--baseline", str(baseline), "--write-baseline", str(bad_file)]) == 0
        assert "grandfathered" in capsys.readouterr().out

        # Grandfathered findings keep the gate green...
        assert main(["lint", "--baseline", str(baseline), "--check", str(bad_file)]) == 0
        out = capsys.readouterr().out
        assert "grandfathered finding(s) suppressed" in out

        # ...and fixing the code makes the entries stale, failing --check
        # until the baseline shrinks (but not a plain run).
        bad_file.write_text("x = 1\n")
        assert main(["lint", "--baseline", str(baseline), str(bad_file)]) == 0
        assert main(["lint", "--baseline", str(baseline), "--check", str(bad_file)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_new_findings_fail_even_with_a_baseline(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--baseline", str(baseline), "--write-baseline", str(bad_file)]) == 0
        bad_file.write_text(BAD_MODULE + "np.random.shuffle([1, 2])\n")
        assert main(["lint", "--baseline", str(baseline), "--check", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "numpy.random.shuffle" in out
