"""Engine behaviour: pragmas, rule selection, the walker and finding records."""

from __future__ import annotations

import textwrap

import pytest

from repro.exceptions import ConfigurationError
from repro.lint import Rule, get_rule, iter_rules, lint_source, register_rule, select_rules
from repro.lint.engine import ImportMap, iter_python_files, parse_source

BAD_RNG = textwrap.dedent(
    """
    import numpy as np

    np.random.seed(0)
    """
)


class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        source = "import numpy as np\nnp.random.seed(0)  # lint-ok: RL002 -- fixture\n"
        assert lint_source(source, "src/repro/mc/x.py", rules=["RL002"]) == []

    def test_pragma_for_another_rule_does_not_suppress(self):
        source = "import numpy as np\nnp.random.seed(0)  # lint-ok: RL006\n"
        findings = lint_source(source, "src/repro/mc/x.py", rules=["RL002"])
        assert [f.rule for f in findings] == ["RL002"]

    def test_multi_rule_pragma_covers_both(self):
        line = "    assert np.random.rand() < 1.0"
        source = "import numpy as np\ndef kernel(data):\n{}\n"
        bare = lint_source(source.format(line), "src/repro/mc/x.py", rules=["RL002", "RL006"])
        assert sorted(f.rule for f in bare) == ["RL002", "RL006"]
        blessed = source.format(line + "  # lint-ok: RL002, RL006")
        assert lint_source(blessed, "src/repro/mc/x.py", rules=["RL002", "RL006"]) == []

    def test_pragma_reason_text_is_optional(self):
        with_reason = "import random  # lint-ok: RL002 -- fixture needs it\n"
        without = "import random  # lint-ok: RL002\n"
        for source in (with_reason, without):
            assert lint_source(source, "src/repro/mc/x.py", rules=["RL002"]) == []


class TestRuleRegistry:
    def test_catalogue_has_the_six_contract_rules(self):
        ids = [rule.id for rule in iter_rules()]
        assert ids == ["RL002", "RL003", "RL004", "RL005", "RL006", "RL007"]

    def test_select_rules_none_means_all(self):
        assert [r.id for r in select_rules(None)] == [r.id for r in iter_rules()]

    def test_select_rules_subset(self):
        assert [r.id for r in select_rules(["RL004", "RL002"])] == ["RL004", "RL002"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ConfigurationError, match="unknown lint rule"):
            get_rule("RL999")

    def test_register_rejects_malformed_ids_and_kinds(self):
        good = get_rule("RL002")
        with pytest.raises(ConfigurationError, match="does not match"):
            register_rule(Rule(id="bogus", category="c", description="d", fix_hint="h", check=good.check))
        with pytest.raises(ConfigurationError, match="unknown kind"):
            register_rule(
                Rule(id="ZZ998", category="c", description="d", fix_hint="h", check=good.check, kind="weird"),
            )
        with pytest.raises(ConfigurationError, match="already registered"):
            register_rule(good)

    def test_scope_and_exclude_drive_applicability(self):
        rule = get_rule("RL006")
        assert rule.applies_to("src/repro/wifi/frames.py")
        assert not rule.applies_to("tests/wifi/test_frames.py")
        assert not rule.applies_to("examples/demo.py")


class TestWalker:
    def test_iter_python_files_skips_pycache_and_hidden(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "secret.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["mod.py"]

    def test_single_file_passes_through(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert list(iter_python_files([target])) == [target]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            list(iter_python_files([tmp_path / "nope"]))

    def test_syntax_error_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="cannot lint"):
            lint_source("def broken(:\n", "src/repro/mc/x.py")


class TestFindings:
    def test_findings_are_sorted_and_serializable(self):
        source = textwrap.dedent(
            """
            import random
            import numpy as np

            def kernel(data):
                assert data
                return np.random.rand(3)
            """
        )
        findings = lint_source(source, "src/repro/mc/x.py", rules=["RL006", "RL002"])
        assert {f.rule for f in findings} == {"RL002", "RL006"}
        assert [f.sort_key for f in findings] == sorted(f.sort_key for f in findings)
        for finding in findings:
            document = finding.to_dict()
            assert set(document) == {"rule", "category", "path", "line", "message", "snippet", "fix_hint"}
            assert document["snippet"] == finding.snippet

    def test_snippet_is_the_stripped_source_line(self):
        findings = lint_source(BAD_RNG, "src/repro/mc/x.py", rules=["RL002"])
        assert findings[0].snippet == "np.random.seed(0)"


class TestImportMap:
    def test_resolves_aliases_and_attribute_chains(self):
        context = parse_source(
            "import numpy as np\n"
            "import os.path\n"
            "from numpy.random import default_rng as mk\n"
        )
        imports = ImportMap(context.tree)
        assert imports.resolve("np") == "numpy"
        assert imports.resolve("os") == "os"
        assert imports.resolve("mk") == "numpy.random.default_rng"
        assert imports.resolve("undefined") is None

    def test_unimported_names_do_not_resolve(self):
        context = parse_source("np = object()\n")
        imports = ImportMap(context.tree)
        assert imports.resolve("np") is None
