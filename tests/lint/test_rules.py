"""Each RL rule fires on a bad fixture and stays silent on a good one."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source


def _lint(source: str, path: str, *rules: str) -> list:
    return lint_source(textwrap.dedent(source), path, rules=rules or None)


class TestRL002RngDiscipline:
    def test_fires_on_stdlib_random_and_legacy_numpy_api(self):
        findings = _lint(
            """
            import random
            import numpy as np

            def draw(n):
                np.random.seed(0)
                return [random.random() for _ in range(n)] + list(np.random.rand(n))
            """,
            "src/repro/mc/draws.py",
            "RL002",
        )
        assert [f.rule for f in findings] == ["RL002", "RL002", "RL002"]
        messages = " ".join(f.message for f in findings)
        assert "stdlib `random`" in messages
        assert "numpy.random.seed" in messages
        assert "numpy.random.rand" in messages

    def test_fires_on_from_random_import(self):
        findings = _lint(
            """
            from random import choice
            """,
            "src/repro/mc/draws.py",
            "RL002",
        )
        assert [f.rule for f in findings] == ["RL002"]

    def test_seeded_generators_are_allowed(self):
        findings = _lint(
            """
            import numpy as np
            from numpy.random import Generator, default_rng

            def draw(n, seed):
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                assert isinstance(rng, Generator)
                return rng.random(n)
            """,
            "src/repro/mc/draws.py",
            "RL002",
        )
        assert findings == []

    def test_local_variable_named_random_is_not_flagged(self):
        findings = _lint(
            """
            def pick(random):
                return random.choice([1, 2])
            """,
            "src/repro/mc/draws.py",
            "RL002",
        )
        assert findings == []


class TestRL003Determinism:
    def test_fires_on_clock_entropy_and_set_iteration(self):
        source = """
        import time
        import uuid

        def stamp(names):
            lines = [name for name in set(names)]
            for item in {1, 2}:
                lines.append(str(item))
            return time.time(), uuid.uuid4(), lines
        """
        findings = _lint(source, "src/repro/api/report.py", "RL003")
        assert [f.rule for f in findings] == ["RL003"] * 4
        messages = " ".join(f.message for f in findings)
        assert "time.time()" in messages
        assert "uuid.uuid4()" in messages
        assert "iterating a set" in messages

    def test_scope_only_covers_result_producing_modules(self):
        source = """
        import time

        def now():
            return time.time()
        """
        assert _lint(source, "src/repro/obs/metrics.py", "RL003") == []
        assert len(_lint(source, "src/repro/plots/render.py", "RL003")) == 1
        assert len(_lint(source, "src/repro/api/result.py", "RL003")) == 1

    def test_sorted_set_iteration_is_allowed(self):
        findings = _lint(
            """
            def lines(names):
                return [name for name in sorted(set(names))]
            """,
            "src/repro/api/report.py",
            "RL003",
        )
        assert findings == []


class TestRL004TelemetryIsolation:
    def test_fires_on_attribute_subscript_and_get(self):
        source = """
        def leak(result, document):
            a = result.telemetry
            b = document["telemetry"]
            c = document.get("telemetry")
            return a, b, c
        """
        findings = _lint(source, "src/repro/api/store.py", "RL004")
        assert [f.rule for f in findings] == ["RL004"] * 3

    def test_scope_excludes_the_obs_package(self):
        source = """
        def consume(result):
            return result.telemetry
        """
        assert _lint(source, "src/repro/obs/stats.py", "RL004") == []
        assert len(_lint(source, "src/repro/plots/gallery.py", "RL004")) == 1

    def test_other_keys_are_fine(self):
        findings = _lint(
            """
            def read(document):
                return document["payload"], document.get("params")
            """,
            "src/repro/api/store.py",
            "RL004",
        )
        assert findings == []


class TestRL005RegistryCompleteness:
    def test_fires_when_a_driver_never_registers(self):
        findings = _lint(
            """
            def run():
                return 1
            """,
            "src/repro/experiments/fig99_demo.py",
            "RL005",
        )
        assert [f.rule for f in findings] == ["RL005"]
        assert "never calls" in findings[0].message

    def test_fires_on_missing_or_none_hooks(self):
        findings = _lint(
            """
            from repro.api.registry import register

            def run():
                return 1

            register(name="fig99", title="demo", run=run, engines={"scalar": run}, plot=None)
            """,
            "src/repro/experiments/fig99_demo.py",
            "RL005",
        )
        assert [f.rule for f in findings] == ["RL005"]
        assert "metrics" in findings[0].message
        assert "plot" in findings[0].message

    def test_complete_driver_is_clean(self):
        findings = _lint(
            """
            from repro.api.registry import register

            def run():
                return 1

            def metrics(result):
                return {}

            def plot(result):
                return None

            register(
                name="fig99", title="demo", run=run,
                engines={"scalar": run}, metrics=metrics, plot=plot,
            )
            """,
            "src/repro/experiments/fig99_demo.py",
            "RL005",
        )
        assert findings == []

    def test_facade_cross_check_catches_unimported_drivers(self, tmp_path):
        from repro.lint import lint_paths

        package = tmp_path / "repro" / "experiments"
        package.mkdir(parents=True)
        driver = textwrap.dedent(
            """
            from repro.api.registry import register

            def run():
                return 1

            register(name="x", title="t", run=run, engines={"s": run}, metrics=run, plot=run)
            """
        )
        (package / "fig98_listed.py").write_text(driver)
        (package / "fig99_orphan.py").write_text(driver)
        (package / "__init__.py").write_text("from repro.experiments import fig98_listed\n")
        findings, files_checked = lint_paths([tmp_path], rules=["RL005"])
        assert files_checked == 3
        assert [f.rule for f in findings] == ["RL005"]
        assert "fig99_orphan" in findings[0].message
        assert findings[0].path.endswith("fig99_orphan.py")


class TestRL006ExceptionHygiene:
    def test_fires_on_assert_and_bare_raises(self):
        source = """
        def check(value):
            assert value > 0
            if value > 10:
                raise Exception("too big")
            raise AssertionError("unreachable")
        """
        findings = _lint(source, "src/repro/wifi/frames.py", "RL006")
        assert [f.rule for f in findings] == ["RL006"] * 3

    def test_typed_exceptions_and_reraise_are_clean(self):
        findings = _lint(
            """
            from repro.exceptions import ConfigurationError

            def check(value):
                if value <= 0:
                    raise ConfigurationError("value must be positive")
                try:
                    return 1 / value
                except ZeroDivisionError:
                    raise
            """,
            "src/repro/wifi/frames.py",
            "RL006",
        )
        assert findings == []

    def test_test_code_is_exempt(self):
        source = """
        def test_value():
            assert 1 + 1 == 2
        """
        assert _lint(source, "tests/wifi/test_frames.py", "RL006") == []
        assert _lint(source, "src/repro/conftest.py", "RL006") == []


class TestRL007DocumentValidation:
    def test_fires_on_an_unvalidated_fabric_write(self):
        findings = _lint(
            """
            import json
            from pathlib import Path

            def write_ledger(path, document):
                Path(path).write_text(json.dumps(document))
            """,
            "src/repro/fabric/ledger.py",
            "RL007",
        )
        assert [f.rule for f in findings] == ["RL007"]
        assert "write_ledger()" in findings[0].message

    def test_silent_when_the_writer_validates_first(self):
        source = """
        import json
        from pathlib import Path

        def validate_ledger(document):
            pass

        def write_ledger(path, document):
            validate_ledger(document)
            Path(path).write_text(json.dumps(document))
        """
        assert _lint(source, "src/repro/fabric/ledger.py", "RL007") == []

    def test_method_style_validators_count_too(self):
        source = """
        def publish(store, document):
            store.validate_document(document)
            store.path.write_bytes(b"...")
        """
        assert _lint(source, "src/repro/fabric/ledger.py", "RL007") == []

    def test_fires_on_json_dump_but_not_ast_dump(self):
        findings = _lint(
            """
            import json

            def publish(handle, document):
                json.dump(document, handle)
            """,
            "src/repro/fabric/ledger.py",
            "RL007",
        )
        assert [f.rule for f in findings] == ["RL007"]
        hashing = """
        import ast
        import hashlib

        def digest(tree):
            return hashlib.sha256(ast.dump(tree).encode()).hexdigest()
        """
        assert _lint(hashing, "src/repro/fabric/cas.py", "RL007") == []

    def test_def_line_pragma_blesses_the_whole_function(self):
        source = """
        from pathlib import Path

        def write_scratch(path, text):  # lint-ok: RL007 -- scratch output, not a document
            Path(path).parent.mkdir(exist_ok=True)
            Path(path).write_text(text)
        """
        assert _lint(source, "src/repro/fabric/ledger.py", "RL007") == []

    def test_modules_outside_the_fabric_are_exempt(self):
        source = """
        from pathlib import Path

        def write(path, text):
            Path(path).write_text(text)
        """
        assert _lint(source, "src/repro/api/report.py", "RL007") == []
