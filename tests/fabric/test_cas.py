"""Code digests and the one resume rule built on them.

A stored envelope is reused only when its invocation key matches the
spec's and its ``source_hash`` equals the current
:func:`~repro.fabric.cas.driver_source_hash` — a digest of the source text
of the whole ``repro`` package.  Any edit, in the driver or in a module it
imports, a comment or blank line included, re-executes; ``resume=False``
re-executes regardless.  The runner tests drive the real
:class:`~repro.api.Runner` against a real store with edited source served
through the ``cas.module_source`` seam, so the end-to-end resume path is
what's under test — not just the hash function.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.api import ResultStore, Runner
from repro.api.spec import ExperimentSpec
from repro.fabric import cas

#: A module the ``table_power`` driver imports (the driver itself lives in
#: ``experiments/table_power.py``), and a behavioural edit of it.
_IMPORTED = "backscatter/power.py"
_SYNTHESIZER = '"frequency_synthesizer": 9.69,'
_SYNTHESIZER_EDITED = '"frequency_synthesizer": 19.69,'


def _resolved(name):
    return ExperimentSpec(experiment=name).resolve()


class TestDriverSourceHash:
    def test_registered_drivers_share_the_package_digest(self):
        digest = cas.driver_source_hash(_resolved("fig13"))
        assert isinstance(digest, str) and len(digest) == 64
        assert cas.driver_source_hash(_resolved("table_power")) == digest

    def test_a_driver_outside_the_package_adds_its_own_module(self, monkeypatch):
        package = cas.driver_source_hash(_resolved("fig13"))
        outside = cas.driver_source_hash(types.SimpleNamespace(module=__name__))
        assert outside is not None and outside != package
        # An exec'd module has no source to read: never reusable.
        monkeypatch.setitem(sys.modules, "exec_driver", types.ModuleType("exec_driver"))
        assert cas.driver_source_hash(types.SimpleNamespace(module="exec_driver")) is None

    def test_unavailable_source_is_uncacheable_not_fatal(self, monkeypatch):
        def boom(relative):
            raise OSError("no source")

        monkeypatch.setattr(cas, "_module_digests", {})
        monkeypatch.setattr(cas, "module_source", boom)
        assert cas.driver_source_hash(_resolved("fig13")) is None

    def test_digest_is_built_from_the_text_of_the_files_on_disk(self):
        # No parse and no Python-version-dependent dump: the digest is a
        # function of the files on disk alone.
        def sha256(text):
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        root = Path(repro.__file__).resolve().parent
        texts = {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8") for path in root.rglob("*.py")}
        lines = "".join(f"{relative} {sha256(texts[relative])}\n" for relative in sorted(texts))
        assert cas.driver_source_hash(_resolved("fig13")) == sha256(lines)

    def test_a_package_without_module_sources_is_uncacheable(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cas, "_PACKAGE_ROOT", tmp_path)
        cas._package_modules.cache_clear()
        try:
            assert cas.driver_source_hash(_resolved("fig13")) is None
        finally:
            cas._package_modules.cache_clear()

    def test_digest_is_independent_of_cwd_and_hash_seed(self, tmp_path):
        # Shards on other machines and --jobs workers compute the digest
        # on their own; it must not depend on where or how they start.
        code = (
            "from repro.api.spec import ExperimentSpec\n"
            "from repro.fabric.cas import driver_source_hash\n"
            "print(driver_source_hash(ExperimentSpec(experiment='fig13').resolve()))\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
            "PYTHONHASHSEED": "12345",
        }
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == cas.driver_source_hash(_resolved("fig13"))


@pytest.fixture
def edit_source(monkeypatch):
    """Serve an edited copy of one package module through ``cas.module_source``.

    Only that module's memoised digest is dropped, so the rest of the
    package is not read again; monkeypatch restores the real digest when
    the test ends.
    """
    cas.driver_source_hash(_resolved("table_power"))  # the memo now holds every real digest
    read = cas.module_source

    def edit(relative, transform):
        edited = transform(read(relative))
        assert edited != read(relative)
        monkeypatch.setattr(cas, "module_source", lambda path: edited if path == relative else read(path))
        monkeypatch.delitem(cas._module_digests, relative, raising=False)

    return edit


def _fig13():
    return ExperimentSpec(experiment="fig13", params={"step_feet": 4.0}, engine="batch")


def _run(runner, store, spec=None, **kwargs):
    """Run a one-spec batch and return its was-cached flag."""
    flags = []
    runner.run_batch([spec or _fig13()], store=store, on_result=lambda i, r, c: flags.append(c), **kwargs)
    return flags[0]


class TestResume:
    def test_cold_store_misses_warm_rerun_hits_no_resume_re_executes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = Runner(telemetry=False)
        assert _run(runner, store) is False
        assert _run(runner, store) is True
        assert _run(runner, store, resume=False) is False

    def test_behavioural_edit_of_an_imported_module_misses(self, tmp_path, edit_source):
        store = ResultStore(tmp_path / "store")
        runner = Runner(telemetry=False)
        spec = ExperimentSpec(experiment="table_power")
        assert _run(runner, store, spec) is False
        assert _run(runner, store, spec) is True
        edit_source(_IMPORTED, lambda text: text.replace(_SYNTHESIZER, _SYNTHESIZER_EDITED))
        assert _run(runner, store, spec) is False
        # The store now holds the invocation twice; the envelope the
        # edited code wrote is the one that matches.
        assert _run(runner, store, spec) is True

    @pytest.mark.parametrize(
        "transform",
        [
            lambda text: text.replace(_SYNTHESIZER, _SYNTHESIZER + "  # synthesizer, µW"),
            lambda text: text.replace("\n_REFERENCE_POWER_UW", "\n\n\n_REFERENCE_POWER_UW"),
        ],
        ids=["comment", "blank-lines"],
    )
    def test_formatting_edit_of_an_imported_module_misses(self, tmp_path, edit_source, transform):
        # The digest hashes text, so it cannot tell a comment from code:
        # it may re-execute what would not change, never reuse what would.
        store = ResultStore(tmp_path / "store")
        runner = Runner(telemetry=False)
        spec = ExperimentSpec(experiment="table_power")
        assert _run(runner, store, spec) is False
        edit_source(_IMPORTED, transform)
        assert _run(runner, store, spec) is False

    def test_unhashable_driver_fails_safe_to_re_execution(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        runner = Runner(telemetry=False)

        def boom(relative):
            raise OSError("no source")

        monkeypatch.setattr(cas, "_module_digests", {})
        monkeypatch.setattr(cas, "module_source", boom)
        assert _run(runner, store) is False
        assert _run(runner, store) is False  # never a false hit

    def test_envelope_without_source_hash_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        document = Runner(telemetry=False).run(_fig13()).to_dict()
        document.pop("source_hash")  # an envelope from before the fabric existed
        store.append_document(document)
        assert _run(Runner(telemetry=False), store) is False

    def test_a_batch_reads_each_module_at_most_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cas, "_module_digests", {})
        reads: Counter[str] = Counter()
        read = cas.module_source

        def counting_read(relative):
            reads[relative] += 1
            return read(relative)

        monkeypatch.setattr(cas, "module_source", counting_read)
        specs = [
            ExperimentSpec(experiment="fig13", params={"step_feet": 2.0 + index}, engine="batch")
            for index in range(50)
        ]
        Runner(telemetry=False).run_batch(specs, store=ResultStore(tmp_path / "store"))
        assert set(reads) == set(cas._package_modules())
        assert max(reads.values()) == 1


class TestOneDigestPerExperiment:
    def test_a_batch_hashes_each_experiment_once_and_stamps_every_envelope(self, tmp_path, monkeypatch):
        calls: Counter[str] = Counter()
        digest = cas.driver_source_hash

        def counting_digest(experiment):
            calls[experiment.name] += 1
            return digest(experiment)

        monkeypatch.setattr(cas, "driver_source_hash", counting_digest)
        specs = [
            ExperimentSpec(experiment=name, engine="batch", seed=seed)
            for name in ("fig13", "fig14", "fig17")
            for seed in (1, 2, 3)
        ]
        runner = Runner(telemetry=False)
        store = ResultStore(tmp_path / "store")
        for batch_store in (None, store, store):  # no store, then cold and warm on one store
            calls.clear()
            results = runner.run_batch(specs, store=batch_store)
            assert calls == {"fig13": 1, "fig14": 1, "fig17": 1}
            assert [result.source_hash for result in results] == [
                digest(_resolved(result.experiment)) for result in results
            ]


class TestImportOrder:
    def test_fabric_imports_standalone_before_the_api_package(self):
        # runner.py and the repro.fabric package import each other's
        # packages; a fresh interpreter that touches repro.fabric first must
        # not trip the cycle (tests import repro.api first, which hides it).
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.fabric; import repro.api"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
