"""Tests for package metadata, the exception hierarchy, public and start-up imports and dead code."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.exceptions import (
    ConfigurationError,
    CrcError,
    DecodeError,
    LinkBudgetError,
    PacketFormatError,
    ReproError,
    SynchronizationError,
)


class TestMetadata:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ConfigurationError,
            PacketFormatError,
            DecodeError,
            SynchronizationError,
            CrcError,
            LinkBudgetError,
        ):
            assert issubclass(exc, ReproError)

    def test_decode_specialisations(self):
        assert issubclass(SynchronizationError, DecodeError)
        assert issubclass(CrcError, DecodeError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise CrcError("boom")


class TestPublicImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.utils",
            "repro.ble",
            "repro.wifi",
            "repro.wifi.dsss",
            "repro.wifi.ofdm",
            "repro.zigbee",
            "repro.backscatter",
            "repro.channel",
            "repro.core",
            "repro.apps",
            "repro.experiments",
            "repro.mc",
            "repro.netsim",
            "repro.api",
            "repro.obs",
            "repro.fabric",
            "repro.plots",
        ],
    )
    def test_subpackages_import_and_export(self, module):
        imported = importlib.import_module(module)
        assert hasattr(imported, "__all__")
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name} missing"


class TestStartUpImports:
    def test_cli_and_registry_load_without_scipy_stats_or_signal(self):
        # The two subpackages cost more than half of a process's start-up.
        # Only the Welch PSD of the spectrum figures needs scipy.signal
        # (which loads scipy.stats), and it imports it when it runs.
        code = (
            "import sys\n"
            "import repro.api, repro.api.cli\n"
            "repro.api.load_registry()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'signal'])))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


#: Public top-level names that no other ``repro`` module uses, kept on purpose.
TEST_ONLY_KEEPS = {
    "OfdmReceiver": "reference oracle: loopback check of OfdmTransmitter and of the mc bit-exactness tests",
    "GfskDemodulator": "reference oracle: roundtrip check of GfskModulator",
    "InterscatterLink": "documented entry point of the examples and the README",
    "active_collector": "repro.obs's query for the collector a block runs under",
    "matplotlib_available": "probe for the optional matplotlib backend",
}


class TestNoTestOnlyCode:
    def test_every_public_definition_is_used_outside_tests(self):
        """A public function or class that no other module names is reached only from tests.

        A name counts as used when it appears as a word in another
        non-``__init__`` module (package re-exports do not count) or is
        loaded in its own module.
        """
        root = Path(repro.__file__).parent
        sources = [path.read_text() for path in root.rglob("*.py") if path.name != "__init__.py"]
        modules_naming = Counter(word for text in sources for word in set(re.findall(r"\w+", text)))
        unused = set()
        for text in sources:
            tree = ast.parse(text)
            loaded = {
                node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for node in tree.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and modules_naming[node.name] == 1
                    and node.name not in loaded
                ):
                    unused.add(node.name)
        orphans = sorted(unused - set(TEST_ONLY_KEEPS))
        assert not orphans, f"only tests reach these; delete them or use them in src: {orphans}"
        stale = sorted(set(TEST_ONLY_KEEPS) - unused)
        assert not stale, f"TEST_ONLY_KEEPS entries that src now uses or no longer defines: {stale}"
