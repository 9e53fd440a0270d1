"""The repo's six static contracts, checked on the AST of every module of the package.

The paper's documents are rebuilt byte for byte from seeded runs, and six
conventions hold that together: seeded-Generator RNG (RL002), determinism
of the modules whose output is committed (RL003), telemetry isolation
(RL004), complete driver registration (RL005), typed exceptions (RL006)
and validated fabric documents (RL007).  A test catches a breach only
when it happens to run the offending line, so each convention is also
checked on the source (the table in ``docs/architecture.md`` § Static
guarantees states each one).

Each check is a plain function from one module's tree to ``(line,
message)`` pairs; RL005's takes the whole ``path → tree`` map, because it
compares the drivers with the façade.  :data:`SCOPES` says where each
contract holds.  Nothing in the source excuses a finding: a module that
must break a contract leaves its scope here, where the change is
reviewed.  A new contract is a check, its scope, a bad probe it flags and
a good probe it passes.
"""

from __future__ import annotations

import ast
import re
import textwrap
from collections.abc import Mapping
from pathlib import Path

import pytest

import repro

_DRIVERS = r"repro/experiments/(?!__init__\.py)[^/]+\.py$"
_FACADE = r"repro/experiments/__init__\.py$"

#: Where each contract holds: a path regex and an exclusion regex (or
#: ``None``), searched in ``repro/...`` posix paths.
SCOPES: dict[str, tuple[str, str | None]] = {
    "RL002": (r"repro/", None),
    # What these modules emit is committed and diffed byte for byte.
    "RL003": (r"repro/(api/(report|result)\.py|plots/[^/]+\.py)$", None),
    # Where result identity is defined and envelopes become documents.
    "RL004": (r"repro/(api/(report|store)\.py|plots/[^/]+\.py)$", None),
    # The drivers; the façade is matched by _FACADE.
    "RL005": (_DRIVERS, None),
    # Test code asserts by design.
    "RL006": (r"repro/", r"(^|/)tests?/|(^|/)test_[^/]+\.py$|conftest\.py$"),
    "RL007": (r"repro/fabric/", None),
}

Finding = tuple[str, int, str]


def in_scope(rule: str, path: str) -> bool:
    scope, exclude = SCOPES[rule]
    return bool(re.search(scope, path)) and not (exclude and re.search(exclude, path))


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name → dotted path, for every import in *tree* at any nesting level."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    names[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node: ast.AST, imports: Mapping[str, str]) -> str | None:
    """Dotted path of a ``Name``/``Attribute`` chain rooted in an import.

    A name that was never imported gives ``None``, so a local variable
    cannot pass for a module.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in imports:
        return None
    return ".".join([imports[node.id], *reversed(parts)])


def _call_name(node: ast.Call) -> str | None:
    """The called name: ``register`` for both ``register(...)`` and ``api.register(...)``."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return node.func.id if isinstance(node.func, ast.Name) else None


# fmt: off
#: The non-legacy core of ``numpy.random``: seeded generators and the bit
#: generators that feed them.  Everything else on it is global state.
_NP_RANDOM_OK = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    }
)
# fmt: on

_STDLIB_RANDOM = "stdlib `random` is process-global state; draw from a seeded numpy Generator instead"
_LEGACY_RNG = "{} is the legacy global-state RNG API; use np.random.default_rng(seed) / Generator methods"


def check_rng_discipline(tree: ast.Module) -> list[tuple[int, str]]:
    """RL002: no stdlib ``random`` import and no legacy ``numpy.random`` member."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, _STDLIB_RANDOM) for module in modules if module.split(".")[0] == "random"]
    imports = _import_map(tree)
    inner: set[ast.AST] = set()  # the links of a numpy chain already judged by its outermost node
    for node in ast.walk(tree):
        if node in inner or not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        dotted = _dotted(node, imports) or ""
        if dotted != "numpy" and not dotted.startswith("numpy."):
            continue
        link = node
        while isinstance(link, ast.Attribute):
            inner.add(link.value)
            link = link.value
        if dotted.startswith("numpy.random.") and dotted.split(".")[2] not in _NP_RANDOM_OK:
            found.append((node.lineno, _LEGACY_RNG.format(dotted)))
    return found


#: Clock and entropy calls, each with why it has no place in output.
_NONDETERMINISTIC_CALLS = {
    "time.time": "use no clock in result-producing code (runtimes ride the envelope separately)",
    "time.time_ns": "use no clock in result-producing code",
    "datetime.datetime.now": "generated documents must not embed timestamps",
    "datetime.datetime.utcnow": "generated documents must not embed timestamps",
    "datetime.date.today": "generated documents must not embed dates",
    "os.urandom": "seed a numpy Generator instead of reading OS entropy",
    "uuid.uuid1": "derive identifiers from content hashes, not UUIDs",
    "uuid.uuid4": "derive identifiers from content hashes, not UUIDs",
}

_SET_ITERATION = "iterating a set in a result-producing module leaks hash order into output"


def _is_set(node: ast.expr, imports: Mapping[str, str]) -> bool:
    """A set display or comprehension, or a call of the ``set``/``frozenset`` builtin."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
        and node.func.id not in imports
    )


def check_determinism(tree: ast.Module) -> list[tuple[int, str]]:
    """RL003: no clock or entropy call, and no iteration over a set expression."""
    imports = _import_map(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func, imports)
            if dotted in _NONDETERMINISTIC_CALLS:
                message = f"{dotted}() in a result-producing module: {_NONDETERMINISTIC_CALLS[dotted]}"
                found.append((node.lineno, message))
            continue
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables = [generator.iter for generator in node.generators]
        else:
            continue
        found += [(iterable.lineno, _SET_ITERATION) for iterable in iterables if _is_set(iterable, imports)]
    return found


_TELEMETRY = (
    "the `telemetry` envelope key must not influence result identity, reports or figures (read it in repro.obs only)"
)


def _reads_telemetry(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "telemetry"
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) and node.slice.value == "telemetry"
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "telemetry"
    )


def check_telemetry_isolation(tree: ast.Module) -> list[tuple[int, str]]:
    """RL004: no ``.telemetry``, ``["telemetry"]`` or ``.get("telemetry")`` read."""
    return [(node.lineno, _TELEMETRY) for node in ast.walk(tree) if _reads_telemetry(node)]


#: Keywords every driver's ``register(...)`` must pass, and not as ``None``,
#: for the campaign, report and figure pipeline to cover it.
_REQUIRED_HOOKS = ("engines", "metrics", "plot")


def _facade_imports(tree: ast.Module) -> set[str]:
    """Driver modules a package façade imports."""
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.module or "").endswith(".experiments") or (node.level >= 1 and node.module is None)
        ):
            imported.update(alias.name for alias in node.names)
    return imported


def check_registry_completeness(modules: Mapping[str, ast.Module]) -> list[Finding]:
    """RL005: each driver registers every hook and is imported by the façade.

    The façade cross-check runs when *modules* holds a façade.
    """
    facades = [tree for path, tree in modules.items() if re.search(_FACADE, path)]
    facade_imports = set().union(*map(_facade_imports, facades)) if facades else None
    found = []
    for path, tree in modules.items():
        if not in_scope("RL005", path):
            continue
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _call_name(node) == "register"]
        if not calls:
            found.append((path, 1, "experiment driver module never calls repro.api.register(...)"))
        for call in calls:
            hooks = {keyword.arg: keyword.value for keyword in call.keywords if keyword.arg}
            missing = [
                name
                for name in _REQUIRED_HOOKS
                if name not in hooks or (isinstance(hooks[name], ast.Constant) and hooks[name].value is None)
            ]
            if missing:
                found.append((path, call.lineno, f"register(...) is missing required hook(s): {', '.join(missing)}"))
        module = path.rsplit("/", 1)[-1].removesuffix(".py")
        if facade_imports is not None and module not in facade_imports:
            message = f"driver {module!r} is not imported by repro/experiments/__init__.py, so it never registers"
            found.append((path, 1, message))
    return found


_ASSERT = "`assert` in library code vanishes under python -O; raise a repro.exceptions type"
_UNTYPED_RAISE = "raise {} is uncatchable-by-type for callers; use a repro.exceptions type"


def check_exception_hygiene(tree: ast.Module) -> list[tuple[int, str]]:
    """RL006: no ``assert`` and no raise of an untyped exception."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, _ASSERT))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("Exception", "BaseException", "AssertionError"):
                found.append((node.lineno, _UNTYPED_RAISE.format(exc.id)))
    return found


_UNVALIDATED_WRITE = "function {}() writes a document without round-tripping a validate_*() checker first"


def _writes_document(call: ast.Call, imports: Mapping[str, str]) -> bool:
    if isinstance(call.func, ast.Attribute) and call.func.attr in ("write_text", "write_bytes"):
        return True
    return _dotted(call.func, imports) == "json.dump"


def check_document_validation(tree: ast.Module) -> list[tuple[int, str]]:
    """RL007: a function that writes a document also calls a ``validate_*()`` checker."""
    imports = _import_map(tree)
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
        writes = [call for call in calls if _writes_document(call, imports)]
        if writes and not any((_call_name(call) or "").startswith("validate_") for call in calls):
            found.append((writes[0].lineno, _UNVALIDATED_WRITE.format(function.name)))
    return found


FILE_CHECKS = {
    "RL002": check_rng_discipline,
    "RL003": check_determinism,
    "RL004": check_telemetry_isolation,
    "RL006": check_exception_hygiene,
    "RL007": check_document_validation,
}


def violations(rule: str, modules: Mapping[str, ast.Module]) -> list[Finding]:
    """``(path, line, message)`` for each breach of *rule* in *modules*, sorted."""
    if rule == "RL005":
        return sorted(check_registry_completeness(modules))
    check = FILE_CHECKS[rule]
    return sorted(
        (path, line, message) for path, tree in modules.items() if in_scope(rule, path) for line, message in check(tree)
    )


def _render(rule: str, found: list[Finding]) -> str:
    return "\n".join(f"{path}:{line}: {rule} {message}" for path, line, message in found)


@pytest.fixture(scope="module")
def package() -> dict[str, ast.Module]:
    """Every module of the installed package, by ``repro/...`` posix path."""
    root = Path(repro.__file__).parent
    return {
        path.relative_to(root.parent).as_posix(): ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(root.rglob("*.py"))
    }


@pytest.mark.parametrize("rule", sorted(SCOPES))
def test_every_module_in_scope_holds_the_contract(rule, package):
    found = violations(rule, package)
    assert not found, "\n" + _render(rule, found)


@pytest.mark.parametrize(("rule", "at_least"), [("RL003", 8), ("RL004", 8), ("RL005", 14), ("RL007", 5)])
def test_scope_matches_the_modules_it_guards(rule, at_least, package):
    """Each narrow scope matches at least the modules it matched when it was written.

    A renamed module or a wrong regex then fails here, instead of leaving a
    contract with nothing to check.
    """
    matched = [path for path in package if in_scope(rule, path)]
    assert len(matched) >= at_least, f"{rule}'s scope {SCOPES[rule][0]!r} matches only {matched}"


def test_the_facade_cross_check_runs_on_the_package(package):
    assert [path for path in package if re.search(_FACADE, path)] == ["repro/experiments/__init__.py"]


_CLOCK = """
import time

def now():
    return time.time()
"""

_TELEMETRY_READ = """
def consume(result):
    return result.telemetry
"""

_TEST_CODE = """
def test_value():
    assert 1 + 1 == 2
"""

_DRIVER = """
from repro.api.registry import register

def run():
    return 1

register(name="x", title="t", run=run, engines={"s": run}, metrics=run, plot=run)
"""

#: (rule, path → source, number of findings, substrings of the rendered findings).
BAD_PROBES = [
    pytest.param(
        "RL002",
        {
            "repro/mc/draws.py": """
            import random
            import numpy as np

            def draw(n):
                np.random.seed(0)
                return [random.random() for _ in range(n)] + list(np.random.rand(n))
            """,
        },
        3,
        ("stdlib `random`", "numpy.random.seed", "numpy.random.rand"),
        id="RL002-stdlib-random-and-legacy-numpy",
    ),
    pytest.param("RL002", {"repro/mc/draws.py": "from random import choice\n"}, 1, ("stdlib",), id="RL002-from-random"),
    pytest.param(
        "RL002",
        {"repro/mc/bad.py": "import numpy as np\nnp.random.seed(0)\n"},
        1,
        ("repro/mc/bad.py:2: RL002 numpy.random.seed",),
        id="RL002-global-seed-under-mc",
    ),
    pytest.param(
        "RL002",
        {
            "repro/mc/draws.py": """
            import numpy as npy
            import numpy.random
            from numpy.random import rand as uniform

            npy.random.shuffle([1, 2])
            numpy.random.seed(0)
            uniform(3)
            """,
        },
        3,
        ("numpy.random.shuffle", "numpy.random.seed", "numpy.random.rand"),
        id="RL002-aliases-resolve",
    ),
    pytest.param(
        "RL002",
        {"repro/mc/draws.py": "import random as rnd\n\nrnd.seed(0)\n"},
        1,
        ("repro/mc/draws.py:1: RL002 stdlib",),
        id="RL002-aliased-stdlib-import",
    ),
    pytest.param(
        "RL002",
        {
            "repro/mc/draws.py": """
            def draw():
                import numpy as np
                return np.random.normal()
            """,
        },
        1,
        ("repro/mc/draws.py:4: RL002 numpy.random.normal",),
        id="RL002-import-inside-a-function",
    ),
    pytest.param(
        "RL002",
        {"repro/mc/draws.py": "import numpy as np\n\nrng = np.random.RandomState(0)\n"},
        1,
        ("numpy.random.RandomState",),
        id="RL002-random-state",
    ),
    pytest.param(
        "RL002",
        {"repro/mc/draws.py": "from numpy import random as npr\n\nsample = npr.normal\n"},
        1,
        ("repro/mc/draws.py:3: RL002 numpy.random.normal",),
        id="RL002-legacy-function-as-a-value",
    ),
    pytest.param(
        "RL003",
        {
            "repro/api/report.py": """
            import time
            import uuid

            def stamp(names):
                lines = [name for name in set(names)]
                for item in {1, 2}:
                    lines.append(str(item))
                return time.time(), uuid.uuid4(), lines
            """,
        },
        4,
        ("time.time()", "uuid.uuid4()", "iterating a set"),
        id="RL003-clock-entropy-and-set-iteration",
    ),
    pytest.param("RL003", {"repro/plots/render.py": _CLOCK}, 1, ("time.time()",), id="RL003-in-plots"),
    pytest.param("RL003", {"repro/api/result.py": _CLOCK}, 1, ("time.time()",), id="RL003-in-result"),
    pytest.param(
        "RL003",
        {
            "repro/api/report.py": """
            from datetime import datetime

            def header():
                return f"generated {datetime.now()}"
            """,
        },
        1,
        ("repro/api/report.py:5: RL003 datetime.datetime.now()",),
        id="RL003-datetime-now-from-import",
    ),
    pytest.param(
        "RL003",
        {"repro/plots/gallery.py": "import os\n\ndef token():\n    return os.urandom(8).hex()\n"},
        1,
        ("os.urandom()",),
        id="RL003-os-urandom",
    ),
    pytest.param(
        "RL003",
        {"repro/api/report.py": "def index(names):\n    return {name: len(name) for name in frozenset(names)}\n"},
        1,
        ("repro/api/report.py:2: RL003 iterating a set",),
        id="RL003-frozenset-in-a-comprehension",
    ),
    pytest.param(
        "RL004",
        {
            "repro/api/store.py": """
            def leak(result, document):
                a = result.telemetry
                b = document["telemetry"]
                c = document.get("telemetry")
                return a, b, c
            """,
        },
        3,
        ("repro/api/store.py:3:", "repro/api/store.py:4:", "repro/api/store.py:5:"),
        id="RL004-attribute-subscript-and-get",
    ),
    pytest.param("RL004", {"repro/plots/gallery.py": _TELEMETRY_READ}, 1, ("`telemetry`",), id="RL004-in-plots"),
    pytest.param("RL004", {"repro/api/report.py": _TELEMETRY_READ}, 1, ("`telemetry`",), id="RL004-in-report"),
    pytest.param(
        "RL005",
        {"repro/experiments/fig99_demo.py": "def run():\n    return 1\n"},
        1,
        ("never calls",),
        id="RL005-driver-never-registers",
    ),
    pytest.param(
        "RL005",
        {
            "repro/experiments/fig99_demo.py": """
            from repro.api.registry import register

            def run():
                return 1

            register(name="fig99", title="demo", run=run, engines={"scalar": run}, plot=None)
            """,
        },
        1,
        ("missing required hook(s): metrics, plot",),
        id="RL005-missing-or-none-hooks",
    ),
    pytest.param(
        "RL005",
        {
            "repro/experiments/__init__.py": "from repro.experiments import fig98_listed\n",
            "repro/experiments/fig98_listed.py": _DRIVER,
            "repro/experiments/fig99_orphan.py": _DRIVER,
        },
        1,
        ("repro/experiments/fig99_orphan.py:1: RL005 driver 'fig99_orphan' is not imported",),
        id="RL005-facade-misses-a-driver",
    ),
    pytest.param(
        "RL005",
        {
            "repro/experiments/__init__.py": "from . import fig98_listed\n",
            "repro/experiments/fig98_listed.py": _DRIVER,
            "repro/experiments/fig99_orphan.py": _DRIVER,
        },
        1,
        ("driver 'fig99_orphan' is not imported",),
        id="RL005-relative-facade-misses-a-driver",
    ),
    pytest.param(
        "RL006",
        {
            "repro/wifi/frames.py": """
            def check(value):
                assert value > 0
                if value > 10:
                    raise Exception("too big")
                raise AssertionError("unreachable")
            """,
        },
        3,
        ("`assert`", "raise Exception", "raise AssertionError"),
        id="RL006-assert-and-untyped-raises",
    ),
    pytest.param(
        "RL006",
        {"repro/wifi/frames.py": "def check(value):\n    if value is None:\n        raise BaseException\n"},
        1,
        ("repro/wifi/frames.py:3: RL006 raise BaseException",),
        id="RL006-raise-of-a-bare-class",
    ),
    pytest.param(
        "RL007",
        {
            "repro/fabric/ledger.py": """
            import json
            from pathlib import Path

            def write_ledger(path, document):
                Path(path).write_text(json.dumps(document))
            """,
        },
        1,
        ("write_ledger()",),
        id="RL007-unvalidated-write",
    ),
    pytest.param(
        "RL007",
        {"repro/fabric/ledger.py": "import json\n\ndef publish(handle, document):\n    json.dump(document, handle)\n"},
        1,
        ("publish()",),
        id="RL007-json-dump",
    ),
    pytest.param(
        "RL007",
        {"repro/fabric/ledger.py": "from json import dump\n\ndef publish(fh, document):\n    dump(document, fh)\n"},
        1,
        ("publish()",),
        id="RL007-dump-imported-by-name",
    ),
    pytest.param(
        "RL007",
        {"repro/fabric/blob.py": "def save(path, blob):\n    path.write_bytes(blob)\n"},
        1,
        ("repro/fabric/blob.py:2: RL007 function save()",),
        id="RL007-write-bytes",
    ),
    pytest.param(
        "RL007",
        {
            "repro/fabric/ledger.py": """
            import json

            async def publish(path, document):
                path.write_text(json.dumps(document))
            """,
        },
        1,
        ("publish()",),
        id="RL007-async-writer",
    ),
]

#: (rule, path → source) that the check must pass.
GOOD_PROBES = [
    pytest.param(
        "RL002",
        {
            "repro/mc/draws.py": """
            import numpy as np
            from numpy.random import Generator, default_rng

            def draw(n, seed):
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                assert isinstance(rng, Generator)
                return rng.random(n)
            """,
        },
        id="RL002-seeded-generators",
    ),
    pytest.param(
        "RL002",
        {"repro/mc/draws.py": "def pick(random):\n    return random.choice([1, 2])\n"},
        id="RL002-local-variable-named-random",
    ),
    pytest.param("RL002", {"repro/mc/draws.py": "np = object()\nnp.random.seed(0)\n"}, id="RL002-never-imported"),
    pytest.param(
        "RL002",
        {
            "repro/mc/draws.py": """
            import numpy as np

            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1)))
            """,
        },
        id="RL002-bit-generators",
    ),
    pytest.param(
        "RL002",
        {"repro/mc/draws.py": "from . import random\n\nrandom.draw()\n"},
        id="RL002-relative-import-named-random",
    ),
    pytest.param(
        "RL003",
        {"repro/api/report.py": "def lines(names):\n    return [name for name in sorted(set(names))]\n"},
        id="RL003-sorted-set",
    ),
    pytest.param(
        "RL003",
        {"repro/api/report.py": "def keep(names, allowed):\n    return [n for n in names if n in set(allowed)]\n"},
        id="RL003-set-membership",
    ),
    pytest.param("RL003", {"repro/obs/metrics.py": _CLOCK}, id="RL003-outside-scope"),
    pytest.param(
        "RL004",
        {"repro/api/store.py": "def read(document):\n    return document['payload'], document.get('params')\n"},
        id="RL004-other-keys",
    ),
    pytest.param("RL004", {"repro/obs/stats.py": _TELEMETRY_READ}, id="RL004-in-obs"),
    pytest.param(
        "RL005",
        {
            "repro/experiments/fig99_demo.py": """
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
        },
        id="RL005-complete-driver",
    ),
    pytest.param(
        "RL005",
        {
            "repro/experiments/fig99_demo.py": """
            from repro import api

            def run():
                return 1

            api.register(name="fig99", title="demo", run=run, engines={"scalar": run}, metrics=run, plot=run)
            """,
        },
        id="RL005-attribute-register-call",
    ),
    pytest.param(
        "RL005",
        {
            "repro/experiments/__init__.py": "from . import fig98_listed, fig99_listed\n",
            "repro/experiments/fig98_listed.py": _DRIVER,
            "repro/experiments/fig99_listed.py": _DRIVER,
        },
        id="RL005-facade-imports-every-driver",
    ),
    pytest.param(
        "RL006",
        {
            "repro/wifi/frames.py": """
            from repro.exceptions import ConfigurationError

            def check(value):
                if value <= 0:
                    raise ConfigurationError("value must be positive")
                try:
                    return 1 / value
                except ZeroDivisionError:
                    raise
            """,
        },
        id="RL006-typed-raise-and-reraise",
    ),
    pytest.param(
        "RL006",
        {
            "tests/wifi/test_frames.py": _TEST_CODE,
            "repro/conftest.py": _TEST_CODE,
            "repro/tests/helpers.py": _TEST_CODE,
            "repro/wifi/test_frames.py": _TEST_CODE,
        },
        id="RL006-test-code",
    ),
    pytest.param(
        "RL007",
        {
            "repro/fabric/ledger.py": """
            import json
            from pathlib import Path

            def validate_ledger(document):
                pass

            def write_ledger(path, document):
                validate_ledger(document)
                Path(path).write_text(json.dumps(document))
            """,
        },
        id="RL007-validated-write",
    ),
    pytest.param(
        "RL007",
        {
            "repro/fabric/ledger.py": """
            def publish(store, document):
                store.validate_document(document)
                store.path.write_bytes(b"...")
            """,
        },
        id="RL007-method-validator",
    ),
    pytest.param(
        "RL007",
        {
            "repro/fabric/cas.py": """
            import ast
            import hashlib

            def digest(tree):
                return hashlib.sha256(ast.dump(tree).encode()).hexdigest()
            """,
        },
        id="RL007-ast-dump",
    ),
    pytest.param(
        "RL007",
        {"repro/api/report.py": "from pathlib import Path\ndef write(path, text):\n    Path(path).write_text(text)\n"},
        id="RL007-outside-fabric",
    ),
]


def _parse(sources: Mapping[str, str]) -> dict[str, ast.Module]:
    return {path: ast.parse(textwrap.dedent(source)) for path, source in sources.items()}


@pytest.mark.parametrize(("rule", "sources", "count", "substrings"), BAD_PROBES)
def test_bad_probe_is_flagged(rule, sources, count, substrings):
    found = violations(rule, _parse(sources))
    rendered = _render(rule, found)
    assert len(found) == count, rendered
    for substring in substrings:
        assert substring in rendered


@pytest.mark.parametrize(("rule", "sources"), GOOD_PROBES)
def test_good_probe_passes(rule, sources):
    assert violations(rule, _parse(sources)) == []


def test_every_contract_has_a_bad_and_a_good_probe():
    assert {probe.values[0] for probe in BAD_PROBES} == {probe.values[0] for probe in GOOD_PROBES} == set(SCOPES)
