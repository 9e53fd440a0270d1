"""The repo-specific rule catalogue: six contracts, statically enforced.

Each rule turns a convention the platform's correctness rests on into an
AST check (see ``docs/architecture.md`` § Static guarantees for the
prose version of every contract):

========  ====================  ==============================================
Id        Category              Contract
========  ====================  ==============================================
RL002     rng-discipline        no legacy numpy global-state RNG, no stdlib
                                ``random`` — only seeded ``Generator`` draws.
RL003     determinism           result-producing modules never read clocks,
                                entropy, or iterate sets into output.
RL004     telemetry-isolation   the ``telemetry`` envelope key is invisible
                                to result identity, reports and figures.
RL005     registry-completeness every experiment driver registers
                                ``engines``/``metrics``/``plot`` and is
                                imported by the package façade.
RL006     exception-hygiene     library validation raises
                                :mod:`repro.exceptions` types — no bare
                                ``Exception``, no ``assert``.
RL007     document-validation   :mod:`repro.fabric` document writers
                                round-trip a ``validate_*`` checker before
                                any bytes hit disk.
========  ====================  ==============================================

Deliberate exceptions are blessed in source with ``# lint-ok: RLnnn``
pragmas (RL007 additionally honours a pragma on the enclosing ``def``
line).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.lint.engine import (
    Finding,
    ImportMap,
    LintContext,
    Rule,
    call_name,
    iter_functions,
    keyword_map,
    register_rule,
)

__all__ = [
    "RL002",
    "RL003",
    "RL004",
    "RL005",
    "RL006",
    "RL007",
]

#: The non-legacy core of ``numpy.random``: seeded generators and the bit
#: generators that feed them.  Everything else on ``np.random`` is the
#: global-state legacy API.
# fmt: off
_NP_RANDOM_OK = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    }
)
# fmt: on

#: Wall-clock / entropy calls that make output depend on when or where it
#: ran; each maps to the hint shown in the finding message.
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

#: Result-producing modules: what they emit is committed and diffed
#: byte-for-byte, so any run-to-run variance is a bug.
_RESULT_SCOPE = r"repro/(api/(report|result)\.py|plots/[^/]+\.py)$"

#: Modules that define result identity or render envelopes into
#: documents — the places the ``telemetry`` key must stay invisible.
_TELEMETRY_SCOPE = r"repro/(api/(report|store)\.py|plots/[^/]+\.py)$"

#: Experiment driver modules (the package façade is handled separately).
_DRIVER_SCOPE = r"repro/experiments/(?!__init__\.py)[^/]+\.py$"

#: Test code is exempt from library exception hygiene (pytest asserts).
_TEST_EXCLUDE = r"(^|/)tests?/|(^|/)test_[^/]+\.py$|conftest\.py$"


def _numpy_attribute_roots(
    tree_part: Iterable[ast.AST], imports: ImportMap
) -> Iterator[tuple[ast.AST, str]]:
    """Outermost ``np.*`` attribute chains (and bare ``np`` names) with their
    dotted paths; inner attributes of a matched chain are not re-reported."""
    seen: set[ast.AST] = set()
    for node in tree_part:
        if node in seen:
            continue
        if isinstance(node, (ast.Attribute, ast.Name)):
            dotted = imports.dotted(node)
            if dotted == "numpy" or (dotted and dotted.startswith("numpy.")):
                inner = node
                while isinstance(inner, ast.Attribute):
                    seen.add(inner.value)
                    inner = inner.value
                yield node, dotted


def _check_rng_discipline(context: LintContext) -> Iterator[Finding]:
    imports = ImportMap(context.tree)
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield context.finding(
                        RL002,
                        node.lineno,
                        "stdlib `random` is process-global state; draw from a "
                        "seeded numpy Generator instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "random":
                yield context.finding(
                    RL002,
                    node.lineno,
                    "stdlib `random` is process-global state; draw from a "
                    "seeded numpy Generator instead",
                )
    for node, dotted in _numpy_attribute_roots(ast.walk(context.tree), imports):
        if not dotted.startswith("numpy.random."):
            continue
        member = dotted.split(".")[2]
        if member not in _NP_RANDOM_OK:
            yield context.finding(
                RL002,
                node.lineno,
                f"{dotted} is the legacy global-state RNG API; use "
                "np.random.default_rng(seed) / Generator methods",
            )


RL002 = register_rule(
    Rule(
        id="RL002",
        category="rng-discipline",
        description=(
            "no np.random.seed / legacy np.random.* global-state API and no "
            "stdlib `random` — randomness flows through seeded numpy Generators"
        ),
        fix_hint="create a Generator with np.random.default_rng(seed) and pass it explicitly",
        check=_check_rng_discipline,
    )
)


def _is_set_expression(node: ast.expr, imports: ImportMap) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset") and imports.resolve(node.func.id) is None
    return False


def _check_determinism(context: LintContext) -> Iterator[Finding]:
    imports = ImportMap(context.tree)
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            dotted = imports.dotted(node.func)
            if dotted in _NONDETERMINISTIC_CALLS:
                yield context.finding(
                    RL003,
                    node.lineno,
                    f"{dotted}() in a result-producing module: "
                    f"{_NONDETERMINISTIC_CALLS[dotted]}",
                )
        iterables: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables.extend(generator.iter for generator in node.generators)
        for iterable in iterables:
            if _is_set_expression(iterable, imports):
                yield context.finding(
                    RL003,
                    iterable.lineno,
                    "iterating a set in a result-producing module leaks hash "
                    "order into output",
                )


RL003 = register_rule(
    Rule(
        id="RL003",
        category="determinism",
        description=(
            "result-producing modules (repro.api.report, repro.api.result, "
            "repro.plots) must not read clocks/entropy or iterate sets into output"
        ),
        fix_hint="drop the clock/entropy call, or iterate sorted(...) for a stable order",
        check=_check_determinism,
        scope=_RESULT_SCOPE,
    )
)


def _check_telemetry_isolation(context: LintContext) -> Iterator[Finding]:
    message = (
        "the `telemetry` envelope key must not influence result identity, "
        "reports or figures (read it in repro.obs only)"
    )
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Attribute) and node.attr == "telemetry":
            yield context.finding(RL004, node.lineno, message)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == "telemetry"
        ):
            yield context.finding(RL004, node.lineno, message)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "telemetry"
        ):
            yield context.finding(RL004, node.lineno, message)


RL004 = register_rule(
    Rule(
        id="RL004",
        category="telemetry-isolation",
        description=(
            "result_key/report/gallery code paths never read the `telemetry` "
            "envelope key — telemetry-on and telemetry-off campaigns must "
            "produce byte-identical documents"
        ),
        fix_hint="consume telemetry through repro.obs.stats, never in identity/report/plot code",
        check=_check_telemetry_isolation,
        scope=_TELEMETRY_SCOPE,
    )
)

#: Keywords every driver's register(...) call must pass with a non-None
#: value for the campaign/report/figure pipeline to cover it end to end.
_REQUIRED_REGISTER_KEYWORDS = ("engines", "metrics", "plot")


def _driver_module_name(path: str) -> str:
    return path.rsplit("/", 1)[-1].removesuffix(".py")


def _facade_imports(context: LintContext) -> set[str]:
    """Driver modules the experiments package façade imports."""
    imported: set[str] = set()
    for node in ast.walk(context.tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "repro.experiments" or node.module.endswith(".experiments")
        ):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level >= 1 and node.module is None:
            imported.update(alias.name for alias in node.names)
    return imported


def _check_registry_completeness(contexts: list[LintContext]) -> Iterator[Finding]:
    drivers = [c for c in contexts if re.search(_DRIVER_SCOPE, c.path)]
    facades = [c for c in contexts if re.search(r"repro/experiments/__init__\.py$", c.path)]
    facade_imports: set[str] | None = None
    if facades:
        facade_imports = set()
        for facade in facades:
            facade_imports |= _facade_imports(facade)
    for context in drivers:
        register_calls = [
            node
            for node in ast.walk(context.tree)
            if isinstance(node, ast.Call) and call_name(node) == "register"
        ]
        if not register_calls:
            yield context.finding(
                RL005,
                1,
                "experiment driver module never calls repro.api.register(...)",
            )
        for call in register_calls:
            keywords = keyword_map(call)
            missing = [
                name
                for name in _REQUIRED_REGISTER_KEYWORDS
                if name not in keywords
                or (
                    isinstance(keywords[name], ast.Constant)
                    and keywords[name].value is None
                )
            ]
            if missing:
                yield context.finding(
                    RL005,
                    call.lineno,
                    f"register(...) is missing required hook(s): {', '.join(missing)}",
                )
        if facade_imports is not None:
            module = _driver_module_name(context.path)
            if module not in facade_imports:
                yield context.finding(
                    RL005,
                    1,
                    f"driver {module!r} is not imported by repro/experiments/"
                    "__init__.py, so it never registers",
                )


RL005 = register_rule(
    Rule(
        id="RL005",
        category="registry-completeness",
        description=(
            "every repro.experiments driver registers engines, metrics and "
            "plot hooks and is imported by the package façade"
        ),
        fix_hint=(
            "pass engines=/metrics=/plot= to register(...) and import the "
            "module in repro/experiments/__init__.py"
        ),
        check=_check_registry_completeness,
        kind="project",
    )
)


def _check_exception_hygiene(context: LintContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Assert):
            yield context.finding(
                RL006,
                node.lineno,
                "`assert` in library code vanishes under python -O; raise a "
                "repro.exceptions type",
            )
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in ("Exception", "BaseException", "AssertionError"):
                yield context.finding(
                    RL006,
                    node.lineno,
                    f"raise {name} is uncatchable-by-type for callers; use a "
                    "repro.exceptions type",
                )


RL006 = register_rule(
    Rule(
        id="RL006",
        category="exception-hygiene",
        description=(
            "library validation raises repro.exceptions types — no bare "
            "Exception/BaseException/AssertionError and no assert statements"
        ),
        fix_hint="raise ConfigurationError (or another repro.exceptions type) with a precise message",
        check=_check_exception_hygiene,
        scope=r"repro/",
        exclude=_TEST_EXCLUDE,
    )
)

#: Call attribute names that put document bytes on disk (or a stream).
_WRITE_ATTRS = ("write_text", "write_bytes")


def _check_document_validation(context: LintContext) -> Iterator[Finding]:
    imports = ImportMap(context.tree)
    for info in iter_functions(context.tree):
        first_write: ast.Call | None = None
        validates = False
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            name = func.id if isinstance(func, ast.Name) else None
            is_write = attr in _WRITE_ATTRS or imports.dotted(func) == "json.dump"
            if is_write and first_write is None:
                first_write = node
            if (attr or name or "").startswith("validate_"):
                validates = True
        if first_write is not None and not validates:
            yield context.finding(
                RL007,
                first_write.lineno,
                f"function {info.node.name}() writes a document without "
                "round-tripping a validate_*() checker first",
                anchor_lines=(info.node.lineno,),
            )


RL007 = register_rule(
    Rule(
        id="RL007",
        category="document-validation",
        description=(
            "repro.fabric functions that serialize documents to disk "
            "(write_text/write_bytes/json.dump) must call a validate_*() "
            "checker in the same function — invalid manifests never get written"
        ),
        fix_hint="run the document through its validate_*() function before writing the bytes",
        check=_check_document_validation,
        scope=r"repro/fabric/",
    )
)
