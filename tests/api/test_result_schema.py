"""The result-envelope schema: what ``validate_result_dict`` accepts and rejects."""

from __future__ import annotations

import pytest

from repro.api import Result, Runner, validate_result_dict
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def document():
    return Runner().run("table_power").to_dict()


def _without(document, name):
    return {key: value for key, value in document.items() if key != name}


class TestAccepted:
    def test_fresh_envelope_validates(self, document):
        validate_result_dict(document)

    @pytest.mark.parametrize("backend", ["numpy", None])
    def test_backend_field_of_older_envelopes_is_ignored(self, document, backend):
        validate_result_dict({**document, "backend": backend})
        assert Result.from_dict({**document, "backend": backend}).to_dict() == document

    def test_envelope_without_source_hash_decodes_with_none(self, document):
        older = _without(document, "source_hash")
        validate_result_dict(older)
        assert Result.from_dict(older).source_hash is None


class TestRejected:
    def test_non_object_document(self):
        with pytest.raises(ConfigurationError, match="must be an object, got list"):
            validate_result_dict([])

    @pytest.mark.parametrize("name", ["schema_version", "experiment", "engine", "params", "runtime_s", "payload"])
    def test_missing_required_field(self, document, name):
        with pytest.raises(ConfigurationError, match=f"missing required field '{name}'"):
            validate_result_dict(_without(document, name))

    @pytest.mark.parametrize(
        ("name", "value"),
        [("engine", 3), ("params", []), ("runtime_s", True), ("schema_version", "1")],
    )
    def test_wrongly_typed_field(self, document, name, value):
        with pytest.raises(ConfigurationError, match=f"result field '{name}' has type"):
            validate_result_dict({**document, name: value})

    def test_unsupported_schema_version(self, document):
        with pytest.raises(ConfigurationError, match="unsupported result schema_version 99"):
            validate_result_dict({**document, "schema_version": 99})

    @pytest.mark.parametrize("seed", ["7", 1.5])
    def test_seed_must_be_an_integer_or_null(self, document, seed):
        with pytest.raises(ConfigurationError, match="'seed' must be an integer or null"):
            validate_result_dict({**document, "seed": seed})

    def test_missing_seed(self, document):
        with pytest.raises(ConfigurationError, match="'seed' must be an integer or null"):
            validate_result_dict(_without(document, "seed"))

    def test_source_hash_must_be_a_string_or_null(self, document):
        with pytest.raises(ConfigurationError, match="'source_hash' must be a string or null"):
            validate_result_dict({**document, "source_hash": 5})

    def test_malformed_payload_tree_names_its_path(self, document):
        with pytest.raises(ConfigurationError, match=r"at params: unknown node kind"):
            validate_result_dict({**document, "params": {"__kind__": "mystery"}})
