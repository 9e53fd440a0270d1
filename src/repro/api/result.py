"""The uniform result envelope returned by the :class:`repro.api.Runner`.

Every experiment run — regardless of which of the 13 drivers produced it or
which engine executed it — is wrapped in one :class:`Result` carrying the
resolved parameters, the effective seed, the engine, the wall-clock runtime
and the driver's native payload dataclass.  The envelope serializes to
strict JSON and back (:meth:`Result.to_json` / :meth:`Result.from_json`)
with the payload reconstructed as the original dataclass type, so figures
can be regenerated, archived and diffed from the shell.

The optional ``telemetry`` field carries the run's
:mod:`repro.obs.metrics` document (its own ``telemetry_version`` stamp,
counters/gauges/span tree).  Like ``runtime_s`` it is observability-only:
excluded from :func:`repro.api.store.result_key` and from every
byte-deterministic generated document, so telemetry-on and telemetry-off
campaigns produce identical reports and figures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.api.serialization import decode, encode, payload_equal, validate_encoded
from repro.exceptions import ConfigurationError
from repro.obs.metrics import validate_telemetry

__all__ = ["Result", "SCHEMA_VERSION", "validate_result_dict"]

#: Version stamp of the serialized envelope layout.
SCHEMA_VERSION = 1

_REQUIRED_FIELDS = {
    "schema_version": int,
    "experiment": str,
    "engine": str,
    "params": dict,
    "runtime_s": (int, float),
}


@dataclass(frozen=True)
class Result:
    """One executed experiment: provenance plus the driver's native payload.

    Attributes
    ----------
    experiment:
        Registry name (``fig11``, ``table_power``, ...).
    engine:
        Engine that executed the run: one of the experiment's registered
        engine names (``scalar``, ``batch``, ``batched``, ``reference``).
        Nothing checks the name on read, so an envelope stored under an
        engine since removed still loads and renders.
    seed:
        Effective RNG seed, or ``None`` for deterministic experiments.
    params:
        The keyword arguments the driver was called with (excluding
        ``engine``, which is recorded separately).
    runtime_s:
        Wall-clock runtime of the driver call.
    payload:
        The driver's native frozen-dataclass result, untouched.
    telemetry:
        Optional :mod:`repro.obs` telemetry document (already strict
        JSON), or ``None`` when the run was not observed.  Never part of
        result identity or of generated-document bytes.
    source_hash:
        Source-text digest of the code that produced this run —
        the whole ``repro`` package, plus the driver module when it lives
        outside it (:func:`repro.fabric.cas.driver_source_hash`) — or
        ``None`` when unavailable.  Resume metadata only: a stored
        envelope is reused only while it equals the current digest, but
        like ``runtime_s`` it never participates in
        :func:`~repro.api.store.result_key` identity or
        generated-document bytes.
    """

    experiment: str
    engine: str
    seed: int | None
    params: dict[str, Any] = field(default_factory=dict)
    runtime_s: float = 0.0
    payload: Any = None
    telemetry: dict[str, Any] | None = None
    source_hash: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON-compatible dict form of the envelope."""
        document = {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "engine": self.engine,
            "seed": self.seed,
            "params": encode(self.params),
            "runtime_s": float(self.runtime_s),
            "payload": encode(self.payload),
        }
        if self.telemetry is not None:
            document["telemetry"] = self.telemetry
        if self.source_hash is not None:
            document["source_hash"] = self.source_hash
        return document

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialize the envelope to a strict JSON string."""
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Result":
        """Rebuild an envelope (payload dataclass included) from its dict form."""
        validate_result_dict(data)
        return cls(
            experiment=data["experiment"],
            engine=data["engine"],
            seed=data["seed"],
            params=decode(data["params"]),
            runtime_s=float(data["runtime_s"]),
            payload=decode(data["payload"]),
            telemetry=data.get("telemetry"),
            source_hash=data.get("source_hash"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Result":
        """Rebuild an envelope from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def same_payload(self, other: "Result") -> bool:
        """Numpy-aware deep equality of the two envelopes' payloads."""
        return payload_equal(self.payload, other.payload)


def validate_result_dict(data: Any) -> None:
    """Validate the serialized envelope against the result schema.

    Checks the top-level fields' presence and types, then the encoded
    ``params``/``payload`` trees structurally.  Raises
    :class:`~repro.exceptions.ConfigurationError` on the first violation.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"result document must be an object, got {type(data).__name__}")
    for name, expected in _REQUIRED_FIELDS.items():
        if name not in data:
            raise ConfigurationError(f"result document is missing required field {name!r}")
        if not isinstance(data[name], expected) or isinstance(data[name], bool):
            raise ConfigurationError(f"result field {name!r} has type {type(data[name]).__name__}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported result schema_version {data['schema_version']!r} (expected {SCHEMA_VERSION})"
        )
    if "seed" not in data or not (data["seed"] is None or isinstance(data["seed"], int)):
        raise ConfigurationError("result field 'seed' must be an integer or null")
    if "payload" not in data:
        raise ConfigurationError("result document is missing required field 'payload'")
    # Envelopes written before the campaign fabric existed omit the field.
    if not (data.get("source_hash") is None or isinstance(data["source_hash"], str)):
        raise ConfigurationError("result field 'source_hash' must be a string or null")
    if data.get("telemetry") is not None:
        validate_telemetry(data["telemetry"])
    validate_encoded(data["params"], path="params")
    validate_encoded(data["payload"], path="payload")
