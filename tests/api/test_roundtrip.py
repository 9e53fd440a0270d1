"""Parametrized serialization round-trip suite over every registered experiment.

The ISSUE-level guarantee: every experiment's result envelope serializes via
``to_json``/``from_dict`` to an equal result, and ``Runner(seed=...)`` is
reproducible run-to-run.  Experiments run with their fast smoke parameters
so the whole matrix stays quick.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Result, Runner, experiment_names, get_experiment, payload_equal, validate_result_dict


@pytest.fixture(scope="module")
def fast_results():
    runner = Runner()
    results = {}
    for name in experiment_names():
        experiment = get_experiment(name)
        results[name] = runner.run(name, params=dict(experiment.fast_params))
    return results


@pytest.mark.parametrize("name", experiment_names())
def test_json_roundtrip_is_lossless(name, fast_results):
    result = fast_results[name]
    text = result.to_json()
    restored = Result.from_json(text)
    assert restored.experiment == result.experiment
    assert restored.engine == result.engine
    assert restored.seed == result.seed
    assert payload_equal(restored.params, result.params)
    assert restored.runtime_s == pytest.approx(result.runtime_s)
    assert type(restored.payload) is type(result.payload)
    assert restored.same_payload(result)


@pytest.mark.parametrize("name", experiment_names())
def test_serialized_document_is_strict_json_and_schema_valid(name, fast_results):
    document = json.loads(fast_results[name].to_json())
    validate_result_dict(document)


@pytest.mark.parametrize("name", [n for n in experiment_names() if get_experiment(n).takes_seed])
def test_seeded_runner_is_reproducible(name):
    experiment = get_experiment(name)
    params = dict(experiment.fast_params)
    first = Runner(seed=2016).run(name, params=params)
    second = Runner(seed=2016).run(name, params=params)
    assert first.seed == 2016
    assert payload_equal(first.payload, second.payload)


@pytest.mark.parametrize("name", [n for n in experiment_names() if "batch" in get_experiment(n).engines])
def test_batch_engine_roundtrips_too(name):
    experiment = get_experiment(name)
    result = Runner().run(name, engine="batch", params=dict(experiment.fast_params))
    assert result.engine == "batch"
    assert Result.from_json(result.to_json()).same_payload(result)


def test_summaries_render_for_every_experiment(fast_results):
    for name, result in fast_results.items():
        lines = get_experiment(name).summarize(result.payload)
        assert lines and all(isinstance(line, str) and line for line in lines)


@pytest.mark.parametrize("name", experiment_names())
def test_metrics_survive_the_round_trip(name, fast_results):
    # aggregate() reduces store-loaded envelopes, so the metrics of a decoded
    # payload must be exactly those of the live one, and plain floats.
    result = fast_results[name]
    metrics = get_experiment(name).metrics
    live = metrics(result.payload)
    assert live and all(isinstance(key, str) and type(value) is float for key, value in live.items())
    assert payload_equal(metrics(Result.from_json(result.to_json()).payload), live)
