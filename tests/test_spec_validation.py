"""Subject specs are checked before anything is fitted.

A misspelt key used to be ignored, a negative ``max_condition_size`` used
to fit, and ``n_samples`` too small for any CI test to decide used to fit
a model whose every Fisher z test returned the "cannot decide" sentinel.
:func:`unicorn_from_spec` now raises :class:`InvalidSpecError` for each,
and the registry, its counters and its store are as they were.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service import (
    InvalidSpecError,
    ModelRegistry,
    ModelStore,
    unicorn_from_spec,
)

GOOD = {"system": "cache_example", "n_samples": 30, "seed": 1}

BAD = {
    "misspelt key": {"system": "cache_example", "n_sampels": 30},
    "negative cap": {"system": "cache_example", "max_condition_size": -1},
    "too few rows": {"system": "cache_example", "n_samples": 3},
    "too few rows for the cap": {"system": "cache_example", "n_samples": 5,
                                 "max_condition_size": 2},
    "unknown option": {"system": "cache_example",
                       "relevant_options": ["no_such_option"]},
}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A store-backed registry holding one fitted subject."""
    root = tmp_path_factory.mktemp("spec-store")
    registry = ModelRegistry(capacity=4, store=ModelStore(root))
    registry.get_or_fit(GOOD)
    registry.register_spec("named", GOOD)
    return registry, root


def _state(registry: ModelRegistry, root) -> dict:
    return {
        "subjects": registry.subjects(),
        "versions": [registry.get(s).version for s in registry.subjects()],
        "counters": {name: getattr(registry, name) for name in (
            "evictions", "refreshes", "store_loads", "store_publishes")},
        "files": sorted(str(path.relative_to(root))
                        for path in root.rglob("*")),
    }


@pytest.mark.parametrize("name", sorted(BAD))
def test_unicorn_from_spec_rejects(name):
    with pytest.raises(InvalidSpecError):
        unicorn_from_spec(BAD[name])


@pytest.mark.parametrize("entry_point", ["get_or_fit", "register_spec",
                                         "upgrade_spec"])
@pytest.mark.parametrize("name", sorted(BAD))
def test_rejected_spec_leaves_registry_and_store_unchanged(served, name,
                                                           entry_point):
    registry, root = served
    before = _state(registry, root)
    call = getattr(registry, entry_point)
    args = (BAD[name],) if entry_point == "get_or_fit" else ("named",
                                                             BAD[name])
    with pytest.raises(InvalidSpecError):
        call(*args)
    assert _state(registry, root) == before


def test_every_spec_the_repo_ships_still_loads():
    spec_file = Path(__file__).resolve().parents[1] / "perfbench/spec.json"
    workloads = json.loads(spec_file.read_text(encoding="utf-8"))["workloads"]
    for workload in workloads.values():
        for subject in workload.get("subjects", ()):
            unicorn_from_spec({"system": subject,
                               "n_samples": workload["n_samples"],
                               "seed": workload["model_seed"]})
    for spec in (GOOD, {"system": "sqlite", "n_samples": 60},
                 {"system": "cache_example", "n_samples": 40,
                  "max_condition_size": 2, "seed": 2},
                 {"system": "cache_example", "n_samples": 4,
                  "max_condition_size": 0}):
        unicorn_from_spec(spec)
