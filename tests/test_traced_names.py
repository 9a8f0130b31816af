"""Every name the benchmark tracer wraps still exists in the package.

The tracer reports a name it cannot find as missing and its per-layer
metric as 0, so a rename or deletion would otherwise pass unnoticed. A
name can also stay but stop being called through the attribute the tracer
wraps; the traced build and score below catch that for the calibrations
and the metrics.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from cultnovelty.pipeline import RunConfig

from conftest import FIXTURES

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib imports only; installs no wrappers
    return tracer


tracer = _tracer()
TARGETS = [(module, attr) for module, attr, _, _ in tracer.TARGETS]

# spans one build and one score must record, one per per-layer metric of
# knowledge-space calibration and scoring
SCORING_SPANS = (
    "corpus.aggregate_distribution",
    "metrics.calibrate_newness_threshold",
    "metrics.calibrate_difference_threshold",
    "ppmi.build_ppmi.kb",
    "ppmi.build_ppmi.variation",
    "metrics.newness",
    "metrics.uniqueness",
    "metrics.difference",
    "metrics.new_surprise",
    "metrics.divergent_surprise",
)


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"cultnovelty.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_build_and_score_record_every_scoring_span(tmp_path, monkeypatch):
    modules = {m: importlib.import_module(f"cultnovelty.{m}") for m, _ in TARGETS}
    for module, attr in TARGETS:
        owner = modules[module]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, name, getattr(owner, name))  # undone after the test
    traced = tracer.Tracer()
    traced.install(modules)
    assert traced.missing == []

    config = RunConfig(
        corpus_path=str(FIXTURES / "recipes_50.jsonl"),
        dish_specs_path=str(FIXTURES / "dishes_sample.json"),
        output_dir=str(tmp_path / "out"),
        seed=17,
    )
    modules["pipeline"].cmd_build(config)
    modules["pipeline"].cmd_score(config)

    recorded = Counter(span[0] for span in traced.spans)
    assert {name: recorded[name] for name in SCORING_SPANS if not recorded[name]} == {}
