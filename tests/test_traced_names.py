"""Every name the benchmark tracer wraps still exists in the package.

The tracer reports a name it cannot find as missing and its per-layer
metric as 0, so a rename or deletion would otherwise pass unnoticed. A
name can also stay but stop being called through the attribute the tracer
wraps; the traced build and score below catch that for the build layers,
the calibrations and the metrics, and check that score lays out each
variation once however many knowledge spaces list it.
"""

import importlib
import importlib.util
import json
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

# spans one build must record: ingest, annotation, country detection, dish
# matching and the split, each a per-layer metric
BUILD_SPANS = (
    "ingest.read_documents",
    "annotation.filter_stream",
    "pipeline.resolve_countries",
    "builder.matched_documents",
    "builder.build_split",
)
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


@pytest.fixture
def traced_run(tmp_path, monkeypatch):
    """The tracer installed on the package, undone after the test, and a fixture config."""
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
    return traced, modules["pipeline"], config


def test_traced_build_and_score_record_every_scoring_span(traced_run):
    traced, pipeline, config = traced_run
    pipeline.cmd_build(config)
    built = Counter(span[0] for span in traced.spans)
    assert {name: built[name] for name in BUILD_SPANS if not built[name]} == {}
    pipeline.cmd_score(config)

    recorded = Counter(span[0] for span in traced.spans)
    assert {name: recorded[name] for name in SCORING_SPANS if not recorded[name]} == {}


def test_traced_score_lays_out_each_variation_once(traced_run):
    traced, pipeline, config = traced_run
    pipeline.cmd_build(config)
    start = len(traced.spans)
    pipeline.cmd_score(config)
    spans = traced.spans[start:]

    listed = Counter()  # variation id -> the manifests that list it
    for path in (Path(config.output_dir) / "manifests").glob("*.json"):
        listed.update(entry["id"] for entry in json.loads(path.read_text())["variations"])
    scored = [span[4]["variation"] for span in spans if span[0] == "metrics.score_all"]
    assert Counter(scored) == listed  # the span's variation attribute is the document id
    # the fixtures have one documents.jsonl, so a variation is one (documents file, id) pair
    laid_out = sum(1 for span in spans if span[0] == "ppmi.build_ppmi.variation")
    assert laid_out == len(listed) < len(scored)
