"""Malformed input files never end in exit code 3, the internal-fault code.

Each property writes one fuzzed file (config, dish spec, country registry,
split manifest, scores table, or the corpus with one fuzzed record
appended), runs the CLI on it with the test fixtures for every other input,
and accepts exit 0, 1 or 2.
"""

import csv
import json
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cultnovelty.cli import main
from cultnovelty.pipeline import RunConfig

from conftest import FIXTURES

CORPUS = str(FIXTURES / "recipes_50.jsonl")
DISHES = str(FIXTURES / "dishes_sample.json")
LINGUISTIC = str(FIXTURES / "linguistic.csv")
RELIGIOUS = str(FIXTURES / "religious.csv")
GOLDEN_SCORES = FIXTURES / "golden" / "scores.csv"
GOLDEN_MANIFEST = FIXTURES / "golden" / "manifests" / "couscous__MA.json"
GOLDEN_DOCUMENTS = FIXTURES / "golden" / "manifests" / "documents.jsonl"

FUZZ = settings(max_examples=50, deadline=None)

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# score cells: float reprs, non-finite tokens and magnitudes whose sums overflow float64
numbers = st.floats().map(repr) | st.sampled_from(["nan", "-inf", "1e308", "-1e308", "5e-324", ""])


def run(args):
    assert main(args) in (0, 1, 2)


@FUZZ
@given(st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)] + ["nope"]),
                       json_values, max_size=4)
       | st.text(max_size=40))
def test_config_file(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
        run(["build", "--config", str(path), "--corpus", CORPUS, "--dishes", DISHES,
             "--output-dir", str(Path(tmp) / "out")])


dish_entries = st.dictionaries(
    st.sampled_from(["name", "aliases", "excluded", "country_overrides", "other"]),
    json_values | st.lists(st.sampled_from(["couscous", "", "pad thai", "cous"]), max_size=3),
    max_size=4,
)


@FUZZ
@given(st.lists(dish_entries | json_values, max_size=3) | json_values)
def test_dish_specs(specs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dishes.json"
        path.write_text(json.dumps(specs), encoding="utf-8")
        run(["build", "--corpus", CORPUS, "--dishes", str(path), "--output-dir", str(Path(tmp) / "out")])


# the fixture corpus has no country field, so title detection and the manifest
# names see only the countries of the fuzzed registry
coordinates = st.lists(st.floats() | st.integers() | st.booleans(), max_size=3)
registry_entries = st.fixed_dictionaries({}, optional={
    "iso": st.sampled_from(["MA", " gr ", "jp", "", "M/A", "."]) | json_values,
    "name": st.sampled_from(["Morocco", "Greece", "Japan", "", " "]) | json_values,
    "demonyms": st.lists(st.sampled_from(["Moroccan", "Greek", "Japanese", ""]) | json_values,
                         max_size=3) | json_values,
    "capital": coordinates | json_values,
    "iw": coordinates | json_values,
})


@FUZZ
@given(st.lists(registry_entries | json_values, max_size=4) | json_values)
def test_registry(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "registry.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        run(["build", "--corpus", CORPUS, "--dishes", DISHES, "--registry", str(path),
             "--output-dir", str(Path(tmp) / "out")])


_manifest = json.loads(GOLDEN_MANIFEST.read_text(encoding="utf-8"))
_ids = _manifest["knowledge_ids"] + [v["id"] for v in _manifest["variations"]]
# short lists of known ids reach the knowledge-space floor, mixed ones the id checks
id_lists = (st.lists(st.sampled_from(_ids), max_size=3)
            | st.lists(st.sampled_from(_ids) | json_values, max_size=5))
variations = st.lists(
    st.fixed_dictionaries({}, optional={"id": st.sampled_from(_ids) | json_values,
                                        "country": st.sampled_from(["MA", "JP", ""]) | json_values})
    | json_values,
    max_size=3,
)
manifests = st.fixed_dictionaries(
    {},
    optional={"product": json_values, "origin": json_values, "knowledge_ids": id_lists,
              "variations": variations},
).map(lambda edits: {**_manifest, **edits}) | json_values


@FUZZ
@given(manifests, st.sets(st.sampled_from(["product", "origin", "knowledge_ids", "variations"])))
def test_split_manifest(manifest, dropped):
    if isinstance(manifest, dict):
        manifest = {k: v for k, v in manifest.items() if k not in dropped}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        # the documents score reads sit beside the manifest
        (Path(tmp) / "documents.jsonl").write_bytes(GOLDEN_DOCUMENTS.read_bytes())
        run(["score", "--manifests", str(path), "--output-dir", str(Path(tmp) / "out")])


with GOLDEN_SCORES.open(newline="", encoding="utf-8") as _fh:
    _SCORES = list(csv.reader(_fh))


# a column one past the header's last appends an extra cell
@FUZZ
@given(st.lists(st.tuples(st.integers(0, len(_SCORES) - 1), st.integers(0, len(_SCORES[0])),
                          numbers | st.text(max_size=8)),
                min_size=1, max_size=3))
def test_scores_cells(edits):
    rows = [list(r) for r in _SCORES]
    for row, col, value in edits:
        rows[row][col : col + 1] = [value]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        run(["analyze", "--scores", str(path), "--linguistic", LINGUISTIC, "--religious", RELIGIOUS,
             "--n-boot", "5", "--output-dir", str(Path(tmp) / "out")])


_CORPUS_LINES = Path(CORPUS).read_text(encoding="utf-8").splitlines()
words = st.sampled_from(["couscous", "lasagna", "moroccan", "greek", "salt", "the", "", " ", "ma "])
tags = st.sampled_from(["NOUN", "VERB", "DET", "X"])
# mostly well-formed tokens, so records get past the shape checks into a split
tokens = st.lists(
    st.fixed_dictionaries({"lemma": words, "pos": tags})
    | st.fixed_dictionaries({}, optional={"lemma": words | json_values, "text": words | json_values,
                                          "pos": tags | json_values})
    | json_values,
    max_size=4,
)
RECORD_FIELDS = ("id", "title", "country", "ingredients", "text", "tokens")
records = st.fixed_dictionaries({
    # an id the corpus already holds, a new one in two Unicode forms, or junk
    "id": st.sampled_from(["new", "ne\u0301w", "n\u00e9w", "r001"]) | json_values,
    "title": st.sampled_from(["Moroccan Couscous", "Greek Lasagna", "couscous", ""]) | json_values,
    # the last five cannot name a manifest file
    "country": st.sampled_from(["MA", " gr ", "", "XX", "M\u0000A", "a/b", "a\\b", ".", ".."])
    | json_values,
    "ingredients": st.lists(words | json_values, max_size=3) | json_values,
    "text": st.lists(words, max_size=6).map(" ".join) | json_values,
    "tokens": tokens | json_values,
})


@FUZZ
@given(records | json_values, st.sets(st.sampled_from(RECORD_FIELDS)))
def test_corpus_record(record, dropped):
    if isinstance(record, dict):
        record = {k: v for k, v in record.items() if k not in dropped}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_text("\n".join(_CORPUS_LINES + [json.dumps(record)]) + "\n", encoding="utf-8")
        for provider in ("preannotated", "naive"):
            base = ["--corpus", str(corpus), "--provider", provider,
                    "--output-dir", str(Path(tmp) / provider)]
            code = main(["build", "--dishes", DISHES] + base)
            assert code in (0, 1, 2)
            if code == 0:  # score then reads the record only if a split holds it
                run(["score"] + base)
