import csv
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cultnovelty import ingest, pipeline
from cultnovelty.annotation import filter_stream
from cultnovelty.builder import load_dish_specs, matched_documents
from cultnovelty.cli import _config_from_args, build_parser, main
from cultnovelty.distances import bundled_registry, load_registry
from cultnovelty.errors import LengthMismatch
from cultnovelty.pipeline import (
    ANALYZE_TABLES,
    SCORE_COLUMNS,
    RunConfig,
    cmd_analyze,
    cmd_build,
    cmd_distances,
    cmd_report,
    cmd_score,
    derive_split_seed,
    fmt_float,
    resolve_countries,
)

from conftest import FIXTURES

CORPUS = str(FIXTURES / "recipes_50.jsonl")
DISHES = str(FIXTURES / "dishes_sample.json")
LINGUISTIC = str(FIXTURES / "linguistic.csv")
RELIGIOUS = str(FIXTURES / "religious.csv")

# Expected outputs of `build -> score -> analyze` on the fixtures at seed 17 with
# --n-boot 50 (the config_for defaults), minus run_manifest.json, which holds
# paths. Regenerate only in a commit of its own, naming the cause:
#   for c in build score analyze; do PYTHONPATH=src python -m cultnovelty.cli $c \
#     --corpus tests/fixtures/recipes_50.jsonl --dishes tests/fixtures/dishes_sample.json \
#     --linguistic tests/fixtures/linguistic.csv --religious tests/fixtures/religious.csv \
#     --seed 17 --n-boot 50 --output-dir tests/fixtures/golden; done
#   rm tests/fixtures/golden/run_manifest.json
# Build writes the manifests and their documents.jsonl under golden/manifests.
GOLDEN = FIXTURES / "golden"
GOLDEN_SCORES = GOLDEN / "scores.csv"
GOLDEN_EXACT = sorted(
    str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file() and p.name != "mediation.csv"
)
MEDIATION_EXACT_COLUMNS = {"distance", "metric", "mediator", "n", "acme_p", "ade_p", "total_p"}
# past Python's 4,300-digit limit on integer literals; json.dumps cannot write one
HUGE_INTEGER = "9" * 5001


def config_for(tmp_path, **overrides):
    values = dict(
        corpus_path=CORPUS,
        dish_specs_path=DISHES,
        linguistic_path=LINGUISTIC,
        religious_path=RELIGIOUS,
        output_dir=str(tmp_path / "out"),
        seed=17,
        n_boot=50,
    )
    values.update(overrides)
    return RunConfig(**values)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run_pipeline(config):
    cmd_build(config)
    cmd_score(config)
    return cmd_analyze(config)


def snapshot(directory):
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(Path(directory).rglob("*"))
        if p.is_file()
    }


class TestRunConfig:
    def test_defaults_match_published_values(self):
        config = RunConfig()
        assert config.lambda1 == 0.8
        assert config.lambda2 == 0.2
        assert config.pmi_window == 3
        assert config.holdout_fraction == 0.3
        assert config.rbo_p == 0.9

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 5, "pmi_window": 4}))
        config = RunConfig.load(path, {"seed": 9, "pmi_window": None})
        assert config.seed == 9
        assert config.pmi_window == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(Exception):
            RunConfig.load(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(pmi_window=1)
        with pytest.raises(ValueError):
            RunConfig(holdout_fraction=1.0)

    @pytest.mark.parametrize("lambda1", [-1.0, -1e-300, 1.0000000000000002, 5.0, math.nan, math.inf])
    def test_lambda1_outside_the_unit_interval_rejected(self, lambda1):
        # newness is lambda1 * appearance + (1 - lambda1) * disappearance, a
        # weighted mean only for lambda1 in [0, 1]
        with pytest.raises(ValueError, match=r"lambda1 must lie in \[0, 1\]"):
            RunConfig(lambda1=lambda1)

    @pytest.mark.parametrize("lambda1,lambda2", [(0, 1.0), (1, 0.0)])  # a config file's JSON integers
    def test_lambda2_is_derived(self, lambda1, lambda2):
        assert RunConfig(lambda1=lambda1).lambda2 == lambda2
        with pytest.raises(TypeError):
            RunConfig(lambda1=lambda1, lambda2=lambda2)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0))
    @example(0.8)
    @example(5e-324)
    @example(0.30000000000000004)
    def test_lambda2_is_the_exact_decimal_complement_rounded_once(self, lambda1):
        assert RunConfig(lambda1=lambda1).lambda2 == float(Fraction(1) - Fraction(repr(lambda1)))


class TestFmtFloat:
    # each needs more than 9 significant digits to read back exactly
    LOSSY = (
        0.1 + 0.2,
        1.0 / 3.0,
        -2.2185715234567891,
        -0.68738029512345678,
        math.pi * 1e-12,
        -math.e * 1e-15,
        123456789.0123456,
        -math.pi * 1e15,
    )
    VALUES = LOSSY + (0.0, 1.0)

    @pytest.mark.parametrize("value", VALUES)
    def test_python_float_round_trips(self, value):
        assert float(fmt_float(value)) == value

    @pytest.mark.parametrize("value", VALUES)
    def test_numpy_float_round_trips(self, value):
        cell = fmt_float(np.float64(value))
        assert "np." not in cell
        assert float(cell) == value

    def test_nine_digits_would_not_round_trip(self):
        for value in self.LOSSY:
            assert float(format(value, ".9g")) != value


class TestBuild:
    def test_manifests_and_eligibility(self, tmp_path):
        config = config_for(tmp_path)
        result = cmd_build(config)
        assert len(result["manifests"]) == 7

        rows = read_csv(Path(config.output_dir) / "eligibility.csv")
        assert rows[0] == ["dish", "origin", "kb_size", "variation_count", "status"]
        by_key = {(r[0], r[1]): r for r in rows[1:]}
        # ten origin documents: floor(0.3 * 10) = 3 held out, 7 kept
        assert by_key[("Couscous", "MA")][2:] == ["7", "10", "eligible"]
        # two Japanese pierogi, none held out: no variation to score
        assert by_key[("Pierogi", "JP")][2:] == ["2", "0", "ineligible"]
        assert by_key[("Biryani", "")][4] == "no_matches"

    def test_manifest_contents(self, tmp_path):
        config = config_for(tmp_path)
        cmd_build(config)
        manifest = json.loads(
            (Path(config.output_dir) / "manifests" / "couscous__MA.json").read_text()
        )
        assert manifest["product"] == "Couscous"
        assert manifest["origin"] == "MA"
        assert len(manifest["knowledge_ids"]) == 7
        assert len(manifest["variations"]) == 10
        assert manifest["holdout_seed"] == derive_split_seed(17, "Couscous", "MA")
        held_out = [v for v in manifest["variations"] if v["country"] == "MA"]
        assert len(held_out) == 3

    def test_manifests_record_corpus_digest_and_provider(self, tmp_path):
        config = config_for(tmp_path)
        cmd_build(config)
        digest = hashlib.sha256(Path(CORPUS).read_bytes()).hexdigest()
        for path in (Path(config.output_dir) / "manifests").glob("*.json"):
            manifest = json.loads(path.read_text())
            assert manifest["corpus_sha256"] == digest
            assert manifest["annotation_provider"] == "preannotated"
            assert CORPUS not in path.read_text()  # no paths, so reruns elsewhere match

    def test_rerun_byte_identical(self, tmp_path):
        config = config_for(tmp_path)
        cmd_build(config)
        first = snapshot(config.output_dir)
        cmd_build(config)
        assert snapshot(config.output_dir) == first

    def test_missing_dish_specs_leaves_no_outputs(self, tmp_path):
        config = config_for(tmp_path, dish_specs_path=str(tmp_path / "nope.json"))
        with pytest.raises(FileNotFoundError):
            cmd_build(config)
        assert not (tmp_path / "out").exists()

    def test_annotates_only_matched_records(self, tmp_path, monkeypatch):
        resolved = resolve_countries(ingest.read_documents(CORPUS), load_registry())
        matched = {doc.id for dish in load_dish_specs(DISHES) for doc in matched_documents(resolved, dish)}
        calls = []
        monkeypatch.setattr(ingest, "filter_stream", lambda stream: calls.append(1) or filter_stream(stream))
        cmd_build(config_for(tmp_path))
        assert len(calls) == len(matched) < len(Path(CORPUS).read_text().splitlines())

    def test_dropped_warnings_name_matched_records_only(self, tmp_path, caplog):
        function_words = [{"lemma": "the", "pos": "DET"}, {"lemma": "of", "pos": "ADP"}]
        corpus, _ = write_corpus_with(
            tmp_path,
            bad_record(id="fw-matched", tokens=function_words),
            bad_record(id="fw-unmatched", title=UNMATCHED_TITLE, tokens=function_words),
        )
        config = config_for(tmp_path, corpus_path=corpus)
        with caplog.at_level(logging.WARNING, logger="cultnovelty"):
            result = cmd_build(config)
        assert "dropped document 'fw-matched' (empty after POS filter)" in caplog.text
        assert "fw-unmatched" not in caplog.text
        for path in result["manifests"]:
            manifest = json.loads(Path(path).read_text())
            assert "fw-matched" not in manifest["knowledge_ids"] + [v["id"] for v in manifest["variations"]]
        # the emptied record joins no split, so the eligibility report is the plain fixture's
        plain = config_for(tmp_path, output_dir=str(tmp_path / "plain"))
        cmd_build(plain)
        assert read_csv(Path(config.output_dir) / "eligibility.csv") == read_csv(
            Path(plain.output_dir) / "eligibility.csv")

    @pytest.mark.parametrize(
        "names,slug",
        [(["Cous Cous", "cous-cous"], "cous_cous"), (["Couscous", "Couscous"], "couscous")],
        ids=["same_slug", "repeated_name"],
    )
    def test_dish_names_sharing_a_slug_exit_two(self, tmp_path, capsys, names, slug):
        # both would write <slug>__MA.json; the second used to overwrite the first
        dishes = tmp_path / "dishes.json"
        dishes.write_text(json.dumps([{"name": "Paella"}] + [{"name": n, "aliases": ["couscous"]} for n in names]))
        code = main(["build", "--corpus", CORPUS, "--dishes", str(dishes), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert (f"{dishes}: dish entries 1 ({names[0]!r}) and 2 ({names[1]!r}) would share the manifest "
                f"files {slug}__<origin>.json") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_name_too_long_exits_two_before_any_output(self, tmp_path, capsys):
        country = "A" * 300
        corpus, _ = write_corpus_with(tmp_path, *(bad_record(id=f"long{i}", country=country) for i in range(6)))
        out = tmp_path / "out"
        code = main(["build", "--corpus", corpus, "--dishes", DISHES, "--output-dir", str(out)])
        assert code == 2
        assert (f"dish 'Couscous', origin {country!r}: manifest file name is 315 bytes long, "
                f"but {out / 'manifests'} takes at most") in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_names_that_would_collide_exit_two(self, tmp_path, capsys):
        # couscous + __ + __X and couscous__ + __ + X both give couscous____X.json
        dishes = tmp_path / "dishes.json"
        dishes.write_text(json.dumps([{"name": "Couscous"}, {"name": "Couscous__", "aliases": ["couscous"]}]))
        countries = ["__X"] * 6 + ["X"] * 6
        corpus, _ = write_corpus_with(tmp_path, *(bad_record(id=f"c{i}", country=c) for i, c in enumerate(countries)))
        out = tmp_path / "out"
        code = main(["build", "--corpus", corpus, "--dishes", str(dishes), "--output-dir", str(out)])
        assert code == 2
        assert ("dish 'Couscous', origin '__X' and dish 'Couscous__', origin 'X' would share the "
                "manifest file couscous____X.json") in capsys.readouterr().err
        assert not out.exists()

    def test_documents_hold_each_referenced_document_once_sorted_by_id(self, tmp_path):
        config = config_for(tmp_path)
        cmd_build(config)
        manifest_dir = Path(config.output_dir) / "manifests"
        referenced = set()
        for path in manifest_dir.glob("*.json"):
            manifest = json.loads(path.read_text())
            referenced |= set(manifest["knowledge_ids"]) | {v["id"] for v in manifest["variations"]}
        written = ingest.read_documents(manifest_dir / "documents.jsonl")
        assert [d.id for d in written] == sorted(referenced)
        corpus = {d.id: d for d in ingest.read_documents(CORPUS)}
        for doc in written:
            assert (doc.lemmas, doc.ingredients) == (corpus[doc.id].lemmas, corpus[doc.id].ingredients)

    def test_rebuild_removes_the_manifests_it_does_not_write(self, tmp_path):
        # score used to score the 7 stale manifests of the first build: 103 rows
        config = config_for(tmp_path)
        cmd_build(config)
        dishes = tmp_path / "biryani.json"
        dishes.write_text(json.dumps([{"name": "Biryani"}]))
        (Path(config.output_dir) / "manifests" / "notes.txt").write_text("kept")
        assert cmd_build(replace(config, dish_specs_path=str(dishes)))["manifests"] == []
        manifest_dir = Path(config.output_dir) / "manifests"
        assert sorted(p.name for p in manifest_dir.iterdir()) == ["documents.jsonl", "notes.txt"]
        assert (manifest_dir / "documents.jsonl").read_text() == ""
        assert read_csv(cmd_score(config)) == [list(SCORE_COLUMNS)]

    def test_padded_override_country_is_stripped(self, tmp_path):
        # " ma" used to write couscous__ MA.json, an origin no distance knows
        dishes = tmp_path / "dishes.json"
        dishes.write_text(json.dumps([{"name": "Couscous", "country_overrides": {"couscous": " ma"}}]))
        config = config_for(tmp_path, dish_specs_path=str(dishes))
        cmd_build(config)
        names = [p.name for p in (Path(config.output_dir) / "manifests").glob("*.json")]
        assert names == ["couscous__MA.json"]
        assert [row[1] for row in read_csv(Path(config.output_dir) / "eligibility.csv")[1:]] == ["MA"]


class TestScore:
    def test_columns_and_row_order(self, tmp_path):
        config = config_for(tmp_path)
        cmd_build(config)
        scores_path = cmd_score(config)
        rows = read_csv(scores_path)
        assert tuple(rows[0]) == SCORE_COLUMNS
        keys = [(r[0], r[1], r[2]) for r in rows[1:]]
        assert keys == sorted(keys)
        assert len(rows) - 1 == 103  # sum of variation counts over the 7 manifests

    def test_scores_match_config_lambda(self, tmp_path):
        config = config_for(tmp_path)
        cmd_build(config)
        rows = read_csv(cmd_score(config))
        header = rows[0]
        idx = {name: header.index(name) for name in header}
        for row in rows[1:]:
            appearance = float(row[idx["appearance"]])
            disappearance = float(row[idx["disappearance"]])
            combined = float(row[idx["newness"]])
            assert combined == pytest.approx(0.8 * appearance + 0.2 * disappearance, abs=1e-8)

    def test_empty_manifest_set(self, tmp_path):
        config = config_for(tmp_path)
        (tmp_path / "out" / "manifests").mkdir(parents=True)
        scores_path = cmd_score(config)
        rows = read_csv(scores_path)
        assert rows == [list(SCORE_COLUMNS)]


    def test_annotates_only_referenced_records(self, tmp_path, monkeypatch):
        config = config_for(tmp_path)
        cmd_build(config)
        referenced = set()
        for path in (Path(config.output_dir) / "manifests").glob("*.json"):
            manifest = json.loads(path.read_text())
            referenced |= set(manifest["knowledge_ids"]) | {v["id"] for v in manifest["variations"]}
        calls = []
        monkeypatch.setattr(ingest, "filter_stream", lambda stream: calls.append(1) or filter_stream(stream))
        cmd_score(config)
        assert len(calls) == len(referenced) < len(Path(CORPUS).read_text().splitlines())

    def test_window_past_every_document_scores_like_the_longest_one(self, tmp_path):
        # at the longest referenced document's token count every in-document gap
        # is already counted, so a larger window must give the same scores, at once
        built = tmp_path / "built"
        assert main(["build", "--corpus", CORPUS, "--dishes", DISHES, "--output-dir", str(built)]) == 0
        manifests = sorted(str(p) for p in (built / "manifests").glob("*.json"))
        longest = max(len(doc.lemmas) for doc in ingest.read_documents(built / "manifests" / "documents.jsonl"))
        scores = []
        for window in (longest, 10**9):
            out = tmp_path / f"window_{window}"
            done = subprocess.run(
                [sys.executable, "-m", "cultnovelty.cli", "score",
                 "--window", str(window), "--manifests", *manifests, "--output-dir", str(out)],
                env=src_env(), timeout=60, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            scores.append((out / "scores.csv").read_bytes())
        assert scores[0] == scores[1]

    @pytest.mark.parametrize("name, error", [
        ("score_all", "LengthMismatch"), ("lay_out", "LengthMismatch"), ("score_all", "RuntimeError"),
    ])
    def test_fault_inside_scoring_exits_three(self, tmp_path, name, error):
        # no row is skipped for an error while scoring: it is a fault, like one inside a mediation
        out = tmp_path / "out"
        assert main(["build", "--corpus", CORPUS, "--dishes", DISHES, "--seed", "17",
                     "--output-dir", str(out)]) == 0
        code = (
            "import sys\n"
            "from cultnovelty import cli, pipeline\n"
            "from cultnovelty.errors import LengthMismatch\n"
            "def fault(*args):\n"
            f"    raise {error}('planted')\n"
            f"pipeline.{name} = fault\n"  # _load_numeric binds no name already bound
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        done = subprocess.run([sys.executable, "-c", code, "score", "--output-dir", str(out)],
                              env=src_env(), timeout=60, capture_output=True, text=True)
        assert done.returncode == 3, done.stderr
        assert "cultnovelty: internal error: planted" in done.stderr
        assert "Traceback" in done.stderr
        assert not (out / "scores.csv").exists()


class TestScoreReadsBuildOutputs:
    """score reads the manifests and the documents.jsonl beside them, never the corpus."""

    @pytest.fixture
    def built(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(Path(CORPUS).read_bytes())
        out = tmp_path / "out"
        assert main(["build", "--corpus", str(corpus), "--dishes", DISHES, "--output-dir", str(out)]) == 0
        return corpus, out

    def test_scores_survive_an_edited_then_deleted_corpus(self, built):
        corpus, out = built
        assert main(["score", "--corpus", str(corpus), "--output-dir", str(out)]) == 0
        want = (out / "scores.csv").read_bytes()
        corpus.write_text("{not json\n")
        assert main(["score", "--output-dir", str(out)]) == 0
        assert (out / "scores.csv").read_bytes() == want
        corpus.unlink()
        assert main(["score", "--output-dir", str(out)]) == 0
        assert (out / "scores.csv").read_bytes() == want

    def test_manifest_without_documents_beside_it_exits_two(self, built, tmp_path, capsys):
        _, out = built
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        manifest = elsewhere / "couscous__MA.json"
        manifest.write_bytes((out / "manifests" / "couscous__MA.json").read_bytes())
        code = main(["score", "--manifests", str(manifest), "--output-dir", str(elsewhere)])
        assert code == 2
        assert str(elsewhere / "documents.jsonl") in capsys.readouterr().err
        assert not (elsewhere / "scores.csv").exists()

    def test_malformed_documents_line_exits_two_with_path_and_line(self, built, capsys):
        _, out = built
        documents = out / "manifests" / "documents.jsonl"
        n_lines = len(documents.read_text().splitlines())
        with documents.open("a") as fh:
            fh.write("{not json\n")
        assert main(["score", "--output-dir", str(out)]) == 2
        assert f"{documents}:{n_lines + 1}: invalid JSON" in capsys.readouterr().err
        assert not (out / "scores.csv").exists()

    def without_document(self, out, doc_id):
        documents = out / "manifests" / "documents.jsonl"
        lines = documents.read_text().splitlines(keepends=True)
        documents.write_text("".join(line for line in lines if json.loads(line)["id"] != doc_id))
        return documents

    def test_absent_knowledge_document_exits_two(self, built, capsys):
        _, out = built
        path = out / "manifests" / "couscous__MA.json"
        doc_id = json.loads(path.read_text())["knowledge_ids"][0]
        documents = self.without_document(out, doc_id)
        assert main(["score", "--manifests", str(path), "--output-dir", str(out)]) == 2
        assert f"{path}: knowledge document id {doc_id!r} not in {documents}" in capsys.readouterr().err

    def test_variation_id_in_two_documents_files_scores_each_own_tokens(self, built, tmp_path):
        # two manifest directories, each with its own documents.jsonl, list one
        # variation id with different tokens: each split must score its own
        _, out = built
        manifests = {name: json.loads((out / "manifests" / name).read_text())
                     for name in ("couscous__MA.json", "couscous__GR.json")}
        listed = [{v["id"] for v in m["variations"]} for m in manifests.values()]
        doc_id = sorted(set.intersection(*listed))[0]
        records = [json.loads(line) for line in (out / "manifests" / "documents.jsonl").read_text().splitlines()]
        tokens = {r["id"]: r["tokens"] for r in records}

        def write(directory, name, shared_tokens):
            directory.mkdir()
            (directory / name).write_text(json.dumps(manifests[name]))
            lines = [json.dumps({**r, "tokens": shared_tokens} if r["id"] == doc_id else r) for r in records]
            (directory / "documents.jsonl").write_text("\n".join(lines) + "\n")
            return directory / name

        # the second directory gives the shared id the tokens of a knowledge document
        paths = [write(tmp_path / "a", "couscous__MA.json", tokens[doc_id]),
                 write(tmp_path / "b", "couscous__GR.json",
                       tokens[manifests["couscous__GR.json"]["knowledge_ids"][0]])]

        def rows(*manifest_paths):
            return read_csv(cmd_score(RunConfig(output_dir=str(tmp_path / "scored")), manifest_paths))

        alone = [rows(path) for path in paths]
        together = rows(*paths)
        assert together[0] == alone[0][0] == alone[1][0]
        assert together[1:] == sorted(alone[0][1:] + alone[1][1:], key=lambda r: r[:3])
        # the two documents files really score the shared id differently
        a_row, b_row = ([r for r in part[1:] if r[2] == doc_id] for part in alone)
        assert a_row[0][4:] != b_row[0][4:]

    def test_variation_absent_from_documents_fails_once_per_listing(self, built, caplog):
        _, out = built
        paths = sorted((out / "manifests").glob("*.json"))
        listings = {}
        for path in paths:
            for entry in json.loads(path.read_text())["variations"]:
                listings.setdefault(entry["id"], []).append(path)
        doc_id = min(listings, key=lambda i: (-len(listings[i]), i))
        assert len(listings[doc_id]) > 1
        documents = self.without_document(out, doc_id)
        with caplog.at_level(logging.INFO, logger="cultnovelty"):
            assert main(["score", "--output-dir", str(out)]) == 0
        for path in listings[doc_id]:
            assert f"{path}: variation id {doc_id!r} not in {documents}, skipped" in caplog.text
        skipped = len(listings[doc_id])
        rows = sum(len(ids) for ids in listings.values()) - skipped
        assert f"score: {rows} rows written, {skipped} failures skipped" in caplog.text
        assert len(read_csv(out / "scores.csv")) - 1 == rows

    def test_absent_variation_document_is_skipped_with_a_warning(self, built, caplog):
        _, out = built
        path = out / "manifests" / "couscous__MA.json"
        variations = json.loads(path.read_text())["variations"]
        doc_id = variations[0]["id"]
        documents = self.without_document(out, doc_id)
        with caplog.at_level(logging.WARNING, logger="cultnovelty"):
            assert main(["score", "--manifests", str(path), "--output-dir", str(out)]) == 0
        assert f"{path}: variation id {doc_id!r} not in {documents}, skipped" in caplog.text
        assert len(read_csv(out / "scores.csv")) - 1 == len(variations) - 1


class TestAnalyze:
    @pytest.fixture(scope="class")
    def analyzed(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("analyzed")
        config = config_for(tmp_path)
        run_pipeline(config)
        return Path(config.output_dir)

    def test_tables_written(self, analyzed):
        for name in (
            "correlations_metrics.csv",
            "correlations_distances.csv",
            "regressions.csv",
            "marginal.csv",
            "mediation.csv",
            "run_manifest.json",
        ):
            assert (analyzed / name).exists()

    def test_metric_correlation_pairs(self, analyzed):
        rows = read_csv(analyzed / "correlations_metrics.csv")
        assert len(rows) - 1 == 10  # unordered pairs of the five metrics

    def test_distance_correlations_cover_grid(self, analyzed):
        rows = read_csv(analyzed / "correlations_distances.csv")
        assert len(rows) - 1 == 20  # 4 distances x 5 metrics

    def test_regression_terms(self, analyzed):
        rows = read_csv(analyzed / "regressions.csv")
        by_distance = {}
        for row in rows[1:]:
            by_distance.setdefault(row[0], []).append(row[3])
        for kind, terms in by_distance.items():
            assert terms[0] == "const"
            assert len(terms) == 9

    def test_run_manifest_defaults(self, analyzed):
        manifest = json.loads((analyzed / "run_manifest.json").read_text())
        assert manifest["config"]["lambda1"] == 0.8
        assert manifest["config"]["lambda2"] == 0.2
        assert manifest["config"]["pmi_window"] == 3
        assert manifest["config"]["holdout_fraction"] == 0.3
        assert manifest["tool_version"]
        assert manifest["input_digests"]

    def test_run_manifest_digests_the_registry_read(self, analyzed, tmp_path):
        bundled = bundled_registry().read_bytes()
        digests = json.loads((analyzed / "run_manifest.json").read_text())["input_digests"]
        assert digests["<bundled registry>"] == hashlib.sha256(bundled).hexdigest()
        assert len(digests) == 4  # scores, the bundled registry, linguistic and religious

        registry = tmp_path / "registry.json"
        registry.write_bytes(bundled + b"\n")
        out = tmp_path / "out"
        assert main(["analyze", "--scores", str(GOLDEN_SCORES), "--registry", str(registry),
                     "--n-boot", "0", "--output-dir", str(out)]) == 0
        digests = json.loads((out / "run_manifest.json").read_text())["input_digests"]
        assert digests == {
            str(GOLDEN_SCORES): hashlib.sha256(GOLDEN_SCORES.read_bytes()).hexdigest(),
            str(registry): hashlib.sha256(registry.read_bytes()).hexdigest(),
        }

    def test_mediation_identity_in_table(self, analyzed):
        rows = read_csv(analyzed / "mediation.csv")
        header = rows[0]
        idx = {name: header.index(name) for name in header}
        assert len(rows) > 1
        for row in rows[1:]:
            total = float(row[idx["total_effect"]])
            acme = float(row[idx["acme"]])
            ade = float(row[idx["ade"]])
            assert total == acme + ade

    @pytest.mark.parametrize("name", GOLDEN_EXACT)
    def test_output_matches_golden_bytes(self, analyzed, name):
        assert (analyzed / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_manifest_set_matches_golden(self, analyzed):
        got, want = ([p.name for p in (d / "manifests").glob("*.json")] for d in (analyzed, GOLDEN))
        assert sorted(got) == sorted(want)

    def test_mediation_matches_golden(self, analyzed):
        # bootstrap statistics may move in their last digits with the summation
        # order; labels, row order and bootstrap p-values may not
        got = read_csv(analyzed / "mediation.csv")
        want = read_csv(GOLDEN / "mediation.csv")
        assert got[0] == want[0] and len(got) == len(want)
        for got_row, want_row in zip(got[1:], want[1:]):
            for column, g, w in zip(want[0], got_row, want_row):
                if column in MEDIATION_EXACT_COLUMNS or w == "":
                    assert g == w, (want_row[:3], column)
                else:
                    assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=0.0), (
                        want_row[:3], column, g, w)

    def test_cells_are_plain_numbers(self, analyzed):
        for path in sorted(analyzed.glob("*.csv")):
            assert "np.float64(" not in path.read_text(), path.name

    def test_blank_line_in_scores_is_skipped(self, tmp_path):
        lines = GOLDEN_SCORES.read_text(encoding="utf-8").splitlines()
        lines.insert(4, "")
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", "--scores", str(scores), "--linguistic", LINGUISTIC,
                     "--religious", RELIGIOUS, "--n-boot", "0", "--output-dir", str(out)]) == 0
        # the tables that do not depend on --n-boot
        for name in ("correlations_metrics.csv", "correlations_distances.csv", "regressions.csv",
                     "marginal.csv"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_scores_of_only_a_header_give_tables_of_only_a_header(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(",".join(SCORE_COLUMNS) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", "--scores", str(scores), "--output-dir", str(out)]) == 0
        assert "from 0 row(s)" in capsys.readouterr().out
        for name, header in ANALYZE_TABLES.items():
            assert read_csv(out / name) == [list(header)], name

    def test_zero_country_overlap_gives_empty_regressions(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir(parents=True)
        scores = out / "scores.csv"
        header = ",".join(SCORE_COLUMNS)
        rows = [header]
        for i in range(12):
            rows.append(
                f"Dish,Q{i % 2}A,v{i:02d},Q{(i + 1) % 2}B,"
                + ",".join(fmt_float(0.1 * (i % 7) + 0.05 * j) for j in range(10))
            )
        scores.write_text("\n".join(rows) + "\n")
        config = config_for(tmp_path, linguistic_path=None, religious_path=None)
        cmd_analyze(config)
        table = read_csv(out / "regressions.csv")
        assert len(table) == 1  # header only

    def test_distances_covering_some_rows(self, tmp_path, caplog):
        # one Moroccan split of 12 variations: linguistic covers the 5 from JP and IT,
        # religious the 2 from MX, and iw and geo all 12
        out = tmp_path / "out"
        out.mkdir(parents=True)
        cultures = ["JP"] * 3 + ["IT"] * 2 + ["MX"] * 2 + ["GR"] * 5
        values = np.random.default_rng(0).uniform(0.0, 1.0, (len(cultures), 10))
        lines = [",".join(SCORE_COLUMNS)] + [
            f"Dish,MA,v{i:02d},{culture}," + ",".join(fmt_float(v) for v in values[i])
            for i, culture in enumerate(cultures)
        ]
        (out / "scores.csv").write_text("\n".join(lines) + "\n")
        linguistic = tmp_path / "linguistic.csv"
        linguistic.write_text("iso_a,iso_b,distance\nMA,JP,0.4\nIT,MA,0.7\n")
        religious = tmp_path / "religious.csv"
        religious.write_text("iso_a,iso_b,distance\nMA,MX,0.3\n")
        config = config_for(tmp_path, linguistic_path=str(linguistic),
                            religious_path=str(religious))
        with caplog.at_level(logging.WARNING, logger="cultnovelty.pipeline"):
            cmd_analyze(config)
        lacking = {m for m in caplog.messages if "rows lack" in m}
        assert lacking == {"analyze: 7/12 rows lack a linguistic distance",
                           "analyze: 10/12 rows lack a religious distance"}

        correlations = read_csv(out / "correlations_distances.csv")[1:]
        metrics = ("newness", "uniqueness", "difference", "new_surprise", "divergent_surprise")
        assert [row[:3] for row in correlations] == [
            [kind, metric, n]
            for kind, n in (("iw", "12"), ("geo", "12"), ("linguistic", "5"), ("religious", "2"))
            for metric in metrics
        ]
        assert all(row[3] and row[4] for row in correlations if row[0] != "religious")
        assert all(row[3:] == ["", ""] for row in correlations if row[0] == "religious")
        marginal = read_csv(out / "marginal.csv")[1:]
        assert [row[2] for row in marginal if row[0] == "linguistic"] == ["5"] * 5
        assert {row[0] for row in marginal} == {"iw", "geo", "linguistic"}
        regressions = read_csv(out / "regressions.csv")[1:]
        assert [(row[0], row[1]) for row in regressions] == [("iw", "12")] * 9 + [("geo", "12")] * 9
        mediation = read_csv(out / "mediation.csv")[1:]
        assert {row[0] for row in mediation} == {"iw", "geo"}

    def test_row_floors_of_small_splits_and_sparse_distances(self, tmp_path, caplog):
        # the 12-row Moroccan split above, plus a 2-row and a 1-row split: too small
        # for Kendall, and linguistic (7 rows) and religious (2) too sparse to regress
        # fully or to mediate
        cultures = ["JP"] * 3 + ["IT"] * 2 + ["MX"] * 2 + ["GR"] * 5
        splits = [("Dish", "MA", c) for c in cultures] + [("Dish", "JP", "MA"), ("Dish", "JP", "IT"),
                                                         ("Other", "IT", "MA")]
        values = np.random.default_rng(0).uniform(0.0, 1.0, (len(splits), 10))
        lines = [",".join(SCORE_COLUMNS)] + [
            f"{product},{kb},v{i:02d},{culture}," + ",".join(fmt_float(v) for v in values[i])
            for i, (product, kb, culture) in enumerate(splits)
        ]
        linguistic = tmp_path / "linguistic.csv"
        linguistic.write_text("iso_a,iso_b,distance\nMA,JP,0.4\nIT,MA,0.7\n")
        religious = tmp_path / "religious.csv"
        religious.write_text("iso_a,iso_b,distance\nMA,MX,0.3\n")

        def analyze(name, rows):
            scores = tmp_path / f"{name}.csv"
            scores.write_text("\n".join(rows) + "\n")
            out = tmp_path / name
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="cultnovelty.pipeline"):
                code = main(["analyze", "--scores", str(scores), "--linguistic", str(linguistic),
                             "--religious", str(religious), "--n-boot", "30",
                             "--output-dir", str(out)])
            assert code == 0
            return out, list(caplog.messages)

        out, warnings = analyze("all", lines)
        metrics = ("newness", "uniqueness", "difference", "new_surprise", "divergent_surprise")
        assert warnings == [
            "analyze: 8/15 rows lack a linguistic distance",
            "analyze: full linguistic regression skipped (7 rows cannot identify 9 parameters)",
            "analyze: 13/15 rows lack a religious distance",
            "analyze: full religious regression skipped (2 rows cannot identify 9 parameters)",
        ] + [f"analyze: marginal religious ~ {metric} skipped (2 rows cannot identify 2 parameters)"
             for metric in metrics]
        correlations = read_csv(out / "correlations_distances.csv")[1:]
        assert [row[2:] for row in correlations if row[0] == "religious"] == [["2", "", ""]] * 5
        assert {row[0] for row in read_csv(out / "mediation.csv")[1:]} == {"iw", "geo"}

        # the 2-row and 1-row splits reach no Kendall or RBO cell
        large, _ = analyze("large", lines[:1 + len(cultures)])
        split_columns = slice(4, 7)  # kendall_tau, kendall_p, rbo
        assert [row[split_columns] for row in read_csv(out / "correlations_metrics.csv")] == [
            row[split_columns] for row in read_csv(large / "correlations_metrics.csv")]

    def test_fault_inside_a_mediation_exits_three(self, tmp_path, capsys, monkeypatch):
        # an undefined statistic skips its mediation; any other error is a fault
        def fault(table, columns):
            raise LengthMismatch("planted")

        monkeypatch.setattr(pipeline, "mediate", fault)
        code = main(["analyze", "--scores", str(GOLDEN_SCORES), "--linguistic", LINGUISTIC,
                     "--religious", RELIGIOUS, "--n-boot", "0", "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert "cultnovelty: internal error: planted" in capsys.readouterr().err

    def test_distance_file_without_self_pairs_keeps_same_country_rows(self, tmp_path, caplog):
        # a country is at distance 0 from itself whether or not the file says so
        assert any(row[1] == row[3] for row in read_csv(GOLDEN_SCORES)[1:])  # same-country rows
        lines = Path(LINGUISTIC).read_text(encoding="utf-8").splitlines()
        cross = [line for line in lines[1:] if line.split(",")[0] != line.split(",")[1]]
        assert len(cross) < len(lines) - 1  # the fixture lists its self-pairs
        linguistic = tmp_path / "linguistic.csv"
        linguistic.write_text("\n".join([lines[0], *cross]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="cultnovelty.pipeline"):
            code = main(["analyze", "--scores", str(GOLDEN_SCORES), "--linguistic", str(linguistic),
                         "--religious", RELIGIOUS, "--n-boot", "0", "--output-dir", str(out)])
        assert code == 0
        assert not [m for m in caplog.messages if "rows lack a linguistic distance" in m]
        n_by_kind = {row[0]: row[2] for row in read_csv(out / "correlations_distances.csv")[1:]}
        assert n_by_kind["linguistic"] == n_by_kind["iw"]

    def test_country_without_cultural_map_coordinates_keeps_its_same_country_rows(
        self, tmp_path, caplog
    ):
        # the self-pair rule holds for iw too: MA is at 0 from itself, and at no
        # distance from any other country
        entries = json.loads(bundled_registry().read_text("utf-8"))
        for entry in entries:
            if entry["iso"] == "MA":
                entry["iw"] = None
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(entries), encoding="utf-8")
        rows = read_csv(GOLDEN_SCORES)[1:]
        involved = [row for row in rows if "MA" in (row[1], row[3])]
        lacking = sum(row[1] != row[3] for row in involved)
        assert 0 < lacking < len(involved)  # MA has same-country rows and others
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="cultnovelty.pipeline"):
            code = main(["analyze", "--scores", str(GOLDEN_SCORES), "--registry", str(registry),
                         "--linguistic", LINGUISTIC, "--religious", RELIGIOUS, "--n-boot", "0",
                         "--output-dir", str(out)])
        assert code == 0
        assert [m for m in caplog.messages if "rows lack" in m] == [
            f"analyze: {lacking}/{len(rows)} rows lack a iw distance"
        ]
        n_by_kind = {row[0]: int(row[2]) for row in read_csv(out / "correlations_distances.csv")[1:]}
        assert n_by_kind == {"iw": len(rows) - lacking, "geo": len(rows),
                             "linguistic": len(rows), "religious": len(rows)}

    def test_distance_file_of_only_a_header_gives_no_regression(self, tmp_path, caplog):
        # such a file covers only the same-country rows, every one at distance 0:
        # a constant response, which no correlation or regression can explain
        linguistic = tmp_path / "linguistic.csv"
        linguistic.write_text("iso_a,iso_b,distance\n", encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="cultnovelty.pipeline"):
            code = main(["analyze", "--scores", str(GOLDEN_SCORES), "--linguistic", str(linguistic),
                         "--religious", RELIGIOUS, "--n-boot", "0", "--output-dir", str(out)])
        assert code == 0
        same = sum(row[1] == row[3] for row in read_csv(GOLDEN_SCORES)[1:])
        correlations = read_csv(out / "correlations_distances.csv")[1:]
        assert [row[2:] for row in correlations if row[0] == "linguistic"] == [[str(same), "", ""]] * 5
        for name in ("regressions.csv", "marginal.csv"):
            assert {row[0] for row in read_csv(out / name)[1:]} == {"iw", "geo", "religious"}
        metrics = ("newness", "uniqueness", "difference", "new_surprise", "divergent_surprise")
        assert [m for m in caplog.messages if m.startswith("analyze: marginal")] == [
            f"analyze: marginal linguistic ~ {metric} skipped "
            "(regression is undefined for a constant response)"
            for metric in metrics
        ]


class TestOverflowingRegression:
    def test_distances_that_overflow_a_regression_skip_it(self, tmp_path, caplog):
        # finite and accepted by the loader, but the sums of squares overflow float64
        lines = Path(LINGUISTIC).read_text(encoding="utf-8").splitlines()
        scaled = [f"{a},{b},{float(d) * 1e300!r}" for a, b, d in (line.split(",") for line in lines[1:])]
        linguistic = tmp_path / "linguistic.csv"
        linguistic.write_text("\n".join([lines[0], *scaled]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="cultnovelty.pipeline"):
            code = main(["analyze", "--scores", str(GOLDEN_SCORES), "--linguistic", str(linguistic),
                         "--religious", RELIGIOUS, "--n-boot", "20", "--output-dir", str(out)])
        assert code == 0
        assert "analyze: full linguistic regression skipped (the regression overflows float64)" in caplog.messages
        for name in ("regressions.csv", "marginal.csv"):
            kinds = {row[0] for row in read_csv(out / name)[1:]}
            assert kinds == {"iw", "geo", "religious"}

    def test_distances_whose_squares_underflow_skip_their_regressions(self, tmp_path, caplog):
        # finite and accepted by the loader, but the squared deviations underflow
        # float64: a fit would report r squared 1 and every p 0
        lines = Path(LINGUISTIC).read_text(encoding="utf-8").splitlines()
        scaled = [f"{a},{b},{float(d) * 1e-170!r}" for a, b, d in (line.split(",") for line in lines[1:])]
        linguistic = tmp_path / "linguistic.csv"
        linguistic.write_text("\n".join([lines[0], *scaled]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="cultnovelty.pipeline"):
            code = main(["analyze", "--scores", str(GOLDEN_SCORES), "--linguistic", str(linguistic),
                         "--religious", RELIGIOUS, "--n-boot", "0", "--output-dir", str(out)])
        assert code == 0
        metrics = ("newness", "uniqueness", "difference", "new_surprise", "divergent_surprise")
        assert [m for m in caplog.messages if "linguistic" in m and "skipped" in m] == [
            "analyze: full linguistic regression skipped (the regression underflows float64)"
        ] + [f"analyze: marginal linguistic ~ {metric} skipped (the regression underflows float64)"
             for metric in metrics]
        for name in ("regressions.csv", "marginal.csv"):
            assert {row[0] for row in read_csv(out / name)[1:]} == {"iw", "geo", "religious"}
        # pearson rescales by a power of two, so the correlations keep their rows
        correlations = [row for row in read_csv(out / "correlations_distances.csv")[1:]
                        if row[0] == "linguistic"]
        assert len(correlations) == 5 and all(row[3] and row[4] for row in correlations)

    def test_metric_that_overflows_skips_only_its_mediations(self, tmp_path, caplog):
        # every kind's 15 mediations share one Gram table; the overflowing
        # metric's column fails its own 3 mediations per kind and no others
        rows = read_csv(GOLDEN_SCORES)
        column = rows[0].index("difference")
        for row in rows[1:]:
            row[column] = repr(float(row[column]) * 1e300)
        scores = tmp_path / "scores.csv"
        with scores.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="cultnovelty.pipeline"):
            code = main(["analyze", "--scores", str(scores), "--linguistic", LINGUISTIC,
                         "--religious", RELIGIOUS, "--n-boot", "20", "--output-dir", str(out)])
        assert code == 0
        kinds = ("iw", "geo", "linguistic", "religious")
        mediators = ("lexical_diversity", "new_ingredient_ratio", "length_ratio")
        assert [m for m in caplog.messages if "analyze: mediation" in m] == [
            f"analyze: mediation {kind}/difference/{mediator} skipped "
            "(a series overflows float64 when standardized)"
            for kind in kinds
            for mediator in mediators
        ]
        written = {tuple(row[:3]) for row in read_csv(out / "mediation.csv")[1:]}
        assert len(written) == 4 * 4 * 3 and not any(metric == "difference" for _, metric, _ in written)


class TestDeterminism:
    def test_full_pipeline_byte_identical_across_reruns(self, tmp_path):
        config = config_for(tmp_path)
        run_pipeline(config)
        first = snapshot(config.output_dir)

        for p in sorted(Path(config.output_dir).rglob("*"), reverse=True):
            p.unlink() if p.is_file() else p.rmdir()

        run_pipeline(config)
        assert snapshot(config.output_dir) == first


class TestDistancesCommand:
    def test_matrices_written(self, tmp_path):
        config = config_for(tmp_path)
        written = cmd_distances(config)
        assert sorted(Path(p).name for p in written) == ["geo.csv", "iw.csv"]
        geo_rows = read_csv(Path(config.output_dir) / "geo.csv")
        assert geo_rows[0] == ["iso_a", "iso_b", "distance"]
        lookup = {(r[0], r[1]): float(r[2]) for r in geo_rows[1:]}
        assert lookup[("DE", "FR")] == pytest.approx(878, abs=2)


class TestReportCommand:
    def test_bundle(self, tmp_path):
        config = config_for(tmp_path)
        run_pipeline(config)
        bundle = cmd_report(config)
        index = json.loads((bundle / "bundle_index.json").read_text())
        assert set(index["files"]) == {
            "correlations_metrics.csv",
            "correlations_distances.csv",
            "regressions.csv",
            "marginal.csv",
            "mediation.csv",
            "run_manifest.json",
        }
        for name in index["files"]:
            assert (bundle / name).exists()


class TestCli:
    def test_usage_error_exits_one(self, capsys):
        assert main(["not-a-command"]) == 1

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "build",
                "--corpus", CORPUS,
                "--dishes", str(tmp_path / "missing.json"),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_bad_config_value_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "build",
                "--corpus", CORPUS,
                "--dishes", DISHES,
                "--holdout", "1.5",
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "text,message",
        [('{"holdout_fraction": 1.5}', "holdout_fraction must lie in [0, 1)"),
         ('{"rbo_p": 0}', "rbo_p must lie strictly inside (0, 1)"),
         ('{"lambda1": NaN}', "lambda1 must lie in [0, 1]"),
         ('{"lambda1": 5}', "lambda1 must lie in [0, 1]"),
         ('{"annotation_provider": "spacy"}', "annotation_provider must be 'preannotated' or 'naive'"),
         ('{"registry_path": "a\\u0000b"}', "registry_path must not contain a NUL character"),
         ('{"seed": -1}', "seed must be >= 0")],
        ids=["holdout", "rbo_p", "nan_lambda", "lambda_above_one", "provider", "nul_in_path",
             "negative_seed"],
    )
    def test_config_value_out_of_range_exits_two(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        code = main(["build", "--config", str(config_path), "--corpus", CORPUS, "--dishes", DISHES,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{config_path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flag_out_of_range_beside_a_valid_config_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"holdout_fraction": 0.2}')
        code = main(["build", "--config", str(config_path), "--holdout", "1.5", "--corpus", CORPUS,
                     "--dishes", DISHES, "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad configuration: holdout_fraction must lie in [0, 1)" in err
        assert str(config_path) not in err

    def test_flag_mends_an_out_of_range_config_value(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"holdout_fraction": 1.5}')
        code = main(["build", "--config", str(config_path), "--holdout", "0.3", "--corpus", CORPUS,
                     "--dishes", DISHES, "--output-dir", str(tmp_path / "out")])
        assert code == 0

    def test_config_file_not_utf8_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b'{"seed": "\xff"}')
        code = main(["build", "--config", str(config_path), "--corpus", CORPUS, "--dishes", DISHES,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("option", ["--config", "--dishes"])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, option):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        # a repeated option takes its last value
        code = main(["build", "--corpus", CORPUS, "--dishes", DISHES,
                     "--output-dir", str(tmp_path / "out"), option, str(path)])
        assert code == 2
        assert f"{path}: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,text",
        [("--config", f'{{"seed": {HUGE_INTEGER}}}'),
         ("--dishes", f'[{{"name": "Couscous", "aliases": [{HUGE_INTEGER}]}}]'),
         ("--registry", f'[{{"iso": "MA", "name": "Morocco", "iw": [{HUGE_INTEGER}, 0]}}]'),
         ("--corpus", f'{{"id": {HUGE_INTEGER}}}'),
         ("--manifests", f'{{"product": "Couscous", "origin": "MA", "knowledge_ids": [{HUGE_INTEGER}]}}')],
        ids=["config", "dish_specs", "registry", "corpus_line", "manifest"],
    )
    def test_integer_over_the_digit_limit_exits_two(self, tmp_path, capsys, option, text):
        path = tmp_path / "input"
        where = str(path)
        if option == "--corpus":  # one more line after the fixture corpus
            text = Path(CORPUS).read_text(encoding="utf-8") + text + "\n"
            where += ":" + str(text.count("\n"))
        path.write_text(text, encoding="utf-8")
        command = "score" if option == "--manifests" else "build"
        # a repeated option takes its last value
        code = main([command, "--corpus", CORPUS, "--dishes", DISHES,
                     "--output-dir", str(tmp_path / "out"), option, str(path)])
        assert code == 2
        assert f"{where}: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_newness_quantile_flag_is_a_usage_error(self, tmp_path, capsys):
        code = main(["score", "--corpus", CORPUS, "--newness-quantile", "0.5",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        code = main(
            ["build", "--corpus", CORPUS, "--dishes", DISHES, "--workers", "2",
             "--output-dir", str(tmp_path / "out")]
        )
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_config_naming_workers_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"workers": 2}))
        code = main(["score", "--config", str(config_path), "--corpus", CORPUS,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "unknown config keys ['workers']" in capsys.readouterr().err

    def test_config_value_of_wrong_type_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"pmi_window": "3"}))
        code = main(["build", "--config", str(config_path), "--corpus", CORPUS, "--dishes", DISHES,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{config_path}: config key 'pmi_window' has the wrong type: '3'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field,message",
        [({"country_overrides": ["x"]}, "country_overrides must be a JSON object"),
         ({"aliases": "couscous"}, "aliases must be a JSON array"),
         ({"excluded": "sweet"}, "excluded must be a JSON array"),
         # str() would make these the alias "none", the forced country "NONE" and the dish "7"
         ({"aliases": ["couscous", None]}, "aliases holds None, not a JSON string"),
         ({"excluded": [1.5]}, "excluded holds 1.5, not a JSON string"),
         ({"country_overrides": {"valencia": None}}, "country_overrides holds None, not a JSON string"),
         ({"name": 7}, "name holds 7, not a JSON string")],
        ids=["overrides_not_object", "aliases_not_array", "excluded_not_array", "alias_null",
             "exclusion_number", "override_null", "name_number"],
    )
    def test_dish_field_of_wrong_type_exits_two(self, tmp_path, capsys, field, message):
        dishes = tmp_path / "dishes.json"
        dishes.write_text(json.dumps([{"name": "Couscous", **field}]))
        code = main(["build", "--corpus", CORPUS, "--dishes", str(dishes),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{dishes}: dish entry 0: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field",
        [{"name": ""}, {"aliases": ["couscous", " "]}, {"excluded": [""]},
         {"country_overrides": {"\t": "MA"}}, {"country_overrides": {"valencia": " "}}],
        ids=["name", "aliases", "excluded", "country_overrides", "override_country"],
    )
    def test_blank_dish_string_exits_two(self, tmp_path, capsys, field):
        dishes = tmp_path / "dishes.json"
        dishes.write_text(json.dumps([{"name": "Paella"}, {"name": "Couscous", **field}]))
        code = main(["build", "--corpus", CORPUS, "--dishes", str(dishes),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        key = next(iter(field))
        assert f"{dishes}: dish entry 1: {key} holds an empty or blank string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_settable_config_field_has_a_flag(self):
        args = build_parser().parse_args(["build"])
        assert {f.name for f in fields(RunConfig) if f.init} <= set(vars(args))
        assert _config_from_args(args) == RunConfig()

    @pytest.mark.parametrize("lambda1", ["5", "-1", "nan"])
    def test_lambda1_flag_outside_the_unit_interval_exits_one(self, tmp_path, capsys, lambda1):
        # --lambda1 5 used to score newness in [-0.114, 2.099]
        assert main(["score", "--lambda1", lambda1, "--output-dir", str(tmp_path / "out")]) == 1
        assert "bad configuration: lambda1 must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_lambda2_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"lambda2": 0.2}')
        assert main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
        assert f"{config_path}: unknown config keys ['lambda2']" in capsys.readouterr().err

    @pytest.mark.parametrize("lambda1,lambda2", [("0.8", 0.2), ("0.7", 0.3), ("0.1", 0.9), ("1", 0.0)])
    def test_lambda2_is_the_decimal_complement(self, lambda1, lambda2):
        # in binary, 1 - 0.8 is 0.19999999999999996 and 1 - 0.7 is 0.30000000000000004
        config = _config_from_args(build_parser().parse_args(["score", "--lambda1", lambda1]))
        assert (config.lambda1, config.lambda2) == (float(lambda1), lambda2)

    def test_explicit_default_lambda1_keeps_scores_byte_identical(self, tmp_path, capsys):
        base = ["--corpus", CORPUS, "--output-dir", str(tmp_path / "out"), "--seed", "17"]
        assert main(["build", "--dishes", DISHES] + base) == 0
        scores = []
        for extra in ([], ["--lambda1", "0.8"]):
            assert main(["score"] + base + extra) == 0
            scores.append((tmp_path / "out" / "scores.csv").read_bytes())
        assert scores[0] == scores[1]

    def test_override_country_that_cannot_name_a_file_exits_two(self, tmp_path, capsys):
        dishes = tmp_path / "dishes.json"
        dishes.write_text(json.dumps([{"name": "Couscous", "country_overrides": {"couscous": "a/b"}}]))
        code = main(["build", "--corpus", CORPUS, "--dishes", str(dishes),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{dishes}: dish entry 0: country 'A/B' cannot name a manifest file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_full_run_via_cli(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        base = ["--corpus", CORPUS, "--output-dir", out, "--seed", "17", "--n-boot", "10"]
        assert main(["build", "--dishes", DISHES] + base) == 0
        assert main(["score"] + base) == 0
        assert (
            main(
                ["analyze", "--linguistic", LINGUISTIC, "--religious", RELIGIOUS] + base
            )
            == 0
        )
        assert main(["report"] + base) == 0
        assert (Path(out) / "bundle" / "run_manifest.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "corpus_path": CORPUS,
                    "dish_specs_path": DISHES,
                    "output_dir": str(tmp_path / "from_file"),
                    "seed": 1,
                }
            )
        )
        out = str(tmp_path / "flag_wins")
        assert main(["build", "--config", str(config_path), "--output-dir", out]) == 0
        assert Path(out).exists()
        assert not (tmp_path / "from_file").exists()

    def test_naive_provider_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        base = [
            "--corpus", CORPUS, "--output-dir", out,
            "--seed", "3", "--provider", "naive",
        ]
        assert main(["build", "--dishes", DISHES] + base) == 0
        assert main(["score"] + base) == 0
        rows = read_csv(Path(out) / "scores.csv")
        assert len(rows) > 1


def write_corpus_with(tmp_path, *records):
    """The fixture corpus with records appended; returns (path, the first one's line)."""
    lines = Path(CORPUS).read_text(encoding="utf-8").splitlines()
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines + [json.dumps(r) for r in records]) + "\n", encoding="utf-8")
    return str(path), len(lines) + 1


MATCHED_TITLE = "Moroccan Couscous"
UNMATCHED_TITLE = "plain bowl"  # names no dish and no country


def bad_record(**fields):
    record = {"id": "bad", "title": MATCHED_TITLE, "ingredients": ["salt"],
              "tokens": [{"lemma": "salt", "pos": "NOUN"}]}
    record.update(fields)
    return record


def each_title(cases):
    """Each (id, values) case under a dish-matched title, keeping its id, and
    again under an unmatched one: every line is checked, annotated or not."""
    return [
        pytest.param(*values, title, id=case_id + suffix)
        for case_id, values in cases
        for suffix, title in (("", MATCHED_TITLE), ("-unmatched", UNMATCHED_TITLE))
    ]


class TestBadCorpusRecords:
    @pytest.mark.parametrize(
        "fields,provider,title",
        each_title([
            ("lemma_with_space", ({"tokens": [{"lemma": "olive oil", "pos": "NOUN"}]}, "preannotated")),
            ("token_not_object", ({"tokens": ["salt"]}, "preannotated")),
            ("token_without_lemma_or_text", ({"tokens": [{"pos": "NOUN"}]}, "preannotated")),
            ("tokens_not_array", ({"tokens": "abc"}, "preannotated")),
            ("ingredients_not_array", ({"ingredients": 5}, "preannotated")),
            ("naive_blank_text", ({"text": " \t"}, "naive")),
            # str() made these the id 'None', 'True' or '', the country '7', the
            # ingredient 'none', the lemma 'none' and the naive body ['none']
            ("id_null", ({"id": None}, "preannotated")),
            ("id_boolean", ({"id": True}, "preannotated")),
            ("id_empty", ({"id": ""}, "preannotated")),
            ("country_number", ({"country": 7}, "preannotated")),
            ("ingredient_null", ({"ingredients": [None, "salt"]}, "preannotated")),
            ("lemma_null", ({"tokens": [{"lemma": None, "pos": "NOUN"}]}, "preannotated")),
            ("token_text_number", ({"tokens": [{"text": 5, "pos": "NUM"}]}, "preannotated")),
            ("pos_array", ({"tokens": [{"lemma": "salt", "pos": ["NOUN"]}]}, "preannotated")),
            ("naive_text_null", ({"text": None}, "naive")),
            ("naive_text_number", ({"text": 7}, "naive")),
        ]),
    )
    def test_build_exits_two_with_path_and_line(self, tmp_path, capsys, fields, provider, title):
        corpus, line = write_corpus_with(tmp_path, bad_record(title=title, **fields))
        code = main(["build", "--corpus", corpus, "--dishes", DISHES, "--provider", provider,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{corpus}:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields,provider,message",
        [({"title": 7}, "preannotated", "title holds 7, not a JSON string"),
         ({"id": None}, "preannotated", "id holds None, not a JSON string or integer"),
         ({"id": " "}, "preannotated", "id holds an empty or blank string"),
         ({"country": ["MA"]}, "preannotated", "country holds ['MA'], not a JSON string"),
         ({"ingredients": ["salt", 1]}, "preannotated", "ingredients holds 1, not a JSON string"),
         ({"tokens": [{"lemma": "salt", "pos": "NOUN"}, {"lemma": None}]}, "preannotated",
          "token 1 lemma holds None, not a JSON string"),
         ({"text": None}, "naive", "provider is naive but record has no text"),
         ({"text": ["salt"]}, "naive", "text holds ['salt'], not a JSON string")],
        ids=["title", "id", "id_blank", "country", "ingredient", "lemma", "naive_text_null",
             "naive_text_array"],
    )
    def test_value_of_wrong_type_names_the_field(self, tmp_path, capsys, fields, provider, message):
        corpus, line = write_corpus_with(tmp_path, bad_record(**fields))
        code = main(["build", "--corpus", corpus, "--dishes", DISHES, "--provider", provider,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{corpus}:{line}: {message}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "country,title",
        each_title([(case_id, (country,)) for case_id, country in [
            ("nul", "M\u0000A"), ("slash", "a/b"), ("backslash", "a\\b"), ("control", "m\u001fa"),
            ("delete", "\u007f"), ("dot", "."), ("dotdot", " .. ")]]),
    )
    def test_country_that_cannot_name_a_file_exits_two_before_any_output(
        self, tmp_path, capsys, country, title
    ):
        # the origin names the manifest file: couscous__<origin>.json
        corpus, line = write_corpus_with(tmp_path, bad_record(country=country, title=title))
        out = tmp_path / "out"
        code = main(["build", "--corpus", corpus, "--dishes", DISHES, "--output-dir", str(out)])
        assert code == 2
        assert f"{corpus}:{line}: country {country.strip().upper()!r} cannot name a manifest file" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def check_repeated_id(self, tmp_path, capsys, title):
        # the repeat check runs before annotation, so the id of a dropped or
        # unannotated record counts too
        first = bad_record(title=title, tokens=[{"lemma": "the", "pos": "DET"}])
        corpus, line = write_corpus_with(tmp_path, first, bad_record())
        code = main(["build", "--corpus", corpus, "--dishes", DISHES, "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{corpus}:{line + 1}: duplicate document id 'bad'" in capsys.readouterr().err

    def test_id_repeated_after_a_dropped_record_exits_two(self, tmp_path, capsys):
        self.check_repeated_id(tmp_path, capsys, MATCHED_TITLE)

    def test_id_repeated_after_an_unmatched_record_exits_two(self, tmp_path, capsys):
        self.check_repeated_id(tmp_path, capsys, UNMATCHED_TITLE)


class TestCorpusFields:
    def build(self, tmp_path, records, dishes=DISHES):
        lines = Path(CORPUS).read_text(encoding="utf-8").splitlines()
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines + [json.dumps(r) for r in records]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["build", "--corpus", str(corpus), "--dishes", str(dishes), "--output-dir", str(out)]) == 0
        origins = {row[1] for row in read_csv(out / "eligibility.csv")[1:]}
        return out, origins

    def country_in_split(self, out, name, doc_id):
        """The country a split gives the document: its origin, or the variation's own."""
        manifest = json.loads((out / "manifests" / name).read_text())
        countries = {v["id"]: v["country"] for v in manifest["variations"]}
        countries.update(dict.fromkeys(manifest["knowledge_ids"], manifest["origin"]))
        return countries[doc_id]

    def test_null_country_falls_back_to_title_detection(self, tmp_path):
        out, origins = self.build(tmp_path, [bad_record(id="n1", country=None)])
        assert self.country_in_split(out, "couscous__MA.json", "n1") == "MA"
        assert "NONE" not in origins

    @pytest.mark.parametrize("country", ["", "  "])
    def test_blank_country_falls_back_to_title_detection(self, tmp_path, country):
        out, origins = self.build(tmp_path, [bad_record(id="b1", country=country)])
        assert self.country_in_split(out, "couscous__MA.json", "b1") == "MA"

    def test_padded_country_is_stripped(self, tmp_path):
        out, origins = self.build(tmp_path, [bad_record(id="p1", title="Couscous Bowl", country=" ma ")])
        assert self.country_in_split(out, "couscous__MA.json", "p1") == "MA"
        assert not {o for o in origins if o != o.strip()}

    def test_origin_of_one_record_is_ineligible_on_its_knowledge_side(self, tmp_path):
        # one Korean couscous: no document is held out, and one is below the floor
        # of two; the 17 couscous of other origins are its variations
        out, _ = self.build(tmp_path, [bad_record(id="k1", title="Couscous Bowl", country="KR")])
        rows = read_csv(out / "eligibility.csv")[1:]
        assert ["Couscous", "KR", "1", "17", "ineligible"] in rows
        assert not (out / "manifests" / "couscous__KR.json").exists()

    def test_null_title_is_empty(self, tmp_path):
        dishes = tmp_path / "dishes.json"
        dishes.write_text(json.dumps([{"name": "None"}]))
        records = [bad_record(id=f"t{i}", title=None, country="MA") for i in range(4)]
        out, _ = self.build(tmp_path, records, dishes)
        assert read_csv(out / "eligibility.csv")[1:] == [["None", "", "0", "0", "no_matches"]]


class TestBadScoreInputs:
    @pytest.fixture
    def built(self, tmp_path):
        config = config_for(tmp_path)
        cmd_build(config)
        return Path(config.output_dir)

    @pytest.mark.parametrize(
        "payload,message",
        [
            (lambda m: [m], "manifest must be a JSON object"),
            (lambda m: {k: v for k, v in m.items() if k != "product"}, "manifest has no 'product'"),
            (lambda m: {k: v for k, v in m.items() if k != "origin"}, "manifest has no 'origin'"),
            (lambda m: {k: v for k, v in m.items() if k != "knowledge_ids"}, "manifest has no 'knowledge_ids'"),
            (lambda m: {**m, "knowledge_ids": 7}, "knowledge_ids must be a JSON array"),
            (lambda m: {**m, "knowledge_ids": [["r001"]]}, "knowledge_ids must all be strings"),
            (lambda m: {**m, "variations": [{"country": "MA"}]}, "variation 0 has no 'id'"),
            (lambda m: {**m, "variations": [{"id": m["variations"][0]["id"]}]},
             "variation 0 has no 'country'"),
            (lambda m: {**m, "variations": [{"id": 5, "country": "MA"}]},
             "variation 0 id must be a string"),
            (lambda m: {**m, "product": ["Couscous"]}, "product must be a string"),
            (lambda m: {**m, "origin": None}, "origin must be a string"),
            (lambda m: {**m, "knowledge_ids": m["knowledge_ids"][:1]},
             "knowledge_ids: need at least 2 documents, got 1"),
            (lambda m: {**m, "variations": [{"id": m["variations"][0]["id"], "country": None}]},
             "variation 0 country must be a string"),
            (lambda m: {**m, "variations": m["variations"][:1] * 2}, "variations repeat an id"),
            (lambda m: {**m, "knowledge_ids": m["knowledge_ids"][:2] * 2}, "knowledge_ids repeat an id"),
        ],
        ids=["not_object", "no_product", "no_origin", "no_knowledge_ids",
             "knowledge_ids_not_array", "knowledge_id_not_string", "variation_without_id",
             "variation_without_country", "variation_id_not_string", "product_not_string",
             "origin_not_string", "one_knowledge_id", "variation_country_not_string",
             "repeated_variation", "repeated_knowledge_id"],
    )
    def test_bad_manifest_exits_two(self, built, capsys, payload, message):
        path = built / "manifests" / "couscous__MA.json"
        path.write_text(json.dumps(payload(json.loads(path.read_text()))))
        assert main(["score", "--corpus", CORPUS, "--output-dir", str(built)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (built / "scores.csv").exists()

    @pytest.mark.parametrize("copy", ["second_name", "passed_twice"])
    def test_two_manifests_of_one_split_exit_two(self, built, capsys, copy):
        path = built / "manifests" / "couscous__GR.json"
        other = built / "manifests" / "couscous__GR_copy.json"
        if copy == "second_name":
            other.write_bytes(path.read_bytes())
            argv = []
        else:
            other = path
            argv = ["--manifests", str(path), str(path)]
        assert main(["score", "--corpus", CORPUS, *argv, "--output-dir", str(built)]) == 2
        err = capsys.readouterr().err
        assert f"{other}: product 'Couscous', origin 'GR' repeats the split of {path}" in err
        assert not (built / "scores.csv").exists()

    def test_knowledge_id_listed_as_variation_exits_two(self, built, capsys):
        path = built / "manifests" / "couscous__MA.json"
        manifest = json.loads(path.read_text())
        doc_id = manifest["knowledge_ids"][0]
        manifest["variations"].append({"id": doc_id, "country": "MA"})
        path.write_text(json.dumps(manifest))
        assert main(["score", "--corpus", CORPUS, "--output-dir", str(built)]) == 2
        assert f"{path}: {doc_id!r} is both a knowledge id and a variation" in capsys.readouterr().err
        assert not (built / "scores.csv").exists()

    @pytest.mark.parametrize(
        "cell,message",
        [("abc", "newness is not a finite number: 'abc'"),
         # an int cuts the row to that many cells
         (SCORE_COLUMNS.index("newness"), "newness is missing"),
         (2, "appearance is missing"),
         ("nan", "newness is not a finite number: 'nan'"),
         ("-inf", "newness is not a finite number: '-inf'")],
        ids=["non_numeric", "missing", "cut_to_two_cells", "nan", "infinite"],
    )
    def test_bad_score_cell_exits_two(self, built, capsys, cell, message):
        cmd_score(config_for(built.parent))
        scores = built / "scores.csv"
        rows = read_csv(scores)
        at = rows[0].index("newness")
        rows[3] = rows[3][:cell] if isinstance(cell, int) else rows[3][:at] + [cell] + rows[3][at + 1:]
        with scores.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        code = main(["analyze", "--output-dir", str(built)])
        assert code == 2
        assert f"{scores}:4: {message}" in capsys.readouterr().err

    def test_repeated_score_row_exits_two(self, built, capsys):
        cmd_score(config_for(built.parent))
        scores = built / "scores.csv"
        rows = read_csv(scores)
        rows.insert(4, rows[3])
        with scores.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert main(["analyze", "--output-dir", str(built)]) == 2
        assert f"{scores}:5: repeated row for {'/'.join(rows[3][:3])}" in capsys.readouterr().err

    def test_score_row_with_an_extra_cell_exits_two(self, tmp_path, capsys):
        lines = GOLDEN_SCORES.read_text(encoding="utf-8").splitlines()
        lines[3] += ",9.9"
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["analyze", "--scores", str(scores), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{scores}:4: more cells than the header" in capsys.readouterr().err


class TestNonFiniteDistances:
    """A distance input that is not a finite number exits 2 before any output."""

    def analyze(self, tmp_path, *flags):
        out = tmp_path / "out"
        code = main(["analyze", "--scores", str(GOLDEN_SCORES), "--linguistic", LINGUISTIC,
                     "--religious", RELIGIOUS, *flags, "--output-dir", str(out)])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_distance_cell_exits_two(self, tmp_path, capsys, cell):
        lines = Path(LINGUISTIC).read_text(encoding="utf-8").splitlines()
        assert lines[6] == "GR,IT,0.644"
        lines[6] = f"GR,IT,{cell}"
        linguistic = tmp_path / "linguistic.csv"
        linguistic.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self.analyze(tmp_path, "--linguistic", str(linguistic)) == 2
        assert f"{linguistic}:7: bad distance '{cell}'" in capsys.readouterr().err

    def test_nan_cultural_map_coordinate_exits_two(self, tmp_path, capsys):
        bundled = resources.files("cultnovelty.data").joinpath("country_registry_v1.json")
        entries = json.loads(bundled.read_text("utf-8"))
        at = next(i for i, entry in enumerate(entries) if entry["iso"] == "IT")
        entries[at]["iw"][0] = math.nan
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(entries), encoding="utf-8")  # written as NaN
        assert self.analyze(tmp_path, "--registry", str(registry)) == 2
        err = capsys.readouterr().err
        assert f"{registry}: entry {at}: IT: cultural-map coordinate nan is not finite" in err


class TestBadRegistry:
    """A registry entry of the wrong shape exits 2, naming the entry, before any output."""

    @pytest.mark.parametrize(
        "edit,message",
        [(1, "must be a JSON object"),
         # read letter by letter, "Italian" would detect the title "Make a Lasagna" as IT
         ({"demonyms": "Italian"}, "demonyms must be a JSON array of non-blank strings"),
         ({"iw": "12"}, "iw must be null or a JSON array of two numbers"),
         ({"iw": [1.0, 2.0, 3.0]}, "iw must be null or a JSON array of two numbers"),
         ({"capital": [True, False]}, "capital must be null or a JSON array of two numbers"),
         ({"iw": [10**400, 0.0]}, "iw coordinate out of range"),
         ({"iso": ["it"]}, "iso must be a non-blank string"),
         ({"name": 7}, "name must be a non-blank string"),
         # a blank surface matches any title with a standalone punctuation mark
         ({"name": " "}, "name must be a non-blank string"),
         ({"demonyms": ["Italian", ""]}, "demonyms must be a JSON array of non-blank strings"),
         ({"iso": "m/a "}, "country 'M/A' cannot name a manifest file"),
         # AR is the bundled registry's first entry
         ({"iso": " ar"}, "iso 'AR' repeats entry 0")],
        ids=["not_object", "demonyms_string", "iw_string", "iw_three_numbers", "capital_booleans",
             "iw_huge_integer", "iso_array", "name_number", "name_blank", "demonym_blank", "iso_unnameable",
             "iso_repeated"],
    )
    def test_bad_entry_exits_two(self, tmp_path, capsys, edit, message):
        bundled = resources.files("cultnovelty.data").joinpath("country_registry_v1.json")
        entries = json.loads(bundled.read_text("utf-8"))
        at = next(i for i, entry in enumerate(entries) if entry["iso"] == "IT")
        entries[at] = {**entries[at], **edit} if isinstance(edit, dict) else edit
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(entries), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["build", "--corpus", CORPUS, "--dishes", DISHES, "--registry", str(registry),
                     "--output-dir", str(out)])
        assert code == 2
        assert f"{registry}: entry {at}: {message}" in capsys.readouterr().err
        assert not out.exists()


def src_env():
    """The environment for a fresh interpreter that imports this checkout's package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))


def run_fresh_interpreter(code):
    subprocess.run([sys.executable, "-c", code], check=True, env=src_env())


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # importing scipy.stats costs 0.5-1.1 s and scipy.special about 0.3 s, which
    # every CLI stage process would pay; the p-values come from the standard
    # library, so not even analyze may load any part of scipy
    argv = ["analyze", "--scores", str(GOLDEN_SCORES), "--linguistic", LINGUISTIC,
            "--religious", RELIGIOUS, "--n-boot", "20", "--output-dir", str(tmp_path / "out")]
    run_fresh_interpreter(
        f"import sys; from cultnovelty import cli; assert cli.main({argv!r}) == 0; "
        "assert not [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]")


def test_cli_import_and_build_leave_decimal_unloaded(tmp_path):
    # lambda2 comes from integer arithmetic, so no stage pays for importing decimal
    argv = ["build", "--corpus", CORPUS, "--dishes", DISHES, "--output-dir", str(tmp_path / "out")]
    unloaded = "assert not {'decimal', '_decimal', 'fractions'} & set(sys.modules), sys.modules.keys()"
    run_fresh_interpreter(
        f"import sys; from cultnovelty import cli; {unloaded}; assert cli.main({argv!r}) == 0; {unloaded}")


def test_non_numeric_modules_load_without_numpy(tmp_path):
    # importing numpy costs about 0.14 s of every stage process, and only score
    # and analyze need it: cli imports, and build, distances and report run,
    # with every numpy import failing, and leave the numeric modules unloaded
    analyzed = tmp_path / "analyzed"
    assert main(["analyze", "--scores", str(GOLDEN_SCORES), "--linguistic", LINGUISTIC,
                 "--religious", RELIGIOUS, "--n-boot", "0", "--output-dir", str(analyzed)]) == 0
    out = tmp_path / "out"
    stages = [
        ["build", "--corpus", CORPUS, "--dishes", DISHES, "--seed", "17", "--output-dir", str(out)],
        ["distances", "--output-dir", str(out)],
        ["report", "--analyze-dir", str(analyzed), "--output-dir", str(out)],
    ]
    run_fresh_interpreter(
        "import sys; sys.modules['numpy'] = None; from cultnovelty import cli; "
        f"assert [cli.main(argv) for argv in {stages!r}] == [0, 0, 0]; "
        "loaded = {'cultnovelty.metrics', 'cultnovelty.stats', 'cultnovelty.divergence'} & set(sys.modules); "
        "assert not loaded, loaded")
    manifests = sorted(p.name for p in (GOLDEN / "manifests").iterdir())
    assert sorted(p.name for p in (out / "manifests").iterdir()) == manifests
    for name in ["eligibility.csv"] + [f"manifests/{m}" for m in manifests]:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert (out / "iw.csv").exists() and (out / "bundle" / "bundle_index.json").exists()
