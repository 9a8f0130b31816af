"""Tests of the benchmark itself: smoke run, output check, tracer, generator."""

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import check  # noqa: E402
from corpus_gen import generate  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import FIXTURE_INPUTS, WORKLOADS  # noqa: E402


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric_with_its_unit(trace, section):
    spec = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))
    result = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


def test_failures_count_per_scored_variation_and_a_crash_stops_the_run(tmp_path):
    import run

    bench = run.Bench(WORKLOADS["smoke"], 3, tmp_path)
    bench.run_stage("build")
    assert bench.attempted == 0  # only score runs attempt variations
    listed, missing = check.reconcile(bench.out_dir)
    bench.run_stage("score")
    assert (bench.attempted, bench.failed) == (listed, 0) and listed > 0
    with pytest.raises(run.BenchError, match="stage analyze exited 1"):
        bench.account(bench.out_dir, "analyze", {"exit": 1, "log": "Traceback"})


def _score_fixtures(out_dir):
    from cultnovelty.ingest import read_documents
    from cultnovelty.pipeline import RunConfig, cmd_build, cmd_score

    config = RunConfig(
        corpus_path=str(REPO / FIXTURE_INPUTS["corpus"]),
        dish_specs_path=str(REPO / FIXTURE_INPUTS["dishes"]),
        output_dir=str(out_dir),
    )
    cmd_build(config)
    cmd_score(config)
    return {d.id: list(d.lemmas) for d in read_documents(config.corpus_path)}


def test_output_check_catches_one_perturbed_cell(tmp_path):
    lemmas = _score_fixtures(tmp_path)
    assert check.check_scores(tmp_path, lemmas, seed=5)["mismatches"] == []

    path = tmp_path / "scores.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    target = check.sample_rows(check.read_scores(tmp_path), seed=5)[0]
    col = header.index("difference")
    for row in rows[1:]:
        if row[header.index("variation_id")] == target["variation_id"] and \
                row[header.index("kb_culture")] == target["kb_culture"]:
            row[col] = repr(float(row[col]) + 1e-6)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    mismatches = check.check_scores(tmp_path, lemmas, seed=5)["mismatches"]
    assert len(mismatches) == 1
    assert target["variation_id"] in mismatches[0] and "column difference" in mismatches[0]


def test_self_time_is_duration_minus_child_coverage():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def outer():
        time.sleep(0.002)
        inner()
        inner()

    def inner():
        leaf()
        time.sleep(0.001)

    leaf = tracer.wrap(leaf, "leaf")
    inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(outer, "outer")
    outer()

    spans = tracer.spans
    selfs = self_times(spans)
    assert [s[0] for s in spans] == ["outer", "inner", "leaf", "inner", "leaf"]
    for i, (name, start, end, parent, _) in enumerate(spans):
        children = [s for s in spans if s[3] == i]
        expected = (end - start) - sum(c[2] - c[1] for c in children)
        assert selfs[i] == pytest.approx(expected, abs=1e-12)
    assert selfs[0] >= 0.002 and selfs[2] >= 0.002
    assert sum(selfs) == pytest.approx(spans[0][2] - spans[0][1], abs=1e-9)

    # overlapping children are covered once, and clipped to the parent
    assert self_times([["p", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
                       ["b", 3.0, 6.0, 0, None], ["c", 9.0, 12.0, 0, None]])[0] == 4.0


def test_missing_names_are_reported_not_fatal():
    import types

    tracer = Tracer()
    tracer.install({"pipeline": types.SimpleNamespace()})
    assert "pipeline.score_all" in tracer.missing
    assert "metrics.difference" in tracer.missing


def test_generator_is_seeded_and_keeps_its_shape(tmp_path):
    params = WORKLOADS["wide"].corpus
    first = generate(params, 7, tmp_path / "a")
    again = generate(params, 7, tmp_path / "b")
    other = generate(params, 8, tmp_path / "c")
    for name in ("corpus.jsonl", "dishes.json", "linguistic.csv", "religious.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != (tmp_path / "c" / "corpus.jsonl").read_bytes()
    assert first["records"] == other["records"] == again["records"]
    assert sorted(first["lemmas"]) == sorted(other["lemmas"])


def test_loo_threshold_leaves_exact_ties_out():
    from cultnovelty.corpus import AnnotatedToken, Document
    from cultnovelty.metrics import calibrate_newness_threshold

    # held-out doc 0 gives "a" probability 1/2 on both sides: an exact tie
    docs = [["a", "b"], ["a", "b", "a", "c"], ["a", "d", "a", "e", "f", "a"]]
    program = calibrate_newness_threshold([
        Document(id=str(i), title="", body_tokens=tuple(AnnotatedToken(w, "NOUN") for w in d))
        for i, d in enumerate(docs)
    ])
    assert check.loo_newness_threshold(check.load_oracles(), docs) == pytest.approx(program, rel=1e-14)
