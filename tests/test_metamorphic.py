"""Relations that must hold across the whole pipeline, run through the CLI.

Each relation transforms an input and states exactly how the outputs must
move. An oracle checks one kernel against its scalar twin; these catch a
fault that a kernel and its oracle share, or one in the plumbing between
stages, such as a distance joined to the wrong kind.
"""

import csv
import functools
import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from cultnovelty.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
CORPUS = FIXTURES / "recipes_50.jsonl"
DISHES = FIXTURES / "dishes_sample.json"
SCORES = GOLDEN / "scores.csv"
LINGUISTIC = FIXTURES / "linguistic.csv"
RELIGIOUS = FIXTURES / "religious.csv"

# the distance tables, and in each the cells that scale with the distance;
# every other cell (labels, n, r, r squared, t and every p) must not move
DISTANCE_TABLES = {
    "correlations_distances.csv": set(),
    "regressions.csv": {"coef", "std_err"},
    "marginal.csv": {"coef"},
    "mediation.csv": {
        "total_effect", "acme", "ade", "acme_ci_low", "acme_ci_high",
        "ade_ci_low", "ade_ci_high", "total_ci_low", "total_ci_high",
    },
}


def analyze(out, linguistic, n_boot):
    assert main(["analyze", "--scores", str(SCORES), "--linguistic", str(linguistic),
                 "--religious", str(RELIGIOUS), "--n-boot", str(n_boot),
                 "--output-dir", str(out)]) == 0
    tables = {}
    for name in DISTANCE_TABLES:
        with open(out / name, newline="", encoding="utf-8") as fh:
            tables[name] = list(csv.reader(fh))
    return tables


@pytest.mark.parametrize("n_boot", [0, 20])
def test_distance_scale(tmp_path, n_boot):
    # A power-of-two factor is exact in every float operation, so the relation
    # holds bit for bit: pearson rescales its inputs by a power of two, QR is
    # linear in the response, and the bootstrap draws do not see the distance.
    factor = 8.0
    lines = LINGUISTIC.read_text(encoding="utf-8").splitlines()
    scaled = tmp_path / "linguistic.csv"
    scaled.write_text(
        "\n".join([lines[0]] + [f"{a},{b},{float(d) * factor!r}"
                                for a, b, d in (line.split(",") for line in lines[1:])]) + "\n",
        encoding="utf-8",
    )
    base = analyze(tmp_path / "base", LINGUISTIC, n_boot)
    moved = analyze(tmp_path / "scaled", scaled, n_boot)

    for name, scaling in DISTANCE_TABLES.items():
        header, *base_rows = base[name]
        assert moved[name][0] == header
        assert len(moved[name]) - 1 == len(base_rows)
        assert any(row[0] == "linguistic" for row in base_rows), name
        for base_row, moved_row in zip(base_rows, moved[name][1:]):
            for column, b, m in zip(header, base_row, moved_row):
                where = (name, base_row[:4], column)
                if base_row[0] == "linguistic" and column in scaling and b:
                    assert float(m) == factor * float(b), where
                else:
                    assert m == b, where


@pytest.mark.parametrize("shuffle_seed", [1, 2, 3])
def test_corpus_line_order(tmp_path, shuffle_seed):
    # build sorts the matched documents by id before its seeded shuffle, so the
    # order of the corpus lines reaches no output but the corpus digest
    lines = CORPUS.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(shuffle_seed).shuffle(lines)
    corpus = tmp_path / "recipes_50.jsonl"
    corpus.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build", "--corpus", str(corpus), "--dishes", str(DISHES), "--seed", "17",
                 "--output-dir", str(out)]) == 0

    golden_digest = hashlib.sha256(CORPUS.read_bytes()).hexdigest()
    digest = hashlib.sha256(corpus.read_bytes()).hexdigest()
    assert digest != golden_digest
    manifests = sorted(p.name for p in (GOLDEN / "manifests").glob("*.json"))
    assert sorted(p.name for p in (out / "manifests").glob("*.json")) == manifests
    for name in ["eligibility.csv", "manifests/documents.jsonl"] + [f"manifests/{m}" for m in manifests]:
        want = (GOLDEN / name).read_text(encoding="utf-8")
        if name.endswith(".json"):
            assert f'"corpus_sha256": "{golden_digest}"' in want
            want = want.replace(golden_digest, digest)
        assert (out / name).read_text(encoding="utf-8") == want, name



def _renamed_scores(names):
    """scores.csv of build --seed 17 and score on the fixture corpus with its lemmas renamed."""
    records = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record["tokens"] = [{**token, "lemma": names[token["lemma"]]} for token in record["tokens"]]
        records.append(json.dumps(record) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "recipes_50.jsonl", Path(tmp) / "out"
        corpus.write_text("".join(records), encoding="utf-8")
        assert main(["build", "--corpus", str(corpus), "--dishes", str(DISHES), "--seed", "17",
                     "--output-dir", str(out)]) == 0
        assert main(["score", "--output-dir", str(out)]) == 0
        return (out / "scores.csv").read_bytes()


def _lemmas():
    lemmas = set()
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        lemmas.update(token["lemma"] for token in json.loads(line)["tokens"])
    return sorted(lemmas)


LEMMAS = _lemmas()


@functools.lru_cache(maxsize=None)
def _unrenamed_scores():
    return _renamed_scores({lemma: lemma for lemma in LEMMAS})


# a name's place in the sort order is its position in the permutation: the
# explicit example maps the k-th lemma to the k-th name from the end. No
# shrinking: a smaller permutation explains nothing more, and takes minutes.
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@example(list(range(len(LEMMAS) - 1, -1, -1)))
@given(st.permutations(range(len(LEMMAS))))
def test_lemma_renaming(order):
    # every metric reads lemmas only as equal or different, and every sum over
    # words is an fsum, so renaming the lemmas one to one reaches no score; the
    # unrenamed run is compared, not the golden file, so that the relation alone
    # decides
    names = dict(zip(LEMMAS, (f"w{k:05d}" for k in order)))
    assert _renamed_scores(names) == _unrenamed_scores()


def _ordered_ids(old_ids):
    """A strictly increasing renaming whose new ids vary in length and prefix:
    the k-th id becomes a letter per ten ids, (k mod 10) x's, then k."""
    new_ids = [f"{chr(ord('a') + k // 10)}{'x' * (k % 10)}{k}" for k in range(len(old_ids))]
    assert sorted(new_ids) == new_ids and len(set(map(len, new_ids))) > 1
    return dict(zip(sorted(old_ids), new_ids))


def test_order_preserving_id_renaming(tmp_path):
    # build sorts by id, shuffles each origin's documents by position, and RBO
    # breaks its ties by id order, so ids that keep their order move no score
    records = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    names = _ordered_ids([record["id"] for record in records])
    corpus = tmp_path / "recipes_50.jsonl"
    corpus.write_text("".join(json.dumps({**record, "id": names[record["id"]]}) + "\n"
                              for record in records), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build", "--corpus", str(corpus), "--dishes", str(DISHES), "--seed", "17",
                 "--output-dir", str(out)]) == 0
    assert main(["score", "--output-dir", str(out)]) == 0
    assert main(["analyze", "--linguistic", str(LINGUISTIC), "--religious", str(RELIGIOUS),
                 "--n-boot", "0", "--output-dir", str(out)]) == 0

    with open(SCORES, newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    column = want[0].index("variation_id")
    for row in want[1:]:
        row[column] = names[row[column]]
    assert got == want
    assert ((out / "correlations_metrics.csv").read_bytes()
            == (GOLDEN / "correlations_metrics.csv").read_bytes())
