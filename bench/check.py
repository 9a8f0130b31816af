"""Output checks, run outside the timed region.

- A seeded sample of score rows is recomputed with the brute-force
  oracles in ``tests/oracles.py``, from the manifest and the document
  lemmas, and must agree within ``TOLERANCE``. A comparison that sits on
  an exact tie at a strict ``>`` threshold is reported, and the columns it
  decides are not compared: either side of the tie is a correct result
  under floating-point rounding.
- ``scores.csv`` and the five analyze tables must hash identically on
  every run of one workload and seed.
- Failures are reconciled: every variation a manifest lists must have a
  row in ``scores.csv``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# scores.csv keeps 9 significant digits, so a cell of a value in [0, 1] is
# within 5e-10 of the exact value; oracle and program sum in different
# orders, which adds ~1e-15. 1e-8 leaves room for both and nothing else.
TOLERANCE = 1e-8
# oracle and program compute a divergence term by different formulas that
# agree to ~1e-15 relative; a term this close to its threshold is a tie
TIE_RELATIVE = 1e-12
NEWNESS_COLUMNS = ("appearance", "disappearance", "newness")
SAMPLE_ROWS = 24
TABLES = ("scores.csv", "correlations_metrics.csv", "correlations_distances.csv",
          "regressions.csv", "marginal.csv", "mediation.csv")
CHECKED = ("appearance", "disappearance", "newness", "uniqueness", "difference",
           "new_surprise", "divergent_surprise")
_SCORE_LINE = re.compile(r"score: (\d+) rows written, (\d+) failures skipped")


STAGE_OUTPUTS = {"score": TABLES[:1], "analyze": TABLES[1:]}


def digests(out_dir: Path, names=TABLES) -> dict[str, str]:
    """sha256 of each named output ('' when absent)."""
    out = {}
    for name in names:
        path = out_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
    return out


def read_scores(out_dir: Path) -> list[dict]:
    with (out_dir / "scores.csv").open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def manifests(out_dir: Path) -> dict[tuple[str, str], dict]:
    found = {}
    for path in sorted((out_dir / "manifests").glob("*.json")):
        manifest = json.loads(path.read_text("utf-8"))
        found[(manifest["product"], manifest["origin"])] = manifest
    return found


def parse_score_log(text: str) -> tuple[int, int] | None:
    """(rows written, failures skipped) from the score stage's log."""
    match = _SCORE_LINE.search(text)
    return (int(match[1]), int(match[2])) if match else None


def reconcile(out_dir: Path) -> tuple[int, list[str]]:
    """Variations the manifests list, and the ones missing from scores.csv."""
    listed = {
        (product, origin, entry["id"])
        for (product, origin), manifest in manifests(out_dir).items()
        for entry in manifest["variations"]
    }
    present = set()
    if (out_dir / "scores.csv").exists():
        present = {(r["product"], r["kb_culture"], r["variation_id"]) for r in read_scores(out_dir)}
    missing = sorted("/".join(key) for key in listed - present)
    return len(listed), missing


def load_oracles():
    tests_dir = str(REPO / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    import oracles

    return oracles


def loo_newness_threshold(o, docs: list[list[str]]) -> float:
    """The leave-one-out newness threshold from the oracle's per-word terms.

    As defined, a word whose held-out and rest probabilities are equal
    contributes exactly 0 and stays out of the pool. Equality is decided on
    the integer counts; the oracle's own ``oracle_newness_epsilon`` tests
    its float term, which can keep a ~1e-19 residue of such a word and
    shift the mean.
    """
    pooled = []
    for i, held in enumerate(docs):
        rest = [d for j, d in enumerate(docs) if j != i]
        p, tp = o.pooled_dist(rest)
        q, tq = o.dist_of(held)
        rest_counts, held_counts = Counter(w for d in rest for w in d), Counter(held)
        pi1, pi2 = o.proportional_weights(tp, tq)
        for word, value in o.oracle_contributions(p, q, pi1, pi2).items():
            if rest_counts[word] * tq != held_counts[word] * tp and value > 0:
                pooled.append(value)
    return sum(pooled) / len(pooled) if pooled else 0.0


def _tied(value: float, threshold: float) -> bool:
    return abs(value - threshold) <= TIE_RELATIVE * threshold


class _Expected:
    """Oracle scores with each knowledge space's thresholds computed once."""

    def __init__(self, oracles, lemmas: dict[str, list[str]]) -> None:
        self.o = oracles
        self.lemmas = lemmas
        self._eps: dict[tuple, tuple[float, float]] = {}

    def thresholds(self, kb_ids: tuple[str, ...]) -> tuple[float, float]:
        if kb_ids not in self._eps:
            docs = [self.lemmas[i] for i in kb_ids]
            self._eps[kb_ids] = (loo_newness_threshold(self.o, docs),
                                 self.o.oracle_difference_epsilon(docs))
        return self._eps[kb_ids]

    def scores(self, kb_ids: tuple[str, ...], var_id: str) -> tuple[dict, set[str]]:
        """Expected cells, and the columns decided by a comparison on a tie."""
        o = self.o
        docs = [self.lemmas[i] for i in kb_ids]
        variation = self.lemmas[var_id]
        eps_new, eps_diff = self.thresholds(kb_ids)
        p, tp = o.pooled_dist(docs)
        q, tq = o.dist_of(variation)
        pi1, pi2 = o.proportional_weights(tp, tq)
        contribs = o.oracle_contributions(p, q, pi1, pi2)
        appeared = sum(1 for w in q if q[w] > p.get(w, 0.0) and contribs[w] > eps_new)
        disappeared = sum(1 for w in p if p[w] > q.get(w, 0.0) and contribs[w] > eps_new)
        pair_jsd = [o.oracle_jsd(o.dist_of(d)[0], q, 0.5, 0.5) for d in docs]
        ties = set()
        if any(_tied(v, eps_new) for w, v in contribs.items() if p.get(w, 0.0) != q.get(w, 0.0)):
            ties.update(NEWNESS_COLUMNS)
        if any(_tied(v, eps_diff) for v in pair_jsd):
            ties.add("difference")
        appearance, disappearance = appeared / len(q), disappeared / len(p)
        return {
            "appearance": appearance,
            "disappearance": disappearance,
            "newness": 0.8 * appearance + 0.2 * disappearance,
            "uniqueness": o.oracle_jsd(p, q, pi1, pi2),
            "difference": sum(1 for v in pair_jsd if v > eps_diff) / len(docs),
            "new_surprise": o.oracle_new_surprise(docs, variation),
            "divergent_surprise": o.oracle_divergent_surprise(docs, variation),
        }, ties


def sample_rows(rows: list[dict], seed: int) -> list[dict]:
    return random.Random(seed).sample(rows, min(SAMPLE_ROWS, len(rows)))


def check_scores(out_dir: Path, lemmas: dict[str, list[str]], seed: int) -> dict:
    """Recompute a seeded sample of score rows with the oracles.

    Returns {"checked", "ties" (rows), "mismatches": [row/column descriptions]}.
    The newness weights are the CLI defaults (lambda1 = 0.8), which every
    workload keeps.
    """
    rows = read_scores(out_dir)
    by_split = manifests(out_dir)
    sample = sample_rows(rows, seed)
    expected = _Expected(load_oracles(), lemmas)
    mismatches: list[str] = []
    ties = 0
    for row in sample:
        manifest = by_split[(row["product"], row["kb_culture"])]
        kb_ids = tuple(sorted(manifest["knowledge_ids"]))
        want, tied = expected.scores(kb_ids, row["variation_id"])
        where = f"scores.csv row {row['product']}/{row['kb_culture']}/{row['variation_id']}"
        if tied:
            ties += 1
            print(f"bench: {where} sits on an exact threshold tie; "
                  f"{', '.join(sorted(tied))} not compared", file=sys.stderr)
        for column in CHECKED:
            if column in tied:
                continue
            got = float(row[column])
            if abs(got - want[column]) > TOLERANCE:
                mismatches.append(f"{where} column {column}: {got!r} != oracle {want[column]!r}")
    return {"checked": len(sample), "ties": ties, "mismatches": mismatches}
