"""The benchmark's named workloads: corpus shape plus the CLI flags each uses.

Every workload runs the CLI with its defaults plus only the flags listed
here. None passes --workers: the thread pool is an execution detail a
later change may remove. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from corpus_gen import CorpusParams

WIDE_COUNTRIES = ("MA", "IT", "FR", "ES", "GR", "IN")


# the repository's test fixtures, for the benchmark's own smoke test
FIXTURE_INPUTS = {
    "corpus": "tests/fixtures/recipes_50.jsonl",
    "dishes": "tests/fixtures/dishes_sample.json",
    "linguistic": "tests/fixtures/linguistic.csv",
    "religious": "tests/fixtures/religious.csv",
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Optional[CorpusParams]  # None: read `inputs` instead of generating
    provider: str = "preannotated"
    n_boot: Optional[int] = None  # None keeps the CLI default of 1000
    inputs: Optional[dict] = None  # repository-relative input files


WORKLOADS = {
    w.name: w
    for w in (
        # many small knowledge spaces; scoring overhead per variation and the
        # mediation bootstrap dominate
        Workload(
            name="wide",
            corpus=CorpusParams(
                dishes=4,
                countries=WIDE_COUNTRIES,
                docs_per_origin=(5,) * len(WIDE_COUNTRIES),
                no_country_share=0.5,
            ),
        ),
        # three knowledge spaces of doubling size; calibration and the
        # size-dependent metrics dominate
        Workload(
            name="deep",
            corpus=CorpusParams(
                dishes=1,
                countries=("IT", "JP", "MX"),
                docs_per_origin=(24, 48, 96),
            ),
            n_boot=100,
        ),
        # a screening pass over raw text; ingest, the naive annotator and
        # title country detection dominate
        Workload(
            name="bulk",
            corpus=CorpusParams(
                dishes=2,
                countries=("MA", "IT", "JP", "MX", "IN"),
                docs_per_origin=(3,) * 5,
                no_country_share=1.0,
                filler_records=2940,
                empty_records=30,
                raw_text=True,
            ),
            provider="naive",
            n_boot=0,
        ),
        # not a benchmark workload: a few seconds on the test fixtures
        Workload(name="smoke", corpus=None, inputs=FIXTURE_INPUTS, n_boot=20),
    )
}
