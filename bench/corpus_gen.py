"""Seeded synthetic recipe corpus for the benchmark.

Writes a JSONL corpus, a dish-spec JSON file and seeded linguistic and
religious distance CSVs over the generated countries. Nothing is
downloaded: words are pronounceable pseudo-lemmas drawn from a Zipf
distribution that each country skews in its own way, so knowledge spaces
of different origins differ the way real cuisines do.

The same parameters and seed give byte-identical files; another seed
gives a different corpus of the same shape (same counts, same lengths
range, same share of country-less and filler records).

    python3 bench/corpus_gen.py --workload deep --seed 3 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
REGISTRY = REPO / "src" / "cultnovelty" / "data" / "country_registry_v1.json"

DISH_NAMES = (
    "Couscous", "Paella", "Goulash", "Hummus", "Lasagna", "Pierogi",
    "Biryani", "Ramen", "Borscht", "Moussaka",
)
# coarse content tags the pre-annotated records carry, with fine-grained
# variants the provider folds onto them
CONTENT_TAGS = ("NOUN", "NOUN", "NOUN", "PROPN", "VERB", "VERB", "ADJ", "ADV")
# tokens the POS filter must drop: tagged non-content, or stopwords in raw text
FUNCTION_WORDS = (("the", "DET"), ("with", "ADP"), ("and", "CCONJ"), ("of", "ADP"),
                  ("it", "PRON"), ("in", "ADP"), ("a", "DET"))
# filler titles that still name a country, so title detection finds some
FILLER_COUNTRY_SHARE = 0.3
_ONSETS = "bdfgklmnprtvz"
_NUCLEI = "aeiou"


@dataclass(frozen=True)
class CorpusParams:
    """Shape of one generated corpus; the seed is passed separately."""

    dishes: int
    countries: tuple[str, ...]
    docs_per_origin: tuple[int, ...]  # one count per country, cycled over dishes
    doc_len: tuple[int, int] = (40, 120)  # content tokens per doc, inclusive
    vocab_size: int = 3000
    zipf_s: float = 1.0
    country_skew: float = 1.0  # std-dev of the jitter each country adds to log-ranks
    no_country_share: float = 0.0  # records whose country comes from the title
    filler_records: int = 0  # records whose title names no dish
    empty_records: int = 0  # filler records of function words only, dropped on ingest
    function_share: float = 0.15  # non-content tokens mixed into each doc
    raw_text: bool = False  # raw text for the naive provider instead of tokens
    ingredients: tuple[int, int] = (4, 9)


def _pseudo_words(n: int, banned: set[str]) -> list[str]:
    """n distinct consonant-vowel pseudo-words, never in `banned`."""
    words: list[str] = []
    syllables = [o + v for o in _ONSETS for v in _NUCLEI]
    length = 2
    while len(words) < n:
        base = len(syllables)
        for i in range(base**length):
            parts = []
            for _ in range(length):
                i, r = divmod(i, base)
                parts.append(syllables[r])
            word = "".join(parts)
            if word not in banned:
                words.append(word)
                if len(words) == n:
                    break
        length += 1
    return words


def _registry() -> dict[str, dict]:
    return {e["iso"]: e for e in json.loads(REGISTRY.read_text("utf-8"))}


def _banned_surfaces(registry: dict[str, dict]) -> set[str]:
    banned = {d.lower() for d in DISH_NAMES}
    for entry in registry.values():
        for surface in [entry["name"], *entry.get("demonyms", [])]:
            banned.update(surface.lower().split())
    banned.update(w for w, _ in FUNCTION_WORDS)
    return banned


def generate(params: CorpusParams, seed: int, out_dir: Path) -> dict:
    """Write corpus.jsonl, dishes.json, linguistic.csv and religious.csv.

    Returns a summary: the paths written, record counts, and the lemma
    list of every pre-annotated document (what the POS filter keeps).
    """
    registry = _registry()
    unknown = [c for c in params.countries if c not in registry]
    if unknown:
        raise ValueError(f"countries not in the bundled registry: {unknown}")
    if len(params.docs_per_origin) != len(params.countries):
        raise ValueError("docs_per_origin needs one count per country")
    rng = np.random.default_rng(seed)
    vocab = _pseudo_words(params.vocab_size, _banned_surfaces(registry))
    tags = [CONTENT_TAGS[i % len(CONTENT_TAGS)] for i in range(params.vocab_size)]
    tags[::37] = ["NUM"] * len(tags[::37])
    vocab = [str(10 + i) if t == "NUM" else w for i, (w, t) in enumerate(zip(vocab, tags))]
    # A seeded permutation decides which pseudo-word is common in this corpus;
    # each country then jitters the log-ranks and re-ranks. Every country and
    # seed keeps the same multiset of Zipf probabilities, so the cost of a
    # workload depends on its shape, not on the luck of the draw.
    order = rng.permutation(params.vocab_size)
    zipf = 1.0 / np.arange(1, params.vocab_size + 1) ** params.zipf_s
    log_rank = np.log(np.arange(1, params.vocab_size + 1))
    cdfs = {}
    for iso in params.countries:
        jitter = log_rank + params.country_skew * rng.standard_normal(params.vocab_size)
        probs = np.empty(params.vocab_size)
        probs[order[np.argsort(jitter, kind="stable")]] = zipf
        cdf = np.cumsum(probs)
        cdfs[iso] = cdf / cdf[-1]

    dishes = list(DISH_NAMES[: params.dishes])
    title_words = _pseudo_words(400, _banned_surfaces(registry) | set(vocab))

    def lengths(k: int) -> list[int]:
        """k doc lengths spread evenly over the range, in seeded order."""
        spread = np.linspace(params.doc_len[0], params.doc_len[1], k).round().astype(int)
        return rng.permutation(spread).tolist()

    def chosen(k: int, share: float) -> set[int]:
        """Exactly round(share * k) of k indices, picked by the seed."""
        return set(rng.permutation(k)[: round(share * k)].tolist())

    def body(iso: str, n: int) -> tuple[list[str], list[str], list[tuple[str, str]]]:
        ids = np.searchsorted(cdfs[iso], rng.random(n), side="right")
        ids = np.minimum(ids, params.vocab_size - 1)
        n_func = int(round(n * params.function_share / (1.0 - params.function_share)))
        slots = rng.integers(0, n + 1, size=n_func)
        func = rng.integers(0, len(FUNCTION_WORDS), size=n_func)
        stream: list[tuple[str, str]] = [(vocab[i], tags[i]) for i in ids]
        for slot, f in sorted(zip(slots.tolist(), func.tolist()), reverse=True):
            stream.insert(slot, FUNCTION_WORDS[f])
        k = int(rng.integers(params.ingredients[0], params.ingredients[1] + 1))
        ingredients = [vocab[i] for i in np.searchsorted(cdfs[iso], rng.random(k), side="right")
                       .clip(0, params.vocab_size - 1)]
        lemmas = [vocab[i] for i in ids]
        return lemmas, ingredients, stream

    records: list[dict] = []
    lemmas_by_id: dict[str, list[str]] = {}
    dish_records = sum(params.docs_per_origin) * len(dishes)
    no_country = chosen(dish_records, params.no_country_share)
    for d, dish in enumerate(dishes):
        for c, iso in enumerate(params.countries):
            demonym = registry[iso]["demonyms"][0]
            count = params.docs_per_origin[(c + d) % len(params.countries)]
            for k, n in enumerate(lengths(count)):
                lemmas, ingredients, stream = body(iso, n)
                doc_id = f"d{d:02d}-{iso}-{k:04d}"
                flavour = title_words[int(rng.integers(len(title_words)))]
                record = {"id": doc_id, "title": f"{demonym} {dish} with {flavour}"}
                if len(records) not in no_country:
                    record["country"] = iso
                records.append(_finish(record, ingredients, stream, params.raw_text, rng))
                lemmas_by_id[doc_id] = lemmas
    named = chosen(params.filler_records, FILLER_COUNTRY_SHARE)
    for k, n in enumerate(lengths(params.filler_records)):
        iso = params.countries[k % len(params.countries)]
        _, ingredients, stream = body(iso, n)
        words = " ".join(title_words[i] for i in rng.integers(len(title_words), size=2))
        title = f"{words} bowl"
        if k in named:
            title = f"{registry[iso]['demonyms'][0]} {title}"
        doc_id = f"f-{k:06d}"
        records.append(_finish({"id": doc_id, "title": title}, ingredients, stream,
                               params.raw_text, rng))
    for k, n in enumerate(lengths(params.empty_records)):
        stream = [FUNCTION_WORDS[i] for i in rng.integers(len(FUNCTION_WORDS), size=n // 4)]
        records.append(_finish({"id": f"e-{k:06d}", "title": "empty bowl"}, [], stream,
                               params.raw_text, rng))
    shuffle = rng.permutation(len(records))
    records = [records[i] for i in shuffle]

    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = out_dir / "corpus.jsonl"
    with corpus.open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    dish_path = out_dir / "dishes.json"
    dish_path.write_text(
        json.dumps([{"name": d, "aliases": []} for d in dishes], indent=1) + "\n",
        encoding="utf-8",
    )
    paths = {"corpus": str(corpus), "dishes": str(dish_path)}
    isos = sorted(params.countries)
    for kind in ("linguistic", "religious"):
        path = out_dir / f"{kind}.csv"
        lines = ["iso_a,iso_b,distance"]
        for i, a in enumerate(isos):
            lines.append(f"{a},{a},0")
            for b in isos[i + 1:]:
                lines.append(f"{a},{b},{rng.uniform(0.05, 1.0):.4f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[kind] = str(path)
    return {
        "paths": paths,
        "records": len(records),
        "dish_records": len(lemmas_by_id),
        "lemmas": lemmas_by_id if not params.raw_text else {},
    }


def _finish(record: dict, ingredients: list[str], stream: list[tuple[str, str]],
            raw_text: bool, rng: np.random.Generator) -> dict:
    record["ingredients"] = ingredients
    if raw_text:
        words = [w for w, _ in stream]
        # sentence breaks and capitals give the naive tokenizer real work
        for i in range(0, len(words), 12):
            words[i] = words[i].capitalize()
        record["text"] = " ".join(w + ("." if rng.random() < 0.08 else "") for w in words)
    else:
        record["tokens"] = [{"lemma": w, "pos": t} for w, t in stream]
    return record


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS  # noqa: E402 - sibling module, script entry point

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    summary = generate(WORKLOADS[args.workload].corpus, args.seed, Path(args.out))
    print(json.dumps({k: v for k, v in summary.items() if k != "lemmas"}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
