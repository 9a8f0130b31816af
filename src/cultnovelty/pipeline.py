"""Batch pipeline: corpus -> splits -> scores -> statistical reports.

Every stage is a pure function of (inputs, config, seed) and writes its
rows in canonical order, so reruns are byte-identical.
Float cells hold the shortest string that reads back as the same float, so
identities such as total = acme + ade hold exactly in the tables too.

Only score and analyze load numpy, with ``metrics`` and ``stats``: each
binds their functions here when it starts (``_load_numeric``). Importing
this module, and the build, distances and report stages, leave numpy out.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union, get_args, get_type_hints

from . import __version__
from .builder import (
    build_split,
    detect_country,
    dish_slug,
    load_dish_specs,
    matched_documents,
)
from .corpus import ControlVars, Document, NoveltyScores, control_variables
from .distances import (
    BUNDLED_REGISTRY,
    DISTANCE_KINDS,
    DistanceMatrix,
    Registry,
    bundled_registry,
    distance_matrices,
    load_registry,
)
from .errors import InsufficientKB, ParseError, UndefinedStatistic
from .ingest import PROVIDERS, parse_json, read_documents, write_documents

if TYPE_CHECKING:
    import numpy as np

    from .metrics import KnowledgeSpace, Variation

log = logging.getLogger(__name__)

# The numeric functions score and analyze call, by the module they come from.
# They are looked up in this module's globals, where the benchmark's tracer
# (bench/tracer.py) wraps them as pipeline.score_all and so on, before any
# stage has run. So they are bound here on first use, by _load_numeric, and
# never over a name already bound. This goes when the stages are split into
# modules that import what they run (ROADMAP, "One module per stage").
_NUMERIC = {
    "metrics": ("build_knowledge_space", "lay_out", "score_all"),
    "stats": ("gram_table", "kendall_tau", "mediate", "ols", "pearson", "rbo"),
}


def _load_numeric() -> None:
    """Import metrics and stats, and with them numpy, and bind their functions here."""
    for module_name, names in _NUMERIC.items():
        module = importlib.import_module(f"{__package__}.{module_name}")
        for name in names:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    """pipeline.score_all and the other numeric names resolve before any stage has run."""
    if any(name in names for names in _NUMERIC.values()):
        _load_numeric()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


METRIC_COLUMNS = NoveltyScores._fields
CONTROL_COLUMNS = ControlVars._fields
SCORE_COLUMNS = ("product", "kb_culture", "variation_id", "variation_culture") + METRIC_COLUMNS + CONTROL_COLUMNS
FIVE_METRICS = ("newness", "uniqueness", "difference", "new_surprise", "divergent_surprise")
Labels = tuple[str, str, str, str]  # a score row's product, kb_culture, variation_id, variation_culture
# the analyze stage's tables with their headers, in the order they are written
ANALYZE_TABLES = {
    "correlations_metrics.csv": (
        "metric_a", "metric_b", "pearson_r", "pearson_p", "kendall_tau", "kendall_p", "rbo",
    ),
    "correlations_distances.csv": ("distance", "metric", "n", "pearson_r", "pearson_p"),
    "regressions.csv": ("distance", "n", "r_squared", "term", "coef", "std_err", "t", "p"),
    "marginal.csv": ("distance", "metric", "n", "r_squared", "coef", "p"),
    "mediation.csv": (
        "distance", "metric", "mediator", "n", "total_effect", "acme", "ade",
        "acme_ci_low", "acme_ci_high", "ade_ci_low", "ade_ci_high",
        "total_ci_low", "total_ci_high", "acme_p", "ade_p", "total_p",
    ),
}

# beside the manifests: every document they reference, as build annotated it
DOCUMENTS = "documents.jsonl"


def _decimal_complement(x: float) -> float:
    """1 - x, taking x as the decimal its repr shows, rounded once to a float.

    Integer arithmetic on the repr's digits, so that no stage imports
    ``decimal`` (``fractions`` imports it too) for this one value.
    """
    mantissa, _, exponent = repr(float(x)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    scale = len(fraction) - int(exponent or 0)  # x = digits / 10**scale
    digits = int(whole + fraction)
    if scale < 0:
        digits, scale = digits * 10**-scale, 0
    return (10**scale - digits) / 10**scale  # int / int rounds the exact quotient once


@dataclass(frozen=True)
class RunConfig:
    """All tunables of a run, with the published defaults pinned in one place."""

    lambda1: float = 0.8
    lambda2: float = field(init=False)  # 1 - lambda1 in decimal: 0.8 gives 0.2, not 0.19999999999999996
    pmi_window: int = 3
    rbo_p: float = 0.9
    holdout_fraction: float = 0.3
    seed: int = 0
    annotation_provider: str = "preannotated"
    n_boot: int = 1000
    corpus_path: Optional[str] = None
    dish_specs_path: Optional[str] = None
    registry_path: Optional[str] = None
    linguistic_path: Optional[str] = None
    religious_path: Optional[str] = None
    output_dir: str = "out"

    def __post_init__(self) -> None:
        # each check is written to fail on NaN; every message names its key
        if not 0.0 <= self.lambda1 <= 1.0:
            raise ValueError("lambda1 must lie in [0, 1]")
        object.__setattr__(self, "lambda2", _decimal_complement(self.lambda1))
        if self.pmi_window < 2:
            raise ValueError("pmi_window must be >= 2")
        if not 0.0 < self.rbo_p < 1.0:
            raise ValueError("rbo_p must lie strictly inside (0, 1)")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must lie in [0, 1)")
        if self.n_boot < 0:
            raise ValueError("n_boot must be >= 0")
        if self.seed < 0:  # numpy's SeedSequence takes no negative seed
            raise ValueError("seed must be >= 0")
        if self.annotation_provider not in PROVIDERS:
            raise ValueError(
                f"annotation_provider must be {' or '.join(map(repr, PROVIDERS))}, "
                f"not {self.annotation_provider!r}"
            )
        for key in ("corpus_path", "dish_specs_path", "registry_path", "linguistic_path",
                    "religious_path", "output_dir"):
            if "\0" in (getattr(self, key) or ""):  # open() would raise ValueError
                raise ValueError(f"{key} must not contain a NUL character")

    @classmethod
    def load(cls, path: Optional[Union[str, Path]] = None, overrides: Optional[dict] = None) -> "RunConfig":
        """Config file merged with flag overrides; a set flag wins.

        A value out of range raises ParseError naming the file when the
        file's values fail on their own, and ValueError when a flag is at fault.
        """
        values: dict = {}
        if path is not None:
            raw = parse_json(Path(path).read_text("utf-8"), str(path), "config", dict)
            hints = get_type_hints(cls)
            unknown = set(raw) - {f.name for f in fields(cls) if f.init}
            if unknown:
                raise ParseError(f"{path}: unknown config keys {sorted(unknown)}")
            for key, value in raw.items():
                allowed = get_args(hints[key]) or (hints[key],)
                if float in allowed:
                    allowed += (int,)
                if isinstance(value, bool) or not isinstance(value, allowed):
                    raise ParseError(f"{path}: config key {key!r} has the wrong type: {value!r}")
            values.update(raw)
        flags = {key: value for key, value in (overrides or {}).items() if value is not None}
        try:
            return cls(**{**values, **flags})
        except ValueError as exc:
            if path is not None:
                try:
                    cls(**values)
                except ValueError as file_exc:
                    if str(file_exc) == str(exc):
                        raise ParseError(f"{path}: {exc}") from exc
            raise


def fmt_float(value: float) -> str:
    """Shortest round-trip ``repr``; ``float()`` first, as numpy 2 reprs ``np.float64(x)``."""
    return repr(float(value))


def _sha256_file(path: Union[str, Path]) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def derive_split_seed(master_seed: int, dish: str, origin: str) -> int:
    """Stable per-(dish, origin) seed: a split does not depend on the other splits of the run."""
    digest = hashlib.sha256(f"{master_seed}:{dish}:{origin}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def resolve_countries(docs: Sequence[Document], registry: Registry) -> list[Document]:
    """Fill in UNKNOWN document countries by title detection."""
    resolved = []
    for doc in docs:
        if doc.country == "UNKNOWN":
            detected = detect_country(doc.title, registry)
            if detected is not None:
                doc = replace(doc, country=detected)
        resolved.append(doc)
    return resolved


def _run_manifest(config: RunConfig, inputs: dict[str, str], outputs: Sequence[str]) -> dict:
    view = asdict(config)
    config_digest = hashlib.sha256(
        json.dumps(view, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "tool_version": __version__,
        "config": view,
        "config_digest": config_digest,
        "input_digests": inputs,
        "outputs": sorted(outputs),
    }


# ---------------------------------------------------------------------------
# build


def _name_max(directory: Path) -> int:
    """Longest file name, in UTF-8 bytes, that the file system holding directory takes.

    The directory need not exist yet: its nearest existing ancestor is asked.
    255 where the limit is unavailable.
    """
    existing = next(p for p in (directory, *directory.parents) if p.exists())
    try:
        limit = os.pathconf(existing, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):  # no pathconf, or no such limit here
        return 255
    return limit if limit > 0 else 255


def cmd_build(config: RunConfig) -> dict:
    """Construct split manifests, their documents and the eligibility report.

    Country detection and dish matching read titles only, so every corpus
    line is checked but only the records they keep are annotated. All
    inputs are read and validated, and every manifest file name checked,
    before the first byte is written, so a missing or malformed input
    leaves no partial outputs behind. Stale manifests are removed, and the
    documents the manifests reference go to manifests/documents.jsonl.
    """
    if not config.corpus_path or not config.dish_specs_path:
        raise ParseError("build requires corpus_path and dish_specs_path")
    registry = load_registry(config.registry_path)
    dishes = sorted(load_dish_specs(config.dish_specs_path), key=lambda d: d.canonical_name)
    corpus_digest = _sha256_file(config.corpus_path)
    matches: list[list[Document]] = []

    def screen(docs: list[Document]) -> set[str]:
        resolved = resolve_countries(docs, registry)
        matches.extend(matched_documents(resolved, dish) for dish in dishes)
        return {doc.id for found in matches for doc in found}

    # a matched record the POS filter empties is not returned, so it joins no split
    kept = {doc.id: doc for doc in read_documents(config.corpus_path, config.annotation_provider, screen)}

    out_dir = Path(config.output_dir)
    manifest_dir = out_dir / "manifests"
    name_max = _name_max(manifest_dir)
    eligibility_rows: list[tuple[str, str, str, str, str]] = []
    manifests: dict[str, dict] = {}
    referenced: set[str] = set()
    for dish, found in zip(dishes, matches):
        matched = [doc for doc in found if doc.id in kept]
        if not matched:
            eligibility_rows.append((dish.canonical_name, "", "0", "0", "no_matches"))
            continue
        for origin in sorted({doc.country for doc in matched}):
            split_seed = derive_split_seed(config.seed, dish.canonical_name, origin)
            split = build_split(matched, origin, config.holdout_fraction, split_seed)
            eligibility_rows.append((dish.canonical_name, origin, str(len(split.knowledge)),
                                     str(len(split.variations)),
                                     "eligible" if split.eligible else "ineligible"))
            if not split.eligible:
                continue
            name = f"{dish_slug(dish.canonical_name)}__{origin}.json"
            if len(name.encode("utf-8")) > name_max:
                raise ParseError(
                    f"dish {dish.canonical_name!r}, origin {origin!r}: manifest file name is "
                    f"{len(name.encode('utf-8'))} bytes long, but {manifest_dir} takes at most {name_max}"
                )
            if name in manifests:
                other = manifests[name]
                raise ParseError(
                    f"dish {other['product']!r}, origin {other['origin']!r} and dish "
                    f"{dish.canonical_name!r}, origin {origin!r} would share the manifest file {name}"
                )
            referenced.update(d.id for d in split.knowledge + split.variations)
            manifests[name] = {
                "corpus_sha256": corpus_digest,
                "annotation_provider": config.annotation_provider,
                "product": dish.canonical_name,
                "origin": origin,
                "holdout_fraction": config.holdout_fraction,
                "holdout_seed": split_seed,
                "knowledge_ids": [d.id for d in split.knowledge],
                "variations": [
                    {"id": d.id, "country": d.country} for d in split.variations
                ],
            }

    manifest_dir.mkdir(parents=True, exist_ok=True)
    for stale in manifest_dir.glob("*.json"):
        if stale.name not in manifests:
            stale.unlink()
    written: list[str] = []
    for name, manifest in manifests.items():
        manifest_path = manifest_dir / name
        _write_json(manifest_path, manifest)
        written.append(str(manifest_path))
    write_documents(manifest_dir / DOCUMENTS, (kept[doc_id] for doc_id in referenced))
    report_path = out_dir / "eligibility.csv"
    _write_csv(
        report_path,
        ("dish", "origin", "kb_size", "variation_count", "status"),
        eligibility_rows,
    )
    ineligible = sum(1 for row in eligibility_rows if row[4] != "eligible")
    log.info("build: %d manifests, %d ineligible entries", len(written), ineligible)
    return {"manifests": written, "eligibility_report": str(report_path)}


# ---------------------------------------------------------------------------
# score


def _score_one(kb: KnowledgeSpace, v: Variation, config: RunConfig) -> tuple[str, ...]:
    scores = score_all(kb, v, config.lambda1, config.lambda2)
    return tuple(fmt_float(value) for value in (*scores, *control_variables(v.doc, kb)))


def _read_manifest(path: Path) -> dict:
    """Load one split manifest and check its shape; malformed input raises ParseError."""
    manifest = parse_json(path.read_text("utf-8"), str(path), "manifest", dict)
    for key in ("product", "origin", "knowledge_ids", "variations"):
        if key not in manifest:
            raise ParseError(f"{path}: manifest has no {key!r}")
    for key in ("product", "origin"):
        if not isinstance(manifest[key], str):
            raise ParseError(f"{path}: {key} must be a string")
    for key in ("knowledge_ids", "variations"):
        if not isinstance(manifest[key], list):
            raise ParseError(f"{path}: {key} must be a JSON array")
    if not all(isinstance(doc_id, str) for doc_id in manifest["knowledge_ids"]):
        raise ParseError(f"{path}: knowledge_ids must all be strings")
    for i, entry in enumerate(manifest["variations"]):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: variation {i} is not a JSON object")
        for key in ("id", "country"):
            if key not in entry:
                raise ParseError(f"{path}: variation {i} has no {key!r}")
            if not isinstance(entry[key], str):
                raise ParseError(f"{path}: variation {i} {key} must be a string")
    variation_ids = [entry["id"] for entry in manifest["variations"]]
    for key, ids in (("knowledge_ids", manifest["knowledge_ids"]), ("variations", variation_ids)):
        if len(set(ids)) < len(ids):
            raise ParseError(f"{path}: {key} repeat an id")
    knowledge = set(manifest["knowledge_ids"])
    for doc_id in variation_ids:
        if doc_id in knowledge:
            raise ParseError(f"{path}: {doc_id!r} is both a knowledge id and a variation")
    return manifest


def cmd_score(config: RunConfig, manifest_paths: Optional[Sequence[Union[str, Path]]] = None) -> Path:
    """Score every manifest's variations; one CSV row per (split, variation).

    A manifest's documents are the ones build wrote to documents.jsonl in
    the manifest's directory, annotated as build annotated them, so score
    reads neither the corpus nor the annotation provider.

    Every manifest is read and checked first. Then scoring goes dish by
    dish: the dish's knowledge spaces are built, and each of its distinct
    variations (documents file, id) is laid out once and scored against
    every knowledge space of the dish that lists it. A layout is dropped
    after its last row and the knowledge spaces after their dish, so
    besides the documents the stage holds one dish's knowledge spaces and
    one layout at a time. Rows are written sorted, whatever the order.
    A listed id absent from documents.jsonl is the only failure it skips.
    """
    _load_numeric()
    out_dir = Path(config.output_dir)
    if manifest_paths is None:
        manifest_paths = sorted((out_dir / "manifests").glob("*.json"))
    manifests = [(path, _read_manifest(path)) for path in sorted(Path(p) for p in manifest_paths)]
    split_paths: dict[tuple[str, str], Path] = {}
    documents: dict[Path, dict[str, Document]] = {}  # by documents.jsonl path
    # product -> (manifest path, origin, knowledge documents, variations) of each split,
    # where variations maps (documents.jsonl path, id) to the variation's country
    dishes: dict[str, list[tuple[Path, str, list[Document], dict[tuple[Path, str], str]]]] = {}
    failures = 0
    for manifest_path, manifest in manifests:
        product, origin = split = (manifest["product"], manifest["origin"])
        if split in split_paths:
            raise ParseError(
                f"{manifest_path}: product {product!r}, origin {origin!r} repeats the split of "
                f"{split_paths[split]}"
            )
        split_paths[split] = manifest_path
        docs_path = manifest_path.parent / DOCUMENTS
        if docs_path not in documents:
            documents[docs_path] = {d.id: d for d in read_documents(docs_path)}
        doc_by_id = documents[docs_path]
        try:
            knowledge = [doc_by_id[i] for i in manifest["knowledge_ids"]]
        except KeyError as exc:
            raise ParseError(f"{manifest_path}: knowledge document id {exc} not in {docs_path}") from exc
        variations = {}
        for entry in manifest["variations"]:
            if entry["id"] in doc_by_id:
                variations[docs_path, entry["id"]] = entry["country"]
            else:
                log.warning("%s: variation id %r not in %s, skipped", manifest_path, entry["id"], docs_path)
                failures += 1
        dishes.setdefault(product, []).append((manifest_path, origin, knowledge, variations))

    rows: list[tuple[str, ...]] = []
    for product, splits in dishes.items():
        # each variation key -> the (origin, knowledge space, variation country) that list it
        listings: dict[tuple[Path, str], list[tuple[str, KnowledgeSpace, str]]] = {}
        for manifest_path, origin, knowledge, variations in splits:
            try:
                kb = build_knowledge_space(knowledge, window=config.pmi_window)
            except InsufficientKB as exc:
                raise ParseError(f"{manifest_path}: knowledge_ids: {exc}") from exc
            for key, country in variations.items():
                listings.setdefault(key, []).append((origin, kb, country))
        for (docs_path, doc_id), listed in listings.items():
            v = lay_out(documents[docs_path][doc_id], config.pmi_window)
            rows.extend((product, origin, doc_id, country) + _score_one(kb, v, config)
                        for origin, kb, country in listed)

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out_dir.mkdir(parents=True, exist_ok=True)
    scores_path = out_dir / "scores.csv"
    _write_csv(scores_path, SCORE_COLUMNS, rows)
    log.info("score: %d rows written, %d failures skipped", len(rows), failures)
    return scores_path


# ---------------------------------------------------------------------------
# analyze


def _read_scores(path: Path) -> tuple[list[Labels], np.ndarray]:
    """Each row's labels, and an n x 8 float64 array of its FIVE_METRICS + CONTROL_COLUMNS."""
    import numpy as np

    numeric = METRIC_COLUMNS + CONTROL_COLUMNS
    labels: list[Labels] = []
    cells: list[float] = []
    seen: set[tuple[str, str, str]] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != SCORE_COLUMNS:
            raise ParseError(f"{path}: unexpected scores header {header}")
        for row in filter(None, reader):  # skips blank lines, as csv.DictReader does
            if len(row) > len(SCORE_COLUMNS):
                raise ParseError(f"{path}:{reader.line_num}: more cells than the header")
            for col, cell in zip(numeric, row[4:]):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ParseError(f"{path}:{reader.line_num}: {col} is not a finite number: {cell!r}")
                cells.append(value)
            if len(row) < len(SCORE_COLUMNS):
                raise ParseError(f"{path}:{reader.line_num}: {SCORE_COLUMNS[max(len(row), 4)]} is missing")
            key = tuple(row[:3])
            if key in seen:  # each split ranks its variations by id
                raise ParseError(f"{path}:{reader.line_num}: repeated row for {'/'.join(key)}")
            seen.add(key)
            labels.append(tuple(row[:4]))
    kept = [numeric.index(col) for col in FIVE_METRICS + CONTROL_COLUMNS]
    return labels, np.array(cells).reshape(-1, len(numeric))[:, kept]


def _metric_correlations(labels: list[Labels], values: np.ndarray, config: RunConfig) -> list[list[str]]:
    groups: dict[tuple[str, str], list[int]] = {}
    for i, (product, kb_culture, _, _) in enumerate(labels):
        groups.setdefault((product, kb_culture), []).append(i)
    # each split: its size, each metric's values, and each metric's ranking
    # of the variation ids (highest first, ties by id)
    splits = []
    for _, rows in sorted(groups.items()):
        ids = [labels[i][2] for i in rows]
        metric_values = values[rows, : len(FIVE_METRICS)].T
        rankings = [[i for _, i in sorted(zip([-v for v in column], ids))]
                    for column in metric_values.tolist()]
        splits.append((len(rows), metric_values, rankings))

    out = []
    for a, metric_a in enumerate(FIVE_METRICS):
        for b in range(a + 1, len(FIVE_METRICS)):
            try:
                r_val, r_p = pearson(values[:, a], values[:, b])
                pearson_cells = [fmt_float(r_val), fmt_float(r_p)]
            except UndefinedStatistic:
                pearson_cells = ["", ""]
            taus, tau_ps, rbos, weights = [], [], [], []
            for size, metric_values, rankings in splits:
                try:
                    tau, tau_p = kendall_tau(metric_values[a], metric_values[b])
                except UndefinedStatistic:
                    continue
                taus.append(tau)
                tau_ps.append(tau_p)
                rbos.append(rbo(rankings[a], rankings[b], config.rbo_p))
                weights.append(size)
            split_cells = ["", "", ""]  # kendall_tau, kendall_p and rbo: means weighted by size
            if weights:
                w = sum(weights)
                split_cells = [fmt_float(sum(v * g for v, g in zip(series, weights)) / w)
                               for series in (taus, tau_ps, rbos)]
            out.append([metric_a, FIVE_METRICS[b]] + pearson_cells + split_cells)
    return out


def _distance_tables(
    labels: list[Labels], values: np.ndarray, matrices: dict[str, DistanceMatrix], config: RunConfig
) -> tuple[list[list[str]], ...]:
    """The distance correlation, regression, marginal and mediation tables.

    Each distance kind is one pass over the rows its matrix covers; each
    table lists its rows by kind, in DISTANCE_KINDS order.
    """
    import numpy as np

    correlations: list[list[str]] = []
    regressions: list[list[str]] = []
    marginal: list[list[str]] = []
    mediation: list[list[str]] = []
    terms = ("const",) + FIVE_METRICS + CONTROL_COLUMNS
    for kind in DISTANCE_KINDS:
        # None, a pair without a distance, becomes NaN; every distance a matrix holds is finite
        get = matrices[kind].get if kind in matrices else lambda a, b: None
        distance = np.array([get(kb, culture) for _, kb, _, culture in labels], dtype=float)
        covered = ~np.isnan(distance)
        y, x = distance[covered], values[covered]
        n = len(y)
        if n < len(labels):
            log.warning("analyze: %d/%d rows lack a %s distance", len(labels) - n, len(labels), kind)

        for k, metric in enumerate(FIVE_METRICS):
            try:
                cells = [fmt_float(v) for v in pearson(x[:, k], y)]
            except UndefinedStatistic:
                cells = ["", ""]
            correlations.append([kind, metric, str(n)] + cells)

        if not n:
            log.warning("analyze: no rows carry a %s distance; regression skipped", kind)
            continue
        try:
            full = ols(np.column_stack([np.ones(n), x]), y, names=terms)
        except UndefinedStatistic as exc:
            log.warning("analyze: full %s regression skipped (%s)", kind, exc)
        else:
            per_term = (full.coefficients, full.std_errors, full.t_stats, full.p_values)
            regressions.extend(
                [kind, str(full.n_obs), fmt_float(full.r_squared), term]
                + [fmt_float(column[term]) for column in per_term]
                for term in terms
            )
        for k, metric in enumerate(FIVE_METRICS):
            try:
                result = ols(np.column_stack([np.ones(n), x[:, k]]), y, names=("const", metric))
            except UndefinedStatistic as exc:
                log.warning("analyze: marginal %s ~ %s skipped (%s)", kind, metric, exc)
                continue
            fit = (result.r_squared, result.coefficients[metric], result.p_values[metric])
            marginal.append([kind, metric, str(result.n_obs)] + [fmt_float(v) for v in fit])

        # one bootstrap Gram pass for the kind's 15 mediations; each still goes
        # through pipeline.mediate, the name the benchmark's tracer wraps
        try:
            table = gram_table([*x.T, y], config.n_boot, config.seed)
        except UndefinedStatistic:  # too few rows to mediate
            continue
        outcome = x.shape[1]
        for k, metric in enumerate(FIVE_METRICS):
            for j, mediator in enumerate(CONTROL_COLUMNS, start=len(FIVE_METRICS)):
                try:
                    result = mediate(table, columns=(k, j, outcome))
                except UndefinedStatistic as exc:
                    log.warning(
                        "analyze: mediation %s/%s/%s skipped (%s)", kind, metric, mediator, exc
                    )
                    continue
                cells = [kind, metric, mediator, str(n)]
                cells += [fmt_float(v) for v in (result.total_effect, result.acme, result.ade)]
                for ci in (result.acme_ci, result.ade_ci, result.total_ci):
                    cells += ["", ""] if ci is None else [fmt_float(ci[0]), fmt_float(ci[1])]
                for p in (result.acme_p, result.ade_p, result.total_p):
                    cells.append("" if p is None else fmt_float(p))
                mediation.append(cells)
        del table  # (1 + n_boot) x 55 floats: free them before the next kind draws its own
    return correlations, regressions, marginal, mediation


def cmd_analyze(config: RunConfig, scores_path: Optional[Union[str, Path]] = None) -> dict:
    """Produce the correlation, regression, marginal, and mediation tables."""
    _load_numeric()
    out_dir = Path(config.output_dir)
    if scores_path is None:
        scores_path = out_dir / "scores.csv"
    scores_path = Path(scores_path)
    labels, values = _read_scores(scores_path)
    registry = load_registry(config.registry_path)
    matrices = distance_matrices(registry, config.linguistic_path, config.religious_path)

    out_dir.mkdir(parents=True, exist_ok=True)
    tables = [[]] * len(ANALYZE_TABLES)
    if labels:
        tables = [_metric_correlations(labels, values, config),
                  *_distance_tables(labels, values, matrices, config)]
    written = []
    for (name, header), table in zip(ANALYZE_TABLES.items(), tables):
        path = out_dir / name
        _write_csv(path, header, table)
        written.append(str(path))

    inputs = {str(scores_path): _sha256_file(scores_path)}
    if config.registry_path is None:  # the distances came from the registry shipped with the package
        inputs[BUNDLED_REGISTRY] = hashlib.sha256(bundled_registry().read_bytes()).hexdigest()
    for maybe in (config.registry_path, config.linguistic_path, config.religious_path):
        if maybe:
            inputs[str(maybe)] = _sha256_file(maybe)
    manifest_path = out_dir / "run_manifest.json"
    _write_json(manifest_path, _run_manifest(config, inputs, written))
    written.append(str(manifest_path))
    return {"outputs": written, "rows": len(labels)}


# ---------------------------------------------------------------------------
# distances / report


def cmd_distances(config: RunConfig) -> list[str]:
    """Write the IW and GEO matrices that analyze uses, as CSV files."""
    matrices = distance_matrices(load_registry(config.registry_path))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, matrix in matrices.items():
        rows = [(a, b, fmt_float(d)) for (a, b), d in sorted(matrix.entries.items())]
        path = out_dir / f"{kind}.csv"
        _write_csv(path, ("iso_a", "iso_b", "distance"), rows)
        written.append(str(path))
    return written


def cmd_report(config: RunConfig, analyze_dir: Optional[Union[str, Path]] = None) -> Path:
    """Bundle the analyze-stage tables with their digests."""
    source = Path(analyze_dir) if analyze_dir else Path(config.output_dir)
    bundle_dir = Path(config.output_dir) / "bundle"
    bundle_dir.mkdir(parents=True, exist_ok=True)
    index = {}
    for name in [*ANALYZE_TABLES, "run_manifest.json"]:
        src = source / name
        if not src.exists():
            raise ParseError(f"report: expected {src} (run analyze first)")
        (bundle_dir / name).write_bytes(src.read_bytes())
        index[name] = _sha256_file(src)
    index_path = bundle_dir / "bundle_index.json"
    _write_json(index_path, {"tool_version": __version__, "files": index})
    return bundle_dir
