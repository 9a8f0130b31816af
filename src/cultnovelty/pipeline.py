"""Batch pipeline: corpus -> splits -> scores -> statistical reports.

Every stage is a pure function of (inputs, config, seed) and writes its
rows in canonical order, so reruns are byte-identical.
Float cells hold the shortest string that reads back as the same float, so
identities such as total = acme + ade hold exactly in the tables too.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_type_hints

import numpy as np

from . import __version__
from .builder import (
    build_split,
    detect_country,
    dish_slug,
    load_dish_specs,
    matched_documents,
)
from .corpus import Document, control_variables
from .distances import Registry, compute_matrix, geo_distance, iw_distance, load_distance_matrix, load_registry
from .errors import (
    AllTied,
    ConstantSeries,
    CultNoveltyError,
    IneligibleDish,
    InsufficientKB,
    InsufficientObservations,
    MissingCoordinates,
    ParseError,
    RankDeficient,
    UnknownCountry,
)
from .ingest import PROVIDERS, read_documents
from .metrics import build_knowledge_space, score_all
from .stats import kendall_tau, mediate, ols, pearson, rbo

log = logging.getLogger(__name__)

METRIC_COLUMNS = (
    "appearance",
    "disappearance",
    "newness",
    "uniqueness",
    "difference",
    "new_surprise",
    "divergent_surprise",
)
CONTROL_COLUMNS = ("lexical_diversity", "new_ingredient_ratio", "length_ratio")
SCORE_COLUMNS = ("product", "kb_culture", "variation_id", "variation_culture") + METRIC_COLUMNS + CONTROL_COLUMNS
FIVE_METRICS = ("newness", "uniqueness", "difference", "new_surprise", "divergent_surprise")
DISTANCE_KINDS = ("iw", "geo", "linguistic", "religious")

MIN_MEDIATION_ROWS = 10


@dataclass(frozen=True)
class RunConfig:
    """All tunables of a run, with the published defaults pinned in one place."""

    lambda1: float = 0.8
    lambda2: float = 0.2
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
        if not abs(self.lambda1 + self.lambda2 - 1.0) <= 1e-12:
            raise ValueError("lambda1 + lambda2 must equal 1")
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
            try:
                raw = json.loads(Path(path).read_text("utf-8"))
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ParseError(f"{path}: invalid JSON ({exc})") from exc
            if not isinstance(raw, dict):
                raise ParseError(f"{path}: config must be a JSON object")
            hints = get_type_hints(cls)
            unknown = set(raw) - set(hints)
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
    """Construct split manifests and the eligibility report.

    Country detection and dish matching read titles only, so every corpus
    line is checked but only the records they keep are annotated. All
    inputs are read and validated, and every manifest file name checked,
    before the first byte is written, so a missing or malformed input
    leaves no partial outputs behind.
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
    kept = {doc.id for doc in read_documents(config.corpus_path, config.annotation_provider, ids=screen)}

    out_dir = Path(config.output_dir)
    manifest_dir = out_dir / "manifests"
    name_max = _name_max(manifest_dir)
    eligibility_rows: list[tuple[str, str, str, str, str]] = []
    manifests: dict[str, dict] = {}
    for dish, found in zip(dishes, matches):
        matched = [doc for doc in found if doc.id in kept]
        if not matched:
            eligibility_rows.append((dish.canonical_name, "", "0", "0", "no_matches"))
            continue
        for origin in sorted({doc.country for doc in matched}):
            split_seed = derive_split_seed(config.seed, dish.canonical_name, origin)
            try:
                split = build_split(matched, origin, config.holdout_fraction, split_seed)
            except IneligibleDish as exc:
                eligibility_rows.append(
                    (
                        dish.canonical_name,
                        origin,
                        str(exc.kb_size),
                        str(exc.variation_count),
                        "ineligible",
                    )
                )
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
            eligibility_rows.append(
                (
                    dish.canonical_name,
                    origin,
                    str(len(split.knowledge)),
                    str(len(split.variations)),
                    "eligible",
                )
            )

    manifest_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for name, manifest in manifests.items():
        manifest_path = manifest_dir / name
        _write_json(manifest_path, manifest)
        written.append(str(manifest_path))
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


def _score_one(kb, doc: Document, config: RunConfig) -> tuple[str, ...]:
    scores = score_all(kb, doc, config.lambda1, config.lambda2)
    controls = control_variables(doc, kb)
    values = scores.as_tuple() + (
        controls.lexical_diversity,
        controls.new_ingredient_ratio,
        controls.length_ratio,
    )
    return tuple(fmt_float(v) for v in values)


def _read_manifest(path: Path) -> dict:
    """Load one split manifest and check its shape; malformed input raises ParseError."""
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")
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
    return manifest


def _check_built_from(path: Path, manifest: dict, config: RunConfig, corpus_digest: str) -> None:
    """A manifest's ids hold only for the corpus bytes and the provider that built it."""
    expected = {"corpus_sha256": corpus_digest, "annotation_provider": config.annotation_provider}
    for key, want in expected.items():
        if manifest.get(key) != want:
            found = repr(manifest[key]) if key in manifest else "missing"
            raise ParseError(
                f"{path}: {key} is {found}, but scoring {config.corpus_path} with provider "
                f"{config.annotation_provider!r} needs {want!r}; rerun build"
            )


def cmd_score(config: RunConfig, manifest_paths: Optional[Sequence[Union[str, Path]]] = None) -> Path:
    """Score every manifest's variations; one CSV row per (split, variation).

    Only the documents the manifests reference are annotated, so each
    manifest must carry the digest of this corpus and this provider.
    """
    if not config.corpus_path:
        raise ParseError("score requires corpus_path")
    out_dir = Path(config.output_dir)
    if manifest_paths is None:
        manifest_paths = sorted((out_dir / "manifests").glob("*.json"))
    manifests = [(path, _read_manifest(path)) for path in sorted(Path(p) for p in manifest_paths)]
    corpus_digest = _sha256_file(config.corpus_path)
    for manifest_path, manifest in manifests:
        _check_built_from(manifest_path, manifest, config, corpus_digest)
    referenced = {
        doc_id
        for _, manifest in manifests
        for doc_id in manifest["knowledge_ids"] + [entry["id"] for entry in manifest["variations"]]
    }
    corpus = read_documents(config.corpus_path, config.annotation_provider, ids=referenced)
    doc_by_id = {d.id: d for d in corpus}

    rows: list[tuple[str, ...]] = []
    failures = 0
    for manifest_path, manifest in manifests:
        product = manifest["product"]
        origin = manifest["origin"]
        try:
            knowledge = [doc_by_id[i] for i in manifest["knowledge_ids"]]
        except KeyError as exc:
            raise ParseError(f"{manifest_path}: unknown knowledge document id {exc}") from exc
        try:
            kb = build_knowledge_space(knowledge, window=config.pmi_window)
        except InsufficientKB as exc:
            raise ParseError(f"{manifest_path}: knowledge_ids: {exc}") from exc

        for entry in manifest["variations"]:
            doc = doc_by_id.get(entry["id"])
            if doc is None:
                log.warning("%s: variation id %r not in corpus, skipped", manifest_path, entry["id"])
                failures += 1
                continue
            try:
                rows.append((product, origin, doc.id, entry["country"]) + _score_one(kb, doc, config))
            except CultNoveltyError as exc:
                log.warning("scoring %s against %s/%s failed: %s", doc.id, product, origin, exc)
                failures += 1

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out_dir.mkdir(parents=True, exist_ok=True)
    scores_path = out_dir / "scores.csv"
    _write_csv(scores_path, SCORE_COLUMNS, rows)
    log.info("score: %d rows written, %d failures skipped", len(rows), failures)
    return scores_path


# ---------------------------------------------------------------------------
# analyze


def _read_scores(path: Path) -> list[dict]:
    rows = []
    seen: set[tuple[str, str, str]] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != SCORE_COLUMNS:
            raise ParseError(f"{path}: unexpected scores header {reader.fieldnames}")
        for raw in reader:
            row = dict(raw)
            for col in METRIC_COLUMNS + CONTROL_COLUMNS:
                if row[col] is None:
                    raise ParseError(f"{path}:{reader.line_num}: {col} is missing")
                try:
                    value = float(row[col])
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}:{reader.line_num}: {col} is not a finite number: {row[col]!r}"
                    )
                row[col] = value
            key = (row["product"], row["kb_culture"], row["variation_id"])
            if key in seen:  # each split ranks its variations by id
                raise ParseError(f"{path}:{reader.line_num}: repeated row for {'/'.join(key)}")
            seen.add(key)
            rows.append(row)
    return rows


def _attach_distances(rows: list[dict], registry: Registry, config: RunConfig) -> None:
    matrices = {
        kind: load_distance_matrix(path, registry)
        for kind, path in (("linguistic", config.linguistic_path), ("religious", config.religious_path))
        if path
    }
    for row in rows:
        a, b = row["kb_culture"], row["variation_culture"]
        row["iw"] = row["geo"] = row["linguistic"] = row["religious"] = None
        try:
            rec_a, rec_b = registry.get(a), registry.get(b)
        except UnknownCountry:
            continue
        try:
            row["iw"] = iw_distance(rec_a, rec_b)
        except MissingCoordinates:
            pass
        try:
            row["geo"] = geo_distance(rec_a, rec_b)
        except MissingCoordinates:
            pass
        for kind, matrix in matrices.items():
            row[kind] = matrix.get(a, b)


def _ranking(rows: list[dict], metric: str) -> list[str]:
    ordered = sorted(rows, key=lambda r: (-r[metric], r["variation_id"]))
    return [r["variation_id"] for r in ordered]


def _metric_correlations(rows: list[dict], config: RunConfig) -> list[list[str]]:
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["product"], row["kb_culture"]), []).append(row)
    split_rows = [g for _, g in sorted(groups.items()) if len(g) >= 3]

    out = []
    for i, metric_a in enumerate(FIVE_METRICS):
        for metric_b in FIVE_METRICS[i + 1 :]:
            xs = [r[metric_a] for r in rows]
            ys = [r[metric_b] for r in rows]
            try:
                r_val, r_p = pearson(xs, ys)
                pearson_cells = [fmt_float(r_val), fmt_float(r_p)]
            except (ConstantSeries, InsufficientObservations):
                pearson_cells = ["", ""]
            taus, tau_ps, rbos, weights = [], [], [], []
            for group in split_rows:
                gx = [r[metric_a] for r in group]
                gy = [r[metric_b] for r in group]
                try:
                    tau, tau_p = kendall_tau(gx, gy)
                except (AllTied, InsufficientObservations):
                    continue
                taus.append(tau)
                tau_ps.append(tau_p)
                rbos.append(rbo(_ranking(group, metric_a), _ranking(group, metric_b), config.rbo_p))
                weights.append(len(group))
            if weights:
                w = sum(weights)
                kendall_cells = [
                    fmt_float(sum(t * g for t, g in zip(taus, weights)) / w),
                    fmt_float(sum(p * g for p, g in zip(tau_ps, weights)) / w),
                ]
                rbo_cell = fmt_float(sum(v * g for v, g in zip(rbos, weights)) / w)
            else:
                kendall_cells = ["", ""]
                rbo_cell = ""
            out.append([metric_a, metric_b] + pearson_cells + kendall_cells + [rbo_cell])
    return out


def _distance_correlations(rows: list[dict]) -> list[list[str]]:
    out = []
    for kind in DISTANCE_KINDS:
        subset = [r for r in rows if r[kind] is not None]
        for metric in FIVE_METRICS:
            if len(subset) < 3:
                out.append([kind, metric, str(len(subset)), "", ""])
                continue
            try:
                r_val, p_val = pearson([r[metric] for r in subset], [r[kind] for r in subset])
                out.append([kind, metric, str(len(subset)), fmt_float(r_val), fmt_float(p_val)])
            except ConstantSeries:
                out.append([kind, metric, str(len(subset)), "", ""])
    return out


def _regression_tables(rows: list[dict]) -> tuple[list[list[str]], list[list[str]]]:
    full_rows: list[list[str]] = []
    marginal_rows: list[list[str]] = []
    terms = ("const",) + FIVE_METRICS + CONTROL_COLUMNS
    for kind in DISTANCE_KINDS:
        subset = [r for r in rows if r[kind] is not None]
        if not subset:
            log.warning("analyze: no rows carry a %s distance; regression skipped", kind)
            continue
        y = [r[kind] for r in subset]
        design = np.column_stack(
            [np.ones(len(subset))]
            + [[r[m] for r in subset] for m in FIVE_METRICS]
            + [[r[c] for r in subset] for c in CONTROL_COLUMNS]
        )
        try:
            full = ols(design, y, names=terms)
        except (RankDeficient, InsufficientObservations) as exc:
            log.warning("analyze: full %s regression skipped (%s)", kind, exc)
        else:
            for term in terms:
                full_rows.append(
                    [
                        kind,
                        str(full.n_obs),
                        fmt_float(full.r_squared),
                        term,
                        fmt_float(full.coefficients[term]),
                        fmt_float(full.std_errors[term]),
                        fmt_float(full.t_stats[term]),
                        fmt_float(full.p_values[term]),
                    ]
                )
        for metric in FIVE_METRICS:
            single = np.column_stack([np.ones(len(subset)), [r[metric] for r in subset]])
            try:
                result = ols(single, y, names=("const", metric))
            except (RankDeficient, InsufficientObservations) as exc:
                log.warning("analyze: marginal %s ~ %s skipped (%s)", kind, metric, exc)
                continue
            marginal_rows.append(
                [
                    kind,
                    metric,
                    str(result.n_obs),
                    fmt_float(result.r_squared),
                    fmt_float(result.coefficients[metric]),
                    fmt_float(result.p_values[metric]),
                ]
            )
    return full_rows, marginal_rows


def _mediation_table(rows: list[dict], config: RunConfig) -> list[list[str]]:
    out: list[list[str]] = []
    for kind in DISTANCE_KINDS:
        subset = [r for r in rows if r[kind] is not None]
        if len(subset) < MIN_MEDIATION_ROWS:
            continue
        y = [r[kind] for r in subset]
        for metric in FIVE_METRICS:
            t_series = [r[metric] for r in subset]
            for mediator in CONTROL_COLUMNS:
                m_series = [r[mediator] for r in subset]
                try:
                    result = mediate(t_series, m_series, y, n_boot=config.n_boot, seed=config.seed)
                except CultNoveltyError as exc:
                    log.warning(
                        "analyze: mediation %s/%s/%s skipped (%s)", kind, metric, mediator, exc
                    )
                    continue
                cells = [
                    kind, metric, mediator, str(len(subset)),
                    fmt_float(result.total_effect),
                    fmt_float(result.acme),
                    fmt_float(result.ade),
                ]
                for ci in (result.acme_ci, result.ade_ci, result.total_ci):
                    cells.extend(["", ""] if ci is None else [fmt_float(ci[0]), fmt_float(ci[1])])
                for p in (result.acme_p, result.ade_p, result.total_p):
                    cells.append("" if p is None else fmt_float(p))
                out.append(cells)
    return out


def cmd_analyze(config: RunConfig, scores_path: Optional[Union[str, Path]] = None) -> dict:
    """Produce the correlation, regression, marginal, and mediation tables."""
    out_dir = Path(config.output_dir)
    if scores_path is None:
        scores_path = out_dir / "scores.csv"
    scores_path = Path(scores_path)
    rows = _read_scores(scores_path)
    registry = load_registry(config.registry_path)
    _attach_distances(rows, registry, config)

    dropped = {
        kind: sum(1 for r in rows if r[kind] is None) for kind in DISTANCE_KINDS
    }
    for kind, count in sorted(dropped.items()):
        if count:
            log.warning("analyze: %d/%d rows lack a %s distance", count, len(rows), kind)

    out_dir.mkdir(parents=True, exist_ok=True)
    metric_corr = _metric_correlations(rows, config) if rows else []
    distance_corr = _distance_correlations(rows) if rows else []
    full_rows, marginal_rows = _regression_tables(rows) if rows else ([], [])
    mediation_rows = _mediation_table(rows, config) if rows else []

    outputs = {
        "correlations_metrics.csv": (
            ("metric_a", "metric_b", "pearson_r", "pearson_p", "kendall_tau", "kendall_p", "rbo"),
            metric_corr,
        ),
        "correlations_distances.csv": (
            ("distance", "metric", "n", "pearson_r", "pearson_p"),
            distance_corr,
        ),
        "regressions.csv": (
            ("distance", "n", "r_squared", "term", "coef", "std_err", "t", "p"),
            full_rows,
        ),
        "marginal.csv": (
            ("distance", "metric", "n", "r_squared", "coef", "p"),
            marginal_rows,
        ),
        "mediation.csv": (
            (
                "distance", "metric", "mediator", "n", "total_effect", "acme", "ade",
                "acme_ci_low", "acme_ci_high", "ade_ci_low", "ade_ci_high",
                "total_ci_low", "total_ci_high", "acme_p", "ade_p", "total_p",
            ),
            mediation_rows,
        ),
    }
    written = []
    for name, (header, table) in outputs.items():
        path = out_dir / name
        _write_csv(path, header, table)
        written.append(str(path))

    inputs = {str(scores_path): _sha256_file(scores_path)}
    for maybe in (config.registry_path, config.linguistic_path, config.religious_path):
        if maybe:
            inputs[str(maybe)] = _sha256_file(maybe)
    manifest_path = out_dir / "run_manifest.json"
    _write_json(manifest_path, _run_manifest(config, inputs, written))
    written.append(str(manifest_path))
    return {"outputs": written, "rows": len(rows)}


# ---------------------------------------------------------------------------
# distances / report


def cmd_distances(config: RunConfig) -> list[str]:
    """Precompute the IW and GEO matrices from the registry as CSV files."""
    registry = load_registry(config.registry_path)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, name in (("IW", "iw.csv"), ("GEO", "geo.csv")):
        matrix = compute_matrix(registry, kind)
        rows = [
            (a, b, fmt_float(matrix.entries[(a, b)]))
            for (a, b) in sorted(matrix.entries)
        ]
        path = out_dir / name
        _write_csv(path, ("iso_a", "iso_b", "distance"), rows)
        written.append(str(path))
    return written


def cmd_report(config: RunConfig, analyze_dir: Optional[Union[str, Path]] = None) -> Path:
    """Bundle the analyze-stage tables with their digests."""
    source = Path(analyze_dir) if analyze_dir else Path(config.output_dir)
    bundle_dir = Path(config.output_dir) / "bundle"
    bundle_dir.mkdir(parents=True, exist_ok=True)
    names = [
        "correlations_metrics.csv",
        "correlations_distances.csv",
        "regressions.csv",
        "marginal.csv",
        "mediation.csv",
        "run_manifest.json",
    ]
    index = {}
    for name in names:
        src = source / name
        if not src.exists():
            raise ParseError(f"report: expected {src} (run analyze first)")
        (bundle_dir / name).write_bytes(src.read_bytes())
        index[name] = _sha256_file(src)
    index_path = bundle_dir / "bundle_index.json"
    _write_json(index_path, {"tool_version": __version__, "files": index})
    return bundle_dir
