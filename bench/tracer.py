"""In-process traced run of the pipeline, and the per-layer metrics from it.

The tracer wraps the package's functions from outside: it replaces the
module attribute each caller looks up (``pipeline.score_all``,
``metrics.difference``, ``builder.matched_documents`` for the call inside
``build_split``, ...) with a wrapper that records a span. The program is
not edited. A name a later version no longer has is reported as missing
instead of failing the run.

Run as a script it executes build, score, analyze and report in one fresh
interpreter and writes the spans when the run ends:

    python3 bench/tracer.py --config run.json --spans spans.json [--off]

``--off`` runs the same stages without wrappers, which gives the
untraced time the tracing overhead is measured against.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional, Union

REPO = Path(__file__).resolve().parent.parent

KB_SPAN = "metrics.build_knowledge_space"
# marks a hot inner call that is counted but gets no span, so its time
# stays in the self time of the metric that calls it
COUNT = "count"


def _sized(value) -> Optional[int]:
    return len(value) if hasattr(value, "__len__") else None


def _kb_docs(args, kwargs, result):
    kb = args[0] if args else kwargs.get("kb")
    docs = getattr(kb, "docs", None)
    return {"kb_docs": len(docs)} if docs is not None else {}


def _score_attrs(args, kwargs, result):
    attrs = _kb_docs(args, kwargs, result)
    variation = args[1] if len(args) > 1 else kwargs.get("variation")
    attrs["variation"] = getattr(variation, "id", None)
    return attrs


def _resolve_attrs(args, kwargs, result):
    docs = args[0] if args else kwargs.get("docs")
    unknown = [i for i, d in enumerate(docs) if d.country == "UNKNOWN"]
    detected = sum(1 for i in unknown if result[i].country != "UNKNOWN")
    return {"unknown": len(unknown), "detected": detected}


# (module, attribute the caller looks up, span name, span attributes from
# (args, kwargs, result) or COUNT)
TARGETS: tuple[tuple[str, str, str, Union[Callable, str, None]], ...] = (
    ("pipeline", "read_documents", "ingest.read_documents",
     lambda a, k, r: {"docs": len(r)}),
    ("ingest", "filter_stream", "annotation.filter_stream", None),
    ("annotation", "NaiveProvider.token_stream", "annotation.NaiveProvider.token_stream", None),
    ("pipeline", "resolve_countries", "pipeline.resolve_countries", _resolve_attrs),
    ("pipeline", "matched_documents", "builder.matched_documents",
     lambda a, k, r: {"scanned": _sized(a[0] if a else k.get("corpus"))}),
    ("builder", "matched_documents", "builder.matched_documents",
     lambda a, k, r: {"scanned": _sized(a[0] if a else k.get("corpus"))}),
    ("pipeline", "build_split", "builder.build_split", None),
    ("pipeline", "build_knowledge_space", KB_SPAN,
     lambda a, k, r: {"kb_docs": len(r.docs)}),
    ("metrics", "calibrate_newness_threshold", "metrics.calibrate_newness_threshold", None),
    ("metrics", "calibrate_difference_threshold", "metrics.calibrate_difference_threshold", None),
    ("metrics", "build_ppmi", "ppmi.build_ppmi", None),
    ("metrics", "aggregate_distribution", "corpus.aggregate_distribution", None),
    ("pipeline", "score_all", "metrics.score_all", _score_attrs),
    ("metrics", "newness", "metrics.newness", _kb_docs),
    ("metrics", "uniqueness", "metrics.uniqueness", _kb_docs),
    ("metrics", "difference", "metrics.difference", _kb_docs),
    ("metrics", "new_surprise", "metrics.new_surprise", None),
    ("metrics", "divergent_surprise", "metrics.divergent_surprise", None),
    ("pipeline", "control_variables", "corpus.control_variables", None),
    ("metrics", "jsd", "divergence.jsd", COUNT),
    ("metrics", "jsd_decomposed", "divergence.jsd_decomposed", COUNT),
    ("pipeline", "mediate", "stats.mediate", lambda a, k, r: {"n_boot": r.n_boot}),
    ("pipeline", "kendall_tau", "stats.kendall_tau", None),
    ("pipeline", "pearson", "stats.pearson", None),
    ("pipeline", "rbo", "stats.rbo", None),
    ("pipeline", "ols", "stats.ols", None),
    ("pipeline", "cmd_build", "stage.build", None),
    ("pipeline", "cmd_score", "stage.score", None),
    ("pipeline", "cmd_analyze", "stage.analyze", None),
    ("pipeline", "cmd_report", "stage.report", None),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, attrs: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_name = name
            # build_ppmi serves both sides; the caller decides which layer it is
            if name == "ppmi.build_ppmi":
                in_kb = parent >= 0 and spans[parent][0] == KB_SPAN
                span_name = name + (".kb" if in_kb else ".variation")
            record = [span_name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                record[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            record[2] = clock()
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result

        return traced

    def count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules: dict) -> None:
        """Wrap every target the given modules still have; note the rest."""
        for module_name, attr, name, attrs in TARGETS:
            owner = modules.get(module_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.count(fn, name) if attrs == COUNT else self.wrap(fn, name, attrs)
            setattr(owner, path[-1], wrapped)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _quantile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    idx = q * (len(ordered) - 1)
    lo, hi = math.floor(idx), math.ceil(idx)
    return 1000.0 * (ordered[lo] + (ordered[hi] - ordered[lo]) * (idx - lo))


def _loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) on log(size); 0 without two sizes."""
    points = [(n, t) for n, t in points if n > 0 and t > 0]
    if len({n for n, _ in points}) < 2:
        return 0.0
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run."""
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(selfs[i] for i in idx(name))

    def total_s(name):
        return sum(spans[i][2] - spans[i][1] for i in idx(name))

    def attr_sum(name, key):
        return sum((spans[i][4] or {}).get(key) or 0 for i in idx(name))

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for layer in ("ingest.read_documents", "annotation.filter_stream",
                  "annotation.NaiveProvider.token_stream", "pipeline.resolve_countries",
                  "builder.matched_documents", "builder.build_split",
                  "metrics.calibrate_newness_threshold",
                  "metrics.calibrate_difference_threshold", "ppmi.build_ppmi.kb",
                  "corpus.aggregate_distribution", "metrics.newness", "metrics.uniqueness",
                  "metrics.difference", "metrics.new_surprise", "metrics.divergent_surprise",
                  "ppmi.build_ppmi.variation", "corpus.control_variables", "stats.mediate",
                  "stats.kendall_tau", "stats.pearson", "stats.rbo", "stats.ols"):
        put(f"{layer}.self_s", self_s(layer), "s")

    put("ingest.docs_read", attr_sum("ingest.read_documents", "docs"), "count")
    put("ingest.docs_dropped",
        sum(1 for i in idx("annotation.filter_stream")
            if (spans[i][4] or {}).get("error") == "EmptyAfterFilter"), "count")
    unknown = attr_sum("pipeline.resolve_countries", "unknown")
    detected = attr_sum("pipeline.resolve_countries", "detected")
    put("builder.titles_detected_share", detected / unknown if unknown else 0.0, "ratio")
    put("builder.docs_scanned", attr_sum("builder.matched_documents", "scanned"), "count")
    put("builder.redundant_match_calls",
        sum(1 for i in idx("builder.matched_documents")
            if spans[i][3] >= 0 and spans[spans[i][3]][0] == "builder.build_split"), "count")

    put(f"{KB_SPAN}.calls", len(idx(KB_SPAN)), "count")
    put(f"{KB_SPAN}.total_s", total_s(KB_SPAN), "s")
    put("metrics.calibration_scaling_exponent",
        _loglog_slope([((spans[i][4] or {}).get("kb_docs", 0), spans[i][2] - spans[i][1])
                       for i in idx(KB_SPAN)]), "exponent")

    scored = idx("metrics.score_all")
    durations = [spans[i][2] - spans[i][1] for i in scored]
    put("metrics.score_all.calls", len(scored), "count")
    put("metrics.score_all.p50_ms", _quantile_ms(durations, 0.50), "ms")
    put("metrics.score_all.p99_ms", _quantile_ms(durations, 0.99), "ms")
    seen: set = set()
    repeats = 0
    for i in scored:
        variation = (spans[i][4] or {}).get("variation")
        repeats += variation in seen
        seen.add(variation)
    put("metrics.variation_repeat_share", repeats / len(scored) if scored else 0.0, "ratio")
    put("divergence.jsd.calls", trace["counts"].get("divergence.jsd", 0), "count")
    put("divergence.jsd_decomposed.calls",
        trace["counts"].get("divergence.jsd_decomposed", 0), "count")

    put("stats.mediate.calls", len(idx("stats.mediate")), "count")
    put("stats.bootstrap_replicates", attr_sum("stats.mediate", "n_boot"), "count")
    put("stats.kendall_tau.calls", len(idx("stats.kendall_tau")), "count")
    return out


def _run(config_path: Path, spans_path: Path, traced: bool) -> None:
    sys.path.insert(0, str(REPO / "src"))
    from cultnovelty import annotation, builder, ingest, metrics, pipeline

    spec = json.loads(config_path.read_text("utf-8"))
    tracer = Tracer()
    if traced:
        tracer.install({"pipeline": pipeline, "ingest": ingest, "annotation": annotation,
                        "builder": builder, "metrics": metrics})
    config = pipeline.RunConfig(**spec)
    start = time.perf_counter()
    for stage in ("cmd_build", "cmd_score", "cmd_analyze", "cmd_report"):
        getattr(pipeline, stage)(config)
    payload = {
        "pipeline_s": time.perf_counter() - start,
        "missing": tracer.missing,
        "counts": dict(tracer.counts),
        "spans": tracer.spans,
    }
    spans_path.write_text(json.dumps(payload), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process pipeline run")
    parser.add_argument("--config", required=True, help="RunConfig fields as JSON")
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--off", action="store_true", help="run without tracing")
    args = parser.parse_args(argv)
    _run(Path(args.config), Path(args.spans), traced=not args.off)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
