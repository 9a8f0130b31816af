"""The repository's benchmark: the CLI pipeline on seeded synthetic corpora.

    python3 bench/run.py --workload wide --seed 1 --seconds 40 --trace 0

For one workload (see workloads.py and NOTES.md) it generates the corpus
from --seed, then:

- --trace 0: runs build, score, analyze and report as fresh CLI processes,
  untraced, again and again for --seconds (see measure), and reports the
  medians of the end-to-end metrics. Interpreter set-up (import the CLI,
  load the bundled registry) is probed between stage runs as setup_s.
- --trace 1: runs the pipeline once through the CLI for the stage CPU
  times, then once in one process untraced and once traced (tracer.py),
  and reports the per-layer metrics.

Outside the timed region it checks the outputs (check.py); on a mismatch
it names the row or file and exits 1. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A fuller record with
the environment, generator parameters and sample counts is written to
.bench_out/. Run from the repository root with python3; nothing is
installed, the stages run with PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402 - sibling modules of this script
from corpus_gen import generate  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_ROOT = REPO / ".bench_out"
STAGES = ("build", "score", "analyze", "report")
SETUP_CODE = "import cultnovelty.cli; from cultnovelty.distances import load_registry; load_registry()"
MIN_SAMPLES = 3  # per stage and set-up probe in an untraced run
# end-to-end metrics that read each kind's median, besides pipeline_s
METRIC_READS = {"setup": 1, "build": 1, "score": 2, "analyze": 1, "report": 0}


class BenchError(Exception):
    """The benchmark cannot run here, or the program's output is wrong."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_process(argv: list[str], log_path: Path) -> dict:
    """Run one child to completion; wall time, CPU time, max RSS, exit code."""
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=REPO, env=_env(), stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # reaped by wait4 (for its rusage), so tell Popen the child is gone
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


class Bench:
    """One workload and seed: its inputs, stage runs and their accounting."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        if workload.inputs is not None:
            self.inputs = {"paths": {k: str(REPO / v) for k, v in workload.inputs.items()},
                           "lemmas": {}}
        else:
            self.inputs = generate(workload.corpus, seed, work / "input")
        self.lemmas = self.inputs["lemmas"]
        self.flags = [
            "--corpus", self.inputs["paths"]["corpus"],
            "--dishes", self.inputs["paths"]["dishes"],
            "--linguistic", self.inputs["paths"]["linguistic"],
            "--religious", self.inputs["paths"]["religious"],
        ]
        self.workload_flags = []
        if workload.provider != "preannotated":
            self.workload_flags += ["--provider", workload.provider]
        if workload.n_boot is not None:
            self.workload_flags += ["--n-boot", str(workload.n_boot)]
        self.flags += self.workload_flags
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.out_dir = work / "out"

    def config(self, out_dir: Path) -> dict:
        """RunConfig fields equal to what the CLI flags select."""
        spec = {
            "corpus_path": self.inputs["paths"]["corpus"],
            "dish_specs_path": self.inputs["paths"]["dishes"],
            "linguistic_path": self.inputs["paths"]["linguistic"],
            "religious_path": self.inputs["paths"]["religious"],
            "annotation_provider": self.workload.provider,
            "output_dir": str(out_dir),
        }
        if self.workload.n_boot is not None:
            spec["n_boot"] = self.workload.n_boot
        return spec

    def setup_probe(self) -> dict:
        result = _run_process([sys.executable, "-c", SETUP_CODE], self.work / "setup.log")
        if result["exit"] != 0:
            log = (self.work / "setup.log").read_text("utf-8", "replace")
            raise BenchError(f"importing cultnovelty failed:\n{log}")
        return result

    def run_stage(self, stage: str) -> dict:
        """One untraced CLI stage process, checked and accounted for."""
        log = self.work / f"{stage}.log"
        argv = [sys.executable, "-m", "cultnovelty.cli", stage, *self.flags,
                "--output-dir", str(self.out_dir)]
        result = _run_process(argv, log)
        result["log"] = log.read_text("utf-8", "replace")
        self.account(self.out_dir, stage, result)
        return result

    def account(self, out_dir: Path, stage: str, result: dict) -> None:
        """Failure accounting and the byte-identity check for one stage run.

        A score run attempts every variation the manifests list, and one
        missing from scores.csv failed; so failed / attempted is the share
        of variations scored that failed. A stage run that exits non-zero
        fails all its operations and stops the benchmark: its time is no
        measurement, and its outputs are not there to check.
        """
        listed, missing = check.reconcile(out_dir) if (out_dir / "manifests").exists() else (0, [])
        if result["exit"] != 0:
            raise BenchError(f"stage {stage} exited {result['exit']}, failing all {listed} listed "
                             f"variations; no timing is reported:\n{result['log'][-2000:]}")
        if stage == "score":
            self.attempted += max(listed, 1)
            logged = check.parse_score_log(result["log"])
            if logged is not None and logged[1] != len(missing):
                raise BenchError(f"score logged {logged[1]} failures but scores.csv misses "
                                 f"{len(missing)} listed variations")
            for key in missing[:10]:
                print(f"bench: variation {key} is listed in a manifest but not scored",
                      file=sys.stderr)
            self.failed += len(missing)
        self.same_outputs(out_dir, check.STAGE_OUTPUTS.get(stage, ()))

    def same_outputs(self, out_dir: Path, names) -> None:
        """Each output must hash the same in every run of one seed."""
        for name, digest in check.digests(out_dir, names).items():
            first = self.digests.setdefault(name, digest)
            if digest != first:
                raise BenchError(f"{name} differs between runs of one seed")

    def check_outputs(self) -> dict:
        if not (self.out_dir / "scores.csv").exists():
            raise BenchError("scores.csv was never written: a stage failed (see above)")
        lemmas = self.lemmas or self._ingested_lemmas()
        result = check.check_scores(self.out_dir, lemmas, self.seed)
        if result["mismatches"]:
            raise BenchError("oracle mismatch:\n" + "\n".join(result["mismatches"][:20]))
        return result

    def _ingested_lemmas(self) -> dict[str, list[str]]:
        sys.path.insert(0, str(REPO / "src"))
        from cultnovelty.ingest import read_documents

        # the dropped-document warnings were already logged by the stages
        logging.getLogger("cultnovelty").setLevel(logging.ERROR)

        docs = read_documents(self.inputs["paths"]["corpus"], self.workload.provider)
        return {d.id: list(d.lemmas) for d in docs}

    def in_process(self, traced: bool) -> dict:
        """The pipeline in one fresh interpreter, with or without tracing."""
        tag = "traced" if traced else "untraced"
        out_dir = self.work / f"inproc-{tag}"
        config = self.work / f"config-{tag}.json"
        config.write_text(json.dumps(self.config(out_dir)), encoding="utf-8")
        spans = self.work / f"spans-{tag}.json"
        argv = [sys.executable, str(HERE / "tracer.py"), "--config", str(config),
                "--spans", str(spans)] + ([] if traced else ["--off"])
        result = _run_process(argv, self.work / f"{tag}.log")
        result["log"] = (self.work / f"{tag}.log").read_text("utf-8", "replace")
        if result["exit"] != 0:
            raise BenchError(f"{tag} in-process run exited {result['exit']}:\n{result['log'][-3000:]}")
        self.account(out_dir, "score", result)
        self.same_outputs(out_dir, check.TABLES)
        shutil.rmtree(out_dir)
        return json.loads(spans.read_text("utf-8"))


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced stage runs for `seconds`; end-to-end medians and samples.

    The first pass runs the pipeline in order, and every stage and the
    set-up probe gets MIN_SAMPLES samples whatever the time. After that,
    of the kinds that still fit in the time left, the next run goes to the
    one whose extra sample takes most off the summed relative variance of
    the reported medians per second it costs. A median of n samples read
    by w metrics gains w / (n (n + 1)) from one more, so the rate is that
    over the kind's cost. Cheap stages thus get more samples than slow
    ones, and report, which only pipeline_s reads, stays at the minimum.
    Stage outputs are identical on every run, so a stage can run again on
    the outputs of the first pass.
    """
    kinds = ("setup",) + STAGES
    runs: dict[str, list[dict]] = {kind: [] for kind in kinds}

    def cost(kind: str) -> float:
        return statistics.median(r["wall_s"] for r in runs[kind])

    def gain_per_s(kind: str) -> float:
        # pipeline_s sums the stage medians, so it reads each with the
        # square of the stage's share of the pipeline
        share = cost(kind) / sum(cost(s) for s in STAGES) if kind in STAGES else 0.0
        n = len(runs[kind])
        return (METRIC_READS[kind] + share**2) / (n * (n + 1) * cost(kind))

    start = time.perf_counter()
    for stage in STAGES:
        runs[stage].append(bench.run_stage(stage))
    while True:
        short = [k for k in kinds if len(runs[k]) < MIN_SAMPLES]
        if short:
            kind = min(short, key=lambda k: (len(runs[k]), kinds.index(k)))
        else:
            left = seconds - (time.perf_counter() - start)
            fits = [k for k in kinds if cost(k) <= left]
            if not fits:
                break
            kind = max(fits, key=gain_per_s)
        runs[kind].append(bench.setup_probe() if kind == "setup" else bench.run_stage(kind))

    wall = {k: [r["wall_s"] for r in runs[k]] for k in kinds}
    median = {k: statistics.median(v) for k, v in wall.items()}
    rows = len(check.read_scores(bench.out_dir))
    metrics = {
        "setup_s": (median["setup"], "s"),
        "build_s": (median["build"], "s"),
        "score_s": (median["score"], "s"),
        "analyze_s": (median["analyze"], "s"),
        "pipeline_s": (sum(median[s] for s in STAGES), "s"),
        "score_rows_per_s": (rows / median["score"], "rows/s"),
        "peak_rss_mb": (max(statistics.median(r["rss_mb"] for r in runs[s]) for s in STAGES), "MB"),
    }
    samples = {"counts": {k: len(v) for k, v in wall.items()}, "wall_s": wall,
               "cpu_s": {s: [r["cpu_s"] for r in runs[s]] for s in STAGES}}
    return metrics, samples


def traced(bench: Bench) -> tuple[dict, dict]:
    """Per-layer metrics: stage CPU from one CLI run, layers from the trace."""
    cli = {stage: bench.run_stage(stage) for stage in STAGES}
    plain = bench.in_process(traced=False)
    trace = bench.in_process(traced=True)
    metrics = layer_metrics(trace)
    for stage in ("build", "score", "analyze"):
        metrics[f"{stage}.cpu_s"] = (cli[stage]["cpu_s"], "s")
    metrics["trace.overhead_s"] = (trace["pipeline_s"] - plain["pipeline_s"], "s")
    metrics["failed_share"] = (bench.failed / bench.attempted, "ratio")
    spans_path = OUT_ROOT / f"{bench.workload.name}-seed{bench.seed}-spans.json"
    spans_path.write_text(json.dumps({"missing": trace["missing"], "counts": trace["counts"],
                                      "spans": trace["spans"]}), encoding="utf-8")
    if trace["missing"]:
        print(f"bench: not in this version, reported as 0: {', '.join(trace['missing'])}",
              file=sys.stderr)
    samples = {"layer_shares": layer_shares(trace, metrics),
               "cli_stage_s": {s: cli[s]["wall_s"] for s in STAGES},
               "untraced_inprocess_s": plain["pipeline_s"],
               "traced_inprocess_s": trace["pipeline_s"],
               "spans": len(trace["spans"]), "spans_file": str(spans_path.relative_to(REPO)),
               "missing": trace["missing"]}
    return metrics, samples


def layer_shares(trace: dict, metrics: dict) -> dict:
    """Shares of stage time taken by the layer each workload was built to stress."""
    stage = {name[len("stage."):]: end - start
             for name, start, end, _, _ in trace["spans"] if name.startswith("stage.")}

    def total(*names):
        return sum(metrics[n][0] for n in names)

    return {
        "calibration_and_size_metrics_of_score": total(
            "metrics.build_knowledge_space.total_s", "metrics.difference.self_s",
            "metrics.divergent_surprise.self_s", "metrics.newness.self_s") / stage["score"],
        "mediate_of_analyze": total("stats.mediate.self_s") / stage["analyze"],
        "ingest_annotation_builder_of_build_and_score": total(
            "ingest.read_documents.self_s", "annotation.filter_stream.self_s",
            "annotation.NaiveProvider.token_stream.self_s", "pipeline.resolve_countries.self_s",
            "builder.matched_documents.self_s", "builder.build_split.self_s",
        ) / (stage["build"] + stage["score"]),
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = ""
    try:
        config = numpy.show_config(mode="dicts")
        blas = "{name} {version}".format(**config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    commit = ""
    head = REPO / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = REPO / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cultnovelty pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/cultnovelty/cli.py", "tests/oracles.py") if not (REPO / p).exists()]
    if missing:
        print(f"bench: run from a checkout of the repository; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT_ROOT.mkdir(exist_ok=True)
    work = OUT_ROOT / f"work-{workload.name}-seed{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        bench = Bench(workload, args.seed, work)
        if args.trace:
            metrics, samples = traced(bench)
        else:
            metrics, samples = measure(bench, args.seconds)
        checked = bench.check_outputs()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        print(f"bench: work files kept in {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work)

    result = {
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "generator": asdict(workload.corpus) if workload.corpus else workload.inputs,
        "cli_flags": bench.workload_flags,
        "samples": samples, "output_check": checked, "result": result,
    }
    record_path = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
