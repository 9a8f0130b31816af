"""Run every workload over several seeds and record the result as BENCH_<label>.json.

    python3 bench/baseline.py --label baseline --seeds 1-10

For each workload in BENCHMARK.json it makes one untraced run per seed and
one traced run on the first seed, and writes, per end-to-end metric, the
median, quartiles and spread (interquartile range over median) across
seeds, plus the per-layer metrics and the environment, to
bench/results/BENCH_<label>.json. The spread is what the benchmark's
bounds are judged against: keep it under a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (REPO / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text("utf-8"))
    return {"result": result, "record": record}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    out: dict = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": seeds,
                 "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(_run(name, seed, spec["run_seconds"], 0))
            metrics = runs[-1]["result"]["metrics"]
            print(name, seed, {k: round(v["value"], 4) for k, v in metrics.items()}, flush=True)
        traced = _run(name, seeds[0], spec["run_seconds"], 1)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            end_to_end[metric["name"]] = dict(summarize(values), unit=metric["unit"],
                                              bound=metric["bound"])
        out["workloads"][name] = {
            "end_to_end": end_to_end,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "samples_per_seed": [r["record"]["samples"]["counts"] for r in runs],
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "layer_shares": traced["record"]["samples"]["layer_shares"],
            "generator": runs[0]["record"]["generator"],
            "cli_flags": runs[0]["record"]["cli_flags"],
            "output_check": runs[0]["record"]["output_check"],
        }
        out["environment"] = runs[0]["record"]["environment"]
        for metric, summary in end_to_end.items():
            print(f"{name} {metric:18s} median {summary['median']:10.4f} "
                  f"spread {summary['spread']:.4f} (bound {summary['bound']})", flush=True)
    path = HERE / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
