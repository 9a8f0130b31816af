#!/usr/bin/env bash
# Runs the installed `cultnovelty` console script through build, score,
# analyze and report on the fixtures at seed 17, and compares what they
# write with the goldens byte for byte. Tier-1 imports from src/, so a data
# file left out of the installed package would pass it; this would not. It
# then reruns analyze on two OpenBLAS threads into OUTPUT_DIR-threads and
# compares every table with the first run's.
#
# Usage: installed-cli.sh FIXTURES_DIR OUTPUT_DIR
# Run it from outside the checkout. It stops at the first failing command.
set -euo pipefail

fixtures="$1"
out="$2"
unset PYTHONPATH
for stage in build score "analyze --n-boot 20" report; do
  if [ "$stage" = score ]; then
    # score reads only what build wrote: the manifests and their documents.jsonl
    cultnovelty score --output-dir "$out"
    continue
  fi
  # unquoted, so that the analyze entry splits into its flag
  cultnovelty $stage --corpus "$fixtures/recipes_50.jsonl" --dishes "$fixtures/dishes_sample.json" \
    --linguistic "$fixtures/linguistic.csv" --religious "$fixtures/religious.csv" \
    --seed 17 --output-dir "$out"
done
# build, score and analyze at seed 17 must write the golden files byte for byte;
# these analyze tables do not depend on --n-boot, so the run at 20 matches the
# goldens written at 50 (ROADMAP item 6's mantel_p will make correlations_distances.csv
# depend on it). Of mediation.csv only the row labels and n (distance, metric,
# mediator, n) are compared; its values are left to tier-1's 1e-12 rule.
golden="$fixtures/golden"
diff <(cd "$golden/manifests" && ls) <(cd "$out/manifests" && ls)
for name in eligibility.csv scores.csv manifests/documents.jsonl $(cd "$golden" && ls manifests/*.json) \
    correlations_metrics.csv correlations_distances.csv regressions.csv marginal.csv; do
  cmp "$golden/$name" "$out/$name"
done
cmp <(cut -d, -f1-4 "$golden/mediation.csv") <(cut -d, -f1-4 "$out/mediation.csv")
# the CLI runs OpenBLAS on one thread unless the caller sets OPENBLAS_NUM_THREADS;
# a caller's thread count must not move any analyze table, mediation.csv included
OPENBLAS_NUM_THREADS=2 cultnovelty analyze --n-boot 20 --scores "$out/scores.csv" \
  --linguistic "$fixtures/linguistic.csv" --religious "$fixtures/religious.csv" \
  --seed 17 --output-dir "$out-threads"
for name in correlations_metrics.csv correlations_distances.csv regressions.csv marginal.csv mediation.csv; do
  cmp "$out/$name" "$out-threads/$name"
done
