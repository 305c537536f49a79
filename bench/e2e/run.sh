#!/usr/bin/env bash
# Builds bench_e2e and runs N untraced sets plus one traced set. A set
# runs every workload of BENCHMARK.json once, one process per workload.
#
#   bench/e2e/run.sh N SEED OUTDIR
#
# OUTDIR receives untraced-<i>.<workload>.json, traced.<workload>.json
# (end-to-end and per-layer metrics), trace.<workload>.json (Chrome trace
# events) and one .log per run. Every result file is tagged with the git
# commit; the binary itself records the seed and nproc. Compare two
# OUTDIRs with bench/e2e/compare.py.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: bench/e2e/run.sh N SEED OUTDIR" >&2
  exit 2
fi
runs=$1
seed=$2
out=$3
root=$(cd "$(dirname "$0")/../.." && pwd)
build=$root/build/e2e

cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" --target bench_e2e -j "$(nproc)" >/dev/null

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
  commit=$commit-dirty
fi
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")

mkdir -p "$out"
failed=0
run() {
  local name=$1 workload=$2
  shift 2
  if ! "$build/bench_e2e" --workload "$workload" --seed "$seed" \
      --tmp "$out/tmp" --out "$out/$name.$workload.json" \
      --meta "commit=$commit" "$@" >"$out/$name.$workload.log"; then
    echo "run.sh: $name $workload failed, see $out/$name.$workload.log" >&2
    failed=1
  fi
}
for i in $(seq 1 "$runs"); do
  for w in $workloads; do run "untraced-$i" "$w"; done
done
for w in $workloads; do run traced "$w" --trace "$out/trace.$w.json"; done
rm -rf "$out/tmp"
exit $failed
