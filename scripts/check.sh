#!/usr/bin/env bash
# Tier-1 verification, the end-to-end benchmark's smoke run, plus
# sanitizer passes over the failure-handling hot spots.
#
#   scripts/check.sh                 # tier-1 + e2e smoke + ASan + UBSan + TSan
#   scripts/check.sh --no-asan       # skip the ASan pass
#   scripts/check.sh --no-tsan       # skip the TSan pass
#   scripts/check.sh --no-sanitizers # tier-1 + e2e smoke only
#
# The e2e smoke step builds bench/e2e (a standalone CMake project over
# src/) into build/e2e and runs its --smoke ctest, so a library change
# that breaks the benchmark's build or its reference-digest check fails
# here rather than only when the benchmark runs.
#
# The sanitizer builds live in build-asan/, build-ubsan/ and
# build-tsan/ so they never pollute the regular build directory, and
# only build the suites that exercise the risky machinery.
#   - ASan (mr_test, util_test, align_test, dfs_test, service_test,
#     formats_test, and gesall_test's LinearIndex* suites):
#     arena lifetime bugs — views outliving a spill or the arena they
#     point into — are exactly what ASan catches and what the plain
#     build can silently survive; the banded SIMD aligner's
#     scratch-buffer reuse and unaligned vector loads get the same
#     treatment via the differential suite. The dfs and service suites
#     cover the durability layer: journal replay over torn tails,
#     SimulateCrash teardown/rebuild, and job-log recovery all juggle
#     raw FILE* handles and buffers whose misuse ASan surfaces. The
#     compressed data path rides the same suites: the bgzf codec and its
#     torn/corrupt-block decodes (util_test), lazy-decompress merge
#     cursors whose entries die on Advance (mr_test
#     shuffle_compression_test), and compressed DFS parts under
#     quarantine/repair and crash-restart (dfs_test
#     dfs_compression_test) are all scratch-buffer-reuse machinery
#     where an overread is silent without ASan. The split-block decoder
#     (util_test's hostile split payloads) and the BAM record parser
#     with its block builder (formats_test: bam_test, bam_fuzz_test)
#     copy spans at offsets read from disk, and the round-4 .bai sidecar
#     decoder (gesall_test's LinearIndex* filter) sizes its window
#     vector from a count read back from the DFS. The suites run with
#     single allocations capped at 256 MiB (max_allocation_size_mb): the
#     largest a passing suite makes is 11.75 MiB (align_test), while a
#     decoder that sizes a buffer from a lying length or count asks for
#     GiBs, so it aborts with allocation-size-too-big instead of
#     zero-filling the machine's memory.
#   - UBSan (dfs_test, mr_test, align_test, util_test, formats_test):
#     the integrity layer's checksum kernels (unaligned word loads,
#     table folds, shift combines), the fault-injection arithmetic, the
#     16-bit saturating DP arithmetic, and the split-block decoder's
#     varint and offset arithmetic on bytes read from disk must be free
#     of undefined behavior, or corruption detection itself can't be
#     trusted.
#   - TSan (util_test, mr_test, service_test, dfs_test, plus the
#     streaming-loop, correctness-matrix, schedule and serial-oracle
#     suites): the work-stealing executor (per-worker deques,
#     steal-half transfers, TaskGroup helping waits, the
#     shutdown/submit race) and the async MapReduce
#     engine built on it are lock-ordering-sensitive by design; a data
#     race here silently reorders round outputs. The service suite adds
#     the job-manager threads (runners, watchdog, heartbeat) racing
#     admission, cancellation and drain, including the multi-tenant
#     chaos test over a shared DFS. The PipelineNodeTest filter runs
#     the fused align+clean batch loop, cancelled from its sink. The
#     correctness-matrix and PipelineScheduleTest filters run whole
#     pipelines through the one stage table in every schedule —
#     barriered, pipelined, streamed, serial, and resumed after a cancel
#     or a DFS crash, with and without the codec and faults —
#     where every reduce builds and writes its partition on its worker
#     with a nested parallel BGZF deflate, and a resumed overlapped run
#     starts jobs against gates its sealed rounds fired before the jobs
#     existed; the dfs suite covers concurrent
#     Dfs::Write calls, each fanning its compress_parts deflate out as a
#     nested TaskGroup.
#     The SerialPipelineTest filter runs the serial oracle.

set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=1
run_ubsan=1
run_tsan=1
for arg in "$@"; do
  case "$arg" in
    --no-asan) run_asan=0 ;;
    --no-tsan) run_tsan=0 ;;
    --no-sanitizers) run_asan=0; run_ubsan=0; run_tsan=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "=== tier-1: configure + build + ctest ==="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure --timeout 1200

echo "=== bench/e2e: build + smoke run ==="
cmake -S bench/e2e -B build/e2e
cmake --build build/e2e -j
ctest --test-dir build/e2e --output-on-failure

if [[ "$run_asan" == 1 ]]; then
  echo "=== asan: shuffle engine + aligner + durability + decoder suites ==="
  cmake -B build-asan -S . -DGESALL_SANITIZE=address
  cmake --build build-asan -j --target mr_test util_test align_test \
    dfs_test service_test formats_test gesall_test
  asan_options="max_allocation_size_mb=256${ASAN_OPTIONS:+:$ASAN_OPTIONS}"
  for suite in mr_test util_test align_test dfs_test service_test \
    formats_test; do
    ASAN_OPTIONS="$asan_options" "./build-asan/tests/$suite"
  done
  ASAN_OPTIONS="$asan_options" ./build-asan/tests/gesall_test \
    --gtest_filter='LinearIndex*'
fi

if [[ "$run_ubsan" == 1 ]]; then
  echo "=== ubsan: integrity + failure-model + aligner + decoder suites ==="
  cmake -B build-ubsan -S . -DGESALL_SANITIZE=undefined
  cmake --build build-ubsan -j --target dfs_test mr_test align_test \
    util_test formats_test
  ./build-ubsan/tests/dfs_test
  ./build-ubsan/tests/mr_test
  ./build-ubsan/tests/align_test
  ./build-ubsan/tests/util_test
  ./build-ubsan/tests/formats_test
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "=== tsan: executor + mapreduce + service suites ==="
  cmake -B build-tsan -S . -DGESALL_SANITIZE=thread
  cmake --build build-tsan -j --target util_test mr_test service_test \
    dfs_test gesall_test
  ./build-tsan/tests/util_test
  ./build-tsan/tests/mr_test
  ./build-tsan/tests/service_test
  ./build-tsan/tests/dfs_test
  ./build-tsan/tests/gesall_test \
    --gtest_filter='PipelineNodeTest.*:*CorrectnessMatrix*:*PipelineScheduleTest.*:SerialPipelineTest.*'
fi

echo "=== check.sh: all green ==="
