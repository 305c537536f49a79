// Shuffle data path benchmark: the pre-arena string-copy shuffle
// (per-record std::string buffering, per-record counter-map lookups,
// record-copying merges, reduce groups built from owned strings) against
// the zero-copy arena shuffle (mr/shuffle_buffer.h) on a 1M-record
// synthetic genomics workload.
//
// The measured path is the full shuffle: map-side emit + sort-and-spill
// across several simulated map tasks (the legacy engine also merges each
// task's spill runs map-side; the arena engines leave them to the
// reduce), then the reduce-side k-way merge and key grouping, ending in
// a streaming consume (FNV digest) that stands in for the reducer. Both
// engines must produce the same digest and group count.
//
// A fourth section measures the compression-aware data path: BGZF
// spill compression (mr/shuffle_buffer.h compress mode) plus BGZF DFS
// parts (DfsOptions::compress_parts), reporting raw vs on-disk bytes
// for both legs and the combined reduction. Because the bench is
// in-memory, the throughput comparison charges each engine the time a
// paper-era 100 MB/s spill disk would take for the bytes it actually
// moves — the trade the paper's Fig. 10 disk-utilization study makes.
//
// Emits machine-readable results as JSON (argv[1], default
// BENCH_shuffle.json in the working directory). Heap allocations are
// counted via a global operator new override, so the "one allocation
// per record" vs "one per arena block" claim is measured, not estimated.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dfs/dfs.h"
#include "gesall/keys.h"
#include "mr/mapreduce.h"
#include "mr/shuffle_buffer.h"
#include "report.h"
#include "util/crc32c.h"
#include "util/executor.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {
std::atomic<int64_t> g_heap_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace gesall {
namespace {

constexpr int kNumRecords = 1'000'000;
constexpr int kNumMapTasks = 4;
constexpr int kNumPartitions = 8;
constexpr int64_t kSortBufferBytes = 8LL << 20;  // several spills per task
constexpr int kIterations = 3;  // best-of to shed scheduler noise

// Compressed data path: fast deflate for spills (the codec sits on the
// map critical path), and a modeled spill disk for the throughput
// comparison — the paper's clusters shuffle through SATA disks whose
// effective bandwidth under concurrent spill/fetch traffic is ~80 MB/s,
// which an in-memory bench otherwise prices at zero.
constexpr int kCompressLevel = 1;
constexpr double kModeledDiskMBps = 80.0;

struct Workload {
  std::vector<std::string> keys;
  std::vector<std::string> values;
  int64_t payload_bytes = 0;
};

// Round-4-shaped records: order-preserving binary coordinate keys with a
// skewed position distribution (duplicate 5' ends) and BAM-record-sized
// values.
Workload MakeWorkload() {
  Workload w;
  w.keys.reserve(kNumRecords);
  w.values.reserve(kNumRecords);
  Rng rng(20170517);
  for (int i = 0; i < kNumRecords; ++i) {
    std::string key;
    key.push_back('\x01');
    AppendOrderedU64(&key, rng.Uniform(24));             // chromosome
    AppendOrderedU64(&key, rng.Uniform(250'000));        // position
    AppendOrderedU64(&key, rng.Next());                  // name hash
    std::string value(80 + rng.Uniform(41), '\0');
    for (auto& c : value) {
      c = static_cast<char>('A' + rng.Uniform(26));
    }
    w.payload_bytes += static_cast<int64_t>(key.size() + value.size());
    w.keys.push_back(std::move(key));
    w.values.push_back(std::move(value));
  }
  return w;
}

// Workload for the compression section: same record shape, but values
// are reads sampled from a synthetic reference at the key's position
// with sparse sequencing noise, so coordinate-sorted neighbours cover
// overlapping reference bases — the redundancy that makes sorted BAM
// (and sorted spill runs) compress well in practice. The genome is
// scaled to the sort buffer the same way 30x WGS relates to a
// production-sized buffer: one 8 MB spill window must see multi-x
// local coverage, or spill-level compression measures an
// unrealistically thin workload.
Workload MakeGenomeWorkload() {
  Workload w;
  w.keys.reserve(kNumRecords);
  w.values.reserve(kNumRecords);
  Rng rng(20170517);
  std::string ref(40'000 + 128, '\0');
  for (auto& c : ref) c = "ACGT"[rng.Uniform(4)];
  for (int i = 0; i < kNumRecords; ++i) {
    uint64_t chrom = rng.Uniform(8);
    uint64_t pos = rng.Uniform(40'000);
    std::string key;
    key.push_back('\x01');
    AppendOrderedU64(&key, chrom);                       // chromosome
    AppendOrderedU64(&key, pos);                         // position
    AppendOrderedU64(&key, rng.Next());                  // name hash
    std::string value = ref.substr(pos, 80 + rng.Uniform(41));
    for (size_t m = chrom % 16; m < value.size(); m += 33) {
      value[m] = "ACGT"[rng.Uniform(4)];                 // read errors
    }
    w.payload_bytes += static_cast<int64_t>(key.size() + value.size());
    w.keys.push_back(std::move(key));
    w.values.push_back(std::move(value));
  }
  return w;
}

// Order-insensitive-free digest of a (key, values...) group stream: the
// digest chains, so both engines must produce identical groups in
// identical order to match.
struct GroupDigest {
  uint64_t digest = 1469598103934665603ULL;
  int64_t groups = 0;
  int64_t records = 0;

  void Key(std::string_view key) {
    digest = MixSeeds(digest, Fnv1a64(key));
    ++groups;
  }
  void Value(std::string_view value) {
    digest = MixSeeds(digest, Fnv1a64(value));
    ++records;
  }
  bool operator==(const GroupDigest&) const = default;
};

// ---------------------------------------------------------------------
// Faithful reproduction of the pre-arena shuffle: per-record std::string
// pairs buffered per partition, two counter-map lookups on every emit,
// stable_sort of whole records on spill, record-copying merges, and
// reduce groups materialized as std::vector<std::string>.

struct LegacyKeyValue {
  std::string key;
  std::string value;
};
using LegacySortedRun = std::vector<LegacyKeyValue>;

class LegacyShuffle {
 public:
  LegacyShuffle(const Partitioner* partitioner, int num_partitions,
                int64_t sort_buffer_bytes)
      : partitioner_(partitioner), num_partitions_(num_partitions),
        sort_buffer_bytes_(sort_buffer_bytes), buffer_(num_partitions),
        runs_(num_partitions) {}

  void Emit(const std::string& key, const std::string& value) {
    int p = partitioner_->Partition(key, num_partitions_);
    buffered_bytes_ += static_cast<int64_t>(key.size() + value.size() + 16);
    counters_.Add("map_output_records", 1);
    counters_.Add("map_output_bytes",
                  static_cast<int64_t>(key.size() + value.size()));
    buffer_[p].push_back({key, value});
    if (buffered_bytes_ > sort_buffer_bytes_) Spill();
  }

  void Finish() {
    Spill();
    for (int p = 0; p < num_partitions_; ++p) {
      if (runs_[p].size() > 1) Merge(p);
    }
  }

  const std::vector<LegacySortedRun>& runs(int p) const { return runs_[p]; }
  const JobCounters& counters() const { return counters_; }

 private:
  void Spill() {
    bool any = false;
    for (int p = 0; p < num_partitions_; ++p) {
      if (buffer_[p].empty()) continue;
      any = true;
      std::stable_sort(
          buffer_[p].begin(), buffer_[p].end(),
          [](const LegacyKeyValue& a, const LegacyKeyValue& b) {
            return a.key < b.key;
          });
      runs_[p].push_back(std::move(buffer_[p]));
      buffer_[p].clear();
    }
    if (any) counters_.Add("map_spills", 1);
    buffered_bytes_ = 0;
  }

  void Merge(int p) {
    auto& runs = runs_[p];
    LegacySortedRun merged;
    size_t total = 0;
    int64_t merge_bytes = 0;
    for (const auto& run : runs) {
      total += run.size();
      for (const auto& kv : run) {
        merge_bytes +=
            static_cast<int64_t>(kv.key.size() + kv.value.size());
      }
    }
    counters_.Add("map_merge_bytes", merge_bytes);
    merged.reserve(total);
    using Cursor = std::pair<size_t, size_t>;
    auto less = [&runs](const Cursor& a, const Cursor& b) {
      const LegacyKeyValue& ka = runs[a.first][a.second];
      const LegacyKeyValue& kb = runs[b.first][b.second];
      if (ka.key != kb.key) return ka.key > kb.key;
      return a.first > b.first;
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(less)> heap(
        less);
    for (size_t r = 0; r < runs.size(); ++r) {
      if (!runs[r].empty()) heap.push({r, 0});
    }
    while (!heap.empty()) {
      auto [r, o] = heap.top();
      heap.pop();
      merged.push_back(std::move(runs[r][o]));
      if (o + 1 < runs[r].size()) heap.push({r, o + 1});
    }
    runs.clear();
    runs.push_back(std::move(merged));
  }

  const Partitioner* partitioner_;
  int num_partitions_;
  int64_t sort_buffer_bytes_;
  int64_t buffered_bytes_ = 0;
  std::vector<LegacySortedRun> buffer_;
  std::vector<std::vector<LegacySortedRun>> runs_;
  JobCounters counters_;
};

struct RunResult {
  double seconds = 0;
  int64_t heap_allocations = 0;
  int64_t spills = 0;
  int64_t shuffle_bytes = 0;
  int64_t checksummed_bytes = 0;
  // Serialized spill footprint: what the run stream costs before the
  // codec and what actually lands on disk (equal without compression).
  int64_t disk_bytes_raw = 0;
  int64_t disk_bytes = 0;
  int64_t compress_micros = 0;
  int64_t decompress_micros = 0;
  bool verified = true;
  GroupDigest digest;
};

// Wall-clock plus the time a kModeledDiskMBps spill disk spends on the
// bytes this engine moves: spill write, map-merge read + re-write, and
// the reduce-side fetch read — 4 passes over the on-disk footprint.
double ModeledSeconds(const RunResult& r) {
  return r.seconds +
         4.0 * static_cast<double>(r.disk_bytes) / (1 << 20) /
             kModeledDiskMBps;
}

// Reduce-side walk of the legacy engine: per partition, gather every
// task's run, k-way merge (stable by task index), group, and build each
// group's values as owned strings — exactly what the pre-arena reduce
// path did. `consume(key, values)` stands in for the reducer.
template <typename Consume>
void WalkLegacyGroups(const std::vector<LegacyShuffle>& tasks,
                      const Consume& consume) {
  for (int p = 0; p < kNumPartitions; ++p) {
    std::vector<const LegacySortedRun*> runs;
    for (const auto& t : tasks) {
      for (const auto& run : t.runs(p)) runs.push_back(&run);
    }
    using Cursor = std::pair<size_t, size_t>;
    auto less = [&runs](const Cursor& a, const Cursor& b) {
      const LegacyKeyValue& ka = (*runs[a.first])[a.second];
      const LegacyKeyValue& kb = (*runs[b.first])[b.second];
      if (ka.key != kb.key) return ka.key > kb.key;
      return a.first > b.first;
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(less)> heap(
        less);
    for (size_t r = 0; r < runs.size(); ++r) {
      if (!runs[r]->empty()) heap.push({r, 0});
    }
    std::string current_key;
    bool has_current = false;
    std::vector<std::string> values;
    while (!heap.empty()) {
      auto [r, o] = heap.top();
      heap.pop();
      const LegacyKeyValue& kv = (*runs[r])[o];
      if (!has_current || kv.key != current_key) {
        if (has_current) consume(current_key, values);
        current_key = kv.key;  // string copy, as in the old engine
        has_current = true;
        values.clear();
      }
      values.push_back(kv.value);  // string copy, as in the old engine
      if (o + 1 < runs[r]->size()) heap.push({r, o + 1});
    }
    if (has_current) consume(current_key, values);
  }
}

// Reduce-side walk of the arena engine: entry-index k-way merge, groups
// as views into the frozen arenas.
template <typename Consume>
void WalkArenaGroups(const std::vector<ShuffleBuffer>& tasks,
                     const Consume& consume) {
  for (int p = 0; p < kNumPartitions; ++p) {
    std::vector<const ShuffleRun*> runs;
    for (const auto& t : tasks) {
      for (const auto& run : t.runs(p)) runs.push_back(&run);
    }
    ShuffleRunMerger merger(runs);
    const ShuffleEntry* current = nullptr;
    std::vector<std::string_view> values;
    for (const ShuffleEntry* e = merger.Next(); e != nullptr;
         e = merger.Next()) {
      if (current == nullptr || !ShuffleKeyEqual(*e, *current)) {
        if (current != nullptr) consume(current->key, values);
        current = e;
        values.clear();
      }
      values.push_back(e->value);
    }
    if (current != nullptr) consume(current->key, values);
  }
}

// Reduce-side walk of the compressed engine: lazy-decompressing cursors
// feed the k-way merge one 64 KiB block at a time, and each group's
// values are copied into a reused buffer before the consume — the
// engine's streaming group-copy path, since reader entries die on the
// next Advance().
template <typename Consume>
void WalkCompressedGroups(const std::vector<ShuffleBuffer>& tasks,
                          const Consume& consume,
                          int64_t* decompress_micros) {
  for (int p = 0; p < kNumPartitions; ++p) {
    std::vector<std::unique_ptr<CompressedShuffleRunReader>> readers;
    std::vector<ShuffleRunReader*> reader_ptrs;
    for (const auto& t : tasks) {
      for (const auto& crun : t.compressed_runs(p)) {
        readers.push_back(
            std::make_unique<CompressedShuffleRunReader>(crun.bytes));
        reader_ptrs.push_back(readers.back().get());
      }
    }
    ShuffleRunMerger merger(reader_ptrs);
    std::string current_key;
    bool has_group = false;
    std::string group_buf;
    std::vector<std::pair<size_t, size_t>> spans;
    std::vector<std::string_view> values;
    auto flush = [&] {
      if (!has_group) return;
      values.clear();
      const std::string_view buf = group_buf;
      for (const auto& [off, len] : spans) values.push_back(buf.substr(off, len));
      consume(current_key, values);
    };
    for (const ShuffleEntry* e = merger.Next(); e != nullptr;
         e = merger.Next()) {
      if (!has_group || e->key != current_key) {
        flush();
        current_key.assign(e->key);
        group_buf.clear();
        spans.clear();
        has_group = true;
      }
      spans.emplace_back(group_buf.size(), e->value.size());
      group_buf.append(e->value);
    }
    flush();
    if (decompress_micros != nullptr) {
      for (const auto& r : readers) {
        *decompress_micros += r->decompress_micros();
      }
    }
  }
}

// The timed consumer: touches every group and value size (so the
// grouping work cannot be elided) without the verification hash, which
// both engines would pay identically.
struct CountingConsumer {
  int64_t groups = 0;
  int64_t value_bytes = 0;
  template <typename Values>
  void operator()(std::string_view, const Values& values) {
    ++groups;
    for (const auto& v : values) {
      value_bytes += static_cast<int64_t>(v.size());
    }
  }
};

RunResult RunLegacy(const Workload& w, const Partitioner& partitioner) {
  RunResult result;
  int64_t allocs_before = g_heap_allocations.load();
  Stopwatch clock;
  // Map side: kNumMapTasks tasks, each shuffling its slice.
  std::vector<LegacyShuffle> tasks;
  tasks.reserve(kNumMapTasks);
  for (int t = 0; t < kNumMapTasks; ++t) {
    tasks.emplace_back(&partitioner, kNumPartitions, kSortBufferBytes);
  }
  for (int i = 0; i < kNumRecords; ++i) {
    tasks[static_cast<size_t>(i) * kNumMapTasks / kNumRecords].Emit(
        w.keys[i], w.values[i]);
  }
  for (auto& t : tasks) t.Finish();
  CountingConsumer counting;
  WalkLegacyGroups(tasks, [&](std::string_view key,
                              const std::vector<std::string>& values) {
    counting(key, values);
  });
  result.seconds = clock.ElapsedSeconds();
  result.heap_allocations = g_heap_allocations.load() - allocs_before;

  // Verification (untimed): digest the full group stream.
  WalkLegacyGroups(tasks, [&](std::string_view key,
                              const std::vector<std::string>& values) {
    result.digest.Key(key);
    for (const auto& v : values) result.digest.Value(v);
  });
  if (result.digest.groups != counting.groups) result.digest.digest = 0;
  for (const auto& t : tasks) {
    result.spills += t.counters().Get("map_spills");
    result.shuffle_bytes += t.counters().Get("map_output_bytes");
  }
  return result;
}

RunResult RunArena(const Workload& w, const Partitioner& partitioner,
                   bool checksum) {
  RunResult result;
  int64_t allocs_before = g_heap_allocations.load();
  Stopwatch clock;
  std::vector<ShuffleBuffer> tasks;
  tasks.reserve(kNumMapTasks);
  for (int t = 0; t < kNumMapTasks; ++t) {
    tasks.emplace_back(kNumPartitions, kSortBufferBytes, checksum);
  }
  // Batched engine counters, as in MapContextImpl.
  int64_t records = 0, bytes = 0;
  JobCounters counters;
  for (int i = 0; i < kNumRecords; ++i) {
    int p = partitioner.Partition(w.keys[i], kNumPartitions);
    ++records;
    bytes += static_cast<int64_t>(w.keys[i].size() + w.values[i].size());
    tasks[static_cast<size_t>(i) * kNumMapTasks / kNumRecords]
        .Add(p, w.keys[i], w.values[i])
        .ok();
  }
  for (auto& t : tasks) t.Finish().ok();
  if (checksum) {
    // Reduce-fetch verification, as MapReduceJob::Run performs before
    // handing map outputs to the reduce merge: recompute every run CRC.
    for (const auto& t : tasks) {
      for (int p = 0; p < kNumPartitions; ++p) {
        result.verified &= t.VerifyPartition(p).ok();
      }
    }
  }
  counters.Add("map_output_records", records);
  counters.Add("map_output_bytes", bytes);
  CountingConsumer counting;
  WalkArenaGroups(tasks, [&](std::string_view key,
                             const std::vector<std::string_view>& values) {
    counting(key, values);
  });
  result.seconds = clock.ElapsedSeconds();
  result.heap_allocations = g_heap_allocations.load() - allocs_before;

  // Verification (untimed): digest the full group stream.
  WalkArenaGroups(tasks, [&](std::string_view key,
                             const std::vector<std::string_view>& values) {
    result.digest.Key(key);
    for (const auto& v : values) result.digest.Value(v);
  });
  if (result.digest.groups != counting.groups) result.digest.digest = 0;
  for (const auto& t : tasks) {
    result.spills += t.stats().spills;
    result.checksummed_bytes += t.stats().checksummed_bytes;
  }
  result.shuffle_bytes = counters.Get("map_output_bytes");
  // Uncompressed spill streams land as-is: [u32 klen][u32 vlen] framing
  // plus the payload, per record.
  result.disk_bytes_raw = w.payload_bytes + 8LL * kNumRecords;
  result.disk_bytes = result.disk_bytes_raw;
  return result;
}

// The compressed shuffle: identical map/reduce structure, but every
// sealed spill run goes through the BGZF codec and the reduce merge
// inflates lazily, one 64 KiB block per cursor.
RunResult RunCompressed(const Workload& w, const Partitioner& partitioner,
                        Executor* executor) {
  RunResult result;
  int64_t allocs_before = g_heap_allocations.load();
  Stopwatch clock;
  std::vector<ShuffleBuffer> tasks;
  tasks.reserve(kNumMapTasks);
  for (int t = 0; t < kNumMapTasks; ++t) {
    tasks.emplace_back(kNumPartitions, kSortBufferBytes, /*checksum=*/true,
                       /*compress=*/true, kCompressLevel, executor);
  }
  for (int i = 0; i < kNumRecords; ++i) {
    int p = partitioner.Partition(w.keys[i], kNumPartitions);
    tasks[static_cast<size_t>(i) * kNumMapTasks / kNumRecords]
        .Add(p, w.keys[i], w.values[i])
        .ok();
  }
  for (auto& t : tasks) t.Finish().ok();
  result.shuffle_bytes = w.payload_bytes;
  for (const auto& t : tasks) {
    for (int p = 0; p < kNumPartitions; ++p) {
      result.verified &= t.VerifyPartition(p).ok();
    }
  }
  CountingConsumer counting;
  WalkCompressedGroups(
      tasks,
      [&](std::string_view key, const std::vector<std::string_view>& values) {
        counting(key, values);
      },
      &result.decompress_micros);
  result.seconds = clock.ElapsedSeconds();
  result.heap_allocations = g_heap_allocations.load() - allocs_before;

  // Verification (untimed): digest the full group stream.
  WalkCompressedGroups(
      tasks,
      [&](std::string_view key, const std::vector<std::string_view>& values) {
        result.digest.Key(key);
        for (const auto& v : values) result.digest.Value(v);
      },
      nullptr);
  if (result.digest.groups != counting.groups) result.digest.digest = 0;
  for (const auto& t : tasks) {
    result.spills += t.stats().spills;
    result.checksummed_bytes += t.stats().checksummed_bytes;
    result.compress_micros += t.stats().compress_micros;
    for (int p = 0; p < kNumPartitions; ++p) {
      for (const auto& crun : t.compressed_runs(p)) {
        result.disk_bytes += static_cast<int64_t>(crun.bytes.size());
        result.disk_bytes_raw += crun.raw_bytes;
      }
    }
  }
  return result;
}

// DFS leg of the data path: each partition's merged, coordinate-sorted
// output stream written back as a round part, with and without
// DfsOptions::compress_parts, read back to prove byte identity.
struct DfsLeg {
  int64_t bytes_raw = 0;
  int64_t bytes_stored = 0;
  int64_t compress_micros = 0;
  int64_t decompress_micros = 0;
  double seconds = 0;
  bool roundtrip_ok = true;
};

DfsLeg RunDfsParts(const std::vector<std::string>& parts, bool compress) {
  DfsOptions options;
  options.block_size = 4 << 20;
  options.replication = 1;  // count the canonical copy once
  options.num_data_nodes = 4;
  options.compress_parts = compress;
  options.compress_level = kCompressLevel;
  Dfs dfs(options);
  DfsLeg leg;
  Stopwatch clock;
  for (size_t p = 0; p < parts.size(); ++p) {
    std::string path = "/round4/part-" + std::to_string(p);
    dfs.Write(path, parts[p]).ok();
    auto back = dfs.Read(path);
    leg.roundtrip_ok &= back.ok() && back.ValueOrDie() == parts[p];
  }
  leg.seconds = clock.ElapsedSeconds();
  DfsStats stats = dfs.stats();
  leg.bytes_raw = stats.bytes_written_raw;
  leg.bytes_stored = stats.bytes_written_stored;
  leg.compress_micros = stats.compress_micros;
  leg.decompress_micros = stats.decompress_micros;
  return leg;
}

// The round-output parts: per-partition serialized record streams in
// key order, as the reduce side of Round 4 writes them.
std::vector<std::string> MakeParts(const Workload& w,
                                   const Partitioner& partitioner) {
  std::vector<std::vector<int>> by_part(kNumPartitions);
  for (int i = 0; i < kNumRecords; ++i) {
    by_part[partitioner.Partition(w.keys[i], kNumPartitions)]
        .push_back(i);
  }
  std::vector<std::string> parts(kNumPartitions);
  for (int p = 0; p < kNumPartitions; ++p) {
    auto& order = by_part[p];
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return w.keys[a] < w.keys[b]; });
    std::string& out = parts[p];
    for (int i : order) {
      uint32_t klen = static_cast<uint32_t>(w.keys[i].size());
      uint32_t vlen = static_cast<uint32_t>(w.values[i].size());
      out.append(reinterpret_cast<const char*>(&klen), 4);
      out.append(reinterpret_cast<const char*>(&vlen), 4);
      out += w.keys[i];
      out += w.values[i];
    }
  }
  return parts;
}

// ---------------------------------------------------------------------
// Raw CRC32C throughput: the hardware-dispatched path vs the portable
// slice-by-8 table, over a buffer large enough to stream from memory.

struct CrcThroughput {
  bool hardware = false;
  double hardware_mb_per_sec = 0;
  double portable_mb_per_sec = 0;
};

CrcThroughput MeasureCrc32c() {
  constexpr size_t kBufBytes = 64 << 20;
  std::string buf(kBufBytes, '\0');
  Rng rng(42);
  for (size_t i = 0; i + 8 <= buf.size(); i += 8) {
    uint64_t v = rng.Next();
    std::memcpy(&buf[i], &v, 8);
  }
  auto time_mbps = [&](auto&& extend) {
    double best = 0;
    uint32_t sink = 0;
    for (int i = 0; i < kIterations; ++i) {
      Stopwatch clock;
      sink ^= extend(sink, buf.data(), buf.size());
      double s = clock.ElapsedSeconds();
      double mbps = static_cast<double>(kBufBytes) / (1 << 20) / s;
      if (mbps > best) best = mbps;
    }
    // Keep the checksum observable so the loop cannot be elided.
    if (sink == 0x12345678u) std::printf(" ");
    return best;
  };
  CrcThroughput t;
  t.hardware = Crc32cHardwareAvailable();
  t.hardware_mb_per_sec = time_mbps(ExtendCrc32c);
  t.portable_mb_per_sec = time_mbps(ExtendCrc32cPortable);
  return t;
}

template <typename Fn>
RunResult BestOf(int iterations, const Fn& fn) {
  RunResult best = fn();
  for (int i = 1; i < iterations; ++i) {
    RunResult r = fn();
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

void PrintJson(std::FILE* f, const Workload& w, const Workload& wc,
               const RunResult& legacy, const RunResult& arena,
               const RunResult& arena_checksum, const RunResult& uncompressed,
               const RunResult& compressed, const DfsLeg& dfs_raw,
               const DfsLeg& dfs_comp, const CrcThroughput& crc,
               double overhead_pct, double modeled_ratio) {
  auto rate = [&](const RunResult& r) { return kNumRecords / r.seconds; };
  auto mbps = [&](const RunResult& r) {
    return static_cast<double>(w.payload_bytes) / (1 << 20) / r.seconds;
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"shuffle\",\n");
  std::fprintf(f, "  \"records\": %d,\n", kNumRecords);
  std::fprintf(f, "  \"map_tasks\": %d,\n", kNumMapTasks);
  std::fprintf(f, "  \"partitions\": %d,\n", kNumPartitions);
  std::fprintf(f, "  \"payload_bytes\": %lld,\n",
               static_cast<long long>(w.payload_bytes));
  std::fprintf(f, "  \"sort_buffer_bytes\": %lld,\n",
               static_cast<long long>(kSortBufferBytes));
  std::fprintf(f, "  \"iterations\": %d,\n", kIterations);
  auto section = [&](const char* name, const RunResult& r) {
    std::fprintf(f, "  \"%s\": {\n", name);
    std::fprintf(f, "    \"seconds\": %.4f,\n", r.seconds);
    std::fprintf(f, "    \"records_per_sec\": %.0f,\n", rate(r));
    std::fprintf(f, "    \"shuffle_mb_per_sec\": %.1f,\n", mbps(r));
    std::fprintf(f, "    \"heap_allocations\": %lld,\n",
                 static_cast<long long>(r.heap_allocations));
    std::fprintf(f, "    \"spills\": %lld\n",
                 static_cast<long long>(r.spills));
    std::fprintf(f, "  },\n");
  };
  section("legacy_string_copy", legacy);
  section("arena_zero_copy", arena);
  section("arena_zero_copy_checksummed", arena_checksum);
  std::fprintf(f, "  \"speedup_records_per_sec\": %.2f,\n",
               rate(arena) / rate(legacy));
  std::fprintf(f, "  \"allocation_reduction\": %.1f,\n",
               static_cast<double>(legacy.heap_allocations) /
                   static_cast<double>(arena.heap_allocations));
  std::fprintf(f, "  \"checksum_overhead_percent\": %.2f,\n", overhead_pct);
  std::fprintf(f, "  \"checksummed_bytes\": %lld,\n",
               static_cast<long long>(arena_checksum.checksummed_bytes));
  const int64_t raw_total = uncompressed.disk_bytes + dfs_raw.bytes_stored;
  const int64_t disk_total = compressed.disk_bytes + dfs_comp.bytes_stored;
  std::fprintf(f, "  \"compression\": {\n");
  std::fprintf(f, "    \"level\": %d,\n", kCompressLevel);
  std::fprintf(f, "    \"workload\": \"genome_reads\",\n");
  std::fprintf(f, "    \"payload_bytes\": %lld,\n",
               static_cast<long long>(wc.payload_bytes));
  std::fprintf(f, "    \"seconds_uncompressed\": %.4f,\n",
               uncompressed.seconds);
  std::fprintf(f, "    \"seconds_compressed\": %.4f,\n", compressed.seconds);
  std::fprintf(f, "    \"modeled_disk_mb_per_sec\": %.0f,\n",
               kModeledDiskMBps);
  std::fprintf(f, "    \"shuffle_disk_bytes_raw\": %lld,\n",
               static_cast<long long>(uncompressed.disk_bytes));
  std::fprintf(f, "    \"shuffle_disk_bytes_compressed\": %lld,\n",
               static_cast<long long>(compressed.disk_bytes));
  std::fprintf(f, "    \"dfs_part_bytes_raw\": %lld,\n",
               static_cast<long long>(dfs_raw.bytes_stored));
  std::fprintf(f, "    \"dfs_part_bytes_stored\": %lld,\n",
               static_cast<long long>(dfs_comp.bytes_stored));
  std::fprintf(f, "    \"combined_disk_reduction\": %.2f,\n",
               static_cast<double>(raw_total) /
                   static_cast<double>(disk_total));
  std::fprintf(f, "    \"compress_micros\": %lld,\n",
               static_cast<long long>(compressed.compress_micros +
                                      dfs_comp.compress_micros));
  std::fprintf(f, "    \"decompress_micros\": %lld,\n",
               static_cast<long long>(compressed.decompress_micros +
                                      dfs_comp.decompress_micros));
  std::fprintf(f, "    \"modeled_records_per_sec_uncompressed\": %.0f,\n",
               kNumRecords / ModeledSeconds(uncompressed));
  std::fprintf(f, "    \"modeled_records_per_sec_compressed\": %.0f,\n",
               kNumRecords / ModeledSeconds(compressed));
  std::fprintf(f, "    \"modeled_throughput_vs_uncompressed\": %.3f\n",
               modeled_ratio);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"crc32c\": {\n");
  std::fprintf(f, "    \"hardware_dispatch\": %s,\n",
               crc.hardware ? "true" : "false");
  std::fprintf(f, "    \"hardware_mb_per_sec\": %.0f,\n",
               crc.hardware_mb_per_sec);
  std::fprintf(f, "    \"portable_mb_per_sec\": %.0f\n",
               crc.portable_mb_per_sec);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
}

int Main(int argc, char** argv) {
  bench::Title("Shuffle data path: string-copy vs zero-copy arena");
  bench::Note("1M coordinate-keyed records through map spill/sort/merge + "
              "reduce merge/group");

  Workload w = MakeWorkload();
  HashPartitioner partitioner;

  RunResult legacy = BestOf(kIterations, [&] {
    return RunLegacy(w, partitioner);
  });
  // The overhead and modeled-throughput ratios are measured pairwise —
  // each iteration times both sides back to back and the best iteration
  // wins — so scheduler drift between two separately-timed best-of
  // sections cannot masquerade as codec or checksum cost.
  RunResult arena, arena_checksum;
  double overhead_pct = 1e18;
  for (int i = 0; i < kIterations; ++i) {
    RunResult a = RunArena(w, partitioner, /*checksum=*/false);
    RunResult c = RunArena(w, partitioner, /*checksum=*/true);
    overhead_pct = std::min(overhead_pct,
                            (c.seconds / a.seconds - 1.0) * 100.0);
    if (i == 0 || a.seconds < arena.seconds) arena = std::move(a);
    if (i == 0 || c.seconds < arena_checksum.seconds) {
      arena_checksum = std::move(c);
    }
  }
  // Compression section: genome-shaped values, and its own uncompressed
  // comparator on the same workload so disk bytes, digests, and modeled
  // throughput are apples-to-apples.
  Workload wc = MakeGenomeWorkload();
  Executor codec_pool(std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 8));
  RunResult uncompressed, compressed;
  double modeled_ratio = 0;
  for (int i = 0; i < kIterations; ++i) {
    RunResult u = RunArena(wc, partitioner, /*checksum=*/true);
    RunResult c = RunCompressed(wc, partitioner, &codec_pool);
    modeled_ratio =
        std::max(modeled_ratio, ModeledSeconds(u) / ModeledSeconds(c));
    if (i == 0 || u.seconds < uncompressed.seconds) {
      uncompressed = std::move(u);
    }
    if (i == 0 || c.seconds < compressed.seconds) compressed = std::move(c);
  }
  std::vector<std::string> parts = MakeParts(wc, partitioner);
  DfsLeg dfs_raw = RunDfsParts(parts, /*compress=*/false);
  DfsLeg dfs_comp = RunDfsParts(parts, /*compress=*/true);
  CrcThroughput crc = MeasureCrc32c();

  bool identical = legacy.digest == arena.digest &&
                   legacy.digest == arena_checksum.digest &&
                   uncompressed.digest == compressed.digest;
  double speedup = legacy.seconds / arena.seconds;

  std::printf("  %-22s %10s %14s %12s %14s\n", "engine", "seconds",
              "records/sec", "MB/sec", "allocations");
  auto row = [&](const char* name, const RunResult& r) {
    std::printf("  %-22s %10.3f %14.0f %12.1f %14lld\n", name, r.seconds,
                kNumRecords / r.seconds,
                static_cast<double>(w.payload_bytes) / (1 << 20) / r.seconds,
                static_cast<long long>(r.heap_allocations));
  };
  row("legacy string-copy", legacy);
  row("arena zero-copy", arena);
  row("arena + CRC32C", arena_checksum);
  std::printf("  speedup: %.2fx, allocation reduction: %.1fx\n", speedup,
              static_cast<double>(legacy.heap_allocations) /
                  static_cast<double>(arena.heap_allocations));
  std::printf("  checksum overhead: %.2f%% (spill CRC + fetch verify of "
              "%lld bytes)\n",
              overhead_pct,
              static_cast<long long>(arena_checksum.checksummed_bytes));
  std::printf("  crc32c: hardware %s, %.0f MB/s hw, %.0f MB/s portable\n",
              crc.hardware ? "yes" : "no", crc.hardware_mb_per_sec,
              crc.portable_mb_per_sec);

  // Compression section: raw vs on-disk bytes for both legs, and the
  // throughput comparison under the modeled spill disk. Genome-shaped
  // workload, so numbers differ from the sections above.
  std::printf("\n  compressed data path (genome workload, level %d):\n",
              kCompressLevel);
  std::printf("  %-22s %10s %14s %12s %14s\n", "engine", "seconds",
              "records/sec", "MB/sec", "allocations");
  auto wc_row = [&](const char* name, const RunResult& r) {
    std::printf("  %-22s %10.3f %14.0f %12.1f %14lld\n", name, r.seconds,
                kNumRecords / r.seconds,
                static_cast<double>(wc.payload_bytes) / (1 << 20) / r.seconds,
                static_cast<long long>(r.heap_allocations));
  };
  wc_row("arena + CRC32C", uncompressed);
  wc_row("arena + BGZF spills", compressed);
  const int64_t raw_total = uncompressed.disk_bytes + dfs_raw.bytes_stored;
  const int64_t disk_total = compressed.disk_bytes + dfs_comp.bytes_stored;
  const double combined_reduction =
      static_cast<double>(raw_total) / static_cast<double>(disk_total);
  std::printf("  %-22s %14s %14s %8s\n", "disk bytes", "raw", "on disk",
              "ratio");
  auto disk_row = [&](const char* name, int64_t raw_bytes, int64_t disk) {
    std::printf("  %-22s %14lld %14lld %7.2fx\n", name,
                static_cast<long long>(raw_bytes),
                static_cast<long long>(disk),
                static_cast<double>(raw_bytes) / static_cast<double>(disk));
  };
  disk_row("shuffle spills", uncompressed.disk_bytes, compressed.disk_bytes);
  disk_row("DFS round parts", dfs_raw.bytes_stored, dfs_comp.bytes_stored);
  disk_row("combined", raw_total, disk_total);
  std::printf("  codec cpu: %.2fs deflate, %.2fs inflate (shuffle + DFS)\n",
              static_cast<double>(compressed.compress_micros +
                                  dfs_comp.compress_micros) / 1e6,
              static_cast<double>(compressed.decompress_micros +
                                  dfs_comp.decompress_micros) / 1e6);
  std::printf("  with a %.0f MB/s spill disk: %.0f rec/s uncompressed, "
              "%.0f rec/s compressed (%.2fx)\n",
              kModeledDiskMBps, kNumRecords / ModeledSeconds(uncompressed),
              kNumRecords / ModeledSeconds(compressed), modeled_ratio);

  bool ok = true;
  ok &= bench::Check(identical,
                     "both engines produce identical groups (digest match)");
  ok &= bench::Check(legacy.spills == arena.spills &&
                         legacy.shuffle_bytes == arena.shuffle_bytes,
                     "identical spill counts and shuffle bytes");
  ok &= bench::Check(speedup >= 2.0,
                     "arena shuffle >= 2x record throughput");
  ok &= bench::Check(arena.heap_allocations * 10 < legacy.heap_allocations,
                     "arena path allocates >= 10x less");
  ok &= bench::Check(arena_checksum.verified &&
                         arena_checksum.checksummed_bytes > 0,
                     "every partition verifies against its run CRCs");
  ok &= bench::Check(overhead_pct <= 10.0,
                     "checksum overhead <= 10% on record throughput");
  ok &= bench::Check(compressed.verified && dfs_raw.roundtrip_ok &&
                         dfs_comp.roundtrip_ok,
                     "compressed spills verify and DFS parts round-trip "
                     "byte-identically");
  ok &= bench::Check(combined_reduction >= 2.5,
                     "combined shuffle+DFS on-disk bytes cut >= 2.5x");
  ok &= bench::Check(modeled_ratio >= 0.85,
                     "compressed records/sec within 15% of uncompressed "
                     "(modeled spill disk)");

  const char* out_path = argc > 1 ? argv[1] : "BENCH_shuffle.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    PrintJson(f, w, wc, legacy, arena, arena_checksum, uncompressed,
              compressed, dfs_raw, dfs_comp, crc, overhead_pct,
              modeled_ratio);
    std::fclose(f);
    bench::Note(std::string("wrote ") + out_path);
  } else {
    bench::Check(false, std::string("failed to open ") + out_path);
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gesall

int main(int argc, char** argv) { return gesall::Main(argc, argv); }
