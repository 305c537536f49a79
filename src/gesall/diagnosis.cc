#include "gesall/diagnosis.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "util/stats.h"

namespace gesall {

namespace {

// Mate-aware identity of a read within a sample.
std::string ReadKey(const SamRecord& rec) {
  return rec.qname + (rec.IsFirstOfPair() ? "/1" : "/2");
}

bool SameAlignment(const SamRecord& a, const SamRecord& b) {
  if (a.IsUnmapped() != b.IsUnmapped()) return false;
  if (a.IsUnmapped()) return true;
  return a.ref_id == b.ref_id && a.pos == b.pos &&
         a.IsReverse() == b.IsReverse();
}

int MapqBucket(int mapq) { return std::min(mapq, 60) / 10; }

}  // namespace

AlignmentDiscordance CompareAlignments(
    const ReferenceGenome& reference, const std::vector<SamRecord>& serial,
    const std::vector<SamRecord>& parallel) {
  AlignmentDiscordance out;
  LogisticWeight weight(30, 55);

  std::unordered_map<std::string, const SamRecord*> parallel_by_key;
  parallel_by_key.reserve(parallel.size());
  for (const auto& r : parallel) parallel_by_key[ReadKey(r)] = &r;

  std::set<std::string> discordant_pairs;  // for Fig 11(c)
  std::unordered_map<std::string, const SamRecord*> serial_by_qname;

  for (const auto& s : serial) {
    ++out.total_reads;
    auto it = parallel_by_key.find(ReadKey(s));
    if (it == parallel_by_key.end()) continue;  // lost read: skip
    const SamRecord& p = *it->second;
    if (SameAlignment(s, p)) continue;

    ++out.d_count;
    int mapq = std::max(s.mapq, p.mapq);
    out.weighted_d_count += weight(mapq);
    out.mapq_buckets[{MapqBucket(s.mapq), MapqBucket(p.mapq)}] += 1;
    discordant_pairs.insert(s.qname);

    // Region classification at the serial position (or parallel if the
    // serial read is unmapped).
    const SamRecord& located = s.IsUnmapped() ? p : s;
    bool sensitive_region = false;
    if (!located.IsUnmapped()) {
      int64_t len = CigarReferenceLength(located.cigar);
      if (reference.InCentromere(located.ref_id, located.pos, len)) {
        ++out.discordant_centromere;
        sensitive_region = true;
      } else if (reference.InBlacklist(located.ref_id, located.pos, len)) {
        ++out.discordant_blacklist;
        sensitive_region = true;
      } else {
        ++out.discordant_elsewhere;
      }
    } else {
      ++out.discordant_elsewhere;
    }
    if (!sensitive_region && mapq > 30) ++out.discordant_after_filters;
  }

  // Fig 11(c): insert-size distribution of disagreeing pairs, taken from
  // the serial records of those pairs (bucket width 10).
  for (const auto& s : serial) {
    if (discordant_pairs.count(s.qname) == 0) continue;
    if (!s.IsFirstOfPair() || s.tlen == 0) continue;
    int64_t insert = s.tlen > 0 ? s.tlen : -s.tlen;
    out.insert_size_buckets[insert / 10 * 10] += 1;
  }

  out.weighted_d_count_pct =
      out.total_reads > 0
          ? 100.0 * out.weighted_d_count / static_cast<double>(out.total_reads)
          : 0.0;
  return out;
}

DuplicateDiscordance CompareDuplicates(
    const std::vector<SamRecord>& serial,
    const std::vector<SamRecord>& parallel) {
  DuplicateDiscordance out;
  LogisticWeight weight(30, 55);
  std::unordered_map<std::string, const SamRecord*> parallel_by_key;
  parallel_by_key.reserve(parallel.size());
  for (const auto& r : parallel) {
    parallel_by_key[ReadKey(r)] = &r;
    out.duplicates_parallel += r.IsDuplicate();
  }
  for (const auto& s : serial) {
    out.duplicates_serial += s.IsDuplicate();
    auto it = parallel_by_key.find(ReadKey(s));
    if (it == parallel_by_key.end()) continue;
    if (s.IsDuplicate() != it->second->IsDuplicate()) {
      ++out.d_count;
      out.weighted_d_count += weight(std::max(s.mapq, it->second->mapq));
    }
  }
  return out;
}

VariantDiscordance CompareVariants(const std::vector<VariantRecord>& first,
                                   const std::vector<VariantRecord>& second) {
  VariantDiscordance out;
  LogisticWeight weight(30, 55);
  std::unordered_map<std::string, const VariantRecord*> second_by_key;
  second_by_key.reserve(second.size());
  for (const auto& v : second) second_by_key[v.Key()] = &v;

  std::set<std::string> matched;
  for (const auto& v : first) {
    auto it = second_by_key.find(v.Key());
    if (it != second_by_key.end()) {
      out.concordant.push_back(v);
      matched.insert(v.Key());
    } else {
      out.only_first.push_back(v);
      out.weighted_d_count += weight(std::min(v.qual, 60.0));
    }
  }
  for (const auto& v : second) {
    if (matched.count(v.Key()) == 0) {
      out.only_second.push_back(v);
      out.weighted_d_count += weight(std::min(v.qual, 60.0));
    }
  }
  int64_t total = static_cast<int64_t>(out.concordant.size()) + out.d_count();
  out.weighted_d_count_pct =
      total > 0 ? 100.0 * out.weighted_d_count / static_cast<double>(total)
                : 0.0;
  return out;
}

PrecisionSensitivity EvaluateAgainstTruth(
    const std::vector<VariantRecord>& calls,
    const std::vector<PlantedVariant>& truth) {
  PrecisionSensitivity out;
  std::set<std::string> truth_keys;
  for (const auto& t : truth) {
    VariantRecord v;
    v.chrom = t.chrom;
    v.pos = t.pos;
    v.ref = t.ref;
    v.alt = t.alt;
    truth_keys.insert(v.Key());
  }
  std::set<std::string> called;
  for (const auto& c : calls) {
    called.insert(c.Key());
    if (truth_keys.count(c.Key()) > 0) {
      ++out.true_positives;
    } else {
      ++out.false_positives;
    }
  }
  for (const auto& k : truth_keys) {
    if (called.count(k) == 0) ++out.false_negatives;
  }
  int64_t called_total = out.true_positives + out.false_positives;
  int64_t truth_total = out.true_positives + out.false_negatives;
  out.precision = called_total > 0
                      ? static_cast<double>(out.true_positives) / called_total
                      : 0.0;
  out.sensitivity =
      truth_total > 0 ? static_cast<double>(out.true_positives) / truth_total
                      : 0.0;
  return out;
}

FaultToleranceSummary SummarizeFaultTolerance(const JobCounters& counters,
                                              const DfsStats* dfs_stats) {
  FaultToleranceSummary out;
  out.map_task_retries = counters.Get("map_task_retries");
  out.reduce_task_retries = counters.Get("reduce_task_retries");
  if (dfs_stats != nullptr) {
    out.blocks_failed_over = dfs_stats->blocks_failed_over;
    out.replica_read_failures = dfs_stats->replica_read_failures;
    out.nodes_blacklisted = dfs_stats->nodes_blacklisted;
  }
  return out;
}

NodeFailureSummary SummarizeNodeFailures(const JobCounters& counters,
                                         const DfsStats* dfs_stats) {
  NodeFailureSummary out;
  out.map_tasks_reexecuted = counters.Get("map_tasks_reexecuted");
  out.map_outputs_lost_to_dead_nodes =
      counters.Get("map_outputs_lost_to_dead_nodes");
  out.shuffle_fetch_corruptions = counters.Get("shuffle_fetch_corruptions");
  out.shuffle_partitions_verified =
      counters.Get("shuffle_partitions_verified");
  out.shuffle_checksummed_bytes = counters.Get("shuffle_checksummed_bytes");
  if (dfs_stats != nullptr) {
    out.corruptions_detected = dfs_stats->corruptions_detected;
    out.replicas_quarantined = dfs_stats->replicas_quarantined;
    out.blocks_re_replicated = dfs_stats->blocks_re_replicated;
    out.bytes_re_replicated = dfs_stats->bytes_re_replicated;
    out.nodes_declared_dead = dfs_stats->nodes_declared_dead;
    out.node_restarts = dfs_stats->node_restarts;
  }
  return out;
}

StorageSummary SummarizeStorage(const JobCounters& counters,
                                const DfsStats* dfs_stats) {
  StorageSummary out;
  out.shuffle_bytes_raw = counters.Get("shuffle_spill_bytes_raw");
  out.shuffle_bytes_compressed =
      counters.Get("shuffle_spill_bytes_compressed");
  out.shuffle_compress_micros = counters.Get("shuffle_compress_micros");
  out.shuffle_decompress_micros = counters.Get("shuffle_decompress_micros");
  if (dfs_stats != nullptr) {
    out.dfs_bytes_raw = dfs_stats->bytes_written_raw;
    out.dfs_bytes_compressed = dfs_stats->bytes_written_stored;
    out.dfs_compress_micros = dfs_stats->compress_micros;
    out.dfs_decompress_micros = dfs_stats->decompress_micros;
  }
  return out;
}

}  // namespace gesall
