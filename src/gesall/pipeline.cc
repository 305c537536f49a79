#include "gesall/pipeline.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>

#include "analysis/mark_duplicates.h"
#include "analysis/recalibration.h"
#include "analysis/steps.h"
#include "dfs/bam_split_reader.h"
#include "gesall/keys.h"
#include "gesall/linear_index.h"
#include "gesall/pipeline_node.h"
#include "gesall/round_dag.h"
#include "gesall/streaming.h"
#include "gesall/transform.h"
#include "util/bloom_filter.h"
#include "util/io.h"
#include "util/mem.h"
#include "util/stopwatch.h"

namespace gesall {

namespace {

// Stage directory under the pipeline's DFS namespace root. Historically
// these were process-wide constants ("/gesall/input/", ...); they are
// per-instance now so the service layer can run concurrent pipelines on
// one Dfs without their stages colliding.
std::string StageDir(const std::string& root, const char* stage) {
  return root + "/" + stage + "/";
}

std::string PartPath(const std::string& dir, int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "part-%05d", index);
  return dir + buf;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Partition data files only (index sidecars filtered out).
std::vector<std::string> ListBams(const Dfs& dfs, const std::string& dir) {
  std::vector<std::string> out;
  for (auto& path : dfs.List(dir)) {
    if (HasSuffix(path, ".bam")) out.push_back(std::move(path));
  }
  return out;
}

// ---------------------------------------------------------------------
// Round 1: map-only alignment (Bwa wrapper + SamToBam via "streaming").

// Surfaces the extension-kernel counters (which kernel ran, how much of
// the DP the band skipped) in the round's counter table.
void EmitKernelCounters(MapContext* ctx, const SwKernelStats& s) {
  ctx->IncrementCounter("align_kernel_calls", s.calls);
  ctx->IncrementCounter("align_kernel_simd_calls", s.simd_calls);
  ctx->IncrementCounter("align_kernel_scalar_calls", s.scalar_calls);
  ctx->IncrementCounter("align_kernel_overflow_reruns", s.overflow_reruns);
  ctx->IncrementCounter("align_band_cells_skipped", s.cells_skipped());
}

// Flushes a fused streamed round's telemetry into the task's counters:
// the kernel stats plus CleanSam tallies (matching the barriered
// rounds' names), and the per-edge queue depth/stall and per-node
// pump/park numbers the streaming bench plots. Depth/stall counters
// sum across map tasks, like every other job counter.
void EmitStreamCounters(MapContext* ctx, const AlignCleanStreamStats& s) {
  EmitKernelCounters(ctx, s.kernel);
  ctx->IncrementCounter("cleansam_clipped", s.clean_clipped);
  ctx->IncrementCounter("cleansam_dropped", s.clean_dropped);
  ctx->IncrementCounter("stream_batches", s.batches);
  ctx->IncrementCounter("stream_reads", s.reads);
  for (const auto& e : s.edges) {
    const std::string p = "stream_queue_" + e.name;
    ctx->IncrementCounter(p + "_max_depth", e.queue.max_depth);
    ctx->IncrementCounter(p + "_push_stalls", e.queue.push_stalls);
    ctx->IncrementCounter(p + "_pop_stalls", e.queue.pop_stalls);
    ctx->IncrementCounter(p + "_push_stall_micros", e.queue.push_stall_micros);
    ctx->IncrementCounter(p + "_pop_stall_micros", e.queue.pop_stall_micros);
  }
  for (const auto& n : s.nodes) {
    const std::string p = "stream_node_" + n.name;
    ctx->IncrementCounter(p + "_pumps", n.pumps);
    ctx->IncrementCounter(p + "_parks", n.parks);
  }
}

// Mapper factory placeholder for the fused streamed round: every split
// carries a stream fn, so the engine never instantiates a mapper.
// Reaching Map here means an engine regression, not bad data.
class StreamedRoundMapper : public Mapper {
 public:
  Status Map(const std::string&, MapContext*) override {
    return Status::Internal(
        "streamed round instantiated a mapper for a non-streamed split");
  }
};

class AlignmentMapper : public Mapper {
 public:
  AlignmentMapper(const GenomeIndex* index, const PairedAlignerOptions& opt,
                  bool use_streaming)
      : index_(index), options_(opt), use_streaming_(use_streaming) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    if (use_streaming_) return MapStreaming(input, ctx);
    return MapNative(input, ctx);
  }

 private:
  // Fig. 8 dataflow: FASTQ text lines -> pipe -> bwa mem -> pipe ->
  // SamToBam, with pipe statistics exposed as counters.
  Status MapStreaming(const std::string& input, MapContext* ctx) {
    BwaStreamProgram bwa(*index_, options_);
    StreamingStats stats;
    GESALL_ASSIGN_OR_RETURN(
        std::string sam_text, RunWrappedProgram(ctx, [&] {
          return RunStreamingChain(input, {&bwa}, &stats);
        }));
    ctx->IncrementCounter("streaming_pipe_flushes", stats.pipe_flushes);
    ctx->IncrementCounter("streaming_bytes_out", stats.output_bytes);
    EmitKernelCounters(ctx, bwa.kernel_stats());
    // Wrapped external program #2: SamToBam on the piped SAM text.
    GESALL_ASSIGN_OR_RETURN(std::string bam, RunWrappedProgram(ctx, [&] {
                              return SamTextToBam(sam_text);
                            }));
    ctx->Emit("", std::move(bam));
    return Status::OK();
  }

  Status MapNative(const std::string& input, MapContext* ctx) {
    // Transform: text FASTQ -> record structs (TextInputWriter analog).
    PairedEndAligner aligner(*index_, options_);
    std::vector<FastqRecord> reads;
    {
      CounterTimer timer(ctx, kTransformMicros);
      GESALL_ASSIGN_OR_RETURN(reads, ParseFastq(input));
    }
    // Wrapped external program #1: bwa mem.
    PairedAlignScratch scratch;
    std::vector<SamRecord> records = RunWrappedProgram(ctx, [&] {
      std::vector<SamRecord> recs;
      aligner.AlignPairs(reads, &scratch, &recs);
      return recs;
    });
    EmitKernelCounters(ctx, scratch.read.stats);
    // Wrapped external program #2: SamToBam.
    GESALL_ASSIGN_OR_RETURN(std::string bam, RunWrappedProgram(ctx, [&] {
                              return SamToBam(aligner.MakeHeader(), records);
                            }));
    ctx->Emit("", std::move(bam));
    return Status::OK();
  }

  const GenomeIndex* index_;
  PairedAlignerOptions options_;
  bool use_streaming_;
};

// ---------------------------------------------------------------------
// Round 2: AddReplaceReadGroups + CleanSam in the map, shuffle by read
// name, FixMateInformation in the reduce.

class CleaningMapper : public Mapper {
 public:
  CleaningMapper(const SamHeader* header, const ReadGroup& rg)
      : header_(header), read_group_(rg) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    // Input is the decompressed record byte stream of one BAM split.
    std::vector<SamRecord> records;
    {
      CounterTimer timer(ctx, kTransformMicros);
      BamRecordIterator it(input);
      while (!it.Done()) {
        GESALL_ASSIGN_OR_RETURN(SamRecord rec, it.Next());
        records.push_back(std::move(rec));
      }
    }
    SamHeader local = *header_;
    GESALL_RETURN_NOT_OK(RunWrappedProgram(ctx, [&] {
      return AddReplaceReadGroups(read_group_, &local, &records);
    }));
    auto clean_stats = RunWrappedProgram(
        ctx, [&] { return CleanSam(local, &records); });
    ctx->IncrementCounter("cleansam_clipped", clean_stats.clipped_overhangs);
    ctx->IncrementCounter("cleansam_dropped", clean_stats.dropped_invalid);
    {
      CounterTimer timer(ctx, kTransformMicros);
      for (const auto& r : records) {
        ctx->EmitView(r.qname, EncodeBamRecord(r));
      }
    }
    return Status::OK();
  }

 private:
  const SamHeader* header_;
  ReadGroup read_group_;
};

// Round-2 combiner: when both mates of a read-name group land in the
// same spill run, FixMateInformation is pre-applied map-side. Legal
// because FixMateInformation is idempotent (each mate's fields are set
// from the pair's own unmodified fields), so the reducer re-applying it
// to the combined pair produces identical bytes; groups that span spill
// runs or map tasks pass through untouched.
class FixMateCombiner : public Combiner {
 public:
  Status Combine(std::string_view key,
                 const std::vector<std::string_view>& values,
                 CombineEmitter* out) override {
    (void)key;
    if (values.size() != 2) {
      for (const auto& v : values) out->Emit(v);
      return Status::OK();
    }
    std::vector<SamRecord> records;
    records.reserve(2);
    for (const auto& v : values) {
      size_t offset = 0;
      GESALL_ASSIGN_OR_RETURN(SamRecord rec, DecodeBamRecord(v, &offset));
      records.push_back(std::move(rec));
    }
    GESALL_RETURN_NOT_OK(FixMateInformation(&records));
    for (const auto& r : records) out->Emit(EncodeBamRecord(r));
    return Status::OK();
  }
};

class FixMateReducer : public Reducer {
 public:
  Status Reduce(const std::string& key,
                const std::vector<std::string>& values,
                ReduceContext* ctx) override {
    return ReduceViews(key, {values.begin(), values.end()}, ctx);
  }

  Status ReduceViews(std::string_view key,
                     const std::vector<std::string_view>& values,
                     ReduceContext* ctx) override {
    (void)key;
    GESALL_ASSIGN_OR_RETURN(std::vector<SamRecord> records,
                            RecordsFromValues(values, ctx));
    if (records.size() == 2) {
      GESALL_RETURN_NOT_OK(RunWrappedProgram(
          ctx, [&] { return FixMateInformation(&records); }));
    } else {
      ctx->IncrementCounter("lone_mates", 1);
    }
    CounterTimer timer(ctx, kTransformMicros);
    for (const auto& r : records) ctx->Emit(EncodeBamRecord(r));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------
// Bloom pre-round for MarkDup_opt: record the 5' ends of partial pairs.

class BloomMapper : public Mapper {
 public:
  BloomMapper(size_t expected, double fpr) : expected_(expected), fpr_(fpr) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    BloomFilter filter(expected_, fpr_);
    auto& records = dataset.second;
    for (size_t i = 0; i + 1 < records.size(); i += 2) {
      const SamRecord& a = records[i];
      const SamRecord& b = records[i + 1];
      bool a_mapped = !a.IsUnmapped(), b_mapped = !b.IsUnmapped();
      if (a_mapped == b_mapped) continue;  // only partial pairs
      filter.Insert(KeyOf(a_mapped ? a : b).Fingerprint());
    }
    ctx->Emit("bloom", filter.Serialize());
    return Status::OK();
  }

 private:
  size_t expected_;
  double fpr_;
};

// ---------------------------------------------------------------------
// Round 3: compound-key extraction + duplicate marking.

class MarkDupMapper : public Mapper {
 public:
  explicit MarkDupMapper(const BloomFilter* bloom) : bloom_(bloom) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    auto& records = dataset.second;
    // Map-side filter: one representative per 5' end per mapper.
    std::set<ReadEndKey> emitted_ends;
    for (size_t i = 0; i < records.size();) {
      const SamRecord& a = records[i];
      if (i + 1 >= records.size() || records[i + 1].qname != a.qname) {
        // Lone mate (its pair was dropped upstream): route it like a
        // partial pair with no unmapped companion.
        ++i;
        if (a.IsUnmapped()) {
          ctx->Emit(EncodePassthroughKey(a.qname),
                    EncodeMarkDupValue(MarkDupRole::kPassthrough, a));
        } else {
          ctx->Emit(EncodeEndKey(KeyOf(a)),
                    EncodeMarkDupValue(MarkDupRole::kPartialPair, a));
        }
        continue;
      }
      const SamRecord& b = records[i + 1];
      i += 2;
      bool a_mapped = !a.IsUnmapped(), b_mapped = !b.IsUnmapped();
      if (a_mapped && b_mapped) {
        ReadEndKey k1 = KeyOf(a), k2 = KeyOf(b);
        if (k2 < k1) std::swap(k1, k2);
        ctx->Emit(EncodePairKey(k1, k2),
                  EncodeMarkDupValue(MarkDupRole::kCompletePair, a, &b));
        // Criterion 2 representatives, bloom-filtered in MarkDup_opt.
        for (const auto* rec : {&a, &b}) {
          ReadEndKey k = KeyOf(*rec);
          if (emitted_ends.count(k) > 0) continue;
          if (bloom_ != nullptr && !bloom_->MayContain(k.Fingerprint())) {
            ctx->IncrementCounter("bloom_suppressed_representatives", 1);
            continue;
          }
          emitted_ends.insert(k);
          ctx->Emit(EncodeEndKey(k),
                    EncodeMarkDupValue(MarkDupRole::kEndRepresentative,
                                       *rec));
        }
      } else if (a_mapped || b_mapped) {
        const SamRecord& mapped = a_mapped ? a : b;
        const SamRecord& unmapped = a_mapped ? b : a;
        ctx->Emit(EncodeEndKey(KeyOf(mapped)),
                  EncodeMarkDupValue(MarkDupRole::kPartialPair, mapped,
                                     &unmapped));
      } else {
        ctx->Emit(EncodePassthroughKey(a.qname),
                  EncodeMarkDupValue(MarkDupRole::kPassthrough, a, &b));
      }
    }
    return Status::OK();
  }

 private:
  const BloomFilter* bloom_;
};

// Round-3 combiner: defensive dedup of criterion-2 representatives. The
// 'E'-group reducer treats kEndRepresentative values purely as an
// existence flag (it never emits them), so dropping all but the first in
// a spill run cannot change the output. 'P' and 'U' groups pass through
// untouched: every one of their records survives to the round's output,
// so there is nothing to collapse map-side.
class MarkDupCombiner : public Combiner {
 public:
  Status Combine(std::string_view key,
                 const std::vector<std::string_view>& values,
                 CombineEmitter* out) override {
    if (key.empty()) return Status::Internal("empty markdup key");
    if (key[0] != 'E') {
      for (const auto& v : values) out->Emit(v);
      return Status::OK();
    }
    bool seen_representative = false;
    for (const auto& v : values) {
      if (v.empty()) return Status::Corruption("short markdup value");
      if (static_cast<MarkDupRole>(v[0]) ==
          MarkDupRole::kEndRepresentative) {
        if (seen_representative) continue;
        seen_representative = true;
      }
      out->Emit(v);
    }
    return Status::OK();
  }
};

class MarkDupReducer : public Reducer {
 public:
  Status Reduce(const std::string& key,
                const std::vector<std::string>& values,
                ReduceContext* ctx) override {
    return ReduceViews(key, {values.begin(), values.end()}, ctx);
  }

  Status ReduceViews(std::string_view key,
                     const std::vector<std::string_view>& values,
                     ReduceContext* ctx) override {
    std::vector<MarkDupValue> decoded;
    {
      CounterTimer timer(ctx, kTransformMicros);
      decoded.reserve(values.size());
      for (const auto& v : values) {
        GESALL_ASSIGN_OR_RETURN(MarkDupValue mv, DecodeMarkDupValue(v));
        decoded.push_back(std::move(mv));
      }
    }
    CounterTimer program_timer(ctx, kProgramMicros);
    auto emit_pair = [&](MarkDupValue& mv, bool duplicate) {
      mv.first.SetFlag(sam_flags::kDuplicate, duplicate);
      ctx->Emit(EncodeBamRecord(mv.first));
      if (mv.has_second) {
        mv.second.SetFlag(sam_flags::kDuplicate, duplicate);
        ctx->Emit(EncodeBamRecord(mv.second));
      }
      if (duplicate) ctx->IncrementCounter("duplicate_pairs_marked", 1);
    };

    if (key.empty()) return Status::Internal("empty markdup key");
    switch (key[0]) {
      case 'P': {
        // Criterion 1: complete pairs sharing both ends; best survives.
        int best = -1;
        int64_t best_quality = -1;
        for (size_t i = 0; i < decoded.size(); ++i) {
          int64_t q = decoded[i].first.BaseQualityScore() +
                      (decoded[i].has_second
                           ? decoded[i].second.BaseQualityScore()
                           : 0);
          if (q > best_quality ||
              (q == best_quality &&
               decoded[i].first.qname < decoded[best].first.qname)) {
            best = static_cast<int>(i);
            best_quality = q;
          }
        }
        for (size_t i = 0; i < decoded.size(); ++i) {
          emit_pair(decoded[i], static_cast<int>(i) != best);
        }
        break;
      }
      case 'E': {
        // Criterion 2: partials vs complete-pair representatives.
        bool has_representative = false;
        for (const auto& mv : decoded) {
          has_representative |= mv.role == MarkDupRole::kEndRepresentative;
        }
        int best = -1;
        int64_t best_quality = -1;
        if (!has_representative) {
          for (size_t i = 0; i < decoded.size(); ++i) {
            if (decoded[i].role != MarkDupRole::kPartialPair) continue;
            int64_t q = decoded[i].first.BaseQualityScore();
            if (q > best_quality ||
                (q == best_quality &&
                 decoded[i].first.qname < decoded[best].first.qname)) {
              best = static_cast<int>(i);
              best_quality = q;
            }
          }
        }
        for (size_t i = 0; i < decoded.size(); ++i) {
          if (decoded[i].role != MarkDupRole::kPartialPair) continue;
          bool dup = has_representative || static_cast<int>(i) != best;
          emit_pair(decoded[i], dup);
        }
        break;
      }
      case 'U':
        for (auto& mv : decoded) emit_pair(mv, false);
        break;
      default:
        return Status::Internal("unknown markdup key tag");
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------
// Optional recalibration rounds (Table 2 steps 11-12): build covariate
// tables per partition (merged by the driver), then rewrite qualities.

class RecalTableMapper : public Mapper {
 public:
  explicit RecalTableMapper(const ReferenceGenome* reference)
      : reference_(reference) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    RecalibrationTable table = RunWrappedProgram(ctx, [&] {
      return BaseRecalibrator(*reference_, dataset.second);
    });
    ctx->Emit("table", table.Serialize());
    return Status::OK();
  }

 private:
  const ReferenceGenome* reference_;
};

class RecalApplyMapper : public Mapper {
 public:
  explicit RecalApplyMapper(const RecalibrationTable* table)
      : table_(table) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    RunWrappedProgram(ctx, [&] {
      PrintReads(*table_, &dataset.second);
      return 0;
    });
    GESALL_ASSIGN_OR_RETURN(
        std::string bam,
        DatasetToBam(dataset.first, dataset.second, ctx));
    ctx->Emit("", std::move(bam));
    return Status::OK();
  }

 private:
  const RecalibrationTable* table_;
};

// ---------------------------------------------------------------------
// Round 4: coordinate sort via range partitioning.

class SortMapper : public Mapper {
 public:
  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    CounterTimer timer(ctx, kTransformMicros);
    for (const auto& r : dataset.second) {
      ctx->EmitView(EncodeCoordinateKey(r), EncodeBamRecord(r));
    }
    return Status::OK();
  }
};

class IdentityReducer : public Reducer {
 public:
  Status Reduce(const std::string& key,
                const std::vector<std::string>& values,
                ReduceContext* ctx) override {
    return ReduceViews(key, {values.begin(), values.end()}, ctx);
  }

  Status ReduceViews(std::string_view key,
                     const std::vector<std::string_view>& values,
                     ReduceContext* ctx) override {
    (void)key;
    // First copy of the round: arena views become owned output values.
    for (const auto& v : values) ctx->Emit(std::string(v));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------
// Round 5: Haplotype Caller over range partitions.
//
// Each split is an envelope: chrom id, processed region, emit range,
// followed by the partition's BAM bytes.

struct HcEnvelope {
  int32_t chrom = 0;
  int64_t start = 0, end = 0;
  int64_t emit_start = 0, emit_end = 0;
  std::string bam;
};

std::string EncodeHcEnvelope(int32_t chrom, int64_t start, int64_t end,
                             int64_t emit_start, int64_t emit_end,
                             std::string bam) {
  std::string out;
  BufferWriter w(&out);
  w.PutI32(chrom);
  w.PutI64(start);
  w.PutI64(end);
  w.PutI64(emit_start);
  w.PutI64(emit_end);
  out += bam;
  return out;
}

Result<HcEnvelope> DecodeHcEnvelope(const std::string& data) {
  HcEnvelope e;
  BufferReader r(data);
  GESALL_RETURN_NOT_OK(r.GetI32(&e.chrom));
  GESALL_RETURN_NOT_OK(r.GetI64(&e.start));
  GESALL_RETURN_NOT_OK(r.GetI64(&e.end));
  GESALL_RETURN_NOT_OK(r.GetI64(&e.emit_start));
  GESALL_RETURN_NOT_OK(r.GetI64(&e.emit_end));
  e.bam = data.substr(r.position());
  return e;
}

class UnifiedGenotyperMapper : public Mapper {
 public:
  UnifiedGenotyperMapper(const ReferenceGenome* reference,
                         const GenotyperOptions& options)
      : reference_(reference), options_(options) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(HcEnvelope env, DecodeHcEnvelope(input));
    if (env.bam.empty()) return Status::OK();
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(env.bam, ctx));
    UnifiedGenotyper caller(*reference_, options_);
    std::vector<VariantRecord> variants = RunWrappedProgram(ctx, [&] {
      auto all =
          caller.CallRegion(dataset.second, env.chrom, env.start, env.end);
      std::vector<VariantRecord> emitted;
      for (auto& v : all) {
        if (v.pos >= env.emit_start && v.pos < env.emit_end) {
          emitted.push_back(std::move(v));
        }
      }
      return emitted;
    });
    CounterTimer timer(ctx, kTransformMicros);
    for (const auto& v : variants) ctx->Emit("", EncodeVariantBinary(v));
    return Status::OK();
  }

 private:
  const ReferenceGenome* reference_;
  GenotyperOptions options_;
};

class HaplotypeCallerMapper : public Mapper {
 public:
  HaplotypeCallerMapper(const ReferenceGenome* reference,
                        const HaplotypeCallerOptions& options)
      : reference_(reference), options_(options) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(HcEnvelope env, DecodeHcEnvelope(input));
    if (env.bam.empty()) return Status::OK();
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(env.bam, ctx));
    HaplotypeCaller caller(*reference_, options_);
    std::vector<VariantRecord> variants = RunWrappedProgram(ctx, [&] {
      if (env.start == 0 &&
          env.end == static_cast<int64_t>(
                         reference_->chromosomes[env.chrom].sequence.size())
          && env.emit_start == env.start && env.emit_end == env.end) {
        return caller.CallChromosome(dataset.second, env.chrom);
      }
      return caller.CallRegion(dataset.second, env.chrom, env.start, env.end,
                               env.emit_start, env.emit_end);
    });
    CounterTimer timer(ctx, kTransformMicros);
    for (const auto& v : variants) ctx->Emit("", EncodeVariantBinary(v));
    return Status::OK();
  }

 private:
  const ReferenceGenome* reference_;
  HaplotypeCallerOptions options_;
};

Executor* ExecutorOf(const PipelineConfig& config) {
  return config.executor != nullptr ? config.executor : Executor::Shared();
}

// First failure among a run's partition-output callbacks. They run on
// executor workers and cannot return a status, so the first error parks
// here and the round checks it once its job has completed.
class ParkedError {
 public:
  void Record(const Status& s) {
    if (s.ok()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.ok()) first_ = s;
  }
  Status first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  Status first_;  // guarded by mu_
};

// The one partition-output path of every reduce round, barriered or
// pipelined, installed as JobConfig::on_partition_output. Partition r's
// reduce worker builds its BAM (blocks deflated in parallel on
// `executor`), writes it to `out_dir`, adds the linear index sidecar
// when `with_index` (round 4: "sorting and building the BAM file index
// in the reducer", §4.1), then fires `ready[r]` if given. It fires on
// failure too, so a gated downstream split is never stranded; the
// failure parks in `errors`.
std::function<void(int, const std::vector<std::string>&, const JobCounters&)>
PartitionOutput(Dfs* dfs, Executor* executor, SamHeader header,
                std::string out_dir, bool with_index,
                std::shared_ptr<ParkedError> errors,
                std::vector<std::shared_ptr<ReadySignal>> ready = {}) {
  return [=](int r, const std::vector<std::string>& values,
             const JobCounters&) {
    const std::string path = PartPath(out_dir, r);
    const Status s = [&]() -> Status {
      GESALL_ASSIGN_OR_RETURN(std::string bam,
                              BuildBamPartition(header, values, executor));
      LogicalPartitionPlacementPolicy policy;
      GESALL_RETURN_NOT_OK(dfs->Write(path + ".bam", bam, &policy));
      if (!with_index) return Status::OK();
      GESALL_ASSIGN_OR_RETURN(LinearBamIndex index,
                              LinearBamIndex::Build(bam));
      return dfs->Write(path + ".bai", index.Serialize(), &policy);
    }();
    errors->Record(s);
    if (!ready.empty()) ready[static_cast<size_t>(r)]->Notify();
  };
}

}  // namespace

// -----------------------------------------------------------------------

GesallPipeline::GesallPipeline(const ReferenceGenome& reference,
                               const GenomeIndex& index, Dfs* dfs,
                               PipelineConfig config)
    : reference_(&reference), index_(&index), dfs_(dfs), config_(config) {
  input_dir_ = StageDir(config_.dfs_root, "input");
  aligned_dir_ = StageDir(config_.dfs_root, "aligned");
  cleaned_dir_ = StageDir(config_.dfs_root, "cleaned");
  dedup_dir_ = StageDir(config_.dfs_root, "dedup");
  recal_dir_ = StageDir(config_.dfs_root, "recal");
  sorted_dir_ = StageDir(config_.dfs_root, "sorted");
  manifests_dir_ = StageDir(config_.dfs_root, "manifests");
  variants_dir_ = StageDir(config_.dfs_root, "variants");
  for (const auto& c : reference.chromosomes) {
    header_.refs.push_back({c.name, static_cast<int64_t>(c.sequence.size())});
  }
  header_.read_groups.push_back(config_.read_group);
  header_.programs.push_back("gesall");
  if (config_.fault_injector != nullptr && dfs_ != nullptr) {
    dfs_->set_fault_injector(config_.fault_injector);
  }
  if (dfs_ != nullptr) {
    dfs_->set_executor(ExecutorOf(config_));
  }
}

JobConfig GesallPipeline::MakeJobConfig(int reducers) const {
  JobConfig cfg;
  cfg.num_reducers = reducers;
  cfg.max_parallel_tasks = config_.max_parallel_tasks;
  cfg.sort_buffer_bytes = config_.sort_buffer_bytes;
  cfg.fault_injector = config_.fault_injector;
  cfg.max_task_attempts = config_.max_task_attempts;
  cfg.retry_base_ms = config_.retry_base_ms;
  cfg.speculative_execution = config_.speculative_execution;
  cfg.speculative_slow_task_ms = config_.speculative_slow_task_ms;
  cfg.skip_bad_records = config_.skip_bad_records;
  cfg.compress_shuffle = config_.compress_shuffle;
  cfg.shuffle_compress_level = config_.shuffle_compress_level;
  // Node model: MR tasks run on the same simulated cluster the DFS
  // replicates over, so "node.crash" kills both a node's replicas (on
  // the next heartbeat Tick) and its map outputs (at reduce fetch).
  cfg.num_nodes = dfs_ != nullptr ? dfs_->num_data_nodes() : 0;
  cfg.max_map_reexecutions = config_.max_map_reexecutions;
  cfg.executor = config_.executor;  // null selects Executor::Shared()
  cfg.cancel = config_.cancel;
  return cfg;
}

Status GesallPipeline::MaybeTick() {
  // The heartbeat clock historically advanced once per round here; with
  // auto_tick off an external HeartbeatDriver owns the clock so an idle
  // cluster still detects dead nodes (and a busy round doesn't
  // double-count intervals).
  if (!config_.auto_tick) return Status::OK();
  return dfs_->Tick();
}

void GesallPipeline::RemoveStageOutputs() {
  for (const std::string* dir :
       {&aligned_dir_, &cleaned_dir_, &dedup_dir_, &recal_dir_,
        &sorted_dir_, &manifests_dir_, &variants_dir_}) {
    for (const auto& path : dfs_->List(*dir)) {
      (void)dfs_->Delete(path);
    }
  }
}

const std::string& GesallPipeline::RoundOutputDir(int round_index) const {
  switch (round_index) {
    case kRoundAlignment: return aligned_dir_;
    case kRoundCleaning: return cleaned_dir_;
    case kRoundMarkDuplicates: return dedup_dir_;
    case kRoundRecalibration: return recal_dir_;
    case kRoundSort: return sorted_dir_;
    default: return variants_dir_;
  }
}

std::string GesallPipeline::ManifestPath(int round_index) const {
  return manifests_dir_ + "round-" + std::to_string(round_index);
}

bool GesallPipeline::RoundComplete(int round_index) const {
  Result<std::string> raw = dfs_->Read(ManifestPath(round_index));
  if (!raw.ok()) return false;
  BufferReader reader(raw.ValueOrDie());
  std::string name;
  uint32_t n = 0;
  if (!reader.GetString(&name).ok() || !reader.GetU32(&n).ok()) return false;
  for (uint32_t i = 0; i < n; ++i) {
    std::string path;
    int64_t size = 0;
    if (!reader.GetString(&path).ok() || !reader.GetI64(&size).ok()) {
      return false;
    }
    Result<int64_t> actual = dfs_->FileSize(path);
    if (!actual.ok() || actual.ValueOrDie() != size) return false;
  }
  return true;
}

Status GesallPipeline::SealRound(int round_index, const std::string& name) {
  if (config_.write_manifests) {
    // The round's outputs are already durable in the DFS; the manifest
    // write is the commit point that marks the round sealed. A crash
    // before it replays the round from scratch; after it, resume skips.
    std::vector<std::string> outputs = dfs_->List(RoundOutputDir(round_index));
    std::string manifest;
    BufferWriter writer(&manifest);
    writer.PutString(name);
    writer.PutU32(static_cast<uint32_t>(outputs.size()));
    for (const auto& path : outputs) {
      GESALL_ASSIGN_OR_RETURN(int64_t size, dfs_->FileSize(path));
      writer.PutString(path);
      writer.PutI64(size);
    }
    GESALL_RETURN_NOT_OK(dfs_->Write(ManifestPath(round_index), manifest));
  }
  if (config_.on_round_complete) config_.on_round_complete(round_index, name);
  return Status::OK();
}

bool GesallPipeline::SkipIfSealed(int round_index, const std::string& name) {
  if (!config_.resume || !RoundComplete(round_index)) return false;
  JobCounters counters;
  counters.Add("round_skipped_on_resume", 1);
  stats_.push_back({name, 0.0, std::move(counters), {}});
  if (config_.on_round_complete) config_.on_round_complete(round_index, name);
  return true;
}

FaultToleranceSummary GesallPipeline::SummarizeFaultTolerance() const {
  JobCounters merged;
  for (const auto& round : stats_) merged.Merge(round.counters);
  DfsStats dfs_stats = dfs_ != nullptr ? dfs_->stats() : DfsStats{};
  return gesall::SummarizeFaultTolerance(merged, &dfs_stats);
}

NodeFailureSummary GesallPipeline::SummarizeNodeFailures() const {
  JobCounters merged;
  for (const auto& round : stats_) merged.Merge(round.counters);
  DfsStats dfs_stats = dfs_ != nullptr ? dfs_->stats() : DfsStats{};
  return gesall::SummarizeNodeFailures(merged, &dfs_stats);
}

StorageSummary GesallPipeline::SummarizeStorage() const {
  JobCounters merged;
  for (const auto& round : stats_) merged.Merge(round.counters);
  DfsStats dfs_stats = dfs_ != nullptr ? dfs_->stats() : DfsStats{};
  return gesall::SummarizeStorage(merged, &dfs_stats);
}

Status GesallPipeline::LoadSample(const std::vector<FastqRecord>& mate1,
                                  const std::vector<FastqRecord>& mate2) {
  GESALL_ASSIGN_OR_RETURN(std::vector<FastqRecord> interleaved,
                          InterleavePairs(mate1, mate2));
  const int P = std::max(1, config_.alignment_partitions);
  const size_t n_pairs = interleaved.size() / 2;
  LogicalPartitionPlacementPolicy policy;
  for (int p = 0; p < P; ++p) {
    size_t begin = 2 * (n_pairs * p / P);
    size_t end = 2 * (n_pairs * (p + 1) / P);
    std::vector<FastqRecord> part(interleaved.begin() + begin,
                                  interleaved.begin() + end);
    GESALL_RETURN_NOT_OK(
        dfs_->Write(PartPath(input_dir_, p), WriteFastq(part), &policy));
  }
  return Status::OK();
}

Status GesallPipeline::RunRound1Alignment() {
  if (SkipIfSealed(kRoundAlignment, "round1_alignment")) return MaybeTick();
  Stopwatch clock;
  std::vector<std::string> inputs = dfs_->List(input_dir_);
  if (inputs.empty()) return Status::InvalidArgument("no input partitions");
  std::vector<InputSplit> splits;
  for (const auto& path : inputs) {
    InputSplit s;
    Dfs* dfs = dfs_;
    s.load = [dfs, path]() { return dfs->Read(path); };
    splits.push_back(std::move(s));
  }
  MapReduceJob job(MakeJobConfig(0));
  const GenomeIndex* index = index_;
  PairedAlignerOptions opt = config_.aligner;
  bool streaming = config_.use_streaming_alignment;
  GESALL_ASSIGN_OR_RETURN(
      JobResult result,
      job.RunMapOnly(splits, [index, opt, streaming] {
        return std::make_unique<AlignmentMapper>(index, opt, streaming);
      }));
  LogicalPartitionPlacementPolicy policy;
  for (size_t i = 0; i < result.reducer_outputs.size(); ++i) {
    if (result.reducer_outputs[i].empty()) continue;
    GESALL_RETURN_NOT_OK(
        dfs_->Write(PartPath(aligned_dir_, static_cast<int>(i)) + ".bam",
                    result.reducer_outputs[i][0], &policy));
  }
  stats_.push_back({"round1_alignment", clock.ElapsedSeconds(),
                    std::move(result.counters), std::move(result.tasks)});
  GESALL_RETURN_NOT_OK(SealRound(kRoundAlignment, "round1_alignment"));
  // One heartbeat interval per round: crashed nodes are declared dead
  // and their blocks re-replicated before the next round reads them.
  return MaybeTick();
}

Status GesallPipeline::RunRound2Cleaning() {
  if (SkipIfSealed(kRoundCleaning, "round2_cleaning")) return MaybeTick();
  Stopwatch clock;
  // Map input: DFS block splits of every aligned partition (the custom
  // RecordReader path of §3.1).
  std::vector<InputSplit> splits;
  for (const auto& path : ListBams(*dfs_, aligned_dir_)) {
    GESALL_ASSIGN_OR_RETURN(auto bam_splits, ComputeBamSplits(*dfs_, path));
    for (const auto& bs : bam_splits) {
      InputSplit s;
      Dfs* dfs = dfs_;
      s.load = [dfs, path, bs]() {
        return ReadBamSplitRecords(*dfs, path, bs);
      };
      s.preferred_node = bs.preferred_nodes.empty() ? -1
                                                    : bs.preferred_nodes[0];
      splits.push_back(std::move(s));
    }
  }
  JobConfig job_cfg = MakeJobConfig(config_.cleaning_reducers);
  if (config_.use_combiners) {
    job_cfg.combiner_factory = [] {
      return std::make_unique<FixMateCombiner>();
    };
  }
  auto errors = std::make_shared<ParkedError>();
  job_cfg.on_partition_output =
      PartitionOutput(dfs_, ExecutorOf(config_), header_, cleaned_dir_,
                      /*with_index=*/false, errors);
  MapReduceJob job(job_cfg);
  const SamHeader* header = &header_;
  ReadGroup rg = config_.read_group;
  GESALL_ASSIGN_OR_RETURN(
      JobResult result,
      job.Run(
          splits,
          [header, rg] { return std::make_unique<CleaningMapper>(header, rg); },
          [] { return std::make_unique<FixMateReducer>(); }));
  GESALL_RETURN_NOT_OK(errors->first());
  stats_.push_back({"round2_cleaning", clock.ElapsedSeconds(),
                    std::move(result.counters), std::move(result.tasks)});
  GESALL_RETURN_NOT_OK(SealRound(kRoundCleaning, "round2_cleaning"));
  return MaybeTick();
}

Result<std::string> GesallPipeline::BuildBloomFilter() {
  std::vector<InputSplit> splits;
  for (const auto& path : ListBams(*dfs_, cleaned_dir_)) {
    InputSplit s;
    Dfs* dfs = dfs_;
    s.load = [dfs, path]() { return dfs->Read(path); };
    splits.push_back(std::move(s));
  }
  MapReduceJob job(MakeJobConfig(0));
  size_t expected = config_.bloom_expected_items;
  double fpr = config_.bloom_fpr;
  GESALL_ASSIGN_OR_RETURN(
      JobResult result, job.RunMapOnly(splits, [expected, fpr] {
        return std::make_unique<BloomMapper>(expected, fpr);
      }));
  BloomFilter merged(expected, fpr);
  for (const auto& out : result.reducer_outputs) {
    for (const auto& v : out) {
      GESALL_ASSIGN_OR_RETURN(BloomFilter f, BloomFilter::Deserialize(v));
      GESALL_RETURN_NOT_OK(merged.Union(f));
    }
  }
  stats_.push_back({"round3_bloom_preround", 0.0,
                    std::move(result.counters), std::move(result.tasks)});
  return merged.Serialize();
}

Status GesallPipeline::RunRound3MarkDuplicates() {
  const std::string round3_name = config_.markdup_use_bloom
                                      ? "round3_markdup_opt"
                                      : "round3_markdup_reg";
  if (SkipIfSealed(kRoundMarkDuplicates, round3_name)) return MaybeTick();
  Stopwatch clock;
  std::unique_ptr<BloomFilter> bloom;
  if (config_.markdup_use_bloom) {
    GESALL_ASSIGN_OR_RETURN(std::string serialized, BuildBloomFilter());
    GESALL_ASSIGN_OR_RETURN(BloomFilter f,
                            BloomFilter::Deserialize(serialized));
    bloom = std::make_unique<BloomFilter>(std::move(f));
  }

  // Logical partition inputs: whole cleaned files (map benefits from the
  // read-name grouping of the previous round, Appendix A.2).
  std::vector<InputSplit> splits;
  for (const auto& path : ListBams(*dfs_, cleaned_dir_)) {
    InputSplit s;
    Dfs* dfs = dfs_;
    s.load = [dfs, path]() { return dfs->Read(path); };
    s.preferred_node =
        LogicalPartitionPlacementPolicy::PrimaryNodeFor(path,
                                                        dfs_->num_data_nodes());
    splits.push_back(std::move(s));
  }
  JobConfig job_cfg = MakeJobConfig(config_.markdup_reducers);
  if (config_.use_combiners) {
    job_cfg.combiner_factory = [] {
      return std::make_unique<MarkDupCombiner>();
    };
  }
  auto errors = std::make_shared<ParkedError>();
  job_cfg.on_partition_output =
      PartitionOutput(dfs_, ExecutorOf(config_), header_, dedup_dir_,
                      /*with_index=*/false, errors);
  MapReduceJob job(job_cfg);
  const BloomFilter* bloom_ptr = bloom.get();
  GESALL_ASSIGN_OR_RETURN(
      JobResult result,
      job.Run(
          splits,
          [bloom_ptr] { return std::make_unique<MarkDupMapper>(bloom_ptr); },
          [] { return std::make_unique<MarkDupReducer>(); }));
  GESALL_RETURN_NOT_OK(errors->first());
  stats_.push_back({round3_name, clock.ElapsedSeconds(),
                    std::move(result.counters), std::move(result.tasks)});
  GESALL_RETURN_NOT_OK(SealRound(kRoundMarkDuplicates, round3_name));
  return MaybeTick();
}

Status GesallPipeline::RunRecalibrationRounds() {
  if (SkipIfSealed(kRoundRecalibration, "round3.5_print_reads")) {
    return MaybeTick();
  }
  Stopwatch clock;
  auto make_splits = [this] {
    std::vector<InputSplit> splits;
    for (const auto& path : ListBams(*dfs_, dedup_dir_)) {
      InputSplit s;
      Dfs* dfs = dfs_;
      s.load = [dfs, path]() { return dfs->Read(path); };
      splits.push_back(std::move(s));
    }
    return splits;
  };

  // Round 3.5a: per-partition covariate tables, merged by the driver
  // (GDPT group partitioning by user-defined covariates, §3.2).
  MapReduceJob build_job(MakeJobConfig(0));
  const ReferenceGenome* reference = reference_;
  GESALL_ASSIGN_OR_RETURN(
      JobResult build_result,
      build_job.RunMapOnly(make_splits(), [reference] {
        return std::make_unique<RecalTableMapper>(reference);
      }));
  RecalibrationTable merged;
  for (const auto& out : build_result.reducer_outputs) {
    for (const auto& v : out) {
      GESALL_ASSIGN_OR_RETURN(RecalibrationTable t,
                              RecalibrationTable::Deserialize(v));
      merged.Merge(t);
    }
  }
  stats_.push_back({"round3.5_base_recalibrator", clock.ElapsedSeconds(),
                    std::move(build_result.counters),
                    std::move(build_result.tasks)});

  // Round 3.5b: PrintReads with the merged table.
  Stopwatch apply_clock;
  MapReduceJob apply_job(MakeJobConfig(0));
  const RecalibrationTable* table = &merged;
  GESALL_ASSIGN_OR_RETURN(
      JobResult apply_result,
      apply_job.RunMapOnly(make_splits(), [table] {
        return std::make_unique<RecalApplyMapper>(table);
      }));
  std::vector<std::string> outputs;
  for (auto& out : apply_result.reducer_outputs) {
    if (!out.empty()) outputs.push_back(std::move(out[0]));
  }
  GESALL_RETURN_NOT_OK(WritePartitions(recal_dir_, outputs));
  stats_.push_back({"round3.5_print_reads", apply_clock.ElapsedSeconds(),
                    std::move(apply_result.counters),
                    std::move(apply_result.tasks)});
  GESALL_RETURN_NOT_OK(
      SealRound(kRoundRecalibration, "round3.5_print_reads"));
  return MaybeTick();
}

Status GesallPipeline::RunRound4Sort() {
  if (SkipIfSealed(kRoundSort, "round4_sort")) return MaybeTick();
  Stopwatch clock;
  // Input: recalibrated partitions when the optional rounds ran.
  std::string input_dir =
      ListBams(*dfs_, recal_dir_).empty() ? dedup_dir_ : recal_dir_;
  std::vector<InputSplit> splits;
  for (const auto& path : ListBams(*dfs_, input_dir)) {
    InputSplit s;
    Dfs* dfs = dfs_;
    s.load = [dfs, path]() { return dfs->Read(path); };
    splits.push_back(std::move(s));
  }
  const int C = static_cast<int>(reference_->chromosomes.size());
  std::vector<std::string> boundaries;
  for (int c = 1; c < C; ++c) {
    boundaries.push_back(EncodeCoordinateBoundary(c, 0));
  }
  boundaries.push_back("\x7f");  // unmapped records partition
  RangePartitioner partitioner(boundaries);
  SamHeader sorted_header = header_;
  sorted_header.sort_order = "coordinate";
  JobConfig job_cfg = MakeJobConfig(C + 1);
  auto errors = std::make_shared<ParkedError>();
  // The index sidecar lets the overlapping-segment Round 5 read only the
  // chunk ranges its segment covers.
  job_cfg.on_partition_output =
      PartitionOutput(dfs_, ExecutorOf(config_), sorted_header, sorted_dir_,
                      /*with_index=*/true, errors);
  MapReduceJob job(job_cfg);
  GESALL_ASSIGN_OR_RETURN(
      JobResult result,
      job.Run(
          splits, [] { return std::make_unique<SortMapper>(); },
          [] { return std::make_unique<IdentityReducer>(); }, &partitioner));
  GESALL_RETURN_NOT_OK(errors->first());
  stats_.push_back({"round4_sort", clock.ElapsedSeconds(),
                    std::move(result.counters), std::move(result.tasks)});
  GESALL_RETURN_NOT_OK(SealRound(kRoundSort, "round4_sort"));
  return MaybeTick();
}

Result<std::vector<VariantRecord>> GesallPipeline::RunRound5VariantCalling() {
  const std::string round5_name =
      config_.variant_caller == PipelineConfig::VariantCaller::kUnifiedGenotyper
          ? "round5_unified_genotyper"
          : "round5_haplotype_caller";
  if (config_.resume && RoundComplete(kRoundVariants)) {
    // The sealed round persisted its calls under variants/: reload them
    // instead of re-running the callers.
    GESALL_ASSIGN_OR_RETURN(std::string raw,
                            dfs_->Read(variants_dir_ + "calls.bin"));
    std::vector<VariantRecord> variants;
    size_t offset = 0;
    while (offset < raw.size()) {
      GESALL_ASSIGN_OR_RETURN(VariantRecord rec,
                              DecodeVariantBinary(raw, &offset));
      variants.push_back(std::move(rec));
    }
    JobCounters counters;
    counters.Add("round_skipped_on_resume", 1);
    stats_.push_back({round5_name, 0.0, std::move(counters), {}});
    if (config_.on_round_complete) {
      config_.on_round_complete(kRoundVariants, round5_name);
    }
    GESALL_RETURN_NOT_OK(MaybeTick());
    return variants;
  }
  Stopwatch clock;
  const int C = static_cast<int>(reference_->chromosomes.size());
  std::vector<InputSplit> splits;
  for (int c = 0; c < C; ++c) {
    std::string path = PartPath(sorted_dir_, c) + ".bam";
    if (!dfs_->Exists(path)) continue;
    int64_t chrom_len =
        static_cast<int64_t>(reference_->chromosomes[c].sequence.size());
    Dfs* dfs = dfs_;
    if (config_.hc_partitioning == PipelineConfig::HcPartitioning::kChromosome) {
      InputSplit s;
      s.load = [dfs, path, c, chrom_len]() -> Result<std::string> {
        GESALL_ASSIGN_OR_RETURN(std::string bam, dfs->Read(path));
        return EncodeHcEnvelope(c, 0, chrom_len, 0, chrom_len,
                                std::move(bam));
      };
      splits.push_back(std::move(s));
    } else {
      const int S = std::max(1, config_.hc_segments_per_chromosome);
      const int64_t overlap =
          config_.hc.max_window + config_.hc.window_pad;
      for (int seg = 0; seg < S; ++seg) {
        int64_t emit_start = chrom_len * seg / S;
        int64_t emit_end = chrom_len * (seg + 1) / S;
        int64_t start = std::max<int64_t>(0, emit_start - overlap);
        int64_t end = std::min(chrom_len, emit_end + overlap);
        InputSplit s;
        std::string index_path = PartPath(sorted_dir_, c) + ".bai";
        SamHeader header = header_;
        s.load = [dfs, path, index_path, header, c, start, end, emit_start,
                  emit_end]() -> Result<std::string> {
          GESALL_ASSIGN_OR_RETURN(std::string bam, dfs->Read(path));
          if (dfs->Exists(index_path)) {
            // Use the Round-4 linear index to carry only the records
            // overlapping this segment.
            GESALL_ASSIGN_OR_RETURN(std::string raw, dfs->Read(index_path));
            GESALL_ASSIGN_OR_RETURN(LinearBamIndex index,
                                    LinearBamIndex::Deserialize(raw));
            GESALL_ASSIGN_OR_RETURN(
                std::vector<SamRecord> region,
                ReadBamRegion(bam, index, start, end));
            GESALL_ASSIGN_OR_RETURN(std::string subset,
                                    WriteBam(header, region));
            return EncodeHcEnvelope(c, start, end, emit_start, emit_end,
                                    std::move(subset));
          }
          return EncodeHcEnvelope(c, start, end, emit_start, emit_end,
                                  std::move(bam));
        };
        splits.push_back(std::move(s));
      }
    }
  }
  MapReduceJob job(MakeJobConfig(0));
  const ReferenceGenome* reference = reference_;
  MapperFactory factory;
  if (config_.variant_caller == PipelineConfig::VariantCaller::
                                    kUnifiedGenotyper) {
    GenotyperOptions ug = config_.ug;
    factory = [reference, ug] {
      return std::make_unique<UnifiedGenotyperMapper>(reference, ug);
    };
  } else {
    HaplotypeCallerOptions hc = config_.hc;
    factory = [reference, hc] {
      return std::make_unique<HaplotypeCallerMapper>(reference, hc);
    };
  }
  GESALL_ASSIGN_OR_RETURN(JobResult result,
                          job.RunMapOnly(splits, factory));
  std::vector<VariantRecord> variants;
  for (const auto& out : result.reducer_outputs) {
    for (const auto& v : out) {
      size_t offset = 0;
      GESALL_ASSIGN_OR_RETURN(VariantRecord rec,
                              DecodeVariantBinary(v, &offset));
      variants.push_back(std::move(rec));
    }
  }
  std::sort(variants.begin(), variants.end(), VariantLess);
  stats_.push_back({round5_name, clock.ElapsedSeconds(),
                    std::move(result.counters), std::move(result.tasks)});
  if (config_.write_manifests) {
    // Variants are otherwise in-memory only; persist them so a resumed
    // job whose final round already finished returns identical calls.
    std::string blob;
    for (const auto& v : variants) blob += EncodeVariantBinary(v);
    GESALL_RETURN_NOT_OK(dfs_->Write(variants_dir_ + "calls.bin", blob));
  }
  GESALL_RETURN_NOT_OK(SealRound(kRoundVariants, round5_name));
  GESALL_RETURN_NOT_OK(MaybeTick());
  return variants;
}

Result<std::vector<VariantRecord>> GesallPipeline::RunAll() {
  Executor* executor = ExecutorOf(config_);
  const ExecutorStats before = executor->stats();
  const size_t first_round = stats_.size();
  // Resume consults manifests at round barriers, so a resumed run always
  // executes barriered even when the config asks for overlap.
  const bool pipelined_run = config_.pipelined && !config_.resume;
  execution_ = ExecutionSummary{};
  execution_.pipelined = pipelined_run;
  execution_.streaming = pipelined_run && config_.streaming;
  Stopwatch wall;
  Result<std::vector<VariantRecord>> result =
      pipelined_run ? RunAllPipelined() : RunAllBarriered();
  execution_.wall_seconds = wall.ElapsedSeconds();
  if (!result.ok() && result.status().IsCancelled() &&
      !config_.preserve_outputs_on_cancel) {
    // Cancelled runs must leave no partial stage outputs visible: a
    // later Restart() (or a diagnosis pass) reading half-written stages
    // would silently truncate the sample. Inputs stay loaded so the job
    // can re-run from the top. Durable jobs opt out: their sealed-round
    // outputs are exactly what a post-crash resume picks up from.
    RemoveStageOutputs();
  }

  const ExecutorStats after = executor->stats();
  execution_.tasks_executed = after.tasks_executed - before.tasks_executed;
  execution_.steals = after.steals - before.steals;
  execution_.tasks_stolen = after.tasks_stolen - before.tasks_stolen;
  execution_.queue_wait_seconds =
      static_cast<double>(after.queue_wait_micros -
                          before.queue_wait_micros) /
      1e6;
  // High-water mark over the whole process (cumulative, so streaming
  // vs barriered comparisons need separate processes or the resettable
  // allocator hooks in util/mem.h).
  execution_.peak_rss_bytes = PeakRssBytes();

  // Barriered rounds execute back to back: derive their spans from the
  // recorded round walls. The pipelined path records real spans itself.
  if (!pipelined_run) {
    double at = 0;
    for (size_t i = first_round; i < stats_.size(); ++i) {
      execution_.rounds.push_back(
          {stats_[i].name, at, at + stats_[i].wall_seconds});
      at += stats_[i].wall_seconds;
    }
  }

  // What each round spent building and writing partitions after their
  // reduce tasks closed, from the round's own counters.
  for (auto& span : execution_.rounds) {
    for (size_t i = first_round; i < stats_.size(); ++i) {
      if (stats_[i].name != span.name) continue;
      span.partition_output_seconds =
          static_cast<double>(stats_[i].counters.Get(kPartitionOutputMicros)) /
          1e6;
    }
  }

  // Round-level DAG: each recorded round depends on the previous one
  // (the order rounds were awaited is the dependency spine), so the
  // critical path is the serialized bound overlap is measured against.
  RoundDag dag;
  int prev = -1;
  for (const auto& span : execution_.rounds) {
    int node = dag.AddTask(span.name);
    dag.RecordSpan(node, span.start_seconds, span.end_seconds);
    if (prev >= 0) dag.AddDep(prev, node);
    prev = node;
    execution_.serialized_round_seconds +=
        span.end_seconds - span.start_seconds;
  }
  execution_.critical_path = dag.CriticalPath();
  execution_.critical_path_seconds = dag.CriticalPathSeconds();
  execution_.overlap_seconds_saved = std::max(
      0.0, execution_.serialized_round_seconds - execution_.wall_seconds);
  return result;
}

Result<std::vector<VariantRecord>> GesallPipeline::RunAllBarriered() {
  GESALL_RETURN_NOT_OK(RunRound1Alignment());
  GESALL_RETURN_NOT_OK(RunRound2Cleaning());
  GESALL_RETURN_NOT_OK(RunRound3MarkDuplicates());
  if (config_.run_recalibration) {
    GESALL_RETURN_NOT_OK(RunRecalibrationRounds());
  }
  GESALL_RETURN_NOT_OK(RunRound4Sort());
  return RunRound5VariantCalling();
}

Result<std::vector<VariantRecord>> GesallPipeline::RunAllPipelined() {
  Executor* executor = ExecutorOf(config_);
  // One shared admission throttle: max_parallel_tasks is a global task
  // slot budget across the overlapped rounds, matching the barriered
  // engine where only one round holds slots at a time.
  auto throttle = std::make_shared<Throttle>(
      executor, std::max(1, config_.max_parallel_tasks));
  Stopwatch wall;

  // ---- Round 1. Streaming fuses it into the round-2 job below (the
  // aligned stage never exists on the DFS); otherwise it runs barriered
  // first, since round 2's split computation needs the aligned files.
  const bool streaming = config_.streaming;
  if (!streaming) {
    GESALL_RETURN_NOT_OK(RunRound1Alignment());
    execution_.rounds.push_back(
        {"round1_alignment", 0.0, wall.ElapsedSeconds()});
  }

  const int R2 = std::max(1, config_.cleaning_reducers);
  const int R3 = std::max(1, config_.markdup_reducers);
  const int C = static_cast<int>(reference_->chromosomes.size());
  Dfs* dfs = dfs_;

  // Per-partition readiness edges between rounds. A downstream gated
  // split is admitted the moment its upstream partition file is on DFS.
  std::vector<std::shared_ptr<ReadySignal>> ev_cleaned;
  std::vector<std::shared_ptr<ReadySignal>> ev_dedup;
  std::vector<std::shared_ptr<ReadySignal>> ev_sorted;
  for (int r = 0; r < R2; ++r) {
    ev_cleaned.push_back(std::make_shared<ReadySignal>());
  }
  for (int r = 0; r < R3; ++r) {
    ev_dedup.push_back(std::make_shared<ReadySignal>());
  }
  for (int c = 0; c < C + 1; ++c) {
    ev_sorted.push_back(std::make_shared<ReadySignal>());
  }

  // Partition-output failures of every round, checked after each job.
  auto errors = std::make_shared<ParkedError>();

  std::optional<MapReduceJob::Handle> h2, h3a, h3, h4, h5;
  // Error path: release every gate (so gated splits are admitted and
  // their jobs can finish failing) and drain every outstanding handle —
  // running tasks capture locals of this frame, so returning before
  // they complete would be a use-after-free.
  auto fail = [&](Status error) -> Status {
    for (auto& e : ev_cleaned) e->Notify();
    for (auto& e : ev_dedup) e->Notify();
    for (auto& e : ev_sorted) e->Notify();
    for (auto* h : {&h2, &h3a, &h3, &h4, &h5}) {
      if (h->has_value()) {
        (void)(*h)->Wait();
        h->reset();
      }
    }
    return error;
  };

  // ---- Round 2 cleaning: reduce partitions stream to DFS as they
  // finish, each releasing the bloom pre-round's matching map split.
  double t2_start = wall.ElapsedSeconds();
  std::vector<InputSplit> splits2;
  if (streaming) {
    // Fused rounds 1+2: each map task pumps its FASTQ partition through
    // the bounded-queue node graph (align + clean) and emits cleaned
    // records straight into the qname shuffle. Batch slicing matches
    // AlignPairs' own boundaries, so the shuffled records — and every
    // downstream stage — are byte-identical to the barriered path's.
    std::vector<std::string> inputs = dfs_->List(input_dir_);
    if (inputs.empty()) {
      return Status::InvalidArgument("no input partitions");
    }
    const GenomeIndex* index = index_;
    PairedAlignerOptions opt = config_.aligner;
    const SamHeader* hdr = &header_;
    ReadGroup stream_rg = config_.read_group;
    std::shared_ptr<CancelToken> cancel = config_.cancel;
    for (const auto& path : inputs) {
      InputSplit s;
      s.stream = [dfs, path, index, opt, hdr, stream_rg, cancel,
                  executor](MapContext* ctx) -> Status {
        GESALL_ASSIGN_OR_RETURN(std::string text, dfs->Read(path));
        ctx->IncrementCounter("map_input_bytes",
                              static_cast<int64_t>(text.size()));
        std::vector<FastqRecord> reads;
        {
          CounterTimer timer(ctx, kTransformMicros);
          GESALL_ASSIGN_OR_RETURN(reads, ParseFastq(text));
        }
        text.clear();
        text.shrink_to_fit();
        AlignCleanStreamOptions sopts;
        sopts.executor = executor;
        sopts.cancel = cancel;
        sopts.clean = true;
        sopts.header = hdr;
        sopts.read_group = stream_rg;
        AlignCleanStreamStats sstats;
        GESALL_RETURN_NOT_OK(RunAlignCleanStream(
            *index, opt, std::move(reads), sopts,
            [ctx](RecordBatch* batch) {
              CounterTimer timer(ctx, kTransformMicros);
              for (const auto& r : batch->records) {
                ctx->EmitView(r.qname, EncodeBamRecord(r));
              }
              return Status::OK();
            },
            &sstats));
        EmitStreamCounters(ctx, sstats);
        return Status::OK();
      };
      splits2.push_back(std::move(s));
    }
  } else {
    for (const auto& path : ListBams(*dfs_, aligned_dir_)) {
      GESALL_ASSIGN_OR_RETURN(auto bam_splits, ComputeBamSplits(*dfs_, path));
      for (const auto& bs : bam_splits) {
        InputSplit s;
        s.load = [dfs, path, bs]() {
          return ReadBamSplitRecords(*dfs, path, bs);
        };
        s.preferred_node = bs.preferred_nodes.empty()
                               ? -1
                               : bs.preferred_nodes[0];
        splits2.push_back(std::move(s));
      }
    }
  }
  JobConfig cfg2 = MakeJobConfig(R2);
  cfg2.executor = executor;
  cfg2.throttle = throttle;
  if (config_.use_combiners) {
    cfg2.combiner_factory = [] {
      return std::make_unique<FixMateCombiner>();
    };
  }
  cfg2.on_partition_output =
      PartitionOutput(dfs, executor, header_, cleaned_dir_,
                      /*with_index=*/false, errors, ev_cleaned);
  MapReduceJob job2(cfg2);
  const SamHeader* header = &header_;
  ReadGroup rg = config_.read_group;
  MapperFactory map2;
  if (streaming) {
    map2 = []() -> std::unique_ptr<Mapper> {
      return std::make_unique<StreamedRoundMapper>();
    };
  } else {
    map2 = [header, rg]() -> std::unique_ptr<Mapper> {
      return std::make_unique<CleaningMapper>(header, rg);
    };
  }
  h2 = job2.Start(splits2, map2,
                  [] { return std::make_unique<FixMateReducer>(); });

  // ---- Round 3 bloom pre-round, overlapped with round 2: each map
  // split is gated on its cleaned partition.
  double t3a_start = wall.ElapsedSeconds();
  JobConfig cfg3a = MakeJobConfig(0);
  cfg3a.executor = executor;
  cfg3a.throttle = throttle;
  MapReduceJob job3a(cfg3a);
  if (config_.markdup_use_bloom) {
    std::vector<InputSplit> splits3a;
    for (int r = 0; r < R2; ++r) {
      std::string path = PartPath(cleaned_dir_, r) + ".bam";
      InputSplit s;
      s.load = [dfs, path]() { return dfs->Read(path); };
      s.ready = ev_cleaned[static_cast<size_t>(r)];
      splits3a.push_back(std::move(s));
    }
    size_t expected = config_.bloom_expected_items;
    double fpr = config_.bloom_fpr;
    h3a = job3a.StartMapOnly(splits3a, [expected, fpr] {
      return std::make_unique<BloomMapper>(expected, fpr);
    });
  }

  // ---- Await round 2.
  {
    Result<JobResult> out = h2->Wait();
    h2.reset();
    if (!out.ok()) return fail(out.status());
    JobResult result = out.MoveValueUnsafe();
    const std::string round2_name =
        streaming ? "round1_2_streamed" : "round2_cleaning";
    stats_.push_back({round2_name, wall.ElapsedSeconds() - t2_start,
                      std::move(result.counters), std::move(result.tasks)});
    execution_.rounds.push_back(
        {round2_name, t2_start, wall.ElapsedSeconds()});
  }
  {
    Status s = errors->first();
    if (!s.ok()) return fail(s);
  }
  {
    Status s = MaybeTick();
    if (!s.ok()) return fail(s);
  }

  // ---- Await the bloom pre-round and merge the per-mapper filters.
  std::unique_ptr<BloomFilter> bloom;
  if (h3a.has_value()) {
    Result<JobResult> out = h3a->Wait();
    h3a.reset();
    if (!out.ok()) return fail(out.status());
    JobResult result = out.MoveValueUnsafe();
    BloomFilter merged(config_.bloom_expected_items, config_.bloom_fpr);
    for (const auto& part : result.reducer_outputs) {
      for (const auto& v : part) {
        Result<BloomFilter> f = BloomFilter::Deserialize(v);
        if (!f.ok()) return fail(f.status());
        Status s = merged.Union(f.ValueOrDie());
        if (!s.ok()) return fail(s);
      }
    }
    bloom = std::make_unique<BloomFilter>(std::move(merged));
    stats_.push_back({"round3_bloom_preround",
                      wall.ElapsedSeconds() - t3a_start,
                      std::move(result.counters), std::move(result.tasks)});
    execution_.rounds.push_back(
        {"round3_bloom_preround", t3a_start, wall.ElapsedSeconds()});
  }

  // ---- Round 3 MarkDuplicates: reduce partitions release round 4's
  // matching sort split as they land on DFS.
  double t3_start = wall.ElapsedSeconds();
  std::vector<InputSplit> splits3;
  for (const auto& path : ListBams(*dfs_, cleaned_dir_)) {
    InputSplit s;
    s.load = [dfs, path]() { return dfs->Read(path); };
    s.preferred_node = LogicalPartitionPlacementPolicy::PrimaryNodeFor(
        path, dfs_->num_data_nodes());
    splits3.push_back(std::move(s));
  }
  JobConfig cfg3 = MakeJobConfig(R3);
  cfg3.executor = executor;
  cfg3.throttle = throttle;
  if (config_.use_combiners) {
    cfg3.combiner_factory = [] {
      return std::make_unique<MarkDupCombiner>();
    };
  }
  cfg3.on_partition_output =
      PartitionOutput(dfs, executor, header_, dedup_dir_,
                      /*with_index=*/false, errors, ev_dedup);
  MapReduceJob job3(cfg3);
  const BloomFilter* bloom_ptr = bloom.get();
  h3 = job3.Start(
      splits3,
      [bloom_ptr] { return std::make_unique<MarkDupMapper>(bloom_ptr); },
      [] { return std::make_unique<MarkDupReducer>(); });

  // ---- Round 4 sort. Without recalibration it overlaps round 3: each
  // map split is gated on its dedup partition. The recalibration rounds
  // are driver-merged (the covariate table is global), so with them
  // enabled rounds 3.5 run barriered and round 4 starts ungated after.
  SamHeader sorted_header = header_;
  sorted_header.sort_order = "coordinate";
  std::vector<std::string> boundaries;
  for (int c = 1; c < C; ++c) {
    boundaries.push_back(EncodeCoordinateBoundary(c, 0));
  }
  boundaries.push_back("\x7f");  // unmapped records partition
  RangePartitioner partitioner(boundaries);
  JobConfig cfg4 = MakeJobConfig(C + 1);
  cfg4.executor = executor;
  cfg4.throttle = throttle;
  cfg4.on_partition_output =
      PartitionOutput(dfs, executor, sorted_header, sorted_dir_,
                      /*with_index=*/true, errors, ev_sorted);
  MapReduceJob job4(cfg4);
  double t4_start = 0;
  auto start_round4 = [&](const std::string& input_dir, bool gated) {
    t4_start = wall.ElapsedSeconds();
    std::vector<InputSplit> splits4;
    if (gated) {
      for (int r = 0; r < R3; ++r) {
        std::string path = PartPath(input_dir, r) + ".bam";
        InputSplit s;
        s.load = [dfs, path]() { return dfs->Read(path); };
        s.ready = ev_dedup[static_cast<size_t>(r)];
        splits4.push_back(std::move(s));
      }
    } else {
      for (const auto& path : ListBams(*dfs_, input_dir)) {
        InputSplit s;
        s.load = [dfs, path]() { return dfs->Read(path); };
        splits4.push_back(std::move(s));
      }
    }
    h4 = job4.Start(
        splits4, [] { return std::make_unique<SortMapper>(); },
        [] { return std::make_unique<IdentityReducer>(); }, &partitioner);
  };

  // ---- Round 5 variant calling, overlapped with round 4: the HC split
  // (or all segment splits) of chromosome c waits only for round 4 to
  // sort and index that chromosome's partition.
  double t5_start = 0;
  JobConfig cfg5 = MakeJobConfig(0);
  cfg5.executor = executor;
  cfg5.throttle = throttle;
  MapReduceJob job5(cfg5);
  auto start_round5 = [&] {
    t5_start = wall.ElapsedSeconds();
    std::vector<InputSplit> splits5;
    for (int c = 0; c < C; ++c) {
      std::string path = PartPath(sorted_dir_, c) + ".bam";
      int64_t chrom_len =
          static_cast<int64_t>(reference_->chromosomes[c].sequence.size());
      if (config_.hc_partitioning ==
          PipelineConfig::HcPartitioning::kChromosome) {
        InputSplit s;
        s.load = [dfs, path, c, chrom_len]() -> Result<std::string> {
          GESALL_ASSIGN_OR_RETURN(std::string bam, dfs->Read(path));
          return EncodeHcEnvelope(c, 0, chrom_len, 0, chrom_len,
                                  std::move(bam));
        };
        s.ready = ev_sorted[static_cast<size_t>(c)];
        splits5.push_back(std::move(s));
      } else {
        const int S = std::max(1, config_.hc_segments_per_chromosome);
        const int64_t overlap =
            config_.hc.max_window + config_.hc.window_pad;
        for (int seg = 0; seg < S; ++seg) {
          int64_t emit_start = chrom_len * seg / S;
          int64_t emit_end = chrom_len * (seg + 1) / S;
          int64_t start = std::max<int64_t>(0, emit_start - overlap);
          int64_t end = std::min(chrom_len, emit_end + overlap);
          InputSplit s;
          std::string index_path = PartPath(sorted_dir_, c) + ".bai";
          SamHeader split_header = header_;
          s.load = [dfs, path, index_path, split_header, c, start, end,
                    emit_start, emit_end]() -> Result<std::string> {
            GESALL_ASSIGN_OR_RETURN(std::string bam, dfs->Read(path));
            if (dfs->Exists(index_path)) {
              GESALL_ASSIGN_OR_RETURN(std::string raw,
                                      dfs->Read(index_path));
              GESALL_ASSIGN_OR_RETURN(LinearBamIndex index,
                                      LinearBamIndex::Deserialize(raw));
              GESALL_ASSIGN_OR_RETURN(
                  std::vector<SamRecord> region,
                  ReadBamRegion(bam, index, start, end));
              GESALL_ASSIGN_OR_RETURN(std::string subset,
                                      WriteBam(split_header, region));
              return EncodeHcEnvelope(c, start, end, emit_start, emit_end,
                                      std::move(subset));
            }
            return EncodeHcEnvelope(c, start, end, emit_start, emit_end,
                                    std::move(bam));
          };
          s.ready = ev_sorted[static_cast<size_t>(c)];
          splits5.push_back(std::move(s));
        }
      }
    }
    const ReferenceGenome* reference = reference_;
    MapperFactory factory;
    if (config_.variant_caller ==
        PipelineConfig::VariantCaller::kUnifiedGenotyper) {
      GenotyperOptions ug = config_.ug;
      factory = [reference, ug] {
        return std::make_unique<UnifiedGenotyperMapper>(reference, ug);
      };
    } else {
      HaplotypeCallerOptions hc = config_.hc;
      factory = [reference, hc] {
        return std::make_unique<HaplotypeCallerMapper>(reference, hc);
      };
    }
    h5 = job5.StartMapOnly(splits5, factory);
  };

  if (!config_.run_recalibration) {
    start_round4(dedup_dir_, /*gated=*/true);
    start_round5();
  }

  // ---- Await round 3.
  {
    Result<JobResult> out = h3->Wait();
    h3.reset();
    if (!out.ok()) return fail(out.status());
    JobResult result = out.MoveValueUnsafe();
    stats_.push_back({config_.markdup_use_bloom ? "round3_markdup_opt"
                                                : "round3_markdup_reg",
                      wall.ElapsedSeconds() - t3_start,
                      std::move(result.counters), std::move(result.tasks)});
    execution_.rounds.push_back({stats_.back().name, t3_start,
                                 wall.ElapsedSeconds()});
  }
  {
    Status s = errors->first();
    if (!s.ok()) return fail(s);
  }
  {
    Status s = MaybeTick();
    if (!s.ok()) return fail(s);
  }

  // ---- Optional recalibration (barriered: the merged covariate table
  // is a global barrier by construction), then the gated tail.
  if (config_.run_recalibration) {
    double recal_start = wall.ElapsedSeconds();
    size_t before_recal = stats_.size();
    Status s = RunRecalibrationRounds();
    if (!s.ok()) return fail(s);
    double at = recal_start;
    for (size_t i = before_recal; i < stats_.size(); ++i) {
      execution_.rounds.push_back(
          {stats_[i].name, at, at + stats_[i].wall_seconds});
      at += stats_[i].wall_seconds;
    }
    std::string input_dir =
        ListBams(*dfs_, recal_dir_).empty() ? dedup_dir_ : recal_dir_;
    start_round4(input_dir, /*gated=*/false);
    start_round5();
  }

  // ---- Await round 4.
  {
    Result<JobResult> out = h4->Wait();
    h4.reset();
    if (!out.ok()) return fail(out.status());
    JobResult result = out.MoveValueUnsafe();
    stats_.push_back({"round4_sort", wall.ElapsedSeconds() - t4_start,
                      std::move(result.counters), std::move(result.tasks)});
    execution_.rounds.push_back(
        {"round4_sort", t4_start, wall.ElapsedSeconds()});
  }
  {
    Status s = errors->first();
    if (!s.ok()) return fail(s);
  }
  {
    Status s = MaybeTick();
    if (!s.ok()) return fail(s);
  }

  // ---- Await round 5 and decode the calls.
  std::vector<VariantRecord> variants;
  {
    Result<JobResult> out = h5->Wait();
    h5.reset();
    if (!out.ok()) return fail(out.status());
    JobResult result = out.MoveValueUnsafe();
    for (const auto& part : result.reducer_outputs) {
      for (const auto& v : part) {
        size_t offset = 0;
        Result<VariantRecord> rec = DecodeVariantBinary(v, &offset);
        if (!rec.ok()) return fail(rec.status());
        variants.push_back(rec.MoveValueUnsafe());
      }
    }
    std::sort(variants.begin(), variants.end(), VariantLess);
    stats_.push_back(
        {config_.variant_caller ==
                 PipelineConfig::VariantCaller::kUnifiedGenotyper
             ? "round5_unified_genotyper"
             : "round5_haplotype_caller",
         wall.ElapsedSeconds() - t5_start, std::move(result.counters),
         std::move(result.tasks)});
    execution_.rounds.push_back({stats_.back().name, t5_start,
                                 wall.ElapsedSeconds()});
  }
  {
    Status s = errors->first();
    if (!s.ok()) return fail(s);
  }
  GESALL_RETURN_NOT_OK(MaybeTick());
  return variants;
}

Status GesallPipeline::WritePartitions(
    const std::string& stage, const std::vector<std::string>& bam_files) {
  LogicalPartitionPlacementPolicy policy;
  for (size_t i = 0; i < bam_files.size(); ++i) {
    GESALL_RETURN_NOT_OK(dfs_->Write(
        PartPath(stage, static_cast<int>(i)) + ".bam", bam_files[i],
        &policy));
  }
  return Status::OK();
}

Result<std::vector<SamRecord>> GesallPipeline::ReadStageRecords(
    const std::string& stage) const {
  std::string dir = StageDir(config_.dfs_root, stage.c_str());
  std::vector<std::string> paths = ListBams(*dfs_, dir);
  if (paths.empty()) return Status::NotFound("no partitions in " + dir);
  std::sort(paths.begin(), paths.end());
  std::vector<SamRecord> all;
  for (const auto& path : paths) {
    GESALL_ASSIGN_OR_RETURN(std::string bam, dfs_->Read(path));
    GESALL_ASSIGN_OR_RETURN(auto dataset, ReadBam(bam));
    all.insert(all.end(), dataset.second.begin(), dataset.second.end());
  }
  return all;
}

}  // namespace gesall
