#include "gesall/pipeline.h"

#include <algorithm>
#include <deque>
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
// Round 1: map-only alignment (Bwa wrapper + SamToBam, both in-process).

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
// the kernel stats and CleanSam tallies under the barriered rounds'
// names, the batch and read counts, and the alignment and cleaning time
// as program_micros, as AlignmentMapper and CleaningMapper charge it.
void EmitStreamCounters(MapContext* ctx, const AlignCleanStreamStats& s) {
  EmitKernelCounters(ctx, s.kernel);
  ctx->IncrementCounter("cleansam_clipped", s.clean_clipped);
  ctx->IncrementCounter("cleansam_dropped", s.clean_dropped);
  ctx->IncrementCounter("stream_batches", s.batches);
  ctx->IncrementCounter("stream_reads", s.reads);
  ctx->IncrementCounter(kProgramMicros, s.program_micros);
}

class AlignmentMapper : public Mapper {
 public:
  AlignmentMapper(const GenomeIndex* index, const PairedAlignerOptions& opt)
      : index_(index), options_(opt) {}

  Status Map(const std::string& input, MapContext* ctx) override {
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

 private:
  const GenomeIndex* index_;
  PairedAlignerOptions options_;
};

// Fused rounds 1+2 (streaming): aligns and cleans one FASTQ partition a
// batch at a time (RunAlignCleanStream) and emits cleaned records
// straight into the qname shuffle, so the aligned stage never exists on
// the DFS. Batch slicing matches AlignPairs' own boundaries, so the
// shuffled records, and every downstream stage, are byte-identical.
class AlignCleanMapper : public Mapper {
 public:
  AlignCleanMapper(const GenomeIndex* index, const PairedAlignerOptions& opt,
                   const AlignCleanStreamOptions& stream)
      : index_(index), options_(opt), stream_(stream) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    std::vector<FastqRecord> reads;
    {
      CounterTimer timer(ctx, kTransformMicros);
      GESALL_ASSIGN_OR_RETURN(reads, ParseFastq(input));
    }
    AlignCleanStreamStats stats;
    GESALL_RETURN_NOT_OK(RunAlignCleanStream(
        *index_, options_, std::move(reads), stream_,
        [ctx](RecordBatch* batch) {
          CounterTimer timer(ctx, kTransformMicros);
          for (const auto& r : batch->records) {
            ctx->EmitView(r.qname, EncodeBamRecord(r));
          }
          return Status::OK();
        },
        &stats));
    EmitStreamCounters(ctx, stats);
    return Status::OK();
  }

 private:
  const GenomeIndex* index_;
  PairedAlignerOptions options_;
  AlignCleanStreamOptions stream_;
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

// Filter geometry, shared by every per-mapper filter so that they union.
constexpr size_t kBloomExpectedItems = 100'000;
constexpr double kBloomFpr = 0.01;

class BloomMapper : public Mapper {
 public:
  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    BloomFilter filter(kBloomExpectedItems, kBloomFpr);
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

// Per-partition readiness edges of one stage's reduce outputs.
using Signals = std::vector<std::shared_ptr<ReadySignal>>;

// First failure among a stage's partition-output callbacks. They run on
// executor workers and cannot return a status, so the first error parks
// here and RunRounds checks it once the stage's job has completed.
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

// The one partition-output path of every reduce stage, installed as
// JobConfig::on_partition_output. Partition r's reduce worker builds its
// BAM (blocks deflated in parallel on `executor`), writes it to
// `out_dir`, adds the linear index sidecar when `with_index` (round 4:
// "sorting and building the BAM file index in the reducer", §4.1), then
// fires `ready[r]`. It fires on failure too, so a gated downstream split
// is never stranded; the failure parks in `errors`.
std::function<void(int, const std::vector<std::string>&, const JobCounters&)>
PartitionOutput(Dfs* dfs, Executor* executor, SamHeader header,
                std::string out_dir, bool with_index,
                std::shared_ptr<ParkedError> errors, Signals ready) {
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
    ready[static_cast<size_t>(r)]->Notify();
  };
}

// One whole-file split per upstream partition under `dir`: the listed
// .bam files on a barrier edge (`gates` null), or part r gated on
// gates[r] on a signal edge. `locality` pins each split to the node its
// partition was placed on.
std::vector<InputSplit> FileSplits(Dfs* dfs, const std::string& dir,
                                   const Signals* gates, bool locality) {
  std::vector<std::string> paths;
  if (gates == nullptr) {
    paths = ListBams(*dfs, dir);
  } else {
    for (size_t r = 0; r < gates->size(); ++r) {
      paths.push_back(PartPath(dir, static_cast<int>(r)) + ".bam");
    }
  }
  std::vector<InputSplit> splits;
  for (size_t i = 0; i < paths.size(); ++i) {
    const std::string path = paths[i];
    InputSplit s;
    s.load = [dfs, path]() { return dfs->Read(path); };
    if (gates != nullptr) s.ready = (*gates)[i];
    if (locality) {
      s.preferred_node = LogicalPartitionPlacementPolicy::PrimaryNodeFor(
          path, dfs->num_data_nodes());
    }
    splits.push_back(std::move(s));
  }
  return splits;
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
  cfg.compress_shuffle = config_.compress_shuffle;
  cfg.shuffle_compress_level = config_.shuffle_compress_level;
  // Node model: MR tasks run on the same simulated cluster the DFS
  // replicates over, so "node.crash" kills both a node's replicas (on
  // the next heartbeat Tick) and its map outputs (at reduce fetch).
  cfg.num_nodes = dfs_ != nullptr ? dfs_->num_data_nodes() : 0;
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

// -----------------------------------------------------------------------
// The stage table: one entry per MapReduce job. Barriered, pipelined,
// streamed and resumed runs all schedule these same entries; they differ
// only in each stage's incoming edge (see RunRounds).

struct GesallPipeline::Stage {
  std::string name;  // its stats() entry
  // The round it belongs to; the round's last stage seals it.
  PipelineRound round = kRoundAlignment;
  // Round whose reduce partitions gate this stage split by split in an
  // overlapped run (a signal edge); 0 = always a barrier edge.
  int gate_round = 0;
  // Map splits. `gates` is null on a barrier edge, where the upstream
  // files are listed on the DFS; on a signal edge split r reads upstream
  // partition r once (*gates)[r] fires.
  std::function<Result<std::vector<InputSplit>>(const Signals* gates)> splits;
  MapperFactory mapper;
  ReducerFactory reducer;  // null: map-only
  int reducers = 0;
  CombinerFactory combiner;
  std::shared_ptr<const Partitioner> partitioner;
  // Partition i lands as <output_dir>part-<i>.bam (+ .bai with_index):
  // built and written on its reduce worker, or, map-only, map task i's
  // one value written by RunRounds. Empty: the stage writes no parts.
  std::string output_dir;
  SamHeader output_header;
  bool with_index = false;
  // Finish on the calling thread over the completed job; a null result
  // means the stage was pre-completed by a resume.
  std::function<Status(JobResult* result)> finish;
};

// What stages hand to later stages and to the caller.
struct GesallPipeline::StageProducts {
  std::optional<BloomFilter> bloom;     // read by round 3's mappers
  RecalibrationTable recal;             // read by PrintReads' mappers
  std::vector<VariantRecord> variants;  // round 5's sorted calls
};

std::vector<GesallPipeline::Stage> GesallPipeline::BuildStages(
    StageProducts* products) const {
  std::vector<Stage> stages;
  // One whole-file split per FASTQ input partition, read by round 1 or
  // by the fused rounds 1+2.
  auto fastq_splits = [this](const Signals*)
      -> Result<std::vector<InputSplit>> {
    std::vector<std::string> inputs = dfs_->List(input_dir_);
    if (inputs.empty()) return Status::InvalidArgument("no input partitions");
    std::vector<InputSplit> splits;
    Dfs* dfs = dfs_;
    for (const auto& path : inputs) {
      InputSplit s;
      s.load = [dfs, path]() { return dfs->Read(path); };
      splits.push_back(std::move(s));
    }
    return splits;
  };
  const GenomeIndex* index = index_;
  const PairedAlignerOptions opt = config_.aligner;

  // Round 2: AddReplaceReadGroups + CleanSam in the map, shuffle by read
  // name, FixMateInformation in the reduce. Streaming fuses round 1 into
  // its map tasks; otherwise round 1 runs as its own map-only stage.
  Stage clean;
  clean.round = kRoundCleaning;
  clean.reducer = [] { return std::make_unique<FixMateReducer>(); };
  clean.reducers = config_.cleaning_reducers;
  if (config_.use_combiners) {
    clean.combiner = [] { return std::make_unique<FixMateCombiner>(); };
  }
  clean.output_dir = cleaned_dir_;
  clean.output_header = header_;
  if (config_.streaming) {
    // Each map task aligns and cleans its FASTQ partition in one pass
    // (AlignCleanMapper), sealed as round 2.
    clean.name = "round1_2_streamed";
    clean.splits = fastq_splits;
    AlignCleanStreamOptions stream;
    stream.cancel = config_.cancel;
    stream.clean = true;
    stream.header = &header_;
    stream.read_group = config_.read_group;
    clean.mapper = [index, opt, stream] {
      return std::make_unique<AlignCleanMapper>(index, opt, stream);
    };
  } else {
    // Round 1: map-only alignment, one task per FASTQ partition.
    Stage align;
    align.name = "round1_alignment";
    align.round = kRoundAlignment;
    align.splits = fastq_splits;
    align.mapper = [index, opt] {
      return std::make_unique<AlignmentMapper>(index, opt);
    };
    align.output_dir = aligned_dir_;
    stages.push_back(std::move(align));

    // Map input: DFS block splits of every aligned partition (the custom
    // RecordReader path of §3.1).
    clean.name = "round2_cleaning";
    clean.splits = [this](const Signals*) -> Result<std::vector<InputSplit>> {
      std::vector<InputSplit> splits;
      Dfs* dfs = dfs_;
      for (const auto& path : ListBams(*dfs, aligned_dir_)) {
        GESALL_ASSIGN_OR_RETURN(auto bam_splits, ComputeBamSplits(*dfs, path));
        for (const auto& bs : bam_splits) {
          InputSplit s;
          s.load = [dfs, path, bs]() {
            return ReadBamSplitRecords(*dfs, path, bs);
          };
          s.preferred_node =
              bs.preferred_nodes.empty() ? -1 : bs.preferred_nodes[0];
          splits.push_back(std::move(s));
        }
      }
      return splits;
    };
    const SamHeader* header = &header_;
    const ReadGroup rg = config_.read_group;
    clean.mapper = [header, rg] {
      return std::make_unique<CleaningMapper>(header, rg);
    };
  }
  stages.push_back(std::move(clean));

  // Round 3 bloom pre-round (MarkDup_opt): one filter per cleaned
  // partition, unioned before round 3 starts.
  if (config_.markdup_use_bloom) {
    Stage bloom;
    bloom.name = "round3_bloom_preround";
    bloom.round = kRoundMarkDuplicates;
    bloom.gate_round = kRoundCleaning;
    bloom.splits = [this](const Signals* gates)
        -> Result<std::vector<InputSplit>> {
      return FileSplits(dfs_, cleaned_dir_, gates, /*locality=*/false);
    };
    bloom.mapper = [] { return std::make_unique<BloomMapper>(); };
    bloom.finish = [products](JobResult* result) -> Status {
      if (result == nullptr) return Status::OK();
      BloomFilter merged(kBloomExpectedItems, kBloomFpr);
      for (const auto& part : result->reducer_outputs) {
        for (const auto& v : part) {
          GESALL_ASSIGN_OR_RETURN(BloomFilter f, BloomFilter::Deserialize(v));
          GESALL_RETURN_NOT_OK(merged.Union(f));
        }
      }
      products->bloom.emplace(std::move(merged));
      return Status::OK();
    };
    stages.push_back(std::move(bloom));
  }

  // Round 3: compound-key extraction | shuffle | duplicate marking, over
  // whole cleaned files (the map benefits from the read-name grouping of
  // the previous round, Appendix A.2).
  Stage markdup;
  markdup.name = config_.markdup_use_bloom ? "round3_markdup_opt"
                                           : "round3_markdup_reg";
  markdup.round = kRoundMarkDuplicates;
  markdup.splits = [this](const Signals* gates)
      -> Result<std::vector<InputSplit>> {
    return FileSplits(dfs_, cleaned_dir_, gates, /*locality=*/true);
  };
  markdup.mapper = [products] {
    return std::make_unique<MarkDupMapper>(
        products->bloom.has_value() ? &*products->bloom : nullptr);
  };
  markdup.reducer = [] { return std::make_unique<MarkDupReducer>(); };
  markdup.reducers = config_.markdup_reducers;
  if (config_.use_combiners) {
    markdup.combiner = [] { return std::make_unique<MarkDupCombiner>(); };
  }
  markdup.output_dir = dedup_dir_;
  markdup.output_header = header_;
  stages.push_back(std::move(markdup));

  // Optional recalibration rounds (Table 2 steps 11-12): per-partition
  // covariate tables merged on the calling thread (GDPT group
  // partitioning by covariates, §3.2), then PrintReads with the merged
  // table. The merged table is global, so both edges are barriers.
  Stage recal_table;
  recal_table.name = "round3.5_base_recalibrator";
  recal_table.round = kRoundRecalibration;
  recal_table.splits = [this](const Signals* gates)
      -> Result<std::vector<InputSplit>> {
    return FileSplits(dfs_, dedup_dir_, gates, /*locality=*/false);
  };
  const ReferenceGenome* reference = reference_;
  recal_table.mapper = [reference] {
    return std::make_unique<RecalTableMapper>(reference);
  };
  recal_table.finish = [products](JobResult* result) -> Status {
    if (result == nullptr) return Status::OK();
    for (const auto& part : result->reducer_outputs) {
      for (const auto& v : part) {
        GESALL_ASSIGN_OR_RETURN(RecalibrationTable t,
                                RecalibrationTable::Deserialize(v));
        products->recal.Merge(t);
      }
    }
    return Status::OK();
  };
  Stage print_reads;
  print_reads.name = "round3.5_print_reads";
  print_reads.round = kRoundRecalibration;
  print_reads.splits = recal_table.splits;
  print_reads.mapper = [products] {
    return std::make_unique<RecalApplyMapper>(&products->recal);
  };
  print_reads.output_dir = recal_dir_;
  stages.push_back(std::move(recal_table));
  stages.push_back(std::move(print_reads));

  // Round 4: coordinate sort via range partitioning by chromosome, with
  // the index sidecar that lets the overlapping-segment round 5 read
  // only the chunk ranges its segment covers. Without recalibration it
  // can start per dedup partition.
  const int C = static_cast<int>(reference_->chromosomes.size());
  Stage sort;
  sort.name = "round4_sort";
  sort.round = kRoundSort;
  sort.gate_round = config_.run_recalibration ? 0 : kRoundMarkDuplicates;
  sort.splits = [this](const Signals* gates)
      -> Result<std::vector<InputSplit>> {
    // Input: recalibrated partitions when the optional rounds ran.
    const bool recal = gates == nullptr && !ListBams(*dfs_, recal_dir_).empty();
    return FileSplits(dfs_, recal ? recal_dir_ : dedup_dir_, gates,
                      /*locality=*/false);
  };
  sort.mapper = [] { return std::make_unique<SortMapper>(); };
  sort.reducer = [] { return std::make_unique<IdentityReducer>(); };
  sort.reducers = C + 1;
  std::vector<std::string> boundaries;
  for (int c = 1; c < C; ++c) {
    boundaries.push_back(EncodeCoordinateBoundary(c, 0));
  }
  boundaries.push_back("\x7f");  // unmapped records partition
  sort.partitioner = std::make_shared<RangePartitioner>(boundaries);
  sort.output_dir = sorted_dir_;
  sort.output_header = header_;
  sort.output_header.sort_order = "coordinate";
  sort.with_index = true;
  stages.push_back(std::move(sort));

  // Round 5: variant calling per chromosome (or per overlapping segment);
  // chromosome c's splits can start once round 4 sorted and indexed it.
  Stage call;
  call.name =
      config_.variant_caller == PipelineConfig::VariantCaller::kUnifiedGenotyper
          ? "round5_unified_genotyper"
          : "round5_haplotype_caller";
  call.round = kRoundVariants;
  call.gate_round = kRoundSort;
  call.splits = [this, C](const Signals* gates)
      -> Result<std::vector<InputSplit>> {
    Dfs* dfs = dfs_;
    std::vector<InputSplit> splits;
    for (int c = 0; c < C; ++c) {
      std::string path = PartPath(sorted_dir_, c) + ".bam";
      if (gates == nullptr && !dfs->Exists(path)) continue;
      const std::shared_ptr<ReadySignal> ready =
          gates != nullptr ? (*gates)[static_cast<size_t>(c)] : nullptr;
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
        s.ready = ready;
        splits.push_back(std::move(s));
        continue;
      }
      const int S = std::max(1, config_.hc_segments_per_chromosome);
      const int64_t overlap = config_.hc.max_window + config_.hc.window_pad;
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
        s.ready = ready;
        splits.push_back(std::move(s));
      }
    }
    return splits;
  };
  if (config_.variant_caller ==
      PipelineConfig::VariantCaller::kUnifiedGenotyper) {
    GenotyperOptions ug = config_.ug;
    call.mapper = [reference, ug] {
      return std::make_unique<UnifiedGenotyperMapper>(reference, ug);
    };
  } else {
    HaplotypeCallerOptions hc = config_.hc;
    call.mapper = [reference, hc] {
      return std::make_unique<HaplotypeCallerMapper>(reference, hc);
    };
  }
  call.finish = [this, products](JobResult* result) -> Status {
    std::vector<VariantRecord>& variants = products->variants;
    if (result == nullptr) {
      // The sealed round persisted its calls under variants/: reload
      // them instead of re-running the callers.
      GESALL_ASSIGN_OR_RETURN(std::string raw,
                              dfs_->Read(variants_dir_ + "calls.bin"));
      size_t offset = 0;
      while (offset < raw.size()) {
        GESALL_ASSIGN_OR_RETURN(VariantRecord rec,
                                DecodeVariantBinary(raw, &offset));
        variants.push_back(std::move(rec));
      }
      return Status::OK();
    }
    for (const auto& part : result->reducer_outputs) {
      for (const auto& v : part) {
        size_t offset = 0;
        GESALL_ASSIGN_OR_RETURN(VariantRecord rec,
                                DecodeVariantBinary(v, &offset));
        variants.push_back(std::move(rec));
      }
    }
    std::sort(variants.begin(), variants.end(), VariantLess);
    if (!config_.write_manifests) return Status::OK();
    // Variants are otherwise in-memory only; persist them so a resumed
    // job whose final round already finished returns identical calls.
    std::string blob;
    for (const auto& v : variants) blob += EncodeVariantBinary(v);
    return dfs_->Write(variants_dir_ + "calls.bin", blob);
  };
  stages.push_back(std::move(call));
  return stages;
}

// The scheduling loop. Each stage's incoming edge is one of two kinds:
//   barrier: every launched stage lands first, then the stage lists its
//            upstream files on the DFS;
//   signal:  the stage starts at once, split r gated on the upstream
//            round's ReadySignal r (overlapped runs, where the stage
//            names a gate_round that this walk launched).
// Stages land in table order: await the job, write map-only parts, run
// the finish, record stats, and after a round's last stage seal the
// round and tick the heartbeat. On resume a sealed round's stages are
// pre-completed instead of started: their signals fire at once and they
// land as skipped.
Result<std::vector<VariantRecord>> GesallPipeline::RunRounds(
    const std::vector<int>& rounds, bool overlap,
    std::vector<RoundSpan>* spans) {
  StageProducts products;
  const std::vector<Stage> stages = BuildStages(&products);
  Executor* executor = ExecutorOf(config_);
  // Overlapped stages share one admission throttle: max_parallel_tasks
  // is a global slot budget, as it is when one barriered job holds the
  // slots at a time.
  std::shared_ptr<Throttle> throttle;
  if (overlap) {
    throttle = std::make_shared<Throttle>(
        executor, std::max(1, config_.max_parallel_tasks));
  }
  Stopwatch wall;

  struct Launched {
    const Stage* stage = nullptr;
    bool seals = false;
    std::optional<MapReduceJob::Handle> job;  // empty: pre-completed
    std::shared_ptr<ParkedError> errors;
    double start = 0;
  };
  std::deque<Launched> launched;
  std::map<int, Signals> ready;  // round -> its reduce stage's partitions

  auto land_front = [&]() -> Status {
    Launched l = std::move(launched.front());
    launched.pop_front();
    const Stage& stage = *l.stage;
    const bool ran = l.job.has_value();
    JobResult result;
    if (ran) {
      GESALL_ASSIGN_OR_RETURN(result, l.job->Wait());
      GESALL_RETURN_NOT_OK(l.errors->first());
      if (stage.reducer == nullptr && !stage.output_dir.empty()) {
        LogicalPartitionPlacementPolicy policy;
        for (size_t i = 0; i < result.reducer_outputs.size(); ++i) {
          if (result.reducer_outputs[i].empty()) continue;
          GESALL_RETURN_NOT_OK(dfs_->Write(
              PartPath(stage.output_dir, static_cast<int>(i)) + ".bam",
              result.reducer_outputs[i][0], &policy));
        }
      }
    } else {
      result.counters.Add("round_skipped_on_resume", 1);
    }
    if (stage.finish) {
      GESALL_RETURN_NOT_OK(stage.finish(ran ? &result : nullptr));
    }
    if (!ran && !l.seals) return Status::OK();
    const double end = wall.ElapsedSeconds();
    const double start = ran ? l.start : end;
    stats_.push_back({stage.name, end - start, std::move(result.counters),
                      std::move(result.tasks)});
    if (spans != nullptr) spans->push_back({stage.name, start, end});
    if (!l.seals) return Status::OK();
    if (ran) {
      GESALL_RETURN_NOT_OK(SealRound(stage.round, stage.name));
    } else if (config_.on_round_complete) {
      config_.on_round_complete(stage.round, stage.name);
    }
    // One heartbeat interval per round: crashed nodes are declared dead
    // and their blocks re-replicated before the next round reads them.
    return MaybeTick();
  };
  auto land_all = [&]() -> Status {
    while (!launched.empty()) GESALL_RETURN_NOT_OK(land_front());
    return Status::OK();
  };

  Status status = [&]() -> Status {
    int round = 0;
    bool pre_completed = false;
    for (size_t i = 0; i < stages.size(); ++i) {
      const Stage& stage = stages[i];
      if (std::find(rounds.begin(), rounds.end(), stage.round) ==
          rounds.end()) {
        continue;
      }
      if (stage.round != round) {
        round = stage.round;
        pre_completed = config_.resume && RoundComplete(round);
      }
      Launched l;
      l.stage = &stage;
      l.seals = i + 1 == stages.size() || stages[i + 1].round != round;
      Signals* out = nullptr;
      if (stage.reducer != nullptr) {
        out = &ready[round];
        for (int r = 0; r < stage.reducers; ++r) {
          out->push_back(std::make_shared<ReadySignal>());
        }
      }
      if (pre_completed) {
        if (out != nullptr) {
          for (const auto& s : *out) s->Notify();
        }
        launched.push_back(std::move(l));
        continue;
      }
      const auto gate = ready.find(stage.gate_round);
      const Signals* gates =
          overlap && gate != ready.end() ? &gate->second : nullptr;
      if (gates == nullptr) GESALL_RETURN_NOT_OK(land_all());
      GESALL_ASSIGN_OR_RETURN(std::vector<InputSplit> splits,
                              stage.splits(gates));
      JobConfig cfg = MakeJobConfig(stage.reducers);
      cfg.throttle = throttle;
      cfg.combiner_factory = stage.combiner;
      l.errors = std::make_shared<ParkedError>();
      if (out != nullptr) {
        cfg.on_partition_output =
            PartitionOutput(dfs_, executor, stage.output_header,
                            stage.output_dir, stage.with_index, l.errors,
                            *out);
      }
      MapReduceJob job(cfg);
      l.start = wall.ElapsedSeconds();
      l.job = stage.reducer != nullptr
                  ? job.Start(splits, stage.mapper, stage.reducer,
                              stage.partitioner.get())
                  : job.StartMapOnly(splits, stage.mapper);
      launched.push_back(std::move(l));
    }
    return land_all();
  }();
  if (!status.ok()) {
    // Release every gate, so gated splits are admitted and their jobs
    // can finish failing, then drain every started job: running tasks
    // capture this frame's stages and products.
    for (auto& [r, signals] : ready) {
      for (const auto& s : signals) s->Notify();
    }
    for (auto& l : launched) {
      if (l.job.has_value()) (void)l.job->Wait();
    }
    return status;
  }
  return std::move(products.variants);
}

Status GesallPipeline::RunRound1Alignment() {
  return RunRounds({kRoundAlignment}, /*overlap=*/false, nullptr).status();
}

Status GesallPipeline::RunRound2Cleaning() {
  return RunRounds({kRoundCleaning}, /*overlap=*/false, nullptr).status();
}

Status GesallPipeline::RunRound3MarkDuplicates() {
  return RunRounds({kRoundMarkDuplicates}, /*overlap=*/false, nullptr)
      .status();
}

Status GesallPipeline::RunRecalibrationRounds() {
  return RunRounds({kRoundRecalibration}, /*overlap=*/false, nullptr)
      .status();
}

Status GesallPipeline::RunRound4Sort() {
  return RunRounds({kRoundSort}, /*overlap=*/false, nullptr).status();
}

Result<std::vector<VariantRecord>> GesallPipeline::RunRound5VariantCalling() {
  return RunRounds({kRoundVariants}, /*overlap=*/false, nullptr);
}

Result<std::vector<VariantRecord>> GesallPipeline::RunAll() {
  Executor* executor = ExecutorOf(config_);
  const ExecutorStats before = executor->stats();
  const size_t first_round = stats_.size();
  execution_ = ExecutionSummary{};
  execution_.pipelined = config_.pipelined;
  execution_.streaming = config_.streaming;
  std::vector<int> rounds = {kRoundAlignment, kRoundCleaning,
                             kRoundMarkDuplicates};
  if (config_.run_recalibration) rounds.push_back(kRoundRecalibration);
  rounds.push_back(kRoundSort);
  rounds.push_back(kRoundVariants);
  Stopwatch wall;
  Result<std::vector<VariantRecord>> result =
      RunRounds(rounds, config_.pipelined, &execution_.rounds);
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

  for (const auto& span : execution_.rounds) {
    execution_.serialized_round_seconds +=
        span.end_seconds - span.start_seconds;
  }
  execution_.overlap_seconds_saved = std::max(
      0.0, execution_.serialized_round_seconds - execution_.wall_seconds);
  return result;
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
