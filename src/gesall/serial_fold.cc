// Serial reference pipeline: the wrapped-program chain (Table 2) runs as
// a list of timed steps, one after another, on the calling thread. Each
// step's wall time is the per-program step_seconds the diagnosis report
// consumes.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/genotyper.h"
#include "analysis/mark_duplicates.h"
#include "analysis/recalibration.h"
#include "analysis/steps.h"
#include "gesall/pipeline.h"
#include "util/stopwatch.h"

namespace gesall {

namespace {

// Groups records by read name (pairs adjacent) without changing the
// relative order of pairs — the precondition of FixMateInformation and
// MarkDuplicates. Alignment output is already pair-adjacent; this guards
// hybrid inputs assembled from partition files.
void GroupByName(std::vector<SamRecord>* records) {
  for (size_t i = 0; i + 1 < records->size(); i += 2) {
    if ((*records)[i].qname != (*records)[i + 1].qname) {
      std::stable_sort(records->begin(), records->end(),
                       [](const SamRecord& a, const SamRecord& b) {
                         return a.qname < b.qname;
                       });
      return;
    }
  }
}

// Mutable state threaded through the chain. The header is a local copy:
// the sort updates its sort_order in-place, but callers' headers (and
// SerialStageOutputs::header) keep the pre-sort value, matching the
// historical by-value plumbing.
struct ChainState {
  const ReferenceGenome* reference = nullptr;
  const SerialPipelineConfig* config = nullptr;
  SamHeader header;
  std::vector<SamRecord> records;
  std::vector<VariantRecord> variants;
  RecalibrationTable recal_table;
};

// One wrapped program of the chain: its step_seconds name and its body.
struct Step {
  std::string name;
  std::function<Status()> run;
};

// Appends the cleaning -> markdup -> sort [-> recal] -> HC steps.
// Optional snapshot pointers copy a stage's output the moment it
// completes (the R_i of the diagnosis formalism); from_deduped skips
// straight to the sort.
void AppendTailChain(std::vector<Step>* steps, ChainState* state,
                     bool from_deduped,
                     std::vector<SamRecord>* cleaned_out,
                     std::vector<SamRecord>* deduped_out,
                     SamHeader* header_out,
                     std::vector<SamRecord>* sorted_out) {
  auto add = [steps](const char* name, std::function<Status()> run) {
    steps->push_back({name, std::move(run)});
  };
  if (!from_deduped) {
    add("add_replace_groups", [state] {
      return AddReplaceReadGroups(state->config->read_group, &state->header,
                                  &state->records);
    });
    add("clean_sam", [state] {
      CleanSam(state->header, &state->records);
      return Status::OK();
    });
    add("fix_mate_info", [state, cleaned_out, header_out] {
      GESALL_RETURN_NOT_OK(FixMateInformation(&state->records));
      if (cleaned_out != nullptr) *cleaned_out = state->records;
      if (header_out != nullptr) *header_out = state->header;
      return Status::OK();
    });
    add("mark_duplicates", [state, deduped_out] {
      GESALL_RETURN_NOT_OK(MarkDuplicates(&state->records).status());
      if (deduped_out != nullptr) *deduped_out = state->records;
      return Status::OK();
    });
  }
  add("sort_sam", [state] {
    SortSamByCoordinate(&state->header, &state->records);
    return Status::OK();
  });
  if (state->config->run_recalibration) {
    add("base_recalibrator", [state] {
      state->recal_table =
          BaseRecalibrator(*state->reference, state->records);
      return Status::OK();
    });
    add("print_reads", [state] {
      PrintReads(state->recal_table, &state->records);
      return Status::OK();
    });
  }
  add("haplotype_caller", [state, sorted_out] {
    if (sorted_out != nullptr) *sorted_out = state->records;
    HaplotypeCaller caller(*state->reference, state->config->hc);
    state->variants = caller.CallAll(state->records);
    return Status::OK();
  });
}

// Runs the steps in order on the calling thread, stopping at the first
// error, and adds each step's wall time to `timings` under its name (the
// step_seconds contract).
Status RunChain(const std::vector<Step>& steps,
                std::map<std::string, double>* timings) {
  for (const Step& step : steps) {
    Stopwatch clock;
    GESALL_RETURN_NOT_OK(step.run());
    if (timings != nullptr) (*timings)[step.name] += clock.ElapsedSeconds();
  }
  return Status::OK();
}

}  // namespace

Result<SerialStageOutputs> RunSerialPipeline(
    const ReferenceGenome& reference, const GenomeIndex& index,
    const std::vector<FastqRecord>& interleaved,
    const SerialPipelineConfig& config) {
  SerialStageOutputs out;
  ChainState state;
  state.reference = &reference;
  state.config = &config;

  std::vector<Step> steps;
  steps.push_back({"bwa", [&] {
    // The monolithic AlignPairs that the fused streamed round is tested
    // against: one call over the whole sample, batched internally.
    PairedEndAligner aligner(index, config.aligner);
    state.header = aligner.MakeHeader();
    state.records = aligner.AlignPairs(interleaved);
    out.aligned = state.records;
    return Status::OK();
  }});
  AppendTailChain(&steps, &state, /*from_deduped=*/false, &out.cleaned,
                  &out.deduped, &out.header, &out.sorted);
  GESALL_RETURN_NOT_OK(RunChain(steps, &out.step_seconds));
  out.variants = std::move(state.variants);
  return out;
}

Result<std::vector<VariantRecord>> SerialTailFromAligned(
    const ReferenceGenome& reference, const SamHeader& header,
    std::vector<SamRecord> aligned, const SerialPipelineConfig& config) {
  GroupByName(&aligned);
  ChainState state;
  state.reference = &reference;
  state.config = &config;
  state.header = header;
  state.records = std::move(aligned);
  std::vector<Step> steps;
  AppendTailChain(&steps, &state, /*from_deduped=*/false, nullptr, nullptr,
                  nullptr, nullptr);
  GESALL_RETURN_NOT_OK(RunChain(steps, nullptr));
  return std::move(state.variants);
}

Result<std::vector<VariantRecord>> SerialTailFromDeduped(
    const ReferenceGenome& reference, const SamHeader& header,
    std::vector<SamRecord> deduped, const SerialPipelineConfig& config) {
  ChainState state;
  state.reference = &reference;
  state.config = &config;
  state.header = header;
  state.records = std::move(deduped);
  std::vector<Step> steps;
  AppendTailChain(&steps, &state, /*from_deduped=*/true, nullptr, nullptr,
                  nullptr, nullptr);
  GESALL_RETURN_NOT_OK(RunChain(steps, nullptr));
  return std::move(state.variants);
}

}  // namespace gesall
