// Runtime Data Transformation Module (paper §3.3, Fig. 8).
//
// Wrapped analysis programs consume and produce in-memory BAM datasets;
// the MapReduce engine moves key-value byte pairs. These helpers perform
// the copy-and-convert in both directions and account the time spent, so
// the Fig. 6(a) transformation-overhead breakdown can be measured on the
// functional engine.

#ifndef GESALL_GESALL_TRANSFORM_H_
#define GESALL_GESALL_TRANSFORM_H_

#include <functional>
#include <string>
#include <vector>

#include "formats/bam.h"
#include "formats/sam.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace gesall {

/// Counter names for the transform/program time split (microseconds).
inline constexpr char kTransformMicros[] = "transform_micros";
inline constexpr char kProgramMicros[] = "program_micros";

/// \brief Charges wall time to a context counter on destruction. Works
/// with any context exposing IncrementCounter(name, delta).
class CounterTimer {
 public:
  template <typename Ctx>
  CounterTimer(Ctx* ctx, const char* counter)
      : charge_([ctx, counter](int64_t micros) {
          ctx->IncrementCounter(counter, micros);
        }) {}
  ~CounterTimer() {
    charge_(static_cast<int64_t>(clock_.ElapsedSeconds() * 1e6));
  }
  CounterTimer(const CounterTimer&) = delete;
  CounterTimer& operator=(const CounterTimer&) = delete;

 private:
  std::function<void(int64_t)> charge_;
  Stopwatch clock_;
};

/// \brief Decodes MR values (each one serialized BAM record) into records,
/// charging elapsed time to the transform counter. Values may be owned
/// strings or views into the shuffle arenas.
template <typename Ctx, typename Value>
Result<std::vector<SamRecord>> RecordsFromValues(
    const std::vector<Value>& values, Ctx* ctx) {
  CounterTimer timer(ctx, kTransformMicros);
  std::vector<SamRecord> records;
  records.reserve(values.size());
  for (const auto& v : values) {
    size_t offset = 0;
    GESALL_ASSIGN_OR_RETURN(SamRecord rec, DecodeBamRecord(v, &offset));
    records.push_back(std::move(rec));
  }
  return records;
}

/// \brief Decodes a whole BAM byte stream into a dataset.
template <typename Ctx>
Result<std::pair<SamHeader, std::vector<SamRecord>>> BamToDataset(
    std::string_view bam, Ctx* ctx) {
  CounterTimer timer(ctx, kTransformMicros);
  return ReadBam(bam);
}

/// \brief Runs a wrapped analysis program, charging its runtime to the
/// program counter (the "time in external programs" of Fig. 6a).
template <typename Ctx, typename Fn>
auto RunWrappedProgram(Ctx* ctx, Fn&& fn) {
  CounterTimer timer(ctx, kProgramMicros);
  return fn();
}

}  // namespace gesall

#endif  // GESALL_GESALL_TRANSFORM_H_
