// Deterministic, seeded fault injection (the chaos layer behind the
// paper's fault-tolerance story: Hadoop retries failed task attempts and
// HDFS reads fail over across replicas — §3, §3.4).
//
// Components expose named fault points ("dfs.read_replica",
// "mr.map_attempt", ...). A FaultInjector armed on a point decides, for
// each (key, attempt) the component passes in, whether that attempt fails
// or how much straggler latency it suffers. Decisions are pure functions
// of (seed, point, key, attempt) — independent of thread interleaving —
// so the same seed over the same input reproduces the exact same fault
// sequence, retry counters, and byte-identical job output.

#ifndef GESALL_UTIL_FAULT_INJECTION_H_
#define GESALL_UTIL_FAULT_INJECTION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace gesall {

// Well-known fault point names. Components pass these; tests arm them.
inline constexpr char kFaultDfsReadReplica[] = "dfs.read_replica";
inline constexpr char kFaultSplitLoad[] = "split.load";
inline constexpr char kFaultMapAttempt[] = "mr.map_attempt";
inline constexpr char kFaultReduceAttempt[] = "mr.reduce_attempt";
/// Rots one byte of a stored DFS replica at read time (key = block id,
/// attempt = write-time replica ordinal).
inline constexpr char kFaultDfsBlockCorrupt[] = "dfs.block_corrupt";
/// Whole-node crash/restart, consulted once per heartbeat interval by
/// Dfs::Tick (key = node id, attempt = tick) and by the MR job master's
/// shuffle with attempt = 0 (a node crashed at the start of the
/// heartbeat epoch is dead for the job's fetch phase).
inline constexpr char kFaultNodeCrash[] = "node.crash";
inline constexpr char kFaultNodeRestart[] = "node.restart";
/// Corrupts the reduce-side fetch of one map task's output (key = map
/// task index, attempt = fetch epoch), forcing a map re-execution.
inline constexpr char kFaultShuffleFetch[] = "mr.shuffle_fetch";
/// Cuts a write-ahead-journal frame short on disk (key = records already
/// appended to that journal, attempt = 0), simulating a crash mid-write:
/// the append fails with IOError and the file ends in a torn frame that
/// replay must discard.
inline constexpr char kFaultFsShortWrite[] = "fs.short_write";
/// Fails the fsync of a journal batch or snapshot with IOError (key =
/// records appended / snapshot payload size, attempt = 0).
inline constexpr char kFaultFsSyncFail[] = "fs.sync_fail";

/// \brief Seeded injector of failures and latency at named fault points.
///
/// Keys identify the unit of work at a point (map task index, reduce
/// partition, DFS block id); attempts number retries of that unit (for
/// "dfs.read_replica" the attempt is the replica position, so "fail the
/// first replica of every block" is ArmFirstAttempts(point, 1)).
/// Thread-safe; a disarmed injector answers "no fault" cheaply.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  /// Each (key, attempt) at `point` fails independently with probability
  /// `p`, derived deterministically from the seed.
  Status ArmProbability(const std::string& point, double p);

  /// Attempts with index < n fail for every key at `point` ("fail the
  /// first n attempts of every task" / "the first n replicas of every
  /// block").
  Status ArmFirstAttempts(const std::string& point, int n);

  /// The listed attempt indices of one specific key fail ("fail attempt
  /// 0 and 1 of map task 3").
  void ArmSchedule(const std::string& point, int64_t key,
                   std::vector<int> attempts);

  /// Each (key, attempt) at `point` suffers `millis` of extra latency
  /// with probability `p` (straggler simulation).
  Status ArmLatency(const std::string& point, double p, int millis);

  void Disarm(const std::string& point);
  void DisarmAll();

  /// True (and counts one fire) when the attempt should fail.
  bool ShouldFail(const std::string& point, int64_t key, int attempt);

  /// Status form: IOError("injected fault at <point>...") when failing.
  Status MaybeFail(const std::string& point, int64_t key, int attempt);

  /// Injected latency in milliseconds for this attempt (0 = none; counts
  /// one latency fire when nonzero).
  int LatencyMs(const std::string& point, int64_t key, int attempt);

  /// Total failures fired at a point so far.
  int64_t fires(const std::string& point) const;
  /// Total latency injections fired at a point so far.
  int64_t latency_fires(const std::string& point) const;

  uint64_t seed() const { return seed_; }

 private:
  struct PointConfig {
    double fail_probability = 0.0;
    int fail_first_attempts = 0;
    // key -> attempt indices scheduled to fail.
    std::map<int64_t, std::set<int>> schedule;
    double latency_probability = 0.0;
    int latency_ms = 0;
    int64_t fires = 0;
    int64_t latency_fires = 0;
  };

  // Uniform [0, 1) draw, pure in (seed, point, key, attempt, salt).
  double Draw(const std::string& point, int64_t key, int attempt,
              uint64_t salt) const;

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, PointConfig> points_;
};

}  // namespace gesall

#endif  // GESALL_UTIL_FAULT_INJECTION_H_
