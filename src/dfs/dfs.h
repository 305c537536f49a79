// HDFS-like distributed block store (paper §3.1 substrate).
//
// Files are split into fixed-size blocks, replicated across data nodes.
// Placement is pluggable: the default policy spreads blocks, while
// LogicalPartitionPlacementPolicy pins all blocks of one file to one data
// node — the custom BlockPlacementPolicy Gesall registers so logical
// partitions are never split across nodes (paper §3.1 feature 2).
//
// Data integrity and liveness mirror HDFS:
//  - Every block carries per-chunk CRC32C sums computed at write time
//    (the .meta checksum file analog). Reads verify a replica before
//    serving it; a corrupted replica is detected, skipped via the normal
//    failover path, quarantined (dropped from the block map), and later
//    re-replicated from a healthy copy.
//  - Tick() advances a logical heartbeat clock. Nodes that stop
//    heartbeating (crashed via CrashNode or the "node.crash" fault
//    point) are declared dead after heartbeat_miss_threshold missed
//    intervals; the namenode then drops their replicas and a scrubber
//    pass re-replicates every under-replicated block onto live nodes.

#ifndef GESALL_DFS_DFS_H_
#define GESALL_DFS_DFS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/wal.h"

namespace gesall {

class BufferReader;
class BufferWriter;
class Executor;
class FaultInjector;

/// \brief Cluster-level DFS parameters.
struct DfsOptions {
  int64_t block_size = 128 * 1024 * 1024;  // Hadoop default: 128 MB
  int replication = 3;
  int num_data_nodes = 4;
  /// Consecutive replica-read failures before a data node is blacklisted
  /// (reads stop trying its replicas until MarkNodeUp).
  int blacklist_threshold = 3;
  /// Granularity of the per-block CRC32C sums (HDFS stores one sum per
  /// io.bytes.per.checksum slice; 64 KiB keeps metadata small while
  /// localizing corruption).
  int64_t checksum_chunk_bytes = 64 * 1024;
  /// Missed heartbeat intervals before a silent node is declared dead
  /// and its blocks are re-replicated (dfs.namenode.heartbeat
  /// recheck-interval analog, in Tick() units).
  int heartbeat_miss_threshold = 2;
  /// Store block payloads as BGZF-framed compressed blocks
  /// (mapreduce intermediate-compression analog for DFS round parts).
  /// Transparent to readers: ReadRange decompresses lazily, one 64 KiB
  /// block at a time, so a small range never inflates a whole DFS block.
  /// Replication, per-chunk CRC32C sums, corruption quarantine, and
  /// durable payload files all operate on the stored (compressed) bytes.
  bool compress_parts = false;
  /// zlib level for compress_parts (-1 = zlib default, else 0..9).
  int compress_level = -1;
  /// Namenode durability (HDFS fsimage/editlog analog). When
  /// durability.root_dir is set, block payloads persist as files under
  /// "<root>/blocks/", namespace mutations (create/delete/re-replicate/
  /// quarantine) are journaled under "<root>/namespace/" with periodic
  /// snapshots, and construction replays journal + snapshot — so a new
  /// Dfs on the same root (or SimulateCrash) reconstructs every file.
  /// Empty root_dir keeps the historical in-memory-only behavior.
  DurabilityOptions durability;
};

/// \brief Read-path fault-tolerance and integrity telemetry.
struct DfsStats {
  /// Individual replica reads that failed (injected or node down/blacklisted).
  int64_t replica_read_failures = 0;
  /// Block reads served by a non-first replica after >= 1 failure.
  int64_t blocks_failed_over = 0;
  /// Block reads where every replica failed (surfaced as IOError).
  int64_t reads_failed = 0;
  /// Nodes blacklisted after blacklist_threshold consecutive failures.
  int64_t nodes_blacklisted = 0;
  /// Replicas whose bytes failed CRC32C verification on read or scrub.
  int64_t corruptions_detected = 0;
  /// Corrupt replicas dropped from the block map (always re-replicated
  /// by the next scrubber pass while a healthy copy exists).
  int64_t replicas_quarantined = 0;
  /// New replicas created by the scrubber for under-replicated blocks.
  int64_t blocks_re_replicated = 0;
  int64_t bytes_re_replicated = 0;
  /// Nodes declared dead after heartbeat_miss_threshold missed beats.
  int64_t nodes_declared_dead = 0;
  /// Nodes brought back via RestartNode or the "node.restart" point.
  int64_t node_restarts = 0;
  /// Namespace mutations appended to the durability journal.
  int64_t journal_records_appended = 0;
  /// fsimage-style snapshots written by checkpointing.
  int64_t snapshots_written = 0;
  /// Best-effort journal appends (read-path quarantine, scrubber) that
  /// failed; write-path journal failures surface as IOError instead.
  int64_t journal_append_failures = 0;
  /// Logical (pre-compression) payload bytes written. Equal to
  /// bytes_written_stored when compress_parts is off.
  int64_t bytes_written_raw = 0;
  /// On-disk payload bytes written (per replica copies not included —
  /// this is the canonical-copy size, the Fig-10 "disk bytes" axis).
  int64_t bytes_written_stored = 0;
  /// CPU time in deflate at write time (compress_parts only).
  int64_t compress_micros = 0;
  /// CPU time in inflate on the read path (compress_parts only).
  int64_t decompress_micros = 0;
};

/// \brief What the last recovery (construction or SimulateCrash) rebuilt.
struct DfsRecoveryStats {
  /// True when this Dfs ran durable recovery at all.
  bool recovered = false;
  bool snapshot_loaded = false;
  int64_t journal_records_replayed = 0;
  /// A torn journal tail (crash mid-append) was discarded.
  bool torn_tail = false;
  int64_t files_recovered = 0;
  int64_t blocks_recovered = 0;
  /// Files dropped because a block payload was missing on disk (journal
  /// record durable, payload write lost — the file never fully landed).
  int64_t files_dropped = 0;
};

/// \brief Location metadata of one stored block.
struct BlockLocation {
  int64_t block_id = 0;
  int64_t offset = 0;  // byte offset within the file
  int64_t length = 0;
  std::vector<int> replicas;  // data node ids
};

/// \brief Chooses data nodes for each block of a file.
class BlockPlacementPolicy {
 public:
  virtual ~BlockPlacementPolicy() = default;
  /// Returns `replication` distinct node ids (first is primary).
  virtual std::vector<int> Place(const std::string& path,
                                 int64_t block_index, int num_nodes,
                                 int replication) = 0;
};

/// \brief Hadoop-like default: primary rotates per block, replicas follow.
class DefaultPlacementPolicy : public BlockPlacementPolicy {
 public:
  std::vector<int> Place(const std::string& path, int64_t block_index,
                         int num_nodes, int replication) override;
};

/// \brief Gesall's custom policy: ALL blocks of a file land on the same
/// primary node (chosen by file-path hash), so a logical partition is
/// readable node-locally by one task.
class LogicalPartitionPlacementPolicy : public BlockPlacementPolicy {
 public:
  std::vector<int> Place(const std::string& path, int64_t block_index,
                         int num_nodes, int replication) override;

  /// The primary node a path maps to (exposed for scheduling/locality).
  static int PrimaryNodeFor(const std::string& path, int num_nodes);
};

/// \brief In-process DFS: namespace + replicated block storage.
class Dfs {
 public:
  /// Rejects inconsistent cluster parameters (replication outside
  /// [1, num_data_nodes], non-positive block/chunk sizes, ...). A Dfs
  /// constructed from invalid options returns this status from every
  /// operation instead of silently misbehaving.
  static Status ValidateOptions(const DfsOptions& options);

  explicit Dfs(DfsOptions options = {});

  /// Writes (or replaces) a file. `policy` defaults to the spread policy.
  /// Per-chunk CRC32C sums are computed for every block at write time.
  Status Write(const std::string& path, std::string_view data,
               BlockPlacementPolicy* policy = nullptr);

  Result<std::string> Read(const std::string& path) const;

  /// Reads [offset, offset+length) of a file.
  Result<std::string> ReadRange(const std::string& path, int64_t offset,
                                int64_t length) const;

  Result<std::vector<BlockLocation>> Locate(const std::string& path) const;
  Result<int64_t> FileSize(const std::string& path) const;
  bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);

  /// Paths starting with `prefix`, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  /// Marks a data node unavailable; reads fall back to other replicas.
  Status MarkNodeDown(int node);
  /// Restores a node and clears its blacklist/failure state.
  Status MarkNodeUp(int node);

  /// Whole-node crash: the node stops serving reads and stops
  /// heartbeating; its stored blocks survive until it is declared dead.
  Status CrashNode(int node);
  /// Crash recovery: the node rejoins with its storage intact (stale
  /// replicas of blocks the namenode already dropped are not re-added).
  Status RestartNode(int node);

  /// Advances the heartbeat clock by one interval: applies the
  /// "node.crash"/"node.restart" fault points (key = node id, attempt =
  /// tick), records heartbeats from live nodes, declares silent nodes
  /// dead after heartbeat_miss_threshold missed intervals (dropping
  /// their replicas), and runs a scrubber pass that re-replicates every
  /// under-replicated block from a CRC-verified healthy replica.
  Status Tick();

  /// Bytes of block data stored on one node (replicas included).
  int64_t BytesStoredOn(int node) const;

  /// Chaos source consulted at the "dfs.read_replica" fault point with
  /// (key = block id, attempt = replica position) and at
  /// "dfs.block_corrupt" with (key = block id, attempt = write-time
  /// replica ordinal — stable, so re-replicated copies are never
  /// re-corrupted by ArmFirstAttempts). Not owned; nullptr disables
  /// injection.
  /// Atomic: pipelines install their injector at construction while the
  /// heartbeat driver may be mid-Tick on another thread.
  void set_fault_injector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  /// Executor for parallel checksum and deflate work (not owned):
  /// write-time chunk sums and compress_parts BGZF blocks fan out as
  /// tasks, and scrub/read CRC verification of large blocks does too.
  /// Null keeps both single-threaded.
  void set_executor(Executor* executor) {
    executor_.store(executor, std::memory_order_release);
  }

  /// Crash harness: drops every in-memory structure (namespace, block
  /// maps, node storage, health, heartbeat clock) and reconstructs the
  /// Dfs from the durable root, exactly as a fresh process would.
  /// InvalidArgument when durability is off.
  Status SimulateCrash();

  /// Outcome of the last durable recovery (all-zero when durability is
  /// off or nothing was recovered).
  DfsRecoveryStats recovery_stats() const;

  /// Snapshot of the read-path failover telemetry.
  DfsStats stats() const;
  void ResetStats();

  /// True when the node was blacklisted by consecutive read failures.
  bool IsBlacklisted(int node) const;
  /// True when the namenode declared the node dead on missed heartbeats.
  bool IsDeclaredDead(int node) const;

  int num_data_nodes() const { return options_.num_data_nodes; }
  int64_t block_size() const { return options_.block_size; }
  /// Heartbeat intervals elapsed (Tick() calls so far).
  int64_t heartbeat_tick() const;

 private:
  struct FileMeta {
    std::vector<int64_t> blocks;
    int64_t size = 0;
  };
  struct DataNode {
    std::map<int64_t, std::string> blocks;
    bool up = true;
    int64_t last_heartbeat_tick = -1;
    bool declared_dead = false;
  };
  /// One replica of a block. The ordinal is assigned at creation and
  /// never reused: write-time replicas get 0..replication-1, scrubber
  /// copies continue from there. It keys the "dfs.block_corrupt" fault
  /// point, so "corrupt the first-placed replica of every block" is
  /// ArmFirstAttempts(point, 1) and never hits a re-replicated copy.
  struct Replica {
    int node = 0;
    int ordinal = 0;
  };
  struct BlockMeta {
    /// Logical (uncompressed) length — what Locate/FileSize report.
    int64_t length = 0;
    /// On-disk length of the stored bytes (== length when !compressed).
    int64_t stored_length = 0;
    /// Stored bytes are a BGZF stream; reads decompress lazily.
    bool compressed = false;
    std::vector<Replica> replicas;
    /// CRC32C per checksum_chunk_bytes slice of the *stored* bytes
    /// (HDFS block .meta analog) — compression is under the checksum.
    std::vector<uint32_t> chunk_sums;
    int next_ordinal = 0;
  };

  // Mutable read-path health state: reads are logically const but track
  // failures, blacklisting, and failover telemetry.
  struct NodeHealth {
    int consecutive_failures = 0;
    bool blacklisted = false;
  };

  // Requires health_mu_.
  Result<const FileMeta*> MetaLocked(const std::string& path) const;
  Result<std::string> ReadRangeLocked(const std::string& path,
                                      int64_t offset, int64_t length) const;
  Status DeleteLocked(const std::string& path);
  // Serves one block from the first healthy, CRC-verified replica,
  // recording failover telemetry and quarantining corrupt replicas.
  // Returns nullptr when every replica failed. Requires health_mu_.
  const std::string* ReadBlockReplicasLocked(int64_t block_id,
                                             BlockMeta& bm) const;

  // Pure CRC computations; parallelized over the executor when set
  // (safe to call with health_mu_ held — the closures touch no Dfs
  // state, and TaskGroup::Wait helps, so a saturated executor still
  // makes progress).
  std::vector<uint32_t> ChunkSums(std::string_view data) const;
  bool ChunksMatch(const std::string& bytes,
                   const std::vector<uint32_t>& sums) const;
  // Injection + one-time CRC verification of replica `ri`. On
  // corruption: counts the detection, quarantines the replica (erased
  // from block map and node storage, `ri` now indexes the next replica),
  // and returns false. Requires health_mu_.
  bool VerifyReplicaLocked(int64_t block_id, BlockMeta* bm,
                           size_t ri) const;
  void QuarantineReplicaLocked(int64_t block_id, BlockMeta* bm,
                               size_t ri) const;
  // Scrubber: tops up every under-replicated block from a verified
  // source replica onto live nodes. Requires health_mu_.
  void ScrubLocked();
  void RepairBlockLocked(int64_t block_id, BlockMeta* bm);
  const std::string* HealthySourceLocked(int64_t block_id, BlockMeta* bm);
  void RestartNodeLocked(int node);

  // --- Durability (no-ops when options_.durability is off). ---
  // Opens the journaled store, replays snapshot + journal into the
  // (empty) in-memory maps, and loads block payloads from disk.
  // Requires health_mu_.
  Status RecoverLocked();
  std::string BlockPayloadPath(int64_t block_id) const;
  // Journals one namespace mutation; IOError on append failure.
  // Requires health_mu_.
  Status JournalLocked(std::string_view record) const;
  // Best-effort variant for the logically-const read path (quarantine)
  // and the scrubber: failures land in stats_.journal_append_failures.
  void JournalBestEffortLocked(std::string_view record) const;
  // Checkpoints (snapshot + journal reset) when the store says so.
  void MaybeCheckpointLocked();
  std::string EncodeSnapshotLocked() const;
  Status ApplySnapshotLocked(std::string_view payload);
  Status ApplyJournalRecordLocked(std::string_view record);
  // Block metadata codec shared by the create-file journal record and
  // the snapshot.
  static void EncodeBlock(BufferWriter* w, int64_t id, const BlockMeta& bm);
  static Status DecodeBlock(BufferReader* r, int64_t* id, BlockMeta* bm);

  DfsOptions options_;
  Status init_status_;
  DefaultPlacementPolicy default_policy_;
  std::atomic<FaultInjector*> injector_{nullptr};
  std::atomic<Executor*> executor_{nullptr};
  // One namenode-wide lock: every public operation acquires health_mu_
  // once and runs *Locked internals, making concurrent reads, writes,
  // and heartbeat ticks from overlapped pipeline rounds safe. Expensive
  // pure work (chunk checksums) happens outside or fans out onto the
  // executor.
  mutable std::mutex health_mu_;
  std::map<std::string, FileMeta> files_;
  int64_t next_block_id_ = 1;
  // blocks_/nodes_ are mutable because the logically-const read path
  // performs integrity bookkeeping: injected corruption flips stored
  // bytes, detection quarantines replicas. Guarded by health_mu_.
  mutable std::map<int64_t, BlockMeta> blocks_;
  mutable std::vector<DataNode> nodes_;
  // Replicas whose bytes already passed CRC verification, so repeated
  // reads skip the checksum work (HDFS clients verify per read; we cache
  // because the simulated "disk" cannot rot outside the fault point).
  mutable std::set<std::pair<int64_t, int>> verified_;
  int64_t tick_ = 0;
  mutable std::vector<NodeHealth> health_;
  mutable DfsStats stats_;
  // Durable namespace store (null when durability is off). Mutable with
  // stats_: the logically-const read path journals quarantines.
  mutable std::unique_ptr<JournaledStore> store_;
  std::string blocks_dir_;
  DfsRecoveryStats recovery_;
};

}  // namespace gesall

#endif  // GESALL_DFS_DFS_H_
