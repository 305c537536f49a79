#include "dfs/dfs.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <system_error>

#include "util/bgzf.h"
#include "util/crc32c.h"
#include "util/executor.h"
#include "util/fault_injection.h"
#include "util/io.h"
#include "util/rng.h"

namespace gesall {

std::vector<int> DefaultPlacementPolicy::Place(const std::string& path,
                                               int64_t block_index,
                                               int num_nodes,
                                               int replication) {
  // Primary rotates pseudo-randomly per (file, block); replicas follow on
  // consecutive nodes, as with Hadoop's rack-unaware default.
  int primary = static_cast<int>(
      MixSeeds(Fnv1a64(path), static_cast<uint64_t>(block_index)) %
      static_cast<uint64_t>(num_nodes));
  std::vector<int> out;
  replication = std::min(replication, num_nodes);
  for (int i = 0; i < replication; ++i) {
    out.push_back((primary + i) % num_nodes);
  }
  return out;
}

int LogicalPartitionPlacementPolicy::PrimaryNodeFor(const std::string& path,
                                                    int num_nodes) {
  return static_cast<int>(Fnv1a64(path) % static_cast<uint64_t>(num_nodes));
}

std::vector<int> LogicalPartitionPlacementPolicy::Place(
    const std::string& path, int64_t /*block_index*/, int num_nodes,
    int replication) {
  int primary = PrimaryNodeFor(path, num_nodes);
  std::vector<int> out;
  replication = std::min(replication, num_nodes);
  for (int i = 0; i < replication; ++i) {
    out.push_back((primary + i) % num_nodes);
  }
  return out;
}

Status Dfs::ValidateOptions(const DfsOptions& o) {
  if (o.num_data_nodes < 1) {
    return Status::InvalidArgument("num_data_nodes must be >= 1");
  }
  if (o.replication < 1 || o.replication > o.num_data_nodes) {
    return Status::InvalidArgument(
        "replication must be in [1, num_data_nodes]");
  }
  if (o.block_size <= 0) {
    return Status::InvalidArgument("block_size must be positive");
  }
  if (o.blacklist_threshold < 1) {
    return Status::InvalidArgument("blacklist_threshold must be >= 1");
  }
  if (o.checksum_chunk_bytes <= 0) {
    return Status::InvalidArgument("checksum_chunk_bytes must be positive");
  }
  if (o.heartbeat_miss_threshold < 1) {
    return Status::InvalidArgument("heartbeat_miss_threshold must be >= 1");
  }
  if (o.compress_level < -1 || o.compress_level > 9) {
    return Status::InvalidArgument("compress_level must be -1..9");
  }
  GESALL_RETURN_NOT_OK(ValidateDurabilityOptions(o.durability));
  return Status::OK();
}

Dfs::Dfs(DfsOptions options)
    : options_(options), init_status_(ValidateOptions(options)) {
  if (!init_status_.ok()) return;
  nodes_.resize(options_.num_data_nodes);
  health_.resize(options_.num_data_nodes);
  if (options_.durability.enabled()) {
    std::lock_guard<std::mutex> lock(health_mu_);
    init_status_ = RecoverLocked();
  }
}

namespace {
// Chunk counts below this run serially: the executor round trip costs
// more than a few CRC sweeps.
constexpr size_t kMinParallelChunks = 4;

// Namespace journal opcodes (HDFS editlog analog). Values are on-disk
// format; never renumber.
constexpr uint8_t kOpCreateFile = 1;
constexpr uint8_t kOpDeleteFile = 2;
constexpr uint8_t kOpAddReplica = 3;
constexpr uint8_t kOpRemoveReplica = 4;
}  // namespace

std::vector<uint32_t> Dfs::ChunkSums(std::string_view data) const {
  const size_t chunk = static_cast<size_t>(options_.checksum_chunk_bytes);
  const size_t n = (data.size() + chunk - 1) / chunk;
  std::vector<uint32_t> sums(n);
  Executor* executor = executor_.load(std::memory_order_acquire);
  if (executor != nullptr && n >= kMinParallelChunks) {
    TaskGroup group(executor);
    for (size_t i = 0; i < n; ++i) {
      group.Submit([&sums, data, chunk, i] {
        sums[i] = Crc32c(data.substr(i * chunk, chunk));
      });
    }
    group.Wait();
    return sums;
  }
  for (size_t i = 0; i < n; ++i) {
    sums[i] = Crc32c(data.substr(i * chunk, chunk));
  }
  return sums;
}

bool Dfs::ChunksMatch(const std::string& bytes,
                      const std::vector<uint32_t>& sums) const {
  const size_t chunk = static_cast<size_t>(options_.checksum_chunk_bytes);
  if (sums.size() != (bytes.size() + chunk - 1) / chunk) return false;
  std::string_view view(bytes);
  Executor* executor = executor_.load(std::memory_order_acquire);
  if (executor != nullptr && sums.size() >= kMinParallelChunks) {
    std::atomic<bool> match{true};
    TaskGroup group(executor);
    for (size_t i = 0; i < sums.size(); ++i) {
      group.Submit([&match, &sums, view, chunk, i] {
        if (Crc32c(view.substr(i * chunk, chunk)) != sums[i]) {
          match.store(false, std::memory_order_relaxed);
        }
      });
    }
    group.Wait();
    return match.load();
  }
  for (size_t i = 0; i < sums.size(); ++i) {
    if (Crc32c(view.substr(i * chunk, chunk)) != sums[i]) return false;
  }
  return true;
}

Status Dfs::Write(const std::string& path, std::string_view data,
                  BlockPlacementPolicy* policy) {
  GESALL_RETURN_NOT_OK(init_status_);
  if (policy == nullptr) policy = &default_policy_;

  // Placement, compression, and checksums are pure in the input; compute
  // them before taking the namenode lock so concurrent readers are not
  // stalled behind deflate or CRC sweeps of a large file.
  struct PendingBlock {
    int64_t length = 0;  // logical (uncompressed) length
    std::vector<int> placement;
    std::string_view bytes;       // raw payload
    std::string stored;           // BGZF frames when compressing
    std::string_view store_view;  // bytes that land on data nodes/disk
    bool compressed = false;
    int64_t compress_micros = 0;
    std::vector<uint32_t> chunk_sums;
  };
  const int64_t size = static_cast<int64_t>(data.size());
  int64_t n_blocks = (size + options_.block_size - 1) / options_.block_size;
  if (n_blocks == 0) n_blocks = 1;  // empty file still has a (empty) block
  std::vector<PendingBlock> pending(static_cast<size_t>(n_blocks));
  for (int64_t b = 0; b < n_blocks; ++b) {
    int64_t off = b * options_.block_size;
    int64_t len = std::min<int64_t>(options_.block_size, size - off);
    if (len < 0) len = 0;
    PendingBlock& pb = pending[static_cast<size_t>(b)];
    pb.length = len;
    pb.placement = policy->Place(path, b, options_.num_data_nodes,
                                 options_.replication);
    if (pb.placement.empty()) {
      return Status::Internal("placement policy returned no nodes");
    }
    pb.bytes =
        data.substr(static_cast<size_t>(off), static_cast<size_t>(len));
    if (options_.compress_parts && len > 0) {
      std::vector<std::string_view> chunks;
      for (size_t at = 0; at < pb.bytes.size(); at += kBgzfBlockSize) {
        chunks.push_back(pb.bytes.substr(at, kBgzfBlockSize));
      }
      BgzfCodecStats codec;
      GESALL_RETURN_NOT_OK(BgzfCompressChunks(
          chunks, options_.compress_level,
          executor_.load(std::memory_order_acquire), &pb.stored, &codec));
      pb.compressed = true;
      pb.compress_micros = codec.compress_micros;
      pb.store_view = pb.stored;
    } else {
      pb.store_view = pb.bytes;
    }
    // Checksums cover the stored bytes: corruption is detected before
    // any decompress attempt, exactly as HDFS checksums sit under codecs.
    pb.chunk_sums = ChunkSums(pb.store_view);
  }

  std::lock_guard<std::mutex> lock(health_mu_);
  // Replace semantics: drop any existing file first.
  if (files_.count(path) > 0) GESALL_RETURN_NOT_OK(DeleteLocked(path));
  FileMeta meta;
  meta.size = size;
  for (PendingBlock& pb : pending) {
    int64_t id = next_block_id_++;
    BlockMeta bm;
    bm.length = pb.length;
    bm.stored_length = static_cast<int64_t>(pb.store_view.size());
    bm.compressed = pb.compressed;
    for (int node : pb.placement) {
      bm.replicas.push_back({node, bm.next_ordinal++});
      nodes_[node].blocks[id] = std::string(pb.store_view);
    }
    bm.chunk_sums = std::move(pb.chunk_sums);
    blocks_[id] = std::move(bm);
    meta.blocks.push_back(id);
    stats_.bytes_written_raw += pb.length;
    stats_.bytes_written_stored += static_cast<int64_t>(pb.store_view.size());
    stats_.compress_micros += pb.compress_micros;
  }
  files_[path] = std::move(meta);
  if (store_ != nullptr) {
    // Durability order: payload files land (fsync'd) before the create
    // record. A crash in between leaves orphan payloads (harmless); the
    // reverse order would let replay resurrect a file without bytes.
    const FileMeta& fm = files_.at(path);
    for (size_t b = 0; b < fm.blocks.size(); ++b) {
      GESALL_RETURN_NOT_OK(WriteDurableFile(BlockPayloadPath(fm.blocks[b]),
                                            pending[b].store_view));
    }
    std::string rec;
    BufferWriter w(&rec);
    w.PutU8(kOpCreateFile);
    w.PutString(path);
    w.PutI64(size);
    w.PutU32(static_cast<uint32_t>(fm.blocks.size()));
    for (int64_t id : fm.blocks) EncodeBlock(&w, id, blocks_.at(id));
    GESALL_RETURN_NOT_OK(JournalLocked(rec));
    MaybeCheckpointLocked();
  }
  return Status::OK();
}

Result<const Dfs::FileMeta*> Dfs::MetaLocked(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return &it->second;
}

Result<std::string> Dfs::Read(const std::string& path) const {
  GESALL_RETURN_NOT_OK(init_status_);
  std::lock_guard<std::mutex> lock(health_mu_);
  GESALL_ASSIGN_OR_RETURN(const FileMeta* meta, MetaLocked(path));
  return ReadRangeLocked(path, 0, meta->size);
}

Result<std::string> Dfs::ReadRange(const std::string& path, int64_t offset,
                                   int64_t length) const {
  GESALL_RETURN_NOT_OK(init_status_);
  std::lock_guard<std::mutex> lock(health_mu_);
  return ReadRangeLocked(path, offset, length);
}

Result<std::string> Dfs::ReadRangeLocked(const std::string& path,
                                         int64_t offset,
                                         int64_t length) const {
  GESALL_ASSIGN_OR_RETURN(const FileMeta* meta, MetaLocked(path));
  if (offset < 0 || offset + length > meta->size) {
    return Status::OutOfRange("read range outside file");
  }
  std::string out;
  out.reserve(static_cast<size_t>(length));
  int64_t pos = offset;
  while (length > 0) {
    int64_t block_index = pos / options_.block_size;
    int64_t intra = pos % options_.block_size;
    int64_t block_id = meta->blocks[block_index];
    BlockMeta& bm = blocks_.at(block_id);
    const std::string* bytes = ReadBlockReplicasLocked(block_id, bm);
    if (bytes == nullptr) {
      return Status::IOError("all replicas of block " +
                             std::to_string(block_id) + " unavailable");
    }
    int64_t take = std::min<int64_t>(length, bm.length - intra);
    if (bm.compressed) {
      // Lazy decode: only the 64 KiB BGZF sub-blocks covering
      // [intra, intra+take) inflate; the rest are skipped by header walk.
      int64_t micros = 0;
      GESALL_RETURN_NOT_OK(BgzfReadRange(*bytes, static_cast<size_t>(intra),
                                         static_cast<size_t>(take), &out,
                                         &micros));
      stats_.decompress_micros += micros;
    } else {
      out.append(*bytes, static_cast<size_t>(intra),
                 static_cast<size_t>(take));
    }
    pos += take;
    length -= take;
  }
  return out;
}

void Dfs::QuarantineReplicaLocked(int64_t block_id, BlockMeta* bm,
                                  size_t ri) const {
  const int node = bm->replicas[ri].node;
  nodes_[node].blocks.erase(block_id);
  verified_.erase({block_id, node});
  bm->replicas.erase(bm->replicas.begin() + static_cast<int64_t>(ri));
  ++stats_.replicas_quarantined;
  if (store_ != nullptr) {
    // Best-effort: the canonical payload file is never rotted (injected
    // corruption flips in-memory replica bytes only), so a lost
    // quarantine record merely resurrects a replica that re-verifies
    // clean from its payload on recovery.
    std::string rec;
    BufferWriter w(&rec);
    w.PutU8(kOpRemoveReplica);
    w.PutI64(block_id);
    w.PutI32(node);
    JournalBestEffortLocked(rec);
  }
}

bool Dfs::VerifyReplicaLocked(int64_t block_id, BlockMeta* bm,
                              size_t ri) const {
  const Replica rep = bm->replicas[ri];
  std::string& bytes = nodes_[rep.node].blocks.at(block_id);
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  if (injector != nullptr && !bytes.empty() &&
      injector->ShouldFail(kFaultDfsBlockCorrupt, block_id, rep.ordinal)) {
    // Lazy corruption: rot one byte of the stored replica the moment it
    // is read. Detection quarantines the replica immediately, so the
    // point cannot re-fire for it and toggle the byte back.
    bytes[static_cast<size_t>(block_id) % bytes.size()] ^= 0x40;
    verified_.erase({block_id, rep.node});
  }
  if (verified_.count({block_id, rep.node}) > 0) return true;
  if (ChunksMatch(bytes, bm->chunk_sums)) {
    verified_.insert({block_id, rep.node});
    return true;
  }
  ++stats_.corruptions_detected;
  QuarantineReplicaLocked(block_id, bm, ri);
  return false;
}

const std::string* Dfs::ReadBlockReplicasLocked(int64_t block_id,
                                                BlockMeta& bm) const {
  // HDFS read failover: walk the replica list in order, skipping nodes
  // that are down, dead, or blacklisted and replicas the injector fails
  // or whose bytes fail CRC verification; the first healthy replica
  // serves the block. Injector decisions are pure in (block, replica),
  // so one seed pins one consistent set of "bad" replicas across
  // repeated reads.
  int failures = 0;
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  for (size_t ri = 0; ri < bm.replicas.size();) {
    int node = bm.replicas[ri].node;
    bool failed = !nodes_[node].up || nodes_[node].declared_dead ||
                  health_[node].blacklisted;
    if (!failed && injector != nullptr &&
        injector->ShouldFail(kFaultDfsReadReplica, block_id,
                             static_cast<int>(ri))) {
      failed = true;
      // Injected replica failure counts against the node's health;
      // blacklist it after blacklist_threshold consecutive failures.
      NodeHealth& health = health_[node];
      if (++health.consecutive_failures >= options_.blacklist_threshold &&
          !health.blacklisted) {
        health.blacklisted = true;
        ++stats_.nodes_blacklisted;
      }
    }
    if (failed) {
      ++failures;
      ++stats_.replica_read_failures;
      ++ri;
      continue;
    }
    if (!VerifyReplicaLocked(block_id, &bm, ri)) {
      // Corrupt replica: quarantined (a corrupt block is reported to the
      // namenode, not held against the node's health), and the loop
      // continues at the same index, which now names the next replica.
      ++failures;
      ++stats_.replica_read_failures;
      continue;
    }
    health_[node].consecutive_failures = 0;
    if (failures > 0) ++stats_.blocks_failed_over;
    return &nodes_[node].blocks.at(block_id);
  }
  ++stats_.reads_failed;
  return nullptr;
}

const std::string* Dfs::HealthySourceLocked(int64_t block_id,
                                            BlockMeta* bm) {
  // Scrubber reads are reads: the source replica is verified (and the
  // corruption point consulted) exactly like a client read, so a rotted
  // source cannot be cloned.
  for (size_t ri = 0; ri < bm->replicas.size();) {
    const Replica rep = bm->replicas[ri];
    if (!nodes_[rep.node].up || nodes_[rep.node].declared_dead) {
      ++ri;
      continue;
    }
    if (!VerifyReplicaLocked(block_id, bm, ri)) continue;
    return &nodes_[rep.node].blocks.at(block_id);
  }
  return nullptr;
}

void Dfs::RepairBlockLocked(int64_t block_id, BlockMeta* bm) {
  // The namenode drops a dead node's replicas from the block map; the
  // node's storage is erased too, so a later restart cannot resurrect
  // stale bytes.
  for (size_t i = 0; i < bm->replicas.size();) {
    const int node = bm->replicas[i].node;
    if (nodes_[node].declared_dead) {
      nodes_[node].blocks.erase(block_id);
      verified_.erase({block_id, node});
      bm->replicas.erase(bm->replicas.begin() + static_cast<int64_t>(i));
      if (store_ != nullptr) {
        std::string rec;
        BufferWriter w(&rec);
        w.PutU8(kOpRemoveReplica);
        w.PutI64(block_id);
        w.PutI32(node);
        JournalBestEffortLocked(rec);
      }
    } else {
      ++i;
    }
  }
  int live_nodes = 0;
  for (const auto& dn : nodes_) {
    if (dn.up && !dn.declared_dead) ++live_nodes;
  }
  // Replicas on silent-but-not-yet-dead nodes still count: HDFS waits
  // for the dead verdict before re-replicating around a quiet node.
  const int target = std::min(options_.replication, live_nodes);
  while (static_cast<int>(bm->replicas.size()) < target) {
    const std::string* src = HealthySourceLocked(block_id, bm);
    if (src == nullptr) break;  // no verified copy left to clone
    int dest = -1;
    for (int n = 0; n < options_.num_data_nodes; ++n) {
      if (!nodes_[n].up || nodes_[n].declared_dead) continue;
      if (nodes_[n].blocks.count(block_id) > 0) continue;
      dest = n;
      break;
    }
    if (dest < 0) break;
    nodes_[dest].blocks[block_id] = *src;
    bm->replicas.push_back({dest, bm->next_ordinal++});
    verified_.insert({block_id, dest});
    ++stats_.blocks_re_replicated;
    stats_.bytes_re_replicated += bm->stored_length;
    if (store_ != nullptr) {
      // The clone shares the canonical payload file; only the replica
      // mapping needs to go durable.
      std::string rec;
      BufferWriter w(&rec);
      w.PutU8(kOpAddReplica);
      w.PutI64(block_id);
      w.PutI32(dest);
      w.PutI32(bm->replicas.back().ordinal);
      JournalBestEffortLocked(rec);
    }
  }
}

void Dfs::ScrubLocked() {
  for (auto& [id, bm] : blocks_) RepairBlockLocked(id, &bm);
}

void Dfs::RestartNodeLocked(int node) {
  DataNode& dn = nodes_[node];
  dn.up = true;
  dn.declared_dead = false;
  dn.last_heartbeat_tick = tick_ - 1;
  health_[node] = NodeHealth{};
  ++stats_.node_restarts;
}

Status Dfs::Tick() {
  GESALL_RETURN_NOT_OK(init_status_);
  std::lock_guard<std::mutex> lock(health_mu_);
  const int64_t tick = tick_++;
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  for (int n = 0; n < options_.num_data_nodes; ++n) {
    DataNode& dn = nodes_[n];
    if (injector != nullptr && !dn.up &&
        injector->ShouldFail(kFaultNodeRestart, n,
                             static_cast<int>(tick))) {
      RestartNodeLocked(n);
    }
    if (injector != nullptr && dn.up &&
        injector->ShouldFail(kFaultNodeCrash, n, static_cast<int>(tick))) {
      dn.up = false;  // crash: stops serving and heartbeating; storage
                      // survives until the node is declared dead
    }
    if (dn.up) {
      dn.last_heartbeat_tick = tick;
      dn.declared_dead = false;
    } else if (!dn.declared_dead &&
               tick - dn.last_heartbeat_tick >=
                   options_.heartbeat_miss_threshold) {
      dn.declared_dead = true;
      ++stats_.nodes_declared_dead;
    }
  }
  ScrubLocked();
  MaybeCheckpointLocked();
  return Status::OK();
}

Result<std::vector<BlockLocation>> Dfs::Locate(
    const std::string& path) const {
  GESALL_RETURN_NOT_OK(init_status_);
  std::lock_guard<std::mutex> lock(health_mu_);
  GESALL_ASSIGN_OR_RETURN(const FileMeta* meta, MetaLocked(path));
  std::vector<BlockLocation> out;
  int64_t off = 0;
  for (int64_t id : meta->blocks) {
    const BlockMeta& bm = blocks_.at(id);
    BlockLocation loc;
    loc.block_id = id;
    loc.offset = off;
    loc.length = bm.length;
    for (const Replica& r : bm.replicas) loc.replicas.push_back(r.node);
    out.push_back(std::move(loc));
    off += bm.length;
  }
  return out;
}

Result<int64_t> Dfs::FileSize(const std::string& path) const {
  GESALL_RETURN_NOT_OK(init_status_);
  std::lock_guard<std::mutex> lock(health_mu_);
  GESALL_ASSIGN_OR_RETURN(const FileMeta* meta, MetaLocked(path));
  return meta->size;
}

bool Dfs::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return files_.count(path) > 0;
}

Status Dfs::Delete(const std::string& path) {
  GESALL_RETURN_NOT_OK(init_status_);
  std::lock_guard<std::mutex> lock(health_mu_);
  GESALL_RETURN_NOT_OK(DeleteLocked(path));
  MaybeCheckpointLocked();
  return Status::OK();
}

Status Dfs::DeleteLocked(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  if (store_ != nullptr) {
    // The delete record goes durable before payload files disappear: a
    // crash in between leaves orphan payloads, never a live file whose
    // bytes are gone.
    std::string rec;
    BufferWriter w(&rec);
    w.PutU8(kOpDeleteFile);
    w.PutString(path);
    GESALL_RETURN_NOT_OK(JournalLocked(rec));
  }
  for (int64_t id : it->second.blocks) {
    const BlockMeta& bm = blocks_.at(id);
    for (const Replica& r : bm.replicas) {
      nodes_[r.node].blocks.erase(id);
      verified_.erase({id, r.node});
    }
    blocks_.erase(id);
    if (store_ != nullptr) {
      std::error_code ec;
      std::filesystem::remove(BlockPayloadPath(id), ec);
    }
  }
  files_.erase(it);
  return Status::OK();
}

std::vector<std::string> Dfs::List(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  std::vector<std::string> out;
  for (const auto& [path, meta] : files_) {
    if (path.compare(0, prefix.size(), prefix) == 0) out.push_back(path);
  }
  return out;
}

Status Dfs::MarkNodeDown(int node) {
  GESALL_RETURN_NOT_OK(init_status_);
  if (node < 0 || node >= options_.num_data_nodes) {
    return Status::InvalidArgument("bad node id");
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  nodes_[node].up = false;
  return Status::OK();
}

Status Dfs::MarkNodeUp(int node) {
  GESALL_RETURN_NOT_OK(init_status_);
  if (node < 0 || node >= options_.num_data_nodes) {
    return Status::InvalidArgument("bad node id");
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  nodes_[node].up = true;
  nodes_[node].declared_dead = false;
  nodes_[node].last_heartbeat_tick = tick_ - 1;
  health_[node] = NodeHealth{};
  return Status::OK();
}

Status Dfs::CrashNode(int node) { return MarkNodeDown(node); }

Status Dfs::RestartNode(int node) {
  GESALL_RETURN_NOT_OK(init_status_);
  if (node < 0 || node >= options_.num_data_nodes) {
    return Status::InvalidArgument("bad node id");
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  if (!nodes_[node].up) RestartNodeLocked(node);
  return Status::OK();
}

DfsStats Dfs::stats() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return stats_;
}

void Dfs::ResetStats() {
  std::lock_guard<std::mutex> lock(health_mu_);
  stats_ = DfsStats{};
}

bool Dfs::IsBlacklisted(int node) const {
  if (node < 0 || node >= static_cast<int>(health_.size())) return false;
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_[node].blacklisted;
}

bool Dfs::IsDeclaredDead(int node) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return false;
  std::lock_guard<std::mutex> lock(health_mu_);
  return nodes_[node].declared_dead;
}

int64_t Dfs::heartbeat_tick() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return tick_;
}

int64_t Dfs::BytesStoredOn(int node) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return 0;
  std::lock_guard<std::mutex> lock(health_mu_);
  int64_t n = 0;
  for (const auto& [id, bytes] : nodes_[node].blocks) {
    n += static_cast<int64_t>(bytes.size());
  }
  return n;
}

// ---------------------------------------------------------------------
// Durability: namespace journal + snapshots + block payload files.

std::string Dfs::BlockPayloadPath(int64_t block_id) const {
  return blocks_dir_ + "/blk_" + std::to_string(block_id);
}

Status Dfs::JournalLocked(std::string_view record) const {
  GESALL_RETURN_NOT_OK(store_->Append(record));
  ++stats_.journal_records_appended;
  return Status::OK();
}

void Dfs::JournalBestEffortLocked(std::string_view record) const {
  if (!JournalLocked(record).ok()) ++stats_.journal_append_failures;
}

void Dfs::MaybeCheckpointLocked() {
  if (store_ == nullptr || !store_->ShouldCheckpoint()) return;
  if (store_->Checkpoint(EncodeSnapshotLocked()).ok()) {
    ++stats_.snapshots_written;
  } else {
    ++stats_.journal_append_failures;
  }
}

void Dfs::EncodeBlock(BufferWriter* w, int64_t id, const BlockMeta& bm) {
  w->PutI64(id);
  w->PutI64(bm.length);
  w->PutI64(bm.stored_length);
  w->PutU8(bm.compressed ? 1 : 0);
  w->PutI32(bm.next_ordinal);
  w->PutU32(static_cast<uint32_t>(bm.chunk_sums.size()));
  for (uint32_t s : bm.chunk_sums) w->PutU32(s);
  w->PutU32(static_cast<uint32_t>(bm.replicas.size()));
  for (const Replica& r : bm.replicas) {
    w->PutI32(r.node);
    w->PutI32(r.ordinal);
  }
}

Status Dfs::DecodeBlock(BufferReader* r, int64_t* id, BlockMeta* bm) {
  GESALL_RETURN_NOT_OK(r->GetI64(id));
  GESALL_RETURN_NOT_OK(r->GetI64(&bm->length));
  GESALL_RETURN_NOT_OK(r->GetI64(&bm->stored_length));
  uint8_t compressed = 0;
  GESALL_RETURN_NOT_OK(r->GetU8(&compressed));
  bm->compressed = compressed != 0;
  int32_t next_ordinal = 0;
  GESALL_RETURN_NOT_OK(r->GetI32(&next_ordinal));
  bm->next_ordinal = next_ordinal;
  uint32_t n_sums = 0;
  GESALL_RETURN_NOT_OK(r->GetCount(&n_sums, sizeof(uint32_t)));
  bm->chunk_sums.resize(n_sums);
  for (uint32_t i = 0; i < n_sums; ++i) {
    GESALL_RETURN_NOT_OK(r->GetU32(&bm->chunk_sums[i]));
  }
  uint32_t n_replicas = 0;
  // A replica is two i32s.
  GESALL_RETURN_NOT_OK(r->GetCount(&n_replicas, 2 * sizeof(int32_t)));
  bm->replicas.resize(n_replicas);
  for (uint32_t i = 0; i < n_replicas; ++i) {
    int32_t node = 0;
    int32_t ordinal = 0;
    GESALL_RETURN_NOT_OK(r->GetI32(&node));
    GESALL_RETURN_NOT_OK(r->GetI32(&ordinal));
    bm->replicas[i] = {node, ordinal};
  }
  return Status::OK();
}

std::string Dfs::EncodeSnapshotLocked() const {
  std::string out;
  BufferWriter w(&out);
  w.PutU32(static_cast<uint32_t>(files_.size()));
  for (const auto& [path, fm] : files_) {
    w.PutString(path);
    w.PutI64(fm.size);
    w.PutU32(static_cast<uint32_t>(fm.blocks.size()));
    for (int64_t id : fm.blocks) w.PutI64(id);
  }
  w.PutU32(static_cast<uint32_t>(blocks_.size()));
  for (const auto& [id, bm] : blocks_) EncodeBlock(&w, id, bm);
  w.PutI64(next_block_id_);
  w.PutI64(tick_);
  return out;
}

Status Dfs::ApplySnapshotLocked(std::string_view payload) {
  BufferReader r(payload);
  uint32_t n_files = 0;
  GESALL_RETURN_NOT_OK(r.GetU32(&n_files));
  for (uint32_t i = 0; i < n_files; ++i) {
    std::string path;
    GESALL_RETURN_NOT_OK(r.GetString(&path));
    FileMeta fm;
    GESALL_RETURN_NOT_OK(r.GetI64(&fm.size));
    uint32_t n_blocks = 0;
    GESALL_RETURN_NOT_OK(r.GetCount(&n_blocks, sizeof(int64_t)));
    fm.blocks.resize(n_blocks);
    for (uint32_t b = 0; b < n_blocks; ++b) {
      GESALL_RETURN_NOT_OK(r.GetI64(&fm.blocks[b]));
    }
    files_[path] = std::move(fm);
  }
  uint32_t n_blocks = 0;
  GESALL_RETURN_NOT_OK(r.GetU32(&n_blocks));
  for (uint32_t b = 0; b < n_blocks; ++b) {
    int64_t id = 0;
    BlockMeta bm;
    GESALL_RETURN_NOT_OK(DecodeBlock(&r, &id, &bm));
    blocks_[id] = std::move(bm);
  }
  GESALL_RETURN_NOT_OK(r.GetI64(&next_block_id_));
  GESALL_RETURN_NOT_OK(r.GetI64(&tick_));
  return Status::OK();
}

Status Dfs::ApplyJournalRecordLocked(std::string_view record) {
  BufferReader r(record);
  uint8_t op = 0;
  GESALL_RETURN_NOT_OK(r.GetU8(&op));
  switch (op) {
    case kOpCreateFile: {
      std::string path;
      GESALL_RETURN_NOT_OK(r.GetString(&path));
      FileMeta fm;
      GESALL_RETURN_NOT_OK(r.GetI64(&fm.size));
      uint32_t n_blocks = 0;
      GESALL_RETURN_NOT_OK(r.GetU32(&n_blocks));
      // Replace any stale entry (the journaled delete precedes the
      // create, so this is purely defensive).
      auto stale = files_.find(path);
      if (stale != files_.end()) {
        for (int64_t id : stale->second.blocks) blocks_.erase(id);
        files_.erase(stale);
      }
      for (uint32_t b = 0; b < n_blocks; ++b) {
        int64_t id = 0;
        BlockMeta bm;
        GESALL_RETURN_NOT_OK(DecodeBlock(&r, &id, &bm));
        next_block_id_ = std::max(next_block_id_, id + 1);
        blocks_[id] = std::move(bm);
        fm.blocks.push_back(id);
      }
      files_[path] = std::move(fm);
      return Status::OK();
    }
    case kOpDeleteFile: {
      std::string path;
      GESALL_RETURN_NOT_OK(r.GetString(&path));
      auto it = files_.find(path);
      if (it == files_.end()) return Status::OK();  // idempotent
      for (int64_t id : it->second.blocks) blocks_.erase(id);
      files_.erase(it);
      return Status::OK();
    }
    case kOpAddReplica: {
      int64_t id = 0;
      int32_t node = 0;
      int32_t ordinal = 0;
      GESALL_RETURN_NOT_OK(r.GetI64(&id));
      GESALL_RETURN_NOT_OK(r.GetI32(&node));
      GESALL_RETURN_NOT_OK(r.GetI32(&ordinal));
      auto it = blocks_.find(id);
      if (it == blocks_.end()) return Status::OK();  // file since deleted
      for (const Replica& rep : it->second.replicas) {
        if (rep.node == node) return Status::OK();
      }
      it->second.replicas.push_back({node, ordinal});
      it->second.next_ordinal =
          std::max(it->second.next_ordinal, ordinal + 1);
      return Status::OK();
    }
    case kOpRemoveReplica: {
      int64_t id = 0;
      int32_t node = 0;
      GESALL_RETURN_NOT_OK(r.GetI64(&id));
      GESALL_RETURN_NOT_OK(r.GetI32(&node));
      auto it = blocks_.find(id);
      if (it == blocks_.end()) return Status::OK();
      auto& replicas = it->second.replicas;
      for (size_t i = 0; i < replicas.size(); ++i) {
        if (replicas[i].node == node) {
          replicas.erase(replicas.begin() + static_cast<int64_t>(i));
          break;
        }
      }
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown DFS journal opcode " +
                                std::to_string(op));
  }
}

Status Dfs::RecoverLocked() {
  const std::string& root = options_.durability.root_dir;
  blocks_dir_ = root + "/blocks";
  std::error_code ec;
  std::filesystem::create_directories(blocks_dir_, ec);
  if (ec) {
    return Status::IOError("creating block directory '" + blocks_dir_ +
                           "': " + ec.message());
  }
  store_ = std::make_unique<JournaledStore>(root + "/namespace",
                                            options_.durability);
  recovery_ = DfsRecoveryStats{};
  recovery_.recovered = true;
  GESALL_RETURN_NOT_OK(store_->Recover(
      [this](std::string_view p) { return ApplySnapshotLocked(p); },
      [this](std::string_view p) { return ApplyJournalRecordLocked(p); }));
  recovery_.snapshot_loaded = store_->snapshot_loaded();
  recovery_.journal_records_replayed = store_->replay_stats().records;
  recovery_.torn_tail = store_->replay_stats().torn_tail;

  // Load canonical payloads. A block whose payload file is missing or
  // mis-sized condemns its whole file: the create record went durable
  // but the payload never fully landed, so the file never existed as a
  // readable whole.
  std::map<int64_t, std::string> payloads;
  std::set<int64_t> bad_blocks;
  for (const auto& [id, bm] : blocks_) {
    Result<std::string> data = ReadFileToString(BlockPayloadPath(id));
    if (!data.ok() ||
        static_cast<int64_t>(data.ValueOrDie().size()) != bm.stored_length) {
      bad_blocks.insert(id);
    } else {
      payloads[id] = data.MoveValueUnsafe();
    }
  }
  for (auto it = files_.begin(); it != files_.end();) {
    bool damaged = false;
    for (int64_t id : it->second.blocks) damaged |= bad_blocks.count(id) > 0;
    if (damaged) {
      for (int64_t id : it->second.blocks) {
        blocks_.erase(id);
        payloads.erase(id);
      }
      it = files_.erase(it);
      ++recovery_.files_dropped;
    } else {
      ++recovery_.files_recovered;
      ++it;
    }
  }
  // Populate node storage from the canonical payloads; replicas naming
  // nodes outside the (possibly re-sized) cluster are dropped.
  for (auto& [id, bm] : blocks_) {
    auto& replicas = bm.replicas;
    for (size_t i = 0; i < replicas.size();) {
      const int node = replicas[i].node;
      if (node < 0 || node >= options_.num_data_nodes) {
        replicas.erase(replicas.begin() + static_cast<int64_t>(i));
        continue;
      }
      nodes_[node].blocks[id] = payloads[id];
      ++i;
    }
  }
  recovery_.blocks_recovered = static_cast<int64_t>(blocks_.size());
  return Status::OK();
}

Status Dfs::SimulateCrash() {
  GESALL_RETURN_NOT_OK(init_status_);
  std::lock_guard<std::mutex> lock(health_mu_);
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "SimulateCrash requires DfsOptions::durability.root_dir");
  }
  // Kill: every in-memory structure dies with the process image; the
  // store's file handles close without a checkpoint.
  store_.reset();
  files_.clear();
  blocks_.clear();
  verified_.clear();
  nodes_.assign(static_cast<size_t>(options_.num_data_nodes), DataNode{});
  health_.assign(static_cast<size_t>(options_.num_data_nodes), NodeHealth{});
  next_block_id_ = 1;
  tick_ = 0;
  // Restart: reconstruct from the durable root alone.
  return RecoverLocked();
}

DfsRecoveryStats Dfs::recovery_stats() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return recovery_;
}

}  // namespace gesall
