// Namenode durability: journaled namespace + payload files survive
// SimulateCrash() and fresh construction on the same root; mutations
// (replace, delete, quarantine, dead-node re-replication) replay to the
// same namespace; filesystem failures surface as IOError.

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dfs/dfs.h"
#include "util/fault_injection.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/wal.h"

namespace gesall {
namespace {

namespace fs = std::filesystem;

class DfsDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("gesall_dfs_durability_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  DfsOptions DurableOptions() const {
    DfsOptions options;
    options.block_size = 64 * 1024;
    options.replication = 2;
    options.num_data_nodes = 4;
    options.durability.root_dir = root_;
    options.durability.snapshot_every_records = 8;
    return options;
  }

  static std::string Payload(size_t n, uint64_t seed) {
    std::string out(n, '\0');
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<char>(MixSeeds(seed, i) % 256);
    }
    return out;
  }

  // The namespace store a Dfs rooted at root_ recovers from, recovered
  // empty: a hand-made record or snapshot lands in it CRC-framed.
  std::unique_ptr<JournaledStore> EmptyNamespaceStore() const {
    auto store = std::make_unique<JournaledStore>(root_ + "/namespace",
                                                  DurableOptions().durability);
    auto none = [](std::string_view) { return Status::OK(); };
    EXPECT_TRUE(store->Recover(none, none).ok());
    return store;
  }

  // Block 1 as the namespace encodes it: four stored bytes on node 0,
  // with the chunk-sum and replica counts given, each count followed by
  // one real element.
  static void PutBlock(BufferWriter* w, uint32_t n_sums,
                       uint32_t n_replicas) {
    w->PutI64(1);  // block id
    w->PutI64(4);  // length
    w->PutI64(4);  // stored length
    w->PutU8(0);   // not compressed
    w->PutI32(1);  // next replica ordinal
    w->PutU32(n_sums);
    w->PutU32(0);
    w->PutU32(n_replicas);
    w->PutI32(0);  // node
    w->PutI32(0);  // ordinal
  }

  std::string root_;
};

TEST_F(DfsDurabilityTest, ValidationRejectsBadDurabilityKnobs) {
  DfsOptions options = DurableOptions();
  options.durability.fsync_every_records = 0;
  EXPECT_TRUE(Dfs::ValidateOptions(options).IsInvalidArgument());
  Dfs dfs(options);  // invalid options poison every operation
  EXPECT_TRUE(dfs.Write("/f", "x").IsInvalidArgument());
}

TEST_F(DfsDurabilityTest, UnwritableRootSurfacesIOError) {
  DfsOptions options = DurableOptions();
  options.durability.root_dir = "/proc/gesall-no-such-writable-root";
  Dfs dfs(options);
  Status st = dfs.Write("/f", "x");
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST_F(DfsDurabilityTest, SimulateCrashRequiresDurability) {
  Dfs dfs(DfsOptions{});
  EXPECT_TRUE(dfs.SimulateCrash().IsInvalidArgument());
  EXPECT_FALSE(dfs.recovery_stats().recovered);
}

TEST_F(DfsDurabilityTest, CrashRecoversFilesByteIdentical) {
  Dfs dfs(DurableOptions());
  const std::string small = Payload(100, 1);
  const std::string multi = Payload(200 * 1024, 2);  // several blocks
  LogicalPartitionPlacementPolicy logical;
  ASSERT_TRUE(dfs.Write("/a/small", small).ok());
  ASSERT_TRUE(dfs.Write("/a/multi", multi, &logical).ok());
  ASSERT_TRUE(dfs.Write("/a/empty", "").ok());

  ASSERT_TRUE(dfs.SimulateCrash().ok());

  const DfsRecoveryStats rec = dfs.recovery_stats();
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.files_recovered, 3);
  EXPECT_EQ(rec.files_dropped, 0);
  EXPECT_GE(rec.journal_records_replayed + (rec.snapshot_loaded ? 1 : 0), 1);

  EXPECT_EQ(dfs.Read("/a/small").ValueOrDie(), small);
  EXPECT_EQ(dfs.Read("/a/multi").ValueOrDie(), multi);
  EXPECT_EQ(dfs.Read("/a/empty").ValueOrDie(), "");
  EXPECT_EQ(dfs.List("/a").size(), 3u);
  // Placement metadata survives too: the logical partition still has
  // all blocks on one primary.
  auto locs = dfs.Locate("/a/multi").ValueOrDie();
  ASSERT_GE(locs.size(), 2u);
  for (const auto& loc : locs) {
    EXPECT_EQ(loc.replicas[0], locs[0].replicas[0]);
  }
}

TEST_F(DfsDurabilityTest, FreshInstanceOnSameRootRecovers) {
  const std::string data = Payload(70 * 1024, 3);
  {
    Dfs dfs(DurableOptions());
    ASSERT_TRUE(dfs.Write("/keep", data).ok());
    ASSERT_TRUE(dfs.Write("/gone", "temporary").ok());
    ASSERT_TRUE(dfs.Delete("/gone").ok());
    ASSERT_TRUE(dfs.Write("/keep2", "v2").ok());
  }  // destructor: no checkpoint required, the journal carries it all
  Dfs dfs(DurableOptions());
  EXPECT_TRUE(dfs.recovery_stats().recovered);
  EXPECT_EQ(dfs.Read("/keep").ValueOrDie(), data);
  EXPECT_EQ(dfs.Read("/keep2").ValueOrDie(), "v2");
  EXPECT_FALSE(dfs.Exists("/gone"));
}

TEST_F(DfsDurabilityTest, ReplaceSemanticsSurviveCrash) {
  Dfs dfs(DurableOptions());
  ASSERT_TRUE(dfs.Write("/f", Payload(80 * 1024, 4)).ok());
  const std::string v2 = Payload(1000, 5);
  ASSERT_TRUE(dfs.Write("/f", v2).ok());
  ASSERT_TRUE(dfs.SimulateCrash().ok());
  EXPECT_EQ(dfs.Read("/f").ValueOrDie(), v2);
  EXPECT_EQ(dfs.FileSize("/f").ValueOrDie(), 1000);
  EXPECT_EQ(dfs.recovery_stats().files_recovered, 1);
}

TEST_F(DfsDurabilityTest, SnapshotCompactionBoundsJournalAndRecovers) {
  DfsOptions options = DurableOptions();
  options.durability.snapshot_every_records = 4;
  std::vector<std::string> contents;
  {
    Dfs dfs(options);
    for (int i = 0; i < 20; ++i) {
      contents.push_back(Payload(500 + i * 37, 100 + i));
      ASSERT_TRUE(
          dfs.Write("/f" + std::to_string(i), contents.back()).ok());
    }
    EXPECT_GE(dfs.stats().snapshots_written, 1);
  }
  Dfs dfs(options);
  EXPECT_TRUE(dfs.recovery_stats().snapshot_loaded);
  // Replay after compaction covers only the tail, not all 20 creates.
  EXPECT_LT(dfs.recovery_stats().journal_records_replayed, 20);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(dfs.Read("/f" + std::to_string(i)).ValueOrDie(),
              contents[static_cast<size_t>(i)]);
  }
}

TEST_F(DfsDurabilityTest, QuarantineAndReReplicationSurviveCrash) {
  DfsOptions options = DurableOptions();
  Dfs dfs(options);
  FaultInjector injector(11);
  dfs.set_fault_injector(&injector);
  const std::string data = Payload(64 * 1024, 6);
  ASSERT_TRUE(dfs.Write("/f", data).ok());

  // Corrupt the write-time first replica of every block; the read
  // detects it, quarantines, and still serves from the healthy copy.
  ASSERT_TRUE(injector.ArmFirstAttempts(kFaultDfsBlockCorrupt, 1).ok());
  EXPECT_EQ(dfs.Read("/f").ValueOrDie(), data);
  EXPECT_GE(dfs.stats().replicas_quarantined, 1);
  // Scrub re-replicates back up to target.
  ASSERT_TRUE(dfs.Tick().ok());
  EXPECT_GE(dfs.stats().blocks_re_replicated, 1);
  injector.DisarmAll();

  ASSERT_TRUE(dfs.SimulateCrash().ok());
  // The recovered namespace reads clean (canonical payloads were never
  // rotted) and is back at full replication.
  EXPECT_EQ(dfs.Read("/f").ValueOrDie(), data);
  auto locs = dfs.Locate("/f").ValueOrDie();
  for (const auto& loc : locs) {
    EXPECT_EQ(static_cast<int>(loc.replicas.size()), options.replication);
  }
}

TEST_F(DfsDurabilityTest, DeadNodeReplicaMapSurvivesCrash) {
  DfsOptions options = DurableOptions();
  options.heartbeat_miss_threshold = 1;
  Dfs dfs(options);
  const std::string data = Payload(32 * 1024, 7);
  ASSERT_TRUE(dfs.Write("/f", data).ok());
  auto before = dfs.Locate("/f").ValueOrDie();
  const int victim = before[0].replicas[0];
  ASSERT_TRUE(dfs.CrashNode(victim).ok());
  ASSERT_TRUE(dfs.Tick().ok());
  ASSERT_TRUE(dfs.Tick().ok());  // declare dead + re-replicate
  EXPECT_TRUE(dfs.IsDeclaredDead(victim));

  ASSERT_TRUE(dfs.SimulateCrash().ok());
  EXPECT_EQ(dfs.Read("/f").ValueOrDie(), data);
  // The dead node's replica was journaled away; the re-replicated copy
  // landed elsewhere and both facts survived the crash.
  auto after = dfs.Locate("/f").ValueOrDie();
  for (const auto& loc : after) {
    EXPECT_EQ(static_cast<int>(loc.replicas.size()), options.replication);
    for (int node : loc.replicas) EXPECT_NE(node, victim);
  }
}

TEST_F(DfsDurabilityTest, TornJournalTailDropsOnlyLastFile) {
  DfsOptions options = DurableOptions();
  options.durability.snapshot_every_records = 0;  // keep the full journal
  {
    Dfs dfs(options);
    ASSERT_TRUE(dfs.Write("/first", Payload(100, 8)).ok());
    ASSERT_TRUE(dfs.Write("/second", Payload(100, 9)).ok());
  }
  // Tear the journal inside the last record, as a crash mid-append.
  const std::string journal = root_ + "/namespace/journal-0.log";
  ASSERT_TRUE(fs::exists(journal));
  fs::resize_file(journal, fs::file_size(journal) - 7);

  Dfs dfs(options);
  const DfsRecoveryStats rec = dfs.recovery_stats();
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_TRUE(dfs.Exists("/first"));
  EXPECT_FALSE(dfs.Exists("/second"));  // its create record was torn
  EXPECT_EQ(dfs.Read("/first").ValueOrDie(), Payload(100, 8));
}

TEST_F(DfsDurabilityTest, MissingPayloadDropsWholeFile) {
  {
    Dfs dfs(DurableOptions());
    ASSERT_TRUE(dfs.Write("/ok", Payload(100, 10)).ok());
    ASSERT_TRUE(dfs.Write("/hollow", Payload(100, 11)).ok());
  }
  // Simulate the payload write never reaching disk for /hollow: delete
  // its (second) block payload file.
  std::vector<fs::path> blocks;
  for (const auto& e : fs::directory_iterator(root_ + "/blocks")) {
    blocks.push_back(e.path());
  }
  ASSERT_EQ(blocks.size(), 2u);
  std::sort(blocks.begin(), blocks.end());
  fs::remove(blocks.back());

  Dfs dfs(DurableOptions());
  EXPECT_EQ(dfs.recovery_stats().files_dropped, 1);
  EXPECT_EQ(dfs.recovery_stats().files_recovered, 1);
  EXPECT_TRUE(dfs.Exists("/ok"));
  EXPECT_FALSE(dfs.Exists("/hollow"));
}

// A CRC-valid create record whose block claims 0xFFFFFFF0 chunk sums, or
// as many replicas, over the few bytes that follow fails recovery as
// Corruption. With truthful counts the same record replays (and drops
// the file, whose payload never landed).
TEST_F(DfsDurabilityTest, LyingBlockCountsFailRecovery) {
  auto create = [](uint32_t n_sums, uint32_t n_replicas) {
    std::string record;
    BufferWriter w(&record);
    w.PutU8(1);  // create-file opcode
    w.PutString("/f");
    w.PutI64(4);  // file size
    w.PutU32(1);  // blocks
    PutBlock(&w, n_sums, n_replicas);
    return record;
  };
  const std::pair<uint32_t, uint32_t> counts[] = {
      {1, 1}, {0xFFFFFFF0u, 1}, {1, 0xFFFFFFF0u}};
  for (const auto& [n_sums, n_replicas] : counts) {
    fs::remove_all(root_);
    {
      auto store = EmptyNamespaceStore();
      ASSERT_TRUE(store->Append(create(n_sums, n_replicas)).ok());
      ASSERT_TRUE(store->Sync().ok());
    }
    Dfs dfs(DurableOptions());
    const Status status = dfs.Write("/g", "x");
    if (n_sums == 1 && n_replicas == 1) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(dfs.recovery_stats().journal_records_replayed, 1);
      EXPECT_EQ(dfs.recovery_stats().files_dropped, 1);
    } else {
      EXPECT_TRUE(status.IsCorruption())
          << n_sums << " sums, " << n_replicas << " replicas: "
          << status.ToString();
    }
  }
}

// A CRC-valid snapshot whose file claims 0xFFFFFFF0 blocks over the few
// bytes that follow fails recovery as Corruption; with one block it loads.
TEST_F(DfsDurabilityTest, LyingSnapshotBlockCountFailsRecovery) {
  auto snapshot = [](uint32_t n_blocks) {
    std::string payload;
    BufferWriter w(&payload);
    w.PutU32(1);  // files
    w.PutString("/f");
    w.PutI64(4);  // file size
    w.PutU32(n_blocks);
    w.PutI64(1);  // block id
    w.PutU32(1);  // blocks
    PutBlock(&w, 1, 1);
    w.PutI64(2);  // next block id
    w.PutI64(0);  // heartbeat tick
    return payload;
  };
  for (uint32_t n_blocks : {1u, 0xFFFFFFF0u}) {
    fs::remove_all(root_);
    ASSERT_TRUE(EmptyNamespaceStore()->Checkpoint(snapshot(n_blocks)).ok());
    Dfs dfs(DurableOptions());
    const Status status = dfs.Write("/g", "x");
    if (n_blocks == 1) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      EXPECT_TRUE(dfs.recovery_stats().snapshot_loaded);
      EXPECT_EQ(dfs.recovery_stats().files_dropped, 1);
    } else {
      EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    }
  }
}

}  // namespace
}  // namespace gesall
