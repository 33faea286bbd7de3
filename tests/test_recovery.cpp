// Crash-recovery subsystem (DESIGN.md §10): durable replica log,
// threshold-signed checkpoints, and the catch-up protocol, exercised
// from the storage primitives up to a full simulated crash + restart of
// a replica::Replica.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "recovery/checkpoint.hpp"
#include "recovery/recovery_manager.hpp"
#include "recovery/replica_log.hpp"
#include "recovery/state_store.hpp"
#include "replica/replica.hpp"
#include "sim_fixture.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"

namespace sintra::recovery {
namespace {

using sintra::testing::Cluster;

/// Fresh directory under the system temp root, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("sintra_recovery_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  return s;
}

// ---------------------------------------------------------------- crc32

TEST(Crc32, KnownVectors) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(util::crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(util::crc32(BytesView{}), 0x00000000u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  std::uint32_t state = util::crc32_init();
  state = util::crc32_update(state, BytesView(data).subspan(0, 7));
  state = util::crc32_update(state, BytesView(data).subspan(7));
  EXPECT_EQ(util::crc32_final(state), util::crc32(data));
}

// ----------------------------------------------------------- atomic_file

TEST(AtomicFile, WritesAndReplaces) {
  TempDir dir("atomic_file");
  const std::string path = dir.str() + "/snap";
  ASSERT_TRUE(util::atomic_write_file(path, std::string_view("first")));
  EXPECT_EQ(read_file(path), "first");
  ASSERT_TRUE(util::atomic_write_file(path, to_bytes("second, longer")));
  EXPECT_EQ(read_file(path), "second, longer");
  // No temporary sibling left behind.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicFile, FailsIntoErrorString) {
  std::string error;
  EXPECT_FALSE(util::atomic_write_file("/nonexistent-dir-xyz/f",
                                       std::string_view("x"), &error));
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------ replica log

TEST(ReplicaLog, RoundtripAndMissingFileIsEmpty) {
  TempDir dir("log_roundtrip");
  const std::string path = dir.str() + "/replica.log";

  const auto empty = ReplicaLog::load(path);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.truncated);

  {
    ReplicaLog log(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.append(to_bytes("one")));
    ASSERT_TRUE(log.append(to_bytes("")));  // empty records are legal
    ASSERT_TRUE(log.append(to_bytes("three")));
  }
  const auto loaded = ReplicaLog::load(path);
  EXPECT_FALSE(loaded.truncated);
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_EQ(to_string(loaded.records[0]), "one");
  EXPECT_EQ(to_string(loaded.records[1]), "");
  EXPECT_EQ(to_string(loaded.records[2]), "three");
}

TEST(ReplicaLog, TornTailIsTruncatedAndRepaired) {
  TempDir dir("log_torn");
  const std::string path = dir.str() + "/replica.log";
  {
    ReplicaLog log(path);
    ASSERT_TRUE(log.append(to_bytes("alpha")));
    ASSERT_TRUE(log.append(to_bytes("beta")));
  }
  // A crash mid-append leaves a partial frame: a length prefix with no
  // payload behind it.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {0, 0, 0, 42, 1};
    out.write(torn, sizeof torn);
  }
  const auto loaded = ReplicaLog::load(path);
  EXPECT_TRUE(loaded.truncated);
  ASSERT_EQ(loaded.records.size(), 2u);

  // Repair (what replay_local does), then appends extend a valid log.
  ASSERT_TRUE(ReplicaLog::truncate_to(path, loaded.valid_bytes));
  {
    ReplicaLog log(path);
    ASSERT_TRUE(log.append(to_bytes("gamma")));
  }
  const auto repaired = ReplicaLog::load(path);
  EXPECT_FALSE(repaired.truncated);
  ASSERT_EQ(repaired.records.size(), 3u);
  EXPECT_EQ(to_string(repaired.records[2]), "gamma");
}

TEST(ReplicaLog, CorruptMiddleDiscardsSuffix) {
  TempDir dir("log_corrupt");
  const std::string path = dir.str() + "/replica.log";
  {
    ReplicaLog log(path);
    ASSERT_TRUE(log.append(to_bytes("first-record")));
    ASSERT_TRUE(log.append(to_bytes("second-record")));
  }
  // Flip one payload byte of the FIRST record: the valid prefix is empty,
  // even though the second frame is intact (prefix semantics).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10);  // inside the first record's payload
    char b = 0;
    f.seekg(10);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(10);
    f.write(&b, 1);
  }
  const auto loaded = ReplicaLog::load(path);
  EXPECT_TRUE(loaded.truncated);
  EXPECT_EQ(loaded.records.size(), 0u);
  EXPECT_EQ(loaded.valid_bytes, 0u);
}

// ------------------------------------------------------------ state store

TEST(StateStore, BootCounterAndBlobs) {
  TempDir dir("state_store");
  const std::string sub = dir.str() + "/nested/state";  // created on demand
  {
    StateStore store(sub);
    EXPECT_EQ(store.bump_boot(), 1u);
    EXPECT_EQ(store.bump_boot(), 2u);
    ASSERT_TRUE(store.save_blob("cluster.chan", to_bytes("cert-bytes")));
  }
  StateStore reopened(sub);
  EXPECT_EQ(reopened.bump_boot(), 3u);  // durable across instances
  const auto blob = reopened.load_blob("cluster.chan");
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(to_string(*blob), "cert-bytes");
  EXPECT_FALSE(reopened.load_blob("never-saved").has_value());
}

// ------------------------------------------------- digest chain and certs

TEST(Checkpoint, ChainIsDeterministicAndPositionBound) {
  const Bytes d0 = chain_init("chan");
  EXPECT_EQ(d0, chain_init("chan"));
  EXPECT_NE(d0, chain_init("other-chan"));
  const Bytes d1 = chain_next(d0, 1, 0, to_bytes("m"));
  EXPECT_EQ(d1, chain_next(d0, 1, 0, to_bytes("m")));
  EXPECT_NE(d1, chain_next(d0, 2, 0, to_bytes("m")));      // seq bound
  EXPECT_NE(d1, chain_next(d0, 1, 1, to_bytes("m")));      // origin bound
  EXPECT_NE(d1, chain_next(d0, 1, 0, to_bytes("m2")));     // payload bound
}

TEST(Checkpoint, CertRoundtripAndThresholdVerify) {
  const crypto::Deal deal = sintra::testing::cached_deal(4, 1);
  auto& scheme = *deal.parties[0].sig_agreement;  // k = n - t = 3

  CheckpointCert cert;
  cert.seq = 8;
  cert.final = true;
  cert.digest = chain_next(chain_init("chan"), 1, 0, to_bytes("m"));
  const Bytes stmt =
      checkpoint_statement("chan", cert.seq, cert.final, cert.digest);
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 3; ++i) {
    shares.emplace_back(i, deal.parties[static_cast<std::size_t>(i)]
                               .sig_agreement->sign_share(stmt));
  }
  cert.sig = scheme.combine(stmt, shares);

  EXPECT_TRUE(verify_cert(scheme, "chan", cert));

  // Encode/decode preserves every field and the signature still checks.
  const CheckpointCert back = decode_cert(encode_cert(cert));
  EXPECT_EQ(back.seq, cert.seq);
  EXPECT_EQ(back.final, cert.final);
  EXPECT_EQ(back.digest, cert.digest);
  EXPECT_TRUE(verify_cert(scheme, "chan", back));

  // Any tampering breaks the single threshold verification.
  CheckpointCert bad = cert;
  bad.seq = 9;
  EXPECT_FALSE(verify_cert(scheme, "chan", bad));
  bad = cert;
  bad.final = false;
  EXPECT_FALSE(verify_cert(scheme, "chan", bad));
  bad = cert;
  bad.digest[0] ^= 1;
  EXPECT_FALSE(verify_cert(scheme, "chan", bad));
  EXPECT_FALSE(verify_cert(scheme, "other-chan", cert));
}

// --------------------------------------------------------- replay (local)

TEST(RecoveryManager, ReplaysLogAcrossGenerations) {
  Cluster c(4, 1, 11);
  TempDir dir("replay");
  StateStore store(dir.str());
  RecoveryManager::Options opts;
  opts.checkpoint_interval = 1000;  // no checkpoint traffic in this test

  {
    RecoveryManager first(c.sim.node(0), c.sim.node(0).dispatcher(), "chan",
                          &store, opts);
    first.on_delivered(to_bytes("r1"), 2);
    first.on_delivered(to_bytes("r2"), 0);
    first.on_delivered(to_bytes("r3"), -1);  // unknown origin
    EXPECT_EQ(first.delivered_seq(), 3u);
  }

  RecoveryManager second(c.sim.node(0), c.sim.node(0).dispatcher(), "chan",
                         &store, opts);
  std::vector<RecoveryManager::Record> applied;
  second.set_apply_callback(
      [&](const RecoveryManager::Record& r) { applied.push_back(r); });
  EXPECT_EQ(second.replay_local(), 3u);
  EXPECT_EQ(second.delivered_seq(), 3u);
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0].seq, 1u);
  EXPECT_EQ(to_string(applied[0].payload), "r1");
  EXPECT_EQ(applied[0].origin, 2u);
  EXPECT_EQ(to_string(applied[1].payload), "r2");
  EXPECT_EQ(applied[2].origin, 0xFFFFFFFFu);  // -1 recorded as unknown
  EXPECT_FALSE(second.caught_up());  // replay alone proves nothing final
}

// ------------------------------------------- full crash + restart (sim)

/// One replica::Replica (the class sintra_node runs) and what it executed.
struct Party {
  std::unique_ptr<TempDir> dir;        // its durable state directory
  std::unique_ptr<replica::Replica> replica;
  std::vector<std::string> executed;   // in order
};

/// Runs the shared first act: four replicas on an atomic channel, each
/// with a durable state directory; parties 0..2 submit two payloads
/// each, party 3 is SIGKILLed (crash-stop) after `crash_after`
/// executions, the survivors run to completion, close the channel and
/// assemble the final checkpoint certificate.
class CrashRecoveryTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kTotal = 6;

  static replica::Replica::Options options(const std::string& state_dir,
                                           int send_count,
                                           replica::Replica::Options o = {}) {
    o.send_count = send_count;
    o.state_dir = state_dir;
    o.checkpoint_interval = 2;
    return o;
  }

  static void attach(Party& p) {
    p.replica->set_execute_callback([sink = &p.executed](const Bytes& b) {
      sink->push_back(to_string(b));
    });
  }

  void run_first_act(Cluster& c, const std::string& name,
                     std::size_t crash_after, std::vector<Party>& parties,
                     replica::Replica::Options base = {}) {
    parties.reserve(4);  // attach() keeps pointers into the elements
    for (int i = 0; i < 4; ++i) {
      Party p;
      p.dir = std::make_unique<TempDir>(name + "_" + std::to_string(i));
      p.replica = std::make_unique<replica::Replica>(
          c.sim.node(i), c.sim.node(i).dispatcher(),
          options(p.dir->str(), i < 3 ? 2 : 0, base));
      EXPECT_FALSE(p.replica->recovering());
      parties.push_back(std::move(p));
      attach(parties.back());
    }
    for (int i = 0; i < 4; ++i) {
      c.sim.at(1.0 + i, i, [&parties, i] {
        parties[static_cast<std::size_t>(i)].replica->start();
      });
    }

    // Party 3 dies only after `crash_after` executions hit its disk.
    ASSERT_TRUE(c.sim.run_until(
        [&] { return parties[3].executed.size() >= crash_after; }, 4e6));
    c.sim.node(3).crash();

    // The three survivors (exactly n - t = k) finish and close.
    ASSERT_TRUE(c.sim.run_until(
        [&] {
          for (int i = 0; i < 3; ++i) {
            if (parties[static_cast<std::size_t>(i)].executed.size() < kTotal)
              return false;
          }
          return true;
        },
        4e6));
    for (int i = 0; i < 3; ++i) {
      c.sim.at(c.sim.now_ms() + 1.0, i, [&parties, i] {
        parties[static_cast<std::size_t>(i)].replica->close();
      });
    }
    ASSERT_TRUE(c.sim.run_until(
        [&] {
          for (int i = 0; i < 3; ++i) {
            const auto& cert = parties[static_cast<std::size_t>(i)]
                                   .replica->recovery()
                                   ->latest_cert();
            if (!cert.has_value() || !cert->final) return false;
          }
          return true;
        },
        4e6));
    for (int i = 0; i < 3; ++i) {
      const Party& p = parties[static_cast<std::size_t>(i)];
      EXPECT_TRUE(p.replica->completed());
      EXPECT_EQ(p.replica->recovery()->latest_cert()->seq, kTotal);
    }
  }

  /// Second act: restart party 3 from its state directory — a Replica
  /// built there detects the restart — and drive replay + catch-up to
  /// completion.  Returns what the restarted replica executed.
  std::vector<std::string> recover_party3(Cluster& c,
                                          std::vector<Party>& parties,
                                          std::size_t* replayed_out) {
    Party& p = parties[3];
    // Protocols hold references into the dead incarnation: drop them
    // first, exactly as the docs on restart_node require.
    p.replica.reset();
    p.executed.clear();
    sim::Node& reborn = c.sim.restart_node(3);
    EXPECT_EQ(c.sim.boots(3), 2u);

    p.replica = std::make_unique<replica::Replica>(
        reborn, reborn.dispatcher(), options(p.dir->str(), 0));
    EXPECT_TRUE(p.replica->recovering());
    attach(p);
    c.sim.at(c.sim.now_ms() + 1.0, 3, [&p] { p.replica->start(); });
    EXPECT_TRUE(c.sim.run_until([&] { return p.replica->completed(); },
                                c.sim.now_ms() + 4e6));
    EXPECT_TRUE(p.replica->recovery()->caught_up());
    if (replayed_out != nullptr) *replayed_out = p.replica->replayed();
    return p.executed;
  }
};

TEST_F(CrashRecoveryTest, RestartedPartyConvergesDeterministically) {
  Cluster c(4, 1, 21);
  std::vector<Party> parties;
  run_first_act(c, "crash_restart", /*crash_after=*/2, parties);

  std::size_t replayed = 0;
  const std::vector<std::string> recovered =
      recover_party3(c, parties, &replayed);

  // The log held exactly what party 3 executed before the crash; replay
  // plus catch-up reconstructs the survivors' stream bit for bit.
  EXPECT_GE(replayed, 2u);
  EXPECT_LT(replayed, kTotal);
  EXPECT_EQ(recovered, parties[0].executed);
  EXPECT_EQ(parties[1].executed, parties[0].executed);
  EXPECT_EQ(parties[2].executed, parties[0].executed);
  const recovery::RecoveryManager& rec3 = *parties[3].replica->recovery();
  EXPECT_EQ(rec3.delivered_seq(), kTotal);
  ASSERT_TRUE(rec3.latest_cert().has_value());
  EXPECT_TRUE(rec3.latest_cert()->final);

  // Determinism: the whole scenario replays identically under the same
  // seed (the point of deterministic crash+restart in the simulator).
  Cluster c2(4, 1, 21);
  std::vector<Party> parties2;
  run_first_act(c2, "crash_restart_2", /*crash_after=*/2, parties2);
  const std::vector<std::string> recovered2 =
      recover_party3(c2, parties2, nullptr);
  EXPECT_EQ(recovered2, recovered);
  EXPECT_EQ(parties2[0].executed, parties[0].executed);
}

TEST_F(CrashRecoveryTest, PipelinedChannelRecoversMidPipeline) {
  // Throughput mode (DESIGN.md §11): party 3 is SIGKILLed while several
  // rounds are in flight and bundles carry multiple payloads.  The
  // durable log + catch-up must still reconstruct the survivors' stream
  // exactly — recovery keys off the delivered sequence, which stays
  // strictly round-ordered under pipelining.
  replica::Replica::Options pipelined;
  pipelined.batch_count = 4;
  pipelined.pipeline_depth = 3;
  Cluster c(4, 1, 23);
  std::vector<Party> parties;
  run_first_act(c, "crash_pipelined", /*crash_after=*/2, parties, pipelined);

  std::size_t replayed = 0;
  const std::vector<std::string> recovered =
      recover_party3(c, parties, &replayed);

  EXPECT_GE(replayed, 2u);
  EXPECT_EQ(recovered, parties[0].executed);
  EXPECT_EQ(parties[1].executed, parties[0].executed);
  EXPECT_EQ(parties[2].executed, parties[0].executed);
  const recovery::RecoveryManager& rec3 = *parties[3].replica->recovery();
  EXPECT_EQ(rec3.delivered_seq(), kTotal);
  ASSERT_TRUE(rec3.latest_cert().has_value());
  EXPECT_TRUE(rec3.latest_cert()->final);
}

TEST_F(CrashRecoveryTest, CorruptedLogFallsBackToCatchup) {
  Cluster c(4, 1, 22);
  std::vector<Party> parties;
  run_first_act(c, "crash_corrupt", /*crash_after=*/3, parties);

  // Bit rot on party 3's disk: flip a byte inside the log's final frame.
  const std::string dir3 = parties[3].dir->str();
  const std::string log_path =
      StateStore(dir3).log_path(parties[3].replica->pid());
  const std::size_t logged = ReplicaLog::load(log_path).records.size();
  ASSERT_GE(logged, 3u);
  const std::size_t size = std::filesystem::file_size(log_path);
  ASSERT_GT(size, 2u);
  {
    std::fstream f(log_path, std::ios::binary | std::ios::in | std::ios::out);
    char b = 0;
    f.seekg(static_cast<std::streamoff>(size - 2));
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(static_cast<std::streamoff>(size - 2));
    f.write(&b, 1);
  }

  std::size_t replayed = 0;
  const std::vector<std::string> recovered =
      recover_party3(c, parties, &replayed);

  // Replay stopped at the corruption, catch-up supplied the difference,
  // and the stream still converges with the survivors'.
  EXPECT_EQ(replayed, logged - 1);
  EXPECT_EQ(recovered, parties[0].executed);
  EXPECT_EQ(parties[3].replica->recovery()->delivered_seq(), kTotal);

  // The repaired log was re-extended: a THIRD incarnation replays the
  // complete stream from disk alone, and the persisted final certificate
  // makes it caught up without network.
  parties[3].replica.reset();
  sim::Node& third = c.sim.restart_node(3);
  replica::Replica again(third, third.dispatcher(), options(dir3, 0));
  ASSERT_TRUE(again.recovering());
  std::size_t from_disk = 0;
  again.set_execute_callback([&](const Bytes&) { ++from_disk; });
  c.sim.at(c.sim.now_ms() + 1.0, 3, [&] { again.start(); });
  c.sim.run(c.sim.now_ms() + 2.0);
  EXPECT_EQ(again.replayed(), kTotal);
  EXPECT_EQ(from_disk, kTotal);
  EXPECT_TRUE(again.recovery()->caught_up());
  EXPECT_TRUE(again.completed());
}

}  // namespace
}  // namespace sintra::recovery
