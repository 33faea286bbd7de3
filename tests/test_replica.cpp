// replica::Replica on the simulator: the composition sintra_node runs
// (channel + client gateway + recovery + completion), driven through the
// same public surface — local submissions, close, the `expect` rule, and
// a crash + restart that replays the durable log and catches up.
#include "replica/replica.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim_fixture.hpp"

namespace sintra::replica {
namespace {

using testing::Cluster;

/// Four replicas on one simulated group, recording what each executed.
struct Group {
  Cluster cluster;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<std::vector<std::string>> executed;

  explicit Group(std::uint64_t seed) : cluster(4, 1, seed) {
    replicas.resize(4);
    executed.resize(4);
  }
  Group(std::uint64_t seed, const Replica::Options& opts) : Group(seed) {
    for (int i = 0; i < 4; ++i) add(i, opts);
  }

  /// (Re)builds replica `i` on the current incarnation of its node.
  void add(int i, const Replica::Options& opts) {
    sim::Node& node = cluster.sim.node(i);
    auto& r = replicas[static_cast<std::size_t>(i)];
    r = std::make_unique<Replica>(node, node.dispatcher(), opts);
    r->set_execute_callback([this, i](const Bytes& payload) {
      executed[static_cast<std::size_t>(i)].push_back(to_string(payload));
    });
  }

  void start(int i, double at_ms) {
    cluster.sim.at(at_ms, i, [this, i] {
      replicas[static_cast<std::size_t>(i)]->start();
    });
  }

  bool run_until_completed(const std::vector<int>& who) {
    return cluster.sim.run_until(
        [&] {
          for (int i : who) {
            if (!replicas[static_cast<std::size_t>(i)]->completed()) {
              return false;
            }
          }
          return true;
        },
        cluster.sim.now_ms() + 4e6);
  }
};

/// Every payload "p<i>:<k>" for k < per_replica from each replica.
std::vector<std::string> expected_payloads(int per_replica) {
  std::vector<std::string> out;
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < per_replica; ++k) {
      out.push_back("p" + std::to_string(i) + ":" + std::to_string(k));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ReplicaChannels : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplicaChannels, LocalSubmissionsCloseAndComplete) {
  Replica::Options opts;
  opts.channel = GetParam();
  opts.send_count = 3;
  opts.close_after_send = true;
  Group g(7, opts);
  for (int i = 0; i < 4; ++i) g.start(i, 1.0 + i);
  ASSERT_TRUE(g.run_until_completed({0, 1, 2, 3}));

  // The close protocol terminated on every replica after each one's
  // local queue reached the proposer: all replicas executed the same
  // sequence, each payload at most once.  (The channel closes in the
  // round where t+1 close markers are delivered, so payloads queued
  // behind a slower replica's marker may be cut off — identically
  // everywhere.)
  for (int i = 1; i < 4; ++i) EXPECT_EQ(g.executed[i], g.executed[0]);
  std::vector<std::string> sorted = g.executed[0];
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  const std::vector<std::string> submitted = expected_payloads(3);
  EXPECT_TRUE(std::includes(submitted.begin(), submitted.end(),
                            sorted.begin(), sorted.end()));
  EXPECT_GE(sorted.size(), 6u);  // at least the t+1 closers' payloads
  for (const auto& r : g.replicas) {
    EXPECT_EQ(r->executed(), g.executed[0].size());
    EXPECT_EQ(r->pid(), std::string("cluster.") + GetParam());
    EXPECT_NE(r->gateway(), nullptr);
    EXPECT_EQ(r->recovery(), nullptr);  // no state_dir
  }
}

TEST_P(ReplicaChannels, ExpectRuleCompletesWithoutClose) {
  Replica::Options opts;
  opts.channel = GetParam();
  opts.send_count = 2;
  opts.expect = 8;
  Group g(8, opts);
  for (int i = 0; i < 4; ++i) g.start(i, 1.0);
  ASSERT_TRUE(g.run_until_completed({0, 1, 2, 3}));
  // Every submitted payload executed, once, in one total order.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(g.executed[i], g.executed[0]);
  std::vector<std::string> sorted = g.executed[0];
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, expected_payloads(2));
}

INSTANTIATE_TEST_SUITE_P(AtomicAndSecure, ReplicaChannels,
                         ::testing::Values("atomic", "secure-atomic"),
                         [](const auto& info) {
                           return std::string(info.param) == "atomic"
                                      ? std::string("atomic")
                                      : std::string("secure_atomic");
                         });

TEST(Replica, OptimisticChannelCompletesOnExpect) {
  // No close protocol, but the same gateway, dedup and execute funnel
  // as the other channels.
  Replica::Options opts;
  opts.channel = "optimistic";
  opts.send_count = 2;
  opts.expect = 8;
  Group g(9, opts);
  for (const auto& r : g.replicas) EXPECT_NE(r->gateway(), nullptr);
  for (int i = 0; i < 4; ++i) g.start(i, 1.0);
  ASSERT_TRUE(g.run_until_completed({0, 1, 2, 3}));
  for (int i = 1; i < 4; ++i) EXPECT_EQ(g.executed[i], g.executed[0]);
  std::vector<std::string> sorted = g.executed[0];
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, expected_payloads(2));
}

TEST(Replica, RejectsUnusableConfigurations) {
  Cluster c(4, 1, 10);
  Replica::Options bad;
  bad.channel = "carrier-pigeon";
  EXPECT_THROW(Replica(c.sim.node(0), c.sim.node(0).dispatcher(), bad),
               std::runtime_error);
  Replica::Options optimistic;
  optimistic.channel = "optimistic";  // no close protocol and no expect
  EXPECT_THROW(
      Replica(c.sim.node(1), c.sim.node(1).dispatcher(), optimistic),
      std::runtime_error);
}

TEST(Replica, SecureChannelCrashRestartReplaysAndCatchesUp) {
  // The restart path sintra_node takes with the same --state-dir: a
  // Replica built on a directory that already hosted a run detects the
  // restart (boot counter), replays its durable log and catches up to
  // the close-time final certificate instead of rejoining the rounds.
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("sintra_replica_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  auto dir = [&](int i) { return (root / std::to_string(i)).string(); };

  Replica::Options opts;
  opts.channel = "secure-atomic";
  opts.checkpoint_interval = 2;
  auto options_for = [&](int i) {
    Replica::Options o = opts;
    o.state_dir = dir(i);
    o.send_count = i == 3 ? 0 : 2;
    return o;
  };
  Group g(11);
  sim::Simulator& sim = g.cluster.sim;
  for (int i = 0; i < 4; ++i) g.add(i, options_for(i));
  for (int i = 0; i < 4; ++i) g.start(i, 1.0 + i);

  // Party 3 crashes once two executions are on its disk.
  ASSERT_TRUE(sim.run_until([&] { return g.executed[3].size() >= 2; }, 4e6));
  sim.node(3).crash();
  ASSERT_TRUE(sim.run_until(
      [&] {
        for (int i = 0; i < 3; ++i) {
          if (g.executed[static_cast<std::size_t>(i)].size() < 6) return false;
        }
        return true;
      },
      4e6));
  for (int i = 0; i < 3; ++i) {
    sim.at(sim.now_ms() + 1.0, i,
           [&g, i] { g.replicas[static_cast<std::size_t>(i)]->close(); });
  }
  ASSERT_TRUE(g.run_until_completed({0, 1, 2}));

  // Restart: drop the dead incarnation first (its protocols reference
  // the old node), then build a fresh Replica on the same directory.
  g.replicas[3].reset();
  g.executed[3].clear();
  sim.restart_node(3);
  g.add(3, options_for(3));
  ASSERT_TRUE(g.replicas[3]->recovering());
  g.start(3, sim.now_ms() + 1.0);
  ASSERT_TRUE(g.run_until_completed({3}));

  EXPECT_GE(g.replicas[3]->replayed(), 2u);
  EXPECT_EQ(g.executed[3], g.executed[0]);
  EXPECT_EQ(g.replicas[3]->recovery()->delivered_seq(), 6u);
  EXPECT_TRUE(g.replicas[3]->recovery()->latest_cert()->final);
  g.replicas.clear();
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace sintra::replica
