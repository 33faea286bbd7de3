#include "core/channel/atomic_channel.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim_fixture.hpp"

namespace sintra::core {
namespace {

using testing::Cluster;

std::vector<std::unique_ptr<AtomicChannel>> make_channels(
    Cluster& c, const std::string& pid, AtomicChannel::Config cfg = {}) {
  return c.make_protocols<AtomicChannel>(
      [&](Environment& env, Dispatcher& disp, int) {
        return std::make_unique<AtomicChannel>(env, disp, pid, cfg);
      });
}

std::vector<std::string> delivered_strings(const AtomicChannel& ch) {
  std::vector<std::string> out;
  for (const auto& d : ch.deliveries()) out.push_back(to_string(d.payload));
  return out;
}

bool all_delivered_count(const std::vector<std::unique_ptr<AtomicChannel>>& cs,
                         std::size_t count, const std::set<int>& skip = {}) {
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (skip.contains(static_cast<int>(i))) continue;
    if (cs[i]->deliveries().size() < count) return false;
  }
  return true;
}

TEST(AtomicChannel, SingleSenderTotalOrder) {
  Cluster c(4, 1, 1);
  auto chans = make_channels(c, "ac.single");
  const int kMessages = 6;
  for (int m = 0; m < kMessages; ++m) {
    c.sim.at(m * 1.0, 0, [&, m] {
      chans[0]->send(to_bytes("msg-" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, kMessages); }, 4e6));
  // Same sequence everywhere, and FIFO for a single sender.
  const auto expected = delivered_strings(*chans[0]);
  for (const auto& ch : chans) EXPECT_EQ(delivered_strings(*ch), expected);
  for (int m = 0; m < kMessages; ++m) {
    EXPECT_EQ(expected[static_cast<std::size_t>(m)], "msg-" + std::to_string(m));
  }
}

TEST(AtomicChannel, MultiSenderAgreementOnOrder) {
  Cluster c(4, 1, 2);
  auto chans = make_channels(c, "ac.multi");
  const int kPerSender = 4;
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < kPerSender; ++m) {
      c.sim.at(m * 2.0 + s, s, [&, s, m] {
        chans[static_cast<std::size_t>(s)]->send(
            to_bytes("s" + std::to_string(s) + "m" + std::to_string(m)));
      });
    }
  }
  const std::size_t total = 3 * kPerSender;
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, total); }, 4e6));
  const auto expected = delivered_strings(*chans[0]);
  EXPECT_EQ(expected.size(), total);
  for (const auto& ch : chans) EXPECT_EQ(delivered_strings(*ch), expected);
  // Per-sender FIFO within the total order.
  for (int s = 0; s < 3; ++s) {
    std::vector<std::string> mine;
    for (const auto& v : expected) {
      if (v.rfind("s" + std::to_string(s), 0) == 0) mine.push_back(v);
    }
    for (int m = 0; m < kPerSender; ++m) {
      EXPECT_EQ(mine[static_cast<std::size_t>(m)],
                "s" + std::to_string(s) + "m" + std::to_string(m));
    }
  }
}

TEST(AtomicChannel, SameBitStringFromTwoSendersDeliveredTwice) {
  // The §2.5 integrity relaxation: identity is (origin, seq), so the same
  // bit string sent by two honest parties is delivered once per send.
  Cluster c(4, 1, 3);
  auto chans = make_channels(c, "ac.dup");
  c.sim.at(0.0, 0, [&] { chans[0]->send(to_bytes("identical")); });
  c.sim.at(0.0, 1, [&] { chans[1]->send(to_bytes("identical")); });
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 2); }, 4e6));
  EXPECT_EQ(delivered_strings(*chans[2]),
            (std::vector<std::string>{"identical", "identical"}));
}

TEST(AtomicChannel, ReceiveDrainsInOrder) {
  Cluster c(4, 1, 4);
  auto chans = make_channels(c, "ac.recv");
  for (int m = 0; m < 3; ++m) {
    c.sim.at(m * 1.0, 1, [&, m] {
      chans[1]->send(to_bytes("r" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 3); }, 4e6));
  EXPECT_TRUE(chans[2]->can_receive());
  EXPECT_EQ(to_string(*chans[2]->receive()), "r0");
  EXPECT_EQ(to_string(*chans[2]->receive()), "r1");
  EXPECT_EQ(to_string(*chans[2]->receive()), "r2");
  EXPECT_FALSE(chans[2]->can_receive());
  EXPECT_EQ(chans[2]->receive(), std::nullopt);
}

TEST(AtomicChannel, CallbackConsumerIsPushOnly) {
  // A channel with a deliver callback hands each delivery to the
  // callback only: nothing piles up in the receive() inbox, however long
  // the channel runs.  Party 3 keeps the pull surface for comparison.
  Cluster c(4, 1, 5);
  auto chans = make_channels(c, "ac.push");
  std::vector<std::vector<std::string>> pushed(3);
  for (int i = 0; i < 3; ++i) {
    chans[static_cast<std::size_t>(i)]->set_deliver_callback(
        [&pushed, i](const Bytes& payload, PartyId) {
          pushed[static_cast<std::size_t>(i)].push_back(to_string(payload));
        });
  }
  constexpr int kMessages = 8;
  for (int m = 0; m < kMessages; ++m) {
    c.sim.at(m * 1.0, m % 4, [&, m] {
      chans[static_cast<std::size_t>(m % 4)]->send(
          to_bytes("push" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, kMessages); }, 4e6));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(pushed[static_cast<std::size_t>(i)],
              delivered_strings(*chans[static_cast<std::size_t>(i)]));
    EXPECT_FALSE(chans[static_cast<std::size_t>(i)]->can_receive());
    EXPECT_EQ(chans[static_cast<std::size_t>(i)]->receive(), std::nullopt);
  }
  std::size_t pulled = 0;
  while (chans[3]->receive()) ++pulled;
  EXPECT_EQ(pulled, static_cast<std::size_t>(kMessages));
}

TEST(AtomicChannel, FairnessAdoptedMessageDelivered) {
  // Only party 2 ever sends; all others adopt its message each round so
  // every payload is delivered even though senders != proposers.
  Cluster c(4, 1, 5);
  auto chans = make_channels(c, "ac.fair");
  for (int m = 0; m < 3; ++m) {
    c.sim.at(m * 1.0, 2, [&, m] {
      chans[2]->send(to_bytes("only-" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 3); }, 4e6));
  for (const auto& ch : chans) {
    for (const auto& d : ch->deliveries()) EXPECT_EQ(d.origin, 2);
  }
}

TEST(AtomicChannel, BatchSizeTwoDeliversPairsFromConcurrentSenders) {
  // Three concurrent senders, batch t+1 = 2: rounds should mostly deliver
  // two distinct messages (the Figure 4 "0s band" effect).
  Cluster c(4, 1, 6);
  auto chans = make_channels(c, "ac.batch");
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < 4; ++m) {
      c.sim.at(0.5 * m, s, [&, s, m] {
        chans[static_cast<std::size_t>(s)]->send(
            to_bytes("b" + std::to_string(s) + "." + std::to_string(m)));
      });
    }
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 12); }, 4e6));
  // 12 messages in >= 6 rounds; with pair-batches, rounds < messages.
  EXPECT_LT(chans[0]->rounds_completed(), 12);
  EXPECT_GE(chans[0]->rounds_completed(), 6);
}

TEST(AtomicChannel, CloseRequiresQuorumAndCloses) {
  Cluster c(4, 1, 7);
  auto chans = make_channels(c, "ac.close");
  c.sim.at(0.0, 0, [&] { chans[0]->send(to_bytes("payload")); });
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 1); }, 4e6));

  // One close() (t=1 => needs t+1 = 2 origins) must NOT close the channel.
  c.sim.at(c.sim.now_ms() + 1, 0, [&] { chans[0]->close(); });
  c.sim.run(c.sim.now_ms() + 200000);
  for (const auto& ch : chans) EXPECT_FALSE(ch->is_closed());

  // A second honest close() reaches the t+1 quorum; all close.
  c.sim.at(c.sim.now_ms() + 1, 1, [&] { chans[1]->close(); });
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        return std::all_of(chans.begin(), chans.end(),
                           [](const auto& ch) { return ch->is_closed(); });
      },
      4e6));
  EXPECT_THROW(chans[2]->send(to_bytes("late")), std::logic_error);
  EXPECT_FALSE(chans[2]->can_send());
}

TEST(AtomicChannel, ClosedCallbackFires) {
  Cluster c(4, 1, 8);
  auto chans = make_channels(c, "ac.closecb");
  int fired = 0;
  chans[3]->set_closed_callback([&] { ++fired; });
  c.sim.at(0.0, 0, [&] { chans[0]->close(); });
  c.sim.at(0.0, 1, [&] { chans[1]->close(); });
  ASSERT_TRUE(c.sim.run_until([&] { return chans[3]->is_closed(); }, 4e6));
  EXPECT_EQ(fired, 1);
}

TEST(AtomicChannel, ToleratesCrashedParty) {
  Cluster c(4, 1, 9);
  auto chans = make_channels(c, "ac.crash");
  c.sim.node(3).crash();
  for (int m = 0; m < 3; ++m) {
    c.sim.at(m * 1.0, 0, [&, m] {
      chans[0]->send(to_bytes("c" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 3, {3}); }, 4e6));
  EXPECT_EQ(delivered_strings(*chans[1]), delivered_strings(*chans[2]));
}

TEST(AtomicChannel, ByzantineGarbageDoesNotBreakOrder) {
  Cluster c(4, 1, 10);
  auto chans = make_channels(c, "ac.byz");
  sim::Adversary adv(c.sim, c.deal);
  adv.corrupt(3);
  // Garbage signed-message frames, wrong signatures, replayed tags.
  for (int i = 0; i < 5; ++i) {
    Writer w;
    w.u8(1);
    w.u32(1);
    w.u32(3);
    w.u32(0);
    w.u64(static_cast<std::uint64_t>(i));
    w.bytes(to_bytes("fake"));
    w.bytes(Bytes(64, 0x11));
    adv.send_as_all(3, "ac.byz", w.data(), i * 2.0);
    adv.send_as_all(3, "ac.byz", Bytes{0x01, 0x02}, i * 2.0);
  }
  for (int m = 0; m < 3; ++m) {
    c.sim.at(m * 1.0, 0, [&, m] {
      chans[0]->send(to_bytes("z" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 3, {3}); }, 4e6));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(delivered_strings(*chans[static_cast<std::size_t>(i)]),
              (std::vector<std::string>{"z0", "z1", "z2"}));
  }
}

TEST(AtomicChannel, LargerGroupTotalOrder) {
  Cluster c(7, 2, 11);
  auto chans = make_channels(c, "ac.n7");
  for (int s = 0; s < 7; ++s) {
    c.sim.at(static_cast<double>(s), s, [&, s] {
      chans[static_cast<std::size_t>(s)]->send(to_bytes("n7-" + std::to_string(s)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 7); }, 8e6));
  const auto expected = delivered_strings(*chans[0]);
  for (const auto& ch : chans) EXPECT_EQ(delivered_strings(*ch), expected);
}

TEST(AtomicChannel, ExplicitBatchSizeRespected) {
  Cluster c(4, 1, 12);
  AtomicChannel::Config cfg;
  cfg.batch_size = 3;
  auto chans = make_channels(c, "ac.b3", cfg);
  for (int s = 0; s < 3; ++s) {
    c.sim.at(0.0, s, [&, s] {
      chans[static_cast<std::size_t>(s)]->send(to_bytes("e" + std::to_string(s)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 3); }, 4e6));
  // Three distinct messages can fit one batch-of-3 round.
  EXPECT_EQ(chans[0]->rounds_completed(), 1);
}

/// Counter value for (name, party, layer) in a snapshot, 0 if absent.
std::uint64_t channel_counter(const obs::Snapshot& snap,
                              const std::string& name, int party,
                              const std::string& layer) {
  const obs::Labels labels = obs::party_layer_labels(party, layer);
  for (const auto& c : snap.counters) {
    if (c.name == name && c.labels == labels) return c.value;
  }
  return 0;
}

TEST(AtomicChannel, InstrumentationCountsRoundsAndDeliveries) {
  // The simulated channel feeds the same obs::registry() as the real
  // deployment; the process registry accumulates across tests, so all
  // assertions are before/after deltas.
  const std::string pid = "ac.obs";
  const std::string layer = obs::layer_of(pid);
  const obs::Snapshot before = obs::registry().snapshot();

  Cluster c(4, 1, 21);
  auto chans = make_channels(c, pid);
  for (int s = 0; s < 3; ++s) {
    c.sim.at(static_cast<double>(s), s, [&, s] {
      chans[static_cast<std::size_t>(s)]->send(
          to_bytes("obs" + std::to_string(s)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 3); }, 4e6));

  const obs::Snapshot after = obs::registry().snapshot();
  for (int i = 0; i < 4; ++i) {
    const auto& ch = *chans[static_cast<std::size_t>(i)];
    const std::uint64_t rounds =
        channel_counter(after, "channel.rounds", i, layer) -
        channel_counter(before, "channel.rounds", i, layer);
    EXPECT_EQ(rounds, static_cast<std::uint64_t>(ch.rounds_completed()));
    const std::uint64_t deliveries =
        channel_counter(after, "channel.deliveries", i, layer) -
        channel_counter(before, "channel.deliveries", i, layer);
    EXPECT_EQ(deliveries, ch.deliveries().size());
    // The dispatcher saw traffic for this channel's protocol family.
    std::uint64_t dispatched = 0;
    for (const auto& cv : after.counters) {
      if (cv.name != "dispatcher.messages") continue;
      for (const auto& [k, v] : cv.labels) {
        if (k == "layer" && v.rfind(layer, 0) == 0) dispatched += cv.value;
      }
    }
    EXPECT_GT(dispatched, 0u);
  }
}

}  // namespace
}  // namespace sintra::core
