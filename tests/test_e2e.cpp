// Grand end-to-end integration: "everything at once" on the paper's WAN
// topology — Shoup threshold signatures, a crashed replica, a Byzantine
// flooder, and a secure causal channel running alongside the atomic
// channel — plus polymorphic use of the Figure 2 Channel interface and
// the receive side (inbox, callbacks, log cap) all five channels share.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/channel/broadcast_channel.hpp"
#include "core/channel/channel_base.hpp"
#include "core/channel/optimistic_channel.hpp"
#include "core/channel/secure_atomic_channel.hpp"
#include "sim_fixture.hpp"

namespace sintra::core {
namespace {

using testing::Cluster;

/// One channel of every kind for each of four parties, behind the
/// abstract interface, with the size of each one's typed delivery log.
struct PartyChannels {
  std::vector<std::unique_ptr<ChannelBase>> channels;
  std::vector<std::function<std::size_t()>> log_size;

  template <class Channel>
  void add(std::unique_ptr<Channel> ch) {
    log_size.push_back([raw = ch.get()] { return raw->deliveries().size(); });
    channels.push_back(std::move(ch));
  }
};

// every_kind's order: atomic, secure, reliable, consistent, optimistic.
constexpr std::size_t kKinds = 5;
constexpr std::size_t kOptimistic = 4;

std::vector<PartyChannels> every_kind(Cluster& c, const std::string& prefix) {
  std::vector<PartyChannels> all(4);
  for (int i = 0; i < 4; ++i) {
    auto& env = c.sim.node(i);
    auto& disp = c.sim.node(i).dispatcher();
    PartyChannels& p = all[static_cast<std::size_t>(i)];
    p.add(std::make_unique<AtomicChannel>(env, disp, prefix + ".ac"));
    p.add(std::make_unique<SecureAtomicChannel>(env, disp, prefix + ".sac"));
    p.add(std::make_unique<ReliableChannel>(env, disp, prefix + ".rc"));
    p.add(std::make_unique<ConsistentChannel>(env, disp, prefix + ".cc"));
    p.add(std::make_unique<OptimisticChannel>(env, disp, prefix + ".oc"));
  }
  return all;
}

TEST(EndToEnd, ChannelInterfaceIsPolymorphic) {
  // The Figure 2 hierarchy: one application function drives all five
  // channel kinds through the abstract interface.
  Cluster c(4, 1, 0xe2e0);
  auto all = every_kind(c, "poly");
  c.sim.at(0.0, 0, [&] {
    for (auto& ch : all[0].channels) {
      ASSERT_TRUE(ch->can_send());
      ch->send_payload(to_bytes("via interface"));
    }
  });
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        for (const auto& p : all) {
          for (const auto& ch : p.channels) {
            if (!ch->can_receive()) return false;
          }
        }
        return true;
      },
      8e6));
  for (auto& p : all) {
    for (auto& ch : p.channels) {
      auto payload = ch->receive();
      ASSERT_TRUE(payload.has_value());
      EXPECT_EQ(to_string(*payload), "via interface");
      EXPECT_FALSE(ch->is_closed());
    }
  }
}

TEST(EndToEnd, SharedOutletBehavesAlikeOnEveryChannel) {
  // The receive side every channel inherits from ChannelBase.  Party 1
  // consumes through the deliver callback under a delivery-log cap,
  // party 2 pulls through receive(); party 0 sends on every channel.
  Cluster c(4, 1, 0xe2e2);
  auto all = every_kind(c, "outlet");
  constexpr std::size_t kLimit = 2;
  constexpr std::size_t kMessages = 6;
  std::vector<std::vector<std::string>> pushed(kKinds), pulled(kKinds);
  std::vector<std::vector<int>> closed(4, std::vector<int>(kKinds, 0));
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      all[i].channels[k]->set_closed_callback([&closed, i, k] {
        ++closed[i][k];
      });
    }
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    ChannelBase& ch = *all[1].channels[k];
    ch.set_delivery_log_limit(kLimit);
    ch.set_deliver_callback([&pushed, k](const Bytes& payload, PartyId) {
      pushed[k].push_back(to_string(payload));
    });
  }
  for (std::size_t m = 0; m < kMessages; ++m) {
    c.sim.at(static_cast<double>(m), 0, [&all, m] {
      for (auto& ch : all[0].channels) {
        ch->send(to_bytes("m" + std::to_string(m)));
      }
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        bool done = true;
        for (std::size_t k = 0; k < kKinds; ++k) {
          while (auto payload = all[2].channels[k]->receive()) {
            pulled[k].push_back(to_string(*payload));
          }
          done = done && pushed[k].size() == kMessages &&
                 pulled[k].size() == kMessages;
        }
        return done;
      },
      8e6));
  for (std::size_t k = 0; k < kKinds; ++k) {
    SCOPED_TRACE("channel kind " + std::to_string(k));
    // One sender, so every kind delivers in one order at every party:
    // the pulled order is the pushed order.
    EXPECT_EQ(pulled[k], pushed[k]);
    // A callback consumer keeps nothing for receive().
    ChannelBase& pusher = *all[1].channels[k];
    EXPECT_FALSE(pusher.can_receive());
    EXPECT_EQ(pusher.receive(), std::nullopt);
    // The capped log is trimmed below 2×limit; the uncapped one is not.
    EXPECT_GT(all[1].log_size[k](), 0u);
    EXPECT_LT(all[1].log_size[k](), 2 * kLimit);
    EXPECT_EQ(all[2].log_size[k](), kMessages);
  }

  // Every party closes every channel, twice; a closable channel reports
  // its termination once, the optimistic one (no close protocol) never.
  for (int round = 1; round <= 2; ++round) {
    const double at_ms = c.sim.now_ms() + 1.0;
    for (std::size_t i = 0; i < 4; ++i) {
      c.sim.at(at_ms, static_cast<int>(i), [&all, i] {
        for (auto& ch : all[i].channels) ch->close();
      });
    }
    ASSERT_TRUE(c.sim.run_until(
        [&] {
          if (c.sim.now_ms() <= at_ms) return false;
          for (const auto& p : all) {
            for (std::size_t k = 0; k < kOptimistic; ++k) {
              if (!p.channels[k]->is_closed()) return false;
            }
          }
          return true;
        },
        c.sim.now_ms() + 8e6));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t k = 0; k < kOptimistic; ++k) {
      EXPECT_EQ(closed[i][k], 1) << "party " << i << " kind " << k;
    }
    EXPECT_EQ(closed[i][kOptimistic], 0) << "party " << i;
    EXPECT_FALSE(all[i].channels[kOptimistic]->is_closed());
  }
}

TEST(EndToEnd, EverythingAtOnceOnPaperTopology) {
  // n=7, t=2 on the combined LAN+Internet topology with Shoup threshold
  // signatures; one replica crashed from the start, one actively
  // Byzantine; atomic and secure channels run concurrently.
  const auto deal = testing::cached_deal(7, 2, crypto::SigImpl::kThresholdRsa);
  sim::Simulator sim(sim::combined_setup(), deal, 0xe2e1);
  sim.per_message_cpu_ms = 0.05;

  std::vector<std::unique_ptr<AtomicChannel>> atomic;
  std::vector<std::unique_ptr<SecureAtomicChannel>> secure;
  for (int i = 0; i < 7; ++i) {
    atomic.push_back(std::make_unique<AtomicChannel>(
        sim.node(i), sim.node(i).dispatcher(), "e2e.ac"));
    secure.push_back(std::make_unique<SecureAtomicChannel>(
        sim.node(i), sim.node(i).dispatcher(), "e2e.sac"));
  }

  sim::Adversary adv(sim, deal);
  adv.crash(6);    // California down from the start
  adv.corrupt(5);  // New York actively Byzantine
  Rng junk(0xbad);
  for (int burst = 0; burst < 20; ++burst) {
    adv.send_as_all(5, "e2e.ac", junk.bytes(60), burst * 20.0);
    adv.send_as_all(5, "e2e.sac", junk.bytes(60), burst * 20.0);
    adv.send_as_all(5, "e2e.sac.ac", junk.bytes(60), burst * 20.0);
  }

  // Live senders: 0 (Zurich LAN) and 4 (Tokyo).
  for (int m = 0; m < 3; ++m) {
    sim.at(m * 10.0, 0, [&, m] {
      atomic[0]->send(to_bytes("a0." + std::to_string(m)));
      secure[0]->send(to_bytes("s0." + std::to_string(m)));
    });
    sim.at(m * 10.0, 4, [&, m] {
      atomic[4]->send(to_bytes("a4." + std::to_string(m)));
    });
  }

  ASSERT_TRUE(sim.run_until(
      [&] {
        for (int i = 0; i < 5; ++i) {  // the five honest live replicas
          if (atomic[static_cast<std::size_t>(i)]->deliveries().size() < 6)
            return false;
          if (secure[static_cast<std::size_t>(i)]->deliveries().size() < 3)
            return false;
        }
        return true;
      },
      6e7));

  // Total order on both channels across all honest live replicas.
  auto seq_of = [](const auto& ch) {
    std::vector<std::string> out;
    for (const auto& d : ch.deliveries()) out.push_back(to_string(d.payload));
    return out;
  };
  const auto atomic_seq = seq_of(*atomic[0]);
  const auto secure_seq = seq_of(*secure[0]);
  EXPECT_EQ(atomic_seq.size(), 6u);
  EXPECT_EQ(secure_seq.size(), 3u);
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(seq_of(*atomic[static_cast<std::size_t>(i)]), atomic_seq) << i;
    EXPECT_EQ(seq_of(*secure[static_cast<std::size_t>(i)]), secure_seq) << i;
  }
  // Per-sender FIFO within the atomic order.
  std::vector<std::string> from0, from4;
  for (const auto& v : atomic_seq) {
    if (v.rfind("a0", 0) == 0) from0.push_back(v);
    if (v.rfind("a4", 0) == 0) from4.push_back(v);
  }
  EXPECT_EQ(from0, (std::vector<std::string>{"a0.0", "a0.1", "a0.2"}));
  EXPECT_EQ(from4, (std::vector<std::string>{"a4.0", "a4.1", "a4.2"}));
}

TEST(EndToEnd, ForcedMultiRoundAgreementStillDecides) {
  // Adversarial link delays steer the vote pattern so that round 1 cannot
  // reach unanimity at everyone, forcing coin rounds (decision_round > 1
  // for at least one party across the seeds) — the randomized path the
  // FLP argument makes necessary.
  int multi_round_seen = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Cluster c(4, 1, seed * 101, 2.0, 0.1);
    Rng delays(seed);
    c.sim.delay_hook = [&delays](int from, int, double) {
      // Persistently slow some senders' links to split vote arrival.
      return (from % 2 == 0) ? delays.uniform01() * 80.0 : 0.0;
    };
    auto ps = c.make_protocols<BinaryAgreement>(
        [&](Environment& env, Dispatcher& disp, int) {
          return std::make_unique<BinaryAgreement>(env, disp,
                                                   "e2e.rounds" + std::to_string(seed));
        });
    for (int i = 0; i < 4; ++i) {
      c.sim.at(0.0, i, [&, i] { ps[static_cast<std::size_t>(i)]->propose(i % 2 == 0); });
    }
    ASSERT_TRUE(c.sim.run_until(
        [&] {
          return std::all_of(ps.begin(), ps.end(), [](const auto& p) {
            return p->decided().has_value();
          });
        },
        600000))
        << seed;
    std::set<bool> values;
    for (const auto& p : ps) {
      values.insert(*p->decided());
      if (p->decision_round() > 1) ++multi_round_seen;
    }
    EXPECT_EQ(values.size(), 1u) << seed;
  }
  EXPECT_GT(multi_round_seen, 0)
      << "no run exercised the coin path; adjust the schedule";
}

}  // namespace
}  // namespace sintra::core
