// Throughput mode (DESIGN.md §11): proposer batching + pipelined rounds
// on the atomic channel.  These tests pin down the properties the
// ordering argument relies on — determinism with several rounds in
// flight, round-order delivery under chaos, Byzantine bundle rejection —
// plus the round-amortization effects batching and the full-bundle
// opening rule exist for, a full pipeline under a deep backlog, honest
// progress under a Byzantine round opener, and the delivery-log
// retention cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/channel/atomic_channel.hpp"
#include "core/channel/secure_atomic_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim_fixture.hpp"

namespace sintra::core {
namespace {

using testing::Cluster;

AtomicChannel::Config pipelined(int batch, int depth) {
  AtomicChannel::Config cfg;
  cfg.max_batch_count = batch;
  cfg.pipeline_depth = depth;
  return cfg;
}

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

/// One entry of a bundle a corrupted party signs with its real key.
struct ForgedEntry {
  PartyId origin;
  std::uint64_t seq;
  std::string text;
};

/// A correctly-signed round-`round` bundle frame from `signer`, in the
/// channel's wire format (kSignedTag, round, signer, count x (origin, seq,
/// payload), sig) over its statement ("ac-sign", pid, round, count,
/// entries); every payload carries the kData marker byte.
Bytes forged_bundle(const sim::Adversary& adv, const std::string& pid,
                    PartyId signer, std::uint32_t round,
                    const std::vector<ForgedEntry>& entries) {
  std::vector<Bytes> payloads;
  for (const ForgedEntry& e : entries) {
    Writer w;
    w.u8(0);  // kData marker
    w.raw(to_bytes(e.text));
    payloads.push_back(std::move(w).take());
  }
  const auto write_entries = [&](Writer& w) {
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (std::size_t i = 0; i < entries.size(); ++i) {
      w.u32(static_cast<std::uint32_t>(entries[i].origin));
      w.u64(entries[i].seq);
      w.bytes(payloads[i]);
    }
  };
  Writer stmt;
  stmt.str("ac-sign");
  stmt.str(pid);
  stmt.u32(round);
  write_entries(stmt);
  Writer frame;
  frame.u8(1);  // kSignedTag
  frame.u32(round);
  frame.u32(static_cast<std::uint32_t>(signer));
  write_entries(frame);
  frame.bytes(adv.keys_of(signer).sign(stmt.data()));
  return std::move(frame).take();
}

/// Rounds completed per delivered payload at `ch`.
double rounds_per_delivery(const AtomicChannel& ch) {
  return static_cast<double>(ch.rounds_completed()) /
         static_cast<double>(ch.deliveries().size());
}

/// Three senders, `per_sender` payloads each, on a pipelined channel;
/// returns party 0's delivery sequence after asserting agreement and
/// exactly-once delivery of every payload.  (Per-sender FIFO is a
/// depth-1 property: with several rounds in flight, a bundle that loses
/// its round can see the origin's later payloads — signed into the next
/// concurrent round — deliver first; see DESIGN.md §11.)
std::vector<std::string> run_pipelined_workload(std::uint64_t seed,
                                                const std::string& pid) {
  Cluster c(4, 1, seed);
  auto chans = make_channels(c, pid, pipelined(4, 4));
  const int per_sender = 6;
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < per_sender; ++m) {
      c.sim.at(0.7 * m + 0.3 * s, s, [&, s, m] {
        chans[static_cast<std::size_t>(s)]->send(
            to_bytes("s" + std::to_string(s) + "m" + std::to_string(m)));
      });
    }
  }
  const std::size_t total = 3 * per_sender;
  EXPECT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, total); }, 4e6));
  const auto expected = delivered_strings(*chans[0]);
  EXPECT_EQ(expected.size(), total);
  for (const auto& ch : chans) EXPECT_EQ(delivered_strings(*ch), expected);
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < per_sender; ++m) {
      const std::string want =
          "s" + std::to_string(s) + "m" + std::to_string(m);
      EXPECT_EQ(std::count(expected.begin(), expected.end(), want), 1)
          << want;
    }
  }
  return expected;
}

TEST(ThroughputMode, PipelinedRunsAreDeterministicPerSeed) {
  // With four rounds in flight the delivery order must still be a pure
  // function of the seed: same seed => bit-identical global sequence,
  // and under any seed all parties agree (asserted inside the helper).
  const auto seed31_a = run_pipelined_workload(31, "tm.det");
  const auto seed31_b = run_pipelined_workload(31, "tm.det");
  EXPECT_EQ(seed31_a, seed31_b);
  // A different seed may (and here does not need to) produce a different
  // interleaving — the point is that it also satisfies agreement + FIFO.
  run_pipelined_workload(32, "tm.det2");
}

TEST(ThroughputMode, BatchingAmortizesRoundsOverQueuedPayloads) {
  // 24 payloads queued up-front at one sender: with 8-entry bundles the
  // whole backlog must drain in a handful of rounds, not one per payload.
  Cluster c(4, 1, 33);
  auto chans = make_channels(c, "tm.amort", pipelined(8, 1));
  const int kMessages = 24;
  c.sim.at(0.0, 1, [&] {
    for (int m = 0; m < kMessages; ++m) {
      chans[1]->send(to_bytes("q" + std::to_string(m)));
    }
  });
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, kMessages); }, 4e6));
  EXPECT_LE(chans[0]->rounds_completed(), kMessages / 4);
  // FIFO survives the bundling.
  const auto seq = delivered_strings(*chans[2]);
  for (int m = 0; m < kMessages; ++m) {
    EXPECT_EQ(seq[static_cast<std::size_t>(m)], "q" + std::to_string(m));
  }
}

TEST(ThroughputMode, ChaosReorderAndDuplicatesKeepTotalOrder) {
  // Seeded extra delays reorder traffic across links while several
  // rounds are in flight, and a corrupted party replays one of its own
  // correctly-signed bundles many times (duplication).  Decided batches
  // must still deliver strictly in round order, each payload at most
  // once per send, identically at every honest party.
  Cluster c(4, 1, 34);
  const std::string pid = "tm.chaos";
  c.sim.delay_hook = [state = 0x9e3779b97f4a7c15ULL](int, int,
                                                     double) mutable {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return 12.0 * static_cast<double>((state >> 33) & 0xffff) / 65535.0;
  };
  auto chans = make_channels(c, pid, pipelined(4, 4));
  sim::Adversary adv(c.sim, c.deal);
  adv.corrupt(3);

  // Party 3's replayed round-1 bundle, correctly signed with its real key.
  const Bytes frame = forged_bundle(adv, pid, 3, 1, {{3, 0, "dup-me"}});
  for (int copy = 0; copy < 4; ++copy) {
    adv.send_as_all(3, pid, frame, 0.5 + 3.0 * copy);
  }

  const int per_sender = 5;
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < per_sender; ++m) {
      c.sim.at(0.9 * m + 0.4 * s, s, [&, s, m] {
        chans[static_cast<std::size_t>(s)]->send(
            to_bytes("h" + std::to_string(s) + "m" + std::to_string(m)));
      });
    }
  }
  const std::size_t total = 3 * per_sender + 1;  // + the adversary's payload
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, total, {3}); }, 4e6));
  c.sim.run(c.sim.now_ms() + 5000.0);  // absorb the replayed copies

  const auto expected = delivered_strings(*chans[0]);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(delivered_strings(*chans[static_cast<std::size_t>(i)]),
              expected);
  }
  // At most once despite four transmissions.
  EXPECT_EQ(std::count(expected.begin(), expected.end(), "dup-me"), 1);
  // Rounds delivered strictly in order at every party.
  for (int i = 0; i < 3; ++i) {
    const auto& ds = chans[static_cast<std::size_t>(i)]->deliveries();
    for (std::size_t k = 1; k < ds.size(); ++k) {
      EXPECT_LE(ds[k - 1].round, ds[k].round);
    }
  }
}

TEST(ThroughputMode, ByzantineDuplicateKeyBundleRejected) {
  // A corrupted proposer stuffs the same (origin, seq) twice into one
  // correctly-signed bundle; bundle validation must reject it outright,
  // so its payload never delivers while honest traffic is unaffected.
  Cluster c(4, 1, 35);
  const std::string pid = "tm.stuff";
  auto chans = make_channels(c, pid, pipelined(4, 2));
  sim::Adversary adv(c.sim, c.deal);
  adv.corrupt(3);

  // Two entries, same (origin, seq)!
  adv.send_as_all(3, pid,
                  forged_bundle(adv, pid, 3, 1,
                                {{3, 0, "stuffed"}, {3, 0, "stuffed"}}),
                  0.2);

  for (int m = 0; m < 4; ++m) {
    c.sim.at(1.0 + m, 0, [&, m] {
      chans[0]->send(to_bytes("ok" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 4, {3}); }, 4e6));
  for (int i = 0; i < 3; ++i) {
    const auto seq = delivered_strings(*chans[static_cast<std::size_t>(i)]);
    EXPECT_EQ(std::count(seq.begin(), seq.end(), "stuffed"), 0);
    for (int m = 0; m < 4; ++m) {
      EXPECT_EQ(seq[static_cast<std::size_t>(m)], "ok" + std::to_string(m));
    }
  }
}

TEST(ThroughputMode, DeliveryLogLimitBoundsRetention) {
  Cluster c(4, 1, 36);
  auto chans = make_channels(c, "tm.cap", pipelined(2, 2));
  constexpr std::size_t kCap = 4;
  chans[0]->set_delivery_log_limit(kCap);
  const int kMessages = 20;
  for (int m = 0; m < kMessages; ++m) {
    c.sim.at(0.5 * m, 1, [&, m] {
      chans[1]->send(to_bytes("cap" + std::to_string(m)));
    });
  }
  const std::string last = "cap" + std::to_string(kMessages - 1);
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        const auto& capped = chans[0]->deliveries();
        return chans[1]->deliveries().size() >=
                   static_cast<std::size_t>(kMessages) &&
               !capped.empty() && to_string(capped.back().payload) == last;
      },
      4e6));
  // Capped log stays under 2x the limit and keeps the most recent tail;
  // the uncapped parties retain everything.
  EXPECT_LE(chans[0]->deliveries().size(), 2 * kCap);
  EXPECT_GE(chans[0]->deliveries().size(), kCap);
  EXPECT_EQ(to_string(chans[0]->deliveries().back().payload), last);
  EXPECT_EQ(chans[1]->deliveries().size(),
            static_cast<std::size_t>(kMessages));
  // The inbox (receive() surface) is unaffected by log trimming.
  std::size_t popped = 0;
  while (chans[0]->receive()) ++popped;
  EXPECT_EQ(popped, static_cast<std::size_t>(kMessages));
}

TEST(ThroughputMode, SecureChannelPipelinesAndCapsLog) {
  // The labeled/secure wrapper rides the same pipelined core: payloads
  // stay totally ordered and its own delivery log honors the cap.
  Cluster c(4, 1, 37);
  AtomicChannel::Config cfg = pipelined(4, 3);
  auto chans = c.make_protocols<SecureAtomicChannel>(
      [&](Environment& env, Dispatcher& disp, int) {
        auto ch = std::make_unique<SecureAtomicChannel>(env, disp, "tm.sec",
                                                        cfg);
        ch->set_delivery_log_limit(3);
        return ch;
      });
  std::vector<std::vector<std::string>> seen(chans.size());
  for (std::size_t i = 0; i < chans.size(); ++i) {
    chans[i]->set_deliver_callback([&seen, i](const Bytes& payload,
                                              PartyId) {
      seen[i].push_back(to_string(payload));
    });
  }
  const int kMessages = 12;
  for (int m = 0; m < kMessages; ++m) {
    c.sim.at(1.0 * m, m % 3, [&, m] {
      chans[static_cast<std::size_t>(m % 3)]->send(
          to_bytes("sec" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        for (const auto& s : seen) {
          if (s.size() < static_cast<std::size_t>(kMessages)) return false;
        }
        return true;
      },
      8e6));
  // Total order of cleartexts across all parties, and the capped log
  // holds at most 2x the limit.
  for (const auto& s : seen) EXPECT_EQ(s, seen[0]);
  for (const auto& ch : chans) EXPECT_LE(ch->deliveries().size(), 6u);
}

TEST(ThroughputMode, ClosedLoopSendersFillRoundsBeforeOpeningNew) {
  // Four closed-loop senders each keep one payload outstanding: a
  // sender sends its next payload when its previous one delivers at its
  // own party.  With a depth-4 window, opening a round for every partial
  // bundle costs about one agreement per delivery; opening ahead of an
  // open round only for a full bundle lets the waiting payloads share the
  // next round instead.
  Cluster c(4, 1, 38);
  const std::string pid = "tm.closed";
  auto chans = make_channels(c, pid, pipelined(16, 4));
  constexpr int kSenders = 4;
  constexpr int kPerSender = 12;
  std::vector<int> sent(kSenders, 0);
  const auto send_next = [&](int s) {
    const int m = sent[static_cast<std::size_t>(s)]++;
    chans[static_cast<std::size_t>(s)]->send(
        to_bytes("s" + std::to_string(s) + "m" + std::to_string(m)));
  };
  const auto deferred_total = [&] {
    std::uint64_t sum = 0;
    for (int s = 0; s < kSenders; ++s) {
      sum += obs::registry()
                 .counter("channel.rounds_deferred",
                          obs::party_layer_labels(s, obs::layer_of(pid)))
                 .value();
    }
    return sum;
  };
  const std::uint64_t deferred_before = deferred_total();
  for (int s = 0; s < kSenders; ++s) {
    chans[static_cast<std::size_t>(s)]->set_deliver_callback(
        [&, s](const Bytes&, PartyId origin) {
          if (origin != s || sent[static_cast<std::size_t>(s)] >= kPerSender)
            return;
          c.sim.at(c.sim.now_ms(), s, [&, s] { send_next(s); });
        });
    c.sim.at(0.3 * s, s, [&, s] { send_next(s); });
  }
  constexpr std::size_t kTotal = kSenders * kPerSender;
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, kTotal); }, 4e6));
  c.sim.run(c.sim.now_ms() + 1000.0);  // no stray payloads deliver later

  const auto expected = delivered_strings(*chans[0]);
  ASSERT_EQ(expected.size(), kTotal);
  for (const auto& ch : chans) EXPECT_EQ(delivered_strings(*ch), expected);
  EXPECT_EQ(std::set<std::string>(expected.begin(), expected.end()).size(),
            kTotal);
  EXPECT_LE(rounds_per_delivery(*chans[0]), 0.75);
  EXPECT_GT(deferred_total(), deferred_before);
}

TEST(ThroughputMode, DeepBacklogStillFillsThePipeline) {
  // Queues pre-filled at t = 0 hold many full bundles, so the window must
  // still open `depth` rounds at once: holding back partial work must not
  // cost the pipelining of full ones.
  Cluster c(4, 1, 39);
  const std::string pid = "tm.backlog";
  constexpr int kDepth = 4;
  auto chans = make_channels(c, pid, pipelined(4, kDepth));
  constexpr int kPerSender = 30;
  for (int s = 0; s < 4; ++s) {
    c.sim.at(0.0, s, [&, s] {
      for (int m = 0; m < kPerSender; ++m) {
        chans[static_cast<std::size_t>(s)]->send(
            to_bytes("b" + std::to_string(s) + "m" + std::to_string(m)));
      }
    });
  }
  const obs::Gauge& in_flight = obs::registry().gauge(
      "channel.rounds_in_flight",
      obs::party_layer_labels(0, obs::layer_of(pid)));
  double max_in_flight = 0.0;
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        max_in_flight = std::max(max_in_flight, in_flight.value());
        return all_delivered_count(chans, 4 * kPerSender);
      },
      4e6));
  EXPECT_EQ(max_in_flight, static_cast<double>(kDepth));
  const auto expected = delivered_strings(*chans[0]);
  EXPECT_EQ(expected.size(), static_cast<std::size_t>(4 * kPerSender));
  for (const auto& ch : chans) EXPECT_EQ(delivered_strings(*ch), expected);
}

TEST(ThroughputMode, ByzantineRoundOpenerDoesNotStarveHonestPartialWork) {
  // A corrupted party signs a bundle for every upcoming round, so an open
  // round always exists and no honest party ever holds a full bundle.  The
  // honest parties' partial work must ride the rounds the corrupted party
  // opens and deliver, identically at every honest party.
  Cluster c(4, 1, 40);
  const std::string pid = "tm.opener";
  auto chans = make_channels(c, pid, pipelined(8, 4));
  sim::Adversary adv(c.sim, c.deal);
  adv.corrupt(3);
  constexpr int kRounds = 60;
  for (int r = 1; r <= kRounds; ++r) {
    adv.send_as_all(3, pid,
                    forged_bundle(adv, pid, 3, static_cast<std::uint32_t>(r),
                                  {{3, static_cast<std::uint64_t>(r),
                                    "evil" + std::to_string(r)}}),
                    0.1 + 0.5 * r);
  }
  constexpr int kPerSender = 5;
  const auto honest = [](int s, int m) {
    return "h" + std::to_string(s) + "m" + std::to_string(m);
  };
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < kPerSender; ++m) {
      c.sim.at(2.0 + 3.0 * m + 0.7 * s, s, [&, s, m] {
        chans[static_cast<std::size_t>(s)]->send(to_bytes(honest(s, m)));
      });
    }
  }
  const auto honest_all_delivered = [&] {
    for (int i = 0; i < 3; ++i) {
      const auto seq = delivered_strings(*chans[static_cast<std::size_t>(i)]);
      for (int s = 0; s < 3; ++s) {
        for (int m = 0; m < kPerSender; ++m) {
          if (std::find(seq.begin(), seq.end(), honest(s, m)) == seq.end())
            return false;
        }
      }
    }
    return true;
  };
  ASSERT_TRUE(c.sim.run_until(honest_all_delivered, 4e6));
  // The honest work rode the corrupted party's rounds instead of waiting
  // until it stopped opening them.
  for (int i = 0; i < 3; ++i) {
    EXPECT_LT(chans[static_cast<std::size_t>(i)]->rounds_completed(),
              kRounds);
  }
  c.sim.run(c.sim.now_ms() + 1000.0);
  const auto expected = delivered_strings(*chans[0]);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(delivered_strings(*chans[static_cast<std::size_t>(i)]),
              expected);
  }
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < kPerSender; ++m) {
      EXPECT_EQ(std::count(expected.begin(), expected.end(), honest(s, m)), 1)
          << honest(s, m);
    }
  }
}

}  // namespace
}  // namespace sintra::core
