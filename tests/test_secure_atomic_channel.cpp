#include "core/channel/secure_atomic_channel.hpp"

#include <gtest/gtest.h>

#include "sim_fixture.hpp"

namespace sintra::core {
namespace {

using testing::Cluster;

std::vector<std::unique_ptr<SecureAtomicChannel>> make_channels(
    Cluster& c, const std::string& pid) {
  return c.make_protocols<SecureAtomicChannel>(
      [&](Environment& env, Dispatcher& disp, int) {
        return std::make_unique<SecureAtomicChannel>(env, disp, pid);
      });
}

std::vector<std::string> delivered_strings(const SecureAtomicChannel& ch) {
  std::vector<std::string> out;
  for (const auto& d : ch.deliveries()) out.push_back(to_string(d.payload));
  return out;
}

bool all_delivered_count(
    const std::vector<std::unique_ptr<SecureAtomicChannel>>& cs,
    std::size_t count, const std::set<int>& skip = {}) {
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (skip.contains(static_cast<int>(i))) continue;
    if (cs[i]->deliveries().size() < count) return false;
  }
  return true;
}

TEST(SecureAtomicChannel, EndToEndDelivery) {
  Cluster c(4, 1, 1);
  auto chans = make_channels(c, "sac.e2e");
  for (int m = 0; m < 3; ++m) {
    c.sim.at(m * 1.0, 0, [&, m] {
      chans[0]->send(to_bytes("secret-" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 3); }, 4e6));
  const auto expected = delivered_strings(*chans[0]);
  EXPECT_EQ(expected, (std::vector<std::string>{"secret-0", "secret-1",
                                                "secret-2"}));
  for (const auto& ch : chans) EXPECT_EQ(delivered_strings(*ch), expected);
}

TEST(SecureAtomicChannel, PushOnlyKeepsNoCiphertextOrCleartextInbox) {
  // The inner atomic channel hands every ordered ciphertext straight to
  // the decryption stage, so it must not also buffer it for receive():
  // that inbox was never drained and grew by one ciphertext per
  // delivery.  A cleartext callback likewise turns this channel's own
  // inbox off.
  Cluster c(4, 1, 6);
  auto chans = make_channels(c, "sac.push");
  std::vector<std::string> pushed;
  chans[1]->set_deliver_callback([&](const Bytes& payload, PartyId origin) {
    EXPECT_EQ(origin, -1);  // the sender is hidden in the ciphertext
    pushed.push_back(to_string(payload));
  });
  constexpr int kMessages = 4;
  for (int m = 0; m < kMessages; ++m) {
    c.sim.at(m * 1.0, 0, [&, m] {
      chans[0]->send(to_bytes("sealed-" + std::to_string(m)));
    });
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, kMessages); }, 4e6));
  for (const auto& ch : chans) {
    EXPECT_EQ(ch->ordering().deliveries().size(),
              static_cast<std::size_t>(kMessages));
    EXPECT_FALSE(ch->ordering().can_receive());
  }
  EXPECT_EQ(pushed, delivered_strings(*chans[1]));
  EXPECT_FALSE(chans[1]->can_receive());
  // Without a callback the pull surface still works.
  EXPECT_EQ(to_string(*chans[2]->receive()), "sealed-0");
}

TEST(SecureAtomicChannel, CiphertextAvailableBeforeCleartext) {
  // receiveCiphertext (§3.4): the position of the next output is fixed
  // (ciphertext known) before/independently of its decryption.
  Cluster c(4, 1, 2);
  auto chans = make_channels(c, "sac.ct");
  c.sim.at(0.0, 1, [&] { chans[1]->send(to_bytes("payload")); });
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 1); }, 4e6));
  ASSERT_TRUE(chans[2]->can_receive_ciphertext());
  const auto ct = chans[2]->receive_ciphertext();
  ASSERT_TRUE(ct.has_value());
  // The ciphertext is not the payload (it is hidden until decryption) ...
  EXPECT_EQ(to_string(*ct).find("payload"), std::string::npos);
  // ... and the cleartext is separately receivable.
  EXPECT_EQ(to_string(*chans[2]->receive()), "payload");
}

TEST(SecureAtomicChannel, PayloadHiddenOnTheWire) {
  // No transmitted frame may contain the plaintext: confidentiality until
  // the delivery position is fixed.
  Cluster c(4, 1, 3);
  const std::string secret = "DEADBEEF-THE-SEALED-BID-4242";
  // Capture all frames via the delay hook? The simulator doesn't expose
  // payloads there; instead check the ciphertext bytes directly.
  auto chans = make_channels(c, "sac.hidden");
  Rng rng(7);
  const Bytes ct = SecureAtomicChannel::encrypt(
      *c.deal.encryption_key, "sac.hidden", to_bytes(secret), rng);
  EXPECT_EQ(to_string(ct).find(secret), std::string::npos);
  c.sim.at(0.0, 0, [&] { chans[0]->send_ciphertext(ct); });
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 1); }, 4e6));
  EXPECT_EQ(to_string(*chans[3]->receive()), secret);
}

TEST(SecureAtomicChannel, ExternalClientCiphertextPath) {
  // A non-member encrypts with only the public key; a member relays the
  // ciphertext without seeing the cleartext (paper §3.4).
  Cluster c(4, 1, 4);
  auto chans = make_channels(c, "sac.ext");
  Rng client_rng(99);  // the client's own randomness, outside the group
  const Bytes ct = SecureAtomicChannel::encrypt(
      *c.deal.encryption_key, "sac.ext", to_bytes("external order #7"),
      client_rng);
  c.sim.at(0.0, 2, [&] { chans[2]->send_ciphertext(ct); });
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 1); }, 4e6));
  for (const auto& ch : chans) {
    EXPECT_EQ(delivered_strings(*ch),
              std::vector<std::string>{"external order #7"});
  }
}

TEST(SecureAtomicChannel, MauledCiphertextSkippedUniformly) {
  // A Byzantine member bypasses encrypt() and broadcasts garbage.  TDH2's
  // validity check fails identically everywhere; honest parties skip the
  // position and stay in sync.
  Cluster c(4, 1, 5);
  auto chans = make_channels(c, "sac.maul");
  c.sim.at(0.0, 3, [&] {
    chans[3]->send_ciphertext(Bytes(50, 0xab));  // not a valid ciphertext
  });
  c.sim.at(1.0, 0, [&] { chans[0]->send(to_bytes("good")); });
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 1); }, 4e6));
  for (const auto& ch : chans) {
    EXPECT_EQ(delivered_strings(*ch), std::vector<std::string>{"good"});
  }
}

TEST(SecureAtomicChannel, OrderPreservedUnderConcurrentSends) {
  Cluster c(4, 1, 6);
  auto chans = make_channels(c, "sac.order");
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < 2; ++m) {
      c.sim.at(m * 2.0, s, [&, s, m] {
        chans[static_cast<std::size_t>(s)]->send(
            to_bytes("p" + std::to_string(s) + std::to_string(m)));
      });
    }
  }
  ASSERT_TRUE(c.sim.run_until(
      [&] { return all_delivered_count(chans, 6); }, 8e6));
  const auto expected = delivered_strings(*chans[0]);
  for (const auto& ch : chans) EXPECT_EQ(delivered_strings(*ch), expected);
}

TEST(SecureAtomicChannel, CloseProtocolWorksThroughEncryptedChannel) {
  Cluster c(4, 1, 7);
  auto chans = make_channels(c, "sac.close");
  c.sim.at(0.0, 0, [&] { chans[0]->close(); });
  c.sim.at(0.0, 1, [&] { chans[1]->close(); });
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        return std::all_of(chans.begin(), chans.end(),
                           [](const auto& ch) { return ch->is_closed(); });
      },
      4e6));
  EXPECT_FALSE(chans[0]->can_send());
}

// A channel reports closed only once every ciphertext ordered before the
// close has been decrypted and delivered: a replica completes, and takes
// its final checkpoint, on that signal, so by then it must hold the whole
// agreed sequence.
TEST(SecureAtomicChannel, ClosesOnlyAfterTheOrderedTailIsDelivered) {
  Cluster c(4, 1, 9);
  // One round orders a bundle from every party: the payloads of parties 0
  // and 1 sort before the close requests of parties 2 and 3, so the close
  // quorum is reached in the round that orders two ciphertexts nobody has
  // decrypted yet.
  AtomicChannel::Config config;
  config.batch_size = 4;
  auto chans = c.make_protocols<SecureAtomicChannel>(
      [&](Environment& env, Dispatcher& disp, int) {
        return std::make_unique<SecureAtomicChannel>(env, disp, "sac.tail",
                                                     config);
      });
  std::vector<std::size_t> delivered_at_close(chans.size(), 0);
  std::vector<int> closed_calls(chans.size(), 0);
  for (std::size_t i = 0; i < chans.size(); ++i) {
    chans[i]->set_closed_callback([&, i] {
      ++closed_calls[i];
      delivered_at_close[i] = chans[i]->deliveries().size();
    });
  }
  for (int s = 0; s < 4; ++s) {
    c.sim.at(0.0, s, [&, s] {
      auto& ch = *chans[static_cast<std::size_t>(s)];
      if (s < 2) {
        ch.send(to_bytes("tail-" + std::to_string(s)));
      } else {
        ch.close();
      }
    });
  }
  c.sim.run();  // to quiescence: every pending decryption finishes
  const auto expected = delivered_strings(*chans[0]);
  EXPECT_FALSE(expected.empty());
  for (std::size_t i = 0; i < chans.size(); ++i) {
    EXPECT_TRUE(chans[i]->is_closed()) << i;
    EXPECT_EQ(closed_calls[i], 1) << i;
    EXPECT_EQ(delivered_strings(*chans[i]), expected) << i;
    EXPECT_EQ(delivered_at_close[i], expected.size()) << i;
  }
}

TEST(SecureAtomicChannel, DecryptionAddsLatencyOverAtomic) {
  // Sanity check of the Table 1 relationship: secure > atomic for the
  // same workload (one extra decryption round).
  Cluster c(4, 1, 8);
  auto secure = make_channels(c, "sac.lat");
  auto atomic = c.make_protocols<AtomicChannel>(
      [&](Environment& env, Dispatcher& disp, int) {
        return std::make_unique<AtomicChannel>(env, disp, "ac.lat");
      });
  c.sim.at(0.0, 0, [&] {
    secure[0]->send(to_bytes("x"));
    atomic[0]->send(to_bytes("x"));
  });
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        return secure[1]->deliveries().size() == 1 &&
               atomic[1]->deliveries().size() == 1;
      },
      8e6));
  EXPECT_GT(secure[1]->deliveries()[0].time_ms,
            atomic[1]->deliveries()[0].time_ms);
}

}  // namespace
}  // namespace sintra::core
