// Sliding-window link tests: unit-level over a scripted channel, and
// integration-level by running a full Byzantine protocol over lossy
// datagrams through the link layer — the paper's planned TCP replacement
// (§3) actually carrying SINTRA traffic.
#include "core/link/sliding_window.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/broadcast/reliable_broadcast.hpp"
#include "core/channel/atomic_channel.hpp"
#include "sim_fixture.hpp"
#include "util/hex.hpp"

namespace sintra::core {
namespace {

using testing::Cluster;

// --- Unit level: a scripted in-memory channel pair ---

class ScriptedChannel final : public DatagramChannel {
 public:
  void send_datagram(Bytes datagram) override {
    sent.push_back(std::move(datagram));
  }
  void call_later(double delay_ms, std::function<void()> fn) override {
    timers.emplace_back(delay_ms, std::move(fn));
  }
  void fire_timers() {
    auto pending = std::move(timers);
    timers.clear();
    for (auto& [delay, fn] : pending) fn();
  }
  std::vector<Bytes> sent;
  std::vector<std::pair<double, std::function<void()>>> timers;
};

struct LinkPair {
  ScriptedChannel ca, cb;
  SlidingWindowLink a, b;
  std::vector<std::string> delivered_at_a, delivered_at_b;

  explicit LinkPair(SlidingWindowLink::Options opts = {})
      : a(ca, 0, 1, to_bytes("0123456789abcdef"), opts),
        b(cb, 1, 0, to_bytes("0123456789abcdef"), opts) {
    a.set_deliver_callback(
        [this](Bytes m) { delivered_at_a.push_back(to_string(m)); });
    b.set_deliver_callback(
        [this](Bytes m) { delivered_at_b.push_back(to_string(m)); });
    // Epoch bootstrap, as NetEnvironment does on startup: exchange
    // announcements so both ends know the peer's session epoch and
    // manually-fed frames below are numbered against a known session.
    a.announce();
    b.announce();
    shuttle();
    ca.sent.clear();
    cb.sent.clear();
  }

  // Moves all queued datagrams in both directions until quiescent.
  void shuttle() {
    for (int round = 0; round < 100; ++round) {
      auto from_a = std::move(ca.sent);
      ca.sent.clear();
      auto from_b = std::move(cb.sent);
      cb.sent.clear();
      if (from_a.empty() && from_b.empty()) return;
      for (const auto& d : from_a) b.on_datagram(d);
      for (const auto& d : from_b) a.on_datagram(d);
    }
  }
};

TEST(SlidingWindow, InOrderDeliveryOnCleanChannel) {
  LinkPair lp;
  for (int i = 0; i < 10; ++i) lp.a.send(to_bytes("m" + std::to_string(i)));
  lp.shuttle();
  ASSERT_EQ(lp.delivered_at_b.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(lp.delivered_at_b[static_cast<std::size_t>(i)],
              "m" + std::to_string(i));
  }
  EXPECT_EQ(lp.a.acked_seq(), 10u);
}

TEST(SlidingWindow, BidirectionalTraffic) {
  LinkPair lp;
  lp.a.send(to_bytes("ping"));
  lp.b.send(to_bytes("pong"));
  lp.shuttle();
  EXPECT_EQ(lp.delivered_at_b, std::vector<std::string>{"ping"});
  EXPECT_EQ(lp.delivered_at_a, std::vector<std::string>{"pong"});
}

TEST(SlidingWindow, LostDataRecoveredByRetransmission) {
  LinkPair lp;
  lp.a.send(to_bytes("lost"));
  lp.ca.sent.clear();  // the network ate the datagram
  EXPECT_TRUE(lp.delivered_at_b.empty());
  lp.ca.fire_timers();  // retransmission timeout
  lp.shuttle();
  EXPECT_EQ(lp.delivered_at_b, std::vector<std::string>{"lost"});
  EXPECT_GE(lp.a.retransmissions(), 1u);
}

TEST(SlidingWindow, LostAckHealedByDuplicateData) {
  LinkPair lp;
  lp.a.send(to_bytes("x"));
  // Deliver the data but drop the ACK.
  auto data = std::move(lp.ca.sent);
  lp.ca.sent.clear();
  for (const auto& d : data) lp.b.on_datagram(d);
  lp.cb.sent.clear();  // ACK lost
  EXPECT_EQ(lp.a.acked_seq(), 0u);
  // Sender times out and retransmits; receiver re-acks without
  // re-delivering.
  lp.ca.fire_timers();
  lp.shuttle();
  EXPECT_EQ(lp.delivered_at_b, std::vector<std::string>{"x"});  // once!
  EXPECT_EQ(lp.a.acked_seq(), 1u);
}

TEST(SlidingWindow, DuplicatedDatagramsDeliverOnce) {
  LinkPair lp;
  lp.a.send(to_bytes("dup"));
  auto data = std::move(lp.ca.sent);
  lp.ca.sent.clear();
  for (int i = 0; i < 5; ++i) {
    for (const auto& d : data) lp.b.on_datagram(d);
  }
  EXPECT_EQ(lp.delivered_at_b, std::vector<std::string>{"dup"});
}

TEST(SlidingWindow, ReorderedDatagramsDeliverInOrder) {
  LinkPair lp;
  for (int i = 0; i < 5; ++i) lp.a.send(to_bytes("r" + std::to_string(i)));
  auto data = std::move(lp.ca.sent);
  lp.ca.sent.clear();
  std::reverse(data.begin(), data.end());
  for (const auto& d : data) lp.b.on_datagram(d);
  ASSERT_EQ(lp.delivered_at_b.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(lp.delivered_at_b[static_cast<std::size_t>(i)],
              "r" + std::to_string(i));
  }
}

TEST(SlidingWindow, WindowLimitsInFlight) {
  SlidingWindowLink::Options opts;
  opts.window = 4;
  LinkPair lp(opts);
  for (int i = 0; i < 10; ++i) lp.a.send(to_bytes("w" + std::to_string(i)));
  EXPECT_EQ(lp.ca.sent.size(), 4u);  // only the window is in flight
  lp.shuttle();  // acks open the window
  EXPECT_EQ(lp.delivered_at_b.size(), 10u);
}

TEST(SlidingWindow, ForgedAcknowledgmentsRejected) {
  // The §3 attack: forged acknowledgments must not advance the sender.
  LinkPair lp;
  lp.a.send(to_bytes("guarded"));
  lp.ca.sent.clear();  // data lost
  // Attacker forges an ACK frame for seq 1 without the key.
  Writer w;
  w.u8(2);           // kAck
  w.u64(lp.b.epoch());  // even genuine-looking epochs don't help
  w.u64(lp.a.epoch());
  w.u64(1);
  w.bytes(Bytes{});
  w.bytes(Bytes(20, 0x42));  // bogus MAC
  lp.a.on_datagram(w.data());
  EXPECT_EQ(lp.a.acked_seq(), 0u);  // not fooled
  // Recovery still works.
  lp.ca.fire_timers();
  lp.shuttle();
  EXPECT_EQ(lp.delivered_at_b, std::vector<std::string>{"guarded"});
}

TEST(SlidingWindow, ForgedDataRejected) {
  LinkPair lp;
  Writer w;
  w.u8(1);  // kData
  w.u64(lp.a.epoch());
  w.u64(lp.b.epoch());
  w.u64(0);
  w.bytes(to_bytes("evil"));
  w.bytes(Bytes(20, 0x13));
  lp.b.on_datagram(w.data());
  EXPECT_TRUE(lp.delivered_at_b.empty());
  lp.b.on_datagram(Bytes{});        // malformed
  lp.b.on_datagram(Bytes(3, 0x7));  // truncated
  EXPECT_TRUE(lp.delivered_at_b.empty());
}

TEST(SlidingWindow, ReflectedFrameRejected) {
  // A frame A sent to B, replayed back at A, must not verify (direction
  // is bound into the MAC even though the link key is symmetric).
  LinkPair lp;
  lp.a.send(to_bytes("directional"));
  ASSERT_FALSE(lp.ca.sent.empty());
  const Bytes frame = lp.ca.sent[0];
  lp.a.on_datagram(frame);  // reflected
  EXPECT_TRUE(lp.delivered_at_a.empty());
}

// Golden wire bytes: one data frame and the ack that answers it, under a
// fixed key, ids, epochs, sequence number and a body that spans two SHA-1
// blocks.  Any change to the frame layout or to what the MAC covers
// changes these bytes.
TEST(SlidingWindow, FrameBytesPinned) {
  const Bytes key = to_bytes("pinned-link-key!");
  SlidingWindowLink::Options oa, ob;
  oa.epoch = 0x0123456789abcdefULL;
  ob.epoch = 0xfedcba9876543210ULL;
  ScriptedChannel ca, cb;
  SlidingWindowLink a(ca, 2, 5, key, oa);
  SlidingWindowLink b(cb, 5, 2, key, ob);
  std::vector<Bytes> delivered;
  b.set_deliver_callback([&](Bytes m) { delivered.push_back(std::move(m)); });
  // Epoch bootstrap: a announces, b answers with an ack echoing a's epoch.
  a.announce();
  for (const Bytes& d : ca.sent) b.on_datagram(d);
  for (const Bytes& d : cb.sent) a.on_datagram(d);
  ca.sent.clear();
  cb.sent.clear();
  ASSERT_EQ(a.peer_epoch(), ob.epoch);

  Bytes body(100);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  a.send(body);
  ASSERT_EQ(ca.sent.size(), 1u);
  EXPECT_EQ(hex_encode(ca.sent[0]),
            "010123456789abcdeffedcba9876543210000000000000000000000064030a11"
            "181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1"
            "f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1"
            "d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1"
            "b8000000144f2969714460f892b085dd8763508aa7f0f3460c");
  b.on_datagram(ca.sent[0]);
  ASSERT_EQ(delivered, std::vector<Bytes>{body});
  ASSERT_EQ(cb.sent.size(), 1u);
  EXPECT_EQ(hex_encode(cb.sent[0]),
            "02fedcba98765432100123456789abcdef000000000000000100000000000000"
            "148bf9ad43ccc642fcbd4c4d1ae875339ac44f15db");
}

// --- Drop accounting: every rejected datagram lands in exactly one
// stats bucket (the counters the cluster runner and node stats report) ---

TEST(SlidingWindowStats, TruncatedFramesCountedMalformed) {
  LinkPair lp;
  lp.b.on_datagram(Bytes{});         // empty
  lp.b.on_datagram(Bytes(3, 0x7));   // too short for any frame
  lp.a.send(to_bytes("basis"));
  ASSERT_FALSE(lp.ca.sent.empty());
  Bytes cut = lp.ca.sent[0];
  cut.resize(cut.size() / 2);        // genuine frame, chopped mid-body
  lp.b.on_datagram(cut);
  EXPECT_EQ(lp.b.stats().drop_malformed, 3u);
  EXPECT_EQ(lp.b.stats().drop_auth, 0u);
  EXPECT_EQ(lp.b.stats().delivered, 0u);
  EXPECT_TRUE(lp.delivered_at_b.empty());
}

TEST(SlidingWindowStats, BitFlippedFrameCountedAuthFailure) {
  LinkPair lp;
  lp.a.send(to_bytes("integrity"));
  ASSERT_FALSE(lp.ca.sent.empty());
  const Bytes genuine = lp.ca.sent[0];
  // Flip one bit in the epoch-echo field (offset 13 = inside the echo,
  // past the type and sender-epoch header) and one in the MAC: both must
  // fail verification, not parsing — the epochs are MAC-covered.
  for (const std::size_t at : {std::size_t{13}, genuine.size() - 1}) {
    Bytes flipped = genuine;
    flipped[at] ^= 0x01;
    lp.b.on_datagram(flipped);
  }
  EXPECT_EQ(lp.b.stats().drop_auth, 2u);
  EXPECT_EQ(lp.b.stats().data_received, 0u);
  EXPECT_TRUE(lp.delivered_at_b.empty());
  // The untouched frame still goes through afterwards.
  lp.b.on_datagram(genuine);
  EXPECT_EQ(lp.delivered_at_b, std::vector<std::string>{"integrity"});
}

TEST(SlidingWindowStats, ForgedMacCountedAuthFailureBothFrameTypes) {
  LinkPair lp;
  Writer data;
  data.u8(1);  // kData
  data.u64(lp.a.epoch());
  data.u64(lp.b.epoch());
  data.u64(0);
  data.bytes(to_bytes("evil"));
  data.bytes(Bytes(20, 0x13));
  lp.b.on_datagram(data.data());
  Writer ack;
  ack.u8(2);  // kAck
  ack.u64(lp.b.epoch());
  ack.u64(lp.a.epoch());
  ack.u64(7);
  ack.bytes(Bytes{});
  ack.bytes(Bytes(20, 0x42));
  lp.a.send(to_bytes("held"));
  lp.a.on_datagram(ack.data());
  EXPECT_EQ(lp.b.stats().drop_auth, 1u);
  EXPECT_EQ(lp.a.stats().drop_auth, 1u);
  EXPECT_EQ(lp.a.acked_seq(), 0u);  // the forged ACK moved nothing
  Writer unknown;
  unknown.u8(9);  // not a frame type
  unknown.u64(0);
  unknown.u64(0);
  unknown.u64(0);
  unknown.bytes(Bytes{});
  unknown.bytes(Bytes(20, 0x00));
  lp.b.on_datagram(unknown.data());
  EXPECT_EQ(lp.b.stats().drop_malformed, 1u);
}

TEST(SlidingWindowStats, ReplayedFrameCountedDuplicate) {
  LinkPair lp;
  lp.a.send(to_bytes("once"));
  ASSERT_FALSE(lp.ca.sent.empty());
  const Bytes frame = lp.ca.sent[0];
  lp.b.on_datagram(frame);
  for (int i = 0; i < 3; ++i) lp.b.on_datagram(frame);  // replays
  EXPECT_EQ(lp.delivered_at_b, std::vector<std::string>{"once"});
  EXPECT_EQ(lp.b.stats().delivered, 1u);
  EXPECT_EQ(lp.b.stats().drop_duplicate, 3u);
  EXPECT_EQ(lp.b.stats().data_received, 4u);  // all authenticated fine
}

TEST(SlidingWindowStats, FramesBeyondReceiveBufferCountedOverflow) {
  SlidingWindowLink::Options opts;
  opts.max_receive_buffer = 4;
  LinkPair lp(opts);
  for (int i = 0; i < 10; ++i) lp.a.send(to_bytes("f" + std::to_string(i)));
  ASSERT_EQ(lp.ca.sent.size(), 10u);
  // Withhold seq 0: seqs 1..3 fit in the buffer window [0, 4), the rest
  // must be dropped (flood guard), not buffered.
  for (std::size_t i = 1; i < 10; ++i) lp.b.on_datagram(lp.ca.sent[i]);
  EXPECT_TRUE(lp.delivered_at_b.empty());
  EXPECT_EQ(lp.b.stats().drop_overflow, 6u);  // seqs 4..9
  lp.b.on_datagram(lp.ca.sent[0]);  // the hole arrives
  EXPECT_EQ(lp.delivered_at_b.size(), 4u);    // 0..3 flush in order
  EXPECT_EQ(lp.delivered_at_b[0], "f0");
  EXPECT_EQ(lp.delivered_at_b[3], "f3");
}

// --- Link-session epochs: restart detection, session reset, and
// rejection of frames replayed from a dead session (DESIGN.md §10) ---

TEST(SlidingWindowEpoch, EpochsAreNonzeroAndLearnedOnBootstrap) {
  SlidingWindowLink::Options opts;
  opts.epoch = 42;
  ScriptedChannel ch;
  SlidingWindowLink explicit_epoch(ch, 0, 1, to_bytes("0123456789abcdef"),
                                   opts);
  EXPECT_EQ(explicit_epoch.epoch(), 42u);

  LinkPair lp;  // derived epochs, announce-synced in the constructor
  EXPECT_NE(lp.a.epoch(), 0u);
  EXPECT_NE(lp.b.epoch(), 0u);
  EXPECT_NE(lp.a.epoch(), lp.b.epoch());  // distinct per direction pair
  EXPECT_EQ(lp.a.peer_epoch(), lp.b.epoch());
  EXPECT_EQ(lp.b.peer_epoch(), lp.a.epoch());
  EXPECT_EQ(lp.a.stats().epoch_resets, 0u);  // clean bootstrap, no reset
  EXPECT_EQ(lp.b.stats().epoch_resets, 0u);
}

TEST(SlidingWindowEpoch, PeerRestartResetsSessionAndTrafficResumes) {
  const Bytes key = to_bytes("0123456789abcdef");
  ScriptedChannel ca, cb;
  SlidingWindowLink::Options oa, ob1, ob2;
  oa.epoch = 111;
  ob1.epoch = 500;
  ob2.epoch = 501;  // the reborn process draws a fresh epoch

  SlidingWindowLink a(ca, 0, 1, key, oa);
  auto b = std::make_unique<SlidingWindowLink>(cb, 1, 0, key, ob1);
  std::vector<std::string> at_b;
  b->set_deliver_callback([&](Bytes m) { at_b.push_back(to_string(m)); });
  auto shuttle = [&] {
    for (int round = 0; round < 100; ++round) {
      auto from_a = std::move(ca.sent);
      ca.sent.clear();
      auto from_b = std::move(cb.sent);
      cb.sent.clear();
      if (from_a.empty() && from_b.empty()) return;
      for (const auto& d : from_a) b->on_datagram(d);
      for (const auto& d : from_b) a.on_datagram(d);
    }
  };

  a.send(to_bytes("one"));
  shuttle();
  EXPECT_EQ(at_b, std::vector<std::string>{"one"});
  EXPECT_EQ(a.acked_seq(), 1u);
  EXPECT_EQ(a.peer_epoch(), 500u);

  // B's process is SIGKILLed and restarted: a fresh link with a fresh
  // epoch and zero window state, same key.  A still believes in the old
  // session and numbers its next message against it.
  b = std::make_unique<SlidingWindowLink>(cb, 1, 0, key, ob2);
  at_b.clear();
  b->set_deliver_callback([&](Bytes m) { at_b.push_back(to_string(m)); });
  b->announce();
  a.send(to_bytes("two"));
  shuttle();

  // A detected the restart, reset the session, renumbered the in-flight
  // message from zero, and delivery resumed — exactly once.
  EXPECT_EQ(at_b, std::vector<std::string>{"two"});
  EXPECT_EQ(a.peer_epoch(), 501u);
  EXPECT_EQ(a.stats().epoch_resets, 1u);
  EXPECT_EQ(a.acked_seq(), 1u);  // renumbered: "two" is seq 0 of the new
                                 // session, cumulatively acked to 1
}

TEST(SlidingWindowEpoch, FramesFromDeadSessionRejected) {
  const Bytes key = to_bytes("0123456789abcdef");
  ScriptedChannel ca, cb;
  SlidingWindowLink::Options oa1, oa2, ob;
  oa1.epoch = 111;
  oa2.epoch = 222;
  ob.epoch = 500;

  auto a = std::make_unique<SlidingWindowLink>(ca, 0, 1, key, oa1);
  SlidingWindowLink b(cb, 1, 0, key, ob);
  std::vector<std::string> at_b;
  b.set_deliver_callback([&](Bytes m) { at_b.push_back(to_string(m)); });
  auto shuttle = [&] {
    for (int round = 0; round < 100; ++round) {
      auto from_a = std::move(ca.sent);
      ca.sent.clear();
      auto from_b = std::move(cb.sent);
      cb.sent.clear();
      if (from_a.empty() && from_b.empty()) return;
      for (const auto& d : from_a) b.on_datagram(d);
      for (const auto& d : from_b) a->on_datagram(d);
    }
  };

  // Session 1: deliver a frame and keep a verbatim copy (an attacker
  // recording the wire).
  a->send(to_bytes("recorded"));
  ASSERT_FALSE(ca.sent.empty());
  shuttle();
  ASSERT_EQ(at_b, std::vector<std::string>{"recorded"});

  a->send(to_bytes("captured-in-flight"));
  ASSERT_FALSE(ca.sent.empty());
  const Bytes old_frame = ca.sent[0];
  ca.sent.clear();  // never arrives; only the attacker holds it

  // A restarts with a new epoch; B adopts it and retires epoch 111.
  a = std::make_unique<SlidingWindowLink>(ca, 0, 1, key, oa2);
  a->announce();
  shuttle();
  EXPECT_GE(b.stats().epoch_resets, 1u);
  EXPECT_EQ(b.peer_epoch(), 222u);

  // Replaying the genuine-but-dead frame must not deliver: B's receive
  // state was reset, so without the epoch check this authenticated frame
  // (seq 1 of the old numbering) would be accepted as new-session data.
  at_b.clear();
  const std::uint64_t drops_before = b.stats().drop_epoch;
  b.on_datagram(old_frame);
  EXPECT_TRUE(at_b.empty());
  EXPECT_EQ(b.stats().drop_epoch, drops_before + 1);
  EXPECT_EQ(b.stats().drop_auth, 0u);  // it authenticated fine — the
                                       // epoch, not the MAC, killed it
}

// --- Adaptive retransmission timeout (RTT sampling, backoff, jitter) ---

/// ScriptedChannel plus a controllable monotonic clock, enabling the
/// link's RTT estimator (a clockless channel reports now_ms() < 0).
class ClockedChannel final : public DatagramChannel {
 public:
  void send_datagram(Bytes datagram) override {
    sent.push_back(std::move(datagram));
  }
  void call_later(double delay_ms, std::function<void()> fn) override {
    timers.emplace_back(delay_ms, std::move(fn));
  }
  [[nodiscard]] double now_ms() const override { return now; }
  void fire_timers() {
    auto pending = std::move(timers);
    timers.clear();
    for (auto& [delay, fn] : pending) fn();
  }
  double now = 0.0;
  std::vector<Bytes> sent;
  std::vector<std::pair<double, std::function<void()>>> timers;
};

struct ClockedLinkPair {
  ClockedChannel ca, cb;
  SlidingWindowLink a, b;

  explicit ClockedLinkPair(SlidingWindowLink::Options opts = {})
      : a(ca, 0, 1, to_bytes("0123456789abcdef"), opts),
        b(cb, 1, 0, to_bytes("0123456789abcdef"), opts) {
    // Epoch bootstrap (see LinkPair); announcement ACKs carry seq 0 and
    // produce no RTT samples, so the estimator stays cold.
    a.announce();
    b.announce();
    for (int round = 0; round < 10; ++round) {
      auto from_a = std::move(ca.sent);
      ca.sent.clear();
      auto from_b = std::move(cb.sent);
      cb.sent.clear();
      if (from_a.empty() && from_b.empty()) break;
      for (const auto& d : from_a) b.on_datagram(d);
      for (const auto& d : from_b) a.on_datagram(d);
    }
  }

  /// One message a -> b with the given one-way delay; the ACK returns
  /// after the same delay, so the measured RTT is 2 * delay.
  void roundtrip(double one_way_ms) {
    a.send(to_bytes("m"));
    auto data = std::move(ca.sent);
    ca.sent.clear();
    ca.now += one_way_ms;
    cb.now = ca.now;
    for (const auto& d : data) b.on_datagram(d);
    auto acks = std::move(cb.sent);
    cb.sent.clear();
    ca.now += one_way_ms;
    cb.now = ca.now;
    for (const auto& d : acks) a.on_datagram(d);
  }
};

TEST(SlidingWindowRto, RttSamplesAdaptTheTimeout) {
  SlidingWindowLink::Options opts;
  opts.retransmit_ms = 500.0;  // deliberately far from the true RTT
  opts.min_rto_ms = 10.0;
  ClockedLinkPair lp(opts);
  EXPECT_EQ(lp.a.stats().rto_ms, 500.0);
  lp.roundtrip(2.5);  // RTT 5ms
  EXPECT_EQ(lp.a.stats().rtt_samples, 1u);
  EXPECT_DOUBLE_EQ(lp.a.stats().srtt_ms, 5.0);
  // First sample: rto = srtt + 4 * (srtt / 2) = 15, clamped above min.
  EXPECT_DOUBLE_EQ(lp.a.stats().rto_ms, 15.0);
  for (int i = 0; i < 20; ++i) lp.roundtrip(2.5);
  // Stable RTT: variance decays, rto converges toward srtt (min clamp).
  EXPECT_EQ(lp.a.stats().rtt_samples, 21u);
  EXPECT_LT(lp.a.stats().rto_ms, 15.0);
  EXPECT_GE(lp.a.stats().rto_ms, opts.min_rto_ms);
}

TEST(SlidingWindowRto, TimeoutsBackOffExponentiallyToTheCap) {
  SlidingWindowLink::Options opts;
  opts.retransmit_ms = 50.0;
  opts.max_rto_ms = 300.0;
  opts.jitter = 0.0;  // deterministic timer delays for this test
  ClockedLinkPair lp(opts);
  lp.a.send(to_bytes("void"));  // the peer never answers
  lp.ca.sent.clear();
  double previous = lp.a.stats().rto_ms;
  EXPECT_DOUBLE_EQ(previous, 50.0);
  lp.ca.fire_timers();
  EXPECT_DOUBLE_EQ(lp.a.stats().rto_ms, 100.0);
  lp.ca.fire_timers();
  EXPECT_DOUBLE_EQ(lp.a.stats().rto_ms, 200.0);
  lp.ca.fire_timers();
  EXPECT_DOUBLE_EQ(lp.a.stats().rto_ms, 300.0);  // clamped to the cap
  EXPECT_EQ(lp.a.stats().backoffs, 3u);
  lp.ca.fire_timers();
  EXPECT_DOUBLE_EQ(lp.a.stats().rto_ms, 300.0);  // stays at the cap
  EXPECT_EQ(lp.a.stats().backoffs, 3u);  // capped expiries don't count
  EXPECT_EQ(lp.a.stats().retransmissions, 4u);
  // The re-armed timer uses the backed-off value.
  ASSERT_FALSE(lp.ca.timers.empty());
  EXPECT_DOUBLE_EQ(lp.ca.timers.back().first, 300.0);
}

TEST(SlidingWindowRto, KarnsRuleSkipsRetransmittedFrames) {
  SlidingWindowLink::Options opts;
  opts.jitter = 0.0;
  ClockedLinkPair lp(opts);
  lp.a.send(to_bytes("retried"));
  lp.ca.sent.clear();      // first copy lost
  lp.ca.now = 60.0;
  lp.cb.now = 60.0;
  lp.ca.fire_timers();     // retransmission
  auto data = std::move(lp.ca.sent);
  lp.ca.sent.clear();
  lp.ca.now = 65.0;
  lp.cb.now = 65.0;
  for (const auto& d : data) lp.b.on_datagram(d);
  auto acks = std::move(lp.cb.sent);
  lp.cb.sent.clear();
  for (const auto& d : acks) lp.a.on_datagram(d);
  // Acked — but via a retransmitted frame, so the ambiguous RTT (which
  // copy was acked?) must produce no sample and leave the estimator cold.
  EXPECT_EQ(lp.a.acked_seq(), 1u);
  EXPECT_EQ(lp.a.stats().rtt_samples, 0u);
  EXPECT_LT(lp.a.stats().srtt_ms, 0.0);
  // The next clean exchange samples normally again.
  lp.roundtrip(2.0);
  EXPECT_EQ(lp.a.stats().rtt_samples, 1u);
}

TEST(SlidingWindowRto, RetransmitTimerIsJittered) {
  SlidingWindowLink::Options opts;
  opts.retransmit_ms = 100.0;
  opts.jitter = 0.1;
  // Clockless pair: no RTT samples, so every arm jitters around the same
  // fixed 100ms timeout and the spread is purely the jitter term.
  LinkPair lp(opts);
  std::vector<double> delays;
  for (int i = 0; i < 16; ++i) {
    lp.a.send(to_bytes("j" + std::to_string(i)));
    ASSERT_FALSE(lp.ca.timers.empty());
    delays.push_back(lp.ca.timers.back().first);
    // Complete the exchange, then let the (now-moot) timer expire so the
    // next send arms a fresh one.
    auto data = std::move(lp.ca.sent);
    lp.ca.sent.clear();
    for (const auto& d : data) lp.b.on_datagram(d);
    auto acks = std::move(lp.cb.sent);
    lp.cb.sent.clear();
    for (const auto& d : acks) lp.a.on_datagram(d);
    lp.ca.fire_timers();  // nothing in flight: no retransmission
  }
  double lo = delays[0], hi = delays[0];
  for (const double d : delays) {
    EXPECT_GE(d, 100.0 * 0.9);
    EXPECT_LE(d, 100.0 * 1.1);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GT(hi - lo, 1.0);  // actually spread, not a constant
}

TEST(SlidingWindowRto, ClocklessChannelKeepsFixedTimeout) {
  // The simulator-era ScriptedChannel has no clock (now_ms() < 0): the
  // link must never RTT-sample there, only back off and recover.
  LinkPair lp;
  lp.a.send(to_bytes("no-clock"));
  lp.shuttle();
  EXPECT_EQ(lp.delivered_at_b, std::vector<std::string>{"no-clock"});
  EXPECT_EQ(lp.a.stats().rtt_samples, 0u);
  EXPECT_LT(lp.a.stats().srtt_ms, 0.0);
}

/// Clockless channel whose timers fire when virtual time reaches them,
/// so a test can tell a timer armed at the first send from one restarted
/// at the latest acknowledgment.
class TimedChannel final : public DatagramChannel {
 public:
  void send_datagram(Bytes datagram) override {
    sent.push_back(std::move(datagram));
  }
  void call_later(double delay_ms, std::function<void()> fn) override {
    timers.emplace(now + delay_ms, std::move(fn));
  }
  void advance(double ms) {
    const double until = now + ms;
    while (!timers.empty() && timers.begin()->first <= until) {
      auto due = timers.extract(timers.begin());
      now = due.key();
      due.mapped()();
    }
    now = until;
  }
  double now = 0.0;
  std::vector<Bytes> sent;
  std::multimap<double, std::function<void()>> timers;
};

TEST(SlidingWindowRto, AckProgressRestartsTheTimer) {
  SlidingWindowLink::Options opts;
  opts.retransmit_ms = 100.0;
  opts.jitter = 0.0;
  TimedChannel ca;
  ScriptedChannel cb;
  SlidingWindowLink a(ca, 0, 1, to_bytes("0123456789abcdef"), opts);
  SlidingWindowLink b(cb, 1, 0, to_bytes("0123456789abcdef"), opts);
  std::size_t delivered = 0;
  b.set_deliver_callback([&](Bytes) { ++delivered; });
  auto a_to_b = [&] {
    auto data = std::move(ca.sent);
    ca.sent.clear();
    for (const auto& d : data) b.on_datagram(d);
  };
  auto b_to_a = [&] {
    auto acks = std::move(cb.sent);
    cb.sent.clear();
    for (const auto& d : acks) a.on_datagram(d);
  };
  a.announce();
  b.announce();
  a_to_b();
  b_to_a();
  // A frame every 40 ms, each acked 60 ms after its send: two frames are
  // always in flight, and the stream outlasts the RTO many times over,
  // but no frame ever waits a full RTO for its ACK.
  constexpr int kFrames = 40;
  for (int k = 0; k < kFrames; ++k) {
    a.send(to_bytes("s" + std::to_string(k)));
    ca.advance(20.0);
    b_to_a();  // the ACK for frame k-1
    ca.advance(20.0);
    a_to_b();  // frame k arrives
  }
  b_to_a();
  EXPECT_EQ(delivered, static_cast<std::size_t>(kFrames));
  EXPECT_EQ(a.acked_seq(), static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(a.stats().retransmissions, 0u);
  EXPECT_EQ(a.stats().backoffs, 0u);

  // A lost frame is still resent one RTO after it was sent.
  a.send(to_bytes("lost"));
  ca.sent.clear();
  ca.advance(99.0);
  EXPECT_EQ(a.stats().retransmissions, 0u);
  ca.advance(1.0);
  EXPECT_EQ(a.stats().retransmissions, 1u);
  a_to_b();
  b_to_a();
  EXPECT_EQ(delivered, static_cast<std::size_t>(kFrames) + 1);
}

// --- Integration: a Byzantine protocol over lossy datagram links ---

// Environment that routes all sends through sliding-window links over the
// simulator's unreliable datagram service.
class LossyLinkEnv final : public Environment {
 public:
  LossyLinkEnv(sim::Simulator& sim, int self, const crypto::PartyKeys& keys)
      : sim_(sim), self_(self), keys_(keys), rng_(0x105e ^ self) {
    auto& svc = sim_.datagrams(self);
    for (int peer = 0; peer < keys_.n; ++peer) {
      if (peer == self) continue;
      channels_.emplace(peer, std::make_unique<PeerChannel>(svc, peer));
      SlidingWindowLink::Options opts;
      opts.retransmit_ms = 20.0;
      links_.emplace(peer, std::make_unique<SlidingWindowLink>(
                               *channels_[peer], self, peer,
                               keys_.link_keys[static_cast<std::size_t>(peer)],
                               opts));
      links_[peer]->set_deliver_callback([this, peer](Bytes wire) {
        dispatcher_.on_message(peer, wire);
      });
    }
    svc.set_handler([this](int from, BytesView datagram) {
      auto it = links_.find(from);
      if (it != links_.end()) it->second->on_datagram(datagram);
    });
  }

  [[nodiscard]] PartyId self() const override { return self_; }
  [[nodiscard]] int n() const override { return keys_.n; }
  [[nodiscard]] int t() const override { return keys_.t; }
  void send(PartyId to, Bytes wire) override {
    if (to == self_) {
      // Loopback: short local delay, no link needed.
      sim_.datagrams(self_).call_later(0.01, [this, wire = std::move(wire)] {
        dispatcher_.on_message(self_, wire);
      });
      return;
    }
    links_.at(to)->send(std::move(wire));
  }
  void send_all(Bytes wire) override {
    for (int j = 0; j < n(); ++j) send(j, wire);
  }
  [[nodiscard]] double now_ms() const override { return sim_.now_ms(); }
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] const crypto::PartyKeys& keys() const override {
    return keys_;
  }

  [[nodiscard]] Dispatcher& dispatcher() { return dispatcher_; }

 private:
  struct PeerChannel final : public DatagramChannel {
    PeerChannel(sim::DatagramService& svc, int peer) : svc(svc), peer(peer) {}
    void send_datagram(Bytes datagram) override {
      svc.send_datagram(peer, std::move(datagram));
    }
    void call_later(double delay_ms, std::function<void()> fn) override {
      svc.call_later(delay_ms, std::move(fn));
    }
    sim::DatagramService& svc;
    int peer;
  };

  sim::Simulator& sim_;
  int self_;
  crypto::PartyKeys keys_;
  Rng rng_;
  Dispatcher dispatcher_;
  std::map<int, std::unique_ptr<PeerChannel>> channels_;
  std::map<int, std::unique_ptr<SlidingWindowLink>> links_;
};

TEST(SlidingWindowIntegration, ReliableBroadcastOver30PercentLoss) {
  Cluster c(4, 1, 99);
  // 30% datagram loss plus duplication and heavy reorder — the link layer
  // must present clean reliable FIFO links to the protocol.
  Rng fault_rng(4242);
  c.sim.datagram_faults.drop = [&fault_rng](int, int, double) {
    return fault_rng.uniform01() < 0.30;
  };
  c.sim.datagram_faults.duplicate = [&fault_rng](int, int, double) {
    return fault_rng.uniform01() < 0.10 ? 1 : 0;
  };
  c.sim.datagram_faults.extra_delay = [&fault_rng](int, int, double) {
    return fault_rng.uniform01() * 30.0;
  };

  std::vector<std::unique_ptr<LossyLinkEnv>> envs;
  std::vector<std::unique_ptr<ReliableBroadcast>> rbcs;
  for (int i = 0; i < 4; ++i) {
    envs.push_back(std::make_unique<LossyLinkEnv>(c.sim, i,
                                                  c.deal.parties[static_cast<std::size_t>(i)]));
    rbcs.push_back(std::make_unique<ReliableBroadcast>(
        *envs.back(), envs.back()->dispatcher(), "lossy.rbc", 0));
  }
  const Bytes payload = to_bytes("delivered despite 30% loss");
  c.sim.at(0.0, 0, [&] { rbcs[0]->send(payload); });
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        return std::all_of(rbcs.begin(), rbcs.end(), [&](const auto& r) {
          return r->delivered().has_value();
        });
      },
      600000));
  for (const auto& r : rbcs) EXPECT_EQ(*r->delivered(), payload);
}

TEST(SlidingWindowIntegration, AtomicChannelLaggardCatchesUp) {
  // The multi-process deployment hazard: one party's network is so slow
  // that the other three finish the whole channel (including the agreed
  // close) before it completes its first round.  Once its datagrams start
  // flowing it must catch up from the peers' retransmissions and retained
  // instances alone — nobody re-runs anything for it.
  Cluster c(4, 1, 11);
  c.sim.datagram_faults.extra_delay = [](int from, int to, double depart) {
    const bool involves_laggard = from == 3 || to == 3;
    return involves_laggard && depart < 2000.0 ? 5000.0 : 0.0;
  };

  std::vector<std::unique_ptr<LossyLinkEnv>> envs;
  std::vector<std::unique_ptr<AtomicChannel>> channels;
  std::vector<std::vector<std::string>> delivered(4);
  int closed = 0;
  for (int i = 0; i < 4; ++i) {
    envs.push_back(std::make_unique<LossyLinkEnv>(
        c.sim, i, c.deal.parties[static_cast<std::size_t>(i)]));
    channels.push_back(std::make_unique<AtomicChannel>(
        *envs.back(), envs.back()->dispatcher(), "laggard.ac"));
    channels.back()->set_deliver_callback(
        [&delivered, i](const Bytes& payload, PartyId) {
          delivered[static_cast<std::size_t>(i)].push_back(
              to_string(payload));
        });
    channels.back()->set_closed_callback([&closed] { ++closed; });
  }
  for (int i = 0; i < 4; ++i) {
    c.sim.at(0.0, i, [&, i] {
      for (int k = 0; k < 3; ++k) {
        channels[static_cast<std::size_t>(i)]->send(
            to_bytes("p" + std::to_string(i) + ":" + std::to_string(k)));
      }
      channels[static_cast<std::size_t>(i)]->close();
    });
  }
  const bool ok = c.sim.run_until([&] { return closed == 4; }, 600000);
  if (!ok) {
    for (int i = 0; i < 4; ++i) {
      std::fprintf(stderr,
                   "party %d: closed=%d rounds=%d delivered=%zu buffered=%zu\n",
                   i, channels[static_cast<std::size_t>(i)]->is_closed(),
                   channels[static_cast<std::size_t>(i)]->rounds_completed(),
                   delivered[static_cast<std::size_t>(i)].size(),
                   envs[static_cast<std::size_t>(i)]
                       ->dispatcher()
                       .buffered_count());
    }
  }
  ASSERT_TRUE(ok);
  EXPECT_FALSE(delivered[0].empty());
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], delivered[0]);
  }
}

TEST(SlidingWindowIntegration, ManyMessagesStayFifoUnderLoss) {
  Cluster c(4, 1, 7);
  Rng fault_rng(777);
  c.sim.datagram_faults.drop = [&fault_rng](int, int, double) {
    return fault_rng.uniform01() < 0.25;
  };
  LossyLinkEnv env0(c.sim, 0, c.deal.parties[0]);
  LossyLinkEnv env1(c.sim, 1, c.deal.parties[1]);
  std::vector<int> got;
  env1.dispatcher().register_pid("fifo", [&](PartyId, BytesView p) {
    Reader r(p);
    got.push_back(static_cast<int>(r.u32()));
  });
  c.sim.at(0.0, 0, [&] {
    for (int i = 0; i < 50; ++i) {
      Writer w;
      w.u32(static_cast<std::uint32_t>(i));
      env0.send(1, frame_message("fifo", w.data()));
    }
  });
  ASSERT_TRUE(c.sim.run_until([&] { return got.size() >= 50; }, 600000));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace sintra::core
