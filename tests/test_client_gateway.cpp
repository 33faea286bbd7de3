// Client service layer (DESIGN.md §12): wire authentication, the
// gateway's admission/dedup/backpressure pipeline, the client library's
// t+1 reply quorums with a Byzantine replica in the group, and
// deterministic sim-mode replay.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/gateway.hpp"
#include "client/keys.hpp"
#include "client/service_client.hpp"
#include "client/sim_net.hpp"
#include "client/wire.hpp"
#include "replica/replica.hpp"
#include "sim_fixture.hpp"
#include "util/hex.hpp"

namespace sintra::client {
namespace {

using testing::Cluster;

// ---------------------------------------------------------------------------
// Wire format

TEST(ClientWire, RequestRoundTripAndAuthentication) {
  const Bytes key = to_bytes("k0"), wrong = to_bytes("k1");
  RequestFrame f;
  f.client_id = 7;
  f.seq = 42;
  f.payload = to_bytes("hello");
  const Bytes dgram = encode_request(f, key);

  EXPECT_EQ(peek_type(dgram), FrameType::kRequest);
  EXPECT_EQ(peek_client_id(dgram), 7u);

  const auto back = decode_request(dgram, ClientMac(key));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->client_id, 7u);
  EXPECT_EQ(back->seq, 42u);
  EXPECT_EQ(back->payload, f.payload);

  EXPECT_FALSE(decode_request(dgram, ClientMac(wrong)).has_value());
  Bytes flipped = dgram;
  flipped[10] ^= 0x01;
  EXPECT_FALSE(decode_request(flipped, ClientMac(key)).has_value());
  Bytes truncated(dgram.begin(), dgram.begin() + 9);
  EXPECT_FALSE(decode_request(truncated, ClientMac(key)).has_value());
  EXPECT_FALSE(peek_type(to_bytes("xy")).has_value());
}

TEST(ClientWire, ReplyRoundTripAndChannelWrap) {
  const Bytes key = to_bytes("kr");
  ReplyFrame r;
  r.client_id = 3;
  r.seq = 9;
  r.replica = 2;
  r.status = Status::kOk;
  r.global_seq = 1234;
  r.result = to_bytes("ok:1234");
  const Bytes dgram = encode_reply(r, ClientMac(key));
  EXPECT_EQ(peek_type(dgram), FrameType::kReply);
  const auto back = decode_reply(dgram, key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->replica, 2u);
  EXPECT_EQ(back->global_seq, 1234u);
  EXPECT_EQ(back->result, r.result);
  Bytes mangled = dgram;
  mangled.back() ^= 0xFF;
  EXPECT_FALSE(decode_reply(mangled, key).has_value());

  WrappedRequest w;
  w.client_id = 3;
  w.seq = 9;
  w.payload = to_bytes("pay");
  w.mac = request_mac(3, 9, w.payload, ClientMac(key));
  const auto un = unwrap_request(wrap_request(w));
  ASSERT_TRUE(un.has_value());
  EXPECT_EQ(un->seq, 9u);
  EXPECT_EQ(un->mac, w.mac);
  // A raw (pre-client-layer) payload is not a client envelope.
  EXPECT_FALSE(unwrap_request(to_bytes("raw payload")).has_value());
}

// Request and reply MAC bytes under a derived client key, pinned against
// the one-shot HMAC-SHA256 over a Writer-built statement that preceded
// the streaming keyed state; the byte-key overloads must match the keyed
// ones.
TEST(ClientWire, MacBytesPinned) {
  const KeyTable table = make_key_table(16, 3);
  const Bytes key = table.key(5);
  EXPECT_EQ(hex_encode(key),
            "44ce82b36bdf6dca11136edd230705df0a080129cc0ed85a3723a8a2c00c81c2");
  const ClientMac mac(key);

  RequestFrame f;
  f.client_id = 5;
  f.seq = 42;
  f.payload = to_bytes("pinned payload");
  EXPECT_EQ(hex_encode(request_mac(5, 42, f.payload, mac)),
            "3f45e31097199099586e111c14b20ced5a54393054881988c9a4a09bd8ce74b4");
  const char* request_hex =
      "c5010100000005000000000000002a0000000e70696e6e6564207061796c6f6164"
      "000000203f45e31097199099586e111c14b20ced5a54393054881988c9a4a09bd8"
      "ce74b4";
  EXPECT_EQ(hex_encode(encode_request(f, key)), request_hex);
  EXPECT_EQ(hex_encode(encode_request(f, mac)), request_hex);
  // decode_request hands back the verified tag, so the decoded request
  // is the channel envelope as is: wrap tag, id, seq, payload, MAC.
  const auto decoded = decode_request(encode_request(f, key), mac);
  ASSERT_TRUE(decoded.has_value());
  const char* envelope_hex =
      "c600000005000000000000002a0000000e70696e6e6564207061796c6f61640000"
      "00203f45e31097199099586e111c14b20ced5a54393054881988c9a4a09bd8ce74"
      "b4";
  EXPECT_EQ(hex_encode(wrap_request(*decoded)), envelope_hex);

  ReplyFrame r;
  r.client_id = 5;
  r.seq = 42;
  r.replica = 2;
  r.status = Status::kRetryLater;
  r.global_seq = 77;
  r.retry_ms = 50;
  r.result = to_bytes("pinned result");
  const char* reply_hex =
      "c5010200000005000000000000002a0000000202000000000000004d0000003200"
      "00000d70696e6e656420726573756c7400000020f5adc53f2fb5a503dd9d188e6d"
      "e3bc84706ac9d36c32539a922fc91a409f159e";
  EXPECT_EQ(hex_encode(encode_reply(r, mac)), reply_hex);
  EXPECT_TRUE(decode_reply(encode_reply(r, mac), key).has_value());
}

TEST(ClientKeys, DeriveAndFileRoundTrip) {
  KeyTable table = make_key_table(100, 7);
  EXPECT_NE(table.key(0), table.key(1));
  EXPECT_TRUE(table.known(99));
  EXPECT_FALSE(table.known(100));
  const std::string path = ::testing::TempDir() + "/clients.keys";
  write_key_file(path, table);
  const KeyTable back = read_key_file(path);
  EXPECT_EQ(back.count, table.count);
  EXPECT_EQ(back.key(17), table.key(17));
}

// ---------------------------------------------------------------------------
// Gateway pipeline, driven directly with stub hooks.

struct GatewayHarness {
  KeyTable table = make_key_table(64, 3);
  double now_ms = 0.0;
  std::vector<Bytes> submitted;              // wrapped channel payloads
  std::map<std::string, std::vector<Bytes>> replies;  // addr -> datagrams
  std::unique_ptr<ClientGateway> gw;

  explicit GatewayHarness(ClientGateway::Options opts = {}) {
    gw = std::make_unique<ClientGateway>(opts, [this] { return now_ms; });
    gw->set_key_table(table);
    gw->set_submit([this](Bytes w) {
      submitted.push_back(std::move(w));
      return true;
    });
    gw->set_reply([this](const ClientGateway::Address& a, Bytes d) {
      replies[a].push_back(std::move(d));
    });
  }

  Bytes request(std::uint32_t id, std::uint64_t seq,
                const std::string& payload) {
    RequestFrame f;
    f.client_id = id;
    f.seq = seq;
    f.payload = to_bytes(payload);
    return encode_request(f, table.key(id));
  }

  /// The channel envelope another replica proposes for (id, seq).
  Bytes wrapped(std::uint32_t id, std::uint64_t seq,
                const std::string& payload) {
    WrappedRequest w;
    w.client_id = id;
    w.seq = seq;
    w.payload = to_bytes(payload);
    w.mac = request_mac(id, seq, w.payload, ClientMac(table.key(id)));
    return wrap_request(w);
  }

  /// Delivers everything submitted so far (in order) back to the
  /// gateway, as the atomic channel would.
  void deliver_submitted() {
    std::vector<Bytes> batch;
    batch.swap(submitted);
    for (const Bytes& b : batch) gw->on_delivered(b);
  }

  std::optional<ReplyFrame> last_reply(std::uint32_t id,
                                       const std::string& addr) {
    auto it = replies.find(addr);
    if (it == replies.end() || it->second.empty()) return std::nullopt;
    return decode_reply(it->second.back(), table.key(id));
  }
};

TEST(ClientGateway, RejectsBadMacForgedIdAndMalformed) {
  GatewayHarness h;
  // MAC computed with the wrong client's key.
  RequestFrame f;
  f.client_id = 1;
  f.seq = 1;
  f.payload = to_bytes("x");
  h.gw->on_request_datagram(encode_request(f, h.table.key(2)), "a1");
  // Unknown (unregistered) client id.
  KeyTable big = make_key_table(1000, 3);
  RequestFrame g;
  g.client_id = 999;
  g.seq = 1;
  g.payload = to_bytes("y");
  h.gw->on_request_datagram(encode_request(g, big.key(999)), "a2");
  // Not even a frame.
  h.gw->on_request_datagram(to_bytes("garbage"), "a3");

  EXPECT_TRUE(h.submitted.empty());
  // No reply to unauthenticated traffic (no amplification surface).
  EXPECT_TRUE(h.replies.empty());
}

TEST(ClientGateway, AdmitExecuteReplyThenDedupReplay) {
  ClientGateway::Options opts;
  opts.replica = designated_replica(5, 1, opts.n);
  GatewayHarness h(opts);
  const Bytes req = h.request(5, 1, "add 1");
  h.gw->on_request_datagram(req, "addr5");
  ASSERT_EQ(h.submitted.size(), 1u);
  EXPECT_EQ(h.gw->pending_depth(), 1u);

  h.deliver_submitted();
  EXPECT_EQ(h.gw->pending_depth(), 0u);
  auto reply = h.last_reply(5, "addr5");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(reply->global_seq, 0u);
  EXPECT_EQ(to_string(reply->result), "ok:0");

  // Byte-identical replay: answered from the reply cache, not re-run.
  h.gw->on_request_datagram(req, "addr5");
  EXPECT_TRUE(h.submitted.empty());
  ASSERT_EQ(h.replies["addr5"].size(), 2u);
  EXPECT_EQ(h.replies["addr5"][0], h.replies["addr5"][1]);
  EXPECT_EQ(h.gw->executed_count(), 1u);
}

TEST(ClientGateway, StaleSeqAfterCacheEviction) {
  ClientGateway::Options opts;
  opts.reply_cache = 1;
  opts.replica = designated_replica(4, 1, opts.n);
  GatewayHarness h(opts);
  h.gw->on_request_datagram(h.request(4, 1, "a"), "x");
  h.deliver_submitted();
  // Seq 2 is designated elsewhere: held on its first transmission and
  // proposed here on the client's retransmit.
  h.gw->on_request_datagram(h.request(4, 2, "b"), "x");
  h.gw->on_request_datagram(h.request(4, 2, "b"), "x");
  h.deliver_submitted();  // seq 2's reply evicts seq 1's from the cache
  h.gw->on_request_datagram(h.request(4, 1, "a"), "x");
  auto reply = h.last_reply(4, "x");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kStale);
  EXPECT_EQ(h.gw->executed_count(), 2u);  // never re-executed
}

TEST(ClientGateway, ExecutedBeforeFirstDatagramAnswersFromCache) {
  GatewayHarness h;
  // Another replica proposed client 6's request; it executes here before
  // any of the client's datagrams arrived, so there is no one to reply to.
  ASSERT_TRUE(h.gw->on_delivered(h.wrapped(6, 1, "late")).has_value());
  EXPECT_TRUE(h.replies.empty());
  // The client's retransmit finally arrives: it gets the executed kOk,
  // not kStale, and nothing is proposed or executed again.
  h.gw->on_request_datagram(h.request(6, 1, "late"), "x");
  auto reply = h.last_reply(6, "x");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(reply->global_seq, 0u);
  EXPECT_TRUE(h.submitted.empty());
  EXPECT_EQ(h.gw->executed_count(), 1u);
}

TEST(ClientGateway, RateLimitShedsWithOverloadedReply) {
  ClientGateway::Options opts;
  opts.global_rate_per_sec = 1.0;
  opts.global_burst = 2.0;
  opts.rate_per_sec = 1000.0;  // per-client bucket out of the way
  opts.burst = 1000.0;
  // Clients 1, 5 and 9 share the designated replica of their seq 1.
  opts.replica = designated_replica(1, 1, opts.n);
  GatewayHarness h(opts);
  h.gw->on_request_datagram(h.request(1, 1, "a"), "a1");
  h.gw->on_request_datagram(h.request(5, 1, "b"), "a5");
  h.gw->on_request_datagram(h.request(9, 1, "c"), "a9");  // bucket empty
  EXPECT_EQ(h.submitted.size(), 2u);
  auto reply = h.last_reply(9, "a9");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOverloaded);

  // Virtual time refills the bucket: same client admitted later.
  h.now_ms += 2000.0;
  h.gw->on_request_datagram(h.request(9, 1, "c"), "a9");
  EXPECT_EQ(h.submitted.size(), 3u);
}

TEST(ClientGateway, PerClientBucketIsIndependent) {
  ClientGateway::Options opts;
  opts.rate_per_sec = 1.0;
  opts.burst = 1.0;
  opts.replica = designated_replica(1, 1, opts.n);  // also client 5's seq 1
  GatewayHarness h(opts);
  // Client 1 exhausts its own bucket (deliver in between so dedup/one-
  // outstanding doesn't mask the rate limit)...
  h.gw->on_request_datagram(h.request(1, 1, "a"), "a1");
  h.deliver_submitted();
  h.gw->on_request_datagram(h.request(1, 2, "b"), "a1");
  auto reply = h.last_reply(1, "a1");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOverloaded);
  // ...client 5 is unaffected.
  h.gw->on_request_datagram(h.request(5, 1, "c"), "a5");
  EXPECT_EQ(h.submitted.size(), 1u);
}

TEST(ClientGateway, BackpressureUnderFullPipelineWindow) {
  ClientGateway::Options opts;
  opts.max_pending = 2;
  opts.retry_hint_ms = 75;
  // Clients 1, 5 and 9 share the designated replica of their seq 1.
  opts.replica = designated_replica(1, 1, opts.n);
  GatewayHarness h(opts);
  h.gw->on_request_datagram(h.request(1, 1, "a"), "a1");
  h.gw->on_request_datagram(h.request(5, 1, "b"), "a5");
  h.gw->on_request_datagram(h.request(9, 1, "c"), "a9");  // window full
  EXPECT_EQ(h.submitted.size(), 2u);
  auto reply = h.last_reply(9, "a9");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kRetryLater);
  EXPECT_EQ(reply->retry_ms, 75u);

  // Deliveries drain the window; the retry is admitted.
  h.deliver_submitted();
  h.gw->on_request_datagram(h.request(9, 1, "c"), "a9");
  EXPECT_EQ(h.submitted.size(), 1u);
}

TEST(ClientGateway, ByzantineProposalRejectedAtDelivery) {
  GatewayHarness h;
  // A corrupted replica proposes a fabricated entry for a registered
  // client: the delivery-time MAC re-check must skip it on every
  // correct replica.
  WrappedRequest forged;
  forged.client_id = 6;
  forged.seq = 1;
  forged.payload = to_bytes("evil");
  forged.mac = to_bytes("not-a-mac");
  EXPECT_FALSE(h.gw->on_delivered(wrap_request(forged)).has_value());
  // Same for an unregistered id.
  forged.client_id = 5000;
  EXPECT_FALSE(h.gw->on_delivered(wrap_request(forged)).has_value());
  EXPECT_EQ(h.gw->executed_count(), 0u);
}

TEST(ClientGateway, OutOfOrderDeliveryExecutesOnceEach) {
  GatewayHarness h;
  // Different replicas proposed different seqs of client 2; the order
  // delivered 2 before 1, and 2 again (two proposers raced).
  auto wrapped = [&](std::uint64_t seq) {
    return h.wrapped(2, seq, "p" + std::to_string(seq));
  };
  EXPECT_TRUE(h.gw->on_delivered(wrapped(2)).has_value());
  EXPECT_FALSE(h.gw->on_delivered(wrapped(2)).has_value());  // duplicate
  EXPECT_TRUE(h.gw->on_delivered(wrapped(1)).has_value());
  EXPECT_FALSE(h.gw->on_delivered(wrapped(1)).has_value());
  EXPECT_EQ(h.gw->executed_count(), 2u);
}

TEST(ClientGateway, LocalSubmissionsShareTheDedupPolicy) {
  GatewayHarness h;
  h.gw->submit_local(to_bytes("local-0"));
  ASSERT_EQ(h.submitted.size(), 1u);
  const Bytes wrapped = h.submitted[0];
  const auto w = unwrap_request(wrapped);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(is_local_client(w->client_id));

  auto ex = h.gw->on_delivered(wrapped);
  ASSERT_TRUE(ex.has_value());
  EXPECT_TRUE(ex->local);
  EXPECT_EQ(to_string(ex->payload), "local-0");
  // The same wrapped entry delivered again (two replicas proposed
  // something identical-looking) is dropped by the same dedup map.
  EXPECT_FALSE(h.gw->on_delivered(wrapped).has_value());
  // No reply machinery fires for local pseudo-clients.
  EXPECT_TRUE(h.replies.empty());
}

TEST(ClientGateway, LocalQueueDrainsAsWindowFrees) {
  ClientGateway::Options opts;
  opts.max_pending = 2;
  GatewayHarness h(opts);
  for (int i = 0; i < 5; ++i) {
    h.gw->submit_local(to_bytes("m" + std::to_string(i)));
  }
  EXPECT_EQ(h.submitted.size(), 2u);
  EXPECT_FALSE(h.gw->local_queue_empty());
  h.deliver_submitted();
  EXPECT_EQ(h.submitted.size(), 2u);  // two more entered the window
  h.deliver_submitted();
  h.deliver_submitted();
  EXPECT_TRUE(h.gw->local_queue_empty());
  EXPECT_EQ(h.gw->executed_count(), 5u);
}

TEST(ClientGateway, LateOwnDuplicateKeepsTheNextRequestPending) {
  ClientGateway::Options opts;
  opts.replica = designated_replica(7, 1, opts.n);
  GatewayHarness h(opts);
  obs::Counter& dedup = obs::registry().counter(
      "client.dedup_hits", obs::party_labels(static_cast<int>(opts.replica)));
  h.gw->on_request_datagram(h.request(7, 1, "a"), "c7");
  ASSERT_EQ(h.submitted.size(), 1u);
  const Bytes own_s1 = h.submitted[0];
  h.submitted.clear();
  // Another replica's copy of s=1 is ordered first and executes it.
  EXPECT_TRUE(h.gw->on_delivered(own_s1).has_value());
  EXPECT_EQ(h.gw->pending_depth(), 0u);
  // s=2 is designated elsewhere: held first, proposed on its retransmit.
  h.gw->on_request_datagram(h.request(7, 2, "b"), "c7");
  h.gw->on_request_datagram(h.request(7, 2, "b"), "c7");
  ASSERT_EQ(h.submitted.size(), 1u);
  EXPECT_EQ(h.gw->pending_depth(), 1u);
  // This replica's own late copy of s=1 must not free s=2's slot.
  EXPECT_FALSE(h.gw->on_delivered(own_s1).has_value());
  EXPECT_EQ(h.gw->pending_depth(), 1u);
  // So a retransmit of s=2 is still the one in flight: a dedup hit, not
  // a second proposal.
  const std::uint64_t dedup_before = dedup.value();
  h.gw->on_request_datagram(h.request(7, 2, "b"), "c7");
  EXPECT_EQ(h.submitted.size(), 1u);
  EXPECT_EQ(dedup.value(), dedup_before + 1);
  h.deliver_submitted();
  EXPECT_EQ(h.gw->pending_depth(), 0u);
  EXPECT_EQ(h.gw->executed_count(), 2u);
}

// ---------------------------------------------------------------------------
// Designation: only designated_replica(id, seq, n) proposes a first
// transmission; the others hold the seq until the client retransmits.

std::uint64_t party_counter(const char* name, int party) {
  return obs::registry().counter(name, obs::party_labels(party)).value();
}

TEST(ClientGateway, DesignatedReplicaRotatesWithSeq) {
  std::set<std::uint32_t> seen;
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    seen.insert(designated_replica(6, seq, 4));
  }
  EXPECT_EQ(seen, (std::set<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(designated_replica(6, 3, 4), 1u);
  EXPECT_EQ(designated_replica(0xFFFFFFFFu, 1, 7), 0x100000000ull % 7);
}

TEST(ClientGateway, OnlyTheDesignatedReplicaProposes) {
  const std::uint32_t designated = designated_replica(6, 3, 4);
  for (std::uint32_t r = 0; r < 4; ++r) {
    ClientGateway::Options opts;
    opts.replica = r;
    GatewayHarness h(opts);
    const int party = static_cast<int>(r);
    const std::uint64_t held_before = party_counter("client.held", party);
    h.gw->on_request_datagram(h.request(6, 3, "x"), "c6");
    if (r == designated) {
      EXPECT_EQ(h.submitted.size(), 1u) << "replica " << r;
      EXPECT_EQ(h.gw->pending_depth(), 1u);
      EXPECT_EQ(party_counter("client.held", party), held_before);
    } else {
      // Held: nothing proposed, nothing pending, and no reply at all.
      EXPECT_TRUE(h.submitted.empty()) << "replica " << r;
      EXPECT_EQ(h.gw->pending_depth(), 0u);
      EXPECT_TRUE(h.replies.empty());
      EXPECT_EQ(party_counter("client.held", party), held_before + 1);
    }
  }
}

TEST(ClientGateway, RetransmitOfTheHeldSeqIsProposed) {
  ClientGateway::Options opts;
  opts.replica = 0;
  ASSERT_NE(designated_replica(6, 3, opts.n), opts.replica);
  GatewayHarness h(opts);
  h.gw->on_request_datagram(h.request(6, 3, "x"), "c6");
  EXPECT_TRUE(h.submitted.empty());
  // The client's RTO re-multicast: this replica now proposes too.
  h.gw->on_request_datagram(h.request(6, 3, "x"), "c6");
  ASSERT_EQ(h.submitted.size(), 1u);
  EXPECT_EQ(h.gw->pending_depth(), 1u);
  // A further copy while it is in flight is a dedup hit.
  h.gw->on_request_datagram(h.request(6, 3, "x"), "c6");
  EXPECT_EQ(h.submitted.size(), 1u);
  h.deliver_submitted();
  auto reply = h.last_reply(6, "c6");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(h.gw->executed_count(), 1u);
}

TEST(ClientGateway, NewerSeqReplacesTheHeldOne) {
  ClientGateway::Options opts;
  opts.replica = 0;
  GatewayHarness h(opts);
  // Client 4's seqs 1 and 2 are designated to replicas 1 and 2.
  ASSERT_NE(designated_replica(4, 1, opts.n), opts.replica);
  ASSERT_NE(designated_replica(4, 2, opts.n), opts.replica);
  h.gw->on_request_datagram(h.request(4, 1, "a"), "c4");
  EXPECT_TRUE(h.gw->on_delivered(h.wrapped(4, 1, "a")).has_value());
  h.gw->on_request_datagram(h.request(4, 2, "b"), "c4");
  EXPECT_TRUE(h.submitted.empty());
  // Seq 2 is the held one now: its retransmit is proposed.
  h.gw->on_request_datagram(h.request(4, 2, "b"), "c4");
  ASSERT_EQ(h.submitted.size(), 1u);
  const auto w = unwrap_request(h.submitted[0]);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->seq, 2u);
}

TEST(ClientGateway, ExecutedWhileHeldAnswersFromCache) {
  ClientGateway::Options opts;
  opts.replica = 0;
  ASSERT_NE(designated_replica(4, 1, opts.n), opts.replica);
  GatewayHarness h(opts);
  h.gw->on_request_datagram(h.request(4, 1, "a"), "c4");
  // The designated replica's proposal executes here while it is held.
  ASSERT_TRUE(h.gw->on_delivered(h.wrapped(4, 1, "a")).has_value());
  auto reply = h.last_reply(4, "c4");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOk);
  // The client's retransmit gets the cached kOk; nothing is proposed.
  h.gw->on_request_datagram(h.request(4, 1, "a"), "c4");
  ASSERT_EQ(h.replies["c4"].size(), 2u);
  EXPECT_EQ(h.replies["c4"][0], h.replies["c4"][1]);
  EXPECT_TRUE(h.submitted.empty());
  EXPECT_EQ(h.gw->executed_count(), 1u);
}

TEST(ClientGateway, AdmissionRunsBeforeDesignation) {
  {
    // Global bucket of one token: the held request spends it, so both a
    // non-designated and a designated request after it are shed.
    ClientGateway::Options opts;
    opts.replica = 0;
    opts.global_rate_per_sec = 1.0;
    opts.global_burst = 1.0;
    GatewayHarness h(opts);
    ASSERT_NE(designated_replica(4, 1, opts.n), opts.replica);
    ASSERT_NE(designated_replica(5, 1, opts.n), opts.replica);
    ASSERT_EQ(designated_replica(3, 1, opts.n), opts.replica);
    h.gw->on_request_datagram(h.request(4, 1, "held"), "c4");
    h.gw->on_request_datagram(h.request(5, 1, "other"), "c5");
    h.gw->on_request_datagram(h.request(3, 1, "mine"), "c3");
    EXPECT_TRUE(h.submitted.empty());
    EXPECT_FALSE(h.last_reply(4, "c4").has_value());
    for (const std::uint32_t id : {5u, 3u}) {
      auto reply = h.last_reply(id, "c" + std::to_string(id));
      ASSERT_TRUE(reply.has_value()) << "client " << id;
      EXPECT_EQ(reply->status, Status::kOverloaded);
    }
  }
  {
    // A full pending window answers a non-designated request kRetryLater
    // too, and does not hold it.
    ClientGateway::Options opts;
    opts.replica = 0;
    opts.max_pending = 1;
    opts.retry_hint_ms = 75;
    GatewayHarness h(opts);
    h.gw->on_request_datagram(h.request(3, 1, "mine"), "c3");
    ASSERT_EQ(h.submitted.size(), 1u);
    h.gw->on_request_datagram(h.request(4, 1, "held"), "c4");
    auto reply = h.last_reply(4, "c4");
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, Status::kRetryLater);
    EXPECT_EQ(reply->retry_ms, 75u);
    h.deliver_submitted();
    // Its next copy is a first sighting here, so it is held, not proposed.
    h.gw->on_request_datagram(h.request(4, 1, "held"), "c4");
    EXPECT_TRUE(h.submitted.empty());
    h.gw->on_request_datagram(h.request(4, 1, "held"), "c4");
    EXPECT_EQ(h.submitted.size(), 1u);
  }
}

TEST(ServiceClient, TimerOfAnsweredRequestDoesNotResendTheNext) {
  // Hook-driven timers: nothing fires until the test says so.
  std::vector<std::function<void()>> timers;
  std::vector<Bytes> sent;
  const KeyTable table = make_key_table(16, 3);
  ReplicatedServiceClient::Options opts;
  opts.client_id = 3;
  opts.key = table.key(3);
  ReplicatedServiceClient::Hooks hooks;
  hooks.send = [&](int, const Bytes& d) { sent.push_back(d); };
  hooks.call_later = [&](double, std::function<void()> fn) {
    timers.push_back(std::move(fn));
  };
  hooks.now_ms = [] { return 0.0; };
  ReplicatedServiceClient client(opts, hooks);

  // Answers the current request with t+1 = 2 matching replies.
  auto answer = [&](std::uint64_t seq) {
    for (std::uint32_t replica = 0; replica < 2; ++replica) {
      ReplyFrame r;
      r.client_id = 3;
      r.seq = seq;
      r.replica = replica;
      r.status = Status::kOk;
      r.global_seq = seq;
      r.result = to_bytes("ok");
      client.on_datagram(encode_reply(r, ClientMac(opts.key)));
    }
  };
  int done = 0;
  client.submit(to_bytes("a"), [&](auto out) { done += out.ok ? 1 : 0; });
  client.submit(to_bytes("b"), [&](auto out) { done += out.ok ? 1 : 0; });
  client.submit(to_bytes("c"), [&](auto out) { done += out.ok ? 1 : 0; });
  answer(1);
  answer(2);
  ASSERT_EQ(done, 2);
  const std::size_t sends = sent.size();
  EXPECT_EQ(sends, 3u * 4u);  // one multicast per request, no re-sends
  // Both answered requests' RTO timers fire while request 3 is pending.
  const std::size_t armed = timers.size();
  for (std::size_t i = 0; i + 1 < armed; ++i) timers[i]();
  EXPECT_EQ(sent.size(), sends);
  EXPECT_EQ(client.retransmits(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end in the simulator: four replica::Replica objects (the class
// sintra_node runs) on an atomic channel, real quorum-collecting clients,
// optionally one Byzantine replica that mangles its replies or whose
// gateway never proposes.

struct SimScenario {
  static constexpr int kClients = 6;
  static constexpr int kRequests = 2;
  static constexpr double kRtoMs = 400.0;

  Cluster cluster;
  KeyTable table = make_key_table(kClients, 11);
  SimClientNet net;
  std::vector<std::unique_ptr<replica::Replica>> replicas;
  std::vector<std::unique_ptr<ReplicatedServiceClient>> clients;
  std::vector<std::vector<std::string>> executed;  // per replica
  std::vector<std::vector<std::string>> outcomes;  // per client
  // Submit-to-quorum latency by (client, seq), client clock.
  std::map<std::pair<int, std::uint64_t>, double> latency_ms;
  int done = 0;

  /// `byzantine` mangles its replies; `silent` admits requests but its
  /// gateway never proposes one.  -1 = none.
  explicit SimScenario(std::uint64_t seed, std::uint64_t client_seed,
                       int byzantine = -1, int silent = -1,
                       double client_loss = 0.05)
      : cluster(4, 1, seed),
        net(cluster.sim, [client_seed, client_loss] {
          SimClientNet::Options o;
          o.latency_ms = 1.5;
          o.jitter_ms = 1.0;
          o.loss = client_loss;
          o.seed = client_seed;
          return o;
        }()) {
    executed.resize(4);
    replica::Replica::Options ropts;
    ropts.send_count = 0;
    ropts.batch_count = 4;
    ropts.pipeline_depth = 2;
    ropts.client_rate = 1000.0;
    for (int i = 0; i < 4; ++i) {
      auto& node = cluster.sim.node(i);
      replicas.push_back(
          std::make_unique<replica::Replica>(node, node.dispatcher(), ropts));
      replicas.back()->set_execute_callback([this, i](const Bytes& payload) {
        executed[static_cast<std::size_t>(i)].push_back(to_string(payload));
      });
      ClientGateway& gw = *replicas.back()->gateway();
      gw.set_key_table(table);
      gw.set_reply(net.attach_gateway(i, gw));
      if (i == byzantine) {
        // This replica's replies are corrupted in flight: clients must
        // still assemble t+1 matching quorums from the honest three.
        gw.set_reply_mangler([](Bytes d) {
          if (!d.empty()) d[d.size() / 2] ^= 0xA5;
          return d;
        });
      }
      if (i == silent) gw.set_submit([](const Bytes&) { return true; });
    }
    outcomes.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      const auto id = static_cast<std::uint32_t>(c);
      ReplicatedServiceClient::Options copts;
      copts.client_id = id;
      copts.key = table.key(id);
      copts.n = 4;
      copts.t = 1;
      copts.rto_ms = kRtoMs;
      copts.max_attempts = 20;
      clients.push_back(std::make_unique<ReplicatedServiceClient>(
          copts, net.client_hooks(id)));
      net.register_client(id, [this, c](BytesView d) {
        clients[static_cast<std::size_t>(c)]->on_datagram(d);
      });
    }
  }

  void submit_all() {
    for (int c = 0; c < kClients; ++c) {
      for (int k = 0; k < kRequests; ++k) {
        submit(c, k);
      }
    }
  }

  void submit(int c, int k) {
    clients[static_cast<std::size_t>(c)]->submit(
        to_bytes("c" + std::to_string(c) + ":req" + std::to_string(k)),
        [this, c](ReplicatedServiceClient::Outcome o) {
          latency_ms[{c, o.seq}] = o.latency_ms;
          outcomes[static_cast<std::size_t>(c)].push_back(
              (o.ok ? "ok@" + std::to_string(o.global_seq) + ":" +
                          to_string(o.result)
                    : std::string("fail")));
          ++done;
        });
  }

  bool run() {
    for (int i = 0; i < 4; ++i) {
      cluster.sim.at(0.0, i, [this, i] {
        replicas[static_cast<std::size_t>(i)]->start();
      });
    }
    cluster.sim.post(0.0, [this] { submit_all(); });
    return cluster.sim.run_until(
        [this] { return done >= kClients * kRequests; }, 4e6);
  }
};

using Sequence = std::vector<std::string>;

/// The executed sequence (identical on every replica) and the client
/// outcomes for seeds 1 and 2.  Who proposes a request and when a round
/// opens shape the order, so these were recorded once each request's
/// first transmission came from its designated replica alone (DESIGN.md
/// §12) and a pipelined channel opened a round ahead of an open one only
/// for a full bundle (§11); Replica must reproduce them exactly.
struct Recorded {
  std::uint64_t seed;
  Sequence executed;
  std::vector<Sequence> outcomes;
};

const Recorded kRecorded[] = {
    {1,
     {"c3:req0", "c2:req0", "c4:req0", "c5:req0", "c1:req0", "c0:req0",
      "c3:req1", "c4:req1", "c1:req1", "c5:req1", "c2:req1", "c0:req1"},
     {{"ok@5:ok:5", "ok@11:ok:11"},
      {"ok@4:ok:4", "ok@8:ok:8"},
      {"ok@1:ok:1", "ok@10:ok:10"},
      {"ok@0:ok:0", "ok@6:ok:6"},
      {"ok@2:ok:2", "ok@7:ok:7"},
      {"ok@3:ok:3", "ok@9:ok:9"}}},
    {2,
     {"c5:req0", "c2:req0", "c3:req0", "c0:req0", "c2:req1", "c1:req0",
      "c0:req1", "c5:req1", "c3:req1", "c1:req1", "c4:req0", "c4:req1"},
     {{"ok@3:ok:3", "ok@6:ok:6"},
      {"ok@5:ok:5", "ok@9:ok:9"},
      {"ok@1:ok:1", "ok@4:ok:4"},
      {"ok@2:ok:2", "ok@8:ok:8"},
      {"ok@10:ok:10", "ok@11:ok:11"},
      {"ok@0:ok:0", "ok@7:ok:7"}}},
};

void expect_all_ok_and_identical(const SimScenario& s) {
  for (int c = 0; c < SimScenario::kClients; ++c) {
    const auto& outcomes = s.outcomes[static_cast<std::size_t>(c)];
    ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(SimScenario::kRequests));
    for (const auto& o : outcomes) {
      EXPECT_TRUE(o.rfind("ok@", 0) == 0) << "client " << c << ": " << o;
    }
  }
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(s.executed[static_cast<std::size_t>(i)], s.executed[0]);
  }
  const std::set<std::string> unique(s.executed[0].begin(),
                                     s.executed[0].end());
  EXPECT_EQ(unique.size(), s.executed[0].size());
  EXPECT_EQ(s.executed[0].size(),
            static_cast<std::size_t>(SimScenario::kClients *
                                     SimScenario::kRequests));
}

std::uint64_t total_retransmits(const SimScenario& s) {
  std::uint64_t total = 0;
  for (const auto& c : s.clients) total += c->retransmits();
  return total;
}

TEST(ClientServiceE2E, QuorumAssemblyWithByzantineReplica) {
  SimScenario s(/*seed=*/1, /*client_seed=*/21, /*byzantine=*/3);
  ASSERT_TRUE(s.run());
  // Every replica executed the identical sequence (the quorum argument's
  // premise), and each request exactly once.
  expect_all_ok_and_identical(s);
}

TEST(ClientServiceE2E, DeterministicReplayAcrossSeeds) {
  for (const Recorded& rec : kRecorded) {
    SimScenario a(rec.seed, 100 + rec.seed);
    SimScenario b(rec.seed, 100 + rec.seed);
    ASSERT_TRUE(a.run());
    ASSERT_TRUE(b.run());
    // Same seeds -> bit-identical execution sequences and outcomes, and
    // the very ones recorded above.
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.outcomes, b.outcomes);
    for (const Sequence& executed : a.executed) {
      EXPECT_EQ(executed, rec.executed) << "seed " << rec.seed;
    }
    EXPECT_EQ(a.outcomes, rec.outcomes) << "seed " << rec.seed;
  }
}

TEST(ClientServiceE2E, CleanRunOrdersEachRequestOnce) {
  std::uint64_t dup_before[4], admitted_before = 0, held_before = 0;
  for (int i = 0; i < 4; ++i) {
    dup_before[i] = party_counter("client.dup_deliveries", i);
    admitted_before += party_counter("client.admitted", i);
    held_before += party_counter("client.held", i);
  }
  SimScenario s(/*seed=*/1, /*client_seed=*/41, /*byzantine=*/-1,
                /*silent=*/-1, /*client_loss=*/0.0);
  ASSERT_TRUE(s.run());
  expect_all_ok_and_identical(s);
  EXPECT_EQ(total_retransmits(s), 0u);
  constexpr std::uint64_t kTotal =
      SimScenario::kClients * SimScenario::kRequests;
  std::uint64_t admitted = 0, held = 0;
  for (int i = 0; i < 4; ++i) {
    // Each request was proposed once, so none was ordered twice.
    EXPECT_EQ(party_counter("client.dup_deliveries", i), dup_before[i])
        << "replica " << i;
    admitted += party_counter("client.admitted", i);
    held += party_counter("client.held", i);
  }
  EXPECT_EQ(admitted - admitted_before, kTotal);
  EXPECT_EQ(held - held_before, 3 * kTotal);
}

TEST(ClientServiceE2E, SilentDesignatedReplicaCostsOneClientRto) {
  constexpr int kSilent = 2;
  SimScenario s(/*seed=*/1, /*client_seed=*/31, /*byzantine=*/-1,
                /*silent=*/kSilent, /*client_loss=*/0.0);
  ASSERT_TRUE(s.run());
  // Every request completes with a t+1 kOk quorum, executed exactly once
  // in one order on every replica (the silent one included).
  expect_all_ok_and_identical(s);
  ASSERT_EQ(s.latency_ms.size(),
            static_cast<std::size_t>(SimScenario::kClients *
                                     SimScenario::kRequests));
  std::uint64_t delayed = 0;
  for (const auto& [key, ms] : s.latency_ms) {
    const auto [c, seq] = key;
    if (designated_replica(static_cast<std::uint32_t>(c), seq, 4) ==
        static_cast<std::uint32_t>(kSilent)) {
      // Held everywhere else until the client's one retransmit.
      ++delayed;
      EXPECT_GE(ms, SimScenario::kRtoMs) << "client " << c << " seq " << seq;
      EXPECT_LT(ms, 2 * SimScenario::kRtoMs)
          << "client " << c << " seq " << seq;
    } else {
      EXPECT_LT(ms, SimScenario::kRtoMs) << "client " << c << " seq " << seq;
    }
  }
  EXPECT_GT(delayed, 0u);
  EXPECT_EQ(total_retransmits(s), delayed);
}

}  // namespace
}  // namespace sintra::client
