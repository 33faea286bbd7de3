// Client/replica wire format for the client service layer (DESIGN.md §12).
//
// Clients are not group members: they talk to the replicas over their own
// UDP lane (sintra_node --client-port), authenticated by a per-client
// HMAC-SHA256 key registered with every replica (SecureSMART-style access
// control at the client/replica boundary).  Two frame kinds:
//
//   request  client -> every replica: (client_id, seq, payload) under the
//            client's MAC.  `seq` is the client's own monotonically
//            increasing request number — the at-most-once dedup handle.
//            Only designated_replica(client_id, seq, n) proposes the
//            first transmission; a retransmit is proposed by every
//            replica that admits it.
//   reply    replica -> client: (client_id, seq, replica, status,
//            global_seq, retry hint, result) under the same client key.
//            A client accepts an execution result only once t+1 distinct
//            replicas sent byte-identical (status, global_seq, result)
//            tuples, so no t Byzantine replicas can fake an outcome.
//
// Both frames start with a fixed 7-byte advisory header
// (magic, version, type, client_id) so interposers — the chaos proxy's
// client lane, the swarm's reply demultiplexer — can route datagrams
// without trusting them; authenticity is always the MAC's job, exactly
// like the sender-id prefix on the replica-to-replica lane.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/hmac.hpp"
#include "util/bytes.hpp"

namespace sintra::client {

inline constexpr std::uint8_t kMagic = 0xC5;
inline constexpr std::uint8_t kVersion = 1;

enum class FrameType : std::uint8_t { kRequest = 1, kReply = 2 };

/// Reply status.  kOk carries the execution result; the rest are explicit
/// rejections so a client can tell overload from loss (DESIGN.md §12).
enum class Status : std::uint8_t {
  kOk = 0,          // executed; result + global_seq are authoritative
  kOverloaded = 1,  // shed: per-client or global admission budget exhausted
  kRetryLater = 2,  // backpressure: pipeline window full; honor retry_ms
  kStale = 3,       // seq already executed and its cached reply was evicted
};

const char* status_name(Status s);

struct RequestFrame {
  std::uint32_t client_id = 0;
  std::uint64_t seq = 0;
  Bytes payload;
};

struct ReplyFrame {
  std::uint32_t client_id = 0;
  std::uint64_t seq = 0;
  std::uint32_t replica = 0;
  Status status = Status::kOk;
  std::uint64_t global_seq = 0;  // position in the total order (kOk only)
  std::uint32_t retry_ms = 0;    // backpressure hint (kRetryLater only)
  Bytes result;
};

/// One client key's HMAC-SHA256 state, pads absorbed once.  Whoever MACs
/// many frames under one key (a replica per client, a client for its own
/// key) keeps one; the client-side `BytesView key` overloads below build
/// one per call.
using ClientMac = crypto::KeyedHmac<crypto::Sha256>;

/// Builds a MAC'd request datagram.
Bytes encode_request(const RequestFrame& f, const ClientMac& mac);
Bytes encode_request(const RequestFrame& f, BytesView key);

/// Builds a MAC'd reply datagram.
Bytes encode_reply(const ReplyFrame& f, const ClientMac& mac);

/// Channel-payload wrapper: what an admitted request looks like inside
/// the atomic broadcast.  Replica-originated payloads (sintra_node
/// --send) travel in the same envelope under a reserved pseudo-client id
/// (kLocalClientBase + replica), so client- and replica-originated
/// traffic share one at-most-once identity space; their MAC is empty —
/// the channel's own bundle signatures already attribute them.
inline constexpr std::uint32_t kLocalClientBase = 0xFFFF0000u;

[[nodiscard]] inline bool is_local_client(std::uint32_t id) {
  return id >= kLocalClientBase;
}

struct WrappedRequest {
  std::uint32_t client_id = 0;
  std::uint64_t seq = 0;
  Bytes payload;
  Bytes mac;  // the client's original request MAC (empty for local ids)
};

/// Parses and authenticates.  nullopt on malformed frames or a bad MAC —
/// callers count, never throw, per the Byzantine-input discipline.  The
/// request comes back with its verified tag, i.e. as the channel
/// envelope a gateway proposes, so each frame is MAC'd once.
std::optional<WrappedRequest> decode_request(BytesView datagram,
                                             const ClientMac& mac);
std::optional<ReplyFrame> decode_reply(BytesView datagram,
                                       const ClientMac& mac);
std::optional<ReplyFrame> decode_reply(BytesView datagram, BytesView key);

/// Advisory peeks at the fixed header; no authentication implied.
std::optional<FrameType> peek_type(BytesView datagram);
std::optional<std::uint32_t> peek_client_id(BytesView datagram);

/// The one replica that proposes a request's first transmission
/// (DESIGN.md §12); the others hold it until the client retransmits.
/// Rotating with `seq` means a slow or silent replica delays only 1/n of
/// each client's requests.
[[nodiscard]] inline std::uint32_t designated_replica(std::uint32_t client_id,
                                                      std::uint64_t seq,
                                                      int n) {
  return static_cast<std::uint32_t>((client_id + seq) %
                                    static_cast<std::uint64_t>(n));
}

Bytes wrap_request(const WrappedRequest& w);
/// nullopt if `payload` is not a client envelope.
std::optional<WrappedRequest> unwrap_request(BytesView payload);

/// The MAC re-checked at delivery time must cover exactly what the
/// ingest MAC covered, so the statement builder is shared.
Bytes request_mac(std::uint32_t client_id, std::uint64_t seq,
                  BytesView payload, const ClientMac& mac);

}  // namespace sintra::client
