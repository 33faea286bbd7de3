#include "client/wire.hpp"

#include <cstring>
#include <string_view>

#include "util/serde.hpp"

namespace sintra::client {
namespace {

constexpr std::string_view kRequestDomain = "sintra-client-req";
constexpr std::string_view kReplyDomain = "sintra-client-rep";
constexpr std::uint8_t kWrapTag = 0xC6;

// Fixed advisory header shared by both frame kinds: magic, version,
// type, client_id.  Interposers peek here; parsers re-read it.
void put_header(Writer& w, FrameType type, std::uint32_t client_id) {
  w.u8(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(client_id);
}

// Writer::str's encoding (u32 length, then the bytes) into a stack buffer.
std::uint8_t* put_str(std::uint8_t* out, std::string_view s) {
  out = put_u32(out, static_cast<std::uint32_t>(s.size()));
  std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

Bytes tag_bytes(const ClientMac::Tag& tag) {
  return Bytes(tag.begin(), tag.end());
}

// The MAC'd statements are what a Writer would produce: the fixed
// fields go into a stack header, and the trailing length-prefixed
// payload or result is hashed in place after its length.
Bytes reply_mac(const ReplyFrame& f, const ClientMac& mac) {
  std::uint8_t head[4 + kReplyDomain.size() + 4 + 8 + 4 + 1 + 8 + 4 + 4];
  std::uint8_t* p = put_str(head, kReplyDomain);
  p = put_u32(p, f.client_id);
  p = put_u64(p, f.seq);
  p = put_u32(p, f.replica);
  *p++ = static_cast<std::uint8_t>(f.status);
  p = put_u64(p, f.global_seq);
  p = put_u32(p, f.retry_ms);
  p = put_u32(p, static_cast<std::uint32_t>(f.result.size()));
  return tag_bytes(mac.mac({BytesView(head, p), f.result}));
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kOverloaded: return "overloaded";
    case Status::kRetryLater: return "retry_later";
    case Status::kStale: return "stale";
  }
  return "unknown";
}

Bytes request_mac(std::uint32_t client_id, std::uint64_t seq,
                  BytesView payload, const ClientMac& mac) {
  std::uint8_t head[4 + kRequestDomain.size() + 4 + 8 + 4];
  std::uint8_t* p = put_str(head, kRequestDomain);
  p = put_u32(p, client_id);
  p = put_u64(p, seq);
  p = put_u32(p, static_cast<std::uint32_t>(payload.size()));
  return tag_bytes(mac.mac({BytesView(head, p), payload}));
}

Bytes encode_request(const RequestFrame& f, const ClientMac& mac) {
  Writer w;
  put_header(w, FrameType::kRequest, f.client_id);
  w.u64(f.seq);
  w.bytes(f.payload);
  w.bytes(request_mac(f.client_id, f.seq, f.payload, mac));
  return std::move(w).take();
}

Bytes encode_request(const RequestFrame& f, BytesView key) {
  return encode_request(f, ClientMac(key));
}

Bytes encode_reply(const ReplyFrame& f, const ClientMac& mac) {
  Writer w;
  put_header(w, FrameType::kReply, f.client_id);
  w.u64(f.seq);
  w.u32(f.replica);
  w.u8(static_cast<std::uint8_t>(f.status));
  w.u64(f.global_seq);
  w.u32(f.retry_ms);
  w.bytes(f.result);
  w.bytes(reply_mac(f, mac));
  return std::move(w).take();
}

std::optional<WrappedRequest> decode_request(BytesView datagram,
                                             const ClientMac& mac) {
  try {
    Reader r(datagram);
    if (r.u8() != kMagic || r.u8() != kVersion ||
        r.u8() != static_cast<std::uint8_t>(FrameType::kRequest)) {
      return std::nullopt;
    }
    WrappedRequest w;
    w.client_id = r.u32();
    w.seq = r.u64();
    w.payload = r.bytes();
    w.mac = r.bytes();
    r.expect_end();
    if (!ct_equal(w.mac, request_mac(w.client_id, w.seq, w.payload, mac))) {
      return std::nullopt;
    }
    return w;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

std::optional<ReplyFrame> decode_reply(BytesView datagram, BytesView key) {
  return decode_reply(datagram, ClientMac(key));
}

std::optional<ReplyFrame> decode_reply(BytesView datagram,
                                       const ClientMac& mac) {
  try {
    Reader r(datagram);
    if (r.u8() != kMagic || r.u8() != kVersion ||
        r.u8() != static_cast<std::uint8_t>(FrameType::kReply)) {
      return std::nullopt;
    }
    ReplyFrame f;
    f.client_id = r.u32();
    f.seq = r.u64();
    f.replica = r.u32();
    const std::uint8_t raw_status = r.u8();
    if (raw_status > static_cast<std::uint8_t>(Status::kStale)) {
      return std::nullopt;
    }
    f.status = static_cast<Status>(raw_status);
    f.global_seq = r.u64();
    f.retry_ms = r.u32();
    f.result = r.bytes();
    const Bytes tag = r.bytes();
    r.expect_end();
    if (!ct_equal(tag, reply_mac(f, mac))) return std::nullopt;
    return f;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

std::optional<FrameType> peek_type(BytesView datagram) {
  if (datagram.size() < 7 || datagram[0] != kMagic ||
      datagram[1] != kVersion) {
    return std::nullopt;
  }
  const std::uint8_t t = datagram[2];
  if (t != static_cast<std::uint8_t>(FrameType::kRequest) &&
      t != static_cast<std::uint8_t>(FrameType::kReply)) {
    return std::nullopt;
  }
  return static_cast<FrameType>(t);
}

std::optional<std::uint32_t> peek_client_id(BytesView datagram) {
  if (!peek_type(datagram)) return std::nullopt;
  return (std::uint32_t{datagram[3]} << 24) | (std::uint32_t{datagram[4]} << 16) |
         (std::uint32_t{datagram[5]} << 8) | std::uint32_t{datagram[6]};
}

Bytes wrap_request(const WrappedRequest& w) {
  Writer out;
  out.u8(kWrapTag);
  out.u32(w.client_id);
  out.u64(w.seq);
  out.bytes(w.payload);
  out.bytes(w.mac);
  return std::move(out).take();
}

std::optional<WrappedRequest> unwrap_request(BytesView payload) {
  try {
    Reader r(payload);
    if (r.u8() != kWrapTag) return std::nullopt;
    WrappedRequest w;
    w.client_id = r.u32();
    w.seq = r.u64();
    w.payload = r.bytes();
    w.mac = r.bytes();
    r.expect_end();
    return w;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace sintra::client
