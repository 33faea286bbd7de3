// Link-layer authentication: HMAC-SHA1 over (from, to, frame) under the
// pairwise dealer key, exactly as the paper's prototype authenticates its
// TCP links (§3).  Each node keeps one keyed HMAC state per peer
// (Node::link_macs), built once from the dealer's link key.
#pragma once

#include "crypto/hmac.hpp"
#include "util/bytes.hpp"

namespace sintra::sim {

/// Wraps a frame with its authentication tag.
Bytes authenticate_frame(const crypto::HmacSha1& link_mac, int from, int to,
                         BytesView frame);

/// Verifies and strips the tag; returns false (leaving `frame_out`
/// untouched) on any tampering or malformed input.
bool open_frame(const crypto::HmacSha1& link_mac, int from, int to,
                BytesView wire, Bytes& frame_out);

}  // namespace sintra::sim
