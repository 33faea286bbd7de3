#include "sim/network.hpp"

#include <array>

#include "util/serde.hpp"

namespace sintra::sim {

namespace {
/// The MAC input before the frame: from and to, as Writer::u32 encodes
/// them.
std::array<std::uint8_t, 8> mac_header(int from, int to) {
  std::array<std::uint8_t, 8> h{};
  put_u32(put_u32(h.data(), static_cast<std::uint32_t>(from)),
          static_cast<std::uint32_t>(to));
  return h;
}
}  // namespace

Bytes authenticate_frame(const crypto::HmacSha1& link_mac, int from, int to,
                         BytesView frame) {
  Writer w;
  w.bytes(link_mac.mac({mac_header(from, to), frame}));
  w.raw(frame);
  return std::move(w).take();
}

bool open_frame(const crypto::HmacSha1& link_mac, int from, int to,
                BytesView wire, Bytes& frame_out) {
  try {
    Reader r(wire);
    const BytesView tag = r.raw_view(r.u32());
    const BytesView frame = r.raw_view(r.remaining());
    if (!link_mac.verify({mac_header(from, to), frame}, tag)) return false;
    frame_out.assign(frame.begin(), frame.end());
    return true;
  } catch (const SerdeError&) {
    return false;
  }
}

}  // namespace sintra::sim
