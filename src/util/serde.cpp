#include "util/serde.hpp"

#include <array>

namespace sintra {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u32(std::uint32_t v) {
  std::array<std::uint8_t, 4> b{};
  put_u32(b.data(), v);
  raw(b);
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void Writer::bytes(BytesView b) {
  if (b.size() > 0xffffffffu) throw SerdeError("Writer::bytes: too large");
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::str(std::string_view s) {
  bytes(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Writer::raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

std::uint8_t* put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
  return out + 4;
}

std::uint8_t* put_u64(std::uint8_t* out, std::uint64_t v) {
  return put_u32(put_u32(out, static_cast<std::uint32_t>(v >> 32)),
                 static_cast<std::uint32_t>(v));
}

void Reader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) throw SerdeError("Reader: truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                    (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                    (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                    static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t hi = u32();
  std::uint64_t lo = u32();
  return (hi << 32) | lo;
}

Bytes Reader::bytes() {
  std::uint32_t n = u32();
  return raw(n);
}

std::string Reader::str() {
  Bytes b = bytes();
  return std::string(b.begin(), b.end());
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

BytesView Reader::raw_view(std::size_t n) {
  need(n);
  BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void Reader::expect_end() const {
  if (!empty()) throw SerdeError("Reader: trailing bytes");
}

}  // namespace sintra
