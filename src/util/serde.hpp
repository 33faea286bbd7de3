// Binary serialization used for every SINTRA wire message.
//
// The format is deliberately simple and deterministic: fixed-width
// big-endian integers and length-prefixed byte strings.  Determinism
// matters because messages are fed to MACs, hashes and signatures; the
// same logical message must always serialize to the same bytes.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/bytes.hpp"

namespace sintra {

/// Thrown by Reader when the input is truncated or malformed.  Protocol
/// code treats this as evidence of a corrupted/Byzantine sender and drops
/// the message.
class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends values to a growing byte buffer.
class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed (u32) byte string.
  void bytes(BytesView b);
  /// Length-prefixed (u32) string.
  void str(std::string_view s);
  /// Raw bytes with no length prefix (caller knows the framing).
  void raw(BytesView b);

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Writer::u32 / Writer::u64's big-endian encoding into a caller's buffer
/// (headers built on the stack); returns the position after the value.
std::uint8_t* put_u32(std::uint8_t* out, std::uint32_t v);
std::uint8_t* put_u64(std::uint8_t* out, std::uint64_t v);

/// Consumes values from a byte buffer; throws SerdeError past the end.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes bytes();
  std::string str();
  /// Exactly n raw bytes.
  Bytes raw(std::size_t n);
  /// Exactly n raw bytes as a non-owning view into the input (valid only
  /// while the underlying buffer lives; hot paths use this to avoid a
  /// copy per routed frame).
  BytesView raw_view(std::size_t n);

  [[nodiscard]] bool empty() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws unless the whole input has been consumed (rejects messages
  /// with trailing garbage).
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace sintra
