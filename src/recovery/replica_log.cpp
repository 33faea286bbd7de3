#include "recovery/replica_log.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "util/crc32.hpp"

namespace sintra::recovery {

namespace {

std::uint32_t be32(const Bytes& buf, std::size_t off) {
  return (static_cast<std::uint32_t>(buf[off]) << 24) |
         (static_cast<std::uint32_t>(buf[off + 1]) << 16) |
         (static_cast<std::uint32_t>(buf[off + 2]) << 8) |
         static_cast<std::uint32_t>(buf[off + 3]);
}

void put32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

ReplicaLog::LoadResult ReplicaLog::load(const std::string& path) {
  LoadResult out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;  // first boot: no log yet
  Bytes buf((std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
  std::size_t off = 0;
  while (buf.size() - off >= 8) {
    const std::uint32_t len = be32(buf, off);
    const std::uint32_t crc = be32(buf, off + 4);
    if (len > kMaxRecordBytes || off + 8 + len > buf.size()) break;
    const BytesView payload(buf.data() + off + 8, len);
    if (util::crc32(payload) != crc) break;
    out.records.emplace_back(payload.begin(), payload.end());
    off += 8 + len;
  }
  out.valid_bytes = off;
  out.truncated = off != buf.size();
  return out;
}

bool ReplicaLog::truncate_to(const std::string& path, std::size_t len) {
  return ::truncate(path.c_str(), static_cast<off_t>(len)) == 0;
}

ReplicaLog::ReplicaLog(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
}

ReplicaLog::~ReplicaLog() {
  if (fd_ >= 0) ::close(fd_);
}

bool ReplicaLog::append(BytesView record, std::string* error) {
  if (fd_ < 0 || record.size() > kMaxRecordBytes) {
    if (error != nullptr) *error = "log not open or record too large";
    return false;
  }
  // One buffer, one write: O_APPEND makes the whole frame land
  // contiguously even if another fd somehow appends concurrently, and a
  // crash mid-write tears at most this one frame (which load() then
  // discards by CRC).
  Bytes frame(8 + record.size());
  put32(frame.data(), static_cast<std::uint32_t>(record.size()));
  put32(frame.data() + 4, util::crc32(record));
  // std::copy, not memcpy: an empty record may have a null data().
  std::copy(record.begin(), record.end(), frame.begin() + 8);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = std::string("write ") + path_ + ": " + std::strerror(errno);
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    if (error != nullptr) {
      *error = std::string("fsync ") + path_ + ": " + std::strerror(errno);
    }
    return false;
  }
  return true;
}

}  // namespace sintra::recovery
