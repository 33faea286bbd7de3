#include "core/link/sliding_window.hpp"

#include <algorithm>

#include "util/serde.hpp"

namespace sintra::core {

namespace {

/// Deterministic nonzero fallback epoch for links constructed without an
/// explicit one (tests, single-boot simulator runs).
std::uint64_t derived_epoch(int self, int peer) {
  std::uint64_t x = 0xd1b54a32d192ed03ULL ^
                    (static_cast<std::uint64_t>(self) << 32) ^
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x == 0 ? 1 : x;
}

}  // namespace

SlidingWindowLink::SlidingWindowLink(DatagramChannel& channel, int self,
                                     int peer, BytesView link_key,
                                     Options options)
    : channel_(channel),
      self_(self),
      peer_(peer),
      link_mac_(link_key),
      options_(options),
      epoch_(options.epoch != 0 ? options.epoch : derived_epoch(self, peer)),
      jitter_state_(0x9e3779b97f4a7c15ULL ^
                    (static_cast<std::uint64_t>(self) << 32) ^
                    static_cast<std::uint64_t>(peer)) {
  stats_.rto_ms = options_.retransmit_ms;
}

SlidingWindowLink::MacHeader SlidingWindowLink::mac_header(
    FrameType type, int from, int to, std::uint64_t sender_epoch,
    std::uint64_t echo, std::uint64_t seq, std::size_t body_size) {
  MacHeader h{};
  std::uint8_t* p = h.data();
  *p++ = static_cast<std::uint8_t>(type);
  p = put_u32(p, static_cast<std::uint32_t>(from));
  p = put_u32(p, static_cast<std::uint32_t>(to));
  p = put_u64(p, sender_epoch);
  p = put_u64(p, echo);
  p = put_u64(p, seq);
  put_u32(p, static_cast<std::uint32_t>(body_size));
  return h;
}

Bytes SlidingWindowLink::frame(FrameType type, std::uint64_t seq,
                               BytesView body) const {
  // Frames are built at transmission time, so a retransmission after the
  // peer's epoch became known (or changed) automatically carries the
  // fresh echo.
  //
  // The MAC binds direction: data flows self->peer under (self, peer),
  // our ACKs answer peer->self traffic and are bound to (peer, self)'s
  // receive side with a distinct type byte — no frame can be reflected.
  // Both session epochs are covered, so neither the sender's epoch nor
  // the echo can be forged or spliced between sessions.
  const bool data = type == FrameType::kData;
  const MacHeader header =
      mac_header(type, data ? self_ : peer_, data ? peer_ : self_, epoch_,
                 peer_epoch_, seq, body.size());
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(epoch_);
  w.u64(peer_epoch_);
  w.u64(seq);
  w.bytes(body);
  w.bytes(link_mac_.mac({header, body}));
  return std::move(w).take();
}

void SlidingWindowLink::send(Bytes message) {
  send(std::make_shared<const Bytes>(std::move(message)));
}

void SlidingWindowLink::send(std::shared_ptr<const Bytes> message) {
  queue_.push_back(std::move(message));
  pump();
}

void SlidingWindowLink::pump() {
  while (!queue_.empty() && in_flight_.size() < options_.window) {
    const std::uint64_t seq = next_seq_++;
    InFlight entry;
    entry.message = std::move(queue_.front());
    entry.sent_ms = channel_.now_ms();
    queue_.pop_front();
    in_flight_.emplace(seq, std::move(entry));
    transmit(seq);
  }
  arm_timer();
}

void SlidingWindowLink::transmit(std::uint64_t seq) {
  const auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) return;
  channel_.send_datagram(frame(FrameType::kData, seq, *it->second.message));
}

void SlidingWindowLink::send_ack() {
  channel_.send_datagram(frame(FrameType::kAck, expected_, {}));
}

double SlidingWindowLink::jittered_rto() {
  if (options_.jitter <= 0.0) return stats_.rto_ms;
  // xorshift64*: cheap deterministic per-link jitter; randomness quality
  // is irrelevant, only desynchronization matters.
  jitter_state_ ^= jitter_state_ >> 12;
  jitter_state_ ^= jitter_state_ << 25;
  jitter_state_ ^= jitter_state_ >> 27;
  const double u =
      static_cast<double>(jitter_state_ * 0x2545f4914f6cdd1dULL >> 11) /
      static_cast<double>(1ULL << 53);
  return stats_.rto_ms * (1.0 + options_.jitter * (2.0 * u - 1.0));
}

void SlidingWindowLink::arm_timer() {
  if (timer_armed_ || in_flight_.empty()) return;
  timer_armed_ = true;
  const std::uint64_t generation = ++timer_generation_;
  channel_.call_later(jittered_rto(), [this, generation] {
    if (generation == timer_generation_) on_timeout();
  });
}

void SlidingWindowLink::on_timeout() {
  timer_armed_ = false;
  if (in_flight_.empty()) return;
  // Go-back-from-base: retransmit every unacked frame (simple and robust;
  // cumulative ACKs make over-retransmission harmless).
  retransmit_in_flight();
  // Exponential backoff until the next clean RTT sample: persistent loss
  // (or a dead peer) must not produce a fixed-rate retransmit storm.
  const double backed = stats_.rto_ms * options_.backoff;
  if (backed <= options_.max_rto_ms) {
    stats_.rto_ms = backed;
    ++stats_.backoffs;
  } else if (stats_.rto_ms < options_.max_rto_ms) {
    stats_.rto_ms = options_.max_rto_ms;
    ++stats_.backoffs;
  }
  arm_timer();
}

void SlidingWindowLink::retransmit_in_flight() {
  for (auto& [seq, entry] : in_flight_) {
    ++stats_.retransmissions;
    entry.retransmitted = true;  // Karn's rule: never RTT-sample these
    transmit(seq);
  }
}

void SlidingWindowLink::sample_rtt(double rtt_ms) {
  ++stats_.rtt_samples;
  if (stats_.srtt_ms < 0.0) {
    // First sample (RFC 6298 §2.2).
    stats_.srtt_ms = rtt_ms;
    stats_.rttvar_ms = rtt_ms / 2.0;
  } else {
    stats_.rttvar_ms =
        0.75 * stats_.rttvar_ms + 0.25 * std::abs(stats_.srtt_ms - rtt_ms);
    stats_.srtt_ms = 0.875 * stats_.srtt_ms + 0.125 * rtt_ms;
  }
  stats_.rto_ms =
      std::clamp(stats_.srtt_ms + 4.0 * stats_.rttvar_ms,
                 options_.min_rto_ms, options_.max_rto_ms);
}

void SlidingWindowLink::reset_session() {
  // The peer rebooted: its receiver starts at zero and its sender starts
  // at zero.  Discard the receive position, and renumber everything we
  // still owe it from zero — in-flight frames (oldest first) rejoin the
  // head of the queue ahead of never-sent messages, preserving FIFO.
  expected_ = 0;
  out_of_order_.clear();
  for (auto it = in_flight_.rbegin(); it != in_flight_.rend(); ++it) {
    queue_.push_front(std::move(it->second.message));
  }
  in_flight_.clear();
  next_seq_ = 0;
  base_ = 0;
  pump();
}

bool SlidingWindowLink::accept_epochs(std::uint64_t sender_epoch,
                                      std::uint64_t echo) {
  // Runs only on authenticated frames: every value here was covered by a
  // MAC under the pairwise key, so a forger cannot reach this logic and
  // a replayer can only present epochs that genuinely existed.
  if (std::find(retired_.begin(), retired_.end(), sender_epoch) !=
      retired_.end()) {
    ++stats_.drop_epoch;  // replayed frame from a dead session
    return false;
  }
  if (peer_epoch_ == 0) {
    // First authenticated contact this boot: adopt, nothing to discard.
    peer_epoch_ = sender_epoch;
    retransmit_in_flight();  // anything sent blind now carries the echo
  } else if (sender_epoch != peer_epoch_) {
    // The peer restarted.  Retire the dead epoch so its frames can never
    // be replayed into the new session, and reset the window state.
    retired_.push_back(peer_epoch_);
    if (retired_.size() > options_.max_retired_epochs) {
      retired_.erase(retired_.begin());
    }
    peer_epoch_ = sender_epoch;
    ++stats_.epoch_resets;
    peer_stale_ = false;
    reset_session();
  }
  if (echo != epoch_) {
    // The peer has not yet seen our current epoch.  echo == 0 is benign
    // bootstrap (it never heard us at all); a nonzero stale echo means a
    // previous incarnation of us held a session with this peer — count
    // that as a detected reset, once per episode.  Either way the frame
    // is numbered against state we do not have, so it must not be
    // applied; the ACK we answer with teaches the peer our epoch.
    if (echo != 0 && !peer_stale_) {
      peer_stale_ = true;
      ++stats_.epoch_resets;
    }
    ++stats_.drop_epoch;
    send_ack();
    return false;
  }
  peer_stale_ = false;
  return true;
}

void SlidingWindowLink::on_datagram(BytesView datagram) {
  try {
    Reader r(datagram);
    const auto type = static_cast<FrameType>(r.u8());
    const std::uint64_t sender_epoch = r.u64();
    const std::uint64_t echo = r.u64();
    const std::uint64_t seq = r.u64();
    const BytesView body = r.raw_view(r.u32());
    const BytesView tag = r.raw_view(r.u32());
    r.expect_end();

    if (type != FrameType::kData && type != FrameType::kAck) {
      ++stats_.drop_malformed;  // unknown frame type
      return;
    }

    // Peer's data is authenticated under (peer -> self); its ACKs answer
    // our data and are bound to (self -> peer)'s receive side.
    const bool data = type == FrameType::kData;
    const MacHeader header =
        mac_header(type, data ? peer_ : self_, data ? self_ : peer_,
                   sender_epoch, echo, seq, body.size());
    if (!link_mac_.verify({header, body}, tag)) {
      ++stats_.drop_auth;  // forged or corrupted (incl. the §3 attack)
      return;
    }

    if (!accept_epochs(sender_epoch, echo)) return;

    if (data) {
      ++stats_.data_received;
      if (seq < expected_) {
        ++stats_.drop_duplicate;  // already delivered; re-ack below heals
      } else if (seq >= expected_ + options_.max_receive_buffer) {
        ++stats_.drop_overflow;  // beyond the buffer window: flood guard
      } else {
        // The one copy of the body: made only when it is buffered.
        if (!out_of_order_.try_emplace(seq, body.begin(), body.end())
                 .second) {
          ++stats_.drop_duplicate;  // buffered copy already held
        }
        while (!out_of_order_.empty() &&
               out_of_order_.begin()->first == expected_) {
          Bytes message = std::move(out_of_order_.begin()->second);
          out_of_order_.erase(out_of_order_.begin());
          ++expected_;
          ++stats_.delivered;
          if (deliver_cb_) deliver_cb_(std::move(message));
        }
      }
      // Always (re-)acknowledge — this is what heals lost ACKs.
      send_ack();
      return;
    }

    ++stats_.acks_received;
    // Cumulative: everything below `seq` is delivered at the peer.
    // Progress restarts the retransmit timer (RFC 6298 §5.3): it then
    // measures one RTO from the latest progress, not from the oldest
    // send, so steady traffic never expires it.
    if (base_ < seq) timer_armed_ = false;
    const double now = channel_.now_ms();
    while (base_ < seq) {
      const auto it = in_flight_.find(base_);
      if (it != in_flight_.end()) {
        // Karn's rule: only frames acknowledged on their first
        // transmission produce an RTT sample.
        if (!it->second.retransmitted && now >= 0.0 &&
            it->second.sent_ms >= 0.0) {
          sample_rtt(now - it->second.sent_ms);
        }
        in_flight_.erase(it);
      }
      ++base_;
    }
    pump();
  } catch (const SerdeError&) {
    ++stats_.drop_malformed;  // truncated or unparsable datagram
  }
}

}  // namespace sintra::core
