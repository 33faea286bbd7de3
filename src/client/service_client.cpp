#include "client/service_client.hpp"

#include <algorithm>
#include <utility>

namespace sintra::client {

namespace {
obs::Labels client_labels() { return {{"party", "client"}}; }
}  // namespace

ReplicatedServiceClient::ReplicatedServiceClient(Options opts, Hooks hooks)
    : opts_(std::move(opts)),
      mac_(opts_.key),
      hooks_(std::move(hooks)),
      requests_(obs::registry().counter("client.requests", client_labels())),
      completed_(obs::registry().counter("client.completed", client_labels())),
      rejected_(obs::registry().counter("client.rejected", client_labels())),
      timeouts_(obs::registry().counter("client.timeouts", client_labels())),
      retransmits_metric_(
          obs::registry().counter("client.retransmits", client_labels())),
      quorum_ms_(obs::registry().histogram("client.reply_quorum_ms",
                                           client_labels())) {}

void ReplicatedServiceClient::submit(Bytes payload, DoneFn done) {
  queue_.emplace_back(std::move(payload), std::move(done));
  if (!active_) start_next();
}

void ReplicatedServiceClient::start_next() {
  if (queue_.empty()) {
    active_ = false;
    return;
  }
  auto [payload, done] = std::move(queue_.front());
  queue_.pop_front();
  active_ = true;
  requests_.inc();

  RequestFrame req;
  req.client_id = opts_.client_id;
  req.seq = next_seq_++;
  req.payload = std::move(payload);

  pending_ = Pending{};
  pending_.seq = req.seq;
  pending_.datagram = encode_request(req, mac_);
  pending_.done = std::move(done);
  pending_.started_ms = hooks_.now_ms();
  pending_.rto_ms = opts_.rto_ms;
  pending_.attempts = 1;
  for (int i = 0; i < opts_.n; ++i) hooks_.send(i, pending_.datagram);
  arm_timer(pending_.rto_ms);
}

void ReplicatedServiceClient::arm_timer(double delay_ms) {
  const std::uint64_t gen = ++timer_gen_;
  hooks_.call_later(delay_ms, [this, gen] { on_timeout(gen); });
}

void ReplicatedServiceClient::on_timeout(std::uint64_t gen) {
  if (!active_ || gen != timer_gen_) return;  // stale timer
  if (pending_.attempts >= opts_.max_attempts) {
    Outcome out;
    out.seq = pending_.seq;
    out.timed_out = true;
    out.latency_ms = hooks_.now_ms() - pending_.started_ms;
    timeouts_.inc();
    finish(std::move(out));
    return;
  }
  ++pending_.attempts;
  ++retransmits_;
  retransmits_metric_.inc();
  for (int i = 0; i < opts_.n; ++i) hooks_.send(i, pending_.datagram);
  pending_.rto_ms = std::min(opts_.rto_max_ms,
                             pending_.rto_ms * opts_.rto_backoff);
  arm_timer(pending_.rto_ms);
}

void ReplicatedServiceClient::on_datagram(BytesView datagram) {
  if (!active_) return;
  if (peek_client_id(datagram) != opts_.client_id) return;
  const auto reply = decode_reply(datagram, mac_);
  if (!reply) return;  // mangled/forged: MAC failed, drop silently
  if (reply->seq != pending_.seq) return;  // answer to an older request
  if (reply->replica >= static_cast<std::uint32_t>(opts_.n)) return;

  if (reply->status == Status::kRetryLater) {
    // Backpressure, not loss: retry on the server's schedule without
    // burning the exponential backoff.
    const double hint = std::max<double>(reply->retry_ms, 1.0);
    if (hint < pending_.rto_ms) arm_timer(hint);
    return;
  }

  auto key = std::make_tuple(static_cast<std::uint8_t>(reply->status),
                             reply->global_seq, reply->result);
  auto& voters = pending_.votes[key];
  voters.insert(reply->replica);
  if (voters.size() < static_cast<std::size_t>(opts_.t + 1)) return;

  // Quorum: t+1 distinct replicas agree on this tuple.
  if (reply->status != Status::kOk) {
    // A rejection quorum does NOT prove the request was never executed:
    // admission is per-replica, so t+1 replicas can shed while others
    // propose.  Retrying the *same* seq is always safe — gateways dedup
    // it, and replicas that executed answer from the reply cache,
    // converting a premature rejection into the kOk quorum.  Only after
    // max_attempts do we surface the rejection.
    if (pending_.attempts < opts_.max_attempts) {
      // Back off, then let the timer path retransmit: hammering an
      // overloaded service immediately would defeat the shedding.
      pending_.votes.clear();
      pending_.rto_ms = std::min(opts_.rto_max_ms,
                                 pending_.rto_ms * opts_.rto_backoff);
      arm_timer(pending_.rto_ms);
      return;
    }
    Outcome out;
    out.ok = false;
    out.status = reply->status;
    out.seq = pending_.seq;
    out.latency_ms = hooks_.now_ms() - pending_.started_ms;
    rejected_.inc();
    finish(std::move(out));
    return;
  }

  Outcome out;
  out.ok = true;
  out.status = Status::kOk;
  out.seq = pending_.seq;
  out.global_seq = reply->global_seq;
  out.result = reply->result;
  out.latency_ms = hooks_.now_ms() - pending_.started_ms;
  completed_.inc();
  quorum_ms_.observe(out.latency_ms);
  finish(std::move(out));
}

void ReplicatedServiceClient::finish(Outcome outcome) {
  ++timer_gen_;  // disarm any in-flight timer
  active_ = false;
  DoneFn done = std::move(pending_.done);
  pending_.votes.clear();
  if (done) done(std::move(outcome));
  if (!active_) start_next();  // done() may have resubmitted already
}

}  // namespace sintra::client
