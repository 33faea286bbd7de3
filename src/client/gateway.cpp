#include "client/gateway.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace sintra::client {

namespace {
Bytes ok_result(std::uint64_t global_seq) {
  return to_bytes("ok:" + std::to_string(global_seq));
}
}  // namespace

ClientGateway::ClientGateway(Options opts, ClockFn clock)
    : opts_(opts),
      clock_(std::move(clock)),
      admitted_(obs::registry().counter(
          "client.admitted", obs::party_labels(static_cast<int>(opts.replica)))),
      shed_(obs::registry().counter(
          "client.shed", obs::party_labels(static_cast<int>(opts.replica)))),
      retry_later_(obs::registry().counter(
          "client.retry_later",
          obs::party_labels(static_cast<int>(opts.replica)))),
      dedup_hits_(obs::registry().counter(
          "client.dedup_hits",
          obs::party_labels(static_cast<int>(opts.replica)))),
      rejected_auth_(obs::registry().counter(
          "client.rejected_auth",
          obs::party_labels(static_cast<int>(opts.replica)))),
      executed_(obs::registry().counter(
          "client.executed", obs::party_labels(static_cast<int>(opts.replica)))),
      replies_sent_(obs::registry().counter(
          "client.replies_sent",
          obs::party_labels(static_cast<int>(opts.replica)))),
      held_(obs::registry().counter(
          "client.held", obs::party_labels(static_cast<int>(opts.replica)))),
      dup_deliveries_(obs::registry().counter(
          "client.dup_deliveries",
          obs::party_labels(static_cast<int>(opts.replica)))),
      pending_depth_(obs::registry().gauge(
          "client.pending_depth",
          obs::party_labels(static_cast<int>(opts.replica)))) {
  global_bucket_.tokens = opts_.global_burst;
  global_bucket_.last_ms = clock_ ? clock_() : 0.0;
}

bool ClientGateway::TokenBucket::take(double now_ms, double rate_per_sec,
                                      double burst) {
  tokens = std::min(burst, tokens + (now_ms - last_ms) * rate_per_sec / 1000.0);
  last_ms = now_ms;
  if (tokens < 1.0) return false;
  tokens -= 1.0;
  return true;
}

ClientGateway::ClientState& ClientGateway::state(std::uint32_t client_id) {
  auto [it, inserted] = clients_.try_emplace(client_id);
  if (inserted) {
    it->second.bucket.tokens = opts_.burst;
    it->second.bucket.last_ms = clock_();
  }
  return it->second;
}

bool ClientGateway::already_executed(const ClientState& cs,
                                     std::uint64_t seq) const {
  return seq <= cs.floor || cs.executed_above.count(seq) != 0;
}

void ClientGateway::mark_executed(ClientState& cs, std::uint64_t seq) {
  if (seq == cs.floor + 1) {
    ++cs.floor;
    // Absorb any sparse entries that became contiguous.
    auto it = cs.executed_above.begin();
    while (it != cs.executed_above.end() && *it == cs.floor + 1) {
      ++cs.floor;
      it = cs.executed_above.erase(it);
    }
  } else if (seq > cs.floor) {
    cs.executed_above.insert(seq);
  }
}

template <typename Check>
bool ClientGateway::authenticate(std::uint32_t id, Check&& check) {
  if (const auto it = macs_.find(id); it != macs_.end()) {
    return check(it->second);
  }
  ClientMac mac(keys_.key(id));
  if (!check(mac)) return false;
  macs_.emplace(id, std::move(mac));
  return true;
}

const ClientMac& ClientGateway::client_mac(std::uint32_t id) {
  auto it = macs_.find(id);
  if (it == macs_.end()) it = macs_.emplace(id, ClientMac(keys_.key(id))).first;
  return it->second;
}

void ClientGateway::set_pending_gauge() {
  pending_depth_.set(static_cast<double>(pending_total_));
}

void ClientGateway::send_reply(std::uint32_t client_id, ClientState& cs,
                               const ReplyFrame& frame) {
  if (!reply_) return;
  Bytes dgram = encode_reply(frame, client_mac(client_id));
  if (frame.status == Status::kOk) {
    // Cache the wire-ready bytes so a retransmitted request gets the
    // same authoritative answer without re-execution.  This holds even
    // before the client's first datagram reached this replica (another
    // replica proposed the request): that datagram must find the kOk
    // here, not kStale, or a client whose first datagrams reached only
    // one replica could never assemble its t+1 kOk quorum.
    cs.replies.emplace_back(frame.seq, dgram);
    while (cs.replies.size() > opts_.reply_cache) cs.replies.pop_front();
  }
  if (!cs.addr_known) return;
  if (mangle_) dgram = mangle_(std::move(dgram));
  reply_(cs.addr, std::move(dgram));
  replies_sent_.inc();
}

void ClientGateway::reject(std::uint32_t client_id, ClientState& cs,
                           std::uint64_t seq, Status status) {
  ReplyFrame f;
  f.client_id = client_id;
  f.seq = seq;
  f.replica = opts_.replica;
  f.status = status;
  if (status == Status::kRetryLater) f.retry_ms = opts_.retry_hint_ms;
  send_reply(client_id, cs, f);
}

void ClientGateway::on_request_datagram(BytesView datagram,
                                        const Address& from) {
  const auto id = peek_client_id(datagram);
  if (!id || peek_type(datagram) != FrameType::kRequest ||
      !keys_.known(*id) || is_local_client(*id)) {
    // Unknown/forged sender: count and drop.  Deliberately no reply —
    // answering unauthenticated datagrams would make the gateway a UDP
    // amplification reflector.
    rejected_auth_.inc();
    return;
  }
  std::optional<WrappedRequest> req;
  if (!authenticate(*id, [&](const ClientMac& mac) {
        req = decode_request(datagram, mac);
        return req.has_value();
      })) {
    rejected_auth_.inc();
    return;
  }
  if (opts_.max_clients > 0 && clients_.count(*id) == 0 &&
      clients_.size() >= opts_.max_clients) {
    // Table full: shed rather than evict — eviction would forget dedup
    // state, which is the one thing at-most-once cannot lose.
    shed_.inc();
    return;
  }
  // The MAC checked out: only now do we learn/update the client's
  // address (an unauthenticated datagram must not redirect replies).
  ClientState& cs = state(*id);
  cs.addr = from;
  cs.addr_known = true;

  if (already_executed(cs, req->seq)) {
    // Retransmit of something already done: replay the cached reply.
    dedup_hits_.inc();
    for (auto it = cs.replies.rbegin(); it != cs.replies.rend(); ++it) {
      if (it->first == req->seq) {
        Bytes dgram = it->second;
        if (mangle_) dgram = mangle_(std::move(dgram));
        reply_(cs.addr, std::move(dgram));
        replies_sent_.inc();
        return;
      }
    }
    // Executed but evicted from the cache — the client already got its
    // quorum or can learn from other replicas.
    reject(*id, cs, req->seq, Status::kStale);
    return;
  }
  if (!cs.pending.empty()) {
    // The previous request from this client is still in flight here;
    // a well-behaved client has exactly one outstanding request, so
    // this is an RTO retransmit racing the broadcast.  Dropping it is
    // safe: the delivery-time reply answers the retransmit too.
    dedup_hits_.inc();
    return;
  }

  const double now = clock_();
  if (!cs.bucket.take(now, opts_.rate_per_sec, opts_.burst) ||
      (opts_.global_rate_per_sec > 0.0 &&
       !global_bucket_.take(now, opts_.global_rate_per_sec,
                            opts_.global_burst))) {
    shed_.inc();
    obs::emit(obs::EventType::kShed, now, static_cast<int>(opts_.replica), -1,
              "client.gw", datagram.size(), static_cast<double>(*id));
    reject(*id, cs, req->seq, Status::kOverloaded);
    return;
  }
  if (pending_total_ >= opts_.max_pending) {
    retry_later_.inc();
    obs::emit(obs::EventType::kShed, now, static_cast<int>(opts_.replica), -1,
              "client.gw", datagram.size(), static_cast<double>(*id),
              "retry_later");
    reject(*id, cs, req->seq, Status::kRetryLater);
    return;
  }

  if (req->seq != cs.held &&
      designated_replica(*id, req->seq, opts_.n) != opts_.replica) {
    // A first transmission that another replica is designated to
    // propose: remember it and stay silent.  If the designated replica
    // is slow or silent, the client's RTO re-multicast finds this seq
    // held here and every such replica proposes it.
    cs.held = std::max(cs.held, req->seq);
    held_.inc();
    return;
  }
  if (!submit_ || !submit_(wrap_request(*req))) {
    shed_.inc();
    reject(*id, cs, req->seq, Status::kOverloaded);
    return;
  }
  admit(cs, req->seq);
}

void ClientGateway::admit(ClientState& cs, std::uint64_t seq) {
  admitted_.inc();
  cs.pending.insert(seq);
  ++pending_total_;
  set_pending_gauge();
}

void ClientGateway::release(ClientState& cs, std::uint64_t seq) {
  if (cs.pending.erase(seq) == 0) return;
  --pending_total_;
  set_pending_gauge();
}

void ClientGateway::submit_local(Bytes payload) {
  if (pending_total_ >= opts_.max_pending || !local_queue_.empty()) {
    local_queue_.push_back(std::move(payload));
    return;
  }
  WrappedRequest w;
  w.client_id = local_client_id();
  w.seq = ++local_seq_;
  w.payload = std::move(payload);
  if (!submit_ || !submit_(wrap_request(w))) {
    --local_seq_;
    return;  // channel closed; nothing more to do for local traffic
  }
  admit(state(w.client_id), w.seq);
}

void ClientGateway::drain_local_queue() {
  while (!local_queue_.empty() && pending_total_ < opts_.max_pending) {
    Bytes payload = std::move(local_queue_.front());
    local_queue_.pop_front();
    WrappedRequest w;
    w.client_id = local_client_id();
    w.seq = ++local_seq_;
    w.payload = std::move(payload);
    if (!submit_ || !submit_(wrap_request(w))) {
      --local_seq_;
      return;
    }
    admit(state(w.client_id), w.seq);
  }
}

std::optional<ClientGateway::Executed>
ClientGateway::on_delivered(BytesView channel_payload) {
  const auto w = unwrap_request(channel_payload);
  if (!w) {
    // Every honest replica proposes envelopes only, so only a corrupted
    // one can order anything else.  Deterministic skip.
    rejected_auth_.inc();
    return std::nullopt;
  }

  const bool local = is_local_client(w->client_id);
  if (!local) {
    if (!keys_.known(w->client_id)) {
      // Only a corrupted replica can propose an unknown client id —
      // honest gateways verify before proposing.  Deterministic skip.
      rejected_auth_.inc();
      return std::nullopt;
    }
    // Delivery-time re-verification of the client's own MAC: a
    // Byzantine replica cannot fabricate entries for registered
    // clients without their keys.  Deterministic across replicas
    // because the key table is shared.
    if (!authenticate(w->client_id, [&](const ClientMac& mac) {
          return ct_equal(w->mac, request_mac(w->client_id, w->seq,
                                              w->payload, mac));
        })) {
      rejected_auth_.inc();
      return std::nullopt;
    }
  }

  ClientState& cs = state(w->client_id);
  if (already_executed(cs, w->seq)) {
    // Another replica's proposal of the same request reached the order
    // first; this duplicate is skipped identically on every replica.
    dup_deliveries_.inc();
    return std::nullopt;
  }
  mark_executed(cs, w->seq);

  Executed ex;
  ex.local = local;
  ex.client_id = w->client_id;
  ex.seq = w->seq;
  ex.global_seq = next_global_++;
  ex.payload = w->payload;
  executed_.inc();
  release(cs, w->seq);

  if (!local) {
    // Every replica that knows the client's address replies — including
    // ones that shed the request at admission.  Shedding only refuses
    // to *propose*; once the group executed it, withholding the reply
    // would just starve the client's quorum.
    ReplyFrame f;
    f.client_id = w->client_id;
    f.seq = w->seq;
    f.replica = opts_.replica;
    f.status = Status::kOk;
    f.global_seq = ex.global_seq;
    f.result = ok_result(ex.global_seq);
    send_reply(w->client_id, cs, f);
  }
  drain_local_queue();
  return ex;
}

}  // namespace sintra::client
