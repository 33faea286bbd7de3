#include "core/channel/optimistic_channel.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "obs/trace.hpp"

namespace sintra::core {

namespace {
enum class Tag : std::uint8_t {
  kInitiate = 1,
  kAck = 2,
  kComplain = 3,
  kWedge = 4,
};

struct OrderRecord {
  PartyId origin;
  std::uint64_t seq;
  Bytes payload;
};

Bytes encode_order(PartyId origin, std::uint64_t seq, BytesView payload) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(origin));
  w.u64(seq);
  w.bytes(payload);
  return std::move(w).take();
}

OrderRecord decode_order(BytesView raw) {
  Reader r(raw);
  OrderRecord out;
  out.origin = static_cast<PartyId>(r.u32());
  out.seq = r.u64();
  out.payload = r.bytes();
  r.expect_end();
  return out;
}

// Wedge record: signer + epoch + (slot, closing) list + signature.
struct WedgeRecord {
  PartyId signer = -1;
  int epoch = 0;
  std::vector<std::pair<std::uint64_t, Bytes>> closings;
  Bytes sig;
};

Bytes encode_wedge(const WedgeRecord& wr) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(wr.signer));
  w.u32(static_cast<std::uint32_t>(wr.epoch));
  w.u32(static_cast<std::uint32_t>(wr.closings.size()));
  for (const auto& [slot, closing] : wr.closings) {
    w.u64(slot);
    w.bytes(closing);
  }
  w.bytes(wr.sig);
  return std::move(w).take();
}

WedgeRecord decode_wedge(BytesView raw) {
  Reader r(raw);
  WedgeRecord out;
  out.signer = static_cast<PartyId>(r.u32());
  out.epoch = static_cast<int>(r.u32());
  const std::uint32_t count = r.u32();
  if (count > 1u << 20) throw SerdeError("wedge: too many closings");
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t slot = r.u64();
    out.closings.emplace_back(slot, r.bytes());
  }
  out.sig = r.bytes();
  r.expect_end();
  return out;
}

Bytes closings_digest(
    const std::vector<std::pair<std::uint64_t, Bytes>>& closings) {
  Writer w;
  for (const auto& [slot, closing] : closings) {
    w.u64(slot);
    w.bytes(closing);
  }
  return crypto::Sha256::hash(w.data());
}

}  // namespace

OptimisticChannel::OptimisticChannel(Environment& env, Dispatcher& dispatcher,
                                     const std::string& pid)
    : Protocol(env, dispatcher, pid) {
  auto& reg = obs::registry();
  const obs::Labels labels =
      obs::party_layer_labels(env.self(), obs::layer_of(pid));
  m_deliveries_ = &reg.counter("channel.deliveries", labels);
  m_epoch_switches_ = &reg.counter("optimistic.epoch_switches", labels);
  m_complaints_ = &reg.counter("optimistic.complaints", labels);
  activate();
  open_slot(0);
}

OptimisticChannel::~OptimisticChannel() = default;

std::string OptimisticChannel::slot_pid_base(int epoch) const {
  return pid() + ".e" + std::to_string(epoch) + ".s";
}

Bytes OptimisticChannel::wedge_statement(int epoch, std::uint64_t count,
                                         BytesView digest) const {
  Writer w;
  w.str("ow-wedge");
  w.str(pid());
  w.u32(static_cast<std::uint32_t>(epoch));
  w.u64(count);
  w.bytes(digest);
  return std::move(w).take();
}

void OptimisticChannel::send(BytesView payload) {
  pending_.push_back(
      PendingMessage{own_seq_++, Bytes(payload.begin(), payload.end())});
  if (!frozen_) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(Tag::kInitiate));
    w.u64(pending_.back().seq);
    w.bytes(pending_.back().payload);
    send_to(sequencer(), w.data());
  }
}

void OptimisticChannel::initiate_pending() {
  for (const auto& msg : pending_) {
    if (msg.output) continue;
    Writer w;
    w.u8(static_cast<std::uint8_t>(Tag::kInitiate));
    w.u64(msg.seq);
    w.bytes(msg.payload);
    send_to(sequencer(), w.data());
  }
}

void OptimisticChannel::suspect() {
  if (complained_ || frozen_) return;
  complained_ = true;
  Writer w;
  w.u8(static_cast<std::uint8_t>(Tag::kComplain));
  w.u32(static_cast<std::uint32_t>(epoch_));
  send_all(w.data());
}

void OptimisticChannel::on_message(PartyId from, BytesView payload) {
  try {
    Reader r(payload);
    switch (static_cast<Tag>(r.u8())) {
      case Tag::kInitiate:
        handle_initiate(from, r);
        return;
      case Tag::kAck:
        handle_ack(from, r);
        return;
      case Tag::kComplain:
        handle_complain(from, r);
        return;
      case Tag::kWedge:
        handle_wedge(from, r);
        return;
      default:
        return;
    }
  } catch (const SerdeError&) {
    // drop
  }
}

void OptimisticChannel::handle_initiate(PartyId from, Reader& r) {
  const std::uint64_t seq = r.u64();
  const Bytes payload = r.bytes();
  r.expect_end();
  if (env_.self() != sequencer() || frozen_) return;
  sequencer_order(from, seq, payload);
}

void OptimisticChannel::sequencer_order(PartyId origin, std::uint64_t seq,
                                        const Bytes& payload) {
  const MessageKey key{origin, seq};
  if (ordered_keys_.contains(key) || delivered_keys_.contains(key)) return;
  ordered_keys_.insert(key);
  const std::uint64_t slot = next_slot_++;
  open_slot(slot);
  slots_[slot].vcb->send(encode_order(origin, seq, payload));
}

void OptimisticChannel::open_slot(std::uint64_t index) {
  if (slots_.contains(index)) return;
  Slot slot;
  slot.vcb = std::make_unique<VerifiableConsistentBroadcast>(
      env_, dispatcher_, slot_pid_base(epoch_) + std::to_string(index),
      sequencer());
  auto* vcb = slot.vcb.get();
  slots_.emplace(index, std::move(slot));
  // Store before wiring: a buffered final replayed during construction
  // makes the setter fire on_slot_delivered immediately, which looks the
  // slot up in slots_.
  vcb->set_deliver_callback([this, index](const Bytes& order) {
    on_slot_delivered(index, order);
  });
}

void OptimisticChannel::on_slot_delivered(std::uint64_t index,
                                          const Bytes& order) {
  if (frozen_) return;
  Slot& slot = slots_[index];
  if (slot.order.has_value()) return;
  try {
    (void)decode_order(order);  // malformed sequencer records are ignored
  } catch (const SerdeError&) {
    return;
  }
  slot.order = order;
  // The sequencer keeps the pipeline warm for receivers that have not
  // seen slot index+1's SEND yet.
  open_slot(index + 1);
  // 1-hop ACK; the quorum makes output transferable across the switch.
  Writer w;
  w.u8(static_cast<std::uint8_t>(Tag::kAck));
  w.u32(static_cast<std::uint32_t>(epoch_));
  w.u64(index);
  send_all(w.data());
  try_output();
}

void OptimisticChannel::handle_ack(PartyId from, Reader& r) {
  const int epoch = static_cast<int>(r.u32());
  const std::uint64_t index = r.u64();
  r.expect_end();
  if (epoch != epoch_ || frozen_) return;  // stale or early acks are
                                           // harmless: output also
                                           // transfers via the switch
  // Tight bound: every ack-created slot allocates a broadcast instance,
  // so a Byzantine acker must not be able to open an unbounded number.
  if (index > next_output_ + 4096) return;
  open_slot(index);
  slots_[index].acks.insert(from);
  try_output();
}

void OptimisticChannel::try_output() {
  for (;;) {
    auto it = slots_.find(next_output_);
    if (it == slots_.end()) return;
    Slot& slot = it->second;
    if (!slot.order.has_value() || slot.output) return;
    if (static_cast<int>(slot.acks.size()) < env_.n() - env_.t()) return;
    slot.output = true;
    output_record(*slot.order);
    ++next_output_;
  }
}

void OptimisticChannel::output_record(const Bytes& order) {
  OrderRecord rec;
  try {
    rec = decode_order(order);
  } catch (const SerdeError&) {
    return;
  }
  const MessageKey key{rec.origin, rec.seq};
  if (!delivered_keys_.insert(key).second) return;
  if (rec.origin == env_.self()) {
    for (auto& msg : pending_) {
      if (msg.seq == rec.seq) msg.output = true;
    }
  }
  m_deliveries_->inc();
  obs::emit(obs::EventType::kDeliver, env_.now_ms(), rec.origin, env_.self(),
            pid(), rec.payload.size(), epoch_);
  deliver_to_app(deliveries_,
                 Delivery{rec.payload, rec.origin, epoch_, env_.now_ms()},
                 std::move(rec.payload), rec.origin);
}

void OptimisticChannel::handle_complain(PartyId from, Reader& r) {
  const int epoch = static_cast<int>(r.u32());
  r.expect_end();
  if (epoch != epoch_ || frozen_) return;
  m_complaints_->inc();
  complaints_.insert(from);
  if (static_cast<int>(complaints_.size()) >= env_.t() + 1) {
    // Echo the complaint so slower parties reach the quorum too, then
    // freeze the epoch.
    if (!complained_) {
      complained_ = true;
      Writer w;
      w.u8(static_cast<std::uint8_t>(Tag::kComplain));
      w.u32(static_cast<std::uint32_t>(epoch_));
      send_all(w.data());
    }
    freeze_and_wedge();
  }
}

void OptimisticChannel::freeze_and_wedge() {
  if (frozen_) return;
  frozen_ = true;
  if (wedged_) return;
  wedged_ = true;

  WedgeRecord wr;
  wr.signer = env_.self();
  wr.epoch = epoch_;
  for (const auto& [index, slot] : slots_) {
    if (slot.vcb->delivered().has_value()) {
      wr.closings.emplace_back(index, *slot.vcb->get_closing());
    }
  }
  wr.sig = env_.keys().sign(wedge_statement(
      epoch_, wr.closings.size(), closings_digest(wr.closings)));
  const Bytes record = encode_wedge(wr);

  Writer w;
  w.u8(static_cast<std::uint8_t>(Tag::kWedge));
  w.raw(record);
  send_all(w.data());
}

bool OptimisticChannel::wedge_valid(PartyId signer, BytesView wedge) const {
  WedgeRecord wr;
  try {
    wr = decode_wedge(wedge);
  } catch (const SerdeError&) {
    return false;
  }
  if (wr.signer != signer && signer >= 0) return false;
  if (wr.signer < 0 || wr.signer >= env_.n()) return false;
  if (wr.epoch != epoch_) return false;
  std::set<std::uint64_t> seen;
  for (const auto& [slot, closing] : wr.closings) {
    if (!seen.insert(slot).second) return false;
    const std::string slot_pid = slot_pid_base(wr.epoch) +
                                 std::to_string(slot) + "." +
                                 std::to_string(sequencer());
    if (!VerifiableConsistentBroadcast::is_valid_closing(env_.keys(),
                                                         slot_pid, closing)) {
      return false;
    }
  }
  return env_.keys().verify_party_sig(
      wr.signer,
      wedge_statement(wr.epoch, wr.closings.size(),
                      closings_digest(wr.closings)),
      wr.sig);
}

void OptimisticChannel::handle_wedge(PartyId from, Reader& r) {
  const Bytes record = r.raw(r.remaining());
  if (!frozen_) {
    // A wedge implies t+1 complaints happened somewhere; treat it as a
    // complaint trigger for ourselves only if it verifies.
    if (!wedge_valid(from, record)) return;
    complaints_.insert(from);
    // Do not freeze on a single wedge — wait for the complaint quorum;
    // but remember the wedge for when we do.
    wedges_.emplace(from, record);
    return;
  }
  if (wedges_.contains(from)) return;
  if (!wedge_valid(from, record)) return;
  wedges_.emplace(from, record);
  maybe_start_switch_agreement();
}

void OptimisticChannel::maybe_start_switch_agreement() {
  if (!frozen_ || switch_mvba_) return;
  // Include our own wedge (broadcast loops back through the dispatcher,
  // so it is already in wedges_ once delivered to self).
  if (static_cast<int>(wedges_.size()) < env_.n() - env_.t()) return;

  Writer proposal;
  proposal.u32(static_cast<std::uint32_t>(env_.n() - env_.t()));
  int written = 0;
  for (const auto& [signer, record] : wedges_) {
    if (written == env_.n() - env_.t()) break;
    proposal.bytes(record);
    ++written;
  }

  const int switching_epoch = epoch_;
  switch_mvba_ = std::make_unique<ArrayAgreement>(
      env_, dispatcher_, pid() + ".switch." + std::to_string(switching_epoch),
      [this](BytesView p) { return switch_proposal_valid(p); },
      ArrayAgreement::CandidateOrder::kRandomLocal);
  switch_mvba_->set_decide_callback([this](const Bytes& decided) {
    on_switch_decided(decided);
  });
  switch_mvba_->propose(proposal.data());
}

bool OptimisticChannel::switch_proposal_valid(BytesView proposal) const {
  try {
    Reader r(proposal);
    const std::uint32_t count = r.u32();
    if (count != static_cast<std::uint32_t>(env_.n() - env_.t())) return false;
    std::set<PartyId> signers;
    for (std::uint32_t i = 0; i < count; ++i) {
      const Bytes record = r.bytes();
      WedgeRecord wr = decode_wedge(record);
      if (!signers.insert(wr.signer).second) return false;
      if (!wedge_valid(wr.signer, record)) return false;
    }
    r.expect_end();
    return true;
  } catch (const SerdeError&) {
    return false;
  }
}

void OptimisticChannel::on_switch_decided(const Bytes& proposal) {
  // Union of the decided wedges' closings, output in slot order.
  std::map<std::uint64_t, Bytes> history;  // slot -> ORDER record
  try {
    Reader r(proposal);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const WedgeRecord wr = decode_wedge(r.bytes());
      for (const auto& [slot, closing] : wr.closings) {
        auto payload =
            VerifiableConsistentBroadcast::payload_from_closing(closing);
        if (payload) history.emplace(slot, std::move(*payload));
      }
    }
  } catch (const SerdeError&) {
    return;  // impossible: validated proposal
  }
  for (const auto& [slot, order] : history) {
    output_record(order);
  }

  // Next epoch, next sequencer; unordered payloads are re-initiated.
  old_switches_.push_back(std::move(switch_mvba_));
  for (auto& [index, slot] : slots_) {
    old_slots_.push_back(std::move(slot.vcb));
  }
  slots_.clear();
  next_slot_ = 0;
  next_output_ = 0;
  ordered_keys_.clear();
  complaints_.clear();
  wedges_.clear();
  complained_ = false;
  wedged_ = false;
  ++epoch_;
  frozen_ = false;
  m_epoch_switches_->inc();
  obs::emit(obs::EventType::kTransition, env_.now_ms(), env_.self(), -1,
            pid(), 0, epoch_, "epoch_switch");
  open_slot(0);
  initiate_pending();
}

}  // namespace sintra::core
