#include "core/channel/secure_atomic_channel.hpp"

#include "obs/trace.hpp"

namespace sintra::core {

namespace {
constexpr std::uint8_t kShareTag = 1;
}  // namespace

SecureAtomicChannel::SecureAtomicChannel(Environment& env,
                                         Dispatcher& dispatcher,
                                         const std::string& pid,
                                         AtomicChannel::Config config)
    : Protocol(env, dispatcher, pid) {
  atomic_ =
      std::make_unique<AtomicChannel>(env, dispatcher, pid + ".ac", config);
  atomic_->set_deliver_callback([this](const Bytes& ct, PartyId) {
    on_ciphertext_delivered(ct);
  });
  atomic_->set_closed_callback([this] { report_closed_if_done(); });
  auto& reg = obs::registry();
  const obs::Labels labels =
      obs::party_layer_labels(env.self(), obs::layer_of(pid));
  m_deliveries_ = &reg.counter("channel.deliveries", labels);
  m_decrypt_shares_ = &reg.counter("channel.decrypt_shares", labels);
  m_invalid_ciphertexts_ = &reg.counter("channel.invalid_ciphertexts", labels);
  m_decrypt_wait_ms_ = &reg.histogram("channel.decrypt_wait_ms", labels);
  activate();
}

SecureAtomicChannel::~SecureAtomicChannel() = default;

Bytes SecureAtomicChannel::encrypt(const crypto::Tdh2Public& channel_key,
                                   const std::string& pid, BytesView payload,
                                   Rng& rng) {
  return channel_key.encrypt(payload, to_bytes(pid), rng);
}

void SecureAtomicChannel::send(BytesView payload) {
  const Bytes ct = encrypt(env_.keys().cipher->pub(), pid(), payload,
                           env_.rng());
  atomic_->send(ct);
}

void SecureAtomicChannel::send_ciphertext(BytesView ciphertext) {
  atomic_->send(ciphertext);
}

std::optional<Bytes> SecureAtomicChannel::receive_ciphertext() {
  if (ciphertext_cursor_ >= slots_.size()) return std::nullopt;
  return slots_[ciphertext_cursor_++].ciphertext;
}

void SecureAtomicChannel::on_ciphertext_delivered(const Bytes& ciphertext) {
  const std::size_t index = slots_.size();
  Slot slot;
  slot.ciphertext = ciphertext;
  slot.delivered_ms = env_.now_ms();
  slots_.push_back(std::move(slot));

  // The label binds a ciphertext to its channel: one produced for another
  // channel (a cross-context replay) is skipped exactly like an invalid
  // one — uniformly at every honest party, since the label is plaintext.
  const auto label = crypto::tdh2_ciphertext_label(ciphertext);
  if (!label.has_value() || *label != to_bytes(pid())) {
    m_invalid_ciphertexts_->inc();
    slots_[index].invalid = true;
    flush_ready();
    return;
  }

  // Release our decryption share (an extra round of interaction, §2.6).
  auto share = env_.keys().cipher->decrypt_share(ciphertext);
  if (!share.has_value()) {
    // Invalid ciphertext (a Byzantine sender bypassed encrypt()): the
    // validity check fails identically at every honest party, so all skip
    // this position — order stays consistent.
    m_invalid_ciphertexts_->inc();
    slots_[index].invalid = true;
    flush_ready();
    return;
  }
  // Optimistic decryption: the slot's collector accumulates shares
  // unverified; at k it hands them to combine_checked (possibly on the
  // crypto pool), which validates only the one combined result unless a
  // Byzantine share forces the per-share fallback.
  std::shared_ptr<crypto::Tdh2Party> cipher = env_.keys().cipher;
  slots_[index].shares = std::make_unique<ShareCollector<Bytes>>(
      env_.crypto_pool(), cipher->k(),
      [cipher, ct = ciphertext, pool = &env_.crypto_pool()](
          const ShareCollector<Bytes>::Shares& shares) {
        // The pool pointer lets a Byzantine-triggered fallback verify the
        // k chosen shares in parallel (run_parallel is safe to call from
        // the pool worker this closure runs on).
        return cipher->combine_checked(ct, shares, pool);
      },
      [this, index](Bytes plaintext) {
        Slot& slot = slots_[index];
        if (slot.invalid || slot.plaintext.has_value()) return;
        slot.plaintext = std::move(plaintext);
        flush_ready();
      });

  Writer w;
  w.u8(kShareTag);
  w.u64(index);
  w.bytes(*share);
  send_all(w.data());

  // Shares that raced ahead of our atomic delivery.
  auto early = early_shares_.find(index);
  if (early != early_shares_.end()) {
    auto pending = std::move(early->second);
    early_shares_.erase(early);
    for (auto& [from, s] : pending) process_share(from, index, s);
  }
}

void SecureAtomicChannel::on_message(PartyId from, BytesView payload) {
  try {
    Reader r(payload);
    if (r.u8() != kShareTag) return;
    const std::size_t index = static_cast<std::size_t>(r.u64());
    const Bytes share = r.bytes();
    r.expect_end();
    // Bound buffered early shares: a Byzantine peer may send shares for
    // arbitrary future indices.
    if (index > slots_.size() + 10000) return;
    if (index >= slots_.size()) {
      early_shares_[index].emplace(from, share);
      return;
    }
    process_share(from, index, share);
  } catch (const SerdeError&) {
    // drop
  }
}

void SecureAtomicChannel::process_share(PartyId from, std::size_t index,
                                        const Bytes& share) {
  Slot& slot = slots_[index];
  if (slot.invalid || slot.plaintext.has_value() || !slot.shares) return;
  // Counts shares *collected*, not verified — under the optimistic path
  // individual shares are only examined when a combine fails.
  if (slot.shares->add(from, share)) m_decrypt_shares_->inc();
}

void SecureAtomicChannel::flush_ready() {
  while (next_delivery_ < slots_.size()) {
    Slot& slot = slots_[next_delivery_];
    if (slot.invalid) {
      ++next_delivery_;
      continue;
    }
    if (!slot.plaintext.has_value()) break;
    m_deliveries_->inc();
    m_decrypt_wait_ms_->observe(env_.now_ms() - slot.delivered_ms);
    obs::emit(obs::EventType::kDeliver, env_.now_ms(), -1, env_.self(), pid(),
              slot.plaintext->size());
    // A copy: the callback may send, and a reentrant delivery would grow
    // slots_ under a reference into it.
    deliver_to_app(deliveries_, Delivery{*slot.plaintext, env_.now_ms()},
                   Bytes(*slot.plaintext), -1);
    ++next_delivery_;
  }
  report_closed_if_done();
}

void SecureAtomicChannel::report_closed_if_done() {
  if (is_closed()) report_closed();
}

void SecureAtomicChannel::abort() {
  atomic_->abort();
  Protocol::abort();
}

}  // namespace sintra::core
