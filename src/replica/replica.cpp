#include "replica/replica.hpp"

#include <algorithm>
#include <stdexcept>

#include "client/keys.hpp"
#include "core/channel/atomic_channel.hpp"
#include "core/channel/optimistic_channel.hpp"
#include "core/channel/secure_atomic_channel.hpp"

namespace sintra::replica {

namespace {

/// A replica is a long-running object: cap the channels' in-memory
/// delivery logs (the durable record, when wanted, is the recovery log).
constexpr std::size_t kDeliveryLogCap = 4096;

/// Throughput-mode channel configuration (0 keeps the seed defaults: one
/// payload per bundle, one round in flight).
core::AtomicChannel::Config channel_config(const Replica::Options& o) {
  core::AtomicChannel::Config cfg;
  if (o.batch_count > 0) cfg.max_batch_count = o.batch_count;
  if (o.pipeline_depth > 0) cfg.pipeline_depth = o.pipeline_depth;
  return cfg;
}

std::unique_ptr<core::ChannelBase> make_ordering_channel(
    core::Environment& env, core::Dispatcher& disp, const std::string& pid,
    const Replica::Options& o) {
  std::unique_ptr<core::ChannelBase> ch;
  if (o.channel == "atomic") {
    ch = std::make_unique<core::AtomicChannel>(env, disp, pid,
                                               channel_config(o));
  } else if (o.channel == "secure-atomic") {
    ch = std::make_unique<core::SecureAtomicChannel>(env, disp, pid,
                                                     channel_config(o));
  } else {
    ch = std::make_unique<core::OptimisticChannel>(env, disp, pid);
  }
  ch->set_delivery_log_limit(kDeliveryLogCap);
  return ch;
}

}  // namespace

Replica::Replica(core::Environment& env, core::Dispatcher& dispatcher,
                 Options options)
    : env_(env), opts_(std::move(options)), pid_("cluster." + opts_.channel) {
  const bool optimistic = opts_.channel == "optimistic";
  if (!optimistic && opts_.channel != "atomic" &&
      opts_.channel != "secure-atomic") {
    throw std::runtime_error("unknown channel type " + opts_.channel);
  }
  if (optimistic && opts_.expect == 0) {
    throw std::runtime_error(
        "--channel optimistic needs --expect (it has no close protocol)");
  }

  if (!opts_.state_dir.empty()) {
    store_ = std::make_unique<recovery::StateStore>(opts_.state_dir);
    // The boot counter is bumped before anything else: boot > 1 means
    // this directory already hosted a run, so this is a restart and must
    // recover instead of joining the rounds.
    recovering_ = store_->bump_boot() > 1;
    recovery::RecoveryManager::Options ropts;
    ropts.checkpoint_interval = opts_.checkpoint_interval;
    rec_ = std::make_unique<recovery::RecoveryManager>(
        env_, dispatcher, pid_, store_.get(), ropts);
  }

  if (recovering_) {
    // Restart path: no channel (a recovering replica cannot rejoin the
    // rounds); the records come from the log and from catch-up.
    rec_->set_caught_up_callback([this] { finish(); });
  }

  if (recovering_) {
    // Replayed records are gateway envelopes: their unwrap/dedup
    // decisions must match what this replica executed before it crashed.
    rec_->set_apply_callback(
        [this](const recovery::RecoveryManager::Record& r) {
          if (auto ex = gateway_->on_delivered(r.payload)) {
            execute(ex->payload);
          }
        });
  } else {
    channel_ = make_ordering_channel(env_, dispatcher, pid_, opts_);
    channel_->set_deliver_callback(
        [this](const Bytes& payload, core::PartyId origin) {
          on_channel_delivery(payload, origin);
        });
    channel_->set_closed_callback([this] { on_closed(); });
  }

  // The gateway exists for every channel, with or without a client lane:
  // local payloads route through the same submit_local / wrap /
  // delivery-time dedup machinery as client requests, so there is
  // exactly one at-most-once policy.
  client::ClientGateway::Options gopts;
  gopts.replica = static_cast<std::uint32_t>(env_.self());
  gopts.n = env_.n();
  gopts.t = env_.t();
  gopts.rate_per_sec = opts_.client_rate;
  gopts.burst = std::max(2.0, opts_.client_rate / 5.0);
  gopts.global_rate_per_sec = opts_.client_global_rate;
  gopts.global_burst = std::max(2.0, opts_.client_global_rate / 4.0);
  gopts.max_clients = opts_.max_clients;
  gopts.max_pending = opts_.client_pending;
  gateway_ = std::make_unique<client::ClientGateway>(
      gopts, [this] { return env_.now_ms(); });
  if (!opts_.client_keys.empty()) {
    gateway_->set_key_table(client::read_key_file(opts_.client_keys));
  }
  gateway_->set_submit([this](Bytes wrapped) {
    if (channel_ == nullptr || !channel_->can_send()) return false;
    channel_->send(wrapped);
    return true;
  });
}

Replica::~Replica() = default;

void Replica::start() {
  if (recovering_) {
    replayed_ = rec_->replay_local();
    rec_->start_catchup();
    return;
  }
  for (int k = 0; k < opts_.send_count; ++k) {
    gateway_->submit_local(payload_of(k));
  }
  if (opts_.close_after_send) close();
}

void Replica::close() {
  if (channel_ == nullptr) return;
  close_wanted_ = true;
  maybe_close();
}

Bytes Replica::payload_of(int k) const {
  std::string s =
      "p" + std::to_string(env_.self()) + ":" + std::to_string(k);
  // Padding keeps the unique header, so total-order comparison across
  // replicas still works on padded payloads.
  if (static_cast<int>(s.size()) < opts_.bench_payload_bytes) {
    s.resize(static_cast<std::size_t>(opts_.bench_payload_bytes), '.');
  }
  return to_bytes(s);
}

/// Every ordering-channel delivery funnels here: durable-log it raw, then
/// let the gateway unwrap, dedup, reply, and decide whether it executes.
void Replica::on_channel_delivery(const Bytes& payload,
                                  core::PartyId origin) {
  if (rec_) rec_->on_delivered(payload, origin);
  if (auto ex = gateway_->on_delivered(payload)) execute(ex->payload);
  maybe_close();
}

/// Closing waits for queued local submissions to reach the proposer;
/// closing under a full pipeline window would strand them.
void Replica::maybe_close() {
  if (!close_wanted_ || close_issued_ || !gateway_->local_queue_empty()) {
    return;
  }
  close_issued_ = true;
  channel_->close();
}

void Replica::execute(const Bytes& payload) {
  ++executed_;
  if (execute_cb_) execute_cb_(payload);
  // A restarted replica cannot know the final count in advance: it
  // completes on the final certificate, never on `expect`.
  if (!recovering_ && opts_.expect != 0 && executed_ >= opts_.expect) {
    finish();
  }
}

void Replica::on_closed() {
  // The close-time checkpoint covers the whole sequence; its `final`
  // certificate tells restarted and lagging replicas they have it all.
  if (rec_) rec_->force_checkpoint(/*final=*/true);
  finish();
}

void Replica::finish() {
  if (completed_) return;
  completed_ = true;
  if (complete_cb_) complete_cb_();
}

}  // namespace sintra::replica
