// Simulator workloads of the benchmark (see README.md in this directory).
//
//   perfbench_sim_driver --workload sim_atomic_n4|sim_secure_n7 --seed S
//       --seconds X --trace 0|1 --out FILE [--setup-only]
//
// Every replica runs in this one process on the discrete-event simulator,
// so the host time measured here is the protocol stack's own CPU cost:
// crypto, bignum and core (dispatcher, broadcast, agreement, channel),
// with no sockets.  Each timed episode is the paper's §4 "maximum
// capacity" open loop: three senders pre-fill their queues at one
// virtual instant, and the episode ends when every replica has delivered
// every payload.  Episodes, each on a freshly composed group, repeat until
// --seconds of host time are spent.
// --setup-only stops after set-up: the dealer caches key generation per
// process, so each set-up sample needs a fresh process.
//
// The driver only measures and checks; run.py turns the raw figures it
// writes to --out into the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/channel/atomic_channel.hpp"
#include "core/channel/secure_atomic_channel.hpp"
#include "crypto/dealer.hpp"
#include "crypto/threshold_sig.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/topologies.hpp"
#include "util/rng.hpp"

#include "json_out.hpp"

using namespace sintra;
using perfbench::json_array;
using perfbench::json_string;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  std::string name;
  int n = 4;
  int t = 1;
  bool secure = false;
  bool lan = true;            // paper LAN topology, else uniform
  int payloads_per_sender = 0;  // per episode
};

Workload workload_of(const std::string& name) {
  if (name == "sim_atomic_n4") return {name, 4, 1, false, true, 80};
  if (name == "sim_secure_n7") return {name, 7, 2, true, false, 16};
  throw std::runtime_error("unknown workload " + name);
}

constexpr int kSenders = 3;
constexpr int kBatchCount = 16;
constexpr int kPipelineDepth = 4;
constexpr int kPayloadBytes = 24;  // the paper's "short payload" (< 32 bytes)
// Per-message protocol-stack overhead charged in virtual time, calibrated
// against the paper's Table 1 (EXPERIMENTS.md); bench/common.hpp uses the
// same value.
constexpr double kPerMessageCpuMs = 12.0;

struct Options {
  Workload w;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out;
};

Options parse(int argc, char** argv) {
  Options o;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() == "1";
    else if (arg == "--setup-only") o.setup_only = true;
    else if (arg == "--out") o.out = value();
    else throw std::runtime_error("unknown option " + arg);
  }
  o.w = workload_of(workload);
  if (o.out.empty()) throw std::runtime_error("--out is required");
  return o;
}

/// Host time spent inside the threshold-signature seam.  The simulator is
/// single-threaded, so one process-wide accumulator is exact.
struct SigTimer {
  bool enabled = false;
  std::uint64_t ns = 0;
};

/// Times every call into a party's ThresholdSigScheme while the timer is
/// enabled; behaviour is the wrapped scheme's (combine_checked runs in the
/// base class on top of these overrides, as for any scheme).
class TimedSigScheme final : public crypto::ThresholdSigScheme {
 public:
  TimedSigScheme(std::shared_ptr<crypto::ThresholdSigScheme> inner,
                 SigTimer& timer)
      : inner_(std::move(inner)), timer_(timer) {}

  [[nodiscard]] int n() const override { return inner_->n(); }
  [[nodiscard]] int k() const override { return inner_->k(); }
  [[nodiscard]] int index() const override { return inner_->index(); }

  [[nodiscard]] Bytes sign_share(BytesView msg) override {
    return timed([&] { return inner_->sign_share(msg); });
  }
  [[nodiscard]] bool verify_share(BytesView msg, int signer,
                                  BytesView share) const override {
    return timed([&] { return inner_->verify_share(msg, signer, share); });
  }
  [[nodiscard]] Bytes combine(
      BytesView msg,
      const std::vector<std::pair<int, Bytes>>& shares) const override {
    return timed([&] { return inner_->combine(msg, shares); });
  }
  [[nodiscard]] bool verify(BytesView msg, BytesView sig) const override {
    return timed([&] { return inner_->verify(msg, sig); });
  }

 private:
  template <typename F>
  auto timed(F&& f) const -> decltype(f()) {
    if (!timer_.enabled) return f();
    const auto start = Clock::now();
    auto result = f();
    timer_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    return result;
  }

  std::shared_ptr<crypto::ThresholdSigScheme> inner_;
  SigTimer& timer_;
};

crypto::DealerConfig paper_dealer_config(const Workload& w,
                                         std::uint64_t seed) {
  crypto::DealerConfig cfg;
  cfg.n = w.n;
  cfg.t = w.t;
  cfg.rsa_bits = 1024;
  cfg.dl_p_bits = 1024;
  cfg.dl_q_bits = 160;
  cfg.hash = crypto::HashKind::kSha1;
  cfg.sig_impl = crypto::SigImpl::kMultiSig;
  cfg.seed = seed;
  return cfg;
}

/// One composed group: the simulator plus one channel per replica, with
/// per-episode delivery bookkeeping.
class Group {
 public:
  /// Group `id` draws its simulator schedule and payloads from the seed
  /// and its id, so every run of a seed sees the same inputs.
  Group(const Options& o, crypto::Deal deal, SigTimer& sig_timer, int id)
      : o_(o),
        id_(id),
        payload_rng_((o.seed ^ 0x7061796c6f6164ULL) + static_cast<std::uint64_t>(id)) {
    if (o.trace) {
      for (auto& keys : deal.parties) {
        keys.sig_broadcast = std::make_shared<TimedSigScheme>(
            std::move(keys.sig_broadcast), sig_timer);
        keys.sig_agreement = std::make_shared<TimedSigScheme>(
            std::move(keys.sig_agreement), sig_timer);
      }
    }
    const sim::Topology topology =
        o.w.lan ? sim::lan_setup() : sim::uniform_setup(o.w.n);
    sim_ = std::make_unique<sim::Simulator>(
        topology, deal, o.seed * 1000003ULL + static_cast<std::uint64_t>(id));
    sim_->per_message_cpu_ms = kPerMessageCpuMs;

    core::AtomicChannel::Config cfg;
    cfg.max_batch_count = kBatchCount;
    cfg.pipeline_depth = kPipelineDepth;
    const int n = o.w.n;
    delivered_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto& env = sim_->node(i);
      // Replicas consume deliveries through the callback; the capped log
      // and the drained inbox keep memory flat over a long run.
      auto wire = [this, i](auto channel) {
        channel->set_delivery_log_limit(64);
        auto* raw = channel.get();
        channel->set_deliver_callback(
            [this, i, raw](const Bytes& payload, auto...) {
              auto& log = delivered_[static_cast<std::size_t>(i)];
              log.push_back(to_string(payload));
              on_delivered(log.back());
              while (raw->receive()) {
              }
            });
        channels_.push_back(std::move(channel));
      };
      if (o.w.secure) {
        wire(std::make_unique<core::SecureAtomicChannel>(
            env, env.dispatcher(), "bench", cfg));
      } else {
        wire(std::make_unique<core::AtomicChannel>(env, env.dispatcher(),
                                                   "bench", cfg));
      }
    }
  }

  struct Episode {
    bool ok = false;
    std::string error;
    int payloads = 0;
    double wall_s = 0;
    double virtual_s = 0;
    std::vector<double> latency_ms;  // send -> delivered by every replica
    double send_ms = 0;              // host time inside channel send()
    int sends = 0;
  };

  /// Pre-fills every sender's queue at the current virtual instant and
  /// runs until each replica has delivered each payload, then checks that
  /// all replicas delivered the identical sequence, each payload once.
  Episode run_episode(int per_sender, bool time_sends) {
    Episode ep;
    const int n = o_.w.n;
    for (auto& d : delivered_) d.clear();
    pending_.clear();
    latencies_ = &ep.latency_ms;
    std::vector<std::string> sent;
    for (int s = 0; s < kSenders; ++s) {
      for (int k = 0; k < per_sender; ++k) {
        std::string p = "g" + std::to_string(id_) + ".e" +
                        std::to_string(episode_) + ".s" +
                        std::to_string(s) + "." + std::to_string(k) + ":";
        while (p.size() < kPayloadBytes) {
          p.push_back(static_cast<char>('a' + payload_rng_.uniform(26)));
        }
        sent.push_back(p);
      }
    }
    ++episode_;
    const double v0 = sim_->now_ms();
    const auto start = Clock::now();
    for (int s = 0; s < kSenders; ++s) {
      sim_->at(v0, s, [this, s, per_sender, &sent, &ep, time_sends] {
        for (int k = 0; k < per_sender; ++k) {
          const std::string& p =
              sent[static_cast<std::size_t>(s * per_sender + k)];
          const auto t0 = Clock::now();
          pending_[p] = Pending{t0, 0};
          channels_[static_cast<std::size_t>(s)]->send_payload(to_bytes(p));
          if (time_sends) {
            ep.send_ms +=
                std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
            ++ep.sends;
          }
        }
      });
    }
    const std::size_t total = sent.size();
    const bool done = sim_->run_until(
        [&] {
          for (const auto& d : delivered_) {
            if (d.size() < total) return false;
          }
          return true;
        },
        v0 + 1e9);
    ep.wall_s = seconds_since(start);
    ep.virtual_s = (sim_->now_ms() - v0) / 1000.0;
    ep.payloads = static_cast<int>(total);
    latencies_ = nullptr;
    if (!done) {
      ep.error = "episode did not complete";
      return ep;
    }
    for (int i = 1; i < n; ++i) {
      if (delivered_[static_cast<std::size_t>(i)] != delivered_[0]) {
        ep.error = "replica " + std::to_string(i) +
                   " delivered a different sequence than replica 0";
        return ep;
      }
    }
    std::vector<std::string> got = delivered_[0];
    std::sort(got.begin(), got.end());
    std::sort(sent.begin(), sent.end());
    if (got != sent) {
      ep.error = "delivered payloads are not the sent payloads exactly once";
      return ep;
    }
    ep.ok = true;
    return ep;
  }

  [[nodiscard]] sim::Simulator& sim() { return *sim_; }

 private:
  struct Pending {
    Clock::time_point sent;
    int delivered_by = 0;
  };

  void on_delivered(const std::string& payload) {
    auto it = pending_.find(payload);
    if (it == pending_.end()) return;
    if (++it->second.delivered_by == o_.w.n) {
      if (latencies_ != nullptr) {
        latencies_->push_back(std::chrono::duration<double, std::milli>(
                                  Clock::now() - it->second.sent)
                                  .count());
      }
      pending_.erase(it);
    }
  }

  const Options& o_;
  int id_;
  Rng payload_rng_;
  std::unique_ptr<sim::Simulator> sim_;
  std::vector<std::unique_ptr<core::ChannelBase>> channels_;
  std::vector<std::vector<std::string>> delivered_;
  std::unordered_map<std::string, Pending> pending_;
  std::vector<double>* latencies_ = nullptr;
  int episode_ = 0;
};

struct Usage {
  double user_s = 0;
  double sys_s = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}


/// One timed phase: episodes until `seconds` of host time are spent.
struct Phase {
  bool traced = false;
  int episodes = 0;
  int payloads = 0;
  double wall_s = 0;
  double virtual_s = 0;
  // Per timed episode, in order: payloads, host seconds, process user and
  // system CPU seconds, peak resident set so far, and each payload's
  // latency from send() until every replica delivered it.
  std::vector<double> episode_payloads, episode_wall_s, episode_user_s,
      episode_sys_s, episode_rss_kb;
  std::vector<std::vector<double>> episode_latency_ms;
  double send_ms = 0;
  int sends = 0;
  double sig_ms = 0;
  std::uint64_t sim_messages = 0;
  std::uint64_t sim_bytes = 0;
  // Traced phase only: metrics snapshots around each timed episode.
  std::vector<std::string> snapshots;
  double first_episode_virtual_s = 0;
  int first_episode_payloads = 0;
  std::string error;
};

/// Each episode runs on a freshly composed group, as the paper's runs
/// start from t = 0: the replicas' state grows with every delivery and
/// slows later deliveries, so a long-lived group would make the figures
/// depend on how many episodes the host managed.  A one-payload-per-sender
/// warm-up fills the group's lazily built precomputation tables first;
/// composition and warm-up are not timed.
Phase run_phase(const crypto::Deal& deal, const Options& o,
                SigTimer& sig_timer, double seconds, bool traced,
                int& groups) {
  Phase ph;
  ph.traced = traced;
  sig_timer.ns = 0;
  const auto start = Clock::now();
  while (ph.episodes == 0 || seconds_since(start) < seconds) {
    Group g(o, deal, sig_timer, groups++);
    const Group::Episode warm = g.run_episode(1, false);
    if (!warm.ok) {
      ph.error = "warm-up: " + warm.error;
      break;
    }
    if (traced) ph.snapshots.push_back(obs::registry().snapshot().to_json());
    const std::uint64_t m0 = g.sim().messages_sent();
    const std::uint64_t b0 = g.sim().bytes_sent();
    sig_timer.enabled = traced;
    const Usage u0 = usage_now();
    Group::Episode ep = g.run_episode(o.w.payloads_per_sender, traced);
    const Usage u1 = usage_now();
    sig_timer.enabled = false;
    if (traced) ph.snapshots.push_back(obs::registry().snapshot().to_json());
    if (!ep.ok) {
      ph.error = ep.error;
      break;
    }
    if (ph.episodes == 0) {
      ph.first_episode_virtual_s = ep.virtual_s;
      ph.first_episode_payloads = ep.payloads;
    }
    ++ph.episodes;
    ph.episode_payloads.push_back(ep.payloads);
    ph.episode_wall_s.push_back(ep.wall_s);
    ph.episode_user_s.push_back(u1.user_s - u0.user_s);
    ph.episode_sys_s.push_back(u1.sys_s - u0.sys_s);
    ph.episode_rss_kb.push_back(static_cast<double>(peak_rss_kb()));
    ph.episode_latency_ms.push_back(std::move(ep.latency_ms));
    ph.payloads += ep.payloads;
    ph.wall_s += ep.wall_s;
    ph.virtual_s += ep.virtual_s;
    ph.send_ms += ep.send_ms;
    ph.sends += ep.sends;
    ph.sim_messages += g.sim().messages_sent() - m0;
    ph.sim_bytes += g.sim().bytes_sent() - b0;
  }
  ph.sig_ms = static_cast<double>(sig_timer.ns) / 1e6;
  return ph;
}

std::string phase_json(const Phase& p) {
  std::ostringstream s;
  s.precision(17);
  s << "{\"traced\":" << (p.traced ? "true" : "false")
    << ",\"episodes\":" << p.episodes << ",\"payloads\":" << p.payloads
    << ",\"wall_s\":" << p.wall_s << ",\"virtual_s\":" << p.virtual_s
    << ",\"first_episode_payloads\":" << p.first_episode_payloads
    << ",\"first_episode_virtual_s\":" << p.first_episode_virtual_s
    << ",\"send_ms\":" << p.send_ms << ",\"sends\":" << p.sends
    << ",\"sig_ms\":" << p.sig_ms
    << ",\"sim_messages\":" << p.sim_messages
    << ",\"sim_bytes\":" << p.sim_bytes
    << ",\"episode_payloads\":" << json_array(p.episode_payloads)
    << ",\"episode_wall_s\":" << json_array(p.episode_wall_s)
    << ",\"episode_user_s\":" << json_array(p.episode_user_s)
    << ",\"episode_sys_s\":" << json_array(p.episode_sys_s)
    << ",\"episode_rss_kb\":" << json_array(p.episode_rss_kb)
    << ",\"episode_latency_ms\":[";
  for (std::size_t i = 0; i < p.episode_latency_ms.size(); ++i) {
    s << (i ? "," : "") << json_array(p.episode_latency_ms[i]);
  }
  s << "],\"snapshots\":[";
  for (std::size_t i = 0; i < p.snapshots.size(); ++i) {
    s << (i ? "," : "") << p.snapshots[i];
  }
  s << "]}";
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    SigTimer sig_timer;

    // Set-up: dealer at the paper's key sizes, then the composition of one
    // group (simulator and one channel per replica).
    const auto setup_start = Clock::now();
    const crypto::Deal deal =
        crypto::run_dealer(paper_dealer_config(o.w, o.seed));
    { const Group composed(o, deal, sig_timer, 0); }
    const double setup_s = seconds_since(setup_start);

    std::string error;
    std::vector<Phase> phases;
    int groups = 1;
    if (!o.setup_only && o.trace) {
      // A third untraced, two thirds traced: the difference is the
      // tracing overhead.
      phases.push_back(
          run_phase(deal, o, sig_timer, o.seconds / 3.0, false, groups));
      if (phases.back().error.empty()) {
        phases.push_back(run_phase(deal, o, sig_timer, o.seconds * 2.0 / 3.0,
                                   true, groups));
      }
    } else if (!o.setup_only) {
      phases.push_back(run_phase(deal, o, sig_timer, o.seconds, false, groups));
    }
    for (const Phase& p : phases) {
      if (!p.error.empty()) error = p.error;
    }

    std::ostringstream s;
    s.precision(17);
    s << "{\"workload\":\"" << o.w.name << "\",\"n\":" << o.w.n
      << ",\"t\":" << o.w.t << ",\"seed\":" << o.seed
      << ",\"keys\":{\"rsa_bits\":1024,\"dl_p_bits\":1024,\"dl_q_bits\":160,"
         "\"hash\":\"sha1\",\"signatures\":\"multi\"}"
      << ",\"senders\":" << kSenders
      << ",\"payloads_per_sender\":" << o.w.payloads_per_sender
      << ",\"batch_count\":" << kBatchCount
      << ",\"pipeline_depth\":" << kPipelineDepth
      << ",\"ok\":" << (error.empty() ? "true" : "false")
      << ",\"error\":" << json_string(error) << ",\"setup_s\":" << setup_s
      << ",\"phases\":[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      s << (i ? "," : "") << phase_json(phases[i]);
    }
    s << "]}\n";
    std::ofstream out(o.out, std::ios::trunc);
    out << s.str();
    if (!out) throw std::runtime_error("cannot write " + o.out);
    return error.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim_driver: %s\n", e.what());
    return 2;
  }
}
