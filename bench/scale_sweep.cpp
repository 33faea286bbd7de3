// Group-size scaling benchmark (BENCH_scale.json; DESIGN.md §14).
//
// Two modes, both printing one JSON object on stdout:
//
//   --sweep --n N      Runs the paper's §4 workload on the discrete-event
//                      simulator at group size N (t = ⌊(N-1)/3⌋) and
//                      reports deliveries/sec in virtual AND wall-clock
//                      time, crypto work units per delivery, and the
//                      datagrams-per-delivery figure that bounds what an
//                      unbatched transport pays in syscalls (2 kernel
//                      round-trips per datagram: one sendto, one
//                      recvfrom).  The measured mmsg syscall figure comes
//                      from the real-cluster datapoint in
//                      scripts/bench_scale.sh, via the net.tx_syscalls /
//                      net.rx_syscalls gauges.
//
//   --fallback-gate    The crypto-layer gate: at n=16 (k = n - t = 11,
//                      Shoup threshold RSA) one Byzantine share forces
//                      the per-share verification fallback, and the SAME
//                      workload is timed serial (pool = nullptr) and
//                      parallel (WorkPool::run_parallel) in one process:
//                      --reps interleaved pairs of samples, each sample
//                      four back-to-back fallbacks, each pair
//                      preceded by a spin-kernel calibration of the
//                      effective cores.  It fails unless every sample
//                      took the path it claims (the
//                      crypto.parallel_verify_shares counter) and the
//                      signature and blacklist are identical either way;
//                      scripts/bench_scale.sh turns the record into the
//                      2x gate and its basis.
//
// Virtual deliveries/sec is deterministic per seed and deliberately does
// NOT move with this PR: the optimizations cut wall-clock and syscalls,
// not the simulated work model — which is exactly why the sweep reports
// both clocks.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "crypto/cost.hpp"
#include "crypto/threshold_sig.hpp"
#include "crypto/work_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/topologies.hpp"

using namespace sintra;

namespace {

struct Options {
  bool sweep = false;
  bool fallback_gate = false;
  int n = 16;
  int messages = 40;
  int senders = 3;
  int reps = 3;
  std::uint64_t seed = 1;
  int rsa_bits = 512;
  double deadline_ms = 1e9;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--sweep") o.sweep = true;
    else if (arg == "--fallback-gate") o.fallback_gate = true;
    else if (arg == "--n") o.n = std::stoi(value());
    else if (arg == "--messages") o.messages = std::stoi(value());
    else if (arg == "--senders") o.senders = std::stoi(value());
    else if (arg == "--reps") o.reps = std::stoi(value());
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--rsa-bits") o.rsa_bits = std::stoi(value());
    else if (arg == "--deadline-ms") o.deadline_ms = std::stod(value());
    else throw std::runtime_error("unknown option " + arg);
  }
  if (o.sweep == o.fallback_gate) {
    throw std::runtime_error("pass exactly one of --sweep / --fallback-gate");
  }
  if (o.reps < 1) throw std::runtime_error("--reps wants >= 1");
  return o;
}

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int run_sweep(const Options& o) {
  const int t = (o.n - 1) / 3;
  const sim::Topology topology = sim::uniform_setup(o.n);

  crypto::DealerConfig dealer_cfg =
      bench::paper_dealer_config(o.n, t, o.rsa_bits);
  if (o.rsa_bits < 1024) {
    // Fast mode for CI: smaller discrete-log group to match.
    dealer_cfg.dl_p_bits = 256;
    dealer_cfg.dl_q_bits = 96;
  }
  const crypto::Deal deal = crypto::run_dealer(dealer_cfg);

  bench::WorkloadOptions wl;
  wl.kind = bench::ChannelKind::kAtomic;
  wl.senders.clear();
  for (int s = 0; s < std::min(o.senders, o.n); ++s) wl.senders.push_back(s);
  wl.total_messages = o.messages;
  wl.seed = o.seed;
  wl.deadline_virtual_ms = o.deadline_ms;

  // run_workload owns its Simulator, but the sweep needs the simulator's
  // message counters — inline the same shape with the counters exposed.
  sim::Simulator sim(topology, deal, o.seed);
  sim.per_message_cpu_ms = wl.per_message_cpu_ms;

  std::vector<std::unique_ptr<core::AtomicChannel>> channels;
  std::size_t delivered_at_measure = 0;
  std::vector<double> delivery_times;
  for (int i = 0; i < o.n; ++i) {
    auto& env = sim.node(i);
    auto ch = std::make_unique<core::AtomicChannel>(env, env.dispatcher(),
                                                    "bench");
    if (i == 0) {
      ch->set_deliver_callback([&](const Bytes&, core::PartyId) {
        ++delivered_at_measure;
        delivery_times.push_back(sim.now_ms());
      });
    }
    channels.push_back(std::move(ch));
  }
  for (int m = 0; m < o.messages; ++m) {
    const int sender =
        wl.senders[static_cast<std::size_t>(m) % wl.senders.size()];
    const std::string payload = "m" + std::to_string(m);
    sim.at(0.0, sender, [&, sender, payload] {
      channels[static_cast<std::size_t>(sender)]->send(to_bytes(payload));
    });
  }

  const crypto::WorkMeter meter;
  const auto t0 = std::chrono::steady_clock::now();
  const bool completed = sim.run_until(
      [&] {
        return delivered_at_measure >= static_cast<std::size_t>(o.messages);
      },
      o.deadline_ms);
  const double wall_ms = wall_ms_since(t0);
  const std::uint64_t work = meter.elapsed();

  const double span_ms = delivery_times.size() > 1
                             ? delivery_times.back() - delivery_times.front()
                             : 0.0;
  const double deliveries =
      static_cast<double>(delivery_times.empty() ? 0 : delivery_times.size());
  const double virtual_dps =
      span_ms > 0.0 ? (deliveries - 1.0) / span_ms * 1000.0 : 0.0;
  const double wall_dps = wall_ms > 0.0 ? deliveries / wall_ms * 1000.0 : 0.0;
  const double msgs = static_cast<double>(sim.messages_sent());
  const double datagrams_per_delivery =
      deliveries > 0.0 ? msgs / deliveries : 0.0;

  std::printf(
      "{\"mode\":\"sweep\",\"n\":%d,\"t\":%d,\"messages\":%d,\"senders\":%zu,"
      "\"seed\":%llu,\"rsa_bits\":%d,\"completed\":%s,\"deliveries\":%zu,"
      "\"elapsed_virtual_ms\":%.3f,\"virtual_del_per_sec\":%.3f,"
      "\"wall_ms\":%.1f,\"wall_del_per_sec\":%.3f,"
      "\"work_units\":%llu,\"work_units_per_delivery\":%.0f,"
      "\"messages_sent\":%llu,\"datagrams_per_delivery\":%.1f,"
      "\"syscalls_per_delivery_unbatched\":%.1f}\n",
      o.n, t, o.messages, wl.senders.size(),
      static_cast<unsigned long long>(o.seed), o.rsa_bits,
      completed ? "true" : "false", delivery_times.size(), sim.now_ms(),
      virtual_dps, wall_ms, wall_dps,
      static_cast<unsigned long long>(work),
      deliveries > 0.0 ? static_cast<double>(work) / deliveries : 0.0,
      static_cast<unsigned long long>(sim.messages_sent()),
      datagrams_per_delivery,
      // One sendto + one recvfrom per datagram on the unbatched path.
      2.0 * datagrams_per_delivery);
  return completed ? 0 : 1;
}

// One spin-kernel thread runs a few ms; long enough that thread spawn and
// join are noise, short enough to sit next to every pair.
constexpr std::uint64_t kSpinIters = 2'000'000;

// Back-to-back fallbacks per timed sample: a few tens of ms, so one
// scheduler hiccup is a small part of a sample.
constexpr int kFallbacksPerSample = 4;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Calibration kernel, independent of the code under test: `threads`
/// threads each run the same fixed xorshift chain.  Returns the wall time
/// from the first spawn to the last join.
double spin_ms(std::size_t threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> team;
    for (std::size_t i = 0; i < threads; ++i) {
      team.emplace_back([&sink, i] {
        std::uint64_t x = 0x9e3779b97f4a7c15ULL + i;
        for (std::uint64_t j = 0; j < kSpinIters; ++j) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sink.fetch_add(x, std::memory_order_relaxed);
      });
    }
  }
  return wall_ms_since(t0);
}

/// How many cores the host gives this process right now: `threads` times
/// the one-thread spin time over the `threads`-thread spin time.  It reads
/// `threads` when every thread ran at once and about 1 when they all
/// shared one core, whatever hardware_concurrency() says.  The one-thread
/// time is the mean of a run just before and one just after the
/// `threads`-thread run, so both sides see the same moment of the host.
double effective_cores(std::size_t threads) {
  const double before = spin_ms(1);
  const double many = spin_ms(threads);
  const double one = (before + spin_ms(1)) / 2.0;
  return static_cast<double>(threads) * one / many;
}

std::uint64_t threshold_sig_counter(const char* name) {
  return obs::registry().counter(name, {{"op", "threshold_sig"}}).value();
}

/// The gate's workload: an (n, k) Shoup deal and the shares of one
/// message, with signer 0 presenting signer k's share bytes — parses
/// fine, verifies false — so a checked combine's first attempt fails and
/// the fallback verifies the k chosen shares one by one.
struct FallbackFixture {
  int k;
  crypto::RsaThresholdDeal deal;
  Bytes msg;
  std::vector<std::pair<int, Bytes>> shares;     // every signer's, genuine
  std::vector<std::pair<int, Bytes>> byzantine;  // as the combiner gets them

  /// A fresh combiner (the fallback blacklists, so a handle serves one
  /// fallback), warmed: verifying each signer's genuine share builds the
  /// per-signer comb tables, so timed regions measure verification, not
  /// table builds.
  [[nodiscard]] std::unique_ptr<crypto::RsaThresholdScheme> combiner() const {
    auto c = deal.make_party(0);
    for (const auto& [signer, share] : shares) {
      if (!c->verify_share(msg, signer, share)) {
        throw std::runtime_error("genuine share failed warm-up verification");
      }
    }
    return c;
  }
};

FallbackFixture make_fixture(const Options& o, int k) {
  Rng rng(o.seed);
  FallbackFixture fx{k, crypto::deal_rsa_threshold(rng, o.n, k, o.rsa_bits),
                     to_bytes(std::string("scale-sweep fallback gate")),
                     {}, {}};
  for (int i = 0; i < o.n; ++i) {
    fx.shares.emplace_back(i, fx.deal.make_party(i)->sign_share(fx.msg));
  }
  fx.byzantine = fx.shares;
  fx.byzantine[0].second = fx.shares[static_cast<std::size_t>(k)].second;
  return fx;
}

/// One timed sample: `fallbacks` back-to-back checked combines, each on
/// its own warmed combiner and each facing the Byzantine share.
struct Sample {
  double ms = 0.0;
  Bytes sig;
  std::set<int> blacklist;
  std::uint64_t parallel_shares = 0;  // crypto.parallel_verify_shares delta
  std::uint64_t fallbacks = 0;        // crypto.fallbacks delta
};

Sample time_fallbacks(const FallbackFixture& fx, int fallbacks,
                      crypto::WorkPool* pool) {
  std::vector<std::unique_ptr<crypto::RsaThresholdScheme>> combiners;
  for (int f = 0; f < fallbacks; ++f) combiners.push_back(fx.combiner());
  std::vector<std::optional<crypto::RsaThresholdScheme::CheckedSignature>>
      out(static_cast<std::size_t>(fallbacks));

  const std::uint64_t par0 =
      threshold_sig_counter("crypto.parallel_verify_shares");
  const std::uint64_t fb0 = threshold_sig_counter("crypto.fallbacks");
  const auto t0 = std::chrono::steady_clock::now();
  for (int f = 0; f < fallbacks; ++f) {
    out[static_cast<std::size_t>(f)] =
        combiners[static_cast<std::size_t>(f)]->combine_checked(
            fx.msg, fx.byzantine, pool);
  }
  Sample s;
  s.ms = wall_ms_since(t0);
  s.parallel_shares =
      threshold_sig_counter("crypto.parallel_verify_shares") - par0;
  s.fallbacks = threshold_sig_counter("crypto.fallbacks") - fb0;

  for (int f = 0; f < fallbacks; ++f) {
    const auto& sig = out[static_cast<std::size_t>(f)];
    const auto& c = *combiners[static_cast<std::size_t>(f)];
    if (!sig.has_value() || !c.verify(fx.msg, sig->sig)) {
      throw std::runtime_error("checked combine failed to recover");
    }
    std::set<int> blacklist;
    for (int i = 0; i < c.n(); ++i) {
      if (c.is_blacklisted(i)) blacklist.insert(i);
    }
    if (f == 0) {
      s.sig = sig->sig;
      s.blacklist = blacklist;
    } else if (sig->sig != s.sig || blacklist != s.blacklist) {
      throw std::runtime_error("fallbacks within one sample disagree");
    }
  }
  return s;
}

/// The fallback's parallelizable part on its own: the k serial share
/// verifications of each of `fallbacks` fallbacks, on one warmed handle.
double time_share_checks_ms(const FallbackFixture& fx, int fallbacks) {
  const auto c = fx.combiner();
  const auto t0 = std::chrono::steady_clock::now();
  for (int f = 0; f < fallbacks; ++f) {
    for (int j = 0; j < fx.k; ++j) {
      const auto& [signer, share] = fx.byzantine[static_cast<std::size_t>(j)];
      (void)c->verify_share(fx.msg, signer, share);
    }
  }
  return wall_ms_since(t0);
}

/// Serial (pool = nullptr, the per-share loop) against WorkPool-parallel
/// share verification, in `reps` interleaved pairs.  Each pair is preceded
/// by the spin calibration, alternates which side runs first, and times
/// the serial split; every sample must prove which path it took through
/// the counters and agree on the signature and the blacklist.
int run_fallback_gate(const Options& o) {
  const int t = (o.n - 1) / 3;
  const int k = o.n - t;  // the agreement threshold, the paper's k_AB
  const FallbackFixture fx = make_fixture(o, k);
  const int fallbacks = kFallbacksPerSample;
  const auto kk = static_cast<std::uint64_t>(k);

  // Sized by nominal cores; effective_cores() measures what it really gets.
  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  crypto::WorkPool pool(threads);

  // The reference every later sample must match: the serial path's
  // signature and blacklist.
  const Sample ref = time_fallbacks(fx, 1, nullptr);
  if (ref.blacklist != std::set<int>{0}) {
    throw std::runtime_error("Byzantine submitter was not blacklisted alone");
  }
  const auto check = [&](const Sample& s, bool parallel) {
    // Exactly k per fallback on the pool, none on the serial loop: a pool
    // that silently ran inline fails here, whatever basis the gate takes.
    const std::uint64_t want_parallel = parallel ? kk * fallbacks : 0;
    if (s.fallbacks != static_cast<std::uint64_t>(fallbacks) ||
        s.parallel_shares != want_parallel) {
      throw std::runtime_error(
          std::string(parallel ? "parallel" : "serial") +
          " sample took the wrong path: crypto.fallbacks +" +
          std::to_string(s.fallbacks) + ", crypto.parallel_verify_shares +" +
          std::to_string(s.parallel_shares) + " (want +" +
          std::to_string(fallbacks) + ", +" + std::to_string(want_parallel) +
          ")");
    }
    if (s.sig != ref.sig || s.blacklist != ref.blacklist) {
      throw std::runtime_error("serial and parallel fallbacks disagree");
    }
  };
  // Warm the pool (and the allocator) with one untimed parallel sample.
  check(time_fallbacks(fx, fallbacks, &pool), /*parallel=*/true);

  std::vector<double> cores, serial, parallel, speedup, split;
  std::string pairs;
  for (int r = 0; r < o.reps; ++r) {
    const double c = effective_cores(threads);
    // The share checks are timed right after the serial sample, so the
    // pair's split sees the same moment of the host.
    Sample s, p;
    double v = 0.0;
    if (r % 2 == 0) {
      s = time_fallbacks(fx, fallbacks, nullptr);
      v = time_share_checks_ms(fx, fallbacks);
      p = time_fallbacks(fx, fallbacks, &pool);
    } else {
      p = time_fallbacks(fx, fallbacks, &pool);
      s = time_fallbacks(fx, fallbacks, nullptr);
      v = time_share_checks_ms(fx, fallbacks);
    }
    check(s, /*parallel=*/false);
    check(p, /*parallel=*/true);
    cores.push_back(c);
    serial.push_back(s.ms);
    parallel.push_back(p.ms);
    speedup.push_back(s.ms / p.ms);
    split.push_back(std::min(1.0, v / s.ms));
    char pair[160];
    std::snprintf(pair, sizeof pair,
                  "%s{\"cores\":%.2f,\"serial_ms\":%.2f,\"parallel_ms\":%.2f,"
                  "\"speedup\":%.2f,\"share_checks_ms\":%.2f}",
                  r == 0 ? "" : ",", c, s.ms, p.ms, s.ms / p.ms, v);
    pairs += pair;
  }
  const auto [smin, smax] = std::minmax_element(speedup.begin(), speedup.end());
  const auto [cmin, cmax] = std::minmax_element(cores.begin(), cores.end());
  const double split_min = *std::min_element(split.begin(), split.end());

  std::printf(
      "{\"mode\":\"fallback_gate\",\"n\":%d,\"t\":%d,\"k\":%d,"
      "\"rsa_bits\":%d,\"reps\":%d,\"fallbacks_per_sample\":%d,"
      "\"threads\":%zu,\"serial_ms\":%.3f,\"parallel_ms\":%.3f,"
      "\"speedup\":%.2f,\"speedup_min\":%.2f,\"speedup_max\":%.2f,"
      "\"effective_cores\":%.2f,\"effective_cores_min\":%.2f,"
      "\"effective_cores_max\":%.2f,\"verify_share_fraction\":%.3f,"
      "\"verify_share_fraction_min\":%.3f,"
      "\"parallel_verify_shares_per_fallback\":%llu,\"pairs\":[%s]}\n",
      o.n, t, k, o.rsa_bits, o.reps, fallbacks, threads, median(serial),
      median(parallel), median(speedup), *smin, *smax, median(cores), *cmin,
      *cmax, median(split), split_min,
      static_cast<unsigned long long>(kk), pairs.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    return o.sweep ? run_sweep(o) : run_fallback_gate(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
