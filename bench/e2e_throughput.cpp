// End-to-end deliveries/sec benchmark for the throughput-mode channels
// (DESIGN.md §11): proposer batching (--batch-count/--batch-bytes) and
// pipelined rounds (--pipeline-depth) against the seed configuration
// (batch=1, depth=1).
//
// The driver runs the discrete-event simulator, so results are virtual
// time: deterministic per seed, comparable across configurations, and
// independent of host load.  Two load models:
//
//   --mode open    senders pre-fill their queues at t = 0 ("maximum
//                  capacity", the paper's §4 workload); delivery latency
//                  then includes queueing delay.
//   --mode closed  each sender keeps --window requests outstanding and
//                  issues the next one when it observes its own delivery
//                  — the client-visible latency shape.
//
// --chaos adds a seeded random extra delay per message (cross-link
// reordering; per-link FIFO is preserved, as over real links), the
// in-simulator analog of the cluster runner's chaos proxy.
//
// Output: one JSON object on stdout; scripts/bench_e2e.sh distills
// BENCH_e2e.json from a set of runs and enforces the >=3x gate.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "sim/topologies.hpp"

using namespace sintra;

namespace {

struct Options {
  int n = 4;
  int t = 1;
  int batch_count = 1;
  std::size_t batch_bytes = 64 * 1024;
  int pipeline_depth = 1;
  int senders = 3;
  int messages = 240;
  int payload_bytes = 64;
  std::string topology = "lan";  // lan | wan | uniform
  std::string mode = "open";     // open | closed
  int window = 8;                // closed-loop outstanding per sender
  std::uint64_t seed = 1;
  std::string channel = "atomic";  // atomic | secure
  std::string label;
  bool chaos = false;
  double chaos_extra_ms = 40.0;
  int rsa_bits = 512;  // 1024 = paper-faithful (slower to deal and run)
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
    if (arg == "--batch-count") o.batch_count = std::stoi(value());
    else if (arg == "--batch-bytes") o.batch_bytes = std::stoull(value());
    else if (arg == "--pipeline-depth") o.pipeline_depth = std::stoi(value());
    else if (arg == "--senders") o.senders = std::stoi(value());
    else if (arg == "--messages") o.messages = std::stoi(value());
    else if (arg == "--payload-bytes") o.payload_bytes = std::stoi(value());
    else if (arg == "--topology") o.topology = value();
    else if (arg == "--mode") o.mode = value();
    else if (arg == "--window") o.window = std::stoi(value());
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--channel") o.channel = value();
    else if (arg == "--label") o.label = value();
    else if (arg == "--chaos") o.chaos = true;
    else if (arg == "--chaos-extra-ms") o.chaos_extra_ms = std::stod(value());
    else if (arg == "--rsa-bits") o.rsa_bits = std::stoi(value());
    else if (arg == "--n") o.n = std::stoi(value());
    else if (arg == "--deadline-ms") o.deadline_ms = std::stod(value());
    else throw std::runtime_error("unknown option " + arg);
  }
  if (o.label.empty()) {
    o.label = o.topology + "-b" + std::to_string(o.batch_count) + "-d" +
              std::to_string(o.pipeline_depth);
  }
  return o;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);

    sim::Topology topology;
    if (o.topology == "lan") topology = sim::lan_setup();
    else if (o.topology == "wan") topology = sim::internet_setup();
    else if (o.topology == "uniform") topology = sim::uniform_setup(o.n);
    else throw std::runtime_error("unknown topology " + o.topology);
    if (o.topology != "uniform" && o.n != topology.n()) {
      throw std::runtime_error("--n only applies to --topology uniform");
    }

    crypto::DealerConfig dealer_cfg = bench::paper_dealer_config(
        topology.n(), o.t, o.rsa_bits);
    if (o.rsa_bits < 1024) {
      // Fast mode for CI: smaller discrete-log group to match.
      dealer_cfg.dl_p_bits = 256;
      dealer_cfg.dl_q_bits = 96;
    }
    const crypto::Deal deal = crypto::run_dealer(dealer_cfg);

    sim::Simulator sim(topology, deal, o.seed);
    sim.per_message_cpu_ms = bench::default_overhead_ms();
    if (o.chaos) {
      // Seeded extra delay: reorders messages across links (per-link FIFO
      // is preserved by the simulator, as over a real reliable link).
      sim.delay_hook = [state = o.seed ^ 0x9e3779b97f4a7c15ULL,
                        extra = o.chaos_extra_ms](int, int,
                                                  double) mutable {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return extra * static_cast<double>((state >> 33) & 0xffff) / 65535.0;
      };
    }

    core::AtomicChannel::Config cfg;
    cfg.max_batch_count = o.batch_count;
    cfg.max_batch_bytes = o.batch_bytes;
    cfg.pipeline_depth = o.pipeline_depth;

    const int n = sim.n();
    std::vector<std::unique_ptr<core::AtomicChannel>> atomic;
    std::vector<std::unique_ptr<core::SecureAtomicChannel>> secure;

    // Per-payload send timestamps, keyed by the payload header; the
    // measure node (P0, as in §4) records delivery latency against them.
    std::map<std::string, double> send_ms;
    std::vector<double> latencies;
    std::vector<double> delivery_times;
    std::size_t delivered_at_measure = 0;

    const std::string pad(
        static_cast<std::size_t>(std::max(0, o.payload_bytes)), '.');
    auto payload_of = [&](int sender, int k) {
      std::string s = "c" + std::to_string(sender) + ":" + std::to_string(k);
      if (s.size() < pad.size()) s += pad.substr(s.size());
      return s;
    };
    auto header_of = [](const Bytes& payload) {
      const std::string s = to_string(payload);
      const auto dot = s.find('.');
      return dot == std::string::npos ? s : s.substr(0, dot);
    };

    // Closed-loop state.
    std::vector<int> next_idx(static_cast<std::size_t>(n), 0);
    const int per_sender = (o.messages + o.senders - 1) / o.senders;

    auto do_send = [&](int sender) {
      const int k = next_idx[static_cast<std::size_t>(sender)]++;
      const std::string p = payload_of(sender, k);
      send_ms.emplace(header_of(to_bytes(p)), sim.now_ms());
      if (o.channel == "secure") {
        secure[static_cast<std::size_t>(sender)]->send(to_bytes(p));
      } else {
        atomic[static_cast<std::size_t>(sender)]->send(to_bytes(p));
      }
    };

    auto on_measure_delivery = [&](const Bytes& payload) {
      const double now = sim.now_ms();
      ++delivered_at_measure;
      delivery_times.push_back(now);
      const auto it = send_ms.find(header_of(payload));
      if (it != send_ms.end()) latencies.push_back(now - it->second);
    };

    for (int i = 0; i < n; ++i) {
      auto& env = sim.node(i);
      auto& disp = env.dispatcher();
      const int sender_slot = i;  // sender s uses channel instance s
      auto on_deliver = [&, sender_slot](const Bytes& payload) {
        if (sender_slot == 0) on_measure_delivery(payload);
        if (o.mode == "closed" && sender_slot < o.senders) {
          // Closed loop: a sender issues its next request when it sees
          // its own previous one come back.
          const std::string h = header_of(payload);
          if (h.rfind("c" + std::to_string(sender_slot) + ":", 0) == 0 &&
              next_idx[static_cast<std::size_t>(sender_slot)] < per_sender) {
            do_send(sender_slot);
          }
        }
      };
      if (o.channel == "secure") {
        auto ch = std::make_unique<core::SecureAtomicChannel>(env, disp,
                                                              "bench", cfg);
        ch->set_deliver_callback(
            [on_deliver](const Bytes& payload, core::PartyId) {
              on_deliver(payload);
            });
        secure.push_back(std::move(ch));
        atomic.push_back(nullptr);
      } else {
        auto ch =
            std::make_unique<core::AtomicChannel>(env, disp, "bench", cfg);
        ch->set_deliver_callback(
            [on_deliver](const Bytes& payload, core::PartyId) {
              on_deliver(payload);
            });
        atomic.push_back(std::move(ch));
        secure.push_back(nullptr);
      }
    }

    // Kick off the load.
    for (int s = 0; s < o.senders; ++s) {
      const int initial = o.mode == "closed"
                              ? std::min(o.window, per_sender)
                              : per_sender;
      sim.at(0.0, s, [&, s, initial] {
        for (int k = 0; k < initial; ++k) do_send(s);
      });
    }

    const int total = per_sender * o.senders;
    const bool completed = sim.run_until(
        [&] { return delivered_at_measure >= static_cast<std::size_t>(total); },
        o.deadline_ms);

    const double first = delivery_times.empty() ? 0.0 : delivery_times.front();
    const double last = delivery_times.empty() ? 0.0 : delivery_times.back();
    const double span_ms = last - first;
    const double dps =
        delivery_times.size() > 1 && span_ms > 0.0
            ? static_cast<double>(delivery_times.size() - 1) / span_ms * 1000.0
            : 0.0;
    const int rounds = o.channel == "secure"
                           ? -1
                           : atomic[0]->rounds_completed();

    std::printf(
        "{\"label\":\"%s\",\"config\":{\"topology\":\"%s\",\"channel\":\"%s\","
        "\"mode\":\"%s\",\"n\":%d,\"t\":%d,\"batch_count\":%d,"
        "\"batch_bytes\":%zu,\"pipeline_depth\":%d,\"senders\":%d,"
        "\"messages\":%d,\"payload_bytes\":%d,\"window\":%d,\"seed\":%llu,"
        "\"chaos\":%s,\"rsa_bits\":%d},"
        "\"completed\":%s,\"deliveries\":%zu,\"elapsed_virtual_ms\":%.3f,"
        "\"span_ms\":%.3f,\"deliveries_per_sec\":%.3f,"
        "\"p50_latency_ms\":%.3f,\"p99_latency_ms\":%.3f,"
        "\"mean_round_trip_rounds\":%d}\n",
        o.label.c_str(), o.topology.c_str(), o.channel.c_str(),
        o.mode.c_str(), n, o.t, o.batch_count, o.batch_bytes,
        o.pipeline_depth, o.senders, o.messages, o.payload_bytes, o.window,
        static_cast<unsigned long long>(o.seed), o.chaos ? "true" : "false",
        o.rsa_bits, completed ? "true" : "false", delivery_times.size(),
        sim.now_ms(), span_ms, dps, percentile(latencies, 0.50),
        percentile(latencies, 0.99), rounds);
    return completed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
