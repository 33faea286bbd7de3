// Client side of the cluster workload (see README.md in this directory).
//
//   perfbench_load_driver keygen --keys FILE --clients N --seed S
//   perfbench_load_driver calibrate
//   perfbench_load_driver run --keys FILE --targets H:P,... --t T
//       --clients C --seconds X --slices K --trace 0|1 --seed S --pids P,...
//       --metrics FILE,... --out FILE [--probe-only]
//
// `run` first probes every replica's client lane with one request until
// all n replicas have answered it (readiness), then drives C closed-loop
// ReplicatedServiceClients on one UDP socket: warm-up, one or two timed
// windows, then a drain in which no new request starts.  At the ends of
// each window and of its K equal slices it samples /proc/<pid>/stat of
// every node, and in a traced window
// it also has every node write its metrics snapshot (SIGUSR1).  Every
// reply is decoded a second time here so that each kOk outcome can be
// checked against an independent tally of t+1 matching replies.
//
// The driver only measures and checks; run.py turns the raw figures it
// writes to --out into the benchmark's metrics.
#include <csignal>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "client/keys.hpp"
#include "client/service_client.hpp"
#include "client/wire.hpp"
#include "net/event_loop.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

#include "json_out.hpp"

using namespace sintra;
using perfbench::json_array;
using perfbench::json_string;
using perfbench::json_strings;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kPayloadBytes = 32;
constexpr double kWarmupMs = 1000.0;
// Short, so that set-up time is not rounded up to the probe interval when
// a probe reaches a replica before its lane is bound.
constexpr double kProbeIntervalMs = 10.0;
constexpr double kProbeTimeoutMs = 30000.0;
constexpr double kDrainTimeoutMs = 30000.0;
constexpr double kSnapshotTimeoutMs = 3000.0;
// Node memory grows with the requests served, so peak RSS is read after a
// fixed number of completed requests rather than at the end of the run
// (a run too short to get there reads it when its timed windows end).
constexpr std::uint64_t kRssAfterRequests = 1500;

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string keys;
  std::vector<std::string> targets;
  int t = 1;
  int clients = 4;
  double seconds = 10.0;
  int slices = 1;
  bool trace = false;
  std::uint64_t seed = 1;
  std::vector<int> pids;
  std::vector<std::string> metrics;
  std::string out;
  bool probe_only = false;
};

Options parse(int argc, char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--keys") o.keys = value();
    else if (arg == "--targets") o.targets = split(value());
    else if (arg == "--t") o.t = std::stoi(value());
    else if (arg == "--clients") o.clients = std::stoi(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() == "1";
    else if (arg == "--slices") o.slices = std::max(1, std::stoi(value()));
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--pids") {
      for (const auto& p : split(value())) o.pids.push_back(std::stoi(p));
    } else if (arg == "--metrics") o.metrics = split(value());
    else if (arg == "--out") o.out = value();
    else if (arg == "--probe-only") o.probe_only = true;
    else throw std::runtime_error("unknown option " + arg);
  }
  if (o.keys.empty() || o.targets.empty() || o.out.empty()) {
    throw std::runtime_error("run needs --keys, --targets and --out");
  }
  if (o.clients < 1) throw std::runtime_error("--clients wants >= 1");
  return o;
}

/// One timed window of the closed loop.
struct Window {
  bool traced = false;
  double start_ms = 0;
  double end_ms = 0;
  std::uint64_t retransmits_start = 0;
  std::uint64_t retransmits_end = 0;
  // /proc/<pid>/stat of every node at the window's start and at the end
  // of each of its slices, with the sampling times.
  std::vector<std::vector<std::string>> proc_samples;
  std::vector<double> sample_ms;
  std::vector<std::string> snapshots_start, snapshots_end;
  std::vector<double> done_ms;  // completion, from the window's start
  std::vector<double> latency_ms, first_reply_ms, quorum_gap_ms;
};

class LoadRun {
 public:
  LoadRun(const Options& o, net::EventLoop& loop)
      : o_(o),
        loop_(loop),
        socket_(net::SocketAddress::resolve("127.0.0.1", 0)),
        table_(client::read_key_file(o.keys)) {
    for (const std::string& target : o_.targets) {
      const auto colon = target.rfind(':');
      if (colon == std::string::npos) {
        throw std::runtime_error("--targets wants host:port, got " + target);
      }
      targets_.push_back(net::SocketAddress::resolve(
          target.substr(0, colon), std::stoi(target.substr(colon + 1))));
    }
    const auto probe_id = static_cast<std::uint32_t>(o_.clients);
    if (!table_.known(probe_id)) {
      throw std::runtime_error("key file must cover clients + 1 ids");
    }
    n_ = static_cast<int>(targets_.size());
    for (int c = 0; c < o_.clients; ++c) {
      const auto id = static_cast<std::uint32_t>(c);
      client::ReplicatedServiceClient::Options copts;
      copts.client_id = id;
      copts.key = table_.key(id);
      copts.n = n_;
      copts.t = o_.t;
      client::ReplicatedServiceClient::Hooks hooks;
      hooks.now_ms = [this] { return loop_.now_ms(); };
      hooks.send = [this](int replica, const Bytes& dgram) {
        socket_.send_to(targets_[static_cast<std::size_t>(replica)], dgram);
      };
      hooks.call_later = [this](double delay_ms, std::function<void()> fn) {
        loop_.call_later(delay_ms, std::move(fn));
      };
      ClientState st;
      st.key = copts.key;
      st.rng = Rng(o_.seed * 0x9e3779b97f4a7c15ULL + id);
      state_.push_back(std::move(st));
      clients_.push_back(std::make_unique<client::ReplicatedServiceClient>(
          std::move(copts), std::move(hooks)));
    }
    probe_key_ = table_.key(probe_id);
    client::RequestFrame probe;
    probe.client_id = probe_id;
    probe.seq = 1;
    probe.payload = to_bytes("probe." + std::to_string(o_.seed));
    probe_payload_ = to_string(probe.payload);
    probe_datagram_ = client::encode_request(probe, probe_key_);
    loop_.add_fd(socket_.fd(), [this] { on_readable(); });
  }

  ~LoadRun() { loop_.remove_fd(socket_.fd()); }
  LoadRun(const LoadRun&) = delete;
  LoadRun& operator=(const LoadRun&) = delete;

  void start() {
    probe_started_ms_ = loop_.now_ms();
    send_probe();
  }

  [[nodiscard]] std::string result_json() const {
    std::ostringstream s;
    s.precision(17);
    s << "{\"ok\":" << (error_.empty() ? "true" : "false")
      << ",\"error\":" << json_string(error_)
      << ",\"ready_monotonic_ns\":" << ready_ns_
      << ",\"probe_payload\":" << json_string(probe_payload_)
      << ",\"probe_global_seq\":" << probe_global_seq_
      << ",\"attempted\":" << attempted_ << ",\"completed\":" << completed_
      << ",\"timeouts\":" << timeouts_ << ",\"rejected\":" << rejected_
      << ",\"quorum_check_failures\":" << quorum_failures_
      << ",\"node_status\":" << json_strings(node_status_)
      << ",\"windows\":[";
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      const Window& w = windows_[i];
      s << (i ? "," : "") << "{\"traced\":" << (w.traced ? "true" : "false")
        << ",\"wall_s\":" << (w.end_ms - w.start_ms) / 1000.0
        << ",\"completed\":" << w.latency_ms.size()
        << ",\"retransmits\":" << w.retransmits_end - w.retransmits_start
        << ",\"done_ms\":" << json_array(w.done_ms)
        << ",\"latency_ms\":" << json_array(w.latency_ms)
        << ",\"first_reply_ms\":" << json_array(w.first_reply_ms)
        << ",\"quorum_gap_ms\":" << json_array(w.quorum_gap_ms)
        << ",\"sample_ms\":" << json_array(w.sample_ms)
        << ",\"proc_samples\":[";
      for (std::size_t j = 0; j < w.proc_samples.size(); ++j) {
        s << (j ? "," : "") << json_strings(w.proc_samples[j]);
      }
      s << ']'
        << ",\"snapshots_start\":" << json_strings(w.snapshots_start)
        << ",\"snapshots_end\":" << json_strings(w.snapshots_end) << '}';
    }
    s << "],\"executed\":[";
    for (std::size_t i = 0; i < executed_.size(); ++i) {
      s << (i ? "," : "") << '[' << json_string(executed_[i].first) << ','
        << executed_[i].second << ']';
    }
    s << "]}\n";
    return s.str();
  }

  [[nodiscard]] bool ok() const { return error_.empty(); }

 private:
  struct ClientState {
    Bytes key;
    Rng rng;
    int k = 0;                  // requests submitted so far
    double submit_ms = 0;
    double first_reply_ms = -1;
    std::string payload;
    std::map<std::tuple<std::uint8_t, std::uint64_t, Bytes>,
             std::set<std::uint32_t>> votes;
  };

  void fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    loop_.stop();
  }

  void send_probe() {
    if (ready_) return;
    if (loop_.now_ms() - probe_started_ms_ > kProbeTimeoutMs) {
      fail("client lanes did not all answer the readiness probe");
      return;
    }
    for (const auto& target : targets_) socket_.send_to(target, probe_datagram_);
    loop_.call_later(kProbeIntervalMs, [this] { send_probe(); });
  }

  /// A lane is up once its replica answers the probe with any
  /// authenticated reply: a replica that executed the probe before the
  /// client's datagram reached it has no cached kOk and answers kStale.
  void on_probe_reply(BytesView datagram) {
    const auto reply = client::decode_reply(datagram, probe_key_);
    if (!reply || reply->seq != 1 ||
        reply->replica >= static_cast<std::uint32_t>(n_)) {
      return;
    }
    if (reply->status == client::Status::kOk) {
      probe_global_seq_ = reply->global_seq;
      probe_ok_ = true;
    }
    probe_replied_.insert(reply->replica);
    if (ready_ || !probe_ok_ || static_cast<int>(probe_replied_.size()) < n_) {
      return;
    }
    ready_ = true;
    ready_ns_ = monotonic_ns();
    if (o_.probe_only) {
      loop_.stop();
      return;
    }
    for (int c = 0; c < o_.clients; ++c) submit_next(c);
    loop_.call_later(kWarmupMs, [this] { begin_windows(); });
  }

  void begin_windows() {
    if (o_.trace) {
      open_window(false, o_.seconds / 3.0, 1, [this] {
        open_window(true, o_.seconds * 2.0 / 3.0, 1, [this] { drain(); });
      });
    } else {
      open_window(false, o_.seconds, o_.slices, [this] { drain(); });
    }
  }

  std::vector<std::string> read_procs() const {
    std::vector<std::string> out;
    for (const int pid : o_.pids) {
      out.push_back(read_file("/proc/" + std::to_string(pid) + "/stat"));
    }
    return out;
  }

  std::uint64_t total_retransmits() const {
    std::uint64_t r = 0;
    for (const auto& c : clients_) r += c->retransmits();
    return r;
  }

  /// Asks every node for a fresh metrics snapshot and calls `then` with
  /// the files' new contents once every one has been rewritten.
  void snapshot_nodes(std::function<void(std::vector<std::string>)> then) {
    std::vector<std::string> before;
    for (const auto& path : o_.metrics) before.push_back(read_file(path));
    for (const int pid : o_.pids) kill(pid, SIGUSR1);
    poll_snapshots(std::move(before), loop_.now_ms(), std::move(then));
  }

  void poll_snapshots(std::vector<std::string> before, double since_ms,
                      std::function<void(std::vector<std::string>)> then) {
    std::vector<std::string> now;
    bool all = true;
    for (std::size_t i = 0; i < o_.metrics.size(); ++i) {
      now.push_back(read_file(o_.metrics[i]));
      if (now.back().empty() || now.back() == before[i]) all = false;
    }
    if (all) {
      then(std::move(now));
      return;
    }
    if (loop_.now_ms() - since_ms > kSnapshotTimeoutMs) {
      fail("nodes did not write their metrics snapshots");
      return;
    }
    loop_.call_later(2.0, [this, before = std::move(before), since_ms,
                           then = std::move(then)]() mutable {
      poll_snapshots(std::move(before), since_ms, std::move(then));
    });
  }

  void open_window(bool traced, double seconds, int slices,
                   std::function<void()> next) {
    auto begin = [this, traced, seconds, slices,
                  next](std::vector<std::string> snaps) {
      Window w;
      w.traced = traced;
      w.snapshots_start = std::move(snaps);
      w.retransmits_start = total_retransmits();
      w.start_ms = loop_.now_ms();
      w.sample_ms.push_back(0.0);
      w.proc_samples.push_back(read_procs());
      windows_.push_back(std::move(w));
      current_ = static_cast<int>(windows_.size()) - 1;
      for (int j = 1; j < slices; ++j) {
        loop_.call_later(seconds * 1000.0 * j / slices, [this] {
          Window& open = windows_.back();
          open.sample_ms.push_back(loop_.now_ms() - open.start_ms);
          open.proc_samples.push_back(read_procs());
        });
      }
      loop_.call_later(seconds * 1000.0,
                       [this, traced, next] { close_window(traced, next); });
    };
    if (traced) {
      snapshot_nodes(begin);
    } else {
      begin({});
    }
  }

  void close_window(bool traced, const std::function<void()>& next) {
    Window& w = windows_.back();
    w.end_ms = loop_.now_ms();
    w.sample_ms.push_back(w.end_ms - w.start_ms);
    w.proc_samples.push_back(read_procs());
    w.retransmits_end = total_retransmits();
    current_ = -1;
    if (traced) {
      snapshot_nodes([this, next](std::vector<std::string> snaps) {
        windows_.back().snapshots_end = std::move(snaps);
        next();
      });
    } else {
      next();
    }
  }

  void read_node_status() {
    for (const int pid : o_.pids) {
      node_status_.push_back(
          read_file("/proc/" + std::to_string(pid) + "/status"));
    }
  }

  void drain() {
    if (node_status_.empty()) read_node_status();
    draining_ = true;
    drain_started_ms_ = loop_.now_ms();
    check_drained();
  }

  void check_drained() {
    if (in_flight_ == 0) {
      loop_.stop();
      return;
    }
    if (loop_.now_ms() - drain_started_ms_ > kDrainTimeoutMs) {
      fail("requests still outstanding after the drain deadline");
      return;
    }
    loop_.call_later(5.0, [this] { check_drained(); });
  }

  void submit_next(int c) {
    if (draining_) return;
    ClientState& st = state_[static_cast<std::size_t>(c)];
    std::string p = "c" + std::to_string(c) + ":" + std::to_string(st.k) + ":";
    while (p.size() < kPayloadBytes) {
      p.push_back(static_cast<char>('a' + st.rng.uniform(26)));
    }
    ++st.k;
    st.payload = p;
    st.submit_ms = loop_.now_ms();
    st.first_reply_ms = -1;
    st.votes.clear();
    ++attempted_;
    ++in_flight_;
    clients_[static_cast<std::size_t>(c)]->submit(
        to_bytes(p), [this, c](client::ReplicatedServiceClient::Outcome out) {
          on_done(c, std::move(out));
        });
  }

  void on_done(int c, client::ReplicatedServiceClient::Outcome out) {
    --in_flight_;
    ClientState& st = state_[static_cast<std::size_t>(c)];
    if (out.ok) {
      ++completed_;
      if (completed_ == kRssAfterRequests) read_node_status();
      const auto key = std::make_tuple(
          static_cast<std::uint8_t>(client::Status::kOk), out.global_seq,
          out.result);
      const auto it = st.votes.find(key);
      if (it == st.votes.end() ||
          it->second.size() < static_cast<std::size_t>(o_.t + 1)) {
        ++quorum_failures_;
      }
      executed_.emplace_back(st.payload, out.global_seq);
      if (current_ >= 0) {
        Window& w = windows_[static_cast<std::size_t>(current_)];
        const double now = loop_.now_ms();
        w.done_ms.push_back(now - w.start_ms);
        w.latency_ms.push_back(out.latency_ms);
        if (st.first_reply_ms >= 0) {
          w.first_reply_ms.push_back(st.first_reply_ms - st.submit_ms);
          w.quorum_gap_ms.push_back(now - st.first_reply_ms);
        }
      }
    } else if (out.timed_out) {
      ++timeouts_;
    } else {
      ++rejected_;
    }
    submit_next(c);
  }

  void on_readable() {
    for (int i = 0; i < 1024; ++i) {
      auto received = socket_.receive();
      if (!received) return;
      const BytesView dgram(received->first);
      const auto id = client::peek_client_id(dgram);
      if (!id) continue;
      if (*id == static_cast<std::uint32_t>(o_.clients)) {
        on_probe_reply(dgram);
        continue;
      }
      if (*id >= clients_.size()) continue;
      tally(*id, dgram);
      clients_[*id]->on_datagram(dgram);
    }
  }

  /// Independent vote count for the request client `id` has in flight.
  void tally(std::uint32_t id, BytesView dgram) {
    ClientState& st = state_[id];
    const auto reply = client::decode_reply(dgram, st.key);
    if (!reply || reply->seq != static_cast<std::uint64_t>(st.k) ||
        reply->replica >= static_cast<std::uint32_t>(n_)) {
      return;
    }
    if (reply->status == client::Status::kOk && st.first_reply_ms < 0) {
      st.first_reply_ms = loop_.now_ms();
    }
    st.votes[std::make_tuple(static_cast<std::uint8_t>(reply->status),
                             reply->global_seq, reply->result)]
        .insert(reply->replica);
  }

  const Options& o_;
  net::EventLoop& loop_;
  net::UdpSocket socket_;
  client::KeyTable table_;
  std::vector<net::SocketAddress> targets_;
  int n_ = 0;
  std::vector<std::unique_ptr<client::ReplicatedServiceClient>> clients_;
  std::vector<ClientState> state_;

  Bytes probe_key_;
  Bytes probe_datagram_;
  std::string probe_payload_;
  std::uint64_t probe_global_seq_ = 0;
  std::set<std::uint32_t> probe_replied_;
  bool probe_ok_ = false;
  double probe_started_ms_ = 0;
  bool ready_ = false;
  std::int64_t ready_ns_ = 0;

  std::vector<Window> windows_;
  int current_ = -1;
  bool draining_ = false;
  double drain_started_ms_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t quorum_failures_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> executed_;
  std::vector<std::string> node_status_;  // /proc/<pid>/status per node
  std::string error_;
};

/// Same-run estimate of how many cores this process really gets: one
/// spinning thread against one per hardware thread, equal work each, best
/// of three so that a neighbour's burst does not decide the figure.
std::string calibrate() {
  auto spin = [] {
    volatile std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ULL + 1;
  };
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  double one = 1e9;
  double all = 1e9;
  for (int round = 0; round < 3; ++round) {
    auto start = Clock::now();
    spin();
    one = std::min(
        one, std::chrono::duration<double>(Clock::now() - start).count());
    start = Clock::now();
    {
      std::vector<std::jthread> pool;
      for (int i = 0; i < threads; ++i) pool.emplace_back(spin);
    }
    all = std::min(
        all, std::chrono::duration<double>(Clock::now() - start).count());
  }
  std::ostringstream s;
  s.precision(6);
  s << "{\"hardware_threads\":" << threads << ",\"spin_one_s\":" << one
    << ",\"spin_all_s\":" << all
    << ",\"effective_cores\":" << threads * one / all << "}\n";
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "calibrate") {
      std::fputs(calibrate().c_str(), stdout);
      return 0;
    }
    if (mode == "keygen") {
      std::string keys;
      std::uint32_t count = 0;
      std::uint64_t seed = 1;
      for (int i = 2; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg == "--keys") keys = argv[i + 1];
        else if (arg == "--clients") count = static_cast<std::uint32_t>(std::stoul(argv[i + 1]));
        else if (arg == "--seed") seed = std::stoull(argv[i + 1]);
        else throw std::runtime_error("unknown option " + arg);
      }
      if (keys.empty() || count == 0) {
        throw std::runtime_error("keygen needs --keys and --clients");
      }
      client::write_key_file(keys, client::make_key_table(count, seed));
      return 0;
    }
    if (mode != "run") {
      throw std::runtime_error("usage: perfbench_load_driver keygen|calibrate|run ...");
    }
    const Options o = parse(argc, argv, 2);
    net::EventLoop loop;
    LoadRun run(o, loop);
    loop.stop_on_signals({SIGINT, SIGTERM});
    run.start();
    loop.run();
    std::ofstream out(o.out, std::ios::trunc);
    out << run.result_json();
    if (!out) throw std::runtime_error("cannot write " + o.out);
    return run.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load_driver: %s\n", e.what());
    return 2;
  }
}
