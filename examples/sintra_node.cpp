// One SINTRA party as a standalone OS process over real UDP sockets —
// the deployment shape of the paper's prototype (§3: n servers,
// hostname:port endpoints from the configuration file, per-server
// "initialization data" from the trusted dealer).
//
//   $ ./sintra_node group.conf keys/party-2.keys --channel atomic
//         --send 5 --close --out /tmp/out.2 --stats
//
// The node loads its key file, binds its configured endpoint, runs the
// chosen channel (atomic / secure-atomic / optimistic), contributes
// `--send` payloads, and writes one "DELIVER <payload>" line per
// delivered message in delivery order — so total order across nodes can
// be checked by comparing output files (scripts/run_local_cluster.sh).
// The replica itself (channel, client gateway, recovery, completion) is
// replica::Replica (src/replica/); this program adds the UDP transport,
// the client lane, the output files, linger and signals.
//
// Termination: with --close the node closes the channel after its last
// send and completes when the close protocol terminates; with --expect N
// it completes after N deliveries (the optimistic channel has no close
// protocol).  On completion it writes <out>.done (when --out is given),
// lingers so its links and protocol instances keep serving slower peers,
// then exits 0.  --linger -1 means serve until signaled — used by the
// cluster runner, which SIGTERMs the group only once every node's .done
// marker exists, so no peer ever disappears while another still needs
// its responses.  SIGINT/SIGTERM shut down cleanly: flush output, print
// stats, exit 0 if completed and 3 otherwise.
//
// Observability (docs/OBSERVABILITY.md): --metrics-out FILE writes a JSON
// metrics snapshot on exit and on SIGUSR1 (overwritten each time);
// --trace-out FILE streams typed protocol events as JSON lines.
// scripts/aggregate_metrics.py merges the per-node snapshot files.
//
// Crash recovery (DESIGN.md §10): --state-dir DIR makes every delivery
// durable (fsync'd replica log) and exchanges threshold-signed
// checkpoints every --checkpoint-interval deliveries.  A node restarted
// with the same --state-dir detects the restart via its boot counter,
// replays its log, catches up from its peers, and completes when it
// reaches the close-time `final` checkpoint certificate — it does not
// rejoin the in-progress rounds; the recovery layer delivers the stream:
//
//   $ kill -9 <pid of node 3>
//   $ ./sintra_node group.conf keys/party-3.keys --channel atomic
//         --state-dir /tmp/state.3 --out /tmp/out.3 --linger -1
//
// and /tmp/out.3 converges to the same delivery sequence as its peers
// (scripts/run_local_cluster.sh --scenario recover automates this).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include <csignal>

#include "bignum/montgomery.hpp"
#include "client/udp_front.hpp"
#include "core/config.hpp"
#include "crypto/cost.hpp"
#include "crypto/keyfile.hpp"
#include "net/net_environment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replica/replica.hpp"
#include "util/atomic_file.hpp"

using namespace sintra;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Args {
  std::string config_path;
  std::string keyfile_path;
  replica::Replica::Options replica;  // channel, workload, recovery, clients
  double linger_ms = 1500.0;
  std::string out_path;  // empty = stdout
  bool print_stats = false;
  std::string metrics_out;  // JSON snapshot on exit / SIGUSR1
  std::string trace_out;    // JSON-lines event stream
  std::string via_host;  // chaos proxy: host part of --via
  int via_base_port = 0;
  int crypto_threads = -1;      // -1 = hardware_concurrency; 0 = inline
  bool use_mmsg = true;         // --no-mmsg: one syscall per datagram
  bool corrupt_shares = false;  // Byzantine chaos: emit garbage sig shares
  // Fault injection: SIGKILL this process once this many deliveries are
  // durable in the --state-dir log; 0 = off.
  std::uint64_t crash_after_records = 0;
  int client_port = 0;          // UDP port for signed client requests; 0 = none
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 3) throw std::runtime_error("missing config/keyfile arguments");
  a.config_path = argv[1];
  a.keyfile_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--channel") {
      a.replica.channel = value();
    } else if (arg == "--send") {
      a.replica.send_count = std::stoi(value());
    } else if (arg == "--expect") {
      a.replica.expect = std::stoull(value());
    } else if (arg == "--close") {
      a.replica.close_after_send = true;
    } else if (arg == "--linger") {
      a.linger_ms = std::stod(value());
    } else if (arg == "--out") {
      a.out_path = value();
    } else if (arg == "--stats") {
      a.print_stats = true;
    } else if (arg == "--metrics-out") {
      a.metrics_out = value();
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--crypto-threads") {
      a.crypto_threads = std::stoi(value());
      if (a.crypto_threads < 0) {
        throw std::runtime_error("--crypto-threads wants >= 0");
      }
    } else if (arg == "--no-mmsg") {
      a.use_mmsg = false;
    } else if (arg == "--corrupt-shares") {
      a.corrupt_shares = true;
    } else if (arg == "--state-dir") {
      a.replica.state_dir = value();
    } else if (arg == "--crash-after-records") {
      a.crash_after_records = std::stoull(value());
      if (a.crash_after_records == 0) {
        throw std::runtime_error("--crash-after-records wants >= 1");
      }
    } else if (arg == "--checkpoint-interval") {
      a.replica.checkpoint_interval = std::stoull(value());
      if (a.replica.checkpoint_interval == 0) {
        throw std::runtime_error("--checkpoint-interval wants >= 1");
      }
    } else if (arg == "--batch-count") {
      a.replica.batch_count = std::stoi(value());
      if (a.replica.batch_count < 1) {
        throw std::runtime_error("--batch-count wants >= 1");
      }
    } else if (arg == "--pipeline-depth") {
      a.replica.pipeline_depth = std::stoi(value());
      if (a.replica.pipeline_depth < 1) {
        throw std::runtime_error("--pipeline-depth wants >= 1");
      }
    } else if (arg == "--bench-load") {
      // <msgs>x<bytes>: sustained load without a client layer, e.g.
      // --bench-load 2000x256 sends 2000 padded 256-byte payloads.
      const std::string v = value();
      const auto x = v.find('x');
      if (x == std::string::npos) {
        throw std::runtime_error("--bench-load wants <msgs>x<bytes>");
      }
      a.replica.send_count = std::stoi(v.substr(0, x));
      a.replica.bench_payload_bytes = std::stoi(v.substr(x + 1));
      if (a.replica.send_count < 0 || a.replica.bench_payload_bytes < 0) {
        throw std::runtime_error("--bench-load wants non-negative values");
      }
    } else if (arg == "--client-port") {
      a.client_port = std::stoi(value());
      if (a.client_port <= 0) throw std::runtime_error("--client-port wants > 0");
    } else if (arg == "--client-keys") {
      a.replica.client_keys = value();
    } else if (arg == "--max-clients") {
      a.replica.max_clients = std::stoull(value());
    } else if (arg == "--client-rate") {
      a.replica.client_rate = std::stod(value());
      if (a.replica.client_rate <= 0.0) {
        throw std::runtime_error("--client-rate wants > 0");
      }
    } else if (arg == "--client-global-rate") {
      a.replica.client_global_rate = std::stod(value());
    } else if (arg == "--client-pending") {
      a.replica.client_pending = std::stoull(value());
      if (a.replica.client_pending == 0) {
        throw std::runtime_error("--client-pending wants >= 1");
      }
    } else if (arg == "--via") {
      const std::string v = value();
      const auto colon = v.rfind(':');
      if (colon == std::string::npos) {
        throw std::runtime_error("--via wants host:base_port");
      }
      a.via_host = v.substr(0, colon);
      a.via_base_port = std::stoi(v.substr(colon + 1));
    } else {
      throw std::runtime_error("unknown option " + arg);
    }
  }
  if (a.crash_after_records > 0 && a.replica.state_dir.empty()) {
    throw std::runtime_error("--crash-after-records needs --state-dir");
  }
  return a;
}

/// Byzantine chaos helper (--corrupt-shares): a threshold-signature
/// handle whose *own* shares are garbage while every verify/combine stays
/// honest.  Receivers' optimistic combine-first paths must fall back,
/// blacklist this node, and finish with the honest quorum — observable as
/// crypto.fallbacks > 0 in their metrics snapshots.
class CorruptingSigScheme final : public crypto::ThresholdSigScheme {
 public:
  explicit CorruptingSigScheme(
      std::shared_ptr<crypto::ThresholdSigScheme> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] int n() const override { return inner_->n(); }
  [[nodiscard]] int k() const override { return inner_->k(); }
  [[nodiscard]] int index() const override { return inner_->index(); }

  [[nodiscard]] Bytes sign_share(BytesView msg) override {
    Bytes share = inner_->sign_share(msg);
    if (!share.empty()) share[share.size() / 2] ^= 0x5a;
    return share;
  }
  [[nodiscard]] bool verify_share(BytesView msg, int signer,
                                  BytesView share) const override {
    return inner_->verify_share(msg, signer, share);
  }
  [[nodiscard]] Bytes combine(
      BytesView msg,
      const std::vector<std::pair<int, Bytes>>& shares) const override {
    return inner_->combine(msg, shares);
  }
  [[nodiscard]] bool verify(BytesView msg, BytesView sig) const override {
    return inner_->verify(msg, sig);
  }

 private:
  std::shared_ptr<crypto::ThresholdSigScheme> inner_;
};

/// The running node: one UDP environment, one Replica, and the process
/// around them (output files, client lane, linger).
class NodeApp {
 public:
  NodeApp(const Args& args, net::EventLoop& loop)
      : args_(args), loop_(loop) {
    const core::GroupConfig cfg =
        core::GroupConfig::parse(read_file(args.config_path));
    const std::string blob = read_file(args.keyfile_path);
    const crypto::RawPartyKeys raw = crypto::read_party_keys(
        BytesView(reinterpret_cast<const std::uint8_t*>(blob.data()),
                  blob.size()));
    crypto::PartyKeys keys = crypto::materialize(raw);
    if (args.corrupt_shares) {
      keys.sig_broadcast =
          std::make_shared<CorruptingSigScheme>(std::move(keys.sig_broadcast));
      keys.sig_agreement =
          std::make_shared<CorruptingSigScheme>(std::move(keys.sig_agreement));
    }

    net::NetOptions opts;
    opts.crypto_threads =
        args.crypto_threads >= 0
            ? args.crypto_threads
            : static_cast<int>(std::thread::hardware_concurrency());
    opts.use_mmsg = args.use_mmsg;
    if (!args.via_host.empty()) {
      for (int j = 0; j < keys.n; ++j) {
        opts.send_to.push_back({args.via_host, args.via_base_port + j});
      }
    }
    env_ = std::make_unique<net::NetEnvironment>(loop_, cfg.parties,
                                                 std::move(keys), opts);

    if (!args.out_path.empty()) {
      out_ = std::fopen(args.out_path.c_str(), "w");
      if (out_ == nullptr) {
        throw std::runtime_error("cannot open " + args.out_path);
      }
    } else {
      out_ = stdout;
    }

    if (!args.trace_out.empty()) {
      trace_file_ = std::fopen(args.trace_out.c_str(), "w");
      if (trace_file_ == nullptr) {
        throw std::runtime_error("cannot open " + args.trace_out);
      }
      trace_ = std::make_unique<obs::EventTrace>();
      trace_->set_stream(trace_file_);
      trace_->set_retain(false);  // stream only: bounded memory
      obs::set_trace_sink(trace_.get());
    }

    replica_ = std::make_unique<replica::Replica>(
        *env_, env_->dispatcher(), args.replica);
    replica_->set_execute_callback([this](const Bytes& payload) {
      std::fprintf(out_, "DELIVER %s\n", to_string(payload).c_str());
      // The record executed here is already fsync'd (Replica logs before
      // it executes), so the kill lands at an exact durable point.
      if (args_.crash_after_records > 0 &&
          replica_->recovery()->delivered_seq() >=
              args_.crash_after_records) {
        std::raise(SIGKILL);
      }
    });
    replica_->set_complete_callback([this] { finish(); });

    if (args.client_port > 0) {
      if (args.replica.client_keys.empty()) {
        throw std::runtime_error("--client-port needs --client-keys");
      }
      front_ = std::make_unique<client::UdpClientFront>(
          loop_, net::SocketAddress::resolve("0.0.0.0", args.client_port),
          *replica_->gateway());
      std::fprintf(stderr, "# node %d: client lane on %s\n", env_->self(),
                   front_->local_address().to_string().c_str());
    }

    replica_->start();
    if (replica_->recovering()) {
      std::fprintf(stderr, "# node %d: recovery: replayed %zu from log\n",
                   env_->self(), replica_->replayed());
    }
  }

  ~NodeApp() {
    if (trace_) obs::set_trace_sink(nullptr);
    if (trace_file_ != nullptr) std::fclose(trace_file_);
    if (out_ != nullptr && out_ != stdout) std::fclose(out_);
  }

  /// Writes a JSON metrics snapshot to --metrics-out (no-op without the
  /// flag).  Called on exit and on SIGUSR1; each call overwrites the file
  /// with the freshest totals.
  void write_metrics() {
    if (args_.metrics_out.empty()) return;
    env_->publish_link_metrics();  // sample the link layer's plain structs
    auto& reg = obs::registry();
    const obs::Labels labels = obs::party_labels(env_->self());
    reg.gauge("node.delivered", labels)
        .set(static_cast<double>(replica_->executed()));
    reg.gauge("crypto.work_units", labels)
        .set(static_cast<double>(bignum::work_counter()));
    reg.gauge("crypto.work_per_exp1024", labels)
        .set(static_cast<double>(crypto::work_per_exp1024()));
    // Atomic replacement: a reader (aggregate_metrics.py, the cluster
    // runner) racing a SIGUSR1 snapshot never sees a torn file.
    std::string json = reg.snapshot().to_json();
    json.push_back('\n');
    std::string error;
    if (!util::atomic_write_file(args_.metrics_out, json, &error)) {
      std::fprintf(stderr, "# node %d: metrics snapshot failed: %s\n",
                   env_->self(), error.c_str());
    }
  }

  void flush_trace() {
    if (trace_file_ != nullptr) std::fflush(trace_file_);
  }

  [[nodiscard]] bool completed() const { return replica_->completed(); }
  [[nodiscard]] int party() const { return env_->self(); }

  void flush() { std::fflush(out_); }

  void print_stats(const char* reason) {
    std::fprintf(stderr, "# node %d: %s, delivered=%llu\n", env_->self(),
                 reason, static_cast<unsigned long long>(replica_->executed()));
    const auto& es = env_->stats();
    std::fprintf(stderr,
                 "STATS env received=%llu drop_no_sender=%llu "
                 "drop_bad_sender=%llu drop_oversized=%llu\n",
                 static_cast<unsigned long long>(es.datagrams_received),
                 static_cast<unsigned long long>(es.drop_no_sender),
                 static_cast<unsigned long long>(es.drop_bad_sender),
                 static_cast<unsigned long long>(es.drop_oversized));
    for (int j = 0; j < env_->n(); ++j) {
      if (j == env_->self()) continue;
      const auto& ls = env_->link_stats(j);
      std::fprintf(stderr,
                   "STATS link peer=%d retrans=%llu backoffs=%llu "
                   "rtt_samples=%llu srtt_ms=%.3f rto_ms=%.3f "
                   "drop_auth=%llu drop_malformed=%llu drop_overflow=%llu "
                   "drop_duplicate=%llu\n",
                   j, static_cast<unsigned long long>(ls.retransmissions),
                   static_cast<unsigned long long>(ls.backoffs),
                   static_cast<unsigned long long>(ls.rtt_samples),
                   ls.srtt_ms, ls.rto_ms,
                   static_cast<unsigned long long>(ls.drop_auth),
                   static_cast<unsigned long long>(ls.drop_malformed),
                   static_cast<unsigned long long>(ls.drop_overflow),
                   static_cast<unsigned long long>(ls.drop_duplicate));
    }
  }

 private:
  void finish() {
    if (replica_->recovering()) {
      std::fprintf(stderr,
                   "# node %d: caught up at seq %llu (final certificate)\n",
                   env_->self(),
                   static_cast<unsigned long long>(
                       replica_->recovery()->delivered_seq()));
    }
    flush();
    if (!args_.out_path.empty()) {
      // Completion marker for external orchestration (the cluster runner
      // waits for every node's marker before signaling).  Atomic: the
      // runner never observes a half-created marker.
      util::atomic_write_file(args_.out_path + ".done", std::string_view{});
    }
    if (args_.linger_ms < 0.0) return;  // serve until signaled
    finish_ms_ = loop_.now_ms();
    wait_for_quiescence();
  }

  // Linger before exiting: our links keep retransmitting unacked frames
  // and our (closed but live) channel keeps answering protocol messages,
  // so slower peers can finish their own close/delivery.  Leave only once
  // every peer has acked everything we sent (backlog drained), with a
  // hard cap so a crashed peer cannot hold us hostage.
  void wait_for_quiescence() {
    const double elapsed = loop_.now_ms() - finish_ms_;
    const bool drained = env_->send_backlog() == 0;
    if ((elapsed >= args_.linger_ms && drained) ||
        elapsed >= 10.0 * args_.linger_ms) {
      loop_.stop();
      return;
    }
    loop_.call_later(100.0, [this] { wait_for_quiescence(); });
  }

  Args args_;
  net::EventLoop& loop_;
  std::unique_ptr<net::NetEnvironment> env_;
  std::unique_ptr<replica::Replica> replica_;
  std::unique_ptr<client::UdpClientFront> front_;
  std::FILE* out_ = nullptr;
  std::FILE* trace_file_ = nullptr;
  std::unique_ptr<obs::EventTrace> trace_;
  double finish_ms_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    net::EventLoop loop;
    NodeApp app(args, loop);
    loop.stop_on_signals({SIGINT, SIGTERM}, [&](int signo) {
      std::fprintf(stderr, "# node %d: signal %d, shutting down\n",
                   app.party(), signo);
    });
    if (!args.metrics_out.empty()) {
      // Live snapshot without stopping: kill -USR1 <pid>.
      loop.on_signal(SIGUSR1, [&] { app.write_metrics(); });
    }
    loop.run();
    app.flush();
    app.flush_trace();
    app.write_metrics();
    if (args.print_stats) {
      app.print_stats(app.completed() ? "completed" : "interrupted");
    }
    return app.completed() ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "error: %s\nusage: sintra_node <group.conf> <party.keys> "
                 "[--channel atomic|secure-atomic|optimistic] [--send N] "
                 "[--close] [--expect N] [--linger MS] [--out FILE] "
                 "[--stats] [--metrics-out FILE] [--trace-out FILE] "
                 "[--via host:base_port] [--crypto-threads N] "
                 "[--no-mmsg] [--corrupt-shares] [--state-dir DIR] "
                 "[--crash-after-records N] "
                 "[--checkpoint-interval K] [--batch-count N] "
                 "[--pipeline-depth W] "
                 "[--bench-load MxB] [--client-port P] "
                 "[--client-keys FILE] [--max-clients N] "
                 "[--client-rate R] [--client-global-rate R] "
                 "[--client-pending N]\n",
                 e.what());
    return 2;
  }
}
