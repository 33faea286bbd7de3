#include "sim/simulator.hpp"

#include <stdexcept>

#include "crypto/cost.hpp"
#include "sim/network.hpp"

namespace sintra::sim {

Node::Node(Simulator& sim, int id, crypto::PartyKeys keys,
           std::uint64_t boot)
    : sim_(sim),
      id_(id),
      keys_(std::move(keys)),
      link_macs_(keys_.link_keys.begin(), keys_.link_keys.end()),
      rng_(0x90de ^ (static_cast<std::uint64_t>(id) << 20) ^
           ((boot - 1) << 44)) {
  // Same instrumentation surface as the real-network stack; timestamps
  // use the node's virtual clock.
  dispatcher_.attach_obs(id, [this] { return now_ms(); });
}

int Node::n() const { return keys_.n; }

double Node::now_ms() const {
  return in_handler_ ? handler_start_ms_ : sim_.now_ms();
}

void Node::send(core::PartyId to, Bytes wire) {
  if (crashed_) return;
  if (to < 0 || to >= n())
    throw std::out_of_range("Node::send: bad destination");
  if (in_handler_) {
    outbox_.emplace_back(to, std::move(wire));
  } else {
    sim_.transmit(id_, to, std::move(wire), sim_.now_ms());
  }
}

void Node::send_all(Bytes wire) {
  // The last destination takes the buffer by move; the simulator still
  // materializes per-link copies at transmit time (link authentication
  // rewrites the wire per peer), so this only trims the top-level copy.
  for (int j = 0; j < n() - 1; ++j) {
    send(j, wire);
  }
  if (n() > 0) send(n() - 1, std::move(wire));
}

Simulator::Simulator(Topology topology, const crypto::Deal& deal,
                     std::uint64_t seed)
    : topology_(std::move(topology)),
      net_rng_(seed ^ 0x5e7ULL),
      last_arrival_ms_(static_cast<std::size_t>(topology_.n()),
                       std::vector<double>(static_cast<std::size_t>(topology_.n()), 0.0)) {
  if (static_cast<int>(deal.parties.size()) != topology_.n())
    throw std::invalid_argument(
        "Simulator: deal size does not match topology");
  // Deals (and their scheme handles) outlive simulator runs; invalidating
  // the precomputation caches here makes every run rebuild — and be
  // re-charged for — its comb tables, so repeated runs from one deal see
  // identical virtual timings.
  crypto::bump_cache_epoch();
  nodes_.reserve(deal.parties.size());
  boots_.assign(deal.parties.size(), 1);
  for (int i = 0; i < topology_.n(); ++i) {
    nodes_.push_back(std::make_unique<Node>(
        *this, i, deal.parties[static_cast<std::size_t>(i)]));
  }
}

Node& Simulator::restart_node(int i) {
  if (i < 0 || i >= n())
    throw std::out_of_range("Simulator::restart_node: bad party");
  auto& slot = nodes_[static_cast<std::size_t>(i)];
  crypto::PartyKeys keys = slot->keys_;  // dealer keys survive the crash
  const std::uint64_t boot = ++boots_[static_cast<std::size_t>(i)];
  slot = std::make_unique<Node>(*this, i, std::move(keys), boot);
  return *slot;
}

void Simulator::schedule(double time_ms, std::function<void()> fn) {
  queue_.push(Event{time_ms, seq_++, std::move(fn)});
}

void Simulator::at(double time_ms, int party, std::function<void()> fn) {
  if (party < 0 || party >= n())
    throw std::out_of_range("Simulator::at: bad party");
  schedule(time_ms, [this, party, fn = std::move(fn)] {
    Node& node = *nodes_[static_cast<std::size_t>(party)];
    if (node.crashed_) return;
    run_in_node(node, now_ms_, fn);
  });
}

void Simulator::post(double time_ms, std::function<void()> fn) {
  schedule(time_ms, std::move(fn));
}

void Simulator::run_in_node(Node& node, double ready_ms,
                            const std::function<void()>& fn) {
  const double start = std::max(ready_ms, node.cpu_free_at_ms_);
  node.in_handler_ = true;
  node.handler_start_ms_ = start;
  const crypto::WorkMeter meter;
  fn();
  const double cpu_ms =
      crypto::work_to_ms(meter.elapsed(),
                         topology_.hosts[static_cast<std::size_t>(node.id_)].exp_ms) +
      per_message_cpu_ms;
  node.in_handler_ = false;
  const double end = start + cpu_ms;
  node.cpu_free_at_ms_ = end;
  // Outgoing messages depart when the handler finishes.
  auto outbox = std::move(node.outbox_);
  node.outbox_.clear();
  for (auto& [to, wire] : outbox) {
    transmit(node.id_, to, std::move(wire), end);
  }
}

void Simulator::transmit(int from, int to, Bytes frame, double depart_ms) {
  ++messages_sent_;
  bytes_sent_ += frame.size();
  if (trace != nullptr) {
    try {
      trace->record(depart_ms, from, to, core::parse_frame_view(frame).pid,
                    frame.size());
    } catch (const SerdeError&) {
      trace->record(depart_ms, from, to, "<malformed>", frame.size());
    }
  }
  Bytes wire =
      authenticate_links
          ? authenticate_frame(
                nodes_[static_cast<std::size_t>(from)]->link_macs_[static_cast<std::size_t>(to)],
                from, to, frame)
          : std::move(frame);

  const double base =
      topology_.latency_ms[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
  const double jitter_factor =
      1.0 + topology_.jitter * (2.0 * net_rng_.uniform01() - 1.0);
  double extra = 0.0;
  if (delay_hook) extra = delay_hook(from, to, depart_ms);
  double arrival = depart_ms + base * jitter_factor + extra;
  // FIFO per link (TCP streams in the paper).
  double& last = last_arrival_ms_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
  arrival = std::max(arrival, last);
  last = arrival;

  schedule(arrival, [this, from, to, wire = std::move(wire)]() mutable {
    deliver(from, to, std::move(wire), now_ms_);
  });
}

void Simulator::inject(int from, int to, Bytes wire, double at_time_ms) {
  schedule(at_time_ms, [this, from, to, wire = std::move(wire)]() mutable {
    deliver(from, to, std::move(wire), now_ms_);
  });
}

void Simulator::deliver(int from, int to, Bytes wire, double arrival_ms) {
  Node& node = *nodes_[static_cast<std::size_t>(to)];
  if (node.crashed_) return;
  Bytes frame;
  if (authenticate_links) {
    if (!open_frame(node.link_macs_[static_cast<std::size_t>(from)],
                    from, to, wire, frame)) {
      return;  // forged or corrupted: drop silently
    }
  } else {
    frame = std::move(wire);
  }
  ++messages_delivered_;
  run_in_node(node, arrival_ms, [&node, from, &frame] {
    node.dispatcher_.on_message(from, frame);
  });
}

DatagramService::DatagramService(Simulator& sim, int self)
    : sim_(sim), self_(self) {}

void DatagramService::send_datagram(int to, Bytes datagram) {
  sim_.transmit_datagram(self_, to, std::move(datagram));
}

void DatagramService::set_handler(Handler handler) {
  handler_ = std::move(handler);
}

void DatagramService::call_later(double delay_ms, std::function<void()> fn) {
  const int self = self_;
  Simulator& sim = sim_;
  sim_.schedule(sim_.now_ms() + delay_ms, [&sim, self, fn = std::move(fn)] {
    Node& node = *sim.nodes_[static_cast<std::size_t>(self)];
    if (node.crashed()) return;
    sim.run_in_node(node, sim.now_ms(), fn);
  });
}

double DatagramService::now_ms() const { return sim_.now_ms(); }

DatagramService& Simulator::datagrams(int i) {
  if (i < 0 || i >= n()) throw std::out_of_range("Simulator::datagrams");
  if (datagram_services_.empty()) {
    datagram_services_.resize(static_cast<std::size_t>(n()));
  }
  auto& svc = datagram_services_[static_cast<std::size_t>(i)];
  if (!svc) svc = std::make_unique<DatagramService>(*this, i);
  return *svc;
}

void Simulator::transmit_datagram(int from, int to, Bytes datagram) {
  if (to < 0 || to >= n()) throw std::out_of_range("transmit_datagram");
  const double depart = now_ms();
  if (datagram_faults.drop && datagram_faults.drop(from, to, depart)) return;
  int copies = 1;
  if (datagram_faults.duplicate) {
    copies += datagram_faults.duplicate(from, to, depart);
  }
  const double base =
      topology_.latency_ms[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
  for (int c = 0; c < copies; ++c) {
    double extra = 0.0;
    if (datagram_faults.extra_delay) {
      extra = datagram_faults.extra_delay(from, to, depart);
    }
    const double jitter_factor =
        1.0 + topology_.jitter * (2.0 * net_rng_.uniform01() - 1.0);
    const double arrival = depart + base * jitter_factor + extra;
    // No FIFO clamp: datagrams reorder freely.
    schedule(arrival, [this, from, to, datagram] {
      Node& node = *nodes_[static_cast<std::size_t>(to)];
      if (node.crashed()) return;
      auto& svc = datagrams(to);
      if (!svc.handler_) return;
      run_in_node(node, now_ms_,
                  [&svc, from, &datagram] { svc.handler_(from, datagram); });
    });
  }
}

std::size_t Simulator::run(double until_ms) {
  std::size_t processed = 0;
  while (!queue_.empty()) {
    if (queue_.top().time_ms > until_ms) break;
    Event ev = queue_.top();
    queue_.pop();
    now_ms_ = ev.time_ms;
    ev.fn();
    ++processed;
  }
  return processed;
}

bool Simulator::run_until(const std::function<bool()>& pred,
                          double deadline_ms) {
  if (pred()) return true;
  while (!queue_.empty() && queue_.top().time_ms <= deadline_ms) {
    Event ev = queue_.top();
    queue_.pop();
    now_ms_ = ev.time_ms;
    ev.fn();
    if (pred()) return true;
  }
  return false;
}

}  // namespace sintra::sim
