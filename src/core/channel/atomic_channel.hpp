// Atomic broadcast channel (paper §2.5), throughput-oriented.
//
// Continuous totally-ordered broadcast in the style of Chandra–Toueg,
// with multi-valued Byzantine agreement replacing consensus: the parties
// proceed in global rounds and agree on a *batch* of signed messages per
// round.
//
// Round R at party Pi:
//   1. Pi signs a *bundle* of queued payloads together with R and
//      broadcasts it (greedy drain of the local queue, capped by
//      max_batch_count / max_batch_bytes); with no local payload, Pi
//      *adopts* the payloads first signed by another party and signs
//      those (the fairness mechanism);
//   2. after collecting batch-size properly-signed round-R bundles from
//      distinct signers, Pi proposes the batch to the round's
//      multi-valued agreement; the external-validity predicate checks
//      the signatures, signer distinctness, the round number, and
//      per-bundle (origin, seq) distinctness;
//   3. the agreed batch's messages are delivered in a fixed order (by the
//      originating sender's index, then sequence number), skipping
//      duplicates.
//
// Payload identity is (origin, per-origin sequence number) — the paper's
// §2.5 integrity relaxation: a bit string is delivered at most once per
// honest send, not at most once globally.
//
// The batch size counts *bundles* (one per signer) and is n − f + 1 for
// configurable fairness parameter f, t+1 ≤ f ≤ n−t (experiments:
// batch = t + 1, i.e. f = n − t).  With max_batch_count = 1 a bundle is
// exactly the seed's single signed payload.
//
// Pipelining: up to pipeline_depth rounds run concurrently (a watermark
// window over a per-round state map).  Decided batches are delivered
// strictly in round order; a batch whose round is ahead of the delivery
// watermark is parked until its predecessors deliver.  While one of its
// rounds is open, a party opens a further round only for work that fills
// a whole bundle (Nagle's rule); partial work rides the next round a peer
// opens, or the one opened once the open rounds deliver.  With
// pipeline_depth = 1 the validator additionally rejects already-delivered
// entries (the seed's behavior); with a deeper window that check moves to
// delivery time, where the duplicate skip is a deterministic function of
// the common delivered prefix — see DESIGN.md §11 for the ordering
// argument.
//
// Termination: close() enqueues a termination-request marker as a regular
// payload; the channel closes at the end of the round in which markers
// from t+1 distinct origins have been delivered — so it terminates when
// all honest parties together close it, and stays open unless at least
// one honest party closes it.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>

#include "core/agreement/array_agreement.hpp"
#include "core/channel/channel_base.hpp"
#include "obs/metrics.hpp"

namespace sintra::core {

class AtomicChannel : public Protocol, public ChannelBase {
 public:
  struct Config {
    /// Batch size in bundles (distinct signers); 0 means the experiments'
    /// default t + 1.
    int batch_size = 0;
    ArrayAgreement::CandidateOrder order =
        ArrayAgreement::CandidateOrder::kRandomLocal;
    /// Maximum payloads per signed bundle (proposer batching).  1
    /// reproduces the seed's one-payload-per-signature behavior.
    int max_batch_count = 1;
    /// Soft cap on the summed payload bytes of a bundle; a bundle always
    /// carries at least one payload.  0 means no byte cap.
    std::size_t max_batch_bytes = 64 * 1024;
    /// Number of rounds allowed in flight concurrently.  1 reproduces the
    /// seed's strictly-serial rounds.
    int pipeline_depth = 1;
  };

  /// One delivered payload, with instrumentation for the benchmarks.
  struct Delivery {
    Bytes payload;
    PartyId origin;
    std::uint64_t seq;
    int round;
    double time_ms;
    int mvba_iterations;  // >1 = the extra-binary-agreement band of Fig. 5
  };

  AtomicChannel(Environment& env, Dispatcher& dispatcher,
                const std::string& pid, Config config);
  AtomicChannel(Environment& env, Dispatcher& dispatcher,
                const std::string& pid)
      : AtomicChannel(env, dispatcher, pid, Config{}) {}
  ~AtomicChannel() override;

  /// Queues a payload for totally-ordered delivery.  Throws
  /// std::logic_error once the channel is closed.
  void send(BytesView payload) override;
  [[nodiscard]] bool can_send() const override { return !closed_; }

  /// Requests channel termination (see the close protocol above).
  void close() override;
  [[nodiscard]] bool is_closed() const override { return closed_; }

  /// Full delivery log (benchmarks read timing and origins from here;
  /// capped by set_delivery_log_limit — see ChannelBase).
  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return deliveries_;
  }
  [[nodiscard]] int rounds_completed() const { return round_; }

  void abort() override;

 protected:
  void on_message(PartyId from, BytesView payload) override;

 private:
  /// One queued payload inside a bundle.
  struct Entry {
    PartyId origin = -1;
    std::uint64_t seq = 0;
    Bytes payload;  // marker byte + user bytes
  };

  /// A round-R signed message: a vector of entries signed by `signer`.
  struct SignedBundle {
    PartyId signer = -1;
    std::vector<Entry> entries;
    Bytes sig;
  };

  using MessageKey = std::pair<PartyId, std::uint64_t>;  // (origin, seq)

  /// Per-round protocol state (the pipeline window's unit).
  struct RoundState {
    std::unique_ptr<ArrayAgreement> mvba;
    bool signed_bundle = false;
    bool proposed = false;
    double start_ms = 0.0;
    std::vector<MessageKey> own_keys;  // keys this party signed into R
    std::optional<Bytes> decided;      // parked until predecessors deliver
    int iterations = 0;
  };

  [[nodiscard]] Bytes sign_statement(int round,
                                     const std::vector<Entry>& entries) const;
  [[nodiscard]] std::string mvba_pid(int round) const;
  [[nodiscard]] int batch_size() const;
  [[nodiscard]] int max_bundle_entries() const;
  [[nodiscard]] int depth() const;
  /// Seed-mode (serial rounds) validators may consult delivered_keys_;
  /// pipelined validators must stay a pure function of the batch bytes.
  [[nodiscard]] bool strict_validity() const { return depth() <= 1; }

  static void write_bundle(Writer& w, const SignedBundle& b);
  static SignedBundle read_bundle(Reader& r);

  void enqueue_marker(std::uint8_t marker, BytesView payload);
  void maybe_start_rounds();
  void start_round(int round);
  /// Visits, without copying, the entries the next bundle would carry;
  /// returns whether they fill it (a count or byte cap ended the walk).
  template <class Visit>
  bool walk_bundle(Visit&& visit) const;
  [[nodiscard]] std::vector<Entry> collect_bundle() const;
  void sign_and_broadcast(int round, std::vector<Entry> entries);
  void handle_signed(PartyId from, Reader& r);
  void maybe_adopt_and_propose(int round);
  [[nodiscard]] bool bundle_shape_valid(const SignedBundle& b) const;
  [[nodiscard]] bool bundle_valid(int round, const SignedBundle& b,
                                  bool check_delivered) const;
  [[nodiscard]] bool batch_valid(int round, BytesView batch) const;
  void on_batch_decided(int round, const Bytes& batch);
  void flush_decided();
  void deliver_round(int round);
  void deliver(Entry entry, int round, int iterations);

  Config config_;
  bool closed_ = false;

  int round_ = 0;              // rounds completed (last delivered round)
  int next_deliver_round_ = 1; // delivery watermark
  int next_start_round_ = 1;   // next round the window may open

  std::uint64_t own_seq_ = 0;
  std::deque<std::pair<std::uint64_t, Bytes>> own_queue_;  // (seq, payload)
  std::map<MessageKey, Bytes> foreign_pool_;  // undelivered adopted payloads
  std::set<MessageKey> delivered_keys_;
  std::set<MessageKey> inflight_keys_;  // keys we signed into open rounds
  std::set<PartyId> close_origins_;

  // Verified round-R signed bundles, one per signer.
  std::map<int, std::map<PartyId, SignedBundle>> signed_;

  std::map<int, RoundState> rounds_;  // the pipeline window
  std::vector<std::unique_ptr<ArrayAgreement>> finished_mvbas_;

  std::vector<Delivery> deliveries_;

  // Instrumentation handles (obs/metrics.hpp); measurement only.
  obs::Counter* m_rounds_ = nullptr;
  obs::Counter* m_deliveries_ = nullptr;
  obs::Counter* m_parked_ = nullptr;
  obs::Counter* m_rounds_deferred_ = nullptr;
  obs::Gauge* m_rounds_in_flight_ = nullptr;
  obs::Histogram* m_round_ms_ = nullptr;
  obs::Histogram* m_batch_entries_ = nullptr;
  obs::Histogram* m_batch_size_ = nullptr;
  obs::Histogram* m_mvba_iterations_ = nullptr;
};

}  // namespace sintra::core
