// Optimistic atomic broadcast — the paper's Conclusion (§6) names this as
// the main future optimization, citing Castro–Liskov and Kursawe–Shoup:
// "optimistic protocols ... run a much simpler algorithm with one server
// acting as sequencer ... switch back to the slower mode when the server
// is suspected ... This will reduce the cost of atomic broadcast
// essentially to a single reliable broadcast per delivered message."
//
// This module implements a Kursawe–Shoup-style simplification:
//
// Fast path (epoch e, sequencer = e mod n):
//   - senders hand payloads to the sequencer (INITIATE);
//   - the sequencer orders each payload into consecutive *slots*, each a
//     verifiable consistent broadcast (so every slot has a transferable
//     closing message);
//   - on delivering a slot, a party broadcasts a 1-hop ACK; a slot is
//     output to the application once n−t ACKs arrive and all earlier
//     slots are output.  The ACK quorum is what makes the epoch switch
//     safe: anything output by one honest party is held by ≥ n−2t ≥ t+1
//     honest parties, so every quorum of wedges sees it.
//
// Pessimistic switch:
//   - suspicion is external (the application's timeout policy — timing
//     never enters protocol logic, exactly as the paper's optimistic
//     protocols delegate suspicion to failure detectors/timeouts):
//     suspect() broadcasts a COMPLAIN;
//   - t+1 COMPLAINs freeze the epoch; each party signs a WEDGE carrying
//     its delivered prefix and all its closing messages;
//   - one multi-valued Byzantine agreement decides a set of n−t valid
//     wedges; the longest prefix among them becomes the epoch's
//     definitive history (its closings let everyone catch up), and the
//     next epoch starts with the next sequencer;
//   - unordered payloads are re-initiated automatically.
//
// The channel has no close protocol: close() does nothing and
// is_closed() stays false, so a deployment completes it by count.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "core/agreement/array_agreement.hpp"
#include "core/broadcast/consistent_broadcast.hpp"
#include "core/channel/channel_base.hpp"
#include "obs/metrics.hpp"

namespace sintra::core {

class OptimisticChannel : public Protocol, public ChannelBase {
 public:
  OptimisticChannel(Environment& env, Dispatcher& dispatcher,
                    const std::string& pid);
  ~OptimisticChannel() override;

  /// Queues a payload for totally-ordered delivery.
  void send(BytesView payload) override;
  [[nodiscard]] bool can_send() const override { return true; }

  /// No close protocol (see above).
  void close() override {}
  [[nodiscard]] bool is_closed() const override { return false; }

  /// Signals suspicion of the current epoch's sequencer (driven by an
  /// application-level timeout; never called from protocol logic).
  void suspect();

  [[nodiscard]] int epoch() const { return epoch_; }
  [[nodiscard]] PartyId sequencer() const { return epoch_ % env_.n(); }
  [[nodiscard]] int switches() const { return epoch_; }

  struct Delivery {
    Bytes payload;
    PartyId origin;
    int epoch;
    double time_ms;
  };
  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return deliveries_;
  }

 protected:
  void on_message(PartyId from, BytesView payload) override;

 private:
  using MessageKey = std::pair<PartyId, std::uint64_t>;  // (origin, seq)

  struct Slot {
    std::unique_ptr<VerifiableConsistentBroadcast> vcb;
    std::optional<Bytes> order;  // delivered ORDER record
    std::set<PartyId> acks;
    bool output = false;
  };

  struct PendingMessage {
    std::uint64_t seq;
    Bytes payload;
    bool output = false;
  };

  [[nodiscard]] std::string slot_pid_base(int epoch) const;
  [[nodiscard]] Bytes wedge_statement(int epoch, std::uint64_t len,
                                      BytesView closings_digest) const;

  void initiate_pending();
  void handle_initiate(PartyId from, Reader& r);
  void sequencer_order(PartyId origin, std::uint64_t seq,
                       const Bytes& payload);
  void open_slot(std::uint64_t index);
  void on_slot_delivered(std::uint64_t index, const Bytes& order);
  void handle_ack(PartyId from, Reader& r);
  void try_output();
  void handle_complain(PartyId from, Reader& r);
  void freeze_and_wedge();
  void handle_wedge(PartyId from, Reader& r);
  [[nodiscard]] bool wedge_valid(PartyId signer, BytesView wedge) const;
  void maybe_start_switch_agreement();
  [[nodiscard]] bool switch_proposal_valid(BytesView proposal) const;
  void on_switch_decided(const Bytes& proposal);
  void output_record(const Bytes& order);

  int epoch_ = 0;
  bool frozen_ = false;

  // Sender side.
  std::uint64_t own_seq_ = 0;
  std::vector<PendingMessage> pending_;

  // Sequencer side.
  std::uint64_t next_slot_ = 0;
  std::set<MessageKey> ordered_keys_;

  // Receiver side.
  std::map<std::uint64_t, Slot> slots_;
  std::uint64_t next_output_ = 0;
  std::set<MessageKey> delivered_keys_;

  // Switch machinery.
  std::set<PartyId> complaints_;
  bool complained_ = false;
  bool wedged_ = false;
  std::map<PartyId, Bytes> wedges_;  // verified wedge records (serialized)
  std::unique_ptr<ArrayAgreement> switch_mvba_;
  std::vector<std::unique_ptr<ArrayAgreement>> old_switches_;
  std::vector<std::unique_ptr<VerifiableConsistentBroadcast>> old_slots_;

  std::vector<Delivery> deliveries_;

  // Instrumentation handles (obs/metrics.hpp); measurement only.
  obs::Counter* m_deliveries_ = nullptr;
  obs::Counter* m_epoch_switches_ = nullptr;
  obs::Counter* m_complaints_ = nullptr;
};

}  // namespace sintra::core
