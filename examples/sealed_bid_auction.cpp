// Sealed-bid auction over secure causal atomic broadcast (paper §2.6).
//
// The attack this defeats: a Byzantine auctioneer-replica that sees
// Alice's bid in cleartext before it is ordered could front-run her with
// a bid derived from hers.  Secure causal atomic broadcast encrypts every
// bid under the group's TDH2 key; replicas only obtain decryption shares
// *after* the ciphertext's position in the total order is fixed, and the
// scheme's CCA security stops anyone from mauling a ciphertext into a
// related bid.  Causality between submission and revelation is preserved.
//
// The replicas run on the deterministic simulator (virtual time, the
// paper's LAN topology).
//
//   $ ./sealed_bid_auction
//
#include <iostream>

#include "core/channel/secure_atomic_channel.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace sintra;

  crypto::DealerConfig config;
  config.n = 4;
  config.t = 1;
  config.rsa_bits = 512;
  config.dl_p_bits = 256;
  config.dl_q_bits = 96;
  const crypto::Deal deal = crypto::run_dealer(config);
  sim::Simulator sim(sim::lan_setup(), deal);

  // Each replica opens the bids it delivers, in delivery order.
  std::vector<std::vector<std::string>> opened(4);
  std::vector<std::unique_ptr<core::SecureAtomicChannel>> channel;
  for (int i = 0; i < sim.n(); ++i) {
    channel.push_back(std::make_unique<core::SecureAtomicChannel>(
        sim.node(i), sim.node(i).dispatcher(), "auction"));
    channel.back()->set_deliver_callback(
        [&opened, i](const Bytes& bid, core::PartyId) {
          opened[static_cast<std::size_t>(i)].push_back(to_string(bid));
        });
  }

  // Bidders are EXTERNAL clients: they hold only the channel's public key
  // (paper §3.4) and hand sealed ciphertexts to replicas for broadcast.
  Rng alice_rng(1001), bob_rng(1002), carol_rng(1003);
  const Bytes alice_ct = core::SecureAtomicChannel::encrypt(
      *deal.encryption_key, "auction", to_bytes("alice:730"), alice_rng);
  const Bytes bob_ct = core::SecureAtomicChannel::encrypt(
      *deal.encryption_key, "auction", to_bytes("bob:915"), bob_rng);
  const Bytes carol_ct = core::SecureAtomicChannel::encrypt(
      *deal.encryption_key, "auction", to_bytes("carol:850"), carol_rng);

  // The sealed bids reveal nothing (ciphertext does not contain the bid).
  for (const Bytes* ct : {&alice_ct, &bob_ct, &carol_ct}) {
    if (to_string(*ct).find(":") != std::string::npos &&
        (to_string(*ct).find("alice") != std::string::npos ||
         to_string(*ct).find("bob") != std::string::npos ||
         to_string(*ct).find("carol") != std::string::npos)) {
      std::cerr << "bid leaked in ciphertext!\n";
      return 1;
    }
  }
  std::cout << "three sealed bids submitted (" << alice_ct.size()
            << "-byte ciphertexts, cleartext hidden until ordered)\n";

  // Different replicas relay the sealed bids without seeing their content.
  sim.at(0.0, 0, [&] { channel[0]->send_ciphertext(alice_ct); });
  sim.at(0.0, 1, [&] { channel[1]->send_ciphertext(bob_ct); });
  sim.at(0.0, 2, [&] { channel[2]->send_ciphertext(carol_ct); });
  if (!sim.run_until(
          [&] {
            for (const auto& o : opened) {
              if (o.size() < 3) return false;
            }
            return true;
          },
          1e7)) {
    std::cerr << "timeout\n";
    return 1;
  }

  // Every replica opened the bids in the SAME (now fixed) order and
  // computes the same winner.
  for (int i = 0; i < sim.n(); ++i) {
    const auto& bids = opened[static_cast<std::size_t>(i)];
    std::string winner;
    int best = -1;
    std::cout << "replica " << i << " opens:";
    for (const std::string& s : bids) {
      std::cout << " " << s;
      const auto colon = s.find(':');
      const int amount = std::stoi(s.substr(colon + 1));
      if (amount > best) {
        best = amount;
        winner = s.substr(0, colon);
      }
    }
    std::cout << " -> winner: " << winner << " (" << best << ")\n";
    if (bids != opened[0] || winner != "bob") {
      std::cerr << "replicas disagree on the bids or the winner!\n";
      return 1;
    }
  }
  std::cout << "auction settled identically on all replicas; bids stayed "
               "sealed until their order was fixed\n";
  return 0;
}
