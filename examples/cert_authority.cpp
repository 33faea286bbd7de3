// Intrusion-tolerant certification authority (COCA-style, cf. paper §5).
//
// The CA's signing key never exists in one place: it is a threshold RSA
// key dealt across the replicas.  Certificate requests are totally
// ordered by atomic broadcast (so serial numbers are consistent), then
// each replica emits a signature share; any k shares assemble into a
// standard RSA certificate signature that external clients verify against
// the single group public key — no replica alone can issue a certificate,
// and t corrupted replicas cannot forge one.
//
// The replicas run on the deterministic simulator (virtual time, the
// paper's LAN topology).
//
//   $ ./cert_authority
//
#include <iostream>
#include <map>

#include "core/channel/atomic_channel.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace sintra;

std::string certificate_text(std::uint64_t serial, const std::string& subject) {
  return "cert{serial=" + std::to_string(serial) + ", subject=" + subject +
         ", issuer=SINTRA-CA}";
}

}  // namespace

int main() {
  crypto::DealerConfig config;
  config.n = 4;
  config.t = 1;
  config.rsa_bits = 512;
  config.dl_p_bits = 256;
  config.dl_q_bits = 96;
  // The CA uses proper Shoup threshold signatures: the assembled
  // certificate signature is a *standard* RSA signature (§2.1).
  config.sig_impl = crypto::SigImpl::kThresholdRsa;
  const crypto::Deal deal = crypto::run_dealer(config);
  sim::Simulator sim(sim::lan_setup(), deal);

  // Every replica processes the ordered requests identically: assign the
  // serial number by position, sign a share of the certificate with its
  // own key material.
  const int kRequests = 2;
  std::map<std::uint64_t, std::vector<std::pair<int, Bytes>>> shares;
  std::map<std::uint64_t, std::string> texts;
  std::vector<std::vector<std::string>> issued(4);  // per replica, in order
  std::vector<std::unique_ptr<core::AtomicChannel>> channel;
  for (int i = 0; i < sim.n(); ++i) {
    channel.push_back(std::make_unique<core::AtomicChannel>(
        sim.node(i), sim.node(i).dispatcher(), "ca"));
    channel.back()->set_deliver_callback(
        [&, i](const Bytes& req, core::PartyId) {
          auto& mine = issued[static_cast<std::size_t>(i)];
          const std::uint64_t serial = mine.size();
          const std::string cert = certificate_text(serial, to_string(req));
          mine.push_back(cert);
          shares[serial].emplace_back(
              i, sim.node(i).keys().sig_broadcast->sign_share(
                     to_bytes(cert)));
          texts[serial] = cert;
        });
  }

  // Clients submit certificate requests at different replicas.
  sim.at(0.0, 1, [&] { channel[1]->send(to_bytes("alice@example.com")); });
  sim.at(0.0, 2, [&] { channel[2]->send(to_bytes("bob@example.org")); });
  if (!sim.run_until(
          [&] {
            for (const auto& mine : issued) {
              if (mine.size() < static_cast<std::size_t>(kRequests)) {
                return false;
              }
            }
            return true;
          },
          1e7)) {
    std::cerr << "timeout\n";
    return 1;
  }
  for (int i = 1; i < sim.n(); ++i) {
    if (issued[static_cast<std::size_t>(i)] != issued[0]) {
      std::cerr << "replicas assigned different serial numbers!\n";
      return 1;
    }
  }

  // Any replica (here: 0) assembles k = ceil((n+t+1)/2) = 3 shares into
  // the final certificate signature; an external client verifies it.
  const auto& scheme = *deal.parties[0].sig_broadcast;
  for (std::uint64_t serial = 0; serial < kRequests; ++serial) {
    const std::string& cert = texts[serial];
    // Verify the shares first (robustness: a corrupted replica's bogus
    // share would be identified and excluded).
    for (const auto& [signer, share] : shares[serial]) {
      if (!scheme.verify_share(to_bytes(cert), signer, share)) {
        std::cerr << "invalid share from replica " << signer << "\n";
        return 1;
      }
    }
    const Bytes signature = scheme.combine(to_bytes(cert), shares[serial]);
    const bool ok = scheme.verify(to_bytes(cert), signature);
    std::cout << cert << "\n  threshold signature: "
              << (ok ? "VALID" : "INVALID") << " (" << signature.size()
              << "-byte standard RSA signature)\n";
    if (!ok) return 1;

    // Tampered certificates must not verify.
    if (scheme.verify(to_bytes(cert + "x"), signature)) {
      std::cerr << "forged certificate verified — broken!\n";
      return 1;
    }
  }
  std::cout << "certificates issued under the distributed CA key; "
               "no single replica ever held the signing key\n";
  return 0;
}
