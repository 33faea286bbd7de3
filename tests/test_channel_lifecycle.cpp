// Channel lifecycle edges: idle-wake behaviour, long gaps between sends,
// and sliding-window receive-buffer overflow recovery.
#include <gtest/gtest.h>

#include "core/channel/atomic_channel.hpp"
#include "core/link/sliding_window.hpp"
#include "sim_fixture.hpp"

namespace sintra {
namespace {

using core::AtomicChannel;
using testing::Cluster;

TEST(ChannelLifecycle, WakesFromIdleOnNewSend) {
  Cluster c(4, 1, 0x1dfe);
  auto chans = c.make_protocols<AtomicChannel>(
      [&](core::Environment& env, core::Dispatcher& disp, int) {
        return std::make_unique<AtomicChannel>(env, disp, "idle.ac");
      });
  // Burst 1.
  c.sim.at(0.0, 0, [&] { chans[0]->send(to_bytes("burst1")); });
  ASSERT_TRUE(c.sim.run_until(
      [&] { return chans[2]->deliveries().size() >= 1; }, 4e6));
  const double quiet_until = c.sim.now_ms() + 120000.0;  // 2 idle minutes
  // Burst 2 after the long gap — the channel must restart cleanly.
  c.sim.at(quiet_until, 1, [&] { chans[1]->send(to_bytes("burst2")); });
  ASSERT_TRUE(c.sim.run_until(
      [&] {
        return std::all_of(chans.begin(), chans.end(), [](const auto& ch) {
          return ch->deliveries().size() >= 2;
        });
      },
      quiet_until + 4e6));
  for (const auto& ch : chans) {
    EXPECT_EQ(to_string(ch->deliveries()[0].payload), "burst1");
    EXPECT_EQ(to_string(ch->deliveries()[1].payload), "burst2");
  }
}

TEST(ChannelLifecycle, IdleChannelSendsNothing) {
  Cluster c(4, 1, 0x1dff);
  auto chans = c.make_protocols<AtomicChannel>(
      [&](core::Environment& env, core::Dispatcher& disp, int) {
        return std::make_unique<AtomicChannel>(env, disp, "idle.silent");
      });
  const auto before = c.sim.messages_sent();
  c.sim.run(60000);
  EXPECT_EQ(c.sim.messages_sent(), before)
      << "an idle atomic channel must be network-silent";
}

TEST(ChannelLifecycle, SlidingWindowReceiverBufferOverflowRecovers) {
  // Deliver frames far beyond the receive buffer: they are dropped, but
  // retransmission eventually fills the gap and everything arrives.
  core::SlidingWindowLink::Options opts;
  opts.window = 64;
  opts.max_receive_buffer = 8;

  struct Chan final : core::DatagramChannel {
    std::vector<Bytes> sent;
    std::vector<std::pair<double, std::function<void()>>> timers;
    void send_datagram(Bytes d) override { sent.push_back(std::move(d)); }
    void call_later(double ms, std::function<void()> fn) override {
      timers.emplace_back(ms, std::move(fn));
    }
  };
  Chan ca, cb;
  core::SlidingWindowLink a(ca, 0, 1, to_bytes("0123456789abcdef"), opts);
  core::SlidingWindowLink b(cb, 1, 0, to_bytes("0123456789abcdef"), opts);
  std::vector<std::string> got;
  b.set_deliver_callback([&](Bytes m) { got.push_back(to_string(m)); });

  for (int i = 0; i < 30; ++i) a.send(to_bytes("m" + std::to_string(i)));
  // Deliver sender's frames in REVERSE: the high sequence numbers exceed
  // expected+8 and are dropped.
  auto frames = std::move(ca.sent);
  ca.sent.clear();
  std::reverse(frames.begin(), frames.end());
  for (const auto& f : frames) b.on_datagram(f);
  EXPECT_LT(got.size(), 30u);

  // Retransmission rounds heal everything.
  for (int round = 0; round < 30 && got.size() < 30; ++round) {
    auto timers = std::move(ca.timers);
    ca.timers.clear();
    for (auto& [ms, fn] : timers) fn();
    auto data = std::move(ca.sent);
    ca.sent.clear();
    for (const auto& f : data) b.on_datagram(f);
    auto acks = std::move(cb.sent);
    cb.sent.clear();
    for (const auto& f : acks) a.on_datagram(f);
  }
  ASSERT_EQ(got.size(), 30u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], "m" + std::to_string(i));
  }
}

}  // namespace
}  // namespace sintra
