// Unit tests for the radio channel: delivery, range, and the BlueHoc-style
// collision rule.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "src/baseband/radio.hpp"
#include "src/sim/simulator.hpp"

namespace bips::baseband {
namespace {

struct TestDevice : RadioDevice {
  BdAddr a;
  Vec2 pos;
  double range = 10.0;
  std::vector<Packet> received;

  explicit TestDevice(std::uint64_t raw, Vec2 p = {}) : a(raw), pos(p) {}
  BdAddr addr() const override { return a; }
  Vec2 position() const override { return pos; }
  double range_m() const override { return range; }
  void on_packet(const Packet& p, RfChannel, SimTime) override {
    received.push_back(p);
  }
};

Packet id_packet(std::uint64_t sender) {
  Packet p;
  p.type = PacketType::kId;
  p.sender = BdAddr(sender);
  return p;
}

constexpr RfChannel kCh{0, 5};
constexpr RfChannel kOtherCh{0, 6};

struct RadioTest : ::testing::Test {
  sim::Simulator sim;
  Rng rng{1};
  ChannelConfig cfg;
};

TEST_F(RadioTest, DeliversToListenerOnSameChannel) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx(2);
  ch.start_listen(&rx, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  ASSERT_EQ(rx.received.size(), 1u);
  EXPECT_EQ(rx.received[0].sender.raw(), 1u);
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.deliveries"), 1u);
}

TEST_F(RadioTest, NoDeliveryOnDifferentChannel) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx(2);
  ch.start_listen(&rx, kOtherCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_TRUE(rx.received.empty());
}

TEST_F(RadioTest, NamespaceDistinguishesChannels) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx(2);
  ch.start_listen(&rx, RfChannel{7, 5});
  ch.transmit(&tx, RfChannel{8, 5}, id_packet(1));  // same index, other ns
  sim.run();
  EXPECT_TRUE(rx.received.empty());
}

TEST_F(RadioTest, ListenerTunedMidPacketMissesIt) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx(2);
  ch.transmit(&tx, kCh, id_packet(1));  // starts at t=0, 68 us long
  sim.schedule(Duration::micros(10), [&] { ch.start_listen(&rx, kCh); });
  sim.run();
  EXPECT_TRUE(rx.received.empty());
}

TEST_F(RadioTest, ListenerRegisteredAtExactPacketStartReceives) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx(2);
  ch.start_listen(&rx, kCh);
  ch.transmit(&tx, kCh, id_packet(1));  // same instant: listen first
  sim.run();
  EXPECT_EQ(rx.received.size(), 1u);
}

TEST_F(RadioTest, StoppedListenerMissesPacket) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx(2);
  const ListenId l = ch.start_listen(&rx, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.schedule(Duration::micros(10), [&] { ch.stop_listen(l); });
  sim.run();
  EXPECT_TRUE(rx.received.empty());
}

TEST_F(RadioTest, SenderDoesNotHearItself) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1);
  ch.start_listen(&tx, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_TRUE(tx.received.empty());
}

TEST_F(RadioTest, OutOfRangeIsNotDelivered) {
  // Brute-force mode: every on-channel listener reaches the exact range
  // check, so the miss shows up in the out_of_range stat.
  cfg.spatial_grid = false;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0}), rx(2, {30, 0});  // 30 m apart, range 10 m
  ch.start_listen(&rx, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_TRUE(rx.received.empty());
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.out_of_range"), 1u);
}

TEST_F(RadioTest, GridSkipsFarListenerWithoutDelivery) {
  // With the spatial grid on, a listener far outside the coverage disc is
  // never even visited: no delivery, and no out_of_range count either.
  // Threshold 0 forces the channel into grid mode from the first listen
  // (below the threshold a flat channel scans every listener and the miss
  // would land in out_of_range, as the brute-force test above shows).
  cfg.grid_threshold = 0;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0}), rx(2, {200, 0});
  ch.start_listen(&rx, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_TRUE(rx.received.empty());
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.out_of_range"), 0u);
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.deliveries"), 0u);
}

TEST_F(RadioTest, RangeBoundaryIsInclusive) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0}), rx(2, {10, 0});  // exactly at range
  ch.start_listen(&rx, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_EQ(rx.received.size(), 1u);
}

TEST_F(RadioTest, ZeroDeviceRangeFallsBackToChannelDefault) {
  cfg.default_range_m = 50.0;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0}), rx(2, {30, 0});
  tx.range = 0.0;  // "use default"
  ch.start_listen(&rx, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_EQ(rx.received.size(), 1u);
}

// Two hops of one namespace. Inquiry hops (ns 0) keep a transmission queue
// each; a page namespace's hops share one, so the collision rule must hold
// per hop either way.
struct HopPair {
  const char* name;
  RfChannel hop, other_hop;
};

// Names the case in test listings (ctest shows it in place of the index).
void PrintTo(const HopPair& p, std::ostream* os) { *os << p.name; }

struct RadioHopTest : RadioTest, ::testing::WithParamInterface<HopPair> {};

INSTANTIATE_TEST_SUITE_P(
    Namespaces, RadioHopTest,
    ::testing::Values(HopPair{"inquiry", kCh, kOtherCh},
                      HopPair{"page", RfChannel{7, 5}, RfChannel{7, 6}}));

TEST_P(RadioHopTest, OverlappingSameChannelTransmissionsCollide) {
  const RfChannel hop = GetParam().hop;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx1(1), tx2(2), rx(3);
  ch.start_listen(&rx, hop);
  ch.transmit(&tx1, hop, id_packet(1));
  ch.transmit(&tx2, hop, id_packet(2));  // same instant, same channel
  sim.run();
  EXPECT_TRUE(rx.received.empty());
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.collisions"), 2u);  // both (listener, packet) pairs died
}

TEST_P(RadioHopTest, PartialOverlapAlsoCollides) {
  const RfChannel hop = GetParam().hop;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx1(1), tx2(2), rx(3);
  ch.start_listen(&rx, hop);
  ch.transmit(&tx1, hop, id_packet(1));  // [0, 68us)
  sim.schedule(Duration::micros(30), [&] {
    ch.transmit(&tx2, hop, id_packet(2));  // [30, 98us): overlaps
  });
  sim.run();
  EXPECT_TRUE(rx.received.empty());
}

TEST_P(RadioHopTest, BackToBackTransmissionsDoNotCollide) {
  const RfChannel hop = GetParam().hop;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx1(1), tx2(2), rx(3);
  ch.start_listen(&rx, hop);
  ch.transmit(&tx1, hop, id_packet(1));  // [0, 68)
  sim.schedule(Duration::micros(68), [&] {
    ch.transmit(&tx2, hop, id_packet(2));  // [68, 136): touching, no overlap
  });
  sim.run();
  EXPECT_EQ(rx.received.size(), 2u);
}

TEST_P(RadioHopTest, SimultaneousDifferentChannelsBothDeliver) {
  const HopPair& p = GetParam();
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx1(1), tx2(2), rx1(3), rx2(4);
  ch.start_listen(&rx1, p.hop);
  ch.start_listen(&rx2, p.other_hop);
  ch.transmit(&tx1, p.hop, id_packet(1));
  ch.transmit(&tx2, p.other_hop, id_packet(2));
  sim.run();
  EXPECT_EQ(rx1.received.size(), 1u);
  EXPECT_EQ(rx2.received.size(), 1u);
}

TEST_F(RadioTest, PageHopFhsSurvivesPrunesFromItsNamespacesOtherHops) {
  // Every delivery prunes its queue, and a page namespace's hops share
  // one: deliveries on hop 6 must evict only what has aged out, never the
  // 366 us FHS still in flight on hop 5, which must still collide with an
  // ID that overlaps it there.
  const RfChannel hop{7, 5}, other_hop{7, 6};
  RadioChannel ch(sim, rng, cfg);
  TestDevice fhs_tx(1), id_tx(2), other_tx(3), rx(4), other_rx(5);
  ch.start_listen(&rx, hop);
  ch.start_listen(&other_rx, other_hop);
  ch.transmit(&other_tx, other_hop, id_packet(3));  // [0, 68): ages out
  sim.schedule(Duration::micros(3000), [&] {
    Packet fhs = id_packet(1);
    fhs.type = PacketType::kFhs;
    ASSERT_EQ(fhs.duration(), Duration::micros(366));
    ch.transmit(&fhs_tx, hop, fhs);  // [3000, 3366)
  });
  for (const int at : {3000, 3100, 3200}) {
    sim.schedule(Duration::micros(at), [&] {
      ch.transmit(&other_tx, other_hop, id_packet(3));
    });
  }
  sim.schedule(Duration::micros(3250), [&] {
    ch.transmit(&id_tx, hop, id_packet(2));  // [3250, 3318): overlaps it
  });
  sim.run();
  EXPECT_EQ(other_rx.received.size(), 4u);  // no clash on the other hop
  EXPECT_TRUE(rx.received.empty());  // FHS and ID destroyed each other
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.collisions"), 2u);
}

TEST_F(RadioTest, InterfererOutOfListenerRangeDoesNotCollide) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0}), far(2, {100, 0}), rx(3, {5, 0});
  ch.start_listen(&rx, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  ch.transmit(&far, kCh, id_packet(2));  // 95 m from rx: no interference
  sim.run();
  ASSERT_EQ(rx.received.size(), 1u);
  EXPECT_EQ(rx.received[0].sender.raw(), 1u);
}

TEST_F(RadioTest, CaptureLetsTheMuchCloserSenderWin) {
  cfg.capture = true;
  cfg.capture_ratio = 2.0;
  RadioChannel ch(sim, rng, cfg);
  TestDevice near(1, {1, 0}), far(2, {9, 0}), rx(3, {0, 0});
  ch.start_listen(&rx, kCh);
  ch.transmit(&near, kCh, id_packet(1));
  ch.transmit(&far, kCh, id_packet(2));
  sim.run();
  ASSERT_EQ(rx.received.size(), 1u);  // near one captured
  EXPECT_EQ(rx.received[0].sender.raw(), 1u);
}

TEST_F(RadioTest, PacketErrorRateDropsEverythingAtOne) {
  cfg.packet_error_rate = 1.0;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx(2);
  ch.start_listen(&rx, kCh);
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::millis(i), [&] {
      ch.transmit(&tx, kCh, id_packet(1));
    });
  }
  sim.run();
  EXPECT_TRUE(rx.received.empty());
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.dropped_per"), 10u);
}

TEST_F(RadioTest, PerListenHandlerOverridesDeviceCallback) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx(2);
  int handler_hits = 0;
  ch.start_listen(&rx, kCh,
                  [&](const Packet&, RfChannel, SimTime) { ++handler_hits; });
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_EQ(handler_hits, 1);
  EXPECT_TRUE(rx.received.empty());  // device callback bypassed
}

TEST_F(RadioTest, StopAllListensAndCounting) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice rx(2);
  ch.start_listen(&rx, kCh);
  ch.start_listen(&rx, kOtherCh);
  EXPECT_EQ(ch.listen_count(&rx), 2u);
  ch.stop_all_listens(&rx);
  EXPECT_EQ(ch.listen_count(&rx), 0u);
}

TEST_F(RadioTest, MultipleListenersAllReceive) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx1(2), rx2(3), rx3(4);
  ch.start_listen(&rx1, kCh);
  ch.start_listen(&rx2, kCh);
  ch.start_listen(&rx3, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_EQ(rx1.received.size(), 1u);
  EXPECT_EQ(rx2.received.size(), 1u);
  EXPECT_EQ(rx3.received.size(), 1u);
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.deliveries"), 3u);
}

TEST_F(RadioTest, GridAndFlatDeliverIdentically) {
  // The spatial grid is a pure cull: the same scenario run in brute-force
  // mode and in grid mode must produce byte-identical delivery sequences
  // (receivers, order, and RSSI draws, since RNG consumption tracks the
  // delivery order).
  auto run_mode = [](bool use_grid) {
    sim::Simulator s;
    Rng r{42};
    ChannelConfig c;
    if (use_grid) {
      c.grid_threshold = 0;  // grid from the first listen
    } else {
      c.spatial_grid = false;  // brute force
    }
    RadioChannel ch(s, r, c);
    std::vector<std::unique_ptr<TestDevice>> devs;
    // Deterministic scatter over a 40x40 m area: some in range of the
    // transmitters (range 10 m), most not.
    for (std::uint64_t i = 0; i < 24; ++i) {
      const double x = static_cast<double>((i * 7) % 40);
      const double y = static_cast<double>((i * 13) % 40);
      devs.push_back(std::make_unique<TestDevice>(100 + i, Vec2{x, y}));
      ch.start_listen(devs.back().get(), kCh);
    }
    TestDevice tx1(1, {10, 10}), tx2(2, {30, 30});
    std::vector<std::pair<std::uint64_t, double>> log;
    for (auto& d : devs) {
      TestDevice* dp = d.get();
      // Per-listen handler on a second channel records order + RSSI.
      ch.start_listen(dp, kOtherCh,
                      [&log, dp](const Packet& p, RfChannel, SimTime) {
                        log.emplace_back(dp->a.raw(), p.rssi_dbm);
                      });
    }
    for (int i = 0; i < 8; ++i) {
      s.schedule(Duration::millis(i), [&] {
        ch.transmit(&tx1, kCh, id_packet(1));
        ch.transmit(&tx2, kOtherCh, id_packet(2));
      });
    }
    s.run();
    std::vector<std::uint64_t> order;
    for (auto& d : devs) {
      for (const auto& p : d->received) order.push_back(p.sender.raw());
      order.push_back(d->a.raw());
      order.push_back(d->received.size());
    }
    return std::make_pair(order, log);
  };
  const auto flat = run_mode(false);
  const auto grid = run_mode(true);
  EXPECT_EQ(flat.first, grid.first);
  EXPECT_EQ(flat.second, grid.second);
  EXPECT_FALSE(flat.second.empty());
}

TEST_F(RadioTest, FlatChannelMigratesToGridAndKeepsListeners) {
  // Crossing grid_threshold mid-run migrates a flat channel to cells; the
  // pre-migration listens must keep delivering and remain stoppable.
  cfg.grid_threshold = 4;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0});
  std::vector<std::unique_ptr<TestDevice>> devs;
  std::vector<ListenId> ids;
  for (std::uint64_t i = 0; i < 3; ++i) {
    devs.push_back(std::make_unique<TestDevice>(10 + i, Vec2{1.0 * i, 0}));
    ids.push_back(ch.start_listen(devs.back().get(), kCh));
  }
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  for (auto& d : devs) EXPECT_EQ(d->received.size(), 1u);

  // Three more listens push the count past the threshold -> migration.
  for (std::uint64_t i = 3; i < 6; ++i) {
    devs.push_back(std::make_unique<TestDevice>(10 + i, Vec2{1.0 * i, 0}));
    ids.push_back(ch.start_listen(devs.back().get(), kCh));
  }
  sim.schedule(Duration::millis(1), [&] { ch.transmit(&tx, kCh, id_packet(1)); });
  sim.run();
  for (std::size_t i = 0; i < devs.size(); ++i) {
    EXPECT_EQ(devs[i]->received.size(), i < 3 ? 2u : 1u);
  }

  // Stopping a pre-migration listen must find it in its (migrated) cell.
  ch.stop_listen(ids[0]);
  EXPECT_EQ(ch.listen_count(devs[0].get()), 0u);
  sim.schedule(Duration::millis(2), [&] { ch.transmit(&tx, kCh, id_packet(1)); });
  sim.run();
  EXPECT_EQ(devs[0]->received.size(), 2u);  // no third delivery
  EXPECT_EQ(devs[5]->received.size(), 2u);
}

TEST_F(RadioTest, StopAndStartListensFromHandlerMidDelivery) {
  // A handler may stop another candidate's listen and start new ones while
  // a delivery is in flight. The delivery snapshot must hold: every
  // candidate gathered at packet-end still receives this packet, the
  // stopped listen is gone afterwards, and the freshly started listen's
  // arena slot must not alias a slot the snapshot still references.
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1), rx1(2), rx2(3), rx3(4);
  ListenId id2 = kNoListen;
  int rx1_hits = 0;
  // rx1 registers first, so its handler runs before rx2's delivery.
  ch.start_listen(&rx1, kCh, [&](const Packet&, RfChannel, SimTime) {
    ++rx1_hits;
    ch.stop_listen(id2);         // rx2 is a later candidate of this delivery
    ch.start_listen(&rx3, kCh);  // may reuse rx2's slot -- not mid-delivery
  });
  id2 = ch.start_listen(&rx2, kCh);
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_EQ(rx1_hits, 1);
  EXPECT_EQ(rx2.received.size(), 1u);  // snapshot: still delivered this packet
  EXPECT_EQ(ch.listen_count(&rx2), 0u);
  EXPECT_TRUE(rx3.received.empty());  // tuned in mid-packet at the earliest
  // The next packet reaches rx1 and rx3 but not the stopped rx2.
  ch.transmit(&tx, kCh, id_packet(1));
  sim.run();
  EXPECT_EQ(rx1_hits, 2);
  EXPECT_EQ(rx2.received.size(), 1u);
  EXPECT_EQ(rx3.received.size(), 1u);
}

}  // namespace
}  // namespace bips::baseband

// ---- soft coverage edge (distance-dependent packet error) -----------------

namespace bips::baseband {
namespace {

TEST_F(RadioTest, SoftEdgeLosesMoreAtTheRim) {
  cfg.per_at_edge = 0.9;
  cfg.per_exponent = 4.0;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0});
  TestDevice near(2, {1, 0});   // (1/10)^4 ~ 0: nearly lossless
  TestDevice rim(3, {9.5, 0});  // (9.5/10)^4 ~ 0.81 -> ~73% loss
  ch.start_listen(&near, kCh);
  ch.start_listen(&rim, kCh);
  constexpr int kN = 400;
  for (int i = 0; i < kN; ++i) {
    sim.schedule(Duration::millis(i), [&] {
      ch.transmit(&tx, kCh, id_packet(1));
    });
  }
  sim.run();
  EXPECT_GT(near.received.size(), 0.97 * kN);
  const double rim_rate = static_cast<double>(rim.received.size()) / kN;
  EXPECT_GT(rim_rate, 0.10);
  EXPECT_LT(rim_rate, 0.45);  // expected ~1 - 0.9*0.81 = 0.27
}

TEST_F(RadioTest, SoftEdgeDisabledByDefault) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0}), rim(2, {9.9, 0});
  ch.start_listen(&rim, kCh);
  for (int i = 0; i < 50; ++i) {
    sim.schedule(Duration::millis(i), [&] {
      ch.transmit(&tx, kCh, id_packet(1));
    });
  }
  sim.run();
  EXPECT_EQ(rim.received.size(), 50u);  // hard disc: in range = delivered
}

}  // namespace
}  // namespace bips::baseband

// ---- RSSI model -------------------------------------------------------------

namespace bips::baseband {
namespace {

TEST_F(RadioTest, RssiDecreasesWithDistance) {
  cfg.rssi_sigma_db = 0.0;  // no shadowing: strict monotonicity
  RadioChannel ch(sim, rng, cfg);
  EXPECT_GT(ch.rssi_dbm(1.0), ch.rssi_dbm(5.0));
  EXPECT_GT(ch.rssi_dbm(5.0), ch.rssi_dbm(10.0));
  // 10x the distance costs 25 dB under the exponent-2.5 model.
  EXPECT_NEAR(ch.rssi_dbm(1.0) - ch.rssi_dbm(10.0), 25.0, 1e-9);
}

TEST_F(RadioTest, DeliveredPacketsCarryPlausibleRssi) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0}), near(2, {1, 0}), far(3, {9, 0});
  ch.start_listen(&near, kCh);
  ch.start_listen(&far, kCh);
  for (int i = 0; i < 20; ++i) {
    sim.schedule(Duration::millis(i), [&] {
      ch.transmit(&tx, kCh, id_packet(1));
    });
  }
  sim.run();
  ASSERT_EQ(near.received.size(), 20u);
  ASSERT_EQ(far.received.size(), 20u);
  double near_sum = 0, far_sum = 0;
  for (const auto& p : near.received) near_sum += p.rssi_dbm;
  for (const auto& p : far.received) far_sum += p.rssi_dbm;
  EXPECT_GT(near_sum / 20, far_sum / 20);  // nearer is louder on average
}

}  // namespace
}  // namespace bips::baseband

// ---- cross-set interference -------------------------------------------------

namespace bips::baseband {
namespace {

TEST_F(RadioTest, DisjointSetsNeverClashByDefault) {
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx1(1), tx2(2), rx(3);
  ch.start_listen(&rx, kCh);
  for (int i = 0; i < 200; ++i) {
    sim.schedule(Duration::millis(i), [&] {
      ch.transmit(&tx1, kCh, id_packet(1));
      ch.transmit(&tx2, RfChannel{9, 5}, id_packet(2));  // other set
    });
  }
  sim.run();
  EXPECT_EQ(rx.received.size(), 200u);  // no cross-set losses
}

TEST_F(RadioTest, CrossSetInterferenceClashesProbabilistically) {
  cfg.cross_set_interference = 1.0 / 79.0;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx1(1), tx2(2), rx(3);
  ch.start_listen(&rx, kCh);
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    sim.schedule(Duration::millis(i), [&] {
      ch.transmit(&tx1, kCh, id_packet(1));
      ch.transmit(&tx2, RfChannel{9, 5}, id_packet(2));
    });
  }
  sim.run();
  const double loss =
      1.0 - static_cast<double>(rx.received.size()) / kN;
  EXPECT_NEAR(loss, 1.0 / 79.0, 0.007);
}

TEST_F(RadioTest, CrossSetAtFullRateKillsEverything) {
  cfg.cross_set_interference = 1.0;
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx1(1), tx2(2), rx(3);
  ch.start_listen(&rx, kCh);
  ch.transmit(&tx1, kCh, id_packet(1));
  ch.transmit(&tx2, RfChannel{9, 5}, id_packet(2));
  sim.run();
  EXPECT_TRUE(rx.received.empty());
}

}  // namespace
}  // namespace bips::baseband
