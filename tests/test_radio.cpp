// Unit tests for the radio channel: delivery, range, and the BlueHoc-style
// collision rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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

TEST_F(RadioTest, PageNamespaceHopsHearOnlyTheirOwnHopFlatAndGrid) {
  // One page namespace's listeners share one state across its hops. Each
  // hop holds three listeners in range, registered in an order that is
  // neither their address order nor their delivery order, and two just past
  // the 10 m rim (in cells the grid visits). A packet on one hop reaches
  // only that hop's three, in (listen start, address, seq) order, and only
  // that hop's two misses count as out of range.
  struct Run {
    std::vector<std::vector<std::uint64_t>> order;  // per transmission
    std::vector<std::uint64_t> out_of_range;        // cumulative
  };
  const std::uint32_t hops[] = {2, 9, 30};
  const auto run = [&hops](bool grid) {
    sim::Simulator s;
    Rng r{5};
    ChannelConfig c;
    if (grid) c.grid_threshold = 0;
    RadioChannel ch(s, r, c);
    Run out;
    std::vector<std::uint64_t> heard;
    std::vector<std::unique_ptr<TestDevice>> devs;
    const auto listen = [&](std::uint32_t hop, std::uint64_t addr, Vec2 pos) {
      devs.push_back(std::make_unique<TestDevice>(addr, pos));
      ch.start_listen(devs.back().get(), RfChannel{21, hop},
                      [&heard, addr](const Packet&, RfChannel, SimTime) {
                        heard.push_back(addr);
                      });
    };
    for (std::uint64_t h = 0; h < 3; ++h) {
      const std::uint64_t base = 0x100 * (h + 1);
      listen(hops[h], base + 0x30, {3, 0});
      listen(hops[h], base + 0x90, {10.5, 0});  // out of range
      listen(hops[h], base + 0x10, {0, -4});    // same instant, lower addr
    }
    s.schedule(Duration::micros(2), [&] {
      for (std::uint64_t h = 0; h < 3; ++h) {
        const std::uint64_t base = 0x100 * (h + 1);
        listen(hops[h], base + 0x05, {-6, 6});  // later start, lowest addr
        listen(hops[h], base + 0x95, {0, -10.5});  // out of range
      }
    });
    TestDevice tx(0x999, {0, 0});
    for (int k = 0; k < 3; ++k) {
      s.schedule(Duration::micros(10 + 100 * k), [&, k] {
        ch.transmit(&tx, RfChannel{21, hops[k]}, id_packet(0x999));
      });
      s.schedule(Duration::micros(90 + 100 * k), [&] {
        out.order.push_back(heard);
        heard.clear();
        out.out_of_range.push_back(
            s.obs().metrics.counter_value("radio.out_of_range"));
      });
    }
    s.run();
    return out;
  };
  for (const bool grid : {false, true}) {
    const Run got = run(grid);
    ASSERT_EQ(got.order.size(), 3u);
    for (std::uint64_t h = 0; h < 3; ++h) {
      const std::uint64_t base = 0x100 * (h + 1);
      EXPECT_EQ(got.order[h], (std::vector<std::uint64_t>{
                                  base + 0x10, base + 0x30, base + 0x05}))
          << "grid " << grid << " hop " << hops[h];
      EXPECT_EQ(got.out_of_range[h], 2 * (h + 1)) << "grid " << grid;
    }
  }
}

TEST_F(RadioTest, PageBlockLivesWhileAnythingUsesIt) {
  // A page namespace's block is kept alive by each of a live listen, an
  // in-flight transmission, a pending occupancy subscription and an
  // unexpired hold alone, and released once the last of them goes.
  RadioChannel ch(sim, rng, cfg);
  const RfChannel hop{33, 4};
  TestDevice tx(1), rx(2);
  EXPECT_EQ(ch.page_block_count(), 0u);

  // A listen alone.
  ListenId l = ch.start_listen(&rx, hop, nullptr, ListenKind::kPassive);
  EXPECT_EQ(ch.page_block_count(), 1u);
  ch.stop_listen(l);
  EXPECT_EQ(ch.page_block_count(), 0u);

  // A transmission alone: it lives until its delivery has run.
  ch.transmit(&tx, hop, id_packet(1));
  EXPECT_EQ(ch.page_block_count(), 1u);
  sim.run();
  EXPECT_EQ(ch.page_block_count(), 0u);

  // A subscription alone, cancelled; a cancel of a released block's
  // subscription is a no-op that builds nothing.
  OccupancySubId sub =
      ch.subscribe_occupancy(hop.ns, kAllHops, {0, 0}, [](SimTime) {});
  EXPECT_EQ(ch.page_block_count(), 1u);
  ch.unsubscribe_occupancy(hop.ns, sub);
  EXPECT_EQ(ch.page_block_count(), 0u);
  ch.unsubscribe_occupancy(hop.ns, sub);
  EXPECT_FALSE(ch.occupied(hop.ns, kAllHops, {0, 0}));
  EXPECT_EQ(ch.page_block_count(), 0u);

  // A hold alone: alive until it expires; occupied() then releases it.
  ch.occupancy_hold(hop, {0, 0}, sim.now() + Duration::micros(100));
  EXPECT_EQ(ch.page_block_count(), 1u);
  EXPECT_TRUE(ch.occupied(hop.ns, kAllHops, {0, 0}));
  sim.run_until(sim.now() + Duration::micros(100));
  // `until` is exclusive.
  EXPECT_FALSE(ch.occupied(hop.ns, kAllHops, {0, 0}));
  EXPECT_EQ(ch.page_block_count(), 0u);

  // All four at once, removed one at a time: the block stays until the last.
  const SimTime t0 = sim.now();
  l = ch.start_listen(&rx, hop);
  sub = ch.subscribe_occupancy(hop.ns, kAllHops, {500, 0},  // far
                               [](SimTime) {});
  ch.occupancy_hold(hop, {0, 0}, t0 + Duration::micros(300));
  ch.transmit(&tx, hop, id_packet(1));  // lands at t0 + 68 us
  ch.stop_listen(l);
  EXPECT_EQ(ch.page_block_count(), 1u);  // flight, subscription, hold
  ch.unsubscribe_occupancy(hop.ns, sub);
  EXPECT_EQ(ch.page_block_count(), 1u);  // flight, hold
  sim.run_until(t0 + Duration::micros(200));
  EXPECT_EQ(ch.page_block_count(), 1u);  // the hold
  EXPECT_TRUE(ch.occupied(hop.ns, kAllHops, {0, 0}));
  sim.run_until(t0 + Duration::micros(300));
  EXPECT_EQ(ch.page_block_count(), 1u);  // expired, but nothing checked yet
  EXPECT_FALSE(ch.occupied(hop.ns, kAllHops, {0, 0}));
  EXPECT_EQ(ch.page_block_count(), 0u);
  EXPECT_TRUE(rx.received.empty());  // the listen stopped mid-packet

  // Other namespaces keep their own blocks.
  ch.start_listen(&rx, RfChannel{34, 4});
  ch.start_listen(&rx, RfChannel{35, 4});
  EXPECT_EQ(ch.page_block_count(), 2u);
  ch.stop_all_listens(&rx);
  EXPECT_EQ(ch.page_block_count(), 0u);
}

TEST_F(RadioTest, InquiryOccupancyCountsOnlyTheSweptHops) {
  // A sweep on train A (hops 0..15) cannot reach a listen or a hold on a
  // train B hop: neither satisfies occupied() nor fires its subscription.
  // On a swept hop each does. A page namespace counts every hop.
  RadioChannel ch(sim, rng, cfg);
  constexpr HopMask kTrainA = 0x0000'FFFF;
  constexpr HopMask kTrainB = ~kTrainA;
  const Vec2 master{0, 0};
  TestDevice scanner(2, {5, 0});
  std::vector<int> fired;
  const auto subscribe = [&](int tag) {
    return ch.subscribe_occupancy(0, kTrainA, master, [&fired, tag](SimTime) {
      fired.push_back(tag);
    });
  };
  const SimTime until = sim.now() + Duration::micros(400);

  subscribe(1);
  const ListenId off_train = ch.start_listen(&scanner, RfChannel{0, 20});
  ch.occupancy_hold(RfChannel{0, 17}, {5, 0}, until);
  EXPECT_TRUE(fired.empty());
  EXPECT_FALSE(ch.occupied(0, kTrainA, master));
  EXPECT_TRUE(ch.occupied(0, kTrainB, master));
  ch.stop_listen(off_train);
  EXPECT_TRUE(ch.occupied(0, kTrainB, master));  // the hold alone

  // A listen on a swept hop fires the subscription and occupies.
  const ListenId on_train = ch.start_listen(&scanner, RfChannel{0, 15});
  EXPECT_EQ(fired, std::vector<int>{1});
  EXPECT_TRUE(ch.occupied(0, kTrainA, master));
  ch.stop_listen(on_train);
  EXPECT_FALSE(ch.occupied(0, kTrainA, master));

  // So does a hold on a swept hop; one on the other train does not.
  subscribe(2);
  ch.occupancy_hold(RfChannel{0, 16}, {5, 0}, until);
  EXPECT_EQ(fired, std::vector<int>{1});
  ch.occupancy_hold(RfChannel{0, 0}, {5, 0}, until);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_TRUE(ch.occupied(0, kTrainA, master));
  sim.run_until(until);
  EXPECT_FALSE(ch.occupied(0, kTrainA, master));
  EXPECT_FALSE(ch.occupied(0, kTrainB, master));

  // A page namespace ignores the mask: a listen on any hop counts.
  const RfChannel page_hop{9, 20};
  int page_fired = 0;
  ch.subscribe_occupancy(9, kTrainA, master,
                         [&page_fired](SimTime) { ++page_fired; });
  const ListenId page_listen = ch.start_listen(&scanner, page_hop);
  EXPECT_EQ(page_fired, 1);
  EXPECT_TRUE(ch.occupied(9, kTrainA, master));
  ch.stop_listen(page_listen);
}

TEST_F(RadioTest, InquiryListensCountWithinListenReachHoldsWithinFfRadius) {
  // Default 10 m range and 2 m slack: a triggering listen of the inquiry
  // namespace counts within listen_reach() = 12 m, because a skipped ID
  // must reach it; a hold counts within ff_radius() = 22 m, because its FHS
  // can meet a skipped ID at another master's passive window.
  RadioChannel ch(sim, rng, cfg);
  ASSERT_DOUBLE_EQ(ch.listen_reach(), 12.0);
  ASSERT_DOUBLE_EQ(ch.ff_radius(), 22.0);
  const RfChannel hop{0, 3};
  const Vec2 master{0, 0};
  TestDevice beyond(2, {12.1, 0}), within(3, {0, 11.9});
  int fired = 0;
  const auto subscribe = [&] {
    ch.subscribe_occupancy(0, kAllHops, master,
                           [&fired](SimTime) { ++fired; });
  };

  subscribe();
  const ListenId far_listen = ch.start_listen(&beyond, hop);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(ch.occupied(0, kAllHops, master));
  const ListenId near_listen = ch.start_listen(&within, hop);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(ch.occupied(0, kAllHops, master));
  ch.stop_listen(near_listen);
  EXPECT_FALSE(ch.occupied(0, kAllHops, master));

  subscribe();
  const SimTime until = sim.now() + Duration::micros(400);
  ch.occupancy_hold(hop, {22.1, 0}, until);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(ch.occupied(0, kAllHops, master));
  ch.occupancy_hold(hop, {-15.0, 15.0}, until);  // 21.2 m
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(ch.occupied(0, kAllHops, master));

  // In a page namespace the listen beyond 12 m counts (within 22 m).
  const ListenId page_listen = ch.start_listen(&beyond, RfChannel{9, 3});
  EXPECT_TRUE(ch.occupied(9, kAllHops, master));
  ch.stop_listen(page_listen);
  ch.stop_listen(far_listen);
}

TEST_F(RadioTest, RebuiltPageBlockDeliversCollidesAndReportsOccupancy) {
  RadioChannel ch(sim, rng, cfg);
  const RfChannel hop{41, 7};
  TestDevice tx1(1, {0, 0}), tx2(2, {4, 0}), rx(3, {2, 0}), rx2(4, {2, 1});
  const Vec2 near{1, 0};
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    ASSERT_EQ(ch.page_block_count(), 0u);
    EXPECT_FALSE(ch.occupied(hop.ns, kAllHops, near));
    rx.received.clear();
    rx2.received.clear();
    const std::uint64_t collisions0 =
        sim.obs().metrics.counter_value("radio.collisions");

    // A clean delivery, then two overlapping packets that collide.
    ListenId l = ch.start_listen(&rx, hop);
    EXPECT_TRUE(ch.occupied(hop.ns, kAllHops, near));
    ch.transmit(&tx1, hop, id_packet(1));
    sim.run();
    EXPECT_EQ(rx.received.size(), 1u);
    ch.transmit(&tx1, hop, id_packet(1));
    sim.schedule(Duration::micros(30), [&] {
      ch.transmit(&tx2, hop, id_packet(2));
    });
    sim.run();
    EXPECT_EQ(rx.received.size(), 1u);
    EXPECT_EQ(sim.obs().metrics.counter_value("radio.collisions"),
              collisions0 + 2);

    // The namespace's last listen stops while a 366 us FHS is in flight:
    // the block and its queue stay, so a packet that starts under the FHS
    // still collides with it at a listener that tuned in after the FHS
    // began (and so cannot receive the FHS itself).
    Packet fhs = id_packet(1);
    fhs.type = PacketType::kFhs;
    ch.transmit(&tx1, hop, fhs);  // [now, now + 366 us)
    sim.schedule(Duration::micros(20), [&] {
      ch.stop_listen(l);
      EXPECT_EQ(ch.page_block_count(), 1u);
      EXPECT_FALSE(ch.occupied(hop.ns, kAllHops, near));
    });
    sim.schedule(Duration::micros(30), [&] {
      l = ch.start_listen(&rx2, hop);
    });
    sim.schedule(Duration::micros(100), [&] {
      ch.transmit(&tx2, hop, id_packet(2));  // overlaps the FHS
    });
    sim.run();
    EXPECT_EQ(rx.received.size(), 1u);
    EXPECT_TRUE(rx2.received.empty());
    EXPECT_EQ(sim.obs().metrics.counter_value("radio.collisions"),
              collisions0 + 3);

    // Once the last pending delivery has run, nothing queued can overlap a
    // later packet: after the listen stops the block goes, and a packet
    // sent to the rebuilt one is clean.
    ch.stop_listen(l);
    EXPECT_EQ(ch.page_block_count(), 0u);
    l = ch.start_listen(&rx2, hop);
    ch.transmit(&tx2, hop, id_packet(2));
    sim.run();
    EXPECT_EQ(rx2.received.size(), 1u);
    ch.stop_listen(l);
  }
}

TEST_F(RadioTest, ReleaseChecksInsideADeliveryWaitForItsEnd) {
  // A handler stops the last listens of its own namespace and of another
  // one: both blocks go once the delivery ends, and the rest of the
  // delivery still reaches the later candidates.
  RadioChannel ch(sim, rng, cfg);
  const RfChannel hop{51, 2}, other{52, 9};
  TestDevice tx(1), a(2), b(3), c(4);
  std::vector<std::uint64_t> heard;
  ListenId la = 0, lb = 0, lc = 0;
  la = ch.start_listen(&a, hop, [&](const Packet&, RfChannel, SimTime) {
    heard.push_back(2);
    ch.stop_listen(la);
    ch.stop_listen(lb);
    ch.stop_listen(lc);
    EXPECT_EQ(ch.page_block_count(), 2u);
  });
  lb = ch.start_listen(&b, hop, [&](const Packet&, RfChannel, SimTime) {
    heard.push_back(3);
  });
  lc = ch.start_listen(&c, other);
  ch.transmit(&tx, hop, id_packet(1));
  EXPECT_EQ(ch.page_block_count(), 2u);
  sim.run();
  EXPECT_EQ(heard, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(ch.page_block_count(), 0u);
  EXPECT_EQ(ch.listen_count(&a) + ch.listen_count(&b) + ch.listen_count(&c),
            0u);
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

TEST_F(RadioTest, RangeIsJudgedAtDeliveryNotAtListenStart) {
  // Shadow and seam teleports move devices while they listen, so the range
  // test reads positions when the packet ends, not when the listen began.
  RadioChannel ch(sim, rng, cfg);
  TestDevice tx(1, {0, 0});
  TestDevice comer(2, {200, 0});  // far away at start_listen
  TestDevice leaver(3, {5, 0});   // in range at start_listen
  ch.start_listen(&comer, kCh);
  ch.start_listen(&leaver, kCh);
  ch.transmit(&tx, kCh, id_packet(1));  // 68 us on air
  sim.schedule(Duration::micros(10), [&] {
    comer.pos = {5, 0};
    leaver.pos = {200, 0};
  });
  sim.run();
  EXPECT_EQ(comer.received.size(), 1u);
  EXPECT_TRUE(leaver.received.empty());
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.out_of_range"), 1u);
  EXPECT_EQ(sim.obs().metrics.counter_value("radio.deliveries"), 1u);
}

TEST_F(RadioTest, OnlyInRangeListenersReceiveInOrderFlatAndGrid) {
  // 40 listeners share one channel and 3 are in range of the sender. The 3
  // registered in an order that is neither their address order nor their
  // delivery order: deliveries go by (listen start, address, registration
  // seq). The flat channel range-tests all 37 others; the grid delivers
  // the same 3 in the same order while visiting only nearby cells.
  struct Run {
    std::vector<std::uint64_t> order;
    std::uint64_t out_of_range;
  };
  const auto run = [](bool grid) {
    sim::Simulator s;
    Rng r{3};
    ChannelConfig c;  // 40 listens stay flat under the default threshold
    if (grid) c.grid_threshold = 0;
    RadioChannel ch(s, r, c);
    std::vector<std::uint64_t> order;
    std::vector<std::unique_ptr<TestDevice>> devs;
    const auto listen = [&](std::uint64_t addr, Vec2 pos) {
      devs.push_back(std::make_unique<TestDevice>(addr, pos));
      ch.start_listen(devs.back().get(), kCh,
                      [&order, addr](const Packet&, RfChannel, SimTime) {
                        order.push_back(addr);
                      });
    };
    // Out of range: from just past the 10 m rim (cells the grid visits) out
    // to hundreds of metres, with addresses interleaving the in-range ones.
    const auto far = [](int i) {
      const double d = i < 12 ? 10.05 + 0.4 * i : 30.0 + 9.0 * i;
      return Vec2{i % 2 == 0 ? d : -d, i % 3 == 0 ? 0.0 : 0.5};
    };
    int next_far = 0;
    for (int i = 0; i < 12; ++i) listen(0x400 + 16 * i, far(next_far++));
    listen(0x300, {3, 0});  // in range
    for (int i = 0; i < 12; ++i) listen(0x080 + 16 * i, far(next_far++));
    listen(0x100, {0, -4});  // in range; same instant, lower address
    s.schedule(Duration::micros(2), [&] {
      for (int i = 0; i < 13; ++i) listen(0x010 + 16 * i, far(next_far++));
      listen(0x050, {-6, 6});  // in range; later start, lowest address
    });
    TestDevice tx(0x999, {0, 0});
    s.schedule(Duration::micros(5), [&] {
      ch.transmit(&tx, kCh, id_packet(0x999));
    });
    s.run();
    EXPECT_EQ(devs.size(), 40u);
    return Run{order, s.obs().metrics.counter_value("radio.out_of_range")};
  };
  const Run flat = run(false);
  const Run grid = run(true);
  const std::vector<std::uint64_t> want = {0x100, 0x300, 0x050};
  EXPECT_EQ(flat.order, want);
  EXPECT_EQ(flat.out_of_range, 37u);
  EXPECT_EQ(grid.order, want);
  EXPECT_LT(grid.out_of_range, 37u);  // far cells are never visited
}

TEST_F(RadioTest, RandomListenChurnMatchesModel) {
  // Seeded churn of triggering and passive listens held by eight static
  // devices on two inquiry hops (one per train), one hop of page namespace
  // 9 and three hops of page namespace 13, with occupancy holds and one-shot
  // subscriptions over three hop masks, against a brute-force model of
  // every live listen, hold and pending subscription. Stops come one at a
  // time, per device, with stale ids, and from handlers in the middle of a
  // delivery; holds expire through occupied(); the busiest channel crosses
  // grid_threshold mid-run and migrates to the grid; namespace 13 is used
  // sparsely, so its block is released and rebuilt many times. After every
  // operation the listen counts, occupied() at probe points under each
  // mask, the live page blocks, the subscriptions fired (which, and in what
  // order) and the receivers of a probe transmission (set and order) must
  // match the model. The model's occupancy rule is occupied()'s: in the
  // inquiry namespace a point counts only on a masked hop, a listen within
  // listen_reach() and a hold within ff_radius(); in a page namespace every
  // point counts within ff_radius().
  cfg.grid_threshold = 12;
  RadioChannel ch(sim, rng, cfg);
  Rng ops{0xC0FFEE};
  const RfChannel kBusy{0, 5}, kQuiet{0, 22}, kPage{9, 3};
  // Train A, train B, and the train a pager centred on hop 20 sweeps.
  const HopMask kMasks[] = {0x0000'FFFF, 0xFFFF'0000, 0x0FFF'F000};
  const RfChannel channels[] = {kBusy, kBusy, kBusy, kBusy, kQuiet, kPage};
  const RfChannel kSparse[] = {{13, 1}, {13, 4}, {13, 17}};
  const auto pick_channel = [&] {
    if (ops.uniform(16) == 0) return kSparse[ops.uniform(std::size(kSparse))];
    return channels[ops.uniform(std::size(channels))];
  };
  std::vector<std::unique_ptr<TestDevice>> devs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    devs.push_back(std::make_unique<TestDevice>(
        0x100 - 16 * i, Vec2{7.0 * static_cast<double>(i), 0.5 * i}));
  }

  struct Live {
    ListenId id;
    TestDevice* dev;
    RfChannel ch;
    ListenKind kind;
    SimTime since;
    std::uint64_t seq;
  };
  struct Hold {
    RfChannel ch;
    Vec2 pos;
    SimTime until;
  };
  struct Sub {
    OccupancySubId id;
    std::uint32_t ns;
    HopMask hops;
    Vec2 pos;
    int tag;
  };
  std::vector<Live> live;
  std::vector<ListenId> dead;
  std::vector<Hold> holds;
  std::vector<Sub> subs;      // pending, in subscription order
  std::vector<Sub> all_subs;  // every one issued, for (stale) cancels
  std::vector<int> fired;     // tags the radio fired, in order
  std::vector<std::uint64_t> got;  // seqs a probe reached, in order
  std::uint64_t next_seq = 0, handler_stops = 0, stale_stops = 0;
  std::uint64_t stop_alls = 0, max_busy = 0, max_quiet = 0, cancels = 0;
  // Subscriptions the model fired, and the ones it kept although the point
  // lay within ff_radius(): on an unmasked hop, or a listen beyond
  // listen_reach().
  std::uint64_t model_fired = 0, kept_by_hop = 0, kept_by_radius = 0;
  std::size_t busy_migrated_at = 0;

  const auto forget = [&](ListenId id) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].id == id) {
        dead.push_back(id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  };
  const auto stop_one = [&] {
    if (live.empty()) return;
    const ListenId id = live[ops.uniform(live.size())].id;
    ch.stop_listen(id);
    forget(id);
  };
  const auto stop_device = [&](TestDevice* d) {
    ch.stop_all_listens(d);
    for (std::size_t i = live.size(); i-- > 0;) {
      if (live[i].dev == d) forget(live[i].id);
    }
    ++stop_alls;
  };
  const double ff = ch.ff_radius();
  const double reach = ch.listen_reach();
  ASSERT_DOUBLE_EQ(ff, 22.0);
  ASSERT_DOUBLE_EQ(reach, 12.0);
  // Whether a sweep drumming `hops` of `ns` from `at` counts a trigger
  // point on `c` at `pos`: the rule occupied() documents.
  const auto model_counts = [&](std::uint32_t ns, HopMask hops, Vec2 at,
                                RfChannel c, Vec2 pos, bool hold) {
    if (c.ns != ns) return false;
    const double r = ns != 0 || hold ? ff : reach;
    if (distance_sq(at, pos) > r * r) return false;
    return ns != 0 || (hops >> c.index & 1u) != 0;
  };
  // Removes and returns, in subscription order, the tags of the pending
  // subscriptions a trigger point on `c` at `pos` satisfies.
  const auto model_fire = [&](RfChannel c, Vec2 pos, bool hold) {
    std::vector<int> tags;
    for (std::size_t i = 0; i < subs.size();) {
      const Sub& sb = subs[i];
      if (model_counts(sb.ns, sb.hops, sb.pos, c, pos, hold)) {
        tags.push_back(sb.tag);
        subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
        ++model_fired;
        continue;
      }
      if (sb.ns == c.ns && distance_sq(sb.pos, pos) <= ff * ff) {
        ++((sb.hops >> c.index & 1u) == 0 ? kept_by_hop : kept_by_radius);
      }
      ++i;
    }
    return tags;
  };
  const auto start = [&] {
    TestDevice* d = devs[ops.uniform(devs.size())].get();
    const RfChannel c = pick_channel();
    const ListenKind kind =
        ops.uniform(3) == 0 ? ListenKind::kPassive : ListenKind::kTriggering;
    const bool stops = ops.uniform(8) == 0;
    const std::uint64_t seq = next_seq++;
    const std::vector<int> want_fired =
        kind == ListenKind::kTriggering ? model_fire(c, d->pos, false)
                                        : std::vector<int>{};
    fired.clear();
    const ListenId id = ch.start_listen(
        d, c,
        [&, seq, stops](const Packet&, RfChannel, SimTime) {
          got.push_back(seq);
          if (!stops || live.empty()) return;
          ++handler_stops;
          if (ops.uniform(4) == 0) {
            stop_device(live[ops.uniform(live.size())].dev);
          } else {
            stop_one();
          }
        },
        kind);
    live.push_back(Live{id, d, c, kind, sim.now(), seq});
    ASSERT_EQ(fired, want_fired);
  };

  const auto model_occupied = [&](std::uint32_t ns, HopMask hops, Vec2 pos) {
    for (const Live& l : live) {
      if (l.kind == ListenKind::kTriggering &&
          model_counts(ns, hops, pos, l.ch, l.dev->pos, false)) {
        return true;
      }
    }
    for (const Hold& h : holds) {
      if (h.until > sim.now() &&
          model_counts(ns, hops, pos, h.ch, h.pos, true)) {
        return true;
      }
    }
    return false;
  };
  // A page block is live while any listen, pending subscription or
  // unexpired hold uses it (no transmission is in flight between
  // operations). occupied() releases a block whose last hold expired, so
  // after check()'s probes the count is exact.
  const auto model_block_live = [&](std::uint32_t ns) {
    for (const Live& l : live) {
      if (l.ch.ns == ns) return true;
    }
    for (const Sub& sb : subs) {
      if (sb.ns == ns) return true;
    }
    for (const Hold& h : holds) {
      if (h.ch.ns == ns && h.until > sim.now()) return true;
    }
    return false;
  };
  bool sparse_live = false;
  std::uint64_t sparse_releases = 0;
  const auto check = [&](std::size_t step) {
    for (const auto& d : devs) {
      std::size_t n = 0;
      for (const Live& l : live) n += l.dev == d.get() ? 1 : 0;
      ASSERT_EQ(ch.listen_count(d.get()), n) << "step " << step;
    }
    for (const std::uint32_t ns : {0u, 9u, 13u}) {
      for (const HopMask hops : kMasks) {
        for (const double x : {0.0, 12.5, 25.0, 37.5, 50.0, 100.0}) {
          const Vec2 p{x, 1.0};
          ASSERT_EQ(ch.occupied(ns, hops, p), model_occupied(ns, hops, p))
              << "step " << step << " ns " << ns << " hops " << hops
              << " x " << x;
        }
      }
    }
    ASSERT_EQ(ch.live_subscriptions(), subs.size()) << "step " << step;
    const bool sparse = model_block_live(13);
    ASSERT_EQ(ch.page_block_count(),
              (model_block_live(9) ? 1u : 0u) + (sparse ? 1u : 0u))
        << "step " << step;
    if (sparse_live && !sparse) ++sparse_releases;
    sparse_live = sparse;
  };
  TestDevice probe(0x999);
  const auto probe_delivery = [&](std::size_t step) {
    const RfChannel c = pick_channel();
    probe.pos = {static_cast<double>(ops.uniform(57)), 0.0};
    std::vector<Live> want;
    for (const Live& l : live) {
      if (l.ch == c && distance_sq(l.dev->pos, probe.pos) <= 100.0) {
        want.push_back(l);
      }
    }
    std::sort(want.begin(), want.end(), [](const Live& a, const Live& b) {
      if (a.since != b.since) return a.since < b.since;
      if (a.dev->a.raw() != b.dev->a.raw()) {
        return a.dev->a.raw() < b.dev->a.raw();
      }
      return a.seq < b.seq;
    });
    std::vector<std::uint64_t> want_seqs;
    for (const Live& l : want) want_seqs.push_back(l.seq);
    got.clear();
    ch.transmit(&probe, c, id_packet(0x999));
    sim.run();
    ASSERT_EQ(got, want_seqs) << "step " << step;
  };

  for (std::size_t step = 0; step < 3000; ++step) {
    const std::uint64_t r = ops.uniform(100);
    if (r < 42) {
      ASSERT_NO_FATAL_FAILURE(start()) << "step " << step;
    } else if (r < 54) {
      stop_one();
    } else if (r < 58) {
      if (!dead.empty()) {
        ch.stop_listen(dead[ops.uniform(dead.size())]);  // a no-op
        ++stale_stops;
      }
    } else if (r < 60) {
      stop_device(devs[ops.uniform(devs.size())].get());
    } else if (r < 74) {
      const RfChannel c = pick_channel();
      const Vec2 pos{static_cast<double>(ops.uniform(60)), 0.0};
      const SimTime until =
          sim.now() + Duration::micros(1 + static_cast<std::int64_t>(
                                               ops.uniform(3000)));
      const std::vector<int> want_fired = model_fire(c, pos, true);
      fired.clear();
      ch.occupancy_hold(c, pos, until);
      holds.push_back(Hold{c, pos, until});
      ASSERT_EQ(fired, want_fired) << "step " << step;
    } else if (r < 79) {
      const std::uint32_t ns = pick_channel().ns;
      const Vec2 pos{static_cast<double>(ops.uniform(60)), 0.0};
      const int tag = static_cast<int>(all_subs.size());
      const HopMask hops = kMasks[all_subs.size() % std::size(kMasks)];
      const OccupancySubId id = ch.subscribe_occupancy(
          ns, hops, pos, [&fired, tag](SimTime) { fired.push_back(tag); });
      subs.push_back(Sub{id, ns, hops, pos, tag});
      all_subs.push_back(subs.back());
    } else if (r < 84) {
      if (!all_subs.empty()) {
        // Often one still pending, sometimes one that already fired or was
        // cancelled (a no-op), possibly on a released block.
        const Sub sb = ops.uniform(2) == 0 && !subs.empty()
                           ? subs[ops.uniform(subs.size())]
                           : all_subs[ops.uniform(all_subs.size())];
        ch.unsubscribe_occupancy(sb.ns, sb.id);
        for (std::size_t i = 0; i < subs.size(); ++i) {
          if (subs[i].id == sb.id) {
            subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
            ++cancels;
            break;
          }
        }
      }
    } else {
      sim.run_until(sim.now() + Duration::micros(static_cast<std::int64_t>(
                                    ops.uniform(1500))));
    }
    std::uint64_t busy = 0, quiet = 0;
    for (const Live& l : live) {
      busy += l.ch == kBusy ? 1 : 0;
      quiet += l.ch == kQuiet ? 1 : 0;
    }
    if (busy > cfg.grid_threshold && busy_migrated_at == 0) {
      busy_migrated_at = step;
    }
    max_busy = std::max(max_busy, busy);
    max_quiet = std::max(max_quiet, quiet);
    ASSERT_NO_FATAL_FAILURE(check(step));
    ASSERT_NO_FATAL_FAILURE(probe_delivery(step));
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
  for (const auto& d : devs) stop_device(d.get());
  for (const Sub& sb : subs) ch.unsubscribe_occupancy(sb.ns, sb.id);
  subs.clear();
  sim.run_until(sim.now() + Duration::millis(4));  // every hold has expired
  check(3000);
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(ch.page_block_count(), 0u);

  // The stream exercised what it claims to.
  EXPECT_GT(busy_migrated_at, 20u);    // the busy channel migrated mid-run
  EXPECT_LE(max_quiet, cfg.grid_threshold);  // the quiet one stayed flat
  EXPECT_GT(max_busy, 2 * cfg.grid_threshold);
  EXPECT_GT(handler_stops, 100u);
  EXPECT_GT(stale_stops, 50u);
  EXPECT_GT(stop_alls, 100u);
  EXPECT_GT(sparse_releases, 20u);  // namespace 13's block came and went
  EXPECT_GT(cancels, 20u);
  EXPECT_GT(all_subs.size() - cancels, 50u);  // fired, not cancelled
  EXPECT_GT(model_fired, 50u);
  EXPECT_GT(kept_by_hop, 20u);     // the hop mask kept a master parked
  EXPECT_GT(kept_by_radius, 20u);  // so did the listen radius
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

TEST_F(RadioTest, RangeIncreaseFiresEveryLiveSubscriptionOnceInOrder) {
  // Churn one-shot occupancy subscriptions across 200 namespaces (the
  // inquiry one and 199 page ones), far past the 64-entry threshold at
  // which the global subscription order compacts itself: in each, a
  // trigger point fires two, two are cancelled first, and one (out of the
  // trigger's reach) stays pending.
  RadioChannel ch(sim, rng, cfg);
  std::vector<int> fired;
  auto record = [&fired](int tag) {
    return [&fired, tag](SimTime) { fired.push_back(tag); };
  };
  const Vec2 near{0.0, 0.0};
  const Vec2 far{500.0, 0.0};  // far beyond ff_radius() (22 m)
  std::vector<int> fired_by_triggers;
  std::vector<int> pending;
  int tag = 0;
  for (std::uint32_t ns = 0; ns < 200; ++ns) {
    const int a = tag++, b = tag++, c = tag++, d = tag++, e = tag++;
    ch.subscribe_occupancy(ns, kAllHops, near, record(a));
    const OccupancySubId cancel_b =
        ch.subscribe_occupancy(ns, kAllHops, near, record(b));
    ch.subscribe_occupancy(ns, kAllHops, far, record(c));
    const OccupancySubId cancel_d =
        ch.subscribe_occupancy(ns, kAllHops, far, record(d));
    ch.subscribe_occupancy(ns, kAllHops, near, record(e));
    ch.unsubscribe_occupancy(ns, cancel_b);
    ch.unsubscribe_occupancy(ns, cancel_d);
    ch.unsubscribe_occupancy(ns, cancel_d);  // already gone: a no-op
    ch.occupancy_hold(RfChannel{ns, 3}, near, sim.now() + Duration::millis(1));
    fired_by_triggers.insert(fired_by_triggers.end(), {a, e});
    pending.push_back(c);
    ASSERT_EQ(ch.live_subscriptions(), pending.size()) << "namespace " << ns;
  }
  EXPECT_EQ(fired, fired_by_triggers);

  // A device with a wider range widens ff_radius() under every parked
  // subscriber: exactly the pending ones fire, once each, in subscription
  // order.
  fired.clear();
  TestDevice wide(1);
  wide.range = 30.0;
  ch.transmit(&wide, kCh, id_packet(1));
  EXPECT_EQ(fired, pending);
  EXPECT_EQ(ch.live_subscriptions(), 0u);
  sim.run();
  EXPECT_EQ(fired, pending);
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
