// Unit tests for the building model.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/all_pairs.hpp"
#include "src/mobility/building.hpp"
#include "src/util/rng.hpp"

namespace bips::mobility {
namespace {

TEST(Building, AddRoomAndLookup) {
  Building b;
  const RoomId r = b.add_room("lab", {3, 4});
  EXPECT_EQ(b.room_count(), 1u);
  EXPECT_EQ(b.room(r).name, "lab");
  EXPECT_EQ(b.room(r).center, (Vec2{3, 4}));
  EXPECT_EQ(b.find("lab"), r);
  EXPECT_FALSE(b.find("nope").has_value());
}

TEST(Building, DuplicateRoomNameDies) {
  Building b;
  b.add_room("x", {0, 0});
  EXPECT_DEATH(b.add_room("x", {1, 1}), "duplicate");
}

TEST(Building, ConnectDefaultsToEuclideanDistance) {
  Building b;
  const RoomId a = b.add_room("a", {0, 0});
  const RoomId c = b.add_room("c", {3, 4});
  b.connect(a, c);
  ASSERT_EQ(b.corridors().size(), 1u);
  EXPECT_DOUBLE_EQ(b.corridors()[0].distance, 5.0);
}

TEST(Building, ConnectWithExplicitWalkingDistance) {
  Building b;
  const RoomId a = b.add_room("a", {0, 0});
  const RoomId c = b.add_room("c", {3, 4});
  b.connect(a, c, 12.0);  // around a corner, longer than the crow flies
  EXPECT_DOUBLE_EQ(b.corridors()[0].distance, 12.0);
}

TEST(Building, ToGraphPreservesIdsNamesAndWeights) {
  Building b;
  const RoomId a = b.add_room("a", {0, 0});
  const RoomId c = b.add_room("c", {10, 0});
  b.connect(a, c, 11.0);
  const graph::Graph g = b.to_graph();
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.name(a), "a");
  EXPECT_EQ(g.name(c), "c");
  ASSERT_EQ(g.neighbors(a).size(), 1u);
  EXPECT_DOUBLE_EQ(g.neighbors(a)[0].weight, 11.0);
}

TEST(Building, NearestRoom) {
  Building b;
  b.add_room("a", {0, 0});
  const RoomId c = b.add_room("c", {20, 0});
  EXPECT_EQ(b.nearest_room({14, 0}), c);
  EXPECT_EQ(b.nearest_room({2, 1}), 0u);
}

TEST(Building, NearestRoomWithinRadius) {
  Building b;
  b.add_room("a", {0, 0});
  EXPECT_EQ(b.nearest_room_within({5, 0}, 10.0), 0u);
  EXPECT_EQ(b.nearest_room_within({10, 0}, 10.0), 0u);  // boundary inclusive
  EXPECT_EQ(b.nearest_room_within({15, 0}, 10.0), kNoRoom);
}

// The linear scan nearest_room answers for: strict `<` in RoomId order, so
// of equidistant rooms the lowest id wins.
RoomId brute_force_nearest(const Building& b, Vec2 p) {
  RoomId best = kNoRoom;
  double best_d = std::numeric_limits<double>::infinity();
  for (const Room& r : b.rooms()) {
    const double d = distance_sq(p, r.center);
    if (d < best_d) {
      best_d = d;
      best = r.id;
    }
  }
  return best;
}

// Twelve rooms exactly 10 m from the origin ((6, 8) and kin are exact), added
// in an order that puts the lowest id neither first nor last around the
// circle, plus two rooms sharing one centre and one far outlier.
Building equidistant_rooms() {
  Building b;
  const Vec2 ring[] = {{8, -6}, {0, 10}, {-6, -8}, {10, 0}, {-8, 6},
                       {6, 8},  {0, -10}, {-10, 0}, {8, 6}, {-6, 8},
                       {6, -8}, {-8, -6}};
  for (const Vec2 c : ring) {
    b.add_room("r" + std::to_string(b.room_count()), c);
  }
  b.add_room("twin-a", {30, 30});
  b.add_room("twin-b", {30, 30});
  b.add_room("outlier", {400, -250});
  return b;
}

// Three rooms on a line binned into 4 m cells: from (10, 0) the nearest
// cell holds room 1, 2 m away, and room 0 sits 2 m away too, exactly on the
// edge of the next cell, so the search must not stop at an equal bound.
Building tie_on_a_cell_edge() {
  Building b;
  b.add_room("b", {12, 0});
  b.add_room("a", {8, 0});
  b.add_room("c", {0, 0});
  return b;
}

TEST(Building, NearestRoomMatchesTheBruteForceScan) {
  const std::pair<const char*, Building> plans[] = {
      {"grid", Building::grid(32, 32)},
      {"corridor", Building::corridor(40)},
      {"department", Building::department()},
      {"equidistant", equidistant_rooms()},
      {"edge tie", tie_on_a_cell_edge()},
  };
  Rng rng(11);
  for (const auto& [name, b] : plans) {
    std::vector<Vec2> points;
    Vec2 lo = b.rooms().front().center, hi = lo;
    for (const Room& r : b.rooms()) {
      points.push_back(r.center);
      points.push_back({r.center.x + 1e-9, r.center.y - 1e-9});
      lo = {std::min(lo.x, r.center.x), std::min(lo.y, r.center.y)};
      hi = {std::max(hi.x, r.center.x), std::max(hi.y, r.center.y)};
    }
    // Corridor midpoints are equidistant from both ends; midpoints of the
    // grid's squares from four rooms.
    for (const Corridor& c : b.corridors()) {
      const Vec2 a = b.room(c.a).center, e = b.room(c.b).center;
      points.push_back({(a.x + e.x) / 2, (a.y + e.y) / 2});
    }
    for (double x = lo.x; x < hi.x; x += 12) {
      for (double y = lo.y; y < hi.y; y += 12) {
        points.push_back({x + 6, y + 6});
      }
    }
    points.push_back({0, 0});
    points.push_back({10, 0});
    // Random points on the plan, around it, and far off it.
    for (int i = 0; i < 2000; ++i) {
      const double m = i < 1000 ? 0.0 : i < 1800 ? 60.0 : 5000.0;
      points.push_back({rng.uniform_double(lo.x - m, hi.x + m),
                        rng.uniform_double(lo.y - m, hi.y + m)});
    }
    points.push_back({-1e7, 3e6});
    points.push_back({hi.x + 1e6, (lo.y + hi.y) / 2});
    for (const Vec2 p : points) {
      ASSERT_EQ(b.nearest_room(p), brute_force_nearest(b, p))
          << name << " at (" << p.x << ", " << p.y << ")";
    }
  }
  // The ties resolve as the scan does.
  const Building eq = equidistant_rooms();
  EXPECT_EQ(eq.nearest_room({0, 0}), 0u);
  EXPECT_EQ(eq.nearest_room({30, 30}), 12u);
  EXPECT_EQ(tie_on_a_cell_edge().nearest_room({10, 0}), 0u);
  EXPECT_EQ(Building::grid(32, 32).nearest_room({18, 18}), 33u);
}

TEST(Building, EmptyBuildingNearestIsNoRoom) {
  Building b;
  EXPECT_EQ(b.nearest_room({0, 0}), kNoRoom);
  EXPECT_EQ(b.nearest_room_within({0, 0}, 10.0), kNoRoom);
}

TEST(Building, CorridorFactoryIsAChain) {
  const Building b = Building::corridor(5, 12.0);
  EXPECT_EQ(b.room_count(), 5u);
  EXPECT_EQ(b.corridors().size(), 4u);
  const graph::Graph g = b.to_graph();
  EXPECT_TRUE(g.connected());
  // End-to-end distance is 4 hops * 12 m.
  const graph::AllPairsPaths ap(g);
  EXPECT_DOUBLE_EQ(ap.distance(0, 4), 48.0);
}

TEST(Building, GridFactoryConnectivityAndManhattanPaths) {
  const Building b = Building::grid(3, 4, 10.0);
  EXPECT_EQ(b.room_count(), 12u);
  const graph::Graph g = b.to_graph();
  EXPECT_TRUE(g.connected());
  const graph::AllPairsPaths ap(g);
  // Corner to corner: (3-1)+(4-1) = 5 hops of 10 m.
  EXPECT_DOUBLE_EQ(ap.distance(0, 11), 50.0);
}

TEST(Building, DepartmentFloorPlanIsConnectedAndNonTrivial) {
  const Building b = Building::department();
  EXPECT_EQ(b.room_count(), 10u);
  const graph::Graph g = b.to_graph();
  EXPECT_TRUE(g.connected());
  EXPECT_TRUE(b.find("lobby").has_value());
  EXPECT_TRUE(b.find("seminar-room").has_value());
  // The shortcut makes some indirect path cheaper than the corridor loop.
  const graph::AllPairsPaths ap(g);
  const auto lobby = *b.find("lobby");
  const auto seminar = *b.find("seminar-room");
  EXPECT_GT(ap.distance(lobby, seminar), 0.0);
  EXPECT_LT(ap.distance(lobby, seminar), 60.0);
}

TEST(Building, RoomSpacingExceedsCoverageOverlapInFactories) {
  // Piconets are 10 m; factory plans space workstations 12 m so rooms do
  // not fully overlap (a device can be in at most a small overlap region).
  const Building b = Building::corridor(3, 12.0);
  EXPECT_GT(distance(b.room(0).center, b.room(1).center), 10.0);
}

}  // namespace
}  // namespace bips::mobility
