// Building model: rooms, physical connections, and the mapping to the
// BIPS topology graph.
//
// The paper: "BIPS considers each room of the building as a granule of
// location information ... There is a node in the graph for every BIPS
// workstation. An edge between two adjacent nodes is defined when there is
// a physical path in the building that connects the rooms containing the
// two corresponding workstations."
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/util/geom.hpp"

namespace bips::mobility {

using RoomId = std::uint32_t;
inline constexpr RoomId kNoRoom = UINT32_MAX;

struct Room {
  RoomId id = kNoRoom;
  std::string name;
  Vec2 center;  // where the workstation (piconet master) sits
};

struct Corridor {
  RoomId a = kNoRoom;
  RoomId b = kNoRoom;
  double distance = 0.0;  // walking distance (edge weight)
};

class Building {
 public:
  /// Adds a room with its workstation at `center`. Names must be unique.
  RoomId add_room(std::string name, Vec2 center);

  /// Declares a physical path between two rooms; weight defaults to the
  /// Euclidean distance between the room centers.
  void connect(RoomId a, RoomId b);
  void connect(RoomId a, RoomId b, double walking_distance);

  std::size_t room_count() const { return rooms_.size(); }
  const Room& room(RoomId id) const;
  const std::vector<Room>& rooms() const { return rooms_; }
  const std::vector<Corridor>& corridors() const { return corridors_; }
  std::optional<RoomId> find(std::string_view name) const;

  /// Builds the weighted undirected topology graph (node ids == room ids).
  graph::Graph to_graph() const;

  /// Room whose workstation is nearest to p; kNoRoom for an empty building.
  /// Of equidistant rooms, the lowest RoomId. Answered from a uniform grid
  /// over the room centres, built once at the first call after the last
  /// add_room (safe from concurrent callers), so a call visits the rooms
  /// near p, not all.
  RoomId nearest_room(Vec2 p) const;
  /// Nearest room within `radius` metres of p (the piconet that would cover
  /// a device standing at p), or kNoRoom when outside all coverage circles.
  RoomId nearest_room_within(Vec2 p, double radius) const;

  // ---- canned floor plans --------------------------------------------

  /// `n` rooms in a row along a corridor, `spacing` metres apart.
  static Building corridor(int n, double spacing = 12.0);
  /// rows x cols office grid; neighbours connected orthogonally.
  static Building grid(int rows, int cols, double spacing = 12.0);
  /// A small academic department like the paper's testbed: offices, labs,
  /// a library, a seminar room and a lobby on one floor (10 rooms).
  static Building department();

 private:
  // Uniform grid over the room centres' bounding box, about one room per
  // cell; each cell lists its rooms in ascending RoomId order (CSR layout).
  struct RoomIndex {
    explicit RoomIndex(const std::vector<Room>& rooms);
    std::int32_t col(double x) const;
    std::int32_t row(double y) const;

    Vec2 origin;
    double cell = 1.0;
    std::int32_t nx = 0, ny = 0;
    std::vector<std::uint32_t> start;  // nx * ny + 1 offsets into `ids`
    std::vector<RoomId> ids;
  };
  // The index of the current room set, built by the first query. Shards
  // query one building from several threads, hence call_once; add_room
  // starts a fresh one, and copies of a building share it.
  struct LazyIndex {
    std::once_flag built;
    std::optional<RoomIndex> index;
  };
  const RoomIndex& index() const;

  std::vector<Room> rooms_;
  std::vector<Corridor> corridors_;
  std::shared_ptr<LazyIndex> index_ = std::make_shared<LazyIndex>();
};

}  // namespace bips::mobility
