#include "src/mobility/building.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/assert.hpp"

namespace bips::mobility {

RoomId Building::add_room(std::string name, Vec2 center) {
  BIPS_ASSERT_MSG(!name.empty(), "room name must be non-empty");
  BIPS_ASSERT_MSG(!find(name).has_value(), "duplicate room name");
  const auto id = static_cast<RoomId>(rooms_.size());
  rooms_.push_back(Room{id, std::move(name), center});
  index_ = std::make_shared<LazyIndex>();
  return id;
}

std::int32_t Building::RoomIndex::col(double x) const {
  const double c = std::floor((x - origin.x) / cell);
  return static_cast<std::int32_t>(std::clamp(c, 0.0, nx - 1.0));
}

std::int32_t Building::RoomIndex::row(double y) const {
  const double r = std::floor((y - origin.y) / cell);
  return static_cast<std::int32_t>(std::clamp(r, 0.0, ny - 1.0));
}

Building::RoomIndex::RoomIndex(const std::vector<Room>& rooms) {
  Vec2 lo = rooms.front().center, hi = lo;
  for (const Room& r : rooms) {
    lo = {std::min(lo.x, r.center.x), std::min(lo.y, r.center.y)};
    hi = {std::max(hi.x, r.center.x), std::max(hi.y, r.center.y)};
  }
  // About one room per cell: n square cells over the box, or n cells along
  // its long side when the box is flat (a corridor), so there are at most
  // about 3n cells.
  const double w = hi.x - lo.x, h = hi.y - lo.y;
  const auto n = static_cast<double>(rooms.size());
  cell = std::max(std::sqrt(w * h / n), std::max(w, h) / n);
  if (!(cell > 0)) cell = 1.0;  // every room at one point
  origin = lo;
  nx = static_cast<std::int32_t>(w / cell) + 1;
  ny = static_cast<std::int32_t>(h / cell) + 1;
  const auto cells = static_cast<std::size_t>(nx) * ny;
  // Counting sort by cell; visiting rooms in id order keeps each cell's
  // list ascending.
  start.assign(cells + 1, 0);
  const auto cell_of = [this](Vec2 c) {
    return static_cast<std::size_t>(row(c.y)) * nx + col(c.x);
  };
  for (const Room& r : rooms) ++start[cell_of(r.center) + 1];
  for (std::size_t i = 0; i < cells; ++i) start[i + 1] += start[i];
  ids.resize(rooms.size());
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  for (const Room& r : rooms) ids[fill[cell_of(r.center)]++] = r.id;
}

const Building::RoomIndex& Building::index() const {
  LazyIndex& lazy = *index_;
  std::call_once(lazy.built, [&] { lazy.index.emplace(rooms_); });
  return *lazy.index;
}

void Building::connect(RoomId a, RoomId b) {
  BIPS_ASSERT(a < rooms_.size() && b < rooms_.size());
  connect(a, b, distance(rooms_[a].center, rooms_[b].center));
}

void Building::connect(RoomId a, RoomId b, double walking_distance) {
  BIPS_ASSERT(a < rooms_.size() && b < rooms_.size());
  BIPS_ASSERT(a != b);
  BIPS_ASSERT(walking_distance > 0);
  corridors_.push_back(Corridor{a, b, walking_distance});
}

const Room& Building::room(RoomId id) const {
  BIPS_ASSERT(id < rooms_.size());
  return rooms_[id];
}

std::optional<RoomId> Building::find(std::string_view name) const {
  for (const Room& r : rooms_) {
    if (r.name == name) return r.id;
  }
  return std::nullopt;
}

graph::Graph Building::to_graph() const {
  graph::Graph g;
  for (const Room& r : rooms_) g.add_node(r.name);
  for (const Corridor& c : corridors_) g.add_edge(c.a, c.b, c.distance);
  return g;
}

RoomId Building::nearest_room(Vec2 p) const {
  if (rooms_.empty()) return kNoRoom;
  const RoomIndex& g = index();
  RoomId best = kNoRoom;
  double best_d = std::numeric_limits<double>::infinity();
  const auto visit = [&](std::int32_t i, std::int32_t j) {
    const std::size_t c = static_cast<std::size_t>(j) * g.nx + i;
    for (std::uint32_t k = g.start[c]; k < g.start[c + 1]; ++k) {
      const RoomId id = g.ids[k];
      const double d = distance_sq(p, rooms_[id].center);
      if (d < best_d || (d == best_d && id < best)) {
        best_d = d;
        best = id;
      }
    }
  };
  // Distance from p to column i's / row j's strip of the grid, less a
  // rounding allowance (a centre on a cell edge may be binned either side).
  const double tol = 1e-9 * (std::abs(p.x) + std::abs(p.y) +
                             std::abs(g.origin.x) + std::abs(g.origin.y) +
                             (g.nx + g.ny) * g.cell);
  const auto gap = [&](double v, double lo, std::int32_t i) {
    const double a = lo + i * g.cell;
    return std::max(0.0, std::max(a - v, v - (a + g.cell)) - tol);
  };
  const auto gap_x = [&](std::int32_t i) { return gap(p.x, g.origin.x, i); };
  const auto gap_y = [&](std::int32_t j) { return gap(p.y, g.origin.y, j); };

  // Rings of cells around p's (clamped) cell, nearest first. A cell's
  // distance grows away from p's column and row, so every cell beyond ring
  // r is at least as far as the nearest strip just outside it; stop once
  // that exceeds the best distance found.
  const std::int32_t cx = g.col(p.x), cy = g.row(p.y);
  for (std::int32_t r = 0;; ++r) {
    const std::int32_t x0 = cx - r, x1 = cx + r, y0 = cy - r, y1 = cy + r;
    for (std::int32_t j = std::max(y0, 0); j <= std::min(y1, g.ny - 1); ++j) {
      if (j == y0 || j == y1) {
        for (std::int32_t i = std::max(x0, 0); i <= std::min(x1, g.nx - 1);
             ++i) {
          visit(i, j);
        }
      } else {
        if (x0 >= 0) visit(x0, j);
        if (x1 < g.nx) visit(x1, j);
      }
    }
    double beyond = std::numeric_limits<double>::infinity();
    const auto side = [&beyond](double a, double b) {
      beyond = std::min(beyond, a * a + b * b);
    };
    if (x0 > 0) side(gap_x(x0 - 1), gap_y(cy));
    if (x1 < g.nx - 1) side(gap_x(x1 + 1), gap_y(cy));
    if (y0 > 0) side(gap_y(y0 - 1), gap_x(cx));
    if (y1 < g.ny - 1) side(gap_y(y1 + 1), gap_x(cx));
    if (beyond > best_d) return best;  // also when no cell is left
  }
}

RoomId Building::nearest_room_within(Vec2 p, double radius) const {
  const RoomId r = nearest_room(p);
  if (r == kNoRoom) return kNoRoom;
  return distance_sq(p, rooms_[r].center) <= radius * radius ? r : kNoRoom;
}

Building Building::corridor(int n, double spacing) {
  BIPS_ASSERT(n >= 1);
  Building b;
  for (int i = 0; i < n; ++i) {
    b.add_room("room-" + std::to_string(i),
               Vec2{spacing * static_cast<double>(i), 0.0});
  }
  for (int i = 0; i + 1 < n; ++i) {
    b.connect(static_cast<RoomId>(i), static_cast<RoomId>(i + 1));
  }
  return b;
}

Building Building::grid(int rows, int cols, double spacing) {
  BIPS_ASSERT(rows >= 1 && cols >= 1);
  Building b;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      b.add_room("room-" + std::to_string(r) + "-" + std::to_string(c),
                 Vec2{spacing * c, spacing * r});
    }
  }
  auto id = [cols](int r, int c) {
    return static_cast<RoomId>(r * cols + c);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.connect(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.connect(id(r, c), id(r + 1, c));
    }
  }
  return b;
}

Building Building::department() {
  // One floor of an academic department. Rooms sit on a double-loaded
  // corridor; distances are door-to-door walking metres (integer weights,
  // like the paper's graph).
  Building b;
  const RoomId lobby = b.add_room("lobby", {0, 0});
  const RoomId office_a = b.add_room("office-a", {12, 6});
  const RoomId office_b = b.add_room("office-b", {24, 6});
  const RoomId office_c = b.add_room("office-c", {36, 6});
  const RoomId lab_net = b.add_room("lab-networks", {12, -6});
  const RoomId lab_sys = b.add_room("lab-systems", {24, -6});
  const RoomId library = b.add_room("library", {36, -6});
  const RoomId seminar = b.add_room("seminar-room", {48, 0});
  const RoomId coffee = b.add_room("coffee-corner", {48, 12});
  const RoomId admin = b.add_room("admin-office", {0, 12});

  b.connect(lobby, office_a, 14);
  b.connect(lobby, lab_net, 14);
  b.connect(lobby, admin, 12);
  b.connect(office_a, office_b, 12);
  b.connect(office_b, office_c, 12);
  b.connect(lab_net, lab_sys, 12);
  b.connect(lab_sys, library, 12);
  b.connect(office_c, seminar, 14);
  b.connect(library, seminar, 14);
  b.connect(seminar, coffee, 12);
  b.connect(office_b, lab_sys, 12);  // internal staircase shortcut
  return b;
}

}  // namespace bips::mobility
