// Open-addressing hash map for hot lookup paths.
//
// A node-based std::unordered_map costs two or three dependent cache misses
// per probe (bucket array -> node pointer -> node). On the radio channel's
// per-transmission paths that is the dominant cost at building scale, so
// this provides the minimal alternative: power-of-two capacity, linear
// probing, 64-bit keys, and -- deliberately -- no erase. Callers that stop
// needing a value keep the slot and reset the value (the radio keeps
// emptied cell vectors and zeroed counters anyway, precisely to avoid
// alloc/erase churn), which keeps probing tombstone-free.
//
// The cell table is allocated by the first insert: an empty map costs no
// heap. Maps that may never be filled (a radio channel's spatial grid,
// which exists only once the channel migrates to it) rely on that, since
// the radio interns one per hop channel touched.
//
// Values must be movable; rehashing moves them. Pointers *into* a value
// (e.g. elements of a moved std::deque or std::vector) survive a rehash,
// but pointers to the value object itself do not -- hold such values by
// unique_ptr if their address must be stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/assert.hpp"

namespace bips {

template <typename V>
class FlatHashMap {
 public:
  /// Returns the value for `key`, default-constructing it on first use.
  V& operator[](std::uint64_t key) {
    if ((size_ + 1) * 4 > cells_.size() * 3) grow();
    Cell& c = probe(cells_, key);
    if (!c.used) {
      c.used = true;
      c.key = key;
      ++size_;
    }
    return c.value;
  }

  /// Returns the value for `key`, or nullptr if absent.
  V* find(std::uint64_t key) {
    if (cells_.empty()) return nullptr;
    Cell& c = probe(cells_, key);
    return c.used ? &c.value : nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatHashMap*>(this)->find(key);
  }

  std::size_t size() const { return size_; }

  /// Visits every (key, value) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.used) fn(c.key, c.value);
    }
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  struct Cell {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  // Fibonacci multiplicative hash: channel keys have structure in the low
  // bits, so spread them before masking.
  static std::size_t slot_for(std::uint64_t key, std::size_t capacity) {
    return static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ull) &
           (capacity - 1);
  }

  static Cell& probe(std::vector<Cell>& cells, std::uint64_t key) {
    std::size_t i = slot_for(key, cells.size());
    for (;;) {
      Cell& c = cells[i];
      if (!c.used || c.key == key) return c;
      i = (i + 1) & (cells.size() - 1);
    }
  }

  void grow() {
    std::vector<Cell> bigger(cells_.empty() ? kInitialCapacity
                                            : cells_.size() * 2);
    for (Cell& c : cells_) {
      if (!c.used) continue;
      Cell& dst = probe(bigger, c.key);
      BIPS_ASSERT(!dst.used);
      dst.used = true;
      dst.key = c.key;
      dst.value = std::move(c.value);
    }
    cells_.swap(bigger);
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
};

}  // namespace bips
