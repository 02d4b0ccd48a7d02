// First-in first-out queue that holds no heap while empty.
//
// libstdc++'s std::deque allocates its node map and a first 512-byte node
// even when empty, about 600 bytes per queue; a piconet keeps one ACL queue
// per handheld link and one per live connection, so idle queues alone cost
// megabytes in a crowded building. Fifo is a vector read from a moving head:
// it allocates at its first push and frees everything once drained, and it
// drops the consumed prefix whenever that is at least half the vector, so a
// queue that never drains stays within twice its peak length.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/assert.hpp"

namespace bips {

template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  /// Heap capacity in elements (0 while empty).
  std::size_t capacity() const { return items_.capacity(); }

  T& front() {
    BIPS_ASSERT(!empty());
    return items_[head_];
  }
  void push_back(T v) { items_.push_back(std::move(v)); }
  void pop_front() {
    BIPS_ASSERT(!empty());
    ++head_;
    if (empty()) {
      clear();
    } else if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  /// Drops every element and frees the heap.
  void clear() {
    std::vector<T>().swap(items_);
    head_ = 0;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // index of the front element
};

}  // namespace bips
