#ifndef QFCARD_COMMON_RING_H_
#define QFCARD_COMMON_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace qfcard::common {

/// Fixed-capacity buffer that overwrites its oldest item once full: the one
/// rolling window behind the feedback bus, the q-error drift monitor, and
/// the tier arbiter's per-tier windows and switch log. Capacity 0 keeps
/// nothing. Not thread-safe; owners guard it with their own lock.
template <typename T>
class Ring {
 public:
  explicit Ring(size_t capacity = 0) : capacity_(capacity) {}

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Appends `value`; once full, it replaces the oldest item. Returns true
  /// when an item left the window (the evicted oldest, or `value` itself at
  /// capacity 0).
  bool Push(T value) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(value));
      return false;
    }
    if (capacity_ == 0) return true;
    items_[next_slot_] = std::move(value);
    next_slot_ = (next_slot_ + 1) % capacity_;
    return true;
  }

  /// Contents, oldest first.
  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(items_.size());
    out.insert(out.end(), items_.begin() + static_cast<long>(next_slot_),
               items_.end());
    out.insert(out.end(), items_.begin(),
               items_.begin() + static_cast<long>(next_slot_));
    return out;
  }

 private:
  size_t capacity_;
  std::vector<T> items_;  // physical order; items_[next_slot_] is oldest
  size_t next_slot_ = 0;  // next slot to overwrite once full
};

}  // namespace qfcard::common

#endif  // QFCARD_COMMON_RING_H_
