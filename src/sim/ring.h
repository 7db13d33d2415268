// FIFO ring buffer that keeps its storage.
//
// std::deque would do the same job, but libstdc++'s deque frees its chunks
// on clear() and as pop_front() empties them, so a container that a device
// snapshot clears and refills, or that drains to empty every few requests,
// allocates again and again.  Ring grows by doubling when a push finds it
// full and otherwise never touches the heap: clear() and pop_front() only
// move indices.  Elements are assigned into default-constructed slots, so T
// must be default-constructible and copy-assignable.

#ifndef SRC_SIM_RING_H_
#define SRC_SIM_RING_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace dcs {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  // Element i, counted from the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return slots_[Slot(i)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[Slot(i)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[Slot(size_)] = value;
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
    --size_;
  }

  // Empties the ring and keeps its storage.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t Slot(std::size_t i) const {
    const std::size_t slot = head_ + i;
    return slot >= slots_.size() ? slot - slots_.size() : slot;
  }

  // Doubles the storage and lays the elements out from slot 0.
  void Grow() {
    std::vector<T> bigger(std::max<std::size_t>(8, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = slots_[Slot(i)];
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dcs

#endif  // SRC_SIM_RING_H_
