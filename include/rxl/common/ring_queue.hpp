// Minimal power-of-two ring-buffer FIFO.
//
// Exists so simulation components can park bulky in-flight values (256 B
// flit envelopes) outside the event heap: the scheduled event captures only
// the component pointer and pops the front when it fires (see
// sim::EventFifo). Capacity grows geometrically and slots are reused, so
// steady-state traffic allocates nothing.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace rxl {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  void push_back(T value) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(value);
    ++count_;
  }

  /// Appends the aggregate T{args...}, built without a by-value argument
  /// in between (one copy fewer for a bulky element).
  template <typename... Args>
  void emplace_back(Args&&... args) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] =
        T{std::forward<Args>(args)...};
    ++count_;
  }

  [[nodiscard]] T& front() noexcept {
    assert(count_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const noexcept {
    assert(count_ > 0);
    return slots_[head_];
  }

  [[nodiscard]] const T& back() const noexcept {
    assert(count_ > 0);
    return slots_[(head_ + count_ - 1) & (slots_.size() - 1)];
  }

  /// Read-only access to the i-th queued element (0 = front). Lets
  /// management planes scan parked work (the relay reroute quiesce) and
  /// windowed buffers index by sequence distance without disturbing FIFO
  /// order.
  [[nodiscard]] const T& at(std::size_t i) const noexcept {
    assert(i < count_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  /// Pops and returns the front element. [[nodiscard]]: a dropped pop is a
  /// lost flit/credit — callers that intend to drop must say so explicitly.
  [[nodiscard]] T pop_front() {
    T value = std::move(front());
    drop_front();
    return value;
  }

  /// Removes the front element unread, for callers that have already
  /// moved it out through front().
  void drop_front() noexcept {
    assert(count_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }

  /// Empties the queue, keeping its slots for reuse.
  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    const std::size_t capacity = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> next(capacity);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< size is always zero or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace rxl
