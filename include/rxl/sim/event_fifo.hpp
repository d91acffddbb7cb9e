// FIFO of delayed items, each handed on by its own event, with only the
// front item's event in the heap.
//
// A wire's flits in flight and a hub's forwarding pipeline are handed on in
// arrival order after a delay that never lets a later item overtake an
// earlier one. Each item draws its ticket (see EventQueue::take_ticket)
// when it is pushed, so the keys (at, ticket) are strictly increasing and
// only the front item's event needs to sit in the EventQueue: popping the
// front pushes the next front's event under its stored key. The global
// dispatch order is the one a schedule_at() per item at push time would
// give, and the heap holds one entry per component instead of one per
// item.
#pragma once

#include <cassert>
#include <utility>

#include "rxl/common/ring_queue.hpp"
#include "rxl/common/types.hpp"
#include "rxl/sim/event_queue.hpp"

namespace rxl::sim {

template <typename T>
class EventFifo {
 public:
  /// Queues `value` to be handed on at `at` (never earlier than the last
  /// push's), drawing its ticket now. `on_front` is the owner's event that
  /// calls pop(); it runs once per item.
  template <typename F>
  void push(EventQueue& queue, TimePs at, T&& value, F on_front) {
    assert((items_.empty() || at >= items_.back().at) &&
           "EventFifo: an item would overtake an earlier one");
    const EventQueue::Ticket ticket = queue.take_ticket();
    items_.emplace_back(std::move(value), at, ticket);
    if (items_.size() == 1) queue.schedule_ticketed(at, ticket, on_front);
  }

  /// Pops the front item from within its event. The next front's event is
  /// pushed first, so whatever the caller does with the item may push
  /// again.
  template <typename F>
  [[nodiscard]] T pop(EventQueue& queue, F on_front) {
    T value = std::move(items_.front().value);
    items_.drop_front();
    if (!items_.empty()) {
      const Entry& next = items_.front();
      queue.schedule_ticketed(next.at, next.ticket, on_front);
    }
    return value;
  }

 private:
  struct Entry {
    T value;
    TimePs at;
    EventQueue::Ticket ticket;
  };

  RingQueue<Entry> items_;
};

}  // namespace rxl::sim
