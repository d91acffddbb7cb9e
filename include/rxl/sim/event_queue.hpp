// Minimal discrete-event simulation kernel.
//
// Picosecond-resolution event heap with deterministic tie-breaking: every
// event is keyed (when, order), where `order` is a counter drawn when the
// event is scheduled, so events for the same timestamp run in scheduling
// order (FIFO) and a simulation is a pure function of its seeds.
//
// Tickets: take_ticket() draws that order number now, and
// schedule_ticketed() pushes an event later under the exact key it would
// have had. A component whose items are handed on in arrival order
// (LinkChannel, PortSwitch, via EventFifo) therefore keeps only its front
// item in the heap and pushes the next stored key when the front pops, and
// a Timer keeps one wake-up entry however often it is re-armed. The global
// dispatch order is the one an eager push of every item would give.
//
// The kernel is built for throughput: callbacks are non-allocating
// InlineEvents (no std::function, no per-event heap traffic) and the heap
// is an implicit 4-ary min-heap over trivially copyable 64-byte Items —
// shallower than a binary heap, sifted with plain block copies, with the
// (when, order) compare done as one 128-bit key and the best child picked
// without a branch.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "rxl/common/types.hpp"
#include "rxl/sim/inline_event.hpp"

namespace rxl::sim {

class EventQueue {
 public:
  using Event = InlineEvent;
  /// FIFO tie-break number, drawn by take_ticket() for a later push.
  using Ticket = std::uint64_t;

  /// Current simulation time.
  [[nodiscard]] TimePs now() const noexcept { return now_; }

  /// Schedules `event` to run at now() + delay.
  template <typename F>
  void schedule(TimePs delay, F&& fn) {
    push_event(now_ + delay, Event(std::forward<F>(fn)));
  }

  /// Schedules `event` at an absolute timestamp. Scheduling in the past is
  /// a model bug: it asserts in debug builds and clamps to now() in release
  /// builds (the event then runs after everything already pending at now(),
  /// per FIFO order — never "before" the present).
  template <typename F>
  void schedule_at(TimePs when, F&& fn) {
    push_event(when, Event(std::forward<F>(fn)));
  }

  /// Draws the order number a schedule call made now would get, without
  /// pushing anything: pass it to schedule_ticketed() to push the event
  /// later in the same place of the global order.
  [[nodiscard]] Ticket take_ticket() noexcept { return next_order_++; }

  /// Pushes `fn` under the key (when, ticket). A key earlier than that of
  /// the event being dispatched is a model bug: it asserts in debug builds
  /// and clamps `when` to now() in release builds, as schedule_at() does.
  template <typename F>
  void schedule_ticketed(TimePs when, Ticket ticket, F&& fn) {
    assert(!(key(when, ticket) < key(now_, dispatch_order_)) &&
           "EventQueue: event scheduled in the past");
    if (when < now_) when = now_;
    push_item(Item{when, ticket, Event(std::forward<F>(fn))});
  }

  /// Runs events until the queue is empty or `limit` events have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `until`. Time advances to `until` even
  /// if the queue drains early; a horizon already in the past asserts in
  /// debug builds and leaves now() untouched in release builds (time never
  /// rewinds). Returns events executed.
  std::size_t run_until(TimePs until);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

 private:
  struct Item {
    TimePs when;
    std::uint64_t order;  ///< FIFO tie-break
    Event event;
  };
  static_assert(std::is_trivially_copyable_v<Item>);
  static_assert(sizeof(Item) == 64,
                "heap items are sized to one cache line: 8 B timestamp + "
                "8 B FIFO order + 48 B InlineEvent");

  /// (when, order) as one unsigned integer: a strict total order (order is
  /// unique per item) compared without a branch.
  __extension__ using Key = unsigned __int128;
  static Key key(TimePs when, std::uint64_t order) noexcept {
    return (static_cast<Key>(when) << 64) | order;
  }
  static Key key(const Item& item) noexcept {
    return key(item.when, item.order);
  }

  void push_event(TimePs when, Event event) {
    assert(when >= now_ && "EventQueue: event scheduled in the past");
    if (when < now_) when = now_;  // release builds: clamp, never time-travel
    push_item(Item{when, next_order_++, event});
  }
  void push_item(const Item& item);
  Item pop_earliest();
  void dispatch(Item& item) {
    now_ = item.when;
    dispatch_order_ = item.order;
    item.event();
  }

  TimePs now_ = 0;
  std::uint64_t next_order_ = 0;
  std::uint64_t dispatch_order_ = 0;  ///< order of the last dispatched event
  std::vector<Item> heap_;  ///< implicit 4-ary min-heap on (when, order)
};

}  // namespace rxl::sim
