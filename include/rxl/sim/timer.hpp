// First-class cancellable/reschedulable one-shot timer.
//
// Endpoint retry/ack/nack deadlines used to be one-shot closures pushed
// through the event heap on every (re)arm. A Timer stores its callback once
// at construction, and its pending wake-up is a 16-byte {timer, ticket}
// heap record. Each arm draws a ticket (see
// EventQueue::take_ticket), so the timer fires under exactly the key an
// eager push at arm time would have had. An arm at or after the pending
// wake-up only records (deadline, ticket): when the wake-up pops it
// re-pushes the timer at the recorded key. Cancel just disarms. Only an arm
// earlier than the pending wake-up pushes a second entry; the superseded
// one no-ops when it pops.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "rxl/sim/event_queue.hpp"

namespace rxl::sim {

/// One-shot deadline bound to an EventQueue. Arming while armed reschedules
/// (the superseded deadline never fires). The Timer must outlive any queue
/// run that could pop one of its pending entries.
class Timer {
 public:
  template <typename F>
  Timer(EventQueue& queue, F&& callback)
      : queue_(queue), callback_(std::forward<F>(callback)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arms (or re-arms) the timer to fire at now() + delay.
  void arm(TimePs delay) { arm_at(queue_.now() + delay); }

  /// Arms (or re-arms) the timer to fire at an absolute timestamp.
  void arm_at(TimePs when) {
    armed_ = true;
    deadline_ = when;
    ticket_ = queue_.take_ticket();
    // The fresh ticket is the newest, so a wake-up at or before `when` is
    // earlier than the new key and will re-push the timer when it pops.
    if (wake_ticket_ != kNoWake && wake_at_ <= when) return;
    push_wake(when, ticket_);
  }

  /// Disarms without firing. No-op when idle.
  void cancel() noexcept { armed_ = false; }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  /// Deadline of the last arm; meaningful only while armed().
  [[nodiscard]] TimePs deadline() const noexcept { return deadline_; }

 private:
  using Ticket = EventQueue::Ticket;
  static constexpr Ticket kNoWake = ~Ticket{0};

  struct Fire {
    Timer* timer;
    Ticket ticket;
    void operator()() const { timer->wake(ticket); }
  };

  static_assert(std::is_trivially_copyable_v<Fire> && sizeof(Fire) == 16,
                "a pending wake-up is a 16-byte {timer, ticket} record "
                "— rearming must never allocate");

  void push_wake(TimePs when, Ticket ticket) {
    wake_at_ = when;
    wake_ticket_ = ticket;
    queue_.schedule_ticketed(when, ticket, Fire{this, ticket});
  }

  void wake(Ticket ticket) {
    if (ticket != wake_ticket_) return;  // superseded by an earlier arm
    wake_ticket_ = kNoWake;
    if (!armed_) return;
    if (ticket != ticket_) {  // re-armed later since this entry was pushed
      push_wake(deadline_, ticket_);
      return;
    }
    armed_ = false;  // cleared before the callback so it may re-arm
    callback_();
  }

  EventQueue& queue_;
  InlineEvent callback_;
  TimePs deadline_ = 0;
  Ticket ticket_ = 0;  ///< key of the current arm is (deadline_, ticket_)
  TimePs wake_at_ = 0;
  Ticket wake_ticket_ = kNoWake;  ///< the heap entry that wakes the timer
  bool armed_ = false;
};

}  // namespace rxl::sim
