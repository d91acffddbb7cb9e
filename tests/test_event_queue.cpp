#include "rxl/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rxl/common/rng.hpp"
#include "rxl/phy/error_model.hpp"
#include "rxl/sim/fault_plan.hpp"
#include "rxl/sim/flit_envelope.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/sim/timer.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "rxl/switchdev/port_switch.hpp"

namespace rxl::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30, [&] { order.push_back(3); });
  queue.schedule(10, [&] { order.push_back(1); });
  queue.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueue, FifoTieBreak) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(100, [&order, i] { order.push_back(i); });
  }
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FifoTieBreakSurvivesInterleavedTimestamps) {
  // Heavier determinism pin for the 4-ary heap: many events land on a few
  // shared timestamps, pushed in shuffled timestamp order. Within each
  // timestamp the execution order must equal the scheduling order, whatever
  // shape the heap took on the way.
  EventQueue queue;
  Xoshiro256 rng(99);
  std::vector<std::pair<TimePs, int>> executed;
  std::vector<std::pair<TimePs, int>> expected;
  std::vector<int> fifo_rank(7, 0);
  for (int i = 0; i < 500; ++i) {
    const TimePs when = 100 * (1 + rng.bounded(6));
    const int rank = fifo_rank[when / 100]++;
    expected.emplace_back(when, rank);
    queue.schedule_at(when, [&executed, when, rank] {
      executed.emplace_back(when, rank);
    });
  }
  std::stable_sort(expected.begin(), expected.end());
  EXPECT_EQ(queue.run(), 500u);
  EXPECT_EQ(executed, expected);
}

TEST(EventQueue, NestedScheduling) {
  EventQueue queue;
  std::vector<TimePs> times;
  queue.schedule(5, [&] {
    times.push_back(queue.now());
    queue.schedule(5, [&] { times.push_back(queue.now()); });
  });
  queue.run();
  EXPECT_EQ(times, (std::vector<TimePs>{5, 10}));
}

TEST(EventQueue, RunUntilStopsAndAdvancesTime) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(10, [&] { ++fired; });
  queue.schedule(50, [&] { ++fired; });
  EXPECT_EQ(queue.run_until(20), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 20u);
  EXPECT_EQ(queue.pending(), 1u);
  queue.run_until(100);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(queue.now(), 100u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenDrainingEarly) {
  // The horizon is authoritative even when the event queue empties first:
  // time lands exactly on `until`, and later schedules are relative to it.
  EventQueue queue;
  int fired = 0;
  queue.schedule(10, [&] { ++fired; });
  EXPECT_EQ(queue.run_until(1'000'000), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.now(), 1'000'000u);
  TimePs seen = 0;
  queue.schedule(5, [&] { seen = queue.now(); });
  queue.run();
  EXPECT_EQ(seen, 1'000'005u);
}

#ifdef NDEBUG
TEST(EventQueue, RunUntilIntoThePastNeverRewindsTime) {
  EventQueue queue;
  queue.schedule(100, [] {});
  queue.run();
  ASSERT_EQ(queue.now(), 100u);
  EXPECT_EQ(queue.run_until(40), 0u);  // stale horizon: no-op
  EXPECT_EQ(queue.now(), 100u);        // time did not rewind
}
#endif

TEST(EventQueue, RunLimitBounds) {
  EventQueue queue;
  int fired = 0;
  for (int i = 0; i < 10; ++i) queue.schedule(i, [&] { ++fired; });
  EXPECT_EQ(queue.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(queue.pending(), 6u);
}

TEST(EventQueue, ScheduleAtAbsolute) {
  EventQueue queue;
  TimePs seen = 0;
  queue.schedule_at(42, [&] { seen = queue.now(); });
  queue.run();
  EXPECT_EQ(seen, 42u);
}

#ifdef NDEBUG
TEST(EventQueue, ScheduleAtInThePastClampsToNow) {
  // Regression: a past timestamp used to sit below now() in the heap and
  // silently reorder (time travelled backwards when it popped). Release
  // builds now clamp it to now(), AFTER everything already pending there.
  EventQueue queue;
  queue.schedule(10, [] {});
  queue.run();
  ASSERT_EQ(queue.now(), 10u);
  std::vector<int> order;
  TimePs clamped_at = 0;
  queue.schedule_at(10, [&] { order.push_back(1); });  // legitimately at now
  queue.schedule_at(3, [&] {                           // the past: clamp
    order.push_back(2);
    clamped_at = queue.now();
  });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // FIFO at now(), not first
  EXPECT_EQ(clamped_at, 10u);                  // never before the present
  EXPECT_EQ(queue.now(), 10u);
}
#else
TEST(EventQueueDeathTest, ScheduleAtInThePastAsserts) {
  EventQueue queue;
  queue.schedule(10, [] {});
  queue.run();
  ASSERT_EQ(queue.now(), 10u);
  EXPECT_DEATH(queue.schedule_at(3, [] {}), "scheduled in the past");
}
#endif

TEST(EventQueue, SelfPerpetuatingChainWithRunUntil) {
  EventQueue queue;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    queue.schedule(10, [&] { tick(); });  // by-reference: stays inline
  };
  queue.schedule(0, [&] { tick(); });
  queue.run_until(95);
  EXPECT_EQ(ticks, 10);  // t = 0,10,...,90
}

TEST(Timer, FiresOnceAtDeadline) {
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  EXPECT_FALSE(timer.armed());
  timer.arm(100);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.deadline(), 100u);
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{100}));
  EXPECT_FALSE(timer.armed());  // one-shot: no rearm without arm()
  EXPECT_TRUE(queue.empty());
}

TEST(Timer, CancelSuppressesTheDeadline) {
  EventQueue queue;
  int fired = 0;
  Timer timer(queue, [&] { ++fired; });
  timer.arm(100);
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  queue.run();  // the wake-up entry pops and must no-op
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(queue.now(), 100u);  // the no-op pop still advances time
}

TEST(Timer, RearmWhileArmedSupersedesTheOldDeadline) {
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  timer.arm(100);
  timer.arm(250);  // push the deadline out; the t=100 wake-up re-pushes
  EXPECT_EQ(timer.deadline(), 250u);
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{250}));

  timer.arm(100);
  timer.arm(30);  // pull the deadline in
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{250, 280}));
}

TEST(Timer, CallbackMayRearmItself) {
  EventQueue queue;
  int fired = 0;
  // Endpoint-style periodic rearm: armed() is already false inside the
  // callback, so arming again is the idiomatic self-perpetuating deadline.
  struct Periodic {
    EventQueue& queue;
    Timer timer;
    int* fired;
    Periodic(EventQueue& q, int* f)
        : queue(q), timer(q, [this] { fire(); }), fired(f) {}
    void fire() {
      ++*fired;
      if (*fired < 5) timer.arm(10);
    }
  } periodic(queue, &fired);
  periodic.timer.arm(10);
  queue.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(queue.now(), 50u);
}

TEST(Timer, CancelThenRearmFiresAtTheNewDeadlineOnly) {
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  timer.arm_at(40);
  timer.cancel();
  timer.arm_at(70);
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{70}));
}

TEST(Timer, CancelThenRearmAtThePendingDeadlineFiresExactlyOnce) {
  // The sharpest ticket case: the re-arm shares the pending wake-up's
  // timestamp, so it is only recorded; the wake-up pops, sees a newer
  // ticket and re-pushes the timer in the same instant. That pop must
  // no-op and the re-pushed one must fire — exactly one
  // callback, not zero (over-cancel) and not two (under-cancel).
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  timer.arm_at(100);
  timer.cancel();
  timer.arm_at(100);  // same deadline, new ticket
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.deadline(), 100u);
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{100}));
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, CallbackMayRearmAtTheFiringInstant) {
  // Re-arming from inside the fire callback AT the firing timestamp must
  // schedule a genuinely new firing in the same instant (FIFO after any
  // event already queued at now()), not be swallowed as the stale entry of
  // the firing that is currently running.
  EventQueue queue;
  int fired = 0;
  struct SameInstant {
    EventQueue& queue;
    Timer timer;
    int* fired;
    SameInstant(EventQueue& q, int* f)
        : queue(q), timer(q, [this] { fire(); }), fired(f) {}
    void fire() {
      ++*fired;
      if (*fired < 3) timer.arm_at(queue.now());
    }
  } same_instant(queue, &fired);
  same_instant.timer.arm_at(60);
  bool bystander_ran = false;
  queue.schedule_at(60, [&] { bystander_ran = true; });
  queue.run();
  EXPECT_EQ(fired, 3);  // all three firings, all at t=60
  EXPECT_EQ(queue.now(), 60u);
  EXPECT_TRUE(bystander_ran);
  EXPECT_FALSE(same_instant.timer.armed());
}

// --- Tickets: one heap entry per FIFO component and per timer ------------
//
// LinkChannel, PortSwitch and Timer push an event only when they have none
// pending, under the (when, order) key drawn where a plain schedule call
// would have drawn it. The differential case below replays one random
// scenario through them and through an eager oracle — a schedule_at per
// item and the generation-checked Timer the kernel had before tickets —
// and requires the same dispatch log.

/// The pre-ticket Timer: every arm pushes its own {timer, generation}
/// entry; a superseded or cancelled one no-ops when it pops.
class EagerTimer {
 public:
  template <typename F>
  EagerTimer(EventQueue& queue, F&& callback)
      : queue_(queue), callback_(std::forward<F>(callback)) {}

  void arm_at(TimePs when) {
    ++generation_;
    armed_ = true;
    deadline_ = when;
    queue_.schedule_at(when, Fire{this, generation_});
  }
  void cancel() noexcept {
    ++generation_;
    armed_ = false;
  }
  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] TimePs deadline() const noexcept { return deadline_; }

 private:
  struct Fire {
    EagerTimer* timer;
    std::uint64_t generation;
    void operator()() const {
      if (!timer->armed_ || generation != timer->generation_) return;
      timer->armed_ = false;
      timer->callback_();
    }
  };

  EventQueue& queue_;
  InlineEvent callback_;
  TimePs deadline_ = 0;
  std::uint64_t generation_ = 0;
  bool armed_ = false;
};

using DispatchLog = std::vector<std::pair<TimePs, std::uint64_t>>;

/// Where a lane hands an arrived flit id.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void arrive(std::uint64_t id) = 0;
};

/// A Sink that only logs (now, id).
class LogSink final : public Sink {
 public:
  LogSink(EventQueue& queue, DispatchLog& log) : queue_(queue), log_(log) {}
  void arrive(std::uint64_t id) override {
    log_.emplace_back(queue_.now(), id);
  }

 private:
  EventQueue& queue_;
  DispatchLog& log_;
};

/// A FIFO path a flit id travels: a wire, or a hub stage feeding a wire.
class Lane {
 public:
  virtual ~Lane() = default;
  virtual void send(std::uint64_t id) = 0;
};

struct WireSpec {
  TimePs slot = 0;
  TimePs latency = 0;
  const LinkFaultSchedule* faults = nullptr;
};

/// LinkChannel's timing and black-holing with one schedule_at per flit.
class EagerWire final : public Lane {
 public:
  EagerWire(EventQueue& queue, const WireSpec& spec, Sink& sink)
      : queue_(queue), spec_(spec), sink_(sink) {}

  void send(std::uint64_t id) override {
    const TimePs start = std::max(queue_.now(), next_free_);
    next_free_ = start + spec_.slot;
    if (spec_.faults != nullptr && spec_.faults->down_at_time(start)) return;
    queue_.schedule_at(next_free_ + spec_.latency,
                       [this, id] { sink_.arrive(id); });
  }

 private:
  EventQueue& queue_;
  WireSpec spec_;
  Sink& sink_;
  TimePs next_free_ = 0;
};

/// PortSwitch's constant forward latency with one schedule per flit.
class EagerHubLane final : public Lane {
 public:
  EagerHubLane(EventQueue& queue, TimePs forward, const WireSpec& spec,
               Sink& sink)
      : queue_(queue), forward_(forward), wire_(queue, spec, sink) {}
  void send(std::uint64_t id) override {
    queue_.schedule(forward_, [this, id] { wire_.send(id); });
  }

 private:
  EventQueue& queue_;
  TimePs forward_;
  EagerWire wire_;
};

LinkChannel make_wire(EventQueue& queue, const WireSpec& spec, Sink& sink) {
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1, spec.slot,
                      spec.latency);
  channel.set_fault_schedule(spec.faults);
  channel.set_receiver([&sink](FlitEnvelope&& envelope) {
    sink.arrive(envelope.truth_index);
  });
  return channel;
}

FlitEnvelope envelope_for(std::uint64_t id) {
  FlitEnvelope envelope;
  envelope.truth_index = id;
  return envelope;
}

class TicketedWireLane final : public Lane {
 public:
  TicketedWireLane(EventQueue& queue, const WireSpec& spec, Sink& sink)
      : wire_(make_wire(queue, spec, sink)) {}
  void send(std::uint64_t id) override { wire_.send(envelope_for(id)); }

 private:
  LinkChannel wire_;
};

class TicketedHubLane final : public Lane {
 public:
  TicketedHubLane(EventQueue& queue, TimePs forward, const WireSpec& spec,
                  Sink& sink)
      : hub_(queue, hub_config(forward), 1),
        wire_(make_wire(queue, spec, sink)) {
    hub_.set_output(0, &wire_);
  }
  void send(std::uint64_t id) override { hub_.on_flit(envelope_for(id)); }

 private:
  static switchdev::PortSwitch::Config hub_config(TimePs forward) {
    switchdev::PortSwitch::Config config;
    config.ports = 1;
    config.forward_latency = forward;
    return config;
  }

  switchdev::PortSwitch hub_;
  LinkChannel wire_;
};

/// A random mix of wires, hub stages, timers and one-shot events. Every
/// random draw happens inside a dispatched event (or during setup), so two
/// runs draw the same stream exactly as long as their dispatch orders agree.
template <typename TimerT, bool kTicketed>
class MixedScenario final : public Sink {
 public:
  static constexpr std::size_t kLanes = 5;
  static constexpr std::size_t kTimers = 3;

  explicit MixedScenario(std::uint64_t seed) : rng_(seed) {
    // Lane 0 loses every flit it starts inside one down window.
    const TimePs down_at = 20'000 + rng_.bounded(40'000);
    faults_.add_window(down_at, down_at + 5'000 + rng_.bounded(30'000));
    faults_.normalize();
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      WireSpec spec;
      spec.slot = 500 * (1 + rng_.bounded(4));
      spec.latency = rng_.bounded(4) == 0 ? 0 : rng_.bounded(20'000);
      spec.faults = lane == 0 ? &faults_ : nullptr;
      const bool hub = lane >= 3;
      const TimePs forward = rng_.bounded(12'000);
      if constexpr (kTicketed) {
        if (hub)
          lanes_.push_back(std::make_unique<TicketedHubLane>(queue_, forward,
                                                             spec, *this));
        else
          lanes_.push_back(
              std::make_unique<TicketedWireLane>(queue_, spec, *this));
      } else {
        if (hub)
          lanes_.push_back(
              std::make_unique<EagerHubLane>(queue_, forward, spec, *this));
        else
          lanes_.push_back(std::make_unique<EagerWire>(queue_, spec, *this));
      }
    }
    for (std::size_t k = 0; k < kTimers; ++k)
      timers_.push_back(
          std::make_unique<TimerT>(queue_, [this, k] { on_timer(k); }));
    for (int i = 0; i < 40; ++i) schedule_one_shot(rng_.bounded(100'000));
  }

  DispatchLog run() {
    queue_.run();
    return log_;
  }

  void arrive(std::uint64_t id) override {
    log_.emplace_back(queue_.now(), id);
    // A receiver may send again at once, on its own lane too.
    if (rng_.bounded(4) == 0) send_burst(rng_.bounded(kLanes), 1);
  }

 private:
  void schedule_one_shot(TimePs delay) {
    const std::uint64_t id = kOneShotBase + one_shots_++;
    queue_.schedule(delay, [this, id] { on_one_shot(id); });
  }

  void on_one_shot(std::uint64_t id) {
    log_.emplace_back(queue_.now(), id);
    TimerT& timer = *timers_[rng_.bounded(kTimers)];
    switch (rng_.bounded(6)) {
      case 0:
      case 1:
        send_burst(rng_.bounded(kLanes), 1 + rng_.bounded(6));
        break;
      case 2:  // arm or re-arm later, sometimes at this very instant
        timer.arm_at(queue_.now() +
                     (rng_.bounded(4) == 0 ? 0 : rng_.bounded(30'000)));
        break;
      case 3:  // re-arm earlier than the pending deadline
        if (timer.armed())
          timer.arm_at(queue_.now() +
                       rng_.bounded(timer.deadline() - queue_.now() + 1));
        else
          timer.arm_at(queue_.now() + rng_.bounded(10'000));
        break;
      case 4:
        timer.cancel();
        if (rng_.bounded(2) == 0)
          timer.arm_at(queue_.now() + rng_.bounded(20'000));
        break;
      default:
        break;
    }
    if (one_shots_ < 160) schedule_one_shot(rng_.bounded(20'000));
  }

  void on_timer(std::size_t k) {
    log_.emplace_back(queue_.now(), kTimerBase + k);
    if (fires_++ > 200) return;
    switch (rng_.bounded(3)) {
      case 0:  // re-arm at the firing instant
        timers_[k]->arm_at(queue_.now());
        break;
      case 1:
        timers_[k]->arm_at(queue_.now() + rng_.bounded(15'000));
        break;
      default:
        send_burst(rng_.bounded(kLanes), 1);
        break;
    }
  }

  void send_burst(std::size_t lane, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count && sends_ < 600; ++i)
      lanes_[lane]->send(kFlitBase * (lane + 1) + sends_++);
  }

  static constexpr std::uint64_t kFlitBase = 1'000'000;
  static constexpr std::uint64_t kTimerBase = 10'000'000;
  static constexpr std::uint64_t kOneShotBase = 20'000'000;

  EventQueue queue_;
  Xoshiro256 rng_;
  LinkFaultSchedule faults_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<TimerT>> timers_;
  DispatchLog log_;
  std::uint64_t one_shots_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t fires_ = 0;
};

TEST(Tickets, TicketedDispatchEqualsEagerDispatch) {
  std::size_t logged = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const DispatchLog ticketed = MixedScenario<Timer, true>(seed).run();
    const DispatchLog eager = MixedScenario<EagerTimer, false>(seed).run();
    ASSERT_EQ(ticketed, eager) << "seed " << seed;
    logged += ticketed.size();
  }
  EXPECT_GT(logged, 200u * 200u);  // the scenarios really ran
}

TEST(Tickets, LinkChannelKeepsOneHeapEntryForAFullPipeline) {
  EventQueue queue;
  LinkChannel channel(queue, std::make_unique<phy::NoErrors>(), 1,
                      /*slot=*/2'000, /*latency=*/1'000'000);
  std::vector<std::uint64_t> delivered;
  channel.set_receiver([&delivered](FlitEnvelope&& envelope) {
    delivered.push_back(envelope.truth_index);
  });
  for (std::uint64_t id = 0; id < 64; ++id) channel.send(envelope_for(id));
  EXPECT_EQ(queue.pending(), 1u);
  queue.run_until(1'000'000 + 32 * 2'000);
  EXPECT_EQ(delivered.size(), 32u);
  EXPECT_EQ(queue.pending(), 1u);
  queue.run();
  ASSERT_EQ(delivered.size(), 64u);
  for (std::uint64_t id = 0; id < 64; ++id) EXPECT_EQ(delivered[id], id);
  EXPECT_EQ(queue.now(), 1'000'000u + 64 * 2'000);
}

TEST(Tickets, PortSwitchKeepsOneHeapEntryForAFullPipeline) {
  EventQueue queue;
  switchdev::PortSwitch::Config config;
  config.ports = 1;
  config.forward_latency = 1'000'000;
  switchdev::PortSwitch hub(queue, config, 1);
  LinkChannel wire(queue, std::make_unique<phy::NoErrors>(), 2,
                   /*slot=*/2'000, /*latency=*/0);
  std::vector<std::uint64_t> delivered;
  wire.set_receiver([&delivered](FlitEnvelope&& envelope) {
    delivered.push_back(envelope.truth_index);
  });
  hub.set_output(0, &wire);
  for (std::uint64_t id = 0; id < 64; ++id) {
    queue.run_until(queue.now() + 1'000);
    hub.on_flit(envelope_for(id));
  }
  EXPECT_EQ(queue.pending(), 1u);
  queue.run();
  ASSERT_EQ(delivered.size(), 64u);
  for (std::uint64_t id = 0; id < 64; ++id) EXPECT_EQ(delivered[id], id);
}

TEST(Tickets, TimerRearmChurnKeepsAtMostTwoHeapEntries) {
  EventQueue queue;
  int fired = 0;
  Timer timer(queue, [&fired] { ++fired; });
  std::size_t most = 0;
  // Endpoint credit-probe pattern: cancel on every stall, re-arm a fixed
  // delay later, while time moves on underneath.
  for (int cycle = 0; cycle < 10'000; ++cycle) {
    timer.cancel();
    timer.arm(4'000);
    most = std::max(most, queue.pending());
    queue.run_until(queue.now() + 1'000);
  }
  // Re-arms at rising deadlines without time moving.
  for (int cycle = 0; cycle < 10'000; ++cycle) {
    timer.cancel();
    timer.arm(4'000 + static_cast<TimePs>(cycle));
    most = std::max(most, queue.pending());
  }
  EXPECT_LE(most, 2u);
  EXPECT_EQ(fired, 0);
  queue.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 10'000u * 1'000 + 4'000 + 9'999);
}

TEST(Tickets, EarlierArmLeavesOneStaleEntryThatNoOps) {
  EventQueue queue;
  std::vector<TimePs> fires;
  Timer timer(queue, [&] { fires.push_back(queue.now()); });
  timer.arm_at(100);
  timer.arm_at(50);  // earlier than the pending wake-up: a second entry
  EXPECT_EQ(queue.pending(), 2u);
  queue.run_until(60);
  EXPECT_EQ(fires, (std::vector<TimePs>{50}));
  timer.arm_at(200);  // no wake-up pending: pushed directly
  EXPECT_EQ(queue.pending(), 2u);
  queue.run_until(150);  // the t=100 entry pops and must leave the t=200 one
  EXPECT_EQ(queue.pending(), 1u);
  queue.run();
  EXPECT_EQ(fires, (std::vector<TimePs>{50, 200}));
}

TEST(Tickets, BlackholedSendDrawsNoTicket) {
  LinkFaultSchedule faults;
  faults.add_window(10'000, 20'000);
  faults.normalize();
  const WireSpec spec{/*slot=*/2'000, /*latency=*/4'000, &faults};
  // One send per 1 ns into a 2 ns slot, so the backlog runs through the
  // down window, and a bystander event shares each delivery instant.
  auto drive = [](EventQueue& queue, DispatchLog& log, auto&& send) {
    for (std::uint64_t id = 0; id < 20; ++id) {
      send(id);
      queue.schedule(6'000, [&queue, &log, id] {
        log.emplace_back(queue.now(), 100 + id);
      });
      queue.run_until(queue.now() + 1'000);
    }
    queue.run();
  };

  EventQueue queue;
  DispatchLog log;
  LogSink sink(queue, log);
  LinkChannel channel = make_wire(queue, spec, sink);
  std::vector<EventQueue::Ticket> drawn;
  drive(queue, log, [&](std::uint64_t id) {
    const EventQueue::Ticket before = queue.take_ticket();
    channel.send(envelope_for(id));
    drawn.push_back(queue.take_ticket() - before - 1);
  });

  EventQueue oracle_queue;
  DispatchLog oracle_log;
  LogSink oracle_sink(oracle_queue, oracle_log);
  EagerWire oracle(oracle_queue, spec, oracle_sink);
  drive(oracle_queue, oracle_log, [&](std::uint64_t id) { oracle.send(id); });

  EXPECT_EQ(log, oracle_log);
  // Flits 5..9 start inside [10 ns, 20 ns): each draws no ticket.
  EXPECT_EQ(channel.stats().flits_blackholed, 5u);
  EXPECT_EQ(std::count(drawn.begin(), drawn.end(), 0u), 5);
  EXPECT_EQ(std::count(drawn.begin(), drawn.end(), 1u), 15);
}

// A miniature stochastic simulation whose result folds in event timestamps
// and execution order; any nondeterminism in scheduling or in the trial
// sharding shows up as a checksum mismatch.
std::uint64_t simulation_checksum(std::size_t trial) {
  EventQueue queue;
  Xoshiro256 rng(trial * 0x9E3779B97F4A7C15ull + 1);
  std::uint64_t checksum = trial;
  std::uint64_t sequence = 0;
  for (int i = 0; i < 200; ++i) {
    queue.schedule(rng.bounded(5'000), [&queue, &checksum, &sequence] {
      checksum = checksum * 1099511628211ull ^ (queue.now() + ++sequence);
    });
  }
  queue.run();
  return checksum;
}

TEST(TrialRunner, ResultsAreWorkerCountInvariant) {
  const auto serial = run_trials(16, simulation_checksum, /*workers=*/1);
  const auto sharded = run_trials(16, simulation_checksum, /*workers=*/4);
  ASSERT_EQ(serial.size(), 16u);
  EXPECT_EQ(serial, sharded);
  // More workers than trials must also merge identically.
  EXPECT_EQ(serial, run_trials(16, simulation_checksum, /*workers=*/32));
}

TEST(TrialRunner, PropagatesTrialExceptions) {
  auto trial = [](std::size_t i) -> int {
    if (i == 3) throw std::runtime_error("trial 3 failed");
    return static_cast<int>(i);
  };
  EXPECT_THROW(run_trials(8, trial, 4), std::runtime_error);
  EXPECT_THROW(run_trials(8, trial, 1), std::runtime_error);
}

TEST(TrialRunner, WorkerCountResolution) {
  EXPECT_EQ(trial_workers(3), 3u);  // explicit request wins
  ASSERT_EQ(setenv("RXL_TRIAL_WORKERS", "5", 1), 0);
  EXPECT_EQ(trial_workers(), 5u);
  EXPECT_EQ(trial_workers(2), 2u);
  ASSERT_EQ(setenv("RXL_TRIAL_WORKERS", "garbage", 1), 0);
  EXPECT_GE(trial_workers(), 1u);  // invalid env: hardware fallback
  ASSERT_EQ(unsetenv("RXL_TRIAL_WORKERS"), 0);
  EXPECT_GE(trial_workers(), 1u);
}

}  // namespace
}  // namespace rxl::sim
