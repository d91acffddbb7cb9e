#include "rxl/sim/event_queue.hpp"

#include <cassert>

namespace rxl::sim {

// 4-ary implicit heap: children of i are 4i+1 .. 4i+4. Half the depth of a
// binary heap, so hot schedule/dispatch paths touch fewer cache lines; the
// wider min-of-children scan stays within one or two lines because Items
// are exactly 64 bytes.
namespace {
constexpr std::size_t kArity = 4;

// Returns `bit` (a compare result) without letting the optimizer see that
// it is 0 or 1, so an index computed from it stays arithmetic instead of
// being split back into two branches.
inline std::size_t opaque(std::size_t bit) noexcept {
  __asm__("" : "+r"(bit));
  return bit;
}
}  // namespace

void EventQueue::push_item(const Item& item) {
  const Key item_key = key(item);
  std::size_t hole = heap_.size();
  heap_.push_back(item);  // reserve the slot; value overwritten below
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!(item_key < key(heap_[parent]))) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = item;
}

EventQueue::Item EventQueue::pop_earliest() {
  const Item top = heap_.front();
  const Item last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return top;
  // Sift `last` down from the root. Keys are unique, so the best child is
  // a pure min. A full set of four is a two-round tournament whose winner
  // index is computed from compare results, not branched on; a partial
  // last set is a short scan.
  Item* const items = heap_.data();
  const Key last_key = key(last);
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    std::size_t best = first;
    if (first + kArity <= size) {
      const Item* const c = items + first;
      const std::size_t left = opaque(key(c[1]) < key(c[0]));
      const std::size_t right = 2 + opaque(key(c[3]) < key(c[2]));
      const std::size_t take_right = key(c[right]) < key(c[left]);
      best += left + ((right - left) & (0 - take_right));
    } else {
      for (std::size_t child = first + 1; child < size; ++child) {
        const std::size_t less = key(items[child]) < key(items[best]);
        best += (child - best) & (0 - less);
      }
    }
    if (!(key(items[best]) < last_key)) break;
    items[hole] = items[best];
    hole = best;
  }
  items[hole] = last;
  return top;
}

std::size_t EventQueue::run(std::size_t limit) {
  std::size_t executed = 0;
  while (!heap_.empty() && executed < limit) {
    Item item = pop_earliest();
    dispatch(item);
    ++executed;
  }
  return executed;
}

std::size_t EventQueue::run_until(TimePs until) {
  assert(until >= now_ && "EventQueue: run_until into the past");
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= until) {
    Item item = pop_earliest();
    dispatch(item);
    ++executed;
  }
  if (until > now_) now_ = until;  // never rewind (mirrors push_event)
  return executed;
}

}  // namespace rxl::sim
