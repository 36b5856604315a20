#include "horus/sim/scheduler.hpp"

#include <utility>

namespace horus::sim {
namespace {

constexpr std::uint32_t slot_of(TimerId id) {
  return static_cast<std::uint32_t>(id);
}
constexpr std::uint32_t gen_of(TimerId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

TimerId Scheduler::schedule(Duration delay, std::function<void()> fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
#ifdef HORUS_CHECK_RACES
  s.snap = race::capture();
#endif
  heap_.push_back({now() + delay, next_seq_++, slot});
  s.pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  return (static_cast<TimerId>(s.gen) << 32) | slot;
}

void Scheduler::cancel(TimerId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size() || slots_[slot].gen != gen_of(id)) return;
  remove_at(slots_[slot].pos);
  release(slot);
}

void Scheduler::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  slots_[e.slot].pos = static_cast<std::uint32_t>(i);
}

void Scheduler::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void Scheduler::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void Scheduler::remove_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  sift_down(i);
  sift_up(slots_[last.slot].pos);
}

void Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
#ifdef HORUS_CHECK_RACES
  s.snap = nullptr;
#endif
  if (++s.gen == 0) s.gen = 1;
  free_.push_back(slot);
}

void Scheduler::fire_head() {
  const Entry head = heap_.front();
  remove_at(0);
  // Move the closure out before releasing: it may schedule events that
  // reuse this slot (and grow slots_) while it runs.
  std::function<void()> fn = std::move(slots_[head.slot].fn);
#ifdef HORUS_CHECK_RACES
  race::ClockSnapshot snap = std::move(slots_[head.slot].snap);
#endif
  release(head.slot);
  now_.store(head.at, std::memory_order_relaxed);
#ifdef HORUS_CHECK_RACES
  race::acquire(snap);
#endif
  fn();
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  for (; !heap_.empty(); ++n) fire_head();
  return n;
}

std::size_t Scheduler::run_until(Time deadline) {
  std::size_t n = 0;
  for (; !heap_.empty() && heap_.front().at <= deadline; ++n) fire_head();
  if (now() < deadline) now_.store(deadline, std::memory_order_relaxed);
  return n;
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  fire_head();
  return true;
}

}  // namespace horus::sim
