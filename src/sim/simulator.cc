#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mobicache {

// 4-ary min-heap with hole insertion: shallower than a binary heap and one
// move per level instead of a three-move swap, which is what makes large
// event queues cheap. Dispatch order is independent of heap shape because
// (when, seq) keys are unique and every pop extracts the minimum.
namespace {
constexpr size_t kHeapArity = 4;
}  // namespace

void Simulator::HeapPush(Entry entry) {
  size_t i = heap_.size();
  // Amortized high-water growth: the heap vector never shrinks, so at steady
  // state this push reuses retained capacity. detlint:allow(alloc-event-path)
  heap_.push_back(entry);  // reserve the hole
  while (i > 0) {
    const size_t parent = (i - 1) / kHeapArity;
    if (!entry.Before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

Simulator::Entry Simulator::HeapPopRoot() {
  assert(!heap_.empty());
  const Entry out = heap_.front();
  const Entry filler = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) return out;
  size_t i = 0;
  while (true) {
    const size_t first_child = kHeapArity * i + 1;
    if (first_child >= n) break;
    const size_t last_child = std::min(first_child + kHeapArity, n);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].Before(heap_[best])) best = c;
    }
    if (!heap_[best].Before(filler)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = filler;
  return out;
}

bool Simulator::SkipCancelledTop() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (!slots_[top.slot].cancelled) return true;
    slots_[top.slot].seq = 0;  // slot no longer answers for this event
    // Returns a slot to the free list; its capacity is bounded by the slot
    // pool's high-water mark, so this never allocates at steady state.
    // detlint:allow(alloc-event-path)
    free_slots_.push_back(top.slot);
    HeapPopRoot();
  }
  return false;
}

EventFn Simulator::TakeRootForDispatch() {
  const Entry top = HeapPopRoot();
  Slot& slot = slots_[top.slot];
  EventFn fn = std::move(slot.fn);
  slot.fn = nullptr;
  slot.seq = 0;  // a Cancel() with the fired event's id must miss
  free_slots_.push_back(top.slot);
  now_ = top.when;
  ++dispatched_;
  return fn;
}

uint32_t Simulator::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const uint32_t slot = static_cast<uint32_t>(slots_.size());
  // Grows the slot pool only when the free list is empty, i.e. when the live
  // event count exceeds its previous high-water mark. detlint:allow(alloc-event-path)
  slots_.emplace_back();
  return slot;
}

EventId Simulator::FinishSchedule(SimTime when, uint32_t slot) {
  assert(when >= now_ && "cannot schedule in the past");
  assert(slots_[slot].fn != nullptr);
  const uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.seq = seq;
  s.cancelled = false;
  HeapPush(Entry{when, seq, slot});
  return EventId{seq, slot};
}

EventId Simulator::ScheduleAt(SimTime when, EventFn fn) {
  assert(fn != nullptr);
  const uint32_t slot = AcquireSlot();
  slots_[slot].fn = std::move(fn);
  return FinishSchedule(when, slot);
}

EventId Simulator::ScheduleAfter(SimTime delay, EventFn fn) {
  assert(delay >= 0.0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Cancel(EventId id) {
  if (id.seq == 0 || id.slot >= slots_.size()) return false;
  Slot& slot = slots_[id.slot];
  // The slot still belongs to this event only if the seq matches: a fired
  // or already-cancelled event's slot is recycled (or flagged) by then.
  if (slot.seq != id.seq || slot.cancelled) return false;
  slot.cancelled = true;
  slot.fn = nullptr;  // release captured resources eagerly
  return true;
}

uint64_t Simulator::Run() {
  stopped_ = false;
  uint64_t n = 0;
  while (!stopped_ && SkipCancelledTop()) {
    EventFn fn = TakeRootForDispatch();
    ++n;
    fn();
  }
  return n;
}

uint64_t Simulator::RunUntil(SimTime end) {
  assert(end >= now_);
  stopped_ = false;
  uint64_t n = 0;
  while (!stopped_ && SkipCancelledTop()) {
    if (heap_.front().when > end) break;
    EventFn fn = TakeRootForDispatch();
    ++n;
    fn();
  }
  if (now_ < end) now_ = end;
  return n;
}

uint64_t Simulator::RunUntilBefore(SimTime end) {
  assert(end >= now_);
  stopped_ = false;
  uint64_t n = 0;
  while (!stopped_ && SkipCancelledTop()) {
    if (heap_.front().when >= end) break;
    EventFn fn = TakeRootForDispatch();
    ++n;
    fn();
  }
  if (now_ < end) now_ = end;
  return n;
}

void Simulator::Reserve(size_t pending_events) {
  heap_.reserve(pending_events);
  slots_.reserve(pending_events);
  free_slots_.reserve(pending_events);
}

bool Simulator::Step() {
  stopped_ = false;
  if (!SkipCancelledTop()) return false;
  EventFn fn = TakeRootForDispatch();
  fn();
  return true;
}

PeriodicProcess::PeriodicProcess(Simulator* sim, SimTime start, SimTime period,
                                 std::function<void(uint64_t)> on_tick)
    : sim_(sim),
      start_(start),
      period_(period),
      on_tick_(std::move(on_tick)) {}

PeriodicProcess::~PeriodicProcess() { Stop(); }

Status PeriodicProcess::Start() {
  if (period_ <= 0.0) {
    return Status::InvalidArgument("PeriodicProcess period must be > 0");
  }
  if (start_ < sim_->Now()) {
    return Status::InvalidArgument("PeriodicProcess start is in the past");
  }
  if (active_) return Status::FailedPrecondition("already started");
  active_ = true;
  pending_ = sim_->ScheduleAt(start_, [this] { Fire(); });
  return Status::OK();
}

void PeriodicProcess::Stop() {
  if (!active_) return;
  // pending_ is always the *next* tick: Fire() reassigns it to the freshly
  // rescheduled event before invoking the callback, so a Stop() from inside
  // on_tick_ cancels that fresh event rather than leaving it to fire (and
  // keep ticks_fired_ counting) against a dead process.
  sim_->Cancel(pending_);
  pending_ = EventId{};
  active_ = false;
}

void PeriodicProcess::Fire() {
  if (!active_) return;  // defensive: a cancelled tick must never count
  const uint64_t tick = ticks_fired_++;
  // Reschedule before invoking the callback so the callback may Stop() us
  // (see Stop()), and so the next tick keeps its FIFO slot relative to
  // events the callback schedules at the same virtual time.
  pending_ = sim_->ScheduleAfter(period_, [this] { Fire(); });
  on_tick_(tick);
}

}  // namespace mobicache
