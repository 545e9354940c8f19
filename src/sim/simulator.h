// Discrete-event simulation core. A Simulator owns a virtual clock and an
// event queue; components schedule closures at absolute or relative virtual
// times. Events at equal times fire in scheduling order (stable FIFO
// tie-break) so runs are fully deterministic for a given seed.
//
// Hot-path layout: heap entries are 24-byte PODs (time, seq, slot), so the
// sift operations that dominate large queues stay cache-friendly, and the
// callback lives in a slot slab indexed directly by the entry — no hash
// lookup and no per-event node allocation (slots are recycled through a
// free list, so slab size tracks *peak pending* events, not run length).
// Cancellation is a tombstone flag in the slot, checked when the entry
// reaches the top of the heap; Cancel() is O(1) and cancelled entries are
// skipped lazily at dispatch time (their callbacks are destroyed eagerly).

#ifndef MOBICACHE_SIM_SIMULATOR_H_
#define MOBICACHE_SIM_SIMULATOR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace mobicache {

/// Virtual time in seconds.
using SimTime = double;

/// Move-only `void()` callable with fixed small-buffer storage and no heap
/// fallback: every event callback in the simulator lives inline in its slot,
/// so scheduling and dispatching allocate nothing. The capture budget is
/// enforced at compile time — a closure that outgrows kInlineBytes is a
/// static_assert, not a silent allocation. 48 bytes covers every current
/// caller (the largest is the server's delivery closure at 40 bytes: a
/// pointer, a shared_ptr, and two doubles) with one pointer of headroom.
class EventFn {
 public:
  static constexpr size_t kInlineBytes = 48;
  static constexpr size_t kInlineAlign = alignof(void*);

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT: mirrors std::function conversions

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventFn(F&& f) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "event closure exceeds the EventFn small-buffer budget; "
                  "shrink the capture list (EventFn has no heap fallback)");
    static_assert(alignof(Fn) <= kInlineAlign,
                  "event closure is over-aligned for EventFn inline storage");
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "EventFn requires a void() callable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  /// Destroys the current callable (if any) and constructs `f` directly in
  /// the inline storage. The scheduler uses this to build callbacks in their
  /// slot instead of relocating them through a temporary.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "event closure exceeds the EventFn small-buffer budget; "
                  "shrink the capture list (EventFn has no heap fallback)");
    static_assert(alignof(Fn) <= kInlineAlign,
                  "event closure is over-aligned for EventFn inline storage");
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "EventFn requires a void() callable");
    Reset();
    // Placement new into the inline SBO buffer — constructs in place, does
    // not touch the heap. detlint:allow(alloc-event-path)
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const EventFn& f, std::nullptr_t) { return !f; }
  friend bool operator!=(const EventFn& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  struct OpsFor {
    static void Invoke(void* self) { (*static_cast<Fn*>(self))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* self) { static_cast<Fn*>(self)->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }
  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Identifies a scheduled event; usable to cancel it before it fires.
/// Treat as opaque: `seq` is a lifetime-unique event number (0 = never a
/// real event, so a default EventId cancels nothing) and `slot` locates the
/// event's callback storage.
struct EventId {
  uint64_t seq = 0;
  uint32_t slot = 0;
};

/// Deterministic single-threaded discrete-event scheduler.
class Simulator {
 public:
  Simulator() = default;

  // Simulator hands out raw pointers to itself via closures; moving it would
  // invalidate them.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Starts at 0.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when`. `when` must be >= Now().
  /// Returns an id usable with Cancel(). The callback is stored inline in
  /// the event slot (see EventFn) — no per-event heap allocation.
  EventId ScheduleAt(SimTime when, EventFn fn);

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId ScheduleAfter(SimTime delay, EventFn fn);

  /// Perfect-forwarding overloads: the closure is constructed directly in
  /// its event slot, skipping the relocate through a temporary EventFn that
  /// the by-value overloads pay. On the hot scheduling paths (one reschedule
  /// per update and per query arrival) that is the difference between one
  /// and two closure moves per event.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventId ScheduleAt(SimTime when, F&& f) {
    const uint32_t slot = AcquireSlot();
    slots_[slot].fn.Emplace(std::forward<F>(f));
    return FinishSchedule(when, slot);
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventId ScheduleAfter(SimTime delay, F&& f) {
    assert(delay >= 0.0);
    return ScheduleAt(now_ + delay, std::forward<F>(f));
  }

  /// Cancels a pending event in O(1). Returns true if the event existed and
  /// had not yet fired (lazy removal: the slot stays queued but becomes a
  /// no-op).
  bool Cancel(EventId id);

  /// Runs events until the queue is empty or Stop() is called.
  /// Returns the number of events dispatched by this call.
  uint64_t Run();

  /// Runs events with time <= `end`, then sets the clock to `end` (if it is
  /// beyond the last event). Returns the number of events dispatched.
  uint64_t RunUntil(SimTime end);

  /// Runs events with time strictly < `end`, then sets the clock to `end`.
  /// Events scheduled at exactly `end` stay queued and fire on the next
  /// run call — the lockstep sharded engine uses this to advance every
  /// shard to an interval boundary while leaving the boundary's own events
  /// (the next tick wave) to the following window.
  uint64_t RunUntilBefore(SimTime end);

  /// Pre-sizes the heap, slot slab, and free list for `pending_events`
  /// simultaneously queued events, so large populations never reallocate
  /// mid-run. A report-driven unit holds one pending event (its tick); an
  /// immediate-answer unit holds its tick plus its next query arrival.
  void Reserve(size_t pending_events);

  /// Dispatches exactly one event if any is pending. Returns true if an
  /// event ran.
  bool Step();

  /// Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  /// Number of events still queued (including cancelled placeholders).
  size_t PendingEvents() const { return heap_.size(); }

  /// Total events dispatched over the simulator's lifetime.
  uint64_t DispatchedEvents() const { return dispatched_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
    // Min-heap priority: earliest time first, then FIFO by seq.
    bool Before(const Entry& other) const {
      if (when != other.when) return when < other.when;
      return seq < other.seq;
    }
  };

  /// Callback storage for one pending event. A slot is owned by exactly one
  /// queued entry (matching seq) from ScheduleAt until that entry is popped,
  /// then recycled through free_slots_. The callback bytes live inline in
  /// the slot (EventFn small buffer), so the slab is flat storage with no
  /// per-event pointer chasing or allocation.
  struct Slot {
    EventFn fn;
    uint64_t seq = 0;
    bool cancelled = false;
  };

  /// Pops a recycled slot (or grows the slab) for an event about to be
  /// scheduled; the caller fills the slot's callback before FinishSchedule.
  uint32_t AcquireSlot();
  /// Stamps the slot with a fresh seq, pushes the heap entry, and returns
  /// the event id. Asserts the time ordering contract.
  EventId FinishSchedule(SimTime when, uint32_t slot);
  void HeapPush(Entry entry);
  Entry HeapPopRoot();
  /// Drops cancelled entries (and recycles their slots) off the top;
  /// afterwards the root, if any, is a live event. Returns false if the
  /// heap is empty.
  bool SkipCancelledTop();
  /// Moves the root's callback out, recycles its slot, advances the clock,
  /// and returns the callback ready to invoke.
  EventFn TakeRootForDispatch();

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 1;  // 0 is reserved so a default EventId is inert
  uint64_t dispatched_ = 0;
  bool stopped_ = false;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

/// Repeatedly invokes a callback with a fixed period, starting at `start`.
/// The callback receives the tick index (0-based). Owned by the caller; the
/// schedule stops when the object is destroyed or Stop() is called. Stop()
/// may be called from inside the callback: the tick Fire() has already
/// rescheduled is cancelled and ticks_fired() freezes.
class PeriodicProcess {
 public:
  /// `period` must be > 0. Does not schedule anything until Start().
  PeriodicProcess(Simulator* sim, SimTime start, SimTime period,
                  std::function<void(uint64_t)> on_tick);
  ~PeriodicProcess();

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  /// Schedules the first tick. Returns InvalidArgument on a bad period.
  Status Start();

  /// Cancels any pending tick; idempotent.
  void Stop();

  bool active() const { return active_; }
  uint64_t ticks_fired() const { return ticks_fired_; }

 private:
  void Fire();

  Simulator* sim_;
  SimTime start_;
  SimTime period_;
  std::function<void(uint64_t)> on_tick_;
  EventId pending_{};
  bool active_ = false;
  uint64_t ticks_fired_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_SIM_SIMULATOR_H_
