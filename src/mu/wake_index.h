// Wake index: the server-side aggregate of every attached unit's sleep
// schedule. Each MobileUnit already computes its next wake time during the
// sleep fast-forward scan (ScheduleNextTick); publishing that into a shared
// index lets the broadcast path answer two questions in O(1) / O(scan):
//
//   * how many units are awake right now (awake_count), and
//   * if none are, when does the earliest one wake (NextWakeFrom) —
//
// which is exactly what quiet-interval elision needs: an interval whose
// report transmission finishes strictly before the earliest wake can skip
// report materialization and fan-out with no observable difference.
//
// The index also stores the awake set as a bitmap in unit order, so report
// fan-out iterates awake units directly (ascending order — the unit order
// uplinks and strategy observations follow) and never visits a sleeper.
//
// Registration invariants (kept by MobileUnit::ScheduleNextTick):
//  * an awake unit occupies its bitmap bit and has no wake registration;
//  * a sleeping unit is registered under the interval index of its wake
//    tick, which the fast-forward scan bounds to at most
//    kMaxLookaheadIntervals ahead (draw budget plus the renewal model's
//    draw-free mid-nap hop) — hence the fixed ring of wake buckets below;
//  * all units of one interval's wake bucket share the same tick time
//    (boundary doubles are produced by identical repeated addition).

#ifndef MOBICACHE_MU_WAKE_INDEX_H_
#define MOBICACHE_MU_WAKE_INDEX_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/simulator.h"

namespace mobicache {

class WakeIndex {
 public:
  /// Sleeping units register a wake tick at most kMaxLookaheadIntervals
  /// ahead of the tick that put them to sleep: the fast-forward scan draws
  /// at most kMaxFastForwardScan (= 64) decisions, and the renewal model's
  /// mid-nap hop (draw-free predetermined intervals) is clamped to this
  /// horizon. Live registrations at a broadcast for interval i thus span at
  /// most [i, i + kMaxLookaheadIntervals] (the i case is a tick the sharded
  /// engine has not run yet); a ring of 2x that, indexed by interval, keeps
  /// every live bucket distinct.
  static constexpr uint64_t kRingSize = 1024;
  static constexpr uint64_t kMaxLookaheadIntervals = 512;

  /// Sizes the index for `n` slots, all initially awake. Conservative by
  /// design: an "awake" slot can never cause a broadcast to be elided, and
  /// each unit corrects its slot at its first interval tick.
  void Resize(size_t n) {
    awake_words_.assign((n + 63) / 64, ~uint64_t{0});
    if (n % 64 != 0) awake_words_.back() = (uint64_t{1} << (n % 64)) - 1;
    registered_interval_.assign(n, kUnregistered);
    awake_count_ = n;
    ring_.fill(WakeBucket{});
  }

  void MarkAwake(uint32_t slot) {
    Deregister(slot);
    uint64_t& word = awake_words_[slot >> 6];
    const uint64_t bit = uint64_t{1} << (slot & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++awake_count_;
    }
  }

  /// Marks `slot` asleep until its wake tick at interval `wake_interval`,
  /// simulation time `wake_time`.
  void MarkAsleep(uint32_t slot, uint64_t wake_interval, SimTime wake_time) {
    Deregister(slot);
    registered_interval_[slot] = wake_interval;
    WakeBucket& bucket = ring_[wake_interval & (kRingSize - 1)];
    if (bucket.count == 0 || bucket.interval != wake_interval) {
      assert(bucket.count == 0 && "wake bucket ring wrapped a live bucket");
      bucket.interval = wake_interval;
      bucket.count = 1;
      bucket.time = wake_time;
    } else {
      assert(bucket.time == wake_time && "boundary doubles diverged");
      ++bucket.count;
    }
    uint64_t& word = awake_words_[slot >> 6];
    const uint64_t bit = uint64_t{1} << (slot & 63);
    if ((word & bit) != 0) {
      word &= ~bit;
      --awake_count_;
    }
  }

  /// Earliest registered wake tick at or after broadcast interval
  /// `interval`, as a simulation time; +infinity when nothing is registered
  /// in range (then awake_count() must be consulted — an empty index of
  /// awake units has no registrations either). The `interval` bucket itself
  /// is included because the sharded engine aggregates shard indexes whose
  /// interval-`interval` ticks have not run yet.
  SimTime NextWakeFrom(uint64_t interval) const {
    for (uint64_t j = interval; j <= interval + kMaxLookaheadIntervals; ++j) {
      const WakeBucket& bucket = ring_[j & (kRingSize - 1)];
      if (bucket.count != 0 && bucket.interval == j) return bucket.time;
    }
    return std::numeric_limits<SimTime>::infinity();
  }

  size_t awake_count() const { return awake_count_; }
  size_t size() const { return registered_interval_.size(); }

  bool IsAwake(uint32_t slot) const {
    return (awake_words_[slot >> 6] >> (slot & 63)) & 1;
  }

  /// The awake set as a bitmap, bit b of word w = slot 64*w + b. Fan-out
  /// iterates set bits in ascending slot order.
  const std::vector<uint64_t>& awake_words() const { return awake_words_; }

 private:
  struct WakeBucket {
    uint64_t interval = 0;
    uint32_t count = 0;
    SimTime time = 0.0;
  };

  static constexpr uint64_t kUnregistered = ~uint64_t{0};

  void Deregister(uint32_t slot) {
    const uint64_t interval = registered_interval_[slot];
    if (interval == kUnregistered) return;
    registered_interval_[slot] = kUnregistered;
    WakeBucket& bucket = ring_[interval & (kRingSize - 1)];
    assert(bucket.count > 0 && bucket.interval == interval);
    --bucket.count;
  }

  std::vector<uint64_t> awake_words_;
  /// Per-slot wake-bucket membership (kUnregistered = awake / never slept);
  /// lets a re-registration drop its previous bucket in O(1).
  std::vector<uint64_t> registered_interval_;
  std::array<WakeBucket, kRingSize> ring_{};
  size_t awake_count_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_MU_WAKE_INDEX_H_
