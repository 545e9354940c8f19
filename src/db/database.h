// Server-side database substrate: n named items with synthetic 64-bit
// values, per-item update timestamps, and a time-ordered update journal that
// answers the window queries the invalidation-report builders need
// ("which items changed in (lo, hi], and when was each one's last change?").
//
// Hot-path layout: the per-item state the update and report paths touch —
// version and last-update time — lives in a 64-byte-aligned slab of 16-byte
// records, four per cache line, so the random per-update access costs at
// most one line and a prefetched line serves the digest walk four items at a
// time. The value payload is not stored at all: SyntheticValue(seed, id,
// version) is a pure function of state the slab already holds, so reads
// derive it on demand and updates never touch value bytes.
//
// The journal is a ring of time buckets (one per broadcast interval once
// SetJournalBucketWidth is wired by the server), each holding parallel
// time/id arrays (SoA: window scans walk times without dragging ids through
// the cache). A bucket that the clock has moved past is sealed; the first
// window query that fully covers a sealed bucket builds its per-id digest —
// each id once, at its latest in-bucket update time, id-sorted — exactly
// once, so report builders splice k sealed digests instead of re-scanning
// and re-sorting k*L seconds of raw entries per report, while workloads that
// never query the journal (no-caching cells) never pay for digests at all.
// Pruning drops whole buckets and recycles their storage into a small free
// list, so the steady state (one bucket appended, one pruned per interval)
// allocates nothing.
//
// The retention class (JournalRetention, armed once by the server from the
// strategy's declaration) is the one journal switch: kNone keeps no journal
// at all, kFullWindow keeps the raw buckets above.

#ifndef MOBICACHE_DB_DATABASE_H_
#define MOBICACHE_DB_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/status.h"

namespace mobicache {

/// Dense item identifier in [0, n).
using ItemId = uint32_t;

/// Derives the synthetic value of (`seed`, `id`, `version`). Exposed so
/// tests and clients can verify cache contents against the ground truth.
uint64_t SyntheticValue(uint64_t seed, ItemId id, uint64_t version);

/// Snapshot of one database item, as returned by Get(). The value is derived
/// on demand (see the file comment); the authoritative storage is the hot
/// slab's (version, last_update) pair.
struct ItemState {
  uint64_t value = 0;     ///< Synthetic value; changes on every update.
  uint64_t version = 0;   ///< Number of updates applied so far.
  SimTime last_update = 0.0;  ///< Time of the most recent update (0 if none).
};

/// An (item, last-update-time) pair returned by window queries.
struct UpdatedItem {
  ItemId id = 0;
  SimTime updated_at = 0.0;
};

/// How much update history the database must retain for the strategy it
/// serves. Strategies declare their class (ServerStrategy::retention) and
/// Server::Start arms the database accordingly:
///
///  * kNone        — no journal at all. The strategy never issues a window
///                   query: no-caching, whose reports are empty, and the
///                   signature schemes (SIG, hybrid), whose state-based
///                   reports fold changes from the attached update feed.
///                   Every journal append would be pure overhead on the
///                   hottest path.
///  * kFullWindow  — raw entries over the report window (TS, AT, grouped,
///                   adaptive, or any strategy under an answer-observer
///                   floor). The default.
enum class JournalRetention : uint8_t {
  kNone,
  kFullWindow,
};

/// Short name for bench/JSON output ("none", "full").
const char* JournalRetentionName(JournalRetention retention);

/// The replicated database held by the stationary server. Single-writer (the
/// server applies all updates, per the paper's §2 assumption).
class Database {
 public:
  /// Creates `n` items (n >= 1) with deterministic initial values derived
  /// from `seed`.
  Database(uint64_t n, uint64_t seed);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  uint64_t size() const { return n_; }

  /// Snapshot of an item's state. `id` must be < size(). Derives the value;
  /// hot-path callers that need a single field should use ValueOf /
  /// VersionOf / LastUpdateOf instead.
  ItemState Get(ItemId id) const {
    const HotItem& item = hot_[id];
    return ItemState{SyntheticValueFor(id, item.version), item.version,
                     item.last_update};
  }

  /// Current synthetic value of `id` (derived, not stored).
  uint64_t ValueOf(ItemId id) const {
    return SyntheticValueFor(id, hot_[id].version);
  }
  /// Number of updates applied to `id` so far.
  uint64_t VersionOf(ItemId id) const { return hot_[id].version; }
  /// Time of `id`'s most recent update (0 if none).
  SimTime LastUpdateOf(ItemId id) const { return hot_[id].last_update; }

  /// Applies one update to `id` at time `now`: bumps the version, stamps the
  /// time, and journals the change. `now` must be monotonically
  /// non-decreasing across calls.
  void ApplyUpdate(ItemId id, SimTime now);

  /// Applies `count` updates in one pass: a prefetched walk over the hot
  /// slab with the same per-update effects (version bump, timestamp,
  /// journal append, observer dispatch, in order) as `count` ApplyUpdate
  /// calls. `times` must be non-decreasing and continue the journal's tail.
  /// The batched update kernel's sink (UpdateGenerator's drain).
  void ApplyUpdateBatch(const ItemId* ids, const SimTime* times,
                        size_t count);

  /// Hints that `id` will be updated soon. With millions of items the
  /// per-update random access to the hot slab misses every cache level; a
  /// caller that knows the id ahead of time (the update generator samples it
  /// one update early) can hide that miss behind the work until its next
  /// pump. Also touches the journal's append cursor, which the same
  /// update will write.
  void PrefetchItem(ItemId id) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&hot_[id], /*rw=*/1, /*locality=*/1);
    // Next journal write slots, cached as raw cursors by AppendJournal —
    // touching the tail through the deque here would cost more than the
    // prefetch saves. Null before the first append; prefetch never faults.
    __builtin_prefetch(append_times_cursor_, /*rw=*/1, /*locality=*/1);
    __builtin_prefetch(append_ids_cursor_, /*rw=*/1, /*locality=*/1);
#else
    (void)id;
#endif
  }

  /// Long-range variant of PrefetchItem for callers that know an id a whole
  /// lookahead block (~hundreds of updates) before it is applied: request
  /// the slab line into the outer levels (T1 hint) without competing for L1
  /// the way the short-range apply-loop prefetch does.
  void PrefetchItemFar(ItemId id) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&hot_[id], /*rw=*/1, /*locality=*/2);
#else
    (void)id;
#endif
  }

  /// Items whose *last* update falls in (lo, hi], each reported once with
  /// its latest update time, in increasing id order. This is exactly the
  /// report-list definition used by TS (Eq. 1) and AT (Eq. 2).
  std::vector<UpdatedItem> UpdatedIn(SimTime lo, SimTime hi) const;

  /// Same window query into a caller-owned buffer (cleared first). Report
  /// builders run once per interval; reusing one buffer across intervals
  /// keeps the per-report allocation count flat.
  void UpdatedIn(SimTime lo, SimTime hi, std::vector<UpdatedItem>* out) const;

  /// Raw update events (every update, not just the last per item) with time
  /// in (lo, hi], ascending by time. Used by the adaptive controller to
  /// reconstruct per-item update histories for hit-ratio estimation.
  std::vector<UpdatedItem> JournalIn(SimTime lo, SimTime hi) const;

  /// Version of `id` as of time `t` (inclusive), reconstructed from the
  /// journal. Only valid while the journal still covers (t, now] for this
  /// item — i.e. t must not predate the prune horizon. Used by tests and
  /// benches to verify cache contents against historical ground truth.
  uint64_t VersionAt(ItemId id, SimTime t) const;

  /// Value of `id` as of time `t` (see VersionAt's journal caveat).
  uint64_t ValueAt(ItemId id, SimTime t) const;

  uint64_t seed() const { return seed_; }

  /// Drops journal entries with time <= `horizon`. Builders never look
  /// further back than the largest report window, so the server prunes
  /// periodically to bound memory. Dropped buckets' storage is recycled.
  void PruneJournalBefore(SimTime horizon);

  uint64_t total_updates() const { return total_updates_; }
  size_t journal_size() const { return journal_entries_; }

  /// Arms the retention class the strategy declared (see JournalRetention):
  /// kNone disables the journal and drops any existing entries, kFullWindow
  /// keeps the raw-bucket journal. The one journal switch; the history
  /// readers (UpdatedIn, JournalIn, VersionAt) assert the journal is live,
  /// so misuse fails loudly in debug builds. Call before any updates flow;
  /// the server wires it in Start().
  void SetRetention(JournalRetention retention);
  JournalRetention retention() const { return retention_; }
  bool journal_enabled() const {
    return retention_ != JournalRetention::kNone;
  }

  /// Primary journal storage held right now / at its high-water mark over
  /// the run, in bytes: 12 per raw entry (time + id). Derived digests of
  /// sealed buckets are query caches, not retention, and are excluded.
  uint64_t journal_bytes() const { return journal_bytes_; }
  uint64_t journal_bytes_peak() const {
    return journal_bytes_ > journal_bytes_peak_ ? journal_bytes_
                                                : journal_bytes_peak_;
  }

  /// Sets the bucket width (normally the broadcast latency L; 0 keeps the
  /// whole journal in one bucket). Existing entries are re-bucketed, so this
  /// may be called at any time; the server wires it before starting the
  /// broadcast schedule.
  void SetJournalBucketWidth(SimTime width);
  SimTime journal_bucket_width() const { return bucket_width_; }

  /// Installs a callback invoked after every ApplyUpdate. Used by the
  /// stateful-server baseline, which reacts to individual updates instead of
  /// building periodic reports. Pass nullptr to remove.
  void SetUpdateObserver(std::function<void(ItemId, SimTime)> observer) {
    observer_ = std::move(observer);
    RebuildObserverFastPath();
  }

  /// Adds a further update callback (the report strategies' incremental
  /// feeds); unlike the single SetUpdateObserver slot these accumulate.
  void AddUpdateObserver(std::function<void(ItemId, SimTime)> observer) {
    extra_observers_.push_back(std::move(observer));
    RebuildObserverFastPath();
  }

  /// Removes every observer installed via AddUpdateObserver.
  void ClearExtraObservers() {
    extra_observers_.clear();
    RebuildObserverFastPath();
  }

 private:
  /// Hot per-item state: exactly 16 bytes, four per cache line in the
  /// 64-byte-aligned slab, so a record never straddles a line boundary.
  struct alignas(16) HotItem {
    uint64_t version = 0;
    SimTime last_update = 0.0;
  };
  static_assert(sizeof(HotItem) == 16, "hot record must pack 4 per line");

  /// One bucket of the journal ring, covering times in
  /// (index * width, (index + 1) * width]. Parallel SoA arrays: times is
  /// ascending; ids[i] is the item updated at times[i].
  struct Bucket {
    int64_t index = 0;
    std::vector<SimTime> times;
    std::vector<ItemId> ids;
    /// Built lazily on the first fully-covering window query of a sealed
    /// bucket: each id once at its latest in-bucket time (ties kept with
    /// their multiplicity), ascending by id. `mutable` because the build is
    /// a cache fill under const query methods.
    mutable std::vector<UpdatedItem> digest;
    mutable bool digest_built = false;
    bool sealed = false;  ///< The clock has moved past this bucket.

    bool HasEntries() const { return !times.empty(); }
    SimTime FirstTime() const { return times.front(); }
    SimTime LastTime() const { return times.back(); }
    size_t EntryCount() const { return times.size(); }
  };

  /// FIFO of journal buckets over a flat vector: pop_front leaves a dead
  /// prefix behind and the push path compacts it away with element moves
  /// once it dominates. Unlike a deque there are no chunk nodes to churn, so
  /// the steady state (one bucket pushed, one popped per interval, storage
  /// recycled through the spare list) performs zero heap allocations; moves
  /// never touch the inner arrays, so cached pointers into a bucket's
  /// times/ids storage survive compaction.
  class BucketFifo {
   public:
    bool empty() const { return head_ == store_.size(); }
    size_t size() const { return store_.size() - head_; }
    Bucket& front() { return store_[head_]; }
    const Bucket& front() const { return store_[head_]; }
    Bucket& back() { return store_.back(); }
    const Bucket& back() const { return store_.back(); }
    Bucket* begin() { return store_.data() + head_; }
    Bucket* end() { return store_.data() + store_.size(); }
    const Bucket* begin() const { return store_.data() + head_; }
    const Bucket* end() const { return store_.data() + store_.size(); }

    Bucket& emplace_back() {
      MaybeCompact();
      return store_.emplace_back();
    }
    void push_back(Bucket&& bucket) {
      MaybeCompact();
      store_.push_back(std::move(bucket));
    }
    /// Drops the front bucket (the caller has already salvaged its storage
    /// via RecycleBucket); the shell stays behind until compaction.
    void pop_front() { ++head_; }
    void clear() {
      store_.clear();
      head_ = 0;
    }

   private:
    void MaybeCompact() {
      if (head_ == store_.size()) {
        store_.clear();
        head_ = 0;
      } else if (head_ > 8 && head_ * 2 > store_.size()) {
        store_.erase(store_.begin(),
                     store_.begin() + static_cast<ptrdiff_t>(head_));
        head_ = 0;
      }
    }

    std::vector<Bucket> store_;
    size_t head_ = 0;
  };

  uint64_t SyntheticValueFor(ItemId id, uint64_t version) const {
    return SyntheticValue(seed_, id, version);
  }
  int64_t BucketIndexFor(SimTime t) const;
  void AppendJournal(ItemId id, SimTime now);
  /// Time of the newest journal entry (assert support for the monotonic
  /// append contract). Journal must be non-empty.
  SimTime JournalTailTime() const {
    return buckets_.back().LastTime();
  }
  /// In-order observer dispatch shared by ApplyUpdate and the batch path.
  void DispatchUpdateObservers(ItemId id, SimTime now) {
    if (single_observer_ != nullptr) {
      (*single_observer_)(id, now);
    } else if (multi_observers_) {
      if (observer_) observer_(id, now);
      for (const auto& observer : extra_observers_) observer(id, now);
    }
  }
  /// ApplyUpdateBatch specializations: the slab-only walk hands the whole
  /// chunk to the SIMD kernel (no per-entry journal/observer work exists);
  /// the journal walk prefetches the slab line of a future entry.
  void ApplyBatchSlabOnly(const ItemId* ids, const SimTime* times,
                          size_t count);
  void ApplyBatchJournal(const ItemId* ids, const SimTime* times,
                         size_t count);
  /// Appends a fresh bucket with `index`, reusing recycled storage when
  /// available and reserving `reserve_hint` entries.
  void PushBucket(int64_t index, size_t reserve_hint);
  /// Saves a drained bucket's storage in the spare list (bounded).
  void RecycleBucket(Bucket* bucket);
  static void BuildDigest(const Bucket& bucket);
  void RebuildObserverFastPath();

  /// Folds the current byte count into the peak watermark. Bytes grow
  /// monotonically between prunes, so calling this right before any
  /// decrement (prune, disable) keeps the stored peak exact without a
  /// compare on every append.
  void SyncJournalBytesPeak() {
    if (journal_bytes_ > journal_bytes_peak_) {
      journal_bytes_peak_ = journal_bytes_;
    }
  }

  uint64_t n_ = 0;
  HotItem* hot_ = nullptr;  ///< 64-byte-aligned slab of n_ records.
  BucketFifo buckets_;  // ascending index; times never empty
  /// One-past-the-end of the tail bucket's SoA arrays, refreshed by every
  /// AppendJournal — PrefetchItem's journal-append hint (see above).
  const SimTime* append_times_cursor_ = nullptr;
  const ItemId* append_ids_cursor_ = nullptr;
  std::vector<Bucket> spare_buckets_;  ///< Recycled storage (bounded).
  size_t journal_entries_ = 0;
  /// Primary journal bytes held now / at peak (see journal_bytes_peak()).
  uint64_t journal_bytes_ = 0;
  uint64_t journal_bytes_peak_ = 0;
  SimTime bucket_width_ = 0.0;
  JournalRetention retention_ = JournalRetention::kFullWindow;
  uint64_t total_updates_ = 0;
  uint64_t seed_;
  std::function<void(ItemId, SimTime)> observer_;
  std::vector<std::function<void(ItemId, SimTime)>> extra_observers_;
  /// Exactly-one-observer fast path: points at the lone registered callback
  /// (refreshed on every observer mutation, so vector reallocation cannot
  /// dangle it); null when zero or several observers are registered.
  const std::function<void(ItemId, SimTime)>* single_observer_ = nullptr;
  bool multi_observers_ = false;  ///< Two or more observers registered.
  /// UpdatedIn scratch (segment offsets for the bottom-up merge). `mutable`
  /// cache-fill state like the digests: window queries only run in the
  /// single-threaded server phase.
  mutable std::vector<size_t> merge_starts_;
};

}  // namespace mobicache

#endif  // MOBICACHE_DB_DATABASE_H_
