// Broadcasting Timestamps (TS, §3.1). The server reports, every L seconds,
// the (id, timestamp) pairs of all items updated in the last w = k*L
// seconds (Eq. 1). A client that heard a report at most k intervals ago can
// revalidate every cached item: an item mentioned with a newer timestamp
// than the cached copy is purged; every other item is re-stamped with the
// report time. A client that slept through more than k intervals drops its
// whole cache.

#ifndef MOBICACHE_CORE_TS_H_
#define MOBICACHE_CORE_TS_H_

#include <cstdint>
#include <vector>

#include "core/strategy.h"

namespace mobicache {

/// TS server half: builds Eq. 1 reports over the window w = k*L.
class TsServerStrategy : public ServerStrategy {
 public:
  /// `latency` is L (> 0); `window_intervals` is k (>= 1, so that w >= L).
  TsServerStrategy(const Database* db, SimTime latency,
                   uint64_t window_intervals);

  StrategyKind kind() const override { return StrategyKind::kTs; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  bool AdvanceQuiet(SimTime now, uint64_t interval, const MessageSizes& sizes,
                    uint64_t* bits) override;
  void MaterializeQuietInto(SimTime now, uint64_t interval,
                            Report* out) override;
  SimTime JournalHorizonSeconds() const override { return window_; }

  SimTime window() const { return window_; }
  uint64_t window_intervals() const { return window_intervals_; }

 private:
  /// The incremental step shared by every build flavour: advances
  /// `prev_entries_` to the window ending at (now, interval) — carry, expire,
  /// splice the one-interval delta — through `next_scratch_`, so the quiet
  /// path costs the same merge with no report materialization.
  void AdvanceEntries(SimTime now, uint64_t interval);
  /// Writes the report of the advanced window into `*out`, reusing its
  /// storage when it already holds a TS report.
  void FillReport(SimTime now, uint64_t interval, Report* out) const;

  const Database* db_;
  SimTime latency_;
  uint64_t window_intervals_;
  SimTime window_;
  // Previous report, kept so consecutive intervals build incrementally:
  // carry entries forward, expire those older than w, splice in the
  // one-interval delta — O(|report|) instead of re-scanning the window.
  bool have_prev_ = false;
  uint64_t prev_interval_ = 0;
  SimTime prev_now_ = 0.0;
  std::vector<TsReportEntry> prev_entries_;
  // Scratch for Database::UpdatedIn, reused across reports so the steady
  // state builds every report without a fresh delta allocation.
  std::vector<UpdatedItem> delta_scratch_;
  // Merge target that becomes the next prev_entries_ (swapped, so both
  // vectors stay warm across intervals).
  std::vector<TsReportEntry> next_scratch_;
};

/// TS client half: implements the §3.1 client algorithm.
class TsClientManager : public ClientCacheManager {
 public:
  /// `window_intervals` must match the server's k.
  explicit TsClientManager(uint64_t window_intervals);

  StrategyKind kind() const override { return StrategyKind::kTs; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override;
  bool HasValidBaseline() const override { return heard_any_; }

  /// Interval index of the last report heard (T_l in the paper); meaningful
  /// only when HasValidBaseline().
  uint64_t last_interval_heard() const { return last_interval_; }

 private:
  uint64_t window_intervals_;
  bool heard_any_ = false;
  uint64_t last_interval_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_TS_H_
