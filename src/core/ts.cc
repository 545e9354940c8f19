#include "core/ts.h"

#include <algorithm>
#include <cassert>

namespace mobicache {

TsServerStrategy::TsServerStrategy(const Database* db, SimTime latency,
                                   uint64_t window_intervals)
    : db_(db),
      latency_(latency),
      window_intervals_(window_intervals),
      window_(latency * static_cast<double>(window_intervals)) {
  assert(latency > 0.0);
  assert(window_intervals >= 1);
}

void TsServerStrategy::AdvanceEntries(SimTime now, uint64_t interval) {
  // Every append below lands in next_scratch_/delta_scratch_, member scratch
  // whose capacity is retained across intervals; the steady state allocates
  // nothing. detlint:allow-function(alloc-event-path)
  const SimTime lo = now - window_;
  next_scratch_.clear();
  // U_i = { [j, t_j] : T_i - w < t_j <= T_i }  (Eq. 1)
  if (have_prev_ && interval == prev_interval_ + 1) {
    // Consecutive interval: the previous report already lists every id whose
    // latest update fell in (T_{i-1} - w, T_{i-1}]. Expire what aged out of
    // the window, splice in the one-interval delta, let fresher delta
    // entries supersede stale carried ones. Both inputs are id-sorted, so a
    // single merge yields the id-sorted result UpdatedIn would have built.
    db_->UpdatedIn(prev_now_, now, &delta_scratch_);
    next_scratch_.reserve(prev_entries_.size() + delta_scratch_.size());
    auto d = delta_scratch_.begin();
    for (const TsReportEntry& e : prev_entries_) {
      while (d != delta_scratch_.end() && d->id < e.id) {
        next_scratch_.push_back(TsReportEntry{d->id, d->updated_at});
        ++d;
      }
      if (d != delta_scratch_.end() && d->id == e.id) continue;  // superseded
      if (e.updated_at <= lo) continue;  // aged out of w
      next_scratch_.push_back(e);
    }
    for (; d != delta_scratch_.end(); ++d) {
      next_scratch_.push_back(TsReportEntry{d->id, d->updated_at});
    }
  } else {
    db_->UpdatedIn(lo, now, &delta_scratch_);
    for (const UpdatedItem& item : delta_scratch_) {
      next_scratch_.push_back(TsReportEntry{item.id, item.updated_at});
    }
  }
  have_prev_ = true;
  prev_interval_ = interval;
  prev_now_ = now;
  prev_entries_.swap(next_scratch_);
}

void TsServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                       Report* out) {
  AdvanceEntries(now, interval);
  FillReport(now, interval, out);
}

void TsServerStrategy::FillReport(SimTime now, uint64_t interval,
                                  Report* out) const {
  TsReport* ts = std::get_if<TsReport>(out);
  // Variant switch happens on the first broadcast only. detlint:allow(alloc-event-path)
  if (ts == nullptr) ts = &out->emplace<TsReport>();
  ts->interval = interval;
  ts->timestamp = now;
  ts->window = window_;
  // Fills the reused report's retained capacity. detlint:allow(alloc-event-path)
  ts->entries.assign(prev_entries_.begin(), prev_entries_.end());
}

bool TsServerStrategy::AdvanceQuiet(SimTime now, uint64_t interval,
                                    const MessageSizes& sizes,
                                    uint64_t* bits) {
  AdvanceEntries(now, interval);
  // Eq. 16: nc * (log n + bT), exactly ReportSizeBits of the TS report the
  // advanced window would materialize.
  *bits = prev_entries_.size() * (sizes.id_bits + sizes.bT);
  return true;
}

void TsServerStrategy::MaterializeQuietInto(SimTime now, uint64_t interval,
                                           Report* out) {
  assert(have_prev_ && prev_interval_ == interval && prev_now_ == now);
  FillReport(now, interval, out);
}

TsClientManager::TsClientManager(uint64_t window_intervals)
    : window_intervals_(window_intervals) {
  assert(window_intervals >= 1);
}

uint64_t TsClientManager::OnReport(const Report& report, ClientCache* cache) {
  const auto& ts = std::get<TsReport>(report);
  uint64_t invalidated = 0;

  // Drop rule: slept through more than k intervals since the last heard
  // report (T_i - T_l > w), or never heard one.
  const bool gap_too_long =
      !heard_any_ || ts.interval > last_interval_ + window_intervals_;
  if (gap_too_long) {
    invalidated = cache->size();
    cache->Clear();
  } else {
    // Purge cached items the report marks as changed after the copy's
    // validity timestamp; every surviving item is revalidated through T_i.
    if (CacheDrivenScanPays(ts.entries.size(), cache->size())) {
      // Report dwarfs the cache: binary-search the id-sorted report once
      // per cached item instead of probing the cache per report entry.
      invalidated = cache->EraseIf([&](ItemId id, const CacheEntry& entry) {
        auto it = std::lower_bound(
            ts.entries.begin(), ts.entries.end(), id,
            [](const TsReportEntry& e, ItemId v) { return e.id < v; });
        return it != ts.entries.end() && it->id == id &&
               entry.timestamp < it->updated_at;
      });
    } else {
      for (const TsReportEntry& entry : ts.entries) {
        const CacheEntry* cached = cache->Peek(entry.id);
        if (cached != nullptr && cached->timestamp < entry.updated_at) {
          cache->Erase(entry.id);
          ++invalidated;
        }
      }
    }
    cache->ValidateAllThrough(ts.timestamp);
  }

  heard_any_ = true;
  last_interval_ = ts.interval;
  return invalidated;
}

}  // namespace mobicache
