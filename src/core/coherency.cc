#include "core/coherency.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/random.h"

namespace mobicache {

double NumericWalk::Step(ItemId id, uint64_t r) const {
  assert(r >= 1);
  uint64_t state = seed_ ^ (0x9E3779B97F4A7C15ULL * (id + 1)) ^
                   (0xC2B2AE3D27D4EB4FULL * r);
  const double u =
      static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;  // [0,1)
  return (2.0 * u - 1.0) * step_scale_;
}

double NumericWalk::Value(ItemId id, uint64_t version) const {
  return Advance(id, 0, version, 0.0);
}

double NumericWalk::Advance(ItemId id, uint64_t from_version,
                            uint64_t to_version, double value) const {
  assert(from_version <= to_version);
  for (uint64_t r = from_version + 1; r <= to_version; ++r) {
    value += Step(id, r);
  }
  return value;
}

QuasiAtServerStrategy::QuasiAtServerStrategy(const Database* db,
                                             SimTime latency,
                                             uint64_t alpha_intervals)
    : db_(db), latency_(latency), alpha_intervals_(alpha_intervals) {
  assert(latency > 0.0);
  assert(alpha_intervals >= 1);
}

SimTime QuasiAtServerStrategy::JournalHorizonSeconds() const {
  // The builder itself only scans one interval, but keeping alpha + L of
  // history lets observers audit the staleness bound of delivered answers.
  return alpha() + latency_;
}

void QuasiAtServerStrategy::OnUplinkQuery(const UplinkQueryInfo& info) {
  // The cell replays uplinks at the interval barrier, when the database has
  // already advanced to the window cut; the fetched version is the one at
  // the query instant, read from the full-window journal.
  assert(db_->retention() == JournalRetention::kFullWindow);
  ItemObligation& ob = obligations_[info.id];
  if (!ob.has_outstanding) {
    // First copy handed out since the last inclusion: the fetching client
    // leaves with the version current at the fetch, and the delay clock
    // starts then.
    ob.has_outstanding = true;
    ob.eligible_at =
        static_cast<uint64_t>(std::floor(info.time / latency_)) +
        alpha_intervals_;
    ob.last_included_version = db_->VersionAt(info.id, info.time);
  }
  // Later fetches inherit the earlier (stricter) obligation: the oldest
  // outstanding copy governs the reporting deadline.
}

void QuasiAtServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                            Report* out) {
  // Quasi-copy obligation bookkeeping (hash map and set, candidate list)
  // allocates by design, off the lean strategies' allocation-free contract.
  // detlint:allow-function(alloc-event-path)
  AtReport* report = std::get_if<AtReport>(out);
  if (report == nullptr) report = &out->emplace<AtReport>();
  report->interval = interval;
  report->timestamp = now;
  report->ids.clear();

  // Candidates: fresh changes from the last interval plus changes still
  // deferred by an unmatured obligation.
  std::vector<ItemId> candidates;
  for (const UpdatedItem& item : db_->UpdatedIn(now - latency_, now)) {
    candidates.push_back(item.id);
  }
  candidates.insert(candidates.end(), pending_.begin(), pending_.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  for (ItemId id : candidates) {
    ItemObligation& ob = obligations_[id];
    const bool changed = db_->VersionOf(id) > ob.last_included_version;
    if (!changed) {
      pending_.erase(id);
      continue;
    }
    if (!ob.has_outstanding) {
      // No client holds a copy: nothing to invalidate; a future fetch gets
      // the fresh value anyway.
      pending_.erase(id);
      ob.last_included_version = db_->VersionOf(id);
      continue;
    }
    if (interval >= ob.eligible_at) {
      report->ids.push_back(id);
      ob.last_included_version = db_->VersionOf(id);
      // Inclusion invalidates every copy (awake clients drop it now;
      // sleepers drop their whole cache on waking), so the slate is clean.
      ob.has_outstanding = false;
      ob.eligible_at = 0;
      pending_.erase(id);
    } else {
      ++deferrals_;
      pending_.insert(id);
    }
  }
  std::sort(report->ids.begin(), report->ids.end());
}

uint64_t QuasiAtClientManager::OnReport(const Report& report,
                                        ClientCache* cache) {
  const auto& at = std::get<AtReport>(report);
  uint64_t invalidated = 0;

  const bool missed_one = !heard_any_ || at.interval > last_interval_ + 1;
  if (missed_one) {
    invalidated = cache->size();
    cache->Clear();
  } else {
    for (ItemId id : at.ids) {
      if (cache->Erase(id)) ++invalidated;
    }
    // Aging protocol (§7): a copy that would exceed alpha before the next
    // report is re-stamped now — it survived a report whose obligations had
    // matured, so the server vouched for it afresh. Younger copies keep
    // their original stamp so their true age stays visible. (Selective
    // re-stamping, so the cache-wide ValidateAllThrough does not apply.)
    std::vector<ItemId>& restamp = ThreadIdScratch();
    restamp.clear();
    cache->ForEachItem([&](ItemId id, const CacheEntry& entry) {
      if (at.timestamp - entry.timestamp > alpha_ - latency_) {
        // Per-thread scratch, capacity retained across reports.
        // detlint:allow(alloc-event-path)
        restamp.push_back(id);
      }
    });
    for (ItemId id : restamp) cache->SetTimestamp(id, at.timestamp);
  }

  heard_any_ = true;
  last_interval_ = at.interval;
  return invalidated;
}

bool QuasiAtClientManager::CanAnswerFromCache(ItemId id, SimTime now,
                                              const ClientCache& cache) const {
  const CacheEntry* entry = cache.Peek(id);
  if (entry == nullptr) return false;
  // A copy strictly older than alpha may not answer until re-validated.
  return now - entry->timestamp <= alpha_;
}

ArithmeticAtServerStrategy::ArithmeticAtServerStrategy(const Database* db,
                                                       const NumericWalk* walk,
                                                       SimTime latency,
                                                       double epsilon)
    : db_(db), walk_(walk), latency_(latency), epsilon_(epsilon) {
  assert(latency > 0.0);
  assert(epsilon >= 0.0);
}

ArithmeticAtServerStrategy::ItemDrift& ArithmeticAtServerStrategy::Track(
    ItemId id) const {
  ItemDrift& d = drift_[id];
  const uint64_t current = db_->VersionOf(id);
  if (current > d.version) {
    d.numeric = walk_->Advance(id, d.version, current, d.numeric);
    d.version = current;
  }
  return d;
}

void ArithmeticAtServerStrategy::BuildReportInto(SimTime now,
                                                 uint64_t interval,
                                                 Report* out) {
  // The drift cache is a hash map filled on first sight of an item, off the
  // lean strategies' allocation-free contract.
  // detlint:allow-function(alloc-event-path)
  AtReport* report = std::get_if<AtReport>(out);
  if (report == nullptr) report = &out->emplace<AtReport>();
  report->interval = interval;
  report->timestamp = now;
  report->ids.clear();
  for (const UpdatedItem& item : db_->UpdatedIn(now - latency_, now)) {
    ItemDrift& d = Track(item.id);
    if (std::fabs(d.numeric - d.last_reported) > epsilon_) {
      report->ids.push_back(item.id);
      d.last_reported = d.numeric;
    } else {
      ++suppressions_;
    }
  }
}

double ArithmeticAtServerStrategy::CurrentNumeric(ItemId id) const {
  return Track(id).numeric;
}

}  // namespace mobicache
