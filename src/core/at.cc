#include "core/at.h"

#include <algorithm>
#include <cassert>

namespace mobicache {

AtServerStrategy::AtServerStrategy(const Database* db, SimTime latency)
    : db_(db), latency_(latency) {
  assert(latency > 0.0);
}

void AtServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                       Report* out) {
  AtReport* at = std::get_if<AtReport>(out);
  // Variant switch happens on the first broadcast only; thereafter the held
  // alternative is reused. detlint:allow(alloc-event-path)
  if (at == nullptr) at = &out->emplace<AtReport>();
  at->interval = interval;
  at->timestamp = now;
  db_->UpdatedIn(now - latency_, now, &delta_scratch_);
  at->ids.clear();
  // Fills the reused report's retained capacity. detlint:allow(alloc-event-path)
  at->ids.reserve(delta_scratch_.size());
  for (const UpdatedItem& item : delta_scratch_) at->ids.push_back(item.id);  // detlint:allow(alloc-event-path)
}

uint64_t AtClientManager::OnReport(const Report& report, ClientCache* cache) {
  const auto& at = std::get<AtReport>(report);
  uint64_t invalidated = 0;

  // Drop rule: any missed report (T_i - T_l > L) loses the whole cache.
  const bool missed_one = !heard_any_ || at.interval > last_interval_ + 1;
  if (missed_one) {
    invalidated = cache->size();
    cache->Clear();
  } else {
    if (CacheDrivenScanPays(at.ids.size(), cache->size())) {
      // Report dwarfs the cache: binary-search the id-sorted report per
      // cached item instead of probing the cache per reported id.
      invalidated = cache->EraseIf([&](ItemId id, const CacheEntry&) {
        return std::binary_search(at.ids.begin(), at.ids.end(), id);
      });
    } else {
      for (ItemId id : at.ids) {
        if (cache->Erase(id)) ++invalidated;
      }
    }
    cache->ValidateAllThrough(at.timestamp);
  }

  heard_any_ = true;
  last_interval_ = at.interval;
  return invalidated;
}

}  // namespace mobicache
