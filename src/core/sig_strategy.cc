#include "core/sig_strategy.h"

#include <cassert>

namespace mobicache {

SigServerStrategy::SigServerStrategy(const Database* db,
                                     const SignatureFamily* family,
                                     SimTime latency)
    : latency_(latency), state_(family, db) {
  assert(latency > 0.0);
  assert(family->n() == db->size());
}

void SigServerStrategy::AttachUpdateFeed(Database* db) {
  // Collect dirty ids as updates land; OnItemChanged reads the current
  // value, so folding once per dirty id at report time is exact.
  dirty_flags_.assign(db->size(), 0);
  // The flags dedup caps the list at one entry per item; size it for that
  // bound up front so the observer never allocates, however many distinct
  // items one interval touches (every broadcast folds and clears the list).
  dirty_ids_.reserve(db->size());
  db->AddUpdateObserver([this](ItemId id, SimTime) {
    if (!dirty_flags_[id]) {
      dirty_flags_[id] = 1;
      dirty_ids_.push_back(id);
    }
  });
}

void SigServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                        Report* out) {
  // Fold every item changed since the previous report into the combined
  // signatures.
  assert(!dirty_flags_.empty() && "build before AttachUpdateFeed");
  for (ItemId id : dirty_ids_) {
    state_.OnItemChanged(id);
    dirty_flags_[id] = 0;
  }
  dirty_ids_.clear();
  SigReport* sig = std::get_if<SigReport>(out);
  // Variant switch happens on the first broadcast only. detlint:allow(alloc-event-path)
  if (sig == nullptr) sig = &out->emplace<SigReport>();
  sig->interval = interval;
  sig->timestamp = now;
  const std::vector<uint64_t>& combined = state_.Combined();
  // Fills the reused report's retained capacity (signature width is fixed
  // after setup). detlint:allow(alloc-event-path)
  sig->combined.assign(combined.begin(), combined.end());
}

SigClientManager::SigClientManager(const SignatureFamily* family,
                                   const std::vector<ItemId>& interest)
    : view_(family, interest) {}

uint64_t SigClientManager::OnReport(const Report& report, ClientCache* cache) {
  const auto& sig = std::get<SigReport>(report);
  // Collect the cached ids: the cache visits them in ascending order, which
  // is the sorted list the diagnosis walks its interest masks with in one
  // pass.
  std::vector<ItemId>& cached = ThreadIdScratch();
  cached.clear();
  cache->ForEachItem([&](ItemId id, const CacheEntry&) {
    // Per-thread scratch, capacity retained across reports.
    // detlint:allow(alloc-event-path)
    cached.push_back(id);
  });
  const std::vector<ItemId>& invalid =
      view_.DiagnoseAndAdopt(sig.combined, cached);
  for (ItemId id : invalid) cache->Erase(id);
  cache->ValidateAllThrough(sig.timestamp);
  return invalid.size();
}

}  // namespace mobicache
