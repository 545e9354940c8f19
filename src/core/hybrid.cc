#include "core/hybrid.h"

#include <algorithm>
#include <cassert>

namespace mobicache {

namespace {

std::vector<ItemId> ColdInterest(const std::vector<ItemId>& interest,
                                 const std::vector<ItemId>& hot_set) {
  std::vector<ItemId> cold;
  for (ItemId id : interest) {
    if (!std::binary_search(hot_set.begin(), hot_set.end(), id)) {
      cold.push_back(id);
    }
  }
  // ClientSignatureView tolerates an empty interest set (no subsets kept).
  return cold;
}

}  // namespace

HybridSigServerStrategy::HybridSigServerStrategy(
    const Database* db, const SignatureFamily* family, SimTime latency,
    std::vector<ItemId> hot_set)
    : db_(db),
      family_(family),
      latency_(latency),
      hot_set_(std::move(hot_set)),
      state_(family, db, &hot_set_) {
  assert(latency > 0.0);
  assert(std::is_sorted(hot_set_.begin(), hot_set_.end()));
  assert(family->n() == db->size());
}

void HybridSigServerStrategy::AttachUpdateFeed(Database* db) {
  // Collect dirty ids as updates land (see
  // SigServerStrategy::AttachUpdateFeed).
  dirty_flags_.assign(db->size(), 0);
  // One entry per item at most (the flags dedup); reserve the bound so the
  // observer never allocates across elided quiet stretches.
  dirty_ids_.reserve(db->size());
  db->AddUpdateObserver([this](ItemId id, SimTime) {
    if (!dirty_flags_[id]) {
      dirty_flags_[id] = 1;
      dirty_ids_.push_back(id);
    }
  });
}

void HybridSigServerStrategy::FoldChangesThrough(
    SimTime now, std::vector<ItemId>* hot_out) {
  // One pass over the changes: hot changes are listed explicitly, cold
  // changes fold into the combined signatures.
  assert(!dirty_flags_.empty() && "build before AttachUpdateFeed");
  for (ItemId id : dirty_ids_) {
    dirty_flags_[id] = 0;
    if (std::binary_search(hot_set_.begin(), hot_set_.end(), id)) {
      if (db_->LastUpdateOf(id) > now - latency_) {
        // Appends to the caller's hot list — the broadcast path hands in
        // the reused report's storage. detlint:allow(alloc-event-path)
        hot_out->push_back(id);
      }
    } else {
      state_.OnItemChanged(id);
    }
  }
  dirty_ids_.clear();
  last_folded_ = now;
}

void HybridSigServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                              Report* out) {
  HybridReport* hy = std::get_if<HybridReport>(out);
  // Variant switch happens on the first broadcast only. detlint:allow(alloc-event-path)
  if (hy == nullptr) hy = &out->emplace<HybridReport>();
  hy->interval = interval;
  hy->timestamp = now;
  hy->hot_ids.clear();
  FoldChangesThrough(now, &hy->hot_ids);
  std::sort(hy->hot_ids.begin(), hy->hot_ids.end());
  const std::vector<uint64_t>& combined = state_.Combined();
  // Fills the reused report's retained capacity (signature width is fixed
  // after setup). detlint:allow(alloc-event-path)
  hy->combined.assign(combined.begin(), combined.end());
}

bool HybridSigServerStrategy::AdvanceQuiet(SimTime now, uint64_t interval,
                                           const MessageSizes& sizes,
                                           uint64_t* bits) {
  (void)interval;
  quiet_hot_scratch_.clear();
  FoldChangesThrough(now, &quiet_hot_scratch_);
  std::sort(quiet_hot_scratch_.begin(), quiet_hot_scratch_.end());
  quiet_now_ = now;
  // Hot half AT-style plus m cold signatures (§10 weighted accounting).
  *bits = quiet_hot_scratch_.size() * sizes.id_bits +
          state_.Combined().size() * sizes.sig_bits;
  return true;
}

void HybridSigServerStrategy::MaterializeQuietInto(SimTime now,
                                                   uint64_t interval,
                                                   Report* out) {
  assert(quiet_now_ == now && last_folded_ == now);
  HybridReport* hy = std::get_if<HybridReport>(out);
  // Variant switch happens on the first materialized report only.
  // detlint:allow(alloc-event-path)
  if (hy == nullptr) hy = &out->emplace<HybridReport>();
  hy->interval = interval;
  hy->timestamp = now;
  // Both fill the reused report's retained capacity.
  // detlint:allow(alloc-event-path)
  hy->hot_ids.assign(quiet_hot_scratch_.begin(), quiet_hot_scratch_.end());
  const std::vector<uint64_t>& combined = state_.Combined();
  // detlint:allow(alloc-event-path)
  hy->combined.assign(combined.begin(), combined.end());
}

HybridSigClientManager::HybridSigClientManager(
    const SignatureFamily* family, const std::vector<ItemId>& interest,
    std::vector<ItemId> hot_set)
    : hot_set_(std::move(hot_set)),
      view_(family, ColdInterest(interest, hot_set_)) {
  assert(std::is_sorted(hot_set_.begin(), hot_set_.end()));
}

bool HybridSigClientManager::IsHot(ItemId id) const {
  return std::binary_search(hot_set_.begin(), hot_set_.end(), id);
}

uint64_t HybridSigClientManager::OnReport(const Report& report,
                                          ClientCache* cache) {
  const auto& hybrid = std::get<HybridReport>(report);
  uint64_t invalidated = 0;

  // Hot half: AT semantics. A missed report loses only the hot part of the
  // cache — the cold part revalidates from signatures regardless.
  const bool missed_one =
      !heard_any_ || hybrid.interval > last_interval_ + 1;
  invalidated += cache->EraseIf([&](ItemId id, const CacheEntry&) {
    return IsHot(id) &&
           (missed_one || std::binary_search(hybrid.hot_ids.begin(),
                                             hybrid.hot_ids.end(), id));
  });
  // The cache visits ids in ascending order, which is the sorted list the
  // diagnosis walks its interest masks with in one pass.
  std::vector<ItemId>& cold_cached = ThreadIdScratch();
  cold_cached.clear();
  cache->ForEachItem([&](ItemId id, const CacheEntry&) {
    // Per-thread scratch, capacity retained across reports.
    // detlint:allow(alloc-event-path)
    if (!IsHot(id)) cold_cached.push_back(id);
  });

  // Cold half: syndrome diagnosis against the cold-only signatures.
  for (ItemId id : view_.DiagnoseAndAdopt(hybrid.combined, cold_cached)) {
    cache->Erase(id);
    ++invalidated;
  }

  cache->ValidateAllThrough(hybrid.timestamp);
  heard_any_ = true;
  last_interval_ = hybrid.interval;
  return invalidated;
}

}  // namespace mobicache
