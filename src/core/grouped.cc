#include "core/grouped.h"

#include <algorithm>
#include <cassert>

#include "util/bits.h"

namespace mobicache {

ItemGrouping::ItemGrouping(uint64_t n, uint32_t num_groups)
    : n_(n), num_groups_(num_groups) {
  assert(n >= 1);
  assert(num_groups >= 1 && num_groups <= n);
  block_ = (n + num_groups - 1) / num_groups;  // ceil(n / G)
}

GroupedAtServerStrategy::GroupedAtServerStrategy(const Database* db,
                                                 SimTime latency,
                                                 uint32_t num_groups)
    : db_(db), latency_(latency), grouping_(db->size(), num_groups) {
  assert(latency > 0.0);
}

void GroupedAtServerStrategy::ChangedGroups(SimTime now,
                                            std::vector<uint32_t>* out) {
  db_->UpdatedIn(now - latency_, now, &delta_scratch_);
  for (const UpdatedItem& item : delta_scratch_) {
    const uint32_t group = grouping_.GroupOf(item.id);
    // Appends to the caller's group list — the broadcast path hands in the
    // reused report's retained storage. detlint:allow(alloc-event-path)
    if (out->empty() || out->back() != group) out->push_back(group);
  }
}

void GroupedAtServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                              Report* out) {
  GroupedAtReport* gat = std::get_if<GroupedAtReport>(out);
  // Variant switch happens on the first broadcast only. detlint:allow(alloc-event-path)
  if (gat == nullptr) gat = &out->emplace<GroupedAtReport>();
  gat->interval = interval;
  gat->timestamp = now;
  gat->num_groups = grouping_.num_groups();
  gat->groups.clear();
  ChangedGroups(now, &gat->groups);
}

bool GroupedAtServerStrategy::AdvanceQuiet(SimTime now, uint64_t interval,
                                           const MessageSizes& sizes,
                                           uint64_t* bits) {
  (void)interval;
  (void)sizes;
  // Count the distinct changed groups without materializing them.
  db_->UpdatedIn(now - latency_, now, &delta_scratch_);
  uint64_t count = 0;
  uint32_t prev_group = 0;
  for (const UpdatedItem& item : delta_scratch_) {
    const uint32_t group = grouping_.GroupOf(item.id);
    if (count == 0 || group != prev_group) {
      ++count;
      prev_group = group;
    }
  }
  *bits = count * BitsForIds(grouping_.num_groups());
  return true;
}

void GroupedAtServerStrategy::MaterializeQuietInto(SimTime now,
                                                   uint64_t interval,
                                                   Report* out) {
  // Stateless across intervals, like AT: rebuilding is reconstructing.
  BuildReportInto(now, interval, out);
}

GroupedAtClientManager::GroupedAtClientManager(uint64_t n,
                                               uint32_t num_groups)
    : grouping_(n, num_groups) {}

uint64_t GroupedAtClientManager::OnReport(const Report& report,
                                          ClientCache* cache) {
  const auto& gat = std::get<GroupedAtReport>(report);
  assert(gat.num_groups == grouping_.num_groups());
  uint64_t invalidated = 0;

  const bool missed_one = !heard_any_ || gat.interval > last_interval_ + 1;
  if (missed_one) {
    invalidated = cache->size();
    cache->Clear();
  } else {
    invalidated = cache->EraseIf([&](ItemId id, const CacheEntry&) {
      return std::binary_search(gat.groups.begin(), gat.groups.end(),
                                grouping_.GroupOf(id));
    });
    cache->ValidateAllThrough(gat.timestamp);
  }

  heard_any_ = true;
  last_interval_ = gat.interval;
  return invalidated;
}

}  // namespace mobicache
