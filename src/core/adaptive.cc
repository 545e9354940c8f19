#include "core/adaptive.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/bits.h"

namespace mobicache {

namespace {

// Bound on buffered Method-1 hit timestamps per item; beyond this the oldest
// are forgotten (the item is clearly hot locally, exact counts matter less).
constexpr size_t kMaxPendingHits = 128;

}  // namespace

AdaptiveTsServerStrategy::AdaptiveTsServerStrategy(const Database* db,
                                                   SimTime latency,
                                                   const MessageSizes& sizes,
                                                   AdaptiveTsOptions options)
    : db_(db), latency_(latency), sizes_(sizes), options_(options) {
  assert(latency > 0.0);
  assert(options_.max_window >= 1);
  assert(options_.initial_window <= options_.max_window);
  assert(options_.eval_period >= 1);
  assert(options_.step >= 1);
}

SimTime AdaptiveTsServerStrategy::JournalHorizonSeconds() const {
  return latency_ *
         static_cast<double>(std::max(options_.max_window,
                                      options_.eval_period));
}

uint64_t AdaptiveTsServerStrategy::WindowOf(ItemId id) const {
  auto it = controllers_.find(id);
  return it == controllers_.end() ? options_.cold_window : it->second.window;
}

void AdaptiveTsServerStrategy::OnUplinkQuery(const UplinkQueryInfo& info) {
  // First request for a cold item activates its controller; the client
  // learns the window from the next report's override table.
  controllers_.try_emplace(
      info.id,
      ControllerState{options_.initial_window, false, 0.0, 0, 0, +1});
  PeriodActivity& act = period_[info.id];
  ++act.uplinks;
  std::vector<SimTime>& times = act.query_times_by_client[info.client_id];
  // Adaptive-controller accounting allocates by design: the per-period
  // activity map is rebuilt each evaluation period, off the lean strategies'
  // allocation-free contract. detlint:allow(alloc-event-path)
  times.push_back(info.time);
  for (SimTime t : info.local_hit_times) {
    ++act.local_hits;
    times.push_back(t);  // detlint:allow(alloc-event-path) same accounting
  }
}

uint64_t AdaptiveTsServerStrategy::UplinkExtraBits(
    const UplinkQueryInfo& info) const {
  if (options_.feedback != AdaptiveFeedback::kMethod1) return 0;
  return static_cast<uint64_t>(info.local_hit_times.size()) * sizes_.bT;
}

void AdaptiveTsServerStrategy::BuildReportInto(SimTime now, uint64_t interval,
                                               Report* out) {
  // The adaptive controller's per-period maps and window table allocate by
  // design, off the lean strategies' allocation-free contract (see
  // OnUplinkQuery). detlint:allow-function(alloc-event-path)
  if (interval > 0 && interval % options_.eval_period == 0) {
    Reevaluate(now, interval);
  }

  AdaptiveTsReport* report = std::get_if<AdaptiveTsReport>(out);
  if (report == nullptr) report = &out->emplace<AdaptiveTsReport>();
  report->interval = interval;
  report->timestamp = now;
  report->window_bits =
      static_cast<uint32_t>(std::max<uint64_t>(1, CeilLog2(options_.max_window + 1)));
  report->entries.clear();
  report->window_changes.clear();

  // Items updated within their own window w(i) = k_i * L.
  const SimTime max_window_secs =
      latency_ * static_cast<double>(options_.max_window);
  for (const UpdatedItem& item : db_->UpdatedIn(now - max_window_secs, now)) {
    const uint64_t k = WindowOf(item.id);
    if (k == 0) continue;
    if (item.updated_at > now - latency_ * static_cast<double>(k)) {
      report->entries.push_back(TsReportEntry{item.id, item.updated_at});
      ++period_[item.id].reported;
    }
  }

  // The complete table of non-cold windows travels with every report so a
  // client's window knowledge is always refreshed in full; its size is
  // bounded by the number of distinct items the cell actually queries.
  // detlint:allow(unordered-output) entries are sorted by id below
  for (const auto& [id, st] : controllers_) {
    if (st.window != options_.cold_window) {
      report->window_changes.push_back(
          WindowChangeEntry{id, static_cast<uint32_t>(st.window)});
    }
  }
  std::sort(report->window_changes.begin(), report->window_changes.end(),
            [](const WindowChangeEntry& a, const WindowChangeEntry& b) {
              return a.id < b.id;
            });
}

namespace {

/// Would-be hits of one never-sleeping client: query q_j hits iff no update
/// occurred in (q_{j-1}, q_j] (the first query is judged against the period
/// start). Returns {hits, queries}.
std::pair<uint64_t, uint64_t> ClientWouldBeHits(
    std::vector<SimTime> queries, const std::vector<SimTime>& updates,
    SimTime period_start) {
  std::sort(queries.begin(), queries.end());
  uint64_t hits = 0;
  SimTime prev = period_start;
  for (SimTime q : queries) {
    const bool updated_between =
        std::upper_bound(updates.begin(), updates.end(), prev) !=
        std::upper_bound(updates.begin(), updates.end(), q);
    if (!updated_between) ++hits;
    prev = q;
  }
  return {hits, queries.size()};
}

/// MHR(i): query-weighted average of the per-client would-be hit ratios.
/// Clients are kept separate — merging the population's streams would
/// shrink the inter-arrival gaps and overestimate the achievable ratio.
double MhrFromClientHistories(
    const std::unordered_map<uint32_t, std::vector<SimTime>>& by_client,
    const std::vector<SimTime>& updates, SimTime period_start) {
  uint64_t hits = 0, total = 0;
  // detlint:allow(unordered-output) integer sums are iteration-order-free
  for (const auto& [client, queries] : by_client) {
    const auto [h, n] = ClientWouldBeHits(queries, updates, period_start);
    hits += h;
    total += n;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

double AdaptiveTsServerStrategy::ComputeGainMethod1(
    const ControllerState& st, const PeriodActivity& act, double ahr) const {
  const double total_q = static_cast<double>(act.uplinks + act.local_hits);
  // Bits saved on the uplink by the hit-ratio change, minus bits added to
  // the reports (Eq. 30, oriented as savings).
  return (ahr - st.last_ahr) * total_q * static_cast<double>(sizes_.bq) -
         (static_cast<double>(act.reported) -
          static_cast<double>(st.last_reported)) *
             static_cast<double>(sizes_.id_bits + sizes_.bT);
}

double AdaptiveTsServerStrategy::ComputeGainMethod2(
    const ControllerState& st, const PeriodActivity& act) const {
  // Coarser Eq. 32: uplink-count delta stands in for the hit-ratio delta.
  return (static_cast<double>(st.last_uplinks) -
          static_cast<double>(act.uplinks)) *
             static_cast<double>(sizes_.bq) -
         (static_cast<double>(act.reported) -
          static_cast<double>(st.last_reported)) *
             static_cast<double>(sizes_.id_bits + sizes_.bT);
}

void AdaptiveTsServerStrategy::Reevaluate(SimTime now, uint64_t interval) {
  (void)interval;
  ++evaluations_run_;

  // Per-item update histories over the period, for MHR estimation. The raw
  // per-update entries only exist under full-window retention; this strategy
  // declares kFullWindow, and the guard keeps a future retention change from
  // silently feeding the controller an empty history.
  assert(db_->retention() == JournalRetention::kFullWindow &&
         "adaptive MHR estimation reads raw journal entries");
  std::unordered_map<ItemId, std::vector<SimTime>> updates;
  for (const UpdatedItem& ev : db_->JournalIn(period_start_, now)) {
    if (period_.count(ev.id) > 0) updates[ev.id].push_back(ev.updated_at);
  }

  // Evaluate items in sorted-id order. The per-item decisions are
  // independent, so hash order was not load-bearing — but determinism in a
  // report path should be structural, not incidental.
  std::vector<ItemId> item_ids;
  item_ids.reserve(period_.size());
  // detlint:allow(unordered-output) keys are sorted below before use
  for (const auto& entry : period_) item_ids.push_back(entry.first);
  std::sort(item_ids.begin(), item_ids.end());

  for (ItemId id : item_ids) {
    PeriodActivity& act = period_.find(id)->second;
    // Controllers are created on uplink queries; a period entry without one
    // cannot exist for reported items (reporting requires window > 0).
    auto it = controllers_.find(id);
    if (it == controllers_.end()) continue;
    ControllerState& st = it->second;

    const uint64_t total_q = act.uplinks + act.local_hits;
    const double ahr =
        total_q == 0
            ? 0.0
            : static_cast<double>(act.local_hits) / static_cast<double>(total_q);

    int direction = 0;
    if (total_q == 0 && act.reported > 0) {
      // Reported but never queried: pure report overhead; shrink.
      direction = -1;
    } else if (options_.feedback == AdaptiveFeedback::kMethod1) {
      // Method 1 sees the full query history, so it can apply the paper's
      // two rules directly every period; the bit gain breaks ties.
      const double mhr = MhrFromClientHistories(act.query_times_by_client,
                                                updates[id], period_start_);
      if (mhr < options_.mhr_floor) {
        // Too hot to cache even for a never-sleeping client.
        direction = -1;
      } else if (ahr + options_.ahr_gap < mhr) {
        // Sleepers are losing hits a wider window would grant.
        direction = +1;
      } else if (st.evaluated_before) {
        const double gain = ComputeGainMethod1(st, act, ahr);
        if (gain > options_.gain_threshold) {
          direction = st.direction;  // the last adjustment helped; continue
        } else if (gain < -options_.gain_threshold) {
          direction = -st.direction;  // it hurt; back off
        }
      }
    } else if (!st.evaluated_before) {
      direction = act.uplinks > 0 ? +1 : -1;
    } else {
      const double gain = ComputeGainMethod2(st, act);
      if (gain > options_.gain_threshold) {
        direction = st.direction;
      } else if (gain < -options_.gain_threshold) {
        direction = -st.direction;
      }
    }

    if (direction != 0) {
      st.direction = direction;
      const int64_t step =
          static_cast<int64_t>(options_.step) * static_cast<int64_t>(direction);
      int64_t next = static_cast<int64_t>(st.window) + step;
      next = std::clamp<int64_t>(next, 0,
                                 static_cast<int64_t>(options_.max_window));
      st.window = static_cast<uint64_t>(next);
    }

    st.last_ahr = ahr;
    st.last_uplinks = act.uplinks;
    st.last_reported = act.reported;
    st.evaluated_before = true;

    // Compaction: a window-0 controller for an item nobody queried any more
    // behaves exactly like a cold item, so its table entry (and state) can
    // be dropped.
    if (st.window == 0 && total_q == 0 && options_.cold_window == 0) {
      controllers_.erase(it);
    }
  }

  period_.clear();
  period_start_ = now;
}

AdaptiveTsClientManager::AdaptiveTsClientManager(SimTime latency,
                                                 AdaptiveTsOptions options)
    : latency_(latency), options_(options) {
  assert(latency > 0.0);
}

uint64_t AdaptiveTsClientManager::KnownWindowOf(ItemId id) const {
  auto it = known_windows_.find(id);
  return it == known_windows_.end() ? options_.cold_window : it->second;
}

uint64_t AdaptiveTsClientManager::OnReport(const Report& report,
                                           ClientCache* cache) {
  const auto& ats = std::get<AdaptiveTsReport>(report);

  // The report carries the complete override table: rebuild window
  // knowledge from scratch (items absent from the table are back at the
  // default), so even a decrease that happened during a long nap takes
  // effect before validity is judged.
  known_windows_.clear();
  for (const WindowChangeEntry& ch : ats.window_changes) {
    known_windows_[ch.id] = ch.window_intervals;
  }

  std::unordered_map<ItemId, SimTime> mentioned;
  // Adaptive clients rebuild the mention map per report; the adaptive
  // variant trades allocations for its controller and is off the lean
  // strategies' allocation-free contract. detlint:allow(alloc-event-path)
  mentioned.reserve(ats.entries.size());
  for (const TsReportEntry& e : ats.entries) mentioned[e.id] = e.updated_at;

  const uint64_t invalidated =
      cache->EraseIf([&](ItemId id, const CacheEntry& entry) {
        auto it = mentioned.find(id);
        if (it != mentioned.end()) return entry.timestamp < it->second;
        // Silence proves validity only if the copy is young enough that
        // any change since its stamp would have appeared in this report's
        // window.
        const double window_secs =
            latency_ * static_cast<double>(KnownWindowOf(id));
        if (entry.timestamp < ats.timestamp - window_secs) {
          ++staleness_drops_;
          return true;
        }
        return false;
      });
  // Every survivor — mentioned with an older report stamp or vouched for by
  // silence — is revalidated through the report time.
  cache->ValidateAllThrough(ats.timestamp);

  heard_any_ = true;
  return invalidated;
}

void AdaptiveTsClientManager::OnLocalHit(ItemId id, SimTime time) {
  if (options_.feedback != AdaptiveFeedback::kMethod1) return;
  std::vector<SimTime>& hits = pending_hits_[id];
  if (hits.size() >= kMaxPendingHits) hits.erase(hits.begin());
  // Bounded at kMaxPendingHits entries per id; capacity is retained once the
  // bound is reached. detlint:allow(alloc-event-path)
  hits.push_back(time);
}

std::vector<SimTime> AdaptiveTsClientManager::TakePiggyback(ItemId id) {
  if (options_.feedback != AdaptiveFeedback::kMethod1) return {};
  auto it = pending_hits_.find(id);
  if (it == pending_hits_.end()) return {};
  std::vector<SimTime> out = std::move(it->second);
  pending_hits_.erase(it);
  return out;
}

}  // namespace mobicache
