#include "mu/mobile_unit.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace mobicache {

namespace {
/// Upper bound on how many future sleep decisions one fast-forward scan may
/// draw. A bound is required for degenerate models that never flip (s = 1.0
/// forever-sleepers, or s = 0.0 zero-rate units): the scan stops here and
/// schedules a continuation tick — one event per kMaxFastForwardScan
/// intervals — which re-enters the scan. It also caps wasted draws past the
/// end of a finite run (the scan cannot know when the simulation stops).
constexpr uint64_t kMaxFastForwardScan = 64;

/// Cap on recycled batch vectors kept per unit. One covers the steady state
/// (one group sealed and drained per interval); a few more absorb missed-
/// report pile-ups without hoarding memory across 10^6 units.
constexpr size_t kMaxSpareBatchVectors = 4;
}  // namespace

MobileUnit::MobileUnit(Simulator* sim, MobileUnitConfig config,
                       std::unique_ptr<ClientCacheManager> manager,
                       std::unique_ptr<SleepModel> sleep,
                       UplinkService* uplink, uint64_t seed)
    : sim_(sim),
      config_(std::move(config)),
      manager_(std::move(manager)),
      sleep_(std::move(sleep)),
      uplink_(uplink),
      rng_(seed),
      cache_(config_.hotspot->domain(), config_.cache_capacity) {
  assert(config_.latency > 0.0);
  assert(config_.lambda_per_item >= 0.0);
  total_query_rate_ =
      config_.lambda_per_item * static_cast<double>(config_.hotspot->size());
  if (config_.query_zipf_theta > 0.0) {
    query_zipf_ = std::make_unique<ZipfDistribution>(
        config_.hotspot->size(), config_.query_zipf_theta);
  }
}

MobileUnit::~MobileUnit() { sim_->Cancel(pending_tick_); }

Status MobileUnit::Start() {
  if (started_) {
    return Status::FailedPrecondition("mobile unit already started");
  }
  started_ = true;
  pending_tick_time_ = sim_->Now();
  pending_tick_ = sim_->ScheduleAt(sim_->Now(), [this] { OnIntervalTick(0); });
  return Status::OK();
}

void MobileUnit::BindStatefulRegistry(StatefulRegistry* registry,
                                      bool drop_cache_on_wake) {
  registry_ = registry;
  drop_cache_on_wake_ = drop_cache_on_wake;
  registry_id_ = registry->RegisterClient(
      [this](ItemId id) { ServerInvalidate(id); },
      [this]() { return awake_; });
}

void MobileUnit::ServerInvalidate(ItemId id) { cache_.Erase(id); }

void MobileUnit::BindWakeIndex(WakeIndex* index, uint32_t slot) {
  assert(index != nullptr && slot < index->size());
  assert(!started_ && "bind the wake index before Start()");
  wake_index_ = index;
  wake_slot_ = slot;
  // The index starts all-awake (conservative); the first tick corrects it.
}

void MobileUnit::OnIntervalTick(uint64_t interval) {
  bool awake_now;
  if (has_predrawn_) {
    assert(predrawn_interval_ == interval);
    awake_now = predrawn_awake_;
    has_predrawn_ = false;
  } else {
    awake_now = sleep_->AwakeForInterval(interval);
  }

  if (ever_decided_) {
    if (awake_now && !awake_) {
      if (registry_ != nullptr) registry_->OnClientWake(registry_id_);
      if (drop_cache_on_wake_) cache_.Clear();
    } else if (!awake_now && awake_) {
      if (registry_ != nullptr) registry_->OnClientSleep(registry_id_);
    }
  }
  awake_ = awake_now;
  ever_decided_ = true;

  // Seal the previous interval's arrivals: they may be answered by the
  // report of this interval (index `interval`) or any later one; anything
  // arriving from here on must wait for the next report.
  if (!arriving_.empty()) {
    // Moves the batch into the pending queue; the queue's own storage is
    // cleared (capacity retained) every time it drains, and batch storage
    // recycles through spare_batches_. detlint:allow(alloc-event-path)
    pending_groups_.push_back(SealedGroup{interval, std::move(arriving_)});
    arriving_.clear();
    if (!spare_batches_.empty()) {
      // Take a drained group's warm storage so the next interval's arrivals
      // insert into reserved capacity instead of growing from empty.
      arriving_ = std::move(spare_batches_.back());
      spare_batches_.pop_back();
      arriving_.clear();
    }
  }

  if (awake_) {
    // The user poses queries throughout the interval, independent of when
    // (or whether) the report physically lands.
    if (config_.answer_immediately) {
      // Immediate-answer units keep per-event arrivals: each one fetches
      // through the uplink/channel, so its interleaving with other units'
      // traffic must stay exactly as scheduled.
      ScheduleNextArrival(sim_->Now() + config_.latency);
    } else {
      GenerateIntervalArrivals(sim_->Now() + config_.latency);
    }
  }

  ScheduleNextTick(interval);
}

void MobileUnit::ScheduleNextTick(uint64_t interval) {
  // Awake units with a live query stream tick every interval (each tick
  // seals the previous interval's arrivals and materializes the next
  // interval's). Idle units — asleep, or awake with nothing to ask — only
  // need a tick when their sleep state flips, so scan ahead: every decision
  // the per-interval engine would have drawn is drawn here, same stream,
  // same order, and the first differing one is buffered for the single tick
  // this schedules.
  uint64_t next = interval + 1;
  SimTime when = sim_->Now() + config_.latency;
  const bool idle = !awake_ || total_query_rate_ <= 0.0;
  if (idle) {
    const uint64_t horizon = interval + WakeIndex::kMaxLookaheadIntervals;
    for (uint64_t scanned = 1;; ++scanned) {
      if (!awake_) {
        // Mid-nap hop: intervals the model has already determined (asleep,
        // draw-free) are skipped outright, without spending the scan's
        // draw budget. Clamped to the wake index's lookahead horizon; a
        // clamped hop schedules a plain continuation tick with no predrawn
        // decision (OnIntervalTick consults the model then) — still zero
        // draws across the whole nap.
        uint64_t hop = sleep_->NextPossiblyAwakeInterval(next);
        if (hop > horizon) hop = horizon;
        // Repeated addition, not multiplication: tick times must remain
        // the exact doubles the per-interval schedule would have produced.
        for (; next < hop; ++next) when += config_.latency;
        if (next >= horizon) break;
      }
      const bool decision = sleep_->AwakeForInterval(next);
      if (decision != awake_ || scanned >= kMaxFastForwardScan) {
        has_predrawn_ = true;
        predrawn_awake_ = decision;
        predrawn_interval_ = next;
        break;
      }
      ++next;
      // Same exactness argument as the hop above.
      when += config_.latency;
    }
  }
  pending_tick_time_ = when;
  pending_tick_ =
      sim_->ScheduleAt(when, [this, next] { OnIntervalTick(next); });
  if (wake_index_ != nullptr) {
    // Publish the transition the tick just decided: awake units occupy the
    // bitmap; a sleeping unit registers the wake tick this scan scheduled —
    // exactly NextWakeTime() — so the server can bound the cell's next
    // audible instant without touching any unit.
    if (awake_) {
      wake_index_->MarkAwake(wake_slot_);
    } else {
      wake_index_->MarkAsleep(wake_slot_, next, when);
    }
  }
}

namespace {

/// Per-thread first-arrival table for GenerateIntervalArrivals, indexed by
/// hot-spot domain position: `first[p]` is valid while bit p of `present`
/// is set. Every interval drains the bits it set, so the table is clean
/// between calls and can serve every unit a thread simulates; it grows
/// once, to the largest hot spot seen, instead of costing per-unit memory.
struct ArrivalScratch {
  std::vector<SimTime> first;
  std::vector<uint64_t> present;
};

ArrivalScratch& ArrivalScratchFor(size_t domain_size) {
  thread_local ArrivalScratch scratch;
  if (scratch.first.size() < domain_size) {
    // One-time growth per thread to the largest hot spot; steady-state
    // intervals reuse it. detlint:allow(alloc-event-path)
    scratch.first.resize(domain_size);
    // Same one-time growth. detlint:allow(alloc-event-path)
    scratch.present.resize((domain_size + 63) / 64, 0);
  }
  return scratch;
}

}  // namespace

std::vector<MobileUnit::PendingBatch>& MobileUnit::EligibleScratch() {
  thread_local std::vector<PendingBatch> scratch;
  return scratch;
}

void MobileUnit::GenerateIntervalArrivals(SimTime interval_end) {
  if (total_query_rate_ <= 0.0) return;
  assert(arriving_.empty());
  const HotSpot& hotspot = *config_.hotspot;
  const std::vector<ItemId>& domain = hotspot.domain();
  ArrivalScratch& scratch = ArrivalScratchFor(domain.size());
  SimTime* first = scratch.first.data();
  uint64_t* present = scratch.present.data();
  // Identical draw sequence to the per-event path: exponential gap first;
  // if it lands in the interval, then the item pick — repeat. Arrival
  // timestamps accumulate gap by gap, reproducing the event clock bit for
  // bit. Arrivals come in time order, so the first one per domain position
  // is the batch's first-arrival time (the std::map::emplace "first insert
  // wins" rule) — also when a custom hot spot lists an id twice.
  SimTime t = sim_->Now();
  for (;;) {
    t += rng_.Exponential(total_query_rate_);
    if (t >= interval_end) break;
    const uint64_t index = query_zipf_ != nullptr
                               ? query_zipf_->Sample(rng_)
                               : rng_.NextUint64(hotspot.size());
    ++stats_.queries_issued;
    const uint32_t p = hotspot.PositionOfIndex(index);
    const uint64_t bit = uint64_t{1} << (p & 63);
    if ((present[p >> 6] & bit) == 0) {
      present[p >> 6] |= bit;
      first[p] = t;
    }
  }
  // Drain in ascending position order, which is ascending id order.
  const size_t words = (domain.size() + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = present[w]; bits != 0; bits &= bits - 1) {
      const size_t p = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      // Warm batch storage recycled via spare_batches_; it grows only on
      // record intervals, to at most one entry per hot-spot item.
      // detlint:allow(alloc-event-path)
      arriving_.push_back(PendingBatch{domain[p], first[p]});
    }
    present[w] = 0;
  }
}

void MobileUnit::OnReportDelivery(const Report& report) {
  stats_.items_invalidated += manager_->OnReport(report, &cache_);
  // Answer every sealed group this report's snapshot covers, merging
  // same-item batches across groups (they share one answer and at most one
  // uplink request).
  const SimTime validity_ts = ReportTimestamp(report);
  const uint64_t interval = ReportInterval(report);
  std::vector<PendingBatch>& eligible = EligibleScratch();
  eligible.clear();
  while (pending_head_ < pending_groups_.size() &&
         pending_groups_[pending_head_].answerable_from <= interval) {
    for (const PendingBatch& b : pending_groups_[pending_head_].batches) {
      if (eligible.empty() || eligible.back().id < b.id) {
        // Ascending batches past the merged tail (the whole of a lone
        // group) append without a search. Per-thread scratch, capacity
        // retained across reports. detlint:allow(alloc-event-path)
        eligible.push_back(b);
        continue;
      }
      const auto it = std::lower_bound(
          eligible.begin(), eligible.end(), b.id,
          [](const PendingBatch& e, ItemId v) { return e.id < v; });
      if (it != eligible.end() && it->id == b.id) {
        if (b.first < it->first) it->first = b.first;
      } else {
        // Per-thread scratch, capacity retained across reports.
        // detlint:allow(alloc-event-path)
        eligible.insert(it, b);
      }
    }
    ++pending_head_;  // O(1) pop; storage reclaimed when the queue drains
  }
  if (pending_head_ == pending_groups_.size()) {
    // Recycle the drained groups' batch storage before dropping them; the
    // steady state then seals every interval into a warm vector.
    for (SealedGroup& g : pending_groups_) {
      if (spare_batches_.size() >= kMaxSpareBatchVectors) break;
      g.batches.clear();
      // Spare pool is capped at kMaxSpareBatchVectors; the push moves the
      // drained vector's storage. detlint:allow(alloc-event-path)
      spare_batches_.push_back(std::move(g.batches));
    }
    pending_groups_.clear();
    pending_head_ = 0;
  }
  for (const PendingBatch& b : eligible) {
    AnswerBatch(b.id, b.first, validity_ts);
  }
}

void MobileUnit::ScheduleNextArrival(SimTime interval_end) {
  if (total_query_rate_ <= 0.0) return;
  const SimTime next = sim_->Now() + rng_.Exponential(total_query_rate_);
  if (next >= interval_end) return;  // no more arrivals this interval
  sim_->ScheduleAt(next,
                   [this, interval_end] { OnQueryArrival(interval_end); });
}

void MobileUnit::OnQueryArrival(SimTime interval_end) {
  // Only immediate-answer units take this path; report-driven arrivals are
  // generated in bulk at the interval tick (GenerateIntervalArrivals).
  assert(config_.answer_immediately);
  const HotSpot& hotspot = *config_.hotspot;
  const ItemId item =
      hotspot[query_zipf_ != nullptr ? query_zipf_->Sample(rng_)
                                     : rng_.NextUint64(hotspot.size())];
  ++stats_.queries_issued;
  AnswerBatch(item, sim_->Now(), sim_->Now());
  ScheduleNextArrival(interval_end);
}

void MobileUnit::AnswerBatch(ItemId id, SimTime first_issued,
                             SimTime validity_ts) {
  const SimTime now = sim_->Now();
  uint64_t value = 0;
  bool hit = false;

  if (manager_->CanAnswerFromCache(id, now, cache_)) {
    const CacheEntry* entry = cache_.Get(id);
    if (entry != nullptr) {
      value = entry->value;
      hit = true;
      manager_->OnLocalHit(id, now);
    }
  }

  if (!hit) {
    UplinkQueryInfo info;
    info.id = id;
    info.time = now;
    info.client_id = config_.unit_id;
    info.local_hit_times = manager_->TakePiggyback(id);
    const UplinkService::FetchResult result = uplink_->FetchItem(info);
    value = result.value;
    manager_->OnUplinkFetch(id, result.value, result.server_time, &cache_);
    if (registry_ != nullptr && cache_.Contains(id)) {
      registry_->OnClientCached(registry_id_, id);
    }
  }

  ++stats_.queries_answered;
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  stats_.answer_latency.Add(now - first_issued);
  if (answer_observer_) answer_observer_(id, value, validity_ts, hit);
}

}  // namespace mobicache
