// No-caching baseline (§4.2): clients keep no copies, every query goes
// uplink, and the server broadcasts nothing (Bc = 0). Wins for heavy
// sleepers and update-intensive workloads.

#ifndef MOBICACHE_CORE_NOCACHE_H_
#define MOBICACHE_CORE_NOCACHE_H_

#include "core/strategy.h"

namespace mobicache {

/// Server half of the no-caching baseline: empty reports. Also serves the
/// ideal/stateful/async baselines (their invalidation flows bypass the
/// report machinery), which is why the retention class is per-instance: the
/// no-caching cell declares kNone (its update stream is never read back),
/// while the stateful-family cells keep the default full journal so tests
/// can audit answers against historical ground truth (ValueAt).
class NullServerStrategy : public ServerStrategy {
 public:
  explicit NullServerStrategy(
      JournalRetention retention = JournalRetention::kFullWindow)
      : retention_(retention) {}

  StrategyKind kind() const override { return StrategyKind::kNoCache; }
  void BuildReportInto(SimTime now, uint64_t interval,
                       Report* out) override {
    NullReport* null = std::get_if<NullReport>(out);
    // Variant switch happens on the first broadcast only. detlint:allow(alloc-event-path)
    if (null == nullptr) null = &out->emplace<NullReport>();
    null->interval = interval;
    null->timestamp = now;
  }
  bool AdvanceQuiet(SimTime now, uint64_t interval, const MessageSizes& sizes,
                    uint64_t* bits) override {
    (void)now;
    (void)interval;
    (void)sizes;
    *bits = 0;  // Bc = 0: empty reports, no state to advance.
    return true;
  }
  void MaterializeQuietInto(SimTime now, uint64_t interval,
                            Report* out) override {
    BuildReportInto(now, interval, out);
  }
  JournalRetention retention() const override { return retention_; }
  SimTime JournalHorizonSeconds() const override { return 0.0; }

 private:
  JournalRetention retention_;
};

/// Client half: refuses to cache (uplink fetches are dropped on the floor).
class NoCacheClientManager : public ClientCacheManager {
 public:
  NoCacheClientManager() = default;

  StrategyKind kind() const override { return StrategyKind::kNoCache; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override {
    (void)report;
    (void)cache;
    heard_any_ = true;
    return 0;
  }
  void OnUplinkFetch(ItemId id, uint64_t value, SimTime server_time,
                     ClientCache* cache) override {
    (void)id;
    (void)value;
    (void)server_time;
    (void)cache;
  }
  bool CanAnswerFromCache(ItemId id, SimTime now,
                          const ClientCache& cache) const override {
    (void)id;
    (void)now;
    (void)cache;
    return false;
  }
  bool HasValidBaseline() const override { return heard_any_; }

 private:
  bool heard_any_ = false;
};

/// Client half of the asynchronous-broadcast mode (§3.2): queries are
/// answered immediately; validity is maintained push-style by the cell's
/// per-update invalidation broadcast, and the unit drops its cache on waking
/// (it cannot know which invalidation messages it slept through).
class AsyncClientManager : public ClientCacheManager {
 public:
  AsyncClientManager() = default;

  StrategyKind kind() const override { return StrategyKind::kAsync; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override {
    (void)report;
    (void)cache;
    return 0;
  }
  bool HasValidBaseline() const override { return true; }
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_NOCACHE_H_
