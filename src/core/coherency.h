// Relaxed cache coherency via quasi-copies (paper §7, after Alonso,
// Barbará & Garcia-Molina 1990). Two coherency conditions are supported,
// both implemented as server-side report filters over the AT strategy:
//
//  * Delay condition (Eq. 27): a cached image may lag the central value by
//    at most alpha seconds. The server keeps an obligation list per item:
//    after an item is reported (or fetched uplink) at interval l, changes to
//    it need not be re-reported before interval l + j (alpha = j*L). This
//    keeps rarely-read items out of consecutive reports.
//  * Arithmetic condition (Eq. 28): for numeric items, a change is reported
//    only when the central value has drifted more than epsilon from the last
//    reported value.
//
// Both reduce report size at the cost of bounded staleness, which the
// quasi_copies bench quantifies.

#ifndef MOBICACHE_CORE_COHERENCY_H_
#define MOBICACHE_CORE_COHERENCY_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "core/at.h"
#include "core/strategy.h"

namespace mobicache {

/// Deterministic bounded random walk modelling numeric item values: version
/// v of item `id` has numeric value Sum_{r=1..v} Step(seed, id, r), with
/// each step uniform in [-step_scale, +step_scale]. Both the server filter
/// and tests/benches can evaluate it, so ground truth is always available.
class NumericWalk {
 public:
  NumericWalk(uint64_t seed, double step_scale)
      : seed_(seed), step_scale_(step_scale) {}

  /// Step applied when `id` moves from version r-1 to version r (r >= 1).
  double Step(ItemId id, uint64_t r) const;

  /// Numeric value at `version` (O(version); use Advance for incremental).
  double Value(ItemId id, uint64_t version) const;

  /// Advances `value` from `from_version` to `to_version` incrementally.
  double Advance(ItemId id, uint64_t from_version, uint64_t to_version,
                 double value) const;

  double step_scale() const { return step_scale_; }

 private:
  uint64_t seed_;
  double step_scale_;
};

/// AT with the delay condition: an item enters a report only if it changed
/// since its last inclusion AND its oldest outstanding obligation is at
/// least alpha = j*L old.
class QuasiAtServerStrategy : public ServerStrategy {
 public:
  /// `alpha_intervals` is j >= 1; alpha = j*L. j == 1 degenerates to plain
  /// AT timing (every change reported at the next report).
  QuasiAtServerStrategy(const Database* db, SimTime latency,
                        uint64_t alpha_intervals);

  StrategyKind kind() const override { return StrategyKind::kQuasiAt; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  SimTime JournalHorizonSeconds() const override;
  void OnUplinkQuery(const UplinkQueryInfo& info) override;

  SimTime alpha() const {
    return latency_ * static_cast<double>(alpha_intervals_);
  }

  /// Items filtered out of reports so far because their obligation had not
  /// matured (the bench's savings metric).
  uint64_t deferrals() const { return deferrals_; }

 private:
  struct ItemObligation {
    uint64_t last_included_version = 0;
    /// Earliest interval at which the item may be reported again; 0 means
    /// "no outstanding copies", in which case reporting may be skipped
    /// entirely until someone fetches the item.
    uint64_t eligible_at = 0;
    bool has_outstanding = false;
  };

  const Database* db_;
  SimTime latency_;
  uint64_t alpha_intervals_;
  std::unordered_map<ItemId, ItemObligation> obligations_;
  /// Items with a change awaiting a matured obligation; re-examined at every
  /// report until included.
  std::unordered_set<ItemId> pending_;
  uint64_t deferrals_ = 0;
};

/// Client half for the delay condition: plain AT rules plus alpha-aging —
/// a copy older than alpha seconds may not answer queries until the next
/// report re-validates it (it is kept, not dropped, unless reported).
class QuasiAtClientManager : public AtClientManager {
 public:
  /// `alpha` = j*L and `latency` = L must match the server's schedule.
  QuasiAtClientManager(SimTime alpha, SimTime latency)
      : alpha_(alpha), latency_(latency) {}

  StrategyKind kind() const override { return StrategyKind::kQuasiAt; }
  /// AT drop rules, but validity stamps are only refreshed for copies that
  /// would outlive alpha before the next report (the paper's aging
  /// protocol, made robust at the alpha boundary): younger copies keep
  /// their original stamp so their true age stays visible. With j = 1 this
  /// degenerates to plain AT stamping.
  uint64_t OnReport(const Report& report, ClientCache* cache) override;
  bool CanAnswerFromCache(ItemId id, SimTime now,
                          const ClientCache& cache) const override;

  SimTime alpha() const { return alpha_; }

 private:
  SimTime alpha_;
  SimTime latency_;
};

/// AT with the arithmetic condition over NumericWalk values: an item enters
/// a report only when its numeric value drifted more than epsilon from the
/// last value reported for it. Clients are plain AT clients.
class ArithmeticAtServerStrategy : public ServerStrategy {
 public:
  ArithmeticAtServerStrategy(const Database* db, const NumericWalk* walk,
                             SimTime latency, double epsilon);

  StrategyKind kind() const override { return StrategyKind::kQuasiAt; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  SimTime JournalHorizonSeconds() const override { return latency_; }

  double epsilon() const { return epsilon_; }
  uint64_t suppressions() const { return suppressions_; }

  /// Current numeric value of an item as tracked by the filter (advances
  /// lazily; exposed for tests and benches).
  double CurrentNumeric(ItemId id) const;

 private:
  struct ItemDrift {
    uint64_t version = 0;      // version `numeric` corresponds to
    double numeric = 0.0;      // current numeric value
    double last_reported = 0.0;
  };

  /// Const because it only advances the `mutable` drift cache — the logical
  /// value of the strategy is unchanged by lazily materializing a walk.
  ItemDrift& Track(ItemId id) const;

  const Database* db_;
  const NumericWalk* walk_;
  SimTime latency_;
  double epsilon_;
  mutable std::unordered_map<ItemId, ItemDrift> drift_;
  uint64_t suppressions_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_COHERENCY_H_
